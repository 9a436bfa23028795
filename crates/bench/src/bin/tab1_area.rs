//! Table 1: router component areas for 2DB / 3DB / 3DM / 3DM-E.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("tab1_area")]);
}
