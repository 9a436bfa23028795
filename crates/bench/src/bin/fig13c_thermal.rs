//! Fig. 13(c): temperature reduction from layer shutdown (3DM).
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig13c_thermal")]);
}
