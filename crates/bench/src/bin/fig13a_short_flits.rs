//! Fig. 13(a): short-flit percentage per application.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig13a_short_flits")]);
}
