//! Fig. 13(b): power saving from layer shutdown at 25% / 50% short flits.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig13b_shutdown_savings")]);
}
