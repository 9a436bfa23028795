//! Fig. 11(d): average hop counts for UR / NUCA-UR / MP-trace traffic.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig11d_hops")]);
}
