//! Fig. 11(b): average latency vs request rate, NUCA-UR bimodal.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig11b_latency_nucaur")]);
}
