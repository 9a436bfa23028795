//! Fig. 11(a): average latency vs injection rate, uniform random.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig11a_latency_ur")]);
}
