//! Fig. 11(c): MP-trace latency normalised to 2DB.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig11c_latency_traces")]);
}
