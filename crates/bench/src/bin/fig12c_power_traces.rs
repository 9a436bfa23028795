//! Fig. 12(c): MP-trace power normalised to 2DB (shutdown on 3DM/3DM-E).
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig12c_power_traces")]);
}
