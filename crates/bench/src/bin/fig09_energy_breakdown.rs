//! Fig. 9: per-flit energy breakdown per architecture.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig09_energy_breakdown")]);
}
