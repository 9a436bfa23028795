//! Extension: converged power–thermal co-simulation with
//! temperature-dependent leakage, for all four hardware architectures.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("cosim_leakage")]);
}
