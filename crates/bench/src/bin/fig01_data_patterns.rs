//! Fig. 1: data-pattern breakdown of cache-line words per application.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig01_data_patterns")]);
}
