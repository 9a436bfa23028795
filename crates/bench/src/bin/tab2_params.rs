//! Table 2: design parameters (wire delays, link lengths).
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("tab2_params")]);
}
