//! Fig. 12(b): average power vs request rate, NUCA-UR bimodal.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig12b_power_nucaur")]);
}
