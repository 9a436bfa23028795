//! Fig. 12(a): average power vs injection rate, uniform random, 0% short.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig12a_power_ur")]);
}
