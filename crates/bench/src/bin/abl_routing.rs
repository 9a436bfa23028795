//! Ablation: X-Y vs turn-model adaptive routing on adversarial traffic.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("abl_routing")]);
}
