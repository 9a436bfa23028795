//! Ablation: VC count and buffer depth around the paper's V=2, k=4
//! operating point.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("abl_buffers")]);
}
