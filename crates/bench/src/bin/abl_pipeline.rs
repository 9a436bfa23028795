//! Ablation: router pipeline depth (Fig. 8(a)-(c) organisations) on the
//! 3DM substrate.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("abl_pipeline")]);
}
