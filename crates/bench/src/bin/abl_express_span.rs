//! Ablation: express-channel span on the 6×6 multi-layer mesh.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("abl_express_span")]);
}
