//! Fig. 12(d): power-delay product normalised to 2DB, uniform random.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig12d_pdp")]);
}
