//! Extension: vertical temperature profile of the stacked designs —
//! the power-density story of §1 made visible: the same cores produce
//! a hotter chip when stacked into a quarter of the footprint.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("ext_layer_profile")]);
}
