//! Fig. 2: packet-type distribution per application.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fig02_packet_types")]);
}
