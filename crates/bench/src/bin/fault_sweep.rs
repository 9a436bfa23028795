//! Fault-degradation sweep: delivered fraction and average latency vs
//! transient link-fault rate for 2DB / 3DM / 3DM-E (DESIGN.md §12).
//!
//! Composes with the shared fault flags: `--kill-link` adds a permanent
//! kill on top of every sweep point, `--fault-seed` reseeds the plans.
use mira_bench::{named, run, Cli};

fn main() {
    run(Cli::parse(), [named("fault_sweep")]);
}
