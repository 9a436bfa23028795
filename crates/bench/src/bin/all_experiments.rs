//! Runs every table and figure in sequence (the full reproduction pass):
//! every entry of `EXHIBITS`, each point simulated once.
//!
//! `--quick` keeps the total under a couple of minutes; the default
//! configuration is what EXPERIMENTS.md records.
use mira_bench::{run, Cli, EXHIBITS};

fn main() {
    run(Cli::parse(), &EXHIBITS);
}
