//! Experiment runners: one module per group of tables/figures.
//!
//! Each runner regenerates the data behind one of the paper's exhibits
//! and returns it as a [`Figure`](crate::report::Figure),
//! [`BarFigure`](crate::report::BarFigure) or
//! [`TextTable`](crate::report::TextTable); the `mira-bench` binaries
//! print them. The experiment↔module map lives in DESIGN.md §5.

pub mod ablations;
pub mod common;
pub mod energy;
pub mod exhibits;
pub mod faults;
pub mod latency;
pub mod patterns;
pub mod power;
pub mod runner;
pub mod scorecard;
pub mod tables;
pub mod thermal;

pub use common::{quick_sim_config, run_arch, RunResult, SweepPoint, EXPERIMENT_SEED};
pub use runner::{derive_seed, PointOutcome, RunBatch, RunSummary, Runner, SimPoint};
