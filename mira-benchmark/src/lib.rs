#![warn(missing_docs)]
//! # mira-benchmark — the repository benchmark
//!
//! Four workloads ([`workloads::WORKLOADS`]) measure what users of the
//! reproduction wait for: the full `all_experiments` pass, bare
//! `Network` stepping on the paper's 6×6 design points and on a
//! saturated 32×32 mesh, and `Simulator::run` with every recorder on.
//! An untraced run reports the end-to-end metrics named in
//! `BENCHMARK.json`; a traced run times each call the benchmark makes
//! into a layer and reports the per-layer metrics. See `README.md` for
//! the definitions and how to run, compare and trace.

pub mod compare;
pub mod record;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
