//! The benchmark's definition, read from `BENCHMARK.json` at the
//! repository root: workload names, metric names, units, directions and
//! regression bounds. The workload code states the unit of every value
//! it measures; the smoke tests check the two agree.

use serde::Deserialize;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct MetricSpec {
    /// Metric name, as the run prints it.
    pub name: String,
    /// Unit the value is in.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// The improvement direction.
    ///
    /// # Panics
    ///
    /// Panics on a `better` other than `lower`/`higher` (a malformed
    /// `BENCHMARK.json`, which the tests reject).
    pub fn direction(&self) -> Direction {
        match self.better.as_str() {
            "lower" => Direction::Lower,
            "higher" => Direction::Higher,
            other => panic!("metric {}: unknown direction {other:?}", self.name),
        }
    }
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name, as `--workload` takes it.
    pub name: String,
    /// Why the workload is in the benchmark.
    pub why: String,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
}

/// The text of `BENCHMARK.json`, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The parsed benchmark definition.
///
/// # Panics
///
/// Panics when `BENCHMARK.json` does not parse (the tests catch this).
pub fn spec() -> Spec {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}
