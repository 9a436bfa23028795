//! The result of one benchmark run: what a workload child reports to
//! the parent and what the parent writes as a result file.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::stats::Summary;

/// One measured metric: the median over the run's repetitions, with
/// its quartiles and sample count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name (see `BENCHMARK.json`).
    pub name: String,
    /// Unit of every number below.
    pub unit: String,
    /// Median over the run's samples.
    pub value: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Samples behind the value.
    pub n: u64,
}

impl Metric {
    /// A metric summarising repeated samples.
    pub fn from_summary(name: &str, unit: &str, s: Summary) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: s.median,
            p25: s.p25,
            p75: s.p75,
            n: s.n as u64,
        }
    }

    /// A metric measured once.
    pub fn single(name: &str, unit: &str, value: f64) -> Metric {
        Metric::from_summary(name, unit, Summary::of(&[value]))
    }
}

/// One output check and its outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values, for a failure report.
    pub detail: String,
}

impl Check {
    /// A check that holds when `ok`.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check { name: name.into(), ok, detail: detail.into() }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget the run was given, seconds.
    pub seconds: f64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Repetitions of the workload's batch the run measured.
    pub reps: u64,
    /// CPUs available to the run.
    pub host_cpus: u64,
    /// Git revision the simulator was built from.
    pub git_rev: String,
    /// Compiler that built it.
    pub rustc: String,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Every output check made.
    pub checks: Vec<Check>,
    /// Output digests by point label (FNV-1a, hex).
    pub digests: BTreeMap<String, String>,
}

impl RunRecord {
    /// Checks made.
    pub fn attempted(&self) -> u64 {
        self.checks.len() as u64
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Reads a result file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the file when it cannot be read or
    /// parsed.
    pub fn load(path: &Path) -> Result<RunRecord, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }

    /// Writes the result file, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns a message naming the file when it cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let json = serde_json::to_string_pretty(self).expect("records serialise");
        std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// 64-bit FNV-1a over `bytes`, the digest the output checks compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
