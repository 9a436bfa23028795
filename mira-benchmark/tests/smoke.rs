//! Every workload, run in-process at a tiny size, reports every metric
//! `BENCHMARK.json` names, finite and in the unit the file gives.

use mira_benchmark::spec::{spec, MetricSpec};
use mira_benchmark::workloads::{
    self, Params, Scale, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS,
};

fn assert_reports(workload: &str, traced: bool, metrics: &[MetricSpec]) {
    let params = Params { seed: DEFAULT_SEED, seconds: 0.0, traced, scale: Scale::Tiny };
    let out = workloads::run(workload, params).expect("workload runs");
    assert!(out.reps >= 1, "{workload}: no repetition measured");
    assert_eq!(out.metrics.len(), metrics.len(), "{workload}: metric count");
    for m in metrics {
        let got = out.metrics.iter().find(|g| g.name == m.name);
        let got = got.unwrap_or_else(|| panic!("{workload}: {} missing", m.name));
        assert!(got.value.is_finite(), "{workload}: {} = {}", m.name, got.value);
        assert_eq!(got.unit, m.unit, "{workload}: unit of {}", m.name);
    }
    assert!(!out.checks.is_empty(), "{workload}: no output checks");
    assert!(!out.digests.is_empty(), "{workload}: no digests");
    // The tiny reproduction pass is too short for the scorecard's bands;
    // every other check is size-independent.
    if workload != "repro_full" {
        for c in &out.checks {
            assert!(c.ok, "{workload}: {} ({})", c.name, c.detail);
        }
    }
    if traced {
        let tracer = out.tracer.expect("a traced run keeps its spans");
        assert!(!tracer.spans().is_empty(), "{workload}: no spans");
        let json: serde::Value =
            serde_json::from_str(&tracer.to_chrome_json()).expect("trace is valid JSON");
        assert!(!json.field("traceEvents").as_array().expect("event array").is_empty());
    }
}

/// One test: the workloads toggle the process-wide phase profiler, so
/// they must not run concurrently.
#[test]
fn every_workload_reports_every_metric_in_its_unit() {
    let spec = spec();
    for w in WORKLOADS {
        assert_reports(w, false, &spec.end_to_end);
        assert_reports(w, true, &spec.per_layer);
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let spec = spec();
    let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    let pairs = |ms: &[MetricSpec]| -> Vec<(String, String)> {
        ms.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(pairs(&spec.end_to_end), own(&END_TO_END));
    assert_eq!(pairs(&spec.per_layer), own(&PER_LAYER));
}

#[test]
fn benchmark_json_keeps_to_its_limits() {
    let spec = spec();
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!((1..=60).contains(&spec.run_seconds));
    assert!((2..=8).contains(&spec.workloads.len()));
    for w in &spec.workloads {
        assert!(name_ok(&w.name) && w.why.len() <= 200 && !w.why.contains('\n'), "{w:?}");
    }
    for m in &spec.end_to_end {
        assert!(name_ok(&m.name) && unit_ok(&m.unit), "{m:?}");
        m.direction();
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!((0.0..=0.25).contains(&bound), "{m:?}");
    }
    let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s defined");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    for m in &spec.per_layer {
        assert!(name_ok(&m.name) && unit_ok(&m.unit) && m.bound.is_none(), "{m:?}");
        m.direction();
    }
    let mut all: Vec<&str> =
        spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()).collect();
    all.extend(spec.workloads.iter().map(|w| w.name.as_str()));
    let before = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), before, "every name is used once");
}
