//! A result file reads back exactly as it was written.

use std::collections::BTreeMap;
use std::path::Path;

use mira_benchmark::record::{Check, Metric, RunRecord};
use mira_benchmark::stats::Summary;

#[test]
fn result_file_round_trips() {
    let record = RunRecord {
        workload: "step_6x6".to_string(),
        seed: 7,
        seconds: 20.0,
        traced: false,
        reps: 3,
        host_cpus: 2,
        git_rev: "0123456789ab".to_string(),
        rustc: "rustc 1.95.0".to_string(),
        metrics: vec![
            Metric::from_summary("sim_cycles_per_s", "1/s", Summary::of(&[1.0 / 3.0, 0.5, 2.25e5])),
            Metric::single("peak_rss_mb", "MiB", 5.08203125),
        ],
        checks: vec![
            Check::new("2DB @ 0.05: flits conserved", true, "10 vs 4 + 3 + 3"),
            Check::new("digest \"quoted\"\nline", false, "a\\b"),
        ],
        digests: BTreeMap::from([("2DB @ 0.05".to_string(), "61b7dee0138ae938".to_string())]),
    };
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("round-trip/record.json");
    record.save(&path).expect("saves");
    let back = RunRecord::load(&path).expect("loads");
    assert_eq!(back, record);
    assert_eq!((back.attempted(), back.failed()), (2, 1));
    assert_eq!(back.metric("peak_rss_mb").map(|m| m.value), Some(5.08203125));
}

#[test]
fn a_corrupt_result_file_is_an_error_naming_it() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("round-trip/corrupt.json");
    std::fs::create_dir_all(path.parent().expect("has a parent")).expect("creates dir");
    std::fs::write(&path, "{\"workload\": ").expect("writes");
    let err = RunRecord::load(&path).expect_err("does not parse");
    assert!(err.contains("corrupt.json"), "{err}");
}
