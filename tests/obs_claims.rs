//! Acceptance tests for host-side observability (DESIGN.md §15): the
//! phase profiler accounts for ≥ 95% of hot-loop wall time, a stored
//! runner batch appends its summary as the store file's batch line, and
//! the batch summary carries provenance and per-worker accounting.
//!
//! Tests that flip the global obs switch live in one `#[test]` so no
//! concurrent test observes a half-configured process.

use mira::arch::Arch;
use mira::experiments::common::{quick_sim_config, run_arch, EXPERIMENT_SEED};
use mira::experiments::runner::{derive_seed, session_summaries, ProgressEvent, Runner, SimPoint};
use mira_noc::anomaly::AnomalyConfig;
use mira_noc::traffic::UniformRandom;
use serde::Serialize;

fn ur_point(label: &str, rate: f64, seed: u64) -> SimPoint {
    SimPoint::new(label, seed, move |s| {
        run_arch(Arch::TwoDB, false, Box::new(UniformRandom::new(rate, 5, s)), quick_sim_config())
    })
}

/// The batch summary carries build provenance, per-worker busy/idle
/// accounting, queue waits and the arena watermark — with observability
/// *off* (they are plain host-side measurements, always available).
#[test]
fn summary_carries_provenance_and_worker_accounting() {
    let seed = derive_seed(EXPERIMENT_SEED, 0);
    let points = vec![
        ur_point("a", 0.05, seed),
        ur_point("b", 0.05, seed),
        ur_point("c", 0.10, seed),
        ur_point("d", 0.10, seed),
    ];
    let batch = Runner::with_jobs(2).exhibit("obs_claims_off").run(points);
    let s = &batch.summary;

    assert!(!s.build.git_rev.is_empty(), "git rev stamped");
    assert!(s.build.rustc.contains("rustc"), "rustc version stamped: {:?}", s.build.rustc);
    assert!(s.build.profile == "debug" || s.build.profile == "release");

    assert_eq!(s.workers.len(), 2, "one summary per worker");
    let worker_points: usize = s.workers.iter().map(|w| w.points).sum();
    assert_eq!(worker_points, 4, "every point attributed to a worker");
    let worker_busy: f64 = s.workers.iter().map(|w| w.busy_ms).sum();
    assert!((worker_busy - s.busy_ms).abs() < 1e-6, "worker busy sums to batch busy");
    assert!(s.imbalance >= 1.0, "imbalance is max/mean, so >= 1");
    assert!(s.queue_wait_max_ms >= s.queue_wait_mean_ms);
    assert!(s.peak_arena_flits > 0, "a loaded run has live flits");
    for (o, d) in batch.outcomes.iter().zip(&s.point_details) {
        assert_eq!(o.result.arena_peak_flits, d.arena_peak_flits);
        assert!(d.queue_wait_ms >= 0.0);
    }

    // The new fields survive serialization (nothing pins RunSummary
    // JSON byte-for-byte, but monitors key on these names).
    let json = serde_json::to_string(&s.to_value()).expect("summary serializes");
    for key in [
        "queue_wait_mean_ms",
        "imbalance",
        "peak_arena_flits",
        "\"workers\"",
        "\"build\"",
        "git_rev",
    ] {
        assert!(json.contains(key), "summary JSON carries {key}");
    }
}

/// A progress event renders as one parseable JSON line with the fields
/// a monitor needs to be stateless.
#[test]
fn progress_event_line_parses() {
    let e = ProgressEvent {
        done: 3,
        total: 8,
        label: "ur 3DM @ 0.15".to_string(),
        seed: 42,
        wall_ms: 12.5,
        cycles: 7_800,
        kcycles_per_sec: 624.0,
        saturated: false,
        failed: false,
    };
    let line = e.to_jsonl();
    assert!(!line.contains('\n'), "one line per event");
    let v: serde::Value = serde_json::from_str(&line).expect("line parses");
    assert_eq!(v.field("done").as_u64().expect("done"), 3);
    assert_eq!(v.field("total").as_u64().expect("total"), 8);
    assert_eq!(v.field("label").as_str().expect("label"), "ur 3DM @ 0.15");
    assert!(!v.field("saturated").as_bool().expect("saturated"));
    assert!(v.field("kcycles_per_sec").as_f64().expect("rate") > 0.0);
}

/// The obs-enabled acceptance claims, serialized in one test:
///
/// 1. the phase profiler's tiled sections account for ≥ 95% of measured
///    `Network::step` wall time on a real simulation, and an armed run
///    attributes its anomaly detectors to their own driver phase;
/// 2. a runner batch with a store directory writes one point line per
///    point plus one batch line carrying its summary, which the session
///    list also holds;
/// 3. the snapshot renders those phases and metrics in both formats.
#[test]
fn obs_enabled_end_to_end() {
    mira_obs::set_enabled(true);
    mira_obs::phase::reset();

    // Claim 1: profile a real, recorder-armed run and check coverage.
    let r = run_arch(
        Arch::ThreeDM,
        false,
        Box::new(UniformRandom::new(0.10, 5, EXPERIMENT_SEED)),
        quick_sim_config().with_anomaly(AnomalyConfig::detect()),
    );
    assert!(r.report.packets_ejected > 0, "profiled run moved traffic");
    let coverage = mira_obs::phase::coverage().expect("steps were profiled");
    assert!(
        coverage >= 0.95,
        "phase sections account for {:.1}% of step wall time (claim: >= 95%)",
        coverage * 100.0
    );
    let phases = mira_obs::phase::snapshot();
    let by_name = |n: &str| phases.iter().find(|p| p.phase == n).expect("phase row");
    assert!(by_name("step_total").calls > 0);
    assert!(by_name("router_pipeline").nanos > 0);
    assert!(by_name("stage_st").calls > 0, "router stages profiled");
    assert!(by_name("workload").calls > 0, "driver phases profiled");
    assert!(by_name("anomaly").calls > 0, "armed detectors profiled");

    // Claim 2: a stored batch writes N point lines plus one batch line.
    let dir = std::env::temp_dir().join(format!("mira_obs_claims_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = derive_seed(EXPERIMENT_SEED, 1);
    let points = vec![ur_point("p0", 0.05, seed), ur_point("p1", 0.10, seed)];
    let hash =
        mira_obs::store::config_hash("obs_claims", points.iter().map(|p| (p.label(), p.seed())));
    let batch = Runner::with_jobs(2).checkpoint_dir(&dir).exhibit("obs_claims").run(points);
    let path = mira_obs::store::path_for(&dir, "obs_claims", hash);
    let stored = mira_obs::store::load(&path, hash).expect("store written");
    assert_eq!(stored.points.len(), 2, "one point line per point");
    assert_eq!(stored.batches.len(), 1, "one batch line per run");
    assert_eq!((stored.stale_lines, stored.torn_lines), (0, 0));
    let line = &stored.batches[0];
    let s = &batch.summary;
    assert_eq!(line.exhibit, "obs_claims");
    assert_eq!(line.config_hash, mira_obs::store::hash_hex(hash), "hash covers labels and seeds");
    assert!(line.ts_ms > 0);
    let field = |name: &str| line.batch.field(name).as_u64().expect(name);
    assert_eq!(field("cycles_simulated"), s.cycles_simulated);
    assert_eq!(field("peak_arena_flits"), s.peak_arena_flits);
    assert_eq!(line.batch.field("build").field("git_rev").as_str().expect("rev"), s.build.git_rev);
    assert!(line.batch.field("kcycles_per_sec").as_f64().expect("rate") > 0.0);
    let json = |s: &mira::experiments::runner::RunSummary| {
        serde_json::to_string(&s.to_value()).expect("summary serializes")
    };
    assert!(
        session_summaries().iter().any(|e| json(e) == json(s)),
        "the summary is also in the session list"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Claim 3: the snapshot renders everything in both formats.
    let snap = mira_obs::snapshot();
    assert!(snap.coverage.is_some());
    assert!(snap.metrics.iter().any(|m| m.name == "mira_runner_points_total"));
    assert!(snap.metrics.iter().any(|m| m.name == "mira_arena_live_peak_flits"));
    let prom = snap.to_prometheus();
    assert!(prom.contains("mira_phase_nanos_total{phase=\"router_pipeline\"}"));
    assert!(prom.contains("mira_runner_point_wall_ms_count"));
    let back: mira_obs::ObsSnapshot =
        serde_json::from_str(&snap.to_json()).expect("snapshot round-trips");
    assert_eq!(back.phases.len(), snap.phases.len());

    mira_obs::set_enabled(false);
}
