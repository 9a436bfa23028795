//! The reproduction scorecard: every headline claim of the paper checked
//! against a live run, with PASS/FAIL verdicts, plus journey-sourced
//! tail columns (p99 / p99.9 latency and the dominant attribution
//! component at p99, per architecture).
//!
//! `--json` emits `{"claims": [...], "tail": [...], "host": {...}}`: one
//! object per claim (`name`, `source`, `expected`, `actual`, `band`,
//! `passes`), one tail row per architecture, and a host section (wall
//! time, Kcycles/s, peak arena watermark, build rev — summed over the
//! process's batch summaries), so CI can archive all three as an
//! artifact.
use std::time::Instant;

use mira::experiments::runner::session_summaries;
use mira::experiments::scorecard::{
    run_scorecard, scorecard_table, tail_summaries, tail_table, Claim,
};
use mira_bench::{write_obs_artifacts, write_telemetry_artifacts, Cli, RunSummary};
use serde::Serialize;

/// JSON shape of one claim row.
struct ClaimRow<'a>(&'a Claim);

impl Serialize for ClaimRow<'_> {
    fn to_value(&self) -> serde::Value {
        let c = self.0;
        serde::Value::Object(vec![
            ("name".to_string(), c.what.to_value()),
            ("source".to_string(), c.source.to_value()),
            ("expected".to_string(), c.paper.to_value()),
            ("actual".to_string(), c.measured.to_value()),
            ("band".to_string(), c.band.to_value()),
            ("passes".to_string(), serde::Value::Bool(c.passes())),
        ])
    }
}

/// The `"host"` section: this process's simulation batches summarised
/// from the in-process session list (total wall time across batches,
/// aggregate Kcycles/s, peak arena watermark, build revision).
fn host_section() -> serde::Value {
    let entries = session_summaries();
    let wall_ms: f64 = entries.iter().map(|e| e.wall_ms).sum();
    let cycles: u64 = entries.iter().map(|e| e.cycles_simulated).sum();
    let kcycles_per_sec = if wall_ms > 0.0 { cycles as f64 / 1e3 / (wall_ms / 1e3) } else { 0.0 };
    let peak_arena_flits = entries.iter().map(|e| e.peak_arena_flits).max().unwrap_or(0);
    let build = mira_obs::provenance::Provenance::current();
    let (anomaly_count, anomaly_kinds) = session_anomalies(&entries);
    serde::Value::Object(vec![
        ("batches".to_string(), entries.len().to_value()),
        ("wall_ms".to_string(), wall_ms.to_value()),
        ("cycles_simulated".to_string(), cycles.to_value()),
        ("kcycles_per_sec".to_string(), kcycles_per_sec.to_value()),
        ("peak_arena_flits".to_string(), peak_arena_flits.to_value()),
        ("git_rev".to_string(), build.git_rev.to_value()),
        ("profile".to_string(), build.profile.to_value()),
        (
            "anomalies".to_string(),
            serde::Value::Object(vec![
                ("count".to_string(), anomaly_count.to_value()),
                ("kinds".to_string(), anomaly_kinds.to_value()),
            ]),
        ),
    ])
}

/// Aggregates anomaly-detector firings over the session's batch
/// summaries: total count and the deduplicated, sorted kind names.
fn session_anomalies(entries: &[RunSummary]) -> (u64, Vec<String>) {
    let count: u64 = entries.iter().map(|e| e.anomalies).sum();
    let mut kinds: Vec<String> =
        entries.iter().flat_map(|e| e.anomaly_kinds.iter().cloned()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    (count, kinds)
}

fn main() {
    let cli = Cli::parse();
    // The scorecard always collects host observability: its batches feed
    // the session list the `"host"` section is built from. (Simulated
    // results are unaffected — the golden suites pin that.)
    mira_obs::set_enabled(true);
    let t0 = Instant::now();
    let claims = run_scorecard(cli.sim_config(), cli.trace_cycles());
    let tail = tail_summaries(cli.sim_config());
    let passed = claims.iter().filter(|c| c.passes()).count();
    let (anomaly_count, anomaly_kinds) = session_anomalies(&session_summaries());
    if anomaly_count > 0 {
        eprintln!(
            "[scorecard] WARNING: {anomaly_count} anomaly detector firing(s) this session \
             ({}); inspect the dumps with `trace_tool blackbox`",
            anomaly_kinds.join(", ")
        );
    }
    if cli.json {
        let rows: Vec<ClaimRow> = claims.iter().map(ClaimRow).collect();
        let wrapped = serde::Value::Object(vec![
            ("claims".to_string(), rows.to_value()),
            ("tail".to_string(), tail.to_value()),
            ("host".to_string(), host_section()),
        ]);
        println!("{}", serde_json::to_string_pretty(&wrapped).expect("serialisable claims"));
    } else {
        let table = scorecard_table(&claims);
        println!("{}", table.to_text());
        println!("{}", tail_table(&tail).to_text());
        println!("{passed}/{} claims reproduced", claims.len());
        let entries = session_summaries();
        let wall_ms: f64 = entries.iter().map(|e| e.wall_ms).sum();
        let cycles: u64 = entries.iter().map(|e| e.cycles_simulated).sum();
        let peak = entries.iter().map(|e| e.peak_arena_flits).max().unwrap_or(0);
        eprintln!(
            "[host] {} batches, {:.2} s sim wall, {} cycles, peak arena {} flits",
            entries.len(),
            wall_ms / 1e3,
            cycles,
            peak,
        );
    }
    write_telemetry_artifacts(cli);
    write_obs_artifacts(cli);
    eprintln!("[done in {:.1?}]", t0.elapsed());
    if passed < claims.len() {
        std::process::exit(1);
    }
}
