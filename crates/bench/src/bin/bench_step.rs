//! `Network::step` throughput runner: times the same arch × load matrix
//! as the `step_throughput` criterion bench with plain wall-clock
//! timing and writes `BENCH_step.json` into the current directory (the
//! repo root under CI) for trend tracking.
//!
//! `--quick` shortens the timed window; `--json` also prints the file's
//! contents to stdout.
//!
//! `--compare <baseline.json>` turns the run into a regression gate: the
//! baseline (a previously committed `BENCH_step.json`) is read *before*
//! the fresh report overwrites it, each measured point is matched to its
//! baseline point by (arch, load), and the process exits non-zero if any
//! point's `cycles_per_sec` falls more than 20% below the baseline.
use std::time::Instant;

use mira::arch::Arch;
use mira::experiments::common::EXPERIMENT_SEED;
use mira_bench::{drive_network_step, write_obs_artifacts, Cli};
use serde::{Deserialize, Serialize};

/// Fractional slowdown vs the baseline that fails the `--compare` gate.
const COMPARE_TOLERANCE: f64 = 0.20;

/// One timed (architecture, load) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StepPoint {
    arch: String,
    load: f64,
    cycles: u64,
    flits_ejected: u64,
    wall_ms: f64,
    cycles_per_sec: f64,
    flits_per_sec: f64,
}

/// The whole matrix, as written to `BENCH_step.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StepReport {
    quick: bool,
    cycles_per_point: u64,
    /// CPUs available to the measuring host, so runs on different hosts
    /// are not compared blindly.
    host_cpus: u64,
    points: Vec<StepPoint>,
}

/// Compares the fresh report against `baseline`, returning the points
/// that regressed past [`COMPARE_TOLERANCE`]. Baseline points with no
/// measured counterpart are reported as regressions too — a silently
/// dropped point must not pass the gate.
fn regressions(baseline: &StepReport, fresh: &StepReport) -> Vec<String> {
    let mut failures = Vec::new();
    for base in &baseline.points {
        let Some(point) =
            fresh.points.iter().find(|p| p.arch == base.arch && (p.load - base.load).abs() < 1e-9)
        else {
            failures.push(format!("{} @ load {}: missing from fresh run", base.arch, base.load));
            continue;
        };
        let floor = base.cycles_per_sec * (1.0 - COMPARE_TOLERANCE);
        if point.cycles_per_sec < floor {
            failures.push(format!(
                "{} @ load {}: {:.0} cycles/s is {:.1}% below baseline {:.0}",
                base.arch,
                base.load,
                point.cycles_per_sec,
                (1.0 - point.cycles_per_sec / base.cycles_per_sec) * 100.0,
                base.cycles_per_sec,
            ));
        }
    }
    failures
}

fn main() {
    let cli = Cli::parse();
    let t0 = Instant::now();
    // Read the baseline before the fresh report overwrites the file (the
    // common case is comparing against the committed BENCH_step.json that
    // this run replaces).
    let baseline: Option<StepReport> = cli.compare.map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e:?}");
            std::process::exit(1);
        })
    });
    let cycles: u64 = if cli.quick { 3_000 } else { 20_000 };

    let mut points = Vec::new();
    for arch in [Arch::TwoDB, Arch::ThreeDM, Arch::ThreeDME] {
        for (load_name, rate) in [("low", 0.05_f64), ("saturated", 0.60)] {
            // One untimed pass warms allocator and caches so the timed
            // pass measures steady-state stepping.
            drive_network_step(arch, rate, cycles.min(1_000));
            let started = Instant::now();
            let flits = drive_network_step(arch, rate, cycles);
            let wall = started.elapsed().as_secs_f64();
            let denom = wall.max(f64::MIN_POSITIVE);
            points.push(StepPoint {
                arch: arch.name().to_string(),
                load: rate,
                cycles,
                flits_ejected: flits,
                wall_ms: wall * 1e3,
                cycles_per_sec: cycles as f64 / denom,
                flits_per_sec: flits as f64 / denom,
            });
            eprintln!(
                "[bench_step] {} {load_name} ({rate}): {:.0} cycles/s, {:.0} flits/s",
                arch.name(),
                points.last().expect("just pushed").cycles_per_sec,
                points.last().expect("just pushed").flits_per_sec,
            );
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let report = StepReport { quick: cli.quick, cycles_per_point: cycles, host_cpus, points };
    if mira_obs::enabled() {
        append_ledger(&report, t0);
    }
    let json = serde_json::to_string_pretty(&report).expect("serialisable report");
    let path = "BENCH_step.json";
    std::fs::write(path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    if cli.json {
        println!("{json}");
    } else {
        println!("wrote {} points to {path}", report.points.len());
    }
    if let Some(baseline) = &baseline {
        let failures = regressions(baseline, &report);
        if failures.is_empty() {
            eprintln!(
                "[bench_step] regression gate passed: all {} points within {:.0}% of baseline",
                baseline.points.len(),
                COMPARE_TOLERANCE * 100.0,
            );
        } else {
            for f in &failures {
                eprintln!("[bench_step] REGRESSION: {f}");
            }
            eprintln!("[done in {:.1?}]", t0.elapsed());
            std::process::exit(1);
        }
    }
    write_obs_artifacts(cli);
    eprintln!("[done in {:.1?}]", t0.elapsed());
}

/// Records the matrix in the durable run ledger (bench_step drives the
/// network directly rather than through the [`Runner`], so it appends
/// its own entry). IO failure warns instead of failing the bench.
///
/// [`Runner`]: mira::experiments::runner::Runner
fn append_ledger(report: &StepReport, t0: Instant) {
    use mira_obs::ledger::{self, LedgerEntry};
    let labels: Vec<String> =
        report.points.iter().map(|p| format!("{} @ {}", p.arch, p.load)).collect();
    let hash =
        ledger::config_hash("bench_step", labels.iter().map(|l| (l.as_str(), EXPERIMENT_SEED)));
    let build = mira_obs::provenance::Provenance::current();
    let wall = t0.elapsed();
    let total_cycles: u64 = report.points.iter().map(|p| p.cycles).sum();
    let total_flits: u64 = report.points.iter().map(|p| p.flits_ejected).sum();
    let wall_s = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let peak = mira_obs::registry::ARENA_LIVE_PEAK.get();
    let entry = LedgerEntry {
        ts_ms: ledger::unix_millis(),
        exhibit: "bench_step".to_string(),
        config_hash: ledger::hash_hex(hash),
        seed: EXPERIMENT_SEED,
        seed_min: EXPERIMENT_SEED,
        seed_max: EXPERIMENT_SEED,
        git_rev: build.git_rev,
        profile: build.profile,
        rustc: build.rustc,
        points: report.points.len(),
        jobs: 1,
        wall_ms: wall.as_secs_f64() * 1e3,
        cycles_simulated: total_cycles,
        kcycles_per_sec: total_cycles as f64 / 1e3 / wall_s,
        mflits_per_sec: total_flits as f64 / 1e6 / wall_s,
        saturated_points: 0,
        failed_points: 0,
        resumed_points: 0,
        peak_arena_flits: peak,
        anomalies: None,
        anomaly_kinds: None,
    };
    let path = ledger::default_path();
    if let Err(e) = ledger::append(&path, &entry) {
        eprintln!("[bench_step] warning: could not append run ledger {}: {e}", path.display());
    }
    ledger::record_session(entry);
}
