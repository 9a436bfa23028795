//! Golden-bits differential harness for the data-oriented core rewrite
//! (DESIGN.md §14).
//!
//! Where `tests/telemetry_golden.rs` pins a handful of scalar
//! observables, this suite pins the **entire `SimReport`** — stats,
//! stall causes, metrics windows, journey attribution, and fault
//! accounting — as pretty-printed JSON, byte for byte, for all four
//! hardware design points at two loads plus two fault-injected points.
//! The snapshots under `tests/golden_core/` were captured from the
//! pre-rewrite (per-router heap structures) core; the struct-of-arrays
//! core must reproduce them exactly. Any drift means the rewrite
//! changed simulated behaviour, not just its memory layout.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! MIRA_BLESS=1 cargo test --test golden_core
//! ```

use std::path::PathBuf;

use mira::arch::Arch;
use mira::experiments::common::{run_arch, RunResult, EXPERIMENT_SEED};
use mira::experiments::quick_sim_config;
use mira::noc::anomaly::AnomalyConfig;
use mira::noc::fault::FaultConfig;
use mira_noc::telemetry::TelemetryConfig;
use mira_noc::traffic::{PayloadProfile, UniformRandom};
use mira_noc::SimConfig;
use serde::Serialize;

/// One pinned design point.
struct Point {
    name: &'static str,
    arch: Arch,
    rate: f64,
    /// Short-flit payload fraction; > 0 also turns on layer shutdown,
    /// matching how the power experiments drive the 3D architectures.
    short: f64,
    faults: Option<FaultConfig>,
}

/// Everything one golden file pins. The report is the full `SimReport`;
/// the power numbers come from the activity-counter pricing on top, and
/// are pinned as IEEE-754 bit patterns so the JSON comparison is exact
/// even if a formatter ever changes float printing.
#[derive(Serialize)]
struct GoldenPoint {
    name: String,
    arch: String,
    rate: f64,
    short_fraction: f64,
    layer_shutdown: bool,
    faulted: bool,
    avg_power_bits: u64,
    pdp_bits: u64,
    report: mira_noc::SimReport,
}

/// The telemetry switches used for every golden run: windowed metrics
/// and journey sampling on (so `windows`, `stalls`, and `journeys` are
/// populated in the report), event tracing off (trace events never land
/// in `SimReport`).
fn golden_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        metrics_window: 500,
        trace_capacity: 0,
        journey_sample_ppm: 250_000,
        journey_seed: 0,
    }
}

fn points() -> Vec<Point> {
    let mut pts = Vec::new();
    for arch in Arch::HARDWARE {
        pts.push(Point {
            name: match arch {
                Arch::TwoDB => "2DB_ur010",
                Arch::ThreeDB => "3DB_ur010",
                Arch::ThreeDM => "3DM_ur010",
                _ => "3DME_ur010",
            },
            arch,
            rate: 0.10,
            short: 0.0,
            faults: None,
        });
        pts.push(Point {
            name: match arch {
                Arch::TwoDB => "2DB_ur030_short",
                Arch::ThreeDB => "3DB_ur030_short",
                Arch::ThreeDM => "3DM_ur030_short",
                _ => "3DME_ur030_short",
            },
            arch,
            rate: 0.30,
            short: 0.5,
            faults: None,
        });
    }
    // Two fault-injected points: transient corruption with a retry
    // budget plus an explicit link kill with rerouting, exercising the
    // ARQ window, the purge/reroute paths, and the fault counters.
    let faults = FaultConfig::disabled()
        .with_transient(2_000)
        .with_kill(14, 1, 400)
        .with_max_retries(4)
        .with_reroute(true)
        .with_seed(EXPERIMENT_SEED);
    pts.push(Point {
        name: "2DB_ur010_faults",
        arch: Arch::TwoDB,
        rate: 0.10,
        short: 0.0,
        faults: Some(faults),
    });
    pts.push(Point {
        name: "3DME_ur010_faults",
        arch: Arch::ThreeDME,
        rate: 0.10,
        short: 0.0,
        faults: Some(faults),
    });
    pts
}

fn run_point(p: &Point, anomaly: AnomalyConfig) -> RunResult {
    let mut cfg: SimConfig =
        quick_sim_config().with_telemetry(golden_telemetry()).with_anomaly(anomaly);
    if let Some(f) = p.faults {
        cfg = cfg.with_faults(f);
    }
    let mut w = UniformRandom::new(p.rate, 5, EXPERIMENT_SEED);
    if p.short > 0.0 {
        w = w.with_payload(PayloadProfile::with_short_fraction(4, p.short));
    }
    run_arch(p.arch, p.short > 0.0, Box::new(w), cfg)
}

fn golden_json(p: &Point, r: &RunResult) -> String {
    let golden = GoldenPoint {
        name: p.name.to_string(),
        arch: p.arch.name().to_string(),
        rate: p.rate,
        short_fraction: p.short,
        layer_shutdown: p.short > 0.0,
        faulted: p.faults.is_some(),
        avg_power_bits: r.avg_power_w.to_bits(),
        pdp_bits: r.pdp.to_bits(),
        report: r.report.clone(),
    };
    let mut s = serde_json::to_string_pretty(&golden).expect("report serializes");
    s.push('\n');
    s
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_core")
        .join(format!("{name}.json"))
}

fn check_points(pts: &[Point]) {
    check_points_with(pts, AnomalyConfig::disabled());
}

fn check_points_with(pts: &[Point], anomaly: AnomalyConfig) {
    let bless = std::env::var_os("MIRA_BLESS").is_some();
    for p in pts {
        let r = run_point(p, anomaly);
        let actual = golden_json(p, &r);
        let path = golden_path(p.name);
        if bless {
            std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
            std::fs::write(&path, &actual).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden snapshot {} ({e}); run `MIRA_BLESS=1 cargo test --test golden_core` to record",
                p.name,
                path.display()
            )
        });
        if actual != expected {
            // Find the first diverging line for a readable failure.
            let (mut line, mut got, mut want) = (0usize, "", "");
            for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
                if a != e {
                    (line, got, want) = (i + 1, a, e);
                    break;
                }
            }
            panic!(
                "{}: SimReport drifted from the pre-rewrite golden bits\n  first diff at {}:{line}\n    golden: {want}\n    actual: {got}\n  (MIRA_BLESS=1 re-records, but only after an intentional behaviour change)",
                p.name,
                path.display()
            );
        }
    }
}

/// The four hardware design points at two loads reproduce the
/// pre-rewrite `SimReport` byte for byte: stats, stall causes, windowed
/// metrics, journey attribution, and (all-zero) fault counters.
#[test]
fn hardware_points_match_golden_bits() {
    let pts = points();
    check_points(&pts[..8]);
}

/// The fault-injected points reproduce the pre-rewrite fault accounting
/// byte for byte: transient verdicts, retransmissions, drops, reroutes.
#[test]
fn fault_points_match_golden_bits() {
    let pts = points();
    check_points(&pts[8..]);
}

/// With host observability collecting (DESIGN.md §15), the golden bits
/// are *still* unchanged: phase timers and watermark gauges observe the
/// simulator, never the simulation, so `SimReport` and the power bits
/// must stay byte-identical to the obs-off snapshots.
#[test]
fn obs_enabled_matches_golden_bits() {
    mira_obs::set_enabled(true);
    let pts = points();
    // One fault-free and one fault-injected point cover both report
    // shapes; the full matrix is pinned by the obs-off tests above.
    check_points(&pts[..2]);
    check_points(&pts[8..9]);
    mira_obs::set_enabled(false);
}

/// With the full flight-recorder detector suite armed (DESIGN.md §17),
/// the golden bits are *still* unchanged: on a healthy run no detector
/// fires, the recorder only reads fabric state, and `SimReport` omits
/// the anomaly section entirely at zero firings — so the snapshots
/// match byte for byte, fault-injected points included.
#[test]
fn anomaly_armed_matches_golden_bits() {
    let pts = points();
    // One fault-free and one fault-injected point cover both report
    // shapes (the fault point also exercises the fault-storm budget
    // against real transient traffic).
    check_points_with(&pts[..2], AnomalyConfig::detect());
    check_points_with(&pts[8..9], AnomalyConfig::detect());
}

/// Sanity: the golden recipe actually populates every report section it
/// claims to pin (guards against a silent telemetry regression making
/// the snapshots vacuous).
#[test]
fn golden_recipe_populates_all_sections() {
    let pts = points();
    let base = run_point(&pts[0], AnomalyConfig::disabled());
    assert!(!base.report.windows.is_empty(), "metrics windows collected");
    assert!(base.report.journeys.as_ref().is_some_and(|j| j.sampled > 0), "journeys sampled");
    assert!(base.report.stalls.stalled > 0, "stall causes counted");
    let faulted = run_point(&pts[8], AnomalyConfig::disabled());
    assert!(faulted.report.faults.transient_faults > 0, "transients injected");
    assert!(faulted.report.faults.links_killed > 0, "link killed");
}
