//! Chaos tests for the crash-safe runner (DESIGN.md §16): point
//! failures stay isolated, a sweep resumed from any prefix of its
//! results-store file is bit-identical to an uninterrupted run, and
//! only points stored by this build replay.
//!
//! Sims here use an ultra-short config — the claims under test are
//! about the *harness* (isolation, resume identity), not statistics.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use mira::arch::Arch;
use mira::experiments::common::{run_arch, EXPERIMENT_SEED};
use mira::experiments::runner::{
    derive_seed, FailureKind, PointOutcome, RunBatch, Runner, SimPoint,
};
use mira_noc::sim::SimConfig;
use mira_noc::traffic::UniformRandom;
use proptest::prelude::*;
use serde::Serialize;

const EXHIBIT: &str = "chaos_resume";
const ARCHS: [Arch; 3] = [Arch::TwoDB, Arch::ThreeDM, Arch::ThreeDME];

fn chaos_cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 100,
        measure_cycles: 500,
        drain_cycles: 2_500,
        ..SimConfig::default()
    }
}

fn sim_point(label: String, arch: Arch, rate: f64, seed: u64) -> SimPoint {
    SimPoint::new(label, seed, move |s| {
        run_arch(arch, false, Box::new(UniformRandom::new(rate, 5, s)), chaos_cfg())
    })
}

/// The suite's canonical batch: 3 architectures × 2 rates, seeds
/// shared per rate like the real sweeps.
fn sim_points() -> Vec<SimPoint> {
    let mut pts = Vec::new();
    for (ri, rate) in [0.05, 0.10].into_iter().enumerate() {
        let seed = derive_seed(EXPERIMENT_SEED, ri as u64);
        for arch in ARCHS {
            pts.push(sim_point(format!("chaos {arch} @ {rate}"), arch, rate, seed));
        }
    }
    pts
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mira_chaos_{}_{tag}", std::process::id()))
}

/// The canonical batch's config hash.
fn batch_hash() -> u64 {
    let pts = sim_points();
    mira_obs::store::config_hash(EXHIBIT, "", pts.iter().map(|p| (p.label(), p.seed())))
}

/// The store file the canonical batch writes under `dir`.
fn ckpt_path(dir: &Path) -> PathBuf {
    mira_obs::store::path_for(dir, EXHIBIT, batch_hash())
}

/// Whether a store line is a batch line (rather than a point line).
fn is_batch_line(line: &str) -> bool {
    let v: serde::Value = serde_json::from_str(line).expect("baseline lines parse");
    !matches!(v.field("batch"), serde::Value::Null)
}

/// Bitwise comparison of everything an exhibit reads off a point.
fn assert_bit_identical(a: &PointOutcome, b: &PointOutcome) {
    assert_eq!(a.label, b.label, "order must match input order");
    assert_eq!(a.seed, b.seed);
    let (x, y) = (&a.result.report, &b.result.report);
    assert_eq!(x.avg_latency.to_bits(), y.avg_latency.to_bits(), "latency at {}", a.label);
    assert_eq!(x.avg_hops.to_bits(), y.avg_hops.to_bits(), "hops at {}", a.label);
    assert_eq!(x.packets_created, y.packets_created, "created at {}", a.label);
    assert_eq!(x.packets_ejected, y.packets_ejected, "ejected at {}", a.label);
    assert_eq!(x.counters, y.counters, "event counters at {}", a.label);
    assert_eq!(
        a.result.avg_power_w.to_bits(),
        b.result.avg_power_w.to_bits(),
        "power at {}",
        a.label
    );
    assert_eq!(a.result.pdp.to_bits(), b.result.pdp.to_bits(), "pdp at {}", a.label);
    assert_eq!(a.result.arena_peak_flits, b.result.arena_peak_flits, "arena at {}", a.label);
}

/// One uninterrupted stored run of the canonical batch: the reference
/// outcomes plus the point lines it wrote, shared by every resume test
/// (the runner contract makes it reusable — results depend only on
/// `(closure, seed)`).
fn baseline() -> &'static (Vec<PointOutcome>, Vec<String>) {
    static BASELINE: OnceLock<(Vec<PointOutcome>, Vec<String>)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = temp_dir("baseline");
        let batch = Runner::with_jobs(3).exhibit(EXHIBIT).checkpoint_dir(&dir).run(sim_points());
        let text = std::fs::read_to_string(ckpt_path(&dir)).expect("store written");
        let _ = std::fs::remove_dir_all(&dir);
        let (batch_lines, lines): (Vec<String>, Vec<String>) =
            text.lines().map(str::to_string).partition(|l| is_batch_line(l));
        assert_eq!(lines.len(), batch.outcomes.len(), "one point line per point");
        assert_eq!(batch_lines.len(), 1, "one batch line per run");
        (batch.outcomes, lines)
    })
}

/// Simulates an interrupt: seeds a fresh checkpoint dir with the first
/// `prefix` lines the baseline wrote, then re-runs with `--resume`.
fn resume_with_prefix(prefix: &[String], jobs: usize, tag: &str) -> RunBatch {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let content: String = prefix.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(ckpt_path(&dir), content).expect("seed checkpoint");
    let batch = Runner::with_jobs(jobs)
        .exhibit(EXHIBIT)
        .checkpoint_dir(&dir)
        .resume(true)
        .run(sim_points());
    let _ = std::fs::remove_dir_all(&dir);
    batch
}

/// A sweep interrupted at *every* prefix length and resumed — with the
/// worker count changed across the interrupt — reproduces the
/// uninterrupted run bit for bit (ISSUE acceptance criterion).
#[test]
fn resume_at_every_prefix_is_bit_identical() {
    let (base, lines) = baseline();
    for k in 0..=lines.len() {
        let jobs = if k % 2 == 0 { 1 } else { 3 };
        let batch = resume_with_prefix(&lines[..k], jobs, "prefix");
        assert_eq!(batch.summary.resumed_points, k, "prefix {k}");
        assert_eq!(
            batch.outcomes.iter().filter(|o| o.resumed).count(),
            k,
            "prefix {k}: resumed flags"
        );
        assert_eq!(base.len(), batch.outcomes.len());
        for (a, b) in base.iter().zip(&batch.outcomes) {
            assert_bit_identical(a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random (interrupt point, pool size) pairs: the resumed run is
    /// always bit-identical and accounts for exactly the replayed
    /// prefix.
    #[test]
    fn resume_any_prefix_any_pool(k in 0usize..7, jobs in 1usize..5) {
        let (base, lines) = baseline();
        let k = k.min(lines.len());
        let batch = resume_with_prefix(&lines[..k], jobs, "prop");
        prop_assert_eq!(batch.summary.resumed_points, k);
        for (a, b) in base.iter().zip(&batch.outcomes) {
            prop_assert_eq!(a.result.report.avg_latency.to_bits(),
                            b.result.report.avg_latency.to_bits());
            prop_assert_eq!(&a.result.report.counters, &b.result.report.counters);
            prop_assert_eq!(a.result.avg_power_w.to_bits(), b.result.avg_power_w.to_bits());
        }
    }
}

/// A panicking point poisons nothing: every other point's result is
/// bit-identical to a batch that never saw the bad point, and the
/// failure is itemized in the summary.
#[test]
fn panicking_point_leaves_other_results_bit_identical() {
    let (clean, _) = baseline();
    let mut pts = sim_points();
    pts.insert(3, SimPoint::new("boom", 999, |_| panic!("injected chaos panic")));
    let batch = Runner::with_jobs(2).try_run(pts);

    let fails: Vec<_> = batch.failures().collect();
    assert_eq!(fails.len(), 1);
    assert_eq!(fails[0].index, 3);
    assert_eq!(fails[0].label, "boom");
    assert!(
        matches!(&fails[0].kind, FailureKind::Panic { payload } if payload.contains("injected"))
    );

    let oks: Vec<&PointOutcome> = batch.outcomes.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(oks.len(), clean.len());
    for (a, b) in clean.iter().zip(oks) {
        assert_bit_identical(a, b);
    }

    assert_eq!(batch.summary.failed_points.len(), 1);
    assert_eq!(batch.summary.failed_points[0].kind, "panic");
    let json = serde_json::to_string(&batch.summary.to_value()).expect("summary serializes");
    assert!(json.contains("failed_points"), "failures reach the JSON consumers");
}

/// Torn (interrupted mid-write) and stale (different config hash)
/// checkpoint lines are skipped with the valid prefix still replayed.
#[test]
fn torn_and_stale_checkpoint_lines_are_skipped() {
    let (base, lines) = baseline();
    let hash = mira_obs::store::hash_hex(batch_hash());

    let mut content: String = lines[..3].iter().map(|l| format!("{l}\n")).collect();
    // A stale line: valid JSON from some other batch identity.
    content.push_str(&lines[3].replacen(&hash, "0000000000000000", 1));
    content.push('\n');
    // A torn line: the process died mid-append.
    content.push_str("{\"config_hash\":\"tor");

    let dir = temp_dir("torn");
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    std::fs::write(ckpt_path(&dir), content).expect("seed checkpoint");
    let batch =
        Runner::with_jobs(2).exhibit(EXHIBIT).checkpoint_dir(&dir).resume(true).run(sim_points());
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(batch.summary.resumed_points, 3, "only the intact prefix replays");
    for (a, b) in base.iter().zip(&batch.outcomes) {
        assert_bit_identical(a, b);
    }
}

/// Sets a point line's `git_rev` (or drops it, as on lines written
/// before points carried their build).
fn with_rev(line: &str, rev: Option<&str>) -> String {
    let serde::Value::Object(mut fields) = serde_json::from_str(line).expect("point line parses")
    else {
        panic!("a point line is an object");
    };
    fields.retain(|(k, _)| k != "git_rev");
    if let Some(rev) = rev {
        fields.push(("git_rev".to_string(), serde::Value::Str(rev.to_string())));
    }
    serde_json::to_string(&serde::Value::Object(fields)).expect("point line serializes")
}

/// A sweep stored by one build and resumed by another re-runs the
/// other build's points instead of replaying them: a line with a
/// different `git_rev`, or none, is stale.
#[test]
fn points_from_another_build_are_rerun() {
    let (base, lines) = baseline();
    let mut seeded = lines.clone();
    seeded[1] = with_rev(&lines[1], Some("0123456789ab-other-build"));
    seeded[4] = with_rev(&lines[4], None);
    let batch = resume_with_prefix(&seeded, 2, "rev");
    assert_eq!(batch.summary.resumed_points, lines.len() - 2, "two lines are stale");
    // Lines are in completion order, so name the re-run points by label.
    let label = |line: &str| {
        let v: serde::Value = serde_json::from_str(line).expect("point line parses");
        v.field("label").as_str().expect("label").to_string()
    };
    let rerun = [label(&lines[1]), label(&lines[4])];
    for o in &batch.outcomes {
        assert_eq!(o.resumed, !rerun.contains(&o.label), "{}", o.label);
    }
    for (a, b) in base.iter().zip(&batch.outcomes) {
        assert_bit_identical(a, b);
    }
}

/// A point line with field `field` (mod the count) of its `result`
/// retyped to `value`, or removed without one.
fn edit_result(line: &str, field: usize, value: Option<serde::Value>) -> Vec<u8> {
    let serde::Value::Object(mut fields) = serde_json::from_str(line).expect("line parses") else {
        panic!("a point line is an object");
    };
    let Some((_, serde::Value::Object(result))) = fields.iter_mut().find(|(k, _)| k == "result")
    else {
        panic!("a point line has a result object");
    };
    let field = field % result.len();
    match value {
        Some(value) => result[field].1 = value,
        None => drop(result.remove(field)),
    }
    serde_json::to_string(&serde::Value::Object(fields)).expect("line serializes").into_bytes()
}

/// One store line, damaged as `(kind, a, b)` picks: torn, replaced by
/// garbage bytes, moved to another batch hash or build, with a field of
/// its `result` removed or retyped, or (a third of the time) kept valid.
fn damage(line: &str, (kind, a, b): (u8, u64, u32)) -> Vec<u8> {
    match kind % 9 {
        1 => line.as_bytes()[..a as usize % line.len()].to_vec(),
        2 => {
            let bytes = [a.to_le_bytes().as_slice(), b.to_le_bytes().as_slice()].concat();
            bytes[..1 + b as usize % bytes.len()].to_vec()
        }
        3 => line.replacen(&mira_obs::store::hash_hex(batch_hash()), "00000000000000ff", 1).into(),
        4 => with_rev(line, Some("another-build")).into_bytes(),
        5 => edit_result(line, a as usize, None),
        6 => edit_result(line, a as usize, Some(serde::Value::Str("retyped".into()))),
        _ => line.as_bytes().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A results-store file of valid point lines mixed with torn
    /// prefixes, garbage bytes, lines of another batch or build, and
    /// lines whose result lost or retyped a field still loads, and a
    /// `--resume` batch over it replays exactly the valid lines and
    /// re-runs the rest, bit-identical to the clean run.
    #[test]
    fn damaged_store_lines_are_rerun(
        damages in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u32>()), 6..7),
    ) {
        let (base, lines) = baseline();
        let mut content = Vec::new();
        for (line, &d) in lines.iter().zip(&damages) {
            content.extend(damage(line, d));
            content.push(b'\n');
        }
        let dir = temp_dir("fuzz");
        std::fs::create_dir_all(&dir).expect("store dir");
        std::fs::write(ckpt_path(&dir), content).expect("seed store");
        let loaded = mira_obs::store::load(&ckpt_path(&dir), batch_hash());
        let batch = Runner::with_jobs(2)
            .exhibit(EXHIBIT)
            .checkpoint_dir(&dir)
            .resume(true)
            .run(sim_points());
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert!(loaded.is_ok(), "{:?}", loaded.err());
        let valid = damages.iter().filter(|(kind, ..)| !(1..=6).contains(&(kind % 9))).count();
        prop_assert_eq!(batch.summary.resumed_points, valid);
        for (a, b) in base.iter().zip(&batch.outcomes) {
            assert_bit_identical(a, b);
        }
    }
}
