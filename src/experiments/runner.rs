//! Crash-safe parallel experiment runner: fans independent simulation
//! points out across a fault-isolated worker pool and returns results —
//! or typed failures — in input order.
//!
//! Every MIRA exhibit sweeps independent (architecture × rate ×
//! workload) points, which are embarrassingly parallel. The runner
//! executes a list of [`SimPoint`]s on a [`std::thread::scope`] worker
//! pool — size from [`std::thread::available_parallelism`], overridable
//! with the `MIRA_JOBS` environment variable — and guarantees:
//!
//! - **Input order**: outcomes come back in the order points were
//!   submitted, regardless of which worker finished first.
//! - **Determinism**: each point carries its own RNG seed, fixed at
//!   submission time. Seeds are derived from `(EXPERIMENT_SEED, index)`
//!   via [`derive_seed`], where the index identifies the *logical
//!   workload*, not the raw point position: points that replay the same
//!   workload on different architectures (the paper's paired-comparison
//!   methodology — e.g. 2DB vs 3DM-NC at the same injection rate) share
//!   a seed. Because a point's result depends only on its closure and
//!   seed, reports are bit-identical for any worker count or schedule.
//! - **Fault isolation**: every point runs under
//!   [`std::panic::catch_unwind`]; a panicking point becomes a typed
//!   [`PointFailure`] instead of tearing down the batch, and every
//!   other point's result stays bit-identical to a clean run.
//!   [`Runner::try_run`] returns one `Result` per point;
//!   [`Runner::run`] keeps the historical all-success contract and
//!   panics with an itemized message if any point failed. A point runs
//!   once: retrying a pure function of its seed cannot change the
//!   outcome, and an in-simulator hang is caught by the cycle-based
//!   anomaly detectors, not a wall clock (DESIGN.md §16).
//! - **Checkpointed resume**: with a store directory configured
//!   ([`Runner::checkpoint_dir`]), every completed point is flushed to
//!   the batch's results-store file `<dir>/<exhibit>-<hash>.jsonl` as
//!   it finishes, and the batch line (the runner's options echo and the
//!   batch summary) follows once the pool joins ([`mira_obs::store`]).
//!   The hash covers the options echo, so the same points run under
//!   other options land in another file. A resumed batch
//!   ([`Runner::resume`]) replays the points this build stored and runs
//!   only the rest, bit-identical to an uninterrupted run.
//! - **Observability**: per-point wall-clock and cycle counts, an
//!   optional progress line (done/total, ETA) on stderr, and a
//!   machine-readable [`RunSummary`] for the benches' `--json` output,
//!   including a `failed_points` itemization.

use std::io::IsTerminal;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

use mira_noc::anomaly::AnomalyAbort;
use mira_obs::provenance::Provenance;
use mira_obs::store::{self, StoreWriter};
use serde::{Deserialize, Serialize};

use crate::error::HostError;
use crate::experiments::common::{RunResult, EXPERIMENT_SEED};

/// Derives a per-point RNG seed from a base seed and a point index
/// (SplitMix64-style finalizer: well-spread seeds even for consecutive
/// indices, and stable across platforms and runs).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z =
        base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One schedulable unit of work: a labelled closure from seed to
/// [`RunResult`].
///
/// The closure must build its workload *inside* the call (so every
/// worker constructs an independent RNG from the stored seed) and must
/// not read any shared mutable state — that is what makes the batch
/// schedule-independent and a caught panic harmless to the other
/// points (no partial state survives an unwound point).
pub struct SimPoint {
    label: String,
    seed: u64,
    run: Box<dyn Fn(u64) -> RunResult + Send + Sync>,
}

impl std::fmt::Debug for SimPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPoint")
            .field("label", &self.label)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl SimPoint {
    /// Creates a point with an explicit seed (use [`derive_seed`] —
    /// or [`SimPoint::derived`] — unless points must share a workload).
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        run: impl Fn(u64) -> RunResult + Send + Sync + 'static,
    ) -> Self {
        SimPoint { label: label.into(), seed, run: Box::new(run) }
    }

    /// Creates a point seeded by `derive_seed(EXPERIMENT_SEED, index)`.
    pub fn derived(
        label: impl Into<String>,
        index: u64,
        run: impl Fn(u64) -> RunResult + Send + Sync + 'static,
    ) -> Self {
        Self::new(label, derive_seed(EXPERIMENT_SEED, index), run)
    }

    /// The point's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The RNG seed the closure will receive.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// One completed point: the simulation result plus its timing.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// Label copied from the [`SimPoint`].
    pub label: String,
    /// Seed the point ran with.
    pub seed: u64,
    /// The simulation result.
    pub result: RunResult,
    /// Wall-clock time this point took on its worker (zero for resumed
    /// points).
    pub wall: Duration,
    /// Time from batch start until a worker claimed this point (queue
    /// wait: how long the point sat behind others).
    pub queue_wait: Duration,
    /// Whether the result was replayed from a sweep checkpoint instead
    /// of simulated in this batch.
    pub resumed: bool,
}

/// Why a point did not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// The point's closure panicked.
    Panic {
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// A flight-recorder detector halted the simulation from inside the
    /// point (an in-simulator hang or invariant violation). Anomalies
    /// are deterministic — the same seed wedges the same way — and the
    /// simulator's black-box dump is written out for `trace_tool
    /// blackbox` before the failure is recorded.
    Anomaly {
        /// Stable detector tag (`no_progress`, `starvation`, ...).
        detector: String,
        /// Simulator cycle the detector halted on.
        cycle: u64,
        /// Where the black-box dump landed (`None` when writing it
        /// failed; the failure stays typed either way).
        dump_path: Option<PathBuf>,
    },
}

impl FailureKind {
    /// Stable machine-readable tag (`panic` / `anomaly`).
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Panic { .. } => "panic",
            FailureKind::Anomaly { .. } => "anomaly",
        }
    }

    /// Human-readable detail line.
    pub fn detail(&self) -> String {
        match self {
            FailureKind::Panic { payload } => payload.clone(),
            FailureKind::Anomaly { detector, cycle, dump_path } => match dump_path {
                Some(p) => format!(
                    "anomaly `{detector}` halted the run at cycle {cycle} (dump: {})",
                    p.display()
                ),
                None => format!("anomaly `{detector}` halted the run at cycle {cycle}"),
            },
        }
    }
}

/// One failed point: identity, cause, and how much was spent on it.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// Position of the point in the submitted batch.
    pub index: usize,
    /// Label copied from the [`SimPoint`].
    pub label: String,
    /// Seed the point ran (or would have run) with.
    pub seed: u64,
    /// What went wrong.
    pub kind: FailureKind,
    /// Wall-clock spent on the point.
    pub wall: Duration,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point {} `{}` (seed {}) ", self.index, self.label, self.seed)?;
        match &self.kind {
            FailureKind::Panic { payload } => write!(f, "panicked: {payload}"),
            FailureKind::Anomaly { detector, cycle, dump_path } => {
                write!(f, "tripped anomaly detector `{detector}` at cycle {cycle}")?;
                if let Some(p) = dump_path {
                    write!(f, " (dump: {})", p.display())?;
                }
                Ok(())
            }
        }
    }
}

/// Everything a batch returns: per-point outcomes in input order plus
/// the aggregate summary.
#[derive(Debug, Clone)]
pub struct RunBatch {
    /// Outcomes, index-aligned with the submitted points.
    pub outcomes: Vec<PointOutcome>,
    /// Aggregate timing and statistics over the batch.
    pub summary: RunSummary,
}

impl RunBatch {
    /// Strips timing and returns just the simulation results, in input
    /// order.
    pub fn into_results(self) -> Vec<RunResult> {
        self.into_parts().0
    }

    /// The simulation results in input order, and the summary.
    pub fn into_parts(self) -> (Vec<RunResult>, RunSummary) {
        (self.outcomes.into_iter().map(|o| o.result).collect(), self.summary)
    }
}

/// What [`Runner::try_run`] returns: one `Result` per submitted point,
/// in input order, plus the aggregate summary (which itemizes the
/// failures again under [`RunSummary::failed_points`]).
#[derive(Debug, Clone)]
pub struct TryRunBatch {
    exhibit: String,
    /// Per-point outcome or typed failure, index-aligned with the
    /// submitted points.
    pub outcomes: Vec<Result<PointOutcome, PointFailure>>,
    /// Aggregate timing and statistics over the batch.
    pub summary: RunSummary,
}

impl TryRunBatch {
    /// The failed points, in input order.
    pub fn failures(&self) -> impl Iterator<Item = &PointFailure> {
        self.outcomes.iter().filter_map(|r| r.as_ref().err())
    }

    /// Converts into the all-success [`RunBatch`], or a
    /// [`HostError::Batch`] itemizing every failed point.
    fn into_complete(self) -> Result<RunBatch, HostError> {
        let points = self.outcomes.len();
        let failures: Vec<String> = self.failures().map(|f| f.to_string()).collect();
        if !failures.is_empty() {
            return Err(HostError::Batch { exhibit: self.exhibit, points, failures });
        }
        let outcomes = self
            .outcomes
            .into_iter()
            .map(|r| r.expect("no failures in a complete batch"))
            .collect();
        Ok(RunBatch { outcomes, summary: self.summary })
    }
}

/// Machine-readable summary of one batch (emitted under `"runner"` in
/// the benches' `--json` output).
///
/// `Serialize` is implemented by hand (not derived) so the
/// `failed_points` itemization, the `resumed_points` count and the
/// anomaly fields are omitted entirely when empty/zero — the
/// default-path JSON stays byte-identical to pre-crash-safety output.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Worker threads used.
    pub jobs: usize,
    /// Points submitted (successes plus failures).
    pub points: usize,
    /// Wall-clock for the whole batch, milliseconds.
    pub wall_ms: f64,
    /// Sum of per-point wall-clocks, milliseconds (`busy_ms / wall_ms`
    /// ≈ achieved parallelism). Includes time spent on failed points.
    pub busy_ms: f64,
    /// Total simulator cycles across all completed points.
    pub cycles_simulated: u64,
    /// Total measured packets ejected across all completed points.
    pub packets_ejected: u64,
    /// Simulation rate over the batch: thousands of simulated cycles
    /// per wall-clock second (worker-parallel, so this can exceed any
    /// single point's rate).
    pub kcycles_per_sec: f64,
    /// Simulation rate over the batch: millions of flits ejected in
    /// measurement windows per wall-clock second.
    pub mflits_per_sec: f64,
    /// How many points hit saturation (drain budget expired).
    pub saturated_points: usize,
    /// Worst queue wait (batch start → claim) of a point executed in
    /// this batch, milliseconds (resumed points never queue).
    pub queue_wait_max_ms: f64,
    /// Peak live flits in any point's arena (host memory watermark).
    pub peak_arena_flits: u64,
    /// Per-worker busy accounting, one row per worker thread.
    pub workers: Vec<WorkerSummary>,
    /// Build provenance of this binary (git rev, rustc, profile).
    pub build: Provenance,
    /// Per-point label, seed, timing and headline stats (completed
    /// points only; failures are itemized in `failed_points`).
    pub point_details: Vec<PointSummary>,
    /// Failed points, in input order (empty on a clean batch).
    pub failed_points: Vec<FailureSummary>,
    /// Points replayed from a sweep checkpoint instead of simulated.
    pub resumed_points: usize,
    /// Always 0: points run once. Kept so existing readers of the
    /// field still compile; never serialized.
    pub retried_points: usize,
    /// Anomaly-detector firings across the batch: windowed detections
    /// counted on completed points plus triggered halts (one per
    /// [`FailureKind::Anomaly`] failure). Zero on a healthy batch.
    pub anomalies: u64,
    /// Detector names that fired at least once, sorted and
    /// deduplicated (empty when `anomalies` is zero).
    pub anomaly_kinds: Vec<String>,
}

/// One worker's share of a batch.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerSummary {
    /// Worker index within the pool.
    pub worker: usize,
    /// Points this worker executed.
    pub points: usize,
    /// Time spent inside point closures, milliseconds.
    pub busy_ms: f64,
}

/// One failed point as serialized under `failed_points` in the batch
/// summary (and the benches' `--json` output).
#[derive(Debug, Clone, Serialize)]
pub struct FailureSummary {
    /// Position of the point in the submitted batch.
    pub index: usize,
    /// Point label.
    pub label: String,
    /// Seed the point ran (or would have run) with.
    pub seed: u64,
    /// Failure tag: `panic` or `anomaly`.
    pub kind: String,
    /// Human-readable cause (panic payload, detector, …).
    pub detail: String,
    /// Wall-clock spent on the point, milliseconds.
    pub wall_ms: f64,
}

impl FailureSummary {
    fn of(f: &PointFailure) -> Self {
        FailureSummary {
            index: f.index,
            label: f.label.clone(),
            seed: f.seed,
            kind: f.kind.name().to_string(),
            detail: f.kind.detail(),
            wall_ms: f.wall.as_secs_f64() * 1e3,
        }
    }
}

impl Serialize for RunSummary {
    fn serialize(&self, e: &mut dyn serde::Emitter) {
        e.begin_object();
        e.field("jobs", &self.jobs);
        e.field("points", &self.points);
        e.field("wall_ms", &self.wall_ms);
        e.field("busy_ms", &self.busy_ms);
        e.field("cycles_simulated", &self.cycles_simulated);
        e.field("packets_ejected", &self.packets_ejected);
        e.field("kcycles_per_sec", &self.kcycles_per_sec);
        e.field("mflits_per_sec", &self.mflits_per_sec);
        e.field("saturated_points", &self.saturated_points);
        e.field("queue_wait_max_ms", &self.queue_wait_max_ms);
        e.field("peak_arena_flits", &self.peak_arena_flits);
        e.field("workers", &self.workers);
        e.field("build", &self.build);
        e.field("point_details", &self.point_details);
        if !self.failed_points.is_empty() {
            e.field("failed_points", &self.failed_points);
        }
        if self.resumed_points > 0 {
            e.field("resumed_points", &self.resumed_points);
        }
        if self.anomalies > 0 {
            e.field("anomalies", &self.anomalies);
            e.field("anomaly_kinds", &self.anomaly_kinds);
        }
        e.end_object();
    }
}

/// Per-point entry of a [`RunSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct PointSummary {
    /// Point label.
    pub label: String,
    /// Seed the point ran with.
    pub seed: u64,
    /// Wall-clock on its worker, milliseconds.
    pub wall_ms: f64,
    /// Cycles the simulator ran (all phases).
    pub cycles: u64,
    /// Mean measured latency, cycles.
    pub avg_latency: f64,
    /// Whether the point saturated.
    pub saturated: bool,
    /// Wait from batch start until a worker claimed this point, ms.
    pub queue_wait_ms: f64,
    /// Peak live flits in this point's arena.
    pub arena_peak_flits: u64,
}

/// `numerator / seconds`, zero when the denominator rounds to zero (a
/// degenerate timer, not a fast simulator).
fn per_sec(numerator: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        numerator / seconds
    } else {
        0.0
    }
}

impl RunSummary {
    /// Builds the summary for a finished batch. Failed points
    /// contribute to `busy_ms` (their worker time was real) but to none
    /// of the simulation aggregates.
    fn new(
        jobs: usize,
        wall: Duration,
        outcomes: &[Result<PointOutcome, PointFailure>],
        worker_stats: &[(usize, Duration)],
    ) -> Self {
        let ok: Vec<&PointOutcome> = outcomes.iter().filter_map(|r| r.as_ref().ok()).collect();
        let wall_s = wall.as_secs_f64();
        let total_cycles: u64 = ok.iter().map(|o| o.result.report.cycles_simulated).sum();
        let total_flits: u64 = ok.iter().map(|o| o.result.report.counters.flits_ejected).sum();
        let workers: Vec<WorkerSummary> = worker_stats
            .iter()
            .enumerate()
            .map(|(worker, &(points, busy))| WorkerSummary {
                worker,
                points,
                busy_ms: busy.as_secs_f64() * 1e3,
            })
            .collect();
        let failed_points: Vec<FailureSummary> =
            outcomes.iter().filter_map(|r| r.as_ref().err()).map(FailureSummary::of).collect();
        let failure_busy_ms: f64 = outcomes
            .iter()
            .filter_map(|r| r.as_ref().err())
            .map(|f| f.wall.as_secs_f64() * 1e3)
            .sum();
        // Anomalies: windowed detections on completed points (halt off
        // or non-halting detectors) plus one per triggered halt.
        let mut anomalies: u64 = ok.iter().map(|o| o.result.report.anomalies.total()).sum();
        let mut anomaly_kinds: Vec<String> =
            ok.iter().flat_map(|o| o.result.report.anomalies.kinds()).map(str::to_string).collect();
        for f in outcomes.iter().filter_map(|r| r.as_ref().err()) {
            if let FailureKind::Anomaly { detector, .. } = &f.kind {
                anomalies += 1;
                anomaly_kinds.push(detector.clone());
            }
        }
        anomaly_kinds.sort_unstable();
        anomaly_kinds.dedup();
        RunSummary {
            jobs,
            points: outcomes.len(),
            wall_ms: wall.as_secs_f64() * 1e3,
            busy_ms: ok.iter().map(|o| o.wall.as_secs_f64() * 1e3).sum::<f64>() + failure_busy_ms,
            cycles_simulated: total_cycles,
            packets_ejected: ok.iter().map(|o| o.result.report.packets_ejected).sum(),
            kcycles_per_sec: per_sec(total_cycles as f64 / 1e3, wall_s),
            mflits_per_sec: per_sec(total_flits as f64 / 1e6, wall_s),
            saturated_points: ok.iter().filter(|o| o.result.report.saturated).count(),
            queue_wait_max_ms: ok
                .iter()
                .filter(|o| !o.resumed)
                .map(|o| o.queue_wait.as_secs_f64() * 1e3)
                .fold(0.0, f64::max),
            peak_arena_flits: ok.iter().map(|o| o.result.arena_peak_flits).max().unwrap_or(0),
            workers,
            build: Provenance::current(),
            point_details: ok
                .iter()
                .map(|o| PointSummary {
                    label: o.label.clone(),
                    seed: o.seed,
                    wall_ms: o.wall.as_secs_f64() * 1e3,
                    cycles: o.result.report.cycles_simulated,
                    avg_latency: o.result.report.avg_latency,
                    saturated: o.result.report.saturated,
                    queue_wait_ms: o.queue_wait.as_secs_f64() * 1e3,
                    arena_peak_flits: o.result.arena_peak_flits,
                })
                .collect(),
            failed_points,
            resumed_points: ok.iter().filter(|o| o.resumed).count(),
            retried_points: 0,
            anomalies,
            anomaly_kinds,
        }
    }

    /// One-line human rendering (printed to stderr by the benches in
    /// text mode).
    pub fn one_line(&self) -> String {
        let mut line = format!(
            "{} points on {} workers: {:.2} s wall, {:.2} s busy, {} cycles \
             ({:.0} Kcyc/s, {:.2} Mflit/s), {} saturated",
            self.points,
            self.jobs,
            self.wall_ms / 1e3,
            self.busy_ms / 1e3,
            self.cycles_simulated,
            self.kcycles_per_sec,
            self.mflits_per_sec,
            self.saturated_points,
        );
        if !self.failed_points.is_empty() {
            line.push_str(&format!(", {} FAILED", self.failed_points.len()));
        }
        if self.resumed_points > 0 {
            line.push_str(&format!(", {} resumed", self.resumed_points));
        }
        if self.anomalies > 0 {
            line.push_str(&format!(
                ", {} ANOMALIES ({})",
                self.anomalies,
                self.anomaly_kinds.join(", ")
            ));
        }
        line
    }
}

/// One machine-readable progress record, emitted as a JSON line on
/// stderr after each point completes when [`Runner::progress_json`] is
/// on (the `--progress-json` bench flag). Lines are self-contained so a
/// monitor can tail them without tracking state.
///
/// `Serialize` is hand-written so the `failed` field only appears on
/// failure lines — success lines stay byte-identical to earlier
/// releases.
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Points finished so far (including this one).
    pub done: usize,
    /// Points in the batch.
    pub total: usize,
    /// Label of the point that just finished.
    pub label: String,
    /// Seed the point ran with.
    pub seed: u64,
    /// Wall-clock the point took on its worker, milliseconds.
    pub wall_ms: f64,
    /// Cycles the point simulated (0 for failures).
    pub cycles: u64,
    /// The point's simulation rate, thousands of cycles per second.
    pub kcycles_per_sec: f64,
    /// Whether the point saturated.
    pub saturated: bool,
    /// Whether the point failed (the line then records the failure, not
    /// a result).
    pub failed: bool,
}

impl Serialize for ProgressEvent {
    fn serialize(&self, e: &mut dyn serde::Emitter) {
        e.begin_object();
        e.field("done", &self.done);
        e.field("total", &self.total);
        e.field("label", &self.label);
        e.field("seed", &self.seed);
        e.field("wall_ms", &self.wall_ms);
        e.field("cycles", &self.cycles);
        e.field("kcycles_per_sec", &self.kcycles_per_sec);
        e.field("saturated", &self.saturated);
        if self.failed {
            e.field("failed", &self.failed);
        }
        e.end_object();
    }
}

impl ProgressEvent {
    /// The event as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("progress event serializes")
    }
}

/// A point's final outcome: its result or its typed failure.
type Outcome = Result<PointOutcome, PointFailure>;

/// What the scoped workers of one batch share. Every point owns one
/// slot, filled exactly once: by store replay before the pool
/// starts, or by the worker that claimed the point.
struct BatchState<'a> {
    runner: &'a Runner,
    exhibit: &'a str,
    points: &'a [SimPoint],
    slots: Vec<OnceLock<Outcome>>,
    started: Instant,
    next: AtomicUsize,
    finalized: AtomicUsize,
    resumed: usize,
    store: Mutex<Option<StoreWriter>>,
}

/// Renders a caught panic payload (the `&str`/`String` panics
/// `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Installs, once per process, a panic hook that stays silent for an
/// [`AnomalyAbort`] unwind — the runner turns it into a typed failure
/// with a black-box dump — and hands every other panic to the hook it
/// replaced.
fn silence_anomaly_aborts() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<AnomalyAbort>() {
                previous(info);
            }
        }));
    });
}

/// Parses a raw `MIRA_JOBS` value. Unset or blank means "not
/// configured"; anything but a positive integer is a
/// [`HostError::Flag`] naming the variable — a typo must not silently
/// run the sweep on another pool size.
fn parse_jobs(raw: Option<&str>) -> Result<Option<usize>, HostError> {
    let Some(value) = raw.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(HostError::Flag {
            flag: "MIRA_JOBS",
            detail: format!("expects a positive worker count, got {value:?}"),
        }),
    }
}

impl BatchState<'_> {
    /// The claim-run-finalize loop every worker runs. Returns the
    /// points this worker executed and the time it spent in them.
    fn worker_loop(&self) -> (usize, Duration) {
        let (mut executed, mut busy) = (0usize, Duration::ZERO);
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(p) = self.points.get(i) else { break };
            // Resumed points were finalized before the workers started.
            if self.slots[i].get().is_some() {
                continue;
            }
            let failure = |kind: FailureKind, wall: Duration| PointFailure {
                index: i,
                label: p.label.clone(),
                seed: p.seed,
                kind,
                wall,
            };
            let queue_wait = self.started.elapsed();
            let t0 = Instant::now();
            // The closures are pure functions of the seed by contract
            // (module docs), so observing one after an unwind is safe.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| (p.run)(p.seed)));
            let wall = t0.elapsed();
            executed += 1;
            busy += wall;
            let value = match outcome {
                Ok(result) => Ok(PointOutcome {
                    label: p.label.clone(),
                    seed: p.seed,
                    result,
                    wall,
                    queue_wait,
                    resumed: false,
                }),
                Err(payload) => {
                    // An anomaly halt is a deterministic simulator
                    // verdict carrying a black-box dump, not a host
                    // fault: take it out of the unwind path *before*
                    // the payload is flattened to a string.
                    let kind = match payload.downcast::<AnomalyAbort>() {
                        Ok(abort) => FailureKind::Anomaly {
                            detector: abort.kind.name().to_string(),
                            cycle: abort.cycle,
                            dump_path: self.write_blackbox(i, &abort),
                        },
                        Err(payload) => {
                            FailureKind::Panic { payload: panic_message(payload.as_ref()) }
                        }
                    };
                    Err(failure(kind, wall))
                }
            };
            self.finalize(i, value);
        }
        (executed, busy)
    }

    /// Writes one anomaly black-box dump as
    /// `<blackbox_dir>/<exhibit>-p<index>.json`, creating the directory
    /// as needed. IO failure warns and returns `None` — the typed
    /// failure still records the detector and cycle.
    fn write_blackbox(&self, index: usize, abort: &AnomalyAbort) -> Option<PathBuf> {
        let dir = self.runner.blackbox_dir.as_deref().unwrap_or(Path::new(DEFAULT_BLACKBOX_DIR));
        let path = dir.join(format!("{}-p{index}.json", self.exhibit));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            std::fs::write(&path, abort.dump.as_bytes())
        };
        match write() {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("[runner] warning: cannot write black-box dump {}: {e}", path.display());
                None
            }
        }
    }

    /// Records point `index`'s outcome: point-line append and the
    /// progress line, then its slot.
    fn finalize(&self, index: usize, value: Outcome) {
        // Flush the point line *before* the point counts as finalized:
        // once reported done, it is durable.
        if let Ok(o) = &value {
            self.store_point(o);
        }
        let finished = self.finalized.fetch_add(1, Ordering::Relaxed) + 1;
        self.emit_progress(finished, &value);
        self.slots[index].set(value).expect("each point is claimed by exactly one worker");
    }

    /// Appends a completed point to the batch's store file (if one is
    /// configured).
    fn store_point(&self, o: &PointOutcome) {
        let mut guard = self.store.lock().expect("store writer");
        store_append(&mut guard, |w| w.append_point(&o.label, o.seed, o.result.to_value()));
    }

    /// Emits the human and/or JSONL progress line for one finalized
    /// point.
    fn emit_progress(&self, finished: usize, value: &Outcome) {
        let (human, json) = (self.runner.progress, self.runner.progress_json);
        if !human && !json {
            return;
        }
        let total = self.points.len();
        let (label, seed, wall, cycles, saturated) = match value {
            Ok(o) => {
                let r = &o.result.report;
                (&o.label, o.seed, o.wall, r.cycles_simulated, r.saturated)
            }
            Err(f) => (&f.label, f.seed, f.wall, 0, false),
        };
        let rate = per_sec(cycles as f64 / 1e3, wall.as_secs_f64());
        if human {
            if let Err(f) = value {
                eprintln!(
                    "[runner] {finished}/{total} done (FAILED: {label}: {})",
                    f.kind.detail()
                );
            } else {
                let elapsed = self.started.elapsed();
                let run_done = finished.saturating_sub(self.resumed).max(1);
                let eta = elapsed.mul_f64((total - finished) as f64 / run_done as f64);
                eprintln!(
                    "[runner] {finished}/{total} done, {elapsed:.1?} elapsed, ~{eta:.1?} left (last: {label} in {wall:.1?}, {rate:.0} Kcyc/s)",
                );
            }
        }
        if json {
            let event = ProgressEvent {
                done: finished,
                total,
                label: label.clone(),
                seed,
                wall_ms: wall.as_secs_f64() * 1e3,
                cycles,
                kcycles_per_sec: rate,
                saturated,
                failed: value.is_err(),
            };
            eprintln!("{}", event.to_jsonl());
        }
    }
}

/// Appends one line through the batch's store writer, disabling the
/// store for the rest of the batch on IO failure — the store is a
/// convenience, not a reason to fail a healthy sweep.
fn store_append(
    writer: &mut Option<StoreWriter>,
    append: impl FnOnce(&mut StoreWriter) -> std::io::Result<()>,
) {
    if let Some(w) = writer.as_mut() {
        if let Err(e) = append(w) {
            eprintln!(
                "[runner] warning: store append to {} failed: {e}; disabling the store",
                w.path().display()
            );
            *writer = None;
        }
    }
}

/// Replays the batch's stored points from this build into the result
/// slots before any worker starts. Returns how many points were
/// prefilled.
fn prefill_from_store(
    path: &Path,
    config_hash: u64,
    points: &[SimPoint],
    slots: &[OnceLock<Outcome>],
    progress: bool,
) -> usize {
    let loaded = match store::load(path, config_hash) {
        Ok(l) => l,
        Err(e) => {
            eprintln!(
                "[runner] warning: cannot read store {}: {e}; running every point",
                path.display()
            );
            return 0;
        }
    };
    if loaded.torn_lines > 0 {
        eprintln!(
            "[runner] store {}: ignored {} torn line(s) from an interrupted append",
            path.display(),
            loaded.torn_lines
        );
    }
    if loaded.stale_lines > 0 {
        eprintln!(
            "[runner] store {}: ignored {} point line(s) from a different batch or build",
            path.display(),
            loaded.stale_lines
        );
    }
    let mut pool = loaded.points;
    let mut resumed = 0usize;
    for (i, p) in points.iter().enumerate() {
        let Some(pos) = pool.iter().position(|e| e.label == p.label && e.seed == p.seed) else {
            continue;
        };
        let entry = pool.swap_remove(pos);
        match RunResult::from_value(&entry.result) {
            Ok(result) => {
                let replayed = PointOutcome {
                    label: p.label.clone(),
                    seed: p.seed,
                    result,
                    wall: Duration::ZERO,
                    queue_wait: Duration::ZERO,
                    resumed: true,
                };
                slots[i].set(Ok(replayed)).expect("each point is replayed at most once");
                resumed += 1;
            }
            Err(e) => {
                eprintln!(
                    "[runner] warning: store {}: line for `{}` does not replay ({e}); re-running it",
                    path.display(),
                    p.label
                );
            }
        }
    }
    if resumed > 0 && progress {
        eprintln!("[runner] resumed {resumed}/{} point(s) from {}", points.len(), path.display());
    }
    resumed
}

/// The worker pool configuration.
#[derive(Debug, Clone)]
pub struct Runner {
    jobs: usize,
    progress: bool,
    progress_json: bool,
    exhibit: Option<String>,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    blackbox_dir: Option<PathBuf>,
    options: String,
}

/// Default directory for anomaly black-box dumps.
const DEFAULT_BLACKBOX_DIR: &str = "results/blackbox";

impl Runner {
    /// A pool sized from the environment: `MIRA_JOBS` if set to a
    /// positive integer, else [`std::thread::available_parallelism`]; a
    /// blank `MIRA_JOBS` counts as unset, any other value exits non-zero
    /// naming the variable. Progress reporting defaults to on when
    /// stderr is a terminal; every other policy is off (see the builder
    /// methods).
    pub fn from_env() -> Self {
        let jobs = parse_jobs(std::env::var("MIRA_JOBS").ok().as_deref())
            .unwrap_or_else(|e| e.exit())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Runner { progress: std::io::stderr().is_terminal(), ..Runner::with_jobs(jobs) }
    }

    /// Pool with an explicit worker count (progress off, no store —
    /// this is the constructor tests use).
    pub fn with_jobs(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            progress: false,
            progress_json: false,
            exhibit: None,
            checkpoint_dir: None,
            resume: false,
            blackbox_dir: None,
            options: String::new(),
        }
    }

    /// Enables or disables the machine-readable JSONL progress stream
    /// on stderr (one [`ProgressEvent`] line per completed point,
    /// alongside — not replacing — the human progress line).
    pub fn progress_json(mut self, on: bool) -> Self {
        self.progress_json = on;
        self
    }

    /// Names the exhibit for store files and batch lines (default: the
    /// binary's file stem).
    pub fn exhibit(mut self, name: impl Into<String>) -> Self {
        self.exhibit = Some(name.into());
        self
    }

    /// Writes each batch's results-store file under `dir` (one
    /// `<exhibit>-<confighash>.jsonl` file per batch identity). A
    /// non-resume run resets the batch's file first.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Replays the points this build stored in the batch's store file
    /// before running the rest. Implies a store in
    /// `results/checkpoints` when no directory is configured.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Directory anomaly black-box dumps are written under (default:
    /// `results/blackbox`). One `<exhibit>-p<index>.json` file per
    /// point that tripped a halting detector.
    pub fn blackbox_out(mut self, dir: impl Into<PathBuf>) -> Self {
        self.blackbox_dir = Some(dir.into());
        self
    }

    /// Sets the options echo: the canonical rendering of whatever
    /// shaped this runner's results beyond the points themselves (the
    /// bench binaries pass `Cli::options`). It is hashed into each
    /// batch's store identity and echoed on its batch line, so a store
    /// file names its configuration and batches run under other options
    /// never share one. Default: empty.
    pub fn options(mut self, rendering: impl Into<String>) -> Self {
        self.options = rendering.into();
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every point and returns outcomes in input order, panicking
    /// with an itemized [`HostError::Batch`] message if any point
    /// failed — the historical all-success contract positional
    /// consumers rely on. Use [`Runner::try_run`] to handle failures
    /// gracefully.
    pub fn run(&self, points: Vec<SimPoint>) -> RunBatch {
        match self.try_run(points).into_complete() {
            Ok(batch) => batch,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs every point with fault isolation and returns one `Result`
    /// per point, in input order.
    ///
    /// Scoped workers pull the next unclaimed index from a shared
    /// atomic counter and run it once under `catch_unwind`; each
    /// outcome lands in its own slot, so no result depends on
    /// completion order. With a store configured, completed points are
    /// stored (and replayed on resume) and the summary is appended once
    /// the pool joins, before this returns.
    pub fn try_run(&self, points: Vec<SimPoint>) -> TryRunBatch {
        silence_anomaly_aborts();
        let started = Instant::now();
        let total = points.len();
        let exhibit = self.exhibit_name();
        // Hashed before the run so a crashing point can't change the
        // batch's identity in the store.
        let config_hash = store::config_hash(
            &exhibit,
            &self.options,
            points.iter().map(|p| (p.label(), p.seed())),
        );

        let store_path = self
            .checkpoint_dir
            .as_deref()
            .or_else(|| self.resume.then_some(Path::new(store::DEFAULT_DIR)))
            .map(|dir| store::path_for(dir, &exhibit, config_hash));

        let slots: Vec<OnceLock<Outcome>> = (0..total).map(|_| OnceLock::new()).collect();
        let mut resumed = 0usize;
        if let Some(path) = &store_path {
            if self.resume {
                resumed = prefill_from_store(path, config_hash, &points, &slots, self.progress);
            } else if path.exists() {
                // A fresh (non-resume) run restarts its store file, so
                // each file records the latest run of its batch.
                if let Err(e) = std::fs::remove_file(path) {
                    eprintln!("[runner] warning: cannot reset store {}: {e}", path.display());
                }
            }
        }
        let writer =
            store_path.as_ref().and_then(|path| match StoreWriter::open(path, config_hash) {
                Ok(w) => Some(w),
                Err(e) => {
                    eprintln!(
                        "[runner] warning: cannot open store {}: {e}; running without a store",
                        path.display()
                    );
                    None
                }
            });

        let runtime_total = total - resumed;
        let workers = self.jobs.min(runtime_total);
        let state = BatchState {
            runner: self,
            exhibit: &exhibit,
            points: &points,
            slots,
            started,
            next: AtomicUsize::new(0),
            finalized: AtomicUsize::new(resumed),
            resumed,
            store: Mutex::new(writer),
        };
        let worker_stats: Vec<(usize, Duration)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .filter_map(|wid| {
                    std::thread::Builder::new()
                        .name(format!("mira-worker-{wid}"))
                        .spawn_scoped(s, || state.worker_loop())
                        .map_err(|e| eprintln!("[runner] warning: cannot spawn worker {wid}: {e}"))
                        .ok()
                })
                .collect();
            if handles.is_empty() && runtime_total > 0 {
                // Could not start a single thread: degrade to running
                // the batch inline.
                return vec![state.worker_loop()];
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });

        let mut writer = state.store.into_inner().expect("store writer");
        let outcomes: Vec<Outcome> = state
            .slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every point is finalized before the pool joins"))
            .collect();
        let summary = RunSummary::new(workers.max(1), started.elapsed(), &outcomes, &worker_stats);
        store_append(&mut writer, |w| w.append_batch(&exhibit, &self.options, summary.to_value()));
        TryRunBatch { exhibit, outcomes, summary }
    }

    /// The exhibit name for store files: the explicit override, or the
    /// running binary's file stem.
    fn exhibit_name(&self) -> String {
        if let Some(name) = &self.exhibit {
            return name.clone();
        }
        std::env::current_exe()
            .ok()
            .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
            .unwrap_or_else(|| "unknown".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Arch;
    use crate::experiments::common::{quick_sim_config, run_arch};
    use mira_noc::traffic::UniformRandom;

    fn ur_point(label: &str, arch: Arch, rate: f64, seed: u64) -> SimPoint {
        SimPoint::new(label, seed, move |s| {
            let cfg = quick_sim_config();
            run_arch(arch, false, Box::new(UniformRandom::new(rate, 5, s)), cfg)
        })
    }

    fn scratch_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mira_runner_{name}_{}", std::process::id()))
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        // Pinned values: the derivation must never change, or every
        // calibrated experiment shifts.
        assert_eq!(derive_seed(EXPERIMENT_SEED, 0), derive_seed(EXPERIMENT_SEED, 0));
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(EXPERIMENT_SEED, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "derived seeds must not collide");
        // Different bases give different streams.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn results_come_back_in_input_order() {
        let points = vec![
            ur_point("a", Arch::TwoDB, 0.05, 1),
            ur_point("b", Arch::ThreeDM, 0.05, 2),
            ur_point("c", Arch::ThreeDME, 0.05, 3),
        ];
        let batch = Runner::with_jobs(3).run(points);
        let labels: Vec<&str> = batch.outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        assert_eq!(batch.outcomes[0].result.arch, Arch::TwoDB);
        assert_eq!(batch.outcomes[2].result.arch, Arch::ThreeDME);
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = Runner::with_jobs(4).run(Vec::new());
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.summary.points, 0);
    }

    #[test]
    fn summary_aggregates_points() {
        let points = vec![
            ur_point("x", Arch::TwoDB, 0.05, EXPERIMENT_SEED),
            ur_point("y", Arch::TwoDB, 0.05, EXPERIMENT_SEED),
        ];
        let batch = Runner::with_jobs(2).run(points);
        let s = &batch.summary;
        assert_eq!(s.points, 2);
        assert_eq!(s.jobs, 2);
        assert_eq!(
            s.packets_ejected,
            batch.outcomes.iter().map(|o| o.result.report.packets_ejected).sum::<u64>()
        );
        assert!(s.wall_ms > 0.0 && s.busy_ms > 0.0);
        assert_eq!(s.point_details.len(), 2);
        assert_eq!(s.point_details[0].label, "x");
        assert!(s.failed_points.is_empty());
        assert_eq!(s.resumed_points, 0);
        assert_eq!(s.retried_points, 0);
        // Self-metrics: the sim rate ties out against cycles and wall.
        assert!(s.kcycles_per_sec > 0.0);
        let expected = s.cycles_simulated as f64 / 1e3 / (s.wall_ms / 1e3);
        assert!((s.kcycles_per_sec - expected).abs() < 1e-6 * expected.max(1.0));
        assert!(s.mflits_per_sec > 0.0);
        assert!(s.one_line().contains("Kcyc/s"));
        assert!(!s.one_line().contains("FAILED"));
        // The crash-safety fields stay out of clean-batch JSON.
        let json = serde_json::to_string(&s.to_value()).expect("summary serializes");
        assert!(!json.contains("failed_points"));
        assert!(!json.contains("resumed_points"));
        assert!(!json.contains("retried_points"));
        assert!(!json.contains("anomalies"), "clean batches carry no anomaly fields");
        assert_eq!(s.anomalies, 0);
    }

    #[test]
    fn jobs_env_override_parses() {
        // Only the explicit constructor is exercised here — reading
        // MIRA_JOBS in-process would race with parallel test threads.
        assert_eq!(Runner::with_jobs(0).jobs(), 1, "zero clamps to one worker");
        assert_eq!(Runner::with_jobs(7).jobs(), 7);
    }

    #[test]
    fn switch_settings_parse_or_name_the_variable() {
        // `MIRA_JOBS` is the one setting the runner still reads from the
        // environment; its raw values go through the parser directly.
        assert_eq!(parse_jobs(Some(" 3 ")), Ok(Some(3)));
        assert_eq!(parse_jobs(None), Ok(None));
        assert_eq!(parse_jobs(Some("  ")), Ok(None), "blank means unset");
        for bad in ["0", "-2", "four"] {
            let err = parse_jobs(Some(bad)).expect_err("not a positive worker count");
            assert!(matches!(err, HostError::Flag { flag: "MIRA_JOBS", .. }), "{bad:?}: {err}");
            assert!(err.to_string().contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn panicking_point_is_isolated() {
        let points = vec![
            ur_point("ok0", Arch::TwoDB, 0.05, 11),
            SimPoint::new("boom", 12, |_| panic!("injected test panic")),
            ur_point("ok2", Arch::TwoDB, 0.05, 13),
        ];
        let batch = Runner::with_jobs(2).try_run(points);
        assert!(batch.outcomes[0].is_ok());
        assert!(batch.outcomes[2].is_ok());
        let f = batch.outcomes[1].as_ref().expect_err("point 1 panicked");
        assert_eq!(f.index, 1);
        assert_eq!(f.label, "boom");
        assert_eq!(f.kind, FailureKind::Panic { payload: "injected test panic".into() });
        assert_eq!(batch.summary.failed_points.len(), 1);
        assert_eq!(batch.summary.failed_points[0].kind, "panic");
        assert_eq!(batch.summary.point_details.len(), 2, "details cover completed points");
        // The clean points are bit-identical to a failure-free batch.
        let clean = Runner::with_jobs(1).run(vec![
            ur_point("ok0", Arch::TwoDB, 0.05, 11),
            ur_point("ok2", Arch::TwoDB, 0.05, 13),
        ]);
        let failed_ok0 = batch.outcomes[0].as_ref().expect("ok0");
        assert_eq!(
            failed_ok0.result.report.avg_latency.to_bits(),
            clean.outcomes[0].result.report.avg_latency.to_bits()
        );
        let json = serde_json::to_string(&batch.summary.to_value()).expect("serializes");
        assert!(json.contains("failed_points"), "failure itemized in JSON");
    }

    #[test]
    fn run_panics_with_itemized_message_on_failure() {
        let points = vec![SimPoint::new("boom", 5, |_| panic!("kaboom"))];
        let runner = Runner::with_jobs(1).exhibit("panic_test");
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| runner.run(points)))
            .expect_err("run must panic on failure");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("panic_test: 1 of 1 points failed"), "{msg}");
        assert!(msg.contains("`boom` (seed 5) panicked: kaboom"), "{msg}");
    }

    /// An anomaly halt unwinds without the default hook's `panicked at`
    /// block on stderr, while any other panic still reports. The check
    /// re-runs this test in a child process (marked by an environment
    /// variable) and reads the child's stderr.
    #[test]
    fn anomaly_abort_unwinds_silently() {
        const CHILD: &str = "RUNNER_SILENT_ABORT_CHILD";
        let name = "experiments::runner::tests::anomaly_abort_unwinds_silently";
        if std::env::var_os(CHILD).is_some() {
            let dir = scratch_dir("silent_abort");
            let points = vec![
                SimPoint::new("wedged", 1, |_| {
                    std::panic::panic_any(AnomalyAbort {
                        kind: mira_noc::anomaly::AnomalyKind::NoProgress,
                        cycle: 7,
                        dump: "{}".to_string(),
                    })
                }),
                SimPoint::new("broken", 2, |_| panic!("an ordinary point panic")),
            ];
            let batch =
                Runner::with_jobs(1).exhibit("silent_abort").blackbox_out(&dir).try_run(points);
            assert!(batch.outcomes.iter().all(Result::is_err));
            std::fs::remove_dir_all(&dir).expect("cleanup");
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([name, "--exact", "--nocapture", "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .expect("child test runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "child failed: {stderr}");
        assert!(stderr.contains("an ordinary point panic"), "other panics still report: {stderr}");
        assert_eq!(stderr.matches("panicked at").count(), 1, "only the ordinary panic: {stderr}");
    }

    #[test]
    fn anomaly_abort_becomes_typed_failure_with_dump() {
        let dir = scratch_dir("blackbox_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let points = vec![
            ur_point("healthy", Arch::TwoDB, 0.05, 51),
            SimPoint::new("wedged", 52, |_| {
                std::panic::panic_any(AnomalyAbort {
                    kind: mira_noc::anomaly::AnomalyKind::NoProgress,
                    cycle: 1234,
                    dump: "{\"version\": 1}".to_string(),
                })
            }),
        ];
        let batch =
            Runner::with_jobs(1).exhibit("blackbox_unit").blackbox_out(&dir).try_run(points);
        assert!(batch.outcomes[0].is_ok(), "healthy point unaffected");
        let f = batch.outcomes[1].as_ref().expect_err("anomaly fails the point");
        let FailureKind::Anomaly { detector, cycle, dump_path } = &f.kind else {
            panic!("expected an anomaly failure, got {:?}", f.kind);
        };
        assert_eq!(detector, "no_progress");
        assert_eq!(*cycle, 1234);
        let path = dump_path.as_ref().expect("dump written");
        assert_eq!(path, &dir.join("blackbox_unit-p1.json"));
        assert_eq!(
            std::fs::read_to_string(path).expect("dump readable"),
            "{\"version\": 1}",
            "the dump file is the simulator's rendered black box, verbatim"
        );
        assert_eq!(batch.summary.failed_points.len(), 1);
        assert_eq!(batch.summary.failed_points[0].kind, "anomaly");
        assert_eq!(batch.summary.anomalies, 1);
        assert_eq!(batch.summary.anomaly_kinds, ["no_progress"]);
        assert!(batch.summary.one_line().contains("1 ANOMALIES (no_progress)"));
        let json = serde_json::to_string(&batch.summary.to_value()).expect("serializes");
        assert!(json.contains("\"anomalies\":1"), "{json}");
        assert!(json.contains("\"anomaly_kinds\":[\"no_progress\"]"), "{json}");
        assert!(f.to_string().contains("tripped anomaly detector `no_progress` at cycle 1234"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn checkpoint_resume_replays_bit_identical() {
        let dir = scratch_dir("resume_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let mk_points = || {
            vec![
                ur_point("p0", Arch::TwoDB, 0.05, 31),
                ur_point("p1", Arch::ThreeDM, 0.05, 32),
                ur_point("p2", Arch::ThreeDME, 0.05, 33),
            ]
        };
        let first =
            Runner::with_jobs(2).exhibit("resume_unit").checkpoint_dir(&dir).run(mk_points());
        let second = Runner::with_jobs(2)
            .exhibit("resume_unit")
            .checkpoint_dir(&dir)
            .resume(true)
            .run(mk_points());
        assert_eq!(second.summary.resumed_points, 3, "every point replayed");
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.label, b.label);
            assert!(b.resumed);
            assert_eq!(b.wall, Duration::ZERO, "replayed, not executed");
            assert_eq!(
                a.result.report.avg_latency.to_bits(),
                b.result.report.avg_latency.to_bits(),
                "{}: resumed latency bit-identical",
                a.label
            );
            assert_eq!(a.result.report.packets_ejected, b.result.report.packets_ejected);
            assert_eq!(a.result.pdp.to_bits(), b.result.pdp.to_bits());
            assert_eq!(a.result.arena_peak_flits, b.result.arena_peak_flits);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn options_echo_keys_the_store_file() {
        let dir = scratch_dir("options_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let points = || vec![ur_point("p0", Arch::TwoDB, 0.05, 41)];
        let runner = |options: &str| {
            Runner::with_jobs(1).exhibit("options_unit").checkpoint_dir(&dir).options(options)
        };
        let quick = runner("quick=true").run(points());
        let hash = |options: &str| {
            store::config_hash(
                "options_unit",
                options,
                points().iter().map(|p| (p.label(), p.seed())),
            )
        };
        let (quick_path, full_path) = (
            store::path_for(&dir, "options_unit", hash("quick=true")),
            store::path_for(&dir, "options_unit", hash("quick=false")),
        );
        assert_ne!(quick_path, full_path, "the options echo is part of the store identity");
        assert!(quick_path.exists() && !full_path.exists());
        // Resuming under the other echo finds nothing to replay.
        let full = runner("quick=false").resume(true).run(points());
        assert_eq!(full.summary.resumed_points, 0, "no point crosses configurations");
        assert!(!full.outcomes[0].resumed);
        // Under the same echo every point replays.
        let again = runner("quick=true").resume(true).run(points());
        assert_eq!(again.summary.resumed_points, 1);
        assert_eq!(
            again.outcomes[0].result.report.avg_latency.to_bits(),
            quick.outcomes[0].result.report.avg_latency.to_bits()
        );
        // Each file's batch lines echo the options they were keyed by.
        for (path, options, runs) in
            [(&quick_path, "quick=true", 2), (&full_path, "quick=false", 1)]
        {
            let loaded = store::load(path, hash(options)).expect("store readable");
            assert_eq!(loaded.batches.len(), runs, "{options}");
            assert!(loaded.batches.iter().all(|b| b.options == options), "{options}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
