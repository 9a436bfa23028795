//! The four workloads and the metrics they measure.
//!
//! Simulated traffic is open-loop at a stated rate; on the host side
//! every workload is a closed batch of fixed size, repeated until the
//! run's time budget is spent (at least once), and each metric is the
//! median over the repetitions. An untraced run measures the end-to-end
//! metrics. A traced run spends half its budget untraced and half with
//! every call timed, then adds short diagnostic passes (phase profiler,
//! two shards, recorders off); it reports the per-layer metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mira::arch::Arch;
use mira::experiments::runner::{derive_seed, RunSummary, Runner};
use mira::experiments::scorecard::{self, Claim};
use mira::experiments::{ablations, energy, faults, latency, patterns, power, tables, thermal};
use mira::experiments::{common::sweep_ur_on, EXPERIMENT_SEED};
use mira::noc::anomaly::AnomalyConfig;
use mira::noc::network::{FabricWatermarks, Network};
use mira::noc::packet::{Packet, PacketId};
use mira::noc::sim::{SimConfig, SimReport, Simulator};
use mira::noc::telemetry::TelemetryConfig;
use mira::noc::topology::{Mesh2D, Topology};
use mira::noc::traffic::{PayloadProfile, UniformRandom, Workload};
use mira::traffic::workloads::Application;
use mira_bench::{rates_nuca, rates_ur, Cli};

use crate::record::{fnv1a, Check, Metric};
use crate::stats::Summary;
use crate::trace::{
    Call, Probe, Tracer, Untraced, BATCH, DRAIN, ENQUEUE, GENERATE, NET_SETUP, POINT, SIM_NEW,
    SIM_RUN, STEP,
};

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["repro_full", "step_6x6", "step_32x32", "sim_observed"];

/// The seed `expected.json` holds digests for.
pub const DEFAULT_SEED: u64 = EXPERIMENT_SEED;

/// End-to-end metrics (untraced run) with their units.
pub const END_TO_END: [(&str, &str); 4] =
    [("batch_wall_s", "s"), ("sim_cycles_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// The exhibits of a reproduction pass, in `all_experiments` order,
/// with the per-layer metric that times each call.
const EXHIBITS: [(&str, &str); 25] = [
    ("tab1", "experiments.tab1_s"),
    ("tab2", "experiments.tab2_s"),
    ("tab3", "experiments.tab3_s"),
    ("fig9", "experiments.fig9_s"),
    ("fig1", "experiments.fig1_s"),
    ("fig2", "experiments.fig2_s"),
    ("fig13a", "experiments.fig13a_s"),
    ("ur_sweep", "experiments.ur_sweep_s"),
    ("fig11a", "experiments.fig11a_s"),
    ("fig12a", "experiments.fig12a_s"),
    ("fig12d", "experiments.fig12d_s"),
    ("fig11b", "experiments.fig11b_s"),
    ("fig12b", "experiments.fig12b_s"),
    ("fig11c", "experiments.fig11c_s"),
    ("fig12c", "experiments.fig12c_s"),
    ("fig11d", "experiments.fig11d_s"),
    ("fig13b", "experiments.fig13b_s"),
    ("fig13c", "experiments.fig13c_s"),
    ("abl_pipeline", "experiments.abl_pipeline_s"),
    ("abl_express_span", "experiments.abl_express_span_s"),
    ("abl_buffers", "experiments.abl_buffers_s"),
    ("abl_routing", "experiments.abl_routing_s"),
    ("tail_latency", "experiments.tail_latency_s"),
    ("fault_sweep", "experiments.fault_sweep_s"),
    ("scorecard", "experiments.scorecard_s"),
];

/// Per-layer metrics (traced run) with their units. A workload that
/// does not reach a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("network.step_ns_per_router_cycle", "ns"),
    ("network.step_p50_us", "us"),
    ("network.step_p999_us", "us"),
    ("network.step_calls", "count"),
    ("network.enqueue_ns_per_flit", "ns"),
    ("network.enqueue_share", "ratio"),
    ("network.drain_ns_per_cycle", "ns"),
    ("network.arena_live_peak", "flits"),
    ("network.router_buffer_peak", "flits"),
    ("network.source_queue_flits_end", "flits"),
    ("network.shard2_speedup", "ratio"),
    ("network.link_delivery_share", "ratio"),
    ("network.router_pipeline_share", "ratio"),
    ("network.occupancy_share", "ratio"),
    ("network.nic_inject_share", "ratio"),
    ("network.telemetry_share", "ratio"),
    ("router.stage_rc_share", "ratio"),
    ("router.stage_va_share", "ratio"),
    ("router.stage_sa_share", "ratio"),
    ("router.stage_st_share", "ratio"),
    ("obs.coverage", "ratio"),
    ("traffic.generate_ns_per_cycle", "ns"),
    ("sim.driver_share", "ratio"),
    ("telemetry.recorder_overhead", "ratio"),
    ("telemetry.trace_events", "count"),
    ("telemetry.windows", "count"),
    ("journey.sampled", "count"),
    ("recorder.anomalies", "count"),
    ("runner.parallel_efficiency", "ratio"),
    ("runner.imbalance", "ratio"),
    ("runner.queue_wait_max_ms", "ms"),
    ("runner.point_wall_p50_ms", "ms"),
    ("runner.point_wall_max_ms", "ms"),
    ("runner.failed_points", "count"),
    ("runner.retried_points", "count"),
    ("experiments.claims_reproduced", "count"),
    ("experiments.tab1_s", "s"),
    ("experiments.tab2_s", "s"),
    ("experiments.tab3_s", "s"),
    ("experiments.fig9_s", "s"),
    ("experiments.fig1_s", "s"),
    ("experiments.fig2_s", "s"),
    ("experiments.fig13a_s", "s"),
    ("experiments.ur_sweep_s", "s"),
    ("experiments.fig11a_s", "s"),
    ("experiments.fig12a_s", "s"),
    ("experiments.fig12d_s", "s"),
    ("experiments.fig11b_s", "s"),
    ("experiments.fig12b_s", "s"),
    ("experiments.fig11c_s", "s"),
    ("experiments.fig12c_s", "s"),
    ("experiments.fig11d_s", "s"),
    ("experiments.fig13b_s", "s"),
    ("experiments.fig13c_s", "s"),
    ("experiments.abl_pipeline_s", "s"),
    ("experiments.abl_express_span_s", "s"),
    ("experiments.abl_buffers_s", "s"),
    ("experiments.abl_routing_s", "s"),
    ("experiments.tail_latency_s", "s"),
    ("experiments.fault_sweep_s", "s"),
    ("experiments.scorecard_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Set-up samples taken before the first repetition and after each one
/// (`setup_s` is the median over all of them).
const SETUP_ROUND: usize = 5;
/// Untimed set-ups before the first sample.
const SETUP_WARMUPS: usize = 10;
/// Cycles of the untimed pass each run starts with.
const WARM_CYCLES: u64 = 1_000;
/// Final cycles of each point whose calls are kept as spans.
const KEPT_CYCLES: u64 = 2_000;
/// Paper claims the scorecard checks.
const CLAIMS: usize = 14;

/// Workload size: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined with.
    Full,
    /// A few hundred cycles per point, for in-process tests.
    Tiny,
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Measuring budget, seconds (at least one repetition runs).
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub traced: bool,
    /// Workload size.
    pub scale: Scale,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Repetitions measured.
    pub reps: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Output digests by point label.
    pub digests: BTreeMap<String, String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

/// Runs `workload`.
///
/// # Errors
///
/// Returns a message for an unknown workload or when the host cannot
/// report peak memory.
pub fn run(workload: &str, p: Params) -> Result<Outcome, String> {
    match workload {
        "repro_full" => repro_full(p),
        "step_6x6" => step(p, six_by_six(&p), false),
        "step_32x32" => step(p, vec![mesh_32x32(&p)], true),
        "sim_observed" => sim_observed(p),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}

/// The child process's peak resident set (`VmHWM`), MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The runner's worker count a run is given: the CPU count capped at 4.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(4)
}

/// Runner workers: `MIRA_JOBS` when set (the parent sets it for every
/// child), else [`default_jobs`].
fn jobs() -> usize {
    std::env::var("MIRA_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(default_jobs)
}

/// Output checks and digests collected over a run.
#[derive(Debug, Default)]
struct Checks {
    list: Vec<Check>,
    digests: BTreeMap<String, String>,
}

impl Checks {
    fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.list.push(Check::new(name, ok, detail));
    }

    /// Keeps the first digest seen for `label` and checks that every
    /// later repetition reproduces it.
    fn digest(&mut self, label: &str, digest: u64) {
        let hex = format!("{digest:016x}");
        match self.digests.get(label) {
            None => {
                self.digests.insert(label.to_string(), hex);
            }
            Some(first) => {
                let ok = *first == hex;
                let detail = format!("{hex} vs first {first}");
                self.check(format!("{label}: repetition reproduces the digest"), ok, detail);
            }
        }
    }
}

/// Per-layer values; every name must be listed in [`PER_LAYER`].
#[derive(Debug, Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                Metric::single(name, unit, self.0.get(name).copied().unwrap_or(0.0))
            })
            .collect()
    }
}

/// Repeats `rep` while the next repetition, at the mean pace so far, is
/// expected to end within `seconds`; runs it at least once.
fn repeat<T>(seconds: f64, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(rep(out.len()));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / out.len() as f64 > seconds {
            return out;
        }
    }
}

/// Set-up timings, taken in rounds before the first repetition and after
/// every one so that they spread over the whole run (set-up takes
/// microseconds, and one burst of load on the host would otherwise
/// skew all of a run's samples at once). Each sample is the mean over
/// `batch` consecutive set-ups, so that set-ups too short for one clock
/// reading are timed in batches. What the last set-up of a sample built
/// is dropped outside the timed region; in a batch, each set-up drops
/// its predecessor's result, so the heap does not grow with the batch.
struct SetupSamples<T, F: FnMut() -> T> {
    batch: usize,
    setup: F,
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupSamples<T, F> {
    /// Starts with `SETUP_WARMUPS` untimed set-ups (while the
    /// allocator's heap still grows they page-fault, a varying number of
    /// times per run) and a first round of samples.
    fn start(batch: usize, mut setup: F) -> Self {
        for _ in 0..SETUP_WARMUPS {
            drop(black_box(setup()));
        }
        let mut s = SetupSamples { batch, setup, samples: Vec::new() };
        s.round();
        s
    }

    /// Takes `SETUP_ROUND` more samples, after one untimed set-up that
    /// brings back into cache what the last repetition evicted.
    fn round(&mut self) {
        drop(black_box((self.setup)()));
        for _ in 0..SETUP_ROUND {
            let t = Instant::now();
            let mut built = black_box((self.setup)());
            for _ in 1..self.batch {
                built = black_box((self.setup)());
            }
            self.samples.push(t.elapsed().as_secs_f64() / self.batch as f64);
            drop(built);
        }
    }

    fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

fn end_to_end(wall: &[f64], cycles_per_s: &[f64], setup: Summary) -> Result<Vec<Metric>, String> {
    let [wall_m, cps_m, setup_m, rss_m] = END_TO_END;
    Ok(vec![
        Metric::from_summary(wall_m.0, wall_m.1, Summary::of(wall)),
        Metric::from_summary(cps_m.0, cps_m.1, Summary::of(cycles_per_s)),
        Metric::from_summary(setup_m.0, setup_m.1, setup),
        Metric::single(rss_m.0, rss_m.1, peak_rss_mb()?),
    ])
}

/// Runs `f` with the `mira-obs` phase profiler on, from zeroed counters.
fn profiled<R>(f: impl FnOnce() -> R) -> R {
    mira_obs::phase::reset();
    mira_obs::set_enabled(true);
    let r = f();
    mira_obs::set_enabled(false);
    r
}

/// The phase profiler's shares: step sections over `Network::step`,
/// router stages over the router pipeline, and its coverage.
fn phase_layers(layers: &mut Layers) {
    let snap = mira_obs::phase::snapshot();
    let ns = |name: &str| snap.iter().find(|s| s.phase == name).map_or(0.0, |s| s.nanos as f64);
    let (total, pipeline) = (ns("step_total"), ns("router_pipeline"));
    if total > 0.0 {
        layers.set("network.link_delivery_share", ns("link_delivery") / total);
        layers.set("network.router_pipeline_share", pipeline / total);
        layers.set("network.occupancy_share", ns("occupancy") / total);
        layers.set("network.nic_inject_share", ns("nic_inject") / total);
        layers.set("network.telemetry_share", ns("telemetry") / total);
    }
    if pipeline > 0.0 {
        layers.set("router.stage_rc_share", ns("stage_rc") / pipeline);
        layers.set("router.stage_va_share", ns("stage_va") / pipeline);
        layers.set("router.stage_sa_share", ns("stage_sa") / pipeline);
        layers.set("router.stage_st_share", ns("stage_st") / pipeline);
    }
    layers.set("obs.coverage", mira_obs::phase::coverage().unwrap_or(0.0));
}

// ---------------------------------------------------------------------
// Bare-network workloads: step_6x6 and step_32x32.
// ---------------------------------------------------------------------

/// One bare-network point: a topology under uniform-random load.
#[derive(Debug, Clone)]
struct StepPoint {
    label: String,
    arch: Arch,
    /// Side of a square 2D mesh replacing the architecture's topology.
    side: Option<usize>,
    rate: f64,
    seed: u64,
    cycles: u64,
}

impl StepPoint {
    /// The set-up the workload times: `Network::new`, `set_shards` and
    /// `Workload::init`.
    fn build(&self, shards: usize) -> (Network, UniformRandom) {
        let topo: Box<dyn Topology> = match self.side {
            Some(s) => Box::new(Mesh2D::with_pitch(s, s, Mesh2D::PITCH_2DB_MM)),
            None => self.arch.topology(),
        };
        let mut net = Network::new(topo, self.arch.network_config(false));
        net.set_shards(shards);
        let mut workload = UniformRandom::new(self.rate, 5, self.seed);
        workload.init(net.topology().num_nodes());
        (net, workload)
    }
}

/// The four paper design points at two loads below saturation.
fn six_by_six(p: &Params) -> Vec<StepPoint> {
    let cycles = if p.scale == Scale::Full { 50_000 } else { 500 };
    let mut points = Vec::new();
    for arch in Arch::HARDWARE {
        for rate in [0.05, 0.15] {
            let seed = derive_seed(p.seed, points.len() as u64);
            let label = format!("{} @ {rate}", arch.name());
            points.push(StepPoint { label, arch, side: None, rate, seed, cycles });
        }
    }
    points
}

/// A 2DB-configured 32×32 mesh past saturation.
fn mesh_32x32(p: &Params) -> StepPoint {
    StepPoint {
        label: "2DB 32x32 @ 0.6".to_string(),
        arch: Arch::TwoDB,
        side: Some(32),
        rate: 0.6,
        seed: p.seed,
        cycles: if p.scale == Scale::Full { 4_000 } else { 200 },
    }
}

/// Steps `net` for `cycles` cycles under `workload`, the way a caller
/// of the public API drives it; returns the flits enqueued. With
/// `keep_spans`, the last [`KEPT_CYCLES`] cycles' calls become spans.
fn drive<P: Probe>(
    net: &mut Network,
    workload: &mut UniformRandom,
    cycles: u64,
    probe: &mut P,
    keep_spans: bool,
) -> u64 {
    let keep_from = cycles.saturating_sub(KEPT_CYCLES);
    let mut next_packet = 0u64;
    let mut enqueued = 0u64;
    let mut ejected = Vec::new();
    for cycle in 0..cycles {
        if keep_spans && cycle == keep_from {
            probe.keep_calls(true);
        }
        let specs = probe.time(GENERATE, || workload.generate(cycle));
        probe.time(ENQUEUE, || {
            for spec in specs {
                enqueued += spec.payload.len() as u64;
                net.enqueue_packet(Packet {
                    id: PacketId(next_packet),
                    src: spec.src,
                    dst: spec.dst,
                    class: spec.class,
                    payload: spec.payload,
                    created_at: cycle,
                });
                next_packet += 1;
            }
        });
        probe.time(STEP, || net.step(cycle));
        probe.time(DRAIN, || {
            net.drain_ejected(&mut ejected);
            ejected.clear();
        });
    }
    probe.keep_calls(false);
    enqueued
}

/// The untimed pass every run starts with: `WARM_CYCLES` cycles of
/// bare-network stepping, so that the allocator, caches and branch
/// predictors are warm before anything is timed.
fn warm_pass(arch: Arch, side: Option<usize>, rate: f64, seed: u64) {
    let label = "warm".to_string();
    let warm = StepPoint { label, arch, side, rate, seed, cycles: WARM_CYCLES };
    let (mut net, mut workload) = warm.build(1);
    drive(&mut net, &mut workload, warm.cycles, &mut Untraced, false);
}

/// One repetition of a bare-network batch.
#[derive(Debug, Default, Clone, Copy)]
struct StepBatch {
    /// Stepping time over all points, seconds (set-up excluded).
    wall: f64,
    cycles: u64,
    router_cycles: u64,
    flits_enqueued: u64,
    watermarks: FabricWatermarks,
    source_queue_end: usize,
}

impl StepBatch {
    fn cycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.wall
    }
}

fn step_batch<P: Probe>(
    points: &[StepPoint],
    shards: usize,
    probe: &mut P,
    checks: &mut Checks,
    rep: usize,
    keep_spans: bool,
) -> StepBatch {
    probe.span(BATCH, &format!("rep {rep} ({shards} shard)"), |probe| {
        let mut b = StepBatch::default();
        for pt in points {
            probe.span(POINT, &pt.label, |probe| {
                let (mut net, mut workload) = probe.time(NET_SETUP, || pt.build(shards));
                let t = Instant::now();
                let enqueued = drive(&mut net, &mut workload, pt.cycles, probe, keep_spans);
                b.wall += t.elapsed().as_secs_f64();

                let ejected = net.counters().flits_ejected;
                let (fabric, queued) = (net.flits_in_fabric(), net.flits_in_source_queues());
                checks.check(
                    format!("{}: flits enqueued = ejected + in fabric + queued", pt.label),
                    enqueued == ejected + fabric as u64 + queued as u64,
                    format!("{enqueued} vs {ejected} + {fabric} + {queued}"),
                );
                let mut bytes = serde_json::to_string(net.counters()).expect("counters serialise");
                bytes.push_str(&format!("|{}|{ejected}", net.progress_signature()));
                checks.digest(&pt.label, fnv1a(bytes.as_bytes()));

                let wm = net.watermarks();
                b.watermarks.arena_live_peak = b.watermarks.arena_live_peak.max(wm.arena_live_peak);
                b.watermarks.router_buffer_peak =
                    b.watermarks.router_buffer_peak.max(wm.router_buffer_peak);
                b.source_queue_end = b.source_queue_end.max(queued);
                b.cycles += pt.cycles;
                b.router_cycles += pt.cycles * net.topology().num_nodes() as u64;
                b.flits_enqueued += enqueued;
            });
        }
        b
    })
}

fn step(p: Params, points: Vec<StepPoint>, shard_probe: bool) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    warm_pass(points[0].arch, points[0].side, points[0].rate, p.seed);

    let mut setup =
        SetupSamples::start(1, || points.iter().map(|pt| pt.build(1)).collect::<Vec<_>>());
    let budget = if p.traced { p.seconds / 2.0 } else { p.seconds };
    let plain = repeat(budget, |rep| {
        let batch = step_batch(&points, 1, &mut Untraced, &mut checks, rep, false);
        setup.round();
        batch
    });
    let cps: Vec<f64> = plain.iter().map(StepBatch::cycles_per_s).collect();
    if !p.traced {
        let walls: Vec<f64> = plain.iter().map(|b| b.wall).collect();
        return Ok(Outcome {
            reps: plain.len() as u64,
            metrics: end_to_end(&walls, &cps, setup.summary())?,
            checks: checks.list,
            digests: checks.digests,
            tracer: None,
        });
    }

    let mut tracer = Tracer::default();
    let traced =
        repeat(budget, |rep| step_batch(&points, 1, &mut tracer, &mut checks, rep, rep == 0));
    let mut layers = Layers::default();
    profiled(|| step_batch(&points, 1, &mut Untraced, &mut checks, 0, false));
    phase_layers(&mut layers);
    if shard_probe {
        let two = step_batch(&points, 2, &mut Untraced, &mut checks, 0, false);
        let one = Summary::of(&plain.iter().map(|b| b.wall).collect::<Vec<_>>()).median;
        layers.set("network.shard2_speedup", one / two.wall);
    }

    let sum = |f: fn(&StepBatch) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let (cycles, router_cycles) = (sum(|b| b.cycles), sum(|b| b.router_cycles));
    let ns = |call: Call| tracer.total_ns(call) as f64;
    let steps = tracer.histogram(STEP);
    let calls = ns(GENERATE) + ns(ENQUEUE) + ns(STEP) + ns(DRAIN);
    layers.set("network.step_ns_per_router_cycle", ns(STEP) / router_cycles);
    layers.set("network.step_p50_us", steps.quantile(0.5) / 1e3);
    layers.set("network.step_p999_us", steps.quantile(0.999) / 1e3);
    layers.set("network.step_calls", steps.count() as f64);
    layers.set("network.enqueue_ns_per_flit", ns(ENQUEUE) / sum(|b| b.flits_enqueued));
    layers.set("network.enqueue_share", ns(ENQUEUE) / calls);
    layers.set("network.drain_ns_per_cycle", ns(DRAIN) / cycles);
    layers.set("traffic.generate_ns_per_cycle", ns(GENERATE) / cycles);
    let last = traced.last().expect("at least one traced repetition");
    layers.set("network.arena_live_peak", last.watermarks.arena_live_peak as f64);
    layers.set("network.router_buffer_peak", last.watermarks.router_buffer_peak as f64);
    layers.set("network.source_queue_flits_end", last.source_queue_end as f64);
    let traced_cps: Vec<f64> = traced.iter().map(StepBatch::cycles_per_s).collect();
    layers.set("trace_overhead", Summary::of(&cps).median / Summary::of(&traced_cps).median);
    Ok(Outcome {
        reps: (plain.len() + traced.len()) as u64,
        metrics: layers.into_metrics(),
        checks: checks.list,
        digests: checks.digests,
        tracer: Some(tracer),
    })
}

// ---------------------------------------------------------------------
// sim_observed: Simulator::run with every recorder on.
// ---------------------------------------------------------------------

const OBSERVED_LABEL: &str = "3DM @ 0.15 observed";

fn observed_config(p: &Params, recorders: bool) -> SimConfig {
    let (warmup, measure, drain) =
        if p.scale == Scale::Full { (2_000, 150_000, 30_000) } else { (200, 2_000, 3_000) };
    let base = SimConfig {
        warmup_cycles: warmup,
        measure_cycles: measure,
        drain_cycles: drain,
        shards: 1,
        ..SimConfig::default()
    };
    if !recorders {
        return base;
    }
    base.with_telemetry(TelemetryConfig {
        metrics_window: 1_000,
        trace_capacity: 1 << 16,
        journey_sample_ppm: 10_000,
        journey_seed: p.seed,
    })
    .with_anomaly(AnomalyConfig::detect())
}

fn new_simulator(cfg: SimConfig) -> Simulator {
    Simulator::new(Arch::ThreeDM.topology(), Arch::ThreeDM.network_config(true), cfg)
}

/// One `Simulator::run`, returning the simulator, its report and the
/// run's wall time in seconds.
fn observed_rep<P: Probe>(
    p: &Params,
    recorders: bool,
    probe: &mut P,
    checks: &mut Checks,
) -> (Simulator, SimReport, f64) {
    probe.span(POINT, OBSERVED_LABEL, |probe| {
        let cfg = observed_config(p, recorders);
        let mut sim = probe.time(SIM_NEW, || new_simulator(cfg));
        let workload = UniformRandom::new(0.15, 5, p.seed)
            .with_payload(PayloadProfile::with_short_fraction(4, 0.5));
        let t = Instant::now();
        let report = probe.time(SIM_RUN, || sim.run(Box::new(workload)));
        let wall = t.elapsed().as_secs_f64();

        let net = sim.network();
        let (injected, ejected) = (net.counters().flits_injected, net.counters().flits_ejected);
        let fabric = net.flits_in_fabric() as u64;
        checks.check(
            "flits injected = ejected + in fabric",
            injected == ejected + fabric,
            format!("{injected} vs {ejected} + {fabric}"),
        );
        if recorders {
            let fired = report.anomalies.total();
            checks.check("no anomaly detector fired", fired == 0, format!("{fired} firings"));
            let mut bytes = serde_json::to_string(&report).expect("reports serialise");
            bytes.push_str(&sim.trace_chrome_json().expect("trace sink installed"));
            checks.digest(OBSERVED_LABEL, fnv1a(bytes.as_bytes()));
        }
        (sim, report, wall)
    })
}

fn sim_observed(p: Params) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    warm_pass(Arch::ThreeDM, None, 0.15, p.seed);

    let mut setup = SetupSamples::start(1, || new_simulator(observed_config(&p, true)));
    let budget = if p.traced { p.seconds / 2.0 } else { p.seconds };
    let plain = repeat(budget, |_| {
        let (_, report, wall) = observed_rep(&p, true, &mut Untraced, &mut checks);
        setup.round();
        (wall, report.cycles_simulated as f64 / wall)
    });
    let walls: Vec<f64> = plain.iter().map(|r| r.0).collect();
    let cps: Vec<f64> = plain.iter().map(|r| r.1).collect();
    if !p.traced {
        return Ok(Outcome {
            reps: plain.len() as u64,
            metrics: end_to_end(&walls, &cps, setup.summary())?,
            checks: checks.list,
            digests: checks.digests,
            tracer: None,
        });
    }

    let mut tracer = Tracer::default();
    tracer.keep_calls(true);
    let traced = repeat(budget, |_| {
        let (_, report, wall) = observed_rep(&p, true, &mut tracer, &mut checks);
        report.cycles_simulated as f64 / wall
    });
    let mut layers = Layers::default();
    let (sim, report, wall) = profiled(|| observed_rep(&p, true, &mut Untraced, &mut checks));
    phase_layers(&mut layers);
    let step_ns = mira_obs::phase::snapshot()
        .iter()
        .find(|s| s.phase == "step_total")
        .map_or(0.0, |s| s.nanos as f64);
    layers.set("sim.driver_share", 1.0 - step_ns / (wall * 1e9));
    let (_, _, bare_wall) = observed_rep(&p, false, &mut Untraced, &mut checks);
    layers.set("telemetry.recorder_overhead", Summary::of(&walls).median / bare_wall);

    let net = sim.network();
    let sink = net.trace_sink().expect("trace sink installed");
    layers.set("telemetry.trace_events", (sink.len() as u64 + sink.dropped()) as f64);
    layers.set("telemetry.windows", report.windows.len() as f64);
    layers.set("journey.sampled", sim.journeys().len() as f64);
    layers.set("recorder.anomalies", report.anomalies.total() as f64);
    let wm = net.watermarks();
    layers.set("network.arena_live_peak", wm.arena_live_peak as f64);
    layers.set("network.router_buffer_peak", wm.router_buffer_peak as f64);
    layers.set("network.source_queue_flits_end", net.flits_in_source_queues() as f64);
    layers.set("trace_overhead", Summary::of(&cps).median / Summary::of(&traced).median);
    Ok(Outcome {
        reps: (plain.len() + traced.len()) as u64,
        metrics: layers.into_metrics(),
        checks: checks.list,
        digests: checks.digests,
        tracer: Some(tracer),
    })
}

// ---------------------------------------------------------------------
// repro_full: every exhibit of all_experiments, in order.
// ---------------------------------------------------------------------

const REPRO_LABEL: &str = "all_experiments";

/// The configuration of one reproduction pass.
#[derive(Debug, Clone)]
struct PassConfig {
    sim: SimConfig,
    pattern_cycles: u64,
    trace_cycles: u64,
    rates_ur: Vec<f64>,
    rates_nuca: Vec<f64>,
    thermal_rates: Vec<f64>,
    fault_ppm: Vec<u32>,
}

impl PassConfig {
    /// At full scale, the default (non-`--quick`) `all_experiments`
    /// configuration.
    fn new(scale: Scale) -> PassConfig {
        if scale == Scale::Tiny {
            return PassConfig::tiny();
        }
        let cli = Cli::default();
        PassConfig {
            sim: cli.sim_config(),
            pattern_cycles: 20_000,
            trace_cycles: cli.trace_cycles(),
            rates_ur: rates_ur(cli),
            rates_nuca: rates_nuca(cli),
            thermal_rates: vec![0.05, 0.15, 0.30],
            fault_ppm: faults::fault_rates_ppm(false),
        }
    }

    fn tiny() -> PassConfig {
        PassConfig {
            sim: SimConfig {
                warmup_cycles: 100,
                measure_cycles: 500,
                drain_cycles: 2_000,
                ..Cli::default().sim_config()
            },
            pattern_cycles: 1_000,
            trace_cycles: 1_500,
            rates_ur: vec![0.05],
            rates_nuca: vec![0.05],
            thermal_rates: vec![0.05],
            fault_ppm: vec![0, 20_000],
        }
    }
}

/// One reproduction pass.
#[derive(Debug)]
struct Pass {
    wall: f64,
    text: String,
    batches: Vec<RunSummary>,
    claims: Vec<Claim>,
}

impl Pass {
    /// Cycles simulated per second over the batches the benchmark's
    /// runner executed.
    fn cycles_per_s(&self) -> f64 {
        let cycles: u64 = self.batches.iter().map(|s| s.cycles_simulated).sum();
        let wall_ms: f64 = self.batches.iter().map(|s| s.wall_ms).sum();
        cycles as f64 / (wall_ms / 1e3)
    }
}

fn repro_pass<P: Probe>(runner: &Runner, cfg: &PassConfig, probe: &mut P) -> Pass {
    fn show(text: &mut String, exhibit: String) {
        text.push_str(&exhibit);
        text.push('\n');
    }
    let sim = cfg.sim;
    let mut text = String::new();
    let mut batches = Vec::new();
    let t = Instant::now();
    let claims = probe.span(BATCH, REPRO_LABEL, |probe| {
        let ex = |id: &'static str| Call { layer: "experiments", name: id };
        macro_rules! exhibit {
            ($id:literal, $body:expr) => {
                probe.span(ex($id), $id, |_| $body)
            };
        }
        show(&mut text, exhibit!("tab1", tables::table1().to_text()));
        show(&mut text, exhibit!("tab2", tables::table2().to_text()));
        show(&mut text, exhibit!("tab3", tables::table3().to_text()));
        show(&mut text, exhibit!("fig9", energy::fig9().to_text()));
        let apps = &Application::ALL;
        show(&mut text, exhibit!("fig1", patterns::fig1(apps, cfg.pattern_cycles).to_text()));
        show(&mut text, exhibit!("fig2", patterns::fig2(apps, cfg.pattern_cycles).to_text()));
        show(&mut text, exhibit!("fig13a", patterns::fig13a(apps, cfg.pattern_cycles).to_text()));

        let (sweep, s) = exhibit!("ur_sweep", sweep_ur_on(runner, &cfg.rates_ur, 0.0, sim));
        batches.push(s);
        show(&mut text, exhibit!("fig11a", latency::fig11a(&sweep).to_text()));
        show(&mut text, exhibit!("fig12a", power::fig12a(&sweep).to_text()));
        show(&mut text, exhibit!("fig12d", power::fig12d(&sweep).to_text()));

        let (fig, s) = exhibit!("fig11b", latency::fig11b_on(runner, &cfg.rates_nuca, sim));
        show(&mut text, fig.to_text());
        batches.push(s);
        let (fig, s) = exhibit!("fig12b", power::fig12b_on(runner, &cfg.rates_nuca, sim));
        show(&mut text, fig.to_text());
        batches.push(s);

        let presented = &Application::PRESENTED;
        let (fig, s) =
            exhibit!("fig11c", latency::fig11c_on(runner, presented, cfg.trace_cycles, sim));
        show(&mut text, fig.to_text());
        batches.push(s);
        let (fig, s) =
            exhibit!("fig12c", power::fig12c_on(runner, presented, cfg.trace_cycles, sim));
        show(&mut text, fig.to_text());
        batches.push(s);
        let (fig, s) = exhibit!(
            "fig11d",
            latency::fig11d_on(runner, &sweep, 0.05, Application::Apache, cfg.trace_cycles, sim)
        );
        show(&mut text, fig.to_text());
        batches.push(s);

        show(&mut text, exhibit!("fig13b", power::fig13b(0.10, sim).to_text()));
        show(&mut text, exhibit!("fig13c", thermal::fig13c(&cfg.thermal_rates, sim).to_text()));
        show(&mut text, exhibit!("abl_pipeline", ablations::ablate_pipeline(0.10, sim).to_text()));
        show(
            &mut text,
            exhibit!("abl_express_span", ablations::ablate_express_span(0.10, sim).to_text()),
        );
        show(&mut text, exhibit!("abl_buffers", ablations::ablate_buffers(0.15, sim).to_text()));
        show(&mut text, exhibit!("abl_routing", ablations::ablate_routing(0.15, sim).to_text()));
        show(&mut text, exhibit!("tail_latency", latency::tail_latency(0.15, sim).to_text()));
        let (fig, s) = exhibit!("fault_sweep", faults::fault_sweep_on(runner, &cfg.fault_ppm, sim));
        show(&mut text, fig.to_text());
        batches.push(s);

        let claims = exhibit!("scorecard", scorecard::run_scorecard(sim, cfg.trace_cycles));
        show(&mut text, scorecard::scorecard_table(&claims).to_text());
        let passed = claims.iter().filter(|c| c.passes()).count();
        show(&mut text, format!("{passed}/{} claims reproduced\n", claims.len()));
        claims
    });
    Pass { wall: t.elapsed().as_secs_f64(), text, batches, claims }
}

fn check_pass(pass: &Pass, checks: &mut Checks) {
    checks.digest(REPRO_LABEL, fnv1a(pass.text.as_bytes()));
    checks.check(
        format!("scorecard checks {CLAIMS} claims"),
        pass.claims.len() == CLAIMS,
        format!("{} claims", pass.claims.len()),
    );
    for c in &pass.claims {
        let detail = format!("measured {:.2}, band [{}, {}]", c.measured, c.band.0, c.band.1);
        checks.check(format!("claim reproduced: {}", c.what), c.passes(), detail);
    }
    let failed: usize = pass.batches.iter().map(|s| s.failed_points.len()).sum();
    checks.check("no runner point failed", failed == 0, format!("{failed} failed points"));
}

/// Runner metrics over the batches the benchmark's runner executed.
fn runner_layers(layers: &mut Layers, batches: &[RunSummary]) {
    let (mut busy, mut wall_jobs, mut busiest, mut mean) = (0.0, 0.0, 0.0, 0.0);
    for s in batches {
        busy += s.busy_ms;
        wall_jobs += s.wall_ms * s.jobs as f64;
        if !s.workers.is_empty() {
            busiest += s.workers.iter().map(|w| w.busy_ms).fold(0.0, f64::max);
            mean += s.workers.iter().map(|w| w.busy_ms).sum::<f64>() / s.workers.len() as f64;
        }
    }
    layers.set("runner.parallel_efficiency", busy / wall_jobs);
    layers.set("runner.imbalance", busiest / mean);
    let waits = batches.iter().map(|s| s.queue_wait_max_ms);
    layers.set("runner.queue_wait_max_ms", waits.fold(0.0, f64::max));
    let walls: Vec<f64> =
        batches.iter().flat_map(|s| s.point_details.iter().map(|d| d.wall_ms)).collect();
    let walls = Summary::of(&walls);
    layers.set("runner.point_wall_p50_ms", walls.median);
    layers.set("runner.point_wall_max_ms", walls.max);
    let failed: usize = batches.iter().map(|s| s.failed_points.len()).sum();
    layers.set("runner.failed_points", failed as f64);
    let retried: usize = batches.iter().map(|s| s.retried_points).sum();
    layers.set("runner.retried_points", retried as f64);
    let arena = batches.iter().map(|s| s.peak_arena_flits).max().unwrap_or(0);
    layers.set("network.arena_live_peak", arena as f64);
}

fn repro_full(p: Params) -> Result<Outcome, String> {
    let cfg = PassConfig::new(p.scale);
    let mut checks = Checks::default();
    warm_pass(Arch::TwoDB, None, 0.05, p.seed);

    let jobs = jobs();
    let mut setup =
        SetupSamples::start(1_000, || (PassConfig::new(p.scale), Runner::with_jobs(jobs)));
    let runner = Runner::with_jobs(jobs);
    let budget = if p.traced { p.seconds / 2.0 } else { p.seconds };
    let plain = repeat(budget, |_| {
        let pass = repro_pass(&runner, &cfg, &mut Untraced);
        setup.round();
        pass
    });
    for pass in &plain {
        check_pass(pass, &mut checks);
    }
    let cps: Vec<f64> = plain.iter().map(Pass::cycles_per_s).collect();
    if !p.traced {
        let walls: Vec<f64> = plain.iter().map(|s| s.wall).collect();
        return Ok(Outcome {
            reps: plain.len() as u64,
            metrics: end_to_end(&walls, &cps, setup.summary())?,
            checks: checks.list,
            digests: checks.digests,
            tracer: None,
        });
    }

    let mut tracer = Tracer::default();
    let traced = repeat(budget, |_| repro_pass(&runner, &cfg, &mut tracer));
    let mut layers = Layers::default();
    for pass in &traced {
        check_pass(pass, &mut checks);
    }
    let batches: Vec<RunSummary> = traced.iter().flat_map(|s| s.batches.clone()).collect();
    runner_layers(&mut layers, &batches);
    for (id, metric) in EXHIBITS {
        let h = tracer.histogram(Call { layer: "experiments", name: id });
        layers.set(metric, h.sum() as f64 / 1e9 / h.count().max(1) as f64);
    }
    let last = traced.last().expect("at least one traced pass");
    layers.set(
        "experiments.claims_reproduced",
        last.claims.iter().filter(|c| c.passes()).count() as f64,
    );
    let traced_cps: Vec<f64> = traced.iter().map(Pass::cycles_per_s).collect();
    layers.set("trace_overhead", Summary::of(&cps).median / Summary::of(&traced_cps).median);
    Ok(Outcome {
        reps: (plain.len() + traced.len()) as u64,
        metrics: layers.into_metrics(),
        checks: checks.list,
        digests: checks.digests,
        tracer: Some(tracer),
    })
}
