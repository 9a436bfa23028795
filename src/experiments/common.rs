//! Shared experiment plumbing: running one architecture against one
//! workload and pricing the result.

use mira_noc::sim::{SimConfig, SimReport, Simulator};
use mira_noc::traffic::{PayloadProfile, UniformRandom, Workload};

use crate::arch::Arch;
use crate::experiments::runner::{derive_seed, RunSummary, Runner, SimPoint};
use crate::report::{CurvePoint, Series};

/// The seed used by every experiment (results are deterministic).
pub const EXPERIMENT_SEED: u64 = 20080621; // ISCA 2008 week

/// Result of one (architecture, workload) run.
///
/// `Serialize`/`Deserialize` exist so the runner can persist completed
/// points to sweep checkpoints and replay them bit-identically on
/// `--resume` (the vendored serde's float path round-trips every finite
/// `f64` exactly via shortest-display).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunResult {
    /// Which architecture ran.
    pub arch: Arch,
    /// The simulator's report.
    pub report: SimReport,
    /// Average network power over the measurement window, W.
    pub avg_power_w: f64,
    /// Power–delay product (power × mean latency).
    pub pdp: f64,
    /// Peak live flits in the run's arena (host-side watermark; not
    /// part of [`SimReport`], which is pinned bit-for-bit by the golden
    /// suites).
    pub arena_peak_flits: u64,
}

/// Runs one architecture against a workload.
pub fn run_arch(
    arch: Arch,
    layer_shutdown: bool,
    workload: Box<dyn Workload>,
    sim_cfg: SimConfig,
) -> RunResult {
    run_custom(arch, arch.topology(), arch.network_config(layer_shutdown), workload, sim_cfg)
}

/// Runs an arbitrary (topology, network-config) point, pricing it with
/// `arch`'s power model — the hook the ablations use to vary one design
/// parameter on an architecture's substrate.
pub fn run_custom(
    arch: Arch,
    topo: Box<dyn mira_noc::topology::Topology>,
    net_cfg: mira_noc::config::NetworkConfig,
    workload: Box<dyn Workload>,
    sim_cfg: SimConfig,
) -> RunResult {
    let mut sim = Simulator::new(topo, net_cfg, sim_cfg);
    let report = sim.run(workload);
    let pricing = arch.network_power();
    let avg_power_w = pricing.average_power_w(&report.counters);
    let pdp = pricing.power_delay_product(&report.counters, report.avg_latency);
    let wm = sim.network().watermarks();
    RunResult { arch, report, avg_power_w, pdp, arena_peak_flits: wm.arena_live_peak as u64 }
}

/// The default measurement windows for the full experiments.
pub fn default_sim_config() -> SimConfig {
    SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 10_000,
        drain_cycles: 30_000,
        ..SimConfig::default()
    }
}

/// A fast configuration for tests and micro-benches.
pub fn quick_sim_config() -> SimConfig {
    SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_500,
        drain_cycles: 6_000,
        ..SimConfig::default()
    }
}

/// One sample of a uniform-random sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Architecture.
    pub arch: Arch,
    /// Offered load, flits/node/cycle.
    pub rate: f64,
    /// The run.
    pub result: RunResult,
}

/// Builds the uniform-random sweep as runner points: one point per
/// `(rate, arch)` pair, in rate-major order.
///
/// Seeds are derived per *rate* (`derive_seed(EXPERIMENT_SEED, rate
/// index)`) and shared by all architectures at that rate, so
/// cross-architecture comparisons stay paired — 2DB and 3DM-NC see the
/// *same* packet stream, which `tests/paper_claims.rs` relies on.
pub fn sweep_ur_points(rates: &[f64], short_fraction: f64, sim_cfg: SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        let seed = derive_seed(EXPERIMENT_SEED, ri as u64);
        for arch in Arch::ALL {
            points.push(SimPoint::new(format!("ur {arch} @ {rate}"), seed, move |s| {
                let payload = PayloadProfile::with_short_fraction(4, short_fraction);
                let workload = UniformRandom::new(rate, 5, s).with_payload(payload);
                run_arch(arch, short_fraction > 0.0, Box::new(workload), sim_cfg)
            }));
        }
    }
    points
}

/// One uniform-random point: `arch` at `rate` flits/node/cycle with the
/// given short-flit fraction (layer shutdown on iff the fraction is
/// non-zero). The point pins [`EXPERIMENT_SEED`], so runs that differ
/// only in payload or shutdown see the same packet arrival stream.
pub fn ur_point(arch: Arch, rate: f64, short_fraction: f64, sim_cfg: SimConfig) -> SimPoint {
    let label = format!("{arch} @ {rate}, {:.0}% short", short_fraction * 100.0);
    SimPoint::new(label, EXPERIMENT_SEED, move |s| {
        let payload = PayloadProfile::with_short_fraction(4, short_fraction);
        let workload = UniformRandom::new(rate, 5, s).with_payload(payload);
        run_arch(arch, short_fraction > 0.0, Box::new(workload), sim_cfg)
    })
}

/// Sweeps uniform-random traffic over `rates` for every architecture on
/// an explicit runner (the shared substrate of Figs. 11(a), 12(a) and
/// 12(d)); returns the points plus the batch summary for `--json`.
///
/// `short_fraction` sets the short-flit share of the payloads (0.0 for
/// the paper's baseline figures); shutdown is enabled iff it is
/// non-zero.
pub fn sweep_ur_on(
    runner: &Runner,
    rates: &[f64],
    short_fraction: f64,
    sim_cfg: SimConfig,
) -> (Vec<SweepPoint>, RunSummary) {
    run_sweep(runner, rates, sweep_ur_points(rates, short_fraction, sim_cfg))
}

/// Runs a rate-major sweep batch (one point per `(rate, arch)` pair
/// over [`Arch::ALL`]) and pairs each result with its rate.
pub(crate) fn run_sweep(
    runner: &Runner,
    rates: &[f64],
    points: Vec<SimPoint>,
) -> (Vec<SweepPoint>, RunSummary) {
    let batch = runner.run(points);
    (sweep_of(rates, batch.outcomes.into_iter().map(|o| o.result)), batch.summary)
}

/// Pairs the results of a rate-major sweep batch (one per `(rate,
/// arch)` pair over [`Arch::ALL`]) with their rates.
pub fn sweep_of(rates: &[f64], results: impl IntoIterator<Item = RunResult>) -> Vec<SweepPoint> {
    let rate_arch = rates.iter().flat_map(|&rate| Arch::ALL.map(|arch| (rate, arch)));
    rate_arch.zip(results).map(|((rate, arch), result)| SweepPoint { arch, rate, result }).collect()
}

/// One curve per architecture over a sweep, in [`Arch::ALL`] order:
/// the series every rate-swept figure (latency, power, PDP) plots.
pub(crate) fn arch_series(sweep: &[SweepPoint], y: impl Fn(&SweepPoint) -> f64) -> Vec<Series> {
    Arch::ALL
        .iter()
        .map(|&arch| {
            Series::new(
                arch.name(),
                sweep
                    .iter()
                    .filter(|p| p.arch == arch)
                    .map(|p| CurvePoint { x: p.rate, y: y(p) })
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_arch_produces_power() {
        let w = UniformRandom::new(0.05, 5, EXPERIMENT_SEED);
        let r = run_arch(Arch::TwoDB, false, Box::new(w), quick_sim_config());
        assert!(!r.report.saturated);
        assert!(r.avg_power_w > 0.0);
        assert!(r.pdp > 0.0);
        assert!((r.pdp - r.avg_power_w * r.report.avg_latency).abs() < 1e-9);
    }

    #[test]
    fn sweep_covers_all_archs_and_rates() {
        let pts = sweep_ur_on(&Runner::from_env(), &[0.02, 0.05], 0.0, quick_sim_config()).0;
        assert_eq!(pts.len(), 2 * Arch::ALL.len());
        for p in &pts {
            assert!(p.result.report.packets_ejected > 0, "{} @ {}", p.arch, p.rate);
        }
    }

    /// The headline zero-load ordering: 3DM-E < 3DM < 2DB in latency;
    /// 3DB sits between 3DM-E and 2DB for UR (fewer hops than 2DB).
    #[test]
    fn low_load_latency_ordering() {
        let pts = sweep_ur_on(&Runner::from_env(), &[0.05], 0.0, quick_sim_config()).0;
        let lat = |a: Arch| {
            pts.iter().find(|p| p.arch == a).expect("arch present").result.report.avg_latency
        };
        assert!(lat(Arch::ThreeDME) < lat(Arch::ThreeDM));
        assert!(lat(Arch::ThreeDM) < lat(Arch::TwoDB));
        assert!(lat(Arch::ThreeDB) < lat(Arch::TwoDB));
        // NC ablations are slower than their parents.
        assert!(lat(Arch::ThreeDM) < lat(Arch::ThreeDMNc));
        assert!(lat(Arch::ThreeDME) < lat(Arch::ThreeDMENc));
    }
}
