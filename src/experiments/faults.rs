//! Fault-degradation exhibit: how gracefully each architecture sheds
//! service as the transient link-fault rate rises.
//!
//! The sweep runs 2DB, 3DM and 3DM-E under the same sub-saturation
//! uniform-random workload while ramping the per-flit transient
//! corruption rate (parts-per-million of flit deliveries). With the
//! paper's short-flit payload mix and layer shutdown enabled, upper-word
//! faults on gated layers are *masked* — one of the quiet robustness
//! wins of the multi-layer design. A deliberately tight retry budget
//! (two retries per link before the head packet is dropped) turns
//! escalating fault rates into visible degradation instead of unbounded
//! retransmission latency.
//!
//! Two curves per architecture: delivered fraction (packets ejected over
//! packets created in the measurement window) and average latency of the
//! packets that did arrive. Seeds derive per fault rate and are shared
//! across architectures, so comparisons stay paired exactly like the
//! injection-rate sweeps in [`common`](crate::experiments::common).

use serde::Serialize;

use mira_noc::fault::FaultConfig;
use mira_noc::sim::SimConfig;
use mira_noc::traffic::{PayloadProfile, UniformRandom};

use crate::arch::Arch;
use crate::experiments::common::{run_arch, RunResult, EXPERIMENT_SEED};
use crate::experiments::runner::{derive_seed, RunSummary, Runner, SimPoint};
use crate::report::{CurvePoint, Figure, Series};

/// The architectures the degradation sweep compares.
pub const FAULT_ARCHS: [Arch; 3] = [Arch::TwoDB, Arch::ThreeDM, Arch::ThreeDME];

/// Offered load for the sweep, flits/node/cycle — comfortably below
/// saturation for every compared architecture so degradation comes from
/// faults, not congestion.
pub const FAULT_SWEEP_RATE: f64 = 0.10;

/// Retry budget for the sweep: small enough that high fault rates
/// produce measurable drops rather than unbounded retransmission.
pub const FAULT_SWEEP_RETRIES: u32 = 2;

/// Transient-fault-rate grid in parts per million of flit deliveries.
pub fn fault_rates_ppm(quick: bool) -> Vec<u32> {
    if quick {
        vec![0, 20_000, 150_000]
    } else {
        vec![0, 2_000, 10_000, 50_000, 150_000, 300_000]
    }
}

/// One sample of the fault sweep.
#[derive(Debug, Clone)]
struct FaultPoint {
    /// Architecture.
    pub arch: Arch,
    /// Transient fault rate, ppm of flit deliveries.
    pub ppm: u32,
    /// The run.
    pub result: RunResult,
}

impl FaultPoint {
    /// Fraction of measured packets that made it out of the network.
    fn delivered_fraction(&self) -> f64 {
        let r = &self.result.report;
        if r.packets_created == 0 {
            return 1.0;
        }
        r.packets_ejected as f64 / r.packets_created as f64
    }
}

/// Runs one (architecture, fault-rate) point. The fault config starts
/// from `base_faults` so callers can compose the sweep with, say, a
/// `--kill-link` from the CLI; the transient rate, retry budget, and
/// seed are overridden per point.
fn run_fault_point(
    arch: Arch,
    ppm: u32,
    seed: u64,
    base_faults: FaultConfig,
    sim_cfg: SimConfig,
) -> RunResult {
    let faults =
        base_faults.with_transient(ppm).with_max_retries(FAULT_SWEEP_RETRIES).with_seed(seed);
    let payload = PayloadProfile::with_short_fraction(4, 0.5);
    let workload = UniformRandom::new(FAULT_SWEEP_RATE, 5, seed).with_payload(payload);
    run_arch(arch, true, Box::new(workload), sim_cfg.with_faults(faults))
}

/// The sweep as runner points, rate-major over [`FAULT_ARCHS`]. Seeds
/// derive per fault rate (`derive_seed(EXPERIMENT_SEED, rate index)`)
/// and are shared by all architectures at that rate.
pub fn fault_sweep_points(rates_ppm: &[u32], sim_cfg: SimConfig) -> Vec<SimPoint> {
    let base_faults = sim_cfg.faults;
    let mut points = Vec::new();
    for (ri, &ppm) in rates_ppm.iter().enumerate() {
        let seed = derive_seed(EXPERIMENT_SEED, ri as u64);
        for arch in FAULT_ARCHS {
            points.push(SimPoint::new(format!("fault {arch} @ {ppm}ppm"), seed, move |s| {
                run_fault_point(arch, ppm, s, base_faults, sim_cfg)
            }));
        }
    }
    points
}

/// The fault-degradation exhibit: paired delivered-fraction and latency
/// curves over the fault-rate grid.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweep {
    /// Delivered fraction vs fault rate, one series per architecture.
    pub delivered: Figure,
    /// Average latency of delivered packets vs fault rate.
    pub latency: Figure,
}

impl FaultSweep {
    /// Renders both figures as aligned text.
    pub fn to_text(&self) -> String {
        format!("{}\n{}", self.delivered.to_text(), self.latency.to_text())
    }
}

/// Runs the fault sweep on an explicit runner; returns the exhibit plus
/// the batch summary for `--json`.
pub fn fault_sweep_on(
    runner: &Runner,
    rates_ppm: &[u32],
    sim_cfg: SimConfig,
) -> (FaultSweep, RunSummary) {
    let (results, summary) = runner.run(fault_sweep_points(rates_ppm, sim_cfg)).into_parts();
    (fault_sweep_from(rates_ppm, results), summary)
}

/// Builds the two figures from the results of [`fault_sweep_points`].
pub fn fault_sweep_from(rates_ppm: &[u32], results: Vec<RunResult>) -> FaultSweep {
    let rate_arch = rates_ppm.iter().flat_map(|&ppm| FAULT_ARCHS.map(|arch| (ppm, arch)));
    let points: Vec<FaultPoint> = rate_arch
        .zip(results)
        .map(|((ppm, arch), result)| FaultPoint { arch, ppm, result })
        .collect();
    let series_for = |y: &dyn Fn(&FaultPoint) -> f64| -> Vec<Series> {
        FAULT_ARCHS
            .iter()
            .map(|&arch| {
                Series::new(
                    arch.name(),
                    points
                        .iter()
                        .filter(|p| p.arch == arch)
                        .map(|p| CurvePoint { x: p.ppm as f64, y: y(p) })
                        .collect(),
                )
            })
            .collect()
    };
    FaultSweep {
        delivered: Figure {
            id: "fault-delivered".into(),
            title: "Delivered fraction vs transient fault rate".into(),
            x_label: "fault-ppm".into(),
            y_label: "delivered".into(),
            series: series_for(&|p| p.delivered_fraction()),
        },
        latency: Figure {
            id: "fault-latency".into(),
            title: "Average latency vs transient fault rate".into(),
            x_label: "fault-ppm".into(),
            y_label: "cycles".into(),
            series: series_for(&|p| p.result.report.avg_latency),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::quick_sim_config;

    #[test]
    fn sweep_degrades_monotonically() {
        let rates = [0u32, 150_000];
        let sweep = fault_sweep_on(&Runner::from_env(), &rates, quick_sim_config()).0;
        for arch in FAULT_ARCHS {
            let name = arch.name();
            let d = sweep.delivered.series.iter().find(|s| s.label == name).expect("series");
            let l = sweep.latency.series.iter().find(|s| s.label == name).expect("series");
            assert_eq!(d.points.len(), rates.len());
            // Fault-free baseline delivers everything.
            assert!((d.points[0].y - 1.0).abs() < 1e-12, "{name}: {}", d.points[0].y);
            // Faults never *improve* delivery, and retransmission
            // backoff shows up as extra latency.
            assert!(d.points[1].y <= d.points[0].y + 1e-12, "{name}");
            assert!(
                l.points[1].y > l.points[0].y,
                "{name}: latency {} !> {}",
                l.points[1].y,
                l.points[0].y
            );
        }
    }
}
