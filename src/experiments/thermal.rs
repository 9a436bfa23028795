//! Thermal experiment (paper Fig. 13(c)): temperature reduction from
//! layer shutdown.
//!
//! Methodology per paper §4.2.3: CPU cores burn 8 W (Sun Niagara at
//! 90 nm), 512 KB banks 0.1 W (CACTI); the NoC simulator supplies the
//! per-router network power; HotSpot computes the steady state. The
//! multi-layered configurations split the core/cache/router power evenly
//! over the four layers. We compare the chip with the network running
//! 50 % short flits + shutdown against 0 % short flits, at several
//! injection rates.

use mira_noc::sim::SimConfig;
use mira_thermal::{ChipModel, StackConfig};

use crate::arch::Arch;
use crate::experiments::common::{ur_point, RunResult};
use crate::experiments::runner::{Runner, SimPoint};
use crate::report::BarFigure;

/// CPU core power, W (Sun Niagara core at 90 nm, paper §4.2.3).
pub const CPU_POWER_W: f64 = 8.0;
/// 512 KB L2 bank power, W (CACTI, paper §4.2.3).
pub const BANK_POWER_W: f64 = 0.1;

/// Builds the thermal model of one architecture's chip with the network
/// dissipating `network_power_w` in total.
///
/// Cell grid = node grid; multi-layer designs divide node power evenly
/// across their four layers (paper: "the processor and memory powers are
/// divided equally among the four layers").
pub fn chip_model(arch: Arch, network_power_w: f64) -> ChipModel {
    let n = arch.topology().num_nodes();
    chip_model_weighted(arch, network_power_w, &vec![1.0 / n as f64; n])
}

/// Like [`chip_model`], but distributes the network power over the
/// routers according to `weights` (one per node, summing to 1) — the
/// spatial activity profile measured by the simulator, so congested
/// routers heat their own tile.
///
/// # Panics
///
/// Panics if `weights` does not have one entry per node.
fn chip_model_weighted(arch: Arch, network_power_w: f64, weights: &[f64]) -> ChipModel {
    let topo = arch.topology();
    assert_eq!(weights.len(), topo.num_nodes(), "one weight per node");

    let (layers, rows, cols, pitch_mm) = match arch.paper_arch() {
        mira_power::geometry::PaperArch::TwoDB => (1, 6, 6, 3.1),
        mira_power::geometry::PaperArch::ThreeDB => (4, 3, 3, 3.1),
        _ => (4, 6, 6, 1.58),
    };
    let cell_m = pitch_mm * 1e-3;
    let mut chip = ChipModel::new(StackConfig::stacked(layers, rows, cols, cell_m, cell_m));

    let cpus = arch.cpu_nodes();
    #[allow(clippy::needless_range_loop)] // node indexes coords, cpus, and weights
    for node in 0..topo.num_nodes() {
        let c = topo.coords(mira_noc::ids::NodeId(node));
        let node_power =
            if cpus.iter().any(|&p| p.index() == node) { CPU_POWER_W } else { BANK_POWER_W }
                + network_power_w * weights[node];
        match arch.paper_arch() {
            mira_power::geometry::PaperArch::ThreeDB => {
                // One node per cell per layer; z counts up from the
                // bottom, the thermal stack counts layer 0 as the top.
                let layer = layers - 1 - c.z;
                chip.add_cell_power(layer, c.y, c.x, node_power);
            }
            mira_power::geometry::PaperArch::TwoDB => {
                chip.add_cell_power(0, c.y, c.x, node_power);
            }
            _ => {
                // Multi-layered: split evenly across the stack.
                for layer in 0..layers {
                    chip.add_cell_power(layer, c.y, c.x, node_power / layers as f64);
                }
            }
        }
    }
    chip
}

/// Fig. 13(c)'s network runs as runner points: for each rate, 3DM with
/// 0 % short flits, then with 50 % short flits and shutdown on.
pub fn fig13c_points(rates: &[f64], sim_cfg: SimConfig) -> Vec<SimPoint> {
    rates
        .iter()
        .flat_map(|&rate| [0.0, 0.5].map(|frac| ur_point(Arch::ThreeDM, rate, frac, sim_cfg)))
        .collect()
}

/// Fig. 13(c): mean-temperature reduction of the 3DM chip when 50 % of
/// the flits are short (and shutdown is on) versus 0 %, at several
/// injection rates, over the results of [`fig13c_points`]: the thermal
/// solves run over the measured network runs.
pub fn fig13c_from(rates: &[f64], results: &[RunResult]) -> BarFigure {
    let arch = Arch::ThreeDM;
    let pricing = arch.network_power();
    let mean_max_k = |run: &RunResult| {
        let weights = pricing.router_power_weights(&run.report.per_router);
        let t = chip_model_weighted(arch, run.avg_power_w, &weights).solve();
        (t.mean_k(), t.max_k())
    };
    let groups = rates
        .iter()
        .zip(results.chunks(2))
        .map(|(rate, runs)| {
            let (base, shut) = (mean_max_k(&runs[0]), mean_max_k(&runs[1]));
            (format!("{:.0}%", rate * 100.0), vec![base.0 - shut.0, base.1 - shut.1])
        })
        .collect();
    BarFigure {
        id: "fig13c".into(),
        title: "Temperature reduction, 3DM with 50% short flits vs none".into(),
        group_label: "inj-rate".into(),
        bar_labels: vec!["mean dT (K)".into(), "max dT (K)".into()],
        groups,
        unit: "Kelvin".into(),
    }
}

/// [`fig13c_points`] run on the process runner as one batch, then
/// [`fig13c_from`].
pub fn fig13c(rates: &[f64], sim_cfg: SimConfig) -> BarFigure {
    fig13c_from(rates, &Runner::from_env().run(fig13c_points(rates, sim_cfg)).into_results())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::quick_sim_config;

    #[test]
    fn chip_power_accounts_cores_and_network() {
        let chip = chip_model(Arch::ThreeDM, 9.0);
        // 8 CPUs × 8 W + 28 banks × 0.1 W + 9 W network.
        let expected = 8.0 * 8.0 + 28.0 * 0.1 + 9.0;
        assert!((chip.total_power_w() - expected).abs() < 1e-9);
    }

    #[test]
    fn cpu_cells_are_hotter_than_cache_cells() {
        let chip = chip_model(Arch::TwoDB, 10.0);
        let t = chip.solve();
        // CPU at (1,2) vs corner cache at (0,0).
        assert!(t.cell_k(0, 2, 1) > t.cell_k(0, 0, 0) + 1.0);
    }

    #[test]
    fn threedb_cpu_columns_run_hotter() {
        let chip = chip_model(Arch::ThreeDB, 10.0);
        let t = chip.solve();
        // Node 35 = (2,2,z=3) is the lone cache on the CPU layer
        // (Fig. 10(c)); its column must run cooler than a CPU column.
        assert!(t.cell_k(0, 0, 0) > t.cell_k(0, 2, 2) + 0.5);
        // The layers below a CPU track it closely: the small cache +
        // router power they dissipate themselves conducts up through the
        // stack, leaving them marginally hotter, within a couple Kelvin.
        let delta = t.cell_k(3, 0, 0) - t.cell_k(0, 0, 0);
        assert!((0.0..3.0).contains(&delta), "column gradient {delta}");
    }

    /// The headline Fig. 13(c) shape: a sub-2 K but positive reduction
    /// that grows with injection rate.
    #[test]
    fn fig13c_reduction_positive_and_growing() {
        let fig = fig13c(&[0.05, 0.20], quick_sim_config());
        let low = fig.value("5%", "mean dT (K)").unwrap();
        let high = fig.value("20%", "mean dT (K)").unwrap();
        assert!(low > 0.0, "reduction at 5%: {low}");
        assert!(high > low, "reduction grows with rate: {low} vs {high}");
        assert!(high < 3.0, "reduction stays around a Kelvin: {high}");
    }
}

/// Result of a converged power–thermal co-simulation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CoSimResult {
    /// The simulated architecture.
    pub arch: Arch,
    /// Fixed-point iterations used.
    pub iterations: usize,
    /// Converged mean chip temperature, K.
    pub mean_k: f64,
    /// Converged hottest cell, K.
    pub max_k: f64,
    /// Dynamic network power, W (temperature-independent).
    pub dynamic_w: f64,
    /// Converged network leakage power, W.
    pub leakage_w: f64,
}

/// Iterates dynamic power → temperature → leakage → temperature … to a
/// fixed point (an extension beyond the paper, which evaluates dynamic
/// power only but names the leakage feedback as a 3D-stacking risk,
/// §2.2).
///
/// `run` is the measured network run (for instance a [`ur_point`]
/// result): its architecture and average power seed the loop.
///
/// Converges quickly because the loop gain (∂leakage/∂T × thermal
/// resistance) is far below 1 at these power levels.
pub fn co_simulate(run: &RunResult) -> CoSimResult {
    use mira_power::leakage::LeakageModel;

    let (arch, dynamic_w) = (run.arch, run.avg_power_w);
    let leak = LeakageModel::NM90;
    let routers = arch.topology().num_nodes();

    let mut temp_k = mira_thermal::AMBIENT_K + 20.0;
    let mut leakage_w = 0.0;
    let mut last = (0.0, 0.0);
    for iteration in 1..=50 {
        leakage_w = leak.network_power_w(arch.paper_arch(), temp_k, routers);
        let t = chip_model(arch, dynamic_w + leakage_w).solve();
        last = (t.mean_k(), t.max_k());
        if (last.0 - temp_k).abs() < 0.01 {
            return CoSimResult {
                arch,
                iterations: iteration,
                mean_k: last.0,
                max_k: last.1,
                dynamic_w,
                leakage_w,
            };
        }
        temp_k = last.0;
    }
    CoSimResult { arch, iterations: 50, mean_k: last.0, max_k: last.1, dynamic_w, leakage_w }
}

#[cfg(test)]
mod cosim_tests {
    use super::*;
    use crate::experiments::common::quick_sim_config;

    /// The measured UR runs of `(arch, rate, short fraction)`, as one
    /// batch.
    fn measured(runs: &[(Arch, f64, f64)]) -> Vec<RunResult> {
        let points = runs
            .iter()
            .map(|&(arch, rate, frac)| ur_point(arch, rate, frac, quick_sim_config()))
            .collect();
        Runner::from_env().run(points).into_results()
    }

    #[test]
    fn co_simulation_converges() {
        let r = co_simulate(&measured(&[(Arch::ThreeDM, 0.10, 0.0)])[0]);
        assert!(r.iterations < 20, "iterations {}", r.iterations);
        assert!(r.mean_k > mira_thermal::AMBIENT_K);
        assert!(r.max_k >= r.mean_k);
        // Network leakage for 36 routers lands in the hundreds of mW.
        assert!((0.1..3.0).contains(&r.leakage_w), "leakage {}", r.leakage_w);
        assert!(r.dynamic_w > r.leakage_w, "dynamic dominates at 90 nm activity");
    }

    #[test]
    fn leakage_feedback_raises_temperature() {
        let with = co_simulate(&measured(&[(Arch::ThreeDB, 0.10, 0.0)])[0]);
        // Without leakage: single thermal solve on dynamic power only.
        let without = chip_model(Arch::ThreeDB, with.dynamic_w).solve().mean_k();
        assert!(with.mean_k > without, "{} vs {}", with.mean_k, without);
        assert!(with.mean_k - without < 3.0, "feedback is a perturbation, not a runaway");
    }

    #[test]
    fn shutdown_also_cuts_leakage_via_temperature() {
        let runs = measured(&[(Arch::ThreeDM, 0.20, 0.0), (Arch::ThreeDM, 0.20, 0.5)]);
        let (dense, gated) = (co_simulate(&runs[0]), co_simulate(&runs[1]));
        assert!(gated.mean_k < dense.mean_k);
        assert!(gated.leakage_w <= dense.leakage_w);
    }
}
