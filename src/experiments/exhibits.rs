//! The exhibit list: every table and figure of the reproduction as one
//! [`Exhibit`] entry, and the [`Pass`] that runs a selection of them.
//!
//! An entry is named after the `mira-bench` binary that prints it
//! alone; [`EXHIBITS`] is the full pass in `all_experiments` order.
//! Each entry builds the simulation points it needs from the pass's
//! settings, hands them to [`Pass::run`] and renders the results. The
//! pass simulates each `(label, seed)` pair once: an entry that asks
//! for points an earlier entry already ran gets the stored results
//! (DESIGN.md §10).

use std::collections::{HashMap, HashSet};

use mira_noc::sim::SimConfig;
use mira_traffic::workloads::Application;
use serde::{Serialize, Value};

use crate::arch::Arch;
use crate::experiments::ablations::{
    ablate_buffers_from, ablate_buffers_points, ablate_express_span_from,
    ablate_express_span_points, ablate_pipeline_from, ablate_pipeline_points, ablate_routing_from,
    ablate_routing_points,
};
use crate::experiments::common::{sweep_of, sweep_ur_points, ur_point, RunResult, SweepPoint};
use crate::experiments::latency::{self, trace_points};
use crate::experiments::runner::{RunSummary, Runner, SimPoint};
use crate::experiments::thermal::{chip_model, co_simulate};
use crate::experiments::{energy, faults, patterns, power, scorecard, tables, thermal};
use crate::report::{BarFigure, Figure, TextTable};

/// The settings every entry of a pass reads.
#[derive(Debug, Clone)]
pub struct PassConfig {
    /// Simulation windows, telemetry, faults and recorder settings.
    pub sim: SimConfig,
    /// Injection-rate grid of the uniform-random sweep.
    pub rates_ur: Vec<f64>,
    /// Request-rate grid of the NUCA-UR sweep.
    pub rates_nuca: Vec<f64>,
    /// Trace length (cycles) of the workload-characterisation exhibits.
    pub pattern_cycles: u64,
    /// Trace length (cycles) of the trace-driven simulations.
    pub trace_cycles: u64,
    /// Injection rates of Fig. 13(c).
    pub thermal_rates: Vec<f64>,
    /// Transient-fault-rate grid of the fault sweep, ppm.
    pub fault_ppm: Vec<u32>,
}

/// One rendered exhibit.
#[derive(Debug)]
pub struct Output {
    /// Aligned text, as printed.
    pub text: String,
    /// The machine-readable exhibit.
    pub value: Value,
    /// Whether every paper claim the exhibit checks holds.
    pub passes: bool,
}

/// An exhibit's text rendering and value.
fn out<T: Serialize>(exhibit: T, text: fn(&T) -> String) -> Output {
    Output { text: text(&exhibit), value: exhibit.to_value(), passes: true }
}

/// One entry of the exhibit list.
#[derive(Debug, Clone, Copy)]
pub struct Exhibit {
    /// The entry's name: the binary that prints it alone, and the
    /// runner's exhibit name (store files, black-box dumps).
    pub name: &'static str,
    /// Builds the entry's points, runs them through the pass and
    /// renders the results.
    pub run: fn(&mut Pass) -> Output,
}

/// A pass over exhibits: the settings, the runner, every point result
/// so far, keyed by `(label, seed)`, and the summaries of the batches
/// the current entry ran.
///
/// Inside one pass that key names one simulation: every point is built
/// from the one [`PassConfig`], and each label names what varies
/// between points. The memo lives here, never in [`Runner`], so a
/// caller that repeats a pass on one runner still simulates every
/// point.
#[derive(Debug)]
pub struct Pass {
    /// The settings every entry reads.
    pub config: PassConfig,
    runner: Runner,
    memo: HashMap<(String, u64), RunResult>,
    batches: Vec<RunSummary>,
}

impl Pass {
    /// A fresh pass running its points on `runner`.
    pub fn new(config: PassConfig, runner: Runner) -> Pass {
        Pass { config, runner, memo: HashMap::new(), batches: Vec::new() }
    }

    /// Runs one entry, naming the runner's batches after it. Returns
    /// the entry's output and the summaries of the batches it ran, in
    /// run order (none when every point it asked for ran earlier in
    /// the pass).
    pub fn show(&mut self, exhibit: &Exhibit) -> (Output, Vec<RunSummary>) {
        self.runner = self.runner.clone().exhibit(exhibit.name);
        let output = (exhibit.run)(self);
        (output, std::mem::take(&mut self.batches))
    }

    /// The results of `points` in input order. Only the `(label, seed)`
    /// pairs this pass has not simulated yet run, as one runner batch;
    /// the rest come from earlier batches.
    pub fn run(&mut self, points: Vec<SimPoint>) -> Vec<RunResult> {
        let keys: Vec<(String, u64)> =
            points.iter().map(|p| (p.label().to_string(), p.seed())).collect();
        let mut queued = HashSet::new();
        let fresh: Vec<SimPoint> = keys
            .iter()
            .zip(points)
            .filter(|(key, _)| !self.memo.contains_key(*key) && queued.insert(*key))
            .map(|(_, point)| point)
            .collect();
        if !fresh.is_empty() {
            let batch = self.runner.run(fresh);
            self.memo.extend(batch.outcomes.into_iter().map(|o| ((o.label, o.seed), o.result)));
            self.batches.push(batch.summary);
        }
        keys.iter().map(|k| self.memo[k].clone()).collect()
    }

    /// The uniform-random sweep over `rates` (0 % short flits).
    fn ur_sweep(&mut self, rates: Vec<f64>) -> Vec<SweepPoint> {
        sweep_of(&rates, self.run(sweep_ur_points(&rates, 0.0, self.config.sim)))
    }

    /// The uniform-random sweep over the pass's grid.
    fn ur(&mut self) -> Vec<SweepPoint> {
        self.ur_sweep(self.config.rates_ur.clone())
    }

    /// The NUCA-UR sweep over the pass's grid.
    fn nuca(&mut self) -> Vec<SweepPoint> {
        let rates = self.config.rates_nuca.clone();
        sweep_of(&rates, self.run(latency::nuca_sweep_points(&rates, self.config.sim)))
    }

    /// A workload-characterisation figure over every application.
    fn apps(&self, fig: fn(&[Application], u64) -> BarFigure) -> Output {
        bars(fig(&Application::ALL, self.config.pattern_cycles))
    }

    /// A bar figure `from` the results of the points `points` builds at
    /// `rate`.
    fn at_rate(
        &mut self,
        rate: f64,
        points: fn(f64, SimConfig) -> Vec<SimPoint>,
        from: fn(&[RunResult]) -> BarFigure,
    ) -> Output {
        let results = self.run(points(rate, self.config.sim));
        bars(from(&results))
    }
}

fn curves(fig: Figure) -> Output {
    out(fig, Figure::to_text)
}

fn bars(fig: BarFigure) -> Output {
    out(fig, BarFigure::to_text)
}

fn table(table: TextTable) -> Output {
    out(table, TextTable::to_text)
}

/// The full reproduction pass, in print order.
pub static EXHIBITS: [Exhibit; 24] = [
    Exhibit { name: "tab1_area", run: |_| table(tables::table1()) },
    Exhibit { name: "tab2_params", run: |_| table(tables::table2()) },
    Exhibit { name: "tab3_delay", run: |_| table(tables::table3()) },
    Exhibit { name: "fig09_energy_breakdown", run: |_| bars(energy::fig9()) },
    Exhibit { name: "fig01_data_patterns", run: |p| p.apps(patterns::fig1) },
    Exhibit { name: "fig02_packet_types", run: |p| p.apps(patterns::fig2) },
    Exhibit { name: "fig13a_short_flits", run: |p| p.apps(patterns::fig13a) },
    Exhibit { name: "fig11a_latency_ur", run: |p| curves(latency::fig11a(&p.ur())) },
    Exhibit { name: "fig12a_power_ur", run: |p| curves(power::fig12a(&p.ur())) },
    Exhibit { name: "fig12d_pdp", run: |p| curves(power::fig12d(&p.ur())) },
    Exhibit { name: "fig11b_latency_nucaur", run: |p| curves(latency::fig11b(&p.nuca())) },
    Exhibit { name: "fig12b_power_nucaur", run: |p| curves(power::fig12b(&p.nuca())) },
    Exhibit { name: "fig11c_latency_traces", run: fig11c },
    Exhibit { name: "fig12c_power_traces", run: fig12c },
    Exhibit { name: "fig11d_hops", run: fig11d },
    Exhibit {
        name: "fig13b_shutdown_savings",
        run: |p| p.at_rate(0.10, power::fig13b_points, power::fig13b_from),
    },
    Exhibit { name: "fig13c_thermal", run: fig13c },
    Exhibit {
        name: "abl_pipeline",
        run: |p| p.at_rate(0.10, ablate_pipeline_points, ablate_pipeline_from),
    },
    Exhibit {
        name: "abl_express_span",
        run: |p| p.at_rate(0.10, ablate_express_span_points, ablate_express_span_from),
    },
    Exhibit {
        name: "abl_buffers",
        run: |p| p.at_rate(0.15, ablate_buffers_points, ablate_buffers_from),
    },
    Exhibit {
        name: "abl_routing",
        run: |p| p.at_rate(0.15, ablate_routing_points, ablate_routing_from),
    },
    Exhibit {
        name: "ext_tail_latency",
        run: |p| p.at_rate(0.15, latency::tail_points, |r| latency::tail_latency_from(0.15, r)),
    },
    Exhibit { name: "fault_sweep", run: fault_sweep },
    Exhibit { name: "scorecard", run: scorecard },
];

/// Entries outside the full pass: extensions printed only by their own
/// binaries.
static EXTRAS: [Exhibit; 3] = [
    Exhibit { name: "cosim_leakage", run: cosim_leakage },
    Exhibit { name: "ext_layer_profile", run: layer_profile },
    Exhibit { name: "ext_tail_attribution", run: tail_attribution },
];

/// The entry called `name`, in [`EXHIBITS`] or among the extensions
/// outside the full pass (`cosim_leakage`, `ext_layer_profile`,
/// `ext_tail_attribution`).
///
/// # Panics
///
/// Panics if no entry has that name.
pub fn named(name: &str) -> &'static Exhibit {
    let all = EXHIBITS.iter().chain(&EXTRAS);
    all.into_iter().find(|e| e.name == name).unwrap_or_else(|| panic!("no exhibit {name:?}"))
}

fn fig11c(p: &mut Pass) -> Output {
    let apps = &Application::PRESENTED;
    let results = p.run(trace_points(apps, false, p.config.trace_cycles, p.config.sim));
    bars(latency::fig11c_from(apps, &results))
}

fn fig12c(p: &mut Pass) -> Output {
    let apps = &Application::PRESENTED;
    let results = p.run(trace_points(apps, true, p.config.trace_cycles, p.config.sim));
    bars(power::fig12c_from(apps, &results))
}

fn fig13c(p: &mut Pass) -> Output {
    let rates = p.config.thermal_rates.clone();
    let results = p.run(thermal::fig13c_points(&rates, p.config.sim));
    bars(thermal::fig13c_from(&rates, &results))
}

fn fault_sweep(p: &mut Pass) -> Output {
    let rates = p.config.fault_ppm.clone();
    let results = p.run(faults::fault_sweep_points(&rates, p.config.sim));
    out(faults::fault_sweep_from(&rates, results), faults::FaultSweep::to_text)
}

/// Fig. 11(d) with its UR column from the lowest-rate block of the
/// pass's UR grid.
fn fig11d(p: &mut Pass) -> Output {
    let sweep = p.ur_sweep(p.config.rates_ur[..1].to_vec());
    let (cycles, sim) = (p.config.trace_cycles, p.config.sim);
    let results = p.run(latency::fig11d_points(0.05, Application::Apache, cycles, sim));
    bars(latency::fig11d_from(&sweep, &results))
}

/// The claims table and the reproduced count; fails when a claim does.
fn scorecard(p: &mut Pass) -> Output {
    let results = p.run(scorecard::scorecard_points(p.config.sim, p.config.trace_cycles));
    let claims = scorecard::scorecard_from(&results);
    let passed = claims.iter().filter(|c| c.passes()).count();
    let table = scorecard::scorecard_table(&claims).to_text();
    Output {
        text: format!("{table}\n{passed}/{} claims reproduced\n", claims.len()),
        value: claims.to_value(),
        passes: passed == claims.len(),
    }
}

/// Extension: converged power–thermal co-simulation with
/// temperature-dependent leakage, for all four hardware architectures.
fn cosim_leakage(p: &mut Pass) -> Output {
    let runs = p.run(Arch::HARDWARE.map(|a| ur_point(a, 0.10, 0.0, p.config.sim)).into());
    let cosims: Vec<_> = runs.iter().map(co_simulate).collect();
    let mut lines = vec![
        "power-thermal co-simulation, UR at 0.10 flits/node/cycle\n".to_string(),
        format!(
            "{:>8} {:>10} {:>10} {:>10} {:>10} {:>6}",
            "arch", "dyn (W)", "leak (W)", "mean (K)", "max (K)", "iters"
        ),
    ];
    lines.extend(cosims.iter().map(|r| {
        format!(
            "{:>8} {:>10.2} {:>10.3} {:>10.2} {:>10.2} {:>6}",
            r.arch.name(),
            r.dynamic_w,
            r.leakage_w,
            r.mean_k,
            r.max_k,
            r.iterations
        )
    }));
    Output { text: lines.join("\n"), value: cosims.to_value(), passes: true }
}

/// One row of the vertical temperature profile.
#[derive(serde::Serialize)]
struct LayerTemps {
    arch: Arch,
    network_w: f64,
    layers_k: Vec<f64>,
    max_k: f64,
}

/// Extension: vertical temperature profile of the stacked designs —
/// the power-density story of §1 made visible: the same cores produce
/// a hotter chip when stacked into a quarter of the footprint.
fn layer_profile(p: &mut Pass) -> Output {
    let rate = 0.10;
    let archs = [Arch::TwoDB, Arch::ThreeDB, Arch::ThreeDM];
    let runs = p.run(archs.map(|a| ur_point(a, rate, 0.0, p.config.sim)).into());
    let rows: Vec<LayerTemps> = runs
        .iter()
        .map(|run| {
            let t = chip_model(run.arch, run.avg_power_w).solve();
            let layers = if run.arch == Arch::TwoDB { 1 } else { 4 };
            let (rows, cols) = if run.arch == Arch::ThreeDB { (3, 3) } else { (6, 6) };
            // Mean over each layer's cells.
            let mean = |layer| {
                let cells = (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c)));
                cells.map(|(r, c)| t.cell_k(layer, r, c)).sum::<f64>() / (rows * cols) as f64
            };
            let layers_k = (0..layers).map(mean).collect();
            LayerTemps { arch: run.arch, network_w: run.avg_power_w, layers_k, max_k: t.max_k() }
        })
        .collect();
    let mut lines = vec![format!("vertical temperature profile at {rate} flits/node/cycle (UR)\n")];
    lines.extend(rows.iter().map(|row| {
        let layers = row.layers_k.iter().enumerate().map(|(l, k)| format!("  L{l}={k:6.2}K"));
        let head = format!("{:>6} ({:4.1} W net):", row.arch.name(), row.network_w);
        format!("{head}{}  (max {:6.2}K)", layers.collect::<String>(), row.max_k)
    }));
    lines.push("\n(L0 is the sink side; stacking raises both mean and peak — paper §1's".into());
    lines.push(" thermal challenge, which the CPU-on-top placement and shutdown mitigate)".into());
    Output { text: lines.join("\n"), value: rows.to_value(), passes: true }
}

/// Extension: where UR packets in each tail bucket spend their cycles,
/// from journeys sampled at the pass's span-sample rate.
fn tail_attribution(p: &mut Pass) -> Output {
    let ppm = p.config.sim.telemetry.journey_sample_ppm;
    let results = p.run(latency::attribution_points(0.15, ppm, p.config.sim));
    out(latency::tail_attribution_from(0.15, results), latency::TailAttribution::to_text)
}
