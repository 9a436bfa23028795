//! The exhibit list against the direct library calls (DESIGN.md §10):
//! a [`Pass`] over [`EXHIBITS`] prints what the direct calls of the full
//! pass print, in `all_experiments` order, and simulates each distinct
//! `(label, seed)` pair of those calls exactly once.
//!
//! The scale is the benchmark's tiny pass: windows of 100/500/2,000
//! cycles, one rate per grid, 1,500 trace cycles and 1,000 pattern
//! cycles.

use std::collections::HashSet;

use mira::experiments::common::{default_sim_config, sweep_ur_on};
use mira::experiments::exhibits::{Pass, PassConfig, EXHIBITS};
use mira::experiments::runner::{take_session, RunSummary, Runner};
use mira::experiments::{ablations, energy, faults, latency, patterns, power, scorecard};
use mira::experiments::{tables, thermal};
use mira::noc::sim::SimConfig;
use mira::traffic::workloads::Application;

fn tiny() -> PassConfig {
    PassConfig {
        sim: SimConfig {
            warmup_cycles: 100,
            measure_cycles: 500,
            drain_cycles: 2_000,
            ..default_sim_config()
        },
        rates_ur: vec![0.05],
        rates_nuca: vec![0.05],
        pattern_cycles: 1_000,
        trace_cycles: 1_500,
        thermal_rates: vec![0.05],
        fault_ppm: vec![0, 20_000],
    }
}

/// The full pass as direct library calls, each exhibit printed as the
/// driver prints it: the sequence the benchmark's `repro_full` makes.
fn direct_text(cfg: &PassConfig, runner: &Runner) -> String {
    let (sim, apps, traces) = (cfg.sim, &Application::ALL, cfg.trace_cycles);
    let presented = &Application::PRESENTED;
    let (sweep, _) = sweep_ur_on(runner, &cfg.rates_ur, 0.0, sim);
    let claims = scorecard::run_scorecard(sim, traces);
    let passed = claims.iter().filter(|c| c.passes()).count();
    let fig11d = latency::fig11d_on(runner, &sweep, 0.05, Application::Apache, traces, sim).0;
    let exhibits = [
        tables::table1().to_text(),
        tables::table2().to_text(),
        tables::table3().to_text(),
        energy::fig9().to_text(),
        patterns::fig1(apps, cfg.pattern_cycles).to_text(),
        patterns::fig2(apps, cfg.pattern_cycles).to_text(),
        patterns::fig13a(apps, cfg.pattern_cycles).to_text(),
        latency::fig11a(&sweep).to_text(),
        power::fig12a(&sweep).to_text(),
        power::fig12d(&sweep).to_text(),
        latency::fig11b_on(runner, &cfg.rates_nuca, sim).0.to_text(),
        power::fig12b_on(runner, &cfg.rates_nuca, sim).0.to_text(),
        latency::fig11c_on(runner, presented, traces, sim).0.to_text(),
        power::fig12c_on(runner, presented, traces, sim).0.to_text(),
        fig11d.to_text(),
        power::fig13b(0.10, sim).to_text(),
        thermal::fig13c(&cfg.thermal_rates, sim).to_text(),
        ablations::ablate_pipeline(0.10, sim).to_text(),
        ablations::ablate_express_span(0.10, sim).to_text(),
        ablations::ablate_buffers(0.15, sim).to_text(),
        ablations::ablate_routing(0.15, sim).to_text(),
        latency::tail_latency(0.15, sim).to_text(),
        faults::fault_sweep_on(runner, &cfg.fault_ppm, sim).0.to_text(),
        format!(
            "{}\n{passed}/{} claims reproduced\n",
            scorecard::scorecard_table(&claims).to_text(),
            claims.len()
        ),
    ];
    exhibits.iter().map(|text| format!("{text}\n")).collect()
}

/// Every `(label, seed)` pair the batches simulated, in batch order.
fn simulated(batches: &[RunSummary]) -> Vec<(String, u64)> {
    batches.iter().flat_map(|b| &b.point_details).map(|p| (p.label.clone(), p.seed)).collect()
}

#[test]
fn the_list_prints_the_direct_calls_and_simulates_each_point_once() {
    // Installed, the runner records every batch for `take_session`,
    // including those of library calls that run on the process runner.
    Runner::with_jobs(2).install();
    let runner = Runner::from_env();
    let cfg = tiny();

    let direct = direct_text(&cfg, &runner);
    let direct_points: HashSet<(String, u64)> = simulated(&take_session()).into_iter().collect();

    let mut pass = Pass::new(cfg, runner);
    let listed: String = EXHIBITS.iter().map(|e| format!("{}\n", pass.show(e).text)).collect();
    let pass_points = simulated(&take_session());

    let differ = listed.lines().zip(direct.lines()).find(|(l, d)| l != d);
    assert_eq!(differ, None, "first line where the list and the direct calls differ");
    assert_eq!(listed, direct, "the exhibit list prints the direct calls' text");
    let distinct: HashSet<(String, u64)> = pass_points.iter().cloned().collect();
    assert_eq!(distinct.len(), pass_points.len(), "no (label, seed) pair is simulated twice");
    assert_eq!(distinct, direct_points, "the pass simulates every distinct direct point");
}
