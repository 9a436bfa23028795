//! The exhibit list against the direct library calls (DESIGN.md §10):
//! a [`Pass`] over [`EXHIBITS`] prints what the direct calls of the full
//! pass print, in `all_experiments` order, and simulates each distinct
//! `(label, seed)` pair of those calls exactly once, every batch on the
//! pass's own runner.
//!
//! The scale is the benchmark's tiny pass: windows of 100/500/2,000
//! cycles, one rate per grid, 1,500 trace cycles and 1,000 pattern
//! cycles.

use std::collections::HashSet;

use mira::experiments::common::{default_sim_config, sweep_ur_on, sweep_ur_points};
use mira::experiments::exhibits::{Pass, PassConfig, EXHIBITS};
use mira::experiments::runner::{RunSummary, Runner, SimPoint};
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

/// The points of the direct calls, from the builders their wrappers
/// call: the shared UR sweep, then each runner-backed exhibit in
/// [`direct_text`] order.
fn direct_points(cfg: &PassConfig) -> Vec<SimPoint> {
    let (sim, traces) = (cfg.sim, cfg.trace_cycles);
    let presented = &Application::PRESENTED;
    let batches = [
        sweep_ur_points(&cfg.rates_ur, 0.0, sim),
        latency::nuca_sweep_points(&cfg.rates_nuca, sim),
        latency::nuca_sweep_points(&cfg.rates_nuca, sim),
        latency::trace_points(presented, false, traces, sim),
        latency::trace_points(presented, true, traces, sim),
        latency::fig11d_points(0.05, Application::Apache, traces, sim),
        power::fig13b_points(0.10, sim),
        thermal::fig13c_points(&cfg.thermal_rates, sim),
        ablations::ablate_pipeline_points(0.10, sim),
        ablations::ablate_express_span_points(0.10, sim),
        ablations::ablate_buffers_points(0.15, sim),
        ablations::ablate_routing_points(0.15, sim),
        latency::tail_points(0.15, sim),
        faults::fault_sweep_points(&cfg.fault_ppm, sim),
        scorecard::scorecard_points(sim, traces),
    ];
    batches.into_iter().flatten().collect()
}

/// Every `(label, seed)` pair the batches simulated, in batch order.
fn simulated(batches: &[RunSummary]) -> Vec<(String, u64)> {
    batches.iter().flat_map(|b| &b.point_details).map(|p| (p.label.clone(), p.seed)).collect()
}

/// The store lines of every file in `dir`, parsed.
fn store_lines(dir: &std::path::Path) -> Vec<Vec<serde::Value>> {
    let files = std::fs::read_dir(dir).expect("the store directory");
    let parse = |path: std::path::PathBuf| {
        let text = std::fs::read_to_string(path).expect("a store file");
        text.lines().map(|l| serde_json::from_str(l).expect("a store line")).collect()
    };
    files.map(|f| parse(f.expect("a directory entry").path())).collect()
}

#[test]
fn the_list_prints_the_direct_calls_and_simulates_each_point_once() {
    const OPTIONS: &str = "exhibits-test tiny pass";
    let cfg = tiny();
    let direct = direct_text(&cfg, &Runner::with_jobs(2));
    let direct_points: HashSet<(String, u64)> =
        direct_points(&cfg).iter().map(|p| (p.label().to_string(), p.seed())).collect();

    // A batch that ran anywhere but on the pass's runner would write no
    // store file here, or echo other options.
    let dir = std::env::temp_dir().join(format!("mira_exhibits_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = Runner::with_jobs(2).checkpoint_dir(&dir).options(OPTIONS);
    let mut pass = Pass::new(cfg, runner);
    let (mut listed, mut batches) = (String::new(), Vec::new());
    for exhibit in &EXHIBITS {
        let (out, ran) = pass.show(exhibit);
        listed.push_str(&format!("{}\n", out.text));
        batches.extend(ran);
    }
    let pass_points = simulated(&batches);

    let differ = listed.lines().zip(direct.lines()).find(|(l, d)| l != d);
    assert_eq!(differ, None, "first line where the list and the direct calls differ");
    assert_eq!(listed, direct, "the exhibit list prints the direct calls' text");
    let distinct: HashSet<(String, u64)> = pass_points.iter().cloned().collect();
    assert_eq!(distinct.len(), pass_points.len(), "no (label, seed) pair is simulated twice");
    assert_eq!(distinct, direct_points, "the pass simulates every distinct direct point");

    let files = store_lines(&dir);
    assert_eq!(files.len(), batches.len(), "one store file per batch the pass returned");
    let is_batch = |line: &serde::Value| !matches!(line.field("batch"), serde::Value::Null);
    for lines in &files {
        for batch in lines.iter().filter(|l| is_batch(l)) {
            assert_eq!(batch.field("options").as_str().expect("an echo"), OPTIONS);
        }
    }
    let stored_points = files.iter().flatten().filter(|l| !is_batch(l)).count();
    assert_eq!(stored_points, direct_points.len(), "point lines total the distinct pairs");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
