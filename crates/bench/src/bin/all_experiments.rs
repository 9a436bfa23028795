//! Runs every table and figure in sequence (the full reproduction pass).
//!
//! `--quick` keeps the total under a couple of minutes; the default
//! configuration is what EXPERIMENTS.md records.
use std::time::Instant;

use mira::experiments::common::sweep_ur_on;
use mira::experiments::{
    ablations, energy, faults, latency, patterns, power, scorecard, tables, thermal,
};
use mira::traffic::workloads::Application;
use mira_bench::{rates_nuca, rates_ur, Cli};

fn main() {
    let cli = Cli::parse();
    let t0 = Instant::now();
    let sim = cli.sim_config();
    let cycles = if cli.quick { 4_000 } else { 20_000 };
    let trace_cycles = cli.trace_cycles();
    let runner = cli.runner();

    println!("{}", tables::table1().to_text());
    println!("{}", tables::table2().to_text());
    println!("{}", tables::table3().to_text());
    println!("{}", energy::fig9().to_text());
    println!("{}", patterns::fig1(&Application::ALL, cycles).to_text());
    println!("{}", patterns::fig2(&Application::ALL, cycles).to_text());
    println!("{}", patterns::fig13a(&Application::ALL, cycles).to_text());

    eprintln!("[static exhibits done at {:.1?}; starting UR sweep]", t0.elapsed());
    let (sweep, _) = sweep_ur_on(&runner, &rates_ur(cli), 0.0, sim);
    println!("{}", latency::fig11a(&sweep).to_text());
    println!("{}", power::fig12a(&sweep).to_text());
    println!("{}", power::fig12d(&sweep).to_text());

    eprintln!("[UR done at {:.1?}; starting NUCA-UR]", t0.elapsed());
    let (nuca, _) = latency::nuca_sweep_on(&runner, &rates_nuca(cli), sim);
    println!("{}", latency::fig11b(&nuca).to_text());
    println!("{}", power::fig12b(&nuca).to_text());

    eprintln!("[NUCA-UR done at {:.1?}; starting traces]", t0.elapsed());
    let apps = &Application::PRESENTED;
    println!("{}", latency::fig11c_on(&runner, apps, trace_cycles, sim).0.to_text());
    println!("{}", power::fig12c_on(&runner, apps, trace_cycles, sim).0.to_text());
    let (fig11d, _) =
        latency::fig11d_on(&runner, &sweep, 0.05, Application::Apache, trace_cycles, sim);
    println!("{}", fig11d.to_text());

    eprintln!("[traces done at {:.1?}; starting shutdown/thermal]", t0.elapsed());
    println!("{}", power::fig13b(0.10, sim).to_text());
    let rates: &[f64] = if cli.quick { &[0.05, 0.20] } else { &[0.05, 0.15, 0.30] };
    println!("{}", thermal::fig13c(rates, sim).to_text());

    eprintln!("[paper exhibits done at {:.1?}; starting extensions]", t0.elapsed());
    println!("{}", ablations::ablate_pipeline(0.10, sim).to_text());
    println!("{}", ablations::ablate_express_span(0.10, sim).to_text());
    println!("{}", ablations::ablate_buffers(0.15, sim).to_text());
    println!("{}", ablations::ablate_routing(0.15, sim).to_text());
    println!("{}", latency::tail_latency(0.15, sim).to_text());
    let (fault_sweep, _) =
        faults::fault_sweep_on(&runner, &faults::fault_rates_ppm(cli.quick), sim);
    println!("{}", fault_sweep.to_text());

    let claims = scorecard::run_scorecard(sim, trace_cycles);
    println!("{}", scorecard::scorecard_table(&claims).to_text());
    println!(
        "{}/{} claims reproduced\n",
        claims.iter().filter(|c| c.passes()).count(),
        claims.len()
    );

    eprintln!("[all experiments done in {:.1?}]", t0.elapsed());
}
