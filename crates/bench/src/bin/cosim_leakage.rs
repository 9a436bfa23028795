//! Extension: converged power–thermal co-simulation with
//! temperature-dependent leakage, for all four hardware architectures.
use std::time::Instant;

use mira::arch::Arch;
use mira::experiments::common::ur_point;
use mira::experiments::thermal::co_simulate;
use mira_bench::Cli;

fn main() {
    let cli = Cli::parse();
    let t0 = Instant::now();
    let points = Arch::HARDWARE.map(|arch| ur_point(arch, 0.10, 0.0, cli.sim_config()));
    let runs = cli.runner().run(points.into()).into_results();
    println!("power-thermal co-simulation, UR at 0.10 flits/node/cycle\n");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "arch", "dyn (W)", "leak (W)", "mean (K)", "max (K)", "iters"
    );
    for run in &runs {
        let r = co_simulate(run);
        println!(
            "{:>8} {:>10.2} {:>10.3} {:>10.2} {:>10.2} {:>6}",
            run.arch.name(),
            r.dynamic_w,
            r.leakage_w,
            r.mean_k,
            r.max_k,
            r.iterations
        );
    }
    eprintln!("[done in {:.1?}]", t0.elapsed());
}
