//! Design-space ablation beyond the paper: how buffer depth and VC count
//! move the latency/power point of the 3DM router.
//!
//! The 3×3 grid fans out on the parallel experiment runner (worker
//! count from `MIRA_JOBS` or the machine's parallelism); every point
//! replays the identical seeded workload, so the comparison isolates
//! the router parameters.
//!
//! Run with: `cargo run --release --example design_space`

use mira::arch::Arch;
use mira::experiments::common::run_custom;
use mira::experiments::runner::{Runner, SimPoint};
use mira::experiments::{quick_sim_config, EXPERIMENT_SEED};
use mira::noc::config::{NetworkConfig, PipelineConfig, RouterConfig};
use mira::noc::traffic::UniformRandom;

fn main() {
    let rate = 0.15;
    let grid: Vec<(usize, usize)> = [1usize, 2, 4]
        .iter()
        .flat_map(|&vcs| [2usize, 4, 8].iter().map(move |&depth| (vcs, depth)))
        .collect();

    let points = grid
        .iter()
        .map(|&(vcs, depth)| {
            SimPoint::new(format!("V={vcs} k={depth}"), EXPERIMENT_SEED, move |seed| {
                let cfg = NetworkConfig {
                    router: RouterConfig {
                        vcs_per_port: vcs,
                        buffer_depth: depth,
                        pipeline: PipelineConfig::combined_st_lt(),
                    },
                    ..NetworkConfig::default()
                };
                let w = UniformRandom::new(rate, 5, seed);
                run_custom(
                    Arch::ThreeDM,
                    Arch::ThreeDM.topology(),
                    cfg,
                    Box::new(w),
                    quick_sim_config(),
                )
            })
        })
        .collect();

    let batch = Runner::from_env().run(points);

    println!("3DM router at {rate} flits/node/cycle, varying (VCs, buffer depth)\n");
    println!(
        "{:>6} {:>7} {:>12} {:>12} {:>10}",
        "VCs", "depth", "latency(cy)", "saturated", "wall(ms)"
    );
    for (&(vcs, depth), outcome) in grid.iter().zip(&batch.outcomes) {
        let report = &outcome.result.report;
        println!(
            "{vcs:>6} {depth:>7} {:>12.1} {:>12} {:>10.0}",
            report.avg_latency,
            if report.saturated { "yes" } else { "no" },
            outcome.wall.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\n[{} points in {:.2} s wall on {} workers — {:.2} s of simulation]",
        batch.summary.points,
        batch.summary.wall_ms / 1e3,
        batch.summary.jobs,
        batch.summary.busy_ms / 1e3,
    );
    println!("(the paper fixes V=2, k=4 — §3.2.4's design decisions)");
}
