//! Thermal exploration: the 3DM stacked chip under load, with and
//! without short-flit layer shutdown, per-layer temperature profile.
//!
//! Run with: `cargo run --release --example thermal_stack`

use mira::arch::Arch;
use mira::experiments::common::ur_point;
use mira::experiments::thermal::chip_model;
use mira::experiments::{quick_sim_config, Runner};

fn main() {
    let arch = Arch::ThreeDM;
    let rate = 0.20;
    let points = [0.0, 0.5].map(|frac| ur_point(arch, rate, frac, quick_sim_config()));
    let runs = Runner::from_env().run(points.into()).into_results();
    let (p_dense, p_short) = (runs[0].avg_power_w, runs[1].avg_power_w);
    println!(
        "network power at {rate} flits/node/cycle: {:.2} W dense, {:.2} W with 50% short flits + shutdown",
        p_dense, p_short
    );

    let hot = chip_model(arch, p_dense).solve();
    let cool = chip_model(arch, p_short).solve();
    println!("\nlayer means (K), top (sink side) to bottom:");
    for layer in 0..4 {
        let mean = |t: &mira::thermal::Temperatures| {
            let mut sum = 0.0;
            for r in 0..6 {
                for c in 0..6 {
                    sum += t.cell_k(layer, r, c);
                }
            }
            sum / 36.0
        };
        println!("  layer {layer}: {:>7.2} dense | {:>7.2} shutdown", mean(&hot), mean(&cool));
    }
    println!(
        "\nmean reduction {:.2} K, hottest cell {:.2} K -> {:.2} K",
        hot.mean_k() - cool.mean_k(),
        hot.max_k(),
        cool.max_k()
    );
}
