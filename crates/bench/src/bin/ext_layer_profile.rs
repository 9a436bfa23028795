//! Extension: vertical temperature profile of the stacked designs —
//! the power-density story of §1 made visible: the same cores produce
//! a hotter chip when stacked into a quarter of the footprint.
use std::time::Instant;

use mira::arch::Arch;
use mira::experiments::common::ur_point;
use mira::experiments::thermal::chip_model;
use mira_bench::Cli;

fn main() {
    let cli = Cli::parse();
    let t0 = Instant::now();
    let rate = 0.10;
    let points = [Arch::TwoDB, Arch::ThreeDB, Arch::ThreeDM]
        .map(|a| ur_point(a, rate, 0.0, cli.sim_config()));
    let runs = cli.runner().run(points.into()).into_results();
    println!("vertical temperature profile at {rate} flits/node/cycle (UR)\n");
    for run in &runs {
        let (arch, p) = (run.arch, run.avg_power_w);
        let t = chip_model(arch, p).solve();
        let layers = match arch {
            Arch::TwoDB => 1,
            _ => 4,
        };
        print!("{:>6} ({:4.1} W net):", arch.name(), p);
        for layer in 0..layers {
            // Mean over the layer's cells.
            let (rows, cols) = if arch == Arch::ThreeDB { (3, 3) } else { (6, 6) };
            let mut sum = 0.0;
            for r in 0..rows {
                for c in 0..cols {
                    sum += t.cell_k(layer, r, c);
                }
            }
            print!("  L{layer}={:6.2}K", sum / (rows * cols) as f64);
        }
        println!("  (max {:6.2}K)", t.max_k());
    }
    println!("\n(L0 is the sink side; stacking raises both mean and peak — paper §1's");
    println!(" thermal challenge, which the CPU-on-top placement and shutdown mitigate)");
    eprintln!("[done in {:.1?}]", t0.elapsed());
}
