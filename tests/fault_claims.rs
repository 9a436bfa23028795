//! End-to-end acceptance checks for the fault-injection subsystem
//! (DESIGN.md §12): graceful degradation at the architecture level.
//!
//! The headline claim: a permanent single-link failure costs the
//! network a few packets in flight at the moment of death, not its
//! function — ≥ 99% of packets are still delivered under sub-saturation
//! uniform-random traffic, on the planar multi-layer mesh, on the
//! stacked 3D mesh (a severed inter-layer via), and on the express mesh
//! (a dead express channel degrades to baseline-mesh routing).

use mira::arch::Arch;
use mira::experiments::common::{quick_sim_config, run_arch, RunResult, EXPERIMENT_SEED};
use mira::experiments::faults::{fault_rates_ppm, fault_sweep_on, FAULT_ARCHS};
use mira::experiments::runner::Runner;
use mira::noc::fault::FaultConfig;
use mira::noc::ids::NodeId;
use mira::noc::topology::port;
use mira::noc::traffic::UniformRandom;

/// Runs `arch` at UR 0.10 with one permanent link kill at cycle 0.
fn run_with_kill(arch: Arch, node: usize, port: usize) -> RunResult {
    let faults = FaultConfig::disabled().with_kill(node, port, 0).with_seed(EXPERIMENT_SEED);
    let workload = UniformRandom::new(0.10, 5, EXPERIMENT_SEED);
    run_arch(arch, false, Box::new(workload), quick_sim_config().with_faults(faults))
}

fn delivered_fraction(r: &RunResult) -> f64 {
    r.report.packets_ejected as f64 / r.report.packets_created.max(1) as f64
}

#[test]
fn single_link_kill_on_3dm_delivers_99_percent() {
    let r = run_with_kill(Arch::ThreeDM, 14, port::EAST.index());
    let f = delivered_fraction(&r);
    assert!(f >= 0.99, "3DM delivered only {:.4} with one dead link", f);
    assert_eq!(r.report.faults.links_killed, 1);
    assert!(r.report.faults.reroutes > 0, "traffic must be steered around the dead link");
    assert!(!r.report.saturated, "one dead link must not saturate a 0.10 load");
}

#[test]
fn severed_via_on_stacked_mesh_delivers_99_percent() {
    // Arch::ThreeDB is the 3×3×4 stacked mesh; port UP is an
    // inter-layer via. Killing it models a TSV failure.
    let r = run_with_kill(Arch::ThreeDB, 4, port::UP.index());
    let f = delivered_fraction(&r);
    assert!(f >= 0.99, "3DB delivered only {:.4} with a severed via", f);
    assert_eq!(r.report.faults.links_killed, 1);
}

#[test]
fn dead_express_link_degrades_to_mesh_routing() {
    // Find a node with an east express channel and kill it: the
    // express mesh must fall back to its embedded baseline mesh.
    let topo = Arch::ThreeDME.topology();
    let node = (0..topo.num_nodes())
        .find(|&n| topo.neighbor(NodeId(n), port::EAST_EXPRESS).is_some())
        .expect("express mesh has express links");
    let r = run_with_kill(Arch::ThreeDME, node, port::EAST_EXPRESS.index());
    let f = delivered_fraction(&r);
    assert!(f >= 0.99, "3DM-E delivered only {:.4} with a dead express link", f);
    assert_eq!(r.report.faults.links_killed, 1);
    assert!(!r.report.saturated);
}

#[test]
fn fault_sweep_degrades_monotonically_without_wedging() {
    let rates = fault_rates_ppm(true);
    let sweep = fault_sweep_on(&Runner::from_env(), &rates, quick_sim_config()).0;
    for arch in FAULT_ARCHS {
        let name = arch.name();
        let d = sweep.delivered.series.iter().find(|s| s.label == name).expect("series");
        let l = sweep.latency.series.iter().find(|s| s.label == name).expect("series");
        assert_eq!(d.points.len(), rates.len(), "{name}: every point completed");
        assert!((d.points[0].y - 1.0).abs() < 1e-12, "{name}: fault-free baseline is lossless");
        for w in d.points.windows(2) {
            assert!(
                w[1].y <= w[0].y + 1e-12,
                "{name}: delivery must not improve with more faults ({} -> {})",
                w[0].y,
                w[1].y
            );
        }
        for p in &l.points {
            assert!(p.y.is_finite() && p.y > 0.0, "{name}: latency finite at {} ppm", p.x);
        }
        let last = l.points.last().expect("points");
        assert!(
            last.y > l.points[0].y,
            "{name}: retransmission pressure must show up as latency ({} !> {})",
            last.y,
            l.points[0].y
        );
    }
}
