//! End-to-end checks of the paper's headline claims at a reduced scale.
//!
//! These are the "shape" assertions of DESIGN.md §5: who wins, in which
//! direction, by roughly what factor. Absolute cycle counts differ from
//! the paper (different testbed), but every ordering it reports must
//! hold here.
//!
//! Multi-point tests fan their simulations out on the experiment runner
//! (worker count from `MIRA_JOBS` / the machine); each point still runs
//! the identical `EXPERIMENT_SEED` workload, so the asserted values are
//! bit-identical to the old serial loops.

use mira::arch::Arch;
use mira::experiments::common::{
    quick_sim_config, run_arch, sweep_ur_on, RunResult, SweepPoint, EXPERIMENT_SEED,
};
use mira::experiments::latency::{run_nuca_ur, run_trace};
use mira::experiments::runner::{Runner, SimPoint};
use mira::noc::traffic::UniformRandom;
use mira::traffic::workloads::Application;

/// One batch of UR points at `EXPERIMENT_SEED`; results in input order.
fn latencies_of(points: &[(Arch, f64)]) -> Vec<f64> {
    let sim_points = points
        .iter()
        .map(|&(arch, rate)| {
            SimPoint::new(format!("{} @ {rate}", arch.name()), EXPERIMENT_SEED, move |seed| {
                run_arch(
                    arch,
                    false,
                    Box::new(UniformRandom::new(rate, 5, seed)),
                    quick_sim_config(),
                )
            })
        })
        .collect();
    Runner::from_env().run(sim_points).into_results().iter().map(|r| r.report.avg_latency).collect()
}

/// The shared UR sweep at one rate (seed index 0).
fn ur_sweep_at(rate: f64) -> Vec<SweepPoint> {
    sweep_ur_on(&Runner::from_env(), &[rate], 0.0, quick_sim_config()).0
}

/// One batch of trace replays; results in input order.
fn traces_of(app: Application, runs: &[(Arch, bool)], cycles: u64) -> Vec<RunResult> {
    let cfg = quick_sim_config();
    let sim_points = runs
        .iter()
        .map(|&(arch, shutdown)| {
            SimPoint::new(format!("{} {}", app.name(), arch.name()), EXPERIMENT_SEED, move |_| {
                run_trace(app, arch, shutdown, cycles, cfg)
            })
        })
        .collect();
    Runner::from_env().run(sim_points).into_results()
}

/// §4.2.1 / Fig. 11(a): 3DM-E has the lowest UR latency at every load;
/// at a pre-saturation load its saving over 2DB is large (paper: up to
/// 51 % at 30 % injection) and over 3DB substantial (paper: ~26 %).
#[test]
fn ur_latency_orderings() {
    let archs = [Arch::TwoDB, Arch::ThreeDB, Arch::ThreeDM, Arch::ThreeDME];
    let points: Vec<(Arch, f64)> =
        [0.05, 0.15].iter().flat_map(|&rate| archs.iter().map(move |&a| (a, rate))).collect();
    let lat = latencies_of(&points);
    for (ri, rate) in [0.05, 0.15].iter().enumerate() {
        let [l2, l3b, l3m, l3me] = [lat[ri * 4], lat[ri * 4 + 1], lat[ri * 4 + 2], lat[ri * 4 + 3]];
        assert!(l3me < l3m && l3me < l3b && l3me < l2, "rate {rate}");
        assert!(l3m < l2, "rate {rate}");
    }
    // Saving factors at the moderate load (second rate block).
    let saving_2db = 1.0 - lat[7] / lat[4];
    assert!(saving_2db > 0.35, "3DM-E saves {:.0}% over 2DB", saving_2db * 100.0);
    let saving_3db = 1.0 - lat[7] / lat[5];
    assert!(saving_3db > 0.15, "3DM-E saves {:.0}% over 3DB", saving_3db * 100.0);
}

/// §4.2.1: pipeline combining buys 3DM up to ~14 % and 3DM-E ~23 % —
/// here: the (NC) ablations must be measurably slower.
#[test]
fn pipeline_combining_gains() {
    let lat = latencies_of(&[
        (Arch::ThreeDM, 0.05),
        (Arch::ThreeDMNc, 0.05),
        (Arch::ThreeDME, 0.05),
        (Arch::ThreeDMENc, 0.05),
    ]);
    let gain_m = 1.0 - lat[0] / lat[1];
    let gain_e = 1.0 - lat[2] / lat[3];
    assert!((0.05..0.35).contains(&gain_m), "3DM gain {gain_m:.3}");
    assert!((0.05..0.35).contains(&gain_e), "3DM-E gain {gain_e:.3}");
}

/// §4.2.1: 2DB and 3DM(NC) have the same logical network — identical
/// latency under the identical seeded workload.
#[test]
fn threedm_nc_equals_2db_logically() {
    let lat = latencies_of(&[(Arch::TwoDB, 0.10), (Arch::ThreeDMNc, 0.10)]);
    assert!((lat[0] - lat[1]).abs() < 1e-9, "{} vs {}", lat[0], lat[1]);
}

/// Fig. 11(d): hop counts — 3DM-E minimal, 2DB = 3DM, 3DB in between
/// for UR; 3DB degrades under NUCA-constrained traffic.
#[test]
fn hop_count_shapes() {
    let sweep = ur_sweep_at(0.05);
    let hops = |arch: Arch| sweep.iter().find(|p| p.arch == arch).unwrap().result.report.avg_hops;
    assert!((hops(Arch::TwoDB) - 4.0).abs() < 0.25, "2DB UR ≈ 4 hops, got {}", hops(Arch::TwoDB));
    assert!((hops(Arch::ThreeDM) - hops(Arch::TwoDB)).abs() < 0.1, "2DB and 3DM share the layout");
    assert!(
        (hops(Arch::ThreeDME) - 2.51).abs() < 0.25,
        "express ≈ 2.5 hops, got {}",
        hops(Arch::ThreeDME)
    );
    assert!(hops(Arch::ThreeDB) < hops(Arch::TwoDB));

    // NUCA-UR penalises the 3DB layout.
    let n3db =
        run_nuca_ur(Arch::ThreeDB, 0.05, EXPERIMENT_SEED, quick_sim_config()).report.avg_hops;
    assert!(n3db > hops(Arch::ThreeDB), "NUCA raises 3DB hops: {n3db}");
}

/// §4.2.2 / Fig. 12(a): power ordering at UR — the multi-layered designs
/// beat both baselines; 2DB is the hungriest.
#[test]
fn ur_power_orderings() {
    let sweep = ur_sweep_at(0.10);
    let p = |arch: Arch| sweep.iter().find(|x| x.arch == arch).unwrap().result.avg_power_w;
    assert!(p(Arch::ThreeDME) < p(Arch::TwoDB));
    assert!(p(Arch::ThreeDM) < p(Arch::ThreeDB));
    assert!(p(Arch::ThreeDB) < p(Arch::TwoDB));
    // 3DM-E saves on the order of the paper's 42 % over 2DB.
    let saving = 1.0 - p(Arch::ThreeDME) / p(Arch::TwoDB);
    assert!((0.30..0.55).contains(&saving), "3DM-E power saving {saving:.3}");
}

/// §4.2.2 / Fig. 12(c): on the traces with shutdown, 3DM-E lands far
/// below 2DB (paper: ~67 % less power), and 3DB is the worst performer.
#[test]
fn trace_power_shapes() {
    let runs = traces_of(
        Application::Tpcw,
        &[
            (Arch::TwoDB, false),
            (Arch::ThreeDB, false),
            (Arch::ThreeDM, true),
            (Arch::ThreeDME, true),
        ],
        4_000,
    );
    let [base, p3db, p3m, p3me] =
        [runs[0].avg_power_w, runs[1].avg_power_w, runs[2].avg_power_w, runs[3].avg_power_w];
    assert!(p3me < 0.55 * base, "3DM-E with shutdown: {:.2} vs 2DB {:.2}", p3me, base);
    assert!(p3m < 0.75 * base, "3DM with shutdown: {:.2} vs 2DB {:.2}", p3m, base);
    assert!(p3db > p3m && p3db > p3me, "3DB is the worst of the 3D designs");
}

/// §4.2.1 / Fig. 11(c): trace latency normalised to 2DB — 3DM-E ≈ 0.6,
/// 3DM ≈ 0.8, 3DB ≈ 1.0.
#[test]
fn trace_latency_bands() {
    let runs = traces_of(
        Application::Apache,
        &[
            (Arch::TwoDB, false),
            (Arch::ThreeDME, false),
            (Arch::ThreeDM, false),
            (Arch::ThreeDB, false),
        ],
        4_000,
    );
    let base = runs[0].report.avg_latency;
    let r = |i: usize| runs[i].report.avg_latency / base;
    assert!((0.5..0.75).contains(&r(1)), "3DM-E {:.3}", r(1));
    assert!((0.7..0.95).contains(&r(2)), "3DM {:.3}", r(2));
    assert!((0.85..1.25).contains(&r(3)), "3DB {:.3}", r(3));
}
