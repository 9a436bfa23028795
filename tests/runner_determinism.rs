//! Serial-vs-parallel golden test for the experiment runner.
//!
//! The runner's contract is that a point's result depends only on its
//! `(closure, seed)` pair — never on the worker count or on how the OS
//! schedules the pool. These tests run the same batch with 1 worker and
//! with several, and demand bit-identical `SimReport` fields per point.

use mira::experiments::common::sweep_ur_points;
use mira::experiments::runner::{derive_seed, PointOutcome, Runner};
use mira::experiments::thermal::fig13c_points;
use mira::experiments::{quick_sim_config, EXPERIMENT_SEED};

fn run_with(jobs: usize) -> Vec<PointOutcome> {
    let points = sweep_ur_points(&[0.05, 0.20], 0.5, quick_sim_config());
    Runner::with_jobs(jobs).run(points).outcomes
}

/// Bitwise comparison of everything an experiment reads off a point.
fn assert_outcomes_identical(a: &[PointOutcome], b: &[PointOutcome]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.label, y.label, "order must match input order");
        assert_eq!(x.seed, y.seed);
        let (rx, ry) = (&x.result.report, &y.result.report);
        assert_eq!(
            rx.avg_latency.to_bits(),
            ry.avg_latency.to_bits(),
            "latency differs at {}",
            x.label
        );
        assert_eq!(rx.avg_hops.to_bits(), ry.avg_hops.to_bits(), "hops differ at {}", x.label);
        assert_eq!(
            rx.throughput.to_bits(),
            ry.throughput.to_bits(),
            "throughput differs at {}",
            x.label
        );
        assert_eq!(rx.packets_created, ry.packets_created, "created differ at {}", x.label);
        assert_eq!(rx.packets_ejected, ry.packets_ejected, "ejected differ at {}", x.label);
        assert_eq!(rx.saturated, ry.saturated, "saturation differs at {}", x.label);
        assert_eq!(rx.cycles_simulated, ry.cycles_simulated);
        assert_eq!(rx.counters, ry.counters, "event counters differ at {}", x.label);
        assert_eq!(
            x.result.avg_power_w.to_bits(),
            y.result.avg_power_w.to_bits(),
            "power differs at {}",
            x.label
        );
    }
}

#[test]
fn serial_and_parallel_runs_are_bit_identical() {
    let serial = run_with(1);
    let four = run_with(4);
    assert_outcomes_identical(&serial, &four);
}

#[test]
fn oversubscribed_pool_changes_nothing() {
    // More workers than points: some threads exit without ever
    // claiming work, which must not perturb the results either.
    let serial = run_with(1);
    let many = run_with(32);
    assert_outcomes_identical(&serial, &many);
}

#[test]
fn repeated_runs_with_same_experiment_seed_are_identical() {
    let first = run_with(3);
    let second = run_with(3);
    assert_outcomes_identical(&first, &second);
}

/// The journey sampler's packet set is a pure function of packet ids
/// and the sampling seed: the same sweep run on 1 worker and on 4
/// returns identical sampled sets (order-independent `packets_hash`)
/// and identical attribution reports, per point.
#[test]
fn sampled_journey_set_is_identical_across_worker_counts() {
    use mira_noc::telemetry::TelemetryConfig;
    let journey_cfg =
        quick_sim_config().with_telemetry(TelemetryConfig::disabled().with_journeys(250_000));
    let run = |jobs: usize| {
        let points = sweep_ur_points(&[0.05, 0.20], 0.0, journey_cfg);
        Runner::with_jobs(jobs).run(points).outcomes
    };
    let serial = run(1);
    let four = run(4);
    assert_eq!(serial.len(), four.len());
    for (x, y) in serial.iter().zip(&four) {
        let jx = x.result.report.journeys.as_ref().expect("journeys enabled");
        let jy = y.result.report.journeys.as_ref().expect("journeys enabled");
        assert!(jx.sampled > 0, "{}: partial sampling still catches packets", x.label);
        assert_eq!(jx.sampled, jy.sampled, "sampled count differs at {}", x.label);
        assert_eq!(jx.packets_hash, jy.packets_hash, "sampled packet set differs at {}", x.label);
        assert_eq!(jx, jy, "attribution report differs at {}", x.label);
    }
}

/// The batch `thermal::fig13c` submits: every value its thermal solves
/// read (power and the per-router activity that weights it) is
/// bit-identical on 1 worker and on 4, so the figure is too.
#[test]
fn thermal_batch_is_identical_across_worker_counts() {
    let run = |jobs: usize| {
        Runner::with_jobs(jobs).run(fig13c_points(&[0.05, 0.20], quick_sim_config())).outcomes
    };
    let (serial, four) = (run(1), run(4));
    assert_outcomes_identical(&serial, &four);
    for (x, y) in serial.iter().zip(&four) {
        assert_eq!(x.result.report.per_router, y.result.report.per_router, "at {}", x.label);
    }
}

#[test]
fn seed_derivation_is_a_pure_function() {
    // The per-point seeds come from (EXPERIMENT_SEED, rate index) and
    // are shared across the architectures at one rate, so paired
    // comparisons (e.g. 2DB vs 3DM-NC) see the same logical workload.
    let outcomes = run_with(2);
    let archs = mira::arch::Arch::ALL.len();
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.seed, derive_seed(EXPERIMENT_SEED, (i / archs) as u64));
    }
    let per_rate: Vec<u64> = outcomes.iter().step_by(archs).map(|o| o.seed).collect();
    assert!(per_rate.windows(2).all(|w| w[0] != w[1]), "distinct rates get distinct seeds");
}
