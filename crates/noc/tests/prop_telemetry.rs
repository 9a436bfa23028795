//! Property tests for the telemetry invariants (DESIGN.md §11):
//!
//! * stall-cause counters sum to the total stall cycles, for every load,
//!   pipeline depth, and phase split — per router, per window, and in
//!   the report;
//! * the trace ring buffer never exceeds its capacity and drops the
//!   oldest events first;
//! * per-layer duty cycles separate short-flit layer shutdown (3DM)
//!   from an ungated baseline (2DB).

use proptest::prelude::*;

use mira_noc::config::{NetworkConfig, PipelineConfig, PipelineDepth, RouterConfig};
use mira_noc::sim::{SimConfig, SimReport, Simulator};
use mira_noc::telemetry::{StallCounters, TelemetryConfig, TraceEvent, TraceEventKind, TraceSink};
use mira_noc::topology::Mesh2D;
use mira_noc::traffic::{PayloadProfile, UniformRandom};
use mira_noc::{NodeId, PortId, VcId};

fn depth_of(idx: usize) -> PipelineDepth {
    [
        PipelineDepth::FourStage,
        PipelineDepth::ThreeStageSpeculative,
        PipelineDepth::TwoStageLookahead,
    ][idx]
}

fn run_telemetry(
    rate: f64,
    seed: u64,
    depth: PipelineDepth,
    telemetry: TelemetryConfig,
) -> (SimReport, StallCounters) {
    let cfg = NetworkConfig {
        router: RouterConfig {
            pipeline: PipelineConfig::separate_lt().with_depth(depth),
            ..RouterConfig::default()
        },
        ..NetworkConfig::default()
    };
    let sim_cfg = SimConfig::short().with_telemetry(telemetry);
    let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), cfg, sim_cfg);
    let report = sim.run(Box::new(UniformRandom::new(rate, 5, seed)));
    let totals = sim.network().stall_totals();
    (report, totals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every stalled VC-cycle carries exactly one cause: the per-cause
    /// counters sum to the stall total at every level of aggregation —
    /// per router, summed over the network, per metrics window, and in
    /// the report's measurement-window delta.
    #[test]
    fn stall_causes_account_for_every_stall_cycle(
        rate_pct in 2u32..45,
        seed in any::<u64>(),
        depth_idx in 0usize..3,
    ) {
        let (report, totals) = run_telemetry(
            rate_pct as f64 / 100.0,
            seed,
            depth_of(depth_idx),
            TelemetryConfig::windows(250),
        );

        prop_assert_eq!(totals.cause_sum(), totals.stalled, "network totals");
        prop_assert_eq!(
            report.stalls.cause_sum(), report.stalls.stalled,
            "measurement-window delta"
        );
        let mut window_sum = StallCounters::new();
        for w in &report.windows {
            for r in &w.routers {
                prop_assert_eq!(r.stalls.cause_sum(), r.stalls.stalled, "router in window");
            }
            let wt = w.stall_total();
            prop_assert_eq!(wt.cause_sum(), wt.stalled, "window total");
            window_sum.merge(&wt);
        }
        // Windows tile the run: full windows cover every cycle except a
        // trailing partial window, so their sum never exceeds the
        // cumulative total and the unaccounted remainder is at most the
        // stalls of the open window (bounded by total - sum >= 0).
        prop_assert!(window_sum.stalled <= totals.stalled);
        prop_assert_eq!(window_sum.cause_sum(), window_sum.stalled, "summed windows");
        // Contended runs must actually exercise the attribution.
        if rate_pct >= 25 {
            prop_assert!(totals.stalled > 0, "a loaded 4x4 mesh must stall somewhere");
        }
    }

    /// Telemetry is purely observational: the same run with metrics
    /// windows and tracing enabled is bit-identical to the untouched
    /// default path.
    #[test]
    fn telemetry_never_perturbs_results(
        rate_pct in 2u32..30,
        seed in any::<u64>(),
        depth_idx in 0usize..3,
    ) {
        let depth = depth_of(depth_idx);
        let rate = rate_pct as f64 / 100.0;
        let (plain, _) = run_telemetry(rate, seed, depth, TelemetryConfig::disabled());
        let (traced, _) = run_telemetry(
            rate,
            seed,
            depth,
            TelemetryConfig { metrics_window: 200, trace_capacity: 1 << 12, journey_sample_ppm: 0, journey_seed: 0 },
        );
        prop_assert_eq!(plain.avg_latency.to_bits(), traced.avg_latency.to_bits());
        prop_assert_eq!(plain.avg_hops.to_bits(), traced.avg_hops.to_bits());
        prop_assert_eq!(plain.throughput.to_bits(), traced.throughput.to_bits());
        prop_assert_eq!(plain.packets_created, traced.packets_created);
        prop_assert_eq!(plain.packets_ejected, traced.packets_ejected);
        prop_assert_eq!(plain.cycles_simulated, traced.cycles_simulated);
        prop_assert_eq!(&plain.counters, &traced.counters);
    }

    /// The ring buffer holds at most `capacity` events, never
    /// reallocates past it, and always retains the most recent events
    /// in chronological order.
    #[test]
    fn trace_ring_is_bounded_and_drops_oldest(
        capacity in 1usize..257,
        total in 0u64..1_000,
    ) {
        let mut sink = TraceSink::new(capacity);
        for cycle in 0..total {
            sink.record(TraceEvent {
                cycle,
                router: NodeId(0),
                port: PortId(1),
                vc: VcId(0),
                kind: TraceEventKind::SwitchTraversal,
                packet: cycle,
                detail: 0,
            });
        }
        prop_assert!(sink.len() <= capacity);
        prop_assert_eq!(sink.len() as u64, total.min(capacity as u64));
        prop_assert_eq!(sink.dropped(), total.saturating_sub(capacity as u64));
        let cycles: Vec<u64> = sink.events().map(|e| e.cycle).collect();
        let expected: Vec<u64> =
            (total.saturating_sub(capacity as u64)..total).collect();
        prop_assert_eq!(cycles, expected, "most recent events, oldest first");
    }
}

/// A 10k-cycle contended run, checked end to end: stall-cause counters
/// exactly account for every stalled cycle (the acceptance criterion's
/// wording), and the trace exports as valid Chrome trace-event JSON.
#[test]
fn ten_k_cycle_run_accounts_for_every_stall() {
    let cfg = NetworkConfig::default();
    let sim_cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 10_000,
        drain_cycles: 0,
        ..SimConfig::default()
    }
    .with_telemetry(TelemetryConfig {
        metrics_window: 1_000,
        trace_capacity: 1 << 14,
        journey_sample_ppm: 0,
        journey_seed: 0,
    });
    let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), cfg, sim_cfg);
    let report = sim.run(Box::new(UniformRandom::new(0.30, 5, 7)));

    // With warmup == drain == 0 the report delta covers the whole run,
    // so it must match the cumulative network totals exactly.
    let totals = sim.network().stall_totals();
    assert_eq!(report.stalls, totals);
    assert_eq!(totals.cause_sum(), totals.stalled, "every stalled cycle has exactly one cause");
    assert!(totals.stalled > 0, "30% load must contend");
    assert!(totals.sa_loss > 0 || totals.va_loss > 0, "arbitration losses must appear");

    // Per-router decomposition also ties out against the totals.
    let mut per_router = StallCounters::new();
    for r in sim.network().router_stalls() {
        assert_eq!(r.cause_sum(), r.stalled);
        per_router.merge(&r);
    }
    assert_eq!(per_router, totals);

    // Full windows tile the 10k measured cycles exactly.
    assert_eq!(report.windows.len(), 10, "10k cycles / 1k window");
    let window_sum = report.windows.iter().fold(StallCounters::new(), |mut acc, w| {
        acc.merge(&w.stall_total());
        acc
    });
    assert_eq!(window_sum, totals, "windows partition the run's stalls");

    // The trace must be loadable JSON with the Perfetto-required keys.
    let trace = sim.trace_chrome_json().expect("tracing was enabled");
    let v: serde::Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    let events = v.field("traceEvents").as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for field in ["name", "ph", "ts", "pid", "tid"] {
        assert!(
            !matches!(events[events.len() - 1].field(field), serde::Value::Null),
            "trace events carry {field}"
        );
    }
}

/// Short-flit layer shutdown must show up in the duty cycle: with
/// gating on and 50% short flits, the lowest layer's duty falls well
/// below 1.0, while an ungated run keeps every layer at exactly 1.0.
#[test]
fn layer_duty_distinguishes_shutdown_from_baseline() {
    let duty = |layer_shutdown: bool| -> Vec<f64> {
        let cfg = NetworkConfig { layer_shutdown, ..NetworkConfig::default() };
        let sim_cfg = SimConfig::short().with_telemetry(TelemetryConfig::windows(400));
        let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), cfg, sim_cfg);
        let workload = UniformRandom::new(0.10, 5, 11)
            .with_payload(PayloadProfile::with_short_fraction(4, 0.5));
        let report = sim.run(Box::new(workload));
        // Mean duty per layer over all windows and routers that saw
        // traffic.
        let layers = sim.network().config().layers;
        let mut sums = vec![0.0f64; layers];
        let mut n = 0u64;
        for w in &report.windows {
            for r in &w.routers {
                if r.layer_duty.is_empty() {
                    continue;
                }
                for (i, d) in r.layer_duty.iter().enumerate() {
                    sums[i] += d;
                }
                n += 1;
            }
        }
        assert!(n > 0, "some router must have forwarded flits");
        sums.iter().map(|s| s / n as f64).collect()
    };

    let gated = duty(true);
    let ungated = duty(false);

    assert!(
        ungated.iter().all(|&d| (d - 1.0).abs() < 1e-12),
        "no gating → every layer always powered: {ungated:?}"
    );
    assert!((gated[0] - 1.0).abs() < 1e-12, "top layer is never gated: {gated:?}");
    let bottom = *gated.last().expect("layers");
    assert!(
        bottom < 0.8,
        "50% short flits must idle the bottom layer a noticeable fraction: {gated:?}"
    );
    assert!(
        gated.windows(2).all(|w| w[0] >= w[1] - 1e-12),
        "duty is monotonically non-increasing from top to bottom layer: {gated:?}"
    );
}
