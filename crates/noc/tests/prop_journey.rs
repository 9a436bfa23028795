//! Property tests for the packet-journey tracing invariants
//! (DESIGN.md §13):
//!
//! * every sampled journey's spans sum *exactly* to the packet's
//!   measured end-to-end latency — no cycle is lost or double-counted,
//!   for every load, pipeline depth, and sampling rate;
//! * at a sampling rate of 1.0 the per-router stall cycles recorded on
//!   journeys reproduce the routers' own `StallCounters` exactly;
//! * the sampled set is the sampler's deterministic predicate, never a
//!   function of simulation timing;
//! * the Chrome trace export links a sampled packet's hops across
//!   routers with `s`/`t`/`f` flow events.

use proptest::prelude::*;

use mira_noc::config::{NetworkConfig, PipelineConfig, PipelineDepth, RouterConfig};
use mira_noc::sim::{SimConfig, Simulator};
use mira_noc::telemetry::{StallCounters, TelemetryConfig};
use mira_noc::topology::Mesh2D;
use mira_noc::traffic::UniformRandom;
use mira_noc::{JourneySampler, PacketId};

fn depth_of(idx: usize) -> PipelineDepth {
    [
        PipelineDepth::FourStage,
        PipelineDepth::ThreeStageSpeculative,
        PipelineDepth::TwoStageLookahead,
    ][idx]
}

fn run_journeys(rate: f64, seed: u64, depth: PipelineDepth, sample_ppm: u32) -> Simulator {
    let cfg = NetworkConfig {
        router: RouterConfig {
            pipeline: PipelineConfig::separate_lt().with_depth(depth),
            ..RouterConfig::default()
        },
        ..NetworkConfig::default()
    };
    let sim_cfg =
        SimConfig::short().with_telemetry(TelemetryConfig::disabled().with_journeys(sample_ppm));
    let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), cfg, sim_cfg);
    sim.run(Box::new(UniformRandom::new(rate, 5, seed)));
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: source-queue wait + per-hop residency +
    /// link/ARQ wire time + serialization telescopes to exactly the
    /// measured latency of every sampled packet.
    #[test]
    fn journey_spans_sum_exactly_to_latency(
        rate_pct in 2u32..45,
        seed in any::<u64>(),
        depth_idx in 0usize..3,
    ) {
        let sim = run_journeys(rate_pct as f64 / 100.0, seed, depth_of(depth_idx), 1_000_000);
        let journeys = sim.journeys();
        prop_assert!(!journeys.is_empty(), "full sampling must record journeys");
        for j in journeys {
            prop_assert_eq!(
                j.span_sum(), j.latency(),
                "packet {}: spans {:?}", j.packet, j
            );
            for h in &j.hops {
                prop_assert!(h.departed >= h.arrived, "packet {}: open hop", j.packet);
                prop_assert!(
                    h.stalls.stalled <= h.residency(),
                    "packet {}: head stalls exceed residency", j.packet
                );
                prop_assert_eq!(h.stalls.cause_sum(), h.stalls.stalled);
                prop_assert_eq!(h.body_stalls.cause_sum(), h.body_stalls.stalled);
            }
        }
    }

    /// With every packet sampled, the journeys' per-router stall
    /// attribution (head and body flits combined, finished and
    /// in-flight journeys alike) reproduces the routers' own cumulative
    /// `StallCounters` exactly.
    #[test]
    fn journey_stalls_match_router_counters(
        rate_pct in 5u32..40,
        seed in any::<u64>(),
        depth_idx in 0usize..3,
    ) {
        let sim = run_journeys(rate_pct as f64 / 100.0, seed, depth_of(depth_idx), 1_000_000);
        let by_router = sim.network().journeys().expect("recorder installed").stalls_by_router();
        let routers = sim.network().router_stalls();
        let mut total_router = StallCounters::new();
        for (i, r) in routers.iter().enumerate() {
            let from_journeys = by_router.get(&i).copied().unwrap_or_default();
            prop_assert_eq!(
                from_journeys, *r,
                "router {}: journey-attributed stalls must match its counters", i
            );
            total_router.merge(r);
        }
        // Nothing attributed to routers that do not exist.
        prop_assert!(by_router.keys().all(|&i| i < routers.len()));
        let mut total_journeys = StallCounters::new();
        for s in by_router.values() {
            total_journeys.merge(s);
        }
        prop_assert_eq!(total_journeys, total_router);
    }

    /// Partial sampling records exactly the sampler's deterministic
    /// subset: every finished journey is in the predicate set, and the
    /// finished set is independent of anything but packet ids.
    #[test]
    fn partial_sampling_is_the_sampler_predicate(
        rate_pct in 5u32..30,
        seed in any::<u64>(),
        sample_ppm in 1u32..1_000_000,
    ) {
        let sim = run_journeys(rate_pct as f64 / 100.0, seed, PipelineDepth::FourStage, sample_ppm);
        let sampler = JourneySampler::new(sample_ppm, 0);
        for j in sim.journeys() {
            prop_assert!(
                sampler.sampled(PacketId(j.packet)),
                "packet {} recorded but not in the sampled set", j.packet
            );
            prop_assert_eq!(j.span_sum(), j.latency(), "packet {}", j.packet);
        }
        // The same run with the same rate finds the same journeys.
        let again = run_journeys(
            rate_pct as f64 / 100.0, seed, PipelineDepth::FourStage, sample_ppm,
        );
        let ids: Vec<u64> = sim.journeys().iter().map(|j| j.packet).collect();
        let ids_again: Vec<u64> = again.journeys().iter().map(|j| j.packet).collect();
        prop_assert_eq!(ids, ids_again);
    }
}

/// A contended run exports flow events that link one packet's hops
/// across at least two routers (the Perfetto cross-router view).
#[test]
fn chrome_trace_links_packets_across_routers() {
    let cfg = NetworkConfig::default();
    let sim_cfg = SimConfig::short().with_telemetry(TelemetryConfig {
        metrics_window: 0,
        trace_capacity: 1 << 14,
        journey_sample_ppm: 1_000_000,
        journey_seed: 0,
    });
    let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), cfg, sim_cfg);
    sim.run(Box::new(UniformRandom::new(0.25, 5, 7)));

    let multi_hop = sim
        .journeys()
        .iter()
        .find(|j| j.hops.len() >= 2)
        .expect("a 4x4 mesh run has multi-hop packets");
    let trace = sim.trace_chrome_json().expect("trace sink installed");
    assert!(trace.contains("\"ph\":\"s\""), "flow start events present");
    assert!(trace.contains("\"ph\":\"f\""), "flow finish events present");

    // The packet's flow events carry one pid per router visited.
    let id_tag = format!("\"id\":{},", multi_hop.packet);
    let mut routers_seen = Vec::new();
    for chunk in trace.split('{') {
        if chunk.contains("\"cat\":\"journey\"") && chunk.contains(&id_tag) {
            let pid = chunk
                .split("\"pid\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse::<usize>().ok())
                .expect("flow event has a pid");
            routers_seen.push(pid);
        }
    }
    let expected: Vec<usize> = multi_hop.hops.iter().map(|h| h.router).collect();
    assert_eq!(routers_seen, expected, "one flow event per hop, in hop order");
    let mut distinct = routers_seen.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() >= 2, "flow links at least two routers: {routers_seen:?}");
}

/// Sampling rate 0 keeps the recorder uninstalled entirely.
#[test]
fn zero_rate_installs_no_recorder() {
    let sim = run_journeys(0.10, 7, PipelineDepth::FourStage, 0);
    assert!(sim.network().journeys().is_none());
    assert!(sim.journeys().is_empty());
}
