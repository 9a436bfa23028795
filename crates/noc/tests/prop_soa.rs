//! Property tests for the data-oriented core (DESIGN.md §14): flit-arena
//! slot conservation, work-list (active-set) consistency, and
//! counter-level in-flight conservation, checked after *every* simulated
//! cycle of randomized fault-free runs; plus the arena's occupancy bound
//! under a saturating open-loop load.

use proptest::prelude::*;

use mira_noc::config::{NetworkConfig, PipelineConfig, RouterConfig};
use mira_noc::flit::FlitData;
use mira_noc::ids::NodeId;
use mira_noc::network::Network;
use mira_noc::packet::{Packet, PacketClass, PacketId};
use mira_noc::topology::{ExpressMesh2D, Mesh2D, Mesh3D, Topology};
use mira_noc::traffic::{UniformRandom, Workload};

#[derive(Debug, Clone)]
struct Spec {
    src: usize,
    dst: usize,
    len: usize,
    control: bool,
}

fn spec_strategy(nodes: usize) -> impl Strategy<Value = Spec> {
    (0..nodes, 0..nodes, 1usize..6, any::<bool>()).prop_map(|(src, dst, len, control)| Spec {
        src,
        dst,
        len,
        control,
    })
}

fn topology(which: u8) -> Box<dyn Topology> {
    match which % 3 {
        0 => Box::new(Mesh2D::new(4, 4)),
        1 => Box::new(Mesh3D::new(3, 3, 3)),
        _ => Box::new(ExpressMesh2D::new(6, 6)),
    }
}

/// Drives a random batch to drain, running `check` after every cycle.
fn run_checked(
    which: u8,
    combined: bool,
    specs: &[Spec],
    mut check: impl FnMut(&Network, usize) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let topo = topology(which);
    let nodes = topo.num_nodes();
    let pipeline =
        if combined { PipelineConfig::combined_st_lt() } else { PipelineConfig::separate_lt() };
    let cfg = NetworkConfig {
        router: RouterConfig { pipeline, ..RouterConfig::default() },
        ..NetworkConfig::default()
    };
    let mut net = Network::new(topo, cfg);
    let mut enqueued = 0usize;
    for (i, s) in specs.iter().enumerate() {
        enqueued += s.len;
        net.enqueue_packet(Packet {
            id: PacketId(i as u64),
            src: NodeId(s.src % nodes),
            dst: NodeId(s.dst % nodes),
            class: if s.control { PacketClass::ReadRequest } else { PacketClass::DataResponse },
            payload: (0..s.len).map(|_| FlitData::dense(4)).collect(),
            created_at: 0,
        });
    }
    check(&net, enqueued)?;
    for c in 0..50_000u64 {
        net.step(c);
        let _ = net.take_ejected();
        check(&net, enqueued)?;
        if net.is_drained() {
            break;
        }
    }
    prop_assert!(net.is_drained(), "network failed to drain");
    prop_assert_eq!(net.arena().allocated(), 0, "drained network must hold no live flits");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// Arena slot conservation: at every cycle boundary, the live slots
    /// of the flit arena are exactly the flits observable in the fabric
    /// (router buffers + link wires) — no slot leaks, no fabric flit
    /// exists outside the arena, and queued packets hold no slot.
    #[test]
    fn arena_slots_equal_fabric_flits(
        which in any::<u8>(),
        combined in any::<bool>(),
        specs in proptest::collection::vec(spec_strategy(36), 1..50),
    ) {
        run_checked(which, combined, &specs, |net, _| {
            prop_assert_eq!(
                net.arena().allocated(),
                net.flits_in_fabric(),
                "live arena slots must equal fabric flits"
            );
            Ok(())
        })?;
    }

    /// Active-set completeness: the per-state work-list masks agree with
    /// the VC state machine at every cycle boundary, every `Routing` or
    /// `WaitingVc` VC holds a buffered head flit, and quiescent routers
    /// hold no routable or waiting VC — the invariants that make the
    /// mask-driven stages and the quiescence skip exact.
    #[test]
    fn worklist_masks_stay_consistent(
        which in any::<u8>(),
        combined in any::<bool>(),
        specs in proptest::collection::vec(spec_strategy(36), 1..50),
    ) {
        run_checked(which, combined, &specs, |net, _| {
            net.assert_worklists_consistent();
            Ok(())
        })?;
    }

    /// Counter-level conservation in fault-free runs: flits injected
    /// minus flits ejected is exactly the fabric population, and
    /// enqueued minus injected is exactly the source-queue population.
    #[test]
    fn in_flight_counters_conserve_flits(
        which in any::<u8>(),
        combined in any::<bool>(),
        specs in proptest::collection::vec(spec_strategy(36), 1..50),
    ) {
        run_checked(which, combined, &specs, |net, enqueued| {
            let c = net.counters();
            prop_assert_eq!(
                (c.flits_injected - c.flits_ejected) as usize,
                net.flits_in_fabric(),
                "injected - ejected must equal the fabric population"
            );
            prop_assert_eq!(
                enqueued - c.flits_injected as usize,
                net.flits_in_source_queues(),
                "enqueued - injected must equal the source-queue population"
            );
            Ok(())
        })?;
    }
}

/// Past saturation the source backlog grows without bound, but the arena
/// holds fabric flits only, and credit flow control caps those at the
/// buffer slots: every router input port's VCs, full. A breach is a
/// credit bug.
#[test]
fn arena_stays_within_buffer_slots_past_saturation() {
    let (side, cycles) = (8, 2_000);
    let cfg = NetworkConfig::default();
    let mut net = Network::new(Box::new(Mesh2D::new(side, side)), cfg);
    let nodes = side * side;
    let bound = nodes * net.topology().radix() * cfg.router.vcs_per_port * cfg.router.buffer_depth;
    let mut workload = UniformRandom::new(0.6, 5, 11);
    workload.init(nodes);
    let mut id = 0u64;
    for cycle in 0..cycles {
        for spec in workload.generate(cycle) {
            net.enqueue_packet(Packet {
                id: PacketId(id),
                src: spec.src,
                dst: spec.dst,
                class: spec.class,
                payload: spec.payload,
                created_at: cycle,
            });
            id += 1;
        }
        net.step(cycle);
        let _ = net.take_ejected();
        assert!(
            net.arena().capacity_slots() <= bound,
            "cycle {cycle}: arena slot table {} outgrew the {bound} buffer slots",
            net.arena().capacity_slots()
        );
    }
    assert!(net.arena().live_peak() <= bound, "live peak {} > {bound}", net.arena().live_peak());
    let backlog = net.flits_in_source_queues();
    assert!(backlog > 4 * bound, "the load must saturate: backlog {backlog} vs bound {bound}");
}
