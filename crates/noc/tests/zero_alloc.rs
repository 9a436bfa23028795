//! Zero-allocation regression test for the per-cycle path (DESIGN.md
//! §14): after a warmup that lets every reusable buffer reach its
//! steady-state capacity, stepping the network must perform **zero**
//! heap allocations — the data-oriented core's contract.
//!
//! The same allocator also pins construction: the router, link and NIC
//! state live in network-wide arrays (DESIGN.md §14), so building a
//! 32×32 mesh makes exactly as many heap allocations as a 6×6 one.
//!
//! A counting global allocator observes every `alloc`/`realloc`;
//! deallocation is not counted (dropping ejected flits is free anyway:
//! flit payloads are inline). The whole scenario lives in a single
//! `#[test]` so no concurrent test can allocate while the counter is
//! armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mira_noc::config::{NetworkConfig, PipelineConfig, RouterConfig};
use mira_noc::flit::FlitData;
use mira_noc::ids::NodeId;
use mira_noc::network::Network;
use mira_noc::packet::{Packet, PacketClass, PacketId};
use mira_noc::recorder::FlightRecorder;
use mira_noc::telemetry::TelemetryConfig;
use mira_noc::topology::{ExpressMesh2D, Mesh2D, Mesh3D, Topology};

/// Pass-through allocator that counts allocations while armed. With
/// `ZERO_ALLOC_PANIC=1` in the environment it panics (with a backtrace)
/// at the first armed allocation instead, pinpointing the culprit.
struct CountingAlloc;

#[inline]
fn note_alloc(what: &str, bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if PANIC_ON_ALLOC.load(Ordering::Relaxed) {
        // Disarm first: panic formatting itself allocates.
        ARMED.store(false, Ordering::Relaxed);
        panic!("steady-state {what} of {bytes} bytes");
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static PANIC_ON_ALLOC: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            note_alloc("alloc", layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            note_alloc("alloc_zeroed", layout.size());
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            note_alloc("realloc", new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WARMUP_CYCLES: u64 = 500;
const MEASURED_CYCLES: u64 = 1_000;

/// Builds a network on `topo`, floods it with enough pre-enqueued
/// traffic to stay busy through warmup + measurement, then counts heap
/// allocations across the measured window. With a `recorder` the armed
/// detectors are evaluated every cycle, the way the simulator drives
/// them; `telemetry` configures the network's telemetry consumers.
fn allocations_during_steady_state(
    topo: Box<dyn Topology>,
    combined: bool,
    mut recorder: Option<&mut FlightRecorder>,
    telemetry: TelemetryConfig,
) -> (u64, usize) {
    let nodes = topo.num_nodes();
    let pipeline =
        if combined { PipelineConfig::combined_st_lt() } else { PipelineConfig::separate_lt() };
    let cfg = NetworkConfig {
        router: RouterConfig { pipeline, ..RouterConfig::default() },
        ..NetworkConfig::default()
    };
    let mut net = Network::new(topo, cfg);
    net.set_telemetry(telemetry);

    // Enough flits per node to keep every source queue non-empty for the
    // whole run, so the measured window is genuinely steady-state (the
    // fabric saturated, the NIC injecting every cycle it can).
    let len_flits = 5;
    let packets_per_node = (2 * (WARMUP_CYCLES + MEASURED_CYCLES) as usize) / len_flits;
    let mut id = 0u64;
    for src in 0..nodes {
        for p in 0..packets_per_node {
            net.enqueue_packet(Packet {
                id: PacketId(id),
                src: NodeId(src),
                dst: NodeId((src + 1 + p % (nodes - 1)) % nodes),
                class: if p % 4 == 0 {
                    PacketClass::ReadRequest
                } else {
                    PacketClass::DataResponse
                },
                payload: (0..len_flits)
                    .map(|i| FlitData::with_active_words(4, 1 + i % 4))
                    .collect(),
                created_at: 0,
            });
            id += 1;
        }
    }

    let mut ejected = Vec::with_capacity(4096);
    for cycle in 0..WARMUP_CYCLES {
        net.step(cycle);
        if let Some(rec) = recorder.as_deref_mut() {
            rec.evaluate(&net, cycle);
        }
        net.drain_ejected(&mut ejected);
        ejected.clear();
    }
    if let Some(ring) = net.trace_sink() {
        assert!(ring.dropped() > 0, "the trace ring wraps during warmup");
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for cycle in WARMUP_CYCLES..WARMUP_CYCLES + MEASURED_CYCLES {
        net.step(cycle);
        if let Some(rec) = recorder.as_deref_mut() {
            rec.evaluate(&net, cycle);
        }
        net.drain_ejected(&mut ejected);
        ejected.clear();
    }
    ARMED.store(false, Ordering::SeqCst);

    let ejected_total = net.counters().flits_ejected as usize;
    (ALLOCS.load(Ordering::SeqCst), ejected_total)
}

/// Heap allocations made by `Network::new` for a 2DB mesh of `side`
/// × `side` nodes (the topology itself is built before counting).
fn allocations_during_construction(side: usize) -> u64 {
    let topo: Box<dyn Topology> = Box::new(Mesh2D::new(side, side));
    let cfg = NetworkConfig {
        router: RouterConfig { pipeline: PipelineConfig::separate_lt(), ..RouterConfig::default() },
        ..NetworkConfig::default()
    };
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let net = Network::new(topo, cfg);
    ARMED.store(false, Ordering::SeqCst);
    drop(net);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_stepping_never_allocates() {
    // Construction does not scale per router: no router, link or NIC
    // owns a heap block.
    let (small, large) = (allocations_during_construction(6), allocations_during_construction(32));
    assert_eq!(small, large, "Network::new made {small} allocations for 6x6 but {large} for 32x32");

    PANIC_ON_ALLOC.store(std::env::var_os("ZERO_ALLOC_PANIC").is_some(), Ordering::SeqCst);

    let archs: [(&str, Box<dyn Topology>, bool); 3] = [
        ("2DB", Box::new(Mesh2D::new(4, 4)), false),
        ("3DM", Box::new(Mesh3D::new(3, 3, 3)), true),
        ("3DM-E", Box::new(ExpressMesh2D::new(6, 6)), true),
    ];
    for (name, topo, combined) in archs {
        let (allocs, ejected) =
            allocations_during_steady_state(topo, combined, None, TelemetryConfig::disabled());
        assert!(ejected > 0, "{name}: scenario must actually move traffic");
        assert_eq!(
            allocs, 0,
            "{name}: steady-state stepping performed {allocs} heap allocations \
             across {MEASURED_CYCLES} cycles — the per-cycle path must be allocation-free"
        );
    }

    // With host observability collecting, the contract still holds: the
    // phase guards are an `Instant` read plus atomic adds.
    mira_obs::set_enabled(true);
    let (allocs, ejected) = allocations_during_steady_state(
        Box::new(Mesh2D::new(4, 4)),
        false,
        None,
        TelemetryConfig::disabled(),
    );
    mira_obs::set_enabled(false);
    assert!(ejected > 0, "obs-enabled scenario must actually move traffic");
    assert_eq!(
        allocs, 0,
        "obs-enabled steady-state stepping performed {allocs} heap allocations \
         across {MEASURED_CYCLES} cycles — observability must not allocate per cycle"
    );

    // The armed flight recorder holds the contract too (DESIGN.md §17):
    // a non-firing `evaluate()` is pure reads over the SoA state, so
    // always-on anomaly detection costs zero allocations per cycle.
    let mut rec = FlightRecorder::default();
    let (allocs, ejected) = allocations_during_steady_state(
        Box::new(Mesh2D::new(4, 4)),
        false,
        Some(&mut rec),
        TelemetryConfig::disabled(),
    );
    assert!(ejected > 0, "recorder-armed scenario must actually move traffic");
    assert_eq!(rec.counts().total(), 0, "no detector fires on the healthy scenario");
    assert_eq!(
        allocs, 0,
        "recorder-armed steady-state stepping performed {allocs} heap allocations \
         across {MEASURED_CYCLES} cycles — a non-firing detector sweep must be allocation-free"
    );

    // Tracing on: the ring is allocated once at its capacity and
    // overwrites in place once full, so a wrapped ring records every
    // event of the steady state without allocating.
    let traced = TelemetryConfig { trace_capacity: 256, ..TelemetryConfig::disabled() };
    let (allocs, ejected) =
        allocations_during_steady_state(Box::new(Mesh2D::new(4, 4)), false, None, traced);
    assert!(ejected > 0, "traced scenario must actually move traffic");
    assert_eq!(
        allocs, 0,
        "traced steady-state stepping performed {allocs} heap allocations \
         across {MEASURED_CYCLES} cycles — recording into a full trace ring must not allocate"
    );
}
