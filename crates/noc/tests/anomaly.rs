//! Flight-recorder integration tests (DESIGN.md §17): the armed
//! detectors are purely observational on healthy runs, and a genuine
//! deadlock (injected with the chaos stall hook) trips the no-progress
//! watchdog with a black-box dump whose stuck-packet set is *exact*.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use mira_noc::anomaly::{AnomalyAbort, AnomalyConfig, AnomalyKind};
use mira_noc::config::NetworkConfig;
use mira_noc::fault::FaultConfig;
use mira_noc::ids::NodeId;
use mira_noc::packet::{PacketClass, PacketSpec};
use mira_noc::recorder::{BlackBox, BLACKBOX_VERSION, FAULT_STORM_BUDGET, STARVATION_AGE, WINDOW};
use mira_noc::sim::{SimConfig, SimReport, Simulator};
use mira_noc::telemetry::TelemetryConfig;
use mira_noc::topology::Mesh2D;
use mira_noc::traffic::{EjectedPacket, UniformRandom, Workload};
use proptest::prelude::*;
use serde::Deserialize;

/// Runs one uniform-random point on a 4x4 mesh with the given anomaly
/// configuration.
fn run_ur(rate: f64, seed: u64, anomaly: AnomalyConfig) -> SimReport {
    let cfg = SimConfig::short().with_anomaly(anomaly);
    let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), NetworkConfig::default(), cfg);
    sim.run(Box::new(UniformRandom::new(rate, 5, seed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On clean seed-sweep runs no detector ever fires, and the armed
    /// recorder changes nothing: the full report serializes to the
    /// exact bytes of a recorder-off twin run (the `anomalies` section
    /// is omitted at zero firings, so even the JSON shape is identical).
    #[test]
    fn detectors_never_fire_on_clean_runs(
        seed in 0u64..1_000,
        rate in 0.02f64..0.12,
    ) {
        let armed = run_ur(rate, seed, AnomalyConfig::detect());
        prop_assert_eq!(
            armed.anomalies.total(), 0,
            "clean run fired detectors: {:?}", armed.anomalies
        );
        let plain = run_ur(rate, seed, AnomalyConfig::disabled());
        let armed_json = serde_json::to_string(&armed).expect("report serializes");
        let plain_json = serde_json::to_string(&plain).expect("report serializes");
        prop_assert_eq!(armed_json, plain_json, "armed recorder must be bit-invisible");
    }
}

/// A workload wrapper that keeps its own ledger of the packets in
/// flight, without reading the network: ids follow the generation order
/// (the wrapped workloads send no replies), and an id leaves the ledger
/// when `on_ejected` reports its packet.
struct Ledger<W> {
    inner: W,
    next: u64,
    in_flight: Rc<RefCell<BTreeSet<u64>>>,
}

impl<W: Workload> Workload for Ledger<W> {
    fn init(&mut self, num_nodes: usize) {
        self.inner.init(num_nodes);
    }

    fn generate(&mut self, cycle: u64) -> Vec<PacketSpec> {
        let specs = self.inner.generate(cycle);
        self.in_flight.borrow_mut().extend(self.next..self.next + specs.len() as u64);
        self.next += specs.len() as u64;
        specs
    }

    fn on_ejected(&mut self, cycle: u64, packet: &EjectedPacket) -> Vec<(u64, PacketSpec)> {
        self.in_flight.borrow_mut().remove(&packet.id.0);
        self.inner.on_ejected(cycle, packet)
    }
}

/// The chaos scenario every deadlock assertion below shares: a 4x4 mesh
/// at 10% load whose router 5 has its switch allocator frozen at cycle
/// 400, run with the recorder armed and the given faults.
fn stalled_sim(faults: FaultConfig) -> Simulator {
    let cfg = SimConfig::short()
        // Sample every packet so stuck packets carry their journeys.
        .with_telemetry(TelemetryConfig::disabled().with_journeys(1_000_000))
        .with_faults(faults)
        .with_anomaly(AnomalyConfig::detect());
    let cfg = SimConfig { chaos_stall: Some((400, Some(5))), ..cfg };
    Simulator::new(Box::new(Mesh2D::new(4, 4)), NetworkConfig::default(), cfg)
}

/// Runs the chaos scenario to its halting trigger and returns the
/// simulator (frozen at the abort), the unwound [`AnomalyAbort`] and the
/// workload's ledger of packets generated and not ejected.
fn run_to_abort(faults: FaultConfig) -> (Simulator, AnomalyAbort, BTreeSet<u64>) {
    let mut sim = stalled_sim(faults);
    let in_flight = Rc::new(RefCell::new(BTreeSet::new()));
    let workload =
        Ledger { inner: UniformRandom::new(0.10, 5, 42), next: 0, in_flight: in_flight.clone() };
    let err = catch_unwind(AssertUnwindSafe(|| sim.run(Box::new(workload))))
        .expect_err("a frozen switch allocator must trip the no-progress watchdog");
    let abort = err.downcast::<AnomalyAbort>().expect("payload is an AnomalyAbort");
    let ledger = in_flight.borrow().clone();
    (sim, *abort, ledger)
}

/// The dump in `abort`, parsed and checked against its invariants.
fn parse_dump(abort: &AnomalyAbort) -> BlackBox {
    let value: serde::Value = serde_json::from_str(&abort.dump).expect("dump is valid JSON");
    let bb = BlackBox::from_value(&value).expect("dump matches the BlackBox type");
    assert_eq!(bb.check(), Ok(()));
    bb
}

/// A deadlocked run unwinds with a parseable black-box dump whose
/// stuck-packet set matches the workload's ledger exactly — no packet
/// missing, none invented.
#[test]
fn deadlock_dump_has_exact_stuck_packet_set() {
    let (_, abort, ledger) = run_to_abort(FaultConfig::disabled());
    assert_eq!(abort.kind, AnomalyKind::NoProgress);
    assert!(abort.cycle > 400, "trigger follows the stall injection");
    assert_eq!(abort.cycle, 1979, "the watchdog fires on the pinned cycle");

    let bb = parse_dump(&abort);
    assert_eq!(bb.version, BLACKBOX_VERSION);
    assert_eq!(bb.cycle, abort.cycle);
    assert_eq!(bb.trigger.kind, "no_progress");
    assert!(bb.counts.no_progress >= 1);
    assert!(!bb.fired.is_empty(), "the trigger is itemized in the firing log");

    let dumped: BTreeSet<u64> = bb.stuck_packets.iter().map(|s| s.packet).collect();
    assert!(!dumped.is_empty(), "a deadlock strands packets");
    assert_eq!(dumped, ledger, "stuck-packet set must be exact");

    // The dump carries enough state to diagnose the hang: the frozen
    // router is flagged, live flits are in the arena, the event ring
    // holds recent history, and sampled journeys are attached.
    let frozen: Vec<u64> = bb.routers.iter().filter(|r| r.sa_frozen).map(|r| r.router).collect();
    assert_eq!(frozen, vec![5], "the chaos-frozen router is flagged");
    assert!(!bb.arena.is_empty(), "stranded flits are still live in the arena");
    assert!(!bb.events.is_empty(), "the event ring captured recent history");
    assert!(
        bb.stuck_packets.iter().any(|s| s.journey.is_some()),
        "journey-sampled stuck packets carry their hop history"
    );
    for s in &bb.stuck_packets {
        assert_eq!(s.age, abort.cycle - s.created_at, "{}: age is capture-relative", s.packet);
    }
}

/// With transient link faults and a one-retry budget, packets are
/// dropped before the deadlock: the stuck set is the ledger less exactly
/// as many packets as the fault layer dropped.
#[test]
fn deadlock_dump_leaves_out_dropped_packets() {
    let faults = FaultConfig::disabled().with_transient(100_000).with_max_retries(1);
    let (sim, abort, ledger) = run_to_abort(faults);
    let bb = parse_dump(&abort);
    let dropped = sim.network().fault_counters().packets_dropped;
    assert!(dropped > 0, "the faults drop packets");
    let dumped: BTreeSet<u64> = bb.stuck_packets.iter().map(|s| s.packet).collect();
    assert!(!dumped.is_empty(), "a deadlock strands packets");
    assert!(dumped.is_subset(&ledger), "stuck packets not in the ledger: {:?}", &dumped - &ledger);
    assert_eq!((ledger.len() - dumped.len()) as u64, dropped, "the ledger less the drops");
}

/// Anomaly failures are deterministic: the same (config, seed) pair
/// reproduces the same trigger cycle and the same dump, byte for byte.
#[test]
fn deadlock_dump_is_deterministic() {
    let (_, a, _) = run_to_abort(FaultConfig::disabled());
    let (_, b, _) = run_to_abort(FaultConfig::disabled());
    assert_eq!(a.cycle, b.cycle);
    assert_eq!(a.dump, b.dump, "black-box dumps must reproduce bit-for-bit");
}

/// Transient link faults at 20% of deliveries overrun the fault-storm
/// budget: the detector fires through `Simulator::run`, with the
/// window's event count above the budget, and the run still completes.
#[test]
fn fault_storm_fires_through_the_run() {
    let cfg = SimConfig::short()
        .with_faults(FaultConfig::disabled().with_transient(200_000))
        .with_anomaly(AnomalyConfig::detect());
    let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), NetworkConfig::default(), cfg);
    let report = sim.run(Box::new(UniformRandom::new(0.10, 5, 42)));
    assert!(report.anomalies.fault_storm > 0, "{:?}", report.anomalies);
    assert_eq!(report.anomalies.no_progress, 0, "faults slow the fabric, they do not wedge it");
    let storm = sim.anomalies_fired().iter().find(|f| f.kind == "fault_storm").expect("a storm");
    assert!(storm.stats.observed > storm.stats.threshold, "{:?}", storm.stats);
    assert_eq!(storm.stats.threshold, FAULT_STORM_BUDGET);
}

/// One packet into router 0 of a 4x4 mesh, whose switch allocator is
/// frozen from cycle 0, plus a steady stream inside the 3x3 block of
/// routers `x, y >= 1`. Minimal routes stay inside their endpoints'
/// bounding box, so the stream never meets router 0 and keeps ejecting.
struct OneStuckPacket;

impl Workload for OneStuckPacket {
    fn generate(&mut self, cycle: u64) -> Vec<PacketSpec> {
        const BLOCK: [usize; 9] = [5, 6, 7, 9, 10, 11, 13, 14, 15];
        let spec = |src: usize, dst: usize| {
            PacketSpec::control(NodeId(src), NodeId(dst), PacketClass::ReadRequest, 4)
        };
        let i = cycle as usize;
        let mut specs = vec![spec(BLOCK[i % 9], BLOCK[(i + 4) % 9])];
        if cycle == 0 {
            specs.push(spec(1, 0));
        }
        specs
    }
}

/// A head flit parked behind a frozen router for more than
/// [`STARVATION_AGE`] cycles trips the starvation detector at the first
/// window boundary past that age, while traffic elsewhere keeps the
/// no-progress watchdog quiet and the run completes.
#[test]
fn starvation_fires_while_other_traffic_flows() {
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 3 * WINDOW + WINDOW / 2,
        drain_cycles: 0,
        chaos_stall: Some((0, Some(0))),
        ..SimConfig::default()
    }
    .with_anomaly(AnomalyConfig::detect());
    let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), NetworkConfig::default(), cfg);
    let report = sim.run(Box::new(OneStuckPacket));
    assert_eq!(report.anomalies.no_progress, 0, "the block's traffic is progress");
    assert_eq!(report.anomalies.starvation, 1, "{:?}", report.anomalies);
    assert!(report.saturated, "the stuck packet never ejects");
    let starved = sim.anomalies_fired().iter().find(|f| f.kind == "starvation").expect("fired");
    assert_eq!(starved.cycle, 3 * WINDOW, "the first window past the threshold age");
    assert!(starved.stats.observed > STARVATION_AGE, "{:?}", starved.stats);
    assert_eq!(starved.stats.threshold, STARVATION_AGE);
}
