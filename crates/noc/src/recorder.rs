//! Flight recorder: always-on anomaly detectors with triggered
//! black-box dumps (DESIGN.md §17).
//!
//! The [`FlightRecorder`] is the simulator's black box. While a run is
//! in flight it does two cheap things every cycle:
//!
//! 1. keeps a fixed-size ring of recent compact events — this is just
//!    the network's [`TraceSink`](crate::telemetry::TraceSink) ring on
//!    the one [`Telemetry`](crate::telemetry::Telemetry) seam (sized by
//!    [`RING_CAPACITY`] unless an explicit trace capacity is set), so
//!    an armed ring obeys the same observational-purity contract as
//!    every other telemetry consumer: a run with the ring on is
//!    bit-identical to a run without it;
//! 2. evaluates the deterministic detectors at their constant
//!    thresholds (below): a per-cycle no-progress watchdog — an exact
//!    comparison of the fabric's progress words (router work-list masks,
//!    occupancy and grants, link wire state) against the previous
//!    cycle's — and, on the window cadence, credit-conservation,
//!    starvation, fault-storm and latency-spike checks.
//!
//! On a halting trigger the simulator calls [`capture`] to freeze the
//! whole network — VC occupancy, work-list masks, in-flight arena
//! slots, wire state, the event ring, and the journeys of the packets
//! that were still in flight — into a [`BlackBox`] value, renders it to
//! JSON, and unwinds with an
//! [`AnomalyAbort`](crate::anomaly::AnomalyAbort) carrying the text.
//! The experiment runner persists it as `blackbox.json`;
//! `trace_tool blackbox` pretty-prints it.
//!
//! Everything here is pure observation over existing state: no detector
//! or dump path mutates the network, and a disabled
//! [`AnomalyConfig`](crate::anomaly::AnomalyConfig) never constructs a
//! recorder at all.

use serde::{Deserialize, Serialize};

use crate::anomaly::{fault_event_total, AnomalyCounts, AnomalyKind, FiredDetector, WindowStats};
use crate::flit::FlitKind;
use crate::journey::PacketJourney;
use crate::network::Network;
use crate::telemetry::TraceEvent;

/// Schema version stamped into every dump (`docs/blackbox.schema.json`
/// tracks the same number).
pub const BLACKBOX_VERSION: u64 = 1;

/// Events an armed recorder's trace ring keeps for the black-box dump
/// when no explicit [`TelemetryConfig::trace_capacity`] sizes the ring.
///
/// [`TelemetryConfig::trace_capacity`]: crate::telemetry::TelemetryConfig::trace_capacity
pub const RING_CAPACITY: usize = 4_096;

/// Consecutive cycles without progress (flit ejection or fabric-state
/// transition) after which the no-progress watchdog fires and halts the
/// run.
pub const NO_PROGRESS_CYCLES: u64 = 1_000;

/// Head-flit age (cycles parked at the front of a VC buffer) above which
/// the starvation detector fires.
pub const STARVATION_AGE: u64 = 2_000;

/// Fault events allowed per window before the fault-storm detector
/// fires.
pub const FAULT_STORM_BUDGET: u64 = 1_000;

/// Latency-spike threshold in percent of the trailing baseline p99: a
/// window whose p99 exceeds 4× the baseline fires.
pub const LATENCY_SPIKE_PCT: u32 = 400;

/// Measured ejections a window needs before its p99 is compared (guards
/// against tiny-sample spikes).
pub const LATENCY_SPIKE_MIN_SAMPLES: u64 = 200;

/// Evaluation cadence in cycles of the windowed detectors (starvation,
/// credit, fault-storm, latency-spike).
pub const WINDOW: u64 = 1_000;

/// One non-idle input VC in a router dump.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VcDump {
    /// Flat `(port, vc)` index (`port * vcs + vc`).
    pub pv: u64,
    /// Input port.
    pub port: u64,
    /// Virtual channel within the port.
    pub vc: u64,
    /// Pipeline state: `idle`, `routing`, `waiting_vc` or `active`.
    pub state: String,
    /// Granted/requested output port (`waiting_vc` and `active` states).
    pub out_port: Option<u64>,
    /// Granted output VC (`active` state only).
    pub out_vc: Option<u64>,
    /// Packet currently serviced by this VC.
    pub packet: Option<u64>,
    /// Flits buffered in this VC's FIFO.
    pub occupancy: u64,
    /// Age in cycles of the head flit (time since it became ready at
    /// the FIFO front), when one is buffered.
    pub head_age: Option<u64>,
    /// Downstream credits held for the *output* VC at the same flat
    /// index (the credit-conservation detector's subject).
    pub credits: u64,
}

/// One router's SoA state at capture time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterDump {
    /// Router node index.
    pub router: u64,
    /// Grid column (for heatmaps, same convention as metrics windows).
    pub x: u64,
    /// Grid row.
    pub y: u64,
    /// Total flits buffered across every input VC.
    pub buffered: u64,
    /// Work-list bitmask of VCs in `Routing` state.
    pub routing_mask: u64,
    /// Work-list bitmask of VCs in `WaitingVc` state.
    pub waiting_mask: u64,
    /// Work-list bitmask of VCs in `Active` state.
    pub active_mask: u64,
    /// Whether the chaos hook froze this router's switch allocator.
    pub sa_frozen: bool,
    /// Every VC that is non-idle or holds flits (idle empty VCs are
    /// omitted — they carry no information).
    pub vcs: Vec<VcDump>,
}

/// One link with flits or credits still on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkDump {
    /// Upstream router.
    pub from_node: u64,
    /// Upstream output port.
    pub from_port: u64,
    /// Downstream router.
    pub to_node: u64,
    /// Downstream input port.
    pub to_port: u64,
    /// Flits in flight (with ARQ: the unacknowledged window).
    pub flits: u64,
    /// Credit returns in flight.
    pub credits: u64,
}

/// One live [`FlitArena`](crate::arena::FlitArena) slot at capture time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArenaSlot {
    /// Arena slot index.
    pub slot: u64,
    /// Owning packet.
    pub packet: u64,
    /// Flit sequence number within the packet (0 = head).
    pub seq: u64,
    /// Flit kind: `head`, `body`, `tail` or `head_tail`.
    pub kind: String,
    /// Packet source node.
    pub src: u64,
    /// Packet destination node.
    pub dst: u64,
    /// Router-to-router hops taken so far.
    pub hops: u64,
    /// Age in cycles since the owning packet was created.
    pub age: u64,
}

/// One packet that was still in flight when the dump was captured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StuckPacket {
    /// Packet id.
    pub packet: u64,
    /// Traffic class name.
    pub class: String,
    /// Source node.
    pub src: u64,
    /// Destination node.
    pub dst: u64,
    /// Creation cycle.
    pub created_at: u64,
    /// Age in cycles at capture time.
    pub age: u64,
    /// Packet length in flits.
    pub len_flits: u64,
    /// Hop-by-hop journey, when the packet was journey-sampled.
    pub journey: Option<PacketJourney>,
}

/// The complete black-box snapshot serialized on a trigger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlackBox {
    /// Dump schema version ([`BLACKBOX_VERSION`]).
    pub version: u64,
    /// Cycle the dump was captured on.
    pub cycle: u64,
    /// The detector that triggered the dump.
    pub trigger: FiredDetector,
    /// Every detector firing so far this run, in order.
    pub fired: Vec<FiredDetector>,
    /// Per-kind firing counts.
    pub counts: AnomalyCounts,
    /// Per-router SoA state.
    pub routers: Vec<RouterDump>,
    /// Links with in-flight flits or credits (quiet links omitted).
    pub links: Vec<LinkDump>,
    /// Every live fabric flit (the arena's contents; queued packets
    /// hold no slot), with position implied by the router/link dumps
    /// that reference its packet.
    pub arena: Vec<ArenaSlot>,
    /// The flight-recorder event ring, oldest first (empty when the
    /// ring was off).
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring before capture.
    pub events_dropped: u64,
    /// Packets injected but not yet ejected, with journeys where
    /// sampled.
    pub stuck_packets: Vec<StuckPacket>,
}

const fn flit_kind_name(kind: FlitKind) -> &'static str {
    match kind {
        FlitKind::Head => "head",
        FlitKind::Body => "body",
        FlitKind::Tail => "tail",
        FlitKind::HeadTail => "head_tail",
    }
}

/// Freezes the network's full state into a [`BlackBox`].
///
/// `stuck` is supplied by the driver (it owns the in-flight packet
/// table); everything else is read straight off the network. Pure
/// observation: `&Network` only.
pub fn capture(
    net: &Network,
    cycle: u64,
    trigger: FiredDetector,
    fired: &[FiredDetector],
    counts: AnomalyCounts,
    stuck_packets: Vec<StuckPacket>,
) -> BlackBox {
    let topo = net.topology();
    let routers = (0..net.routers().len())
        .map(|r| {
            let c = topo.coords(crate::ids::NodeId(r));
            net.routers().dump(r, cycle, c.x as u64, c.y as u64)
        })
        .collect();
    let l = net.links();
    let links = (0..l.len())
        .filter(|&li| l.flits_in_flight(li) > 0 || l.credits_in_flight(li) > 0)
        .map(|li| {
            let (from, to) = (l.from(li), l.to(li));
            LinkDump {
                from_node: from.0.index() as u64,
                from_port: from.1.index() as u64,
                to_node: to.0.index() as u64,
                to_port: to.1.index() as u64,
                flits: l.flits_in_flight(li) as u64,
                credits: l.credits_in_flight(li) as u64,
            }
        })
        .collect();
    let arena = net
        .arena()
        .iter_live()
        .map(|(slot, f)| ArenaSlot {
            slot: u64::from(slot),
            packet: f.packet.0,
            seq: u64::from(f.seq),
            kind: flit_kind_name(f.kind).to_string(),
            src: f.src.index() as u64,
            dst: f.dst.index() as u64,
            hops: u64::from(f.hops),
            age: cycle.saturating_sub(f.created_at),
        })
        .collect();
    let (events, events_dropped) = match net.trace_sink() {
        Some(t) => (t.events().copied().collect(), t.dropped()),
        None => (Vec::new(), 0),
    };
    BlackBox {
        version: BLACKBOX_VERSION,
        cycle,
        trigger,
        fired: fired.to_vec(),
        counts,
        routers,
        links,
        arena,
        events,
        events_dropped,
        stuck_packets,
    }
}

/// The in-flight anomaly evaluator.
///
/// One recorder per run, constructed only when
/// [`AnomalyConfig::is_enabled`](crate::anomaly::AnomalyConfig::is_enabled)
/// — the disabled path never allocates. [`FlightRecorder::evaluate`]
/// runs once per cycle after the network stepped and ejections were
/// processed; it performs the per-cycle no-progress check every call and
/// the windowed checks every [`WINDOW`] cycles.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    counts: AnomalyCounts,
    fired: Vec<FiredDetector>,
    /// Consecutive cycles without ejection progress or a fabric-state
    /// transition.
    stall_cycles: u64,
    /// The previous cycle's progress words
    /// ([`Network::walk_progress_words`]), compared word for word each
    /// cycle. Empty until the first check, which sizes it;
    /// later checks overwrite it in place and allocate nothing.
    last_words: Vec<u64>,
    /// Cumulative ejected-flit count of the previous cycle.
    last_ejected: u64,
    /// Fault-event total at the end of the previous window.
    last_fault_total: u64,
    /// Measured ejection latencies observed in the current window.
    window_latencies: Vec<u64>,
    /// Sum of prior windows' p99s (the trailing baseline numerator).
    baseline_p99_sum: f64,
    /// Prior windows contributing to the baseline.
    baseline_windows: u64,
}

impl FlightRecorder {
    /// Per-kind firing counts so far.
    pub fn counts(&self) -> AnomalyCounts {
        self.counts
    }

    /// Every firing so far, in order.
    pub fn fired(&self) -> &[FiredDetector] {
        &self.fired
    }

    /// Feeds one measured packet's end-to-end latency (the driver calls
    /// this from its ejection path; the latency-spike detector windows
    /// these samples).
    pub fn record_latency(&mut self, latency: u64) {
        self.window_latencies.push(latency);
    }

    fn fire(&mut self, kind: AnomalyKind, cycle: u64, detail: String, stats: WindowStats) {
        self.counts.record(kind);
        self.fired.push(FiredDetector { kind: kind.name().to_string(), cycle, detail, stats });
    }

    /// Runs every detector for `cycle`. Returns `true` when the
    /// no-progress watchdog fired *this* cycle: the run must halt.
    pub fn evaluate(&mut self, net: &Network, cycle: u64) -> bool {
        let stalled = self.check_no_progress(net, cycle);
        if cycle > 0 && cycle.is_multiple_of(WINDOW) {
            self.end_window(net, cycle);
        }
        stalled
    }

    /// Whether any of the fabric's progress words
    /// ([`Network::walk_progress_words`]) differs from the previous
    /// call's, which it then overwrites — one pass, exact equality. The
    /// first call only records the words and reports a change.
    fn fabric_moved(&mut self, net: &Network) -> bool {
        let last_words = &mut self.last_words;
        if last_words.is_empty() {
            net.walk_progress_words(|word| last_words.push(word));
            return true;
        }
        let mut last = last_words.iter_mut();
        let mut moved = false;
        net.walk_progress_words(|word| {
            let last = last.next().expect("progress words have a fixed length");
            moved |= *last != word;
            *last = word;
        });
        moved
    }

    /// The watchdog's per-cycle compare step: progress is a flit
    /// ejection since the previous call *or* any fabric-state transition
    /// ([`fabric_moved`](Self::fabric_moved)).
    fn progressed(&mut self, net: &Network) -> bool {
        let ejected = net.counters().flits_ejected;
        let moved = self.fabric_moved(net);
        let progressed = ejected != self.last_ejected || moved;
        self.last_ejected = ejected;
        progressed
    }

    /// The per-cycle no-progress/deadlock watchdog: while the network
    /// holds flits and makes no [`progress`](Self::progressed) for
    /// [`NO_PROGRESS_CYCLES`] consecutive cycles, the watchdog fires.
    fn check_no_progress(&mut self, net: &Network, cycle: u64) -> bool {
        if self.progressed(net) || net.is_drained() {
            self.stall_cycles = 0;
            return false;
        }
        self.stall_cycles += 1;
        if self.stall_cycles < NO_PROGRESS_CYCLES {
            return false;
        }
        let stats =
            WindowStats { observed: self.stall_cycles, threshold: NO_PROGRESS_CYCLES, samples: 0 };
        let detail = format!(
            "no flit ejected and no fabric-state transition for {} cycles with {} flits in fabric",
            self.stall_cycles,
            net.flits_in_fabric()
        );
        self.fire(AnomalyKind::NoProgress, cycle, detail, stats);
        true
    }

    /// The windowed detectors, evaluated on the window cadence.
    fn end_window(&mut self, net: &Network, cycle: u64) {
        let routers = net.routers();
        let age = (0..routers.len()).map(|r| routers.max_head_age(r, cycle)).max().unwrap_or(0);
        if age > STARVATION_AGE {
            let stats = WindowStats { observed: age, threshold: STARVATION_AGE, samples: 0 };
            let detail = format!("a head flit has been parked for {age} cycles at a VC front");
            self.fire(AnomalyKind::Starvation, cycle, detail, stats);
        }
        let overflows: u64 = (0..routers.len()).map(|r| routers.credit_overflows(r)).sum();
        if overflows > 0 {
            let stats = WindowStats { observed: overflows, threshold: 0, samples: 0 };
            let detail = format!(
                "{overflows} output VCs hold more downstream credits than the buffer depth"
            );
            self.fire(AnomalyKind::CreditViolation, cycle, detail, stats);
        }
        let total = fault_event_total(&net.fault_counters());
        let delta = total - self.last_fault_total;
        self.last_fault_total = total;
        if delta > FAULT_STORM_BUDGET {
            let stats = WindowStats { observed: delta, threshold: FAULT_STORM_BUDGET, samples: 0 };
            let detail = format!("{delta} fault events landed in one window");
            self.fire(AnomalyKind::FaultStorm, cycle, detail, stats);
        }
        self.end_latency_window(cycle);
    }

    /// Closes the latency window: compares its p99 against the trailing
    /// baseline (mean of prior windows' p99s), then folds it into the
    /// baseline.
    fn end_latency_window(&mut self, cycle: u64) {
        let samples = self.window_latencies.len() as u64;
        if samples == 0 {
            return;
        }
        self.window_latencies.sort_unstable();
        let idx = ((self.window_latencies.len() - 1) * 99) / 100;
        let p99 = self.window_latencies[idx];
        self.window_latencies.clear();
        if samples >= LATENCY_SPIKE_MIN_SAMPLES && self.baseline_windows > 0 {
            let baseline = self.baseline_p99_sum / self.baseline_windows as f64;
            let threshold = baseline * f64::from(LATENCY_SPIKE_PCT) / 100.0;
            if p99 as f64 > threshold {
                let stats = WindowStats { observed: p99, threshold: threshold as u64, samples };
                let detail = format!(
                    "window p99 of {p99} cycles exceeds {LATENCY_SPIKE_PCT}% of the trailing baseline p99 ({baseline:.1} cycles)"
                );
                self.fire(AnomalyKind::LatencySpike, cycle, detail, stats);
            }
        }
        self.baseline_p99_sum += p99 as f64;
        self.baseline_windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::flit::FlitData;
    use crate::ids::NodeId;
    use crate::packet::{Packet, PacketClass, PacketId};
    use crate::topology::Mesh2D;
    use crate::traffic::{UniformRandom, Workload};

    fn quiet_net() -> Network {
        Network::new(Box::new(Mesh2D::new(2, 2)), NetworkConfig::default())
    }

    #[test]
    fn no_progress_ignores_a_drained_network() {
        let net = quiet_net();
        let mut rec = FlightRecorder::default();
        for cycle in 0..3 * NO_PROGRESS_CYCLES {
            assert!(!rec.evaluate(&net, cycle), "idle network must never trip");
        }
        assert_eq!(rec.counts().total(), 0);
    }

    #[test]
    fn compare_step_sees_first_call_stillness_and_a_delivery() {
        let mut net = quiet_net();
        let mut rec = FlightRecorder::default();
        assert!(rec.progressed(&net), "the first call has nothing to compare against");
        assert!(!rec.progressed(&net), "an unchanged fabric is no progress");

        // Deliver one single-flit packet and let the fabric settle back
        // to its idle words, so only the ejection can read as progress.
        let idle = net.progress_signature();
        net.enqueue_packet(Packet {
            id: PacketId(0),
            src: NodeId(0),
            dst: NodeId(3),
            class: PacketClass::ReadRequest,
            payload: vec![FlitData::with_active_words(4, 1)],
            created_at: 0,
        });
        let mut cycle = 0;
        while !net.is_drained() {
            net.step(cycle);
            cycle += 1;
        }
        assert_eq!(net.counters().flits_ejected, 1);
        assert_eq!(net.progress_signature(), idle, "the fabric is idle again");
        assert!(rec.progressed(&net), "one delivered flit is progress");
        assert!(!rec.progressed(&net));
    }

    /// The exact word comparison reports a change on exactly the cycles
    /// the FNV-1a `progress_signature` of the same words changes, through
    /// a deadlock: the chaos scenario of `tests/anomaly.rs` on a bare
    /// network, compared every cycle.
    #[test]
    fn word_comparison_agrees_with_the_signature() {
        let mut net = Network::new(Box::new(Mesh2D::new(4, 4)), NetworkConfig::default());
        let mut rec = FlightRecorder::default();
        let mut workload = UniformRandom::new(0.10, 5, 42);
        workload.init(net.topology().num_nodes());
        let (mut last_signature, mut id) = (0u64, 0u64);
        let (mut moved_cycles, mut still_cycles) = (0, 0);
        for cycle in 0..2_000 {
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
            if cycle == 400 {
                net.freeze_router_sa(5);
            }
            net.step(cycle);
            let _ = net.take_ejected();
            let signature = net.progress_signature();
            let moved = rec.fabric_moved(&net);
            assert_eq!(moved, signature != last_signature, "cycle {cycle}");
            last_signature = signature;
            if moved {
                moved_cycles += 1;
            } else {
                still_cycles += 1;
            }
        }
        assert!(moved_cycles > 0 && still_cycles > 0, "{moved_cycles} moved, {still_cycles} still");
    }

    /// Feeds `samples` latencies of `latency` cycles and closes the
    /// window ending at `cycle`.
    fn latency_window(
        rec: &mut FlightRecorder,
        net: &Network,
        latency: u64,
        samples: u64,
        cycle: u64,
    ) {
        for _ in 0..samples {
            rec.record_latency(latency);
        }
        rec.evaluate(net, cycle);
    }

    #[test]
    fn latency_spike_needs_baseline_and_samples() {
        let mut rec = FlightRecorder::default();
        let net = quiet_net();
        // The first window establishes the baseline; no firing possible.
        latency_window(&mut rec, &net, 10, LATENCY_SPIKE_MIN_SAMPLES, WINDOW);
        assert_eq!(rec.counts().latency_spike, 0);
        // The second window's p99 sits exactly at the threshold: no firing.
        let at = 10 * u64::from(LATENCY_SPIKE_PCT) / 100;
        latency_window(&mut rec, &net, at, LATENCY_SPIKE_MIN_SAMPLES, 2 * WINDOW);
        assert_eq!(rec.counts().latency_spike, 0);
        // A p99 just above the threshold over the baseline mean fires.
        let baseline = (10 + at) / 2;
        let above = baseline * u64::from(LATENCY_SPIKE_PCT) / 100 + 1;
        latency_window(&mut rec, &net, above, LATENCY_SPIKE_MIN_SAMPLES, 3 * WINDOW);
        assert_eq!(rec.counts().latency_spike, 1);
        let f = &rec.fired()[0];
        assert_eq!(f.kind, "latency_spike");
        assert_eq!(f.cycle, 3 * WINDOW);
        assert_eq!(f.stats.observed, above);
        assert_eq!(f.stats.samples, LATENCY_SPIKE_MIN_SAMPLES);
    }

    #[test]
    fn latency_spike_respects_min_samples() {
        let mut rec = FlightRecorder::default();
        let net = quiet_net();
        latency_window(&mut rec, &net, 10, LATENCY_SPIKE_MIN_SAMPLES, WINDOW);
        latency_window(&mut rec, &net, 1_000, LATENCY_SPIKE_MIN_SAMPLES - 1, 2 * WINDOW);
        assert_eq!(rec.counts().latency_spike, 0, "small windows must not fire");
    }

    /// One credit returned to an output VC that never sent a flit puts
    /// it above the buffer depth: the violation shows at the next window
    /// boundary, not before.
    #[test]
    fn surplus_credit_is_a_credit_violation() {
        let mut net = quiet_net();
        let mut rec = FlightRecorder::default();
        net.routers_mut().receive_credit(0, crate::topology::port::EAST, crate::ids::VcId(0));
        for cycle in 0..WINDOW {
            rec.evaluate(&net, cycle);
        }
        assert_eq!(rec.counts().total(), 0, "windowed detectors wait for the window");
        rec.evaluate(&net, WINDOW);
        assert_eq!(rec.counts().credit_violation, 1);
        let f = &rec.fired()[0];
        assert_eq!((f.kind.as_str(), f.cycle, f.stats.observed), ("credit_violation", WINDOW, 1));
    }

    #[test]
    fn capture_of_an_idle_network_is_empty_but_valid() {
        let net = quiet_net();
        let trigger = FiredDetector {
            kind: "no_progress".into(),
            cycle: 7,
            detail: "test".into(),
            stats: WindowStats::default(),
        };
        let bb = capture(&net, 7, trigger.clone(), &[trigger], AnomalyCounts::default(), vec![]);
        assert_eq!(bb.version, BLACKBOX_VERSION);
        assert_eq!(bb.routers.len(), 4);
        assert!(bb.links.is_empty() && bb.arena.is_empty() && bb.stuck_packets.is_empty());
        let json = serde_json::to_string(&bb).expect("dump serializes");
        let back: BlackBox = serde_json::from_str(&json).expect("dump round-trips");
        assert_eq!(back.cycle, 7);
        assert_eq!(back.trigger.kind, "no_progress");
    }
}
