//! Cycle-level telemetry: pipeline event tracing, stall attribution, and
//! windowed per-router metrics.
//!
//! The simulator's end-of-run aggregates ([`crate::stats`]) say *how much*
//! a run cost; this module says *where the cycles went*. Three layers:
//!
//! 1. **Event tracing** — a [`TraceSink`] records one [`TraceEvent`] per
//!    pipeline-stage occurrence (buffer write, RC, VA, SA, ST, credit
//!    return, layer gating, faults) into a bounded ring buffer and
//!    exports Chrome trace-event JSON that Perfetto / `chrome://tracing`
//!    load directly (`pid` = router, `tid` = port, `ts` in cycles).
//!
//! 2. **Stall attribution** — every cycle in which a ready flit fails to
//!    advance is charged to exactly one [`StallCause`]: the head flit lost
//!    VC allocation (`VaLoss`), its target output VC was held by another
//!    packet (`RouteBusy`), the downstream buffer had no credit
//!    (`NoCredit`), or the flit lost switch allocation (`SaLoss`). The
//!    per-cause counters therefore sum to the total stalled VC-cycles —
//!    an invariant the property tests enforce. Each stall also reaches
//!    the metrics window and the stalled packet's journey.
//!
//! 3. **Windowed metrics** — with a non-zero
//!    [`TelemetryConfig::metrics_window`], a [`MetricsCollector`] counts
//!    switch traversals and stalls as they happen and closes a
//!    [`MetricsWindow`] every `W` cycles holding per-router buffer
//!    occupancy, per-port link utilisation, stall causes, and the
//!    per-layer shutdown duty cycle (the observable behind the paper's
//!    3DM short-flit gating claim).
//!
//! All of it hangs off one seam, the network's [`Telemetry`]: each emit
//! site in the network and router makes one typed call, which feeds
//! every consumer that is on — the trace ring, the metrics windows and
//! packet journeys ([`crate::journey`]). With all of them off, an emit
//! is a few `Option` checks.

use serde::{Deserialize, Serialize};

use crate::ids::{NodeId, PortId, VcId};
use crate::journey::{JourneyRecorder, PacketJourney};
use crate::packet::{PacketClass, PacketId};
use crate::router::StGrant;

/// What happened (one pipeline-stage occurrence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// A flit was written into an input buffer (BW).
    BufferWrite,
    /// Route computation completed for a head flit (RC).
    RouteCompute,
    /// An output virtual channel was allocated (VA).
    VcAlloc,
    /// A switch-allocation grant was issued (SA).
    SwitchAlloc,
    /// A flit traversed the crossbar (ST; includes LT when combined).
    SwitchTraversal,
    /// A credit returned to an upstream output VC.
    CreditReturn,
    /// Layer shutdown gated one or more datapath layers for a flit.
    LayerGate,
    /// A fault fired: link corruption detected, a link died, or a stuck
    /// gate corrupted a delivery (`detail` = link index).
    FaultInject,
    /// The sender-side ARQ replayed its window (`detail` = flits
    /// resent).
    Retransmit,
    /// A packet was dropped: retries exhausted or lost to a dead link.
    PacketDrop,
}

impl TraceEventKind {
    /// Short display name (used as the trace-event `name`).
    pub const fn name(self) -> &'static str {
        match self {
            TraceEventKind::BufferWrite => "BW",
            TraceEventKind::RouteCompute => "RC",
            TraceEventKind::VcAlloc => "VA",
            TraceEventKind::SwitchAlloc => "SA",
            TraceEventKind::SwitchTraversal => "ST",
            TraceEventKind::CreditReturn => "credit",
            TraceEventKind::LayerGate => "layer_gate",
            TraceEventKind::FaultInject => "fault",
            TraceEventKind::Retransmit => "retransmit",
            TraceEventKind::PacketDrop => "drop",
        }
    }

    /// Trace-event category (`cat` field).
    const fn category(self) -> &'static str {
        match self {
            TraceEventKind::CreditReturn => "flow",
            TraceEventKind::LayerGate => "power",
            TraceEventKind::FaultInject
            | TraceEventKind::Retransmit
            | TraceEventKind::PacketDrop => "fault",
            _ => "pipeline",
        }
    }

    /// Whether the event occupies a cycle (rendered as a duration slice)
    /// or marks an instant.
    const fn is_duration(self) -> bool {
        !matches!(
            self,
            TraceEventKind::CreditReturn
                | TraceEventKind::LayerGate
                | TraceEventKind::FaultInject
                | TraceEventKind::Retransmit
                | TraceEventKind::PacketDrop
        )
    }
}

/// One telemetry event: a pipeline-stage occurrence at a (router, port,
/// VC) in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation cycle of the event.
    pub cycle: u64,
    /// Router at which it happened (trace `pid`).
    pub router: NodeId,
    /// Port involved (trace `tid`): the input port for pipeline stages,
    /// the output port for credit returns.
    pub port: PortId,
    /// Virtual channel involved.
    pub vc: VcId,
    /// Stage / occurrence kind.
    pub kind: TraceEventKind,
    /// Owning packet id (0 for events with no packet, e.g. credits).
    pub packet: u64,
    /// Kind-specific detail: output port for `SwitchTraversal`, number of
    /// gated layers for `LayerGate`, 0 otherwise.
    pub detail: u32,
}

/// A bounded ring buffer of trace events.
///
/// Once `capacity` events are held, each new event overwrites the oldest
/// — no reallocation ever happens past the cap, so tracing a saturated
/// network cannot blow up memory. [`TraceSink::to_chrome_trace`] exports
/// the retained window as Chrome trace-event JSON.
#[derive(Debug, Clone)]
pub struct TraceSink {
    ring: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl TraceSink {
    /// Creates a sink retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceSink { ring: Vec::with_capacity(capacity), capacity, head: 0, dropped: 0 }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records one event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(event);
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Retained events in chronological order (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring[self.head..].iter().chain(self.ring[..self.head].iter())
    }

    /// Renders the retained events as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`): `ph: "X"` slices of one cycle for the
    /// pipeline stages, `ph: "i"` instants for credits and layer gating,
    /// `ts` in cycles, `pid` = router, `tid` = port. Loads directly in
    /// Perfetto (ui.perfetto.dev) and `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        self.chrome_trace_impl(&[])
    }

    /// Like [`TraceSink::to_chrome_trace`], but additionally renders each
    /// journey's hops as a Perfetto *flow* (`ph: "s"`/`"t"`/`"f"`, `id` =
    /// packet id) bound to the `ST` slices at the hop's (router, input
    /// port, cycle) — so a sampled packet's path lights up across router
    /// tracks when a flow arrow is clicked.
    pub fn to_chrome_trace_with_flows(&self, journeys: &[PacketJourney]) -> String {
        self.chrome_trace_impl(journeys)
    }

    fn chrome_trace_impl(&self, journeys: &[PacketJourney]) -> String {
        let mut out = String::with_capacity(self.ring.len() * 96 + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        // Metadata: name each router's process once.
        let mut routers: Vec<usize> = self.events().map(|e| e.router.index()).collect();
        routers.sort_unstable();
        routers.dedup();
        let mut first = true;
        for r in routers {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{r},\"tid\":0,\
                 \"args\":{{\"name\":\"router {r}\"}}}}"
            ));
        }
        for e in self.events() {
            if !first {
                out.push(',');
            }
            first = false;
            let (name, cat) = (e.kind.name(), e.kind.category());
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ts\":{},\"pid\":{},\"tid\":{}",
                e.cycle,
                e.router.index(),
                e.port.index()
            ));
            if e.kind.is_duration() {
                out.push_str(",\"ph\":\"X\",\"dur\":1");
            } else {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
            }
            out.push_str(&format!(
                ",\"args\":{{\"vc\":{},\"packet\":{},\"detail\":{}}}}}",
                e.vc.index(),
                e.packet,
                e.detail
            ));
        }
        // Flow events: one arrow chain per sampled journey, anchored to
        // the ST slice of each hop. Perfetto binds a flow phase to the
        // slice at the same (pid, tid) whose span covers `ts`.
        for j in journeys {
            let closed: Vec<_> = j.hops.iter().filter(|h| h.departed >= h.arrived).collect();
            if closed.len() < 2 {
                continue;
            }
            let last = closed.len() - 1;
            for (i, h) in closed.iter().enumerate() {
                if !first {
                    out.push(',');
                }
                first = false;
                let ph = if i == 0 {
                    "s"
                } else if i == last {
                    "f"
                } else {
                    "t"
                };
                out.push_str(&format!(
                    "{{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"{ph}\",\"id\":{},\
                     \"pid\":{},\"tid\":{},\"ts\":{}",
                    j.packet, h.router, h.in_port, h.departed
                ));
                if ph == "f" {
                    out.push_str(",\"bp\":\"e\"");
                }
                out.push('}');
            }
        }
        out.push_str("]}");
        out
    }
}

/// Why a ready flit failed to advance this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Active VC blocked: the downstream buffer holds no credit.
    NoCredit,
    /// Head flit lost virtual-channel allocation to another requester.
    VaLoss,
    /// Flit was switch-eligible but lost SA1 or SA2 arbitration.
    SaLoss,
    /// Head flit's target output VC is owned by another in-flight packet.
    RouteBusy,
    /// Active VC paused because its output link is in retransmission
    /// backoff after a detected fault (fault injection only).
    LinkFault,
}

/// Stall-cycle counters, attributed by cause.
///
/// `stalled` counts every (input VC, cycle) pair in which a ready flit
/// failed to advance; the router attributes exactly one cause per
/// stalled VC-cycle, so
/// `no_credit + va_loss + sa_loss + route_busy + link_fault == stalled`
/// holds at all times, across window splits, deltas, and merges (the
/// telemetry property tests assert it). `link_fault` stays zero unless
/// fault injection is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallCounters {
    /// Stalled VC-cycles with no downstream credit.
    pub no_credit: u64,
    /// Stalled VC-cycles lost to VA arbitration.
    pub va_loss: u64,
    /// Stalled VC-cycles lost to switch arbitration.
    pub sa_loss: u64,
    /// Stalled VC-cycles waiting for a busy output VC.
    pub route_busy: u64,
    /// Stalled VC-cycles paused on a link in retransmission backoff.
    pub link_fault: u64,
    /// Total stalled VC-cycles (sum of the five causes).
    pub stalled: u64,
}

impl StallCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one stalled VC-cycle to `cause`.
    #[inline]
    pub fn record(&mut self, cause: StallCause) {
        match cause {
            StallCause::NoCredit => self.no_credit += 1,
            StallCause::VaLoss => self.va_loss += 1,
            StallCause::SaLoss => self.sa_loss += 1,
            StallCause::RouteBusy => self.route_busy += 1,
            StallCause::LinkFault => self.link_fault += 1,
        }
        self.stalled += 1;
    }

    /// Sum of the per-cause counters (must equal `stalled`).
    pub fn cause_sum(&self) -> u64 {
        self.no_credit + self.va_loss + self.sa_loss + self.route_busy + self.link_fault
    }

    /// Element-wise difference `self - earlier` (window isolation).
    #[must_use]
    pub fn delta_since(&self, earlier: &StallCounters) -> StallCounters {
        StallCounters {
            no_credit: self.no_credit - earlier.no_credit,
            va_loss: self.va_loss - earlier.va_loss,
            sa_loss: self.sa_loss - earlier.sa_loss,
            route_busy: self.route_busy - earlier.route_busy,
            link_fault: self.link_fault - earlier.link_fault,
            stalled: self.stalled - earlier.stalled,
        }
    }

    /// Element-wise accumulation (aggregating routers or windows).
    pub fn merge(&mut self, other: &StallCounters) {
        self.no_credit += other.no_credit;
        self.va_loss += other.va_loss;
        self.sa_loss += other.sa_loss;
        self.route_busy += other.route_busy;
        self.link_fault += other.link_fault;
        self.stalled += other.stalled;
    }
}

/// Telemetry switches carried by [`crate::sim::SimConfig`].
///
/// All default to `0` = disabled: the network's [`Telemetry`] then holds
/// no consumer and every emit is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Close a [`MetricsWindow`] every this many cycles (0 disables
    /// windowed metrics).
    pub metrics_window: u64,
    /// Record into a [`TraceSink`] with this ring capacity (0 disables
    /// event tracing).
    pub trace_capacity: usize,
    /// Journey-trace this fraction of packets, in parts per million
    /// (`1_000_000` = every packet, 0 disables journey recording). The
    /// sampled set is a deterministic function of packet id and
    /// `journey_seed` (see [`crate::journey::JourneySampler`]).
    pub journey_sample_ppm: u32,
    /// Seed mixed into the journey-sampling hash.
    pub journey_seed: u64,
}

impl TelemetryConfig {
    /// Telemetry fully off (the default).
    pub const fn disabled() -> Self {
        TelemetryConfig {
            metrics_window: 0,
            trace_capacity: 0,
            journey_sample_ppm: 0,
            journey_seed: 0,
        }
    }

    /// Windowed metrics every `cycles` cycles, no event trace.
    pub const fn windows(cycles: u64) -> Self {
        TelemetryConfig {
            metrics_window: cycles,
            trace_capacity: 0,
            journey_sample_ppm: 0,
            journey_seed: 0,
        }
    }

    /// Returns `self` with journey sampling at `ppm` parts per million.
    #[must_use]
    pub const fn with_journeys(mut self, ppm: u32) -> Self {
        self.journey_sample_ppm = ppm;
        self
    }
}

/// One router's metrics over one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterWindowMetrics {
    /// Router node index.
    pub router: usize,
    /// Grid column of the router (for heatmaps).
    pub x: usize,
    /// Grid row of the router.
    pub y: usize,
    /// Mean flits buffered at this router over the window.
    pub occupancy_mean: f64,
    /// Per-output-port utilisation: flits sent / window cycles (index 0
    /// is the local ejection port).
    pub link_util: Vec<f64>,
    /// Stall cycles attributed at this router during the window.
    pub stalls: StallCounters,
    /// Per-layer duty cycle over the window: the fraction of switch
    /// traversals in which each datapath layer was powered (1.0 for every
    /// layer when shutdown never gated anything; empty when no flit
    /// traversed).
    pub layer_duty: Vec<f64>,
    /// Flits sent out of this router (all ports) during the window.
    pub flits_out: u64,
}

/// One closed metrics window: `[start_cycle, end_cycle)` across every
/// router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsWindow {
    /// Zero-based window index.
    pub index: u64,
    /// First cycle covered.
    pub start_cycle: u64,
    /// One past the last cycle covered.
    pub end_cycle: u64,
    /// Per-router metrics, indexed by node id.
    pub routers: Vec<RouterWindowMetrics>,
}

impl MetricsWindow {
    /// Stall counters summed over every router in the window.
    pub fn stall_total(&self) -> StallCounters {
        let mut t = StallCounters::new();
        for r in &self.routers {
            t.merge(&r.stalls);
        }
        t
    }

    /// Mean buffer occupancy over the routers (flits).
    pub fn occupancy_mean(&self) -> f64 {
        if self.routers.is_empty() {
            return 0.0;
        }
        self.routers.iter().map(|r| r.occupancy_mean).sum::<f64>() / self.routers.len() as f64
    }
}

/// Counts one router population's telemetry events as they happen and
/// closes a [`MetricsWindow`] on every window boundary. Owned by the
/// network's [`Telemetry`]; purely observational.
#[derive(Debug)]
pub struct MetricsCollector {
    window: u64,
    coords: Vec<(usize, usize)>,
    /// Ports per router (the `link_util` length).
    ports: usize,
    /// Datapath layers per router (the `layer_duty` length).
    layers: usize,
    /// Per router, buffered flits summed over the open window's cycles.
    occupancy: Vec<u64>,
    /// Per router, stalls charged in the open window.
    stalls: Vec<StallCounters>,
    /// Flits sent per `(router, output port)` in the open window, at
    /// `router * ports + port`.
    flits_out: Vec<u64>,
    /// Switch traversals per `(router, layer)` in the open window in
    /// which the layer was powered, at `router * layers + layer`.
    layer_active: Vec<u64>,
    /// Per router, switch traversals in the open window (the duty-cycle
    /// denominator).
    traversals: Vec<u64>,
    window_start: u64,
    next_index: u64,
    windows: Vec<MetricsWindow>,
}

impl MetricsCollector {
    /// Creates a collector for routers of `ports` ports and `layers`
    /// datapath layers at the given grid coordinates, closing a window
    /// every `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64, coords: Vec<(usize, usize)>, ports: usize, layers: usize) -> Self {
        assert!(window > 0, "metrics window must be positive");
        let n = coords.len();
        MetricsCollector {
            window,
            coords,
            ports,
            layers,
            occupancy: vec![0; n],
            stalls: vec![StallCounters::new(); n],
            flits_out: vec![0; n * ports],
            layer_active: vec![0; n * layers],
            traversals: vec![0; n],
            window_start: 0,
            next_index: 0,
            windows: Vec::new(),
        }
    }

    /// Adds one router's buffered-flit count for the current cycle.
    #[inline]
    pub fn record_occupancy(&mut self, router: usize, buffered: u64) {
        self.occupancy[router] += buffered;
    }

    /// Charges one stalled VC-cycle at `router` to `cause`.
    #[inline]
    pub fn record_stall(&mut self, router: usize, cause: StallCause) {
        self.stalls[router].record(cause);
    }

    /// Counts one switch traversal at `router` out of `out_port` with the
    /// first `active_layers` datapath layers powered (flit words map onto
    /// layers MSB-down).
    #[inline]
    pub fn record_traversal(&mut self, router: usize, out_port: usize, active_layers: usize) {
        self.flits_out[router * self.ports + out_port] += 1;
        let base = router * self.layers;
        for l in &mut self.layer_active[base..base + active_layers] {
            *l += 1;
        }
        self.traversals[router] += 1;
    }

    /// Called at the end of every cycle; closes a window when `cycle` is
    /// the last cycle of one, and starts the next one from zero.
    pub fn end_cycle(&mut self, cycle: u64) {
        if (cycle + 1).saturating_sub(self.window_start) < self.window {
            return;
        }
        let span = ((cycle + 1) - self.window_start) as f64;
        let routers = (0..self.coords.len())
            .map(|i| {
                let flits_out = &self.flits_out[i * self.ports..(i + 1) * self.ports];
                let layer_active = &self.layer_active[i * self.layers..(i + 1) * self.layers];
                let events = self.traversals[i];
                RouterWindowMetrics {
                    router: i,
                    x: self.coords[i].0,
                    y: self.coords[i].1,
                    occupancy_mean: self.occupancy[i] as f64 / span,
                    link_util: flits_out.iter().map(|&n| n as f64 / span).collect(),
                    stalls: self.stalls[i],
                    layer_duty: if events == 0 {
                        Vec::new()
                    } else {
                        layer_active.iter().map(|&n| n as f64 / events as f64).collect()
                    },
                    flits_out: flits_out.iter().sum(),
                }
            })
            .collect();
        self.occupancy.fill(0);
        self.stalls.fill(StallCounters::new());
        self.flits_out.fill(0);
        self.layer_active.fill(0);
        self.traversals.fill(0);
        self.windows.push(MetricsWindow {
            index: self.next_index,
            start_cycle: self.window_start,
            end_cycle: cycle + 1,
            routers,
        });
        self.next_index += 1;
        self.window_start = cycle + 1;
    }

    /// Windows closed so far.
    pub fn windows(&self) -> &[MetricsWindow] {
        &self.windows
    }
}

/// The network's one telemetry seam: the event-trace ring, the metrics
/// windows and the journey recorder, each present only when configured.
///
/// The network and its routers make one typed call per emit site (a
/// buffer write, a switch traversal, a stall, a trace-only stage event)
/// and the call feeds every consumer that is on. Every consumer is
/// purely observational: a run with any of them on is bit-identical to
/// a run with all of them off.
#[derive(Debug, Default)]
pub struct Telemetry {
    pub(crate) trace: Option<TraceSink>,
    pub(crate) metrics: Option<MetricsCollector>,
    pub(crate) journeys: Option<JourneyRecorder>,
    /// Datapath layers per router: a traversal with fewer powered layers
    /// emits a `LayerGate` event.
    layers: usize,
}

impl Telemetry {
    /// Builds the consumers `cfg` turns on for a network of routers with
    /// `ports` ports and `layers` datapath layers at grid `coords`.
    /// `nominal_link_cycles` is the fault-free sender-to-receiver link
    /// latency the journeys split wire time against.
    pub(crate) fn new(
        cfg: TelemetryConfig,
        coords: Vec<(usize, usize)>,
        ports: usize,
        layers: usize,
        nominal_link_cycles: u64,
    ) -> Self {
        Telemetry {
            trace: (cfg.trace_capacity > 0).then(|| TraceSink::new(cfg.trace_capacity)),
            metrics: (cfg.metrics_window > 0)
                .then(|| MetricsCollector::new(cfg.metrics_window, coords, ports, layers)),
            journeys: (cfg.journey_sample_ppm > 0).then(|| {
                JourneyRecorder::new(cfg.journey_sample_ppm, cfg.journey_seed, nominal_link_cycles)
            }),
            layers,
        }
    }

    /// Records a trace-only event (RC, VA, SA, credit return, faults).
    #[inline]
    pub(crate) fn trace_event(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.record(event);
        }
    }

    /// A flit of `packet` was written into the input buffer at
    /// (`router`, `port`, `vc`): the BW event, and for a head flit the
    /// journey's next hop (NIC injection on the local port, a link
    /// arrival otherwise).
    #[inline]
    pub(crate) fn buffer_write(
        &mut self,
        cycle: u64,
        router: NodeId,
        port: PortId,
        vc: VcId,
        packet: PacketId,
        head: bool,
    ) {
        self.trace_event(TraceEvent {
            cycle,
            router,
            port,
            vc,
            kind: TraceEventKind::BufferWrite,
            packet: packet.0,
            detail: 0,
        });
        if let (true, Some(j)) = (head, &mut self.journeys) {
            if port.is_local() {
                j.on_nic_inject(packet, router, cycle);
            } else {
                j.on_link_arrival(packet, router, port, cycle);
            }
        }
    }

    /// A flit of `packet` traversed `router`'s switch per grant `g` with
    /// the first `active_layers` datapath layers powered: the ST (and
    /// `LayerGate`) events, the head's journey hop closing, and the
    /// window's link and layer counts.
    #[inline]
    pub(crate) fn switch_traversal(
        &mut self,
        cycle: u64,
        router: NodeId,
        g: StGrant,
        packet: PacketId,
        head: bool,
        active_layers: usize,
    ) {
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent {
                cycle,
                router,
                port: g.in_port,
                vc: g.in_vc,
                kind: TraceEventKind::SwitchTraversal,
                packet: packet.0,
                detail: g.out_port.index() as u32,
            });
            if active_layers < self.layers {
                t.record(TraceEvent {
                    cycle,
                    router,
                    port: g.out_port,
                    vc: g.out_vc,
                    kind: TraceEventKind::LayerGate,
                    packet: packet.0,
                    detail: (self.layers - active_layers) as u32,
                });
            }
        }
        if let (true, Some(j)) = (head, &mut self.journeys) {
            j.on_st(packet, g.out_port, cycle);
        }
        if let Some(m) = &mut self.metrics {
            m.record_traversal(router.index(), g.out_port.index(), active_layers);
        }
    }

    /// A flit of `packet` stalled at `router` this cycle, charged to
    /// `cause`: the window's stall count and the packet's journey.
    #[inline]
    pub(crate) fn stall(
        &mut self,
        router: NodeId,
        packet: PacketId,
        head: bool,
        cause: StallCause,
    ) {
        if let Some(m) = &mut self.metrics {
            m.record_stall(router.index(), cause);
        }
        if let Some(j) = &mut self.journeys {
            j.on_stall(packet, router, cause, head);
        }
    }

    /// Adds one router's buffered-flit count for the current cycle.
    #[inline]
    pub(crate) fn occupancy(&mut self, router: usize, buffered: u64) {
        if let Some(m) = &mut self.metrics {
            m.record_occupancy(router, buffered);
        }
    }

    /// Closes a metrics window when `cycle` ends one.
    #[inline]
    pub(crate) fn end_cycle(&mut self, cycle: u64) {
        if let Some(m) = &mut self.metrics {
            m.end_cycle(cycle);
        }
    }

    /// A packet was created: opens its journey if it is sampled.
    pub(crate) fn packet_created(
        &mut self,
        packet: PacketId,
        cycle: u64,
        class: PacketClass,
        measured: bool,
    ) {
        if let Some(j) = &mut self.journeys {
            j.on_created(packet, cycle, class, measured);
        }
    }

    /// A packet's tail flit ejected: closes its journey.
    pub(crate) fn packet_ejected(&mut self, packet: PacketId, cycle: u64) {
        if let Some(j) = &mut self.journeys {
            j.on_ejected(packet, cycle);
        }
    }
}

/// Renders sparse `(x, y, value)` cells as a text heatmap: one glyph per
/// router, darker = higher, scaled to the maximum value. Rows print
/// top-to-bottom with y increasing downwards; missing cells print as
/// spaces. The `netview` subcommand of `trace_tool` uses this to show
/// per-router congestion.
pub fn render_heatmap(cells: &[(usize, usize, f64)]) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    if cells.is_empty() {
        return String::new();
    }
    let width = cells.iter().map(|c| c.0).max().unwrap_or(0) + 1;
    let height = cells.iter().map(|c| c.1).max().unwrap_or(0) + 1;
    let max = cells.iter().map(|c| c.2).fold(0.0_f64, f64::max);
    let mut grid = vec![vec![None; width]; height];
    for &(x, y, v) in cells {
        grid[y][x] = Some(v);
    }
    let mut out = String::with_capacity(height * (width + 1));
    for row in &grid {
        for cell in row {
            match cell {
                None => out.push(' '),
                Some(v) => {
                    let idx = if max <= 0.0 {
                        0
                    } else {
                        (((v / max) * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)
                    };
                    out.push(RAMP[idx] as char);
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            router: NodeId(3),
            port: PortId(1),
            vc: VcId(0),
            kind,
            packet: 42,
            detail: 0,
        }
    }

    #[test]
    fn trace_sink_retains_in_order() {
        let mut s = TraceSink::new(8);
        for c in 0..5 {
            s.record(ev(c, TraceEventKind::SwitchTraversal));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.dropped(), 0);
        let cycles: Vec<u64> = s.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn trace_ring_drops_oldest_without_realloc() {
        let mut s = TraceSink::new(4);
        for c in 0..4 {
            s.record(ev(c, TraceEventKind::SwitchAlloc));
        }
        let cap_before = s.ring.capacity();
        for c in 4..11 {
            s.record(ev(c, TraceEventKind::SwitchAlloc));
        }
        assert_eq!(s.len(), 4, "ring never exceeds its cap");
        assert_eq!(s.ring.capacity(), cap_before, "no reallocation past the cap");
        assert_eq!(s.dropped(), 7);
        let cycles: Vec<u64> = s.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9, 10], "oldest events dropped first");
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let mut s = TraceSink::new(16);
        s.record(ev(5, TraceEventKind::RouteCompute));
        s.record(ev(6, TraceEventKind::CreditReturn));
        let json = s.to_chrome_trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"RC\""));
        assert!(json.contains("\"ph\":\"X\""), "stages render as duration slices");
        assert!(json.contains("\"ph\":\"i\""), "credits render as instants");
        assert!(json.contains("\"pid\":3"));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"process_name\""));
        // Must round-trip through a JSON parser.
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v.field("traceEvents").as_array().expect("array");
        assert_eq!(events.len(), 3, "one metadata record plus two events");
    }

    #[test]
    fn stall_counters_sum_invariant() {
        let mut s = StallCounters::new();
        s.record(StallCause::NoCredit);
        s.record(StallCause::VaLoss);
        s.record(StallCause::SaLoss);
        s.record(StallCause::SaLoss);
        s.record(StallCause::RouteBusy);
        s.record(StallCause::LinkFault);
        assert_eq!(s.stalled, 6);
        assert_eq!(s.cause_sum(), s.stalled);
        let snap = s;
        s.record(StallCause::NoCredit);
        let d = s.delta_since(&snap);
        assert_eq!(d.stalled, 1);
        assert_eq!(d.cause_sum(), d.stalled);
        let mut m = StallCounters::new();
        m.merge(&s);
        m.merge(&d);
        assert_eq!(m.cause_sum(), m.stalled);
    }

    #[test]
    fn collector_closes_windows_and_resets() {
        let mut c = MetricsCollector::new(10, vec![(0, 0), (1, 0)], 2, 2);
        for cycle in 0..25 {
            c.record_occupancy(0, 2);
            c.record_occupancy(1, 4);
            if cycle == 3 {
                c.record_stall(0, StallCause::SaLoss);
            }
            // First window only: router 0 sends five flits east (port 1)
            // and one locally; layer 0 carries all six, layer 1 half.
            if cycle < 6 {
                let port = if cycle == 5 { 0 } else { 1 };
                c.record_traversal(0, port, if cycle % 2 == 0 { 2 } else { 1 });
                c.record_traversal(1, 1, 2);
            }
            c.end_cycle(cycle);
        }
        assert_eq!(c.windows().len(), 2, "cycles 0..20 close two windows");
        let w0 = &c.windows()[0];
        assert_eq!((w0.start_cycle, w0.end_cycle), (0, 10));
        assert!((w0.routers[0].occupancy_mean - 2.0).abs() < 1e-12);
        assert!((w0.routers[1].occupancy_mean - 4.0).abs() < 1e-12);
        assert_eq!(w0.stall_total().stalled, 1);
        assert!((w0.routers[0].link_util[1] - 0.5).abs() < 1e-12);
        assert!((w0.routers[0].layer_duty[0] - 1.0).abs() < 1e-12);
        assert!((w0.routers[0].layer_duty[1] - 0.5).abs() < 1e-12);
        let w1 = &c.windows()[1];
        assert_eq!((w1.start_cycle, w1.end_cycle), (10, 20));
        assert_eq!(w1.stall_total().stalled, 0, "window counts reset");
        assert_eq!(w1.routers[0].flits_out, 0, "window counts reset");
        assert!(w1.routers[0].layer_duty.is_empty(), "no traversal, no duty cycle");
    }

    #[test]
    fn fault_events_render_as_instants() {
        let mut s = TraceSink::new(8);
        s.record(ev(2, TraceEventKind::FaultInject));
        s.record(ev(3, TraceEventKind::Retransmit));
        s.record(ev(4, TraceEventKind::PacketDrop));
        let json = s.to_chrome_trace();
        assert!(json.contains("\"name\":\"fault\""));
        assert!(json.contains("\"name\":\"retransmit\""));
        assert!(json.contains("\"name\":\"drop\""));
        assert!(json.contains("\"cat\":\"fault\""));
        assert!(!json.contains("\"ph\":\"X\""), "fault events are instants, not slices");
    }

    #[test]
    fn heatmap_renders_grid() {
        let cells = vec![(0, 0, 0.0), (1, 0, 5.0), (0, 1, 10.0), (1, 1, 2.5)];
        let map = render_heatmap(&cells);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 2);
        assert_eq!(&map[..1], " ", "zero renders as blank");
        assert_eq!(lines[1].chars().next(), Some('@'), "max renders darkest");
        assert!(render_heatmap(&[]).is_empty());
        // All-zero input must not divide by zero.
        let flat = render_heatmap(&[(0, 0, 0.0), (1, 0, 0.0)]);
        assert_eq!(flat, "  \n");
    }
}
