//! The network: routers wired by a topology, plus the network interfaces.
//!
//! [`Network`] owns the routers (`Routers`), the links (`Links`), and
//! per-node network interfaces (NICs) with unbounded source queues, each
//! in dense arrays indexed by router, link and `router * vcs + vc` (see
//! DESIGN.md §14). Packets enter through
//! [`Network::enqueue_packet`]; each cycle the NIC builds the next flits
//! of its queued packets into the local input buffers as space permits,
//! routers advance one cycle, and ejected flits accumulate for the
//! simulator to collect.

use std::collections::{BTreeMap, HashSet, VecDeque};

use mira_obs::phase::{step_timer, Phase as ObsPhase};

use crate::arena::FlitArena;
use crate::config::NetworkConfig;
use crate::error::NocError;
use crate::fault::{FaultConfig, FaultCounters, FaultPlan, Verdict};
use crate::flit::{Flit, FlitData, FlitKind, MAX_FLIT_WORDS};
use crate::ids::{NodeId, PortId, VcId};
use crate::journey::JourneyRecorder;
use crate::link::{delivery_cycle, nominal_latency, FlitInFlight, Links};
use crate::packet::{Packet, PacketClass, PacketId};
use crate::router::{EjectedFlit, Routers, StepScratch};
use crate::stats::{ActivityCounters, RouterActivity};
use crate::telemetry::{
    MetricsCollector, MetricsWindow, StallCounters, Telemetry, TelemetryConfig, TraceEvent,
    TraceEventKind, TraceSink,
};
use crate::topology::Topology;
use crate::worklist::WorkList;

/// A queued packet's header: everything [`Packet::flit`] reads besides
/// the payload (the source is the queue's own node). 24 bytes. It is
/// also what [`Network::packets_in_flight`] reports of each packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedPacket {
    pub(crate) id: PacketId,
    pub(crate) created_at: u64,
    /// Packet length in flits.
    pub(crate) flits: u32,
    /// Destination node (a network has at most
    /// [`MAX_NODES`](crate::config::MAX_NODES) nodes).
    pub(crate) dst: u16,
    pub(crate) class: PacketClass,
}

/// One VC's unbounded source queue at a network interface (NIC).
///
/// Packets are stored compactly: a 24-byte [`QueuedPacket`] header per
/// packet and, per flit, a one-byte payload code (see
/// [`FlitData::code`]). A canonical payload — the output of
/// [`FlitData::dense`] or [`FlitData::with_active_words`], as every
/// synthetic source's is — is that byte alone; any other payload is
/// coded explicit and its words follow, back to back. A flit is rebuilt
/// — exactly as [`Packet::flit`] builds it — and enters the arena only
/// when the NIC writes it into the local input buffer, so the arena
/// holds fabric flits and nothing else, however long the queues grow.
#[derive(Debug, Default)]
struct SourceQueue {
    packets: VecDeque<QueuedPacket>,
    /// Payload code of every queued flit, front to back.
    codes: VecDeque<u8>,
    /// Payload words of every queued explicit flit, front to back.
    words: VecDeque<u32>,
    /// Index of the front packet's next flit to inject.
    next: u32,
}

impl SourceQueue {
    /// Appends `packet`: its header, then its flits' codes and the words
    /// of its explicit flits.
    fn push(&mut self, packet: &Packet) {
        self.packets.push_back(QueuedPacket {
            id: packet.id,
            created_at: packet.created_at,
            flits: u32::try_from(packet.len_flits()).expect("packet length exceeds u32"),
            dst: packet.dst.index() as u16,
            class: packet.class,
        });
        for d in &packet.payload {
            let code = d.code();
            self.codes.push_back(code);
            self.words.extend(&d.words()[..FlitData::stored_words(code)]);
        }
    }

    /// `true` when no packet is queued.
    fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Removes the front packet's next flit and builds it, as
    /// [`Packet::flit`] would, for injection at node `src`.
    fn pop_flit(&mut self, src: NodeId) -> Flit {
        let p = *self.packets.front().expect("pop from an empty source queue");
        let seq = self.next;
        let code = self.codes.pop_front().expect("every queued flit has a code");
        let data = FlitData::from_code(code).unwrap_or_else(|| {
            let n = FlitData::stored_words(code);
            let mut words = [0u32; MAX_FLIT_WORDS];
            for (w, queued) in words.iter_mut().zip(self.words.drain(..n)) {
                *w = queued;
            }
            FlitData::from_words(&words[..n])
        });
        self.advance(1);
        Flit {
            packet: p.id,
            seq,
            kind: FlitKind::at(seq as usize, p.flits as usize),
            src,
            dst: NodeId(usize::from(p.dst)),
            class: p.class,
            data,
            created_at: p.created_at,
            hops: 0,
        }
    }

    /// Drops the rest of the front packet, its stored words included;
    /// returns the number of flits dropped.
    fn drop_front(&mut self) -> usize {
        let rest = self.packets[0].flits - self.next;
        let words: usize = self.codes.drain(..rest as usize).map(FlitData::stored_words).sum();
        self.words.drain(..words);
        self.advance(rest);
        rest as usize
    }

    /// Retires `flits` flits of the front packet, popping the packet
    /// once its tail has gone.
    fn advance(&mut self, flits: u32) {
        self.next += flits;
        if self.next == self.packets[0].flits {
            self.packets.pop_front();
            self.next = 0;
        }
    }
}

/// Live fault-injection state: the compiled plan plus everything the
/// network mutates while executing it. Boxed and absent unless
/// [`Network::set_faults`] engaged it — the default path only ever
/// checks the `Option`.
#[derive(Debug)]
struct FaultRuntime {
    plan: FaultPlan,
    /// Per-link dead flags (permanent kills that already fired).
    dead: Vec<bool>,
    /// Index of the next not-yet-fired entry in the plan's sorted kills.
    next_kill: usize,
    /// Packets severed by a drop: their remaining flits are discarded
    /// wherever they surface (wire, buffers, source queue).
    severed: HashSet<PacketId>,
    /// Drop notifications not yet collected by the simulator.
    dropped: Vec<PacketId>,
    counters: FaultCounters,
}

/// The fault layer's decision for one flit due off a link.
enum Arrival {
    /// Write the flit into the downstream router.
    Accept,
    /// The flit was swallowed on the wire; keep draining the link.
    Swallowed,
    /// A NACK purged the wire: nothing more arrives on the link this
    /// cycle.
    Purged,
}

/// Host-side high-water marks of the network's core data structures
/// (arena and router buffer slabs). Maintained unconditionally — a
/// compare and a store on paths that already mutate the structures —
/// and read only by the observability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricWatermarks {
    /// Peak live flits in the [`FlitArena`].
    pub arena_live_peak: usize,
    /// Arena slot-table size (live + free; peak footprint in slots).
    pub arena_slots: usize,
    /// Peak total buffer occupancy of any single router, flits.
    pub router_buffer_peak: usize,
}

/// A complete network instance.
pub struct Network {
    topo: Box<dyn Topology>,
    cfg: NetworkConfig,
    routers: Routers,
    links: Links,
    /// The NICs' source queues, one per VC, keyed `node * vcs + vc`.
    nics: Vec<SourceQueue>,
    /// Source queues that may hold a packet (a superset; see
    /// [`WorkList`]): NIC injection visits only these.
    backlogged: WorkList,
    /// Flits not yet injected, over every source queue.
    queued_flits: usize,
    /// The single flit store: every flit in the fabric (router buffers,
    /// link wires) lives in one slot here and moves as a
    /// [`FlitRef`](crate::arena::FlitRef).
    /// Queued packets are not in it until the NIC injects their flits.
    arena: FlitArena,
    /// Reusable per-step scratch space shared by every router (router
    /// steps are sequential, so one set suffices for the whole network).
    scratch: StepScratch,
    ejected: Vec<EjectedFlit>,
    counters: ActivityCounters,
    activity: Vec<RouterActivity>,
    /// The one telemetry seam: trace ring, metrics windows and journeys,
    /// each present only when configured; purely observational.
    telemetry: Telemetry,
    /// Fault-injection runtime, absent (and zero-cost) by default.
    faults: Option<Box<FaultRuntime>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.topo.name())
            .field("routers", &self.routers.len())
            .field("links", &self.links.len())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds the network for `topo` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid for `topo` (see [`Network::try_new`]).
    pub fn new(topo: Box<dyn Topology>, cfg: NetworkConfig) -> Self {
        Network::try_new(topo, cfg).expect("invalid network configuration")
    }

    /// Builds the network for `topo` under `cfg`. Construction makes the
    /// same number of heap allocations whatever the topology's size.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidConfig`] when `cfg` fails
    /// [`NetworkConfig::validate_for`] on the topology's node count and
    /// radix.
    pub fn try_new(topo: Box<dyn Topology>, cfg: NetworkConfig) -> Result<Self, NocError> {
        let n = topo.num_nodes();
        let radix = topo.radix();
        cfg.validate_for(n, radix)?;
        let mut routers = Routers::new(n, radix, &cfg);

        // Wire every existing (node, out-port) pair with a unidirectional
        // link to the neighbour's opposite input port. Link ids ascend in
        // (node, port) order, which is what the routers derive their
        // outgoing link ids from.
        let mut wiring = Vec::with_capacity(n * (radix - 1));
        for node in 0..n {
            for p in 1..radix {
                let out_port = PortId(p);
                if let Some(dst) = topo.neighbor(NodeId(node), out_port) {
                    let in_port = topo.opposite_port(out_port);
                    let length = topo.link_length_mm(NodeId(node), out_port);
                    routers.set_out_link(node, out_port, wiring.len());
                    routers.set_in_link(dst.index(), in_port, wiring.len());
                    wiring.push(((NodeId(node), out_port), (dst, in_port), length));
                }
            }
        }
        let links = Links::new(&wiring, cfg.router.pipeline.link_extra_cycles());

        let vcs = cfg.router.vcs_per_port;
        // Pre-size the arena for the fabric's worst case: credit flow
        // control bounds the live flits by the buffer slots (a flit on a
        // wire holds its downstream slot), so the slot table never grows.
        let fabric_slots = n * radix * vcs * cfg.router.buffer_depth;
        Ok(Network {
            scratch: StepScratch::new(radix, vcs),
            arena: FlitArena::with_capacity(fabric_slots),
            topo,
            cfg,
            routers,
            links,
            nics: (0..n * vcs).map(|_| SourceQueue::default()).collect(),
            backlogged: WorkList::new(n * vcs),
            queued_flits: 0,
            ejected: Vec::new(),
            counters: ActivityCounters::new(),
            activity: vec![RouterActivity::default(); n],
            telemetry: Telemetry::default(),
            faults: None,
        })
    }

    /// Engages fault injection per `cfg`: compiles the fault plan
    /// against this network's link table, arms link-level
    /// retransmission on every link, and switches the routers to
    /// fault-aware route computation: traffic reroutes around dead links
    /// (3DM-E express channels fall back to the baseline mesh).
    ///
    /// A disabled config ([`FaultConfig::enabled`] is `false`) is a
    /// no-op: the network stays on the fault-free fast path, which is
    /// bit-identical to a build without the fault subsystem.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::LinkFault`] when an explicit kill addresses
    /// a `(node, port)` with no outgoing link.
    pub fn set_faults(&mut self, cfg: FaultConfig) -> Result<(), NocError> {
        if !cfg.enabled() {
            return Ok(());
        }
        let endpoints: Vec<(usize, usize)> = (0..self.links.len())
            .map(|li| {
                let (node, port) = self.links.from(li);
                (node.index(), port.index())
            })
            .collect();
        let words = (self.cfg.flit_bits / 32).max(1);
        let plan = FaultPlan::compile(cfg, &endpoints, words)?;
        let latency = 1 + self.cfg.router.pipeline.link_extra_cycles();
        let window = self.cfg.router.vcs_per_port * self.cfg.router.buffer_depth;
        self.links.enable_arq(latency, window);
        self.routers.enable_fault_routing();
        self.faults = Some(Box::new(FaultRuntime {
            dead: vec![false; self.links.len()],
            next_kill: 0,
            severed: HashSet::new(),
            dropped: Vec::new(),
            counters: FaultCounters::new(),
            plan,
        }));
        Ok(())
    }

    /// Ignored: stepping is always sequential (DESIGN.md §18). Kept only
    /// so existing callers compile.
    pub fn set_shards(&mut self, _shards: usize) {}

    /// Drains the ids of packets dropped (severed) by the fault
    /// machinery since the last call.
    pub fn take_dropped(&mut self) -> Vec<PacketId> {
        self.faults.as_mut().map_or_else(Vec::new, |f| std::mem::take(&mut f.dropped))
    }

    /// `true` when the fault machinery severed (dropped) packet `pid`.
    pub(crate) fn severed(&self, pid: PacketId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.severed.contains(&pid))
    }

    /// Every packet enqueued and not yet fully ejected, save the ones
    /// the fault machinery severed, in id order, each with its source:
    /// the source queues' headers, then the packets whose flits have all
    /// left their queue, read off their flits in the arena (the tail
    /// gives the length). The network is the one record of these
    /// packets; the simulator keeps no copy.
    pub(crate) fn packets_in_flight(&self) -> impl Iterator<Item = (NodeId, QueuedPacket)> + '_ {
        let vcs = self.cfg.router.vcs_per_port;
        let mut packets = BTreeMap::new();
        for (q, queue) in self.nics.iter().enumerate() {
            packets.extend(queue.packets.iter().map(|p| (p.id, (NodeId(q / vcs), *p))));
        }
        // A tail in the arena has left its queue, so it never overwrites
        // a queued header's length.
        for (_, f) in self.arena.iter_live() {
            let (_, p) = packets.entry(f.packet).or_insert((
                f.src,
                QueuedPacket {
                    id: f.packet,
                    created_at: f.created_at,
                    flits: 0,
                    dst: f.dst.index() as u16,
                    class: f.class,
                },
            ));
            if f.is_tail() {
                p.flits = f.seq + 1;
            }
        }
        packets.into_values().filter(|(_, p)| !self.severed(p.id))
    }

    /// Cumulative fault and recovery counters (all zero when fault
    /// injection is off), with reroutes summed over the routers.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut c = self.faults.as_ref().map_or_else(FaultCounters::new, |f| f.counters);
        c.reroutes = (0..self.routers.len()).map(|r| self.routers.reroutes(r)).sum();
        c
    }

    /// Applies a telemetry configuration, replacing the network's
    /// [`Telemetry`] with the consumers `cfg` turns on: a [`TraceSink`]
    /// ring, metrics windows, journey sampling. Call before stepping;
    /// telemetry never affects simulation behaviour.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        let coords: Vec<(usize, usize)> = (0..self.routers.len())
            .map(|i| {
                let c = self.topo.coords(NodeId(i));
                (c.x, c.y)
            })
            .collect();
        // Nominal fault-free link latency: send at ST, deliver
        // `1 + LT cycles` later (the same latency ARQ replays at).
        let nominal = nominal_latency(self.cfg.router.pipeline.link_extra_cycles());
        self.telemetry = Telemetry::new(cfg, coords, self.topo.radix(), self.cfg.layers, nominal);
    }

    /// The event-trace ring, when tracing is enabled.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.telemetry.trace.as_ref()
    }

    /// Moves out the metrics windows closed so far (empty when windows
    /// are disabled); later windows start a fresh list.
    pub fn take_metrics_windows(&mut self) -> Vec<MetricsWindow> {
        self.telemetry.metrics.as_mut().map_or_else(Vec::new, MetricsCollector::take_windows)
    }

    /// The journey recorder, when journey sampling is enabled.
    pub fn journeys(&self) -> Option<&JourneyRecorder> {
        self.telemetry.journeys.as_ref()
    }

    /// The telemetry seam (the simulator reports packet creations and
    /// ejections through it).
    pub(crate) fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Cumulative stall-cause counters summed over every router.
    pub fn stall_totals(&self) -> StallCounters {
        let mut t = StallCounters::new();
        for r in 0..self.routers.len() {
            t.merge(self.routers.stall_counters(r));
        }
        t
    }

    /// Per-router cumulative stall-cause counters.
    pub fn router_stalls(&self) -> Vec<StallCounters> {
        (0..self.routers.len()).map(|r| *self.routers.stall_counters(r)).collect()
    }

    /// The topology driving this network.
    pub fn topology(&self) -> &dyn Topology {
        &*self.topo
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Cumulative activity counters since construction.
    pub fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    /// Cumulative per-router activity since construction (spatial power
    /// distribution for the thermal analysis).
    pub fn router_activity(&self) -> &[RouterActivity] {
        &self.activity
    }

    /// Appends `packet` to the source queue at its source node; its
    /// flits are built one by one as the NIC injects them.
    ///
    /// # Panics
    ///
    /// Panics if the packet has no flits, or if its source or destination
    /// node is outside the topology.
    pub fn enqueue_packet(&mut self, packet: Packet) {
        assert!(packet.len_flits() > 0, "packet must have at least one flit");
        assert!(packet.src.index() < self.routers.len(), "unknown source {}", packet.src);
        assert!(packet.dst.index() < self.routers.len(), "unknown destination {}", packet.dst);
        let vc = packet.class.vc_index().min(self.cfg.router.vcs_per_port - 1);
        let q = packet.src.index() * self.cfg.router.vcs_per_port + vc;
        self.queued_flits += packet.len_flits();
        self.nics[q].push(&packet);
        self.backlogged.insert(q);
    }

    /// Advances the whole network by one cycle.
    ///
    /// Each numbered section is one `mira-obs` phase of a
    /// [`StepTimer`](mira_obs::phase::StepTimer): one clock read per
    /// boundary ends a section and starts the next, so the five sections
    /// tile the whole body under
    /// [`Phase::StepTotal`](mira_obs::phase::Phase) by construction. With
    /// observability off (the default) the timer costs one relaxed
    /// atomic load per step.
    ///
    /// The fault-free link delivery, the router loop and NIC injection
    /// walk work-lists (links with something on the wire, routers that
    /// may be busy, non-empty source queues) in ascending order, so they
    /// cost what the traffic costs and visit the working elements in the
    /// order a full scan would (DESIGN.md §14).
    pub fn step(&mut self, cycle: u64) {
        // 1. Deliver due flits and credits from the links — through the
        // fault layer when fault injection is engaged.
        let mut sections = step_timer(ObsPhase::LinkDelivery);
        self.counters.cycles += 1;
        if self.faults.is_some() {
            let mut fr = self.faults.take().expect("checked above");
            self.fault_link_phase(cycle, &mut fr);
            self.faults = Some(fr);
        } else {
            let mut from = 0;
            while let Some(li) = self.links.busy().next_from(from) {
                from = li + 1;
                self.drain_link(li, cycle, |_, _, _| Arrival::Accept);
                self.links.retire_if_idle(li);
            }
        }

        // 2. Router pipelines. Quiescent routers (no buffered flit, no
        // pending switch grant) are provably no-ops — no counter, stall,
        // trace, or arbiter state can change — so the active-set skip
        // costs nothing in fidelity and most of the fabric at low load.
        sections.next(ObsPhase::RouterPipeline);
        let mut from = 0;
        while let Some(r) = self.routers.awake().next_from(from) {
            from = r + 1;
            if self.routers.retire_if_quiescent(r) {
                continue;
            }
            self.routers.step(
                r,
                cycle,
                &*self.topo,
                &mut self.arena,
                &mut self.links,
                &mut self.scratch,
                &mut self.counters,
                &mut self.activity[r],
                &mut self.ejected,
                &mut self.telemetry,
            );
        }

        // 3. Occupancy accounting: buffered flits this cycle (globally
        // for the energy model from the running total, per router only
        // for the metrics windows).
        sections.next(ObsPhase::Occupancy);
        self.counters.buffer_occupancy_flit_cycles += self.routers.buffered_total() as u64;
        if self.telemetry.metrics.is_some() {
            for r in 0..self.routers.len() {
                self.telemetry.occupancy(r, self.routers.buffered_flits(r) as u64);
            }
        }

        // 4. NIC injection: build the next flits of the queued packets
        // into the local input buffers, allocating each flit's arena slot
        // only now. This runs after the router phase so that a slot freed
        // by ST in this cycle is immediately refillable — the NIC plays
        // the role of an upstream pipeline latch, keeping wormhole
        // streaming gapless.
        sections.next(ObsPhase::NicInject);
        let vcs = self.cfg.router.vcs_per_port;
        let mut from = 0;
        while let Some(q) = self.backlogged.next_from(from) {
            from = q + 1;
            let (node, vc) = (q / vcs, VcId(q % vcs));
            let queue = &mut self.nics[q];
            loop {
                // The rest of a severed packet dies at the source: the
                // packet can no longer be delivered whole.
                if let Some(fr) = &mut self.faults {
                    while queue.packets.front().is_some_and(|p| fr.severed.contains(&p.id)) {
                        let rest = queue.drop_front();
                        fr.counters.flits_dropped += rest as u64;
                        self.queued_flits -= rest;
                    }
                }
                // A full local buffer is checked before the queue is read:
                // past saturation most queues wait on one. An emptied
                // queue left on the list meanwhile is retired on a later
                // visit.
                if self.routers.local_free_slots(node, vc) == 0 {
                    break;
                }
                if queue.is_empty() {
                    self.backlogged.remove(q);
                    break;
                }
                let flit = queue.pop_flit(NodeId(node));
                let (packet, head) = (flit.packet, flit.is_head());
                let fref = self.arena.alloc(flit);
                self.queued_flits -= 1;
                self.counters.flits_injected += 1;
                self.telemetry.buffer_write(cycle, NodeId(node), PortId::LOCAL, vc, packet, head);
                self.routers.receive_flit(
                    node,
                    PortId::LOCAL,
                    vc,
                    fref,
                    &self.arena,
                    cycle,
                    &mut self.counters,
                    &mut self.activity[node],
                );
            }
        }

        // 5. Close a metrics window on its boundary cycle.
        sections.next(ObsPhase::Telemetry);
        self.telemetry.end_cycle(cycle);
    }

    /// The link-delivery tail both delivery paths share: every flit due
    /// on link `li` passes `arrive` (the fault layer's verdict; the
    /// fault-free path accepts them all) and, if accepted, is written
    /// into the downstream router, after its telemetry (the BW event and
    /// a head's journey arrival); then every due credit returns upstream.
    #[inline]
    fn drain_link(
        &mut self,
        li: usize,
        cycle: u64,
        mut arrive: impl FnMut(&mut Self, &FlitInFlight, u64) -> Arrival,
    ) {
        while let Some((f, seq)) = self.links.take_due_flit(li, cycle) {
            match arrive(self, &f, seq) {
                Arrival::Accept => {}
                Arrival::Swallowed => continue,
                Arrival::Purged => break,
            }
            let (dst, port) = self.links.to(li);
            let flit = self.arena.get(f.flit);
            self.telemetry.buffer_write(cycle, dst, port, f.vc(), flit.packet, flit.is_head());
            self.routers.receive_flit(
                dst.index(),
                port,
                f.vc(),
                f.flit,
                &self.arena,
                cycle,
                &mut self.counters,
                &mut self.activity[dst.index()],
            );
        }
        while let Some(c) = self.links.take_due_credit(li, cycle) {
            let (src, port) = self.links.from(li);
            self.telemetry.trace_event(TraceEvent {
                cycle,
                router: src,
                port,
                vc: c.vc(),
                kind: TraceEventKind::CreditReturn,
                packet: 0,
                detail: 0,
            });
            self.routers.receive_credit(src.index(), port, c.vc());
        }
    }

    /// Host-side high-water marks of the core data structures, for the
    /// observability layer (`mira-obs`): these measure the *simulator's*
    /// memory behaviour, not the simulated network's.
    pub fn watermarks(&self) -> FabricWatermarks {
        FabricWatermarks {
            arena_live_peak: self.arena.live_peak(),
            arena_slots: self.arena.capacity_slots(),
            router_buffer_peak: (0..self.routers.len())
                .map(|r| self.routers.buffer_peak(r))
                .max()
                .unwrap_or(0),
        }
    }

    /// Marks `pid` severed (dropped): its remaining flits are discarded
    /// wherever they surface and the simulator is notified once.
    fn sever(&mut self, fr: &mut FaultRuntime, pid: PacketId, site: (NodeId, PortId), cycle: u64) {
        if fr.severed.insert(pid) {
            fr.counters.packets_dropped += 1;
            fr.dropped.push(pid);
            self.telemetry.trace_event(TraceEvent {
                cycle,
                router: site.0,
                port: site.1,
                vc: VcId(0),
                kind: TraceEventKind::PacketDrop,
                packet: pid.0,
                detail: 0,
            });
        }
    }

    /// The fault-aware replacement for the link-delivery phase: fires
    /// due permanent kills, reaps severed-packet stubs out of router
    /// buffers, services scheduled retransmissions, applies the fault
    /// plan's verdict to every delivery, and keeps the per-router
    /// link-paused flags current.
    fn fault_link_phase(&mut self, cycle: u64, fr: &mut FaultRuntime) {
        // (a) Fire scheduled permanent kills. The forward wire dies (the
        // reverse credit wire is modelled as surviving — credits are an
        // abstraction of buffer state, not a physical channel here);
        // every unacknowledged flit is lost, its packet severed, and its
        // reserved downstream slot credited back so upstream streaming
        // into the black hole does not wedge.
        while fr.next_kill < fr.plan.kills().len() && fr.plan.kills()[fr.next_kill].cycle <= cycle {
            let li = fr.plan.kills()[fr.next_kill].link;
            fr.next_kill += 1;
            if fr.dead[li] {
                continue;
            }
            fr.dead[li] = true;
            fr.counters.links_killed += 1;
            let (node, port) = self.links.from(li);
            for (pid, vc) in self.links.kill(li, &mut self.arena) {
                fr.counters.flits_dropped += 1;
                self.links.send_credit(li, vc, delivery_cycle(cycle, 0));
                self.sever(fr, pid, (node, port), cycle);
            }
            self.routers.on_port_death(node.index(), port);
            self.telemetry.trace_event(TraceEvent {
                cycle,
                router: node,
                port,
                vc: VcId(0),
                kind: TraceEventKind::FaultInject,
                packet: 0,
                detail: li as u32,
            });
        }

        // (b) Reap buffered stubs of severed packets (skipping VCs with
        // a pending switch grant; they purge next cycle).
        if !fr.severed.is_empty() {
            for r in 0..self.routers.len() {
                fr.counters.flits_dropped += self.routers.purge_severed(
                    r,
                    &fr.severed,
                    cycle,
                    &mut self.arena,
                    &mut self.links,
                );
            }
        }

        // (c) Per link: execute due retransmissions, then deliver what
        // survives the fault plan.
        for li in 0..self.links.len() {
            let resent = self.links.arq_service(li, cycle, &mut self.arena);
            if resent > 0 {
                fr.counters.retransmissions += resent;
                let (node, port) = self.links.from(li);
                self.telemetry.trace_event(TraceEvent {
                    cycle,
                    router: node,
                    port,
                    vc: VcId(0),
                    kind: TraceEventKind::Retransmit,
                    packet: 0,
                    detail: resent as u32,
                });
            }
            self.drain_link(li, cycle, |net, f, seq| net.fault_arrival(fr, li, f, seq, cycle));
        }

        // (d) Refresh the per-router pause flags: a link replaying its
        // window admits no new grants. Dead links are never paused —
        // upstream VCs already streaming must keep draining into the
        // black hole to free themselves.
        for li in 0..self.links.len() {
            let (node, port) = self.links.from(li);
            let paused = !fr.dead[li] && self.links.arq_resend_pending(li);
            self.routers.set_link_paused(node.index(), port, paused);
        }
    }

    /// Applies the fault plan to flit `f` (link-level sequence number
    /// `seq`) arriving off link `li`: a dead
    /// link or a severed packet swallows it, a detected corruption
    /// NACKs it (purging the wire, and severing the packet once the
    /// retry budget is spent), and anything else is acknowledged and
    /// accepted — with its bits flipped if the corruption escaped.
    fn fault_arrival(
        &mut self,
        fr: &mut FaultRuntime,
        li: usize,
        f: &FlitInFlight,
        seq: u64,
        cycle: u64,
    ) -> Arrival {
        let (dst, port) = self.links.to(li);
        let upstream = self.links.from(li);
        let pid = self.arena.get(f.flit).packet;
        if fr.dead[li] || fr.severed.contains(&pid) {
            // Black hole (the link died under the flit) or a stub of an
            // already-dropped packet: swallow it, acknowledge so the
            // window drains, and credit the reserved slot back.
            self.links.arq_ack(li, seq);
            fr.counters.flits_dropped += 1;
            self.links.send_credit(li, f.vc(), delivery_cycle(cycle, 0));
            self.arena.free(f.flit);
            if fr.dead[li] {
                self.sever(fr, pid, upstream, cycle);
            }
            return Arrival::Swallowed;
        }
        let (num_words, active_words) = {
            let data = &self.arena.get(f.flit).data;
            (data.num_words(), data.active_words())
        };
        let verdict =
            fr.plan.verdict(li, seq, cycle, num_words, active_words, self.cfg.layer_shutdown);
        let fault_event = TraceEvent {
            cycle,
            router: dst,
            port,
            vc: f.vc(),
            kind: TraceEventKind::FaultInject,
            packet: pid.0,
            detail: li as u32,
        };
        match verdict {
            Verdict::Clean => self.links.arq_ack(li, seq),
            Verdict::Masked => {
                // The flip landed on a slice the short-flit shutdown
                // gated off: never transported, so the flit arrives
                // pristine.
                fr.counters.transient_faults += 1;
                fr.counters.masked += 1;
                self.links.arq_ack(li, seq);
            }
            Verdict::Escaped { word, mask } => {
                fr.counters.transient_faults += 1;
                fr.counters.escaped += 1;
                self.arena.get_mut(f.flit).data.flip_bits(word, mask);
                self.links.arq_ack(li, seq);
                self.telemetry.trace_event(fault_event);
            }
            Verdict::Detected => {
                let stuck = fr
                    .plan
                    .stuck_gate(li)
                    .is_some_and(|(onset, healthy)| cycle >= onset && active_words > healthy);
                if stuck {
                    fr.counters.stuck_faults += 1;
                } else {
                    fr.counters.transient_faults += 1;
                }
                fr.counters.detected += 1;
                self.telemetry.trace_event(fault_event);
                // The popped copy is discarded (the pristine window
                // clone replays later); its slot dies here.
                self.arena.free(f.flit);
                let retries = self.links.arq_nack(li, cycle, &mut self.arena);
                let budget = fr.plan.config().max_retries;
                if budget > 0 && retries > budget {
                    if let Some((pid, vcs)) = self.links.arq_drop_front_packet(li) {
                        fr.counters.flits_dropped += vcs.len() as u64;
                        for vc in vcs {
                            self.links.send_credit(li, vc, delivery_cycle(cycle, 0));
                        }
                        self.sever(fr, pid, upstream, cycle);
                    }
                }
                // The NACK purged the wire; nothing further is due on
                // this link this cycle.
                return Arrival::Purged;
            }
        }
        Arrival::Accept
    }

    /// Removes and returns the flits ejected so far.
    pub fn take_ejected(&mut self) -> Vec<EjectedFlit> {
        std::mem::take(&mut self.ejected)
    }

    /// Moves the flits ejected so far into `out`, reusing its capacity —
    /// the allocation-free alternative to [`Network::take_ejected`].
    pub fn drain_ejected(&mut self, out: &mut Vec<EjectedFlit>) {
        out.append(&mut self.ejected);
    }

    /// Read access to the flit arena (slot-conservation checks in tests
    /// and diagnostics; the simulation itself never needs this).
    pub fn arena(&self) -> &FlitArena {
        &self.arena
    }

    /// Flits inside the network fabric (router buffers + links), excluding
    /// source queues.
    pub fn flits_in_fabric(&self) -> usize {
        self.routers.buffered_total()
            + (0..self.links.len()).map(|li| self.links.flits_in_flight(li)).sum::<usize>()
    }

    /// Flits waiting in source queues.
    pub fn flits_in_source_queues(&self) -> usize {
        self.queued_flits
    }

    /// Bytes the source-queue backlog holds (DESIGN.md §14): a 24-byte
    /// header per queued packet, a code byte per queued flit and 4 bytes
    /// per stored word of an explicit flit; spare deque capacity is not
    /// counted. Walks every queue.
    pub fn source_queue_bytes(&self) -> usize {
        self.nics
            .iter()
            .map(|q| {
                q.packets.len() * std::mem::size_of::<QueuedPacket>()
                    + q.codes.len()
                    + q.words.len() * std::mem::size_of::<u32>()
            })
            .sum()
    }

    /// Checks every work-list invariant, panicking on the first
    /// violation — the check the property-test suite applies after every
    /// simulated cycle:
    ///
    /// * each router's stage masks agree with its VC states
    ///   (`Routers::assert_worklists_consistent`);
    /// * every non-quiescent router is on the awake list, every link
    ///   with a flit or credit on its wire is on the busy list, and
    ///   every non-empty source queue is on the backlog list (the lists
    ///   may over-include, never miss);
    /// * the running buffer occupancy equals the sum over the routers.
    pub fn assert_worklists_consistent(&self) {
        let mut buffered = 0;
        for r in 0..self.routers.len() {
            self.routers.assert_worklists_consistent(r);
            buffered += self.routers.buffered_flits(r);
            assert!(
                self.routers.is_quiescent(r) || self.routers.awake().contains(r),
                "router {r} is busy but off the awake list"
            );
        }
        assert_eq!(self.routers.buffered_total(), buffered, "running occupancy drifted");
        for li in 0..self.links.len() {
            assert!(
                self.links.wire_idle(li) || self.links.busy().contains(li),
                "link {li} holds a flit or credit but is off the busy list"
            );
        }
        for (q, queue) in self.nics.iter().enumerate() {
            assert!(
                queue.is_empty() || self.backlogged.contains(q),
                "source queue {q} holds packets but is off the backlog list"
            );
        }
    }

    /// Returns `true` when no flit remains anywhere (fabric and sources).
    pub fn is_drained(&self) -> bool {
        self.flits_in_fabric() == 0
            && self.flits_in_source_queues() == 0
            && (0..self.links.len()).all(|li| self.links.is_quiescent(li))
            && (0..self.routers.len()).all(|r| self.routers.is_quiescent(r))
    }

    /// Read access to the routers (black-box dumps and tests).
    pub(crate) fn routers(&self) -> &Routers {
        &self.routers
    }

    /// Write access to the routers, for tests that break an invariant
    /// on purpose.
    #[cfg(test)]
    pub(crate) fn routers_mut(&mut self) -> &mut Routers {
        &mut self.routers
    }

    /// Read access to the links (black-box dumps and tests).
    pub(crate) fn links(&self) -> &Links {
        &self.links
    }

    /// Walks the fabric's structural state as a word sequence, calling
    /// `visit` on each word: every router's progress word (work-list
    /// masks, buffer occupancy, pending switch grants), then every
    /// link's flits and credits in flight. Any flit movement or
    /// pipeline-state transition changes a word; a truly wedged fabric
    /// (deadlock, frozen allocator) keeps every word constant cycle
    /// after cycle — which is exactly what the no-progress watchdog
    /// compares. Source queues are deliberately excluded: continued
    /// injection into a deadlocked fabric must not read as progress.
    /// The length is fixed for a network's lifetime.
    #[inline]
    pub(crate) fn walk_progress_words(&self, mut visit: impl FnMut(u64)) {
        for r in 0..self.routers.len() {
            for word in self.routers.progress_word(r) {
                visit(word);
            }
        }
        for li in 0..self.links.len() {
            visit(self.links.flits_in_flight(li) as u64);
            visit(self.links.credits_in_flight(li) as u64);
        }
    }

    /// An FNV-1a hash over the fabric's progress words (each router's
    /// work-list masks, occupancy and pending grants, then each link's
    /// flits and credits in flight), fed one little-endian byte at a
    /// time: a one-word digest of the fabric's structural state. The
    /// benchmark's step digests hash it, and the watchdog's equivalence
    /// test uses it as the reference for the exact word comparison the
    /// watchdog itself performs.
    pub fn progress_signature(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        self.walk_progress_words(|word| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        });
        hash
    }

    /// Chaos hook: permanently freezes `node`'s switch allocator (see
    /// [`crate::recorder`]). Flits keep arriving and buffering at the
    /// frozen router but never leave it — the deterministic stall
    /// behind [`SimConfig::chaos_stall`](crate::sim::SimConfig::chaos_stall).
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn freeze_router_sa(&mut self, node: usize) {
        self.routers.freeze_sa(node);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::config::RouterConfig;
    use crate::flit::FlitData;
    use crate::packet::PacketClass;
    use crate::topology::Mesh2D;
    use crate::traffic::{PayloadProfile, UniformRandom, Workload};

    fn mk_net() -> Network {
        Network::new(Box::new(Mesh2D::new(4, 4)), NetworkConfig::default())
    }

    fn mk_packet(id: u64, src: usize, dst: usize, len: usize) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class: if len > 1 { PacketClass::DataResponse } else { PacketClass::ReadRequest },
            payload: (0..len).map(|_| FlitData::dense(4)).collect(),
            created_at: 0,
        }
    }

    fn run_until_drained(net: &mut Network, max_cycles: u64) -> Vec<EjectedFlit> {
        let mut out = Vec::new();
        for c in 0..max_cycles {
            net.step(c);
            out.extend(net.take_ejected());
            if net.is_drained() {
                return out;
            }
        }
        panic!("network did not drain within {max_cycles} cycles");
    }

    #[test]
    fn queued_flits_rebuild_as_packet_flit_and_a_drop_skips_the_packet() {
        // Payloads of every width 1..=MAX_FLIT_WORDS, dense and short
        // (one live word, the rest zero or all ones).
        let payload = |width: usize| {
            let mut all_ones = vec![0x55u32; width];
            all_ones[1..].fill(u32::MAX);
            vec![
                FlitData::dense(width),
                FlitData::with_active_words(width, 1),
                FlitData::from_words(&all_ones),
            ]
        };
        let packet = |id: u64, payload: Vec<FlitData>| Packet {
            id: PacketId(id),
            src: NodeId(3),
            dst: NodeId(9),
            class: PacketClass::DataResponse,
            payload,
            created_at: 40 + id,
        };
        let mut q = SourceQueue::default();
        let packets: Vec<Packet> =
            (1..=MAX_FLIT_WORDS).map(|w| packet(w as u64, payload(w))).collect();
        let single = packet(100, vec![FlitData::zeroed(4)]);
        let severed = packet(101, (1..=5).flat_map(payload).collect());
        let last = packet(102, payload(4));
        for p in packets.iter().chain([&single, &severed, &last]) {
            q.push(p);
        }
        for p in packets.iter().chain([&single]) {
            for i in 0..p.len_flits() {
                assert_eq!(q.pop_flit(NodeId(3)), p.flit(i), "packet {} flit {i}", p.id);
            }
        }
        // Two flits of the severed packet go out; the drop takes the
        // rest, and the next packet's flits still rebuild word for word.
        assert_eq!(q.pop_flit(NodeId(3)), severed.flit(0));
        assert_eq!(q.pop_flit(NodeId(3)), severed.flit(1));
        assert_eq!(q.drop_front(), severed.len_flits() - 2);
        // Only the explicit (all-ones) flits store words.
        let words: usize = last.payload.iter().map(|d| FlitData::stored_words(d.code())).sum();
        assert_eq!(words, 4);
        assert_eq!(q.words.len(), words, "the drop skipped exactly its packet's words");
        assert_eq!(q.codes.len(), last.len_flits());
        for i in 0..last.len_flits() {
            assert_eq!(q.pop_flit(NodeId(3)), last.flit(i));
        }
        assert!(q.is_empty() && q.codes.is_empty() && q.words.is_empty());
    }

    /// One payload of `width` words. Kinds 0 and 1 are canonical
    /// (`dense`, `with_active_words(width, active)`); 2 is explicit
    /// random words; 3 to 5 are near misses of a canonical payload (one
    /// bit flipped, `zeroed`, all ones).
    fn payload_of(width: usize, kind: u8, active: usize, words: &[u32], bit: u32) -> FlitData {
        match kind {
            0 => FlitData::dense(width),
            1 => FlitData::with_active_words(width, active),
            2 => FlitData::from_words(&words[..width]),
            3 => {
                let mut d = FlitData::with_active_words(width, active);
                d.flip_bits(active.min(width - 1), 1 << bit);
                d
            }
            4 => FlitData::zeroed(width),
            _ => FlitData::from_words(&[u32::MAX; MAX_FLIT_WORDS][..width]),
        }
    }

    proptest! {
        /// Every queued flit rebuilds as `Packet::flit(i)` whatever its
        /// payload, only canonical payloads are coded without words, and
        /// a drop skips exactly the rest of its packet, with the next
        /// packet already queued behind it.
        #[test]
        fn coded_flits_rebuild_as_packet_flit_under_drops(
            packets in proptest::collection::vec(
                (
                    1usize..=MAX_FLIT_WORDS,
                    proptest::collection::vec(
                        (
                            0u8..6,
                            0usize..=MAX_FLIT_WORDS + 1,
                            proptest::collection::vec(any::<u32>(), MAX_FLIT_WORDS),
                            0u32..32,
                        ),
                        1..7,
                    ),
                    0usize..8,
                ),
                1..12,
            )
        ) {
            let packets: Vec<(Packet, usize)> = packets
                .iter()
                .enumerate()
                .map(|(id, (width, flits, drop_at))| {
                    let payload = flits
                        .iter()
                        .map(|(kind, active, words, bit)| {
                            let d = payload_of(*width, *kind, *active, words, *bit);
                            let canonical = FlitData::stored_words(d.code()) == 0;
                            assert_eq!(canonical, *kind < 2, "kind {kind} coded {:#04x}", d.code());
                            d
                        })
                        .collect();
                    let packet = Packet {
                        id: PacketId(id as u64),
                        src: NodeId(2),
                        dst: NodeId(5),
                        class: PacketClass::DataResponse,
                        payload,
                        created_at: id as u64,
                    };
                    (packet, *drop_at)
                })
                .collect();
            let mut q = SourceQueue::default();
            q.push(&packets[0].0);
            for (i, (p, drop_at)) in packets.iter().enumerate() {
                if let Some((next, _)) = packets.get(i + 1) {
                    q.push(next);
                }
                let sent = (*drop_at).min(p.len_flits());
                for f in 0..sent {
                    prop_assert_eq!(q.pop_flit(NodeId(2)), p.flit(f));
                }
                if sent < p.len_flits() {
                    prop_assert_eq!(q.drop_front(), p.len_flits() - sent);
                }
            }
            prop_assert!(q.is_empty() && q.codes.is_empty() && q.words.is_empty());
        }
    }

    #[test]
    fn synthetic_payloads_queue_as_one_code_byte_a_flit() {
        let mut net = mk_net();
        let mut w =
            UniformRandom::new(0.5, 5, 7).with_payload(PayloadProfile::with_short_fraction(4, 0.5));
        w.init(16);
        let (mut packets, mut flits) = (0, 0);
        for spec in (0..200).flat_map(|c| w.generate(c)) {
            packets += 1;
            flits += spec.payload.len();
            net.enqueue_packet(Packet {
                id: PacketId(packets),
                src: spec.src,
                dst: spec.dst,
                class: spec.class,
                payload: spec.payload,
                created_at: 0,
            });
        }
        assert!(flits > 1_000, "{flits} flits queued");
        assert!(net.nics.iter().all(|q| q.words.is_empty()), "a canonical payload stored words");
        assert_eq!(net.nics.iter().map(|q| q.codes.len()).sum::<usize>(), flits);
        assert_eq!(net.source_queue_bytes(), 24 * packets as usize + flits);
    }

    #[test]
    fn queued_packet_header_is_24_bytes() {
        assert_eq!(std::mem::size_of::<QueuedPacket>(), 24);
    }

    #[test]
    fn router_widths_are_checked_at_construction() {
        // A 7-port 3D mesh router: 7 x 9 = 63 (port, vc) pairs fit the
        // work-list masks, 7 x 10 = 70 do not.
        let vcs = |v| NetworkConfig {
            router: RouterConfig { vcs_per_port: v, ..RouterConfig::default() },
            ..NetworkConfig::default()
        };
        let mesh = || Box::new(crate::topology::Mesh3D::new(2, 2, 2));
        assert!(Network::try_new(mesh(), vcs(9)).is_ok());
        let err = Network::try_new(mesh(), vcs(10)).unwrap_err();
        assert!(matches!(err, NocError::InvalidConfig { parameter: "vcs_per_port", .. }));
    }

    #[test]
    fn link_count_matches_mesh() {
        let net = mk_net();
        // 4x4 mesh: 2 * (3*4 + 4*3) = 48 unidirectional links.
        assert_eq!(net.links.len(), 48);
    }

    #[test]
    fn single_packet_delivery() {
        let mut net = mk_net();
        net.enqueue_packet(mk_packet(1, 0, 15, 5));
        let ejected = run_until_drained(&mut net, 200);
        assert_eq!(ejected.len(), 5);
        assert!(ejected.iter().all(|e| e.node == NodeId(15)));
        // 4x4 corner to corner: 6 hops.
        assert!(ejected.iter().all(|e| e.flit.hops == 6));
        // Flits of one packet eject in order, essentially back to back.
        // A single bubble before the tail is legitimate: with 4-flit
        // buffers, a 5-flit packet and a 3-cycle credit round trip, the
        // tail waits once for the first returned credit.
        let cycles: Vec<_> = ejected.iter().map(|e| e.cycle).collect();
        for w in cycles.windows(2) {
            assert!(w[1] > w[0], "flits eject in order");
            assert!(w[1] - w[0] <= 2, "at most one bubble between flits: {cycles:?}");
        }
        assert!(cycles[4] - cycles[0] <= 5, "5 flits must eject within 6 cycles: {cycles:?}");
    }

    #[test]
    fn zero_load_latency_matches_pipeline_model() {
        // Enqueue at cycle 0 → NIC writes the buffer at the end of step 0
        // → RC at cycle 1, then 5 cycles per hop with a separate LT stage
        // and 4 at the final router before ejection:
        //   eject_cycle = hops*5 + 4.
        let mut net = mk_net();
        net.enqueue_packet(mk_packet(1, 0, 3, 1)); // 3 hops east
        let ejected = run_until_drained(&mut net, 100);
        assert_eq!(ejected.len(), 1);
        let hops = 3u64;
        let expected = hops * 5 + 4;
        assert_eq!(ejected[0].cycle, expected, "got {}", ejected[0].cycle);
    }

    #[test]
    fn combined_pipeline_saves_one_cycle_per_hop() {
        let cfg_sep = NetworkConfig::default();
        let mut cfg_comb = NetworkConfig::default();
        cfg_comb.router.pipeline = crate::config::PipelineConfig::combined_st_lt();

        let mut latencies = Vec::new();
        for cfg in [cfg_sep, cfg_comb] {
            let mut net = Network::new(Box::new(Mesh2D::new(4, 4)), cfg);
            net.enqueue_packet(mk_packet(1, 0, 3, 1));
            let ejected = run_until_drained(&mut net, 100);
            latencies.push(ejected[0].cycle);
        }
        assert_eq!(latencies[0] - latencies[1], 3, "one cycle saved per hop over 3 hops");
    }

    #[test]
    fn flit_conservation() {
        let mut net = mk_net();
        for i in 0..20 {
            net.enqueue_packet(mk_packet(i, (i as usize) % 16, (3 * i as usize + 1) % 16, 3));
        }
        let mut ejected = 0usize;
        for c in 0..500 {
            net.step(c);
            ejected += net.take_ejected().len();
            let in_queues = net.flits_in_source_queues();
            let in_fabric = net.flits_in_fabric();
            assert_eq!(
                in_queues + in_fabric + ejected,
                20 * 3,
                "flits must be conserved at cycle {c}"
            );
            if net.is_drained() {
                break;
            }
        }
        assert_eq!(ejected, 60);
    }

    #[test]
    fn self_addressed_packets_eject_locally() {
        let mut net = mk_net();
        net.enqueue_packet(mk_packet(1, 5, 5, 2));
        let ejected = run_until_drained(&mut net, 100);
        assert_eq!(ejected.len(), 2);
        assert!(ejected.iter().all(|e| e.flit.hops == 0));
    }

    #[test]
    fn severed_packet_drops_its_queued_flits_at_once() {
        // Two-flit buffers keep flits of a 5-flit packet queued at the
        // NIC while its head crosses the first link (0 → 1, east); the
        // link dies under the head at `kill_at`, severing the packet.
        let kill_at = 5;
        let cfg = NetworkConfig {
            router: RouterConfig { buffer_depth: 2, ..RouterConfig::default() },
            ..NetworkConfig::default()
        };
        let mut net = Network::new(Box::new(Mesh2D::new(4, 4)), cfg);
        let east = crate::topology::port::EAST.index();
        net.set_faults(FaultConfig::disabled().with_kill(0, east, kill_at)).unwrap();
        net.enqueue_packet(mk_packet(1, 0, 3, 5));
        let dropped = |net: &Network| net.fault_counters().flits_dropped as usize;
        let mut ejected = 0;
        for c in 0..100 {
            if c == kill_at {
                assert!(net.flits_in_fabric() > 0, "head in the fabric");
                assert!(net.flits_in_source_queues() > 0, "body flits still queued");
                assert_eq!(dropped(&net), 0);
            }
            net.step(c);
            ejected += net.take_ejected().len();
            let (fabric, queued) = (net.flits_in_fabric(), net.flits_in_source_queues());
            assert_eq!(ejected + fabric + queued + dropped(&net), 5, "conservation at cycle {c}");
            assert_eq!(net.arena().allocated(), fabric, "only fabric flits hold arena slots");
            if c == kill_at {
                assert_eq!(net.take_dropped(), vec![PacketId(1)]);
                assert_eq!(queued, 0, "the queued rest dies in the cycle of the sever");
            }
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained());
        assert_eq!(ejected, 0);
        assert_eq!(dropped(&net), 5, "every flit of the severed packet is dropped once");
    }

    /// The walk of the packets in flight equals, after every cycle, the
    /// ledger of packets enqueued and neither ejected whole nor dropped:
    /// packets wait queued, stream half queued and half in the fabric,
    /// and one is severed by a link that dies under it.
    #[test]
    fn packets_in_flight_match_the_ledger_every_cycle() {
        let cfg = NetworkConfig {
            router: RouterConfig { buffer_depth: 2, ..RouterConfig::default() },
            ..NetworkConfig::default()
        };
        let mut net = Network::new(Box::new(Mesh2D::new(4, 4)), cfg);
        let east = crate::topology::port::EAST.index();
        net.set_faults(FaultConfig::disabled().with_kill(0, east, 5)).unwrap();
        let mut ledger = std::collections::BTreeMap::new();
        for (id, src, dst, len) in [(1, 0, 3, 5), (2, 0, 2, 3), (3, 5, 10, 4), (4, 15, 0, 1)] {
            let packet = mk_packet(id, src, dst, len);
            ledger.insert(id, (src, dst, len));
            net.enqueue_packet(packet);
        }
        let mut severed = false;
        for c in 0..200 {
            net.step(c);
            for e in net.take_ejected().into_iter().filter(|e| e.flit.is_tail()) {
                ledger.remove(&e.flit.packet.0);
            }
            for pid in net.take_dropped() {
                severed = true;
                ledger.remove(&pid.0);
            }
            let walk: Vec<_> = net
                .packets_in_flight()
                .map(|(src, p)| (p.id.0, (src.index(), usize::from(p.dst), p.flits as usize)))
                .collect();
            assert_eq!(walk, ledger.clone().into_iter().collect::<Vec<_>>(), "cycle {c}");
        }
        assert!(severed && ledger.is_empty(), "one packet severed, the rest delivered");
    }

    #[test]
    fn heavy_random_exchange_drains() {
        let mut net = mk_net();
        let mut id = 0;
        for src in 0..16 {
            for dst in 0..16 {
                if src != dst {
                    id += 1;
                    net.enqueue_packet(mk_packet(id, src, dst, 2));
                }
            }
        }
        let ejected = run_until_drained(&mut net, 20_000);
        assert_eq!(ejected.len(), 16 * 15 * 2);
    }
}

#[cfg(test)]
mod pipeline_depth_network_tests {
    use super::*;
    use crate::config::{NetworkConfig, PipelineConfig, PipelineDepth};
    use crate::flit::FlitData;
    use crate::packet::{PacketClass, PacketId};
    use crate::topology::Mesh2D;

    fn zero_load_eject(depth: PipelineDepth, combined: bool) -> u64 {
        let base =
            if combined { PipelineConfig::combined_st_lt() } else { PipelineConfig::separate_lt() };
        let mut cfg = NetworkConfig::default();
        cfg.router.pipeline = base.with_depth(depth);
        let mut net = Network::new(Box::new(Mesh2D::new(4, 4)), cfg);
        net.enqueue_packet(Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(3), // 3 hops east
            class: PacketClass::Ack,
            payload: vec![FlitData::dense(4)],
            created_at: 0,
        });
        for c in 0..200 {
            net.step(c);
            let ejected = net.take_ejected();
            if let Some(e) = ejected.first() {
                return e.cycle;
            }
        }
        panic!("packet never delivered");
    }

    /// End-to-end zero-load latency = hops × cycles_per_hop + final
    /// router pipeline, for all six pipeline organisations.
    #[test]
    fn zero_load_latency_all_pipelines() {
        for depth in [
            PipelineDepth::FourStage,
            PipelineDepth::ThreeStageSpeculative,
            PipelineDepth::TwoStageLookahead,
        ] {
            for combined in [false, true] {
                let cfg = if combined {
                    PipelineConfig::combined_st_lt().with_depth(depth)
                } else {
                    PipelineConfig::separate_lt().with_depth(depth)
                };
                let hops = 3;
                let expected = hops * cfg.cycles_per_hop() + depth.stages() - 1 + 1;
                // hops full hops + the final router's stages; the +1 is
                // the NIC injection cycle (flit visible the cycle after
                // enqueue).
                let got = zero_load_eject(depth, combined);
                assert_eq!(got, expected, "{depth:?} combined={combined}");
            }
        }
    }

    /// Shallower pipelines are strictly faster, per-hop, end to end.
    #[test]
    fn shallower_pipelines_strictly_faster() {
        let four = zero_load_eject(PipelineDepth::FourStage, false);
        let three = zero_load_eject(PipelineDepth::ThreeStageSpeculative, false);
        let two = zero_load_eject(PipelineDepth::TwoStageLookahead, false);
        assert!(four > three && three > two, "{four} {three} {two}");
        // One cycle per hop+1 saved per removed stage over 3 hops + final.
        assert_eq!(four - three, 4);
        assert_eq!(three - two, 4);
    }
}
