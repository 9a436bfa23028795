//! The cycle-accurate virtual-channel wormhole router.
//!
//! Implements the canonical four-stage pipeline of the paper's Fig. 8(a):
//!
//! ```text
//! RC  → VA  → SA  → ST [→ LT]
//! ```
//!
//! * **RC** — route computation on the head flit (dimension-ordered,
//!   delegated to the topology),
//! * **VA** — two-stage virtual-channel allocation: VA1 picks the desired
//!   output VC (one VC per traffic class, paper §3.2.4), VA2 arbitrates
//!   among the input VCs contending for it (paper §3.2.5),
//! * **SA** — two-stage separable switch allocation: SA1 picks one VC per
//!   input port, SA2 one input port per output port (paper §3.2.6),
//! * **ST** — switch traversal; with the multi-layered design's short
//!   wires the link traversal **LT** merges into the same cycle
//!   (paper §3.4.1, Table 3), otherwise it takes one more.
//!
//! Flow control is credit-based: credits are debited at SA grant (so a
//! grant can never overflow the downstream buffer) and returned one cycle
//! after the downstream buffer slot frees.
//!
//! Every energy-relevant event is reported to [`ActivityCounters`]; events
//! on the separable datapath carry the flit's active-layer fraction when
//! short-flit shutdown is enabled (paper §3.2.1).
//!
//! # Data-oriented layout (DESIGN.md §14)
//!
//! Router state is struct-of-arrays: per-VC pipeline state, serviced
//! packet, buffered flits, output-VC ownership, and credits all live in
//! flat arrays keyed by the `(port, vc)` index `pv = port*vcs + vc`.
//! Flits themselves live in the network's [`FlitArena`]; the router's
//! buffers hold [`BufSlot`]s (a [`crate::arena::FlitRef`] plus
//! denormalised header fields), so the allocation stages never chase a
//! pointer into payload data. The per-cycle transient vectors the
//! stages need are borrowed from a caller-owned [`StepScratch`] and
//! reach a steady capacity after warmup — the pipeline allocates
//! nothing per cycle.

use std::collections::HashSet;

use mira_obs::phase::{scope as obs_scope, Phase as ObsPhase};

use crate::arbiter::RoundRobinArbiter;
use crate::arena::{FlitArena, FlitRef};
use crate::buffer::{BufSlot, FlitSlab};
use crate::config::{NetworkConfig, PipelineConfig};
use crate::flit::Flit;
use crate::ids::{NodeId, PortId, VcId};
use crate::link::Link;
use crate::packet::PacketId;
use crate::routing::apply_fault_mask;
use crate::stats::{ActivityCounters, RouterActivity};
use crate::telemetry::{StallCause, StallCounters, Telemetry, TraceEvent, TraceEventKind};
use crate::topology::Topology;
use crate::vc::VcState;

/// A flit that reached its destination, with arrival metadata.
#[derive(Debug, Clone)]
pub struct EjectedFlit {
    /// The flit (hop count and timestamps inside).
    pub flit: Flit,
    /// Node at which it ejected.
    pub node: NodeId,
    /// Cycle of ejection (its ST cycle at the destination router).
    pub cycle: u64,
}

/// A granted crossbar traversal, scheduled at SA time and executed at ST.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StGrant {
    pub(crate) in_port: PortId,
    pub(crate) in_vc: VcId,
    pub(crate) out_port: PortId,
    pub(crate) out_vc: VcId,
}

/// Reusable per-cycle working memory for [`Router::step`].
///
/// Every transient collection the pipeline stages need lives here and is
/// cleared (capacity kept) instead of reallocated, which is what makes
/// the steady-state step loop allocation-free. One scratch, sized for
/// the largest router, is shared across all routers of a network.
#[derive(Debug)]
pub struct StepScratch {
    /// SA1 winners: one candidate `(vc, out_port, out_vc)` per input port.
    sa1: Vec<Option<(VcId, PortId, VcId)>>,
    /// All switch-eligible `(port, vc)` pairs, for SA-loss attribution.
    eligible_all: Vec<(usize, usize)>,
    /// `(port, vc)` pairs granted the switch this cycle.
    granted: Vec<(usize, usize)>,
    /// SA2 request masks bucketed by output port: bit `ip` requests on
    /// behalf of input port `ip` (set by SA1 winners, drained and
    /// re-zeroed by SA2).
    sa2_req: Vec<u64>,
    /// VA requests bucketed by flat `(out_port, out_vc)` index.
    va_requests: Vec<Vec<(PortId, VcId)>>,
    /// Arbiter line masks mirroring `va_requests`: bit `pv` requests on
    /// behalf of input VC `pv`.
    va_line_masks: Vec<u64>,
    /// Route candidates of the head flit under consideration.
    candidates: Vec<PortId>,
}

impl StepScratch {
    /// Creates scratch space for routers of up to `ports` ports and
    /// `vcs` VCs per port.
    pub fn new(ports: usize, vcs: usize) -> Self {
        StepScratch {
            sa1: Vec::with_capacity(ports),
            eligible_all: Vec::with_capacity(ports * vcs),
            granted: Vec::with_capacity(ports),
            sa2_req: vec![0; ports],
            va_requests: (0..ports * vcs).map(|_| Vec::with_capacity(ports * vcs)).collect(),
            va_line_masks: vec![0; ports * vcs],
            candidates: Vec::with_capacity(8),
        }
    }
}

/// One router: input VCs, output VC state, allocators, and the pipeline.
#[derive(Debug)]
pub struct Router {
    id: NodeId,
    ports: usize,
    vcs: usize,
    pipeline: PipelineConfig,
    layer_shutdown: bool,
    /// Pipeline state per input VC, keyed by `pv = port*vcs + vc`.
    vc_state: Box<[VcState]>,
    /// Bit per `pv` in `Routing` state — the RC stage iterates set bits
    /// instead of scanning every VC (see [`Router::set_state`]).
    routing_mask: u64,
    /// Bit per `pv` in `WaitingVc` state (VA1 work list).
    waiting_mask: u64,
    /// Bit per `pv` in `Active` state (SA1 work list).
    active_mask: u64,
    /// Packet currently serviced per input VC (same key).
    vc_packet: Box<[Option<PacketId>]>,
    /// Every input-VC FIFO, as one flat ring-buffer slab (same key).
    buf: FlitSlab,
    /// Output-VC ownership, keyed by `out_port*vcs + out_vc`.
    out_owner: Box<[Option<(PortId, VcId)>]>,
    /// Downstream credits per output VC (same key).
    out_credits: Box<[usize]>,
    /// Link index carrying flits *out of* each output port (`None` for the
    /// local port and edge ports).
    out_links: Vec<Option<usize>>,
    /// Link index feeding each input port (`None` for the local port),
    /// used for upstream credit returns.
    in_links: Vec<Option<usize>>,
    /// VA2 arbiters, keyed by `out_port*vcs + out_vc`; lines are flat
    /// input `pv` indices.
    va2_arbiters: Box<[RoundRobinArbiter]>,
    sa1_arbiters: Vec<RoundRobinArbiter>,
    sa2_arbiters: Vec<RoundRobinArbiter>,
    st_grants: Vec<StGrant>,
    /// Number of physical datapath layers.
    layers: usize,
    /// Stall cycles attributed by cause (telemetry; never read by the
    /// pipeline itself).
    stalls: StallCounters,
    /// Fault-aware routing enabled: RC masks dead output ports and
    /// detours around them. Off (and free) unless fault injection with
    /// rerouting is configured.
    fault_routing: bool,
    /// Output ports whose link has permanently died.
    dead_out: Vec<bool>,
    /// Output ports whose link is in retransmission backoff this cycle
    /// (set by the network; SA pauses grants toward them and charges
    /// the `LinkFault` stall cause).
    link_paused: Vec<bool>,
    /// Route computations diverted around a dead link (fault
    /// telemetry).
    reroutes: u64,
    /// Chaos hook: when set, the switch allocator issues no grants, so
    /// every flit entering this router parks forever — a deterministic
    /// way to exercise the no-progress watchdog. Never set outside
    /// chaos testing.
    sa_frozen: bool,
}

impl Router {
    /// Creates a router with `ports` ports (including local) configured
    /// per `cfg`. Link wiring is attached afterwards by the network.
    pub fn new(id: NodeId, ports: usize, cfg: &NetworkConfig) -> Self {
        let vcs = cfg.router.vcs_per_port;
        let depth = cfg.router.buffer_depth;
        let pvs = ports * vcs;
        assert!(pvs <= 64, "router supports at most 64 (port, vc) pairs");
        Router {
            id,
            ports,
            vcs,
            pipeline: cfg.router.pipeline,
            layer_shutdown: cfg.layer_shutdown,
            vc_state: vec![VcState::Idle; pvs].into_boxed_slice(),
            routing_mask: 0,
            waiting_mask: 0,
            active_mask: 0,
            vc_packet: vec![None; pvs].into_boxed_slice(),
            buf: FlitSlab::new(pvs, depth),
            out_owner: vec![None; pvs].into_boxed_slice(),
            out_credits: vec![depth; pvs].into_boxed_slice(),
            out_links: vec![None; ports],
            in_links: vec![None; ports],
            va2_arbiters: (0..pvs).map(|_| RoundRobinArbiter::new(pvs)).collect(),
            sa1_arbiters: (0..ports).map(|_| RoundRobinArbiter::new(vcs)).collect(),
            sa2_arbiters: (0..ports).map(|_| RoundRobinArbiter::new(ports)).collect(),
            st_grants: Vec::with_capacity(ports),
            layers: cfg.layers,
            stalls: StallCounters::new(),
            fault_routing: false,
            dead_out: vec![false; ports],
            link_paused: vec![false; ports],
            reroutes: 0,
            sa_frozen: false,
        }
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of ports (including local).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Flat `(port, vc)` index into the per-VC parallel arrays.
    #[inline]
    fn pv(&self, port: PortId, vc: VcId) -> usize {
        port.index() * self.vcs + vc.index()
    }

    /// Attaches the outgoing link at `port` (wiring pass).
    pub(crate) fn set_out_link(&mut self, port: PortId, link: usize) {
        self.out_links[port.index()] = Some(link);
    }

    /// Attaches the incoming link at `port` (wiring pass).
    pub(crate) fn set_in_link(&mut self, port: PortId, link: usize) {
        self.in_links[port.index()] = Some(link);
    }

    fn layer_fraction(&self, flit: &Flit) -> f64 {
        if self.layer_shutdown {
            flit.data.active_fraction()
        } else {
            1.0
        }
    }

    /// The single write path for per-VC pipeline state: keeps the
    /// per-state bitmasks (the stage work lists) exactly in sync with
    /// `vc_state`.
    #[inline]
    fn set_state(&mut self, pv: usize, state: VcState) {
        let bit = 1u64 << pv;
        self.routing_mask &= !bit;
        self.waiting_mask &= !bit;
        self.active_mask &= !bit;
        match state {
            VcState::Idle => {}
            VcState::Routing => self.routing_mask |= bit,
            VcState::WaitingVc { .. } => self.waiting_mask |= bit,
            VcState::Active { .. } => self.active_mask |= bit,
        }
        self.vc_state[pv] = state;
    }

    /// A head flit buffered into an idle VC starts the next packet's
    /// pipeline occupancy: the VC enters `Routing` and records the
    /// packet it now services.
    fn on_flit_buffered(&mut self, pv: usize) {
        if self.vc_state[pv] == VcState::Idle {
            if let Some(front) = self.buf.front(pv) {
                debug_assert!(front.head, "an idle VC must only receive head flits first");
                self.vc_packet[pv] = Some(front.packet);
                self.set_state(pv, VcState::Routing);
            }
        }
    }

    /// The tail's switch traversal frees the VC; if the next packet's
    /// head is already buffered the VC re-enters `Routing` immediately.
    fn on_tail_departed(&mut self, pv: usize) {
        self.set_state(pv, VcState::Idle);
        self.vc_packet[pv] = None;
        self.on_flit_buffered(pv);
    }

    /// Accepts the flit at `fref` into the input buffer at (`port`, `vc`).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (credit-accounting violation).
    #[allow(clippy::too_many_arguments)]
    pub fn receive_flit(
        &mut self,
        port: PortId,
        vc: VcId,
        fref: FlitRef,
        arena: &FlitArena,
        cycle: u64,
        counters: &mut ActivityCounters,
        activity: &mut RouterActivity,
    ) {
        let flit = arena.get(fref);
        let fraction = self.layer_fraction(flit);
        counters.record_buffer_write(fraction);
        activity.buffer_events += fraction;
        let slot = BufSlot {
            fref,
            ready_at: cycle,
            packet: flit.packet,
            dst: flit.dst,
            class: flit.class,
            head: flit.is_head(),
            tail: flit.is_tail(),
        };
        let pv = self.pv(port, vc);
        self.buf.push(pv, slot);
        self.on_flit_buffered(pv);
    }

    /// Accepts a returned credit for output VC (`port`, `vc`).
    pub fn receive_credit(&mut self, port: PortId, vc: VcId) {
        let pv = self.pv(port, vc);
        self.out_credits[pv] += 1;
    }

    /// Free slots in the local input buffer for VC `vc` (used by the
    /// network interface to pace injection).
    pub fn local_free_slots(&self, vc: VcId) -> usize {
        self.buf.free_slots(self.pv(PortId::LOCAL, vc))
    }

    /// Total flits currently buffered in this router (conservation
    /// checks; O(1) — the slab tracks occupancy incrementally).
    pub fn buffered_flits(&self) -> usize {
        self.buf.occupied()
    }

    /// Highest total buffer occupancy this router ever reached
    /// (host-side watermark; see `mira-obs`).
    pub fn buffer_peak(&self) -> usize {
        self.buf.occupied_peak()
    }

    /// Returns `true` if the router holds no flits and has no pending
    /// switch grants. A quiescent router's [`Router::step`] is a
    /// provable no-op — no counter, stall, trace, or arbiter mutation —
    /// which is what lets the network skip it entirely (the active-set
    /// optimisation; see DESIGN.md §14).
    pub fn is_quiescent(&self) -> bool {
        self.buf.occupied() == 0 && self.st_grants.is_empty()
    }

    /// Verifies the data-oriented core's work-list invariants, panicking
    /// with a diagnostic on the first violation. Checked properties:
    ///
    /// * each per-state mask (`routing`/`waiting`/`active`) holds exactly
    ///   the VCs whose `vc_state` carries that state — the stages iterate
    ///   the masks, so a desync would silently skip pipeline work;
    /// * `Routing` and `WaitingVc` VCs hold a buffered head flit (which
    ///   is what makes the quiescence skip sound: an empty router can
    ///   have no routable or waiting VC);
    /// * a quiescent router has empty routing and waiting masks.
    ///
    /// This is a test/debug facility; it walks every VC and is not meant
    /// for per-cycle production use.
    pub fn assert_worklists_consistent(&self) {
        for pv in 0..self.vc_state.len() {
            let bit = 1u64 << pv;
            let (r, w, a) = (
                self.routing_mask & bit != 0,
                self.waiting_mask & bit != 0,
                self.active_mask & bit != 0,
            );
            let expect = match self.vc_state[pv] {
                VcState::Idle => (false, false, false),
                VcState::Routing => (true, false, false),
                VcState::WaitingVc { .. } => (false, true, false),
                VcState::Active { .. } => (false, false, true),
            };
            assert_eq!(
                (r, w, a),
                expect,
                "router {}: pv {pv} state {:?} disagrees with work-list masks",
                self.id,
                self.vc_state[pv]
            );
            if matches!(self.vc_state[pv], VcState::Routing | VcState::WaitingVc { .. }) {
                let front = self.buf.front(pv);
                assert!(
                    front.is_some_and(|t| t.head),
                    "router {}: pv {pv} is {:?} without a buffered head flit",
                    self.id,
                    self.vc_state[pv]
                );
            }
        }
        if self.is_quiescent() {
            assert_eq!(
                self.routing_mask | self.waiting_mask,
                0,
                "router {}: quiescent but holds routable or waiting VCs",
                self.id
            );
        }
    }

    /// Cumulative stall-cause counters since construction.
    pub fn stall_counters(&self) -> &StallCounters {
        &self.stalls
    }

    /// Charges the stalled VC `pv` one cycle to `cause`: the router's
    /// own counter, then the telemetry consumers for its front flit.
    #[inline]
    fn stall(&mut self, pv: usize, cause: StallCause, tel: &mut Telemetry) {
        self.stalls.record(cause);
        let front = self.buf.front(pv).expect("a stalled VC holds a flit");
        tel.stall(self.id, front.packet, front.head, cause);
    }

    /// Enables fault-aware route computation: dead output ports are
    /// masked out of the candidate set and detoured around.
    pub(crate) fn set_fault_routing(&mut self, enabled: bool) {
        self.fault_routing = enabled;
    }

    /// Marks an output port's link as permanently dead. Any VC whose
    /// computed route crosses the port but has not yet been granted an
    /// output VC is sent back to route computation so the mask (or the
    /// detour fallback) can pick a live port. VCs already streaming
    /// (`Active`) keep their route; the network black-holes their flits
    /// at the dead link and refluxes the credits.
    pub(crate) fn on_port_death(&mut self, port: PortId) {
        self.dead_out[port.index()] = true;
        for pv in 0..self.vc_state.len() {
            if self.vc_state[pv] == (VcState::WaitingVc { out_port: port }) {
                self.set_state(pv, VcState::Routing);
            }
        }
    }

    /// Marks an output port's link as paused (retransmission backoff in
    /// progress) or live again. SA skips paused ports and charges the
    /// [`StallCause::LinkFault`] cause.
    pub(crate) fn set_link_paused(&mut self, port: PortId, paused: bool) {
        self.link_paused[port.index()] = paused;
    }

    /// Route computations diverted around dead links so far.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Chaos hook: freezes the switch allocator permanently, so this
    /// router accepts flits but never grants the switch — the
    /// deterministic stall the no-progress watchdog is tested against.
    pub(crate) fn freeze_sa(&mut self) {
        self.sa_frozen = true;
    }

    /// A compact word summarising this router's fabric-facing state:
    /// the three work-list masks, the buffer occupancy and the pending
    /// switch grants. Any flit movement, state transition or grant
    /// changes it, so the no-progress watchdog can compare it per cycle
    /// instead of the full state.
    pub(crate) fn progress_word(&self) -> [u64; 5] {
        [
            self.routing_mask,
            self.waiting_mask,
            self.active_mask,
            self.buf.occupied() as u64,
            self.st_grants.len() as u64,
        ]
    }

    /// Age in cycles of the oldest ready head-of-FIFO flit at this
    /// router (0 when every FIFO is empty) — the starvation detector's
    /// subject.
    pub(crate) fn max_head_age(&self, cycle: u64) -> u64 {
        (0..self.vc_state.len())
            .filter_map(|pv| self.buf.front(pv))
            .map(|s| cycle.saturating_sub(s.ready_at))
            .max()
            .unwrap_or(0)
    }

    /// Number of output VCs holding more downstream credits than the
    /// buffer depth they track — any non-zero value is a
    /// credit-conservation violation.
    pub(crate) fn credit_overflows(&self) -> u64 {
        let depth = self.buf.depth();
        self.out_credits.iter().filter(|&&c| c > depth).count() as u64
    }

    /// Freezes this router's SoA state into a
    /// [`RouterDump`](crate::recorder::RouterDump) for the black box.
    /// `x`/`y` are the topology coordinates (passed in because the
    /// router does not know where it sits).
    pub(crate) fn dump(&self, cycle: u64, x: u64, y: u64) -> crate::recorder::RouterDump {
        let mut vcs = Vec::new();
        for pv in 0..self.vc_state.len() {
            let state = self.vc_state[pv];
            let occupancy = self.buf.len(pv);
            if state == VcState::Idle && occupancy == 0 {
                continue;
            }
            let (out_port, out_vc) = match state {
                VcState::Idle | VcState::Routing => (None, None),
                VcState::WaitingVc { out_port } => (Some(out_port.index() as u64), None),
                VcState::Active { out_port, out_vc } => {
                    (Some(out_port.index() as u64), Some(out_vc.index() as u64))
                }
            };
            vcs.push(crate::recorder::VcDump {
                pv: pv as u64,
                port: (pv / self.vcs) as u64,
                vc: (pv % self.vcs) as u64,
                state: match state {
                    VcState::Idle => "idle",
                    VcState::Routing => "routing",
                    VcState::WaitingVc { .. } => "waiting_vc",
                    VcState::Active { .. } => "active",
                }
                .to_string(),
                out_port,
                out_vc,
                packet: self.vc_packet[pv].map(|p| p.0),
                occupancy: occupancy as u64,
                head_age: self.buf.front(pv).map(|s| cycle.saturating_sub(s.ready_at)),
                credits: self.out_credits[pv] as u64,
            });
        }
        crate::recorder::RouterDump {
            router: self.id.index() as u64,
            x,
            y,
            buffered: self.buf.occupied() as u64,
            routing_mask: self.routing_mask,
            waiting_mask: self.waiting_mask,
            active_mask: self.active_mask,
            sa_frozen: self.sa_frozen,
            vcs,
        }
    }

    /// Minimal-detour fallback when the fault mask empties the candidate
    /// set: among the live, wired output ports (excluding the u-turn back
    /// out of the input port, which could ping-pong forever), pick the
    /// one whose neighbour minimises the remaining hop distance, lowest
    /// port on ties. Falls back to allowing the u-turn if it is the only
    /// live port left.
    fn detour_port(&self, topo: &dyn Topology, in_port: PortId, dst: NodeId) -> PortId {
        let best = |allow_uturn: bool| -> Option<PortId> {
            (1..self.ports)
                .filter(|&p| !self.dead_out[p] && self.out_links[p].is_some())
                .filter(|&p| allow_uturn || PortId(p) != in_port)
                .filter_map(|p| {
                    topo.neighbor(self.id, PortId(p)).map(|n| (topo.min_hops(n, dst), p))
                })
                .min()
                .map(|(_, p)| PortId(p))
        };
        best(false)
            .or_else(|| best(true))
            .expect("no live output port left for detour: node is fully disconnected")
    }

    /// Returns `true` when (`ip`, `iv`) holds a switch grant scheduled
    /// for the coming ST phase (the reaper must not purge such a VC —
    /// ST would pop an empty buffer).
    fn has_st_grant(&self, ip: usize, iv: usize) -> bool {
        self.st_grants.iter().any(|g| g.in_port.index() == ip && g.in_vc.index() == iv)
    }

    /// Purges buffered flits belonging to severed (dropped) packets and
    /// refluxes their credits upstream, releasing any held output VC.
    /// Returns the number of flits purged. Called by the network's fault
    /// layer before the router phase each cycle; VCs holding a pending
    /// switch grant are skipped until the grant drains.
    pub(crate) fn purge_severed(
        &mut self,
        severed: &HashSet<PacketId>,
        cycle: u64,
        arena: &mut FlitArena,
        links: &mut [Link],
    ) -> u64 {
        let mut purged = 0u64;
        for ip in 0..self.ports {
            for iv in 0..self.vcs {
                let pv = ip * self.vcs + iv;
                let Some(pid) = self.vc_packet[pv] else { continue };
                if !severed.contains(&pid) || self.has_st_grant(ip, iv) {
                    continue;
                }
                let state = self.vc_state[pv];
                let mut popped = 0u64;
                while self.buf.front(pv).is_some_and(|s| s.packet == pid) {
                    let slot = self.buf.pop(pv).expect("front exists");
                    arena.free(slot.fref);
                    popped += 1;
                }
                // Each popped flit frees a slot the upstream router
                // already paid a credit for.
                if let Some(li) = self.in_links[ip] {
                    for _ in 0..popped {
                        links[li].send_credit(VcId(iv), Link::delivery_cycle(cycle, 0));
                    }
                }
                if let VcState::Active { out_port, out_vc } = state {
                    let ov = self.pv(out_port, out_vc);
                    debug_assert_eq!(self.out_owner[ov], Some((PortId(ip), VcId(iv))));
                    self.out_owner[ov] = None;
                }
                purged += popped;
                self.set_state(pv, VcState::Idle);
                self.vc_packet[pv] = None;
                self.on_flit_buffered(pv);
            }
        }
        purged
    }

    /// Advances the router by one cycle.
    ///
    /// The phase order within the cycle realises the configured pipeline
    /// depth (paper Fig. 8): running a later stage *after* an earlier one
    /// lets a flit advance two stages in the same cycle, which is how the
    /// speculative organisations shorten the pipeline:
    ///
    /// * **four-stage** — ST → SA → VA → RC: every grant takes effect the
    ///   next cycle (one cycle per stage; 5 per hop with separate LT);
    /// * **three-stage speculative** — ST → VA → SA → RC: a head flit
    ///   that wins VA arbitrates for the switch in the same cycle
    ///   (speculative SA; failure degenerates into a retry);
    /// * **two-stage look-ahead** — ST → RC → VA → SA: the route is also
    ///   available in the arrival cycle, modelling look-ahead routing.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        cycle: u64,
        topo: &dyn Topology,
        arena: &mut FlitArena,
        links: &mut [Link],
        scratch: &mut StepScratch,
        counters: &mut ActivityCounters,
        activity: &mut RouterActivity,
        ejected: &mut Vec<EjectedFlit>,
        tel: &mut Telemetry,
    ) {
        self.stage_st(cycle, arena, links, counters, activity, ejected, tel);
        match self.pipeline.depth {
            crate::config::PipelineDepth::FourStage => {
                self.stage_sa(cycle, scratch, counters, tel);
                self.stage_va(cycle, scratch, counters, tel);
                self.stage_rc(cycle, topo, scratch, counters, tel);
            }
            crate::config::PipelineDepth::ThreeStageSpeculative => {
                self.stage_va(cycle, scratch, counters, tel);
                self.stage_sa(cycle, scratch, counters, tel);
                self.stage_rc(cycle, topo, scratch, counters, tel);
            }
            crate::config::PipelineDepth::TwoStageLookahead => {
                self.stage_rc(cycle, topo, scratch, counters, tel);
                self.stage_va(cycle, scratch, counters, tel);
                self.stage_sa(cycle, scratch, counters, tel);
            }
        }
    }

    /// ST: execute last cycle's switch grants.
    ///
    /// ST always runs first within the cycle, and SA (which is what
    /// refills `st_grants`) always runs after it, so iterating the grant
    /// list by index and clearing it at the end is safe and keeps the
    /// vector's capacity.
    #[allow(clippy::too_many_arguments)]
    fn stage_st(
        &mut self,
        cycle: u64,
        arena: &mut FlitArena,
        links: &mut [Link],
        counters: &mut ActivityCounters,
        activity: &mut RouterActivity,
        ejected: &mut Vec<EjectedFlit>,
        tel: &mut Telemetry,
    ) {
        let _obs = obs_scope(ObsPhase::StageSt);
        if self.st_grants.is_empty() {
            return;
        }
        for gi in 0..self.st_grants.len() {
            let g = self.st_grants[gi];
            let pv = self.pv(g.in_port, g.in_vc);
            let slot = self.buf.pop(pv).expect("SA granted an empty VC");
            // The only payload touch on the traversal path: one arena
            // read for the activity fractions.
            let (fraction, active_layers) = {
                let data = &arena.get(slot.fref).data;
                if self.layer_shutdown {
                    let words = data.num_words();
                    let active =
                        (data.active_words() * self.layers).div_ceil(words).min(self.layers);
                    (data.active_fraction(), active)
                } else {
                    (1.0, self.layers)
                }
            };
            counters.record_buffer_read(fraction);
            counters.record_xbar(fraction);
            activity.buffer_events += fraction;
            activity.xbar_events += fraction;
            activity.xbar_events_raw += 1;

            tel.switch_traversal(cycle, self.id, g, slot.packet, slot.head, active_layers);

            // Return a credit upstream for the freed buffer slot.
            if let Some(li) = self.in_links[g.in_port.index()] {
                links[li].send_credit(g.in_vc, cycle + 1);
            }

            if g.out_port.is_local() {
                counters.flits_ejected += 1;
                if slot.tail {
                    counters.packets_ejected += 1;
                }
                ejected.push(EjectedFlit { flit: arena.take(slot.fref), node: self.id, cycle });
            } else {
                arena.get_mut(slot.fref).hops += 1;
                let li = self.out_links[g.out_port.index()]
                    .expect("route led through a port with no link");
                counters.record_link(links[li].length_mm, fraction);
                activity.link_flit_mm += links[li].length_mm * fraction;
                let deliver = Link::delivery_cycle(cycle, self.pipeline.link_extra_cycles());
                links[li].send_flit(arena, slot.fref, g.out_vc, deliver);
            }

            if slot.tail {
                let ov = self.pv(g.out_port, g.out_vc);
                self.out_owner[ov] = None;
                self.on_tail_departed(pv);
            }
        }
        self.st_grants.clear();
    }

    /// SA: separable two-stage switch allocation; winners traverse next
    /// cycle. Credits are debited here so grants never overcommit.
    ///
    /// Stall attribution happens here for switch-ready flits: an active
    /// VC whose downstream buffer holds no credit is charged `NoCredit`;
    /// an eligible VC that fails to receive an ST grant (lost SA1 or SA2)
    /// is charged `SaLoss`. The two sets are disjoint, so each stalled
    /// VC-cycle carries exactly one cause.
    fn stage_sa(
        &mut self,
        cycle: u64,
        scratch: &mut StepScratch,
        counters: &mut ActivityCounters,
        tel: &mut Telemetry,
    ) {
        let _obs = obs_scope(ObsPhase::StageSa);
        if self.active_mask == 0 || self.sa_frozen {
            // No VC holds the switch (or the chaos hook froze the
            // allocator): both allocation stages are no-ops.
            return;
        }
        // SA1: one candidate VC per input port. Only ports with an
        // `Active` VC (a set bit in the work-list mask) do any work.
        scratch.sa1.clear();
        scratch.sa1.resize(self.ports, None);
        scratch.eligible_all.clear();
        let vc_bits = (1u64 << self.vcs) - 1;
        let mut sa2_used: u64 = 0;
        for ip in 0..self.ports {
            let mut port_active = (self.active_mask >> (ip * self.vcs)) & vc_bits;
            if port_active == 0 {
                continue;
            }
            let mut elig_mask: u64 = 0;
            while port_active != 0 {
                let iv = port_active.trailing_zeros() as usize;
                port_active &= port_active - 1;
                let pv = ip * self.vcs + iv;
                let VcState::Active { out_port, out_vc } = self.vc_state[pv] else {
                    debug_assert!(false, "active_mask out of sync with vc_state");
                    continue;
                };
                if !self.buf.front_ready(pv, cycle) {
                    continue;
                }
                if !out_port.is_local() && self.link_paused[out_port.index()] {
                    // The outgoing link is replaying its window; new
                    // traffic would interleave into the resent stream.
                    self.stall(pv, StallCause::LinkFault, tel);
                    continue;
                }
                if out_port.is_local() || self.out_credits[self.pv(out_port, out_vc)] > 0 {
                    elig_mask |= 1u64 << iv;
                } else {
                    self.stall(pv, StallCause::NoCredit, tel);
                }
            }
            if elig_mask == 0 {
                continue;
            }
            counters.sa1_arbitrations += 1;
            if let Some(iv) = self.sa1_arbiters[ip].arbitrate_mask(elig_mask) {
                if let VcState::Active { out_port, out_vc } = self.vc_state[ip * self.vcs + iv] {
                    scratch.sa1[ip] = Some((VcId(iv), out_port, out_vc));
                    scratch.sa2_req[out_port.index()] |= 1u64 << ip;
                    sa2_used |= 1u64 << out_port.index();
                }
            }
            while elig_mask != 0 {
                let iv = elig_mask.trailing_zeros() as usize;
                elig_mask &= elig_mask - 1;
                scratch.eligible_all.push((ip, iv));
            }
        }

        // SA2: one input port per output port, over the requested output
        // ports only (ascending, via the bucket-usage mask).
        scratch.granted.clear();
        while sa2_used != 0 {
            let op = sa2_used.trailing_zeros() as usize;
            sa2_used &= sa2_used - 1;
            counters.sa2_arbitrations += 1;
            if let Some(ip) = self.sa2_arbiters[op].arbitrate_mask(scratch.sa2_req[op]) {
                let (iv, out_port, out_vc) = scratch.sa1[ip].expect("requester has an SA1 grant");
                if !out_port.is_local() {
                    let ov = self.pv(out_port, out_vc);
                    debug_assert!(self.out_credits[ov] > 0, "SA granted without credit");
                    self.out_credits[ov] -= 1;
                }
                tel.trace_event(TraceEvent {
                    cycle,
                    router: self.id,
                    port: PortId(ip),
                    vc: iv,
                    kind: TraceEventKind::SwitchAlloc,
                    packet: self.buf.front(ip * self.vcs + iv.index()).map_or(0, |t| t.packet.0),
                    detail: out_port.index() as u32,
                });
                scratch.granted.push((ip, iv.index()));
                self.st_grants.push(StGrant { in_port: PortId(ip), in_vc: iv, out_port, out_vc });
            }
            scratch.sa2_req[op] = 0;
        }

        // Every eligible VC that did not get the switch stalled on
        // arbitration this cycle.
        for &pair in &scratch.eligible_all {
            if !scratch.granted.contains(&pair) {
                self.stall(pair.0 * self.vcs + pair.1, StallCause::SaLoss, tel);
            }
        }
    }

    /// VA: two-stage virtual-channel allocation for VCs holding a routed
    /// head flit.
    ///
    /// Stall attribution for head flits waiting on a VC: requesters of an
    /// output VC still owned by another packet are charged `RouteBusy`;
    /// losers of the arbitration for a free VC are charged `VaLoss`.
    fn stage_va(
        &mut self,
        cycle: u64,
        scratch: &mut StepScratch,
        counters: &mut ActivityCounters,
        tel: &mut Telemetry,
    ) {
        let _obs = obs_scope(ObsPhase::StageVa);
        if self.waiting_mask == 0 {
            return;
        }
        // VA1: each waiting input VC (a set bit in the work-list mask)
        // selects its desired output VC — one VC per traffic class
        // (control / data), clamped to the available VC count. Buckets
        // are left empty by VA2, so no clearing pass is needed here.
        let mut waiting = self.waiting_mask;
        let mut va2_used: u64 = 0;
        while waiting != 0 {
            let pv = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let VcState::WaitingVc { out_port } = self.vc_state[pv] else {
                debug_assert!(false, "waiting_mask out of sync with vc_state");
                continue;
            };
            if !self.buf.front_ready(pv, cycle) {
                continue;
            }
            let class = self.buf.front(pv).expect("waiting VC holds a head flit").class;
            let out_vc = class.vc_index().min(self.vcs - 1);
            counters.va1_arbitrations += 1;
            let b = out_port.index() * self.vcs + out_vc;
            scratch.va_requests[b].push((PortId(pv / self.vcs), VcId(pv % self.vcs)));
            scratch.va_line_masks[b] |= 1u64 << pv;
            va2_used |= 1u64 << b;
        }

        // VA2: arbitrate per (output port, output VC) among requesters —
        // requested buckets only, ascending flat index.
        while va2_used != 0 {
            let b = va2_used.trailing_zeros() as usize;
            va2_used &= va2_used - 1;
            let (op, ov) = (b / self.vcs, b % self.vcs);
            counters.va2_arbitrations += 1;
            if self.out_owner[b].is_some() {
                // The target VC is held by an in-flight packet: every
                // requester stalls on route occupancy this cycle.
                for ri in 0..scratch.va_requests[b].len() {
                    let (rip, riv) = scratch.va_requests[b][ri];
                    self.stall(self.pv(rip, riv), StallCause::RouteBusy, tel);
                }
                scratch.va_requests[b].clear();
                scratch.va_line_masks[b] = 0;
                continue;
            }
            if let Some(line) = self.va2_arbiters[b].arbitrate_mask(scratch.va_line_masks[b]) {
                let (ip, iv) = (PortId(line / self.vcs), VcId(line % self.vcs));
                self.out_owner[b] = Some((ip, iv));
                self.set_state(line, VcState::Active { out_port: PortId(op), out_vc: VcId(ov) });
                tel.trace_event(TraceEvent {
                    cycle,
                    router: self.id,
                    port: ip,
                    vc: iv,
                    kind: TraceEventKind::VcAlloc,
                    packet: self.buf.front(line).map_or(0, |t| t.packet.0),
                    detail: op as u32,
                });
                // The remaining requesters lost the arbitration.
                for ri in 0..scratch.va_requests[b].len() {
                    let (rip, riv) = scratch.va_requests[b][ri];
                    if (rip, riv) != (ip, iv) {
                        self.stall(self.pv(rip, riv), StallCause::VaLoss, tel);
                    }
                }
            }
            scratch.va_requests[b].clear();
            scratch.va_line_masks[b] = 0;
        }
    }

    /// RC: route computation for VCs holding an unrouted head flit.
    ///
    /// With an adaptive topology ([`Topology::route_candidates_into`]
    /// yields more than one port) the stage selects the candidate whose
    /// output VCs hold the most credits — congestion-aware selection —
    /// with the model's preference order breaking ties.
    fn stage_rc(
        &mut self,
        cycle: u64,
        topo: &dyn Topology,
        scratch: &mut StepScratch,
        counters: &mut ActivityCounters,
        tel: &mut Telemetry,
    ) {
        let _obs = obs_scope(ObsPhase::StageRc);
        if self.routing_mask == 0 {
            return;
        }
        let mut routing = self.routing_mask;
        while routing != 0 {
            let pv = routing.trailing_zeros() as usize;
            routing &= routing - 1;
            {
                let (ip, iv) = (pv / self.vcs, pv % self.vcs);
                if !self.buf.front_ready(pv, cycle) {
                    continue;
                }
                let (packet, dst) = {
                    let head = self.buf.front(pv).expect("routing VC holds a head flit");
                    debug_assert!(head.head, "routing state without a head flit");
                    (head.packet.0, head.dst)
                };
                let candidates = &mut scratch.candidates;
                candidates.clear();
                topo.route_candidates_into(self.id, dst, candidates);
                debug_assert!(!candidates.is_empty(), "routing produced no candidates");
                if self.fault_routing {
                    let masked = apply_fault_mask(candidates, &self.dead_out);
                    // Also mask the backtrack port (the reverse of the
                    // edge the flit arrived on). Dimension-ordered routes
                    // are monotone and never backtrack, so this only
                    // fires for packets already detoured around a dead
                    // link — and for those it is what breaks the
                    // detour/return ping-pong livelock: the neighbour of
                    // a dead link would otherwise XY-route the packet
                    // straight back at the fault forever.
                    let backtracked = if ip != PortId::LOCAL.index() {
                        let before = candidates.len();
                        candidates.retain(|p| p.index() != ip);
                        candidates.len() != before
                    } else {
                        false
                    };
                    if candidates.is_empty() {
                        candidates.push(self.detour_port(topo, PortId(ip), dst));
                    }
                    if masked || backtracked {
                        self.reroutes += 1;
                    }
                }
                let out_port = if candidates.len() == 1 {
                    candidates[0]
                } else {
                    let credits_of = |p: PortId| -> usize {
                        let base = p.index() * self.vcs;
                        self.out_credits[base..base + self.vcs].iter().sum()
                    };
                    // max_by_key returns the *last* maximum; iterate in
                    // reverse so ties resolve to the earliest (preferred)
                    // candidate.
                    candidates
                        .iter()
                        .rev()
                        .copied()
                        .max_by_key(|&p| credits_of(p))
                        .expect("non-empty candidates")
                };
                counters.rc_computations += 1;
                self.set_state(pv, VcState::WaitingVc { out_port });
                tel.trace_event(TraceEvent {
                    cycle,
                    router: self.id,
                    port: PortId(ip),
                    vc: VcId(iv),
                    kind: TraceEventKind::RouteCompute,
                    packet,
                    detail: out_port.index() as u32,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::flit::{FlitData, FlitKind};
    use crate::packet::{PacketClass, PacketId};
    use crate::topology::Mesh2D;

    fn mk_cfg() -> NetworkConfig {
        NetworkConfig::default()
    }

    fn mk_head(dst: NodeId, class: PacketClass) -> Flit {
        Flit {
            packet: PacketId(1),
            seq: 0,
            kind: FlitKind::HeadTail,
            src: NodeId(0),
            dst,
            class,
            data: FlitData::dense(4),
            created_at: 0,
            hops: 0,
        }
    }

    /// Per-test harness bundling the caller-owned state `Router::step`
    /// borrows (arena, scratch, links, counters).
    struct Ctx {
        topo: Mesh2D,
        arena: FlitArena,
        scratch: StepScratch,
        counters: ActivityCounters,
        activity: RouterActivity,
        ejected: Vec<EjectedFlit>,
        links: Vec<Link>,
    }

    impl Ctx {
        fn new(cfg: &NetworkConfig) -> Self {
            Ctx {
                topo: Mesh2D::new(2, 2),
                arena: FlitArena::new(),
                scratch: StepScratch::new(5, cfg.router.vcs_per_port),
                counters: ActivityCounters::new(),
                activity: RouterActivity::default(),
                ejected: Vec::new(),
                links: Vec::new(),
            }
        }

        fn recv(&mut self, r: &mut Router, port: PortId, vc: VcId, flit: Flit, cycle: u64) {
            let fref = self.arena.alloc(flit);
            r.receive_flit(
                port,
                vc,
                fref,
                &self.arena,
                cycle,
                &mut self.counters,
                &mut self.activity,
            );
        }

        fn step(&mut self, r: &mut Router, cycle: u64) {
            r.step(
                cycle,
                &self.topo,
                &mut self.arena,
                &mut self.links,
                &mut self.scratch,
                &mut self.counters,
                &mut self.activity,
                &mut self.ejected,
                &mut Telemetry::default(),
            );
        }
    }

    /// A single-flit packet destined for the local node must traverse
    /// RC → VA → SA → ST in four successive cycles and then eject.
    #[test]
    fn single_flit_ejects_after_four_stages() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);

        c.recv(&mut r, PortId::LOCAL, VcId(0), mk_head(NodeId(0), PacketClass::Ack), 0);

        for cycle in 0..=3 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.ejected.len(), 1, "RC@0, VA@1, SA@2, ST@3");
        assert_eq!(c.ejected[0].cycle, 3);
        assert_eq!(c.ejected[0].flit.hops, 0);
        assert!(r.is_quiescent());
        assert_eq!(c.arena.allocated(), 0, "ejection frees the arena slot");
        assert_eq!(c.counters.flits_ejected, 1);
        assert_eq!(c.counters.packets_ejected, 1);
        assert_eq!(c.counters.rc_computations, 1);
    }

    /// Two head flits contending for the same output VC are granted in
    /// successive cycles, not simultaneously.
    #[test]
    fn output_vc_is_exclusive() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);

        // Two packets on different input VCs, both local-bound, same class
        // → same output VC.
        let mut f0 = mk_head(NodeId(0), PacketClass::Ack);
        f0.packet = PacketId(10);
        let mut f1 = mk_head(NodeId(0), PacketClass::Ack);
        f1.packet = PacketId(11);
        c.recv(&mut r, PortId::LOCAL, VcId(0), f0, 0);
        c.recv(&mut r, PortId(1), VcId(0), f1, 0);

        for cycle in 0..=5 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.ejected.len(), 2);
        // Ejections happen in different cycles (the single ejection VC
        // serialises the packets).
        assert_ne!(c.ejected[0].cycle, c.ejected[1].cycle);
    }

    /// Credits throttle forwarding: with a full downstream VC, nothing is
    /// granted until a credit returns.
    #[test]
    fn credits_gate_switch_allocation() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);
        // One outgoing link east (to node 1).
        c.links = vec![Link::new((NodeId(0), PortId(1)), (NodeId(1), PortId(2)), 3.1)];
        r.set_out_link(PortId(1), 0);

        // Exhaust all credits on (east, vc0).
        r.out_credits[r.pv(PortId(1), VcId(0))] = 0;

        let f = mk_head(NodeId(1), PacketClass::Ack);
        c.recv(&mut r, PortId::LOCAL, VcId(0), f, 0);
        for cycle in 0..10 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.links[0].flits_in_flight(), 0, "no credit, no traversal");

        // Return one credit; the flit must now flow.
        r.receive_credit(PortId(1), VcId(0));
        for cycle in 10..15 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.links[0].flits_in_flight(), 1);
        assert!(r.is_quiescent());
    }

    /// Layer shutdown scales the separable-module activity by the active
    /// fraction of the flit.
    #[test]
    fn shutdown_weights_separable_activity() {
        let mut cfg = mk_cfg();
        cfg.layer_shutdown = true;
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);

        let mut f = mk_head(NodeId(0), PacketClass::Ack);
        f.data = FlitData::with_active_words(4, 1); // short flit
        c.recv(&mut r, PortId::LOCAL, VcId(0), f, 0);
        for cycle in 0..=3 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.counters.buffer_writes_raw, 1);
        assert!((c.counters.buffer_writes - 0.25).abs() < 1e-12);
        assert!((c.counters.buffer_reads - 0.25).abs() < 1e-12);
        assert!((c.counters.xbar_traversals - 0.25).abs() < 1e-12);
        // Non-separable logic is not gated: RC ran at full weight.
        assert_eq!(c.counters.rc_computations, 1);
    }

    /// With fault routing on, RC masks a dead output port and detours
    /// through the best live neighbour instead.
    #[test]
    fn dead_port_detours_route_computation() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);
        // Node 0 of the 2x2 mesh is wired east (port 1) and north (port 3).
        c.links = vec![
            Link::new((NodeId(0), PortId(1)), (NodeId(1), PortId(2)), 3.1),
            Link::new((NodeId(0), PortId(3)), (NodeId(2), PortId(4)), 3.1),
        ];
        r.set_out_link(PortId(1), 0);
        r.set_out_link(PortId(3), 1);
        r.set_fault_routing(true);
        r.on_port_death(PortId(1));

        // Destination east of us: the deterministic route is through the
        // dead port, so the detour must pick north.
        let f = mk_head(NodeId(1), PacketClass::Ack);
        c.recv(&mut r, PortId::LOCAL, VcId(0), f, 0);
        c.step(&mut r, 0);
        assert_eq!(
            r.vc_state[r.pv(PortId::LOCAL, VcId(0))],
            VcState::WaitingVc { out_port: PortId(3) },
            "masked route falls back to the live north port"
        );
        assert_eq!(r.reroutes(), 1);
    }

    /// A dead port invalidates already-computed-but-not-granted routes:
    /// the VC is sent back to RC.
    #[test]
    fn port_death_restarts_waiting_vcs() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let pv00 = r.pv(PortId(0), VcId(0));
        let pv21 = r.pv(PortId(2), VcId(1));
        r.set_state(pv00, VcState::WaitingVc { out_port: PortId(1) });
        r.set_state(pv21, VcState::WaitingVc { out_port: PortId(3) });
        r.on_port_death(PortId(1));
        assert_eq!(r.vc_state[pv00], VcState::Routing, "route through dead port recomputed");
        assert_eq!(
            r.vc_state[pv21],
            VcState::WaitingVc { out_port: PortId(3) },
            "routes through live ports keep their grant request"
        );
    }

    /// A paused link (retransmission backoff) blocks switch allocation
    /// toward it and charges the LinkFault stall cause.
    #[test]
    fn paused_link_stalls_sa_with_link_fault_cause() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);
        c.links = vec![Link::new((NodeId(0), PortId(1)), (NodeId(1), PortId(2)), 3.1)];
        r.set_out_link(PortId(1), 0);
        r.set_link_paused(PortId(1), true);

        let f = mk_head(NodeId(1), PacketClass::Ack);
        c.recv(&mut r, PortId::LOCAL, VcId(0), f, 0);
        for cycle in 0..6 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.links[0].flits_in_flight(), 0, "paused link admits no traffic");
        assert!(r.stall_counters().link_fault > 0, "stall attributed to the link fault");

        r.set_link_paused(PortId(1), false);
        for cycle in 6..10 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.links[0].flits_in_flight(), 1, "unpausing releases the flit");
    }

    /// The severed-packet reaper drains buffered flits of a dropped
    /// packet, refluxes their credits upstream, and releases the held
    /// output VC.
    #[test]
    fn reaper_purges_severed_packet_and_refluxes_credits() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);
        // Incoming link feeding port 2 (west side), for credit reflux.
        c.links = vec![Link::new((NodeId(1), PortId(2)), (NodeId(0), PortId(1)), 3.1)];
        r.set_in_link(PortId(1), 0);

        let mut head = mk_head(NodeId(3), PacketClass::ReadRequest);
        head.kind = FlitKind::Head;
        head.packet = PacketId(42);
        let mut body = head.clone();
        body.kind = FlitKind::Body;
        body.seq = 1;
        c.recv(&mut r, PortId(1), VcId(0), head, 0);
        c.recv(&mut r, PortId(1), VcId(0), body, 0);
        let pv = r.pv(PortId(1), VcId(0));
        // Pretend VA granted the east output VC to this packet.
        r.set_state(pv, VcState::Active { out_port: PortId(1), out_vc: VcId(0) });
        r.out_owner[r.pv(PortId(1), VcId(0))] = Some((PortId(1), VcId(0)));

        let severed: HashSet<PacketId> = [PacketId(42)].into_iter().collect();
        let purged = r.purge_severed(&severed, 5, &mut c.arena, &mut c.links);
        assert_eq!(purged, 2);
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(c.arena.allocated(), 0, "purged flits freed their arena slots");
        assert_eq!(r.vc_state[pv], VcState::Idle);
        assert_eq!(r.vc_packet[pv], None);
        assert!(r.out_owner[r.pv(PortId(1), VcId(0))].is_none(), "held output VC released");
        assert_eq!(
            c.links[0].take_due_credit(6).map(|cr| cr.vc),
            Some(VcId(0)),
            "credit refluxed per flit"
        );
        assert_eq!(c.links[0].take_due_credit(6).map(|cr| cr.vc), Some(VcId(0)));
        assert!(c.links[0].take_due_credit(6).is_none());
    }
}

#[cfg(test)]
mod pipeline_depth_tests {
    use super::*;
    use crate::config::{NetworkConfig, PipelineConfig, PipelineDepth};
    use crate::flit::{FlitData, FlitKind};
    use crate::packet::{PacketClass, PacketId};
    use crate::topology::Mesh2D;

    fn eject_cycle(depth: PipelineDepth) -> u64 {
        let topo = Mesh2D::new(2, 2);
        let mut cfg = NetworkConfig::default();
        cfg.router.pipeline = PipelineConfig::separate_lt().with_depth(depth);
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut arena = FlitArena::new();
        let mut scratch = StepScratch::new(5, cfg.router.vcs_per_port);
        let mut counters = ActivityCounters::new();
        let mut activity = RouterActivity::default();
        let mut ejected = Vec::new();
        let mut links: Vec<Link> = Vec::new();
        let flit = Flit {
            packet: PacketId(1),
            seq: 0,
            kind: FlitKind::HeadTail,
            src: NodeId(0),
            dst: NodeId(0),
            class: PacketClass::Ack,
            data: FlitData::dense(4),
            created_at: 0,
            hops: 0,
        };
        let fref = arena.alloc(flit);
        r.receive_flit(PortId::LOCAL, VcId(0), fref, &arena, 0, &mut counters, &mut activity);
        for cycle in 0..10 {
            r.step(
                cycle,
                &topo,
                &mut arena,
                &mut links,
                &mut scratch,
                &mut counters,
                &mut activity,
                &mut ejected,
                &mut Telemetry::default(),
            );
            if let Some(e) = ejected.first() {
                return e.cycle;
            }
        }
        panic!("flit never ejected");
    }

    /// Uncontended head-flit pipeline occupancy matches Fig. 8: four,
    /// three, and two cycles from visibility to switch traversal.
    #[test]
    fn stage_counts_match_fig8() {
        assert_eq!(eject_cycle(PipelineDepth::FourStage), 3, "RC@0 VA@1 SA@2 ST@3");
        assert_eq!(eject_cycle(PipelineDepth::ThreeStageSpeculative), 2, "RC@0 VA+SA@1 ST@2");
        assert_eq!(eject_cycle(PipelineDepth::TwoStageLookahead), 1, "RC+VA+SA@0 ST@1");
    }
}
