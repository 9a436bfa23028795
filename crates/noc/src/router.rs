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
//! `Routers` holds the state of *every* router of the network in a few
//! dense arrays of compact elements, one array per kind of state:
//!
//! * per input/output VC, keyed `r * pvs + pv` with `pv = port*vcs + vc`:
//!   a 16-byte `VcCell` (packed pipeline state, serviced packet,
//!   output-VC owner, credits and VA2 arbiter pointer) and the FIFO of
//!   16-byte `BufSlot`s in the network-wide `FlitSlab`;
//! * per port, keyed `r * ports + p`: an 8-byte `PortCell` (incoming
//!   link, SA1/SA2 arbiter pointers, one slot of the switch-grant list);
//! * per router, keyed `r`: a `RouterCell` with the stage work-list
//!   bitmasks, the dead/paused output-port bitmasks, the outgoing-link
//!   wiring, occupancy, and stall counters;
//! * network-wide: the `awake` work-list of routers that may be busy
//!   (the network's router loop visits only those) and the running
//!   total of buffered flits.
//!
//! No router owns a heap block, so a 32×32 mesh costs the same number of
//! allocations as a 6×6 one, and a 2DB router's per-cycle state,
//! links included, is about 1.4 KB (the byte table is in DESIGN.md
//! §14). Flits
//! themselves live in the network's [`FlitArena`]; buffers hold arena
//! references plus the header fields the allocation stages read, so the
//! stages never chase a pointer into payload data. The per-cycle
//! transients the stages need are borrowed from a caller-owned
//! `StepScratch` — the pipeline allocates nothing per cycle.

use std::collections::HashSet;

use mira_obs::phase::{scope as obs_scope, Phase as ObsPhase};

use crate::arbiter::arbitrate_mask;
use crate::arena::{FlitArena, FlitRef};
use crate::buffer::{BufSlot, FlitSlab};
use crate::config::{NetworkConfig, PipelineConfig};
use crate::flit::Flit;
use crate::ids::{NodeId, PortId, VcId};
use crate::link::{delivery_cycle, Links};
use crate::packet::PacketId;
use crate::routing::apply_fault_mask;
use crate::stats::{ActivityCounters, RouterActivity};
use crate::telemetry::{StallCause, StallCounters, Telemetry, TraceEvent, TraceEventKind};
use crate::topology::Topology;
use crate::vc::VcState;
use crate::worklist::WorkList;

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

/// A granted crossbar traversal, scheduled at SA time and executed at ST
/// (the unpacked view the telemetry seam reads).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StGrant {
    pub(crate) in_port: PortId,
    pub(crate) in_vc: VcId,
    pub(crate) out_port: PortId,
    pub(crate) out_vc: VcId,
}

/// [`VcCell::packet`] of a VC that services no packet.
const NO_PACKET: PacketId = PacketId(u64::MAX);
/// [`VcCell::owner`] of a free output VC.
const NO_OWNER: u8 = u8::MAX;
/// [`PortCell::in_link`] of a port no link feeds.
const NO_LINK: u32 = u32::MAX;

/// Per-`(port, vc)` state. The input side (pipeline state, serviced
/// packet) and the output side (owner, credits, VA2 arbiter) of the same
/// flat index share one cell.
#[derive(Debug, Clone, Copy)]
struct VcCell {
    /// Packet the input VC services ([`NO_PACKET`] while idle).
    packet: PacketId,
    /// Input VC pipeline state.
    state: VcState,
    /// Input `pv` holding this output VC ([`NO_OWNER`] when free).
    owner: u8,
    /// Downstream credits of this output VC.
    credits: u8,
    /// Priority pointer of this output VC's VA2 arbiter (`pvs` lines).
    va2: u8,
}

/// A switch grant: input and output `pv`.
#[derive(Debug, Clone, Copy, Default)]
struct PackedGrant {
    in_pv: u8,
    out_pv: u8,
}

/// Per-port state.
#[derive(Debug, Clone, Copy)]
struct PortCell {
    /// Link feeding this input port ([`NO_LINK`] for the local port and
    /// edge ports), for upstream credit returns.
    in_link: u32,
    /// Grant `g` of this router's switch-grant list lives in port cell
    /// `g` (a router issues at most one grant per port per cycle).
    grant: PackedGrant,
    /// SA1 arbiter pointer of this input port (`vcs` lines).
    sa1: u8,
    /// SA2 arbiter pointer of this output port (`ports` lines).
    sa2: u8,
}

/// Per-router state.
#[derive(Debug, Clone, Copy, Default)]
struct RouterCell {
    /// Bit per `pv` in `Routing` state — the RC stage iterates set bits
    /// instead of scanning every VC (see [`Routers::set_state`]).
    routing: u64,
    /// Bit per `pv` in `WaitingVc` state (VA1 work list).
    waiting: u64,
    /// Bit per `pv` in `Active` state (SA1 work list).
    active: u64,
    /// Bit per output port with an outgoing link. Links are numbered in
    /// `(node, port)` order, so the link leaving port `p` is
    /// `link_base` plus the wired ports below `p`.
    wired: u64,
    /// Bit per output port whose link has permanently died.
    dead_out: u64,
    /// Bit per output port whose link is in retransmission backoff this
    /// cycle (set by the network; SA pauses grants toward them and
    /// charges the `LinkFault` stall cause).
    link_paused: u64,
    /// Id of this router's first outgoing link.
    link_base: u32,
    /// Flits buffered over every input VC.
    occupied: u16,
    /// Highest `occupied` ever reached (host-side watermark for the
    /// observability layer; never read by the simulation).
    occupied_peak: u16,
    /// Switch grants pending for the coming ST phase.
    grants: u8,
    /// Chaos hook: when set, the switch allocator issues no grants, so
    /// every flit entering this router parks forever — a deterministic
    /// way to exercise the no-progress watchdog.
    sa_frozen: bool,
    /// Route computations diverted around a dead link (fault telemetry).
    reroutes: u64,
    /// Stall cycles attributed by cause (telemetry; never read by the
    /// pipeline itself).
    stalls: StallCounters,
}

/// Reusable per-cycle working memory for [`Routers::step`].
///
/// Every transient the pipeline stages need lives here and is reset in
/// place instead of reallocated, which is what makes the steady-state
/// step loop allocation-free. One scratch, sized for one router, is
/// shared across all routers of a network.
#[derive(Debug)]
pub(crate) struct StepScratch {
    /// SA1 winner VC per input port (valid where the port requested SA2).
    sa1: Vec<u8>,
    /// SA2 request masks bucketed by output port: bit `ip` requests on
    /// behalf of input port `ip` (set by SA1 winners, drained and
    /// re-zeroed by SA2).
    sa2_req: Vec<u64>,
    /// VA requests bucketed by flat `(out_port, out_vc)` index: bit `pv`
    /// requests on behalf of input VC `pv` (set by VA1, drained by VA2).
    va_req: Vec<u64>,
    /// Route candidates of the head flit under consideration.
    candidates: Vec<PortId>,
}

impl StepScratch {
    /// Creates scratch space for routers of `ports` ports and `vcs` VCs
    /// per port.
    pub(crate) fn new(ports: usize, vcs: usize) -> Self {
        StepScratch {
            sa1: vec![0; ports],
            sa2_req: vec![0; ports],
            va_req: vec![0; ports * vcs],
            candidates: Vec::with_capacity(8),
        }
    }
}

/// Calls `f` on each set bit of `mask`, ascending.
#[inline]
fn for_each_bit(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        f(bit);
    }
}

/// Every router of a network: input VCs, output VC state, allocators,
/// and the pipeline, in dense network-wide arrays.
#[derive(Debug)]
pub(crate) struct Routers {
    ports: usize,
    vcs: usize,
    pipeline: PipelineConfig,
    layer_shutdown: bool,
    /// Number of physical datapath layers.
    layers: usize,
    /// Fault-aware routing enabled: RC masks dead output ports and
    /// detours around them. Off (and free) unless fault injection is
    /// engaged.
    fault_routing: bool,
    vc: Vec<VcCell>,
    /// Every input-VC FIFO, keyed like `vc`.
    buf: FlitSlab,
    port: Vec<PortCell>,
    router: Vec<RouterCell>,
    /// Routers that may be non-quiescent: a buffer write adds its
    /// router, and the network's router loop, which visits only these,
    /// retires the quiescent ones.
    awake: WorkList,
    /// Flits buffered over every router (the running sum of the
    /// routers' `occupied`).
    buffered: usize,
}

impl Routers {
    /// Creates `nodes` idle routers of `ports` ports (including local)
    /// configured per `cfg`. Link wiring is attached afterwards by the
    /// network. `cfg` must pass [`NetworkConfig::validate_for`].
    pub(crate) fn new(nodes: usize, ports: usize, cfg: &NetworkConfig) -> Self {
        debug_assert!(cfg.validate_for(nodes, ports).is_ok(), "unvalidated router widths");
        let vcs = cfg.router.vcs_per_port;
        let depth = cfg.router.buffer_depth;
        let vc = VcCell {
            packet: NO_PACKET,
            state: VcState::Idle,
            owner: NO_OWNER,
            credits: depth as u8,
            va2: 0,
        };
        let port = PortCell { in_link: NO_LINK, grant: PackedGrant::default(), sa1: 0, sa2: 0 };
        Routers {
            ports,
            vcs,
            pipeline: cfg.router.pipeline,
            layer_shutdown: cfg.layer_shutdown,
            layers: cfg.layers,
            fault_routing: false,
            vc: vec![vc; nodes * ports * vcs],
            buf: FlitSlab::new(nodes * ports * vcs, depth),
            port: vec![port; nodes * ports],
            router: vec![RouterCell::default(); nodes],
            awake: WorkList::new(nodes),
            buffered: 0,
        }
    }

    /// Number of routers.
    pub(crate) fn len(&self) -> usize {
        self.router.len()
    }

    /// `(port, vc)` pairs per router.
    #[inline]
    fn pvs(&self) -> usize {
        self.ports * self.vcs
    }

    /// Network-wide index of router `r`'s VC `pv` (into `vc` and `buf`).
    #[inline]
    fn vi(&self, r: usize, pv: usize) -> usize {
        r * self.pvs() + pv
    }

    /// Flat `(port, vc)` index within a router.
    #[inline]
    fn pv(&self, port: PortId, vc: VcId) -> usize {
        port.index() * self.vcs + vc.index()
    }

    /// Attaches the outgoing link `link` at router `r`'s `port` (wiring
    /// pass). Links must be attached in ascending `(router, port)` order,
    /// which is what lets [`Routers::out_link`] derive them.
    pub(crate) fn set_out_link(&mut self, r: usize, port: PortId, link: usize) {
        let cell = &mut self.router[r];
        if cell.wired == 0 {
            cell.link_base = u32::try_from(link).expect("link id exceeds u32");
        }
        cell.wired |= 1 << port.index();
        debug_assert_eq!(self.out_link(r, port), Some(link), "links wired out of order");
    }

    /// Attaches the incoming link `link` at router `r`'s `port` (wiring
    /// pass).
    pub(crate) fn set_in_link(&mut self, r: usize, port: PortId, link: usize) {
        let ports = self.ports;
        self.port[r * ports + port.index()].in_link =
            u32::try_from(link).expect("link id exceeds u32");
    }

    /// The link leaving router `r` through `port`, if one is wired.
    #[inline]
    fn out_link(&self, r: usize, port: PortId) -> Option<usize> {
        let cell = &self.router[r];
        let bit = 1u64 << port.index();
        (cell.wired & bit != 0)
            .then(|| cell.link_base as usize + (cell.wired & (bit - 1)).count_ones() as usize)
    }

    /// The link feeding router `r`'s `port`, if one is wired.
    #[inline]
    fn in_link(&self, r: usize, port: PortId) -> Option<usize> {
        let li = self.port[r * self.ports + port.index()].in_link;
        (li != NO_LINK).then_some(li as usize)
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
    /// the VC states.
    #[inline]
    fn set_state(&mut self, r: usize, pv: usize, state: VcState) {
        let bit = 1u64 << pv;
        let cell = &mut self.router[r];
        cell.routing &= !bit;
        cell.waiting &= !bit;
        cell.active &= !bit;
        match state {
            VcState::Idle => {}
            VcState::Routing => cell.routing |= bit,
            VcState::WaitingVc { .. } => cell.waiting |= bit,
            VcState::Active { .. } => cell.active |= bit,
        }
        let i = self.vi(r, pv);
        self.vc[i].state = state;
    }

    /// Writes `slot` into router `r`'s FIFO `pv`.
    #[inline]
    fn push(&mut self, r: usize, pv: usize, slot: BufSlot) {
        let i = self.vi(r, pv);
        self.buf.push(i, slot);
        let cell = &mut self.router[r];
        cell.occupied += 1;
        cell.occupied_peak = cell.occupied_peak.max(cell.occupied);
        self.buffered += 1;
        self.awake.insert(r);
    }

    /// Removes the front flit of router `r`'s FIFO `pv`.
    #[inline]
    fn pop(&mut self, r: usize, pv: usize) -> Option<BufSlot> {
        let slot = self.buf.pop(self.vi(r, pv))?;
        self.router[r].occupied -= 1;
        self.buffered -= 1;
        Some(slot)
    }

    /// The flit at the front of router `r`'s FIFO `pv`.
    #[inline]
    fn front(&self, r: usize, pv: usize) -> Option<&BufSlot> {
        self.buf.front(self.vi(r, pv))
    }

    /// A head flit buffered into an idle VC starts the next packet's
    /// pipeline occupancy: the VC enters `Routing` and records the
    /// packet it now services.
    fn on_flit_buffered(&mut self, r: usize, pv: usize, arena: &FlitArena) {
        let i = self.vi(r, pv);
        if self.vc[i].state == VcState::Idle {
            if let Some(front) = self.buf.front(i) {
                debug_assert!(
                    front.kind.is_head(),
                    "an idle VC must only receive head flits first"
                );
                self.vc[i].packet = arena.get(front.fref).packet;
                self.set_state(r, pv, VcState::Routing);
            }
        }
    }

    /// Returns router `r`'s VC `pv` to `Idle`; if the next packet's head
    /// is already buffered the VC re-enters `Routing` immediately.
    fn release_vc(&mut self, r: usize, pv: usize, arena: &FlitArena) {
        self.set_state(r, pv, VcState::Idle);
        let i = self.vi(r, pv);
        self.vc[i].packet = NO_PACKET;
        self.on_flit_buffered(r, pv, arena);
    }

    /// Accepts the flit at `fref` into router `r`'s input buffer at
    /// (`port`, `vc`).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (credit-accounting violation).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn receive_flit(
        &mut self,
        r: usize,
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
            ready_at: cycle,
            fref,
            dst: flit.dst.index() as u16,
            class: flit.class,
            kind: flit.kind,
        };
        let pv = self.pv(port, vc);
        self.push(r, pv, slot);
        self.on_flit_buffered(r, pv, arena);
    }

    /// Accepts a returned credit for router `r`'s output VC (`port`,
    /// `vc`).
    #[inline]
    pub(crate) fn receive_credit(&mut self, r: usize, port: PortId, vc: VcId) {
        let i = self.vi(r, self.pv(port, vc));
        self.vc[i].credits += 1;
    }

    /// Free slots in router `r`'s local input buffer for VC `vc` (used
    /// by the network interface to pace injection).
    #[inline]
    pub(crate) fn local_free_slots(&self, r: usize, vc: VcId) -> usize {
        self.buf.free_slots(self.vi(r, self.pv(PortId::LOCAL, vc)))
    }

    /// Total flits currently buffered in router `r` (O(1) — occupancy is
    /// tracked incrementally).
    #[inline]
    pub(crate) fn buffered_flits(&self, r: usize) -> usize {
        usize::from(self.router[r].occupied)
    }

    /// Total flits buffered over every router (O(1): a running sum).
    #[inline]
    pub(crate) fn buffered_total(&self) -> usize {
        self.buffered
    }

    /// Highest total buffer occupancy router `r` ever reached
    /// (host-side watermark; see `mira-obs`).
    pub(crate) fn buffer_peak(&self, r: usize) -> usize {
        usize::from(self.router[r].occupied_peak)
    }

    /// Returns `true` if router `r` holds no flits and has no pending
    /// switch grants. A quiescent router's [`Routers::step`] is a
    /// provable no-op — no counter, stall, trace, or arbiter mutation —
    /// which is what lets the network skip it entirely (the active-set
    /// optimisation; see DESIGN.md §14).
    #[inline]
    pub(crate) fn is_quiescent(&self, r: usize) -> bool {
        let cell = &self.router[r];
        cell.occupied == 0 && cell.grants == 0
    }

    /// The routers that may be non-quiescent (a superset; see
    /// [`WorkList`]).
    #[inline]
    pub(crate) fn awake(&self) -> &WorkList {
        &self.awake
    }

    /// Takes router `r` off the awake list if it is quiescent; returns
    /// whether it was.
    #[inline]
    pub(crate) fn retire_if_quiescent(&mut self, r: usize) -> bool {
        let quiescent = self.is_quiescent(r);
        if quiescent {
            self.awake.remove(r);
        }
        quiescent
    }

    /// Verifies router `r`'s work-list invariants, panicking with a
    /// diagnostic on the first violation. Checked properties:
    ///
    /// * each per-state mask (`routing`/`waiting`/`active`) holds exactly
    ///   the VCs whose state carries that state — the stages iterate the
    ///   masks, so a desync would silently skip pipeline work;
    /// * `Routing` and `WaitingVc` VCs hold a buffered head flit (which
    ///   is what makes the quiescence skip sound: an empty router can
    ///   have no routable or waiting VC);
    /// * a quiescent router has empty routing and waiting masks.
    ///
    /// This is a test/debug facility; it walks every VC and is not meant
    /// for per-cycle production use.
    pub(crate) fn assert_worklists_consistent(&self, r: usize) {
        let cell = &self.router[r];
        for pv in 0..self.pvs() {
            let bit = 1u64 << pv;
            let masks = (cell.routing & bit != 0, cell.waiting & bit != 0, cell.active & bit != 0);
            let state = self.vc[self.vi(r, pv)].state;
            let expect = match state {
                VcState::Idle => (false, false, false),
                VcState::Routing => (true, false, false),
                VcState::WaitingVc { .. } => (false, true, false),
                VcState::Active { .. } => (false, false, true),
            };
            assert_eq!(masks, expect, "router {r}: pv {pv} state {state:?} disagrees with masks");
            if matches!(state, VcState::Routing | VcState::WaitingVc { .. }) {
                assert!(
                    self.front(r, pv).is_some_and(|t| t.kind.is_head()),
                    "router {r}: pv {pv} is {state:?} without a buffered head flit"
                );
            }
        }
        if self.is_quiescent(r) {
            assert_eq!(
                cell.routing | cell.waiting,
                0,
                "router {r}: quiescent but holds routable or waiting VCs"
            );
        }
    }

    /// Router `r`'s cumulative stall-cause counters since construction.
    pub(crate) fn stall_counters(&self, r: usize) -> &StallCounters {
        &self.router[r].stalls
    }

    /// Charges router `r`'s stalled VC `pv` one cycle to `cause`: the
    /// router's own counter, then the telemetry consumers for its front
    /// flit (which belongs to the packet the VC services).
    #[inline]
    fn stall(&mut self, r: usize, pv: usize, cause: StallCause, tel: &mut Telemetry) {
        self.router[r].stalls.record(cause);
        let i = self.vi(r, pv);
        let head = self.buf.front(i).expect("a stalled VC holds a flit").kind.is_head();
        tel.stall(NodeId(r), self.vc[i].packet, head, cause);
    }

    /// Enables fault-aware route computation on every router: dead
    /// output ports are masked out of the candidate set and detoured
    /// around.
    pub(crate) fn enable_fault_routing(&mut self) {
        self.fault_routing = true;
    }

    /// Marks router `r`'s output `port` as permanently dead. Any VC whose
    /// computed route crosses the port but has not yet been granted an
    /// output VC is sent back to route computation so the mask (or the
    /// detour fallback) can pick a live port. VCs already streaming
    /// (`Active`) keep their route; the network black-holes their flits
    /// at the dead link and refluxes the credits.
    pub(crate) fn on_port_death(&mut self, r: usize, port: PortId) {
        self.router[r].dead_out |= 1 << port.index();
        for pv in 0..self.pvs() {
            let out_port = port.index() as u8;
            if self.vc[self.vi(r, pv)].state == (VcState::WaitingVc { out_port }) {
                self.set_state(r, pv, VcState::Routing);
            }
        }
    }

    /// Marks router `r`'s output `port` as paused (retransmission backoff
    /// in progress) or live again. SA skips paused ports and charges the
    /// [`StallCause::LinkFault`] cause.
    pub(crate) fn set_link_paused(&mut self, r: usize, port: PortId, paused: bool) {
        let bit = 1u64 << port.index();
        let cell = &mut self.router[r];
        cell.link_paused = if paused { cell.link_paused | bit } else { cell.link_paused & !bit };
    }

    /// Route computations router `r` diverted around dead links so far.
    pub(crate) fn reroutes(&self, r: usize) -> u64 {
        self.router[r].reroutes
    }

    /// Chaos hook: freezes router `r`'s switch allocator permanently, so
    /// it accepts flits but never grants the switch — the deterministic
    /// stall the no-progress watchdog is tested against.
    pub(crate) fn freeze_sa(&mut self, r: usize) {
        self.router[r].sa_frozen = true;
    }

    /// A compact word summarising router `r`'s fabric-facing state: the
    /// three work-list masks, the buffer occupancy and the pending switch
    /// grants. Any flit movement, state transition or grant changes it,
    /// so the no-progress watchdog can compare it per cycle instead of
    /// the full state.
    pub(crate) fn progress_word(&self, r: usize) -> [u64; 5] {
        let c = &self.router[r];
        [c.routing, c.waiting, c.active, u64::from(c.occupied), u64::from(c.grants)]
    }

    /// Age in cycles of the oldest ready head-of-FIFO flit at router `r`
    /// (0 when every FIFO is empty) — the starvation detector's subject.
    pub(crate) fn max_head_age(&self, r: usize, cycle: u64) -> u64 {
        (0..self.pvs())
            .filter_map(|pv| self.front(r, pv))
            .map(|s| cycle.saturating_sub(s.ready_at))
            .max()
            .unwrap_or(0)
    }

    /// Number of router `r`'s output VCs holding more downstream credits
    /// than the buffer depth they track — any non-zero value is a
    /// credit-conservation violation.
    pub(crate) fn credit_overflows(&self, r: usize) -> u64 {
        let depth = self.buf.capacity();
        let base = self.vi(r, 0);
        self.vc[base..base + self.pvs()].iter().filter(|c| usize::from(c.credits) > depth).count()
            as u64
    }

    /// Freezes router `r`'s state into a
    /// [`RouterDump`](crate::recorder::RouterDump) for the black box.
    /// `x`/`y` are the topology coordinates.
    pub(crate) fn dump(&self, r: usize, cycle: u64, x: u64, y: u64) -> crate::recorder::RouterDump {
        let mut vcs = Vec::new();
        for pv in 0..self.pvs() {
            let cell = self.vc[self.vi(r, pv)];
            let state = cell.state;
            let front = self.front(r, pv);
            let occupancy = self.buf.len(self.vi(r, pv));
            if state == VcState::Idle && occupancy == 0 {
                continue;
            }
            let (out_port, out_vc) = match state {
                VcState::Idle | VcState::Routing => (None, None),
                VcState::WaitingVc { out_port } => (Some(u64::from(out_port)), None),
                VcState::Active { out_pv } => {
                    let (p, v) = (usize::from(out_pv) / self.vcs, usize::from(out_pv) % self.vcs);
                    (Some(p as u64), Some(v as u64))
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
                packet: (cell.packet != NO_PACKET).then_some(cell.packet.0),
                occupancy: occupancy as u64,
                head_age: front.map(|s| cycle.saturating_sub(s.ready_at)),
                credits: u64::from(cell.credits),
            });
        }
        let c = &self.router[r];
        crate::recorder::RouterDump {
            router: r as u64,
            x,
            y,
            buffered: u64::from(c.occupied),
            routing_mask: c.routing,
            waiting_mask: c.waiting,
            active_mask: c.active,
            sa_frozen: c.sa_frozen,
            vcs,
        }
    }

    /// Minimal-detour fallback when the fault mask empties the candidate
    /// set: among router `r`'s live, wired output ports (excluding the
    /// u-turn back out of the input port, which could ping-pong forever),
    /// pick the one whose neighbour minimises the remaining hop distance,
    /// lowest port on ties. Falls back to allowing the u-turn if it is
    /// the only live port left.
    fn detour_port(&self, r: usize, topo: &dyn Topology, in_port: PortId, dst: NodeId) -> PortId {
        let cell = &self.router[r];
        let live = cell.wired & !cell.dead_out;
        let best = |allow_uturn: bool| -> Option<PortId> {
            (1..self.ports)
                .filter(|&p| live & (1 << p) != 0)
                .filter(|&p| allow_uturn || PortId(p) != in_port)
                .filter_map(|p| {
                    topo.neighbor(NodeId(r), PortId(p)).map(|n| (topo.min_hops(n, dst), p))
                })
                .min()
                .map(|(_, p)| PortId(p))
        };
        best(false)
            .or_else(|| best(true))
            .expect("no live output port left for detour: node is fully disconnected")
    }

    /// Router `r`'s pending switch grants.
    fn grants(&self, r: usize) -> impl Iterator<Item = PackedGrant> + '_ {
        let base = r * self.ports;
        self.port[base..base + usize::from(self.router[r].grants)].iter().map(|p| p.grant)
    }

    /// Purges router `r`'s buffered flits belonging to severed (dropped)
    /// packets and refluxes their credits upstream, releasing any held
    /// output VC. Returns the number of flits purged. Called by the
    /// network's fault layer before the router phase each cycle; VCs
    /// holding a pending switch grant are skipped until the grant drains
    /// (ST would pop an empty buffer).
    pub(crate) fn purge_severed(
        &mut self,
        r: usize,
        severed: &HashSet<PacketId>,
        cycle: u64,
        arena: &mut FlitArena,
        links: &mut Links,
    ) -> u64 {
        let mut purged = 0u64;
        for pv in 0..self.pvs() {
            let cell = self.vc[self.vi(r, pv)];
            let pid = cell.packet;
            if pid == NO_PACKET
                || !severed.contains(&pid)
                || self.grants(r).any(|g| usize::from(g.in_pv) == pv)
            {
                continue;
            }
            let mut popped = 0u64;
            while self.front(r, pv).is_some_and(|s| arena.get(s.fref).packet == pid) {
                let slot = self.pop(r, pv).expect("front exists");
                arena.free(slot.fref);
                popped += 1;
            }
            // Each popped flit frees a slot the upstream router already
            // paid a credit for.
            let (ip, iv) = (pv / self.vcs, pv % self.vcs);
            if let Some(li) = self.in_link(r, PortId(ip)) {
                for _ in 0..popped {
                    links.send_credit(li, VcId(iv), delivery_cycle(cycle, 0));
                }
            }
            if let VcState::Active { out_pv } = cell.state {
                let ov = self.vi(r, usize::from(out_pv));
                debug_assert_eq!(usize::from(self.vc[ov].owner), pv);
                self.vc[ov].owner = NO_OWNER;
            }
            purged += popped;
            self.release_vc(r, pv, arena);
        }
        purged
    }

    /// Advances router `r` by one cycle.
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
    pub(crate) fn step(
        &mut self,
        r: usize,
        cycle: u64,
        topo: &dyn Topology,
        arena: &mut FlitArena,
        links: &mut Links,
        scratch: &mut StepScratch,
        counters: &mut ActivityCounters,
        activity: &mut RouterActivity,
        ejected: &mut Vec<EjectedFlit>,
        tel: &mut Telemetry,
    ) {
        self.stage_st(r, cycle, arena, links, counters, activity, ejected, tel);
        match self.pipeline.depth {
            crate::config::PipelineDepth::FourStage => {
                self.stage_sa(r, cycle, scratch, counters, tel);
                self.stage_va(r, cycle, scratch, counters, tel);
                self.stage_rc(r, cycle, topo, scratch, counters, tel);
            }
            crate::config::PipelineDepth::ThreeStageSpeculative => {
                self.stage_va(r, cycle, scratch, counters, tel);
                self.stage_sa(r, cycle, scratch, counters, tel);
                self.stage_rc(r, cycle, topo, scratch, counters, tel);
            }
            crate::config::PipelineDepth::TwoStageLookahead => {
                self.stage_rc(r, cycle, topo, scratch, counters, tel);
                self.stage_va(r, cycle, scratch, counters, tel);
                self.stage_sa(r, cycle, scratch, counters, tel);
            }
        }
    }

    /// ST: execute last cycle's switch grants.
    ///
    /// ST always runs first within the cycle, and SA (which is what
    /// refills the grant list) always runs after it, so the list is
    /// consumed in order and then emptied.
    #[allow(clippy::too_many_arguments)]
    fn stage_st(
        &mut self,
        r: usize,
        cycle: u64,
        arena: &mut FlitArena,
        links: &mut Links,
        counters: &mut ActivityCounters,
        activity: &mut RouterActivity,
        ejected: &mut Vec<EjectedFlit>,
        tel: &mut Telemetry,
    ) {
        let _obs = obs_scope(ObsPhase::StageSt);
        let grants = usize::from(self.router[r].grants);
        if grants == 0 {
            return;
        }
        let vcs = self.vcs;
        for gi in 0..grants {
            let PackedGrant { in_pv, out_pv } = self.port[r * self.ports + gi].grant;
            let (pv, ov) = (usize::from(in_pv), usize::from(out_pv));
            let g = StGrant {
                in_port: PortId(pv / vcs),
                in_vc: VcId(pv % vcs),
                out_port: PortId(ov / vcs),
                out_vc: VcId(ov % vcs),
            };
            let slot = self.pop(r, pv).expect("SA granted an empty VC");
            // The only payload touch on the traversal path: one arena
            // read for the activity fractions.
            let (fraction, active_layers) = if self.layer_shutdown {
                let data = &arena.get(slot.fref).data;
                let words = data.num_words();
                let active = (data.active_words() * self.layers).div_ceil(words).min(self.layers);
                (data.active_fraction(), active)
            } else {
                (1.0, self.layers)
            };
            counters.record_buffer_read(fraction);
            counters.record_xbar(fraction);
            activity.buffer_events += fraction;
            activity.xbar_events += fraction;
            activity.xbar_events_raw += 1;

            let packet = self.vc[self.vi(r, pv)].packet;
            tel.switch_traversal(cycle, NodeId(r), g, packet, slot.kind.is_head(), active_layers);

            // Return a credit upstream for the freed buffer slot.
            if let Some(li) = self.in_link(r, g.in_port) {
                links.send_credit(li, g.in_vc, cycle + 1);
            }

            if g.out_port.is_local() {
                counters.flits_ejected += 1;
                if slot.kind.is_tail() {
                    counters.packets_ejected += 1;
                }
                ejected.push(EjectedFlit { flit: arena.take(slot.fref), node: NodeId(r), cycle });
            } else {
                arena.get_mut(slot.fref).hops += 1;
                let li =
                    self.out_link(r, g.out_port).expect("route led through a port with no link");
                let length = links.length_mm(li);
                counters.record_link(length, fraction);
                activity.link_flit_mm += length * fraction;
                let deliver = delivery_cycle(cycle, self.pipeline.link_extra_cycles());
                links.send_flit(li, arena, slot.fref, g.out_vc, deliver);
            }

            if slot.kind.is_tail() {
                let o = self.vi(r, ov);
                self.vc[o].owner = NO_OWNER;
                self.release_vc(r, pv, arena);
            }
        }
        self.router[r].grants = 0;
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
        r: usize,
        cycle: u64,
        scratch: &mut StepScratch,
        counters: &mut ActivityCounters,
        tel: &mut Telemetry,
    ) {
        let _obs = obs_scope(ObsPhase::StageSa);
        let RouterCell { active, sa_frozen, link_paused, .. } = self.router[r];
        if active == 0 || sa_frozen {
            // No VC holds the switch (or the chaos hook froze the
            // allocator): both allocation stages are no-ops.
            return;
        }
        let (ports, vcs) = (self.ports, self.vcs);
        let (vb, pb) = (self.vi(r, 0), r * ports);
        // SA1: one candidate VC per input port, visiting only the ports
        // with an `Active` VC (set bits in the work-list mask), in
        // ascending order.
        let port_vcs = u64::MAX >> (64 - vcs);
        let mut eligible: u64 = 0;
        let mut sa2_used: u64 = 0;
        let mut pending = active;
        while pending != 0 {
            let ip = pending.trailing_zeros() as usize / vcs;
            pending &= !(port_vcs << (ip * vcs));
            let port_active = (active >> (ip * vcs)) & port_vcs;
            let mut elig_mask: u64 = 0;
            for_each_bit(port_active, |iv| {
                let pv = ip * vcs + iv;
                let VcState::Active { out_pv } = self.vc[vb + pv].state else {
                    debug_assert!(false, "active mask out of sync with the VC state");
                    return;
                };
                if !self.buf.front_ready(vb + pv, cycle) {
                    return;
                }
                let out_port = usize::from(out_pv) / vcs;
                if out_port != 0 && link_paused & (1 << out_port) != 0 {
                    // The outgoing link is replaying its window; new
                    // traffic would interleave into the resent stream.
                    self.stall(r, pv, StallCause::LinkFault, tel);
                    return;
                }
                if out_port == 0 || self.vc[vb + usize::from(out_pv)].credits > 0 {
                    elig_mask |= 1u64 << iv;
                } else {
                    self.stall(r, pv, StallCause::NoCredit, tel);
                }
            });
            if elig_mask == 0 {
                continue;
            }
            counters.sa1_arbitrations += 1;
            if let Some(iv) = arbitrate_mask(&mut self.port[pb + ip].sa1, vcs, elig_mask) {
                if let VcState::Active { out_pv } = self.vc[vb + ip * vcs + iv].state {
                    let op = usize::from(out_pv) / vcs;
                    scratch.sa1[ip] = iv as u8;
                    scratch.sa2_req[op] |= 1u64 << ip;
                    sa2_used |= 1u64 << op;
                }
            }
            eligible |= elig_mask << (ip * vcs);
        }

        // SA2: one input port per output port, over the requested output
        // ports only (ascending, via the bucket-usage mask).
        let mut granted: u64 = 0;
        for_each_bit(sa2_used, |op| {
            counters.sa2_arbitrations += 1;
            let req = std::mem::take(&mut scratch.sa2_req[op]);
            let Some(ip) = arbitrate_mask(&mut self.port[pb + op].sa2, ports, req) else {
                return;
            };
            let pv = ip * vcs + usize::from(scratch.sa1[ip]);
            let VcState::Active { out_pv } = self.vc[vb + pv].state else {
                unreachable!("an SA1 winner is active");
            };
            let ov = usize::from(out_pv);
            if op != 0 {
                debug_assert!(self.vc[vb + ov].credits > 0, "SA granted without credit");
                self.vc[vb + ov].credits -= 1;
            }
            tel.trace_event(TraceEvent {
                cycle,
                router: NodeId(r),
                port: PortId(ip),
                vc: VcId(pv % vcs),
                kind: TraceEventKind::SwitchAlloc,
                packet: self.vc[vb + pv].packet.0,
                detail: op as u32,
            });
            granted |= 1u64 << pv;
            let cell = &mut self.router[r];
            self.port[pb + usize::from(cell.grants)].grant =
                PackedGrant { in_pv: pv as u8, out_pv };
            cell.grants += 1;
        });

        // Every eligible VC that did not get the switch stalled on
        // arbitration this cycle.
        for_each_bit(eligible & !granted, |pv| self.stall(r, pv, StallCause::SaLoss, tel));
    }

    /// VA: two-stage virtual-channel allocation for VCs holding a routed
    /// head flit.
    ///
    /// Stall attribution for head flits waiting on a VC: requesters of an
    /// output VC still owned by another packet are charged `RouteBusy`;
    /// losers of the arbitration for a free VC are charged `VaLoss`.
    fn stage_va(
        &mut self,
        r: usize,
        cycle: u64,
        scratch: &mut StepScratch,
        counters: &mut ActivityCounters,
        tel: &mut Telemetry,
    ) {
        let _obs = obs_scope(ObsPhase::StageVa);
        let waiting = self.router[r].waiting;
        if waiting == 0 {
            return;
        }
        let (vcs, pvs, vb) = (self.vcs, self.pvs(), self.vi(r, 0));
        // VA1: each waiting input VC (a set bit in the work-list mask)
        // selects its desired output VC — one VC per traffic class
        // (control / data), clamped to the available VC count. Buckets
        // are left empty by VA2, so no clearing pass is needed here.
        let mut va2_used: u64 = 0;
        for_each_bit(waiting, |pv| {
            let VcState::WaitingVc { out_port } = self.vc[vb + pv].state else {
                debug_assert!(false, "waiting mask out of sync with the VC state");
                return;
            };
            if !self.buf.front_ready(vb + pv, cycle) {
                return;
            }
            let class = self.buf.front(vb + pv).expect("waiting VC holds a head flit").class;
            let out_vc = class.vc_index().min(vcs - 1);
            counters.va1_arbitrations += 1;
            let b = usize::from(out_port) * vcs + out_vc;
            scratch.va_req[b] |= 1u64 << pv;
            va2_used |= 1u64 << b;
        });

        // VA2: arbitrate per (output port, output VC) among requesters —
        // requested buckets only, ascending flat index; requesters are
        // charged in ascending `pv` order.
        for_each_bit(va2_used, |b| {
            counters.va2_arbitrations += 1;
            let lines = std::mem::take(&mut scratch.va_req[b]);
            if self.vc[vb + b].owner != NO_OWNER {
                // The target VC is held by an in-flight packet: every
                // requester stalls on route occupancy this cycle.
                for_each_bit(lines, |pv| self.stall(r, pv, StallCause::RouteBusy, tel));
                return;
            }
            let Some(line) = arbitrate_mask(&mut self.vc[vb + b].va2, pvs, lines) else {
                return;
            };
            self.vc[vb + b].owner = line as u8;
            self.set_state(r, line, VcState::Active { out_pv: b as u8 });
            tel.trace_event(TraceEvent {
                cycle,
                router: NodeId(r),
                port: PortId(line / vcs),
                vc: VcId(line % vcs),
                kind: TraceEventKind::VcAlloc,
                packet: self.vc[vb + line].packet.0,
                detail: (b / vcs) as u32,
            });
            // The remaining requesters lost the arbitration.
            for_each_bit(lines & !(1u64 << line), |pv| self.stall(r, pv, StallCause::VaLoss, tel));
        });
    }

    /// RC: route computation for VCs holding an unrouted head flit.
    ///
    /// With an adaptive topology ([`Topology::route_candidates_into`]
    /// yields more than one port) the stage selects the candidate whose
    /// output VCs hold the most credits — congestion-aware selection —
    /// with the model's preference order breaking ties.
    fn stage_rc(
        &mut self,
        r: usize,
        cycle: u64,
        topo: &dyn Topology,
        scratch: &mut StepScratch,
        counters: &mut ActivityCounters,
        tel: &mut Telemetry,
    ) {
        let _obs = obs_scope(ObsPhase::StageRc);
        let routing = self.router[r].routing;
        if routing == 0 {
            return;
        }
        let (vcs, vb) = (self.vcs, self.vi(r, 0));
        for_each_bit(routing, |pv| {
            let (ip, iv) = (pv / vcs, pv % vcs);
            if !self.buf.front_ready(vb + pv, cycle) {
                return;
            }
            let head = self.buf.front(vb + pv).expect("routing VC holds a head flit");
            debug_assert!(head.kind.is_head(), "routing state without a head flit");
            let dst = NodeId(usize::from(head.dst));
            let candidates = &mut scratch.candidates;
            candidates.clear();
            topo.route_candidates_into(NodeId(r), dst, candidates);
            debug_assert!(!candidates.is_empty(), "routing produced no candidates");
            if self.fault_routing {
                let masked = apply_fault_mask(candidates, self.router[r].dead_out);
                // Also mask the backtrack port (the reverse of the edge
                // the flit arrived on). Dimension-ordered routes are
                // monotone and never backtrack, so this only fires for
                // packets already detoured around a dead link — and for
                // those it is what breaks the detour/return ping-pong
                // livelock: the neighbour of a dead link would otherwise
                // XY-route the packet straight back at the fault forever.
                let backtracked = if ip != PortId::LOCAL.index() {
                    let before = candidates.len();
                    candidates.retain(|p| p.index() != ip);
                    candidates.len() != before
                } else {
                    false
                };
                if candidates.is_empty() {
                    candidates.push(self.detour_port(r, topo, PortId(ip), dst));
                }
                if masked || backtracked {
                    self.router[r].reroutes += 1;
                }
            }
            let out_port = if candidates.len() == 1 {
                candidates[0]
            } else {
                let credits_of = |p: PortId| -> usize {
                    let base = vb + p.index() * vcs;
                    self.vc[base..base + vcs].iter().map(|c| usize::from(c.credits)).sum()
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
            self.set_state(r, pv, VcState::WaitingVc { out_port: out_port.index() as u8 });
            tel.trace_event(TraceEvent {
                cycle,
                router: NodeId(r),
                port: PortId(ip),
                vc: VcId(iv),
                kind: TraceEventKind::RouteCompute,
                packet: self.vc[vb + pv].packet.0,
                detail: out_port.index() as u32,
            });
        });
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

    /// One link out of router 0's `port` (to router 1).
    fn link_out(port: usize) -> crate::link::Wiring {
        ((NodeId(0), PortId(port)), (NodeId(1), PortId(2)), 3.1)
    }

    /// Per-test harness: router 0 of a one-router population, plus the
    /// caller-owned state `Routers::step` borrows (arena, scratch,
    /// links, counters).
    struct Ctx {
        r: Routers,
        topo: Mesh2D,
        arena: FlitArena,
        scratch: StepScratch,
        counters: ActivityCounters,
        activity: RouterActivity,
        ejected: Vec<EjectedFlit>,
        links: Links,
    }

    impl Ctx {
        fn new(cfg: &NetworkConfig) -> Self {
            Ctx {
                r: Routers::new(1, 5, cfg),
                topo: Mesh2D::new(2, 2),
                arena: FlitArena::new(),
                scratch: StepScratch::new(5, cfg.router.vcs_per_port),
                counters: ActivityCounters::new(),
                activity: RouterActivity::default(),
                ejected: Vec::new(),
                links: Links::new(&[], 1),
            }
        }

        fn recv(&mut self, port: PortId, vc: VcId, flit: Flit, cycle: u64) {
            let fref = self.arena.alloc(flit);
            self.r.receive_flit(
                0,
                port,
                vc,
                fref,
                &self.arena,
                cycle,
                &mut self.counters,
                &mut self.activity,
            );
        }

        fn step(&mut self, cycle: u64) {
            self.r.step(
                0,
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

        fn state(&self, port: PortId, vc: VcId) -> VcState {
            self.r.vc[self.r.pv(port, vc)].state
        }
    }

    #[test]
    fn compact_cells() {
        assert_eq!(std::mem::size_of::<VcCell>(), 16);
        assert_eq!(std::mem::size_of::<PortCell>(), 8);
    }

    /// A single-flit packet destined for the local node must traverse
    /// RC → VA → SA → ST in four successive cycles and then eject.
    #[test]
    fn single_flit_ejects_after_four_stages() {
        let mut c = Ctx::new(&mk_cfg());
        c.recv(PortId::LOCAL, VcId(0), mk_head(NodeId(0), PacketClass::Ack), 0);

        for cycle in 0..=3 {
            c.step(cycle);
        }
        assert_eq!(c.ejected.len(), 1, "RC@0, VA@1, SA@2, ST@3");
        assert_eq!(c.ejected[0].cycle, 3);
        assert_eq!(c.ejected[0].flit.hops, 0);
        assert!(c.r.is_quiescent(0));
        assert_eq!(c.arena.allocated(), 0, "ejection frees the arena slot");
        assert_eq!(c.counters.flits_ejected, 1);
        assert_eq!(c.counters.packets_ejected, 1);
        assert_eq!(c.counters.rc_computations, 1);
    }

    /// Two head flits contending for the same output VC are granted in
    /// successive cycles, not simultaneously.
    #[test]
    fn output_vc_is_exclusive() {
        let mut c = Ctx::new(&mk_cfg());

        // Two packets on different input VCs, both local-bound, same class
        // → same output VC.
        let mut f0 = mk_head(NodeId(0), PacketClass::Ack);
        f0.packet = PacketId(10);
        let mut f1 = mk_head(NodeId(0), PacketClass::Ack);
        f1.packet = PacketId(11);
        c.recv(PortId::LOCAL, VcId(0), f0, 0);
        c.recv(PortId(1), VcId(0), f1, 0);

        for cycle in 0..=5 {
            c.step(cycle);
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
        let mut c = Ctx::new(&mk_cfg());
        // One outgoing link east (to node 1).
        c.links = Links::new(&[link_out(1)], 1);
        c.r.set_out_link(0, PortId(1), 0);

        // Exhaust all credits on (east, vc0).
        let ov = c.r.pv(PortId(1), VcId(0));
        c.r.vc[ov].credits = 0;

        c.recv(PortId::LOCAL, VcId(0), mk_head(NodeId(1), PacketClass::Ack), 0);
        for cycle in 0..10 {
            c.step(cycle);
        }
        assert_eq!(c.links.flits_in_flight(0), 0, "no credit, no traversal");

        // Return one credit; the flit must now flow.
        c.r.receive_credit(0, PortId(1), VcId(0));
        for cycle in 10..15 {
            c.step(cycle);
        }
        assert_eq!(c.links.flits_in_flight(0), 1);
        assert!(c.r.is_quiescent(0));
    }

    /// Layer shutdown scales the separable-module activity by the active
    /// fraction of the flit.
    #[test]
    fn shutdown_weights_separable_activity() {
        let mut cfg = mk_cfg();
        cfg.layer_shutdown = true;
        let mut c = Ctx::new(&cfg);

        let mut f = mk_head(NodeId(0), PacketClass::Ack);
        f.data = FlitData::with_active_words(4, 1); // short flit
        c.recv(PortId::LOCAL, VcId(0), f, 0);
        for cycle in 0..=3 {
            c.step(cycle);
        }
        assert_eq!(c.counters.buffer_writes_raw, 1);
        assert!((c.counters.buffer_writes - 0.25).abs() < 1e-12);
        assert!((c.counters.buffer_reads - 0.25).abs() < 1e-12);
        assert!((c.counters.xbar_traversals - 0.25).abs() < 1e-12);
        // Non-separable logic is not gated: RC ran at full weight.
        assert_eq!(c.counters.rc_computations, 1);
    }

    /// Out-links are derived from the wiring: the first wired port's
    /// link id plus the wired ports below.
    #[test]
    fn out_links_follow_the_wiring_order() {
        let mut r = Routers::new(2, 5, &mk_cfg());
        r.set_out_link(0, PortId(1), 0);
        r.set_out_link(0, PortId(3), 1);
        r.set_out_link(1, PortId(2), 2);
        r.set_out_link(1, PortId(4), 3);
        assert_eq!(r.out_link(0, PortId(1)), Some(0));
        assert_eq!(r.out_link(0, PortId(2)), None);
        assert_eq!(r.out_link(0, PortId(3)), Some(1));
        assert_eq!(r.out_link(1, PortId(4)), Some(3));
        assert_eq!(r.out_link(1, PortId::LOCAL), None);
    }

    /// With fault routing on, RC masks a dead output port and detours
    /// through the best live neighbour instead.
    #[test]
    fn dead_port_detours_route_computation() {
        let mut c = Ctx::new(&mk_cfg());
        // Node 0 of the 2x2 mesh is wired east (port 1) and north (port 3).
        c.links = Links::new(&[link_out(1), link_out(3)], 1);
        c.r.set_out_link(0, PortId(1), 0);
        c.r.set_out_link(0, PortId(3), 1);
        c.r.enable_fault_routing();
        c.r.on_port_death(0, PortId(1));

        // Destination east of us: the deterministic route is through the
        // dead port, so the detour must pick north.
        c.recv(PortId::LOCAL, VcId(0), mk_head(NodeId(1), PacketClass::Ack), 0);
        c.step(0);
        assert_eq!(
            c.state(PortId::LOCAL, VcId(0)),
            VcState::WaitingVc { out_port: 3 },
            "masked route falls back to the live north port"
        );
        assert_eq!(c.r.reroutes(0), 1);
    }

    /// A dead port invalidates already-computed-but-not-granted routes:
    /// the VC is sent back to RC.
    #[test]
    fn port_death_restarts_waiting_vcs() {
        let mut c = Ctx::new(&mk_cfg());
        let pv00 = c.r.pv(PortId(0), VcId(0));
        let pv21 = c.r.pv(PortId(2), VcId(1));
        c.r.set_state(0, pv00, VcState::WaitingVc { out_port: 1 });
        c.r.set_state(0, pv21, VcState::WaitingVc { out_port: 3 });
        c.r.on_port_death(0, PortId(1));
        assert_eq!(c.state(PortId(0), VcId(0)), VcState::Routing, "route through dead port");
        assert_eq!(
            c.state(PortId(2), VcId(1)),
            VcState::WaitingVc { out_port: 3 },
            "routes through live ports keep their grant request"
        );
    }

    /// A paused link (retransmission backoff) blocks switch allocation
    /// toward it and charges the LinkFault stall cause.
    #[test]
    fn paused_link_stalls_sa_with_link_fault_cause() {
        let mut c = Ctx::new(&mk_cfg());
        c.links = Links::new(&[link_out(1)], 1);
        c.r.set_out_link(0, PortId(1), 0);
        c.r.set_link_paused(0, PortId(1), true);

        c.recv(PortId::LOCAL, VcId(0), mk_head(NodeId(1), PacketClass::Ack), 0);
        for cycle in 0..6 {
            c.step(cycle);
        }
        assert_eq!(c.links.flits_in_flight(0), 0, "paused link admits no traffic");
        assert!(c.r.stall_counters(0).link_fault > 0, "stall attributed to the link fault");

        c.r.set_link_paused(0, PortId(1), false);
        for cycle in 6..10 {
            c.step(cycle);
        }
        assert_eq!(c.links.flits_in_flight(0), 1, "unpausing releases the flit");
    }

    /// The severed-packet reaper drains buffered flits of a dropped
    /// packet, refluxes their credits upstream, and releases the held
    /// output VC.
    #[test]
    fn reaper_purges_severed_packet_and_refluxes_credits() {
        let mut c = Ctx::new(&mk_cfg());
        // Incoming link feeding port 1, for credit reflux; purging only
        // runs under fault injection, which widens the wire to the ARQ
        // window.
        c.links = Links::new(&[((NodeId(1), PortId(2)), (NodeId(0), PortId(1)), 3.1)], 1);
        c.links.enable_arq(2, 8);
        c.r.set_in_link(0, PortId(1), 0);

        let mut head = mk_head(NodeId(3), PacketClass::ReadRequest);
        head.kind = FlitKind::Head;
        head.packet = PacketId(42);
        let mut body = head.clone();
        body.kind = FlitKind::Body;
        body.seq = 1;
        c.recv(PortId(1), VcId(0), head, 0);
        c.recv(PortId(1), VcId(0), body, 0);
        let pv = c.r.pv(PortId(1), VcId(0));
        // Pretend VA granted the east output VC to this packet.
        c.r.set_state(0, pv, VcState::Active { out_pv: c.r.pv(PortId(1), VcId(0)) as u8 });
        c.r.vc[pv].owner = pv as u8;

        let severed: HashSet<PacketId> = [PacketId(42)].into_iter().collect();
        let purged = c.r.purge_severed(0, &severed, 5, &mut c.arena, &mut c.links);
        assert_eq!(purged, 2);
        assert_eq!(c.r.buffered_flits(0), 0);
        assert_eq!(c.arena.allocated(), 0, "purged flits freed their arena slots");
        assert_eq!(c.state(PortId(1), VcId(0)), VcState::Idle);
        assert_eq!(c.r.vc[pv].packet, NO_PACKET);
        assert_eq!(c.r.vc[pv].owner, NO_OWNER, "held output VC released");
        assert_eq!(c.links.take_due_credit(0, 6).map(|cr| cr.vc()), Some(VcId(0)), "reflux");
        assert_eq!(c.links.take_due_credit(0, 6).map(|cr| cr.vc()), Some(VcId(0)));
        assert!(c.links.take_due_credit(0, 6).is_none());
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
        let mut r = Routers::new(1, 5, &cfg);
        let mut arena = FlitArena::new();
        let mut scratch = StepScratch::new(5, cfg.router.vcs_per_port);
        let mut counters = ActivityCounters::new();
        let mut activity = RouterActivity::default();
        let mut ejected = Vec::new();
        let mut links = Links::new(&[], 1);
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
        r.receive_flit(0, PortId::LOCAL, VcId(0), fref, &arena, 0, &mut counters, &mut activity);
        for cycle in 0..10 {
            r.step(
                0,
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
