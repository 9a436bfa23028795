//! Inter-router links: flit transport forward, credit returns backward.
//!
//! A link models one unidirectional physical channel (the reverse credit
//! wire rides along). Delivery times are assigned by the sender according
//! to the pipeline configuration: with ST+LT combining the flit is
//! available at the downstream router on the cycle after switch traversal;
//! with a separate LT stage it spends one extra cycle on the wire
//! (paper Fig. 8).
//!
//! In the multi-layered designs the link is bit-sliced like the rest of
//! the datapath (paper §3.2.3); the slice accounting happens in the
//! activity counters, keyed by the per-flit active-layer fraction.
//!
//! # Layout (DESIGN.md §14)
//!
//! `Links` holds every link of the network in dense arrays indexed by
//! link id: the endpoints and wire lengths, and two `Rings` of wire
//! slots — 16-byte `FlitInFlight`s forward, 16-byte
//! `CreditInFlight`s backward. Link ids are assigned in ascending
//! `(upstream node, output port)` order by the network's wiring pass.
//! No link owns a heap block: a fault-free wire holds at most one flit
//! per cycle of link latency and one credit, so the rings are sized to
//! exactly that. The wire carries [`FlitRef`] arena indices, not owned
//! flits — sending a flit moves a 4-byte index. A `busy` work-list marks
//! the links whose wire may hold a flit or credit, so the fault-free
//! delivery scan visits only those.
//!
//! Link-level retransmission (ARQ) keeps its sequence numbers and its
//! retransmit window in a side table that stays empty unless fault
//! injection enables it. The window must hold a pristine copy of each
//! unacknowledged flit that survives corruption of the in-flight
//! original, so it is the one place a link clones payloads; enabling it
//! widens the rings to the retransmit window (every in-flight flit and
//! credit holds one downstream buffer slot, so `vcs * buffer_depth`
//! bounds both).

use std::collections::VecDeque;

use crate::arena::{FlitArena, FlitRef};
use crate::buffer::Rings;
use crate::flit::Flit;
use crate::ids::{NodeId, PortId, VcId};
use crate::packet::PacketId;
use crate::worklist::WorkList;

/// A flit in flight on a link.
///
/// # Invariant
///
/// `deliver_at` is always computed through [`delivery_cycle`], which
/// checks the `cycle + 1 + extra` arithmetic against `u64` overflow.
/// Simulations run for at most a few billion cycles, so the counter
/// stays far below `u64::MAX`; the checked arithmetic turns a
/// hypothetical wrap (which would silently violate the FIFO ordering of
/// [`Links::send_flit`]) into a panic at the injection seam.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlitInFlight {
    /// Cycle at which the flit becomes visible to the downstream router.
    pub(crate) deliver_at: u64,
    /// Arena reference to the flit itself.
    pub(crate) flit: FlitRef,
    vc: u8,
}

impl FlitInFlight {
    /// Downstream input VC the flit was allocated to.
    #[inline]
    pub(crate) fn vc(&self) -> VcId {
        VcId(usize::from(self.vc))
    }
}

/// A credit return in flight on a link (towards the upstream router).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CreditInFlight {
    /// Cycle at which the credit reaches the upstream router.
    pub(crate) deliver_at: u64,
    vc: u8,
}

impl CreditInFlight {
    /// Output VC (on the upstream router) being credited.
    #[inline]
    pub(crate) fn vc(&self) -> VcId {
        VcId(usize::from(self.vc))
    }
}

/// Computes the delivery cycle `cycle + 1 + extra`, panicking on `u64`
/// overflow instead of silently wrapping.
///
/// A wrapped `deliver_at` would schedule a flit in the distant past and
/// corrupt the FIFO invariant of [`Links::send_flit`]; every scheduled
/// delivery (switch traversal and ARQ resend alike) goes through this
/// check.
pub(crate) fn delivery_cycle(cycle: u64, extra: u64) -> u64 {
    cycle
        .checked_add(nominal_latency(extra))
        .expect("cycle counter overflow: scheduled deliver_at would wrap")
}

/// Fault-free sender-to-receiver latency in cycles for a link with
/// `extra` additional LT cycles: `1 + extra`. This is the latency the
/// ARQ retransmitter replays at, the budget the journey recorder charges
/// to plain link traversal (anything beyond it is ARQ replay time), and
/// the number of flits a fault-free wire can hold.
pub(crate) const fn nominal_latency(extra: u64) -> u64 {
    1 + extra
}

/// A VC id as stored in a wire slot.
fn vc_byte(vc: VcId) -> u8 {
    u8::try_from(vc.index()).expect("VC index exceeds the router's 64 (port, vc) pairs")
}

/// One unacknowledged flit held by the sender-side retransmit buffer.
///
/// The window owns a full [`Flit`] copy rather than a [`FlitRef`]: a
/// resend must replay the *pristine* payload even after the in-flight
/// original was corrupted, delivered, or freed.
#[derive(Debug, Clone)]
struct ArqEntry {
    seq: u64,
    vc: VcId,
    flit: Flit,
}

/// Sender-side go-back-N retransmission state for one link.
///
/// Every flit sent while ARQ is on gets a link-level sequence number
/// and a pristine copy in the `window` until the receiver acknowledges
/// it (clean delivery). On a parity NACK the physical wire is purged
/// and, after a bounded exponential backoff, the *whole* window is
/// resent in order — which is what keeps the wire a FIFO and makes
/// duplicates impossible (each sequence number is on the wire at most
/// once).
#[derive(Debug, Clone)]
struct LinkArq {
    window: VecDeque<ArqEntry>,
    /// Sequence numbers of the flits on the wire, front to back (the
    /// wire ring itself carries no sequence numbers).
    wire_seqs: VecDeque<u64>,
    next_seq: u64,
    /// When `Some`, a resend is scheduled: new sends go to the window
    /// only (they ride the resend), so the wire never reorders.
    resend_at: Option<u64>,
    /// Consecutive failed attempts for the current window head; reset
    /// on acknowledged progress.
    retries: u32,
    /// Full sender-to-receiver latency in cycles (`1 + LT cycles`).
    latency: u64,
}

/// The two endpoints of one link.
#[derive(Debug, Clone, Copy)]
struct Endpoints {
    from_node: u32,
    to_node: u32,
    from_port: u8,
    to_port: u8,
}

/// One link's wiring: upstream (router, output port), downstream
/// (router, input port), and wire length in millimetres.
pub(crate) type Wiring = ((NodeId, PortId), (NodeId, PortId), f64);

/// Every unidirectional link of a network, in dense arrays indexed by
/// link id.
#[derive(Debug, Clone)]
pub(crate) struct Links {
    ends: Vec<Endpoints>,
    /// Physical wire length in millimetres (drives power/delay models).
    length_mm: Vec<f64>,
    flits: Rings<FlitInFlight>,
    credits: Rings<CreditInFlight>,
    /// Retransmission state per link; empty unless fault injection
    /// enabled it, so the default path carries nothing.
    arq: Vec<LinkArq>,
    /// Links whose wire may hold a flit or a credit: every send adds
    /// its link, and the fault-free delivery scan, which visits only
    /// these, retires the links it leaves idle.
    busy: WorkList,
}

impl Links {
    /// Creates idle links, one per `(from, to, length_mm)` entry of
    /// `wiring` (its position is the link id), with `extra` LT cycles
    /// beyond the switch-traversal cycle.
    pub(crate) fn new(wiring: &[Wiring], extra: u64) -> Self {
        let narrow = |(node, port): (NodeId, PortId)| {
            let node = u32::try_from(node.index()).expect("node index exceeds u32");
            (node, u8::try_from(port.index()).expect("port index exceeds u8"))
        };
        let ends = wiring
            .iter()
            .map(|&(from, to, _)| {
                let ((from_node, from_port), (to_node, to_port)) = (narrow(from), narrow(to));
                Endpoints { from_node, to_node, from_port, to_port }
            })
            .collect();
        let wire = nominal_latency(extra) as usize;
        Links {
            ends,
            length_mm: wiring.iter().map(|w| w.2).collect(),
            flits: Rings::new(wiring.len(), wire),
            credits: Rings::new(wiring.len(), 1),
            arq: Vec::new(),
            busy: WorkList::new(wiring.len()),
        }
    }

    /// Number of links.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Upstream endpoint of link `li`: (router, output port).
    #[inline]
    pub(crate) fn from(&self, li: usize) -> (NodeId, PortId) {
        let e = self.ends[li];
        (NodeId(e.from_node as usize), PortId(usize::from(e.from_port)))
    }

    /// Downstream endpoint of link `li`: (router, input port).
    #[inline]
    pub(crate) fn to(&self, li: usize) -> (NodeId, PortId) {
        let e = self.ends[li];
        (NodeId(e.to_node as usize), PortId(usize::from(e.to_port)))
    }

    /// Physical wire length of link `li` in millimetres.
    #[inline]
    pub(crate) fn length_mm(&self, li: usize) -> f64 {
        self.length_mm[li]
    }

    /// Enables sender-side go-back-N retransmission on every link, with
    /// the given sender-to-receiver latency in cycles (`1 + LT cycles`)
    /// and a retransmit window of at most `window` flits per link.
    pub(crate) fn enable_arq(&mut self, latency: u64, window: usize) {
        let arq = LinkArq {
            window: VecDeque::new(),
            wire_seqs: VecDeque::new(),
            next_seq: 0,
            resend_at: None,
            retries: 0,
            latency,
        };
        self.arq = vec![arq; self.len()];
        self.flits = self.flits.with_capacity(window.max(self.flits.capacity()));
        self.credits = self.credits.with_capacity(window.max(self.credits.capacity()));
    }

    /// Sends the flit at `fref` down link `li`, to be delivered at
    /// `deliver_at`. Ownership of the reference moves to the link (and
    /// back out through [`Links::take_due_flit`]).
    ///
    /// Delivery times must be non-decreasing across calls (links are
    /// FIFOs); this holds by construction because the per-link latency is
    /// constant and senders call this once per cycle at most. With ARQ
    /// on, a NACK purges the wire before any resend is pushed, and new
    /// sends during a pending resend go to the window only, so the
    /// invariant survives retransmission too.
    pub(crate) fn send_flit(
        &mut self,
        li: usize,
        arena: &mut FlitArena,
        fref: FlitRef,
        vc: VcId,
        deliver_at: u64,
    ) {
        self.busy.insert(li);
        if let Some(a) = self.arq.get_mut(li) {
            let seq = a.next_seq;
            a.next_seq += 1;
            a.window.push_back(ArqEntry { seq, vc, flit: arena.get(fref).clone() });
            if a.resend_at.is_some() {
                // A resend is scheduled: the wire was purged and will be
                // repopulated (including this flit) when the backoff
                // expires. Pushing now would deliver this flit ahead of
                // its predecessors.
                arena.free(fref);
                return;
            }
            a.wire_seqs.push_back(seq);
        }
        debug_assert!(
            self.flits.back(li).is_none_or(|f| f.deliver_at <= deliver_at),
            "link is not a FIFO"
        );
        self.flits.push(li, FlitInFlight { deliver_at, flit: fref, vc: vc_byte(vc) });
    }

    /// Cumulative acknowledgement on link `li`: drops every
    /// retransmit-window entry with sequence number `<= seq` (the
    /// receiver took the flit cleanly) and resets the retry counter —
    /// progress was made.
    pub(crate) fn arq_ack(&mut self, li: usize, seq: u64) {
        if let Some(a) = self.arq.get_mut(li) {
            while a.window.front().is_some_and(|e| e.seq <= seq) {
                a.window.pop_front();
            }
            a.retries = 0;
        }
    }

    /// Negative acknowledgement: the receiver of link `li` detected
    /// corruption. Purges the physical wire (go-back-N: everything after
    /// the bad flit is dropped and will be resent in order; their arena
    /// slots are freed — the window clones are authoritative) and
    /// schedules a full-window resend after an exponential backoff
    /// capped at 64 cycles. Returns the consecutive-retry count for the
    /// current window head.
    pub(crate) fn arq_nack(&mut self, li: usize, cycle: u64, arena: &mut FlitArena) -> u32 {
        let a = self.arq.get_mut(li).expect("NACK on a link without ARQ");
        while let Some(f) = self.flits.pop(li) {
            arena.free(f.flit);
        }
        a.wire_seqs.clear();
        a.retries += 1;
        let backoff = 1u64 << a.retries.min(6);
        a.resend_at = Some(delivery_cycle(cycle, backoff));
        a.retries
    }

    /// Drops the packet owning link `li`'s window head (retry budget
    /// exhausted): removes every window entry of that packet and
    /// returns the packet id plus the downstream VC of each removed
    /// entry (the caller refluxes one credit per entry, because the
    /// downstream buffer slots those flits reserved will never fill).
    pub(crate) fn arq_drop_front_packet(&mut self, li: usize) -> Option<(PacketId, Vec<VcId>)> {
        let a = self.arq.get_mut(li)?;
        let pid = a.window.front()?.flit.packet;
        let mut vcs = Vec::new();
        a.window.retain(|e| {
            if e.flit.packet == pid {
                vcs.push(e.vc);
                false
            } else {
                true
            }
        });
        a.retries = 0;
        if a.window.is_empty() {
            a.resend_at = None;
        }
        Some((pid, vcs))
    }

    /// Executes a due scheduled resend on link `li`: pushes every window
    /// entry back onto the wire in order (re-allocating each pristine
    /// copy into the arena). Returns the number of flits resent (0 when
    /// no resend was due).
    pub(crate) fn arq_service(&mut self, li: usize, cycle: u64, arena: &mut FlitArena) -> u64 {
        let Some(a) = self.arq.get_mut(li) else { return 0 };
        if a.resend_at.is_none_or(|at| at > cycle) {
            return 0;
        }
        a.resend_at = None;
        debug_assert!(self.flits.is_empty(li), "wire must be purged before a resend");
        let deliver_at = delivery_cycle(cycle, a.latency - 1);
        self.busy.insert(li);
        for e in &a.window {
            let flit = arena.alloc(e.flit.clone());
            self.flits.push(li, FlitInFlight { deliver_at, flit, vc: vc_byte(e.vc) });
            a.wire_seqs.push_back(e.seq);
        }
        a.window.len() as u64
    }

    /// `true` while a resend is scheduled on link `li` but not yet
    /// executed — the window during which the upstream router pauses
    /// new grants toward it (surfaced as the `LinkFault` stall cause).
    pub(crate) fn arq_resend_pending(&self, li: usize) -> bool {
        self.arq.get(li).is_some_and(|a| a.resend_at.is_some())
    }

    /// Permanently kills link `li`: purges the wire and the retransmit
    /// window (freeing the arena slots of everything on the wire),
    /// returning the `(packet, downstream VC)` of every lost
    /// unacknowledged flit so the caller can account the drops. With
    /// ARQ on, the window is a superset of the wire, so the returned
    /// list covers every in-flight flit exactly once.
    pub(crate) fn kill(&mut self, li: usize, arena: &mut FlitArena) -> Vec<(PacketId, VcId)> {
        let mut lost: Vec<(PacketId, VcId)> = Vec::new();
        match self.arq.get_mut(li) {
            Some(a) => {
                lost.extend(a.window.drain(..).map(|e| (e.flit.packet, e.vc)));
                a.wire_seqs.clear();
                a.resend_at = None;
                a.retries = 0;
            }
            None => lost.extend(self.flits.iter(li).map(|f| (arena.get(f.flit).packet, f.vc()))),
        }
        while let Some(f) = self.flits.pop(li) {
            arena.free(f.flit);
        }
        lost
    }

    /// Sends a credit up link `li`, to be delivered at `deliver_at`.
    #[inline]
    pub(crate) fn send_credit(&mut self, li: usize, vc: VcId, deliver_at: u64) {
        self.busy.insert(li);
        self.credits.push(li, CreditInFlight { deliver_at, vc: vc_byte(vc) });
    }

    /// The links whose wire may hold a flit or a credit (a superset of
    /// the non-idle wires; see [`WorkList`]).
    #[inline]
    pub(crate) fn busy(&self) -> &WorkList {
        &self.busy
    }

    /// Takes link `li` off the busy list when its wire holds neither a
    /// flit nor a credit.
    #[inline]
    pub(crate) fn retire_if_idle(&mut self, li: usize) {
        if self.wire_idle(li) {
            self.busy.remove(li);
        }
    }

    /// `true` when link `li`'s wire holds neither a flit nor a credit
    /// (an ARQ window may still hold flits awaiting a resend).
    #[inline]
    pub(crate) fn wire_idle(&self, li: usize) -> bool {
        self.flits.is_empty(li) && self.credits.is_empty(li)
    }

    /// Removes and returns the next flit due on link `li` at or before
    /// `cycle`, with its link-level sequence number (0 when ARQ is off).
    #[inline]
    pub(crate) fn take_due_flit(&mut self, li: usize, cycle: u64) -> Option<(FlitInFlight, u64)> {
        if self.flits.front(li).is_none_or(|f| f.deliver_at > cycle) {
            return None;
        }
        let f = self.flits.pop(li)?;
        let seq = self
            .arq
            .get_mut(li)
            .map_or(0, |a| a.wire_seqs.pop_front().expect("every ARQ wire flit has a sequence"));
        Some((f, seq))
    }

    /// Removes and returns the next credit due on link `li` at or before
    /// `cycle`.
    #[inline]
    pub(crate) fn take_due_credit(&mut self, li: usize, cycle: u64) -> Option<CreditInFlight> {
        if self.credits.front(li).is_some_and(|c| c.deliver_at <= cycle) {
            self.credits.pop(li)
        } else {
            None
        }
    }

    /// Number of flits in flight on link `li`. With ARQ on this is the
    /// unacknowledged window (a superset of the wire: a NACK moves flits
    /// off the wire but they remain logically in flight at the sender's
    /// retransmit buffer until acknowledged).
    pub(crate) fn flits_in_flight(&self, li: usize) -> usize {
        match self.arq.get(li) {
            Some(a) => a.window.len(),
            None => self.flits.len(li),
        }
    }

    /// Number of credit returns in flight on link `li`.
    pub(crate) fn credits_in_flight(&self, li: usize) -> usize {
        self.credits.len(li)
    }

    /// Returns `true` if no flits or credits are in flight on link `li`
    /// and (with ARQ) no flit awaits acknowledgement or resend.
    pub(crate) fn is_quiescent(&self, li: usize) -> bool {
        self.wire_idle(li)
            && self.arq.get(li).is_none_or(|a| a.window.is_empty() && a.resend_at.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitData, FlitKind};
    use crate::packet::{PacketClass, PacketId};

    fn mk_flit() -> Flit {
        Flit {
            packet: PacketId(1),
            seq: 0,
            kind: FlitKind::HeadTail,
            src: NodeId(0),
            dst: NodeId(1),
            class: PacketClass::Ack,
            data: FlitData::zeroed(4),
            created_at: 0,
            hops: 0,
        }
    }

    /// One link 0 → 1 with `extra` LT cycles.
    fn mk_link(extra: u64) -> Links {
        Links::new(&[((NodeId(0), PortId(1)), (NodeId(1), PortId(2)), 3.1)], extra)
    }

    /// One link with ARQ on (latency 1) and room for 8 flits.
    fn mk_arq_link() -> Links {
        let mut l = mk_link(0);
        l.enable_arq(1, 8);
        l
    }

    fn send(l: &mut Links, a: &mut FlitArena, flit: Flit, vc: VcId, deliver_at: u64) {
        let fref = a.alloc(flit);
        l.send_flit(0, a, fref, vc, deliver_at);
    }

    #[test]
    fn wire_slots_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<FlitInFlight>(), 16);
        assert_eq!(std::mem::size_of::<CreditInFlight>(), 16);
    }

    #[test]
    fn endpoints_round_trip() {
        let l = mk_link(0);
        assert_eq!(l.len(), 1);
        assert_eq!(l.from(0), (NodeId(0), PortId(1)));
        assert_eq!(l.to(0), (NodeId(1), PortId(2)));
        assert_eq!(l.length_mm(0), 3.1);
    }

    #[test]
    fn flit_delivery_respects_time() {
        let mut a = FlitArena::new();
        let mut l = mk_link(0);
        send(&mut l, &mut a, mk_flit(), VcId(0), 5);
        assert!(l.take_due_flit(0, 4).is_none());
        let (f, seq) = l.take_due_flit(0, 5).expect("flit is due at its delivery cycle");
        assert_eq!((f.vc(), seq), (VcId(0), 0));
        assert!(a.is_live(f.flit), "delivered ref is live until the receiver consumes it");
        assert!(l.take_due_flit(0, 6).is_none());
    }

    #[test]
    fn credit_delivery_respects_time() {
        let mut l = mk_link(0);
        l.send_credit(0, VcId(1), 3);
        assert!(l.take_due_credit(0, 2).is_none());
        let c = l.take_due_credit(0, 3).expect("credit is due at its delivery cycle");
        assert_eq!((c.deliver_at, c.vc()), (3, VcId(1)));
    }

    #[test]
    fn quiescence() {
        let mut a = FlitArena::new();
        let mut l = mk_link(0);
        assert!(l.is_quiescent(0));
        send(&mut l, &mut a, mk_flit(), VcId(0), 1);
        assert!(!l.is_quiescent(0));
        assert_eq!(l.flits_in_flight(0), 1);
        let _ = l.take_due_flit(0, 1);
        assert!(l.is_quiescent(0));
    }

    #[test]
    fn fifo_order_preserved() {
        let mut a = FlitArena::new();
        let mut l = mk_link(1);
        let mut f0 = mk_flit();
        f0.seq = 0;
        let mut f1 = mk_flit();
        f1.seq = 1;
        send(&mut l, &mut a, f0, VcId(0), 2);
        send(&mut l, &mut a, f1, VcId(0), 3);
        assert_eq!(a.get(l.take_due_flit(0, 3).expect("first flit is due").0.flit).seq, 0);
        assert_eq!(a.get(l.take_due_flit(0, 3).expect("second flit is due").0.flit).seq, 1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn fault_free_wire_holds_one_flit_per_latency_cycle() {
        let mut a = FlitArena::new();
        let mut l = mk_link(0);
        send(&mut l, &mut a, mk_flit(), VcId(0), 1);
        send(&mut l, &mut a, mk_flit(), VcId(0), 2);
    }

    #[test]
    fn delivery_cycle_is_checked() {
        assert_eq!(delivery_cycle(10, 1), 12);
        assert_eq!(delivery_cycle(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "cycle counter overflow")]
    fn delivery_cycle_overflow_panics() {
        let _ = delivery_cycle(u64::MAX - 1, 1);
    }

    #[test]
    fn arq_stamps_sequence_numbers() {
        let mut ar = FlitArena::new();
        let mut l = mk_arq_link();
        send(&mut l, &mut ar, mk_flit(), VcId(0), 1);
        send(&mut l, &mut ar, mk_flit(), VcId(1), 2);
        let (_, a) = l.take_due_flit(0, 1).expect("first ARQ flit is due");
        let (_, b) = l.take_due_flit(0, 2).expect("second ARQ flit is due");
        assert_eq!((a, b), (0, 1));
        assert_eq!(l.flits_in_flight(0), 2, "unacked flits stay in the window");
        l.arq_ack(0, 0);
        assert_eq!(l.flits_in_flight(0), 1);
        l.arq_ack(0, 1);
        assert!(l.is_quiescent(0));
    }

    #[test]
    fn nack_purges_wire_and_resend_replays_in_order() {
        let mut ar = FlitArena::new();
        let mut l = mk_arq_link();
        let mut f0 = mk_flit();
        f0.seq = 10;
        let mut f1 = mk_flit();
        f1.seq = 11;
        send(&mut l, &mut ar, f0, VcId(0), 5);
        send(&mut l, &mut ar, f1, VcId(0), 6);
        let retries = l.arq_nack(0, 5, &mut ar);
        assert_eq!(retries, 1);
        assert!(l.take_due_flit(0, 100).is_none(), "wire was purged");
        assert_eq!(ar.allocated(), 0, "purged wire refs were freed");
        assert!(l.arq_resend_pending(0));
        assert!(!l.is_quiescent(0), "unacked flits keep the link busy");
        // A new send during backoff must not jump the queue.
        let mut f2 = mk_flit();
        f2.seq = 12;
        send(&mut l, &mut ar, f2, VcId(0), 6);
        assert!(l.take_due_flit(0, 100).is_none(), "send during backoff rides the resend");
        assert_eq!(ar.allocated(), 0, "backoff send is swallowed into the window");
        // Backoff = 1 << 1 = 2 cycles: due at cycle 5 + 1 + 2 = 8.
        assert_eq!(l.arq_service(0, 7, &mut ar), 0, "not due yet");
        assert_eq!(l.arq_service(0, 8, &mut ar), 3, "whole window resent");
        let resent: Vec<(u32, u64)> = std::iter::from_fn(|| l.take_due_flit(0, 100))
            .map(|(f, seq)| (ar.get(f.flit).seq, seq))
            .collect();
        assert_eq!(resent, vec![(10, 0), (11, 1), (12, 2)], "resend preserves order and seqs");
    }

    #[test]
    fn drop_front_packet_strips_the_window() {
        let mut ar = FlitArena::new();
        let mut l = mk_arq_link();
        let mut f0 = mk_flit();
        f0.packet = PacketId(1);
        let mut other = mk_flit();
        other.packet = PacketId(2);
        let mut f1 = mk_flit();
        f1.packet = PacketId(1);
        send(&mut l, &mut ar, f0, VcId(0), 1);
        send(&mut l, &mut ar, other, VcId(1), 2);
        send(&mut l, &mut ar, f1, VcId(0), 3);
        l.arq_nack(0, 3, &mut ar);
        let (pid, vcs) = l.arq_drop_front_packet(0).expect("the NACKed window holds a packet");
        assert_eq!(pid, PacketId(1));
        assert_eq!(vcs, vec![VcId(0), VcId(0)], "both entries of the packet stripped");
        assert_eq!(l.flits_in_flight(0), 1, "the other packet survives");
        assert!(l.arq_resend_pending(0), "survivors still get resent");
    }

    #[test]
    fn kill_returns_every_unacked_flit_once() {
        let mut ar = FlitArena::new();
        let mut l = mk_arq_link();
        send(&mut l, &mut ar, mk_flit(), VcId(0), 1);
        send(&mut l, &mut ar, mk_flit(), VcId(1), 2);
        let _ = l.take_due_flit(0, 1); // one delivered but not acked
        let lost = l.kill(0, &mut ar);
        assert_eq!(lost.len(), 2, "window covers wire and delivered-unacked alike");
        assert!(l.is_quiescent(0));
    }
}
