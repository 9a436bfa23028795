//! Flat FIFO storage for the data-oriented core.
//!
//! A `Rings` holds many fixed-capacity FIFOs in one contiguous slab:
//! ring `i` owns slots `i*cap .. (i+1)*cap`, and a 4-byte head/length
//! pair per ring says which of them are live. The network keeps two
//! kinds of them: one `FlitSlab` with *every* input-VC buffer of
//! *every* router, keyed by `router * pvs + (port * vcs + vc)`, and the
//! link wires (flits and credits in flight, one ring per link; see
//! [`crate::link`]). No router or link owns a heap block of its own.
//!
//! In the multi-layered router the buffer is bit-sliced across layers
//! (paper §3.2.1): word-lines span layers, bit-lines stay within a
//! layer. That split is *physical*, not logical — the buffer still holds
//! whole flits — so the simulator models it through the activity
//! accounting (a short flit only charges the active slices), not
//! through the data structure.
//!
//! Buffered entries are 16-byte `BufSlot`s: a [`FlitRef`] into the
//! network's flit arena plus the header fields the pipeline stages read
//! every cycle (destination, class, head/tail kind, readiness). The
//! owning packet is not copied in: the router records it per VC when a
//! head arrives, and the purge path reads it from the arena.

use crate::arena::FlitRef;
use crate::flit::FlitKind;
use crate::packet::PacketClass;

/// One buffered flit: its arena reference plus the denormalised header
/// fields the allocation stages poll each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufSlot {
    /// Earliest cycle this flit is visible to the pipeline (models
    /// link/pipeline latches).
    pub(crate) ready_at: u64,
    /// Arena reference to the flit itself.
    pub(crate) fref: FlitRef,
    /// Destination node index (read by RC on head flits); a network has
    /// at most [`crate::config::MAX_NODES`] nodes.
    pub(crate) dst: u16,
    /// Traffic class (selects the output VC in VA1).
    pub(crate) class: PacketClass,
    /// Position within the packet (head and tail flags).
    pub(crate) kind: FlitKind,
}

/// Filler for slots no FIFO holds (head and length say which slots are
/// live, so its contents are never read).
impl Default for BufSlot {
    fn default() -> Self {
        BufSlot {
            ready_at: 0,
            fref: FlitRef(0),
            dst: 0,
            class: PacketClass::Ack,
            kind: FlitKind::HeadTail,
        }
    }
}

/// Every input-VC FIFO of every router in the network.
pub(crate) type FlitSlab = Rings<BufSlot>;

/// Head index and length of one ring.
#[derive(Debug, Clone, Copy, Default)]
struct Ends {
    head: u16,
    len: u16,
}

/// `rings` FIFOs of `cap` slots each in one flat slab.
#[derive(Debug, Clone)]
pub(crate) struct Rings<T> {
    slots: Vec<T>,
    ends: Vec<Ends>,
    cap: usize,
}

impl<T: Copy + Default> Rings<T> {
    /// Creates `rings` empty FIFOs holding up to `cap` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero or exceeds `u16::MAX`.
    pub(crate) fn new(rings: usize, cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        assert!(cap <= usize::from(u16::MAX), "ring capacity {cap} exceeds u16");
        Rings { slots: vec![T::default(); rings * cap], ends: vec![Ends::default(); rings], cap }
    }

    /// Capacity of each FIFO.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Slab index of position `pos < 2 * cap` of ring `i` (wrapping
    /// without a division).
    #[inline]
    fn slot(&self, i: usize, pos: usize) -> usize {
        i * self.cap + if pos >= self.cap { pos - self.cap } else { pos }
    }

    /// Current occupancy of FIFO `i`.
    #[inline]
    pub(crate) fn len(&self, i: usize) -> usize {
        usize::from(self.ends[i].len)
    }

    /// Returns `true` if FIFO `i` holds nothing.
    #[inline]
    pub(crate) fn is_empty(&self, i: usize) -> bool {
        self.ends[i].len == 0
    }

    /// Free slots in FIFO `i` (for a VC buffer, the quantity credits
    /// track).
    #[inline]
    pub(crate) fn free_slots(&self, i: usize) -> usize {
        self.cap - self.len(i)
    }

    /// Appends `value` to FIFO `i`.
    ///
    /// # Panics
    ///
    /// Panics on overflow — credits bound every FIFO, so overflow is a
    /// flow-control bug, not a recoverable condition.
    #[inline]
    pub(crate) fn push(&mut self, i: usize, value: T) {
        let Ends { head, len } = self.ends[i];
        assert!(usize::from(len) < self.cap, "buffer overflow: credit accounting is broken");
        let at = self.slot(i, usize::from(head) + usize::from(len));
        self.slots[at] = value;
        self.ends[i].len = len + 1;
    }

    /// The entry at the front of FIFO `i`, if any.
    #[inline]
    pub(crate) fn front(&self, i: usize) -> Option<&T> {
        let Ends { head, len } = self.ends[i];
        (len > 0).then(|| &self.slots[i * self.cap + usize::from(head)])
    }

    /// The entry at the back of FIFO `i`, if any.
    #[inline]
    pub(crate) fn back(&self, i: usize) -> Option<&T> {
        let Ends { head, len } = self.ends[i];
        (len > 0).then(|| &self.slots[self.slot(i, usize::from(head) + usize::from(len) - 1)])
    }

    /// Removes and returns the front entry of FIFO `i`.
    #[inline]
    pub(crate) fn pop(&mut self, i: usize) -> Option<T> {
        let Ends { head, len } = self.ends[i];
        if len == 0 {
            return None;
        }
        let value = self.slots[i * self.cap + usize::from(head)];
        let next = if usize::from(head) + 1 == self.cap { 0 } else { head + 1 };
        self.ends[i] = Ends { head: next, len: len - 1 };
        Some(value)
    }

    /// Iterates FIFO `i` front to back.
    pub(crate) fn iter(&self, i: usize) -> impl Iterator<Item = &T> + '_ {
        let Ends { head, len } = self.ends[i];
        (0..usize::from(len)).map(move |k| &self.slots[self.slot(i, usize::from(head) + k)])
    }

    /// The same FIFOs with their contents, re-laid out at capacity
    /// `cap` (which must hold every FIFO's current contents).
    #[must_use]
    pub(crate) fn with_capacity(&self, cap: usize) -> Self {
        let mut out = Rings::new(self.ends.len(), cap);
        for i in 0..self.ends.len() {
            for &v in self.iter(i) {
                out.push(i, v);
            }
        }
        out
    }
}

impl FlitSlab {
    /// Returns `true` if the front flit of FIFO `i` exists and is ready
    /// at `cycle`.
    #[inline]
    pub(crate) fn front_ready(&self, i: usize, cycle: u64) -> bool {
        self.front(i).is_some_and(|t| t.ready_at <= cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_slot(seq: u32) -> BufSlot {
        BufSlot { fref: FlitRef(seq), ..BufSlot::default() }
    }

    fn slab(rings: usize, cap: usize) -> FlitSlab {
        FlitSlab::new(rings, cap)
    }

    #[test]
    fn buf_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<BufSlot>(), 16);
    }

    #[test]
    fn fifo_order() {
        let mut b = slab(2, 4);
        b.push(1, mk_slot(0));
        b.push(1, mk_slot(1));
        assert_eq!(b.len(1), 2);
        assert_eq!(b.len(0), 0, "FIFOs are independent");
        assert_eq!(b.back(1).unwrap().fref, FlitRef(1));
        assert_eq!(b.pop(1).unwrap().fref, FlitRef(0));
        assert_eq!(b.pop(1).unwrap().fref, FlitRef(1));
        assert!(b.pop(1).is_none());
    }

    #[test]
    fn ring_wraps_past_capacity() {
        let mut b = slab(1, 3);
        for round in 0..4u32 {
            b.push(0, mk_slot(3 * round));
            b.push(0, mk_slot(3 * round + 1));
            assert_eq!(b.back(0).unwrap().fref, FlitRef(3 * round + 1));
            assert_eq!(b.pop(0).unwrap().fref, FlitRef(3 * round));
            assert_eq!(b.pop(0).unwrap().fref, FlitRef(3 * round + 1));
        }
        assert!(b.is_empty(0));
    }

    #[test]
    fn readiness_gates_front() {
        let mut b = slab(1, 2);
        b.push(0, BufSlot { ready_at: 5, ..mk_slot(0) });
        assert!(!b.front_ready(0, 4));
        assert!(b.front_ready(0, 5));
        assert!(b.front_ready(0, 6));
    }

    #[test]
    fn capacity_accounting() {
        let mut b = slab(2, 2);
        assert_eq!(b.free_slots(0), 2);
        assert!(b.is_empty(0));
        b.push(0, mk_slot(0));
        b.push(0, mk_slot(1));
        assert_eq!(b.free_slots(0), 0);
        assert_eq!(b.free_slots(1), 2);
        let _ = b.pop(0);
        assert_eq!(b.free_slots(0), 1);
    }

    #[test]
    fn relayout_keeps_contents_in_order() {
        let mut b = slab(2, 2);
        b.push(0, mk_slot(0));
        b.pop(0);
        b.push(0, mk_slot(1));
        b.push(0, mk_slot(2));
        b.push(1, mk_slot(3));
        let mut wide = b.with_capacity(5);
        assert_eq!(wide.capacity(), 5);
        let order: Vec<u32> = wide.iter(0).map(|s| s.fref.0).collect();
        assert_eq!(order, vec![1, 2]);
        assert_eq!(wide.len(1), 1);
        assert!(wide.pop(0).is_some() && wide.pop(0).is_some());
        assert!(wide.is_empty(0));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = slab(1, 1);
        b.push(0, mk_slot(0));
        b.push(0, mk_slot(1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = slab(4, 0);
    }
}
