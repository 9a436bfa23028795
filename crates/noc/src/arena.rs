//! Flat flit storage for the data-oriented core (DESIGN.md §14).
//!
//! Every flit in the fabric lives in one [`FlitArena`] owned by the
//! network; the network-wide router buffers and link wires hold 4-byte
//! [`FlitRef`] indices (inside 16-byte buffer and wire slots) instead of
//! by-value [`Flit`]s. A flit enters the arena when the NIC injects it
//! into the local input buffer and leaves it at ejection, so the live
//! count is bounded by the fabric's buffer slots, not by the source
//! backlog. Payloads are inline, so a slot holds the whole flit and
//! every hop moves only an index. Per hop the router reads the header
//! when the flit is buffered and bumps the hop count at switch traversal
//! (reading the payload's active words too when short-flit shutdown is
//! on); the allocation stages work from the buffer slots alone.
//!
//! The arena is a slot map with a free list. `alloc` reuses the
//! lowest-water free slot when one exists, so steady-state simulation
//! reaches a fixed footprint and never grows. The free list's capacity
//! is pre-reserved to match the slot table inside `alloc` — the
//! injection path, where allocation is permitted — so `free` never
//! allocates during the measured window.

use crate::flit::Flit;

/// Index of a live flit in the [`FlitArena`].
///
/// Refs are plain `u32` indices; they are invalidated by
/// [`FlitArena::free`]/[`FlitArena::take`] and must not be dereferenced
/// afterwards (debug builds panic on a dangling deref).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlitRef(pub u32);

/// Slot-map arena holding every flit currently in the fabric.
#[derive(Debug, Default)]
pub struct FlitArena {
    slots: Vec<Option<Flit>>,
    free: Vec<u32>,
    /// Highest live-flit count ever reached (host-side watermark for
    /// the observability layer; never read by the simulation).
    live_peak: usize,
}

impl FlitArena {
    /// An empty arena.
    pub fn new() -> Self {
        FlitArena::default()
    }

    /// An empty arena with room for `cap` flits before any slot-table
    /// growth.
    pub fn with_capacity(cap: usize) -> Self {
        FlitArena { slots: Vec::with_capacity(cap), free: Vec::with_capacity(cap), live_peak: 0 }
    }

    /// Stores `flit`, returning its index. Reuses a freed slot when one
    /// exists; only grows the slot table (and, in step, the free list —
    /// keeping `free.capacity() >= slots.len()` so a later [`free`]
    /// never reallocates) when the arena is full.
    ///
    /// [`free`]: FlitArena::free
    pub fn alloc(&mut self, flit: Flit) -> FlitRef {
        let r = if let Some(idx) = self.free.pop() {
            debug_assert!(self.slots[idx as usize].is_none(), "free slot was occupied");
            self.slots[idx as usize] = Some(flit);
            FlitRef(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("flit arena overflow");
            self.slots.push(Some(flit));
            if self.free.capacity() < self.slots.len() {
                self.free.reserve(self.slots.len() - self.free.len());
            }
            FlitRef(idx)
        };
        self.live_peak = self.live_peak.max(self.allocated());
        r
    }

    /// Borrows the flit at `r`.
    #[inline]
    pub fn get(&self, r: FlitRef) -> &Flit {
        self.slots[r.0 as usize].as_ref().expect("dangling FlitRef")
    }

    /// Mutably borrows the flit at `r`.
    #[inline]
    pub fn get_mut(&mut self, r: FlitRef) -> &mut Flit {
        self.slots[r.0 as usize].as_mut().expect("dangling FlitRef")
    }

    /// Removes and returns the flit at `r`, freeing the slot.
    #[inline]
    pub fn take(&mut self, r: FlitRef) -> Flit {
        let flit = self.slots[r.0 as usize].take().expect("dangling FlitRef");
        self.free.push(r.0);
        flit
    }

    /// Frees the slot at `r`, dropping the flit.
    #[inline]
    pub fn free(&mut self, r: FlitRef) {
        let _ = self.take(r);
    }

    /// Number of live flits.
    pub fn allocated(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever created (live + free).
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Highest [`FlitArena::allocated`] value ever reached.
    pub fn live_peak(&self) -> usize {
        self.live_peak
    }

    /// Returns `true` if `r` currently addresses a live flit.
    pub fn is_live(&self, r: FlitRef) -> bool {
        self.slots.get(r.0 as usize).is_some_and(Option::is_some)
    }

    /// Iterates every live slot as `(slot index, flit)`, in slot order
    /// (the flight recorder's full-arena dump).
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, &Flit)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|f| (i as u32, f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitData, FlitKind};
    use crate::ids::NodeId;
    use crate::packet::{PacketClass, PacketId};

    fn flit(seq: u32) -> Flit {
        Flit {
            packet: PacketId(1),
            seq,
            kind: FlitKind::Body,
            src: NodeId(0),
            dst: NodeId(1),
            class: PacketClass::ReadRequest,
            data: FlitData::dense(4),
            created_at: 0,
            hops: 0,
        }
    }

    #[test]
    fn alloc_take_roundtrip() {
        let mut a = FlitArena::new();
        let r0 = a.alloc(flit(0));
        let r1 = a.alloc(flit(1));
        assert_eq!(a.allocated(), 2);
        assert_eq!(a.get(r0).seq, 0);
        assert_eq!(a.get(r1).seq, 1);
        let f = a.take(r0);
        assert_eq!(f.seq, 0);
        assert_eq!(a.allocated(), 1);
        assert!(!a.is_live(r0));
        assert!(a.is_live(r1));
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut a = FlitArena::new();
        let r0 = a.alloc(flit(0));
        let _r1 = a.alloc(flit(1));
        a.free(r0);
        let r2 = a.alloc(flit(2));
        assert_eq!(r2, r0, "lowest-water slot reuse");
        assert_eq!(a.capacity_slots(), 2, "no growth while a free slot exists");
    }

    #[test]
    fn free_list_capacity_covers_all_slots() {
        let mut a = FlitArena::new();
        let refs: Vec<_> = (0..64).map(|s| a.alloc(flit(s))).collect();
        assert!(a.free.capacity() >= a.slots.len(), "free never reallocates");
        for r in refs {
            a.free(r);
        }
        assert_eq!(a.allocated(), 0);
    }

    #[test]
    #[should_panic(expected = "dangling FlitRef")]
    fn dangling_deref_panics() {
        let mut a = FlitArena::new();
        let r = a.alloc(flit(0));
        a.free(r);
        let _ = a.get(r);
    }
}
