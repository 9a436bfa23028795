//! Set-associative MESI tag arrays with LRU replacement.
//!
//! Used for the private L1s (32 KB, 4-way, 64 B lines → 128 sets, paper
//! Table 4). Only tags and coherence state are modelled — the data
//! values are synthesised separately by [`crate::data`].

use serde::{Deserialize, Serialize};

use crate::address::LineAddr;

/// MESI coherence states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mesi {
    /// Exclusive, dirty.
    Modified,
    /// Exclusive, clean.
    Exclusive,
    /// Shared, clean.
    Shared,
}

/// One resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    tag: u64,
    state: Mesi,
    /// Higher = more recently used.
    lru: u64,
}

/// Result of inserting a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The displaced line.
    pub addr: LineAddr,
    /// Its state at eviction (Modified ⇒ a writeback is due).
    pub state: Mesi,
}

/// A set-associative cache tag array.
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: Vec<Vec<Way>>,
    ways: usize,
    clock: u64,
}

impl CacheArray {
    /// Creates an array with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "cache geometry must be positive");
        CacheArray { sets: vec![Vec::new(); num_sets], ways, clock: 0 }
    }

    /// The paper's L1: 32 KB, 4-way, 64 B lines → 128 sets.
    pub fn l1() -> Self {
        CacheArray::new(128, 4)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Looks a line up without touching LRU.
    pub fn peek(&self, addr: LineAddr) -> Option<Mesi> {
        let set = &self.sets[addr.set_index(self.sets.len())];
        let tag = addr.tag(self.sets.len());
        set.iter().find(|w| w.tag == tag).map(|w| w.state)
    }

    /// Looks a line up and refreshes its LRU position.
    pub fn touch(&mut self, addr: LineAddr) -> Option<Mesi> {
        self.clock += 1;
        let num_sets = self.sets.len();
        let tag = addr.tag(num_sets);
        let clock = self.clock;
        let set = &mut self.sets[addr.set_index(num_sets)];
        set.iter_mut().find(|w| w.tag == tag).map(|w| {
            w.lru = clock;
            w.state
        })
    }

    /// Updates the state of a resident line; returns `false` if absent.
    pub fn set_state(&mut self, addr: LineAddr, state: Mesi) -> bool {
        let num_sets = self.sets.len();
        let tag = addr.tag(num_sets);
        let set = &mut self.sets[addr.set_index(num_sets)];
        if let Some(w) = set.iter_mut().find(|w| w.tag == tag) {
            w.state = state;
            true
        } else {
            false
        }
    }

    /// Removes a line (external invalidation); returns its state if it
    /// was resident.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<Mesi> {
        let num_sets = self.sets.len();
        let tag = addr.tag(num_sets);
        let set = &mut self.sets[addr.set_index(num_sets)];
        set.iter().position(|w| w.tag == tag).map(|i| set.swap_remove(i).state)
    }

    /// Inserts a line, evicting the LRU way if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (callers must upgrade via
    /// [`CacheArray::set_state`] instead).
    pub fn insert(&mut self, addr: LineAddr, state: Mesi) -> Option<Eviction> {
        self.clock += 1;
        let num_sets = self.sets.len();
        let set_idx = addr.set_index(num_sets);
        let tag = addr.tag(num_sets);
        let ways = self.ways;
        let clock = self.clock;
        let set = &mut self.sets[set_idx];
        assert!(set.iter().all(|w| w.tag != tag), "line already resident");

        let evicted = if set.len() >= ways {
            let lru_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("full set has a victim");
            let victim = set.swap_remove(lru_idx);
            let victim_index = victim.tag * num_sets as u64 + set_idx as u64;
            Some(Eviction { addr: LineAddr::from_index(victim_index), state: victim.state })
        } else {
            None
        };

        set.push(Way { tag, state, lru: clock });
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_geometry_matches_paper() {
        let l1 = CacheArray::l1();
        assert_eq!(l1.num_sets(), 128);
        assert_eq!(l1.ways(), 4);
        // 128 sets × 4 ways × 64 B = 32 KB.
        assert_eq!(l1.num_sets() * l1.ways() * 64, 32 * 1024);
    }

    #[test]
    fn insert_then_hit() {
        let mut c = CacheArray::new(4, 2);
        let a = LineAddr::from_index(9);
        assert_eq!(c.touch(a), None);
        assert_eq!(c.insert(a, Mesi::Exclusive), None);
        assert_eq!(c.touch(a), Some(Mesi::Exclusive));
        assert_eq!(c.peek(a), Some(Mesi::Exclusive));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = CacheArray::new(1, 2);
        let a = LineAddr::from_index(0);
        let b = LineAddr::from_index(1);
        let d = LineAddr::from_index(2);
        c.insert(a, Mesi::Shared);
        c.insert(b, Mesi::Shared);
        c.touch(a); // b is now LRU
        let ev = c.insert(d, Mesi::Shared).expect("set was full");
        assert_eq!(ev.addr, b);
        assert_eq!(c.peek(a), Some(Mesi::Shared));
        assert_eq!(c.peek(b), None);
    }

    #[test]
    fn eviction_reports_dirty_state() {
        let mut c = CacheArray::new(1, 1);
        let a = LineAddr::from_index(3);
        c.insert(a, Mesi::Modified);
        let ev = c.insert(LineAddr::from_index(4), Mesi::Shared).unwrap();
        assert_eq!(ev.addr, a);
        assert_eq!(ev.state, Mesi::Modified);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = CacheArray::new(4, 2);
        let a = LineAddr::from_index(7);
        c.insert(a, Mesi::Shared);
        assert_eq!(c.invalidate(a), Some(Mesi::Shared));
        assert_eq!(c.peek(a), None);
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn state_upgrade() {
        let mut c = CacheArray::new(4, 2);
        let a = LineAddr::from_index(7);
        c.insert(a, Mesi::Shared);
        assert!(c.set_state(a, Mesi::Modified));
        assert_eq!(c.peek(a), Some(Mesi::Modified));
        assert!(!c.set_state(LineAddr::from_index(99), Mesi::Shared));
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut c = CacheArray::new(4, 2);
        let a = LineAddr::from_index(7);
        c.insert(a, Mesi::Shared);
        c.insert(a, Mesi::Shared);
    }
}
