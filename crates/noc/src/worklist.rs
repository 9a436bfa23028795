//! Work-lists for the per-cycle scans of `Network::step`.
//!
//! A `WorkList` is a bitmask over the indices of one kind of network
//! element (links, NIC source queues, routers): a bit is set whenever
//! the element may have work and cleared only by the scan that finds it
//! idle. It may therefore over-include but never miss, and walking it in
//! ascending order visits the working elements in exactly the order a
//! full scan would, so skipping the idle ones changes no result. See
//! DESIGN.md §14.

/// A set of indices below a fixed bound, as one bit per index.
#[derive(Debug, Clone)]
pub(crate) struct WorkList {
    words: Vec<u64>,
}

impl WorkList {
    /// An empty list over indices `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        WorkList { words: vec![0; len.div_ceil(64)] }
    }

    /// Adds `i` to the list.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i` from the list.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether `i` is on the list.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The smallest index on the list at or after `from`, if any. A walk
    /// calls this with one past the index it just handled, so it sees
    /// the list as it stands at each step.
    #[inline]
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(list: &WorkList) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(i) = list.next_from(from) {
            out.push(i);
            from = i + 1;
        }
        out
    }

    #[test]
    fn walks_members_in_ascending_order() {
        let mut l = WorkList::new(200);
        assert_eq!(walk(&l), Vec::<usize>::new());
        for i in [199, 3, 64, 63, 0, 128] {
            l.insert(i);
        }
        assert_eq!(walk(&l), vec![0, 3, 63, 64, 128, 199]);
        l.remove(63);
        l.remove(5);
        assert!(l.contains(64) && !l.contains(63));
        assert_eq!(walk(&l), vec![0, 3, 64, 128, 199]);
        assert_eq!(l.next_from(200), None, "past the bound");
    }
}
