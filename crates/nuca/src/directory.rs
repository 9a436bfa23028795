//! Distributed directory state.
//!
//! "Each bank maintains its own local directory and the L2 caches
//! maintain inclusion of L1 caches" (paper §4.1.2). The directory maps
//! a line to its sharer set and (exclusive) owner; the CMP model
//! consults it to decide which invalidations and writeback-forwards a
//! request triggers.

use std::collections::HashMap;

use crate::address::LineAddr;

/// Directory entry for one line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// CPUs holding the line in Shared state.
    pub sharers: Vec<usize>,
    /// CPU holding the line exclusively (M/E), if any.
    pub owner: Option<usize>,
}

impl DirEntry {
    /// Returns `true` if no L1 caches the line.
    fn is_idle(&self) -> bool {
        self.sharers.is_empty() && self.owner.is_none()
    }
}

/// One bank's directory.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: HashMap<LineAddr, DirEntry>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// The entry for a line (empty default if untracked).
    pub fn entry(&self, addr: LineAddr) -> DirEntry {
        self.entries.get(&addr).cloned().unwrap_or_default()
    }

    /// Records a read: `cpu` becomes a sharer (or the exclusive owner if
    /// nobody holds the line). Returns the previous owner if the line was
    /// exclusive elsewhere (who must be downgraded/flushed).
    pub fn record_read(&mut self, addr: LineAddr, cpu: usize) -> Option<usize> {
        let e = self.entries.entry(addr).or_default();
        let prev_owner = e.owner.filter(|&o| o != cpu);
        if let Some(o) = prev_owner {
            // Downgrade: previous owner becomes a sharer.
            e.owner = None;
            if !e.sharers.contains(&o) {
                e.sharers.push(o);
            }
        }
        if e.owner == Some(cpu) {
            return None;
        }
        if e.is_idle() {
            e.owner = Some(cpu); // exclusive grant
        } else if !e.sharers.contains(&cpu) {
            e.sharers.push(cpu);
        }
        prev_owner
    }

    /// Records a write: `cpu` becomes the exclusive owner. Returns every
    /// other CPU that must be invalidated.
    pub fn record_write(&mut self, addr: LineAddr, cpu: usize) -> Vec<usize> {
        let e = self.entries.entry(addr).or_default();
        let mut invalidate: Vec<usize> = e.sharers.iter().copied().filter(|&c| c != cpu).collect();
        if let Some(o) = e.owner {
            if o != cpu {
                invalidate.push(o);
            }
        }
        e.sharers.clear();
        e.owner = Some(cpu);
        invalidate
    }

    /// Records that `cpu` dropped the line (eviction or invalidation
    /// acknowledgement).
    pub fn record_drop(&mut self, addr: LineAddr, cpu: usize) {
        if let Some(e) = self.entries.get_mut(&addr) {
            e.sharers.retain(|&c| c != cpu);
            if e.owner == Some(cpu) {
                e.owner = None;
            }
            if e.is_idle() {
                self.entries.remove(&addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    #[test]
    fn first_read_grants_exclusive() {
        let mut d = Directory::new();
        assert_eq!(d.record_read(a(1), 0), None);
        let e = d.entry(a(1));
        assert_eq!(e.owner, Some(0));
        assert!(e.sharers.is_empty());
    }

    #[test]
    fn second_read_downgrades_owner() {
        let mut d = Directory::new();
        d.record_read(a(1), 0);
        let prev = d.record_read(a(1), 1);
        assert_eq!(prev, Some(0), "owner must be flushed/downgraded");
        let e = d.entry(a(1));
        assert_eq!(e.owner, None);
        assert!(e.sharers.contains(&0) && e.sharers.contains(&1));
    }

    #[test]
    fn write_invalidates_all_others() {
        let mut d = Directory::new();
        d.record_read(a(1), 0);
        d.record_read(a(1), 1);
        d.record_read(a(1), 2);
        let inv = d.record_write(a(1), 0);
        let mut inv_sorted = inv.clone();
        inv_sorted.sort_unstable();
        assert_eq!(inv_sorted, vec![1, 2]);
        let e = d.entry(a(1));
        assert_eq!(e.owner, Some(0));
        assert!(e.sharers.is_empty());
    }

    #[test]
    fn write_by_sole_owner_invalidates_nobody() {
        let mut d = Directory::new();
        d.record_read(a(1), 0);
        assert!(d.record_write(a(1), 0).is_empty());
    }

    #[test]
    fn drop_removes_idle_entries() {
        let mut d = Directory::new();
        d.record_read(a(1), 0);
        assert!(!d.entry(a(1)).is_idle());
        d.record_drop(a(1), 0);
        assert!(d.entry(a(1)).is_idle());
    }

    #[test]
    fn repeated_reads_do_not_duplicate_sharers() {
        let mut d = Directory::new();
        d.record_read(a(1), 0);
        d.record_read(a(1), 1);
        d.record_read(a(1), 1);
        assert_eq!(d.entry(a(1)).sharers.iter().filter(|&&c| c == 1).count(), 1);
    }
}
