//! Round-robin arbiters used by the allocation stages.
//!
//! The VA and SA stages of the router are built from `n:1` arbiters
//! (paper §3.2.5–3.2.6: VA1 uses `P·V` V:1 arbiters, VA2 uses `P·V` PV:1
//! arbiters, SA is a two-stage separable allocator). A rotating-priority
//! (round-robin) arbiter provides the strong fairness the analysis
//! assumes; the arbiter *size* is what the area/power models care about,
//! so it is exposed alongside the grant logic.

use serde::{Deserialize, Serialize};

/// A rotating-priority (round-robin) arbiter over `n` request lines.
///
/// Grants are fair: after granting line `i`, line `i+1` has the highest
/// priority on the next arbitration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRobinArbiter {
    size: usize,
    next_priority: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `size` request lines.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter must have at least one request line");
        RoundRobinArbiter { size, next_priority: 0 }
    }

    /// Number of request lines (the `n` of an `n:1` arbiter).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Arbitrates among the requests selected by `requesting` and returns
    /// the granted line, advancing the priority pointer past it.
    ///
    /// Returns `None` if no line requests.
    pub fn arbitrate<F>(&mut self, requesting: F) -> Option<usize>
    where
        F: Fn(usize) -> bool,
    {
        for offset in 0..self.size {
            let line = (self.next_priority + offset) % self.size;
            if requesting(line) {
                self.next_priority = (line + 1) % self.size;
                return Some(line);
            }
        }
        None
    }
}

/// Round-robin arbitration over the request lines set in `mask` (bit `i`
/// = line `i`) for an arbiter of `size` lines whose priority pointer is
/// `next`: grants the first requesting line at or after the pointer,
/// wrapping, and advances the pointer past it — the grant sequence of
/// [`RoundRobinArbiter::arbitrate`], in O(1) via count-trailing-zeros.
/// The router core stores each arbiter as this one-byte pointer (the
/// size follows from the arbiter's role), which is what the per-cycle
/// hot path uses.
///
/// Only valid for arbiters of up to 64 lines; bits at or above `size`
/// are ignored. Returns `None` if no line requests.
#[inline]
pub(crate) fn arbitrate_mask(next: &mut u8, size: usize, mask: u64) -> Option<usize> {
    debug_assert!(size <= 64, "mask arbitration supports at most 64 lines");
    let mask = if size < 64 { mask & ((1u64 << size) - 1) } else { mask };
    if mask == 0 {
        return None;
    }
    let shifted = mask >> *next;
    let line = if shifted != 0 {
        usize::from(*next) + shifted.trailing_zeros() as usize
    } else {
        mask.trailing_zeros() as usize
    };
    *next = if line + 1 == size { 0 } else { line as u8 + 1 };
    Some(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_only_requesting_lines() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.arbitrate(|i| i == 2), Some(2));
        assert_eq!(a.arbitrate(|_| false), None);
    }

    #[test]
    fn round_robin_is_fair() {
        let mut a = RoundRobinArbiter::new(3);
        // All lines always request: grants must rotate 0,1,2,0,1,2…
        let grants: Vec<_> = (0..6).map(|_| a.arbitrate(|_| true).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn priority_moves_past_granted_line() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.arbitrate(|i| i == 3), Some(3));
        // Next arbitration starts the search at line 0.
        assert_eq!(a.arbitrate(|_| true), Some(0));
    }

    #[test]
    fn no_starvation_under_contention() {
        let mut a = RoundRobinArbiter::new(5);
        let mut counts = [0usize; 5];
        for _ in 0..1000 {
            let g = a.arbitrate(|_| true).unwrap();
            counts[g] += 1;
        }
        assert!(counts.iter().all(|&c| c == 200), "{counts:?}");
    }

    #[test]
    fn mask_arbitration_matches_the_closure_form() {
        for size in [1usize, 2, 5, 10, 64] {
            let mut reference = RoundRobinArbiter::new(size);
            let mut next = 0u8;
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..200 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let expect = reference.arbitrate(|i| x & (1 << i) != 0);
                assert_eq!(arbitrate_mask(&mut next, size, x), expect, "size {size}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_size_panics() {
        let _ = RoundRobinArbiter::new(0);
    }
}
