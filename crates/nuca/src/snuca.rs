//! SNUCA static bank mapping.
//!
//! The simulated hierarchy "mimics SNUCA and the sets are statically
//! placed in the banks depending on the low order bits of the address
//! tags" (paper §4.1.2): line addresses interleave across the L2 banks.

use mira_noc::ids::NodeId;

use crate::address::LineAddr;

/// Static address→bank interleaving over a fixed set of bank nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankMap {
    banks: Vec<NodeId>,
}

impl BankMap {
    /// Creates the map over the given bank nodes (order defines the
    /// interleave).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is empty.
    pub fn new(banks: Vec<NodeId>) -> Self {
        assert!(!banks.is_empty(), "need at least one bank");
        BankMap { banks }
    }

    /// The bank nodes in interleave order.
    pub fn banks(&self) -> &[NodeId] {
        &self.banks
    }

    /// Home bank node of a line.
    pub fn home(&self, addr: LineAddr) -> NodeId {
        self.banks[(addr.index() % self.banks.len() as u64) as usize]
    }

    /// Index (0-based position in the bank list) of the home bank.
    pub fn home_index(&self, addr: LineAddr) -> usize {
        (addr.index() % self.banks.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> BankMap {
        BankMap::new((10..38).map(NodeId).collect())
    }

    #[test]
    fn interleaves_low_order_bits() {
        let m = map();
        assert_eq!(m.home(LineAddr::from_index(0)), NodeId(10));
        assert_eq!(m.home(LineAddr::from_index(1)), NodeId(11));
        assert_eq!(m.home(LineAddr::from_index(28)), NodeId(10));
    }

    #[test]
    fn distribution_is_uniform() {
        let m = map();
        let mut counts = vec![0usize; 28];
        for i in 0..28_000u64 {
            counts[m.home_index(LineAddr::from_index(i))] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1000), "{counts:?}");
    }

    #[test]
    fn consistent_home() {
        let m = map();
        let a = LineAddr::from_index(12345);
        assert_eq!(m.home(a), m.home(a));
        assert_eq!(m.banks()[m.home_index(a)], m.home(a));
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn empty_banks_panic() {
        let _ = BankMap::new(vec![]);
    }
}
