//! Classic synthetic permutation workloads (extensions beyond the
//! paper's uniform-random and NUCA-UR traffic).
//!
//! These are the standard adversarial patterns of the NoC literature
//! (Dally & Towles): transpose stresses one diagonal, bit-complement
//! maximises path length, hotspot concentrates load on a few nodes.
//! They are useful for exercising the simulator outside the paper's
//! configurations and for the ablation benches.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mira_noc::ids::NodeId;
use mira_noc::packet::{PacketClass, PacketSpec};
use mira_noc::traffic::{PayloadProfile, Workload};

/// Destination permutation rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// (x, y) → (y, x) on a `side × side` mesh; self-paired nodes stay
    /// silent.
    Transpose {
        /// Mesh side length.
        side: usize,
    },
    /// Node `i` → node `(N-1) - i` (bit complement for power-of-two N).
    BitComplement,
    /// A fraction of traffic targets a fixed hotspot set; the rest is
    /// uniform random.
    Hotspot {
        /// The hot destinations.
        hotspots: Vec<NodeId>,
        /// Probability a packet heads to a hotspot.
        fraction: f64,
    },
}

/// Open-loop permutation traffic at a fixed flit injection rate.
#[derive(Debug)]
pub struct PermutationTraffic {
    pattern: Pattern,
    rate_flits_per_node_cycle: f64,
    len_flits: usize,
    payload: PayloadProfile,
    rng: SmallRng,
    num_nodes: usize,
}

impl PermutationTraffic {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or the packet length is zero.
    pub fn new(pattern: Pattern, rate: f64, len_flits: usize, seed: u64) -> Self {
        assert!(rate >= 0.0, "rate must be non-negative");
        assert!(len_flits > 0, "packets need at least one flit");
        PermutationTraffic {
            pattern,
            rate_flits_per_node_cycle: rate,
            len_flits,
            payload: PayloadProfile::dense(4),
            rng: SmallRng::seed_from_u64(seed),
            num_nodes: 0,
        }
    }

    /// Replaces the payload profile.
    #[must_use]
    pub fn with_payload(mut self, payload: PayloadProfile) -> Self {
        self.payload = payload;
        self
    }

    fn destination(&mut self, src: usize) -> Option<usize> {
        match &self.pattern {
            Pattern::Transpose { side } => {
                let (x, y) = (src % side, src / side);
                let dst = x * side + y;
                (dst != src).then_some(dst)
            }
            Pattern::BitComplement => {
                let dst = self.num_nodes - 1 - src;
                (dst != src).then_some(dst)
            }
            Pattern::Hotspot { hotspots, fraction } => {
                let dst = if self.rng.gen_bool(*fraction) {
                    hotspots[self.rng.gen_range(0..hotspots.len())].index()
                } else {
                    let mut d = self.rng.gen_range(0..self.num_nodes - 1);
                    if d >= src {
                        d += 1;
                    }
                    d
                };
                (dst != src).then_some(dst)
            }
        }
    }
}

impl Workload for PermutationTraffic {
    fn init(&mut self, num_nodes: usize) {
        if let Pattern::Transpose { side } = &self.pattern {
            assert_eq!(side * side, num_nodes, "transpose needs a square mesh");
        }
        if let Pattern::Hotspot { hotspots, fraction } = &self.pattern {
            assert!(!hotspots.is_empty(), "hotspot set must be non-empty");
            assert!((0.0..=1.0).contains(fraction), "fraction in [0,1]");
            for h in hotspots {
                assert!(h.index() < num_nodes, "hotspot outside network");
            }
        }
        self.num_nodes = num_nodes;
    }

    fn generate(&mut self, _cycle: u64) -> Vec<PacketSpec> {
        let p = (self.rate_flits_per_node_cycle / self.len_flits as f64).min(1.0);
        // Pre-sized to the expected packet count.
        let mut specs = Vec::with_capacity((p * self.num_nodes as f64).round() as usize);
        for src in 0..self.num_nodes {
            if p > 0.0 && self.rng.gen_bool(p) {
                if let Some(dst) = self.destination(src) {
                    let payload =
                        (0..self.len_flits).map(|_| self.payload.sample(&mut self.rng)).collect();
                    specs.push(PacketSpec {
                        src: NodeId(src),
                        dst: NodeId(dst),
                        class: PacketClass::DataResponse,
                        payload,
                    });
                }
            }
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_swaps_coordinates() {
        let mut w = PermutationTraffic::new(Pattern::Transpose { side: 4 }, 1.0, 1, 1);
        w.init(16);
        for c in 0..200 {
            for s in w.generate(c) {
                let (sx, sy) = (s.src.index() % 4, s.src.index() / 4);
                assert_eq!(s.dst.index(), sx * 4 + sy);
                assert_ne!(s.src, s.dst, "diagonal nodes stay silent");
            }
        }
    }

    #[test]
    fn bit_complement_pairs_opposites() {
        let mut w = PermutationTraffic::new(Pattern::BitComplement, 1.0, 1, 1);
        w.init(16);
        for c in 0..100 {
            for s in w.generate(c) {
                assert_eq!(s.dst.index(), 15 - s.src.index());
            }
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let hotspots = vec![NodeId(0)];
        let mut w =
            PermutationTraffic::new(Pattern::Hotspot { hotspots, fraction: 0.5 }, 1.0, 1, 5);
        w.init(16);
        let mut to_hot = 0usize;
        let mut total = 0usize;
        for c in 0..2_000 {
            for s in w.generate(c) {
                total += 1;
                if s.dst == NodeId(0) {
                    to_hot += 1;
                }
            }
        }
        let frac = to_hot as f64 / total as f64;
        assert!(frac > 0.45, "hotspot fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "square mesh")]
    fn transpose_requires_square() {
        let mut w = PermutationTraffic::new(Pattern::Transpose { side: 4 }, 0.1, 1, 1);
        w.init(12);
    }
}
