//! Workload interface and the built-in uniform-random generator.
//!
//! Richer traffic models (NUCA-constrained bimodal traffic, application
//! profiles, trace replay) live in the `mira-traffic` crate; this module
//! defines the [`Workload`] trait they implement plus the basic
//! open-loop uniform-random source used throughout the unit tests and the
//! paper's Fig. 11(a)/12(a) experiments.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::flit::FlitData;
use crate::ids::NodeId;
use crate::packet::{PacketClass, PacketId, PacketSpec};

/// Summary of a fully ejected packet, handed to the workload for
/// closed-loop reactions (e.g. a cache bank answering a request).
#[derive(Debug, Clone)]
pub struct EjectedPacket {
    /// Packet id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node (where it ejected).
    pub dst: NodeId,
    /// Message class.
    pub class: PacketClass,
    /// Creation cycle.
    pub created_at: u64,
    /// Ejection cycle (tail flit's switch traversal at the destination).
    pub ejected_at: u64,
    /// Hops traversed.
    pub hops: u32,
    /// Length in flits.
    pub len_flits: usize,
}

/// A traffic source driving the simulator.
///
/// Implementations must be deterministic given their seed: the simulator
/// calls [`Workload::generate`] exactly once per cycle, in cycle order.
pub trait Workload {
    /// Called once before the run with the number of nodes in the
    /// network.
    fn init(&mut self, num_nodes: usize) {
        let _ = num_nodes;
    }

    /// Packets to inject this cycle (their source queues are unbounded,
    /// so generation is never back-pressured — queue growth is how
    /// saturation manifests).
    fn generate(&mut self, cycle: u64) -> Vec<PacketSpec>;

    /// Reaction to a packet arriving at its destination: a list of
    /// `(delay_cycles, packet)` replies to inject after `delay_cycles`.
    fn on_ejected(&mut self, cycle: u64, packet: &EjectedPacket) -> Vec<(u64, PacketSpec)> {
        let _ = (cycle, packet);
        Vec::new()
    }
}

/// Data-payload shaping shared by the synthetic generators: the fraction
/// of flits that are *short* (only the top-layer word meaningful,
/// paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayloadProfile {
    /// Probability that a generated flit is short.
    pub short_fraction: f64,
    /// Words per flit (flit width / 32).
    pub words_per_flit: usize,
}

impl PayloadProfile {
    /// All flits carry dense data (the paper's "0 % short flits"
    /// baseline).
    pub fn dense(words_per_flit: usize) -> Self {
        PayloadProfile { short_fraction: 0.0, words_per_flit }
    }

    /// A profile with the given short-flit fraction.
    ///
    /// # Panics
    ///
    /// Panics if `short_fraction` is not within `[0, 1]`.
    pub fn with_short_fraction(words_per_flit: usize, short_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&short_fraction), "fraction must be in [0,1]");
        PayloadProfile { short_fraction, words_per_flit }
    }

    /// Draws one flit payload.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> FlitData {
        if self.short_fraction > 0.0 && rng.gen_bool(self.short_fraction) {
            FlitData::with_active_words(self.words_per_flit, 1)
        } else {
            FlitData::dense(self.words_per_flit)
        }
    }
}

/// Open-loop uniform-random traffic: every cycle each node starts a new
/// packet with probability `rate / len_flits` towards a uniformly chosen
/// other node, so the offered load is `rate` flits/node/cycle. Every
/// packet is a [`PacketClass::DataResponse`].
#[derive(Debug)]
pub struct UniformRandom {
    rate_flits_per_node_cycle: f64,
    len_flits: usize,
    payload: PayloadProfile,
    rng: SmallRng,
    num_nodes: usize,
}

impl UniformRandom {
    /// Creates a generator offering `rate` flits/node/cycle in packets of
    /// `len_flits` flits, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or `len_flits` is zero.
    pub fn new(rate: f64, len_flits: usize, seed: u64) -> Self {
        assert!(rate >= 0.0, "rate must be non-negative");
        assert!(len_flits > 0, "packets must have at least one flit");
        UniformRandom {
            rate_flits_per_node_cycle: rate,
            len_flits,
            payload: PayloadProfile::dense(4),
            rng: SmallRng::seed_from_u64(seed),
            num_nodes: 0,
        }
    }

    /// Replaces the payload profile (e.g. to add short flits).
    #[must_use]
    pub fn with_payload(mut self, payload: PayloadProfile) -> Self {
        self.payload = payload;
        self
    }

    /// The offered load in flits/node/cycle.
    pub fn rate(&self) -> f64 {
        self.rate_flits_per_node_cycle
    }
}

impl Workload for UniformRandom {
    fn init(&mut self, num_nodes: usize) {
        assert!(num_nodes > 1, "uniform random traffic needs at least two nodes");
        self.num_nodes = num_nodes;
    }

    fn generate(&mut self, _cycle: u64) -> Vec<PacketSpec> {
        let p = (self.rate_flits_per_node_cycle / self.len_flits as f64).min(1.0);
        // Pre-sized to the expected packet count.
        let mut specs = Vec::with_capacity((p * self.num_nodes as f64).round() as usize);
        for src in 0..self.num_nodes {
            if p > 0.0 && self.rng.gen_bool(p) {
                let mut dst = self.rng.gen_range(0..self.num_nodes - 1);
                if dst >= src {
                    dst += 1;
                }
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
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_load_is_close_to_rate() {
        let mut w = UniformRandom::new(0.2, 4, 99);
        w.init(16);
        let mut flits = 0usize;
        let cycles = 5_000u64;
        for c in 0..cycles {
            for s in w.generate(c) {
                flits += s.payload.len();
            }
        }
        let rate = flits as f64 / (cycles as f64 * 16.0);
        assert!((rate - 0.2).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn destinations_never_equal_source() {
        let mut w = UniformRandom::new(1.0, 1, 7);
        w.init(8);
        for c in 0..2_000 {
            for s in w.generate(c) {
                assert_ne!(s.src, s.dst);
                assert!(s.dst.index() < 8);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut w = UniformRandom::new(0.3, 5, 1234);
            w.init(16);
            (0..100).flat_map(|c| w.generate(c)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn short_fraction_reflected_in_payloads() {
        let mut w =
            UniformRandom::new(1.0, 1, 5).with_payload(PayloadProfile::with_short_fraction(4, 0.5));
        w.init(4);
        let mut short = 0usize;
        let mut total = 0usize;
        for c in 0..4_000 {
            for s in w.generate(c) {
                for f in &s.payload {
                    total += 1;
                    if f.is_short() {
                        short += 1;
                    }
                }
            }
        }
        let frac = short as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.03, "measured {frac}");
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut w = UniformRandom::new(0.0, 5, 7);
        w.init(16);
        assert!((0..100).all(|c| w.generate(c).is_empty()));
    }
}
