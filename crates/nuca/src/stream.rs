//! Synthetic per-CPU memory reference streams.
//!
//! Each CPU draws line addresses from a private region plus a shared
//! region, with a hot subset capturing temporal locality. The knobs —
//! working-set size, hot fraction, sharing probability, read fraction —
//! come from the application profiles ([`mira_traffic::workloads`]).
//! These streams are what stand in for the Simics instruction streams
//! the paper used; what matters downstream is only the resulting miss,
//! sharing, and writeback behaviour.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::address::LineAddr;

/// One memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The referenced line.
    pub addr: LineAddr,
    /// `true` for stores.
    pub is_write: bool,
}

/// Address-stream parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Lines in each CPU's private region.
    pub private_lines: u64,
    /// Lines in the globally shared region.
    pub shared_lines: u64,
    /// Probability a reference targets the shared region.
    pub shared_prob: f64,
    /// Probability a reference re-uses the hot subset (temporal
    /// locality).
    pub hot_prob: f64,
    /// Size of the hot subset, lines.
    pub hot_lines: u64,
    /// Probability a reference is a store.
    pub write_prob: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            // Private working set 4× the L1 capacity (512 lines) so
            // capacity misses occur at a realistic rate.
            private_lines: 2_048,
            shared_lines: 1_024,
            shared_prob: 0.2,
            hot_prob: 0.6,
            hot_lines: 256,
            write_prob: 0.3,
        }
    }
}

/// A deterministic reference stream for one CPU.
#[derive(Debug)]
pub struct AddressStream {
    cfg: StreamConfig,
    cpu: usize,
    rng: SmallRng,
}

impl AddressStream {
    /// Creates the stream for CPU `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or a region is
    /// empty.
    pub fn new(cpu: usize, cfg: StreamConfig, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&cfg.shared_prob), "shared_prob in [0,1]");
        assert!((0.0..=1.0).contains(&cfg.hot_prob), "hot_prob in [0,1]");
        assert!((0.0..=1.0).contains(&cfg.write_prob), "write_prob in [0,1]");
        assert!(cfg.private_lines > 0 && cfg.shared_lines > 0, "regions must be non-empty");
        assert!(cfg.hot_lines > 0, "hot set must be non-empty");
        AddressStream {
            cfg,
            cpu,
            rng: SmallRng::seed_from_u64(seed ^ (cpu as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Base line index of this CPU's private region (regions are disjoint
    /// per CPU; the shared region sits below all private regions).
    fn private_base(&self) -> u64 {
        self.cfg.shared_lines + self.cpu as u64 * self.cfg.private_lines
    }

    /// Draws the next reference.
    pub fn next_access(&mut self) -> Access {
        let shared = self.rng.gen_bool(self.cfg.shared_prob);
        let (base, span) = if shared {
            (0, self.cfg.shared_lines)
        } else {
            (self.private_base(), self.cfg.private_lines)
        };
        let hot_span = self.cfg.hot_lines.min(span);
        let offset = if self.rng.gen_bool(self.cfg.hot_prob) {
            self.rng.gen_range(0..hot_span)
        } else {
            self.rng.gen_range(0..span)
        };
        Access {
            addr: LineAddr::from_index(base + offset),
            is_write: self.rng.gen_bool(self.cfg.write_prob),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_regions_are_disjoint() {
        let cfg = StreamConfig::default();
        let mut s0 = AddressStream::new(0, cfg, 1);
        let mut s1 = AddressStream::new(1, cfg, 1);
        for _ in 0..2_000 {
            let a0 = s0.next_access().addr;
            let a1 = s1.next_access().addr;
            if a0.index() >= cfg.shared_lines && a1.index() >= cfg.shared_lines {
                // Both private: must come from different regions.
                let r0 = (a0.index() - cfg.shared_lines) / cfg.private_lines;
                let r1 = (a1.index() - cfg.shared_lines) / cfg.private_lines;
                assert_eq!(r0, 0);
                assert_eq!(r1, 1);
            }
        }
    }

    #[test]
    fn write_fraction_matches_config() {
        let cfg = StreamConfig { write_prob: 0.25, ..StreamConfig::default() };
        let mut s = AddressStream::new(0, cfg, 42);
        let writes = (0..10_000).filter(|_| s.next_access().is_write).count();
        let frac = writes as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn shared_fraction_matches_config() {
        let cfg = StreamConfig { shared_prob: 0.3, ..StreamConfig::default() };
        let mut s = AddressStream::new(2, cfg, 42);
        let shared =
            (0..10_000).filter(|_| s.next_access().addr.index() < cfg.shared_lines).count();
        let frac = shared as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "shared fraction {frac}");
    }

    #[test]
    fn hot_subset_gets_reuse() {
        let cfg = StreamConfig { hot_prob: 0.8, shared_prob: 0.0, ..StreamConfig::default() };
        let mut s = AddressStream::new(0, cfg, 7);
        let base = cfg.shared_lines;
        let hot_hits =
            (0..10_000).filter(|_| s.next_access().addr.index() < base + cfg.hot_lines).count();
        // 80% forced hot + uniform draws that land there by chance.
        assert!(hot_hits as f64 / 10_000.0 > 0.8, "hot hits {hot_hits}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = StreamConfig::default();
        let run = || {
            let mut s = AddressStream::new(3, cfg, 99);
            (0..100).map(|_| s.next_access()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "shared_prob")]
    fn bad_probability_panics() {
        let cfg = StreamConfig { shared_prob: 1.5, ..StreamConfig::default() };
        let _ = AddressStream::new(0, cfg, 1);
    }
}
