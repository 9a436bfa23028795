//! Fault injection: deterministic, seed-driven fault plans for the
//! 3D-stacked interconnect.
//!
//! MIRA's datapath is bit-sliced across four stacked layers joined by
//! inter-layer vias (paper §3.2, Table 1) — exactly the structures real
//! 3D integration makes fragile: inter-tier process variation and
//! TSV/MIV defects degrade or kill individual slices and links. This
//! module models four fault classes, all derived deterministically from
//! a seed so runs stay reproducible and paired across architectures:
//!
//! * **Transient slice corruption** — a link traversal flips one or two
//!   bits in an upper payload word (the words that ride the TSVs to the
//!   lower layers). Single flips are caught by the per-slice parity and
//!   NACKed; double flips in the same word defeat parity and *escape*;
//!   flips landing on a slice the short-flit layer shutdown has gated
//!   off are *masked* (the gated slice is regenerated downstream, not
//!   transported).
//! * **Permanent link/via failure** — a link dies at a scheduled onset
//!   cycle and never recovers. Flits in flight (and unacknowledged
//!   retransmit-window entries) are lost; routing degrades around it.
//! * **Stuck layer gates** — a link's upper slices latch off: any flit
//!   needing more active words than the surviving slices is corrupted
//!   deterministically on every attempt, so retries exhaust and the
//!   packet is dropped with accounting. Short flits pass unharmed.
//! * **Router-port death** — one explicit [`LinkKill`] addressed by
//!   `(node, out-port)`, the way a dead output port of a specific
//!   router is expressed.
//!
//! Recovery is link-level go-back-N retransmission (in
//! [`crate::link`]) plus fault-aware route masks (in [`crate::router`]
//! / [`crate::routing`]); the network orchestrates both and reports
//! everything through [`FaultCounters`].

use serde::{Deserialize, Serialize};

use crate::error::NocError;
use crate::ids::{NodeId, PortId};

/// Among transient faults, the ppm fraction that flip *two* bits in the
/// same word — defeating the per-slice parity and escaping detection
/// (1 in 16 faults).
const DOUBLE_FLIP_PPM: u64 = 62_500;

/// One scheduled permanent failure of the link leaving `(node, port)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkKill {
    /// Upstream router of the link to kill.
    pub node: usize,
    /// Output port (on `node`) whose link dies.
    pub port: usize,
    /// Cycle at which the link dies (0 = dead from the start).
    pub at_cycle: u64,
}

/// Fault-injection switches, carried by [`crate::sim::SimConfig`].
///
/// All rates are integers (parts per million) so the config stays
/// `Copy + Eq` like the rest of the simulator configuration. The
/// default is fully inert: [`FaultConfig::enabled`] returns `false`
/// and the simulator never engages any fault machinery, keeping the
/// default path bit-identical to a build without this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Per-link-traversal probability of transient corruption, in parts
    /// per million (0 disables transient faults).
    pub transient_ppm: u32,
    /// The explicitly scheduled link kill (router-port death).
    pub kill: Option<LinkKill>,
    /// Number of additional links killed at seed-derived positions and
    /// onset cycles.
    pub random_kills: u32,
    /// Onset cycles for random kills and stuck gates are drawn from
    /// `[0, kill_window]`.
    pub kill_window: u64,
    /// Number of links whose upper layer gates latch off (seed-derived
    /// positions; each keeps a seed-derived number of healthy words).
    pub stuck_gates: u32,
    /// Retransmission budget per corrupted flit before the owning
    /// packet is dropped; 0 means retry forever.
    pub max_retries: u32,
    /// Seed for every randomised fault decision.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultConfig {
    /// Faults fully off (the default).
    pub const fn disabled() -> Self {
        FaultConfig {
            transient_ppm: 0,
            kill: None,
            random_kills: 0,
            kill_window: 0,
            stuck_gates: 0,
            max_retries: 8,
            seed: 0,
        }
    }

    /// `true` when any fault source is configured; `false` keeps the
    /// simulator on the zero-overhead path.
    pub fn enabled(&self) -> bool {
        self.transient_ppm > 0
            || self.random_kills > 0
            || self.stuck_gates > 0
            || self.kill.is_some()
    }

    /// Sets the transient corruption rate (parts per million).
    #[must_use]
    pub fn with_transient(mut self, ppm: u32) -> Self {
        self.transient_ppm = ppm;
        self
    }

    /// Schedules a permanent kill of the link leaving `(node, port)`,
    /// replacing any kill scheduled before.
    #[must_use]
    pub fn with_kill(mut self, node: usize, port: usize, at_cycle: u64) -> Self {
        self.kill = Some(LinkKill { node, port, at_cycle });
        self
    }

    /// Schedules `n` random link kills with onsets in `[0, window]`.
    #[must_use]
    pub fn with_random_kills(mut self, n: u32, window: u64) -> Self {
        self.random_kills = n;
        self.kill_window = window;
        self
    }

    /// Latches the upper layer gates of `n` random links off.
    #[must_use]
    pub fn with_stuck_gates(mut self, n: u32) -> Self {
        self.stuck_gates = n;
        self
    }

    /// Sets the retransmission budget (0 = unlimited).
    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the fault seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function (same
/// family as the experiment-seed derivation, so fault decisions are
/// stateless and order-independent).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless fault hash over (seed, three decision coordinates).
#[inline]
fn fault_hash(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    mix(seed ^ mix(a ^ mix(b ^ mix(c))))
}

/// Corruption outcome for one flit delivery over a faulty link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No corruption: the flit is delivered and acknowledged.
    Clean,
    /// The fault hit a slice that layer shutdown had gated off: the
    /// slice is regenerated downstream, so the corruption is harmless.
    Masked,
    /// Parity caught the corruption: the receiver NACKs and the sender
    /// retransmits.
    Detected,
    /// A double bit-flip in one word defeated parity: the corrupted
    /// flit is delivered as-is.
    Escaped {
        /// Index of the corrupted word.
        word: usize,
        /// XOR mask applied to that word.
        mask: u32,
    },
}

/// One scheduled permanent link kill, resolved to a link index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledKill {
    /// Onset cycle.
    pub cycle: u64,
    /// Index of the dying link in the network's link table.
    pub link: usize,
}

/// A compiled fault plan: the config resolved against a concrete link
/// table, with every randomised decision fixed by the seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Kills sorted by onset cycle (ties by link index).
    kills: Vec<ScheduledKill>,
    /// Per-link stuck-gate state: `(onset cycle, healthy words)`.
    stuck: Vec<Option<(u64, usize)>>,
}

impl FaultPlan {
    /// Compiles `cfg` against a link table given as `(node, out-port)`
    /// upstream endpoints. `words_per_flit` bounds the healthy-word
    /// counts of stuck gates.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::LinkFault`] when the explicit kill addresses
    /// a `(node, port)` pair with no link.
    pub fn compile(
        cfg: FaultConfig,
        endpoints: &[(usize, usize)],
        words_per_flit: usize,
    ) -> Result<FaultPlan, NocError> {
        let n = endpoints.len();
        let mut kills: Vec<ScheduledKill> = Vec::new();
        if let Some(k) = cfg.kill {
            let link = endpoints
                .iter()
                .position(|&(node, port)| node == k.node && port == k.port)
                .ok_or(NocError::LinkFault {
                    node: NodeId(k.node),
                    port: PortId(k.port),
                    reason: "no link leaves this (node, port)",
                })?;
            kills.push(ScheduledKill { cycle: k.at_cycle, link });
        }
        if n > 0 {
            for i in 0..cfg.random_kills as u64 {
                let h = fault_hash(cfg.seed, 0xD1E, i, 0);
                let mut link = (h % n as u64) as usize;
                // Linear-probe past links already scheduled to die so
                // `random_kills` distinct links actually die.
                while kills.iter().any(|s| s.link == link) && kills.len() < n {
                    link = (link + 1) % n;
                }
                let cycle = if cfg.kill_window == 0 {
                    0
                } else {
                    fault_hash(cfg.seed, 0xD1E, i, 1) % (cfg.kill_window + 1)
                };
                kills.push(ScheduledKill { cycle, link });
            }
        }
        kills.sort_by_key(|s| (s.cycle, s.link));
        kills.dedup_by_key(|s| s.link);

        let mut stuck = vec![None; n];
        if n > 0 {
            for i in 0..cfg.stuck_gates as u64 {
                let h = fault_hash(cfg.seed, 0x57C, i, 0);
                let link = (h % n as u64) as usize;
                let healthy = if words_per_flit > 1 {
                    1 + (fault_hash(cfg.seed, 0x57C, i, 1) % (words_per_flit as u64 - 1)) as usize
                } else {
                    1
                };
                let onset = if cfg.kill_window == 0 {
                    0
                } else {
                    fault_hash(cfg.seed, 0x57C, i, 2) % (cfg.kill_window + 1)
                };
                stuck[link] = Some((onset, healthy));
            }
        }
        Ok(FaultPlan { cfg, kills, stuck })
    }

    /// The configuration this plan was compiled from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Scheduled kills, sorted by onset cycle.
    pub fn kills(&self) -> &[ScheduledKill] {
        &self.kills
    }

    /// Stuck-gate state for `link`: `(onset cycle, healthy words)`.
    pub fn stuck_gate(&self, link: usize) -> Option<(u64, usize)> {
        self.stuck[link]
    }

    /// Corruption verdict for one delivery: flit with `active_words`
    /// of `num_words` arriving over `link` at `cycle` with link-level
    /// sequence number `seq`, under `layer_shutdown`.
    ///
    /// The decision is a stateless hash of `(seed, link, seq, cycle)`,
    /// so a retransmitted copy (same `seq`, later `cycle`) re-rolls —
    /// transient faults clear on retry, which is what makes unbounded
    /// retries converge.
    pub fn verdict(
        &self,
        link: usize,
        seq: u64,
        cycle: u64,
        num_words: usize,
        active_words: usize,
        layer_shutdown: bool,
    ) -> Verdict {
        // Stuck gates corrupt deterministically: every attempt to push
        // more active words than the surviving slices fails the same
        // way, so retries exhaust and the packet drops.
        if let Some((onset, healthy)) = self.stuck[link] {
            if cycle >= onset && active_words > healthy {
                return Verdict::Detected;
            }
        }
        if self.cfg.transient_ppm == 0 {
            return Verdict::Clean;
        }
        let h = fault_hash(self.cfg.seed, link as u64, seq, cycle);
        if h % 1_000_000 >= self.cfg.transient_ppm as u64 {
            return Verdict::Clean;
        }
        // Fault fires. Pick the word: upper words (the TSV-borne
        // slices) when the flit spans more than one.
        let h2 = fault_hash(self.cfg.seed, link as u64, seq, cycle ^ 0xF417);
        let word = if num_words > 1 { 1 + (h2 % (num_words as u64 - 1)) as usize } else { 0 };
        if layer_shutdown && word >= active_words {
            // The hit slice is gated off: it is regenerated downstream
            // from the pattern tag, not transported, so the flip never
            // reaches the receiver.
            return Verdict::Masked;
        }
        let bit1 = (h2 >> 8) % 32;
        if (h2 >> 16) % 1_000_000 < DOUBLE_FLIP_PPM {
            let mut bit2 = (h2 >> 40) % 32;
            if bit2 == bit1 {
                bit2 = (bit2 + 1) % 32;
            }
            Verdict::Escaped { word, mask: (1u32 << bit1) | (1u32 << bit2) }
        } else {
            Verdict::Detected
        }
    }
}

/// Cumulative fault and recovery accounting, surfaced through
/// [`crate::sim::SimReport`].
///
/// Invariants (asserted by the property tests): every transient fault
/// is exactly one of detected / escaped / masked, so
/// `transient_faults == (detected - stuck_faults) + escaped + masked`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Transient corruption events injected on link traversals.
    pub transient_faults: u64,
    /// Deliveries corrupted by a stuck layer gate.
    pub stuck_faults: u64,
    /// Corruptions caught by per-slice parity (NACKed).
    pub detected: u64,
    /// Double-flips that defeated parity (delivered corrupt).
    pub escaped: u64,
    /// Flips on gated-off slices (harmless under layer shutdown).
    pub masked: u64,
    /// Flits re-sent by the go-back-N recovery.
    pub retransmissions: u64,
    /// Flits lost to dead links, exhausted retries, or purged stubs.
    pub flits_dropped: u64,
    /// Packets dropped (severed) rather than delivered.
    pub packets_dropped: u64,
    /// Route computations that had to divert around a dead link.
    pub reroutes: u64,
    /// Links permanently killed so far.
    pub links_killed: u64,
}

impl FaultCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_endpoints(n: usize) -> Vec<(usize, usize)> {
        // A fake link table: node i, port 1 (east), for i in 0..n.
        (0..n).map(|i| (i, 1)).collect()
    }

    #[test]
    fn default_config_is_inert() {
        let cfg = FaultConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg, FaultConfig::disabled());
    }

    #[test]
    fn any_source_enables() {
        assert!(FaultConfig::disabled().with_transient(1).enabled());
        assert!(FaultConfig::disabled().with_kill(0, 1, 0).enabled());
        assert!(FaultConfig::disabled().with_random_kills(1, 100).enabled());
        assert!(FaultConfig::disabled().with_stuck_gates(1).enabled());
    }

    #[test]
    fn explicit_kill_resolves_to_link() {
        let cfg = FaultConfig::disabled().with_kill(3, 1, 42);
        let plan = FaultPlan::compile(cfg, &line_endpoints(8), 4)
            .expect("explicit kill on a wired port compiles");
        assert_eq!(plan.kills(), &[ScheduledKill { cycle: 42, link: 3 }]);
    }

    #[test]
    fn unresolvable_kill_errors() {
        let cfg = FaultConfig::disabled().with_kill(3, 2, 0);
        let err = FaultPlan::compile(cfg, &line_endpoints(8), 4).unwrap_err();
        assert!(matches!(err, NocError::LinkFault { .. }), "{err}");
    }

    #[test]
    fn random_kills_are_distinct_and_deterministic() {
        let cfg = FaultConfig::disabled().with_random_kills(3, 500).with_seed(7);
        let a = FaultPlan::compile(cfg, &line_endpoints(16), 4).expect("random-kill plan compiles");
        let b = FaultPlan::compile(cfg, &line_endpoints(16), 4).expect("random-kill plan compiles");
        assert_eq!(a.kills(), b.kills());
        assert_eq!(a.kills().len(), 3);
        let mut links: Vec<usize> = a.kills().iter().map(|k| k.link).collect();
        links.dedup();
        assert_eq!(links.len(), 3, "kills hit distinct links");
        assert!(a.kills().windows(2).all(|w| w[0].cycle <= w[1].cycle), "sorted by onset");
        assert!(a.kills().iter().all(|k| k.cycle <= 500));
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let e = line_endpoints(64);
        let a = FaultPlan::compile(
            FaultConfig::disabled().with_random_kills(2, 1000).with_seed(1),
            &e,
            4,
        )
        .expect("seed-1 plan compiles");
        let b = FaultPlan::compile(
            FaultConfig::disabled().with_random_kills(2, 1000).with_seed(2),
            &e,
            4,
        )
        .expect("seed-2 plan compiles");
        assert_ne!(a.kills(), b.kills());
    }

    #[test]
    fn stuck_gates_keep_at_least_one_word() {
        let cfg = FaultConfig::disabled().with_stuck_gates(4).with_seed(11);
        let plan =
            FaultPlan::compile(cfg, &line_endpoints(16), 4).expect("stuck-gate plan compiles");
        let gates: Vec<(u64, usize)> = (0..16).filter_map(|l| plan.stuck_gate(l)).collect();
        assert!(!gates.is_empty());
        assert!(gates.iter().all(|&(_, healthy)| (1..4).contains(&healthy)));
    }

    #[test]
    fn verdict_rerolls_per_cycle() {
        let cfg = FaultConfig::disabled().with_transient(500_000).with_seed(3);
        let plan = FaultPlan::compile(cfg, &line_endpoints(4), 4).expect("transient plan compiles");
        // At 50% the verdict must differ across cycles for the same seq
        // — the stateless hash re-rolls, so retries can succeed.
        let mut seen_clean = false;
        let mut seen_fault = false;
        for cycle in 0..64 {
            match plan.verdict(0, 9, cycle, 4, 4, false) {
                Verdict::Clean => seen_clean = true,
                _ => seen_fault = true,
            }
        }
        assert!(seen_clean && seen_fault);
    }

    #[test]
    fn shutdown_masks_gated_slice_hits() {
        let cfg = FaultConfig::disabled().with_transient(1_000_000).with_seed(5);
        let plan = FaultPlan::compile(cfg, &line_endpoints(4), 4).expect("transient plan compiles");
        // Always-fault config: a short flit (1 active word of 4) under
        // shutdown only ever sees Masked (upper-word hits regenerate) —
        // the fault word is always >= 1 when num_words > 1.
        for cycle in 0..64 {
            let v = plan.verdict(1, cycle, cycle, 4, 1, true);
            assert_eq!(v, Verdict::Masked, "cycle {cycle}: {v:?}");
        }
        // The same hits corrupt a dense flit.
        let any_detected = (0..64)
            .any(|cycle| matches!(plan.verdict(1, cycle, cycle, 4, 4, true), Verdict::Detected));
        assert!(any_detected);
    }

    #[test]
    fn stuck_gate_corrupts_wide_flits_only() {
        let mut cfg = FaultConfig::disabled().with_stuck_gates(1).with_seed(2);
        cfg.transient_ppm = 0;
        let plan =
            FaultPlan::compile(cfg, &line_endpoints(2), 4).expect("stuck-gate plan compiles");
        let link = (0..2).find(|&l| plan.stuck_gate(l).is_some()).expect("one stuck link");
        let (onset, healthy) = plan.stuck_gate(link).expect("the link just found is stuck");
        assert_eq!(plan.verdict(link, 0, onset, 4, healthy, true), Verdict::Clean);
        assert_eq!(plan.verdict(link, 0, onset, 4, healthy + 1, true), Verdict::Detected);
    }

    #[test]
    fn escaped_mask_is_two_bits_in_one_word() {
        let cfg = FaultConfig::disabled().with_transient(1_000_000).with_seed(1);
        let plan = FaultPlan::compile(cfg, &line_endpoints(4), 4).expect("transient plan compiles");
        // Every delivery faults; about 1 in 16 of them is a double flip.
        let escaped: Vec<(usize, u32)> = (0..256)
            .filter_map(|cycle| match plan.verdict(2, cycle, cycle, 4, 4, false) {
                Verdict::Escaped { word, mask } => Some((word, mask)),
                _ => None,
            })
            .collect();
        assert!(!escaped.is_empty(), "the default draws include a double flip");
        for (word, mask) in escaped {
            assert!((1..4).contains(&word), "upper-word hit");
            assert_eq!(mask.count_ones(), 2, "double flip defeats parity");
        }
    }
}
