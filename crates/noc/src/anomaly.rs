//! Anomaly detection configuration and verdicts (DESIGN.md §17).
//!
//! The flight recorder ([`crate::recorder`]) evaluates a small set of
//! deterministic detectors while a simulation runs. This module holds
//! the shared vocabulary: [`AnomalyConfig`] (armed or not — off by
//! default, the zero-overhead path),
//! [`AnomalyKind`] (which detector fired), [`AnomalyCounts`] (per-kind
//! firing counts carried on `SimReport`), and [`AnomalyAbort`] (the
//! panic payload a halting trigger unwinds with, carrying the rendered
//! `blackbox.json` so the host can persist it).
//!
//! Every detector is a pure function of simulator state, so a given
//! (config, seed) pair either always fires or never does — anomaly
//! failures are reproducible, and the experiment runner treats them as
//! deterministic (no retry).

use crate::fault::FaultCounters;

/// Which detector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// No flit ejected and no router state-mask transition for the
    /// watchdog's number of cycles while the network is not drained —
    /// a deadlock or a wedged router.
    NoProgress,
    /// A router's downstream credit count exceeds the buffer depth it
    /// tracks — credits were double-returned or conjured.
    CreditViolation,
    /// Some head flit has been parked in a VC buffer longer than the
    /// starvation threshold.
    Starvation,
    /// More fault events landed in one metrics window than the budget
    /// allows.
    FaultStorm,
    /// The windowed latency p99 exceeded the trailing baseline by the
    /// spike multiplier.
    LatencySpike,
}

impl AnomalyKind {
    /// Every detector, in the order counts are reported.
    pub const ALL: [AnomalyKind; 5] = [
        AnomalyKind::NoProgress,
        AnomalyKind::CreditViolation,
        AnomalyKind::Starvation,
        AnomalyKind::FaultStorm,
        AnomalyKind::LatencySpike,
    ];

    /// Stable machine-readable tag (used in dumps, ledger entries and
    /// failure kinds).
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::NoProgress => "no_progress",
            AnomalyKind::CreditViolation => "credit_violation",
            AnomalyKind::Starvation => "starvation",
            AnomalyKind::FaultStorm => "fault_storm",
            AnomalyKind::LatencySpike => "latency_spike",
        }
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the flight recorder is armed. `disabled()` (the [`Default`])
/// is the zero-overhead path: the simulator allocates no recorder and
/// runs bit-identically to a build without the anomaly subsystem.
/// `detect()` arms every detector at its threshold (the constants in
/// [`crate::recorder`]), and a no-progress trigger halts the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnomalyConfig {
    armed: bool,
}

impl AnomalyConfig {
    /// Nothing armed — the default, zero-overhead path.
    pub const fn disabled() -> Self {
        AnomalyConfig { armed: false }
    }

    /// Every detector armed, halting on no-progress — what `--anomaly`
    /// gives the bench binaries.
    pub const fn detect() -> Self {
        AnomalyConfig { armed: true }
    }

    /// Whether the recorder is armed.
    pub const fn is_enabled(&self) -> bool {
        self.armed
    }
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig::disabled()
    }
}

/// Per-kind firing counts over one run. All-zero (and omitted from
/// report JSON) on a clean run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AnomalyCounts {
    /// No-progress watchdog firings.
    pub no_progress: u64,
    /// Credit-conservation violations.
    pub credit_violation: u64,
    /// Starvation detections.
    pub starvation: u64,
    /// Fault-storm windows.
    pub fault_storm: u64,
    /// Latency-spike windows.
    pub latency_spike: u64,
}

impl AnomalyCounts {
    /// Records one firing.
    pub fn record(&mut self, kind: AnomalyKind) {
        match kind {
            AnomalyKind::NoProgress => self.no_progress += 1,
            AnomalyKind::CreditViolation => self.credit_violation += 1,
            AnomalyKind::Starvation => self.starvation += 1,
            AnomalyKind::FaultStorm => self.fault_storm += 1,
            AnomalyKind::LatencySpike => self.latency_spike += 1,
        }
    }

    /// The count for one kind.
    pub fn get(&self, kind: AnomalyKind) -> u64 {
        match kind {
            AnomalyKind::NoProgress => self.no_progress,
            AnomalyKind::CreditViolation => self.credit_violation,
            AnomalyKind::Starvation => self.starvation,
            AnomalyKind::FaultStorm => self.fault_storm,
            AnomalyKind::LatencySpike => self.latency_spike,
        }
    }

    /// Total firings across all detectors.
    pub fn total(&self) -> u64 {
        AnomalyKind::ALL.iter().map(|&k| self.get(k)).sum()
    }

    /// Names of the kinds that fired at least once, in [`AnomalyKind::ALL`]
    /// order.
    pub fn kinds(&self) -> Vec<&'static str> {
        AnomalyKind::ALL.iter().filter(|&&k| self.get(k) > 0).map(|&k| k.name()).collect()
    }
}

/// Window statistics accompanying a firing (what the detector compared;
/// meaning depends on the kind — see the field docs).
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct WindowStats {
    /// The value the detector measured (stalled cycles, head-flit age,
    /// fault events in the window, or the window's p99 in cycles).
    pub observed: u64,
    /// The threshold it compared against (constant limit, or the
    /// scaled trailing baseline for latency spikes).
    pub threshold: u64,
    /// Measured ejections contributing to the window (latency-spike
    /// only; 0 otherwise).
    pub samples: u64,
}

/// One detector firing: what fired, when, and against which numbers.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FiredDetector {
    /// [`AnomalyKind::name`] of the detector.
    pub kind: String,
    /// Cycle the detector fired on.
    pub cycle: u64,
    /// Human-readable one-line verdict.
    pub detail: String,
    /// The numbers behind the verdict.
    pub stats: WindowStats,
}

/// The panic payload a halting no-progress trigger unwinds with.
///
/// The dump is rendered to its JSON text *before* the unwind so the
/// host side (which has no access to the dead simulator) can write
/// `blackbox.json` verbatim. The experiment runner downcasts this
/// payload ahead of its generic panic handling and converts it into a
/// typed anomaly failure instead of an opaque panic or timeout.
#[derive(Debug, Clone)]
pub struct AnomalyAbort {
    /// Which detector halted the run.
    pub kind: AnomalyKind,
    /// Cycle the run halted on.
    pub cycle: u64,
    /// The rendered `blackbox.json` snapshot.
    pub dump: String,
}

impl std::fmt::Display for AnomalyAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "anomaly detector `{}` halted the run at cycle {}", self.kind, self.cycle)
    }
}

/// Computes the fault-event total the fault-storm detector budgets:
/// everything the fault machinery counted as an injected fault or a
/// recovery action (not the packets it eventually delivered anyway).
pub(crate) fn fault_event_total(c: &FaultCounters) -> u64 {
    c.transient_faults + c.stuck_faults + c.links_killed + c.retransmissions + c.flits_dropped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_arms_nothing() {
        let cfg = AnomalyConfig::disabled();
        assert!(!cfg.is_enabled());
        assert_eq!(cfg, AnomalyConfig::default());
        assert!(AnomalyConfig::detect().is_enabled());
    }

    #[test]
    fn counts_track_kinds() {
        let mut c = AnomalyCounts::default();
        assert_eq!(c.total(), 0);
        assert!(c.kinds().is_empty());
        c.record(AnomalyKind::NoProgress);
        c.record(AnomalyKind::NoProgress);
        c.record(AnomalyKind::LatencySpike);
        assert_eq!(c.total(), 3);
        assert_eq!(c.get(AnomalyKind::NoProgress), 2);
        assert_eq!(c.kinds(), vec!["no_progress", "latency_spike"]);
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<&str> = AnomalyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["no_progress", "credit_violation", "starvation", "fault_storm", "latency_spike"]
        );
    }
}
