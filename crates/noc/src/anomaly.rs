//! Anomaly detection configuration and verdicts (DESIGN.md §17).
//!
//! The flight recorder ([`crate::recorder`]) evaluates a small set of
//! deterministic detectors while a simulation runs. This module holds
//! the shared vocabulary: [`AnomalyConfig`] (what is armed, with which
//! thresholds — all off by default, the zero-overhead path),
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
    /// configured number of cycles while the network is not drained —
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
    /// configured multiplier.
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

/// Detector thresholds. `disabled()` (the [`Default`]) arms nothing and
/// is the zero-overhead path: the simulator allocates no recorder and
/// runs bit-identically to a build without the anomaly subsystem.
///
/// A threshold of zero disarms its detector individually, so partial
/// configurations are possible (e.g. only the no-progress watchdog).
/// `Copy + Eq` keeps `SimConfig` hashable and comparable; the
/// latency-spike multiplier is therefore stored in percent
/// (`300` = p99 must stay under 3× the trailing baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnomalyConfig {
    /// Cycles without any progress (flit ejection or state-mask
    /// transition) before the no-progress watchdog fires. 0 = off.
    pub no_progress_cycles: u64,
    /// Head-flit age (cycles parked at the front of a VC buffer) above
    /// which the starvation detector fires. 0 = off.
    pub starvation_age: u64,
    /// Fault events allowed per evaluation window before the
    /// fault-storm detector fires. 0 = off.
    pub fault_storm_budget: u64,
    /// Latency-spike threshold in percent of the trailing baseline p99
    /// (`300` fires when a window's p99 exceeds 3× baseline). 0 = off.
    pub latency_spike_pct: u32,
    /// Minimum measured ejections a window needs before its p99 is
    /// compared (guards against tiny-sample spikes).
    pub latency_spike_min_samples: u64,
    /// Evaluation cadence in cycles for the windowed detectors
    /// (starvation, credit, fault-storm, latency-spike).
    pub window: u64,
    /// Whether a no-progress trigger halts the run by unwinding with an
    /// [`AnomalyAbort`] (the runner converts it into a typed anomaly
    /// failure). Off, the trigger only counts and snapshots.
    pub halt_on_no_progress: bool,
}

impl AnomalyConfig {
    /// Nothing armed — the default, zero-overhead path.
    pub const fn disabled() -> Self {
        AnomalyConfig {
            no_progress_cycles: 0,
            starvation_age: 0,
            fault_storm_budget: 0,
            latency_spike_pct: 0,
            latency_spike_min_samples: 0,
            window: 1_000,
            halt_on_no_progress: false,
        }
    }

    /// Every detector armed with its default threshold, halting on
    /// no-progress — what `--anomaly` gives the bench binaries.
    pub fn detect() -> Self {
        AnomalyConfig {
            no_progress_cycles: 1_000,
            starvation_age: 2_000,
            fault_storm_budget: 1_000,
            latency_spike_pct: 400,
            latency_spike_min_samples: 200,
            window: 1_000,
            halt_on_no_progress: true,
        }
    }

    /// Whether any detector is armed.
    pub fn is_enabled(&self) -> bool {
        self.no_progress_cycles > 0
            || self.starvation_age > 0
            || self.fault_storm_budget > 0
            || self.latency_spike_pct > 0
    }

    /// The same thresholds with a different no-progress watchdog.
    #[must_use]
    pub fn with_no_progress(mut self, cycles: u64) -> Self {
        self.no_progress_cycles = cycles;
        self
    }

    /// The same thresholds with a different starvation age.
    #[must_use]
    pub fn with_starvation(mut self, age: u64) -> Self {
        self.starvation_age = age;
        self
    }

    /// The same thresholds with a different fault-storm budget.
    #[must_use]
    pub fn with_fault_storm(mut self, budget: u64) -> Self {
        self.fault_storm_budget = budget;
        self
    }

    /// The same thresholds with a different latency-spike multiplier
    /// (percent of trailing baseline) and minimum sample count.
    #[must_use]
    pub fn with_latency_spike(mut self, pct: u32, min_samples: u64) -> Self {
        self.latency_spike_pct = pct;
        self.latency_spike_min_samples = min_samples;
        self
    }

    /// The same thresholds with a different evaluation window.
    #[must_use]
    pub fn with_window(mut self, cycles: u64) -> Self {
        self.window = cycles.max(1);
        self
    }

    /// The same thresholds with halting configured.
    #[must_use]
    pub fn with_halt(mut self, halt: bool) -> Self {
        self.halt_on_no_progress = halt;
        self
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
    /// The threshold it compared against (configured limit, or the
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
    }

    #[test]
    fn detect_arms_everything() {
        let cfg = AnomalyConfig::detect();
        assert!(cfg.is_enabled());
        assert!(cfg.no_progress_cycles > 0 && cfg.starvation_age > 0);
        assert!(cfg.halt_on_no_progress);
    }

    #[test]
    fn single_detector_configs_are_enabled() {
        assert!(AnomalyConfig::disabled().with_no_progress(500).is_enabled());
        assert!(AnomalyConfig::disabled().with_starvation(100).is_enabled());
        assert!(AnomalyConfig::disabled().with_fault_storm(10).is_enabled());
        assert!(AnomalyConfig::disabled().with_latency_spike(300, 50).is_enabled());
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
