#![warn(missing_docs)]
//! # mira-obs — host-side observability
//!
//! Where `mira-noc`'s telemetry observes the *simulated* network, this
//! crate observes the *simulator itself*: where host wall time goes
//! (phase profiler), which build produced a number (provenance), and
//! what every run produced (results store). See DESIGN.md §15.
//!
//! Collection hangs off one global switch:
//!
//! * [`enabled`] — a single relaxed atomic load. Observability is **off
//!   by default**; simulated results are identical either way (the
//!   instrumentation is host-side only), which `tests/golden_core.rs`
//!   pins bit-for-bit. The bench binaries turn it on with `--obs-out`.
//!
//! The pieces:
//!
//! * [`phase`] — wall-time attribution for the hot loop (a
//!   [`phase::StepTimer`] tiling `Network::step`'s sections, and
//!   [`phase::scope`] guards around the router pipeline stages).
//! * [`provenance`] — git revision / rustc / build profile stamped into
//!   the binary at compile time.
//! * [`store`] — the results store: one
//!   `results/checkpoints/<exhibit>-<hash>.jsonl` file per batch, with a
//!   line per completed point (the replay substrate of the runner's
//!   `--resume`, DESIGN.md §16) and a line per finished run (its
//!   options and summary). It is written whenever a store directory is
//!   set, independent of [`enabled`].

pub mod phase;
pub mod provenance;
pub mod store;

use serde::{Deserialize, Serialize};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability is currently collecting. One relaxed atomic
/// load — this is the only cost the instrumented hot paths pay when
/// observability is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A complete point-in-time capture of the observability state: build
/// provenance and the phase profile. This is
/// what `--obs-out` writes and what `trace_tool obs` pretty-prints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Build provenance of the producing binary.
    pub build: provenance::Provenance,
    /// Per-phase wall time and call counts (all phases, fired or not).
    pub phases: Vec<phase::PhaseSample>,
    /// Fraction of `Network::step` wall time attributed to a tiled
    /// section, or `None` when no step was profiled. The profiler's
    /// accounting claim is `coverage >= 0.95`.
    pub coverage: Option<f64>,
}

/// Captures the current observability state.
pub fn snapshot() -> ObsSnapshot {
    ObsSnapshot {
        build: provenance::Provenance::current(),
        phases: phase::snapshot(),
        coverage: phase::coverage(),
    }
}

impl ObsSnapshot {
    /// Pretty-printed JSON, trailing newline included.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("snapshot serializes");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = snapshot();
        let json = snap.to_json();
        assert!(json.ends_with('\n'));
        let back: ObsSnapshot = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back.build.git_rev, snap.build.git_rev);
        assert_eq!(back.phases.len(), snap.phases.len());
    }

    #[test]
    fn enable_switch_round_trips() {
        // Leave the flag as we found it: other tests in this binary may
        // rely on the default-off state.
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }
}
