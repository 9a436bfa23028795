#![warn(missing_docs)]
//! # mira-obs — host-side observability
//!
//! Where `mira-noc`'s telemetry observes the *simulated* network, this
//! crate observes the *simulator itself*: where host wall time goes
//! (phase profiler), how large the core data structures grow (watermark
//! gauges), how the worker pool behaves (runner metrics), and what every
//! run produced (results store). See DESIGN.md §15.
//!
//! Everything hangs off one global switch:
//!
//! * [`enabled`] — a single relaxed atomic load. Observability is **off
//!   by default**; simulated results are identical either way (the
//!   instrumentation is host-side only), which `tests/golden_core.rs`
//!   pins bit-for-bit.
//! * Built without the default `runtime` feature, [`enabled`] is a
//!   `const false` and the optimiser deletes every scope and metric
//!   update outright — the compile-out form of the zero-overhead path.
//!
//! The pieces:
//!
//! * [`registry`] — static-registration atomic counters, max-gauges and
//!   log₂ histograms, rendered as a JSON snapshot or Prometheus text.
//! * [`phase`] — wall-time attribution for the hot loop (a
//!   [`phase::StepTimer`] tiling `Network::step`'s sections, and
//!   [`phase::scope`] guards around the router pipeline stages).
//! * [`provenance`] — git revision / rustc / build profile stamped into
//!   the binary at compile time.
//! * [`store`] — the results store: one
//!   `results/checkpoints/<exhibit>-<hash>.jsonl` file per batch, with a
//!   line per completed point (the replay substrate of the runner's
//!   `--resume`, DESIGN.md §16) and a line per finished run (its
//!   summary). It is written whenever a store directory is set,
//!   independent of [`enabled`].

pub mod phase;
pub mod provenance;
pub mod registry;
pub mod store;

use serde::{Deserialize, Serialize};

#[cfg(feature = "runtime")]
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "runtime")]
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability is currently collecting. One relaxed atomic
/// load — this is the only cost the instrumented hot paths pay when
/// observability is off.
#[cfg(feature = "runtime")]
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Compile-out form: observability can never be on, and every guard is
/// dead code.
#[cfg(not(feature = "runtime"))]
#[inline(always)]
pub const fn enabled() -> bool {
    false
}

/// Turns collection on or off at runtime (a no-op without the `runtime`
/// feature).
pub fn set_enabled(on: bool) {
    #[cfg(feature = "runtime")]
    ENABLED.store(on, Ordering::Relaxed);
    #[cfg(not(feature = "runtime"))]
    let _ = on;
}

/// Enables collection when the `MIRA_OBS` environment variable is set
/// to `1` or `true` (the env-var form of `--obs-out`, for binaries and
/// tests that have no flag plumbing).
pub fn init_from_env() {
    if matches!(std::env::var("MIRA_OBS").as_deref(), Ok("1") | Ok("true")) {
        set_enabled(true);
    }
}

/// A complete point-in-time capture of the observability state: build
/// provenance, the phase profile, and every registered metric. This is
/// what `--obs-out` writes (JSON plus Prometheus text) and what
/// `trace_tool obs` pretty-prints.
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
    /// Every metric touched so far, in registration order.
    pub metrics: Vec<registry::MetricSample>,
}

/// Captures the current observability state.
pub fn snapshot() -> ObsSnapshot {
    ObsSnapshot {
        build: provenance::Provenance::current(),
        phases: phase::snapshot(),
        coverage: phase::coverage(),
        metrics: registry::samples(),
    }
}

impl ObsSnapshot {
    /// Pretty-printed JSON, trailing newline included.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("snapshot serializes");
        s.push('\n');
        s
    }

    /// Prometheus text exposition format: the metrics plus the phase
    /// profile as `mira_phase_nanos_total` / `mira_phase_calls_total`
    /// families labelled by phase.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# mira build {} ({}, {})\n",
            self.build.git_rev, self.build.profile, self.build.rustc
        ));
        out.push_str("# TYPE mira_phase_nanos_total counter\n");
        for p in &self.phases {
            out.push_str(&format!("mira_phase_nanos_total{{phase=\"{}\"}} {}\n", p.phase, p.nanos));
        }
        out.push_str("# TYPE mira_phase_calls_total counter\n");
        for p in &self.phases {
            out.push_str(&format!("mira_phase_calls_total{{phase=\"{}\"}} {}\n", p.phase, p.calls));
        }
        if let Some(cov) = self.coverage {
            out.push_str("# TYPE mira_phase_coverage_ratio gauge\n");
            out.push_str(&format!("mira_phase_coverage_ratio {cov}\n"));
        }
        for m in &self.metrics {
            out.push_str(&m.to_prometheus());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_both_formats() {
        let snap = snapshot();
        let json = snap.to_json();
        assert!(json.ends_with('\n'));
        let back: ObsSnapshot = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back.build.git_rev, snap.build.git_rev);
        assert_eq!(back.phases.len(), snap.phases.len());
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE mira_phase_nanos_total counter"));
        assert!(prom.contains("phase=\"step_total\""));
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
