//! Scoped phase timers: wall-time attribution for the simulator's hot
//! loop.
//!
//! [`scope`] returns a guard that, while observability is enabled,
//! charges the scope's elapsed wall time to its [`Phase`] on drop. When
//! observability is off the guard is inert and the only cost is the one
//! relaxed atomic load inside [`enabled`](crate::enabled) — cheap enough
//! to leave in `Network::step` permanently (the CI bench gate runs with
//! observability off and must not move).
//!
//! The phases come in three groups:
//!
//! * [`Phase::StepTotal`] wraps the whole of `Network::step`, and the
//!   [`Phase::STEP_SECTIONS`] tile its body exactly — link delivery
//!   (including ARQ and fault verdicts), router pipelines, occupancy
//!   accounting, NIC injection, and the metrics-window close. A
//!   [`StepTimer`] times them: one clock read per section boundary ends
//!   one section and starts the next, and the step total runs from the
//!   first read to the last. No instant of the step is left untimed, so
//!   the profiler's accounting claim, `coverage() >= 0.95`, holds by
//!   construction rather than by the host scheduler's grace.
//! * The `Stage*` phases nest *inside* [`Phase::RouterPipeline`],
//!   attributing pipeline time to BW/ST, SA, VA, and RC individually
//!   (BW — buffer write — happens inside link delivery and NIC
//!   injection; ST carries the label here because the write and
//!   traversal share the slab path).
//! * [`Phase::Workload`], [`Phase::Ejection`] and [`Phase::Anomaly`]
//!   time the simulator driver around the step: packet
//!   generation/injection, ejection processing, and the armed flight
//!   recorder's per-cycle detectors. They sit outside `StepTotal` and do
//!   not enter coverage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// A profiled region of the per-cycle path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// The whole of `Network::step`.
    StepTotal = 0,
    /// Link delivery: due flits and credits, ARQ service, fault verdicts.
    LinkDelivery,
    /// Router pipeline sweep (all stages, all active routers).
    RouterPipeline,
    /// Buffer-occupancy accounting.
    Occupancy,
    /// NIC injection from source queues into local input buffers.
    NicInject,
    /// Metrics-window bookkeeping at the end of the step.
    Telemetry,
    /// Switch traversal (and the buffer read feeding it).
    StageSt,
    /// Switch allocation.
    StageSa,
    /// Virtual-channel allocation.
    StageVa,
    /// Route computation.
    StageRc,
    /// Simulator driver: workload generation and packet injection.
    Workload,
    /// Simulator driver: drop and ejection processing.
    Ejection,
    /// Simulator driver: the flight recorder's anomaly detectors (armed
    /// runs only).
    Anomaly,
}

/// Number of phases (array sizing).
const COUNT: usize = 13;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; COUNT] = [
        Phase::StepTotal,
        Phase::LinkDelivery,
        Phase::RouterPipeline,
        Phase::Occupancy,
        Phase::NicInject,
        Phase::Telemetry,
        Phase::StageSt,
        Phase::StageSa,
        Phase::StageVa,
        Phase::StageRc,
        Phase::Workload,
        Phase::Ejection,
        Phase::Anomaly,
    ];

    /// The sections that tile `Network::step`'s body (the coverage
    /// denominator is [`Phase::StepTotal`], these are the numerator).
    pub const STEP_SECTIONS: [Phase; 5] = [
        Phase::LinkDelivery,
        Phase::RouterPipeline,
        Phase::Occupancy,
        Phase::NicInject,
        Phase::Telemetry,
    ];

    /// Stable snake-case name (snapshot key and Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::StepTotal => "step_total",
            Phase::LinkDelivery => "link_delivery",
            Phase::RouterPipeline => "router_pipeline",
            Phase::Occupancy => "occupancy",
            Phase::NicInject => "nic_inject",
            Phase::Telemetry => "telemetry",
            Phase::StageSt => "stage_st",
            Phase::StageSa => "stage_sa",
            Phase::StageVa => "stage_va",
            Phase::StageRc => "stage_rc",
            Phase::Workload => "workload",
            Phase::Ejection => "ejection",
            Phase::Anomaly => "anomaly",
        }
    }
}

// The const-repeat array initializer: each use expands to a fresh
// AtomicU64, which is exactly the intent (clippy's interior-mutability
// lint guards against *sharing* a const atomic, which never happens).
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static NANOS: [AtomicU64; COUNT] = [ZERO; COUNT];
static CALLS: [AtomicU64; COUNT] = [ZERO; COUNT];

/// Live guard for one phase scope; charges the phase on drop. Inert
/// (start time absent) when observability is off at entry.
#[derive(Debug)]
pub struct PhaseGuard {
    phase: Phase,
    start: Option<Instant>,
}

/// Opens a timing scope for `phase`. Call at the top of the region and
/// bind the guard (`let _p = scope(...)`) so it drops at region exit.
#[inline(always)]
pub fn scope(phase: Phase) -> PhaseGuard {
    let start = if crate::enabled() { Some(Instant::now()) } else { None };
    PhaseGuard { phase, start }
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            charge(self.phase, t0, Instant::now());
        }
    }
}

/// Times `Network::step` as back-to-back sections under
/// [`Phase::StepTotal`]. Inert (no clock reads at all) when observability
/// is off at [`step_timer`].
#[derive(Debug)]
pub struct StepTimer {
    /// The step's first clock read, and the start of the open section.
    start: Option<(Instant, Instant)>,
    section: Phase,
}

/// Starts timing a step, with `first` as its open section.
#[inline(always)]
pub fn step_timer(first: Phase) -> StepTimer {
    let start = if crate::enabled() {
        let now = Instant::now();
        Some((now, now))
    } else {
        None
    };
    StepTimer { start, section: first }
}

/// Charges `phase` with the wall time between two clock reads.
#[inline]
fn charge(phase: Phase, from: Instant, to: Instant) {
    let ns = u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX);
    NANOS[phase as usize].fetch_add(ns, Ordering::Relaxed);
    CALLS[phase as usize].fetch_add(1, Ordering::Relaxed);
}

impl StepTimer {
    /// Ends the open section and starts `next`, with one clock read.
    #[inline]
    pub fn next(&mut self, next: Phase) {
        if let Some((_, from)) = &mut self.start {
            let now = Instant::now();
            charge(self.section, *from, now);
            *from = now;
        }
        self.section = next;
    }
}

impl Drop for StepTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some((step, from)) = self.start {
            let now = Instant::now();
            charge(self.section, from, now);
            charge(Phase::StepTotal, step, now);
        }
    }
}

/// One phase's accumulated profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSample {
    /// [`Phase::name`] of the phase.
    pub phase: String,
    /// Scopes closed.
    pub calls: u64,
    /// Wall nanoseconds accumulated.
    pub nanos: u64,
}

/// Snapshots every phase (including ones that never fired, so consumers
/// see a stable row set).
pub fn snapshot() -> Vec<PhaseSample> {
    Phase::ALL
        .iter()
        .map(|&p| PhaseSample {
            phase: p.name().to_string(),
            calls: CALLS[p as usize].load(Ordering::Relaxed),
            nanos: NANOS[p as usize].load(Ordering::Relaxed),
        })
        .collect()
}

/// Zeroes every phase accumulator (test isolation; production snapshots
/// are cumulative per process).
pub fn reset() {
    for i in 0..COUNT {
        NANOS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
}

/// Fraction of [`Phase::StepTotal`] wall time covered by the tiled
/// [`Phase::STEP_SECTIONS`], or `None` when no step has been profiled.
pub fn coverage() -> Option<f64> {
    let total = NANOS[Phase::StepTotal as usize].load(Ordering::Relaxed);
    if total == 0 {
        return None;
    }
    let sections: u64 =
        Phase::STEP_SECTIONS.iter().map(|&p| NANOS[p as usize].load(Ordering::Relaxed)).sum();
    Some(sections as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All phase behaviour in one test: the accumulators are global, so
    /// concurrent tests would race a `reset`.
    #[test]
    fn scopes_accumulate_only_when_enabled() {
        reset();
        crate::set_enabled(false);
        {
            let _p = scope(Phase::StepTotal);
        }
        assert!(snapshot().iter().all(|s| s.calls == 0), "disabled scopes must not record");

        {
            let mut t = step_timer(Phase::LinkDelivery);
            t.next(Phase::RouterPipeline);
        }
        assert!(snapshot().iter().all(|s| s.calls == 0), "disabled timers must not record");

        crate::set_enabled(true);
        {
            let _t = scope(Phase::StepTotal);
            for &s in &Phase::STEP_SECTIONS {
                let _p = scope(s);
                std::hint::black_box(0u64);
            }
        }
        let snap = snapshot();
        let total = snap.iter().find(|s| s.phase == "step_total").expect("present");
        assert_eq!(total.calls, 1);
        assert!(total.nanos > 0);
        let cov = coverage().expect("step profiled");
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov} out of range");

        // A step timer's sections tile its total exactly: every boundary
        // is one clock read shared by the section it ends and the next.
        reset();
        for _ in 0..3 {
            let mut t = step_timer(Phase::STEP_SECTIONS[0]);
            for &s in &Phase::STEP_SECTIONS[1..] {
                std::hint::black_box(0u64);
                t.next(s);
            }
        }
        crate::set_enabled(false);
        let snap = snapshot();
        for s in &snap[..=Phase::STEP_SECTIONS.len()] {
            assert_eq!(s.calls, 3, "{} closed once per step", s.phase);
        }
        let sections: u64 = snap[1..=Phase::STEP_SECTIONS.len()].iter().map(|s| s.nanos).sum();
        assert_eq!(sections, snap[0].nanos, "sections sum to the step total");
        if sections > 0 {
            assert_eq!(coverage(), Some(1.0));
        }
        reset();
        assert_eq!(coverage(), None);
    }
}
