//! Comparing two sets of runs of one metric: the verdict rules a
//! change is judged by.
//!
//! - **better** — the new side wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ by more than the
//!   baseline's own quartile distance;
//! - **worse** — the new median is worse than the baseline median by
//!   more than the metric's bound;
//! - **unresolved** — either side's quartile distance exceeds the bound
//!   (as a share of its median), so the data cannot tell a regression
//!   from noise; every new run beating every baseline run still counts
//!   as no regression, and every new run losing to every baseline run
//!   beyond the bound still counts as one;
//! - **unchanged** — none of the above.

use crate::spec::Direction;
use crate::stats::Summary;

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the win-rate and quartile rules.
    Better,
    /// A regression beyond the bound.
    Worse,
    /// Within the bound, with spread narrower than the bound.
    Unchanged,
    /// The runs vary by more than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Baseline against candidate for one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The baseline runs.
    pub base: Summary,
    /// The candidate runs.
    pub new: Summary,
    /// Pairs (i-th baseline run against i-th candidate run) the
    /// candidate won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// Relative change of the median, positive when the candidate is
    /// better.
    pub gain: f64,
    /// The larger of the two sides' quartile distance over median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares candidate runs `new` against baseline runs `base` of one
/// metric with improvement direction `dir` and regression bound
/// `bound` (a share of the baseline median). Runs pair up by position.
///
/// # Panics
///
/// Panics when either side is empty.
pub fn compare(base: &[f64], new: &[f64], dir: Direction, bound: f64) -> Comparison {
    let (b, n) = (Summary::of(base), Summary::of(new));
    let beats = |x: f64, y: f64| match dir {
        Direction::Lower => x < y,
        Direction::Higher => x > y,
    };
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|(&a, &c)| beats(c, a)).count();
    let gain = match dir {
        Direction::Lower => (b.median - n.median) / b.median.abs(),
        Direction::Higher => (n.median - b.median) / b.median.abs(),
    };
    let spread = b.spread().max(n.spread());
    let all_better = new.iter().all(|&c| base.iter().all(|&a| beats(c, a)));
    let all_worse = new.iter().all(|&c| base.iter().all(|&a| beats(a, c)));

    let verdict = if gain > 0.0 && wins * 10 >= pairs * 9 && (n.median - b.median).abs() > b.iqr() {
        Verdict::Better
    } else if -gain > bound && (spread <= bound || all_worse) {
        Verdict::Worse
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Comparison { base: b, new: n, wins, pairs, gain, spread, verdict }
}
