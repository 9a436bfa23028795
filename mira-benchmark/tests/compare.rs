//! The verdict rules `mira-benchmark compare` applies.

use mira_benchmark::compare::{compare, Verdict};
use mira_benchmark::spec::Direction;

/// Ten baseline runs around 100 with quartiles 99..101.
const BASE: [f64; 10] = [99.0, 101.0, 100.0, 99.5, 100.5, 98.8, 101.2, 100.2, 99.8, 100.0];

#[test]
fn a_gain_needs_nine_wins_in_ten() {
    // Nine pairs won by a wide margin, one lost: a gain.
    let mut new: Vec<f64> = BASE.iter().map(|b| b * 1.08).collect();
    new[3] = 90.0;
    let c = compare(&BASE, &new, Direction::Higher, 0.10);
    assert_eq!((c.wins, c.pairs), (9, 10));
    assert_eq!(c.verdict, Verdict::Better);

    // Eight wins are not enough, whatever the medians say.
    new[4] = 90.0;
    let c = compare(&BASE, &new, Direction::Higher, 0.10);
    assert_eq!(c.wins, 8);
    assert_eq!(c.verdict, Verdict::Unchanged);
}

#[test]
fn a_gain_must_exceed_the_baseline_quartile_distance() {
    // Every pair won, but by less than the baseline's own spread.
    let new: Vec<f64> = BASE.iter().map(|b| b - 0.3).collect();
    let c = compare(&BASE, &new, Direction::Lower, 0.05);
    assert_eq!(c.wins, 10);
    assert!((c.base.median - c.new.median).abs() < c.base.iqr());
    assert_eq!(c.verdict, Verdict::Unchanged);
}

#[test]
fn a_regression_beyond_the_bound_is_worse() {
    let new: Vec<f64> = BASE.iter().map(|b| b * 1.1).collect();
    assert_eq!(compare(&BASE, &new, Direction::Lower, 0.05).verdict, Verdict::Worse);
    assert_eq!(compare(&BASE, &new, Direction::Lower, 0.15).verdict, Verdict::Unchanged);
}

#[test]
fn spread_wider_than_the_bound_is_unresolved() {
    let noisy = [60.0, 140.0, 100.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0];
    let c = compare(&BASE, &noisy, Direction::Lower, 0.05);
    assert!(c.spread > 0.05);
    assert_eq!(c.verdict, Verdict::Unresolved);
    // ... unless every new run beats every baseline run.
    let better: Vec<f64> = noisy.iter().map(|v| v / 3.0).collect();
    assert_ne!(compare(&BASE, &better, Direction::Lower, 0.05).verdict, Verdict::Unresolved);
}
