//! Deterministic dimension-ordered routing functions.
//!
//! All MIRA experiments use X-Y (2D) or X-Y-Z (3D) deterministic routing
//! (paper §4). Dimension-ordered routing on a mesh is deadlock-free
//! because the port-to-port dependence relation is acyclic: a packet only
//! ever turns from a lower-ordered dimension to a higher-ordered one, and
//! within a dimension it moves monotonically. The express variant keeps
//! the same dimension order and monotone progress, so the argument is
//! unchanged (express and regular channels of the same direction form a
//! DAG ordered by position).
//!
//! These functions are pure; the topologies in [`crate::topology`]
//! delegate to them.
//!
//! ## Fault-aware degradation
//!
//! Under fault injection ([`crate::fault`]) the router threads a
//! per-port liveness mask through route computation:
//! [`apply_fault_mask`] first strips dead output ports from the
//! candidate set; when that empties the set (the deterministic route
//! crossed the dead link, or an express channel died with no cardinal
//! candidate offered), the router falls back to a minimal detour over
//! the remaining live ports. Express links that die therefore degrade
//! to the baseline mesh path automatically: the cardinal port whose
//! neighbour minimises the remaining distance wins the detour.
//!
//! With a single failed link, the detour preserves deadlock freedom:
//! the only routers that can introduce a turn outside the X-before-Y
//! order are the (at most two) endpoints of the dead link, and a cycle
//! in the channel-dependence graph would require at least two distinct
//! illegal-turn sites in the same direction.

/// One routing step along a single dimension: the signed distance to
/// travel, reduced to a direction choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimStep {
    /// Already aligned in this dimension.
    Done,
    /// Move in the positive direction.
    Positive,
    /// Move in the negative direction.
    Negative,
}

/// Chooses the step for one dimension given current and destination
/// coordinates.
#[inline]
pub fn dim_step(cur: usize, dst: usize) -> DimStep {
    use std::cmp::Ordering;
    match dst.cmp(&cur) {
        Ordering::Equal => DimStep::Done,
        Ordering::Greater => DimStep::Positive,
        Ordering::Less => DimStep::Negative,
    }
}

/// Whether an express channel of the given span should be taken for a
/// remaining absolute distance `dist` in a dimension.
///
/// The greedy rule from Dally's express cubes: ride the express channel
/// while the remaining distance is at least the span, then finish on
/// regular channels. This minimises hop count for a fixed span.
#[inline]
pub fn use_express(dist: usize, span: usize) -> bool {
    span > 1 && dist >= span
}

/// Minimum hop count along one dimension of length `dist` when an express
/// channel of `span` is available (span = 1 means no express channels).
#[inline]
pub fn dim_hops_with_express(dist: usize, span: usize) -> usize {
    if span <= 1 {
        dist
    } else {
        dist / span + dist % span
    }
}

/// Removes route candidates whose output port is dead (bit `p` of the
/// `dead_out` port mask).
///
/// Returns `true` when the mask removed at least one candidate — the
/// router counts these as reroutes and, when the set empties, engages
/// its detour fallback. Candidate order (the model's preference order)
/// is preserved.
pub fn apply_fault_mask(candidates: &mut Vec<crate::ids::PortId>, dead_out: u64) -> bool {
    let before = candidates.len();
    candidates.retain(|p| dead_out & (1 << p.index()) == 0);
    candidates.len() != before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_step_directions() {
        assert_eq!(dim_step(2, 2), DimStep::Done);
        assert_eq!(dim_step(1, 4), DimStep::Positive);
        assert_eq!(dim_step(4, 1), DimStep::Negative);
    }

    #[test]
    fn express_threshold() {
        assert!(!use_express(1, 2));
        assert!(use_express(2, 2));
        assert!(use_express(5, 2));
        assert!(!use_express(10, 1), "span 1 means no express channels");
    }

    #[test]
    fn express_hop_counts() {
        // span 2 on distances 0..=5: 0,1,1,2,2,3
        let hops: Vec<_> = (0..=5).map(|d| dim_hops_with_express(d, 2)).collect();
        assert_eq!(hops, vec![0, 1, 1, 2, 2, 3]);
        // no express: identity
        assert_eq!(dim_hops_with_express(4, 1), 4);
    }

    #[test]
    fn fault_mask_strips_dead_ports_in_order() {
        use crate::ids::PortId;
        let dead = 0b10010; // ports 1 and 4
        let mut c = vec![PortId(1), PortId(3), PortId(4)];
        assert!(apply_fault_mask(&mut c, dead));
        assert_eq!(c, vec![PortId(3)], "dead ports removed, order preserved");
        let mut c = vec![PortId(2), PortId(3)];
        assert!(!apply_fault_mask(&mut c, dead), "no live candidate removed");
        assert_eq!(c.len(), 2);
        let mut c = vec![PortId(1)];
        assert!(apply_fault_mask(&mut c, dead));
        assert!(c.is_empty(), "a fully dead set empties — the detour case");
    }

    #[test]
    fn greedy_express_matches_min_hops() {
        // Simulate the greedy walk and compare against the closed form.
        for span in 2..=3usize {
            for dist in 0..=12usize {
                let mut remaining = dist;
                let mut hops = 0;
                while remaining > 0 {
                    if use_express(remaining, span) {
                        remaining -= span;
                    } else {
                        remaining -= 1;
                    }
                    hops += 1;
                }
                assert_eq!(hops, dim_hops_with_express(dist, span), "span={span} dist={dist}");
            }
        }
    }
}
