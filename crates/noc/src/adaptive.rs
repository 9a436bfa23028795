//! Turn-model adaptive routing on the 2D mesh (extension).
//!
//! The paper evaluates deterministic X-Y routing only; the turn models
//! of Glass & Ni are the classic way to add adaptivity while staying
//! deadlock-free: each model forbids just enough turns to break every
//! cycle in the channel-dependence graph, and the router picks among
//! the remaining *productive* output ports by downstream credit count
//! (congestion-aware selection happens in the RC stage, which can see
//! the router's credit state).
//!
//! [`AdaptiveMesh2D`] wraps [`Mesh2D`] and overrides
//! [`Topology::route_candidates`]; everything else (links, lengths,
//! coordinates) is inherited.
//!
//! Under fault-aware routing the candidate set additionally passes
//! through [`apply_fault_mask`](crate::routing::apply_fault_mask) in the
//! router's RC stage: dead output ports are filtered out *before* the
//! credit-based selection, so an adaptive router sheds a failed link by
//! simply never picking it — the surviving productive candidates keep
//! the route minimal and turn-legal, no detour needed (unlike
//! deterministic X-Y, which has a single candidate and must detour).

use crate::ids::{NodeId, PortId};
use crate::routing::{dim_step, DimStep};
use crate::topology::{port, Coords, Mesh2D, Topology};

/// A deadlock-free turn restriction (Glass & Ni).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TurnModel {
    /// All westward moves happen first; afterwards E/N/S are adaptive.
    WestFirst,
    /// Northward moves happen last; E/W/S are adaptive before that.
    NorthLast,
    /// All negative-direction (W, S) moves happen first; afterwards E/N
    /// are adaptive.
    NegativeFirst,
}

impl TurnModel {
    /// All three models.
    pub const ALL: [TurnModel; 3] =
        [TurnModel::WestFirst, TurnModel::NorthLast, TurnModel::NegativeFirst];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TurnModel::WestFirst => "west-first",
            TurnModel::NorthLast => "north-last",
            TurnModel::NegativeFirst => "negative-first",
        }
    }

    /// Productive, turn-legal output ports towards `(dx, dy)` steps, in
    /// preference order. At least one port is always returned for a
    /// non-zero displacement. Returns a static slice so the RC hot path
    /// copies ports without allocating.
    fn candidates(self, x_step: DimStep, y_step: DimStep) -> &'static [PortId] {
        use DimStep::{Done, Negative, Positive};
        match self {
            TurnModel::WestFirst => match (x_step, y_step) {
                // Westward component: west only, first.
                (Negative, _) => &[port::WEST],
                (Positive, Positive) => &[port::EAST, port::NORTH],
                (Positive, Negative) => &[port::EAST, port::SOUTH],
                (Positive, Done) => &[port::EAST],
                (Done, Positive) => &[port::NORTH],
                (Done, Negative) => &[port::SOUTH],
                (Done, Done) => &[port::LOCAL],
            },
            TurnModel::NorthLast => match (x_step, y_step) {
                // North only when nothing else remains.
                (Done, Positive) => &[port::NORTH],
                (Positive, Negative) => &[port::EAST, port::SOUTH],
                (Negative, Negative) => &[port::WEST, port::SOUTH],
                (Positive, _) => &[port::EAST],
                (Negative, _) => &[port::WEST],
                (Done, Negative) => &[port::SOUTH],
                (Done, Done) => &[port::LOCAL],
            },
            TurnModel::NegativeFirst => match (x_step, y_step) {
                // Negative moves (W, S) first — adaptive among them.
                (Negative, Negative) => &[port::WEST, port::SOUTH],
                (Negative, _) => &[port::WEST],
                (_, Negative) => &[port::SOUTH],
                (Positive, Positive) => &[port::EAST, port::NORTH],
                (Positive, Done) => &[port::EAST],
                (Done, Positive) => &[port::NORTH],
                (Done, Done) => &[port::LOCAL],
            },
        }
    }
}

impl std::fmt::Display for TurnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A 2D mesh with turn-model adaptive routing.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveMesh2D {
    inner: Mesh2D,
    model: TurnModel,
}

impl AdaptiveMesh2D {
    /// Wraps a mesh with the given turn model.
    pub fn new(inner: Mesh2D, model: TurnModel) -> Self {
        AdaptiveMesh2D { inner, model }
    }

    /// The turn model in use.
    pub fn model(&self) -> TurnModel {
        self.model
    }

    fn steps(&self, current: NodeId, dst: NodeId) -> (DimStep, DimStep) {
        let c = self.inner.coords(current);
        let d = self.inner.coords(dst);
        (dim_step(c.x, d.x), dim_step(c.y, d.y))
    }
}

impl Topology for AdaptiveMesh2D {
    fn name(&self) -> String {
        format!("{}-{}", self.inner.name(), self.model.name())
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn radix(&self) -> usize {
        self.inner.radix()
    }

    fn neighbor(&self, node: NodeId, out_port: PortId) -> Option<NodeId> {
        self.inner.neighbor(node, out_port)
    }

    fn route(&self, current: NodeId, dst: NodeId) -> PortId {
        // Deterministic fallback: the most-preferred legal candidate.
        let (xs, ys) = self.steps(current, dst);
        self.model.candidates(xs, ys)[0]
    }

    fn route_candidates_into(&self, current: NodeId, dst: NodeId, out: &mut Vec<PortId>) {
        let (xs, ys) = self.steps(current, dst);
        out.extend_from_slice(self.model.candidates(xs, ys));
    }

    fn link_length_mm(&self, node: NodeId, out_port: PortId) -> f64 {
        self.inner.link_length_mm(node, out_port)
    }

    fn min_hops(&self, src: NodeId, dst: NodeId) -> usize {
        // All candidates are productive, so routing stays minimal.
        self.inner.min_hops(src, dst)
    }

    fn coords(&self, node: NodeId) -> Coords {
        self.inner.coords(node)
    }

    fn opposite_port(&self, out_port: PortId) -> PortId {
        self.inner.opposite_port(out_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(model: TurnModel) -> AdaptiveMesh2D {
        AdaptiveMesh2D::new(Mesh2D::new(6, 6), model)
    }

    /// Every candidate is productive (reduces the Manhattan distance).
    #[test]
    fn candidates_are_productive() {
        for model in TurnModel::ALL {
            let topo = mesh(model);
            for s in 0..36 {
                for d in 0..36 {
                    let (src, dst) = (NodeId(s), NodeId(d));
                    let before = topo.min_hops(src, dst);
                    for p in topo.route_candidates(src, dst) {
                        if src == dst {
                            assert!(p.is_local());
                            continue;
                        }
                        let next = topo
                            .neighbor(src, p)
                            .unwrap_or_else(|| panic!("{model}: candidate off-mesh {src}->{dst}"));
                        assert_eq!(
                            topo.min_hops(next, dst),
                            before - 1,
                            "{model}: unproductive candidate {src}->{dst} via {p}"
                        );
                    }
                }
            }
        }
    }

    /// West-first: no candidate set ever mixes WEST with another port —
    /// westward progress is never adaptive (the turn restriction).
    #[test]
    fn west_first_restriction() {
        let topo = mesh(TurnModel::WestFirst);
        for s in 0..36 {
            for d in 0..36 {
                let c = topo.route_candidates(NodeId(s), NodeId(d));
                if c.contains(&port::WEST) {
                    assert_eq!(c.len(), 1, "west must be exclusive: {c:?}");
                }
            }
        }
    }

    /// North-last: NORTH only appears as the sole final candidate.
    #[test]
    fn north_last_restriction() {
        let topo = mesh(TurnModel::NorthLast);
        for s in 0..36 {
            for d in 0..36 {
                let c = topo.route_candidates(NodeId(s), NodeId(d));
                if c.contains(&port::NORTH) {
                    assert_eq!(c.len(), 1, "north must come last, alone: {c:?}");
                }
            }
        }
    }

    /// Negative-first: once a positive move is available, no negative
    /// port remains a candidate.
    #[test]
    fn negative_first_restriction() {
        let topo = mesh(TurnModel::NegativeFirst);
        for s in 0..36 {
            for d in 0..36 {
                let c = topo.route_candidates(NodeId(s), NodeId(d));
                let has_neg = c.contains(&port::WEST) || c.contains(&port::SOUTH);
                let has_pos = c.contains(&port::EAST) || c.contains(&port::NORTH);
                assert!(!(has_neg && has_pos), "negative and positive mixed: {c:?}");
            }
        }
    }

    /// Fault masking composes with adaptivity: killing the preferred
    /// candidate leaves a productive, turn-legal alternative wherever
    /// the model offered more than one port — graceful degradation
    /// without a detour.
    #[test]
    fn fault_mask_leaves_productive_candidates() {
        use crate::routing::apply_fault_mask;
        for model in TurnModel::ALL {
            let topo = mesh(model);
            for s in 0..36 {
                for d in 0..36 {
                    let (src, dst) = (NodeId(s), NodeId(d));
                    let mut c = topo.route_candidates(src, dst);
                    if c.len() < 2 {
                        continue;
                    }
                    let dead = 1u64 << c[0].index();
                    assert!(apply_fault_mask(&mut c, dead), "{model}: mask must report removal");
                    assert!(!c.is_empty());
                    let before = topo.min_hops(src, dst);
                    for p in c {
                        let next = topo.neighbor(src, p).expect("candidate on-mesh");
                        assert_eq!(topo.min_hops(next, dst), before - 1, "{model}: unproductive");
                    }
                }
            }
        }
    }

    /// The deterministic fallback route still delivers minimally.
    #[test]
    fn fallback_route_is_minimal() {
        for model in TurnModel::ALL {
            let topo = mesh(model);
            for s in 0..36 {
                for d in 0..36 {
                    if s == d {
                        continue;
                    }
                    let (mut cur, dst) = (NodeId(s), NodeId(d));
                    let mut hops = 0;
                    while cur != dst {
                        let p = topo.route(cur, dst);
                        cur = topo.neighbor(cur, p).expect("on-mesh");
                        hops += 1;
                        assert!(hops <= 10, "{model}: loop {s}->{d}");
                    }
                    assert_eq!(hops, topo.min_hops(NodeId(s), dst), "{model}: {s}->{d}");
                }
            }
        }
    }
}
