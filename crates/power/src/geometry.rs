//! Router geometry descriptors for the four paper architectures.
//!
//! The power/area/delay models are parametric in the router geometry:
//! port count `P`, virtual channels `V`, flit width `W`, datapath layer
//! count `L`, buffer depth `k`, and the physical link lengths. This
//! module provides the parametric [`RouterGeometry`] plus [`PaperArch`],
//! an enum naming the four architectures the paper evaluates with their
//! exact parameters (paper §3, §4.1.1, Table 2).

use serde::{Deserialize, Serialize};

/// Parametric router geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterGeometry {
    /// Physical channels per router, including the local port (`P`).
    pub ports: usize,
    /// Virtual channels per physical channel (`V`).
    pub vcs: usize,
    /// Flit width in bits (`W`).
    pub flit_bits: usize,
    /// Stacked datapath layers (`L`; 1 for planar).
    pub layers: usize,
    /// Buffer depth in flits per VC (`k`).
    pub buffer_depth: usize,
    /// Inter-router link length, mm (regular channels).
    pub link_mm: f64,
    /// Express channel length, mm (0.0 when the topology has none).
    pub express_link_mm: f64,
}

impl RouterGeometry {
    /// Crossbar side length per layer in µm: `P·W·pitch / L`
    /// (paper Fig. 5: the per-layer crossbar of the multi-layered design
    /// is `(P·W/L) × (P·W/L)` wire tracks).
    pub fn xbar_side_um(&self, bit_pitch_um: f64) -> f64 {
        self.ports as f64 * self.flit_bits as f64 * bit_pitch_um / self.layers as f64
    }

    /// Size of a VA stage-1 arbiter (`V:1`).
    pub fn va1_arbiter_size(&self) -> usize {
        self.vcs
    }

    /// Size of a VA stage-2 arbiter (`PV:1`).
    pub fn va2_arbiter_size(&self) -> usize {
        self.ports * self.vcs
    }

    /// Size of an SA stage-1 arbiter (`V:1`).
    pub fn sa1_arbiter_size(&self) -> usize {
        self.vcs
    }

    /// Size of an SA stage-2 arbiter (`P:1`).
    pub fn sa2_arbiter_size(&self) -> usize {
        self.ports
    }
}

/// The four router architectures of the paper (plus their `(NC)` pipeline
/// ablations, which share geometry with their parents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperArch {
    /// Baseline 2D router on a 6×6 mesh: P=5, monolithic datapath,
    /// 3.1 mm links.
    TwoDB,
    /// Naïve 3D router on a 3×3×4 mesh: P=7 (up/down ports), monolithic
    /// datapath, 3.1 mm horizontal links, TSV verticals.
    ThreeDB,
    /// Multi-layered router on a 6×6 mesh: P=5, datapath sliced over 4
    /// layers, 1.58 mm links.
    ThreeDM,
    /// Multi-layered router with express channels: P=9, 4 layers, 1.58 mm
    /// regular and 3.16 mm express links.
    ThreeDME,
}

impl PaperArch {
    /// All four architectures in the paper's presentation order.
    pub const ALL: [PaperArch; 4] =
        [PaperArch::TwoDB, PaperArch::ThreeDB, PaperArch::ThreeDM, PaperArch::ThreeDME];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            PaperArch::TwoDB => "2DB",
            PaperArch::ThreeDB => "3DB",
            PaperArch::ThreeDM => "3DM",
            PaperArch::ThreeDME => "3DM-E",
        }
    }

    /// Router geometry with the paper's parameters (W=128, V=2, k=4).
    pub fn geometry(self) -> RouterGeometry {
        let base = RouterGeometry {
            ports: 5,
            vcs: 2,
            flit_bits: 128,
            layers: 1,
            buffer_depth: 4,
            link_mm: 3.1,
            express_link_mm: 0.0,
        };
        match self {
            PaperArch::TwoDB => base,
            PaperArch::ThreeDB => RouterGeometry { ports: 7, ..base },
            PaperArch::ThreeDM => RouterGeometry { layers: 4, link_mm: 1.58, ..base },
            PaperArch::ThreeDME => {
                RouterGeometry { ports: 9, layers: 4, link_mm: 1.58, express_link_mm: 3.16, ..base }
            }
        }
    }

    /// Whether the architecture's wires are short enough to merge ST and
    /// LT (decided by the delay model; recorded here for convenience).
    pub fn is_multilayer(self) -> bool {
        matches!(self, PaperArch::ThreeDM | PaperArch::ThreeDME)
    }
}

impl std::fmt::Display for PaperArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        let g2 = PaperArch::TwoDB.geometry();
        assert_eq!((g2.ports, g2.layers), (5, 1));
        assert!((g2.link_mm - 3.1).abs() < 1e-12);

        let g3b = PaperArch::ThreeDB.geometry();
        assert_eq!((g3b.ports, g3b.layers), (7, 1));

        let g3m = PaperArch::ThreeDM.geometry();
        assert_eq!((g3m.ports, g3m.layers), (5, 4));
        assert!((g3m.link_mm - 1.58).abs() < 1e-12);

        let g3me = PaperArch::ThreeDME.geometry();
        assert_eq!((g3me.ports, g3me.layers), (9, 4));
        assert!((g3me.express_link_mm - 3.16).abs() < 1e-12);
    }

    #[test]
    fn xbar_side_lengths_match_fig5() {
        // 2DB: 5·128·0.75 = 480 µm; 3DM: 480/4 = 120; 3DB: 7·128·0.75 =
        // 672; 3DM-E: 9·128·0.75/4 = 216.
        assert!((PaperArch::TwoDB.geometry().xbar_side_um(0.75) - 480.0).abs() < 1e-9);
        assert!((PaperArch::ThreeDM.geometry().xbar_side_um(0.75) - 120.0).abs() < 1e-9);
        assert!((PaperArch::ThreeDB.geometry().xbar_side_um(0.75) - 672.0).abs() < 1e-9);
        assert!((PaperArch::ThreeDME.geometry().xbar_side_um(0.75) - 216.0).abs() < 1e-9);
    }

    #[test]
    fn arbiter_sizes_match_paper() {
        // Paper §3.2.5: VA2 arbiters are 10:1 for 3DM vs 14:1 for 3DB.
        assert_eq!(PaperArch::ThreeDM.geometry().va2_arbiter_size(), 10);
        assert_eq!(PaperArch::ThreeDB.geometry().va2_arbiter_size(), 14);
        assert_eq!(PaperArch::ThreeDME.geometry().va2_arbiter_size(), 18);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(PaperArch::ThreeDME.to_string(), "3DM-E");
        assert_eq!(PaperArch::ALL.len(), 4);
    }
}
