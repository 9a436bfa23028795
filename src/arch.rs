//! The six evaluated architectures (paper §4).
//!
//! [`Arch`] ties together everything one configuration needs: the
//! topology (with the right node pitch), the router configuration (port
//! count comes from the topology; the pipeline-combining decision comes
//! from the delay model, not by fiat), the CPU/cache node layout of
//! Fig. 10, and the matching power model geometry.

use mira_noc::config::{NetworkConfig, PipelineConfig};
use mira_noc::ids::NodeId;
use mira_noc::topology::{ExpressMesh2D, Mesh2D, Mesh3D, Topology};
use mira_power::delay::DelayModel;
use mira_power::energy::EnergyModel;
use mira_power::geometry::PaperArch;
use mira_power::network_power::NetworkPower;

/// One of the six evaluated router architectures.
///
/// Serializes as the variant identifier (e.g. `"ThreeDME"`), which is
/// what sweep checkpoints persist; [`Arch::name`] stays the paper's
/// display form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Arch {
    /// Baseline 2D, 6×6 mesh.
    TwoDB,
    /// Naïve 3D, 3×3×4 mesh.
    ThreeDB,
    /// Multi-layered 3D, 6×6 mesh, ST+LT combined.
    ThreeDM,
    /// 3DM without pipeline combining (ablation).
    ThreeDMNc,
    /// Multi-layered 3D with express channels, ST+LT combined.
    ThreeDME,
    /// 3DM-E without pipeline combining (ablation).
    ThreeDMENc,
}

impl Arch {
    /// All six, in the paper's presentation order.
    pub const ALL: [Arch; 6] = [
        Arch::TwoDB,
        Arch::ThreeDB,
        Arch::ThreeDM,
        Arch::ThreeDMNc,
        Arch::ThreeDME,
        Arch::ThreeDMENc,
    ];

    /// The four with distinct hardware (NC variants share their parent's).
    pub const HARDWARE: [Arch; 4] = [Arch::TwoDB, Arch::ThreeDB, Arch::ThreeDM, Arch::ThreeDME];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Arch::TwoDB => "2DB",
            Arch::ThreeDB => "3DB",
            Arch::ThreeDM => "3DM",
            Arch::ThreeDMNc => "3DM(NC)",
            Arch::ThreeDME => "3DM-E",
            Arch::ThreeDMENc => "3DM-E(NC)",
        }
    }

    /// The power-model architecture this maps onto.
    pub fn paper_arch(self) -> PaperArch {
        match self {
            Arch::TwoDB => PaperArch::TwoDB,
            Arch::ThreeDB => PaperArch::ThreeDB,
            Arch::ThreeDM | Arch::ThreeDMNc => PaperArch::ThreeDM,
            Arch::ThreeDME | Arch::ThreeDMENc => PaperArch::ThreeDME,
        }
    }

    /// Whether this variant merges switch and link traversal. The answer
    /// is derived from the delay model (paper Table 3), with the NC
    /// ablations forced to keep the stages separate.
    fn combines_st_lt(self) -> bool {
        match self {
            Arch::ThreeDMNc | Arch::ThreeDMENc => false,
            other => {
                let dm = DelayModel::default();
                dm.can_combine_st_lt(dm.paper_stage_delays(other.paper_arch()))
            }
        }
    }

    /// The 36-node topology (paper §4.1.1).
    pub fn topology(self) -> Box<dyn Topology> {
        match self.paper_arch() {
            PaperArch::TwoDB => Box::new(Mesh2D::with_pitch(6, 6, Mesh2D::PITCH_2DB_MM)),
            PaperArch::ThreeDB => Box::new(Mesh3D::new(3, 3, 4)),
            PaperArch::ThreeDM => Box::new(Mesh2D::with_pitch(6, 6, Mesh2D::PITCH_3DM_MM)),
            PaperArch::ThreeDME => Box::new(ExpressMesh2D::new(6, 6)),
        }
    }

    /// The network configuration (W=128, V=2, k=4; layers and pipeline
    /// per architecture).
    pub fn network_config(self, layer_shutdown: bool) -> NetworkConfig {
        let layers = self.paper_arch().geometry().layers.max(1);
        // The 2DB/3DB datapaths are monolithic, but the shutdown
        // technique still gates at word granularity within the layer
        // ("the shutdown technique can be applied to all four
        // architectures", §4.2.3) — so the word count, not the layer
        // count, bounds gating. We model both with `layers` datapath
        // slices for accounting; planar designs use 4 word-slices too.
        let slices = if layers > 1 { layers } else { 4 };
        let pipeline = if self.combines_st_lt() {
            PipelineConfig::combined_st_lt()
        } else {
            PipelineConfig::separate_lt()
        };
        NetworkConfig::builder()
            .flit_bits(128)
            .layers(slices)
            .layer_shutdown(layer_shutdown)
            .vcs_per_port(2)
            .buffer_depth(4)
            .pipeline(pipeline)
            .build()
    }

    /// CPU node placement (paper Fig. 10): 8 CPUs in the middle of the
    /// 6×6 layouts; on the top (sink-side) layer for 3DB.
    pub fn cpu_nodes(self) -> Vec<NodeId> {
        match self.paper_arch() {
            PaperArch::ThreeDB => {
                // 3×3×4: top layer is z = 3 → ids 27..36; eight CPUs and
                // one cache share it (Fig. 10(c)).
                (27..35).map(NodeId).collect()
            }
            _ => {
                // 6×6: the central 4×2 block (Fig. 10(a)/(b)).
                [13, 14, 15, 16, 19, 20, 21, 22].map(NodeId).to_vec()
            }
        }
    }

    /// Cache-bank node placement: the 28 nodes that are not CPUs.
    pub fn cache_nodes(self) -> Vec<NodeId> {
        let cpus = self.cpu_nodes();
        (0..36).map(NodeId).filter(|n| !cpus.contains(n)).collect()
    }

    /// The Orion-style energy model for this architecture's geometry.
    pub fn energy_model(self) -> EnergyModel {
        EnergyModel::for_arch(self.paper_arch())
    }

    /// Activity-counter pricing engine.
    pub fn network_power(self) -> NetworkPower {
        NetworkPower::new(self.energy_model())
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_topologies_have_36_nodes() {
        for arch in Arch::ALL {
            assert_eq!(arch.topology().num_nodes(), 36, "{arch}");
        }
    }

    #[test]
    fn radix_matches_paper() {
        assert_eq!(Arch::TwoDB.topology().radix(), 5);
        assert_eq!(Arch::ThreeDB.topology().radix(), 7);
        assert_eq!(Arch::ThreeDM.topology().radix(), 5);
        assert_eq!(Arch::ThreeDME.topology().radix(), 9);
    }

    #[test]
    fn pipeline_combining_follows_delay_model() {
        assert!(!Arch::TwoDB.combines_st_lt(), "688 ps > 500 ps");
        assert!(!Arch::ThreeDB.combines_st_lt());
        assert!(Arch::ThreeDM.combines_st_lt(), "297.6 ps fits");
        assert!(Arch::ThreeDME.combines_st_lt(), "492.3 ps fits");
        assert!(!Arch::ThreeDMNc.combines_st_lt(), "NC ablation");
        assert!(!Arch::ThreeDMENc.combines_st_lt());
    }

    #[test]
    fn layout_partition_is_8_plus_28() {
        for arch in Arch::ALL {
            let cpus = arch.cpu_nodes();
            let caches = arch.cache_nodes();
            assert_eq!(cpus.len(), 8, "{arch}");
            assert_eq!(caches.len(), 28, "{arch}");
            for c in &cpus {
                assert!(!caches.contains(c), "{arch}: disjoint sets");
            }
        }
    }

    #[test]
    fn threedb_cpus_sit_on_top_layer() {
        let topo = Arch::ThreeDB.topology();
        for cpu in Arch::ThreeDB.cpu_nodes() {
            assert_eq!(topo.coords(cpu).z, 3, "CPUs live next to the heat sink");
        }
    }

    #[test]
    fn mesh_cpus_are_central() {
        let topo = Arch::TwoDB.topology();
        for cpu in Arch::TwoDB.cpu_nodes() {
            let c = topo.coords(cpu);
            assert!((1..=4).contains(&c.x) && (2..=3).contains(&c.y), "{cpu} at {c:?}");
        }
    }

    #[test]
    fn network_configs_validate() {
        for arch in Arch::ALL {
            let cfg = arch.network_config(true);
            assert!(cfg.validate().is_ok(), "{arch}");
            assert_eq!(cfg.flit_bits, 128);
            assert_eq!(cfg.router.vcs_per_port, 2);
        }
    }

    #[test]
    fn nc_variants_share_hardware() {
        assert_eq!(Arch::ThreeDMNc.paper_arch(), Arch::ThreeDM.paper_arch());
        assert_eq!(Arch::ThreeDMENc.paper_arch(), Arch::ThreeDME.paper_arch());
    }
}
