//! Simulation configuration types. Every field is public: a
//! configuration is a struct literal (usually over
//! `..NetworkConfig::default()`), checked by [`NetworkConfig::validate`]
//! and again when a network is built on it.

use serde::{Deserialize, Serialize};

use crate::error::NocError;

/// Most `(port, vc)` pairs a router may have: each is one bit of the
/// router core's 64-bit work-list masks.
pub const MAX_PORT_VCS: usize = 64;

/// Deepest VC buffer: the router core stores credits in a `u8`.
pub const MAX_BUFFER_DEPTH: usize = u8::MAX as usize;

/// Most nodes a network may have: buffered flits carry their destination
/// as a `u16`.
pub const MAX_NODES: usize = u16::MAX as usize + 1;

/// Router pipeline depth (paper Fig. 8(a)–(c)).
///
/// The MIRA evaluation uses the conservative four-stage organisation;
/// the shallower pipelines from the literature the paper surveys
/// (speculative switch allocation, look-ahead routing) are provided as
/// extensions for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PipelineDepth {
    /// Fig. 8(a): RC → VA → SA → ST; one cycle per stage.
    #[default]
    FourStage,
    /// Fig. 8(b): speculative SA overlaps VA — a freshly VC-allocated
    /// head flit arbitrates for the switch in the same cycle (the
    /// speculation "fails" gracefully into a retry under contention).
    ThreeStageSpeculative,
    /// Fig. 8(c): look-ahead routing removes RC from the critical path
    /// (the route is available the cycle the flit becomes visible), on
    /// top of speculative SA.
    TwoStageLookahead,
}

impl PipelineDepth {
    /// Router-internal stage count for an uncontended head flit.
    pub const fn stages(self) -> u64 {
        match self {
            PipelineDepth::FourStage => 4,
            PipelineDepth::ThreeStageSpeculative => 3,
            PipelineDepth::TwoStageLookahead => 2,
        }
    }
}

/// Router pipeline organisation (paper Fig. 8).
///
/// The baseline router is the four-stage pipeline RC → VA → SA → ST with a
/// separate link-traversal (LT) cycle, i.e. five cycles per hop for a head
/// flit. The multi-layered routers (3DM / 3DM-E) shorten crossbar wires
/// and inter-router links enough that **ST and LT fit in one 500 ps cycle**
/// (paper Table 3), removing one cycle per hop. The `(NC)` "no-combining"
/// ablation keeps the separate LT stage. [`PipelineDepth`] additionally
/// selects the speculative organisations of Fig. 8(b)/(c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// If `true`, switch traversal and link traversal share a cycle.
    pub st_lt_combined: bool,
    /// Router-internal stage organisation.
    pub depth: PipelineDepth,
}

impl PipelineConfig {
    /// Baseline pipeline: ST and LT are separate cycles (2DB, 3DB, and the
    /// `(NC)` variants of 3DM / 3DM-E).
    pub const fn separate_lt() -> Self {
        PipelineConfig { st_lt_combined: false, depth: PipelineDepth::FourStage }
    }

    /// Combined pipeline: ST and LT share a cycle (3DM, 3DM-E).
    pub const fn combined_st_lt() -> Self {
        PipelineConfig { st_lt_combined: true, depth: PipelineDepth::FourStage }
    }

    /// Replaces the router-internal stage organisation.
    #[must_use]
    pub const fn with_depth(mut self, depth: PipelineDepth) -> Self {
        self.depth = depth;
        self
    }

    /// Head-flit cycles per hop through an unloaded router, including the
    /// wire.
    pub const fn cycles_per_hop(self) -> u64 {
        self.depth.stages() + if self.st_lt_combined { 0 } else { 1 }
    }

    /// Additional cycles a flit spends on the wire after the ST cycle.
    pub(crate) const fn link_extra_cycles(self) -> u64 {
        if self.st_lt_combined {
            0
        } else {
            1
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::separate_lt()
    }
}

/// Per-router microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Virtual channels per physical channel (the paper fixes V = 2).
    pub vcs_per_port: usize,
    /// Buffer depth in flits per virtual channel (`k` in the paper's
    /// Table 1; the evaluated configuration uses 4).
    pub buffer_depth: usize,
    /// Pipeline organisation.
    pub pipeline: PipelineConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { vcs_per_port: 2, buffer_depth: 4, pipeline: PipelineConfig::default() }
    }
}

/// Datapath and network-wide parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Flit width in bits (the paper uses W = 128).
    pub flit_bits: usize,
    /// Number of stacked datapath layers the flit is sliced across
    /// (L = 4 for the 3DM designs; 1 for a monolithic 2D datapath).
    ///
    /// Note that 2DB can still *logically* apply the short-flit gating at
    /// word granularity within its single layer; whether it does is
    /// controlled by [`NetworkConfig::layer_shutdown`].
    pub layers: usize,
    /// Enable short-flit shutdown of the separable datapath (buffer,
    /// crossbar, link slices). Affects only the activity accounting, not
    /// the timing.
    pub layer_shutdown: bool,
    /// Router microarchitecture.
    pub router: RouterConfig,
}

impl NetworkConfig {
    /// Number of payload words per flit (one per layer slice at the MIRA
    /// word size of 32 bits).
    pub fn words_per_flit(&self) -> usize {
        self.flit_bits / crate::flit::WORD_BITS
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidConfig`] when a parameter is zero, when
    /// the flit width is not a whole number of 32-bit words, when the
    /// layer count does not divide the word count, or when the buffer is
    /// deeper than [`MAX_BUFFER_DEPTH`].
    pub fn validate(&self) -> Result<(), NocError> {
        if self.flit_bits == 0 || !self.flit_bits.is_multiple_of(crate::flit::WORD_BITS) {
            return Err(NocError::InvalidConfig {
                parameter: "flit_bits",
                reason: format!(
                    "must be a positive multiple of {} (got {})",
                    crate::flit::WORD_BITS,
                    self.flit_bits
                ),
            });
        }
        if self.layers == 0 || !self.words_per_flit().is_multiple_of(self.layers) {
            return Err(NocError::InvalidConfig {
                parameter: "layers",
                reason: format!(
                    "must divide the {} words per flit (got {} layers)",
                    self.words_per_flit(),
                    self.layers
                ),
            });
        }
        if self.router.vcs_per_port == 0 {
            return Err(NocError::InvalidConfig {
                parameter: "vcs_per_port",
                reason: "must be at least 1".into(),
            });
        }
        if self.router.buffer_depth == 0 || self.router.buffer_depth > MAX_BUFFER_DEPTH {
            return Err(NocError::InvalidConfig {
                parameter: "buffer_depth",
                reason: format!(
                    "must be between 1 and {MAX_BUFFER_DEPTH} flits (got {})",
                    self.router.buffer_depth
                ),
            });
        }
        Ok(())
    }

    /// Validates the configuration for a network of `nodes` routers with
    /// `ports` ports each (local port included): [`Self::validate`] plus
    /// the widths the router core packs its state into.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidConfig`] when [`Self::validate`] fails,
    /// when `ports * vcs_per_port` exceeds [`MAX_PORT_VCS`], or when
    /// `nodes` exceeds [`MAX_NODES`].
    pub fn validate_for(&self, nodes: usize, ports: usize) -> Result<(), NocError> {
        self.validate()?;
        let vcs = self.router.vcs_per_port;
        if ports.saturating_mul(vcs) > MAX_PORT_VCS {
            return Err(NocError::InvalidConfig {
                parameter: "vcs_per_port",
                reason: format!(
                    "{ports} ports x {vcs} VCs exceed the router's {MAX_PORT_VCS} (port, vc) pairs"
                ),
            });
        }
        if nodes > MAX_NODES {
            return Err(NocError::InvalidConfig {
                parameter: "topology",
                reason: format!("{nodes} nodes exceed the limit of {MAX_NODES}"),
            });
        }
        Ok(())
    }
}

impl Default for NetworkConfig {
    /// The paper's evaluated datapath: 128-bit flits over 4 layers, 2 VCs,
    /// 4-flit buffers, baseline pipeline, shutdown disabled.
    fn default() -> Self {
        NetworkConfig {
            flit_bits: 128,
            layers: 4,
            layer_shutdown: false,
            router: RouterConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = NetworkConfig::default();
        assert_eq!(c.flit_bits, 128);
        assert_eq!(c.layers, 4);
        assert_eq!(c.words_per_flit(), 4);
        assert_eq!(c.router.vcs_per_port, 2);
        assert_eq!(c.router.buffer_depth, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn pipeline_hop_cycles() {
        assert_eq!(PipelineConfig::separate_lt().cycles_per_hop(), 5);
        assert_eq!(PipelineConfig::combined_st_lt().cycles_per_hop(), 4);
    }

    /// The default configuration with `edit` applied.
    fn with(edit: impl FnOnce(&mut NetworkConfig)) -> NetworkConfig {
        let mut cfg = NetworkConfig::default();
        edit(&mut cfg);
        cfg
    }

    fn rejected(cfg: NetworkConfig) -> &'static str {
        match cfg.validate() {
            Err(NocError::InvalidConfig { parameter, .. }) => parameter,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invalid_flit_width_rejected() {
        assert_eq!(rejected(with(|c| c.flit_bits = 100)), "flit_bits");
    }

    #[test]
    fn layers_must_divide_words() {
        assert_eq!(rejected(with(|c| c.layers = 3)), "layers");
    }

    #[test]
    fn zero_vcs_rejected() {
        assert_eq!(rejected(with(|c| c.router.vcs_per_port = 0)), "vcs_per_port");
    }

    #[test]
    fn zero_depth_rejected() {
        assert_eq!(rejected(with(|c| c.router.buffer_depth = 0)), "buffer_depth");
    }

    #[test]
    fn buffer_depth_fits_a_credit_byte() {
        assert!(with(|c| c.router.buffer_depth = MAX_BUFFER_DEPTH).validate().is_ok());
        assert_eq!(
            rejected(with(|c| c.router.buffer_depth = MAX_BUFFER_DEPTH + 1)),
            "buffer_depth"
        );
    }

    #[test]
    fn port_vc_pairs_fit_the_work_list_masks() {
        let vcs = |v| with(|c| c.router.vcs_per_port = v);
        // A 7-port 3D mesh router: 7 x 9 = 63 pairs fit, 7 x 10 = 70 do not.
        assert!(vcs(9).validate_for(27, 7).is_ok());
        let err = vcs(10).validate_for(27, 7).unwrap_err();
        assert!(matches!(err, NocError::InvalidConfig { parameter: "vcs_per_port", .. }));
        assert!(vcs(8).validate_for(27, 8).is_ok(), "8 x 8 = 64 is the edge");
        assert!(vcs(8).validate_for(27, 9).is_err());
    }

    #[test]
    fn node_count_fits_a_slot_destination() {
        let cfg = NetworkConfig::default();
        assert!(cfg.validate_for(MAX_NODES, 5).is_ok());
        let err = cfg.validate_for(MAX_NODES + 1, 5).unwrap_err();
        assert!(matches!(err, NocError::InvalidConfig { parameter: "topology", .. }));
    }

    #[test]
    fn validate_for_includes_validate() {
        let err = with(|c| c.router.buffer_depth = 0).validate_for(16, 5).unwrap_err();
        assert!(matches!(err, NocError::InvalidConfig { parameter: "buffer_depth", .. }));
    }
}
