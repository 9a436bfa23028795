//! Wire and crossbar delay model (paper Tables 2–3).
//!
//! The paper validates pipeline combining with a 90 nm switch design and
//! optimally buffered links: at 2 GHz each pipeline stage has 500 ps; ST
//! and LT can merge iff the crossbar traversal plus the link traversal
//! fit in one stage. Table 3 reports:
//!
//! | arch | XBAR (ps) | Link (ps) | combined | ≤500? |
//! |------|-----------|-----------|----------|-------|
//! | 2DB  | 378.57    | 309.48    | 688.05   | no    |
//! | 3DM  | 142.86    | 154.74    | 297.60   | yes   |
//! | 3DM-E| 182.85    | 309.48    | 492.33   | yes   |
//!
//! We reproduce these with two fits anchored at the table:
//! * **link**: repeated wires are delay-linear in length —
//!   309.48 ps / 3.1 mm = 99.832 ps/mm (the unbuffered figure of Table 2,
//!   254 ps/mm, is exposed for reference);
//! * **crossbar**: a fixed logic term plus a term quadratic in wire
//!   length (unrepeated RC wire): `t0 + c·s²` through the 2DB and 3DM
//!   points lands within 3 % of the published 3DM-E value.

use serde::{Deserialize, Serialize};

use crate::geometry::{PaperArch, RouterGeometry};
use crate::tech::TechParams;

/// Unbuffered global wire delay (paper Table 2), ps/mm.
pub const UNBUFFERED_WIRE_PS_PER_MM: f64 = 254.0;

/// Inverter FO4-ish delay from HSPICE (paper Table 2), ps.
pub const INVERTER_DELAY_PS: f64 = 9.81;

/// Optimally repeated wire delay, ps/mm, fit to Table 3's 2DB link
/// (309.48 ps over 3.1 mm).
pub const REPEATED_WIRE_PS_PER_MM: f64 = 309.48 / 3.1;

/// Crossbar delay fixed (logic) term, ps — fit through the 2DB and 3DM
/// rows of Table 3.
pub const XBAR_T0_PS: f64 = 127.145;

/// Crossbar delay wire term, ps/µm² of side length squared.
pub const XBAR_C_PS_PER_UM2: f64 = (378.57 - 142.86) / (480.0 * 480.0 - 120.0 * 120.0);

/// Exact Table 3 delays for one architecture, ps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageDelays {
    /// Crossbar traversal delay.
    pub xbar_ps: f64,
    /// Link traversal delay (the longest link the router drives: express
    /// for 3DM-E).
    pub link_ps: f64,
}

impl StageDelays {
    /// ST + LT back to back.
    pub fn combined_ps(&self) -> f64 {
        self.xbar_ps + self.link_ps
    }
}

/// The delay model.
///
/// ```
/// use mira_power::delay::DelayModel;
/// use mira_power::geometry::PaperArch;
///
/// let m = DelayModel::default();
/// // Table 3: the baseline 2D router cannot merge ST and LT at 2 GHz,
/// // the multi-layered router can.
/// assert!(!m.can_combine_st_lt(m.paper_stage_delays(PaperArch::TwoDB)));
/// assert!(m.can_combine_st_lt(m.paper_stage_delays(PaperArch::ThreeDM)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    tech: TechParams,
}

impl DelayModel {
    /// Creates the model for a technology.
    pub fn new(tech: TechParams) -> Self {
        DelayModel { tech }
    }

    /// Maximum per-stage delay at the configured clock, ps.
    fn stage_budget_ps(&self) -> f64 {
        self.tech.clock_period_ps()
    }

    /// Repeated-wire link delay for a physical length, ps.
    pub fn link_delay_ps(&self, length_mm: f64) -> f64 {
        REPEATED_WIRE_PS_PER_MM * length_mm
    }

    /// Crossbar traversal delay from the per-layer side length, ps.
    fn xbar_delay_ps(&self, geo: &RouterGeometry) -> f64 {
        let s = geo.xbar_side_um(self.tech.bit_pitch_um);
        XBAR_T0_PS + XBAR_C_PS_PER_UM2 * s * s
    }

    /// Parametric stage delays for an arbitrary geometry (worst-case
    /// link: express if present).
    pub fn stage_delays(&self, geo: &RouterGeometry) -> StageDelays {
        let link = geo.link_mm.max(geo.express_link_mm);
        StageDelays { xbar_ps: self.xbar_delay_ps(geo), link_ps: self.link_delay_ps(link) }
    }

    /// The published Table 3 row for a paper architecture (3DB shares the
    /// 2DB row: same crossbar pitch count is not reported; the paper only
    /// evaluates combining for 2DB / 3DM / 3DM-E).
    pub fn paper_stage_delays(&self, arch: PaperArch) -> StageDelays {
        match arch {
            PaperArch::TwoDB | PaperArch::ThreeDB => {
                StageDelays { xbar_ps: 378.57, link_ps: 309.48 }
            }
            PaperArch::ThreeDM => StageDelays { xbar_ps: 142.86, link_ps: 154.74 },
            PaperArch::ThreeDME => StageDelays { xbar_ps: 182.85, link_ps: 309.48 },
        }
    }

    /// The pipeline-combining feasibility rule: ST and LT can share a
    /// cycle iff their summed delay fits the stage budget.
    pub fn can_combine_st_lt(&self, delays: StageDelays) -> bool {
        delays.combined_ps() <= self.stage_budget_ps()
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::new(TechParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DelayModel {
        DelayModel::default()
    }

    /// Table 3's verdicts: 2DB cannot combine; 3DM and 3DM-E can.
    #[test]
    fn table3_combining_verdicts() {
        let m = model();
        assert!(!m.can_combine_st_lt(m.paper_stage_delays(PaperArch::TwoDB)));
        assert!(m.can_combine_st_lt(m.paper_stage_delays(PaperArch::ThreeDM)));
        assert!(m.can_combine_st_lt(m.paper_stage_delays(PaperArch::ThreeDME)));
    }

    /// Table 3's combined delays.
    #[test]
    fn table3_combined_values() {
        let m = model();
        let rows = [
            (PaperArch::TwoDB, 688.05),
            (PaperArch::ThreeDM, 297.60),
            (PaperArch::ThreeDME, 492.33),
        ];
        for (arch, expect) in rows {
            let got = m.paper_stage_delays(arch).combined_ps();
            assert!((got - expect).abs() < 0.01, "{arch}: {got} vs {expect}");
        }
    }

    /// The parametric link fit passes exactly through both published link
    /// delays (they are length-proportional: 3.1 mm vs 1.58 ≈ 3.1/2 mm —
    /// the paper rounds the 3DM pitch to 1.58 but halves the delay).
    #[test]
    fn link_fit_matches_2db_exactly() {
        let m = model();
        assert!((m.link_delay_ps(3.1) - 309.48).abs() < 1e-9);
        // 3DM published value corresponds to exactly half the 2DB wire.
        assert!((m.link_delay_ps(3.1 / 2.0) - 154.74).abs() < 1e-9);
        // Using the rounded 1.58 mm pitch stays within 2 % of the table.
        assert!((m.link_delay_ps(1.58) - 154.74).abs() / 154.74 < 0.02);
    }

    /// The quadratic crossbar fit passes through 2DB and 3DM and lands
    /// within 3 % of the published 3DM-E value.
    #[test]
    fn xbar_fit_accuracy() {
        let m = model();
        let d2 = m.xbar_delay_ps(&PaperArch::TwoDB.geometry());
        assert!((d2 - 378.57).abs() < 0.2, "{d2}");
        let d3 = m.xbar_delay_ps(&PaperArch::ThreeDM.geometry());
        assert!((d3 - 142.86).abs() < 0.2, "{d3}");
        let de = m.xbar_delay_ps(&PaperArch::ThreeDME.geometry());
        assert!((de - 182.85).abs() / 182.85 < 0.03, "{de}");
    }

    /// The parametric rule agrees with the published verdicts when fed
    /// the parametric delays.
    #[test]
    fn parametric_rule_matches_verdicts() {
        let m = model();
        assert!(!m.can_combine_st_lt(m.stage_delays(&PaperArch::TwoDB.geometry())));
        assert!(m.can_combine_st_lt(m.stage_delays(&PaperArch::ThreeDM.geometry())));
        assert!(m.can_combine_st_lt(m.stage_delays(&PaperArch::ThreeDME.geometry())));
    }

    /// Reference constants from Table 2 are exposed.
    #[test]
    fn table2_constants() {
        assert!((UNBUFFERED_WIRE_PS_PER_MM - 254.0).abs() < 1e-12);
        assert!((INVERTER_DELAY_PS - 9.81).abs() < 1e-12);
        // Repeated wires beat unbuffered wires.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(REPEATED_WIRE_PS_PER_MM < UNBUFFERED_WIRE_PS_PER_MM);
        }
    }

    /// Stage budget at 2 GHz is 500 ps.
    #[test]
    fn stage_budget() {
        assert!((model().stage_budget_ps() - 500.0).abs() < 1e-9);
    }
}
