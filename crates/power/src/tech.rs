//! 90 nm technology parameters for the energy models.
//!
//! The MIRA evaluation synthesised the routers in a TSMC 90 nm standard
//! cell library and used Orion for the datapath energies. We expose the
//! technology as a plain parameter struct so other nodes can be modelled;
//! the default instance, [`TECH_90NM`], carries *effective* capacitances
//! calibrated against the relations the paper publishes (see the
//! crate-level docs and `energy::tests::calibration_*`). Effective here
//! means each constant lumps everything activity-proportional for its
//! component — e.g. the buffer access capacitance folds in word-line
//! drivers, pre-charge and sense energy the way Orion's register-file
//! model does.

use serde::{Deserialize, Serialize};

/// Technology and circuit parameters used by the energy/area/delay
/// models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechParams {
    /// Supply voltage in volts.
    pub vdd_v: f64,
    /// Router clock in GHz (the paper runs everything at 2 GHz).
    pub clock_ghz: f64,
    /// Average switching-activity factor applied to datapath bits.
    pub activity: f64,
    /// Global wire capacitance, fF/µm, including repeater loading
    /// (links and crossbar lines).
    pub wire_cap_ff_per_um: f64,
    /// Drain capacitance of one tri-state crosspoint on a crossbar line,
    /// fF.
    pub xbar_drain_cap_ff: f64,
    /// Storage-cell access capacitance per bit, fF (register-file cell).
    pub buffer_cell_cap_ff: f64,
    /// Bit-line capacitance per buffer slot per bit, fF.
    pub buffer_bitline_cap_ff_per_slot: f64,
    /// Word-line (driver + gate) capacitance per bit, fF.
    pub buffer_wordline_cap_ff_per_bit: f64,
    /// Matrix-arbiter gate capacitance coefficient: an `n:1` arbiter
    /// switches ≈ `n² · this` fF per arbitration.
    pub arbiter_cap_ff_per_req2: f64,
    /// Router control overhead per flit per hop (clock tree, pipeline
    /// registers, FSMs), expressed as fF per bit of flit width.
    /// Calibrated; not gated by layer shutdown.
    pub control_cap_ff_per_bit: f64,
    /// Crossbar wire pitch per datapath bit, µm. The value 0.75 µm
    /// reproduces the paper's Table 1 crossbar areas exactly:
    /// `(P·W·0.75)² = 230 400 µm²` for P=5, W=128.
    pub bit_pitch_um: f64,
}

/// The calibrated 90 nm instance used throughout the reproduction.
pub const TECH_90NM: TechParams = TechParams {
    vdd_v: 1.0,
    clock_ghz: 2.0,
    activity: 0.5,
    wire_cap_ff_per_um: 0.30,
    xbar_drain_cap_ff: 2.0,
    buffer_cell_cap_ff: 20.0,
    buffer_bitline_cap_ff_per_slot: 30.0,
    buffer_wordline_cap_ff_per_bit: 14.5,
    arbiter_cap_ff_per_req2: 1.5,
    control_cap_ff_per_bit: 375.0,
    bit_pitch_um: 0.75,
};

impl TechParams {
    /// Dynamic energy in joules for switching `cap_ff` femtofarads once at
    /// the supply voltage with the configured activity factor.
    #[inline]
    pub fn dynamic_energy_j(&self, cap_ff: f64) -> f64 {
        self.activity * cap_ff * 1e-15 * self.vdd_v * self.vdd_v
    }

    /// Clock period in picoseconds.
    #[inline]
    pub fn clock_period_ps(&self) -> f64 {
        1_000.0 / self.clock_ghz
    }

    /// Clock period in seconds.
    #[inline]
    pub fn clock_period_s(&self) -> f64 {
        1e-9 / self.clock_ghz
    }
}

impl Default for TechParams {
    fn default() -> Self {
        TECH_90NM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_period_matches_2ghz() {
        assert!((TECH_90NM.clock_period_ps() - 500.0).abs() < 1e-9);
        assert!((TECH_90NM.clock_period_s() - 0.5e-9).abs() < 1e-21);
    }

    #[test]
    fn dynamic_energy_formula() {
        // 1000 fF at 1 V, α=0.5 → 0.5 pJ.
        let e = TECH_90NM.dynamic_energy_j(1000.0);
        assert!((e - 0.5e-12).abs() < 1e-18);
    }

    #[test]
    fn default_is_90nm() {
        assert_eq!(TechParams::default(), TECH_90NM);
    }
}
