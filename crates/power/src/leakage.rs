//! Temperature-dependent leakage power.
//!
//! The paper flags increased leakage as one of the costs of 3D stacking
//! ("the increased temperature in 3D chips has negative impacts on …
//! leakage power", §2.2) but evaluates dynamic power only. This module
//! extends the reproduction with an Orion-2-style leakage estimate:
//! leakage scales with silicon area and grows exponentially with
//! temperature (subthreshold leakage roughly doubles every ~25 K at
//! 90 nm).
//!
//! Combined with the thermal solver this closes the loop:
//! dynamic power → temperature → leakage → total power → temperature …
//! — see `mira::experiments::thermal::co_simulate`.

use serde::{Deserialize, Serialize};

use crate::area::AreaModel;
use crate::geometry::PaperArch;

/// Leakage model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeakageModel {
    /// Leakage power density at the reference temperature, W/µm².
    pub density_w_per_um2: f64,
    /// Reference temperature, K.
    pub reference_k: f64,
    /// Temperature increase that doubles the leakage, K.
    pub doubling_k: f64,
}

impl LeakageModel {
    /// 90 nm defaults: ≈50 nW/µm² of active logic/SRAM at 345 K
    /// (a 0.43 mm² router leaks ≈22 mW), doubling every 25 K.
    pub const NM90: LeakageModel =
        LeakageModel { density_w_per_um2: 50e-9, reference_k: 345.0, doubling_k: 25.0 };

    /// Leakage power of `area_um2` of silicon at temperature `temp_k`.
    ///
    /// # Panics
    ///
    /// Panics if the temperature is not positive.
    pub fn power_w(&self, area_um2: f64, temp_k: f64) -> f64 {
        assert!(temp_k > 0.0, "temperature must be positive");
        let exponent = (temp_k - self.reference_k) / self.doubling_k;
        self.density_w_per_um2 * area_um2 * 2f64.powf(exponent)
    }

    /// Leakage of one router of the given architecture at `temp_k`
    /// (counting all layers' silicon).
    fn router_power_w(&self, arch: PaperArch, temp_k: f64) -> f64 {
        let areas = AreaModel::default().paper_areas(arch);
        let layers = arch.geometry().layers as f64;
        // Per-layer crossbar/buffer figures were divided by L; leakage
        // cares about total silicon, so undo the division for the
        // separable components and VA2's (L−1)-way spread.
        let total = if arch.geometry().layers > 1 {
            areas.rc
                + areas.sa1
                + areas.sa2
                + areas.va1
                + areas.va2 * (layers - 1.0)
                + (areas.crossbar + areas.buffer) * layers
        } else {
            areas.total()
        };
        self.power_w(total, temp_k)
    }

    /// Leakage of the whole 36-router network at a uniform temperature.
    pub fn network_power_w(&self, arch: PaperArch, temp_k: f64, routers: usize) -> f64 {
        self.router_power_w(arch, temp_k) * routers as f64
    }
}

impl Default for LeakageModel {
    fn default() -> Self {
        LeakageModel::NM90
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_per_doubling_interval() {
        let m = LeakageModel::NM90;
        let p0 = m.power_w(1_000.0, 345.0);
        let p1 = m.power_w(1_000.0, 370.0);
        assert!((p1 / p0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reference_density() {
        let m = LeakageModel::NM90;
        // 1 mm² at reference temperature: 50 mW.
        assert!((m.power_w(1e6, 345.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn router_leakage_magnitudes() {
        let m = LeakageModel::NM90;
        let p2db = m.router_power_w(PaperArch::TwoDB, 345.0);
        // 433 628 µm² → ≈21.7 mW.
        assert!((p2db - 0.0217).abs() < 0.001, "{p2db}");
        // The 3DM router has less total silicon than 2DB (260 829 µm²).
        let p3dm = m.router_power_w(PaperArch::ThreeDM, 345.0);
        assert!(p3dm < p2db);
        assert!((p3dm - 0.0130).abs() < 0.001, "{p3dm}");
        // 3DB has the most silicon, hence the most leakage.
        let p3db = m.router_power_w(PaperArch::ThreeDB, 345.0);
        assert!(p3db > p2db);
    }

    #[test]
    fn network_scales_with_router_count() {
        let m = LeakageModel::NM90;
        let one = m.router_power_w(PaperArch::ThreeDM, 350.0);
        assert!((m.network_power_w(PaperArch::ThreeDM, 350.0, 36) - 36.0 * one).abs() < 1e-12);
    }

    #[test]
    fn leakage_ordering_matches_silicon_area() {
        // Total silicon: 3DM (260 829) < 2DB (433 628) < 3DM-E (639 063)
        // < 3DB (760 414) µm² — the 9-port express router pays for its
        // radix in leakage even though its *footprint* per layer is
        // small.
        let m = LeakageModel::NM90;
        let at = |a| m.router_power_w(a, 350.0);
        assert!(at(PaperArch::ThreeDM) < at(PaperArch::TwoDB));
        assert!(at(PaperArch::TwoDB) < at(PaperArch::ThreeDME));
        assert!(at(PaperArch::ThreeDME) < at(PaperArch::ThreeDB));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_temperature_panics() {
        let _ = LeakageModel::NM90.power_w(1.0, 0.0);
    }
}
