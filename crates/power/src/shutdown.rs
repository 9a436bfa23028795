//! Analytic model of the short-flit layer-shutdown savings
//! (paper §3.2.1 and Fig. 13(b)).
//!
//! A short flit keeps only the top layer of the separable datapath
//! (buffer, crossbar, link) active, i.e. a fraction `1/L` of those
//! modules. With a fraction `s` of short flits, the expected network
//! dynamic power scales by
//!
//! ```text
//! scale = 1 − s · (1 − 1/L) · f_sep
//! ```
//!
//! where `f_sep` is the separable share of the flit energy. The paper
//! reports ≈36 % savings at `s = 0.5` for the L=4 designs; with our
//! calibrated energy split (`f_sep ≈ 0.8` for 2DB) the formula gives
//! 0.5·0.75·0.8 = 30 %, and slightly more for 3DM whose separable share
//! is higher in the simulator because control re-arbitration is load
//! dependent. The simulator measures the real number; this module
//! provides the closed form for cross-checks.

/// Expected power-scale factor under layer shutdown for a short-flit
/// fraction `short_fraction` on an `L`-layer datapath with separable
/// energy share `separable_share`.
///
/// # Panics
///
/// Panics if `short_fraction` or `separable_share` is outside `[0, 1]`.
pub fn shutdown_scale(short_fraction: f64, layers: usize, separable_share: f64) -> f64 {
    assert!((0.0..=1.0).contains(&short_fraction), "short fraction in [0,1]");
    assert!((0.0..=1.0).contains(&separable_share), "separable share in [0,1]");
    let gated = 1.0 - 1.0 / layers.max(1) as f64;
    1.0 - short_fraction * gated * separable_share
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_short_flits_no_saving() {
        assert!((shutdown_scale(0.0, 4, 0.8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_layer_without_word_gating_saves_nothing() {
        assert!((shutdown_scale(0.5, 1, 0.8) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "short fraction")]
    fn invalid_fraction_panics() {
        let _ = shutdown_scale(1.5, 4, 0.8);
    }
}
