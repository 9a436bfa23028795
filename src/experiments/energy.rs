//! Per-flit energy breakdown (paper Fig. 9).

use crate::arch::Arch;
use crate::report::BarFigure;

/// Fig. 9: flit energy breakdown per architecture (pJ per flit-hop,
/// regular horizontal link).
pub fn fig9() -> BarFigure {
    let archs = Arch::HARDWARE;
    let groups = archs
        .iter()
        .map(|&a| {
            let b = a.energy_model().flit_hop_breakdown();
            (
                a.name().to_string(),
                vec![
                    b.buffer_j * 1e12,
                    b.xbar_j * 1e12,
                    b.arbitration_j * 1e12,
                    b.control_j * 1e12,
                    b.link_j * 1e12,
                    b.total_j() * 1e12,
                ],
            )
        })
        .collect();
    BarFigure {
        id: "fig9".into(),
        title: "Flit energy breakdown".into(),
        group_label: "architecture".into(),
        bar_labels: vec![
            "buffer".into(),
            "crossbar".into(),
            "arbiters".into(),
            "clock/ctrl".into(),
            "link".into(),
            "total".into(),
        ],
        groups,
        unit: "pJ per flit-hop".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_totals_are_component_sums() {
        let fig = fig9();
        for (arch, values) in &fig.groups {
            let sum: f64 = values[..5].iter().sum();
            assert!((sum - values[5]).abs() < 1e-6, "{arch}");
        }
    }

    /// Paper §3.4.2: 3DM has the lowest energy; 3DB the highest; the
    /// biggest 3DM saving comes from the link.
    #[test]
    fn fig9_orderings() {
        let fig = fig9();
        let total = |a: &str| fig.value(a, "total").unwrap();
        assert!(total("3DM") < total("3DM-E"));
        assert!(total("3DM-E") < total("2DB"));
        assert!(total("2DB") < total("3DB"));

        let link_saving = fig.value("2DB", "link").unwrap() - fig.value("3DM", "link").unwrap();
        let xbar_saving =
            fig.value("2DB", "crossbar").unwrap() - fig.value("3DM", "crossbar").unwrap();
        assert!(link_saving > xbar_saving);
    }

    /// The calibrated 35 % figure: 3DM total ≈ 0.65 × 2DB total.
    #[test]
    fn fig9_3dm_reduction() {
        let fig = fig9();
        let ratio = fig.value("3DM", "total").unwrap() / fig.value("2DB", "total").unwrap();
        assert!((ratio - 0.65).abs() < 0.05, "ratio {ratio:.3}");
    }
}
