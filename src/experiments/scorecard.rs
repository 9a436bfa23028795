//! The reproduction scorecard: every quantitative claim the paper makes
//! in its abstract/§4, checked against a live run.
//!
//! Each claim carries the paper's figure, the measured value, and an
//! acceptance band (shape reproduction, not absolute-number matching —
//! see EXPERIMENTS.md). The `scorecard` binary prints the table; the
//! tests assert every row passes.

use mira_noc::sim::SimConfig;
use mira_traffic::workloads::Application;

use crate::arch::Arch;
use crate::experiments::common::{sweep_ur_points, ur_point, RunResult, EXPERIMENT_SEED};
use crate::experiments::latency::{nuca_point, trace_point};
use crate::experiments::runner::{Runner, SimPoint};
use crate::report::TextTable;

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Where the paper states it.
    pub source: &'static str,
    /// What is being measured.
    pub what: &'static str,
    /// The paper's figure (as printed).
    pub paper: String,
    /// Our measured value.
    pub measured: f64,
    /// Acceptance band for the measured value.
    pub band: (f64, f64),
}

impl Claim {
    /// Whether the measured value lands in the band.
    pub fn passes(&self) -> bool {
        self.measured >= self.band.0 && self.measured <= self.band.1
    }
}

impl serde::Serialize for Claim {
    fn serialize(&self, e: &mut dyn serde::Emitter) {
        e.begin_object();
        e.field("name", &self.what);
        e.field("source", &self.source);
        e.field("expected", &self.paper);
        e.field("actual", &self.measured);
        e.field("band", &self.band);
        e.field("passes", &self.passes());
        e.end_object();
    }
}

/// Every simulation the claims read, as runner points: three one-rate
/// UR sweeps (each at seed index 0), the 3DB NUCA-UR point, the three
/// Tpcw trace replays and the 3DM shutdown pair, each with the seed its
/// figure uses.
pub fn scorecard_points(sim_cfg: SimConfig, trace_cycles: u64) -> Vec<SimPoint> {
    let app = Application::Tpcw;
    let mut points: Vec<SimPoint> = [0.15, 0.05, 0.10]
        .into_iter()
        .flat_map(|rate| sweep_ur_points(&[rate], 0.0, sim_cfg))
        .collect();
    points.push(nuca_point(Arch::ThreeDB, 0.05, EXPERIMENT_SEED, sim_cfg));
    for (arch, shutdown) in [(Arch::TwoDB, false), (Arch::ThreeDME, false), (Arch::ThreeDME, true)]
    {
        points.push(trace_point(app, arch, shutdown, trace_cycles, sim_cfg));
    }
    points.extend([0.0, 0.5].map(|frac| ur_point(Arch::ThreeDM, 0.10, frac, sim_cfg)));
    points
}

/// Runs every claim check as one batch on the process runner. `sim_cfg`
/// controls the run length; the bands are sized for `quick_sim_config`
/// and up.
pub fn run_scorecard(sim_cfg: SimConfig, trace_cycles: u64) -> Vec<Claim> {
    let points = scorecard_points(sim_cfg, trace_cycles);
    scorecard_from(&Runner::from_env().run(points).into_results())
}

/// Checks every claim against the results of [`scorecard_points`].
pub fn scorecard_from(results: &[RunResult]) -> Vec<Claim> {
    let n = Arch::ALL.len();
    let (sweep, rest) = results.split_at(3 * n);
    let [n3db, base_lat, e_lat, e_pwr, base, gated] = rest else {
        unreachable!("six single points follow the sweeps")
    };
    let in_sweep = |block: usize, a: Arch| {
        sweep[block * n..(block + 1) * n].iter().find(|r| r.arch == a).expect("swept")
    };
    let mut claims = Vec::new();

    // --- UR latency (Fig. 11(a), §4.2.1) at a pre-saturation load. ---
    let lat = |a: Arch| in_sweep(0, a).report.avg_latency;
    claims.push(Claim {
        source: "abstract / §4.2.1",
        what: "3DM-E latency saving vs 2DB, UR (%)",
        paper: "up to 51".into(),
        measured: (1.0 - lat(Arch::ThreeDME) / lat(Arch::TwoDB)) * 100.0,
        band: (35.0, 75.0),
    });
    claims.push(Claim {
        source: "§4.2.1",
        what: "3DM-E latency saving vs 3DB, UR (%)",
        paper: "~26".into(),
        measured: (1.0 - lat(Arch::ThreeDME) / lat(Arch::ThreeDB)) * 100.0,
        band: (15.0, 50.0),
    });
    claims.push(Claim {
        source: "§4.2.1",
        what: "2DB vs 3DM(NC) latency ratio (same logical net)",
        paper: "similar".into(),
        measured: lat(Arch::TwoDB) / lat(Arch::ThreeDMNc),
        band: (0.98, 1.02),
    });

    // --- Pipeline combining (§4.2.1). ---
    let lat_low = |a: Arch| in_sweep(1, a).report.avg_latency;
    claims.push(Claim {
        source: "§4.2.1",
        what: "combining gain, 3DM vs 3DM(NC) (%)",
        paper: "up to 14".into(),
        measured: (1.0 - lat_low(Arch::ThreeDM) / lat_low(Arch::ThreeDMNc)) * 100.0,
        band: (5.0, 30.0),
    });
    claims.push(Claim {
        source: "§4.2.1",
        what: "combining gain, 3DM-E vs 3DM-E(NC) (%)",
        paper: "~23".into(),
        measured: (1.0 - lat_low(Arch::ThreeDME) / lat_low(Arch::ThreeDMENc)) * 100.0,
        band: (5.0, 30.0),
    });

    // --- UR power (Fig. 12(a), §4.2.2). ---
    let pwr = |a: Arch| in_sweep(2, a).avg_power_w;
    claims.push(Claim {
        source: "abstract / §4.2.2",
        what: "3DM-E power saving vs 2DB, UR (%)",
        paper: "~42".into(),
        measured: (1.0 - pwr(Arch::ThreeDME) / pwr(Arch::TwoDB)) * 100.0,
        band: (30.0, 55.0),
    });
    claims.push(Claim {
        source: "§4.2.2",
        what: "3DM power saving vs 2DB, UR (%)",
        paper: "~22".into(),
        measured: (1.0 - pwr(Arch::ThreeDM) / pwr(Arch::TwoDB)) * 100.0,
        band: (15.0, 45.0),
    });

    // --- Per-flit energy (Fig. 9, §3.4.2). ---
    let e2 = Arch::TwoDB.energy_model().flit_hop_breakdown();
    let e3 = Arch::ThreeDM.energy_model().flit_hop_breakdown();
    claims.push(Claim {
        source: "§3.4.2 / Fig. 9",
        what: "3DM flit-energy reduction vs 2DB (%)",
        paper: "35".into(),
        measured: (1.0 - e3.total_j() / e2.total_j()) * 100.0,
        band: (30.0, 40.0),
    });
    claims.push(Claim {
        source: "§3.2.1 (citing [5])",
        what: "buffer share of 2DB router energy (%)",
        paper: "31".into(),
        measured: e2.buffer_j / e2.router_j() * 100.0,
        band: (28.0, 34.0),
    });

    // --- NUCA-UR (Fig. 11(b)/(d)). ---
    claims.push(Claim {
        source: "§4.2.1 / Fig. 11(d)",
        what: "3DB hop inflation under NUCA-UR (hops over UR)",
        paper: "positive".into(),
        measured: n3db.report.avg_hops - in_sweep(1, Arch::ThreeDB).report.avg_hops,
        band: (0.1, 2.0),
    });

    // --- Traces (Figs. 11(c), 12(c)). ---
    claims.push(Claim {
        source: "abstract / §4.2.1",
        what: "3DM-E trace-latency saving vs 2DB (%)",
        paper: "~38".into(),
        measured: (1.0 - e_lat.report.avg_latency / base_lat.report.avg_latency) * 100.0,
        band: (28.0, 50.0),
    });
    claims.push(Claim {
        source: "abstract / §4.2.2",
        what: "3DM-E trace-power saving vs 2DB, shutdown on (%)",
        paper: "~67".into(),
        measured: (1.0 - e_pwr.avg_power_w / base_lat.avg_power_w) * 100.0,
        band: (50.0, 80.0),
    });

    // --- Shutdown (Fig. 13(b)). ---
    claims.push(Claim {
        source: "§4.2.2 / Fig. 13(b)",
        what: "shutdown saving at 50% short flits, 3DM (%)",
        paper: "up to 36".into(),
        measured: (1.0 - gated.avg_power_w / base.avg_power_w) * 100.0,
        band: (18.0, 40.0),
    });

    // --- Workload statistics (Fig. 13(a)). ---
    {
        let stats = crate::experiments::patterns::app_stats(Application::Tpcw, 8_000);
        claims.push(Claim {
            source: "§4.2.2 / Fig. 13(a)",
            what: "tpcw short-flit percentage (%)",
            paper: "up to 58".into(),
            measured: stats.short_payload_fraction() * 100.0,
            band: (52.0, 64.0),
        });
    }

    claims
}

/// Renders the scorecard as a table.
pub fn scorecard_table(claims: &[Claim]) -> TextTable {
    TextTable {
        id: "scorecard".into(),
        title: "Reproduction scorecard (paper claim vs measured)".into(),
        headers: vec![
            "claim".into(),
            "paper".into(),
            "measured".into(),
            "band".into(),
            "verdict".into(),
        ],
        rows: claims
            .iter()
            .map(|c| {
                vec![
                    c.what.to_string(),
                    c.paper.clone(),
                    format!("{:.1}", c.measured),
                    format!("[{:.0}, {:.0}]", c.band.0, c.band.1),
                    if c.passes() { "PASS".into() } else { "FAIL".into() },
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::quick_sim_config;

    #[test]
    fn every_claim_passes() {
        let claims = run_scorecard(quick_sim_config(), 4_000);
        assert!(claims.len() >= 13, "scorecard covers the headline claims");
        let failures: Vec<String> = claims
            .iter()
            .filter(|c| !c.passes())
            .map(|c| format!("{}: measured {:.1} outside {:?}", c.what, c.measured, c.band))
            .collect();
        assert!(failures.is_empty(), "failing claims:\n{}", failures.join("\n"));
    }
}
