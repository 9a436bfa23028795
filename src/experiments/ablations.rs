//! Ablation studies beyond the paper's headline exhibits.
//!
//! DESIGN.md calls out three design choices worth isolating:
//!
//! * **router pipeline depth** — the paper's conservative 4-stage router
//!   vs the speculative 3-stage and look-ahead 2-stage organisations it
//!   surveys (Fig. 8(b)/(c)), on the 3DM substrate;
//! * **express-channel span** — Dally's express-cube parameter, fixed at
//!   2 in the paper's 6×6 3DM-E;
//! * **VC count / buffer depth** — the paper fixes V=2, k=4 (§3.2.4) for
//!   frequency and power; how much performance is on the table?

use mira_noc::adaptive::{AdaptiveMesh2D, TurnModel};
use mira_noc::config::{PipelineConfig, PipelineDepth};
use mira_noc::sim::SimConfig;
use mira_noc::topology::{ExpressMesh2D, Mesh2D};
use mira_noc::traffic::UniformRandom;
use mira_traffic::synthetic::{Pattern, PermutationTraffic};

use crate::arch::Arch;
use crate::experiments::common::{run_custom, RunResult, EXPERIMENT_SEED};
use crate::experiments::runner::{Runner, SimPoint};
use crate::report::BarFigure;

/// The router organisations of the pipeline-depth ablation.
const DEPTHS: [(&str, PipelineDepth); 3] = [
    ("4-stage", PipelineDepth::FourStage),
    ("3-stage spec", PipelineDepth::ThreeStageSpeculative),
    ("2-stage lookahead", PipelineDepth::TwoStageLookahead),
];

/// The pipeline-depth ablation's runs as runner points: UR on the 3DM
/// substrate for each (depth × LT) organisation, depth-major.
///
/// All ablation points pin [`EXPERIMENT_SEED`] so every configuration
/// sees the identical packet stream — the comparison isolates the
/// design parameter, and the batch fans out on the runner.
pub fn ablate_pipeline_points(rate: f64, sim: SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for (name, depth) in DEPTHS {
        for combined in [false, true] {
            let label = format!("{name} combined={combined}");
            points.push(SimPoint::new(label, EXPERIMENT_SEED, move |s| {
                let base = if combined {
                    PipelineConfig::combined_st_lt()
                } else {
                    PipelineConfig::separate_lt()
                };
                let mut cfg = Arch::ThreeDM.network_config(false);
                cfg.router.pipeline = base.with_depth(depth);
                let w = UniformRandom::new(rate, 5, s);
                run_custom(Arch::ThreeDM, Arch::ThreeDM.topology(), cfg, Box::new(w), sim)
            }));
        }
    }
    points
}

/// Pipeline-depth ablation on the 3DM substrate: average UR latency for
/// the six (depth × LT) organisations at one injection rate, over the
/// results of [`ablate_pipeline_points`].
pub fn ablate_pipeline_from(results: &[RunResult]) -> BarFigure {
    let groups = DEPTHS.iter().zip(results.chunks(2)).map(|((name, _), runs)| {
        (name.to_string(), runs.iter().map(|r| r.report.avg_latency).collect())
    });
    BarFigure {
        id: "abl-pipeline".into(),
        title: "Router pipeline-depth ablation (3DM substrate, UR)".into(),
        group_label: "organisation".into(),
        bar_labels: vec!["separate LT".into(), "ST+LT combined".into()],
        groups: groups.collect(),
        unit: "cycles".into(),
    }
}

/// [`ablate_pipeline_points`] run on the process runner, then
/// [`ablate_pipeline_from`].
pub fn ablate_pipeline(rate: f64, sim: SimConfig) -> BarFigure {
    ablate_pipeline_from(&Runner::from_env().run(ablate_pipeline_points(rate, sim)).into_results())
}

/// The express spans of the span ablation: span 1 is the plain 3DM
/// mesh, spans 2–4 are express meshes priced as 3DM-E.
const SPANS: [usize; 4] = [1, 2, 3, 4];

/// One span's label.
fn span_label(span: usize) -> String {
    if span == 1 {
        "span 1 (mesh)".to_string()
    } else {
        format!("span {span}")
    }
}

/// One span's topology on the 6×6 multi-layer mesh.
fn span_topology(span: usize) -> Box<dyn mira_noc::topology::Topology> {
    if span == 1 {
        Box::new(Mesh2D::with_pitch(6, 6, Mesh2D::PITCH_3DM_MM))
    } else {
        Box::new(ExpressMesh2D::with_params(6, 6, Mesh2D::PITCH_3DM_MM, span))
    }
}

/// The express-span ablation's runs as runner points, one UR run per
/// span, 1 to 4.
pub fn ablate_express_span_points(rate: f64, sim: SimConfig) -> Vec<SimPoint> {
    let point = |span: usize| {
        SimPoint::new(span_label(span), EXPERIMENT_SEED, move |s| {
            let arch = if span == 1 { Arch::ThreeDM } else { Arch::ThreeDME };
            let (topo, cfg) = (span_topology(span), arch.network_config(false));
            run_custom(arch, topo, cfg, Box::new(UniformRandom::new(rate, 5, s)), sim)
        })
    };
    SPANS.map(point).into()
}

/// Express-span ablation: UR latency (over the results of
/// [`ablate_express_span_points`]) and closed-form average hop count for
/// spans 2–4 on the 6×6 multi-layer mesh (span "1" = the plain 3DM
/// mesh).
pub fn ablate_express_span_from(results: &[RunResult]) -> BarFigure {
    let groups = SPANS.iter().zip(results).map(|(&span, r)| {
        let hops = mira_noc::topology::average_min_hops(span_topology(span).as_ref());
        (span_label(span), vec![r.report.avg_latency, hops])
    });
    BarFigure {
        id: "abl-express-span".into(),
        title: "Express-channel span ablation (6x6, UR)".into(),
        group_label: "span".into(),
        bar_labels: vec!["latency (cy)".into(), "avg min hops".into()],
        groups: groups.collect(),
        unit: "cycles / hops".into(),
    }
}

/// [`ablate_express_span_points`] run on the process runner, then
/// [`ablate_express_span_from`].
pub fn ablate_express_span(rate: f64, sim: SimConfig) -> BarFigure {
    let points = ablate_express_span_points(rate, sim);
    ablate_express_span_from(&Runner::from_env().run(points).into_results())
}

/// The VC counts and buffer depths of the buffer ablation.
const VCS_GRID: [usize; 3] = [1, 2, 4];
const DEPTH_GRID: [usize; 3] = [2, 4, 8];

/// The buffer ablation's runs as runner points: UR on the 3DM router
/// for each (VC count × buffer depth), VC-major.
pub fn ablate_buffers_points(rate: f64, sim: SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for vcs in VCS_GRID {
        for depth in DEPTH_GRID {
            points.push(SimPoint::new(format!("V={vcs} k={depth}"), EXPERIMENT_SEED, move |s| {
                let mut cfg = Arch::ThreeDM.network_config(false);
                cfg.router.vcs_per_port = vcs;
                cfg.router.buffer_depth = depth;
                let w = UniformRandom::new(rate, 5, s);
                run_custom(Arch::ThreeDM, Arch::ThreeDM.topology(), cfg, Box::new(w), sim)
            }));
        }
    }
    points
}

/// VC/buffer sizing ablation on the 3DM router (the paper's V=2, k=4
/// operating point in context), over the results of
/// [`ablate_buffers_points`].
///
/// Note the deliberate design consequence this exposes: VC assignment is
/// by *traffic class* (paper §3.2.4 — one VC for control, one for data),
/// so under single-class uniform-random traffic the extra VCs sit idle
/// and latency depends on buffer depth only; V=2 buys protocol-class
/// separation (and deadlock isolation), not raw throughput. Utilisation
/// halves as the provisioned capacity doubles.
pub fn ablate_buffers_from(results: &[RunResult]) -> BarFigure {
    let topo = Arch::ThreeDM.topology();
    let (nodes, radix) = (topo.num_nodes(), topo.radix());
    let groups = VCS_GRID.iter().zip(results.chunks(DEPTH_GRID.len())).map(|(&vcs, runs)| {
        let mut values = Vec::new();
        for (&depth, run) in DEPTH_GRID.iter().zip(runs) {
            let report = &run.report;
            let capacity = (nodes * radix * vcs * depth) as f64;
            let util = report.counters.mean_buffer_occupancy_flits() / capacity;
            values.push(if report.saturated { f64::NAN } else { report.avg_latency });
            values.push(util * 100.0);
        }
        (format!("V={vcs}"), values)
    });
    BarFigure {
        id: "abl-buffers".into(),
        title: "VC count / buffer depth ablation (3DM, UR)".into(),
        group_label: "VCs".into(),
        bar_labels: vec![
            "k=2 lat".into(),
            "k=2 util%".into(),
            "k=4 lat".into(),
            "k=4 util%".into(),
            "k=8 lat".into(),
            "k=8 util%".into(),
        ],
        groups: groups.collect(),
        unit: "cycles / % buffer utilisation (NaN = saturated)".into(),
    }
}

/// [`ablate_buffers_points`] run on the process runner, then
/// [`ablate_buffers_from`].
pub fn ablate_buffers(rate: f64, sim: SimConfig) -> BarFigure {
    ablate_buffers_from(&Runner::from_env().run(ablate_buffers_points(rate, sim)).into_results())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::quick_sim_config;

    #[test]
    fn pipeline_ablation_orders_depths() {
        let fig = ablate_pipeline(0.05, quick_sim_config());
        let v = |g: &str, b: &str| fig.value(g, b).unwrap();
        // Shallower is faster, for both LT organisations.
        for lt in ["separate LT", "ST+LT combined"] {
            assert!(v("4-stage", lt) > v("3-stage spec", lt), "{lt}");
            assert!(v("3-stage spec", lt) > v("2-stage lookahead", lt), "{lt}");
        }
        // Combining helps at every depth.
        for depth in ["4-stage", "3-stage spec", "2-stage lookahead"] {
            assert!(v(depth, "separate LT") > v(depth, "ST+LT combined"), "{depth}");
        }
    }

    #[test]
    fn express_span_tradeoff() {
        let fig = ablate_express_span(0.05, quick_sim_config());
        let hops = |g: &str| fig.value(g, "avg min hops").unwrap();
        // On a 6×6 mesh the optimum span is exactly the paper's 2: the
        // closed-form hop counts are 70/18, 44/18, 46/18, 52/18 per
        // dimension-pair for spans 1..4 — larger spans overshoot short
        // distances and pay d mod s regular hops.
        assert!(hops("span 2") < hops("span 1 (mesh)"));
        assert!(hops("span 2") < hops("span 3"), "span 2 is the 6x6 optimum");
        assert!(hops("span 3") < hops("span 4"));
        assert!(hops("span 4") < hops("span 1 (mesh)"));
        // Latency: span 2 clearly beats the plain mesh at low load.
        let lat = |g: &str| fig.value(g, "latency (cy)").unwrap();
        assert!(lat("span 2") < lat("span 1 (mesh)"));
    }

    #[test]
    fn buffer_ablation_shows_paper_point_is_reasonable() {
        let fig = ablate_buffers(0.10, quick_sim_config());
        let v24 = fig.value("V=2", "k=4 lat").unwrap();
        assert!(v24.is_finite(), "the paper's operating point must not saturate");
        // More buffering at the same VC count never hurts latency much
        // below saturation.
        let v28 = fig.value("V=2", "k=8 lat").unwrap();
        assert!(v28 <= v24 * 1.1);
        // Deeper buffers run at lower relative utilisation.
        let u24 = fig.value("V=2", "k=4 util%").unwrap();
        let u28 = fig.value("V=2", "k=8 util%").unwrap();
        assert!(u24 > 0.0 && u24 < 100.0);
        assert!(u28 < u24, "doubling depth must lower relative occupancy");
    }
}

/// The routing ablation's routers: deterministic X-Y, then every turn
/// model.
fn routing_routers() -> Vec<(String, Option<TurnModel>)> {
    let turn_models = TurnModel::ALL.iter().map(|m| (m.name().to_string(), Some(*m)));
    std::iter::once(("x-y".to_string(), None)).chain(turn_models).collect()
}

/// The routing ablation's adversarial traffic patterns.
fn routing_patterns() -> [(&'static str, Pattern); 2] {
    let hotspots = vec![mira_noc::ids::NodeId(14), mira_noc::ids::NodeId(21)];
    [
        ("transpose", Pattern::Transpose { side: 6 }),
        ("hotspot", Pattern::Hotspot { hotspots, fraction: 0.3 }),
    ]
}

/// The routing ablation's runs as runner points: one per (router,
/// pattern), router-major, on the 3DM substrate.
pub fn ablate_routing_points(rate: f64, sim: SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for (rname, model) in routing_routers() {
        for (pname, pattern) in routing_patterns() {
            points.push(SimPoint::new(format!("{rname} on {pname}"), EXPERIMENT_SEED, move |s| {
                let mesh = Mesh2D::with_pitch(6, 6, Mesh2D::PITCH_3DM_MM);
                let topo: Box<dyn mira_noc::topology::Topology> = match model {
                    None => Box::new(mesh),
                    Some(m) => Box::new(AdaptiveMesh2D::new(mesh, m)),
                };
                let cfg = Arch::ThreeDM.network_config(false);
                let workload = PermutationTraffic::new(pattern.clone(), rate, 5, s);
                run_custom(Arch::ThreeDM, topo, cfg, Box::new(workload), sim)
            }));
        }
    }
    points
}

/// Routing-algorithm ablation (extension): deterministic X-Y vs the
/// turn-model adaptive routers on adversarial traffic (transpose and
/// hotspot), on the 3DM substrate, over the results of
/// [`ablate_routing_points`].
pub fn ablate_routing_from(results: &[RunResult]) -> BarFigure {
    let patterns = routing_patterns();
    let groups = routing_routers().into_iter().zip(results.chunks(patterns.len())).map(
        |((rname, _), runs)| {
            let lat = |r: &RunResult| {
                if r.report.saturated {
                    f64::NAN
                } else {
                    r.report.avg_latency
                }
            };
            (rname, runs.iter().map(lat).collect())
        },
    );
    BarFigure {
        id: "abl-routing".into(),
        title: "Routing-algorithm ablation on adversarial traffic (3DM mesh)".into(),
        group_label: "router".into(),
        bar_labels: patterns.iter().map(|(n, _)| n.to_string()).collect(),
        groups: groups.collect(),
        unit: "cycles (NaN = saturated)".into(),
    }
}

/// [`ablate_routing_points`] run on the process runner, then
/// [`ablate_routing_from`].
pub fn ablate_routing(rate: f64, sim: SimConfig) -> BarFigure {
    ablate_routing_from(&Runner::from_env().run(ablate_routing_points(rate, sim)).into_results())
}

#[cfg(test)]
mod routing_ablation_tests {
    use super::*;
    use crate::experiments::common::quick_sim_config;

    #[test]
    fn adaptive_routers_deliver_adversarial_traffic() {
        let fig = ablate_routing(0.10, quick_sim_config());
        for (router, values) in &fig.groups {
            for v in values {
                assert!(v.is_finite(), "{router} saturated at 10%: {values:?}");
                assert!(*v > 5.0, "{router}: implausible latency {v}");
            }
        }
    }

    #[test]
    fn adaptivity_helps_on_transpose() {
        // Transpose concentrates XY traffic on the diagonal; a turn-model
        // adaptive router spreads it and must not be significantly worse.
        let fig = ablate_routing(0.20, quick_sim_config());
        let xy = fig.value("x-y", "transpose").unwrap();
        let best_adaptive = mira_noc::adaptive::TurnModel::ALL
            .iter()
            .map(|m| fig.value(m.name(), "transpose").unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(best_adaptive < xy * 1.05, "best adaptive {best_adaptive:.1} vs x-y {xy:.1}");
    }
}
