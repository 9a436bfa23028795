//! Latency experiments (paper Fig. 11).

use mira_noc::sim::SimConfig;
use mira_nuca::cmp::{CmpConfig, CmpSystem};
use mira_traffic::nuca_ur::NucaBimodal;
use mira_traffic::trace::TraceReplay;
use mira_traffic::workloads::Application;

use crate::arch::Arch;
use crate::experiments::common::{
    arch_series, run_arch, run_sweep, RunResult, SweepPoint, EXPERIMENT_SEED,
};
use crate::experiments::runner::{derive_seed, RunSummary, Runner, SimPoint};
use crate::report::{BarFigure, Figure};

/// Fig. 11(a): average latency vs injection rate, uniform random.
///
/// Takes the shared UR sweep (see
/// [`sweep_ur_on`](crate::experiments::common::sweep_ur_on)) so the
/// same runs also feed Figs. 12(a) and 12(d).
pub fn fig11a(sweep: &[SweepPoint]) -> Figure {
    latency_figure("fig11a", "Average latency, uniform random traffic", "inj-rate", sweep)
}

/// Fig. 11(b): average latency under NUCA-UR request/response traffic,
/// over the per-CPU request rates of the shared NUCA-UR sweep (see
/// [`nuca_sweep_on`]), whose runs also feed Fig. 12(b).
pub fn fig11b(sweep: &[SweepPoint]) -> Figure {
    latency_figure("fig11b", "Average latency, NUCA-UR bimodal traffic", "req-rate", sweep)
}

/// The average-latency curves of a rate sweep, one series per
/// architecture.
fn latency_figure(id: &str, title: &str, x_label: &str, sweep: &[SweepPoint]) -> Figure {
    Figure {
        id: id.into(),
        title: title.into(),
        x_label: x_label.into(),
        y_label: "cycles".into(),
        series: arch_series(sweep, |p| p.result.report.avg_latency),
    }
}

/// Runs the NUCA-UR bimodal workload for one architecture at a per-CPU
/// request rate with an explicit seed.
pub fn run_nuca_ur(arch: Arch, request_rate: f64, seed: u64, sim_cfg: SimConfig) -> RunResult {
    let workload = NucaBimodal::new(arch.cpu_nodes(), arch.cache_nodes(), request_rate, seed);
    run_arch(arch, false, Box::new(workload), sim_cfg)
}

/// One NUCA-UR point ([`run_nuca_ur`]) at a given seed.
pub(crate) fn nuca_point(arch: Arch, request_rate: f64, seed: u64, sim_cfg: SimConfig) -> SimPoint {
    SimPoint::new(format!("nuca {arch} @ {request_rate}"), seed, move |s| {
        run_nuca_ur(arch, request_rate, s, sim_cfg)
    })
}

/// The NUCA-UR sweep over per-CPU `request_rates` as runner points, for
/// every architecture (the shared substrate of Figs. 11(b) and 12(b)).
///
/// Rate-major like
/// [`sweep_ur_points`](crate::experiments::common::sweep_ur_points):
/// seeds derive per rate and are shared across architectures (paired
/// comparisons).
pub fn nuca_sweep_points(request_rates: &[f64], sim_cfg: SimConfig) -> Vec<SimPoint> {
    let points = request_rates.iter().enumerate().flat_map(|(ri, &rate)| {
        let seed = derive_seed(EXPERIMENT_SEED, ri as u64);
        Arch::ALL.map(|arch| nuca_point(arch, rate, seed, sim_cfg))
    });
    points.collect()
}

/// Runs [`nuca_sweep_points`] on an explicit runner; returns the sweep
/// plus the batch summary.
pub fn nuca_sweep_on(
    runner: &Runner,
    request_rates: &[f64],
    sim_cfg: SimConfig,
) -> (Vec<SweepPoint>, RunSummary) {
    run_sweep(runner, request_rates, nuca_sweep_points(request_rates, sim_cfg))
}

/// Fig. 11(b) on an explicit runner: the NUCA-UR sweep, then
/// [`fig11b`]; returns the batch summary too.
pub fn fig11b_on(
    runner: &Runner,
    request_rates: &[f64],
    sim_cfg: SimConfig,
) -> (Figure, RunSummary) {
    let (sweep, summary) = nuca_sweep_on(runner, request_rates, sim_cfg);
    (fig11b(&sweep), summary)
}

/// Generates (and rate-calibrates) an application trace mapped onto one
/// architecture's node layout. The protocol event sequence is
/// seed-deterministic, so every architecture replays the *same logical
/// trace* on its own placement — the paper's methodology.
pub fn app_trace(
    app: Application,
    arch: Arch,
    cycles: u64,
) -> Vec<mira_traffic::trace::TraceRecord> {
    app_trace_prefix(app, arch, cycles, cycles)
}

/// The first `until` cycles of [`app_trace`]`(app, arch, cycles)`: the
/// same calibration pilot, then generation stops at
/// `min(cycles, until)`. A record is never earlier than the cycle that
/// generated it and the sort is stable, so every record below the stop
/// equals the full trace's, in the same order.
pub fn app_trace_prefix(
    app: Application,
    arch: Arch,
    cycles: u64,
    until: u64,
) -> Vec<mira_traffic::trace::TraceRecord> {
    let mut sys = CmpSystem::new(CmpConfig::for_app(
        app,
        arch.cpu_nodes(),
        arch.cache_nodes(),
        EXPERIMENT_SEED,
    ));
    sys.calibrate_rate(app.profile().offered_load, 36, cycles.min(10_000));
    sys.generate_trace(cycles.min(until))
}

/// Runs one application trace on one architecture. The simulator asks
/// the workload for packets only before the end of measurement, so only
/// that prefix of the trace is generated.
pub fn run_trace(
    app: Application,
    arch: Arch,
    shutdown: bool,
    cycles: u64,
    sim_cfg: SimConfig,
) -> RunResult {
    let replayed = sim_cfg.warmup_cycles + sim_cfg.measure_cycles;
    let trace = app_trace_prefix(app, arch, cycles, replayed);
    run_arch(arch, shutdown, Box::new(TraceReplay::new(trace)), sim_cfg)
}

/// One trace-replay point ([`run_trace`]).
///
/// Trace points pin [`EXPERIMENT_SEED`] rather than deriving per-point
/// seeds: every architecture must replay the *same logical trace* for
/// the normalised comparison to be apples-to-apples (the paper's
/// methodology; see [`app_trace`]). Labels name the shutdown setting,
/// so the Fig. 11(c) and Fig. 12(c) batches never share a results-store
/// identity.
pub(crate) fn trace_point(
    app: Application,
    arch: Arch,
    shutdown: bool,
    cycles: u64,
    sim_cfg: SimConfig,
) -> SimPoint {
    let gated = if shutdown { " (shutdown)" } else { "" };
    SimPoint::new(format!("trace {} on {arch}{gated}", app.name()), EXPERIMENT_SEED, move |_| {
        run_trace(app, arch, shutdown, cycles, sim_cfg)
    })
}

/// The MP-trace batch as runner points, app-major over `Arch::ALL`;
/// with `shutdown_multilayer`, layer shutdown is on for the
/// multi-layered designs.
pub fn trace_points(
    apps: &[Application],
    shutdown_multilayer: bool,
    cycles: u64,
    sim_cfg: SimConfig,
) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for &app in apps {
        for arch in Arch::ALL {
            let shutdown = shutdown_multilayer && arch.paper_arch().is_multilayer();
            points.push(trace_point(app, arch, shutdown, cycles, sim_cfg));
        }
    }
    points
}

/// Groups an app-major trace batch into per-app bars normalised to the
/// 2DB entry.
pub(crate) fn trace_groups(
    apps: &[Application],
    results: &[RunResult],
    metric: impl Fn(&RunResult) -> f64,
) -> Vec<(String, Vec<f64>)> {
    let n = Arch::ALL.len();
    let base_idx = Arch::ALL.iter().position(|&a| a == Arch::TwoDB).expect("2DB listed");
    apps.iter()
        .enumerate()
        .map(|(ai, app)| {
            let slice = &results[ai * n..(ai + 1) * n];
            let base = metric(&slice[base_idx]);
            (app.name().to_string(), slice.iter().map(|r| metric(r) / base).collect())
        })
        .collect()
}

/// Fig. 11(c): MP-trace latency normalised to 2DB, over the results of
/// `trace_points(apps, false, ..)`.
pub fn fig11c_from(apps: &[Application], results: &[RunResult]) -> BarFigure {
    BarFigure {
        id: "fig11c".into(),
        title: "MP-trace latency normalised to 2DB".into(),
        group_label: "application".into(),
        bar_labels: Arch::ALL.iter().map(|a| a.name().to_string()).collect(),
        groups: trace_groups(apps, results, |r| r.report.avg_latency),
        unit: "normalised latency".into(),
    }
}

/// Fig. 11(c) on an explicit runner; returns the batch summary too.
pub fn fig11c_on(
    runner: &Runner,
    apps: &[Application],
    cycles: u64,
    sim_cfg: SimConfig,
) -> (BarFigure, RunSummary) {
    let (results, summary) = runner.run(trace_points(apps, false, cycles, sim_cfg)).into_parts();
    (fig11c_from(apps, &results), summary)
}

/// Fig. 11(d)'s NUCA-UR and MP-trace columns as runner points: one
/// NUCA-UR point per hardware architecture, then one `trace_app`
/// replay each. All share the experiment seed (one logical workload per
/// column, replayed on every layout).
pub fn fig11d_points(
    nuca_rate: f64,
    trace_app: Application,
    cycles: u64,
    sim_cfg: SimConfig,
) -> Vec<SimPoint> {
    let nuca = Arch::HARDWARE.map(|a| nuca_point(a, nuca_rate, EXPERIMENT_SEED, sim_cfg));
    let trace = Arch::HARDWARE.map(|a| trace_point(trace_app, a, false, cycles, sim_cfg));
    nuca.into_iter().chain(trace).collect()
}

/// Fig. 11(d): average hop counts, the UR column from `sweep` at its
/// lowest rate, the other two from the results of [`fig11d_points`].
pub fn fig11d_from(sweep: &[SweepPoint], results: &[RunResult]) -> BarFigure {
    let archs = Arch::HARDWARE;
    let min_rate = sweep.iter().map(|p| p.rate).fold(f64::INFINITY, f64::min);
    let ur = archs.map(|a| {
        let at_min = sweep.iter().find(|p| p.arch == a && (p.rate - min_rate).abs() < 1e-9);
        at_min.map_or(f64::NAN, |p| p.result.report.avg_hops)
    });
    let hops: Vec<f64> = results.iter().map(|r| r.report.avg_hops).collect();
    BarFigure {
        id: "fig11d".into(),
        title: "Average hop count".into(),
        group_label: "traffic".into(),
        bar_labels: archs.iter().map(|a| a.name().to_string()).collect(),
        groups: vec![
            ("UR".to_string(), ur.to_vec()),
            ("NUCA-UR".to_string(), hops[..archs.len()].to_vec()),
            ("MP-trace".to_string(), hops[archs.len()..].to_vec()),
        ],
        unit: "hops".into(),
    }
}

/// Fig. 11(d) on an explicit runner: the NUCA and trace columns are
/// fresh simulation points ([`fig11d_points`]), fanned out as a single
/// batch; the UR column reuses the shared sweep.
pub fn fig11d_on(
    runner: &Runner,
    sweep: &[SweepPoint],
    nuca_rate: f64,
    trace_app: Application,
    cycles: u64,
    sim_cfg: SimConfig,
) -> (BarFigure, RunSummary) {
    let points = fig11d_points(nuca_rate, trace_app, cycles, sim_cfg);
    let (results, summary) = runner.run(points).into_parts();
    (fig11d_from(sweep, &results), summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::{quick_sim_config, sweep_ur_on};

    #[test]
    fn trace_prefix_is_the_full_trace_below_its_stop() {
        // 12k cycles: the pilot runs its full 10k cycles in both calls.
        let (cycles, until) = (12_000, 3_000);
        let full = app_trace(Application::Multimedia, Arch::ThreeDM, cycles);
        let prefix = app_trace_prefix(Application::Multimedia, Arch::ThreeDM, cycles, until);
        let below = full.iter().take_while(|r| r.cycle < until).count();
        assert!(below > 0 && prefix.len() < full.len(), "{below} of {}", full.len());
        assert_eq!(prefix[..below], full[..below]);
        assert!(prefix[below..].iter().all(|r| r.cycle >= until));
    }

    #[test]
    fn fig11a_has_six_series() {
        let sweep = sweep_ur_on(&Runner::from_env(), &[0.05], 0.0, quick_sim_config()).0;
        let fig = fig11a(&sweep);
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert_eq!(s.points.len(), 1);
            assert!(s.points[0].y > 5.0);
        }
    }

    #[test]
    fn nuca_ur_penalises_3db() {
        // Fig. 11(b)/(d): under NUCA-constrained traffic the 3DB layout
        // (CPUs on the top layer) raises the hop count above its UR
        // value, while the 6×6 layouts stay put.
        let cfg = quick_sim_config();
        let r3db = run_nuca_ur(Arch::ThreeDB, 0.05, EXPERIMENT_SEED, cfg);
        let r2db = run_nuca_ur(Arch::TwoDB, 0.05, EXPERIMENT_SEED, cfg);
        assert!(
            r3db.report.avg_hops > 3.0,
            "3DB NUCA hops {} must exceed its UR average ≈3.1",
            r3db.report.avg_hops
        );
        // 2DB's central CPU placement keeps NUCA hops close to 4.
        assert!(r2db.report.avg_hops < 4.2, "{}", r2db.report.avg_hops);
    }

    #[test]
    fn trace_replay_runs_on_all_archs() {
        let cfg = quick_sim_config();
        for arch in [Arch::TwoDB, Arch::ThreeDB, Arch::ThreeDME] {
            let r = run_trace(Application::Multimedia, arch, false, 3_000, cfg);
            assert!(r.report.packets_ejected > 0, "{arch}");
        }
    }

    #[test]
    fn fig11d_hop_ordering() {
        let runner = Runner::from_env();
        let sweep = sweep_ur_on(&runner, &[0.03], 0.0, quick_sim_config()).0;
        let fig =
            fig11d_on(&runner, &sweep, 0.04, Application::Multimedia, 3_000, quick_sim_config()).0;
        // UR hop counts: 3DM-E < 3DB < 2DB ≈ 3DM (paper Fig. 11(d)).
        let ur = |a: &str| fig.value("UR", a).expect("bar exists");
        assert!(ur("3DM-E") < ur("3DB"));
        assert!(ur("3DB") < ur("2DB"));
        assert!((ur("2DB") - ur("3DM")).abs() < 0.2);
    }

    /// Figs. 11(b) and 12(b) render one NUCA-UR batch: each renderer
    /// over the shared sweep prints what its own sweep-then-render
    /// entry point prints.
    #[test]
    fn nuca_figures_share_one_sweep() {
        use crate::experiments::power::{fig12b, fig12b_on};
        let (runner, cfg) = (Runner::with_jobs(2), quick_sim_config());
        let (sweep, summary) = nuca_sweep_on(&runner, &[0.05], cfg);
        assert_eq!(summary.points, Arch::ALL.len());
        assert_eq!(fig11b(&sweep).to_text(), fig11b_on(&runner, &[0.05], cfg).0.to_text());
        assert_eq!(fig12b(&sweep).to_text(), fig12b_on(&runner, &[0.05], cfg).0.to_text());
    }
}

/// The tail-latency runs as runner points: one UR point per
/// architecture at `rate`, all on the experiment seed.
pub fn tail_points(rate: f64, sim_cfg: SimConfig) -> Vec<SimPoint> {
    ur_runs("tail", rate, sim_cfg)
}

/// One plain UR point per architecture at `rate` on the experiment
/// seed, labelled `"{tag} {arch} @ {rate}"`.
fn ur_runs(tag: &str, rate: f64, sim_cfg: SimConfig) -> Vec<SimPoint> {
    use mira_noc::traffic::UniformRandom;
    let point = |arch: Arch| {
        SimPoint::new(format!("{tag} {arch} @ {rate}"), EXPERIMENT_SEED, move |s| {
            run_arch(arch, false, Box::new(UniformRandom::new(rate, 5, s)), sim_cfg)
        })
    };
    Arch::ALL.map(point).into()
}

/// Tail-latency extension: p50/p95/p99/p99.9 per architecture under UR
/// traffic at one load (the mean the paper plots hides the tail the
/// express channels flatten), over the results of [`tail_points`].
pub fn tail_latency_from(rate: f64, results: &[RunResult]) -> BarFigure {
    let groups = results
        .iter()
        .map(|r| {
            let h = &r.report.histogram;
            let bars = [h.p50(), h.p95(), h.p99(), h.p999()];
            (r.arch.name().to_string(), bars.map(|p| p.unwrap_or(0) as f64).to_vec())
        })
        .collect();
    BarFigure {
        id: "ext-tail-latency".into(),
        title: format!("Tail latency, uniform random at {rate} flits/node/cycle"),
        group_label: "architecture".into(),
        bar_labels: vec!["p50".into(), "p95".into(), "p99".into(), "p99.9".into()],
        groups,
        unit: "cycles".into(),
    }
}

/// [`tail_points`] run on the process runner, then
/// [`tail_latency_from`].
pub fn tail_latency(rate: f64, sim_cfg: SimConfig) -> BarFigure {
    tail_latency_from(rate, &Runner::from_env().run(tail_points(rate, sim_cfg)).into_results())
}

/// One architecture's journey-based tail attribution.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ArchAttribution {
    /// Architecture name.
    pub arch: String,
    /// The tail-attribution report over sampled journeys.
    pub report: mira_noc::JourneyReport,
}

/// Tail-latency *attribution* extension: where packets in each latency
/// bucket spend their cycles, per architecture, from sampled packet
/// journeys.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TailAttribution {
    /// Offered load of the runs, flits/node/cycle.
    pub rate: f64,
    /// Per-architecture attribution reports, in [`Arch::ALL`] order.
    pub archs: Vec<ArchAttribution>,
}

impl TailAttribution {
    /// Renders the attribution as a table: one row per (architecture,
    /// bucket) with the dominant component and the top of the
    /// per-component breakdown.
    pub fn to_text(&self) -> String {
        let mut table = crate::report::TextTable {
            id: "ext-tail-attribution".into(),
            title: format!(
                "Tail-latency attribution, uniform random at {} flits/node/cycle",
                self.rate
            ),
            headers: vec![
                "arch".into(),
                "bucket".into(),
                "packets".into(),
                "mean cycles".into(),
                "dominant".into(),
                "breakdown".into(),
            ],
            rows: Vec::new(),
        };
        for a in &self.archs {
            for b in &a.report.buckets {
                let (dom, dom_cycles) = b.mean.dominant();
                let total = b.mean.total().max(f64::MIN_POSITIVE);
                let mut parts: Vec<(&str, f64)> = b.mean.parts().to_vec();
                parts.sort_by(|x, y| y.1.total_cmp(&x.1));
                let breakdown = parts
                    .iter()
                    .take(3)
                    .filter(|(_, v)| *v > 0.0)
                    .map(|(name, v)| format!("{name} {:.0}%", v / total * 100.0))
                    .collect::<Vec<_>>()
                    .join(", ");
                table.rows.push(vec![
                    a.arch.clone(),
                    b.label.clone(),
                    b.count.to_string(),
                    format!("{:.1}", b.mean_latency),
                    format!("{dom} ({:.0}%)", dom_cycles / total * 100.0),
                    breakdown,
                ]);
            }
        }
        table.to_text()
    }
}

/// The attribution runs as runner points: the UR tail runs with journey
/// sampling at `sample_ppm` (clamped to 1..=1e6). They are separate
/// from [`tail_points`] so enabling sampling never perturbs the
/// published percentile bars.
pub fn attribution_points(rate: f64, sample_ppm: u32, sim_cfg: SimConfig) -> Vec<SimPoint> {
    let sim_cfg = sim_cfg.with_telemetry(sim_cfg.telemetry.with_journeys(sample_ppm.max(1)));
    ur_runs("attr", rate, sim_cfg)
}

/// Aggregates each architecture's sampled journeys from the results of
/// [`attribution_points`] into its attribution report.
pub fn tail_attribution_from(rate: f64, results: Vec<RunResult>) -> TailAttribution {
    let archs = results.into_iter().map(|r| ArchAttribution {
        arch: r.arch.name().to_string(),
        report: r.report.journeys.expect("journey sampling enabled"),
    });
    TailAttribution { rate, archs: archs.collect() }
}

#[cfg(test)]
mod tail_tests {
    use super::*;
    use crate::experiments::common::quick_sim_config;

    #[test]
    fn tails_are_ordered_and_sane() {
        let fig = tail_latency(0.10, quick_sim_config());
        for arch in Arch::ALL {
            let p50 = fig.value(arch.name(), "p50").unwrap();
            let p95 = fig.value(arch.name(), "p95").unwrap();
            let p99 = fig.value(arch.name(), "p99").unwrap();
            let p999 = fig.value(arch.name(), "p99.9").unwrap();
            assert!(
                p50 > 0.0 && p50 <= p95 && p95 <= p99 && p99 <= p999,
                "{arch}: {p50} {p95} {p99} {p999}"
            );
        }
        // The express design flattens the tail relative to 2DB.
        let e99 = fig.value("3DM-E", "p99").unwrap();
        let b99 = fig.value("2DB", "p99").unwrap();
        assert!(e99 < b99, "3DM-E p99 {e99} vs 2DB {b99}");
    }

    #[test]
    fn attribution_accounts_for_bucket_means() {
        let points = attribution_points(0.10, 1_000_000, quick_sim_config());
        let attr = tail_attribution_from(0.10, Runner::from_env().run(points).into_results());
        assert_eq!(attr.archs.len(), Arch::ALL.len());
        for a in &attr.archs {
            assert_eq!(a.report.sample_ppm, 1_000_000);
            assert!(a.report.sampled > 0, "{}: sampled journeys", a.arch);
            assert_eq!(a.report.buckets.len(), 4, "{}: p50/p95/p99/p99.9", a.arch);
            for b in &a.report.buckets {
                assert!(b.count > 0, "{} {}", a.arch, b.label);
                // The per-component means sum to the bucket's mean
                // latency: every cycle of every sampled packet is
                // attributed somewhere.
                assert!(
                    (b.mean.total() - b.mean_latency).abs() < 1e-6,
                    "{} {}: {} vs {}",
                    a.arch,
                    b.label,
                    b.mean.total(),
                    b.mean_latency
                );
            }
        }
        let text = attr.to_text();
        assert!(text.contains("p99.9"), "table lists the deepest bucket:\n{text}");
    }
}
