//! Workload-characterisation exhibits (paper Figs. 1, 2, 13(a)).
//!
//! These regenerate the paper's motivation data from the synthesised
//! application traces: word-pattern breakdown, packet-type mix, and
//! short-flit percentages.

use mira_noc::packet::PacketClass;
use mira_nuca::cmp::{CmpConfig, CmpSystem, TraceStats};
use mira_traffic::workloads::Application;

use crate::arch::Arch;
use crate::experiments::common::EXPERIMENT_SEED;
use crate::report::BarFigure;

/// Generates the statistics of one application's trace (on the 2DB
/// layout; the statistics are layout-independent). The records are
/// counted as they are made; the trace is never held.
pub fn app_stats(app: Application, cycles: u64) -> TraceStats {
    let arch = Arch::TwoDB;
    let mut sys = CmpSystem::new(CmpConfig::for_app(
        app,
        arch.cpu_nodes(),
        arch.cache_nodes(),
        EXPERIMENT_SEED,
    ));
    sys.trace_stats(cycles)
}

/// Fig. 1: data-pattern breakdown (all-0 / all-1 / other words) of the
/// cache-line payloads per application.
pub fn fig1(apps: &[Application], cycles: u64) -> BarFigure {
    let mut groups = Vec::new();
    for &app in apps {
        let stats = app_stats(app, cycles);
        let (z, o, other) = stats.patterns.fractions();
        groups.push((app.name().to_string(), vec![z * 100.0, o * 100.0, other * 100.0]));
    }
    BarFigure {
        id: "fig1".into(),
        title: "Data pattern breakdown of cache-line words".into(),
        group_label: "application".into(),
        bar_labels: vec!["all-0".into(), "all-1".into(), "other".into()],
        groups,
        unit: "% of words".into(),
    }
}

/// Fig. 2: packet-type distribution per application.
pub fn fig2(apps: &[Application], cycles: u64) -> BarFigure {
    let mut groups = Vec::new();
    for &app in apps {
        let stats = app_stats(app, cycles);
        let total = stats.packets.max(1) as f64;
        let values = PacketClass::ALL
            .iter()
            .map(|c| stats.packets_per_class[c.table_index()] as f64 / total * 100.0)
            .collect();
        groups.push((app.name().to_string(), values));
    }
    BarFigure {
        id: "fig2".into(),
        title: "Packet type distribution".into(),
        group_label: "application".into(),
        bar_labels: PacketClass::ALL.iter().map(|c| c.name().to_string()).collect(),
        groups,
        unit: "% of packets".into(),
    }
}

/// Fig. 13(a): short-flit percentage (over data payload flits) per
/// application.
pub fn fig13a(apps: &[Application], cycles: u64) -> BarFigure {
    let mut groups = Vec::new();
    for &app in apps {
        let stats = app_stats(app, cycles);
        groups.push((app.name().to_string(), vec![stats.short_payload_fraction() * 100.0]));
    }
    BarFigure {
        id: "fig13a".into(),
        title: "Short flit percentage (data payload flits)".into(),
        group_label: "application".into(),
        bar_labels: vec!["short %".into()],
        groups,
        unit: "% of payload flits".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APPS: [Application; 3] =
        [Application::Tpcw, Application::Barnes, Application::Multimedia];

    #[test]
    fn fig1_fractions_sum_to_100() {
        let fig = fig1(&APPS, 5_000);
        for (app, values) in &fig.groups {
            let sum: f64 = values.iter().sum();
            assert!((sum - 100.0).abs() < 0.5, "{app}: {sum}");
        }
    }

    #[test]
    fn fig1_commercial_apps_have_more_zeros() {
        let fig = fig1(&APPS, 8_000);
        let tpcw = fig.value("tpcw", "all-0").unwrap();
        let mm = fig.value("multimedia", "all-0").unwrap();
        assert!(tpcw > mm + 20.0, "tpcw {tpcw:.1}% vs multimedia {mm:.1}%");
    }

    #[test]
    fn fig2_control_heavy() {
        let fig = fig2(&APPS, 8_000);
        for (app, values) in &fig.groups {
            let sum: f64 = values.iter().sum();
            assert!((sum - 100.0).abs() < 0.5, "{app}");
        }
        // Requests + invals + acks outnumber data responses.
        let read = fig.value("tpcw", "read-req").unwrap();
        assert!(read > 10.0);
    }

    #[test]
    fn fig13a_matches_profiles() {
        let fig = fig13a(&APPS, 8_000);
        for app in APPS {
            let got = fig.value(app.name(), "short %").unwrap();
            let want = app.profile().short_flit_fraction * 100.0;
            assert!((got - want).abs() < 6.0, "{app}: {got:.1}% vs {want:.1}%");
        }
    }
}
