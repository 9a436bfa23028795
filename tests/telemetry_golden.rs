//! Golden determinism guard for the telemetry seam (DESIGN.md §11).
//!
//! The telemetry subsystem is purely observational: with every
//! consumer off (the default) the simulator must produce bit-identical
//! results to the pre-telemetry build. The `EXPECTED` bits below were
//! captured on the commit immediately before telemetry landed, with the
//! exact recipe in [`run_point`]; any drift means an instrumentation
//! hook leaked into the simulated behaviour. With the consumers on, the
//! trace ring's event stream and the windows and journeys fed alongside
//! it are pinned too ([`trace_stream_is_pinned`]).

use mira::arch::Arch;
use mira::experiments::common::{run_arch, EXPERIMENT_SEED};
use mira::experiments::quick_sim_config;
use mira_noc::telemetry::TelemetryConfig;
use mira_noc::traffic::{PayloadProfile, UniformRandom};
use mira_noc::SimConfig;

/// One pinned run: architecture, load, short-flit fraction, and the
/// pre-telemetry golden observables (floats as IEEE-754 bit patterns).
struct Golden {
    name: &'static str,
    arch: Arch,
    rate: f64,
    short: f64,
    lat_bits: u64,
    hops_bits: u64,
    thr_bits: u64,
    pwr_bits: u64,
    created: u64,
    ejected: u64,
    xbar_raw: u64,
}

const EXPECTED: [Golden; 3] = [
    Golden {
        name: "2db_ur010",
        arch: Arch::TwoDB,
        rate: 0.10,
        short: 0.0,
        lat_bits: 0x4041e678108f868e,
        hops_bits: 0x40100dccf0211f0d,
        thr_bits: 0x3fba3b0342fa28cf,
        pwr_bits: 0x40100571615c4461,
        created: 1113,
        ejected: 1113,
        xbar_raw: 28226,
    },
    Golden {
        name: "3dm_ur010",
        arch: Arch::ThreeDM,
        rate: 0.10,
        short: 0.0,
        lat_bits: 0x403d0882a5257dd1,
        hops_bits: 0x40100dccf0211f0d,
        thr_bits: 0x3fba45ef76dc1f40,
        pwr_bits: 0x40055cd8e2c5b9fe,
        created: 1113,
        ejected: 1113,
        xbar_raw: 28183,
    },
    Golden {
        name: "3dme_ur020_short",
        arch: Arch::ThreeDME,
        rate: 0.20,
        short: 0.5,
        lat_bits: 0x40378e7b54166c61,
        hops_bits: 0x4003f2eb71fc4345,
        thr_bits: 0x3fc9e3064bb33ce9,
        pwr_bits: 0x4009fd493a040d1d,
        created: 2192,
        ejected: 2192,
        xbar_raw: 38666,
    },
];

/// Replays one golden point. `short > 0` enables the short-flit payload
/// profile and layer shutdown, matching how the power experiments drive
/// the 3D architectures.
fn run_point(g: &Golden, sim_cfg: SimConfig) -> mira::experiments::common::RunResult {
    let mut w = UniformRandom::new(g.rate, 5, EXPERIMENT_SEED);
    if g.short > 0.0 {
        w = w.with_payload(PayloadProfile::with_short_fraction(4, g.short));
    }
    run_arch(g.arch, g.short > 0.0, Box::new(w), sim_cfg)
}

fn check(g: &Golden, r: &mira::experiments::common::RunResult, label: &str) {
    assert_eq!(
        r.report.avg_latency.to_bits(),
        g.lat_bits,
        "{}/{label}: avg_latency drifted ({} != {})",
        g.name,
        r.report.avg_latency,
        f64::from_bits(g.lat_bits),
    );
    assert_eq!(r.report.avg_hops.to_bits(), g.hops_bits, "{}/{label}: avg_hops", g.name);
    assert_eq!(r.report.throughput.to_bits(), g.thr_bits, "{}/{label}: throughput", g.name);
    assert_eq!(r.avg_power_w.to_bits(), g.pwr_bits, "{}/{label}: avg_power_w", g.name);
    assert_eq!(r.report.packets_created, g.created, "{}/{label}: packets_created", g.name);
    assert_eq!(r.report.packets_ejected, g.ejected, "{}/{label}: packets_ejected", g.name);
    assert_eq!(
        r.report.counters.xbar_traversals_raw, g.xbar_raw,
        "{}/{label}: xbar_traversals_raw",
        g.name
    );
}

/// Default path (telemetry off, no metrics windows) reproduces the
/// pre-telemetry golden bits exactly.
#[test]
fn null_sink_is_bit_identical_to_pre_telemetry_build() {
    for g in &EXPECTED {
        let r = run_point(g, quick_sim_config());
        check(g, &r, "null-sink");
    }
}

/// Turning on metrics windows and event tracing changes nothing about
/// the simulated behaviour — same golden bits, counters included.
#[test]
fn enabled_telemetry_is_bit_identical_to_disabled() {
    for g in &EXPECTED {
        let traced_cfg = quick_sim_config().with_telemetry(TelemetryConfig {
            metrics_window: 500,
            trace_capacity: 1 << 14,
            journey_sample_ppm: 0,
            journey_seed: 0,
        });
        let traced = run_point(g, traced_cfg);
        check(g, &traced, "traced");
        assert!(!traced.report.windows.is_empty(), "{}: windows were collected", g.name);
        let plain = run_point(g, quick_sim_config());
        assert_eq!(plain.report.counters, traced.report.counters, "{}: counters", g.name);
        assert_eq!(plain.pdp.to_bits(), traced.pdp.to_bits(), "{}: pdp", g.name);
    }
}

/// A span-sample rate of zero leaves the journey recorder uninstalled:
/// the run reproduces the pre-journey golden bits exactly (the
/// `--span-sample-rate 0` acceptance criterion).
#[test]
fn zero_span_rate_is_bit_identical_to_pre_journey_build() {
    for g in &EXPECTED {
        let cfg = quick_sim_config().with_telemetry(TelemetryConfig::disabled().with_journeys(0));
        let r = run_point(g, cfg);
        check(g, &r, "span-rate-0");
    }
}

/// Arming the full anomaly-detector suite (DESIGN.md §17) changes
/// nothing on a healthy run: the recorder only reads fabric state, no
/// detector fires, and the pre-telemetry golden bits reproduce exactly,
/// counters included.
#[test]
fn armed_anomaly_recorder_is_bit_identical_to_disabled() {
    use mira::noc::anomaly::AnomalyConfig;
    for g in &EXPECTED {
        let armed = run_point(g, quick_sim_config().with_anomaly(AnomalyConfig::detect()));
        check(g, &armed, "anomaly-armed");
        assert_eq!(
            armed.report.anomalies.total(),
            0,
            "{}: no detector may fire on a healthy golden run",
            g.name
        );
        let plain = run_point(g, quick_sim_config());
        assert_eq!(plain.report.counters, armed.report.counters, "{}: counters", g.name);
        assert_eq!(plain.pdp.to_bits(), armed.pdp.to_bits(), "{}: pdp", g.name);
    }
}

/// The journey recorder is purely observational: sampling every packet
/// still reproduces the golden bits, counters included.
#[test]
fn journey_sampling_is_bit_identical_to_disabled() {
    for g in &EXPECTED {
        let cfg =
            quick_sim_config().with_telemetry(TelemetryConfig::disabled().with_journeys(1_000_000));
        let sampled = run_point(g, cfg);
        check(g, &sampled, "journeys");
        let plain = run_point(g, quick_sim_config());
        assert_eq!(plain.report.counters, sampled.report.counters, "{}: counters", g.name);
        assert!(
            sampled.report.journeys.as_ref().is_some_and(|j| j.sampled > 0),
            "{}: journeys were recorded",
            g.name
        );
    }
}

/// One pinned trace stream: the ring's retained length, its overwrite
/// count, the FNV-1a of the Chrome JSON export (journey flows
/// included), and the FNV-1a of the report's windows and journey
/// attribution fed alongside it.
struct TracePin {
    name: &'static str,
    arch: Arch,
    rate: f64,
    short: f64,
    faults: Option<mira::noc::fault::FaultConfig>,
    capacity: usize,
    len: usize,
    dropped: u64,
    json_fnv: u64,
    windows_fnv: u64,
    /// Event names the retained window must contain.
    kinds: &'static [&'static str],
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn trace_pins() -> [TracePin; 3] {
    // `golden_core`'s fault recipe: transients with a retry budget, a
    // killed link and rerouting (fault and retransmit events, the
    // `LinkFault` stall). Its kill severs nothing, so a harsher variant
    // (exhausted retries, random kills) pins the drop events too.
    let faults = mira::noc::fault::FaultConfig::disabled()
        .with_transient(2_000)
        .with_kill(14, 1, 400)
        .with_max_retries(4)
        .with_seed(EXPERIMENT_SEED);
    [
        TracePin {
            name: "3DM_ur030_short",
            arch: Arch::ThreeDM,
            rate: 0.30,
            short: 0.5,
            faults: None,
            // Wraps: pins the ring's drop-oldest order.
            capacity: 1 << 15,
            len: 32_768,
            dropped: 425_847,
            json_fnv: 0xd3c7_1415_a4ce_648e,
            windows_fnv: 0x079a_2082_43b4_ff3b,
            kinds: &["\"layer_gate\""],
        },
        TracePin {
            name: "2DB_ur010_faults",
            arch: Arch::TwoDB,
            rate: 0.10,
            short: 0.0,
            faults: Some(faults),
            // Holds the whole run: every fault event is retained.
            capacity: 1 << 18,
            len: 140_575,
            dropped: 0,
            json_fnv: 0xd707_8b3b_2cdd_a811,
            windows_fnv: 0x0161_3f79_65db_f0d1,
            kinds: &["\"fault\"", "\"retransmit\""],
        },
        TracePin {
            name: "2DB_ur010_drops",
            arch: Arch::TwoDB,
            rate: 0.10,
            short: 0.0,
            faults: Some(
                faults.with_transient(50_000).with_max_retries(1).with_random_kills(2, 800),
            ),
            capacity: 1 << 18,
            len: 143_375,
            dropped: 0,
            json_fnv: 0x901d_b543_e3b0_e658,
            windows_fnv: 0x802c_04f0_7e14_53bf,
            kinds: &["\"fault\"", "\"retransmit\"", "\"drop\""],
        },
    ]
}

/// The event trace itself is pinned, not just the simulated behaviour:
/// with windows, journeys and a wrapping trace ring all on, every
/// retained event (and the journey flows drawn over them) reproduces
/// exactly.
#[test]
fn trace_stream_is_pinned() {
    for p in &trace_pins() {
        let mut cfg = quick_sim_config().with_telemetry(TelemetryConfig {
            metrics_window: 500,
            trace_capacity: p.capacity,
            journey_sample_ppm: 250_000,
            journey_seed: 0,
        });
        if let Some(f) = p.faults {
            cfg = cfg.with_faults(f);
        }
        let mut w = UniformRandom::new(p.rate, 5, EXPERIMENT_SEED);
        if p.short > 0.0 {
            w = w.with_payload(PayloadProfile::with_short_fraction(4, p.short));
        }
        let mut sim =
            mira_noc::Simulator::new(p.arch.topology(), p.arch.network_config(p.short > 0.0), cfg);
        let report = sim.run(Box::new(w));
        assert!(!report.windows.is_empty() && !sim.journeys().is_empty(), "{}", p.name);
        let sink = sim.network().trace_sink().expect("trace ring installed");
        let json = sim.trace_chrome_json().expect("trace exported");
        let observed = serde_json::to_string(&(&report.windows, &report.journeys)).unwrap();
        let got = (sink.len(), sink.dropped(), fnv1a(json.as_bytes()), fnv1a(observed.as_bytes()));
        for kind in p.kinds {
            assert!(json.contains(&format!("\"name\":{kind}")), "{}: no {kind} event", p.name);
        }
        assert!(json.contains("\"cat\":\"journey\""), "{}: journey flows drawn", p.name);
        let want = (p.len, p.dropped, p.json_fnv, p.windows_fnv);
        assert_eq!(got, want, "{}: trace stream drifted", p.name);
    }
}
