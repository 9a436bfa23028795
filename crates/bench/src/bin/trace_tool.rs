//! Trace utility: synthesise an application trace to a JSON-lines file,
//! print the statistics of an existing trace file, render a per-router
//! congestion heatmap from a telemetry metrics dump, pretty-print one
//! sampled packet's journey from a `--journeys-out` dump, or render a
//! host-observability snapshot from `--obs-out` as a phase-profile
//! table.
//!
//! ```console
//! $ cargo run -p mira-bench --bin trace_tool -- generate tpcw /tmp/tpcw.jsonl
//! $ cargo run -p mira-bench --bin trace_tool -- stats /tmp/tpcw.jsonl
//! $ cargo run -p mira-bench --bin fig11a -- --quick --metrics-out /tmp/metrics.json
//! $ cargo run -p mira-bench --bin trace_tool -- netview /tmp/metrics.json
//! $ cargo run -p mira-bench --bin fig11a -- --quick --journeys-out /tmp/journeys.json
//! $ cargo run -p mira-bench --bin trace_tool -- journey /tmp/journeys.json 1234
//! $ cargo run -p mira-bench --bin fig11a -- --quick --obs-out /tmp/obs.json
//! $ cargo run -p mira-bench --bin trace_tool -- obs /tmp/obs.json
//! $ cargo run -p mira-bench --bin trace_tool -- blackbox results/blackbox/fig11a-p3.json
//! ```
use std::fs::File;
use std::io::{BufReader, BufWriter};

use mira::arch::Arch;
use mira::experiments::EXPERIMENT_SEED;
use mira::noc::recorder::{BlackBox, StuckPacket};
use mira::noc::telemetry::{render_heatmap, MetricsWindow};
use mira::noc::PacketJourney;
use mira::nuca::cmp::{CmpConfig, CmpSystem, TraceStats};
use mira::traffic::trace::{read_trace, TraceWriter};
use mira::traffic::workloads::Application;
use serde::Deserialize;

fn usage() -> ! {
    eprintln!("usage: trace_tool generate <app> <out.jsonl> [cycles] [--seed <u64>]");
    eprintln!("       trace_tool stats <in.jsonl>");
    eprintln!("       trace_tool netview <metrics.json> [window-index]");
    eprintln!("       trace_tool journey <journeys.json> [packet-id]");
    eprintln!("       trace_tool obs <obs.json>");
    eprintln!("       trace_tool blackbox <blackbox.json> [packet-id]");
    eprintln!("apps: {}", Application::ALL.map(|a| a.name()).join(" "));
    std::process::exit(2);
}

fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    usage()
}

/// Renders one metrics window as per-router text heatmaps (occupancy
/// and stall pressure).
fn netview(window: &MetricsWindow) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "window {} (cycles {}..{}), {} routers\n",
        window.index,
        window.start_cycle,
        window.end_cycle,
        window.routers.len()
    ));
    let occupancy: Vec<(usize, usize, f64)> =
        window.routers.iter().map(|r| (r.x, r.y, r.occupancy_mean)).collect();
    let span = (window.end_cycle - window.start_cycle).max(1) as f64;
    let stalls: Vec<(usize, usize, f64)> =
        window.routers.iter().map(|r| (r.x, r.y, r.stalls.stalled as f64 / span)).collect();
    let peak_occ = occupancy.iter().map(|c| c.2).fold(0.0_f64, f64::max);
    let peak_stall = stalls.iter().map(|c| c.2).fold(0.0_f64, f64::max);
    out.push_str(&format!("buffer occupancy (peak {peak_occ:.2} flits):\n"));
    out.push_str(&render_heatmap(&occupancy));
    out.push_str(&format!("stall pressure (peak {peak_stall:.2} stall-cycles/cycle):\n"));
    out.push_str(&render_heatmap(&stalls));
    out.push_str("scale: ' ' (idle) . : - = + * # % @ (peak)\n");
    out
}

/// Pretty-prints one packet's journey: the per-hop span table plus the
/// end-to-end decomposition that sums exactly to the latency.
fn journey_view(j: &PacketJourney) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "packet {} ({}, {}): created @{}, ejected @{}, latency {} cycles\n",
        j.packet,
        j.class.name(),
        if j.measured { "measured" } else { "unmeasured" },
        j.created_at,
        j.ejected_at,
        j.latency()
    ));
    out.push_str(&format!("  source queue : {:>6} cycles\n", j.source_queue));
    for (i, h) in j.hops.iter().enumerate() {
        if h.link_cycles + h.arq_cycles > 0 {
            out.push_str(&format!(
                "  wire         : {:>6} cycles{}\n",
                h.link_cycles + h.arq_cycles,
                if h.arq_cycles > 0 {
                    format!(" ({} nominal + {} ARQ replay)", h.link_cycles, h.arq_cycles)
                } else {
                    String::new()
                }
            ));
        }
        let mut causes = Vec::new();
        for (name, v) in [
            ("no-credit", h.stalls.no_credit),
            ("va-loss", h.stalls.va_loss),
            ("sa-loss", h.stalls.sa_loss),
            ("route-busy", h.stalls.route_busy),
            ("link-fault", h.stalls.link_fault),
        ] {
            if v > 0 {
                causes.push(format!("{name} {v}"));
            }
        }
        let stall_note = if causes.is_empty() {
            String::new()
        } else {
            format!(", stalls: {}", causes.join(", "))
        };
        let body_note = if h.body_stalls.stalled > 0 {
            format!(" [+{} body-flit stall cycles]", h.body_stalls.stalled)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  hop {i:<2} router {:<3}: in-port {} @{} -> out-port {} @{} \
             ({} cycles: {} pipeline{stall_note}){body_note}\n",
            h.router,
            h.in_port,
            h.arrived,
            h.out_port,
            h.departed,
            h.residency(),
            h.pipeline_cycles(),
        ));
    }
    out.push_str(&format!("  serialization: {:>6} cycles\n", j.serialization));
    out.push_str(&format!(
        "  span sum {} == latency {} (exact attribution)\n",
        j.span_sum(),
        j.latency()
    ));
    out
}

/// Renders one stuck packet, with its sampled hop history when the
/// journey recorder had it.
fn stuck_view(p: &StuckPacket) -> String {
    let mut out = format!(
        "  packet {:<8} {:<14} {:>3} -> {:<3} created @{}, age {} cycles, {} flits\n",
        p.packet, p.class, p.src, p.dst, p.created_at, p.age, p.len_flits
    );
    if let Some(j) = &p.journey {
        out.push_str(&format!("    source queue: {} cycles\n", j.source_queue));
        for (i, h) in j.hops.iter().enumerate() {
            if h.departed > 0 {
                out.push_str(&format!(
                    "    hop {i:<2} router {:<3}: in-port {} @{} -> out-port {} @{}\n",
                    h.router, h.in_port, h.arrived, h.out_port, h.departed
                ));
            } else {
                out.push_str(&format!(
                    "    hop {i:<2} router {:<3}: in-port {} @{} -> STUCK (head never \
                     traversed the switch)\n",
                    h.router, h.in_port, h.arrived
                ));
            }
        }
    }
    out
}

/// Renders a black-box dump: the trigger, every detector verdict, a
/// per-router occupancy heatmap with frozen/masked routers called out,
/// and the stuck-packet inventory.
fn blackbox_view(bb: &BlackBox) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "black box v{}: `{}` halted the run at cycle {}\n",
        bb.version, bb.trigger.kind, bb.cycle
    ));
    out.push_str(&format!("trigger: {}\n", bb.trigger.detail));
    out.push_str("detector firings:\n");
    out.push_str(&format!(
        "  {:<18} {:>10} {:>12} {:>12} {:>8}\n",
        "kind", "cycle", "observed", "threshold", "samples"
    ));
    for f in &bb.fired {
        out.push_str(&format!(
            "  {:<18} {:>10} {:>12} {:>12} {:>8}\n",
            f.kind, f.cycle, f.stats.observed, f.stats.threshold, f.stats.samples
        ));
    }
    let occupancy: Vec<(usize, usize, f64)> =
        bb.routers.iter().map(|r| (r.x as usize, r.y as usize, r.buffered as f64)).collect();
    let peak = occupancy.iter().map(|c| c.2).fold(0.0_f64, f64::max);
    out.push_str(&format!(
        "buffer occupancy at capture ({} routers, peak {peak:.0} flits):\n",
        bb.routers.len()
    ));
    out.push_str(&render_heatmap(&occupancy));
    out.push_str("scale: ' ' (idle) . : - = + * # % @ (peak)\n");
    let frozen: Vec<u64> = bb.routers.iter().filter(|r| r.sa_frozen).map(|r| r.router).collect();
    if !frozen.is_empty() {
        out.push_str(&format!("frozen switch allocators (chaos hook): {frozen:?}\n"));
    }
    let waiting: usize = bb.routers.iter().map(|r| r.waiting_mask.count_ones() as usize).sum();
    let active: usize = bb.routers.iter().map(|r| r.active_mask.count_ones() as usize).sum();
    out.push_str(&format!(
        "VC states: {} waiting for a VC, {} active; {} flits live in the arena\n",
        waiting,
        active,
        bb.arena.len()
    ));
    let wire_flits: u64 = bb.links.iter().map(|l| l.flits).sum();
    let wire_credits: u64 = bb.links.iter().map(|l| l.credits).sum();
    out.push_str(&format!(
        "links: {} non-quiet ({wire_flits} flits, {wire_credits} credit returns in flight)\n",
        bb.links.len()
    ));
    out.push_str(&format!(
        "event ring: {} events captured, {} dropped\n",
        bb.events.len(),
        bb.events_dropped
    ));
    out.push_str(&format!("stuck packets ({}):\n", bb.stuck_packets.len()));
    for p in bb.stuck_packets.iter().take(20) {
        out.push_str(&stuck_view(p));
    }
    if bb.stuck_packets.len() > 20 {
        out.push_str(&format!(
            "  ... {} more (pass a packet id to inspect one)\n",
            bb.stuck_packets.len() - 20
        ));
    }
    out
}

/// Renders an `--obs-out` snapshot: build line, the phase profile as a
/// table (share of `step_total` per phase), coverage, and the metrics.
fn obs_view(snap: &mira_obs::ObsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "build {} ({}, {})\n",
        snap.build.git_rev, snap.build.profile, snap.build.rustc
    ));
    let step_nanos = snap.phases.iter().find(|p| p.phase == "step_total").map_or(0, |p| p.nanos);
    out.push_str(&format!(
        "{:<16} {:>12} {:>14} {:>10} {:>8}\n",
        "phase", "calls", "nanos", "ns/call", "% step"
    ));
    for p in &snap.phases {
        if p.calls == 0 {
            continue;
        }
        let per_call = p.nanos / p.calls.max(1);
        let share = if step_nanos > 0 {
            format!("{:>7.1}%", p.nanos as f64 / step_nanos as f64 * 100.0)
        } else {
            format!("{:>8}", "-")
        };
        out.push_str(&format!(
            "{:<16} {:>12} {:>14} {:>10} {share}\n",
            p.phase, p.calls, p.nanos, per_call
        ));
    }
    match snap.coverage {
        Some(cov) => out.push_str(&format!(
            "step coverage: {:.1}% of step_total attributed to tiled sections\n",
            cov * 100.0
        )),
        None => out.push_str("step coverage: no profiled steps\n"),
    }
    out
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate") => {
            let (Some(app_name), Some(path)) = (args.get(1), args.get(2)) else { usage() };
            // Optional trailing arguments: a cycle count and a seed
            // override.
            let mut cycles: u64 = 30_000;
            let mut seed: u64 = EXPERIMENT_SEED;
            let mut rest = args[3..].iter();
            while let Some(arg) = rest.next() {
                if arg == "--seed" {
                    let v =
                        rest.next().unwrap_or_else(|| usage_error("--seed needs a value".into()));
                    seed = v.parse().unwrap_or_else(|_| usage_error(format!("invalid seed {v:?}")));
                } else {
                    cycles = arg
                        .parse()
                        .unwrap_or_else(|_| usage_error(format!("invalid cycle count {arg:?}")));
                }
            }
            let app = Application::ALL
                .into_iter()
                .find(|a| a.name() == app_name)
                .unwrap_or_else(|| usage_error(format!("unknown app {app_name:?}")));
            let arch = Arch::TwoDB;
            let mut sys =
                CmpSystem::new(CmpConfig::for_app(app, arch.cpu_nodes(), arch.cache_nodes(), seed));
            sys.calibrate_rate(app.profile().offered_load, 36, 10_000);
            let trace = sys.generate_trace(cycles);
            let mut w = TraceWriter::new(BufWriter::new(File::create(path)?));
            for rec in &trace {
                w.write(rec)?;
            }
            let n = w.records_written();
            w.finish()?;
            println!("wrote {n} packets over {cycles} cycles to {path} (seed {seed})");
            Ok(())
        }
        Some("stats") => {
            let Some(path) = args.get(1) else { usage() };
            let trace = read_trace(BufReader::new(File::open(path)?))?;
            let span = trace.last().map_or(0, |r| r.cycle + 1);
            let stats = TraceStats::from_trace(&trace, span);
            println!("{} packets, {} flits, span {span} cycles", stats.packets, stats.flits);
            println!("control fraction : {:.1}%", stats.control_fraction() * 100.0);
            println!("short payload    : {:.1}%", stats.short_payload_fraction() * 100.0);
            println!("short (all flits): {:.1}%", stats.short_total_fraction() * 100.0);
            let (z, o, other) = stats.patterns.fractions();
            println!("word patterns    : {z:.3} all-0, {o:.3} all-1, {other:.3} other");
            Ok(())
        }
        Some("netview") => {
            let Some(path) = args.get(1) else { usage() };
            let text = std::fs::read_to_string(path)?;
            let value: serde::Value = serde_json::from_str(&text)
                .unwrap_or_else(|e| usage_error(format!("{path} is not valid JSON: {e:?}")));
            // Accept either a full `--metrics-out` dump (object with a
            // "windows" array) or a bare array of windows.
            let windows_value = match value.field("windows") {
                serde::Value::Null => &value,
                w => w,
            };
            let Ok(items) = windows_value.as_array() else {
                usage_error(format!("{path} holds no metrics windows"))
            };
            let windows: Vec<MetricsWindow> = items
                .iter()
                .map(|v| {
                    MetricsWindow::from_value(v).unwrap_or_else(|e| {
                        usage_error(format!("bad metrics window in {path}: {e:?}"))
                    })
                })
                .collect();
            if windows.is_empty() {
                usage_error(format!("{path} holds no metrics windows"));
            }
            let index: usize = match args.get(2) {
                Some(s) => {
                    s.parse().unwrap_or_else(|_| usage_error(format!("invalid window index {s:?}")))
                }
                // Default to the busiest mid-run window: the last one is
                // often a partial drain-phase window.
                None => windows.len() / 2,
            };
            let Some(window) = windows.get(index) else {
                usage_error(format!("window index {index} out of range 0..{}", windows.len()))
            };
            print!("{}", netview(window));
            Ok(())
        }
        Some("journey") => {
            let Some(path) = args.get(1) else { usage() };
            let text = std::fs::read_to_string(path)?;
            let value: serde::Value = serde_json::from_str(&text)
                .unwrap_or_else(|e| usage_error(format!("{path} is not valid JSON: {e:?}")));
            // Accept either a full `--journeys-out` dump (object with a
            // "journeys" array) or a bare array of journeys.
            let journeys_value = match value.field("journeys") {
                serde::Value::Null => &value,
                w => w,
            };
            let Ok(items) = journeys_value.as_array() else {
                usage_error(format!("{path} holds no journeys"))
            };
            let journeys: Vec<PacketJourney> = items
                .iter()
                .map(|v| {
                    PacketJourney::from_value(v)
                        .unwrap_or_else(|e| usage_error(format!("bad journey in {path}: {e:?}")))
                })
                .collect();
            if journeys.is_empty() {
                usage_error(format!("{path} holds no journeys"));
            }
            match args.get(2) {
                Some(s) => {
                    let id: u64 = s
                        .parse()
                        .unwrap_or_else(|_| usage_error(format!("invalid packet id {s:?}")));
                    let Some(j) = journeys.iter().find(|j| j.packet == id) else {
                        usage_error(format!(
                            "packet {id} is not in {path} ({} sampled journeys)",
                            journeys.len()
                        ))
                    };
                    print!("{}", journey_view(j));
                }
                // No id: list what is available, slowest first.
                None => {
                    let mut sorted: Vec<&PacketJourney> = journeys.iter().collect();
                    sorted.sort_by_key(|j| std::cmp::Reverse(j.latency()));
                    println!("{} sampled journeys (slowest first):", sorted.len());
                    for j in sorted.iter().take(20) {
                        println!(
                            "  packet {:<8} {:<8} {} hops, {} cycles",
                            j.packet,
                            j.class.name(),
                            j.hops.len(),
                            j.latency()
                        );
                    }
                }
            }
            Ok(())
        }
        Some("blackbox") => {
            let Some(path) = args.get(1) else { usage() };
            let text = std::fs::read_to_string(path)?;
            let value: serde::Value = serde_json::from_str(&text)
                .unwrap_or_else(|e| usage_error(format!("{path} is not valid JSON: {e:?}")));
            let bb = BlackBox::from_value(&value)
                .unwrap_or_else(|e| usage_error(format!("{path} is not a black box: {e:?}")));
            match args.get(2) {
                Some(s) => {
                    let id: u64 = s
                        .parse()
                        .unwrap_or_else(|_| usage_error(format!("invalid packet id {s:?}")));
                    let Some(p) = bb.stuck_packets.iter().find(|p| p.packet == id) else {
                        usage_error(format!(
                            "packet {id} is not stuck in {path} ({} stuck packets)",
                            bb.stuck_packets.len()
                        ))
                    };
                    print!("{}", stuck_view(p));
                }
                None => print!("{}", blackbox_view(&bb)),
            }
            Ok(())
        }
        Some("obs") => {
            let Some(path) = args.get(1) else { usage() };
            let text = std::fs::read_to_string(path)?;
            let snap: mira_obs::ObsSnapshot = serde_json::from_str(&text)
                .unwrap_or_else(|e| usage_error(format!("{path} is not an obs snapshot: {e:?}")));
            print!("{}", obs_view(&snap));
            Ok(())
        }
        _ => usage(),
    }
}
