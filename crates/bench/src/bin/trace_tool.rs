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
use std::io::BufWriter;

use mira::arch::Arch;
use mira::experiments::EXPERIMENT_SEED;
use mira::noc::recorder::{BlackBox, StuckPacket};
use mira::noc::telemetry::{render_heatmap, MetricsWindow};
use mira::noc::PacketJourney;
use mira::nuca::cmp::{CmpConfig, CmpSystem, TraceStats};
use mira::traffic::trace::{read_trace, TraceWriter};
use mira::traffic::workloads::Application;
use serde::{Deserialize, Value};

/// Why a subcommand printed nothing: bad arguments or input (exit 2,
/// with the usage text) or an I/O failure (exit 1).
#[derive(Debug)]
enum Failure {
    Usage(String),
    Io(std::io::Error),
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Io(e)
    }
}

fn bad(message: impl Into<String>) -> Failure {
    Failure::Usage(message.into())
}

/// The widest heatmap side rendered: a router further out is not on a
/// mesh this simulator builds, and its grid would not fit in memory.
const MAX_HEATMAP_SIDE: usize = 256;

/// [`render_heatmap`] over `cells`, or a usage error naming a router
/// beyond [`MAX_HEATMAP_SIDE`].
fn heatmap(cells: &[(usize, usize, f64)]) -> Result<String, Failure> {
    match cells.iter().find(|c| c.0 >= MAX_HEATMAP_SIDE || c.1 >= MAX_HEATMAP_SIDE) {
        Some(&(x, y, _)) => Err(bad(format!(
            "router at ({x}, {y}) lies outside a {MAX_HEATMAP_SIDE}x{MAX_HEATMAP_SIDE} grid"
        ))),
        None => Ok(render_heatmap(cells)),
    }
}

/// Parses a JSON document.
fn parse_json(text: &str) -> Result<Value, Failure> {
    serde_json::from_str(text).map_err(|e| bad(format!("not valid JSON: {e:?}")))
}

/// The `key` array of a full dump, or the document itself when it is a
/// bare array; each item read as a `T`.
fn items<T: Deserialize>(doc: &Value, key: &str, what: &str) -> Result<Vec<T>, Failure> {
    let list = match doc.field(key) {
        Value::Null => doc,
        list => list,
    };
    let Ok(list) = list.as_array() else { return Err(bad(format!("holds no {what}"))) };
    let read = list.iter().map(|v| T::from_value(v).map_err(|e| bad(format!("bad {what}: {e:?}"))));
    let items = read.collect::<Result<Vec<T>, _>>()?;
    if items.is_empty() {
        return Err(bad(format!("holds no {what}")));
    }
    Ok(items)
}

/// Parses an optional numeric argument naming `what`.
fn parse_arg<T: std::str::FromStr>(arg: Option<&str>, what: &str) -> Result<Option<T>, Failure> {
    arg.map(|s| s.parse().map_err(|_| bad(format!("invalid {what} {s:?}")))).transpose()
}

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
fn netview(window: &MetricsWindow) -> Result<String, Failure> {
    let Some(span) = window.end_cycle.checked_sub(window.start_cycle) else {
        return Err(bad(format!(
            "window {} ends (cycle {}) before it starts (cycle {})",
            window.index, window.end_cycle, window.start_cycle
        )));
    };
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
    let span = span.max(1) as f64;
    let stalls: Vec<(usize, usize, f64)> =
        window.routers.iter().map(|r| (r.x, r.y, r.stalls.stalled as f64 / span)).collect();
    let peak_occ = occupancy.iter().map(|c| c.2).fold(0.0_f64, f64::max);
    let peak_stall = stalls.iter().map(|c| c.2).fold(0.0_f64, f64::max);
    out.push_str(&format!("buffer occupancy (peak {peak_occ:.2} flits):\n"));
    out.push_str(&heatmap(&occupancy)?);
    out.push_str(&format!("stall pressure (peak {peak_stall:.2} stall-cycles/cycle):\n"));
    out.push_str(&heatmap(&stalls)?);
    out.push_str("scale: ' ' (idle) . : - = + * # % @ (peak)\n");
    Ok(out)
}

/// Rejects a journey whose spans do not add up without wrapping: a hop
/// that departs before it arrives, stalls longer than the residency,
/// or a span sum past `u64`. [`journey_view`] relies on all three.
fn check_journey(j: &PacketJourney) -> Result<(), Failure> {
    let broken = |why: &str| Err(bad(format!("journey of packet {}: {why}", j.packet)));
    if j.ejected_at < j.created_at {
        return broken("ejected before it was created");
    }
    let mut sum = Some(j.source_queue).and_then(|s| s.checked_add(j.serialization));
    for h in &j.hops {
        let Some(residency) = h.departed.checked_sub(h.arrived) else {
            return broken("a hop departs before it arrives");
        };
        if residency < h.stalls.stalled {
            return broken("a hop stalls longer than it stays");
        }
        let wire = h.link_cycles.checked_add(h.arq_cycles);
        sum = sum.zip(wire).and_then(|(s, w)| s.checked_add(residency)?.checked_add(w));
    }
    match sum {
        Some(_) => Ok(()),
        None => broken("its spans overflow"),
    }
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
fn blackbox_view(bb: &BlackBox) -> Result<String, Failure> {
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
    out.push_str(&heatmap(&occupancy)?);
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
    let total = |count: fn(&mira::noc::recorder::LinkDump) -> u64| {
        let sum = bb.links.iter().try_fold(0u64, |sum, l| sum.checked_add(count(l)));
        sum.ok_or_else(|| bad("in-flight counts overflow"))
    };
    let (wire_flits, wire_credits) = (total(|l| l.flits)?, total(|l| l.credits)?);
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
    Ok(out)
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

/// `generate <app> <out.jsonl> [cycles] [--seed <u64>]`: synthesises an
/// application trace and writes it as JSON lines.
fn generate(args: &[String]) -> Result<String, Failure> {
    let [app_name, path, rest @ ..] = args else {
        return Err(bad("generate needs <app> <out.jsonl>"));
    };
    // Optional trailing arguments: a cycle count and a seed override.
    let mut cycles: u64 = 30_000;
    let mut seed: u64 = EXPERIMENT_SEED;
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if arg == "--seed" {
            let v = rest.next().ok_or_else(|| bad("--seed needs a value"))?;
            seed = v.parse().map_err(|_| bad(format!("invalid seed {v:?}")))?;
        } else {
            cycles = arg.parse().map_err(|_| bad(format!("invalid cycle count {arg:?}")))?;
        }
    }
    let app = Application::ALL
        .into_iter()
        .find(|a| a.name() == app_name)
        .ok_or_else(|| bad(format!("unknown app {app_name:?}")))?;
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
    Ok(format!("wrote {n} packets over {cycles} cycles to {path} (seed {seed})\n"))
}

/// `stats`: the statistics of a JSON-lines trace. A corrupt line or a
/// flit of no or too many words is invalid data (exit 1).
fn stats(text: &str, _: Option<&str>) -> Result<String, Failure> {
    let trace = read_trace(text.as_bytes())?;
    let span = trace.last().map_or(0, |r| r.cycle.saturating_add(1));
    let stats = TraceStats::from_trace(&trace, span);
    let (z, o, other) = stats.patterns.fractions();
    Ok(format!(
        "{} packets, {} flits, span {span} cycles\n\
         control fraction : {:.1}%\n\
         short payload    : {:.1}%\n\
         short (all flits): {:.1}%\n\
         word patterns    : {z:.3} all-0, {o:.3} all-1, {other:.3} other\n",
        stats.packets,
        stats.flits,
        stats.control_fraction() * 100.0,
        stats.short_payload_fraction() * 100.0,
        stats.short_total_fraction() * 100.0,
    ))
}

/// `netview`: one window of a `--metrics-out` dump (or a bare array of
/// windows); by default the middle one, since the last is often a
/// partial drain-phase window.
fn netview_file(text: &str, index: Option<&str>) -> Result<String, Failure> {
    let windows: Vec<MetricsWindow> = items(&parse_json(text)?, "windows", "metrics windows")?;
    let index = parse_arg(index, "window index")?.unwrap_or(windows.len() / 2);
    let window = windows
        .get(index)
        .ok_or_else(|| bad(format!("window index {index} out of range 0..{}", windows.len())))?;
    netview(window)
}

/// `journey`: one sampled packet of a `--journeys-out` dump (or a bare
/// array of journeys), or without an id the slowest twenty.
fn journey(text: &str, id: Option<&str>) -> Result<String, Failure> {
    let journeys: Vec<PacketJourney> = items(&parse_json(text)?, "journeys", "journeys")?;
    for j in &journeys {
        check_journey(j)?;
    }
    if let Some(id) = parse_arg::<u64>(id, "packet id")? {
        let j = journeys.iter().find(|j| j.packet == id).ok_or_else(|| {
            bad(format!("packet {id} is not in the dump ({} sampled journeys)", journeys.len()))
        })?;
        return Ok(journey_view(j));
    }
    let mut sorted: Vec<&PacketJourney> = journeys.iter().collect();
    sorted.sort_by_key(|j| std::cmp::Reverse(j.latency()));
    let mut out = format!("{} sampled journeys (slowest first):\n", sorted.len());
    for j in sorted.iter().take(20) {
        out.push_str(&format!(
            "  packet {:<8} {:<8} {} hops, {} cycles\n",
            j.packet,
            j.class.name(),
            j.hops.len(),
            j.latency()
        ));
    }
    Ok(out)
}

/// `blackbox`: a black-box dump, or one of its stuck packets. A dump
/// that breaks an invariant of [`BlackBox::check`] is invalid data
/// (exit 1).
fn blackbox(text: &str, id: Option<&str>) -> Result<String, Failure> {
    let bb = BlackBox::from_value(&parse_json(text)?)
        .map_err(|e| bad(format!("not a black box: {e:?}")))?;
    bb.check().map_err(|rule| std::io::Error::new(std::io::ErrorKind::InvalidData, rule))?;
    match parse_arg::<u64>(id, "packet id")? {
        Some(id) => {
            let p = bb.stuck_packets.iter().find(|p| p.packet == id).ok_or_else(|| {
                bad(format!("packet {id} is not stuck ({} stuck packets)", bb.stuck_packets.len()))
            })?;
            Ok(stuck_view(p))
        }
        None => blackbox_view(&bb),
    }
}

/// `obs`: an `--obs-out` snapshot as a phase-profile table.
fn obs(text: &str, _: Option<&str>) -> Result<String, Failure> {
    let snap: mira_obs::ObsSnapshot =
        serde_json::from_str(text).map_err(|e| bad(format!("not an obs snapshot: {e:?}")))?;
    Ok(obs_view(&snap))
}

/// Runs the subcommand `args` name on the file it names.
fn run(args: &[String]) -> Result<String, Failure> {
    let Some((command, rest)) = args.split_first() else { return Err(bad("missing subcommand")) };
    let render: fn(&str, Option<&str>) -> Result<String, Failure> = match command.as_str() {
        "generate" => return generate(rest),
        "stats" => stats,
        "netview" => netview_file,
        "journey" => journey,
        "blackbox" => blackbox,
        "obs" => obs,
        other => return Err(bad(format!("unknown subcommand {other:?}"))),
    };
    let Some(path) = rest.first() else {
        return Err(bad(format!("{command} needs an input file")));
    };
    // A file that is not UTF-8 is an I/O error (invalid data), as a
    // corrupt trace line is. Every failure names the file.
    std::fs::read_to_string(path)
        .map_err(Failure::Io)
        .and_then(|text| render(&text, rest.get(1).map(String::as_str)))
        .map_err(|e| match e {
            Failure::Usage(m) => Failure::Usage(format!("{path}: {m}")),
            Failure::Io(e) => Failure::Io(std::io::Error::new(e.kind(), format!("{path}: {e}"))),
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => print!("{text}"),
        Err(Failure::Usage(message)) => usage_error(message),
        Err(Failure::Io(e)) => {
            eprintln!("Error: {e:?}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use mira::noc::anomaly::{AnomalyAbort, AnomalyConfig};
    use mira::noc::sim::{SimConfig, Simulator};
    use mira::noc::telemetry::TelemetryConfig;
    use mira::noc::traffic::UniformRandom;
    use proptest::prelude::*;
    use serde::Serialize;

    use super::*;

    /// One valid document of each input kind, from short real runs.
    struct Inputs {
        metrics: Value,
        journeys: Value,
        blackbox: Value,
        obs: Value,
        trace: Vec<Value>,
    }

    fn short_config() -> SimConfig {
        SimConfig {
            warmup_cycles: 100,
            measure_cycles: 600,
            drain_cycles: 2_000,
            ..SimConfig::default()
        }
    }

    /// The first `n` items of the array `key` of object `v`.
    fn truncate(v: &mut Value, key: &str, n: usize) {
        if let Value::Object(fields) = v {
            if let Some((_, Value::Array(items))) = fields.iter_mut().find(|(k, _)| k == key) {
                items.truncate(n);
            }
        }
    }

    fn inputs() -> &'static Inputs {
        static INPUTS: OnceLock<Inputs> = OnceLock::new();
        INPUTS.get_or_init(|| {
            let arch = Arch::ThreeDM;
            let telemetry = TelemetryConfig {
                metrics_window: 200,
                trace_capacity: 0,
                journey_sample_ppm: 1_000_000,
                journey_seed: 0,
            };
            let mut sim = Simulator::new(
                arch.topology(),
                arch.network_config(true),
                short_config().with_telemetry(telemetry),
            );
            let report = sim.run(Box::new(UniformRandom::new(0.15, 5, EXPERIMENT_SEED)));
            let windows = report.windows[..3].to_vec();
            let metrics = Value::Object(vec![("windows".into(), windows.to_value())]);
            let journeys = sim.journeys()[..8].to_vec().to_value();

            // A stalled switch allocator wedges the mesh; the watchdog
            // halts the run with its black box.
            let stalled = SimConfig { chaos_stall: Some((300, None)), ..short_config() }
                .with_telemetry(TelemetryConfig {
                    journey_sample_ppm: 1_000_000,
                    ..TelemetryConfig::disabled()
                })
                .with_anomaly(AnomalyConfig::detect());
            let halted = std::panic::catch_unwind(|| {
                let mut sim = Simulator::new(arch.topology(), arch.network_config(true), stalled);
                sim.run(Box::new(UniformRandom::new(0.15, 5, EXPERIMENT_SEED)))
            });
            let abort = halted.expect_err("the stall halts the run");
            let dump = &abort.downcast_ref::<AnomalyAbort>().expect("an anomaly halt").dump;
            // Six stuck packets, and only arena flits of those (every
            // arena packet is stuck in a valid dump).
            let mut bb: BlackBox = serde_json::from_str(dump).expect("the dump parses");
            bb.stuck_packets.truncate(6);
            bb.arena.retain(|a| bb.stuck_packets.iter().any(|s| s.packet == a.packet));
            let mut blackbox = bb.to_value();
            for key in ["events", "arena", "links"] {
                truncate(&mut blackbox, key, 6);
            }

            let mut sys = CmpSystem::new(CmpConfig::for_app(
                Application::Tpcw,
                Arch::TwoDB.cpu_nodes(),
                Arch::TwoDB.cache_nodes(),
                EXPERIMENT_SEED,
            ));
            // Data packets carry the payload flits `stats` classifies.
            let records = sys.generate_trace(400);
            let (data, control): (Vec<_>, Vec<_>) = records.iter().partition(|r| r.class.is_data());
            let picked = data.into_iter().take(6).chain(control.into_iter().take(6));
            let trace = picked.map(Serialize::to_value).collect();
            Inputs { metrics, journeys, blackbox, obs: mira_obs::snapshot().to_value(), trace }
        })
    }

    /// What a damaged slot becomes: retyped, or a number outside every
    /// range a reader might assume.
    fn replacement(pick: u64) -> Value {
        match pick % 10 {
            0 => Value::Null,
            1 => Value::Str("retyped".into()),
            2 => Value::Bool(true),
            3 => Value::U64(0),
            4 => Value::U64(u64::MAX),
            5 => Value::U64(1_000_000_000_000),
            6 => Value::I64(-1),
            7 => Value::F64(1e300),
            8 => Value::Array(Vec::new()),
            _ => Value::Object(Vec::new()),
        }
    }

    fn children(v: &mut Value) -> Vec<&mut Value> {
        match v {
            Value::Array(items) => items.iter_mut().collect(),
            Value::Object(fields) => fields.iter_mut().map(|(_, c)| c).collect(),
            _ => Vec::new(),
        }
    }

    /// Damages slot `k` of `v` (an object field or array item, counted
    /// in pre-order): removes it, triples an array, or replaces it.
    /// Returns whether slot `k` was found.
    fn damage_slot(v: &mut Value, k: &mut u64, how: u64) -> bool {
        let len = children(v).len();
        for i in 0..len {
            if *k > 0 {
                *k -= 1;
                if damage_slot(children(v).swap_remove(i), k, how) {
                    return true;
                }
                continue;
            }
            match (how % 3, &mut *v) {
                (0, Value::Array(items)) => drop(items.remove(i)),
                (0, Value::Object(fields)) => drop(fields.remove(i)),
                (1, _) => {
                    let slot = children(v).swap_remove(i);
                    match slot {
                        Value::Array(items) => *items = [&items[..], items, items].concat(),
                        other => *other = replacement(how / 3),
                    }
                }
                _ => *children(v).swap_remove(i) = replacement(how / 3),
            }
            return true;
        }
        false
    }

    /// `text` torn at byte `a`, or (odd `kind`) with the bytes of `b`
    /// spliced in there.
    fn torn(text: &str, kind: u8, a: u64, b: u64) -> String {
        let (head, tail) = text.as_bytes().split_at(a as usize % (text.len() + 1));
        let bytes = if kind.is_multiple_of(2) {
            head.to_vec()
        } else {
            [head, &b.to_le_bytes(), tail].concat()
        };
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// The object fields and array items in `v`, at every depth.
    fn slots(v: &Value) -> u64 {
        match v {
            Value::Array(items) => items.iter().map(|c| 1 + slots(c)).sum(),
            Value::Object(fields) => fields.iter().map(|(_, c)| 1 + slots(c)).sum(),
            _ => 0,
        }
    }

    /// Replaces about one number in eight, picked by a generator seeded
    /// with `seed`, with 0, 10^12 or `u64::MAX`.
    fn scatter(v: &mut Value, seed: &mut u64) {
        match v {
            Value::U64(_) | Value::I64(_) | Value::F64(_) => {
                *seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match (*seed >> 33) % 24 {
                    0 => *v = Value::U64(0),
                    1 => *v = Value::U64(1_000_000_000_000),
                    2 => *v = Value::U64(u64::MAX),
                    _ => {}
                }
            }
            Value::Array(items) => items.iter_mut().for_each(|c| scatter(c, seed)),
            Value::Object(fields) => fields.iter_mut().for_each(|(_, c)| scatter(c, seed)),
            _ => {}
        }
    }

    /// `doc` as JSON text damaged as `(kind, a, b)` picks: torn, garbage
    /// bytes spliced in, one to three slots damaged, or numbers
    /// scattered out of range.
    fn damaged(doc: &Value, (kind, a, b): (u8, u64, u64)) -> String {
        let text = serde_json::to_string(doc).expect("a document serializes");
        let mut doc = doc.clone();
        match kind % 5 {
            0 | 1 => return torn(&text, kind, a, b),
            2 | 3 => {
                for round in 0..=(kind as u64 % 3) {
                    let mut k = a.rotate_left(round as u32 * 21) % slots(&doc).max(1);
                    damage_slot(&mut doc, &mut k, b >> round);
                }
            }
            _ => scatter(&mut doc, &mut { a ^ b }),
        }
        serde_json::to_string(&doc).expect("a damaged document serializes")
    }

    #[test]
    fn valid_inputs_render() {
        let i = inputs();
        let text = |v: &Value| serde_json::to_string(v).expect("serializes");
        assert!(netview_file(&text(&i.metrics), None)
            .expect("netview")
            .contains("buffer occupancy"));
        assert!(journey(&text(&i.journeys), None).expect("journey").contains("sampled journeys"));
        let id = i.journeys.as_array().expect("journeys")[0].field("packet").as_u64().expect("id");
        let one = journey(&text(&i.journeys), Some(&id.to_string())).expect("one journey");
        assert!(one.contains("(exact attribution)"), "{one}");
        assert!(blackbox(&text(&i.blackbox), None).expect("blackbox").contains("halted the run"));
        assert!(obs(&text(&i.obs), None).expect("obs").contains("step coverage"));
        let lines: Vec<String> = i.trace.iter().map(text).collect();
        let summary = stats(&lines.join("\n"), None).expect("stats");
        assert!(summary.contains("12 packets"), "{summary}");
    }

    #[test]
    fn inverted_windows_and_far_routers_are_usage_errors() {
        let i = inputs();
        let mut window =
            MetricsWindow::from_value(&i.metrics.field("windows").as_array().expect("windows")[0])
                .expect("a window");
        window.start_cycle = window.end_cycle + 1;
        let err = netview(&window).expect_err("an inverted window");
        assert!(matches!(&err, Failure::Usage(m) if m.contains("before it starts")), "{err:?}");
        for far in [usize::MAX, 1_000_000_000_000, MAX_HEATMAP_SIDE] {
            assert!(matches!(heatmap(&[(far, 0, 1.0)]), Err(Failure::Usage(_))), "{far}");
            assert!(matches!(heatmap(&[(0, far, 1.0)]), Err(Failure::Usage(_))), "{far}");
        }
        assert!(heatmap(&[(MAX_HEATMAP_SIDE - 1, 0, 1.0)]).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// No damage to a metrics, journeys, black-box or obs document
        /// makes its subcommand panic: each renders or returns an error.
        #[test]
        fn damaged_documents_render_or_fail(kind in any::<u8>(), a in any::<u64>(), b in any::<u64>()) {
            let i = inputs();
            let arg = ["0", "1", "999", "x", "18446744073709551615"].get(b as usize % 6).copied();
            let _ = netview_file(&damaged(&i.metrics, (kind, a, b)), arg);
            let _ = journey(&damaged(&i.journeys, (kind, a, b)), arg);
            let _ = blackbox(&damaged(&i.blackbox, (kind, a, b)), arg);
            let _ = obs(&damaged(&i.obs, (kind, a, b)), None);
        }

        /// Nor does any damage to one line of a trace file, or a tear
        /// through the whole file.
        #[test]
        fn damaged_trace_files_render_or_fail(
            kind in any::<u8>(), a in any::<u64>(), b in any::<u64>(), line in any::<u64>(),
        ) {
            let mut lines: Vec<String> =
                inputs().trace.iter().map(|v| serde_json::to_string(v).expect("serializes")).collect();
            let line = line as usize % lines.len();
            lines[line] = damaged(&inputs().trace[line], (kind, a, b));
            let _ = stats(&lines.join("\n"), None);
            let _ = stats(&torn(&lines.join("\n"), kind, b, a), None);
        }
    }
}
