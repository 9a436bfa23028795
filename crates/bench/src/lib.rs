#![warn(missing_docs)]
//! # mira-bench — the benchmark harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §5 for the
//! index). Each names entries of [`EXHIBITS`] (or an extension outside
//! the full pass) and hands them to [`run`], the one driver:
//! `all_experiments` runs the whole list. Every binary accepts
//! `--quick` to run a reduced configuration and prints the regenerated
//! exhibits as text (plus `--json` for one machine-readable document).
//!
//! Telemetry flags (DESIGN.md §11): `--trace-out <path>` /
//! `--metrics-out <path>` write a Perfetto-compatible event trace and a
//! metrics dump from one representative traced run, separate from the
//! exhibit's own simulations; `--metrics-window <cycles>` sets that
//! dump's window length and needs `--metrics-out`.
//!
//! [`Cli`] is the one run configuration: every run switch is a flag,
//! parsed by [`Cli::parse_from`] into [`HostError::Flag`] on bad input;
//! the environment contributes only the pool size (`MIRA_JOBS`). The
//! result-shaping flags render as [`Cli::options`], which names each
//! batch's results-store file and its batch line (DESIGN.md §16).
//!
//! Performance is measured by the standalone `mira-benchmark` package
//! at the repository root, not by benches in this crate.

use std::time::Instant;

use serde::{Serialize, Value};

use mira::arch::Arch;
use mira::error::HostError;
use mira::experiments::common::EXPERIMENT_SEED;
use mira::experiments::exhibits::{Exhibit, Pass, PassConfig};
use mira::experiments::faults::fault_rates_ppm;
use mira::experiments::runner::{RunSummary, Runner};
use mira::noc::ids::{NodeId, PortId};
use mira::noc::sim::Simulator;
use mira::noc::telemetry::TelemetryConfig;
use mira::noc::traffic::{PayloadProfile, UniformRandom};

pub use mira::experiments::exhibits::{named, EXHIBITS};

const USAGE: &str = "usage: <bin> [--quick] [--json] \
                     [--trace-out <path>] [--metrics-out <path> [--metrics-window <cycles>]] \
                     [--span-sample-rate <0..=1>] [--journeys-out <path>] \
                     [--fault-rate <fraction>] [--kill-link <node:port[@cycle]>] \
                     [--fault-seed <seed>] \
                     [--obs-out <path>] [--progress-json] \
                     [--resume] [--checkpoint-dir <dir>] \
                     [--anomaly] [--blackbox-out <dir>] [--chaos-stall-at <cycle[:router]>]";

/// Shared CLI handling for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cli {
    /// Reduced configuration (shorter sims, fewer points).
    pub quick: bool,
    /// Emit JSON instead of aligned text.
    pub json: bool,
    /// Window length in cycles of the `--metrics-out` dump
    /// (`--metrics-window`; only with `--metrics-out`).
    pub metrics_window: Option<u64>,
    /// Write a Chrome trace-event JSON file from a representative traced
    /// run (`--trace-out`).
    pub trace_out: Option<&'static str>,
    /// Write the representative run's metrics windows as JSON
    /// (`--metrics-out`).
    pub metrics_out: Option<&'static str>,
    /// Packet-journey head-sampling rate in ppm, parsed from the
    /// `--span-sample-rate <0..=1>` flag (`0.01` → 10000 ppm). `Some(0)`
    /// (an explicit rate of 0) keeps the recorder uninstalled, exactly
    /// like leaving the flag off.
    pub span_sample_ppm: Option<u32>,
    /// Write the representative run's sampled packet journeys as JSON
    /// (`--journeys-out`); implies span sampling at rate 1 unless
    /// `--span-sample-rate` narrows it (to a rate above 0).
    pub journeys_out: Option<&'static str>,
    /// Transient link-fault rate in ppm of flit deliveries, parsed from
    /// the `--fault-rate <fraction>` flag (`0.001` → 1000 ppm).
    pub fault_rate_ppm: Option<u32>,
    /// Permanent link kill as `(node, out-port, cycle)`, from
    /// `--kill-link node:port[@cycle]` (cycle defaults to 0). The link
    /// must exist on every architecture.
    pub kill_link: Option<(usize, usize, u64)>,
    /// Seed for the fault plan (`--fault-seed`; only with `--fault-rate`
    /// or `--kill-link`); defaults to the fault subsystem's own default
    /// when unset.
    pub fault_seed: Option<u64>,
    /// Write the host-observability snapshot as JSON (`--obs-out`).
    /// Giving the flag also enables the process's phase timers.
    pub obs_out: Option<&'static str>,
    /// Emit one machine-readable JSON line per completed runner point on
    /// stderr (`--progress-json`).
    pub progress_json: bool,
    /// Replay this build's stored points of each batch and run only the
    /// missing ones (`--resume`). Implies a results store.
    pub resume: bool,
    /// Directory for the results store (`--checkpoint-dir`); giving it
    /// enables store writing.
    pub checkpoint_dir: Option<&'static str>,
    /// Arm the flight recorder with every detector at its default
    /// threshold (`--anomaly`).
    pub anomaly: bool,
    /// Directory anomaly black-box dumps are written under
    /// (`--blackbox-out`; default `results/blackbox`).
    pub blackbox_out: Option<&'static str>,
    /// Chaos hook as `(cycle, router)`, from `--chaos-stall-at
    /// cycle[:router]`: every simulation freezes that router's switch
    /// allocator at that cycle (the router defaults to the central node
    /// `nodes / 2`; a given one must exist on every architecture).
    pub chaos_stall: Option<(u64, Option<usize>)>,
}

/// Parses `node:port[@cycle]` (e.g. `7:3@250`) for `--kill-link`.
fn parse_kill_link(spec: &str) -> Option<(usize, usize, u64)> {
    let (link, cycle) = match spec.split_once('@') {
        Some((l, c)) => (l, c.parse::<u64>().ok()?),
        None => (spec, 0),
    };
    let (node, port) = link.split_once(':')?;
    Some((node.parse().ok()?, port.parse().ok()?, cycle))
}

/// Parses `cycle[:router]` (e.g. `400` or `400:5`) for `--chaos-stall-at`.
fn parse_chaos_stall(spec: &str) -> Option<(u64, Option<usize>)> {
    match spec.split_once(':') {
        Some((cycle, router)) => Some((cycle.parse().ok()?, Some(router.parse().ok()?))),
        None => Some((spec.parse().ok()?, None)),
    }
}

/// Whether a link leaves `node` through `port` on `arch` — the rule
/// `FaultPlan::compile` resolves a kill by: the network wires one link
/// per non-local port that has a neighbour.
fn has_link(arch: Arch, node: usize, port: usize) -> bool {
    let topo = arch.topology();
    node < topo.num_nodes()
        && (1..topo.radix()).contains(&port)
        && topo.neighbor(NodeId(node), PortId(port)).is_some()
}

/// Leaks a flag value so [`Cli`] can stay `Copy` (flags are parsed once
/// per process; the leak is bounded and deliberate).
fn leak(value: String) -> &'static str {
    Box::leak(value.into_boxed_str())
}

fn flag_error(flag: &'static str, detail: impl Into<String>) -> HostError {
    HostError::Flag { flag, detail: detail.into() }
}

/// Parses a flag value, or names the flag and what it expects.
fn parse_value<T: std::str::FromStr>(
    (flag, value): (&'static str, String),
    valid: impl Fn(&T) -> bool,
    expects: &str,
) -> Result<T, HostError> {
    match value.parse::<T>() {
        Ok(v) if valid(&v) => Ok(v),
        _ => Err(flag_error(flag, format!("expects {expects}, got {value:?}"))),
    }
}

/// A fraction in ppm (`0.01` → 10000).
fn ppm(fraction: f64) -> u32 {
    (fraction * 1_000_000.0).round() as u32
}

/// A path value; a blank one would write into the working directory.
fn parse_path((flag, value): (&'static str, String)) -> Result<&'static str, HostError> {
    if value.trim().is_empty() {
        return Err(flag_error(flag, "expects a path, got a blank value"));
    }
    Ok(leak(value))
}

impl Cli {
    /// Parses the process arguments. `--help` prints the usage line and
    /// exits 0; a malformed flag prints its error and the usage line and
    /// exits 2.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        let cli = Cli::parse_from(args).unwrap_or_else(|e| {
            eprintln!("{e}; {USAGE}");
            std::process::exit(2);
        });
        if cli.obs_out.is_some() {
            mira_obs::set_enabled(true);
        }
        cli
    }

    /// Parses flags (without the program name). Every malformed value,
    /// unknown flag or inconsistent combination is a
    /// [`HostError::Flag`] naming the flag.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Flag`] on the first bad flag.
    pub fn parse_from<I>(args: I) -> Result<Cli, HostError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut cli = Cli::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            let mut value = |flag: &'static str| match args.next() {
                Some(v) => Ok((flag, v)),
                None => Err(flag_error(flag, "needs a value")),
            };
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--json" => cli.json = true,
                "--progress-json" => cli.progress_json = true,
                "--resume" => cli.resume = true,
                "--anomaly" => cli.anomaly = true,
                "--metrics-window" => {
                    cli.metrics_window = Some(parse_value(
                        value("--metrics-window")?,
                        |&c: &u64| c > 0,
                        "a positive cycle count",
                    )?);
                }
                "--span-sample-rate" => {
                    let rate = parse_value(
                        value("--span-sample-rate")?,
                        |f: &f64| (0.0..=1.0).contains(f),
                        "a fraction in 0..=1",
                    )?;
                    cli.span_sample_ppm = Some(ppm(rate));
                }
                "--fault-rate" => {
                    let rate = parse_value(
                        value("--fault-rate")?,
                        |f: &f64| (0.0..1.0).contains(f),
                        "a fraction in 0..1",
                    )?;
                    cli.fault_rate_ppm = Some(ppm(rate));
                }
                "--kill-link" => {
                    let (flag, spec) = value("--kill-link")?;
                    cli.kill_link = Some(parse_kill_link(&spec).ok_or_else(|| {
                        flag_error(flag, format!("expects node:port[@cycle], got {spec:?}"))
                    })?);
                }
                "--chaos-stall-at" => {
                    let (flag, spec) = value("--chaos-stall-at")?;
                    cli.chaos_stall = Some(parse_chaos_stall(&spec).ok_or_else(|| {
                        flag_error(flag, format!("expects cycle[:router], got {spec:?}"))
                    })?);
                }
                "--fault-seed" => {
                    cli.fault_seed =
                        Some(parse_value(value("--fault-seed")?, |_: &u64| true, "a seed")?);
                }
                "--trace-out" => cli.trace_out = Some(parse_path(value("--trace-out")?)?),
                "--metrics-out" => cli.metrics_out = Some(parse_path(value("--metrics-out")?)?),
                "--journeys-out" => cli.journeys_out = Some(parse_path(value("--journeys-out")?)?),
                "--obs-out" => cli.obs_out = Some(parse_path(value("--obs-out")?)?),
                "--checkpoint-dir" => {
                    cli.checkpoint_dir = Some(parse_path(value("--checkpoint-dir")?)?);
                }
                "--blackbox-out" => cli.blackbox_out = Some(parse_path(value("--blackbox-out")?)?),
                _ => return Err(flag_error(leak(arg), "unknown flag")),
            }
        }
        cli.check_combinations()?;
        Ok(cli)
    }

    /// Rejects flag combinations that would panic or be silently
    /// ignored later.
    fn check_combinations(&self) -> Result<(), HostError> {
        if self.metrics_window.is_some() && self.metrics_out.is_none() {
            return Err(flag_error("--metrics-window", "shapes only the --metrics-out dump"));
        }
        if self.journeys_out.is_some() && self.span_sample_ppm == Some(0) {
            return Err(flag_error("--journeys-out", "records no journey at --span-sample-rate 0"));
        }
        if self.fault_seed.is_some() && self.fault_rate_ppm.is_none() && self.kill_link.is_none() {
            return Err(flag_error("--fault-seed", "needs --fault-rate or --kill-link to seed"));
        }
        if let Some((node, port, _)) = self.kill_link {
            // Exhibits run several architectures; the kill must resolve
            // on each, or every point on the others panics.
            if let Some(arch) = Arch::ALL.into_iter().find(|&a| !has_link(a, node, port)) {
                return Err(flag_error(
                    "--kill-link",
                    format!("no link leaves node {node} through port {port} on {}", arch.name()),
                ));
            }
        }
        if let Some((_, Some(router))) = self.chaos_stall {
            if let Some(arch) = Arch::ALL.into_iter().find(|&a| router >= a.topology().num_nodes())
            {
                return Err(flag_error(
                    "--chaos-stall-at",
                    format!("no router {router} on {}", arch.name()),
                ));
            }
        }
        Ok(())
    }

    /// The canonical rendering of every field that shapes results —
    /// everything [`Cli::sim_config`], [`Cli::trace_cycles`],
    /// [`rates_ur`] and [`rates_nuca`] read — in a fixed order with
    /// parsed values (so `--fault-rate 0.0010` and `--fault-rate 0.001`
    /// render alike). Output-only flags (`--json`, the `--*-out` paths
    /// and `--metrics-window`, which shapes only the `--metrics-out`
    /// dump, `--progress-json`, `--resume`, `--checkpoint-dir`) are left
    /// out. [`Cli::runner`] hashes it into each batch's store identity
    /// and echoes it on the batch line.
    pub fn options(&self) -> String {
        fn or_none<T: std::fmt::Display>(v: Option<T>) -> String {
            v.map_or_else(|| "none".to_string(), |v| v.to_string())
        }
        let kill = self.kill_link.map(|(node, port, cycle)| format!("{node}:{port}@{cycle}"));
        let stall = self.chaos_stall.map(|(cycle, router)| format!("{cycle}:{}", or_none(router)));
        format!(
            "quick={} span_sample_ppm={} fault_rate_ppm={} kill_link={} fault_seed={} anomaly={} \
             chaos_stall={}",
            self.quick,
            or_none(self.span_sample_ppm),
            or_none(self.fault_rate_ppm),
            or_none(kill),
            or_none(self.fault_seed),
            self.anomaly,
            or_none(stall),
        )
    }

    /// The runner the flags describe: [`Runner::from_env`]'s pool (sized
    /// by `available_parallelism`, overridable with `MIRA_JOBS`; the
    /// progress line shows whenever stderr is a terminal) with the
    /// runner flags (`--progress-json`, `--checkpoint-dir`, `--resume`,
    /// `--blackbox-out`) and the [`Cli::options`] echo.
    pub fn runner(&self) -> Runner {
        let mut runner = Runner::from_env()
            .progress_json(self.progress_json)
            .resume(self.resume)
            .options(self.options());
        if let Some(dir) = self.checkpoint_dir {
            runner = runner.checkpoint_dir(dir);
        }
        if let Some(dir) = self.blackbox_out {
            runner = runner.blackbox_out(dir);
        }
        runner
    }

    /// The simulation window for this invocation, with the span
    /// sampling, fault, anomaly and chaos-stall flags wired in.
    pub fn sim_config(&self) -> mira::noc::sim::SimConfig {
        let base = if self.quick {
            mira::experiments::quick_sim_config()
        } else {
            mira::experiments::common::default_sim_config()
        };
        let telemetry =
            TelemetryConfig::disabled().with_journeys(self.span_sample_ppm.unwrap_or(0));
        let base = mira::noc::sim::SimConfig { telemetry, chaos_stall: self.chaos_stall, ..base };
        let base = match self.fault_config() {
            Some(faults) => base.with_faults(faults),
            None => base,
        };
        match self.anomaly_config() {
            Some(anomaly) => base.with_anomaly(anomaly),
            None => base,
        }
    }

    /// The flight-recorder configuration requested by `--anomaly` (every
    /// detector at its default threshold), or `None` without the flag
    /// (so the default path stays bit-identical to the recorder-free
    /// simulator).
    fn anomaly_config(&self) -> Option<mira::noc::anomaly::AnomalyConfig> {
        self.anomaly.then(mira::noc::anomaly::AnomalyConfig::detect)
    }

    /// The fault configuration requested by `--fault-rate` /
    /// `--kill-link` / `--fault-seed`, or `None` when no fault flag was
    /// given (so the default path stays bit-identical to the fault-free
    /// simulator).
    fn fault_config(&self) -> Option<mira::noc::fault::FaultConfig> {
        use mira::noc::fault::FaultConfig;
        if self.fault_rate_ppm.is_none() && self.kill_link.is_none() {
            return None;
        }
        let mut faults = FaultConfig::disabled();
        if let Some(ppm) = self.fault_rate_ppm {
            faults = faults.with_transient(ppm);
        }
        if let Some((node, port, cycle)) = self.kill_link {
            faults = faults.with_kill(node, port, cycle);
        }
        if let Some(seed) = self.fault_seed {
            faults = faults.with_seed(seed);
        }
        Some(faults)
    }

    /// Trace length (cycles) for trace-driven experiments.
    pub fn trace_cycles(&self) -> u64 {
        if self.quick {
            5_000
        } else {
            30_000
        }
    }

    /// The settings of a pass under these flags.
    fn pass_config(&self) -> PassConfig {
        PassConfig {
            sim: self.sim_config(),
            rates_ur: rates_ur(*self),
            rates_nuca: rates_nuca(*self),
            pattern_cycles: if self.quick { 4_000 } else { 20_000 },
            trace_cycles: self.trace_cycles(),
            thermal_rates: if self.quick { vec![0.05, 0.20] } else { vec![0.05, 0.15, 0.30] },
            fault_ppm: fault_rates_ppm(self.quick),
        }
    }
}

/// The journeys dump written by `--journeys-out`: what the `journey`
/// subcommand of `trace_tool` pretty-prints. It borrows the run's
/// journeys, so writing it copies none.
struct JourneysDump<'a> {
    /// Architecture of the representative run.
    arch: &'a str,
    /// Head-sampling rate in ppm.
    sample_ppm: u32,
    /// The tail-latency attribution report over the sampled journeys.
    report: &'a mira::noc::JourneyReport,
    /// Every completed sampled journey, in completion order.
    journeys: &'a [mira::noc::PacketJourney],
}

impl Serialize for JourneysDump<'_> {
    fn serialize(&self, e: &mut dyn serde::Emitter) {
        e.begin_object();
        e.field("arch", self.arch);
        e.field("sample_ppm", &self.sample_ppm);
        e.field("report", self.report);
        e.field("journeys", self.journeys);
        e.end_object();
    }
}

/// The metrics dump written by `--metrics-out`: what the `netview`
/// subcommand of `trace_tool` renders. It borrows the report's windows.
struct MetricsDump<'a> {
    /// Architecture of the representative run.
    arch: &'a str,
    /// Metrics-window length in cycles.
    window_cycles: u64,
    /// The closed windows.
    windows: &'a [mira::noc::telemetry::MetricsWindow],
}

impl Serialize for MetricsDump<'_> {
    fn serialize(&self, e: &mut dyn serde::Emitter) {
        e.begin_object();
        e.field("arch", self.arch);
        e.field("window_cycles", &self.window_cycles);
        e.field("windows", self.windows);
        e.end_object();
    }
}

/// Writes `dump` to `path` as pretty JSON, a chunk at a time; `what`
/// names the artifact in the error.
fn write_dump(what: &'static str, path: &str, dump: &dyn Serialize) {
    let written =
        std::fs::File::create(path).and_then(|file| serde_json::to_writer_pretty(file, dump));
    if let Err(e) = written {
        HostError::io(what, path, &e).exit();
    }
}

/// Runs one representative traced simulation and writes the artifacts
/// requested by `--trace-out` / `--metrics-out`. A no-op when neither
/// flag is set. The run is separate from the exhibit's own simulations,
/// so enabling tracing never perturbs published numbers: 3DM at UR 0.15
/// with 50% short flits and layer shutdown on — a load that exercises
/// every pipeline stage, credit stalls, and layer gating.
fn write_telemetry_artifacts(cli: Cli) {
    if cli.trace_out.is_none() && cli.metrics_out.is_none() && cli.journeys_out.is_none() {
        return;
    }
    let arch = Arch::ThreeDM;
    let window = cli.metrics_window.unwrap_or(1_000);
    // `--journeys-out` without an explicit rate samples every packet;
    // `--trace-out` alone keeps the plain trace unless a rate was given,
    // so existing trace consumers see no flow events they did not ask
    // for.
    let journey_ppm = match (cli.span_sample_ppm, cli.journeys_out) {
        (Some(ppm), _) => ppm,
        (None, Some(_)) => 1_000_000,
        (None, None) => 0,
    };
    let telemetry = TelemetryConfig {
        metrics_window: window,
        trace_capacity: if cli.trace_out.is_some() { 1 << 16 } else { 0 },
        journey_sample_ppm: journey_ppm,
        journey_seed: 0,
    };
    let sim_cfg = cli.sim_config().with_telemetry(telemetry);
    let workload = UniformRandom::new(0.15, 5, EXPERIMENT_SEED)
        .with_payload(PayloadProfile::with_short_fraction(4, 0.5));
    let mut sim = Simulator::new(arch.topology(), arch.network_config(true), sim_cfg);
    let report = sim.run(Box::new(workload));

    if let Some(path) = cli.trace_out {
        let trace = sim.trace_chrome_json().expect("trace sink installed");
        if let Err(e) = std::fs::write(path, trace) {
            HostError::io("write trace to", path, &e).exit();
        }
        eprintln!("[telemetry] event trace written to {path} (load in ui.perfetto.dev)");
    }
    if let Some(path) = cli.metrics_out {
        let dump =
            MetricsDump { arch: arch.name(), window_cycles: window, windows: &report.windows };
        write_dump("write metrics to", path, &dump);
        eprintln!(
            "[telemetry] {} metrics windows written to {path} (render with `trace_tool netview`)",
            dump.windows.len()
        );
    }
    if let Some(path) = cli.journeys_out {
        let dump = JourneysDump {
            arch: arch.name(),
            sample_ppm: journey_ppm,
            report: report.journeys.as_ref().expect("journey recorder installed"),
            journeys: sim.journeys(),
        };
        write_dump("write journeys to", path, &dump);
        eprintln!(
            "[telemetry] {} packet journeys written to {path} (inspect with `trace_tool journey`)",
            dump.journeys.len()
        );
    }
}

/// Writes the host-observability snapshot requested by `--obs-out` as
/// JSON. A no-op when the flag is off.
fn write_obs_artifacts(cli: Cli) {
    let Some(path) = cli.obs_out else {
        return;
    };
    if let Err(e) = std::fs::write(path, mira_obs::snapshot().to_json()) {
        HostError::io("write obs snapshot to", path, &e).exit();
    }
    eprintln!("[obs] snapshot written to {path} (inspect with `trace_tool obs`)");
}

/// The `"host"` section of the JSON document: the binary's batches
/// summed (total wall time across batches, aggregate Kcycles/s, peak
/// arena watermark, anomaly firings, build revision).
#[derive(Debug, Serialize)]
struct Host {
    batches: usize,
    wall_ms: f64,
    cycles_simulated: u64,
    kcycles_per_sec: f64,
    peak_arena_flits: u64,
    git_rev: String,
    profile: String,
    anomalies: Anomalies,
}

/// Anomaly-detector firings over the batches: total count and the
/// deduplicated, sorted kind names.
#[derive(Debug, Serialize)]
struct Anomalies {
    count: u64,
    kinds: Vec<String>,
}

impl Host {
    fn of(batches: &[RunSummary]) -> Host {
        let wall_ms: f64 = batches.iter().map(|b| b.wall_ms).sum();
        let cycles_simulated: u64 = batches.iter().map(|b| b.cycles_simulated).sum();
        let mut kinds: Vec<String> =
            batches.iter().flat_map(|b| b.anomaly_kinds.iter().cloned()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let build = mira_obs::provenance::Provenance::current();
        Host {
            batches: batches.len(),
            wall_ms,
            cycles_simulated,
            kcycles_per_sec: if wall_ms > 0.0 { cycles_simulated as f64 / wall_ms } else { 0.0 },
            peak_arena_flits: batches.iter().map(|b| b.peak_arena_flits).max().unwrap_or(0),
            git_rev: build.git_rev,
            profile: build.profile,
            anomalies: Anomalies { count: batches.iter().map(|b| b.anomalies).sum(), kinds },
        }
    }
}

/// Runs `exhibits` as one [`Pass`] on [`Cli::runner`] and owns all
/// of the binary's output: each exhibit's text on stdout with one
/// `[runner]` line per batch on stderr, or with `--json` one document
/// `{"exhibits": [{"name", "value", "batches"}], "host"}`; then the
/// `--trace-out`/`--metrics-out`/`--journeys-out` and `--obs-out`
/// files, the `[host]` and `[done]` footer, and exit code 1 if a paper
/// claim failed.
pub fn run<'a>(cli: Cli, exhibits: impl IntoIterator<Item = &'a Exhibit>) {
    let started = Instant::now();
    let mut pass = Pass::new(cli.pass_config(), cli.runner());
    let (mut shown, mut batches, mut passes) = (Vec::new(), Vec::new(), true);
    for exhibit in exhibits {
        let (out, ran) = pass.show(exhibit);
        if cli.json {
            shown.push(Value::Object(vec![
                ("name".to_string(), exhibit.name.to_value()),
                ("value".to_string(), out.value),
                ("batches".to_string(), ran.to_value()),
            ]));
        } else {
            println!("{}", out.text);
            for summary in &ran {
                eprintln!("[runner] {}: {}", exhibit.name, summary.one_line());
            }
        }
        passes &= out.passes;
        batches.extend(ran);
    }
    let host = Host::of(&batches);
    if cli.json {
        let doc = Value::Object(vec![
            ("exhibits".to_string(), Value::Array(shown)),
            ("host".to_string(), host.to_value()),
        ]);
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialisable exhibits"));
    }
    write_telemetry_artifacts(cli);
    write_obs_artifacts(cli);
    let anomalies = &host.anomalies;
    if anomalies.count > 0 {
        eprintln!(
            "[host] WARNING: {} anomaly detector firing(s) ({}); inspect the dumps with \
             `trace_tool blackbox`",
            anomalies.count,
            anomalies.kinds.join(", ")
        );
    }
    eprintln!(
        "[host] {} batches ({} points), {:.2} s sim wall, {} cycles, peak arena {} flits",
        host.batches,
        batches.iter().map(|b| b.points).sum::<usize>(),
        host.wall_ms / 1e3,
        host.cycles_simulated,
        host.peak_arena_flits,
    );
    eprintln!("[done in {:.1?}]", started.elapsed());
    if !passes {
        std::process::exit(1);
    }
}

/// Injection-rate grid for the uniform-random sweeps (flits/node/cycle).
pub fn rates_ur(cli: Cli) -> Vec<f64> {
    if cli.quick {
        vec![0.05, 0.15, 0.30]
    } else {
        vec![0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40]
    }
}

/// Request-rate grid for the NUCA-UR sweeps (requests/CPU/cycle).
pub fn rates_nuca(cli: Cli) -> Vec<f64> {
    if cli.quick {
        vec![0.05, 0.15]
    } else {
        vec![0.02, 0.05, 0.10, 0.15, 0.20, 0.30]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(args: &[&str]) -> Result<Cli, HostError> {
        Cli::parse_from(args.iter().copied())
    }

    fn rejected_flag(args: &[&str]) -> &'static str {
        match parse(args) {
            Err(HostError::Flag { flag, .. }) => flag,
            other => panic!("{args:?} must be a flag error, got {other:?}"),
        }
    }

    #[test]
    fn flags_parse_into_the_cli() {
        let cli = parse(&[
            "--quick",
            "--metrics-window",
            "500",
            "--metrics-out",
            "m.json",
            "--span-sample-rate",
            "0.25",
            "--fault-rate",
            "0.002",
            "--kill-link",
            "0:1@100",
            "--fault-seed",
            "7",
            "--checkpoint-dir",
            "st",
        ])
        .expect("valid flags");
        assert!(cli.quick && !cli.json);
        assert_eq!(cli.metrics_window, Some(500));
        assert_eq!(cli.metrics_out, Some("m.json"));
        assert_eq!(cli.span_sample_ppm, Some(250_000));
        assert_eq!(cli.fault_rate_ppm, Some(2_000));
        assert_eq!(cli.kill_link, Some((0, 1, 100)));
        assert_eq!(cli.fault_seed, Some(7));
        assert_eq!(cli.checkpoint_dir, Some("st"));
        assert_eq!(parse(&[]).expect("no flags"), Cli::default());
    }

    #[test]
    fn malformed_flags_name_the_flag() {
        assert_eq!(rejected_flag(&["--bogus"]), "--bogus");
        assert_eq!(rejected_flag(&["--metrics-window"]), "--metrics-window", "missing value");
        assert_eq!(rejected_flag(&["--metrics-window", "0"]), "--metrics-window");
        assert_eq!(rejected_flag(&["--metrics-window", "500"]), "--metrics-window", "no dump");
        assert_eq!(rejected_flag(&["--span-sample-rate", "1.5"]), "--span-sample-rate");
        assert_eq!(rejected_flag(&["--fault-rate", "1"]), "--fault-rate");
        assert_eq!(rejected_flag(&["--kill-link", "7-3"]), "--kill-link");
        let err = parse(&["--fault-seed", "x", "--fault-rate", "0.1"]).expect_err("bad seed");
        assert!(err.to_string().contains("--fault-seed") && err.to_string().contains("\"x\""));
    }

    #[test]
    fn blank_paths_are_rejected() {
        // A blank path would write into the working directory.
        for flag in ["--checkpoint-dir", "--blackbox-out", "--trace-out"] {
            assert_eq!(rejected_flag(&[flag, ""]), flag);
            assert_eq!(rejected_flag(&[flag, "  "]), flag);
        }
        assert_eq!(parse(&["--blackbox-out", "bb"]).expect("a directory").blackbox_out, Some("bb"));
    }

    #[test]
    fn journeys_out_needs_a_positive_sample_rate() {
        let args = ["--span-sample-rate", "0", "--journeys-out", "j.json"];
        assert_eq!(rejected_flag(&args), "--journeys-out");
        assert!(parse(&["--journeys-out", "j.json"]).is_ok(), "no rate samples every packet");
        assert!(parse(&["--span-sample-rate", "0.1", "--journeys-out", "j.json"]).is_ok());
        assert!(parse(&["--span-sample-rate", "0"]).is_ok(), "rate 0 alone is the default path");
    }

    #[test]
    fn fault_seed_needs_a_fault_to_seed() {
        assert_eq!(rejected_flag(&["--fault-seed", "7"]), "--fault-seed");
        assert!(parse(&["--fault-seed", "7", "--fault-rate", "0.001"]).is_ok());
        assert!(parse(&["--kill-link", "0:1", "--fault-seed", "7"]).is_ok());
    }

    #[test]
    fn kill_link_must_name_a_link_on_every_architecture() {
        let cli = parse(&["--kill-link", "0:1@250"]).expect("east out of node 0 exists everywhere");
        assert!(cli.fault_config().is_some());
        for spec in ["999:1", "0:0", "0:9", "35:1"] {
            assert_eq!(rejected_flag(&["--kill-link", spec]), "--kill-link", "{spec}");
        }
    }

    #[test]
    fn chaos_stall_must_name_a_router_on_every_architecture() {
        let cli = parse(&["--chaos-stall-at", "400:35"]).expect("every architecture has 36 nodes");
        assert_eq!(cli.sim_config().chaos_stall, Some((400, Some(35))));
        let central = parse(&["--chaos-stall-at", "400"]).expect("the default router");
        assert_eq!(central.sim_config().chaos_stall, Some((400, None)));
        assert_eq!(Cli::default().sim_config().chaos_stall, None);
        for spec in ["", ":", "400:", ":5", "400:36", "400:99999", "-1", "18446744073709551616"] {
            assert_eq!(rejected_flag(&["--chaos-stall-at", spec]), "--chaos-stall-at", "{spec:?}");
        }
    }

    #[test]
    fn options_echo_covers_exactly_the_result_shaping_flags() {
        let echo = |args: &[&str]| parse(args).expect("valid flags").options();
        let base = echo(&[]);
        assert_ne!(echo(&["--quick"]), base, "--quick shapes results");
        assert!(echo(&["--quick"]).contains("quick=true"));
        for shaping in [
            &["--span-sample-rate", "0.5"][..],
            &["--fault-rate", "0.001"],
            &["--kill-link", "0:1"],
            &["--anomaly"],
            &["--chaos-stall-at", "400"],
        ] {
            assert_ne!(echo(shaping), base, "{shaping:?} shapes results");
        }
        for output_only in [
            &["--json"][..],
            &["--resume"],
            &["--checkpoint-dir", "d"],
            &["--progress-json"],
            &["--trace-out", "t"],
            &["--metrics-out", "m.json", "--metrics-window", "500"],
            &["--obs-out", "o.json"],
        ] {
            assert_eq!(echo(output_only), base, "{output_only:?} is output-only");
        }
        // The echo renders parsed values, so spellings of one value agree.
        assert_eq!(echo(&["--fault-rate", "0.0010"]), echo(&["--fault-rate", "0.001"]));
        assert_ne!(echo(&["--chaos-stall-at", "400"]), echo(&["--chaos-stall-at", "400:5"]));
    }

    #[test]
    fn every_exhibit_binary_names_a_listed_entry() {
        let bins = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"));
        for bin in bins.expect("the binaries") {
            let path = bin.expect("a directory entry").path();
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("a UTF-8 name");
            if !matches!(stem, "trace_tool" | "all_experiments") {
                assert_eq!(named(stem).name, stem);
            }
        }
        let mut names: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXHIBITS.len(), "entry names are unique");
    }

    /// Every flag the parser knows, then two it does not.
    const FLAGS: [&str; 19] = [
        "--quick",
        "--json",
        "--progress-json",
        "--resume",
        "--anomaly",
        "--metrics-window",
        "--span-sample-rate",
        "--fault-rate",
        "--kill-link",
        "--chaos-stall-at",
        "--fault-seed",
        "--trace-out",
        "--metrics-out",
        "--journeys-out",
        "--obs-out",
        "--checkpoint-dir",
        "--blackbox-out",
        "--bogus",
        "",
    ];

    /// Well-formed values, the `--chaos-stall-at` edge cases and near
    /// misses.
    const VALUES: [&str; 16] = [
        "",
        ":",
        "400",
        "400:",
        "400:5",
        "400:99999",
        "-1",
        "18446744073709551616",
        "0:1@100",
        "7-3",
        "0.5",
        "1.5",
        "NaN",
        "inf",
        " ",
        "d",
    ];

    /// One argument drawn from `(pick, a, b)`: a flag name, a listed
    /// value, a number, a `cycle:router` pair, or garbage bytes.
    fn token((pick, a, b): (u8, u64, u32)) -> String {
        match pick % 6 {
            0 | 1 => FLAGS[a as usize % FLAGS.len()].to_string(),
            2 => VALUES[a as usize % VALUES.len()].to_string(),
            3 => a.to_string(),
            4 => format!("{}:{b}", a % 1_000),
            _ => String::from_utf8_lossy(&a.to_le_bytes()[..b as usize % 9]).into_owned(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_048))]

        /// The parser never panics: any argument vector is a `Cli` or a
        /// `HostError::Flag`, and a parsed `--metrics-window` always has
        /// the `--metrics-out` dump it shapes.
        #[test]
        fn parse_from_returns_a_cli_or_a_flag_error(
            args in proptest::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u32>()).prop_map(token),
                0..8,
            ),
        ) {
            match Cli::parse_from(args.clone()) {
                Ok(cli) => prop_assert!(
                    cli.metrics_window.is_none() || cli.metrics_out.is_some(),
                    "{:?} windows no dump", args
                ),
                Err(HostError::Flag { .. }) => {}
                Err(other) => prop_assert!(false, "{args:?} gave {other:?}"),
            }
        }
    }
}
