#![warn(missing_docs)]
//! # mira-bench — the benchmark harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §5 for the
//! index). Every binary accepts `--quick` to run a reduced configuration
//! and prints the regenerated exhibit as text (plus `--json` for
//! machine-readable output).
//!
//! Telemetry flags (DESIGN.md §11): `--metrics-window <cycles>` turns on
//! windowed per-router metrics for every simulation the binary runs;
//! `--trace-out <path>` / `--metrics-out <path>` write a Perfetto
//! -compatible event trace and a metrics dump from one representative
//! traced run.
//!
//! Criterion benches covering the simulator engine and each experiment
//! group live under `benches/`.

use std::time::Instant;

use serde::Serialize;

use mira::arch::Arch;
use mira::error::HostError;
use mira::experiments::common::EXPERIMENT_SEED;
use mira::noc::sim::Simulator;
use mira::noc::telemetry::TelemetryConfig;
use mira::noc::traffic::{PayloadProfile, UniformRandom};

pub use mira::experiments::runner::{RunSummary, Runner};

const USAGE: &str = "usage: <bin> [--quick] [--json] [--metrics-window <cycles>] \
                     [--trace-out <path>] [--metrics-out <path>] \
                     [--span-sample-rate <0..=1>] [--journeys-out <path>] \
                     [--fault-rate <fraction>] [--kill-link <node:port[@cycle]>] \
                     [--fault-seed <seed>] \
                     [--obs-out <path>] [--progress-json] \
                     [--resume] [--checkpoint-dir <dir>] [--fail-fast] \
                     [--anomaly] [--blackbox-out <dir>]";

/// Shared CLI handling for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cli {
    /// Reduced configuration (shorter sims, fewer points).
    pub quick: bool,
    /// Emit JSON instead of aligned text.
    pub json: bool,
    /// Windowed-metrics interval in cycles (`--metrics-window`).
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
    /// `--span-sample-rate` narrows it.
    pub journeys_out: Option<&'static str>,
    /// Transient link-fault rate in ppm of flit deliveries, parsed from
    /// the `--fault-rate <fraction>` flag (`0.001` → 1000 ppm).
    pub fault_rate_ppm: Option<u32>,
    /// Permanent link kill as `(node, out-port, cycle)`, from
    /// `--kill-link node:port[@cycle]` (cycle defaults to 0).
    pub kill_link: Option<(usize, usize, u64)>,
    /// Seed for the fault plan (`--fault-seed`); defaults to the fault
    /// subsystem's own default when unset.
    pub fault_seed: Option<u64>,
    /// Write the host-observability snapshot as JSON (`--obs-out`); a
    /// Prometheus text rendering lands next to it with a `.prom`
    /// extension. Giving the flag also enables observability for the
    /// process (phase timers, metrics, the session summary list).
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
    /// Abort the batch on the first point failure instead of running the
    /// remaining points (`--fail-fast`).
    pub fail_fast: bool,
    /// Arm the flight recorder with every detector at its default
    /// threshold (`--anomaly`).
    pub anomaly: bool,
    /// Directory anomaly black-box dumps are written under
    /// (`--blackbox-out`; default `results/blackbox`).
    pub blackbox_out: Option<&'static str>,
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

/// Leaks a flag value so [`Cli`] can stay `Copy` (flags are parsed once
/// per process; the leak is bounded and deliberate).
fn leak(value: String) -> &'static str {
    Box::leak(value.into_boxed_str())
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}; {USAGE}");
    std::process::exit(2);
}

impl Cli {
    /// Parses the process arguments (unknown flags abort with usage).
    /// Also initialises host observability from the environment
    /// (`MIRA_OBS=1`), so every bench binary honours it without code,
    /// and installs the process runner: the runner flags layered over
    /// their environment-variable equivalents, which every batch then
    /// runs on (see [`Cli::runner`]).
    pub fn parse() -> Cli {
        mira_obs::init_from_env();
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--json" => cli.json = true,
                "--metrics-window" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--metrics-window needs a cycle count"));
                    match v.parse::<u64>() {
                        Ok(cycles) if cycles > 0 => cli.metrics_window = Some(cycles),
                        _ => usage_error(&format!("invalid --metrics-window value {v:?}")),
                    }
                }
                "--trace-out" => {
                    let v = args.next().unwrap_or_else(|| usage_error("--trace-out needs a path"));
                    cli.trace_out = Some(leak(v));
                }
                "--metrics-out" => {
                    let v =
                        args.next().unwrap_or_else(|| usage_error("--metrics-out needs a path"));
                    cli.metrics_out = Some(leak(v));
                }
                "--span-sample-rate" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--span-sample-rate needs a fraction"));
                    match v.parse::<f64>() {
                        Ok(f) if (0.0..=1.0).contains(&f) => {
                            cli.span_sample_ppm = Some((f * 1_000_000.0).round() as u32);
                        }
                        _ => usage_error(&format!("invalid --span-sample-rate value {v:?}")),
                    }
                }
                "--journeys-out" => {
                    let v =
                        args.next().unwrap_or_else(|| usage_error("--journeys-out needs a path"));
                    cli.journeys_out = Some(leak(v));
                }
                "--fault-rate" => {
                    let v =
                        args.next().unwrap_or_else(|| usage_error("--fault-rate needs a fraction"));
                    match v.parse::<f64>() {
                        Ok(f) if (0.0..1.0).contains(&f) => {
                            cli.fault_rate_ppm = Some((f * 1_000_000.0).round() as u32);
                        }
                        _ => usage_error(&format!("invalid --fault-rate value {v:?}")),
                    }
                }
                "--kill-link" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--kill-link needs node:port[@cycle]"));
                    match parse_kill_link(&v) {
                        Some(kill) => cli.kill_link = Some(kill),
                        None => usage_error(&format!("invalid --kill-link spec {v:?}")),
                    }
                }
                "--obs-out" => {
                    let v = args.next().unwrap_or_else(|| usage_error("--obs-out needs a path"));
                    cli.obs_out = Some(leak(v));
                    mira_obs::set_enabled(true);
                }
                "--progress-json" => cli.progress_json = true,
                "--resume" => cli.resume = true,
                "--checkpoint-dir" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage_error("--checkpoint-dir needs a directory"));
                    cli.checkpoint_dir = Some(leak(v));
                }
                "--fail-fast" => cli.fail_fast = true,
                "--anomaly" => cli.anomaly = true,
                "--blackbox-out" => {
                    let v =
                        args.next().unwrap_or_else(|| usage_error("--blackbox-out needs a dir"));
                    cli.blackbox_out = Some(leak(v));
                }
                "--fault-seed" => {
                    let v = args.next().unwrap_or_else(|| usage_error("--fault-seed needs a seed"));
                    match v.parse::<u64>() {
                        Ok(seed) => cli.fault_seed = Some(seed),
                        _ => usage_error(&format!("invalid --fault-seed value {v:?}")),
                    }
                }
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => usage_error(&format!("unknown flag {other}")),
            }
        }
        cli.install_runner();
        cli
    }

    /// Installs [`Runner::from_env`] with the runner flags
    /// (`--progress-json`, `--fail-fast`, `--checkpoint-dir`,
    /// `--resume`, `--blackbox-out`) layered on top, so library
    /// exhibits that build their own runner honour them too.
    fn install_runner(&self) {
        let mut runner = Runner::from_env().progress_json(self.progress_json);
        if self.fail_fast {
            runner = runner.fail_fast(true);
        }
        if let Some(dir) = self.checkpoint_dir {
            runner = runner.checkpoint_dir(dir);
        }
        if self.resume {
            runner = runner.resume(true);
        }
        if let Some(dir) = self.blackbox_out {
            runner = runner.blackbox_out(dir);
        }
        runner.install();
    }

    /// The simulation window for this invocation (metrics windows wired
    /// in when `--metrics-window` was given).
    pub fn sim_config(&self) -> mira::noc::sim::SimConfig {
        let base = if self.quick {
            mira::experiments::quick_sim_config()
        } else {
            mira::noc::sim::SimConfig {
                warmup_cycles: 2_000,
                measure_cycles: 10_000,
                drain_cycles: 30_000,
                ..mira::noc::sim::SimConfig::default()
            }
        };
        let mut telemetry = match self.metrics_window {
            Some(w) => TelemetryConfig::windows(w),
            None => TelemetryConfig::disabled(),
        };
        if let Some(ppm) = self.span_sample_ppm {
            telemetry = telemetry.with_journeys(ppm);
        }
        let base = base.with_telemetry(telemetry);
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
    pub fn anomaly_config(&self) -> Option<mira::noc::anomaly::AnomalyConfig> {
        self.anomaly.then(mira::noc::anomaly::AnomalyConfig::detect)
    }

    /// The fault configuration requested by `--fault-rate` /
    /// `--kill-link` / `--fault-seed`, or `None` when no fault flag was
    /// given (so the default path stays bit-identical to the fault-free
    /// simulator).
    pub fn fault_config(&self) -> Option<mira::noc::fault::FaultConfig> {
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

    /// The worker pool for this invocation: the runner [`Cli::parse`]
    /// installed (sized by `available_parallelism`, overridable with
    /// `MIRA_JOBS`; the progress line shows whenever stderr is a
    /// terminal; the runner flags layered over their
    /// environment-variable equivalents).
    pub fn runner(&self) -> Runner {
        Runner::from_env()
    }
}

/// The journeys dump written by `--journeys-out`: what the `journey`
/// subcommand of `trace_tool` pretty-prints.
#[derive(Debug, Clone, Serialize)]
pub struct JourneysDump {
    /// Architecture of the representative run.
    pub arch: String,
    /// Head-sampling rate in ppm.
    pub sample_ppm: u32,
    /// The tail-latency attribution report over the sampled journeys.
    pub report: mira::noc::JourneyReport,
    /// Every completed sampled journey, in completion order.
    pub journeys: Vec<mira::noc::PacketJourney>,
}

/// The metrics dump written by `--metrics-out`: what the `netview`
/// subcommand of `trace_tool` renders.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsDump {
    /// Architecture of the representative run.
    pub arch: String,
    /// Metrics-window length in cycles.
    pub window_cycles: u64,
    /// The closed windows.
    pub windows: Vec<mira::noc::telemetry::MetricsWindow>,
}

/// Runs one representative traced simulation and writes the artifacts
/// requested by `--trace-out` / `--metrics-out`. A no-op when neither
/// flag is set. The run is separate from the exhibit's own simulations,
/// so enabling tracing never perturbs published numbers: 3DM at UR 0.15
/// with 50% short flits and layer shutdown on — a load that exercises
/// every pipeline stage, credit stalls, and layer gating.
pub fn write_telemetry_artifacts(cli: Cli) {
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
        let dump = MetricsDump {
            arch: arch.name().to_string(),
            window_cycles: window,
            windows: report.windows.clone(),
        };
        let json = serde_json::to_string_pretty(&dump).expect("serialisable dump");
        if let Err(e) = std::fs::write(path, json) {
            HostError::io("write metrics to", path, &e).exit();
        }
        eprintln!(
            "[telemetry] {} metrics windows written to {path} (render with `trace_tool netview`)",
            report.windows.len()
        );
    }
    if let Some(path) = cli.journeys_out {
        let dump = JourneysDump {
            arch: arch.name().to_string(),
            sample_ppm: journey_ppm,
            report: report.journeys.clone().expect("journey recorder installed"),
            journeys: sim.journeys().to_vec(),
        };
        let json = serde_json::to_string_pretty(&dump).expect("serialisable journeys");
        if let Err(e) = std::fs::write(path, json) {
            HostError::io("write journeys to", path, &e).exit();
        }
        eprintln!(
            "[telemetry] {} packet journeys written to {path} (inspect with `trace_tool journey`)",
            dump.journeys.len()
        );
    }
}

/// Writes the host-observability snapshot requested by `--obs-out`: the
/// JSON snapshot at the given path plus a Prometheus text rendering next
/// to it with a `.prom` extension. A no-op when the flag is off.
pub fn write_obs_artifacts(cli: Cli) {
    let Some(path) = cli.obs_out else {
        return;
    };
    let snap = mira_obs::snapshot();
    if let Err(e) = std::fs::write(path, snap.to_json()) {
        HostError::io("write obs snapshot to", path, &e).exit();
    }
    let prom_path = std::path::Path::new(path).with_extension("prom");
    if let Err(e) = std::fs::write(&prom_path, snap.to_prometheus()) {
        HostError::io("write obs exposition to", &prom_path, &e).exit();
    }
    eprintln!(
        "[obs] snapshot written to {path} (+ {}; inspect with `trace_tool obs`)",
        prom_path.display()
    );
}

/// Prints an exhibit in the requested format, with a timing footer.
pub fn emit<T: serde::Serialize>(cli: Cli, text: &str, value: &T, started: Instant) {
    if cli.json {
        println!("{}", serde_json::to_string_pretty(value).expect("serialisable exhibit"));
    } else {
        println!("{text}");
    }
    write_telemetry_artifacts(cli);
    write_obs_artifacts(cli);
    eprintln!("[done in {:.1?}]", started.elapsed());
}

/// Like [`emit`], but includes the runner's machine-readable batch
/// summary: in JSON mode the output becomes
/// `{"exhibit": ..., "runner": ...}`; in text mode the summary is one
/// stderr line.
pub fn emit_with_runner<T: serde::Serialize>(
    cli: Cli,
    text: &str,
    value: &T,
    summary: &RunSummary,
    started: Instant,
) {
    if cli.json {
        let wrapped = serde::Value::Object(vec![
            ("exhibit".to_string(), value.to_value()),
            ("runner".to_string(), summary.to_value()),
        ]);
        println!("{}", serde_json::to_string_pretty(&wrapped).expect("serialisable exhibit"));
    } else {
        println!("{text}");
        eprintln!("[runner] {}", summary.one_line());
    }
    write_telemetry_artifacts(cli);
    write_obs_artifacts(cli);
    eprintln!("[done in {:.1?}]", started.elapsed());
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
