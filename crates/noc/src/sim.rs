//! The simulation driver: warm-up, measurement, and drain phases.
//!
//! [`Simulator`] owns a [`Network`] and drives it against a [`Workload`]:
//!
//! 1. **warm-up** — traffic flows but nothing is recorded, letting the
//!    network reach steady state;
//! 2. **measurement** — packets created in this window are tracked; their
//!    latency, hop counts and the datapath activity feed the report;
//! 3. **drain** — generation stops and the simulator runs until every
//!    measured packet has ejected or the drain budget is exhausted
//!    (the latter indicates saturation).
//!
//! Latency is measured from packet creation (entering the source queue)
//! to the tail flit's ejection, so source queueing delay is included —
//! matching how latency-vs-injection curves in the paper blow up at
//! saturation.

use std::collections::BTreeMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::anomaly::{AnomalyAbort, AnomalyConfig, AnomalyCounts, AnomalyKind};
use crate::config::NetworkConfig;
use crate::fault::{FaultConfig, FaultCounters};
use crate::journey::{JourneyReport, PacketJourney};
use crate::network::Network;
use crate::packet::{Packet, PacketId, PacketSpec};
use crate::recorder::{self, FlightRecorder};
use crate::stats::{
    ActivityCounters, LatencyHistogram, LatencyStats, PerClassLatency, RouterActivity,
};
use crate::telemetry::{MetricsWindow, StallCounters, TelemetryConfig};
use crate::topology::Topology;
use crate::traffic::{EjectedPacket, Workload};

/// Phase lengths for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Cycles before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles during which created packets are measured.
    pub measure_cycles: u64,
    /// Maximum extra cycles to wait for measured packets to drain.
    pub drain_cycles: u64,
    /// Telemetry switches (event tracing and windowed metrics; both off
    /// by default — the zero-overhead path).
    pub telemetry: TelemetryConfig,
    /// Fault-injection switches (off by default — the zero-overhead
    /// path, bit-identical to a build without the fault subsystem).
    pub faults: FaultConfig,
    /// Whether the flight recorder is armed (off by default — the
    /// zero-overhead path: no recorder is constructed and the run is
    /// bit-identical to a build without the anomaly subsystem).
    pub anomaly: AnomalyConfig,
    /// Chaos hook: `(cycle, router)` at which to freeze one router's
    /// switch allocator, so the no-progress watchdog is deterministically
    /// testable (`--chaos-stall-at`). A `None` router is the roughly
    /// central node `nodes / 2`, which uniform traffic is guaranteed to
    /// cross. Off (`None`) by default.
    pub chaos_stall: Option<(u64, Option<usize>)>,
    /// Ignored: stepping is always sequential (DESIGN.md §18). Kept only
    /// so existing callers that set it compile.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 5_000,
            drain_cycles: 20_000,
            telemetry: TelemetryConfig::disabled(),
            faults: FaultConfig::disabled(),
            anomaly: AnomalyConfig::disabled(),
            chaos_stall: None,
            shards: 1,
        }
    }
}

impl SimConfig {
    /// A short configuration for unit tests.
    pub fn short() -> Self {
        SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            drain_cycles: 5_000,
            ..SimConfig::default()
        }
    }

    /// The same phase lengths with different telemetry switches.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The same phase lengths with fault injection configured.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The same phase lengths with the flight recorder armed or not.
    #[must_use]
    pub fn with_anomaly(mut self, anomaly: AnomalyConfig) -> Self {
        self.anomaly = anomaly;
        self
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Mean packet latency in cycles over measured packets.
    pub avg_latency: f64,
    /// Mean hop count over measured packets.
    pub avg_hops: f64,
    /// Accepted throughput in flits/node/cycle during the measurement
    /// window.
    pub throughput: f64,
    /// Measured packets created.
    pub packets_created: u64,
    /// Measured packets that fully ejected.
    pub packets_ejected: u64,
    /// Measured packets dropped by the fault machinery (severed by a
    /// dead link or an exhausted retry budget). Zero when faults are
    /// off.
    pub packets_dropped: u64,
    /// `true` when the drain budget expired with measured packets still
    /// in flight — the network is past saturation at this load.
    pub saturated: bool,
    /// Fault and recovery accounting over the whole run (all zero when
    /// fault injection is off).
    pub faults: FaultCounters,
    /// Datapath activity during the measurement window only.
    pub counters: ActivityCounters,
    /// Latency statistics per packet class.
    pub per_class: PerClassLatency,
    /// Per-router datapath activity during the measurement window
    /// (spatial power distribution).
    pub per_router: Vec<RouterActivity>,
    /// Full latency distribution of measured packets.
    pub histogram: LatencyHistogram,
    /// Total cycles simulated (all phases).
    pub cycles_simulated: u64,
    /// Stall-cause counters over the measurement window, summed across
    /// routers (per-cause values sum to `stalls.stalled`).
    pub stalls: StallCounters,
    /// Closed metrics windows, when `SimConfig::telemetry` enabled them
    /// (covers all phases, not just measurement).
    pub windows: Vec<MetricsWindow>,
    /// Tail-latency attribution over sampled packet journeys, when
    /// `SimConfig::telemetry` enabled span sampling (covers all phases).
    pub journeys: Option<JourneyReport>,
    /// Per-kind anomaly-detector firing counts (all zero when detection
    /// is off or the run was clean).
    pub anomalies: AnomalyCounts,
}

impl SimReport {
    /// Latency statistics aggregated over all classes.
    pub fn latency(&self) -> LatencyStats {
        self.per_class.total()
    }
}

// Hand-written so a clean report's JSON stays byte-identical to the
// pre-anomaly format: `anomalies` is appended only when a detector
// actually fired (the golden-bits suites pin this).
impl Serialize for SimReport {
    fn serialize(&self, e: &mut dyn serde::Emitter) {
        e.begin_object();
        e.field("avg_latency", &self.avg_latency);
        e.field("avg_hops", &self.avg_hops);
        e.field("throughput", &self.throughput);
        e.field("packets_created", &self.packets_created);
        e.field("packets_ejected", &self.packets_ejected);
        e.field("packets_dropped", &self.packets_dropped);
        e.field("saturated", &self.saturated);
        e.field("faults", &self.faults);
        e.field("counters", &self.counters);
        e.field("per_class", &self.per_class);
        e.field("per_router", &self.per_router);
        e.field("histogram", &self.histogram);
        e.field("cycles_simulated", &self.cycles_simulated);
        e.field("stalls", &self.stalls);
        e.field("windows", &self.windows);
        e.field("journeys", &self.journeys);
        if self.anomalies.total() > 0 {
            e.field("anomalies", &self.anomalies);
        }
        e.end_object();
    }
}

impl Deserialize for SimReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(SimReport {
            avg_latency: f64::from_field(v, "avg_latency")?,
            avg_hops: f64::from_field(v, "avg_hops")?,
            throughput: f64::from_field(v, "throughput")?,
            packets_created: u64::from_field(v, "packets_created")?,
            packets_ejected: u64::from_field(v, "packets_ejected")?,
            packets_dropped: u64::from_field(v, "packets_dropped")?,
            saturated: bool::from_field(v, "saturated")?,
            faults: FaultCounters::from_field(v, "faults")?,
            counters: ActivityCounters::from_field(v, "counters")?,
            per_class: PerClassLatency::from_field(v, "per_class")?,
            per_router: Vec::from_field(v, "per_router")?,
            histogram: LatencyHistogram::from_field(v, "histogram")?,
            cycles_simulated: u64::from_field(v, "cycles_simulated")?,
            stalls: StallCounters::from_field(v, "stalls")?,
            windows: Vec::from_field(v, "windows")?,
            journeys: Option::from_field(v, "journeys")?,
            // Absent in pre-anomaly reports (and omitted for clean
            // runs): default to all-zero counts.
            anomalies: match v.field("anomalies") {
                serde::Value::Null => AnomalyCounts::default(),
                present => AnomalyCounts::from_value(present)?,
            },
        })
    }
}

/// The capacity of the run's one trace ring: an explicit
/// [`TelemetryConfig::trace_capacity`] wins; otherwise an armed flight
/// recorder's [`recorder::RING_CAPACITY`], whose ring the recorder then
/// reads; otherwise 0, no ring.
fn trace_capacity(cfg: &SimConfig) -> usize {
    if cfg.telemetry.trace_capacity > 0 {
        cfg.telemetry.trace_capacity
    } else if cfg.anomaly.is_enabled() {
        recorder::RING_CAPACITY
    } else {
        0
    }
}

/// The simulation driver.
pub struct Simulator {
    network: Network,
    cfg: SimConfig,
    next_packet: u64,
    /// Ids of the measured packets: [`Simulator::inject`] hands out ids
    /// in creation order, so they run from the first id issued in the
    /// measurement window to the first issued after it. Empty until the
    /// window opens and open-ended until it closes.
    measured: Range<u64>,
    /// Closed-loop replies keyed by `(due cycle, sequence)`; the
    /// sequence number breaks ties deterministically.
    pending: BTreeMap<(u64, u64), PacketSpec>,
    next_reply_seq: u64,
    /// Reused per-cycle ejection buffer (keeps the hot loop free of
    /// per-cycle `Vec` churn).
    eject_buf: Vec<crate::router::EjectedFlit>,
    /// The flight recorder, present only when `SimConfig::anomaly`
    /// arms it (the disabled path allocates nothing).
    recorder: Option<Box<FlightRecorder>>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("network", &self.network)
            .field("config", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Creates a simulator over `topo` with the given network and phase
    /// configuration.
    pub fn new(topo: Box<dyn Topology>, net_cfg: NetworkConfig, cfg: SimConfig) -> Self {
        let mut network = Network::new(topo, net_cfg);
        network.set_telemetry(TelemetryConfig {
            trace_capacity: trace_capacity(&cfg),
            ..cfg.telemetry
        });
        network.set_faults(cfg.faults).expect("invalid fault configuration");
        let recorder = cfg.anomaly.is_enabled().then(Box::<FlightRecorder>::default);
        Simulator {
            network,
            cfg,
            next_packet: 0,
            measured: u64::MAX..u64::MAX,
            pending: BTreeMap::new(),
            next_reply_seq: 0,
            eject_buf: Vec::new(),
            recorder,
        }
    }

    /// Access to the underlying network (e.g. for counters).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The recorded event trace as Chrome trace-event JSON, when the run
    /// was configured with a non-zero trace capacity. When span sampling
    /// is also enabled, flow events linking each sampled packet's hops
    /// across routers are appended to the trace.
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.network.trace_sink().map(|t| t.to_chrome_trace(self.journeys()))
    }

    /// Completed journeys of sampled packets (empty when span sampling
    /// is off).
    pub fn journeys(&self) -> &[PacketJourney] {
        self.network.journeys().map_or(&[], |j| j.finished())
    }

    /// In-flight packets that belong to the measurement window. After
    /// [`Simulator::run`] this is non-zero exactly when the report says
    /// `saturated` — the drain failed to empty the measured population.
    pub fn in_flight_measured(&self) -> usize {
        self.network.packets_in_flight().filter(|(_, p)| self.measured.contains(&p.id.0)).count()
    }

    /// Measured packets created so far.
    fn measured_created(&self) -> u64 {
        self.measured.end.min(self.next_packet).saturating_sub(self.measured.start)
    }

    /// The flight recorder's per-kind firing counts (all zero when
    /// anomaly detection is off).
    fn anomaly_counts(&self) -> AnomalyCounts {
        self.recorder.as_ref().map(|r| r.counts()).unwrap_or_default()
    }

    /// Every detector firing so far, in order (empty when anomaly
    /// detection is off).
    pub fn anomalies_fired(&self) -> &[crate::anomaly::FiredDetector] {
        self.recorder.as_deref().map(FlightRecorder::fired).unwrap_or(&[])
    }

    fn inject(&mut self, spec: PacketSpec, cycle: u64) {
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let measured = self.measured.contains(&id.0);
        self.network.telemetry_mut().packet_created(id, cycle, spec.class, measured);
        self.network.enqueue_packet(Packet {
            id,
            src: spec.src,
            dst: spec.dst,
            class: spec.class,
            payload: spec.payload,
            created_at: cycle,
        });
    }

    fn schedule_replies(&mut self, replies: Vec<(u64, PacketSpec)>, cycle: u64) {
        for (delay, spec) in replies {
            let due = cycle + delay.max(1);
            let seq = self.next_reply_seq;
            self.next_reply_seq += 1;
            self.pending.insert((due, seq), spec);
        }
    }

    fn inject_due_replies(&mut self, cycle: u64) {
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > cycle {
                break;
            }
            let spec = entry.remove();
            self.inject(spec, cycle);
        }
    }

    /// Processes ejections for one cycle; returns how many *measured*
    /// packets completed.
    fn process_ejections(
        &mut self,
        cycle: u64,
        workload: &mut dyn Workload,
        per_class: &mut PerClassLatency,
        histogram: &mut LatencyHistogram,
    ) -> u64 {
        let mut completed = 0;
        let mut ejected_flits = std::mem::take(&mut self.eject_buf);
        self.network.drain_ejected(&mut ejected_flits);
        for e in &ejected_flits {
            let f = &e.flit;
            if !f.is_tail() {
                continue;
            }
            self.network.telemetry_mut().packet_ejected(f.packet, e.cycle);
            // A packet the fault layer severed is already counted as
            // dropped, even when its tail still ejects in the same cycle.
            if self.network.severed(f.packet) {
                continue;
            }
            let latency = e.cycle - f.created_at;
            if self.measured.contains(&f.packet.0) {
                per_class.record(f.class, latency, f.hops);
                histogram.record(latency);
                if let Some(rec) = self.recorder.as_deref_mut() {
                    rec.record_latency(latency);
                }
                completed += 1;
            }
            let ejected = EjectedPacket {
                id: f.packet,
                src: f.src,
                dst: f.dst,
                class: f.class,
                created_at: f.created_at,
                ejected_at: e.cycle,
                hops: f.hops,
                len_flits: f.seq as usize + 1,
            };
            // Replies inherit measurement status from the window in
            // which they are eventually *injected* (see `run`), not the
            // window of this ejection.
            let replies = workload.on_ejected(e.cycle, &ejected);
            self.schedule_replies(replies, cycle);
        }
        ejected_flits.clear();
        self.eject_buf = ejected_flits;
        completed
    }

    /// Collects drop notifications from the fault machinery; returns
    /// how many *measured* packets were severed.
    fn process_drops(&mut self) -> u64 {
        let dropped = self.network.take_dropped();
        dropped.iter().filter(|pid| self.measured.contains(&pid.0)).count() as u64
    }

    /// Runs every anomaly detector for `cycle` and, when the
    /// no-progress watchdog fires, captures the black box and unwinds
    /// with an [`AnomalyAbort`] carrying its rendered JSON.
    fn evaluate_anomalies(&mut self, cycle: u64) {
        let Some(rec) = self.recorder.as_deref_mut() else { return };
        if !rec.evaluate(&self.network, cycle) {
            return;
        }
        let trigger = rec.fired().last().cloned().expect("no-progress fired without a record");
        let bb = recorder::capture(&self.network, cycle, trigger, rec.fired(), rec.counts());
        debug_assert_eq!(bb.check(), Ok(()), "a captured black box breaks its own invariants");
        let dump = serde_json::to_string_pretty(&bb).expect("black box serializes");
        std::panic::panic_any(AnomalyAbort { kind: AnomalyKind::NoProgress, cycle, dump });
    }

    /// Runs the workload through warm-up, measurement, and drain, and
    /// returns the report.
    pub fn run(&mut self, mut workload: Box<dyn Workload>) -> SimReport {
        workload.init(self.network.topology().num_nodes());

        let warm_end = self.cfg.warmup_cycles;
        let measure_end = warm_end + self.cfg.measure_cycles;
        let hard_end = measure_end + self.cfg.drain_cycles;

        let mut per_class = PerClassLatency::new();
        let mut histogram = LatencyHistogram::new();
        let mut counters_at_start = ActivityCounters::new();
        let mut activity_at_start: Vec<RouterActivity> = Vec::new();
        let mut stalls_at_start = StallCounters::new();
        let mut counters_at_measure_end: Option<ActivityCounters> = None;
        // warm_end == 0 means measurement starts immediately; the zeroed
        // defaults above are then the correct snapshot.
        let mut warm_snapshot_taken = warm_end == 0;
        let mut measured_done = 0u64;
        let mut measured_dropped = 0u64;
        let mut cycle = 0u64;

        while cycle < hard_end {
            if !warm_snapshot_taken && cycle >= warm_end {
                counters_at_start = self.network.counters().clone();
                activity_at_start = self.network.router_activity().to_vec();
                stalls_at_start = self.network.stall_totals();
                warm_snapshot_taken = true;
            }
            if counters_at_measure_end.is_none() && cycle >= measure_end {
                counters_at_measure_end = Some(self.network.counters().clone());
            }
            if cycle == warm_end {
                self.measured = self.next_packet..u64::MAX;
            }
            if cycle == measure_end {
                self.measured.end = self.next_packet;
            }

            {
                let _obs = mira_obs::phase::scope(mira_obs::phase::Phase::Workload);
                if cycle < measure_end {
                    for spec in workload.generate(cycle) {
                        self.inject(spec, cycle);
                    }
                }
                // Replies due now are injected with the current window's
                // measurement status.
                self.inject_due_replies(cycle);
            }

            if let Some((at, router)) = self.cfg.chaos_stall {
                if cycle == at {
                    let router = router.unwrap_or(self.network.topology().num_nodes() / 2);
                    self.network.freeze_router_sa(router);
                }
            }

            self.network.step(cycle);
            {
                let _obs = mira_obs::phase::scope(mira_obs::phase::Phase::Ejection);
                measured_dropped += self.process_drops();
                measured_done +=
                    self.process_ejections(cycle, &mut *workload, &mut per_class, &mut histogram);
            }
            if self.recorder.is_some() {
                let _obs = mira_obs::phase::scope(mira_obs::phase::Phase::Anomaly);
                self.evaluate_anomalies(cycle);
            }

            cycle += 1;

            // Early exit once everything measured has drained (delivered
            // or dropped) and the measurement window is over.
            if cycle >= measure_end
                && measured_done + measured_dropped >= self.measured_created()
                && self.network.is_drained()
            {
                break;
            }
        }

        if !warm_snapshot_taken {
            counters_at_start = self.network.counters().clone();
            activity_at_start = self.network.router_activity().to_vec();
            stalls_at_start = self.network.stall_totals();
        }
        let counters = self.network.counters().delta_since(&counters_at_start);
        let per_router: Vec<RouterActivity> = if activity_at_start.is_empty() {
            self.network.router_activity().to_vec()
        } else {
            self.network
                .router_activity()
                .iter()
                .zip(&activity_at_start)
                .map(|(now, then)| now.delta_since(then))
                .collect()
        };
        let total = per_class.total();
        let nodes = self.network.topology().num_nodes() as f64;
        // Accepted throughput: flits ejected during the *measurement
        // window only* (warm-end snapshot to measure-end snapshot), per
        // node per cycle — drain-phase activity is excluded so low-load
        // throughput is not biased down by idle drain cycles.
        let window = counters_at_measure_end
            .unwrap_or_else(|| self.network.counters().clone())
            .delta_since(&counters_at_start);
        let throughput = window.flits_ejected as f64 / ((window.cycles.max(1)) as f64 * nodes);
        let measured_created = self.measured_created();

        SimReport {
            avg_latency: total.mean(),
            avg_hops: total.mean_hops(),
            throughput,
            packets_created: measured_created,
            packets_ejected: measured_done,
            packets_dropped: measured_dropped,
            saturated: measured_done + measured_dropped < measured_created,
            faults: self.network.fault_counters(),
            counters,
            per_class,
            per_router,
            histogram,
            cycles_simulated: cycle,
            stalls: self.network.stall_totals().delta_since(&stalls_at_start),
            windows: self.network.take_metrics_windows(),
            journeys: self.network.journeys().map(|j| j.report()),
            anomalies: self.anomaly_counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, RouterConfig};
    use crate::telemetry::TraceSink;
    use crate::topology::{ExpressMesh2D, Mesh2D};
    use crate::traffic::UniformRandom;

    fn run_ur(rate: f64, combined: bool) -> SimReport {
        let pipeline =
            if combined { PipelineConfig::combined_st_lt() } else { PipelineConfig::separate_lt() };
        let cfg = NetworkConfig {
            router: RouterConfig { pipeline, ..RouterConfig::default() },
            ..NetworkConfig::default()
        };
        let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), cfg, SimConfig::short());
        sim.run(Box::new(UniformRandom::new(rate, 5, 42)))
    }

    #[test]
    fn low_load_run_completes_and_measures() {
        let r = run_ur(0.02, false);
        assert!(!r.saturated, "2% load on a 4x4 mesh must not saturate");
        assert!(r.packets_created > 0);
        assert_eq!(r.packets_created, r.packets_ejected);
        assert!(r.avg_latency > 10.0, "got {}", r.avg_latency);
        assert!(r.avg_hops > 1.0 && r.avg_hops < 4.0, "got {}", r.avg_hops);
    }

    #[test]
    fn latency_monotone_in_load() {
        let lat_low = run_ur(0.02, false).avg_latency;
        let lat_mid = run_ur(0.15, false).avg_latency;
        assert!(lat_mid > lat_low, "latency must grow with load: {lat_low} vs {lat_mid}");
    }

    #[test]
    fn combined_pipeline_cuts_latency() {
        let sep = run_ur(0.05, false).avg_latency;
        let comb = run_ur(0.05, true).avg_latency;
        assert!(comb < sep, "combined {comb} must beat separate {sep}");
        // Roughly one cycle per hop: avg hops ≈ 2.5 on 4x4.
        assert!(sep - comb > 1.5, "saving too small: {}", sep - comb);
    }

    #[test]
    fn express_mesh_cuts_hops_and_latency() {
        let cfg = NetworkConfig::default();
        let mut mesh_sim = Simulator::new(Box::new(Mesh2D::new(6, 6)), cfg, SimConfig::short());
        let mesh = mesh_sim.run(Box::new(UniformRandom::new(0.05, 5, 42)));

        let mut exp_sim =
            Simulator::new(Box::new(ExpressMesh2D::new(6, 6)), cfg, SimConfig::short());
        let exp = exp_sim.run(Box::new(UniformRandom::new(0.05, 5, 42)));

        assert!(exp.avg_hops < mesh.avg_hops * 0.75, "{} vs {}", exp.avg_hops, mesh.avg_hops);
        assert!(exp.avg_latency < mesh.avg_latency, "{} vs {}", exp.avg_latency, mesh.avg_latency);
    }

    #[test]
    fn saturation_detected_at_overload() {
        // Offered load far above mesh capacity must be flagged.
        let mut sim = Simulator::new(
            Box::new(Mesh2D::new(4, 4)),
            NetworkConfig::default(),
            SimConfig {
                warmup_cycles: 100,
                measure_cycles: 500,
                drain_cycles: 300,
                ..SimConfig::default()
            },
        );
        let r = sim.run(Box::new(UniformRandom::new(0.9, 5, 42)));
        assert!(r.saturated);
        assert!(r.packets_ejected < r.packets_created);
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let r = run_ur(0.1, false);
        assert!((r.throughput - 0.1).abs() < 0.02, "accepted {} vs offered 0.1", r.throughput);
    }

    /// The run's one trace ring: an explicit trace capacity wins over an
    /// armed recorder's ring, the recorder's constant ring is the
    /// fallback, and neither leaves no ring at all.
    #[test]
    fn one_trace_ring_capacity() {
        let ring = |telemetry: TelemetryConfig, anomaly: AnomalyConfig| {
            let cfg = SimConfig::short().with_telemetry(telemetry).with_anomaly(anomaly);
            let sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), NetworkConfig::default(), cfg);
            sim.network().trace_sink().map(TraceSink::capacity)
        };
        let (armed, off) = (AnomalyConfig::detect(), AnomalyConfig::disabled());
        let explicit = TelemetryConfig { trace_capacity: 64, ..TelemetryConfig::disabled() };
        let recorders = Some(recorder::RING_CAPACITY);
        assert_eq!(ring(TelemetryConfig::disabled(), armed), recorders, "recorder's ring");
        assert_eq!(ring(explicit, armed), Some(64), "explicit capacity wins");
        assert_eq!(ring(explicit, off), Some(64));
        assert_eq!(ring(TelemetryConfig::disabled(), off), None);
        assert_eq!(ring(TelemetryConfig::windows(100), off), None, "no ring asked");
    }

    #[test]
    fn deterministic_reports() {
        let a = run_ur(0.1, false);
        let b = run_ur(0.1, false);
        assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
        assert_eq!(a.counters, b.counters);
    }
}
