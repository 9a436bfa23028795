//! The CMP system model: CPUs + L1s + banked L2 + directory → traces.
//!
//! Event flow per memory reference (paper §4.1.2's MESI protocol with
//! distributed directories and L1 inclusion):
//!
//! * **L1 hit** — no network traffic (silent E→M upgrade on stores);
//! * **load miss** — `GetS` to the home bank; if another core owns the
//!   line exclusively the home downgrades it (`Inv` out, `WriteBack`
//!   back), then answers with `Data`;
//! * **store miss / S-upgrade** — `GetX` to the home; every other holder
//!   is invalidated (`Inv` out; dirty holders answer `WriteBack`, clean
//!   ones `InvAck`), then `Data`;
//! * **L1 eviction** of a Modified line — `WriteBack` to the home.
//!
//! Each message becomes a timestamped [`TraceRecord`]; timestamps use
//! nominal network/bank latencies (trace replay is open-loop, so only
//! their order of magnitude matters). L2 misses cost DRAM latency but
//! generate no NoC traffic — the paper's network connects CPUs and cache
//! banks only.

use std::vec::Drain;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use mira_noc::ids::NodeId;
use mira_noc::packet::PacketClass;
use mira_traffic::trace::TraceRecord;
use mira_traffic::workloads::{AppProfile, Application};

use crate::cache::{CacheArray, Mesi};
use crate::data::LineDataSynth;
use crate::directory::Directory;
use crate::protocol::CoherenceMsg;
use crate::snuca::BankMap;
use crate::stream::{AddressStream, StreamConfig};

/// Records [`CmpSystem::generate`] gathers before it hands them on.
const BATCH: usize = 256;

/// Configuration of the CMP trace generator.
#[derive(Debug, Clone)]
pub struct CmpConfig {
    /// Nodes hosting CPUs (paper: 8).
    pub cpu_nodes: Vec<NodeId>,
    /// Nodes hosting L2 banks (paper: 28).
    pub bank_nodes: Vec<NodeId>,
    /// Application profile (workload substitution — see crate docs).
    pub profile: AppProfile,
    /// Address-stream shape.
    pub stream: StreamConfig,
    /// Memory references per CPU per cycle.
    pub access_rate: f64,
    /// Nominal one-way network latency used for message timestamps.
    pub nominal_net_latency: u64,
    /// L2 bank access latency (paper Table 4: 4 cycles).
    pub bank_latency: u64,
    /// DRAM access latency on an L2 miss (paper Table 4: 400 cycles).
    pub memory_latency: u64,
    /// Sets per L2 bank (512 KB / 64 B / 8 ways = 1024 sets).
    pub l2_sets: usize,
    /// Associativity of each L2 bank.
    pub l2_ways: usize,
    /// RNG seed.
    pub seed: u64,
}

impl CmpConfig {
    /// Builds the configuration for one application on the given node
    /// partition, deriving the stream shape from the profile.
    pub fn for_app(
        app: Application,
        cpu_nodes: Vec<NodeId>,
        bank_nodes: Vec<NodeId>,
        seed: u64,
    ) -> Self {
        let profile = app.profile();
        let stream = StreamConfig {
            shared_prob: profile.shared_line_fraction,
            write_prob: 1.0 - profile.read_fraction,
            ..StreamConfig::default()
        };
        CmpConfig {
            cpu_nodes,
            bank_nodes,
            profile,
            stream,
            // Initial guess, refined by `CmpSystem::calibrate_rate`.
            access_rate: (profile.offered_load * 2.0).min(0.9),
            nominal_net_latency: 20,
            bank_latency: 4,
            memory_latency: 400,
            l2_sets: 1024,
            l2_ways: 8,
            seed,
        }
    }
}

/// The CMP model.
///
/// ```
/// use mira_noc::ids::NodeId;
/// use mira_nuca::cmp::{CmpConfig, CmpSystem, TraceStats};
/// use mira_traffic::workloads::Application;
///
/// let cpus: Vec<NodeId> = (0..4).map(NodeId).collect();
/// let banks: Vec<NodeId> = (4..16).map(NodeId).collect();
/// let mut sys = CmpSystem::new(CmpConfig::for_app(Application::Tpcw, cpus, banks, 7));
/// let trace = sys.generate_trace(2_000);
/// let stats = TraceStats::from_trace(&trace, 2_000);
/// assert!(stats.packets > 0);
/// assert!(stats.control_fraction() > 0.4);
/// ```
#[derive(Debug)]
pub struct CmpSystem {
    cfg: CmpConfig,
    l1s: Vec<CacheArray>,
    l2_banks: Vec<CacheArray>,
    directories: Vec<Directory>,
    bank_map: BankMap,
    streams: Vec<AddressStream>,
    synth: LineDataSynth,
    rng: SmallRng,
}

impl CmpSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the CPU or bank set is empty or the access rate is
    /// outside `[0, 1]`.
    pub fn new(cfg: CmpConfig) -> Self {
        assert!(!cfg.cpu_nodes.is_empty(), "need CPUs");
        assert!(!cfg.bank_nodes.is_empty(), "need banks");
        assert!((0.0..=1.0).contains(&cfg.access_rate), "access rate in [0,1]");
        let n_cpus = cfg.cpu_nodes.len();
        let synth = LineDataSynth::new(&cfg.profile);
        let streams = (0..n_cpus).map(|i| AddressStream::new(i, cfg.stream, cfg.seed)).collect();
        CmpSystem {
            l1s: (0..n_cpus).map(|_| CacheArray::l1()).collect(),
            l2_banks: (0..cfg.bank_nodes.len())
                .map(|_| CacheArray::new(cfg.l2_sets, cfg.l2_ways))
                .collect(),
            directories: (0..cfg.bank_nodes.len()).map(|_| Directory::new()).collect(),
            bank_map: BankMap::new(cfg.bank_nodes.clone()),
            streams,
            synth,
            rng: SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0xD134_2543_DE82_EF95)),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CmpConfig {
        &self.cfg
    }

    fn push(
        &mut self,
        out: &mut Vec<TraceRecord>,
        cycle: u64,
        src: NodeId,
        dst: NodeId,
        msg: CoherenceMsg,
    ) {
        let payload = if msg.packet_class().is_data() {
            self.synth.data_packet_payload(&mut self.rng)
        } else {
            self.synth.control_packet_payload(&mut self.rng)
        };
        out.push(TraceRecord {
            cycle,
            src: src.index(),
            dst: dst.index(),
            class: msg.packet_class(),
            payload,
        });
    }

    /// Ensures `addr` is resident in its home L2 bank. Returns the extra
    /// response latency (0 on a hit, the DRAM latency on a miss) and, on
    /// a miss that evicts a victim, emits the inclusion
    /// back-invalidations: "the L2 caches maintain inclusion of L1
    /// caches" (paper §4.1.2), so every L1 copy of the victim must be
    /// recalled before the line can leave the L2.
    fn ensure_l2_resident(
        &mut self,
        out: &mut Vec<TraceRecord>,
        cycle: u64,
        addr: crate::address::LineAddr,
    ) -> u64 {
        let bank = self.bank_map.home_index(addr);
        if self.l2_banks[bank].touch(addr).is_some() {
            return 0;
        }
        if let Some(ev) = self.l2_banks[bank].insert(addr, Mesi::Exclusive) {
            let entry = self.directories[bank].entry(ev.addr);
            let holders: Vec<usize> = entry.sharers.iter().copied().chain(entry.owner).collect();
            if !holders.is_empty() {
                let home = self.cfg.bank_nodes[bank];
                self.invalidate_holders(out, cycle, home, ev.addr, &holders);
                for h in &holders {
                    self.directories[bank].record_drop(ev.addr, *h);
                }
            }
        }
        self.cfg.memory_latency
    }

    /// Processes one reference by CPU `cpu` at `cycle`, appending the
    /// protocol messages to `out`.
    fn process_access(&mut self, out: &mut Vec<TraceRecord>, cycle: u64, cpu: usize) {
        let access = self.streams[cpu].next_access();
        let addr = access.addr;
        let home = self.bank_map.home(addr);
        let bank = self.bank_map.home_index(addr);
        let cpu_node = self.cfg.cpu_nodes[cpu];
        let net = self.cfg.nominal_net_latency;
        let bank_lat = self.cfg.bank_latency;

        match (self.l1s[cpu].touch(addr), access.is_write) {
            (Some(Mesi::Modified | Mesi::Exclusive), false) => {} // hit
            (Some(_), false) => {}                                // shared hit
            (Some(Mesi::Modified), true) => {}                    // dirty hit
            (Some(Mesi::Exclusive), true) => {
                // Silent E→M upgrade.
                self.l1s[cpu].set_state(addr, Mesi::Modified);
            }
            (Some(Mesi::Shared), true) => {
                // Upgrade: GetX, invalidate other sharers, Data back.
                // Inclusion guarantees L2 residence; refresh its LRU.
                self.l2_banks[bank].touch(addr);
                self.push(out, cycle, cpu_node, home, CoherenceMsg::GetX);
                let others = self.directories[bank].record_write(addr, cpu);
                let acks = self.invalidate_holders(out, cycle, home, addr, &others);
                let data_at = cycle + net + bank_lat + if acks { 2 * net } else { 0 };
                self.push(out, data_at, home, cpu_node, CoherenceMsg::Data);
                self.l1s[cpu].set_state(addr, Mesi::Modified);
            }
            (None, is_write) => {
                let (req, new_state) = if is_write {
                    (CoherenceMsg::GetX, Mesi::Modified)
                } else {
                    (CoherenceMsg::GetS, Mesi::Exclusive)
                };
                self.push(out, cycle, cpu_node, home, req);
                let memory_extra = self.ensure_l2_resident(out, cycle, addr);

                let mut remote_flush = false;
                if is_write {
                    let others = self.directories[bank].record_write(addr, cpu);
                    remote_flush = self.invalidate_holders(out, cycle, home, addr, &others);
                } else if let Some(owner) = self.directories[bank].record_read(addr, cpu) {
                    // Downgrade the exclusive owner: Inv out, WriteBack
                    // back, owner keeps a Shared copy.
                    self.push(out, cycle + net, home, self.cfg.cpu_nodes[owner], CoherenceMsg::Inv);
                    self.push(
                        out,
                        cycle + 2 * net,
                        self.cfg.cpu_nodes[owner],
                        home,
                        CoherenceMsg::WriteBack,
                    );
                    self.l1s[owner].set_state(addr, Mesi::Shared);
                    remote_flush = true;
                }

                let data_at =
                    cycle + net + bank_lat + memory_extra + if remote_flush { 2 * net } else { 0 };
                self.push(out, data_at, home, cpu_node, CoherenceMsg::Data);

                // Fill the L1; grant depends on the directory outcome.
                let grant = if is_write {
                    Mesi::Modified
                } else if self.directories[bank].entry(addr).sharers.is_empty() {
                    new_state
                } else {
                    Mesi::Shared
                };
                if let Some(ev) = self.l1s[cpu].insert(addr, grant) {
                    let ev_home = self.bank_map.home(ev.addr);
                    let ev_bank = self.bank_map.home_index(ev.addr);
                    self.directories[ev_bank].record_drop(ev.addr, cpu);
                    // Dirty lines flush their data; clean evictions send
                    // a PutS notification so the inclusive directory
                    // stays exact (non-silent evictions).
                    let msg = if ev.state == Mesi::Modified {
                        CoherenceMsg::WriteBack
                    } else {
                        CoherenceMsg::PutS
                    };
                    self.push(out, cycle, cpu_node, ev_home, msg);
                }
            }
        }
    }

    /// Emits invalidations to `holders` and their replies; returns `true`
    /// if any reply is outstanding (delays the Data response).
    fn invalidate_holders(
        &mut self,
        out: &mut Vec<TraceRecord>,
        cycle: u64,
        home: NodeId,
        addr: crate::address::LineAddr,
        holders: &[usize],
    ) -> bool {
        let net = self.cfg.nominal_net_latency;
        for &h in holders {
            let h_node = self.cfg.cpu_nodes[h];
            self.push(out, cycle + net, home, h_node, CoherenceMsg::Inv);
            let reply = match self.l1s[h].invalidate(addr) {
                Some(Mesi::Modified) => CoherenceMsg::WriteBack,
                _ => CoherenceMsg::InvAck,
            };
            self.push(out, cycle + 2 * net, h_node, home, reply);
        }
        !holders.is_empty()
    }

    /// The one generation loop: runs `cycles` cycles of references and
    /// hands the records they make to `consume` in generation order, a
    /// batch of about [`BATCH`] at a time, so a consumer that keeps
    /// nothing holds at most one batch.
    fn generate(&mut self, cycles: u64, mut consume: impl FnMut(Drain<'_, TraceRecord>)) {
        let mut batch = Vec::with_capacity(2 * BATCH);
        let n_cpus = self.cfg.cpu_nodes.len();
        for cycle in 0..cycles {
            for cpu in 0..n_cpus {
                if self.cfg.access_rate > 0.0 && self.rng.gen_bool(self.cfg.access_rate) {
                    self.process_access(&mut batch, cycle, cpu);
                }
            }
            if batch.len() >= BATCH {
                consume(batch.drain(..));
            }
        }
        consume(batch.drain(..));
    }

    /// Generates a trace spanning `cycles` cycles, sorted by cycle.
    pub fn generate_trace(&mut self, cycles: u64) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        self.generate(cycles, |records| out.extend(records));
        out.sort_by_key(|r| r.cycle);
        out
    }

    /// The statistics of the trace [`CmpSystem::generate_trace`] would
    /// return, folded as the records are made: the same draws and state
    /// changes, without keeping the trace.
    pub fn trace_stats(&mut self, cycles: u64) -> TraceStats {
        let mut stats = TraceStats::empty();
        self.generate(cycles, |records| records.for_each(|r| stats.add(&r)));
        stats.over_span(cycles)
    }

    /// Calibrates the access rate so the trace offers approximately
    /// `target_load` flits/node/cycle on a `num_nodes`-node network,
    /// using a pilot run of `pilot_cycles`.
    pub fn calibrate_rate(&mut self, target_load: f64, num_nodes: usize, pilot_cycles: u64) {
        assert!(target_load > 0.0, "target load must be positive");
        let stats = self.trace_stats(pilot_cycles);
        let measured = stats.flits_per_cycle / num_nodes as f64;
        if measured > 0.0 {
            let new_rate = (self.cfg.access_rate * target_load / measured).min(0.95);
            self.cfg.access_rate = new_rate;
        }
    }
}

/// Aggregate statistics of a trace (feeds Figs. 1, 2, 13(a)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Packets per class (indexed by `PacketClass::table_index`).
    pub packets_per_class: Vec<u64>,
    /// Total packets.
    pub packets: u64,
    /// Total flits.
    pub flits: u64,
    /// Data-packet payload flits observed.
    pub payload_flits: u64,
    /// Payload flits that were short.
    pub short_payload_flits: u64,
    /// Word-pattern counts over payload flits.
    pub patterns: mira_traffic::patterns::PatternCounts,
    /// Flits per cycle over the generation span.
    pub flits_per_cycle: f64,
}

impl TraceStats {
    /// Computes the statistics of a trace spanning `span_cycles`.
    pub fn from_trace(trace: &[TraceRecord], span_cycles: u64) -> Self {
        let mut stats = TraceStats::empty();
        trace.iter().for_each(|r| stats.add(r));
        stats.over_span(span_cycles)
    }

    /// The statistics of no records.
    fn empty() -> Self {
        TraceStats {
            packets_per_class: vec![0; PacketClass::ALL.len()],
            packets: 0,
            flits: 0,
            payload_flits: 0,
            short_payload_flits: 0,
            patterns: mira_traffic::patterns::PatternCounts::default(),
            flits_per_cycle: 0.0,
        }
    }

    /// Folds one record into the counts.
    fn add(&mut self, rec: &TraceRecord) {
        self.packets_per_class[rec.class.table_index()] += 1;
        self.packets += 1;
        self.flits += rec.payload.len() as u64;
        if rec.class.is_data() {
            // Skip the header flit; observe line payload flits.
            for f in rec.payload.iter().skip(1) {
                self.payload_flits += 1;
                self.short_payload_flits += u64::from(f.is_short());
                self.patterns.observe(f);
            }
        }
    }

    /// Sets the flit rate of counts gathered over `span_cycles`.
    fn over_span(mut self, span_cycles: u64) -> Self {
        self.flits_per_cycle =
            if span_cycles > 0 { self.flits as f64 / span_cycles as f64 } else { 0.0 };
        self
    }

    /// Fraction of packets that are control messages (Fig. 2).
    pub fn control_fraction(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        let control: u64 = PacketClass::ALL
            .iter()
            .filter(|c| c.is_control())
            .map(|c| self.packets_per_class[c.table_index()])
            .sum();
        control as f64 / self.packets as f64
    }

    /// Short fraction among data payload flits (Fig. 13(a)).
    pub fn short_payload_fraction(&self) -> f64 {
        if self.payload_flits == 0 {
            return 0.0;
        }
        self.short_payload_flits as f64 / self.payload_flits as f64
    }

    /// Short fraction over *all* flits (control flits included), the
    /// figure the layer-shutdown power saving actually sees.
    pub fn short_total_fraction(&self) -> f64 {
        if self.flits == 0 {
            return 0.0;
        }
        let control_flits = self.flits - self.payload_flits - self.data_packets();
        (control_flits + self.data_packets() + self.short_payload_flits) as f64 / self.flits as f64
    }

    fn data_packets(&self) -> u64 {
        PacketClass::ALL
            .iter()
            .filter(|c| c.is_data())
            .map(|c| self.packets_per_class[c.table_index()])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_partition() -> (Vec<NodeId>, Vec<NodeId>) {
        // 6×6 mesh, CPUs in the middle block (paper Fig. 10(a)).
        let cpus: Vec<NodeId> = [13, 14, 15, 16, 19, 20, 21, 22].map(NodeId).to_vec();
        let caches: Vec<NodeId> =
            (0..36).filter(|i| !cpus.iter().any(|c| c.index() == *i)).map(NodeId).collect();
        (cpus, caches)
    }

    fn system(app: Application) -> CmpSystem {
        let (cpus, banks) = paper_partition();
        CmpSystem::new(CmpConfig::for_app(app, cpus, banks, 42))
    }

    #[test]
    fn trace_is_sorted_and_nonempty() {
        let mut sys = system(Application::Tpcw);
        let trace = sys.generate_trace(5_000);
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn requests_precede_their_responses() {
        let mut sys = system(Application::Apache);
        let trace = sys.generate_trace(2_000);
        let first_req = trace.iter().find(|r| r.class == PacketClass::ReadRequest);
        let first_data = trace.iter().find(|r| r.class == PacketClass::DataResponse);
        let (req, data) = (first_req.expect("requests exist"), first_data.expect("data exists"));
        assert!(req.cycle <= data.cycle);
    }

    #[test]
    fn endpoints_respect_partition() {
        let (cpus, banks) = paper_partition();
        let cpu_set: Vec<usize> = cpus.iter().map(|n| n.index()).collect();
        let bank_set: Vec<usize> = banks.iter().map(|n| n.index()).collect();
        let mut sys = system(Application::Sjbb);
        for rec in sys.generate_trace(2_000) {
            let src_is_cpu = cpu_set.contains(&rec.src);
            let dst_is_cpu = cpu_set.contains(&rec.dst);
            assert!(src_is_cpu != dst_is_cpu, "traffic is strictly CPU↔bank");
            assert!(
                (src_is_cpu && bank_set.contains(&rec.dst))
                    || (dst_is_cpu && bank_set.contains(&rec.src))
            );
        }
    }

    #[test]
    fn control_fraction_matches_profile_band() {
        for app in [Application::Tpcw, Application::Multimedia] {
            let mut sys = system(app);
            let trace = sys.generate_trace(20_000);
            let stats = TraceStats::from_trace(&trace, 20_000);
            let target = app.profile().control_fraction;
            let got = stats.control_fraction();
            assert!(
                (got - target).abs() < 0.12,
                "{app}: control fraction {got:.3} vs target {target}"
            );
        }
    }

    #[test]
    fn short_payload_fraction_matches_profile() {
        for app in [Application::Tpcw, Application::Barnes, Application::Multimedia] {
            let mut sys = system(app);
            let trace = sys.generate_trace(10_000);
            let stats = TraceStats::from_trace(&trace, 10_000);
            let target = app.profile().short_flit_fraction;
            let got = stats.short_payload_fraction();
            assert!(
                (got - target).abs() < 0.05,
                "{app}: short payload {got:.3} vs target {target}"
            );
        }
    }

    #[test]
    fn calibration_converges_to_target_load() {
        let mut sys = system(Application::Zeus);
        let target = 0.06;
        sys.calibrate_rate(target, 36, 10_000);
        let trace = sys.generate_trace(20_000);
        let stats = TraceStats::from_trace(&trace, 20_000);
        let load = stats.flits_per_cycle / 36.0;
        assert!((load - target).abs() < target * 0.3, "load {load:.4} vs target {target}");
    }

    #[test]
    fn sharing_produces_invalidations() {
        let mut sys = system(Application::Tpcw); // high sharing profile
        let trace = sys.generate_trace(30_000);
        let stats = TraceStats::from_trace(&trace, 30_000);
        assert!(
            stats.packets_per_class[PacketClass::Invalidate.table_index()] > 0,
            "shared writes must invalidate"
        );
        assert!(stats.packets_per_class[PacketClass::WriteBack.table_index()] > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let mut sys = system(Application::Ocean);
            sys.generate_trace(3_000)
        };
        assert_eq!(mk(), mk());
    }

    /// Folding records as they are made gives the statistics of the
    /// kept trace, and leaves the system where generating it would: a
    /// later trace is the same record for record.
    #[test]
    fn streamed_stats_equal_stats_of_the_trace() {
        for app in
            [Application::Tpcw, Application::Barnes, Application::Multimedia, Application::Zeus]
        {
            let (mut streamed, mut kept) = (system(app), system(app));
            let stats = streamed.trace_stats(4_000);
            let trace = kept.generate_trace(4_000);
            assert_eq!(stats, TraceStats::from_trace(&trace, 4_000), "{app}");
            assert_eq!(streamed.generate_trace(1_500), kept.generate_trace(1_500), "{app}");
        }
    }

    #[test]
    fn short_total_exceeds_payload_fraction() {
        // Control flits are always short, so the all-flits short share
        // sits above the payload-only share.
        let mut sys = system(Application::Barnes);
        let trace = sys.generate_trace(10_000);
        let stats = TraceStats::from_trace(&trace, 10_000);
        assert!(stats.short_total_fraction() > stats.short_payload_fraction());
    }
}

#[cfg(test)]
mod l2_tests {
    use super::*;

    fn small_l2_system() -> CmpSystem {
        // Tiny L2 banks (8 sets × 2 ways = 16 lines per bank) so
        // capacity misses and inclusion evictions actually occur.
        let cpus: Vec<NodeId> = [13, 14, 15, 16].map(NodeId).to_vec();
        let banks: Vec<NodeId> =
            (0..36).filter(|i| ![13, 14, 15, 16].contains(i)).map(NodeId).collect();
        let mut cfg = CmpConfig::for_app(Application::Apache, cpus, banks, 11);
        cfg.l2_sets = 8;
        cfg.l2_ways = 2;
        CmpSystem::new(cfg)
    }

    #[test]
    fn cold_misses_pay_memory_latency() {
        let mut sys = CmpSystem::new(CmpConfig::for_app(
            Application::Barnes,
            vec![NodeId(13)],
            (0..36).filter(|&i| i != 13).map(NodeId).collect(),
            3,
        ));
        let trace = sys.generate_trace(50);
        // The first data response to a cold miss arrives after
        // net + bank + memory latency.
        let first_req = trace
            .iter()
            .find(|r| r.class == PacketClass::ReadRequest || r.class == PacketClass::WriteRequest)
            .expect("a miss");
        let first_data = trace
            .iter()
            .find(|r| r.class == PacketClass::DataResponse && r.cycle >= first_req.cycle)
            .expect("its response");
        let min_delay = 20 + 4 + 400;
        assert!(
            first_data.cycle - first_req.cycle >= min_delay,
            "cold miss must pay DRAM: {} cycles",
            first_data.cycle - first_req.cycle
        );
    }

    #[test]
    fn warm_lines_answer_at_bank_speed() {
        let mut sys = CmpSystem::new(CmpConfig::for_app(
            Application::Barnes,
            vec![NodeId(13)],
            (0..36).filter(|&i| i != 13).map(NodeId).collect(),
            3,
        ));
        let trace = sys.generate_trace(30_000);
        // Once the working set is L2-resident, most responses come at
        // net + bank latency (24), not +400.
        let mut fast = 0usize;
        let mut slow = 0usize;
        let reqs: Vec<&TraceRecord> = trace
            .iter()
            .filter(|r| r.class == PacketClass::ReadRequest || r.class == PacketClass::WriteRequest)
            .collect();
        for req in reqs.iter().rev().take(200) {
            if let Some(resp) = trace.iter().find(|r| {
                r.class == PacketClass::DataResponse && r.src == req.dst && r.cycle >= req.cycle
            }) {
                if resp.cycle - req.cycle >= 400 {
                    slow += 1;
                } else {
                    fast += 1;
                }
            }
        }
        assert!(fast > slow, "warm traffic should mostly hit L2: {fast} fast vs {slow} slow");
    }

    #[test]
    fn tiny_l2_generates_inclusion_invalidations() {
        let mut sys = small_l2_system();
        let trace = sys.generate_trace(20_000);
        let stats = TraceStats::from_trace(&trace, 20_000);
        // Back-invalidations show up as Inv packets even for a
        // low-sharing workload once the L2 thrashes.
        assert!(
            stats.packets_per_class[PacketClass::Invalidate.table_index()] > 0,
            "L2 evictions must recall L1 copies"
        );
    }

    #[test]
    fn l1_never_holds_lines_absent_from_l2() {
        // The inclusion property itself, checked directly on the model
        // state after a long run: any address an L1 holds must be
        // resident in its home bank.
        let mut sys = small_l2_system();
        let _ = sys.generate_trace(10_000);
        for cpu in 0..sys.l1s.len() {
            for line in 0..2_048u64 {
                let addr = crate::address::LineAddr::from_index(line);
                if sys.l1s[cpu].peek(addr).is_some() {
                    let bank = sys.bank_map.home_index(addr);
                    assert!(
                        sys.l2_banks[bank].peek(addr).is_some(),
                        "inclusion violated: cpu {cpu} holds {addr} but L2 bank {bank} does not"
                    );
                }
            }
        }
    }
}
