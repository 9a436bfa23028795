//! Packet-journey tracing: per-hop latency spans for sampled packets.
//!
//! The telemetry layer ([`crate::telemetry`]) says where *routers* spend
//! cycles; this module says where an individual *packet's* latency comes
//! from. A deterministic head-sampler (a seeded hash of the packet id)
//! selects packets at injection; for each sampled packet a
//! [`JourneyRecorder`] collects one [`HopSpan`] per router visited, with
//! the head flit's residency split into stall cycles by
//! [`StallCause`] (the same attribution the
//! router's [`StallCounters`] use) and pipeline occupancy (RC/VA/SA/ST),
//! plus the wire time between routers split into nominal link traversal
//! and ARQ replay delay.
//!
//! # The sum-to-latency invariant
//!
//! A journey tiles the packet's life exactly:
//!
//! ```text
//! latency = source_queue                        (creation → head NIC write)
//!         + Σ per hop (stalls + pipeline)       (head arrival → head ST)
//!         + Σ per edge (link + arq_replay)      (head ST → next arrival)
//!         + serialization                       (head eject → tail eject)
//! ```
//!
//! Every boundary is an observed event cycle, so the spans sum to the
//! packet's measured end-to-end latency with no residue — asserted by
//! [`PacketJourney::span_sum`] consumers in the property tests.
//!
//! Recording is purely observational: a run with journeys enabled is
//! bit-identical to one without (golden tests enforce it).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::ids::{NodeId, PortId};
use crate::packet::{PacketClass, PacketId};
use crate::stats::nearest_rank;
use crate::telemetry::{StallCause, StallCounters};

/// SplitMix64 finalizer: a high-quality 64-bit mix used to turn packet
/// ids into sampling coins. Stable — changing it would change every
/// sampled set.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic head-sampler: whether a packet is traced depends only
/// on its id and the seed, never on scheduling — so the sampled set is
/// identical across runner worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JourneySampler {
    sample_ppm: u32,
    seed: u64,
    threshold: u64,
}

impl JourneySampler {
    /// Creates a sampler tracing `sample_ppm` parts-per-million of
    /// packets (clamped to 1 000 000 = every packet).
    pub fn new(sample_ppm: u32, seed: u64) -> Self {
        let ppm = sample_ppm.min(1_000_000);
        // u64::MAX / 1e6 buckets of equal size; ppm of them accept.
        let threshold = u64::from(ppm).wrapping_mul(u64::MAX / 1_000_000);
        JourneySampler { sample_ppm: ppm, seed, threshold }
    }

    /// The configured sampling rate in parts per million.
    pub fn sample_ppm(&self) -> u32 {
        self.sample_ppm
    }

    /// Whether `packet` is in the sampled set.
    #[inline]
    pub fn sampled(&self, packet: PacketId) -> bool {
        if self.sample_ppm >= 1_000_000 {
            return true;
        }
        splitmix64(packet.0 ^ self.seed) < self.threshold
    }
}

/// One router visit of a sampled packet, tracked on the head flit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopSpan {
    /// Router visited.
    pub router: usize,
    /// Input port the head flit arrived on (0 = injected locally).
    pub in_port: usize,
    /// Output port the head flit left through (0 = ejected locally).
    pub out_port: usize,
    /// Cycle the head flit was written into this router's input buffer.
    pub arrived: u64,
    /// Cycle the head flit traversed this router's switch.
    pub departed: u64,
    /// Nominal wire cycles spent reaching this router from the previous
    /// hop's switch traversal (0 for the injection hop).
    pub link_cycles: u64,
    /// Wire cycles beyond nominal — ARQ replay, backoff, and NACK purges
    /// (0 unless fault injection delayed the delivery).
    pub arq_cycles: u64,
    /// Stall cycles charged to this packet's *head* flit at this router,
    /// by cause (the same sites that feed the router's `StallCounters`).
    /// These tile the hop's residency together with `pipeline_cycles`.
    pub stalls: StallCounters,
    /// Stall cycles charged to this packet's *body/tail* flits at this
    /// router. They overlap the head's progress at later hops (wormhole
    /// pipelining), so they are kept out of the residency decomposition —
    /// but together with `stalls` they account for every `StallCounters`
    /// cycle the routers charged this packet.
    pub body_stalls: StallCounters,
}

impl HopSpan {
    /// Head-flit residency at this router (arrival to switch traversal).
    pub fn residency(&self) -> u64 {
        self.departed - self.arrived
    }

    /// Residency cycles not attributed to a stall: RC/VA/SA/ST pipeline
    /// occupancy (plus the buffer-write cycle).
    pub fn pipeline_cycles(&self) -> u64 {
        self.residency() - self.stalls.stalled
    }
}

/// A complete journey of one sampled packet, closed at tail ejection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketJourney {
    /// Packet id.
    pub packet: u64,
    /// Traffic class of the packet.
    pub class: PacketClass,
    /// Whether the packet was created during the measurement window.
    pub measured: bool,
    /// Creation cycle (entering the source queue).
    pub created_at: u64,
    /// Tail-flit ejection cycle (0 until the journey closes).
    pub ejected_at: u64,
    /// Cycles waiting in the source queue before the head flit entered
    /// the injection router's buffer.
    pub source_queue: u64,
    /// Cycles between the head flit's ejection and the tail flit's
    /// (wormhole serialization of the packet body).
    pub serialization: u64,
    /// One span per router visited, in order.
    pub hops: Vec<HopSpan>,
}

impl PacketJourney {
    /// Measured end-to-end latency (creation to tail ejection).
    pub fn latency(&self) -> u64 {
        self.ejected_at - self.created_at
    }

    /// Sum of every span — equals [`PacketJourney::latency`] exactly
    /// (the invariant the property tests enforce).
    pub fn span_sum(&self) -> u64 {
        self.source_queue
            + self.serialization
            + self.hops.iter().map(|h| h.residency() + h.link_cycles + h.arq_cycles).sum::<u64>()
    }

    /// Total stall cycles across every hop, by cause — head and body
    /// stalls combined (everything the routers charged this packet).
    pub fn stall_total(&self) -> StallCounters {
        let mut t = StallCounters::new();
        for h in &self.hops {
            t.merge(&h.stalls);
            t.merge(&h.body_stalls);
        }
        t
    }
}

/// Attribution component names, in the order [`AttributionShare`] lists
/// them.
pub const COMPONENTS: [&str; 10] = [
    "source_queue",
    "no_credit",
    "va_loss",
    "sa_loss",
    "route_busy",
    "link_fault",
    "pipeline",
    "link",
    "arq_replay",
    "serialization",
];

/// Mean cycles per latency component over a set of journeys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributionShare {
    /// Source-queue wait before injection.
    pub source_queue: f64,
    /// Buffer residency stalled on missing downstream credits.
    pub no_credit: f64,
    /// Buffer residency stalled on lost VC allocation.
    pub va_loss: f64,
    /// Buffer residency stalled on lost switch allocation.
    pub sa_loss: f64,
    /// Buffer residency stalled on a busy output VC.
    pub route_busy: f64,
    /// Buffer residency stalled on a link in retransmission backoff.
    pub link_fault: f64,
    /// RC/VA/SA/ST pipeline occupancy.
    pub pipeline: f64,
    /// Nominal link traversal (includes LT when separate).
    pub link: f64,
    /// ARQ replay delay on the wire.
    pub arq_replay: f64,
    /// Wormhole serialization of the packet body at the destination.
    pub serialization: f64,
}

impl AttributionShare {
    /// The components as `(name, cycles)` pairs, in [`COMPONENTS`] order.
    pub fn parts(&self) -> [(&'static str, f64); 10] {
        [
            ("source_queue", self.source_queue),
            ("no_credit", self.no_credit),
            ("va_loss", self.va_loss),
            ("sa_loss", self.sa_loss),
            ("route_busy", self.route_busy),
            ("link_fault", self.link_fault),
            ("pipeline", self.pipeline),
            ("link", self.link),
            ("arq_replay", self.arq_replay),
            ("serialization", self.serialization),
        ]
    }

    /// Sum of every component (the bucket's mean latency).
    pub fn total(&self) -> f64 {
        self.parts().iter().map(|(_, v)| v).sum()
    }

    /// The largest component, as `(name, mean cycles)`.
    pub fn dominant(&self) -> (&'static str, f64) {
        self.parts()
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("attribution shares are finite"))
            .expect("parts is non-empty")
    }

    fn accumulate(&mut self, j: &PacketJourney) {
        self.source_queue += j.source_queue as f64;
        self.serialization += j.serialization as f64;
        for h in &j.hops {
            self.no_credit += h.stalls.no_credit as f64;
            self.va_loss += h.stalls.va_loss as f64;
            self.sa_loss += h.stalls.sa_loss as f64;
            self.route_busy += h.stalls.route_busy as f64;
            self.link_fault += h.stalls.link_fault as f64;
            self.pipeline += h.pipeline_cycles() as f64;
            self.link += h.link_cycles as f64;
            self.arq_replay += h.arq_cycles as f64;
        }
    }

    fn scale(&mut self, factor: f64) {
        self.source_queue *= factor;
        self.no_credit *= factor;
        self.va_loss *= factor;
        self.sa_loss *= factor;
        self.route_busy *= factor;
        self.link_fault *= factor;
        self.pipeline *= factor;
        self.link *= factor;
        self.arq_replay *= factor;
        self.serialization *= factor;
    }

    /// Mean attribution over `journeys` (zero when empty).
    fn mean_over<'a>(journeys: impl Iterator<Item = &'a PacketJourney>) -> (u64, Self) {
        let mut share = AttributionShare::default();
        let mut count = 0u64;
        for j in journeys {
            share.accumulate(j);
            count += 1;
        }
        if count > 0 {
            share.scale(1.0 / count as f64);
        }
        (count, share)
    }
}

/// Attribution of one traffic class within a tail bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassAttribution {
    /// Traffic-class name ([`PacketClass::name`]).
    pub class: String,
    /// Journeys of this class in the bucket.
    pub count: u64,
    /// Mean per-component cycles for those journeys.
    pub mean: AttributionShare,
}

/// Mean latency attribution for the packets at or above one latency
/// quantile (`p50` covers the slower half, `p99.9` the extreme tail).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TailBucket {
    /// Bucket label (`"p50"`, `"p95"`, `"p99"`, `"p99.9"`).
    pub label: String,
    /// The quantile defining the bucket.
    pub quantile: f64,
    /// Latency threshold (cycles): journeys at or above it are in the
    /// bucket.
    pub threshold: u64,
    /// Journeys in the bucket.
    pub count: u64,
    /// Mean end-to-end latency of the bucket (cycles).
    pub mean_latency: f64,
    /// Mean per-component breakdown (components sum to `mean_latency`).
    pub mean: AttributionShare,
    /// The same breakdown split by traffic class (classes present in the
    /// bucket only).
    pub per_class: Vec<ClassAttribution>,
}

/// Aggregated journey statistics for a run, serialized into report JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JourneyReport {
    /// Sampling rate, parts per million.
    pub sample_ppm: u32,
    /// Journeys closed (tail ejected) — measured-window packets only
    /// feed the buckets, but this counts every sampled packet.
    pub sampled: u64,
    /// Sampled packets still open when the run ended (in flight or
    /// dropped).
    pub pending: u64,
    /// Order-independent hash of the closed sampled packet-id set; equal
    /// hashes across runs mean the sampled sets are identical (the
    /// runner-determinism test compares these across worker counts).
    pub packets_hash: u64,
    /// Tail-latency attribution buckets over measured journeys, for
    /// p50/p95/p99/p99.9.
    pub buckets: Vec<TailBucket>,
}

impl JourneyReport {
    /// The bucket with the given label, if present.
    pub fn bucket(&self, label: &str) -> Option<&TailBucket> {
        self.buckets.iter().find(|b| b.label == label)
    }
}

/// The tail quantiles every report aggregates.
pub const TAIL_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p99.9", 0.999)];

/// Records journeys for sampled packets. A consumer on the network's
/// [`Telemetry`](crate::telemetry::Telemetry) seam, fed by its NIC, link
/// and router calls and closed by the simulator at tail ejection.
/// Purely observational.
#[derive(Debug)]
pub struct JourneyRecorder {
    sampler: JourneySampler,
    /// Full sender-to-receiver nominal link latency (`1 + LT cycles`);
    /// wire time beyond it is attributed to ARQ replay.
    nominal_link_cycles: u64,
    /// Open journeys, of sampled packets only.
    active: HashMap<u64, PacketJourney>,
    finished: Vec<PacketJourney>,
}

impl JourneyRecorder {
    /// Creates a recorder sampling `sample_ppm` parts-per-million of
    /// packets with the given hash seed. `nominal_link_cycles` is the
    /// fault-free sender-to-receiver link latency (`1 + LT cycles`).
    pub fn new(sample_ppm: u32, seed: u64, nominal_link_cycles: u64) -> Self {
        JourneyRecorder {
            sampler: JourneySampler::new(sample_ppm, seed),
            nominal_link_cycles: nominal_link_cycles.max(1),
            active: HashMap::new(),
            finished: Vec::new(),
        }
    }

    /// The sampler deciding which packets are traced.
    pub fn sampler(&self) -> &JourneySampler {
        &self.sampler
    }

    /// Journeys closed so far, in ejection order.
    pub fn finished(&self) -> &[PacketJourney] {
        &self.finished
    }

    /// Sampled packets still open (in flight or dropped).
    pub fn pending(&self) -> usize {
        self.active.len()
    }

    /// The still-open journey of `packet`, if it is sampled and in
    /// flight (the black-box dump attaches these to stuck packets).
    pub fn open(&self, packet: PacketId) -> Option<&PacketJourney> {
        self.active.get(&packet.0)
    }

    /// The open journey of `packet`, asking the sampler first so that an
    /// unsampled packet (most of them) costs no map lookup.
    #[inline]
    fn open_mut(&mut self, packet: PacketId) -> Option<&mut PacketJourney> {
        if !self.sampler.sampled(packet) {
            return None;
        }
        self.active.get_mut(&packet.0)
    }

    /// A packet was created: opens a journey if it is sampled.
    pub fn on_created(&mut self, packet: PacketId, cycle: u64, class: PacketClass, measured: bool) {
        if !self.sampler.sampled(packet) {
            return;
        }
        self.active.insert(
            packet.0,
            PacketJourney {
                packet: packet.0,
                class,
                measured,
                created_at: cycle,
                ejected_at: 0,
                source_queue: 0,
                serialization: 0,
                hops: Vec::new(),
            },
        );
    }

    /// The head flit entered the injection router's buffer: the source
    /// queue span closes and the first hop opens.
    pub fn on_nic_inject(&mut self, packet: PacketId, router: NodeId, cycle: u64) {
        if let Some(j) = self.open_mut(packet) {
            j.source_queue = cycle - j.created_at;
            j.hops.push(HopSpan {
                router: router.index(),
                in_port: PortId::LOCAL.index(),
                out_port: PortId::LOCAL.index(),
                arrived: cycle,
                departed: cycle,
                link_cycles: 0,
                arq_cycles: 0,
                stalls: StallCounters::new(),
                body_stalls: StallCounters::new(),
            });
        }
    }

    /// The head flit was delivered into a downstream router's buffer:
    /// the wire span closes (split into nominal link time and ARQ
    /// excess) and the next hop opens.
    pub fn on_link_arrival(&mut self, packet: PacketId, router: NodeId, port: PortId, cycle: u64) {
        let nominal = self.nominal_link_cycles;
        if let Some(j) = self.open_mut(packet) {
            let Some(prev) = j.hops.last() else { return };
            let wire = cycle - prev.departed;
            let link = wire.min(nominal);
            j.hops.push(HopSpan {
                router: router.index(),
                in_port: port.index(),
                out_port: PortId::LOCAL.index(),
                arrived: cycle,
                departed: cycle,
                link_cycles: link,
                arq_cycles: wire - link,
                stalls: StallCounters::new(),
                body_stalls: StallCounters::new(),
            });
        }
    }

    /// A flit of the packet stalled at `router` this cycle. Head-flit
    /// stalls split the open hop's residency; body/tail stalls are kept
    /// per hop but outside the decomposition (they overlap the head's
    /// progress downstream).
    #[inline]
    pub fn on_stall(&mut self, packet: PacketId, router: NodeId, cause: StallCause, is_head: bool) {
        if let Some(j) = self.open_mut(packet) {
            if is_head {
                if let Some(h) = j.hops.last_mut() {
                    debug_assert_eq!(h.router, router.index(), "head stalls land on the open hop");
                    h.stalls.record(cause);
                }
            } else if let Some(h) = j.hops.iter_mut().rev().find(|h| h.router == router.index()) {
                h.body_stalls.record(cause);
            }
        }
    }

    /// The head flit traversed the switch at its current router: the
    /// hop's residency closes.
    pub fn on_st(&mut self, packet: PacketId, out_port: PortId, cycle: u64) {
        if let Some(j) = self.open_mut(packet) {
            if let Some(h) = j.hops.last_mut() {
                h.departed = cycle;
                h.out_port = out_port.index();
            }
        }
    }

    /// The tail flit ejected: closes the journey (serialization is the
    /// gap between head and tail ejection).
    pub fn on_ejected(&mut self, packet: PacketId, cycle: u64) {
        if !self.sampler.sampled(packet) {
            return;
        }
        if let Some(mut j) = self.active.remove(&packet.0) {
            j.ejected_at = cycle;
            j.serialization = cycle - j.hops.last().map_or(cycle, |h| h.departed);
            debug_assert_eq!(
                j.span_sum(),
                j.latency(),
                "journey spans must tile the packet's latency exactly (packet {})",
                j.packet
            );
            self.finished.push(j);
        }
    }

    /// Per-hop stall cycles summed over every journey (closed and still
    /// open), grouped by router. With a 100% sample rate these equal the
    /// per-router `StallCounters` exactly — the property tests compare
    /// them.
    pub fn stalls_by_router(&self) -> HashMap<usize, StallCounters> {
        let mut map: HashMap<usize, StallCounters> = HashMap::new();
        for j in self.finished.iter().chain(self.active.values()) {
            for h in &j.hops {
                if h.stalls.stalled == 0 && h.body_stalls.stalled == 0 {
                    continue;
                }
                let e = map.entry(h.router).or_default();
                e.merge(&h.stalls);
                e.merge(&h.body_stalls);
            }
        }
        map
    }

    /// Aggregates the closed journeys into the tail-attribution report.
    pub fn report(&self) -> JourneyReport {
        let mut packets_hash = 0u64;
        for j in &self.finished {
            packets_hash ^= splitmix64(j.packet);
        }
        let mut latencies: Vec<u64> =
            self.finished.iter().filter(|j| j.measured).map(PacketJourney::latency).collect();
        latencies.sort_unstable();
        let mut buckets = Vec::new();
        if !latencies.is_empty() {
            let n = latencies.len() as u64;
            for (label, q) in TAIL_QUANTILES {
                let threshold = latencies[nearest_rank(q, n) as usize - 1];
                let in_bucket = |j: &&PacketJourney| j.measured && j.latency() >= threshold;
                let (count, mean) =
                    AttributionShare::mean_over(self.finished.iter().filter(in_bucket));
                let mean_latency =
                    self.finished.iter().filter(in_bucket).map(|j| j.latency() as f64).sum::<f64>()
                        / count.max(1) as f64;
                let mut per_class = Vec::new();
                for class in PacketClass::ALL {
                    let (ccount, cmean) = AttributionShare::mean_over(
                        self.finished.iter().filter(in_bucket).filter(|j| j.class == class),
                    );
                    if ccount > 0 {
                        per_class.push(ClassAttribution {
                            class: class.name().to_string(),
                            count: ccount,
                            mean: cmean,
                        });
                    }
                }
                buckets.push(TailBucket {
                    label: label.to_string(),
                    quantile: q,
                    threshold,
                    count,
                    mean_latency,
                    mean,
                    per_class,
                });
            }
        }
        JourneyReport {
            sample_ppm: self.sampler.sample_ppm(),
            sampled: self.finished.len() as u64,
            pending: self.active.len() as u64,
            packets_hash,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_and_monotone_in_rate() {
        let s_lo = JourneySampler::new(10_000, 7); // 1%
        let s_hi = JourneySampler::new(500_000, 7); // 50%
        let mut lo = 0usize;
        let mut hi = 0usize;
        for id in 0..10_000u64 {
            let a = s_lo.sampled(PacketId(id));
            assert_eq!(a, s_lo.sampled(PacketId(id)), "sampling is a pure function");
            if a {
                // A packet sampled at the low rate is sampled at every
                // higher rate with the same seed (nested head samples).
                assert!(s_hi.sampled(PacketId(id)));
                lo += 1;
            }
            if s_hi.sampled(PacketId(id)) {
                hi += 1;
            }
        }
        assert!(lo > 20 && lo < 400, "1% of 10k ≈ 100, got {lo}");
        assert!(hi > 4_000 && hi < 6_000, "50% of 10k ≈ 5000, got {hi}");
    }

    #[test]
    fn sampler_edge_rates() {
        let never = JourneySampler::new(0, 1);
        let always = JourneySampler::new(1_000_000, 1);
        for id in 0..1_000u64 {
            assert!(!never.sampled(PacketId(id)));
            assert!(always.sampled(PacketId(id)));
        }
        // Over-range rates clamp to "always".
        assert_eq!(JourneySampler::new(2_000_000, 1).sample_ppm(), 1_000_000);
    }

    #[test]
    fn journey_spans_tile_latency() {
        let mut r = JourneyRecorder::new(1_000_000, 0, 2);
        let pid = PacketId(9);
        r.on_created(pid, 100, PacketClass::DataResponse, true);
        r.on_nic_inject(pid, NodeId(0), 104);
        r.on_stall(pid, NodeId(0), StallCause::SaLoss, true);
        r.on_stall(pid, NodeId(0), StallCause::NoCredit, true);
        r.on_st(pid, PortId(1), 110);
        // Wire takes 5 cycles against a nominal 2: 3 cycles of ARQ delay.
        r.on_link_arrival(pid, NodeId(1), PortId(2), 115);
        // A body flit stalls back at router 0 while the head advances.
        r.on_stall(pid, NodeId(0), StallCause::NoCredit, false);
        r.on_st(pid, PortId::LOCAL, 119);
        r.on_ejected(pid, 123);

        let j = &r.finished()[0];
        assert_eq!(j.latency(), 23);
        assert_eq!(j.span_sum(), j.latency());
        assert_eq!(j.source_queue, 4);
        assert_eq!(j.serialization, 4);
        assert_eq!(j.hops.len(), 2);
        assert_eq!(j.hops[0].residency(), 6);
        assert_eq!(j.hops[0].stalls.stalled, 2);
        assert_eq!(j.hops[0].pipeline_cycles(), 4);
        assert_eq!(j.hops[1].link_cycles, 2);
        assert_eq!(j.hops[1].arq_cycles, 3);
        assert_eq!(j.stall_total().sa_loss, 1);
        assert_eq!(j.hops[0].body_stalls.no_credit, 1, "body stall lands on the closed hop");
        assert_eq!(j.stall_total().no_credit, 2, "head and body stalls both counted");
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn report_buckets_nest_and_account_fully() {
        let mut r = JourneyRecorder::new(1_000_000, 0, 1);
        for i in 0..100u64 {
            let pid = PacketId(i);
            r.on_created(pid, 0, PacketClass::ReadRequest, true);
            r.on_nic_inject(pid, NodeId(0), 1);
            // Latency grows with the id: packet i ejects at 10 + i.
            r.on_st(pid, PortId::LOCAL, 10 + i);
            r.on_ejected(pid, 10 + i);
        }
        let rep = r.report();
        assert_eq!(rep.sampled, 100);
        assert_eq!(rep.pending, 0);
        assert_eq!(rep.buckets.len(), 4);
        let p50 = rep.bucket("p50").unwrap();
        let p99 = rep.bucket("p99").unwrap();
        let p999 = rep.bucket("p99.9").unwrap();
        assert!(p50.count >= p99.count && p99.count >= p999.count, "buckets nest");
        assert_eq!(p999.count, 1, "the extreme tail is the slowest packet");
        for b in &rep.buckets {
            assert!(
                (b.mean.total() - b.mean_latency).abs() < 1e-9,
                "{}: components sum to the bucket's mean latency",
                b.label
            );
            assert_eq!(b.per_class.len(), 1);
            assert_eq!(b.per_class[0].class, "read-req");
        }
        assert_eq!(p50.mean.dominant().0, "pipeline");
    }

    #[test]
    fn packets_hash_is_order_independent() {
        let run = |ids: &[u64]| {
            let mut r = JourneyRecorder::new(1_000_000, 0, 1);
            for &i in ids {
                let pid = PacketId(i);
                r.on_created(pid, 0, PacketClass::Ack, false);
                r.on_nic_inject(pid, NodeId(0), 1);
                r.on_st(pid, PortId::LOCAL, 4);
                r.on_ejected(pid, 4);
            }
            r.report().packets_hash
        };
        assert_eq!(run(&[1, 2, 3]), run(&[3, 1, 2]));
        assert_ne!(run(&[1, 2, 3]), run(&[1, 2, 4]));
    }

    #[test]
    fn unsampled_and_unfinished_packets_are_inert() {
        let mut r = JourneyRecorder::new(0, 0, 1);
        r.on_created(PacketId(1), 0, PacketClass::Ack, true);
        r.on_stall(PacketId(1), NodeId(0), StallCause::SaLoss, true);
        r.on_ejected(PacketId(1), 10);
        assert!(r.finished().is_empty());

        let mut r = JourneyRecorder::new(1_000_000, 0, 1);
        r.on_created(PacketId(2), 0, PacketClass::Ack, true);
        r.on_nic_inject(PacketId(2), NodeId(0), 1);
        assert_eq!(r.pending(), 1, "unfinished journeys stay pending");
        assert_eq!(r.report().pending, 1);
        assert_eq!(r.stalls_by_router().len(), 0);
    }
}
