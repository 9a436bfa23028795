//! Simulation statistics: latency accounting and datapath activity
//! counters.
//!
//! The activity counters are the hand-off point to the Orion-style power
//! model (`mira-power`): every energy-relevant micro-architectural event
//! (buffer write/read, crossbar traversal, link traversal, arbitration) is
//! counted here. Events on the *separable* modules — buffer, crossbar,
//! link (paper §3.2) — are additionally accumulated with a **layer
//! weight**: the fraction of datapath layers the flit actually activated
//! under short-flit shutdown. With shutdown disabled the weight is 1.0 and
//! the weighted and raw counts coincide.

use serde::{Deserialize, Serialize};

use crate::packet::PacketClass;

/// Datapath activity accumulated over a simulation interval.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityCounters {
    /// Cycles simulated.
    pub cycles: u64,
    /// Flits injected into the network (entered a local input buffer).
    pub flits_injected: u64,
    /// Flits ejected at their destination.
    pub flits_ejected: u64,
    /// Packets fully ejected (tail seen).
    pub packets_ejected: u64,

    /// Buffer write events, layer-weighted.
    pub buffer_writes: f64,
    /// Buffer write events, raw count.
    pub buffer_writes_raw: u64,
    /// Buffer read events, layer-weighted.
    pub buffer_reads: f64,
    /// Buffer read events, raw count.
    pub buffer_reads_raw: u64,
    /// Crossbar traversals, layer-weighted.
    pub xbar_traversals: f64,
    /// Crossbar traversals, raw count.
    pub xbar_traversals_raw: u64,
    /// Flit·millimetres travelled on inter-router links, layer-weighted.
    pub link_flit_mm: f64,
    /// Flit·millimetres travelled on inter-router links, raw.
    pub link_flit_mm_raw: f64,
    /// Link traversal events (flit crossing one link), raw.
    pub link_traversals_raw: u64,

    /// Route computations performed.
    pub rc_computations: u64,
    /// First-stage VC-allocation arbitrations.
    pub va1_arbitrations: u64,
    /// Second-stage VC-allocation arbitrations.
    pub va2_arbitrations: u64,
    /// First-stage switch-allocation arbitrations.
    pub sa1_arbitrations: u64,
    /// Second-stage switch-allocation arbitrations.
    pub sa2_arbitrations: u64,

    /// Sum over cycles of buffered flits network-wide (flit·cycles);
    /// divided by `cycles` and the total buffer capacity this is the
    /// mean buffer utilisation.
    pub buffer_occupancy_flit_cycles: u64,
}

impl ActivityCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a buffer write of a flit with the given active-layer
    /// fraction (1.0 when shutdown is off).
    pub fn record_buffer_write(&mut self, layer_fraction: f64) {
        self.buffer_writes += layer_fraction;
        self.buffer_writes_raw += 1;
    }

    /// Records a buffer read.
    pub fn record_buffer_read(&mut self, layer_fraction: f64) {
        self.buffer_reads += layer_fraction;
        self.buffer_reads_raw += 1;
    }

    /// Records a crossbar traversal.
    pub fn record_xbar(&mut self, layer_fraction: f64) {
        self.xbar_traversals += layer_fraction;
        self.xbar_traversals_raw += 1;
    }

    /// Records a flit crossing a link of `length_mm`.
    pub fn record_link(&mut self, length_mm: f64, layer_fraction: f64) {
        self.link_flit_mm += length_mm * layer_fraction;
        self.link_flit_mm_raw += length_mm;
        self.link_traversals_raw += 1;
    }

    /// Element-wise difference `self - earlier`, used to isolate the
    /// measurement window from warm-up activity.
    #[must_use]
    pub fn delta_since(&self, earlier: &ActivityCounters) -> ActivityCounters {
        ActivityCounters {
            cycles: self.cycles - earlier.cycles,
            flits_injected: self.flits_injected - earlier.flits_injected,
            flits_ejected: self.flits_ejected - earlier.flits_ejected,
            packets_ejected: self.packets_ejected - earlier.packets_ejected,
            buffer_writes: self.buffer_writes - earlier.buffer_writes,
            buffer_writes_raw: self.buffer_writes_raw - earlier.buffer_writes_raw,
            buffer_reads: self.buffer_reads - earlier.buffer_reads,
            buffer_reads_raw: self.buffer_reads_raw - earlier.buffer_reads_raw,
            xbar_traversals: self.xbar_traversals - earlier.xbar_traversals,
            xbar_traversals_raw: self.xbar_traversals_raw - earlier.xbar_traversals_raw,
            link_flit_mm: self.link_flit_mm - earlier.link_flit_mm,
            link_flit_mm_raw: self.link_flit_mm_raw - earlier.link_flit_mm_raw,
            link_traversals_raw: self.link_traversals_raw - earlier.link_traversals_raw,
            rc_computations: self.rc_computations - earlier.rc_computations,
            va1_arbitrations: self.va1_arbitrations - earlier.va1_arbitrations,
            va2_arbitrations: self.va2_arbitrations - earlier.va2_arbitrations,
            sa1_arbitrations: self.sa1_arbitrations - earlier.sa1_arbitrations,
            sa2_arbitrations: self.sa2_arbitrations - earlier.sa2_arbitrations,
            buffer_occupancy_flit_cycles: self.buffer_occupancy_flit_cycles
                - earlier.buffer_occupancy_flit_cycles,
        }
    }

    /// Mean network-wide buffer occupancy in flits (0.0 before any
    /// cycle ran).
    pub fn mean_buffer_occupancy_flits(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.buffer_occupancy_flit_cycles as f64 / self.cycles as f64
        }
    }
}

/// Online latency statistics (mean, extrema, count) for one packet class
/// or for all traffic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
    hop_sum: u64,
}

impl LatencyStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        LatencyStats { count: 0, sum: 0.0, min: u64::MAX, max: 0, hop_sum: 0 }
    }

    /// Records one packet's latency (cycles) and hop count.
    pub fn record(&mut self, latency: u64, hops: u32) {
        self.count += 1;
        self.sum += latency as f64;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        self.hop_sum += u64::from(hops);
    }

    /// Number of packets recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in cycles (0.0 if nothing recorded).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum latency (`None` if nothing recorded).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum latency (`None` if nothing recorded).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean hop count (0.0 if nothing recorded).
    pub fn mean_hops(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.hop_sum as f64 / self.count as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.hop_sum += other.hop_sum;
    }
}

/// Latency statistics broken out by packet class.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PerClassLatency {
    stats: Vec<LatencyStats>,
}

impl PerClassLatency {
    /// Creates accumulators for every [`PacketClass`].
    pub fn new() -> Self {
        PerClassLatency { stats: vec![LatencyStats::new(); PacketClass::ALL.len()] }
    }

    /// Records a packet.
    pub fn record(&mut self, class: PacketClass, latency: u64, hops: u32) {
        self.stats[class.table_index()].record(latency, hops);
    }

    /// Accumulator for one class.
    pub fn class(&self, class: PacketClass) -> &LatencyStats {
        &self.stats[class.table_index()]
    }

    /// Combined accumulator over all classes.
    pub fn total(&self) -> LatencyStats {
        let mut t = LatencyStats::new();
        for s in &self.stats {
            t.merge(s);
        }
        t
    }

    /// Merges another per-class accumulator into this one, class by
    /// class (aggregating parallel measurement windows).
    pub fn merge(&mut self, other: &PerClassLatency) {
        for (mine, theirs) in self.stats.iter_mut().zip(&other.stats) {
            mine.merge(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_mean_min_max() {
        let mut s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        s.record(10, 2);
        s.record(20, 4);
        s.record(30, 6);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(30));
        assert!((s.mean_hops() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyStats::new();
        a.record(10, 1);
        let mut b = LatencyStats::new();
        b.record(30, 3);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 20.0).abs() < 1e-12);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(30));
    }

    #[test]
    fn merge_empty_is_noop() {
        let mut a = LatencyStats::new();
        a.record(5, 1);
        let before = a.clone();
        a.merge(&LatencyStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn counters_layer_weighting() {
        let mut c = ActivityCounters::new();
        c.record_buffer_write(1.0);
        c.record_buffer_write(0.25);
        assert_eq!(c.buffer_writes_raw, 2);
        assert!((c.buffer_writes - 1.25).abs() < 1e-12);
    }

    #[test]
    fn counters_link_mm() {
        let mut c = ActivityCounters::new();
        c.record_link(3.1, 1.0);
        c.record_link(3.1, 0.25);
        assert_eq!(c.link_traversals_raw, 2);
        assert!((c.link_flit_mm - 3.1 * 1.25).abs() < 1e-12);
        assert!((c.link_flit_mm_raw - 6.2).abs() < 1e-12);
    }

    #[test]
    fn delta_isolates_window() {
        let mut c = ActivityCounters::new();
        c.record_xbar(1.0);
        c.cycles = 100;
        let snapshot = c.clone();
        c.record_xbar(0.5);
        c.record_xbar(0.5);
        c.cycles = 200;
        let d = c.delta_since(&snapshot);
        assert_eq!(d.cycles, 100);
        assert_eq!(d.xbar_traversals_raw, 2);
        assert!((d.xbar_traversals - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_class_totals() {
        let mut p = PerClassLatency::new();
        p.record(PacketClass::ReadRequest, 10, 2);
        p.record(PacketClass::DataResponse, 30, 4);
        assert_eq!(p.class(PacketClass::ReadRequest).count(), 1);
        assert_eq!(p.class(PacketClass::Ack).count(), 0);
        let t = p.total();
        assert_eq!(t.count(), 2);
        assert!((t.mean() - 20.0).abs() < 1e-12);
    }
}

/// Per-router activity (spatial breakdown of the global counters),
/// used to distribute network power over the chip floorplan for the
/// thermal analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterActivity {
    /// Layer-weighted buffer accesses (writes + reads) at this router.
    pub buffer_events: f64,
    /// Layer-weighted crossbar traversals at this router.
    pub xbar_events: f64,
    /// Raw crossbar traversals (for the un-gated control overhead).
    pub xbar_events_raw: u64,
    /// Layer-weighted flit·mm driven onto this router's output links.
    pub link_flit_mm: f64,
}

impl RouterActivity {
    /// Element-wise difference `self - earlier` (measurement-window
    /// isolation, like [`ActivityCounters::delta_since`]).
    #[must_use]
    pub fn delta_since(&self, earlier: &RouterActivity) -> RouterActivity {
        RouterActivity {
            buffer_events: self.buffer_events - earlier.buffer_events,
            xbar_events: self.xbar_events - earlier.xbar_events,
            xbar_events_raw: self.xbar_events_raw - earlier.xbar_events_raw,
            link_flit_mm: self.link_flit_mm - earlier.link_flit_mm,
        }
    }

    /// A scalar proxy for this router's dynamic energy, used to compute
    /// relative power weights: component events priced with the given
    /// per-event energies.
    fn energy_proxy_j(
        &self,
        buffer_j: f64,
        xbar_j: f64,
        control_j: f64,
        link_j_per_mm: f64,
    ) -> f64 {
        self.buffer_events * buffer_j
            + self.xbar_events * xbar_j
            + self.xbar_events_raw as f64 * control_j
            + self.link_flit_mm * link_j_per_mm
    }
}

/// Normalises per-router energy proxies into power weights summing to 1
/// (uniform if the network saw no activity).
pub fn activity_weights(per_router: &[RouterActivity], energies: (f64, f64, f64, f64)) -> Vec<f64> {
    let (b, x, c, l) = energies;
    let proxies: Vec<f64> = per_router.iter().map(|a| a.energy_proxy_j(b, x, c, l)).collect();
    let total: f64 = proxies.iter().sum();
    if total <= 0.0 {
        vec![1.0 / per_router.len().max(1) as f64; per_router.len()]
    } else {
        proxies.iter().map(|p| p / total).collect()
    }
}

#[cfg(test)]
mod activity_tests {
    use super::*;

    #[test]
    fn energy_proxy_prices_components() {
        let a = RouterActivity {
            buffer_events: 2.0,
            xbar_events: 1.0,
            xbar_events_raw: 1,
            link_flit_mm: 3.0,
        };
        let e = a.energy_proxy_j(1.0, 10.0, 100.0, 1000.0);
        assert!((e - (2.0 + 10.0 + 100.0 + 3000.0)).abs() < 1e-12);
    }

    #[test]
    fn weights_sum_to_one() {
        let routers = vec![
            RouterActivity { buffer_events: 1.0, ..Default::default() },
            RouterActivity { buffer_events: 3.0, ..Default::default() },
        ];
        let w = activity_weights(&routers, (1.0, 1.0, 1.0, 1.0));
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn idle_network_gets_uniform_weights() {
        let routers = vec![RouterActivity::default(); 4];
        let w = activity_weights(&routers, (1.0, 1.0, 1.0, 1.0));
        assert!(w.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }
}

/// The 1-based nearest rank of the `q`-quantile among `n > 0` sorted
/// samples, `ceil(q·n)` clamped to `1..=n`: the one quantile rule of the
/// latency histogram, the journey tail buckets and the latency-spike
/// detector.
pub(crate) fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// An exact latency histogram (cycle-resolution counts) with percentile
/// queries — the tail-latency view the mean hides near saturation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: std::collections::BTreeMap<u64, u64>,
    total: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        *self.counts.entry(latency).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method, `None`
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile in [0,1]");
        if self.total == 0 {
            return None;
        }
        let rank = nearest_rank(q, self.total);
        let mut seen = 0;
        for (&latency, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return Some(latency);
            }
        }
        unreachable!("rank {rank} within total {}", self.total)
    }

    /// Median latency.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self.counts.iter().map(|(&l, &n)| l as f64 * n as f64).sum();
        sum / self.total as f64
    }

    /// Iterates `(latency, count)` in increasing latency order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&l, &n)| (l, n))
    }

    /// Merges another histogram into this one (exact: bucket counts
    /// add, so quantiles over the merge equal quantiles over the
    /// concatenated samples).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (&latency, &n) in &other.counts {
            *self.counts.entry(latency).or_insert(0) += n;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = LatencyHistogram::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.p50(), Some(50));
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.p95(), Some(100));
        assert_eq!(h.p99(), Some(100));
    }

    #[test]
    fn skewed_tail_shows_in_p99() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000);
        assert_eq!(h.p50(), Some(10));
        assert_eq!(h.p99(), Some(10));
        assert_eq!(h.quantile(0.995), Some(1_000));
        assert!(h.mean() > 10.0);
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn duplicate_values_counted() {
        let mut h = LatencyHistogram::new();
        h.record(5);
        h.record(5);
        h.record(7);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(5, 2), (7, 1)]);
        assert!((h.mean() - 17.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn invalid_quantile_panics() {
        let h = LatencyHistogram::new();
        let _ = h.quantile(1.5);
    }
}

/// Edge cases of the merge operations the parallel runner aggregates
/// with: empty inputs, single samples, and split-vs-serial windows.
#[cfg(test)]
mod merge_tests {
    use super::*;

    #[test]
    fn latency_stats_single_sample() {
        let mut s = LatencyStats::new();
        s.record(42, 3);
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), Some(42));
        assert_eq!(s.max(), Some(42));
        assert!((s.mean() - 42.0).abs() < 1e-12);
        assert!((s.mean_hops() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merging_into_empty_equals_source() {
        let mut src = LatencyStats::new();
        src.record(7, 1);
        src.record(11, 2);
        let mut dst = LatencyStats::new();
        dst.merge(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn split_windows_merge_to_serial_stats() {
        // Record the same sample stream once serially and once split in
        // two windows; the merge must be exact, not approximate.
        let samples = [(3u64, 1u32), (9, 2), (27, 3), (81, 4), (5, 1)];
        let mut serial = LatencyStats::new();
        let (mut a, mut b) = (LatencyStats::new(), LatencyStats::new());
        for (i, &(lat, hops)) in samples.iter().enumerate() {
            serial.record(lat, hops);
            if i % 2 == 0 {
                a.record(lat, hops)
            } else {
                b.record(lat, hops)
            }
        }
        a.merge(&b);
        assert_eq!(a, serial);
    }

    #[test]
    fn per_class_merge_empty_and_split() {
        let mut serial = PerClassLatency::new();
        let (mut a, mut b) = (PerClassLatency::new(), PerClassLatency::new());
        serial.record(PacketClass::ReadRequest, 10, 2);
        a.record(PacketClass::ReadRequest, 10, 2);
        serial.record(PacketClass::DataResponse, 30, 4);
        b.record(PacketClass::DataResponse, 30, 4);
        // Merging an empty accumulator is a no-op.
        a.merge(&PerClassLatency::new());
        a.merge(&b);
        assert_eq!(a, serial);
        assert_eq!(a.total().count(), 2);
        assert_eq!(a.class(PacketClass::Ack).count(), 0);
    }

    #[test]
    fn histogram_merge_empty_single_and_split() {
        // Empty ⊕ empty stays empty.
        let mut empty = LatencyHistogram::new();
        empty.merge(&LatencyHistogram::new());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.p50(), None);

        // Empty ⊕ single-sample adopts the sample.
        let mut single = LatencyHistogram::new();
        single.record(17);
        empty.merge(&single);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.p50(), Some(17));
        assert_eq!(empty.quantile(1.0), Some(17));

        // Split windows merge to the serial histogram: same quantiles,
        // same buckets.
        let mut serial = LatencyHistogram::new();
        let (mut a, mut b) = (LatencyHistogram::new(), LatencyHistogram::new());
        for v in [10u64, 10, 20, 30, 30, 30, 90] {
            serial.record(v);
            if v < 25 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a, serial);
        assert_eq!(a.p50(), serial.p50());
        assert_eq!(a.quantile(0.99), serial.quantile(0.99));
        assert!((a.mean() - serial.mean()).abs() < 1e-12);
        let buckets: Vec<_> = a.iter().collect();
        assert_eq!(buckets, vec![(10, 2), (20, 1), (30, 3), (90, 1)]);
    }
}
