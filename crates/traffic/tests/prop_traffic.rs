//! Property tests on traffic generation and trace handling.

use proptest::prelude::*;

use mira_noc::flit::FlitData;
use mira_noc::packet::PacketClass;
use mira_noc::traffic::Workload;
use mira_traffic::patterns::PatternMix;
use mira_traffic::trace::{read_trace, TraceRecord, TraceReplay, TraceWriter};

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..1000,
        0usize..36,
        0usize..36,
        0usize..6,
        proptest::collection::vec(proptest::collection::vec(any::<u32>(), 1..5), 1..6),
    )
        .prop_map(|(cycle, src, dst, class, payload)| TraceRecord {
            cycle,
            src,
            dst,
            class: PacketClass::ALL[class],
            payload: payload.into_iter().map(FlitData::new).collect(),
        })
}

proptest! {
    /// Traces survive a JSON round trip exactly.
    #[test]
    fn trace_json_roundtrip(records in proptest::collection::vec(record_strategy(), 0..40)) {
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf);
            for r in &records {
                w.write(r).unwrap();
            }
            w.finish().unwrap();
        }
        let back = read_trace(std::io::BufReader::new(&buf[..])).unwrap();
        prop_assert_eq!(back, records);
    }

    /// Replay emits every record exactly once, in cycle order, at or
    /// after its stamped cycle.
    #[test]
    fn replay_complete_and_ordered(records in proptest::collection::vec(record_strategy(), 0..40)) {
        let n = records.len();
        let mut replay = TraceReplay::new(records);
        let mut emitted = 0usize;
        for cycle in 0..1100u64 {
            emitted += replay.generate(cycle).len();
        }
        prop_assert_eq!(emitted, n);
    }

    /// Pattern sampling respects the mix within statistical tolerance.
    #[test]
    fn pattern_mix_fractions(zero in 0.0f64..0.7, one in 0.0f64..0.25) {
        prop_assume!(zero + one <= 1.0);
        let mix = PatternMix::new(zero, one);
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut counts = mira_traffic::patterns::PatternCounts::default();
        for _ in 0..2_000 {
            counts.observe(&mix.sample_flit(4, &mut rng));
        }
        let (z, o, _) = counts.fractions();
        prop_assert!((z - zero).abs() < 0.05, "zeros {z} vs {zero}");
        prop_assert!((o - one).abs() < 0.04, "ones {o} vs {one}");
    }
}
