//! Cross-crate conservation and determinism invariants.

use mira::arch::Arch;
use mira::experiments::common::{quick_sim_config, run_arch, EXPERIMENT_SEED};
use mira::experiments::latency::run_nuca_ur;
use mira::noc::flit::FlitData;
use mira::noc::ids::NodeId;
use mira::noc::network::Network;
use mira::noc::packet::{Packet, PacketClass, PacketId};
use mira::noc::traffic::{UniformRandom, Workload};

/// Every injected flit is eventually ejected on every architecture, at a
/// drainable load, and every measured packet is counted once: created
/// is ejected plus dropped, closed-loop NUCA replies included.
#[test]
fn all_flits_delivered_all_archs() {
    for arch in Arch::ALL {
        let w = UniformRandom::new(0.08, 5, EXPERIMENT_SEED);
        let r = run_arch(arch, false, Box::new(w), quick_sim_config());
        assert!(!r.report.saturated, "{arch} saturated at 8%");
        assert_eq!(r.report.packets_created, r.report.packets_ejected, "{arch}");

        let nuca = run_nuca_ur(arch, 0.05, EXPERIMENT_SEED, quick_sim_config()).report;
        assert!(!nuca.saturated, "{arch} NUCA-UR saturated at 0.05");
        assert_eq!(
            nuca.packets_created,
            nuca.packets_ejected + nuca.packets_dropped,
            "{arch} NUCA-UR"
        );
    }
}

/// Identical seeds give bit-identical results, independently of process
/// state.
#[test]
fn cross_run_determinism() {
    let run = || {
        let w = UniformRandom::new(0.12, 5, 99);
        run_arch(Arch::ThreeDME, true, Box::new(w), quick_sim_config())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.report.avg_latency.to_bits(), b.report.avg_latency.to_bits());
    assert_eq!(a.report.counters, b.report.counters);
    assert_eq!(a.avg_power_w.to_bits(), b.avg_power_w.to_bits());
}

/// Flits in fabric + queues + ejected equals flits injected, cycle by
/// cycle, on the express topology (the most complex wiring).
#[test]
fn cycle_by_cycle_conservation_on_express_mesh() {
    let arch = Arch::ThreeDME;
    let mut net = Network::new(arch.topology(), arch.network_config(false));
    let mut total = 0usize;
    for i in 0..40u64 {
        let src = (i as usize * 7) % 36;
        let dst = (src + 1 + (i as usize * 11) % 35) % 36;
        let len = 1 + (i as usize % 5);
        total += len;
        net.enqueue_packet(Packet {
            id: PacketId(i),
            src: NodeId(src),
            dst: NodeId(dst),
            class: if len == 1 { PacketClass::Ack } else { PacketClass::DataResponse },
            payload: (0..len).map(|_| FlitData::dense(4)).collect(),
            created_at: 0,
        });
    }
    let mut ejected = 0usize;
    for c in 0..5_000 {
        net.step(c);
        ejected += net.take_ejected().len();
        assert_eq!(
            ejected + net.flits_in_fabric() + net.flits_in_source_queues(),
            total,
            "cycle {c}"
        );
        if net.is_drained() {
            break;
        }
    }
    assert_eq!(ejected, total);
}

/// Saturation is honestly reported: past-capacity loads flag it and
/// eject fewer packets than created.
#[test]
fn saturation_reported_not_hidden() {
    let w = UniformRandom::new(0.8, 5, EXPERIMENT_SEED);
    let r = run_arch(Arch::TwoDB, false, Box::new(w), quick_sim_config());
    assert!(r.report.saturated);
    assert!(r.report.packets_ejected < r.report.packets_created);
    // Throughput reflects acceptance, not the offered 0.8.
    assert!(r.report.throughput < 0.5, "accepted {}", r.report.throughput);
}

/// Layer shutdown never changes timing — only the energy accounting.
#[test]
fn shutdown_is_timing_neutral() {
    let mk = |shutdown| {
        let w = UniformRandom::new(0.10, 5, 7)
            .with_payload(mira::noc::traffic::PayloadProfile::with_short_fraction(4, 0.5));
        run_arch(Arch::ThreeDM, shutdown, Box::new(w), quick_sim_config())
    };
    let off = mk(false);
    let on = mk(true);
    assert_eq!(off.report.avg_latency.to_bits(), on.report.avg_latency.to_bits());
    assert_eq!(off.report.counters.flits_ejected, on.report.counters.flits_ejected);
    assert!(on.avg_power_w < off.avg_power_w, "gating must save energy");
}

/// A synthetic payload queues as its one-byte code: the source-queue
/// backlog holds 24 bytes a packet and 1 byte a flit, no payload words.
#[test]
fn synthetic_backlog_is_a_code_byte_a_flit() {
    let arch = Arch::TwoDB;
    let mut net = Network::new(arch.topology(), arch.network_config(true));
    let mut w = UniformRandom::new(0.8, 5, EXPERIMENT_SEED)
        .with_payload(mira::noc::traffic::PayloadProfile::with_short_fraction(4, 0.5));
    w.init(36);
    let (mut packets, mut flits) = (0, 0);
    for spec in (0..300).flat_map(|c| w.generate(c)) {
        flits += spec.payload.len();
        net.enqueue_packet(Packet {
            id: PacketId(packets as u64),
            src: spec.src,
            dst: spec.dst,
            class: spec.class,
            payload: spec.payload,
            created_at: 0,
        });
        packets += 1;
    }
    assert_eq!(net.flits_in_source_queues(), flits);
    assert!(flits > 5_000, "{flits} flits queued");
    assert_eq!(net.source_queue_bytes(), 24 * packets + flits);
}
