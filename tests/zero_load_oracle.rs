//! Zero-load latency oracle, independent of the router implementation.
//!
//! Every hardware architecture, every (source, destination) pair, one
//! packet at a time on an otherwise empty network, 1-flit and 5-flit
//! packets. The measured ejection cycles must equal, exactly, what the
//! pipeline model predicts from the configuration alone:
//!
//! * the head ejects at `1 + hops × cycles_per_hop + (stages − 1)` cycles
//!   after enqueue: the NIC injection cycle, one full router-plus-wire
//!   traversal per hop, and the final router's stages up to its ST;
//! * body flit `k` leaves router `i` one cycle after its switch
//!   allocation, which waits for the flit to be visible, for flit `k−1`
//!   to have left, and — once the `depth` credits of the downstream
//!   buffer are spent — for the credit that flit `k − depth`'s departure
//!   from router `i+1` returns one cycle later. The NIC refills a source
//!   buffer slot in the cycle its flit leaves.
//!
//! With no credit wait the tail ejects `flits − 1` cycles after the head
//! (pure serialisation). The model shows where that fails: on the
//! separate-LT pipelines (2DB, 3DB) the credit round trip exceeds the
//! 4-flit buffer, and a multi-hop 5-flit packet's tail ejects one cycle
//! later.
//!
//! `hops` must be the topology's `min_hops` on 2DB, 3DB and 3DM; on
//! 3DM-E the greedy express route may take more near the mesh edges
//! (documented in `topology.rs`), so there the measured hop count must
//! be at least `min_hops` and the latency is checked against it.

use mira::arch::Arch;
use mira::noc::flit::FlitData;
use mira::noc::ids::NodeId;
use mira::noc::network::Network;
use mira::noc::packet::{Packet, PacketClass, PacketId};
use mira::noc::router::EjectedFlit;

/// Predicted ejection cycle (relative to the enqueue cycle) of each flit
/// of a `flits`-flit packet crossing `hops` routers-to-router hops.
fn model_eject_cycles(
    hops: usize,
    flits: usize,
    stages: u64,
    cycles_per_hop: u64,
    depth: usize,
) -> Vec<u64> {
    // A flit leaving a router at ST cycle `d` is visible downstream at
    // `d + wire`.
    let wire = cycles_per_hop - stages + 1;
    // depart[i][k]: ST cycle of flit k at router i (router `hops` ejects).
    let mut depart = vec![vec![0u64; flits]; hops + 1];
    let mut nic_write = 0u64;
    for k in 0..flits {
        if k >= depth {
            nic_write = nic_write.max(depart[0][k - depth]);
        }
        for i in 0..=hops {
            let visible = if i == 0 { nic_write + 1 } else { depart[i - 1][k] + wire };
            depart[i][k] = if k == 0 {
                visible + stages - 1
            } else {
                let mut sa = visible.max(depart[i][k - 1]);
                if i < hops && k >= depth {
                    sa = sa.max(depart[i + 1][k - depth] + 1);
                }
                sa + 1
            };
        }
    }
    depart[hops].clone()
}

#[test]
fn zero_load_latency_matches_the_pipeline_model_everywhere() {
    for arch in Arch::HARDWARE {
        let cfg = arch.network_config(false);
        let pipeline = cfg.router.pipeline;
        let (stages, cph) = (pipeline.depth.stages(), pipeline.cycles_per_hop());
        let mut net = Network::new(arch.topology(), cfg);
        let nodes = net.topology().num_nodes();
        let mut cycle = 0u64;
        let mut id = 0u64;
        let mut out: Vec<EjectedFlit> = Vec::new();
        for src in 0..nodes {
            for dst in 0..nodes {
                for flits in [1usize, 5] {
                    id += 1;
                    let start = cycle;
                    net.enqueue_packet(Packet {
                        id: PacketId(id),
                        src: NodeId(src),
                        dst: NodeId(dst),
                        class: if flits == 1 {
                            PacketClass::Ack
                        } else {
                            PacketClass::DataResponse
                        },
                        payload: (0..flits).map(|_| FlitData::dense(4)).collect(),
                        created_at: start,
                    });
                    out.clear();
                    loop {
                        net.step(cycle);
                        net.drain_ejected(&mut out);
                        cycle += 1;
                        if net.is_drained() {
                            break;
                        }
                        assert!(cycle - start < 1_000, "{arch} {src}->{dst} never drained");
                    }
                    assert_eq!(out.len(), flits, "{arch} {src}->{dst}");
                    let hops = out[0].flit.hops as usize;
                    let min_hops = net.topology().min_hops(NodeId(src), NodeId(dst));
                    if arch == Arch::ThreeDME {
                        assert!(hops >= min_hops, "{arch} {src}->{dst}: {hops} < {min_hops}");
                    } else {
                        assert_eq!(hops, min_hops, "{arch} {src}->{dst}: not a minimal route");
                    }
                    let measured: Vec<u64> = out.iter().map(|e| e.cycle - start).collect();
                    let model =
                        model_eject_cycles(hops, flits, stages, cph, cfg.router.buffer_depth);
                    assert_eq!(measured, model, "{arch} {src}->{dst} {flits} flits, {hops} hops");
                    assert_eq!(model[0], 1 + hops as u64 * cph + stages - 1, "head formula");
                }
            }
        }
    }
}

/// The model's serialisation term: pure `flits − 1` where the buffer
/// covers the credit round trip, one bubble where it does not.
#[test]
fn model_serialisation_and_credit_bubble() {
    // Combined ST+LT, four-stage: back to back over any distance.
    let combined = model_eject_cycles(6, 5, 4, 4, 4);
    assert_eq!(combined, (0..5).map(|k| 1 + 6 * 4 + 3 + k).collect::<Vec<u64>>());
    // Separate LT: the tail waits one cycle for a returned credit.
    let separate = model_eject_cycles(6, 5, 4, 5, 4);
    assert_eq!(separate[3] - separate[0], 3);
    assert_eq!(separate[4] - separate[0], 5);
    // No hop, no credit loop.
    let local = model_eject_cycles(0, 5, 4, 5, 4);
    assert_eq!(local[4] - local[0], 4);
}
