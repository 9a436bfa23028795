//! Equal-work probe of the simulator's per-router working set: steps `K`
//! identical 2DB meshes of `side` × `side` nodes in lockstep under the
//! same uniform-random load, and prints the host time of
//! `Network::step` per router-cycle. Every copy does the same work per
//! router, so any rise of the cost with `K` is the growing working set
//! (caches), not topology or load; compare it with one mesh of side
//! `side * sqrt(K)`.
//!
//! Run with: `cargo run --release --example working_set -- [side] [copies] [rate] [cycles]`
//! (defaults: 16 1 0.6 2000).

use std::time::{Duration, Instant};

use mira::arch::Arch;
use mira::noc::network::Network;
use mira::noc::packet::{Packet, PacketId};
use mira::noc::topology::Mesh2D;
use mira::noc::traffic::{UniformRandom, Workload};

fn arg<T: std::str::FromStr>(n: usize, default: T) -> T {
    match std::env::args().nth(n) {
        Some(s) => s.parse().unwrap_or_else(|_| panic!("argument {n} ({s:?}) does not parse")),
        None => default,
    }
}

fn main() {
    let (side, copies, rate, cycles): (usize, usize, f64, u64) =
        (arg(1, 16), arg(2, 1), arg(3, 0.6), arg(4, 2000));
    let mut meshes: Vec<(Network, UniformRandom)> = (0..copies)
        .map(|_| {
            let topo = Mesh2D::with_pitch(side, side, Mesh2D::PITCH_2DB_MM);
            let net = Network::new(Box::new(topo), Arch::TwoDB.network_config(false));
            let mut workload = UniformRandom::new(rate, 5, 20080621);
            workload.init(side * side);
            (net, workload)
        })
        .collect();
    let mut stepping = Duration::ZERO;
    let mut ejected = Vec::new();
    let mut next_id = 0u64;
    for cycle in 0..cycles {
        for (net, workload) in &mut meshes {
            for spec in workload.generate(cycle) {
                next_id += 1;
                net.enqueue_packet(Packet {
                    id: PacketId(next_id),
                    src: spec.src,
                    dst: spec.dst,
                    class: spec.class,
                    payload: spec.payload,
                    created_at: cycle,
                });
            }
        }
        let t = Instant::now();
        for (net, _) in &mut meshes {
            net.step(cycle);
        }
        stepping += t.elapsed();
        for (net, _) in &mut meshes {
            net.drain_ejected(&mut ejected);
            ejected.clear();
        }
    }
    let router_cycles = (copies * side * side) as f64 * cycles as f64;
    let ns = stepping.as_nanos() as f64 / router_cycles;
    println!("{copies} x {side}x{side} 2DB @ {rate}, {cycles} cycles: {ns:.1} ns per router-cycle");
}
