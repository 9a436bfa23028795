//! Property test: random packet batches always fully deliver on random
//! topologies, with exact flit conservation.

use proptest::prelude::*;

use mira_noc::config::{NetworkConfig, PipelineConfig, RouterConfig};
use mira_noc::flit::FlitData;
use mira_noc::ids::NodeId;
use mira_noc::network::Network;
use mira_noc::packet::{Packet, PacketClass, PacketId};
use mira_noc::topology::{ExpressMesh2D, Mesh2D, Mesh3D, Topology};

#[derive(Debug, Clone)]
struct Spec {
    src: usize,
    dst: usize,
    len: usize,
    control: bool,
}

fn spec_strategy(nodes: usize) -> impl Strategy<Value = Spec> {
    (0..nodes, 0..nodes, 1usize..6, any::<bool>()).prop_map(|(src, dst, len, control)| Spec {
        src,
        dst,
        len,
        control,
    })
}

fn run_batch(topo: Box<dyn Topology>, combined: bool, specs: &[Spec]) -> Result<(), TestCaseError> {
    let pipeline =
        if combined { PipelineConfig::combined_st_lt() } else { PipelineConfig::separate_lt() };
    let cfg = NetworkConfig {
        router: RouterConfig { pipeline, ..RouterConfig::default() },
        ..NetworkConfig::default()
    };
    let mut net = Network::new(topo, cfg);
    let mut total = 0usize;
    for (i, s) in specs.iter().enumerate() {
        total += s.len;
        net.enqueue_packet(Packet {
            id: PacketId(i as u64),
            src: NodeId(s.src),
            dst: NodeId(s.dst),
            class: if s.control { PacketClass::ReadRequest } else { PacketClass::DataResponse },
            payload: (0..s.len).map(|_| FlitData::dense(4)).collect(),
            created_at: 0,
        });
    }
    let mut ejected = 0usize;
    for c in 0..50_000u64 {
        net.step(c);
        ejected += net.take_ejected().len();
        if net.is_drained() {
            break;
        }
    }
    prop_assert!(net.is_drained(), "network failed to drain: {} of {total} ejected", ejected);
    prop_assert_eq!(ejected, total);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mesh_delivers_everything(
        specs in proptest::collection::vec(spec_strategy(16), 1..60),
        combined in any::<bool>(),
    ) {
        run_batch(Box::new(Mesh2D::new(4, 4)), combined, &specs)?;
    }

    #[test]
    fn mesh3d_delivers_everything(
        specs in proptest::collection::vec(spec_strategy(27), 1..60),
    ) {
        run_batch(Box::new(Mesh3D::new(3, 3, 3)), false, &specs)?;
    }

    #[test]
    fn express_mesh_delivers_everything(
        specs in proptest::collection::vec(spec_strategy(36), 1..60),
    ) {
        run_batch(Box::new(ExpressMesh2D::new(6, 6)), true, &specs)?;
    }
}

mod simulator_conservation {
    use super::*;
    use mira_noc::sim::{SimConfig, Simulator};
    use mira_noc::traffic::UniformRandom;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// End-to-end packet conservation through the full
        /// warmup/measure/drain pipeline: every measured packet a
        /// non-saturated run creates is eventually ejected, and the
        /// `saturated` flag is set exactly when the drain left measured
        /// packets in flight.
        #[test]
        fn measured_packets_are_conserved(
            rate_pct in 1u32..8,      // 1%..7% load — comfortably below saturation
            seed in any::<u64>(),
            combined in any::<bool>(),
        ) {
            let pipeline = if combined {
                PipelineConfig::combined_st_lt()
            } else {
                PipelineConfig::separate_lt()
            };
            let cfg = NetworkConfig { router: RouterConfig { pipeline, ..RouterConfig::default() }, ..NetworkConfig::default() };
            let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), cfg, SimConfig::short());
            let report = sim.run(Box::new(UniformRandom::new(rate_pct as f64 / 100.0, 5, seed)));

            prop_assert!(!report.saturated, "{}% load must not saturate a 4x4 mesh", rate_pct);
            prop_assert_eq!(report.packets_created, report.packets_ejected);
            prop_assert_eq!(
                sim.in_flight_measured(), 0,
                "drain must empty the measured in-flight population"
            );
        }

        /// The flip side: `saturated == false` iff the drain emptied the
        /// measured in-flight set, even at loads where the outcome is
        /// not known in advance.
        #[test]
        fn saturation_flag_tracks_in_flight(
            rate_pct in 5u32..60,
            seed in any::<u64>(),
        ) {
            let cfg = NetworkConfig::default();
            // Tiny drain window so high rates genuinely strand packets.
            let window = SimConfig {
                warmup_cycles: 100,
                measure_cycles: 500,
                drain_cycles: 300,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), cfg, window);
            let report = sim.run(Box::new(UniformRandom::new(rate_pct as f64 / 100.0, 5, seed)));

            prop_assert_eq!(
                report.saturated,
                sim.in_flight_measured() > 0,
                "saturated flag must mirror stranded measured packets \
                 (created {}, ejected {})",
                report.packets_created,
                report.packets_ejected
            );
            prop_assert_eq!(
                report.saturated,
                report.packets_ejected < report.packets_created
            );
        }
    }
}

mod adaptive_delivery {
    use super::*;
    use mira_noc::adaptive::{AdaptiveMesh2D, TurnModel};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(18))]

        /// Every turn model delivers arbitrary batches without deadlock
        /// (the point of the turn restrictions).
        #[test]
        fn adaptive_mesh_delivers_everything(
            specs in proptest::collection::vec(spec_strategy(36), 1..60),
            model_idx in 0usize..3,
        ) {
            let model = TurnModel::ALL[model_idx];
            let topo = AdaptiveMesh2D::new(Mesh2D::new(6, 6), model);
            run_batch(Box::new(topo), false, &specs)?;
        }
    }
}
