//! NUCA-constrained bimodal request/response traffic (paper Fig. 11(b)).
//!
//! In a NUCA CMP the source and destination sets are constrained: CPUs
//! talk only to cache banks and banks only to CPUs. The paper models
//! this with "request-response type bi-modal traffic, where the eight
//! CPU nodes generate requests to the 28 cache nodes with uniform random
//! distribution. Every request is matched with a response."
//!
//! [`NucaBimodal`] implements exactly that: CPUs inject single-flit
//! control requests at a configurable rate towards uniformly chosen
//! banks; when a request ejects at its bank, the bank answers with a
//! five-flit data response after the L2 access latency (4 cycles at
//! 2 GHz, paper Table 4).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mira_noc::flit::FlitData;
use mira_noc::ids::NodeId;
use mira_noc::packet::{PacketClass, PacketSpec};
use mira_noc::traffic::{EjectedPacket, Workload};

use crate::patterns::PatternMix;

/// L2 bank access latency in cycles (paper Table 4).
const BANK_LATENCY: u64 = 4;

/// Bimodal CPU↔cache request/response workload.
///
/// ```
/// use mira_noc::ids::NodeId;
/// use mira_noc::traffic::Workload;
/// use mira_traffic::nuca_ur::NucaBimodal;
///
/// let cpus = vec![NodeId(0), NodeId(1)];
/// let caches = vec![NodeId(2), NodeId(3)];
/// let mut w = NucaBimodal::new(cpus, caches, 0.5, 42);
/// w.init(4);
/// // Requests flow only from CPUs to caches.
/// for spec in w.generate(0) {
///     assert!(spec.src.index() < 2 && spec.dst.index() >= 2);
/// }
/// ```
#[derive(Debug)]
pub struct NucaBimodal {
    cpus: Vec<NodeId>,
    caches: Vec<NodeId>,
    request_rate_per_cpu: f64,
    response_len_flits: usize,
    words_per_flit: usize,
    patterns: PatternMix,
    short_flit_fraction: f64,
    rng: SmallRng,
}

impl NucaBimodal {
    /// Creates the workload.
    ///
    /// * `cpus` / `caches` — the node partition (paper Fig. 10 layouts);
    /// * `request_rate_per_cpu` — request packets per CPU per cycle.
    ///
    /// # Panics
    ///
    /// Panics if either node set is empty or the rate is negative.
    pub fn new(
        cpus: Vec<NodeId>,
        caches: Vec<NodeId>,
        request_rate_per_cpu: f64,
        seed: u64,
    ) -> Self {
        assert!(!cpus.is_empty() && !caches.is_empty(), "node sets must be non-empty");
        assert!(request_rate_per_cpu >= 0.0, "rate must be non-negative");
        NucaBimodal {
            cpus,
            caches,
            request_rate_per_cpu,
            response_len_flits: 5,
            words_per_flit: 4,
            patterns: PatternMix::dense(),
            short_flit_fraction: 0.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The request rate per CPU per cycle.
    pub fn request_rate(&self) -> f64 {
        self.request_rate_per_cpu
    }

    fn response_payload(&mut self) -> Vec<FlitData> {
        (0..self.response_len_flits)
            .map(|_| {
                self.patterns.sample_flit_with_short(
                    self.words_per_flit,
                    self.short_flit_fraction,
                    &mut self.rng,
                )
            })
            .collect()
    }
}

impl Workload for NucaBimodal {
    fn init(&mut self, num_nodes: usize) {
        for n in self.cpus.iter().chain(&self.caches) {
            assert!(n.index() < num_nodes, "node {n} outside the network");
        }
    }

    fn generate(&mut self, _cycle: u64) -> Vec<PacketSpec> {
        let mut specs = Vec::new();
        for i in 0..self.cpus.len() {
            if self.request_rate_per_cpu > 0.0
                && self.rng.gen_bool(self.request_rate_per_cpu.min(1.0))
            {
                let src = self.cpus[i];
                let dst = self.caches[self.rng.gen_range(0..self.caches.len())];
                // Requests are single-flit short control packets.
                specs.push(PacketSpec::control(
                    src,
                    dst,
                    PacketClass::ReadRequest,
                    self.words_per_flit,
                ));
            }
        }
        specs
    }

    fn on_ejected(&mut self, _cycle: u64, packet: &EjectedPacket) -> Vec<(u64, PacketSpec)> {
        if packet.class != PacketClass::ReadRequest {
            return Vec::new();
        }
        // The bank answers after its access latency.
        let payload = self.response_payload();
        vec![(
            BANK_LATENCY,
            PacketSpec {
                src: packet.dst,
                dst: packet.src,
                class: PacketClass::DataResponse,
                payload,
            },
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_noc::config::NetworkConfig;
    use mira_noc::sim::{SimConfig, Simulator};
    use mira_noc::topology::Mesh2D;

    fn mesh_sets() -> (Vec<NodeId>, Vec<NodeId>) {
        // 4x4 mesh: 4 CPUs in the middle, 12 caches around.
        let cpus: Vec<NodeId> = [5, 6, 9, 10].map(NodeId).to_vec();
        let caches: Vec<NodeId> =
            (0..16).filter(|i| ![5, 6, 9, 10].contains(i)).map(NodeId).collect();
        (cpus, caches)
    }

    #[test]
    fn requests_only_from_cpus_to_caches() {
        let (cpus, caches) = mesh_sets();
        let mut w = NucaBimodal::new(cpus.clone(), caches.clone(), 0.5, 1);
        w.init(16);
        for c in 0..500 {
            for s in w.generate(c) {
                assert!(cpus.contains(&s.src));
                assert!(caches.contains(&s.dst));
                assert_eq!(s.class, PacketClass::ReadRequest);
                assert_eq!(s.payload.len(), 1);
            }
        }
    }

    #[test]
    fn each_request_gets_one_response() {
        let (cpus, caches) = mesh_sets();
        let w = NucaBimodal::new(cpus.clone(), caches, 0.05, 42);
        let mut sim = Simulator::new(
            Box::new(Mesh2D::new(4, 4)),
            NetworkConfig::default(),
            SimConfig::short(),
        );
        let report = sim.run(Box::new(w));
        assert!(!report.saturated);
        let reqs = report.per_class.class(PacketClass::ReadRequest).count();
        let resps = report.per_class.class(PacketClass::DataResponse).count();
        assert!(reqs > 0);
        // Responses to window-edge requests may fall outside measurement;
        // allow a small imbalance.
        let ratio = resps as f64 / reqs as f64;
        assert!((0.85..=1.15).contains(&ratio), "req {reqs} resp {resps}");
    }

    #[test]
    fn responses_are_data_class_and_five_flits() {
        let (cpus, caches) = mesh_sets();
        let mut w = NucaBimodal::new(cpus, caches, 0.1, 3);
        w.init(16);
        let eject = EjectedPacket {
            id: mira_noc::packet::PacketId(9),
            src: NodeId(5),
            dst: NodeId(0),
            class: PacketClass::ReadRequest,
            created_at: 0,
            ejected_at: 30,
            hops: 3,
            len_flits: 1,
        };
        let replies = w.on_ejected(30, &eject);
        assert_eq!(replies.len(), 1);
        let (delay, spec) = &replies[0];
        assert_eq!(*delay, 4, "bank latency");
        assert_eq!(spec.class, PacketClass::DataResponse);
        assert_eq!(spec.payload.len(), 5);
        assert_eq!(spec.src, NodeId(0));
        assert_eq!(spec.dst, NodeId(5));
    }

    #[test]
    fn responses_do_not_trigger_more_responses() {
        let (cpus, caches) = mesh_sets();
        let mut w = NucaBimodal::new(cpus, caches, 0.1, 3);
        w.init(16);
        let eject = EjectedPacket {
            id: mira_noc::packet::PacketId(9),
            src: NodeId(0),
            dst: NodeId(5),
            class: PacketClass::DataResponse,
            created_at: 0,
            ejected_at: 30,
            hops: 3,
            len_flits: 5,
        };
        assert!(w.on_ejected(30, &eject).is_empty());
    }
}
