#![warn(missing_docs)]
//! # mira-noc — a cycle-accurate Network-on-Chip simulator
//!
//! This crate is the simulation substrate for the MIRA reproduction
//! (Park et al., *"MIRA: A Multi-Layered On-Chip Interconnect Router
//! Architecture"*, ISCA 2008). It implements a cycle-accurate,
//! credit-based wormhole router with virtual channels, two-stage virtual
//! channel allocation, two-stage switch allocation, deterministic
//! dimension-ordered routing, and the MIRA-specific mechanisms:
//!
//! * **multi-layer bit-sliced datapaths** — flits are split word-wise
//!   across stacked silicon layers ([`layers`]),
//! * **short-flit layer shutdown** — a zero-detector gates the lower
//!   layers of the separable datapath (buffer, crossbar, link) when the
//!   upper words of a flit carry redundant data ([`flit`]),
//! * **pipeline combining** — the switch-traversal and link-traversal
//!   stages merge into a single cycle when wire lengths permit
//!   ([`config::PipelineConfig`]),
//! * **express channels** — Dally-style multi-hop links on a 2D mesh
//!   ([`topology::ExpressMesh2D`]),
//! * **fault injection and recovery** — deterministic seed-driven link
//!   faults with per-slice parity detection, go-back-N link-level
//!   retransmission, and fault-aware rerouting ([`fault`]).
//!
//! The simulator is deterministic: identical configurations and seeds
//! produce identical results, cycle for cycle.
//!
//! ## Quick example
//!
//! ```
//! use mira_noc::config::{NetworkConfig, PipelineConfig, RouterConfig};
//! use mira_noc::sim::{SimConfig, Simulator};
//! use mira_noc::topology::Mesh2D;
//! use mira_noc::traffic::UniformRandom;
//!
//! let topo = Mesh2D::new(4, 4);
//! let net = NetworkConfig {
//!     router: RouterConfig { pipeline: PipelineConfig::combined_st_lt(), ..RouterConfig::default() },
//!     ..NetworkConfig::default()
//! };
//! let mut sim = Simulator::new(Box::new(topo), net, SimConfig::default());
//! let workload = UniformRandom::new(0.05, 5, 7);
//! let report = sim.run(Box::new(workload));
//! assert!(report.packets_ejected > 0);
//! ```

pub mod adaptive;
pub mod anomaly;
pub mod arbiter;
pub mod arena;
pub mod buffer;
pub mod config;
pub mod error;
pub mod fault;
pub mod flit;
pub mod ids;
pub mod journey;
pub mod layers;
pub mod link;
pub mod network;
pub mod packet;
pub mod recorder;
pub mod router;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod telemetry;
pub mod topology;
pub mod traffic;
pub mod vc;
mod worklist;

pub use adaptive::{AdaptiveMesh2D, TurnModel};
pub use anomaly::{AnomalyAbort, AnomalyConfig, AnomalyCounts, AnomalyKind, FiredDetector};
pub use arena::{FlitArena, FlitRef};
pub use config::{NetworkConfig, PipelineConfig, RouterConfig};
pub use error::NocError;
pub use fault::{FaultConfig, FaultCounters, FaultPlan, LinkKill, Verdict};
pub use flit::{Flit, FlitData, FlitKind};
pub use ids::{NodeId, PortId, VcId};
pub use journey::{
    AttributionShare, HopSpan, JourneyRecorder, JourneyReport, JourneySampler, PacketJourney,
    TailBucket,
};
pub use packet::{Packet, PacketClass, PacketId};
pub use recorder::{BlackBox, FlightRecorder};
pub use sim::{SimConfig, SimReport, Simulator};
pub use stats::{ActivityCounters, LatencyStats};
pub use telemetry::{
    MetricsWindow, StallCause, StallCounters, Telemetry, TelemetryConfig, TraceEvent,
    TraceEventKind, TraceSink,
};
pub use topology::{ExpressMesh2D, Mesh2D, Mesh3D, Topology};
