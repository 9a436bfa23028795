//! Error types for the simulator.

use std::error::Error;
use std::fmt;

use crate::ids::{NodeId, PortId, VcId};

/// Errors produced while configuring or running a simulation.
///
/// The enum is `#[non_exhaustive]`: downstream matches must carry a
/// wildcard arm, so future error growth (as with the fault variant
/// below) is not a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NocError {
    /// A configuration parameter was outside its valid range.
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// A node id referenced a node that does not exist in the topology.
    UnknownNode(NodeId),
    /// A port id referenced a port that does not exist on a router.
    UnknownPort(NodeId, PortId),
    /// A flit was written into a virtual-channel buffer that had no free
    /// slot — this indicates a credit-accounting bug upstream.
    BufferOverflow {
        /// Router at which the overflow occurred.
        node: NodeId,
        /// Input port of the overflowing buffer.
        port: PortId,
        /// Virtual channel of the overflowing buffer.
        vc: VcId,
    },
    /// The routing function returned a port that does not lead towards the
    /// destination (or does not exist).
    RoutingFailure {
        /// Router at which routing failed.
        node: NodeId,
        /// The destination the flit was trying to reach.
        dest: NodeId,
    },
    /// A fault-plan entry addressed a link that does not exist, or a
    /// link-level hardware fault was reported at this endpoint.
    LinkFault {
        /// Upstream router of the faulty link.
        node: NodeId,
        /// Output port whose link is at fault.
        port: PortId,
        /// What went wrong.
        reason: &'static str,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::InvalidConfig { parameter, reason } => {
                write!(f, "invalid configuration for `{parameter}`: {reason}")
            }
            NocError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NocError::UnknownPort(n, p) => write!(f, "unknown port {p} on node {n}"),
            NocError::BufferOverflow { node, port, vc } => {
                write!(f, "buffer overflow at {node} {port} {vc} (credit accounting bug)")
            }
            NocError::RoutingFailure { node, dest } => {
                write!(f, "routing failure at {node} towards {dest}")
            }
            NocError::LinkFault { node, port, reason } => {
                write!(f, "link fault at {node} {port}: {reason}")
            }
        }
    }
}

impl Error for NocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NocError::BufferOverflow { node: NodeId(3), port: PortId(1), vc: VcId(0) };
        let s = e.to_string();
        assert!(s.contains("n3"));
        assert!(s.contains("p1"));
        assert!(s.contains("v0"));
    }

    #[test]
    fn fault_variants_display_is_informative() {
        let e = NocError::LinkFault { node: NodeId(2), port: PortId(1), reason: "via sheared" };
        let s = e.to_string();
        assert!(s.contains("n2") && s.contains("p1") && s.contains("via sheared"), "{s}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NocError>();
    }
}
