//! Virtual-channel pipeline states.
//!
//! Each input virtual channel advances through the canonical wormhole
//! pipeline states: idle → routing (RC) → waiting for an output VC (VA) →
//! active (streaming flits through SA/ST until the tail frees the VC).
//!
//! The router core (DESIGN.md §14) keeps one two-byte [`VcState`] per
//! input VC in a network-wide array. The transition rules:
//!
//! * a flit buffered into an idle VC with a head at the front moves the
//!   VC to `Routing` and records the serviced packet,
//! * RC moves `Routing → WaitingVc`, VA2 moves `WaitingVc → Active`,
//! * the tail's switch traversal returns the VC to `Idle` (or straight
//!   back to `Routing` when the next packet's head is already buffered),
//! * a port death sends `WaitingVc` routes through it back to `Routing`.

/// Pipeline state of an input virtual channel, in two bytes: port and
/// `pv` indices fit a byte because a router has at most
/// [`crate::config::MAX_PORT_VCS`] `(port, vc)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet occupies the VC.
    Idle,
    /// A head flit is buffered and needs route computation.
    Routing,
    /// Route computed; waiting for an output VC grant.
    WaitingVc {
        /// Output port chosen by RC.
        out_port: u8,
    },
    /// Output VC granted; flits stream through switch allocation.
    Active {
        /// The granted output VC as a flat `out_port * vcs + out_vc`
        /// index.
        out_pv: u8,
    },
}

#[cfg(test)]
mod tests {
    #[test]
    fn vc_state_is_two_bytes() {
        assert_eq!(std::mem::size_of::<super::VcState>(), 2);
    }
}
