//! Packets and message classes.
//!
//! The simulator moves *flits*; packets exist at the network interface
//! (segmentation on injection, reassembly bookkeeping on ejection) and in
//! the statistics. The NUCA protocol messages of the paper's Fig. 2 map
//! onto [`PacketClass`] values; the class also selects the virtual channel
//! (the paper fixes V = 2, "one VC per control and data traffic").

use serde::{Deserialize, Serialize};

use crate::flit::{Flit, FlitData, FlitKind};
use crate::ids::NodeId;

/// Globally unique packet identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PacketId(pub u64);

impl PacketId {
    /// Returns the raw id.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// Message classes observed in NUCA CMP traffic (paper Fig. 2).
///
/// The first group are short *control* messages (single-flit); the second
/// are *data* messages carrying a cache line. The class determines the
/// virtual channel: control classes ride VC 0, data classes VC 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketClass {
    /// Read request (GetS) — control.
    ReadRequest,
    /// Write/ownership request (GetX) — control.
    WriteRequest,
    /// Invalidate — control.
    Invalidate,
    /// Acknowledgement — control.
    Ack,
    /// Data response carrying a cache line — data.
    DataResponse,
    /// Dirty-line writeback carrying a cache line — data.
    WriteBack,
}

impl PacketClass {
    /// All classes, in a stable order (used for per-class statistics).
    pub const ALL: [PacketClass; 6] = [
        PacketClass::ReadRequest,
        PacketClass::WriteRequest,
        PacketClass::Invalidate,
        PacketClass::Ack,
        PacketClass::DataResponse,
        PacketClass::WriteBack,
    ];

    /// Returns `true` for short address/coherence-control messages.
    #[inline]
    pub fn is_control(self) -> bool {
        !self.is_data()
    }

    /// Returns `true` for cache-line-carrying data messages.
    #[inline]
    pub fn is_data(self) -> bool {
        matches!(self, PacketClass::DataResponse | PacketClass::WriteBack)
    }

    /// The virtual channel this class travels on (paper §3.2.4: one VC for
    /// control traffic, one for data).
    #[inline]
    pub fn vc_index(self) -> usize {
        usize::from(self.is_data())
    }

    /// Stable index into [`PacketClass::ALL`] for stats tables.
    pub fn table_index(self) -> usize {
        PacketClass::ALL.iter().position(|&c| c == self).expect("class listed in ALL")
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PacketClass::ReadRequest => "read-req",
            PacketClass::WriteRequest => "write-req",
            PacketClass::Invalidate => "inv",
            PacketClass::Ack => "ack",
            PacketClass::DataResponse => "data-resp",
            PacketClass::WriteBack => "writeback",
        }
    }
}

impl std::fmt::Display for PacketClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A packet to be injected into the network.
///
/// `payload` holds one [`FlitData`] per flit; its length defines the packet
/// length in flits. Control packets are single-flit; data packets in the
/// MIRA configuration are five flits (1 header + 64-byte line over 128-bit
/// flits).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id (assigned by the simulator on injection).
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message class.
    pub class: PacketClass,
    /// Per-flit payloads; `payload.len()` is the packet length in flits.
    pub payload: Vec<FlitData>,
    /// Cycle at which the packet was created (enters the source queue).
    pub created_at: u64,
}

impl Packet {
    /// Packet length in flits.
    #[inline]
    pub fn len_flits(&self) -> usize {
        self.payload.len()
    }

    /// Builds flit `i` of the packet (0 = head). The NIC builds each
    /// queued flit the same way, from the packet's compact source-queue
    /// copy, only when the local input buffer has room for it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Packet::len_flits`].
    pub fn flit(&self, i: usize) -> Flit {
        let n = self.payload.len();
        assert!(i < n, "flit {i} of a {n}-flit packet");
        Flit {
            packet: self.id,
            seq: i as u32,
            kind: FlitKind::at(i, n),
            src: self.src,
            dst: self.dst,
            class: self.class,
            data: self.payload[i],
            created_at: self.created_at,
            hops: 0,
        }
    }

    /// Average active-layer fraction across the packet's flits (1.0 when
    /// every flit needs the full datapath width).
    pub fn active_fraction(&self) -> f64 {
        let sum: f64 = self.payload.iter().map(FlitData::active_fraction).sum();
        sum / self.payload.len() as f64
    }
}

/// A packet specification produced by a traffic source; the simulator
/// assigns the [`PacketId`] and creation cycle on injection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message class.
    pub class: PacketClass,
    /// Per-flit payloads.
    pub payload: Vec<FlitData>,
}

impl PacketSpec {
    /// Convenience constructor for a single-flit control packet.
    pub fn control(src: NodeId, dst: NodeId, class: PacketClass, num_words: usize) -> Self {
        PacketSpec { src, dst, class, payload: vec![FlitData::with_active_words(num_words, 1)] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_packet(n: usize) -> Packet {
        Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(5),
            class: PacketClass::DataResponse,
            payload: (0..n).map(|_| FlitData::dense(4)).collect(),
            created_at: 10,
        }
    }

    #[test]
    fn class_vc_assignment_matches_paper() {
        assert_eq!(PacketClass::ReadRequest.vc_index(), 0);
        assert_eq!(PacketClass::Invalidate.vc_index(), 0);
        assert_eq!(PacketClass::Ack.vc_index(), 0);
        assert_eq!(PacketClass::DataResponse.vc_index(), 1);
        assert_eq!(PacketClass::WriteBack.vc_index(), 1);
    }

    #[test]
    fn control_vs_data_partition() {
        let control: Vec<_> = PacketClass::ALL.iter().filter(|c| c.is_control()).collect();
        let data: Vec<_> = PacketClass::ALL.iter().filter(|c| c.is_data()).collect();
        assert_eq!(control.len(), 4);
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let f = mk_packet(1).flit(0);
        assert_eq!(f.kind, FlitKind::HeadTail);
        assert!(f.is_head() && f.is_tail());
    }

    #[test]
    fn multi_flit_packet_kinds() {
        let p = mk_packet(5);
        let flits: Vec<_> = (0..p.len_flits()).map(|i| p.flit(i)).collect();
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Body);
        assert_eq!(flits[4].kind, FlitKind::Tail);
        assert!(flits.iter().enumerate().all(|(i, f)| f.seq == i as u32));
        assert!(flits.iter().all(|f| f.packet == p.id && f.created_at == 10 && f.hops == 0));
    }

    #[test]
    #[should_panic(expected = "flit 5 of a 5-flit packet")]
    fn flit_past_the_tail_panics() {
        let _ = mk_packet(5).flit(5);
    }

    #[test]
    fn table_index_is_consistent() {
        for (i, c) in PacketClass::ALL.iter().enumerate() {
            assert_eq!(c.table_index(), i);
        }
    }

    #[test]
    fn active_fraction_averages_flits() {
        let p = Packet {
            id: PacketId(2),
            src: NodeId(0),
            dst: NodeId(1),
            class: PacketClass::DataResponse,
            payload: vec![FlitData::dense(4), FlitData::zeroed(4)],
            created_at: 0,
        };
        assert!((p.active_fraction() - (1.0 + 0.25) / 2.0).abs() < 1e-12);
    }
}
