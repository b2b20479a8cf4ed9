//! Packets exchanged on the simulated experiment network.

use crate::sim::NodeId;
use crate::time::SimTime;
use std::sync::Arc;

/// UDP-style port multiplexing protocols on a node.
///
/// The service-discovery substrate uses well-known ports mirroring reality:
/// 5353 for the mDNS-like SDP, 427 for the directory (SLP-like) SDP.
pub type Port = u16;

/// Globally unique identifier of a packet *transmission*.
///
/// Distinct from the 16-bit tagger id (see [`crate::tagger`]): retransmitted
/// protocol messages get fresh `PacketId`s, mirroring how distinct frames
/// appear on a real medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// Where a packet is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// Routed hop-by-hop along a shortest path to a single node.
    Unicast(NodeId),
    /// Flooded to all reachable nodes subscribed to the port (mDNS-style
    /// mesh-wide multicast, the common SD case in the paper's prototype).
    Multicast,
    /// Flooded to all reachable nodes regardless of subscription.
    Broadcast,
}

/// Opaque application payload.
///
/// Protocol crates serialize their messages into bytes; the simulator never
/// interprets them, matching the paper's requirement that captures contain
/// the "complete and unaltered content" (§IV-A3).
///
/// Backed by an `Arc<[u8]>`: a payload is written once when the protocol
/// serializes its message and then shared immutably by every in-flight copy
/// of the packet (per-hop relays, flood fan-out, capture records). Cloning
/// is a reference-count bump, so the simulator's forwarding path never
/// copies message bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// Creates a payload from bytes.
    pub fn new(bytes: impl Into<Payload>) -> Self {
        bytes.into()
    }

    /// Payload length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload(Arc::from([] as [u8; 0]))
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<&str> for Payload {
    fn from(s: &str) -> Self {
        Payload(Arc::from(s.as_bytes()))
    }
}

impl From<String> for Payload {
    fn from(s: String) -> Self {
        Payload(Arc::from(s.into_bytes()))
    }
}

impl From<&[u8]> for Payload {
    fn from(b: &[u8]) -> Self {
        Payload(Arc::from(b))
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(Arc::from(v))
    }
}

impl From<Arc<[u8]>> for Payload {
    fn from(a: Arc<[u8]>) -> Self {
        Payload(a)
    }
}

/// A packet in flight on the experiment network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique transmission identifier.
    pub id: PacketId,
    /// 16-bit tagger identifier stamped by the sending node (wraps).
    pub tag: u16,
    /// Originating node.
    pub src: NodeId,
    /// Addressing.
    pub dst: Destination,
    /// Destination port (protocol demultiplexer).
    pub port: Port,
    /// Application payload.
    pub payload: Payload,
    /// Total on-air size in bytes (payload + header overhead).
    pub size_bytes: u32,
    /// Reference-clock instant the packet was handed to the network.
    pub sent_at: SimTime,
}

/// Fixed per-packet header overhead (IP + UDP + tag option), in bytes.
pub(crate) const HEADER_OVERHEAD_BYTES: u32 = 32;

impl Packet {
    /// On-air size derived from a payload.
    pub(crate) fn wire_size(payload: &Payload) -> u32 {
        payload.len() as u32 + HEADER_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_adds_header() {
        assert_eq!(
            Packet::wire_size(&Payload::from("abcd")),
            4 + HEADER_OVERHEAD_BYTES
        );
        assert_eq!(
            Packet::wire_size(&Payload::default()),
            HEADER_OVERHEAD_BYTES
        );
    }

    #[test]
    fn payload_conversions() {
        let p: Payload = "hello".into();
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        let q: Payload = vec![1u8, 2, 3].into();
        assert_eq!(q.as_bytes(), &[1, 2, 3]);
    }

    #[test]
    fn payload_clone_shares_storage() {
        let p: Payload = vec![9u8; 64].into();
        let q = p.clone();
        // Both clones view the same allocation: identical pointers.
        assert!(std::ptr::eq(p.as_bytes(), q.as_bytes()));
        assert_eq!(p, q);
    }

    #[test]
    fn destination_equality() {
        assert_eq!(Destination::Multicast, Destination::Multicast);
        assert_ne!(
            Destination::Unicast(NodeId(1)),
            Destination::Unicast(NodeId(2))
        );
    }
}
