//! Packets exchanged on the simulated experiment network.

use crate::sim::NodeId;
use crate::time::SimTime;
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

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
///
/// Besides its fields a packet carries a write-once *view slot*: the
/// decoded form of its payload, filled by whichever receiver first calls
/// [`Packet::view`]. A flooded packet is one `Arc<Packet>` that every
/// receiver sees, so the protocol above decodes it once, not once per
/// node. The contract:
///
/// - the slot is opaque to the simulator, which never reads or fills it,
///   and [`PartialEq`] ignores it;
/// - the decode that fills it must be a pure function of the payload
///   bytes, so it does not matter which receiver, or which shard thread,
///   runs it first;
/// - the payload bytes stay as sent: the capture records them unaltered
///   (§IV-A3), whatever the slot holds.
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
    /// The decoded payload (see the type docs).
    view: ViewSlot,
}

/// The write-once slot behind [`Packet::view`]. Equal to every other
/// slot, so packets compare by their fields alone.
#[derive(Clone, Default)]
struct ViewSlot(OnceLock<Arc<dyn Any + Send + Sync>>);

impl PartialEq for ViewSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for ViewSlot {}

impl fmt::Debug for ViewSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "filled"
        } else {
            "empty"
        })
    }
}

/// Fixed per-packet header overhead (IP + UDP + tag option), in bytes.
pub(crate) const HEADER_OVERHEAD_BYTES: u32 = 32;

impl Packet {
    /// A packet as the sending node hands it to the network, its view
    /// slot empty.
    pub(crate) fn new(
        id: PacketId,
        tag: u16,
        src: NodeId,
        dst: Destination,
        port: Port,
        payload: Payload,
        sent_at: SimTime,
    ) -> Self {
        Self {
            id,
            tag,
            src,
            dst,
            port,
            size_bytes: Self::wire_size(&payload),
            payload,
            sent_at,
            view: ViewSlot::default(),
        }
    }

    /// On-air size derived from a payload.
    pub(crate) fn wire_size(payload: &Payload) -> u32 {
        payload.len() as u32 + HEADER_OVERHEAD_BYTES
    }

    /// The payload decoded as a `T`, shared by every holder of this
    /// packet. The first call runs `decode` on the payload bytes and keeps
    /// its result; later calls return that result without decoding again.
    /// `None` when the slot already holds a value of another type: the
    /// caller then decodes a local copy itself.
    ///
    /// `decode` must be pure (see the type docs): concurrent first calls
    /// run it once, and the others wait for that result.
    pub fn view<T: Any + Send + Sync>(&self, decode: impl FnOnce(&[u8]) -> T) -> Option<&T> {
        self.view
            .0
            .get_or_init(|| Arc::new(decode(self.payload.as_bytes())))
            .downcast_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn packet(payload: &str) -> Packet {
        Packet::new(
            PacketId(1),
            7,
            NodeId(0),
            Destination::Multicast,
            5353,
            Payload::from(payload),
            SimTime::ZERO,
        )
    }

    #[test]
    fn receivers_of_one_packet_decode_it_once() {
        const RECEIVERS: usize = 8;
        let shared = Arc::new(packet("42"));
        let decodes = AtomicUsize::new(0);
        let decode = |bytes: &[u8]| {
            decodes.fetch_add(1, Ordering::Relaxed);
            std::str::from_utf8(bytes).ok()?.parse::<u32>().ok()
        };
        // Half the receivers race from their own threads, as shards do.
        std::thread::scope(|scope| {
            for _ in 0..RECEIVERS / 2 {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    assert_eq!(shared.view(decode), Some(&Some(42)));
                });
            }
            for _ in 0..RECEIVERS / 2 {
                assert_eq!(shared.view(decode), Some(&Some(42)));
            }
        });
        assert_eq!(decodes.load(Ordering::Relaxed), 1);
        // A clone carries the filled slot along.
        let copy = (*shared).clone();
        assert_eq!(copy.view(decode), Some(&Some(42)));
        assert_eq!(decodes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn garbage_decodes_to_nothing_once() {
        let garbage = packet("not a number");
        let decodes = AtomicUsize::new(0);
        let decode = |bytes: &[u8]| {
            decodes.fetch_add(1, Ordering::Relaxed);
            std::str::from_utf8(bytes).ok()?.parse::<u32>().ok()
        };
        for _ in 0..3 {
            assert_eq!(garbage.view(decode), Some(&None));
        }
        assert_eq!(decodes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_slot_of_another_type_is_left_alone() {
        let p = packet("42");
        assert_eq!(p.view(|b| b.len()), Some(&2));
        assert_eq!(
            p.view::<String>(|_| unreachable!("the slot is already filled")),
            None
        );
        assert_eq!(p.view(|_| 0usize), Some(&2), "first fill stays");
        assert_eq!(p.payload.as_bytes(), b"42", "bytes unaltered");
    }

    #[test]
    fn equality_ignores_the_view_slot() {
        let (a, b) = (packet("42"), packet("42"));
        a.view(|bytes| bytes.to_vec());
        assert_eq!(a, b);
        assert_ne!(a, packet("43"));
    }

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
