//! Packet captures.
//!
//! Each node records every packet it observes (sent, received or forwarded)
//! with its *local* timestamp and complete content — the raw material of the
//! `Packets` table of the paper's storage schema (Table I) and the basis for
//! deriving statistical connection parameters during later analysis
//! (§IV-B2).

use crate::packet::{Destination, Packet, PacketId, Payload, Port};
use crate::sim::NodeId;
use crate::time::SimTime;

/// How the capturing node observed the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaptureKind {
    /// The node transmitted the packet.
    Sent,
    /// The node received (and consumed) the packet.
    Received,
    /// The node relayed the packet towards another node.
    Forwarded,
}

/// One captured packet observation.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureRecord {
    /// Node that made the observation.
    pub node: NodeId,
    /// Local (drifting) clock reading at observation time.
    pub local_time: SimTime,
    /// Transmission identifier.
    pub packet_id: PacketId,
    /// 16-bit tagger id carried by the packet.
    pub tag: u16,
    /// Originating node of the packet.
    pub src: NodeId,
    /// Addressing of the packet.
    pub dst: Destination,
    /// Destination port.
    pub port: Port,
    /// Complete, unaltered payload. Shares the sender's allocation
    /// ([`Payload`] is `Arc`-backed), so capturing never copies bytes.
    pub payload: Payload,
    /// How the packet was observed.
    pub kind: CaptureKind,
}

impl CaptureRecord {
    /// `node`'s observation of `packet` at its local time `local_time`.
    #[inline]
    pub(crate) fn of(
        node: NodeId,
        local_time: SimTime,
        packet: &Packet,
        kind: CaptureKind,
    ) -> Self {
        Self {
            node,
            local_time,
            packet_id: packet.id,
            tag: packet.tag,
            src: packet.src,
            dst: packet.dst,
            port: packet.port,
            payload: packet.payload.clone(),
            kind,
        }
    }
}

/// Per-node capture buffer — the node's "temporary storage" (§IV-B5).
#[derive(Debug, Clone, Default)]
pub(crate) struct CaptureBuffer {
    records: Vec<CaptureRecord>,
}

impl CaptureBuffer {
    /// Creates an empty buffer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    #[inline]
    pub(crate) fn record(&mut self, rec: CaptureRecord) {
        self.records.push(rec);
    }

    /// All records in observation order.
    pub(crate) fn records(&self) -> &[CaptureRecord] {
        &self.records
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Drains all records (collection phase hands them to the master).
    pub(crate) fn drain(&mut self) -> Vec<CaptureRecord> {
        std::mem::take(&mut self.records)
    }

    /// Drops everything (run preparation: "network packets generated in
    /// previous runs must be dropped on all participants", §IV-C1).
    pub(crate) fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u16, port: Port, kind: CaptureKind) -> CaptureRecord {
        CaptureRecord {
            node: NodeId(node),
            local_time: SimTime::from_nanos(1),
            packet_id: PacketId(7),
            tag: 3,
            src: NodeId(0),
            dst: Destination::Multicast,
            port,
            payload: Payload::from("x"),
            kind,
        }
    }

    #[test]
    fn record_and_read_back() {
        let mut b = CaptureBuffer::new();
        assert_eq!(b.len(), 0);
        b.record(rec(1, 5353, CaptureKind::Sent));
        b.record(rec(1, 427, CaptureKind::Received));
        assert_eq!(b.len(), 2);
        assert_eq!(b.records()[0].kind, CaptureKind::Sent);
    }

    #[test]
    fn drain_empties_buffer() {
        let mut b = CaptureBuffer::new();
        b.record(rec(2, 5353, CaptureKind::Forwarded));
        let drained = b.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut b = CaptureBuffer::new();
        b.record(rec(2, 5353, CaptureKind::Sent));
        b.clear();
        assert_eq!(b.len(), 0);
    }
}
