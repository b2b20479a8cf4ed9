//! Property tests for the SD wire codec: every message round-trips, and
//! arbitrary bytes, cut-off encodings and flipped bytes never panic the
//! decoder.

use excovery_netsim::NodeId;
use excovery_sd::SdMessage;
use excovery_sd::{ServiceDescription, ServiceType};
use proptest::prelude::*;
use std::sync::Arc;

fn text() -> impl Strategy<Value = String> {
    // Printable ASCII, which holds the codec's separators and `%`, plus a
    // newline and two-, three- and four-byte UTF-8.
    "[ -~\n%¡-ÿΑ-Ρ一-丿😀-🙏]{0,20}"
}

fn record_strategy() -> impl Strategy<Value = Arc<ServiceDescription>> {
    (
        text(),
        text(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        prop::collection::vec((text(), text()), 0..4),
    )
        .prop_map(|(instance, stype, node, port, ttl, attributes)| {
            Arc::new(ServiceDescription {
                instance,
                stype: ServiceType::new(stype),
                provider: NodeId(node),
                service_port: port,
                attributes,
                ttl_s: ttl,
            })
        })
}

fn message_strategy() -> impl Strategy<Value = SdMessage> {
    prop_oneof![
        (any::<u64>(), text(), prop::collection::vec(text(), 0..4)).prop_map(
            |(qid, stype, known)| SdMessage::Query {
                qid,
                stype: ServiceType::new(stype),
                known
            }
        ),
        (any::<u64>(), prop::collection::vec(record_strategy(), 0..4))
            .prop_map(|(qid, records)| SdMessage::Response { qid, records }),
        record_strategy().prop_map(|record| SdMessage::Announce { record }),
        any::<u16>().prop_map(|n| SdMessage::ScmAdvert { scm: NodeId(n) }),
        (any::<u64>(), record_strategy(), any::<u32>()).prop_map(|(rid, record, lease_s)| {
            SdMessage::Register {
                rid,
                record,
                lease_s,
            }
        }),
        any::<u64>().prop_map(|rid| SdMessage::RegisterAck { rid }),
        (text(), text()).prop_map(|(instance, stype)| SdMessage::Deregister {
            instance,
            stype: ServiceType::new(stype),
        }),
        (any::<u64>(), text()).prop_map(|(qid, stype)| SdMessage::DirectedQuery {
            qid,
            stype: ServiceType::new(stype),
        }),
    ]
}

proptest! {
    /// Encode → decode is the identity for every message shape, including
    /// payloads full of separator characters.
    #[test]
    fn roundtrip(msg in message_strategy()) {
        let bytes = msg.encode();
        let back = SdMessage::decode(&bytes);
        prop_assert_eq!(back, Some(msg));
    }

    /// The decoder is total: arbitrary bytes return None or Some, never
    /// panic (robustness against corrupted packets).
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = SdMessage::decode(&bytes);
    }

    /// Every strict prefix of a valid encoding decodes without panicking,
    /// however it cuts a field, an escape or a multi-byte character.
    #[test]
    fn prefixes_never_panic(msg in message_strategy()) {
        let bytes = msg.encode();
        for end in 0..bytes.len() {
            let _ = SdMessage::decode(&bytes[..end]);
        }
    }

    /// Mutating one byte of a valid encoding never panics either.
    #[test]
    fn bitflip_robustness(msg in message_strategy(), pos in any::<prop::sample::Index>(), flip in 1u8..255) {
        let mut bytes = msg.encode();
        if !bytes.is_empty() {
            let i = pos.index(bytes.len());
            bytes[i] ^= flip;
            let _ = SdMessage::decode(&bytes);
        }
    }
}
