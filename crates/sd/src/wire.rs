//! Wire format of the SD protocols.
//!
//! A compact line-oriented text codec: one message per packet, fields
//! separated by `|`, list elements by `,`, with percent-escaping for the
//! separator characters. Text keeps captured payloads human-readable in the
//! stored `Packets` table — the paper requires the complete, unaltered
//! content to be recorded, and readable content makes the stored
//! experiments genuinely reusable.
//!
//! Every query carries a `qid` and responses echo it, reproducing the
//! request/response association the authors patched into Avahi (§VI-A).

use crate::model::{ServiceDescription, ServiceType};
use crate::names::{Names, RecordId, StypeId};
use excovery_netsim::NodeId;
use std::sync::Arc;

/// A service record as carried on the wire. Shared: every receiver of a
/// flooded packet reads the one decoded message, and a cache that keeps a
/// record keeps a reference to it instead of a copy.
pub(crate) type Record = Arc<ServiceDescription>;

/// Messages of both SD protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdMessage {
    /// Multicast query for a service type (two-party active discovery).
    /// `known` lists instance names already cached (known-answer
    /// suppression).
    Query {
        /// Query identifier for request/response association.
        qid: u64,
        /// The service type searched for.
        stype: ServiceType,
        /// Instances the querier already knows with fresh TTL.
        known: Vec<String>,
    },
    /// Response to a query (multicast in two-party, unicast from SCM).
    Response {
        /// Identifier of the query being answered; 0 for unsolicited.
        qid: u64,
        /// Matching records.
        records: Vec<Record>,
    },
    /// Unsolicited announcement (also goodbye when TTL is 0).
    Announce {
        /// The announced record.
        record: Record,
    },
    /// SCM presence advertisement (three-party/hybrid).
    ScmAdvert {
        /// The advertising cache manager.
        scm: NodeId,
    },
    /// Registration of a record at an SCM (unicast).
    Register {
        /// Registration id for ack association.
        rid: u64,
        /// The record to register.
        record: Record,
        /// Requested lease in seconds.
        lease_s: u32,
    },
    /// Acknowledgement of a registration.
    RegisterAck {
        /// The acknowledged registration id.
        rid: u64,
    },
    /// Revocation of a registration at an SCM.
    Deregister {
        /// Instance name.
        instance: String,
        /// Service type.
        stype: ServiceType,
    },
    /// Directed query to an SCM (unicast).
    DirectedQuery {
        /// Query identifier.
        qid: u64,
        /// The service type searched for.
        stype: ServiceType,
    },
}

/// A decoded message with the interned ids of the names it carries: the
/// value every receiver of a packet shares.
#[derive(Debug)]
pub(crate) struct Heard {
    /// The message itself.
    pub(crate) msg: SdMessage,
    /// The ids of its records, in order: the records of a response, the
    /// one record of an announcement or registration, the instance a
    /// deregistration names.
    pub(crate) records: Vec<RecordId>,
    /// The searched type of a query or directed query.
    stype: Option<StypeId>,
}

impl Heard {
    /// Decodes a message and interns its names in `names`, all under one
    /// lock; `None` on garbage, as [`SdMessage::decode`].
    pub(crate) fn decode(bytes: &[u8], names: &Names) -> Option<Self> {
        let msg = SdMessage::decode(bytes)?;
        let (records, stype) = names.with(|t| match &msg {
            SdMessage::Query { stype, .. } | SdMessage::DirectedQuery { stype, .. } => {
                (Vec::new(), Some(t.stype(stype)))
            }
            SdMessage::Response { records, .. } => (
                records
                    .iter()
                    .map(|r| t.record(&r.stype, &r.instance))
                    .collect(),
                None,
            ),
            SdMessage::Announce { record } | SdMessage::Register { record, .. } => {
                (vec![t.record(&record.stype, &record.instance)], None)
            }
            SdMessage::Deregister { instance, stype } => (vec![t.record(stype, instance)], None),
            SdMessage::ScmAdvert { .. } | SdMessage::RegisterAck { .. } => (Vec::new(), None),
        });
        Some(Self {
            msg,
            records,
            stype,
        })
    }

    /// The id of the searched type of a query or directed query.
    pub(crate) fn query_type(&self) -> StypeId {
        self.stype.expect("a query is decoded with its type's id")
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            ',' => out.push_str("%2C"),
            ';' => out.push_str("%3B"),
            '=' => out.push_str("%3D"),
            '\n' => out.push_str("%0A"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverts [`esc`]. An escape `esc` never writes (another byte, lower-case
/// hex, a cut-off `%`) makes the field malformed.
fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('%') {
        out.push_str(&rest[..at]);
        out.push(match rest.as_bytes().get(at + 1..at + 3)? {
            b"25" => '%',
            b"7C" => '|',
            b"2C" => ',',
            b"3B" => ';',
            b"3D" => '=',
            b"0A" => '\n',
            _ => return None,
        });
        // The escape is three ASCII bytes, so this is a char boundary.
        rest = &rest[at + 3..];
    }
    out.push_str(rest);
    Some(out)
}

fn encode_record(r: &Record) -> String {
    let attrs = r
        .attributes
        .iter()
        .map(|(k, v)| format!("{}={}", esc(k), esc(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{};{};{};{};{};{}",
        esc(&r.instance),
        esc(&r.stype.0),
        r.provider.0,
        r.service_port,
        r.ttl_s,
        attrs
    )
}

fn decode_record(s: &str) -> Option<Record> {
    decode_description(s).map(Arc::new)
}

fn decode_description(s: &str) -> Option<ServiceDescription> {
    let mut parts = s.splitn(6, ';');
    let instance = unesc(parts.next()?)?;
    let stype = ServiceType::new(unesc(parts.next()?)?);
    let provider = NodeId(parts.next()?.parse().ok()?);
    let service_port = parts.next()?.parse().ok()?;
    let ttl_s = parts.next()?.parse().ok()?;
    let attrs_raw = parts.next().unwrap_or("");
    let mut attributes = Vec::new();
    if !attrs_raw.is_empty() {
        for kv in attrs_raw.split(',') {
            let (k, v) = kv.split_once('=')?;
            attributes.push((unesc(k)?, unesc(v)?));
        }
    }
    Some(ServiceDescription {
        instance,
        stype,
        provider,
        service_port,
        attributes,
        ttl_s,
    })
}

impl SdMessage {
    /// Encodes the message to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let text = match self {
            SdMessage::Query { qid, stype, known } => {
                // Explicit count disambiguates an empty list from a list
                // holding one empty name.
                let joined = known.iter().map(|k| esc(k)).collect::<Vec<_>>().join(",");
                format!("QRY|{qid}|{}|{}|{joined}", esc(&stype.0), known.len())
            }
            SdMessage::Response { qid, records } => {
                let recs = records
                    .iter()
                    .map(encode_record)
                    .collect::<Vec<_>>()
                    .join("\n");
                format!("RSP|{qid}|{recs}")
            }
            SdMessage::Announce { record } => format!("ANN|{}", encode_record(record)),
            SdMessage::ScmAdvert { scm } => format!("ADV|{}", scm.0),
            SdMessage::Register {
                rid,
                record,
                lease_s,
            } => {
                format!("REG|{rid}|{lease_s}|{}", encode_record(record))
            }
            SdMessage::RegisterAck { rid } => format!("ACK|{rid}"),
            SdMessage::Deregister { instance, stype } => {
                format!("DRG|{}|{}", esc(instance), esc(&stype.0))
            }
            SdMessage::DirectedQuery { qid, stype } => {
                format!("DQR|{qid}|{}", esc(&stype.0))
            }
        };
        text.into_bytes()
    }

    /// Decodes a message from payload bytes; `None` on any malformation
    /// (robust parsers drop garbage silently, like real SDP stacks).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        #[cfg(test)]
        tests::DECODES.with(|n| n.set(n.get() + 1));
        let text = std::str::from_utf8(bytes).ok()?;
        let (tag, rest) = text.split_once('|')?;
        match tag {
            "QRY" => {
                let mut p = rest.splitn(4, '|');
                let qid = p.next()?.parse().ok()?;
                let stype = ServiceType::new(unesc(p.next()?)?);
                let count: usize = p.next()?.parse().ok()?;
                let known_raw = p.next().unwrap_or("");
                let known = if count == 0 {
                    Vec::new()
                } else {
                    let known: Vec<String> =
                        known_raw.split(',').map(unesc).collect::<Option<_>>()?;
                    if known.len() != count {
                        return None;
                    }
                    known
                };
                Some(SdMessage::Query { qid, stype, known })
            }
            "RSP" => {
                let (qid_raw, recs_raw) = rest.split_once('|')?;
                let qid = qid_raw.parse().ok()?;
                let records = if recs_raw.is_empty() {
                    Vec::new()
                } else {
                    recs_raw
                        .split('\n')
                        .map(decode_record)
                        .collect::<Option<Vec<_>>>()?
                };
                Some(SdMessage::Response { qid, records })
            }
            "ANN" => Some(SdMessage::Announce {
                record: decode_record(rest)?,
            }),
            "ADV" => Some(SdMessage::ScmAdvert {
                scm: NodeId(rest.parse().ok()?),
            }),
            "REG" => {
                let mut p = rest.splitn(3, '|');
                let rid = p.next()?.parse().ok()?;
                let lease_s = p.next()?.parse().ok()?;
                let record = decode_record(p.next()?)?;
                Some(SdMessage::Register {
                    rid,
                    record,
                    lease_s,
                })
            }
            "ACK" => Some(SdMessage::RegisterAck {
                rid: rest.parse().ok()?,
            }),
            "DRG" => {
                let (inst, st) = rest.split_once('|')?;
                Some(SdMessage::Deregister {
                    instance: unesc(inst)?,
                    stype: ServiceType::new(unesc(st)?),
                })
            }
            "DQR" => {
                let (qid_raw, st) = rest.split_once('|')?;
                Some(SdMessage::DirectedQuery {
                    qid: qid_raw.parse().ok()?,
                    stype: ServiceType::new(unesc(st)?),
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// Calls of [`SdMessage::decode`] on this thread.
        pub(crate) static DECODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn record() -> Record {
        let mut r = ServiceDescription::new(
            "printer, 2nd floor",
            ServiceType::new("_ipp._tcp"),
            NodeId(7),
        );
        r.service_port = 631;
        r.attributes = vec![
            ("paper".into(), "A4|letter".into()),
            ("duplex".into(), "yes".into()),
        ];
        r.ttl_s = 120;
        Arc::new(r)
    }

    fn roundtrip(m: SdMessage) {
        let bytes = m.encode();
        let back = SdMessage::decode(&bytes)
            .unwrap_or_else(|| panic!("decode failed for {:?}", String::from_utf8_lossy(&bytes)));
        assert_eq!(back, m);
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(SdMessage::Query {
            qid: 42,
            stype: ServiceType::new("_http._tcp"),
            known: vec!["web-1".into(), "web,2".into()],
        });
        roundtrip(SdMessage::Query {
            qid: 0,
            stype: ServiceType::new("t"),
            known: vec![],
        });
        roundtrip(SdMessage::Response {
            qid: 42,
            records: vec![record(), record()],
        });
        roundtrip(SdMessage::Response {
            qid: 1,
            records: vec![],
        });
        roundtrip(SdMessage::Announce { record: record() });
        roundtrip(SdMessage::Announce {
            record: Arc::new(record().goodbye()),
        });
        roundtrip(SdMessage::ScmAdvert {
            scm: NodeId(65_000),
        });
        roundtrip(SdMessage::Register {
            rid: 9,
            record: record(),
            lease_s: 60,
        });
        roundtrip(SdMessage::RegisterAck { rid: 9 });
        roundtrip(SdMessage::Deregister {
            instance: "printer, 2nd floor".into(),
            stype: ServiceType::new("_ipp._tcp"),
        });
        roundtrip(SdMessage::DirectedQuery {
            qid: 3,
            stype: ServiceType::new("_x|y._udp"),
        });
    }

    #[test]
    fn record_without_attributes_roundtrips() {
        let mut r = record();
        Arc::make_mut(&mut r).attributes.clear();
        roundtrip(SdMessage::Announce { record: r });
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert_eq!(SdMessage::decode(b""), None);
        assert_eq!(SdMessage::decode(b"HELLO"), None);
        assert_eq!(SdMessage::decode(b"XXX|1|2"), None);
        assert_eq!(SdMessage::decode(b"QRY|notanumber|t|0|"), None);
        assert_eq!(
            SdMessage::decode(b"QRY|1|t|2|onlyone"),
            None,
            "count mismatch"
        );
        assert_eq!(SdMessage::decode(b"ANN|broken"), None);
        assert_eq!(SdMessage::decode(&[0xFF, 0xFE, b'|']), None);
        assert_eq!(SdMessage::decode(b"ACK|"), None);
    }

    #[test]
    fn escaping_handles_separators() {
        assert_eq!(esc("a|b,c;d%e=f"), "a%7Cb%2Cc%3Bd%25e%3Df");
        assert_eq!(unesc("a%7Cb%2Cc%3Bd%25e%3Df").unwrap(), "a|b,c;d%e=f");
        assert_eq!(unesc("%zz"), None, "bad hex digits");
        assert_eq!(unesc("%7"), None, "truncated escape");
        assert_eq!(unesc("%"), None, "bare percent");
    }

    #[test]
    fn only_the_escapes_the_encoder_writes_decode() {
        assert_eq!(unesc("caf\u{e9} %0A").unwrap(), "caf\u{e9} \n");
        assert_eq!(esc("caf\u{e9}\n"), "caf\u{e9}%0A");
        // UTF-8 bytes escaped one by one were never written: no Latin-1
        // "Ã©" out of "%C3%A9".
        assert_eq!(unesc("%C3%A9"), None);
        assert_eq!(unesc("%41"), None, "a byte that needs no escape");
        assert_eq!(unesc("%7c"), None, "lower-case hex");
        assert_eq!(unesc("%2"), None);
    }

    #[test]
    fn qid_is_preserved_for_association() {
        // The whole point of the Avahi modification: responses must carry
        // the query id so request/response pairs can be matched.
        let q = SdMessage::Query {
            qid: 77,
            stype: ServiceType::new("_t"),
            known: vec![],
        };
        let bytes = q.encode();
        let qid = match SdMessage::decode(&bytes).unwrap() {
            SdMessage::Query { qid, .. } => qid,
            _ => unreachable!(),
        };
        let r = SdMessage::Response {
            qid,
            records: vec![],
        };
        match SdMessage::decode(&r.encode()).unwrap() {
            SdMessage::Response { qid, .. } => assert_eq!(qid, 77),
            _ => unreachable!(),
        }
    }
}
