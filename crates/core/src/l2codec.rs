//! Level-2 entry codecs: the bytes `execute_run` stages for each run and
//! `package` reads back (paper §IV-F).
//!
//! Packet captures are the bulk of every run — about 14k per run on a
//! 100-node mesh against a few hundred events — so they are binary: one
//! `captures.bin` entry per node. Integers are little-endian:
//!
//! ```text
//! header      4  magic "EXCP"
//!             1  version (1)
//!             4  capture count n
//! n captures  8  local time, ns
//!             2  source id length S, then S bytes of UTF-8 platform id
//!             2  port
//!             1  kind: 0 sent, 1 received, 2 forwarded
//!             4  wire length W >= 2, then W wire bytes:
//!                the 2-byte big-endian tagger id, then the payload
//! ```
//!
//! The wire bytes are exactly a `Packets.Data` cell, so packaging copies
//! one slice per row. Decoding checks every length against the entry and
//! returns a typed error — never a panic — for anything else.
//!
//! The small per-run entries (`events.json`, `sync.json`, `start.json`,
//! `outcome.json`, the plugins' `measurements.json`) stay JSON through the
//! in-tree `excovery_store::JsonValue` codec.

use crate::error::EngineError;
use crate::event_log::RecordedEvent;
use crate::master::RunOutcome;
use excovery_netsim::capture::{CaptureKind, CaptureRecord};
use excovery_netsim::{NodeId, SimDuration};
use excovery_store::level2::RunRecord;
use excovery_store::JsonValue;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Level-2 entry name of a node's packet captures for one run.
pub(crate) const CAPTURES: &str = "captures.bin";
/// The JSON entry builds before the binary codec wrote in its place.
pub(crate) const LEGACY_CAPTURES: &str = "captures.json";

const MAGIC: &[u8; 4] = b"EXCP";
const VERSION: u8 = 1;
/// Time + source length + port + kind + wire length + the tag.
const MIN_CAPTURE_LEN: usize = 8 + 2 + 2 + 1 + 4 + 2;

/// Per-node packet capture in the JSON shape `excovery l2 … --json`
/// prints.
#[derive(Debug, Clone)]
struct CaptureSer {
    local_time_ns: u64,
    src: String,
    port: u16,
    kind: String,
    /// 16-bit tagger id stamped by the sending node (§VI-A).
    tag: u16,
    data: Vec<u8>,
}

/// One capture of a `captures.bin` entry, borrowed from it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Capture<'a> {
    pub(crate) local_time_ns: u64,
    /// Platform id of the originating node.
    pub(crate) src: &'a str,
    pub(crate) port: u16,
    pub(crate) kind: CaptureKind,
    /// The tag (big-endian) followed by the payload: a `Packets.Data` cell.
    pub(crate) wire: &'a [u8],
}

/// Why a `captures.bin` entry cannot be written or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CaptureError {
    BadMagic,
    UnsupportedVersion(u8),
    /// The entry ends inside the header or a capture.
    Truncated,
    /// The entry ends after `found` whole captures; the header said more.
    CountMismatch {
        declared: u32,
        found: u32,
    },
    /// Bytes follow the last declared capture.
    TrailingBytes(usize),
    UnknownKind {
        capture: u32,
        kind: u8,
    },
    BadUtf8 {
        capture: u32,
    },
    /// Wire bytes too short to hold the 2-byte tag.
    ShortWire {
        capture: u32,
        len: u32,
    },
    /// A length does not fit its field.
    TooLong(&'static str),
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::BadMagic => write!(f, "bad magic"),
            CaptureError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CaptureError::Truncated => write!(f, "truncated"),
            CaptureError::CountMismatch { declared, found } => {
                write!(
                    f,
                    "header declares {declared} captures, entry holds {found}"
                )
            }
            CaptureError::TrailingBytes(n) => write!(f, "{n} bytes after the last capture"),
            CaptureError::UnknownKind { capture, kind } => {
                write!(f, "capture {capture}: unknown kind byte {kind}")
            }
            CaptureError::BadUtf8 { capture } => {
                write!(f, "capture {capture}: source id is not UTF-8")
            }
            CaptureError::ShortWire { capture, len } => {
                write!(f, "capture {capture}: {len} wire bytes, fewer than the tag")
            }
            CaptureError::TooLong(what) => write!(f, "{what} exceeds the entry format"),
        }
    }
}

fn kind_byte(kind: CaptureKind) -> u8 {
    match kind {
        CaptureKind::Sent => 0,
        CaptureKind::Received => 1,
        CaptureKind::Forwarded => 2,
    }
}

fn kind_name(kind: CaptureKind) -> &'static str {
    match kind {
        CaptureKind::Sent => "sent",
        CaptureKind::Received => "received",
        CaptureKind::Forwarded => "forwarded",
    }
}

/// Encodes one node's captures of a run; `src_id` names a capture's
/// originating node.
pub(crate) fn encode_captures<'a>(
    records: &[CaptureRecord],
    src_id: impl Fn(NodeId) -> Cow<'a, str>,
) -> Result<Vec<u8>, CaptureError> {
    let count = u32::try_from(records.len()).map_err(|_| CaptureError::TooLong("capture count"))?;
    let payload: usize = records.iter().map(|c| c.payload.len()).sum();
    let mut out = Vec::with_capacity(9 + records.len() * (MIN_CAPTURE_LEN + 8) + payload);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&count.to_le_bytes());
    for c in records {
        let src = src_id(c.src);
        let src_len = u16::try_from(src.len()).map_err(|_| CaptureError::TooLong("source id"))?;
        let wire_len = u32::try_from(2 + c.payload.len())
            .map_err(|_| CaptureError::TooLong("capture payload"))?;
        out.extend_from_slice(&c.local_time.as_nanos().to_le_bytes());
        out.extend_from_slice(&src_len.to_le_bytes());
        out.extend_from_slice(src.as_bytes());
        out.extend_from_slice(&c.port.to_le_bytes());
        out.push(kind_byte(c.kind));
        out.extend_from_slice(&wire_len.to_le_bytes());
        out.extend_from_slice(&c.tag.to_be_bytes());
        out.extend_from_slice(&c.payload);
    }
    Ok(out)
}

/// Reads fixed-size fields off the front of an entry.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CaptureError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len())
            .ok_or(CaptureError::Truncated)?;
        let taken = &self.bytes[self.at..end];
        self.at = end;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CaptureError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }
}

/// Decodes a `captures.bin` entry.
pub(crate) fn decode_captures(entry: &[u8]) -> Result<Vec<Capture<'_>>, CaptureError> {
    let mut r = Cursor {
        bytes: entry,
        at: 0,
    };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CaptureError::BadMagic);
    }
    match r.array::<1>()?[0] {
        VERSION => {}
        other => return Err(CaptureError::UnsupportedVersion(other)),
    }
    let declared = u32::from_le_bytes(r.array()?);
    // The count is read from the entry: bound the allocation by what the
    // entry can hold.
    let fits = (entry.len() - r.at) / MIN_CAPTURE_LEN;
    let mut captures = Vec::with_capacity(fits.min(declared as usize));
    for capture in 0..declared {
        if r.at == entry.len() {
            return Err(CaptureError::CountMismatch {
                declared,
                found: capture,
            });
        }
        let local_time_ns = u64::from_le_bytes(r.array()?);
        let src_len = u16::from_le_bytes(r.array()?);
        let src = std::str::from_utf8(r.take(usize::from(src_len))?)
            .map_err(|_| CaptureError::BadUtf8 { capture })?;
        let port = u16::from_le_bytes(r.array()?);
        let kind = match r.array::<1>()?[0] {
            0 => CaptureKind::Sent,
            1 => CaptureKind::Received,
            2 => CaptureKind::Forwarded,
            kind => return Err(CaptureError::UnknownKind { capture, kind }),
        };
        let wire_len = u32::from_le_bytes(r.array()?);
        let wire = r.take(wire_len as usize)?;
        if wire.len() < 2 {
            return Err(CaptureError::ShortWire {
                capture,
                len: wire_len,
            });
        }
        captures.push(Capture {
            local_time_ns,
            src,
            port,
            kind,
            wire,
        });
    }
    match entry.len() - r.at {
        0 => Ok(captures),
        n => Err(CaptureError::TrailingBytes(n)),
    }
}

/// Renders a `captures.bin` entry as a JSON array with one object per
/// capture: `local_time_ns`, `src` (platform id), `port`, `kind` (`sent`,
/// `received` or `forwarded`), `tag` (the tagger id) and `data` (the
/// payload bytes, the tag split off).
pub fn captures_json(entry: &[u8]) -> Result<String, EngineError> {
    let captures =
        decode_captures(entry).map_err(|e| EngineError::Storage(format!("{CAPTURES}: {e}")))?;
    let ser: Vec<CaptureSer> = captures
        .iter()
        .map(|c| CaptureSer {
            local_time_ns: c.local_time_ns,
            src: c.src.to_string(),
            port: c.port,
            kind: kind_name(c.kind).to_string(),
            tag: u16::from_be_bytes([c.wire[0], c.wire[1]]),
            data: c.wire[2..].to_vec(),
        })
        .collect();
    Ok(captures_to_json(&ser).to_string())
}

/// The JSON entry `name` of `node` in a sealed run, decoded by `from`.
/// A missing entry, bytes that are not JSON and JSON of the wrong shape
/// are each a storage error naming the run and the entry.
pub(crate) fn read_json<T>(
    record: &RunRecord,
    run_id: u64,
    node: &str,
    name: &str,
    from: impl FnOnce(&JsonValue) -> Option<T>,
) -> Result<T, EngineError> {
    let fail = |what: &str| EngineError::Storage(format!("run {run_id}: {node}/{name}: {what}"));
    let raw = record.get(node, name).ok_or_else(|| fail("missing"))?;
    let text = std::str::from_utf8(raw).map_err(|_| fail("not UTF-8"))?;
    let json = JsonValue::parse(text).map_err(|e| fail(&format!("not JSON: {e}")))?;
    from(&json).ok_or_else(|| fail("unexpected shape"))
}

// ---- level-2 JSON codecs -------------------------------------------------
//
// Intermediate level-2 artifacts are written and re-read through the
// self-contained `excovery_store::JsonValue` codec so packaging (and
// crash-resume, which replays packaging over a prior tree) has no
// dependency on an external serializer.

pub(crate) fn events_to_json(events: &[RecordedEvent]) -> JsonValue {
    JsonValue::Array(
        events
            .iter()
            .map(|e| {
                JsonValue::Object(vec![
                    ("seq".into(), JsonValue::Int(e.seq as i64)),
                    ("run_id".into(), JsonValue::Int(e.run_id as i64)),
                    ("node".into(), JsonValue::str(&e.node)),
                    (
                        "local_time_ns".into(),
                        JsonValue::Int(e.local_time_ns as i64),
                    ),
                    ("name".into(), JsonValue::str(&e.name)),
                    (
                        "params".into(),
                        JsonValue::Array(
                            e.params
                                .iter()
                                .map(|(k, v)| {
                                    JsonValue::Array(vec![JsonValue::str(k), JsonValue::str(v)])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

pub(crate) fn events_from_json(v: &JsonValue) -> Option<Vec<RecordedEvent>> {
    v.as_array()?
        .iter()
        .map(|e| {
            Some(RecordedEvent {
                seq: e.get("seq")?.as_u64()?,
                run_id: e.get("run_id")?.as_u64()?,
                node: e.get("node")?.as_str()?.to_string(),
                local_time_ns: e.get("local_time_ns")?.as_u64()?,
                name: e.get("name")?.as_str()?.to_string(),
                params: e
                    .get("params")?
                    .as_array()?
                    .iter()
                    .map(|p| {
                        let pair = p.as_array()?;
                        Some((
                            pair.first()?.as_str()?.to_string(),
                            pair.get(1)?.as_str()?.to_string(),
                        ))
                    })
                    .collect::<Option<Vec<_>>>()?,
            })
        })
        .collect()
}

pub(crate) fn sync_to_json(offsets: &HashMap<String, i64>) -> JsonValue {
    let mut pairs: Vec<(String, JsonValue)> = offsets
        .iter()
        .map(|(pid, off)| (pid.clone(), JsonValue::Int(*off)))
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    JsonValue::Object(pairs)
}

pub(crate) fn sync_from_json(v: &JsonValue) -> Option<HashMap<String, i64>> {
    v.as_object()?
        .iter()
        .map(|(pid, off)| Some((pid.clone(), off.as_i64()?)))
        .collect()
}

pub(crate) fn measurements_to_json(ms: &[(String, String, Vec<u8>)]) -> JsonValue {
    JsonValue::Array(
        ms.iter()
            .map(|(node, name, content)| {
                JsonValue::Array(vec![
                    JsonValue::str(node),
                    JsonValue::str(name),
                    JsonValue::bytes(content),
                ])
            })
            .collect(),
    )
}

pub(crate) fn measurements_from_json(v: &JsonValue) -> Option<Vec<(String, String, Vec<u8>)>> {
    v.as_array()?
        .iter()
        .map(|m| {
            let triple = m.as_array()?;
            Some((
                triple.first()?.as_str()?.to_string(),
                triple.get(1)?.as_str()?.to_string(),
                triple.get(2)?.to_bytes()?,
            ))
        })
        .collect()
}

/// Serialized form of a [`RunOutcome`] as journalled to level 2 (entry
/// `_master`/`outcome.json` of the run's sealed record), so a resumed
/// master can restore the summaries of runs it never executed and
/// [`crate::ExperimentOutcome::digest`] stays crash-invariant.
pub(crate) fn outcome_to_json(o: &RunOutcome) -> JsonValue {
    JsonValue::Object(vec![
        ("run_id".into(), JsonValue::Int(o.run_id as i64)),
        ("replicate".into(), JsonValue::Int(o.replicate as i64)),
        ("treatment_key".into(), JsonValue::str(&o.treatment_key)),
        ("completed".into(), JsonValue::Bool(o.completed)),
        (
            "failures".into(),
            JsonValue::Array(o.failures.iter().map(JsonValue::str).collect()),
        ),
        ("events".into(), JsonValue::Int(o.events as i64)),
        ("packets".into(), JsonValue::Int(o.packets as i64)),
        (
            "duration_ns".into(),
            JsonValue::Int(o.duration.as_nanos() as i64),
        ),
    ])
}

pub(crate) fn outcome_from_json(v: &JsonValue) -> Option<RunOutcome> {
    Some(RunOutcome {
        run_id: v.get("run_id")?.as_u64()?,
        replicate: v.get("replicate")?.as_u64()?,
        treatment_key: v.get("treatment_key")?.as_str()?.to_string(),
        completed: v.get("completed")?.as_bool()?,
        failures: v
            .get("failures")?
            .as_array()?
            .iter()
            .map(|f| Some(f.as_str()?.to_string()))
            .collect::<Option<Vec<_>>>()?,
        events: v.get("events")?.as_u64()? as usize,
        packets: v.get("packets")?.as_u64()? as usize,
        duration: SimDuration::from_nanos(v.get("duration_ns")?.as_u64()?),
    })
}

fn captures_to_json(captures: &[CaptureSer]) -> JsonValue {
    JsonValue::Array(
        captures
            .iter()
            .map(|c| {
                JsonValue::Object(vec![
                    (
                        "local_time_ns".into(),
                        JsonValue::Int(c.local_time_ns as i64),
                    ),
                    ("src".into(), JsonValue::str(&c.src)),
                    ("port".into(), JsonValue::Int(c.port as i64)),
                    ("kind".into(), JsonValue::str(&c.kind)),
                    ("tag".into(), JsonValue::Int(c.tag as i64)),
                    ("data".into(), JsonValue::bytes(&c.data)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_netsim::packet::{Destination, PacketId, Payload};
    use excovery_netsim::SimTime;
    use proptest::prelude::*;

    fn record(t: u64, src: u16, port: u16, kind: u8, tag: u16, payload: Vec<u8>) -> CaptureRecord {
        CaptureRecord {
            node: NodeId(0),
            local_time: SimTime::from_nanos(t),
            packet_id: PacketId(0),
            tag,
            src: NodeId(src),
            dst: Destination::Multicast,
            port,
            payload: Payload::new(payload),
            kind: [
                CaptureKind::Sent,
                CaptureKind::Received,
                CaptureKind::Forwarded,
            ][usize::from(kind % 3)],
        }
    }

    fn name(node: NodeId) -> Cow<'static, str> {
        match node.0 {
            0 => Cow::Borrowed(""),
            1 => Cow::Borrowed("t9-ä05"),
            n => Cow::Owned(format!("t9-{n}")),
        }
    }

    fn records_strategy() -> impl Strategy<Value = Vec<CaptureRecord>> {
        prop::collection::vec(
            (
                any::<u64>(),
                0u16..5,
                any::<u16>(),
                any::<u8>(),
                any::<u16>(),
                prop::collection::vec(any::<u8>(), 0..24),
            )
                .prop_map(|(t, src, port, kind, tag, payload)| {
                    record(t, src, port, kind, tag, payload)
                }),
            0..8,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every field comes back, the wire bytes being the tag then the
        /// payload; every truncation and every appended byte is an error.
        #[test]
        fn captures_round_trip_and_damage_is_an_error(records in records_strategy()) {
            let entry = encode_captures(&records, name).unwrap();
            let decoded = decode_captures(&entry).unwrap();
            prop_assert_eq!(decoded.len(), records.len());
            for (c, r) in decoded.iter().zip(&records) {
                prop_assert_eq!(c.local_time_ns, r.local_time.as_nanos());
                prop_assert_eq!(c.src, &*name(r.src));
                prop_assert_eq!(c.port, r.port);
                prop_assert_eq!(c.kind, r.kind);
                prop_assert_eq!(&c.wire[..2], &r.tag.to_be_bytes()[..]);
                prop_assert_eq!(&c.wire[2..], r.payload.as_bytes());
            }
            for len in 0..entry.len() {
                prop_assert!(decode_captures(&entry[..len]).is_err(), "cut at {}", len);
            }
            for extra in [0u8, 1, 0xff] {
                let mut longer = entry.clone();
                longer.push(extra);
                prop_assert_eq!(decode_captures(&longer), Err(CaptureError::TrailingBytes(1)));
            }
        }

        /// Arbitrary bytes, with and without a valid header in front, decode
        /// to a result — never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            body in prop::collection::vec(any::<u8>(), 0..64),
            count in 0u32..4,
            header in any::<bool>(),
        ) {
            let mut entry = Vec::new();
            if header {
                entry.extend_from_slice(MAGIC);
                entry.push(VERSION);
                entry.extend_from_slice(&count.to_le_bytes());
            }
            entry.extend_from_slice(&body);
            let _ = decode_captures(&entry);
        }
    }

    #[test]
    fn ten_thousand_arbitrary_entries_never_panic() {
        // A deterministic byte stream (splitmix64) cut into entries that
        // start with a valid header half of the time.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut decoded = 0;
        for i in 0..10_000 {
            let len = (next() % 96) as usize;
            let mut entry: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if i % 2 == 0 {
                let mut header = MAGIC.to_vec();
                header.push(VERSION);
                header.extend_from_slice(&((next() % 3) as u32).to_le_bytes());
                entry.splice(0..0, header);
            }
            decoded += usize::from(decode_captures(&entry).is_ok());
        }
        assert!(decoded > 0, "some entries hold zero captures and decode");
    }

    #[test]
    fn malformed_entries_get_their_own_errors() {
        let one = encode_captures(&[record(5, 2, 53, 1, 0x0102, vec![9])], name).unwrap();
        assert_eq!(decode_captures(b"EXC"), Err(CaptureError::Truncated));
        assert_eq!(
            decode_captures(b"EXCQ\x01\0\0\0\0"),
            Err(CaptureError::BadMagic)
        );
        assert_eq!(
            decode_captures(b"EXCP\x02\0\0\0\0"),
            Err(CaptureError::UnsupportedVersion(2))
        );
        let mut two = one.clone();
        two[5] = 2;
        assert_eq!(
            decode_captures(&two),
            Err(CaptureError::CountMismatch {
                declared: 2,
                found: 1
            })
        );
        // time 8 + src length 2 + "t9-2" 4 + port 2 = 16 bytes past the header.
        let kind_at = 9 + 16;
        let mut kind = one.clone();
        kind[kind_at] = 3;
        assert_eq!(
            decode_captures(&kind),
            Err(CaptureError::UnknownKind {
                capture: 0,
                kind: 3
            })
        );
        let mut utf8 = one.clone();
        utf8[9 + 10] = 0xff;
        assert_eq!(
            decode_captures(&utf8),
            Err(CaptureError::BadUtf8 { capture: 0 })
        );
        let mut short = one[..kind_at + 1].to_vec();
        short.extend_from_slice(&1u32.to_le_bytes());
        short.push(7);
        assert_eq!(
            decode_captures(&short),
            Err(CaptureError::ShortWire { capture: 0, len: 1 })
        );
        let mut huge = one[..kind_at + 1].to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_captures(&huge), Err(CaptureError::Truncated));
    }

    #[test]
    fn json_rendering_splits_the_tag_off() {
        let entry = encode_captures(
            &[
                record(7, 1, 5353, 0, 0xbeef, vec![1, 2]),
                record(9, 3, 80, 2, 1, vec![]),
            ],
            name,
        )
        .unwrap();
        assert_eq!(
            captures_json(&entry).unwrap(),
            "[{\"local_time_ns\":7,\"src\":\"t9-ä05\",\"port\":5353,\"kind\":\"sent\",\
             \"tag\":48879,\"data\":[1,2]},\
             {\"local_time_ns\":9,\"src\":\"t9-3\",\"port\":80,\"kind\":\"forwarded\",\
             \"tag\":1,\"data\":[]}]"
        );
        let e = captures_json(&entry[..entry.len() - 1]).unwrap_err();
        assert!(e.to_string().contains("captures.bin: truncated"), "{e}");
    }
}
