//! Level-2 entry codecs: the bytes `execute_run` stages for each run and
//! `package` reads back (paper §IV-F).
//!
//! The two entries every run writes in bulk are binary: packet captures —
//! about 14k per run on a 100-node mesh — as one `captures.bin` entry per
//! node, and the master's event list — a few hundred per run, each with
//! its parameters — as `_master/events.bin`. Integers are little-endian:
//!
//! ```text
//! captures.bin
//! header      4  magic "EXCP"
//!             1  version (1)
//!             4  capture count n
//! n captures  8  local time, ns
//!             2  source id length S, then S bytes of UTF-8 platform id
//!             2  port
//!             1  kind: 0 sent, 1 received, 2 forwarded
//!             4  wire length W >= 2, then W wire bytes:
//!                the 2-byte big-endian tagger id, then the payload
//!
//! events.bin
//! header      4  magic "EXCE"
//!             1  version (1)
//!             4  event count n
//! n events    8  sequence number
//!             8  local time, ns
//!             2  node id length, then that many bytes of UTF-8
//!             2  event name length, then that many bytes of UTF-8
//!             2  parameter count p
//! p params    2  key length, then that many bytes of UTF-8
//!             4  value length, then that many bytes of UTF-8
//! ```
//!
//! An event's run is the record's run, so the entry does not repeat it.
//! The wire bytes are exactly a `Packets.Data` cell, so packaging copies
//! one slice per row, and it builds `Events` rows from string slices of
//! the entry. Decoding checks every length against the entry and returns
//! a typed error — never a panic — for anything else.
//!
//! The small per-run entries (`sync.json`, `start.json`, `outcome.json`,
//! the plugins' `measurements.json`) stay JSON through the in-tree
//! `excovery_store::JsonValue` codec. Every node and entry name of the
//! level-2 layout is a constant here: the run loop writes a record, and
//! packaging and resume read it back, by the same names.

use crate::error::EngineError;
use crate::event_log::RecordedEvent;
use crate::RunOutcome;
use excovery_netsim::capture::{CaptureKind, CaptureRecord};
use excovery_netsim::{NodeId, SimDuration};
use excovery_store::level2::RunRecord;
use excovery_store::JsonValue;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

// The level-2 layout. A run's record holds `_master/{events.bin,
// sync.json, start.json, outcome.json}`, `<node>/{captures.bin,
// node_log.txt}` per managed node, `_plugins/measurements.json` when a
// plugin recorded one and `_obs/summary.jsonl` when obs is on. The
// experiment entries are `master/topology_{before,after}.json` and
// `_obs/snapshot.jsonl`. `package` reads only the names it knows, so the
// `_obs` entries never reach level 3.
pub(crate) const MASTER: &str = "_master";
pub(crate) const EVENTS: &str = "events.bin";
pub(crate) const SYNC: &str = "sync.json";
pub(crate) const START: &str = "start.json";
pub(crate) const OUTCOME: &str = "outcome.json";
pub(crate) const CAPTURES: &str = "captures.bin";
pub(crate) const NODE_LOG: &str = "node_log.txt";
pub(crate) const PLUGINS: &str = "_plugins";
pub(crate) const MEASUREMENTS: &str = "measurements.json";
pub(crate) const OBS: &str = "_obs";
pub(crate) const OBS_SUMMARY: &str = "summary.jsonl";
pub(crate) const OBS_SNAPSHOT: &str = "snapshot.jsonl";
pub(crate) const TOPOLOGY_NODE: &str = "master";
pub(crate) const TOPOLOGIES: [&str; 2] = ["topology_before.json", "topology_after.json"];
/// The JSON entries builds before the binary codecs wrote in place of
/// [`CAPTURES`] and [`EVENTS`].
pub(crate) const LEGACY_CAPTURES: &str = "captures.json";
pub(crate) const LEGACY_EVENTS: &str = "events.json";

const MAGIC: &[u8; 4] = b"EXCP";
const EVENTS_MAGIC: &[u8; 4] = b"EXCE";
const VERSION: u8 = 1;
/// Magic + version + count.
const HEADER_LEN: usize = 4 + 1 + 4;
/// Time + source length + port + kind + wire length + the tag.
const MIN_CAPTURE_LEN: usize = 8 + 2 + 2 + 1 + 4 + 2;
/// Sequence number + time + node length + name length + parameter count.
const MIN_EVENT_LEN: usize = 8 + 8 + 2 + 2 + 2;
/// Key length + value length.
const MIN_PARAM_LEN: usize = 2 + 4;

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

/// One event of an `events.bin` entry, borrowed from it; its parameters
/// are [`Events::iter`]'s second item.
#[derive(Debug)]
pub(crate) struct Event<'a> {
    pub(crate) seq: u64,
    pub(crate) local_time_ns: u64,
    /// Platform id of the node the event occurred on.
    pub(crate) node: &'a str,
    pub(crate) name: &'a str,
    /// This event's slice of [`Events::params`].
    params: Range<usize>,
}

/// The events of an `events.bin` entry, borrowed from it. Every event's
/// parameters sit in one list, so decoding allocates twice per entry, not
/// once per event.
#[derive(Debug)]
pub(crate) struct Events<'a> {
    events: Vec<Event<'a>>,
    params: Vec<(&'a str, &'a str)>,
}

impl<'a> Events<'a> {
    /// The events in recording order, each with its `(key, value)`
    /// parameters.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Event<'a>, &[(&'a str, &'a str)])> {
        self.events
            .iter()
            .map(|e| (e, &self.params[e.params.clone()]))
    }
}

/// Why a binary level-2 entry cannot be written or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EntryError {
    BadMagic,
    UnsupportedVersion(u8),
    /// The entry ends inside the header or a record.
    Truncated,
    /// The entry ends after `found` whole records; the header said more.
    CountMismatch {
        declared: u32,
        found: u32,
    },
    /// Bytes follow the last declared record.
    TrailingBytes(usize),
    UnknownKind {
        capture: u32,
        kind: u8,
    },
    /// A string of record `record` is not UTF-8.
    BadUtf8 {
        record: u32,
    },
    /// Wire bytes too short to hold the 2-byte tag.
    ShortWire {
        capture: u32,
        len: u32,
    },
    /// An event handed to the encoder belongs to another run than the
    /// entry's.
    ForeignRun {
        seq: u64,
        run_id: u64,
    },
    /// A length does not fit its field.
    TooLong(&'static str),
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryError::BadMagic => write!(f, "bad magic"),
            EntryError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            EntryError::Truncated => write!(f, "truncated"),
            EntryError::CountMismatch { declared, found } => {
                write!(f, "header declares {declared} records, entry holds {found}")
            }
            EntryError::TrailingBytes(n) => write!(f, "{n} bytes after the last record"),
            EntryError::UnknownKind { capture, kind } => {
                write!(f, "capture {capture}: unknown kind byte {kind}")
            }
            EntryError::BadUtf8 { record } => write!(f, "record {record}: text is not UTF-8"),
            EntryError::ShortWire { capture, len } => {
                write!(f, "capture {capture}: {len} wire bytes, fewer than the tag")
            }
            EntryError::ForeignRun { seq, run_id } => {
                write!(f, "event {seq} belongs to run {run_id}")
            }
            EntryError::TooLong(what) => write!(f, "{what} exceeds the entry format"),
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

/// A new entry of `capacity` bytes holding the header for `count` records.
fn new_entry(
    magic: &[u8; 4],
    count: usize,
    what: &'static str,
    capacity: usize,
) -> Result<Vec<u8>, EntryError> {
    let count = u32::try_from(count).map_err(|_| EntryError::TooLong(what))?;
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(magic);
    out.push(VERSION);
    out.extend_from_slice(&count.to_le_bytes());
    Ok(out)
}

/// Appends `text` after its length as a `u16`.
fn put_str16(out: &mut Vec<u8>, text: &str, what: &'static str) -> Result<(), EntryError> {
    let len = u16::try_from(text.len()).map_err(|_| EntryError::TooLong(what))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    Ok(())
}

/// Encodes one node's captures of a run; `src_id` names a capture's
/// originating node.
pub(crate) fn encode_captures<'a>(
    records: &[CaptureRecord],
    src_id: impl Fn(NodeId) -> Cow<'a, str>,
) -> Result<Vec<u8>, EntryError> {
    let payload: usize = records.iter().map(|c| c.payload.len()).sum();
    let capacity = HEADER_LEN + records.len() * (MIN_CAPTURE_LEN + 8) + payload;
    let mut out = new_entry(MAGIC, records.len(), "capture count", capacity)?;
    for c in records {
        let wire_len = u32::try_from(2 + c.payload.len())
            .map_err(|_| EntryError::TooLong("capture payload"))?;
        out.extend_from_slice(&c.local_time.as_nanos().to_le_bytes());
        put_str16(&mut out, &src_id(c.src), "source id")?;
        out.extend_from_slice(&c.port.to_le_bytes());
        out.push(kind_byte(c.kind));
        out.extend_from_slice(&wire_len.to_le_bytes());
        out.extend_from_slice(&c.tag.to_be_bytes());
        out.extend_from_slice(&c.payload);
    }
    Ok(out)
}

/// Encodes the events of run `run_id`; an event of another run is an
/// error, because the entry does not store the run.
pub(crate) fn encode_events(events: &[RecordedEvent], run_id: u64) -> Result<Vec<u8>, EntryError> {
    let text: usize = events
        .iter()
        .map(|e| {
            let params: usize = e
                .params
                .iter()
                .map(|(k, v)| MIN_PARAM_LEN + k.len() + v.len())
                .sum();
            MIN_EVENT_LEN + e.node.len() + e.name.len() + params
        })
        .sum();
    let mut out = new_entry(EVENTS_MAGIC, events.len(), "event count", HEADER_LEN + text)?;
    for e in events {
        if e.run_id != run_id {
            return Err(EntryError::ForeignRun {
                seq: e.seq,
                run_id: e.run_id,
            });
        }
        let params =
            u16::try_from(e.params.len()).map_err(|_| EntryError::TooLong("parameter count"))?;
        out.extend_from_slice(&e.seq.to_le_bytes());
        out.extend_from_slice(&e.local_time_ns.to_le_bytes());
        put_str16(&mut out, &e.node, "node id")?;
        put_str16(&mut out, &e.name, "event name")?;
        out.extend_from_slice(&params.to_le_bytes());
        for (key, value) in &e.params {
            put_str16(&mut out, key, "parameter key")?;
            let len =
                u32::try_from(value.len()).map_err(|_| EntryError::TooLong("parameter value"))?;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(value.as_bytes());
        }
    }
    Ok(out)
}

/// Reads fixed-size fields off the front of an entry.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], EntryError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len())
            .ok_or(EntryError::Truncated)?;
        let taken = &self.bytes[self.at..end];
        self.at = end;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], EntryError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn u16(&mut self) -> Result<u16, EntryError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, EntryError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, EntryError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// `len` bytes of UTF-8 text of record `record`.
    fn text(&mut self, len: usize, record: u32) -> Result<&'a str, EntryError> {
        std::str::from_utf8(self.take(len)?).map_err(|_| EntryError::BadUtf8 { record })
    }

    /// Checks the magic and the version; returns the declared count and
    /// a capacity for that many records of at least `min_len` bytes that
    /// the entry can actually hold (the count is read from the entry).
    fn header(&mut self, magic: &[u8; 4], min_len: usize) -> Result<(u32, usize), EntryError> {
        if self.take(magic.len())? != magic {
            return Err(EntryError::BadMagic);
        }
        match self.array::<1>()?[0] {
            VERSION => {}
            other => return Err(EntryError::UnsupportedVersion(other)),
        }
        let declared = self.u32()?;
        let fits = (self.bytes.len() - self.at) / min_len;
        Ok((declared, fits.min(declared as usize)))
    }

    /// Before record `record` of `declared`: the entry must not end here.
    fn more(&self, declared: u32, record: u32) -> Result<(), EntryError> {
        if self.at == self.bytes.len() {
            return Err(EntryError::CountMismatch {
                declared,
                found: record,
            });
        }
        Ok(())
    }

    /// After the last record: nothing may follow.
    fn end(&self) -> Result<(), EntryError> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            n => Err(EntryError::TrailingBytes(n)),
        }
    }
}

/// Decodes a `captures.bin` entry.
pub(crate) fn decode_captures(entry: &[u8]) -> Result<Vec<Capture<'_>>, EntryError> {
    let mut r = Cursor {
        bytes: entry,
        at: 0,
    };
    let (declared, capacity) = r.header(MAGIC, MIN_CAPTURE_LEN)?;
    let mut captures = Vec::with_capacity(capacity);
    for capture in 0..declared {
        r.more(declared, capture)?;
        let local_time_ns = r.u64()?;
        let src_len = r.u16()?;
        let src = r.text(usize::from(src_len), capture)?;
        let port = r.u16()?;
        let kind = match r.array::<1>()?[0] {
            0 => CaptureKind::Sent,
            1 => CaptureKind::Received,
            2 => CaptureKind::Forwarded,
            kind => return Err(EntryError::UnknownKind { capture, kind }),
        };
        let wire_len = r.u32()?;
        let wire = r.take(wire_len as usize)?;
        if wire.len() < 2 {
            return Err(EntryError::ShortWire {
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
    r.end()?;
    Ok(captures)
}

/// Decodes an `events.bin` entry.
pub(crate) fn decode_events(entry: &[u8]) -> Result<Events<'_>, EntryError> {
    let mut r = Cursor {
        bytes: entry,
        at: 0,
    };
    let (declared, capacity) = r.header(EVENTS_MAGIC, MIN_EVENT_LEN)?;
    let mut events = Events {
        events: Vec::with_capacity(capacity),
        params: Vec::new(),
    };
    for event in 0..declared {
        r.more(declared, event)?;
        let seq = r.u64()?;
        let local_time_ns = r.u64()?;
        let node_len = r.u16()?;
        let node = r.text(usize::from(node_len), event)?;
        let name_len = r.u16()?;
        let name = r.text(usize::from(name_len), event)?;
        let first = events.params.len();
        for _ in 0..r.u16()? {
            let key_len = r.u16()?;
            let key = r.text(usize::from(key_len), event)?;
            let value_len = r.u32()?;
            let value = r.text(value_len as usize, event)?;
            events.params.push((key, value));
        }
        events.events.push(Event {
            seq,
            local_time_ns,
            node,
            name,
            params: first..events.params.len(),
        });
    }
    r.end()?;
    Ok(events)
}

/// Renders a `captures.bin` entry as a JSON array with one object per
/// capture: `local_time_ns`, `src` (platform id), `port`, `kind` (`sent`,
/// `received` or `forwarded`), `tag` (the tagger id) and `data` (the
/// payload bytes, the tag split off).
pub fn captures_json(entry: &[u8]) -> Result<String, EngineError> {
    let captures =
        decode_captures(entry).map_err(|e| EngineError::Storage(format!("{CAPTURES}: {e}")))?;
    let doc = JsonValue::Array(
        captures
            .iter()
            .map(|c| {
                // The tagger id stamped by the sending node (§VI-A).
                let tag = u16::from_be_bytes([c.wire[0], c.wire[1]]);
                JsonValue::Object(vec![
                    (
                        "local_time_ns".into(),
                        JsonValue::Int(c.local_time_ns as i64),
                    ),
                    ("src".into(), JsonValue::str(c.src)),
                    ("port".into(), JsonValue::Int(c.port as i64)),
                    ("kind".into(), JsonValue::str(kind_name(c.kind))),
                    ("tag".into(), JsonValue::Int(tag as i64)),
                    ("data".into(), JsonValue::bytes(&c.wire[2..])),
                ])
            })
            .collect(),
    );
    Ok(doc.to_string())
}

/// Renders the `events.bin` entry of run `run_id` as the `events.json`
/// document builds before the binary codec wrote: a JSON array with one
/// object per event — `seq`, `run_id`, `node`, `local_time_ns`, `name` and
/// `params` (an array of `[key, value]` pairs).
pub fn events_json(entry: &[u8], run_id: u64) -> Result<String, EngineError> {
    let events =
        decode_events(entry).map_err(|e| EngineError::Storage(format!("{EVENTS}: {e}")))?;
    let pair =
        |&(k, v): &(&str, &str)| JsonValue::Array(vec![JsonValue::str(k), JsonValue::str(v)]);
    let doc = JsonValue::Array(
        events
            .iter()
            .map(|(e, params)| {
                JsonValue::Object(vec![
                    ("seq".into(), JsonValue::Int(e.seq as i64)),
                    ("run_id".into(), JsonValue::Int(run_id as i64)),
                    ("node".into(), JsonValue::str(e.node)),
                    (
                        "local_time_ns".into(),
                        JsonValue::Int(e.local_time_ns as i64),
                    ),
                    ("name".into(), JsonValue::str(e.name)),
                    (
                        "params".into(),
                        JsonValue::Array(params.iter().map(pair).collect()),
                    ),
                ])
            })
            .collect(),
    );
    Ok(doc.to_string())
}

/// A level-2 entry that cannot be staged or read back, named by run,
/// node and entry.
pub(crate) fn entry_error(
    run_id: u64,
    node: &str,
    name: &str,
    what: impl fmt::Display,
) -> EngineError {
    EngineError::Storage(format!("run {run_id}: {node}/{name}: {what}"))
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
    let fail = |what: &str| entry_error(run_id, node, name, what);
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
                prop_assert_eq!(decode_captures(&longer), Err(EntryError::TrailingBytes(1)));
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

    /// The events of run [`RUN`] as they were before the binary codec:
    /// the tree builds wrote as `events.json`, kept as the oracle
    /// [`events_json`] must match byte for byte.
    fn events_to_json(events: &[RecordedEvent]) -> JsonValue {
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

    const RUN: u64 = 3;

    fn event(seq: u64, node: &str, t: u64, name: &str, params: &[(&str, &str)]) -> RecordedEvent {
        RecordedEvent {
            seq,
            run_id: RUN,
            node: node.into(),
            local_time_ns: t,
            name: name.into(),
            params: params.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
        }
    }

    /// The decoded events as the master recorded them.
    fn owned(events: &Events<'_>) -> Vec<RecordedEvent> {
        events
            .iter()
            .map(|(e, params)| event(e.seq, e.node, e.local_time_ns, e.name, params))
            .collect()
    }

    /// Events of run [`RUN`]: text of any width (empty included), times at
    /// both ends of the range, and no, few or many parameters.
    fn events_strategy(
        events: usize,
        text: &'static str,
        many: usize,
    ) -> impl Strategy<Value = Vec<RecordedEvent>> {
        let params = prop_oneof![
            Just(Vec::new()),
            prop::collection::vec((text, text), 1..4),
            prop::collection::vec((text, text), many..many + 8),
        ];
        let time = prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()];
        prop::collection::vec(
            (any::<u64>(), text, time, text, params).prop_map(|(seq, node, t, name, params)| {
                RecordedEvent {
                    seq,
                    run_id: RUN,
                    node,
                    local_time_ns: t,
                    name,
                    params,
                }
            }),
            0..events,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every event comes back with its fields and its parameters in
        /// order, and the JSON rendering is the `events.json` document.
        #[test]
        fn events_round_trip_and_render_as_the_json_entry(
            events in events_strategy(8, "\\PC{0,12}", 40),
        ) {
            let entry = encode_events(&events, RUN).unwrap();
            let decoded = decode_events(&entry).unwrap();
            prop_assert_eq!(owned(&decoded), events.clone());
            prop_assert_eq!(
                events_json(&entry, RUN).unwrap(),
                events_to_json(&events).to_string()
            );
            for extra in [0u8, 1, 0xff] {
                let mut longer = entry.clone();
                longer.push(extra);
                prop_assert_eq!(decode_events(&longer).err(), Some(EntryError::TrailingBytes(1)));
            }
        }

        /// Every truncation of a small entry is an error; every single-bit
        /// flip is an error or a list that encodes back to the flipped
        /// bytes — never a panic.
        #[test]
        fn damaged_event_entries_are_errors_or_valid_lists(
            events in events_strategy(3, "\\PC{0,3}", 2),
        ) {
            let entry = encode_events(&events, RUN).unwrap();
            for len in 0..entry.len() {
                prop_assert!(decode_events(&entry[..len]).is_err(), "cut at {}", len);
            }
            for bit in 0..entry.len() * 8 {
                let mut flipped = entry.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(decoded) = decode_events(&flipped) {
                    prop_assert_eq!(
                        encode_events(&owned(&decoded), RUN).unwrap(),
                        flipped,
                        "bit {}",
                        bit
                    );
                }
            }
        }
    }

    #[test]
    fn malformed_event_entries_get_their_own_errors() {
        let two = [
            event(7, "master", 1, "run_init", &[("run", "3")]),
            event(8, "t9-105", 2, "sd_service_add", &[]),
        ];
        let entry = encode_events(&two, RUN).unwrap();
        assert_eq!(
            decode_events(b"EXCP\x01\0\0\0\0").err(),
            Some(EntryError::BadMagic)
        );
        assert_eq!(
            decode_events(b"EXCE\x02\0\0\0\0").err(),
            Some(EntryError::UnsupportedVersion(2))
        );
        let mut three = entry.clone();
        three[5] = 3;
        assert_eq!(
            decode_events(&three).err(),
            Some(EntryError::CountMismatch {
                declared: 3,
                found: 2
            })
        );
        // Header 9 + the first event's 8 + 8 + 2 + "master" 6 + 2 +
        // "run_init" 8 + 2 + 2 + "run" 3 + 4 + "3" 1, then the second
        // event's seq 8, time 8 and node length 2.
        let second_node = 9 + 46 + 18;
        let mut utf8 = entry.clone();
        utf8[second_node] = 0xff;
        assert_eq!(
            decode_events(&utf8).err(),
            Some(EntryError::BadUtf8 { record: 1 })
        );
        let mut foreign = two.to_vec();
        foreign[1].run_id = 4;
        assert_eq!(
            encode_events(&foreign, RUN).err(),
            Some(EntryError::ForeignRun { seq: 8, run_id: 4 })
        );
        let long = event(9, &"n".repeat(1 << 16), 0, "e", &[]);
        assert_eq!(
            encode_events(&[long], RUN).err(),
            Some(EntryError::TooLong("node id"))
        );
        let e = events_json(&entry[..entry.len() - 1], RUN).unwrap_err();
        assert!(e.to_string().contains("events.bin: truncated"), "{e}");
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
        assert_eq!(decode_captures(b"EXC"), Err(EntryError::Truncated));
        assert_eq!(
            decode_captures(b"EXCQ\x01\0\0\0\0"),
            Err(EntryError::BadMagic)
        );
        assert_eq!(
            decode_captures(b"EXCP\x02\0\0\0\0"),
            Err(EntryError::UnsupportedVersion(2))
        );
        let mut two = one.clone();
        two[5] = 2;
        assert_eq!(
            decode_captures(&two),
            Err(EntryError::CountMismatch {
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
            Err(EntryError::UnknownKind {
                capture: 0,
                kind: 3
            })
        );
        let mut utf8 = one.clone();
        utf8[9 + 10] = 0xff;
        assert_eq!(
            decode_captures(&utf8),
            Err(EntryError::BadUtf8 { record: 0 })
        );
        let mut short = one[..kind_at + 1].to_vec();
        short.extend_from_slice(&1u32.to_le_bytes());
        short.push(7);
        assert_eq!(
            decode_captures(&short),
            Err(EntryError::ShortWire { capture: 0, len: 1 })
        );
        let mut huge = one[..kind_at + 1].to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_captures(&huge), Err(EntryError::Truncated));
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
