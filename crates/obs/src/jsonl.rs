//! JSONL snapshot exporter: one self-describing JSON object per line.
//!
//! The format is the machine-readable sibling of the Prometheus text
//! exposition — the shape the engine persists into the Level-2 store
//! next to the run journal, and the shape analysis tooling reads back:
//!
//! ```text
//! {"type":"counter","name":"rpc_calls_total","labels":{"transport":"tcp"},"value":7}
//! {"type":"gauge","name":"queue_depth","labels":{},"value":-2}
//! {"type":"histogram","name":"latency_ns","labels":{},"count":3,"sum":1006,"buckets":[[1,2],[9,1]]}
//! {"type":"span","name":"phase:run_init","start_ns":100,"end_ns":150}
//! ```
//!
//! Histogram `buckets` entries are `[bucket_index, count]` pairs; the
//! value range of index `i` is `[2^i, 2^(i+1))` (see
//! [`bucket_upper_bound`](crate::metrics::bucket_upper_bound)).
//!
//! [`render`]/[`parse`] round-trip exactly: `parse(render(s, t)) == (s,
//! t)`. The parser is a deliberately small recursive-descent JSON reader
//! (integers up to `u64`, no floats beyond what `f64` text carries) so
//! the crate stays dependency-free.

use crate::metrics::{HistogramSnapshot, MetricValue, Snapshot};
use crate::span::SpanRecord;
use std::fmt::Write as _;

// ---- rendering -------------------------------------------------------------

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn labels_json(labels: &[(String, String)]) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// Renders a metrics snapshot plus finished spans as JSONL, one object
/// per line, in the snapshot's deterministic order (spans last, in
/// recording order).
pub fn render(snapshot: &Snapshot, spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
            escape_json(&c.name),
            labels_json(&c.labels),
            c.value
        );
    }
    for g in &snapshot.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
            escape_json(&g.name),
            labels_json(&g.labels),
            g.value
        );
    }
    for h in &snapshot.histograms {
        let buckets: Vec<String> = h
            .value
            .buckets
            .iter()
            .map(|(i, n)| format!("[{i},{n}]"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"labels\":{},\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            escape_json(&h.name),
            labels_json(&h.labels),
            h.value.count,
            h.value.sum,
            buckets.join(",")
        );
    }
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            escape_json(&s.name),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

// ---- a minimal JSON value --------------------------------------------------

/// A parsed JSON value — just enough structure for the JSONL lines this
/// module emits, exposed so tooling and tests can inspect snapshots
/// without a JSON dependency.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonVal {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number; stored as `i128` when integral so `u64` counter
    /// values survive exactly.
    Int(i128),
    /// Non-integral numbers.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonVal>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonVal)>),
}

impl JsonVal {
    /// Object field lookup.
    pub(crate) fn get(&self, key: &str) -> Option<&JsonVal> {
        match self {
            JsonVal::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            JsonVal::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonVal, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonVal::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonVal::Bool(true)),
            Some(b'f') => self.literal("false", JsonVal::Bool(false)),
            Some(b'n') => self.literal("null", JsonVal::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, val: JsonVal) -> Result<JsonVal, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(val)
        } else {
            Err(format!("expected {text:?} at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonVal, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>()
                .map(JsonVal::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<i128>()
                .map(JsonVal::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonVal, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonVal::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonVal::Arr(items));
                }
                other => return Err(format!("unexpected {other:?} in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonVal, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonVal::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonVal::Obj(pairs));
                }
                other => return Err(format!("unexpected {other:?} in object")),
            }
        }
    }
}

/// Parses one JSON document (used per JSONL line).
pub(crate) fn parse_value(s: &str) -> Result<JsonVal, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

// ---- parsing back into Snapshot + spans ------------------------------------

fn labels_from(v: &JsonVal) -> Result<Vec<(String, String)>, String> {
    match v {
        JsonVal::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("label {k:?} is not a string"))
            })
            .collect(),
        _ => Err("labels is not an object".into()),
    }
}

fn field<'v>(obj: &'v JsonVal, key: &str) -> Result<&'v JsonVal, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Parses a JSONL document produced by [`render`] back into the
/// snapshot and span list. The exact inverse: `parse(render(s, t)) ==
/// Ok((s, t))`.
pub fn parse(text: &str) -> Result<(Snapshot, Vec<SpanRecord>), String> {
    let mut snapshot = Snapshot::default();
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = parse_value(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = field(&obj, "type")
            .and_then(|v| v.as_str().ok_or_else(|| "type is not a string".into()))
            .map_err(|e| format!("line {}: {e}", lineno + 1))?
            .to_string();
        let res: Result<(), String> = (|| {
            match kind.as_str() {
                "counter" => snapshot.counters.push(MetricValue {
                    name: field(&obj, "name")?
                        .as_str()
                        .ok_or("name not a string")?
                        .into(),
                    labels: labels_from(field(&obj, "labels")?)?,
                    value: field(&obj, "value")?.as_u64().ok_or("value not a u64")?,
                }),
                "gauge" => snapshot.gauges.push(MetricValue {
                    name: field(&obj, "name")?
                        .as_str()
                        .ok_or("name not a string")?
                        .into(),
                    labels: labels_from(field(&obj, "labels")?)?,
                    value: field(&obj, "value")?.as_i64().ok_or("value not an i64")?,
                }),
                "histogram" => {
                    let buckets = match field(&obj, "buckets")? {
                        JsonVal::Arr(items) => items
                            .iter()
                            .map(|pair| match pair {
                                JsonVal::Arr(iv) if iv.len() == 2 => {
                                    let i = iv[0].as_u64().ok_or("bucket index not a u64")?;
                                    let n = iv[1].as_u64().ok_or("bucket count not a u64")?;
                                    Ok((i as usize, n))
                                }
                                _ => Err("bucket entry is not a pair".to_string()),
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                        _ => return Err("buckets is not an array".into()),
                    };
                    snapshot.histograms.push(MetricValue {
                        name: field(&obj, "name")?
                            .as_str()
                            .ok_or("name not a string")?
                            .into(),
                        labels: labels_from(field(&obj, "labels")?)?,
                        value: HistogramSnapshot {
                            count: field(&obj, "count")?.as_u64().ok_or("count not a u64")?,
                            sum: field(&obj, "sum")?.as_u64().ok_or("sum not a u64")?,
                            buckets,
                        },
                    })
                }
                "span" => spans.push(SpanRecord {
                    name: field(&obj, "name")?
                        .as_str()
                        .ok_or("name not a string")?
                        .to_string()
                        .into(),
                    start_ns: field(&obj, "start_ns")?
                        .as_u64()
                        .ok_or("start_ns not a u64")?,
                    end_ns: field(&obj, "end_ns")?.as_u64().ok_or("end_ns not a u64")?,
                }),
                other => return Err(format!("unknown line type {other:?}")),
            }
            Ok(())
        })();
        res.map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    Ok((snapshot, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::Tracer;

    #[test]
    fn render_parse_round_trips_exactly() {
        crate::set_enabled(true);
        let reg = Registry::new();
        reg.counter("rpc_calls_total", &[("transport", "tcp")])
            .add(7);
        reg.counter("rpc_calls_total", &[("transport", "memory")])
            .add(2);
        reg.gauge("queue_depth", &[]).set(-5);
        let h = reg.histogram("latency_ns", &[("phase", "exit")]);
        for v in [1u64, 3, 900, 70_000] {
            h.observe(v);
        }
        let tracer = Tracer::new(8);
        tracer.record_span("phase:run_init", 100, 150);
        tracer.record_event("engine:packaged", 900);

        let snapshot = reg.snapshot();
        let spans = tracer.drain();
        let text = render(&snapshot, &spans);
        let (back_snapshot, back_spans) = parse(&text).unwrap();
        assert_eq!(back_snapshot, snapshot);
        assert_eq!(back_spans, spans);
    }

    #[test]
    fn strings_with_specials_survive() {
        crate::set_enabled(true);
        let reg = Registry::new();
        reg.counter("odd_total", &[("v", "a\"b\\c\nd\te")]).inc();
        let text = render(&reg.snapshot(), &[]);
        let (back, _) = parse(&text).unwrap();
        assert_eq!(back.counters[0].labels[0].1, "a\"b\\c\nd\te");
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = parse("{\"type\":\"counter\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse("{\"type\":\"counter\",\"name\":\"x\",\"labels\":{},\"value\":1}\nnope")
            .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn parse_value_handles_nesting_and_numbers() {
        let v = parse_value("{\"a\":[1,2.5,null,true],\"b\":{\"c\":\"x\"}}").unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &JsonVal::Arr(vec![
                JsonVal::Int(1),
                JsonVal::Float(2.5),
                JsonVal::Null,
                JsonVal::Bool(true)
            ])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        // u64::MAX survives through i128.
        let v = parse_value(&format!("{{\"n\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX));
    }
}
