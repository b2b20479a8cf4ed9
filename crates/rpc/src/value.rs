//! XML-RPC values (<http://xmlrpc.scripting.com/spec.html>).
//!
//! All six scalar types plus `<array>` and `<struct>` are supported; the
//! untyped-`<value>`-is-a-string rule of the spec is honoured when
//! decoding.

use excovery_xml::{Element, XmlError};

/// An XML-RPC value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `<i4>`/`<int>`.
    Int(i32),
    /// `<boolean>` (0 or 1 on the wire).
    Bool(bool),
    /// `<string>` (or untyped value).
    String(String),
    /// `<double>`.
    Double(f64),
    /// `<dateTime.iso8601>`, kept as the raw ISO-8601 text.
    DateTime(String),
    /// `<base64>`, decoded to raw bytes.
    Base64(Vec<u8>),
    /// `<array>`.
    Array(Vec<Value>),
    /// `<struct>`; member order preserved.
    Struct(Vec<(String, Value)>),
}

impl Value {
    /// Convenience: string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::String(s.into())
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Double view (ints widen).
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(f64::from(*i)),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Struct member lookup.
    pub fn member(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct(m) => m.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Encodes into a `<value>` element.
    pub(crate) fn to_element(&self) -> Element {
        let mut value = Element::new("value");
        let inner = match self {
            Value::Int(v) => Element::with_text("int", v.to_string()),
            Value::Bool(b) => Element::with_text("boolean", if *b { "1" } else { "0" }),
            Value::String(s) => Element::with_text("string", s.clone()),
            Value::Double(d) => Element::with_text("double", format_double(*d)),
            Value::DateTime(s) => Element::with_text("dateTime.iso8601", s.clone()),
            Value::Base64(bytes) => Element::with_text("base64", base64_encode(bytes)),
            Value::Array(items) => {
                let mut data = Element::new("data");
                for item in items {
                    data.push(item.to_element());
                }
                let mut arr = Element::new("array");
                arr.push(data);
                arr
            }
            Value::Struct(members) => {
                let mut st = Element::new("struct");
                for (name, v) in members {
                    let mut member = Element::new("member");
                    member.push(Element::with_text("name", name.clone()));
                    member.push(v.to_element());
                    st.push(member);
                }
                st
            }
        };
        value.push(inner);
        value
    }

    /// Decodes from a `<value>` element.
    pub(crate) fn from_element(value: &Element) -> Result<Self, XmlError> {
        if value.name != "value" {
            return Err(XmlError::validation(format!(
                "expected <value>, found <{}>",
                value.name
            )));
        }
        let Some(inner) = value.elements().next() else {
            // Untyped value: its text is a string (whitespace significant).
            return Ok(Value::String(value.text_raw()));
        };
        match inner.name.as_str() {
            "i4" | "int" => inner
                .text()
                .parse()
                .map(Value::Int)
                .map_err(|_| XmlError::validation(format!("bad int '{}'", inner.text()))),
            "boolean" => match inner.text().as_str() {
                "1" | "true" => Ok(Value::Bool(true)),
                "0" | "false" => Ok(Value::Bool(false)),
                other => Err(XmlError::validation(format!("bad boolean '{other}'"))),
            },
            "string" => Ok(Value::String(inner.text_raw())),
            "double" => inner
                .text()
                .parse()
                .map(Value::Double)
                .map_err(|_| XmlError::validation(format!("bad double '{}'", inner.text()))),
            "dateTime.iso8601" => Ok(Value::DateTime(inner.text())),
            "base64" => base64_decode(&inner.text())
                .map(Value::Base64)
                .ok_or_else(|| XmlError::validation("bad base64 payload")),
            "array" => {
                let data = inner
                    .child("data")
                    .ok_or_else(|| XmlError::validation("<array> without <data>"))?;
                data.elements_named("value")
                    .map(Value::from_element)
                    .collect::<Result<_, _>>()
                    .map(Value::Array)
            }
            "struct" => {
                let mut members = Vec::new();
                for m in inner.elements_named("member") {
                    let name = m
                        .child("name")
                        .map(|n| n.text())
                        .ok_or_else(|| XmlError::validation("<member> without <name>"))?;
                    let v = m
                        .child("value")
                        .ok_or_else(|| XmlError::validation("<member> without <value>"))?;
                    members.push((name, Value::from_element(v)?));
                }
                Ok(Value::Struct(members))
            }
            other => Err(XmlError::validation(format!(
                "unknown value type <{other}>"
            ))),
        }
    }
}

fn format_double(d: f64) -> String {
    // Always include a decimal point so the value reparses as a double.
    if d == d.trunc() && d.is_finite() {
        format!("{d:.1}")
    } else {
        format!("{d}")
    }
}

// ---- base64 (standard alphabet, padding) ---------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard base64.
pub(crate) fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes standard base64 (whitespace tolerated); `None` on bad input.
pub(crate) fn base64_decode(text: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some(u32::from(c - b'A')),
            b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let clean: Vec<u8> = text.bytes().filter(|b| !b" \t\r\n".contains(b)).collect();
    if !clean.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(clean.len() / 4 * 3);
    for chunk in clean.chunks(4) {
        let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || chunk[..4 - pad].iter().any(|&c| val(c).is_none()) {
            return None;
        }
        let n = chunk[..4 - pad]
            .iter()
            .map(|&c| val(c).unwrap())
            .fold(0u32, |acc, v| (acc << 6) | v)
            << (6 * pad);
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let e = v.to_element();
        let back = Value::from_element(&e).expect("decode");
        assert_eq!(back, v, "element was {e:?}");
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(Value::Int(-42));
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::str("hello <world> & friends"));
        roundtrip(Value::Double(3.25));
        roundtrip(Value::Double(-7.0));
        roundtrip(Value::DateTime("19980717T14:08:55".into()));
        roundtrip(Value::Base64(vec![0, 1, 2, 253, 254, 255]));
    }

    #[test]
    fn composite_roundtrips() {
        roundtrip(Value::Array(vec![
            Value::Int(1),
            Value::str("two"),
            Value::Bool(false),
        ]));
        roundtrip(Value::Struct(vec![
            ("run_id".into(), Value::Int(7)),
            (
                "nested".into(),
                Value::Struct(vec![("deep".into(), Value::Array(vec![Value::Int(9)]))]),
            ),
        ]));
        roundtrip(Value::Array(vec![]));
        roundtrip(Value::Struct(vec![]));
    }

    #[test]
    fn untyped_value_is_string() {
        let e = excovery_xml::parse("<value>plain</value>").unwrap();
        assert_eq!(Value::from_element(e.root()).unwrap(), Value::str("plain"));
    }

    #[test]
    fn i4_alias_accepted() {
        let e = excovery_xml::parse("<value><i4>17</i4></value>").unwrap();
        assert_eq!(Value::from_element(e.root()).unwrap(), Value::Int(17));
    }

    #[test]
    fn views() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_double(), Some(3.0));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        let s = Value::Struct(vec![("k".into(), Value::Int(1))]);
        assert_eq!(s.member("k"), Some(&Value::Int(1)));
        assert_eq!(s.member("nope"), None);
        assert_eq!(Value::Int(1).member("k"), None);
    }

    #[test]
    fn bad_inputs_rejected() {
        for bad in [
            "<value><int>xyz</int></value>",
            "<value><boolean>7</boolean></value>",
            "<value><double>abc</double></value>",
            "<value><array/></value>",
            "<value><unknown>1</unknown></value>",
            "<value><base64>!!!</base64></value>",
        ] {
            let e = excovery_xml::parse(bad).unwrap();
            assert!(Value::from_element(e.root()).is_err(), "{bad}");
        }
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(base64_decode("Zg==").unwrap(), b"f");
        assert_eq!(base64_decode("Zm 8=\n").unwrap(), b"fo");
        assert!(base64_decode("abc").is_none(), "length not multiple of 4");
        assert!(base64_decode("Zg=a").is_none(), "padding in the middle");
    }

    #[test]
    fn base64_roundtrip_all_byte_values() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
    }

    #[test]
    fn double_formatting_reparses() {
        for d in [0.0, -1.0, 2.5, 1e-9, 12345.6789] {
            let e = Value::Double(d).to_element();
            assert_eq!(Value::from_element(&e).unwrap(), Value::Double(d));
        }
    }
}
