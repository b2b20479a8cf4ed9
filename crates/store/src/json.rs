//! A small, dependency-free JSON codec for the storage levels.
//!
//! Level-2 entries, the run-completion journal and the level-3 database
//! package must round-trip exactly on every build of the engine: the
//! crash-resume path re-reads what an earlier (possibly different) master
//! incarnation wrote. Keeping the codec in-tree makes that round-trip a
//! property of this crate alone — like the XML codec in `excovery-xml` —
//! instead of an external serializer's.
//!
//! There is one writer and one reader, and two ways to drive each:
//!
//! * The **writer** is a set of primitives over a byte sink — string
//!   escaping, `i64`, `f64` and byte arrays. [`JsonValue`] writes itself
//!   through them, and [`Database::save`](crate::Database::save) streams a
//!   whole package through the same functions into one buffer without
//!   building a tree.
//! * The **reader** is a crate-private pull tokenizer: the caller asks
//!   for the value it expects next. [`JsonValue::parse`] builds a tree on
//!   top of it; [`Database::load`](crate::Database::load) drives it
//!   straight into table rows.
//!
//! Integers are kept exact (`i64`, covering every nanosecond timestamp the
//! engine produces); floats print in shortest round-trip form, with `.0`
//! appended when that form is integral so the type survives a re-parse.
//! Numbers follow RFC 8259's grammar: no leading zeros, and at least one
//! digit on each side of a decimal point.

use std::borrow::Cow;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part, kept exact.
    Int(i64),
    /// A number with fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; member order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// Byte strings are stored as arrays of integers 0..=255.
    pub fn bytes(data: &[u8]) -> Self {
        JsonValue::Array(data.iter().map(|b| JsonValue::Int(*b as i64)).collect())
    }

    /// The string content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer content as unsigned; negative values yield `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The numeric content, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean content, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Decodes an array-of-integers value back into bytes.
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        self.as_array()?
            .iter()
            .map(|v| v.as_i64().and_then(|i| u8::try_from(i).ok()))
            .collect()
    }

    fn write<S: Sink + ?Sized>(&self, out: &mut S) {
        match self {
            JsonValue::Null => out.put_str("null"),
            JsonValue::Bool(true) => out.put_str("true"),
            JsonValue::Bool(false) => out.put_str("false"),
            JsonValue::Int(i) => write_i64(out, *i),
            JsonValue::Float(f) => write_f64(out, *f),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Array(items) => {
                out.put_str("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.put_str(",");
                    }
                    item.write(out);
                }
                out.put_str("]");
            }
            JsonValue::Object(members) => {
                out.put_str("{");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.put_str(",");
                    }
                    write_str(out, k);
                    out.put_str(":");
                    v.write(out);
                }
                out.put_str("}");
            }
        }
    }

    /// Parses a JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut reader = Reader::new(input.as_bytes());
        let value = Self::read(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }

    /// Reads the next value, whole.
    fn read(r: &mut Reader<'_>) -> Result<JsonValue, String> {
        Ok(match r.kind()? {
            Kind::Null => {
                r.null()?;
                JsonValue::Null
            }
            Kind::Bool => JsonValue::Bool(r.bool()?),
            Kind::Number => match r.number()? {
                Number::Int(i) => JsonValue::Int(i),
                Number::Float(f) => JsonValue::Float(f),
            },
            Kind::String => JsonValue::Str(r.string()?.into_owned()),
            Kind::Array => {
                r.begin_array()?;
                let (mut items, mut first) = (Vec::new(), true);
                while r.next_element(&mut first)? {
                    items.push(Self::read(r)?);
                }
                JsonValue::Array(items)
            }
            Kind::Object => {
                r.begin_object()?;
                let (mut members, mut first) = (Vec::new(), true);
                while let Some(key) = r.next_key(&mut first)? {
                    members.push((key.into_owned(), Self::read(r)?));
                }
                JsonValue::Object(members)
            }
        })
    }
}

/// Serializes to compact JSON (`to_string()` comes with it).
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sink = FmtSink { f, result: Ok(()) };
        self.write(&mut sink);
        sink.result
    }
}

// ---- writer ------------------------------------------------------------------

/// Where the writer puts its output. Every chunk it is handed is UTF-8:
/// ASCII, or a piece of a `&str` cut next to an ASCII byte. Text it
/// holds as a `&str` goes through [`Sink::put_str`], so a formatter takes
/// it without checking it again.
pub(crate) trait Sink {
    fn put(&mut self, chunk: &[u8]);

    fn put_str(&mut self, chunk: &str) {
        self.put(chunk.as_bytes());
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, chunk: &[u8]) {
        self.extend_from_slice(chunk);
    }
}

/// Writes into a formatter, keeping the first error it reports.
struct FmtSink<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    result: fmt::Result,
}

impl Sink for FmtSink<'_, '_> {
    fn put(&mut self, chunk: &[u8]) {
        self.put_str(std::str::from_utf8(chunk).expect("the writer hands out UTF-8 only"));
    }

    fn put_str(&mut self, chunk: &str) {
        if self.result.is_ok() {
            self.result = self.f.write_str(chunk);
        }
    }
}

/// Appends `s` to `out` as a JSON string literal, escaped exactly as
/// [`JsonValue`] writes one: for a caller that renders a small document
/// straight into a buffer instead of building a tree.
pub fn write_json_str(out: &mut Vec<u8>, s: &str) {
    write_str(out, s);
}

/// Writes `s` as a JSON string literal.
pub(crate) fn write_str<S: Sink + ?Sized>(out: &mut S, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.put_str("\"");
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let control;
        let escaped: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                control = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 15)],
                ];
                &control
            }
            _ => continue,
        };
        out.put_str(&s[start..i]);
        out.put(escaped);
        start = i + 1;
    }
    out.put_str(&s[start..]);
    out.put_str("\"");
}

/// Writes an integer in decimal.
pub(crate) fn write_i64<S: Sink + ?Sized>(out: &mut S, value: i64) {
    // 19 digits of |i64::MIN| plus the sign.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = value.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if value < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.put(&buf[at..]);
}

/// Writes a float in shortest round-trip form, with `.0` appended when
/// that form is integral: a float must stay a float on re-parse. JSON has
/// no literal for NaN or the infinities; they are written as `null`.
pub(crate) fn write_f64<S: Sink + ?Sized>(out: &mut S, value: f64) {
    if !value.is_finite() {
        out.put(b"null");
        return;
    }
    /// Forwards `Display` output, noting whether it had a fraction or an
    /// exponent.
    struct Text<'a, S: ?Sized> {
        out: &'a mut S,
        fractional: bool,
    }
    impl<S: Sink + ?Sized> fmt::Write for Text<'_, S> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.fractional |= s.bytes().any(|b| matches!(b, b'.' | b'e' | b'E'));
            self.out.put(s.as_bytes());
            Ok(())
        }
    }
    let mut text = Text {
        out: &mut *out,
        fractional: false,
    };
    // `Text` never fails, so neither does formatting into it.
    let _ = fmt::Write::write_fmt(&mut text, format_args!("{value}"));
    if !text.fractional {
        out.put(b".0");
    }
}

/// `,0` … `,255`: the decimal text of every byte behind a comma, so that a
/// byte array costs one table lookup per element.
static BYTE_TEXT: [([u8; 4], usize); 256] = byte_text();

const fn byte_text() -> [([u8; 4], usize); 256] {
    let mut table = [([0u8; 4], 0usize); 256];
    let mut b = 0;
    while b < 256 {
        let mut text = [b',', 0, 0, 0];
        let mut len = 1;
        if b >= 100 {
            text[len] = b'0' + (b / 100) as u8;
            len += 1;
        }
        if b >= 10 {
            text[len] = b'0' + (b / 10 % 10) as u8;
            len += 1;
        }
        text[len] = b'0' + (b % 10) as u8;
        table[b] = (text, len + 1);
        b += 1;
    }
    table
}

/// Writes bytes as an array of integers 0..=255 — what
/// [`JsonValue::bytes`] writes.
pub(crate) fn write_bytes<S: Sink + ?Sized>(out: &mut S, data: &[u8]) {
    out.put(b"[");
    if let Some((first, rest)) = data.split_first() {
        let (text, len) = &BYTE_TEXT[usize::from(*first)];
        out.put(&text[1..*len]);
        for b in rest {
            let (text, len) = &BYTE_TEXT[usize::from(*b)];
            out.put(&text[..*len]);
        }
    }
    out.put(b"]");
}

// ---- reader ------------------------------------------------------------------

const MAX_DEPTH: usize = 256;

/// What the next value is, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

/// A number: integral text that fits an `i64` stays exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Number {
    Int(i64),
    Float(f64),
}

/// Pull tokenizer over one JSON document.
///
/// The caller asks for the value it expects next — [`Self::kind`] tells
/// what comes when it does not know — and walks containers with
/// [`Self::next_element`] / [`Self::next_key`], which consume the commas,
/// colons and closing brackets. Every value read checks the nesting bound,
/// and strings are checked to be UTF-8, so a document read this way is
/// accepted exactly when [`JsonValue::parse`] accepts it.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    /// Skips whitespace and tells what kind of value starts there.
    pub(crate) fn kind(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
        }
    }

    fn expect_kind(&mut self, want: Kind) -> Result<(), String> {
        match self.kind()? {
            got if got == want => Ok(()),
            got => Err(format!(
                "expected {want:?}, found {got:?} at byte {}",
                self.pos
            )),
        }
    }

    pub(crate) fn null(&mut self) -> Result<(), String> {
        self.expect_kind(Kind::Null)?;
        self.literal("null")
    }

    fn bool(&mut self) -> Result<bool, String> {
        self.expect_kind(Kind::Bool)?;
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect_kind(Kind::String)?;
        self.string_literal()
    }

    /// Reads `[`; the elements follow through [`Self::next_element`].
    pub(crate) fn begin_array(&mut self) -> Result<(), String> {
        self.expect_kind(Kind::Array)?;
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// Called before each element, with `first` set for the first call:
    /// `true` when an element follows, `false` once the closing `]` is
    /// consumed.
    pub(crate) fn next_element(&mut self, first: &mut bool) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::take(first);
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!("expected ',' or ']' at byte {}", self.pos)),
        }
    }

    /// Reads `{`; the members follow through [`Self::next_key`].
    pub(crate) fn begin_object(&mut self) -> Result<(), String> {
        self.expect_kind(Kind::Object)?;
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// Called before each member, with `first` set for the first call:
    /// the member's key with its `:` consumed — its value is next — or
    /// `None` once the closing `}` is consumed.
    pub(crate) fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        let first = std::mem::take(first);
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
        }
        let key = self.string_literal()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads an array of integers 0..=255 — what [`write_bytes`] writes —
    /// appended to `bytes`. Any other element is an error.
    pub(crate) fn byte_array(&mut self, bytes: &mut Vec<u8>) -> Result<(), String> {
        self.begin_array()?;
        let mut first = true;
        while self.next_element(&mut first)? {
            self.skip_ws();
            // Fast path: one to three digits without a leading zero, not
            // followed by a fraction or exponent. Anything else takes the
            // general number path, so what is accepted does not change.
            let start = self.pos;
            let mut value = 0u32;
            while let Some(d @ b'0'..=b'9') = self.peek() {
                if self.pos - start == 3 {
                    break;
                }
                value = value * 10 + u32::from(d - b'0');
                self.pos += 1;
            }
            let len = self.pos - start;
            let plain = (len == 1 || (len > 1 && self.bytes[start] != b'0'))
                && !matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E'))
                && self.depth < MAX_DEPTH;
            match u8::try_from(value) {
                Ok(b) if plain => bytes.push(b),
                _ => {
                    self.pos = start;
                    match self.number()? {
                        Number::Int(i) if (0..=255).contains(&i) => bytes.push(i as u8),
                        _ => return Err(format!("non-byte array element at byte {start}")),
                    }
                }
            }
        }
        Ok(())
    }

    /// Reads and checks one value of any kind, keeping nothing.
    pub(crate) fn skip_value(&mut self) -> Result<(), String> {
        JsonValue::read(self).map(drop)
    }

    /// Only whitespace may follow the document.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn utf8(&self, start: usize) -> Result<&'a str, String> {
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| format!("invalid utf-8 in string before byte {}: {e}", self.pos))
    }

    /// A string literal starting at the current byte; borrowed from the
    /// input unless it holds escapes.
    fn string_literal(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            // Copy unescaped spans in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Spans end next to an ASCII byte, so each is UTF-8 on its own
            // exactly when the whole string is.
            let span = self.utf8(start)?;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(span),
                        Some(mut s) => {
                            s.push_str(span);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(span);
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.literal("\\u")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            }
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char)),
                    };
                    s.push(c);
                }
                Some(b) if b < 0x20 => return Err(format!("raw control byte {b:#x} in string")),
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos += 4;
        Ok(v)
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` (RFC 8259).
    pub(crate) fn number(&mut self) -> Result<Number, String> {
        self.expect_kind(Kind::Number)?;
        let start = self.pos;
        let invalid = |r: &Self| {
            let text = String::from_utf8_lossy(&r.bytes[start..r.pos]);
            format!("invalid number '{text}' at byte {start}")
        };
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(invalid(self)),
        }
        let int_end = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(invalid(self));
            }
            is_float = true;
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid(self));
            }
            is_float = true;
        }
        if !is_float {
            // Exact when it fits; an integer beyond i64 reads as a float.
            let exact = self.bytes[int_start..int_end]
                .iter()
                .try_fold(0i64, |acc, d| {
                    let d = i64::from(d - b'0');
                    let acc = acc.checked_mul(10)?;
                    if negative {
                        acc.checked_sub(d)
                    } else {
                        acc.checked_add(d)
                    }
                });
            if let Some(i) = exact {
                return Ok(Number::Int(i));
            }
        }
        // The grammar above admits ASCII only.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Number::Float)
            .ok_or_else(|| invalid(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &JsonValue) -> JsonValue {
        JsonValue::parse(&v.to_string()).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Bool(false),
            JsonValue::Int(0),
            JsonValue::Int(-1),
            JsonValue::Int(i64::MAX),
            JsonValue::Int(i64::MIN),
            JsonValue::Float(0.25),
            JsonValue::Float(-1.5e-9),
            JsonValue::str(""),
            JsonValue::str("päck€t \"x\"\n\t\\"),
        ] {
            assert_eq!(roundtrip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = JsonValue::Float(3.0);
        assert_eq!(v.to_string(), "3.0");
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn nanosecond_timestamps_are_exact() {
        // 2^53 + 1 is where f64 starts losing integers.
        let v = JsonValue::Int((1 << 53) + 1);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn containers_roundtrip() {
        let v = JsonValue::Object(vec![
            (
                "runs".into(),
                JsonValue::Array(vec![JsonValue::Int(0), JsonValue::Int(3)]),
            ),
            (
                "nested".into(),
                JsonValue::Object(vec![("x".into(), JsonValue::Null)]),
            ),
            ("data".into(), JsonValue::bytes(&[0, 127, 255])),
        ]);
        let r = roundtrip(&v);
        assert_eq!(r, v);
        assert_eq!(
            r.get("data").unwrap().to_bytes().unwrap(),
            vec![0, 127, 255]
        );
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2.5 , \"\\u0041\\u00e4\\ud83d\\ude00\" ] } ")
            .unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_str(), Some("Aä😀"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "01x",
            "[1] trailing",
            "\"\\q\"",
            "{\"a\":\"\\ud800\"}",
            // RFC 8259 numbers: no leading zero, a digit on both sides of
            // the point.
            "01",
            "-.5",
            "1.",
            "1.e3",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, want) in [
            ("0", JsonValue::Int(0)),
            ("-0", JsonValue::Int(0)),
            ("-12", JsonValue::Int(-12)),
            ("0.5", JsonValue::Float(0.5)),
            ("-0.0", JsonValue::Float(-0.0)),
            ("1e3", JsonValue::Float(1e3)),
            ("1E+3", JsonValue::Float(1e3)),
            ("2.5e-3", JsonValue::Float(2.5e-3)),
            ("9223372036854775807", JsonValue::Int(i64::MAX)),
            ("-9223372036854775808", JsonValue::Int(i64::MIN)),
            (
                "9223372036854775808",
                JsonValue::Float(9223372036854775808.0),
            ),
        ] {
            assert_eq!(JsonValue::parse(text), Ok(want.clone()), "{text}");
        }
        for bad in ["-", "+1", "00", "-01", ".5", "1e", "1e+", "0x10"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let doc = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(JsonValue::parse(&doc).is_err());
        let at_bound = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(JsonValue::parse(&at_bound).is_ok());
        let past_bound = "[".repeat(MAX_DEPTH) + "1" + &"]".repeat(MAX_DEPTH);
        assert!(JsonValue::parse(&past_bound).is_err());
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn streamed_primitives_match_the_tree() {
        let mut out = Vec::new();
        write_bytes(&mut out, &[0, 9, 10, 99, 100, 255]);
        assert_eq!(
            out,
            JsonValue::bytes(&[0, 9, 10, 99, 100, 255])
                .to_string()
                .as_bytes()
        );
        out.clear();
        write_bytes(&mut out, &[]);
        assert_eq!(out, b"[]");
        let text = "tab\there \u{1} \u{1f} \"q\" \\ ä";
        out.clear();
        write_str(&mut out, text);
        assert_eq!(out, JsonValue::str(text).to_string().as_bytes());
        assert_eq!(
            String::from_utf8(out.clone()).unwrap(),
            "\"tab\\there \\u0001 \\u001f \\\"q\\\" \\\\ ä\""
        );
        for i in [0, 7, -7, 10, i64::MAX, i64::MIN] {
            out.clear();
            write_i64(&mut out, i);
            assert_eq!(out, i.to_string().as_bytes());
        }
    }

    #[test]
    fn byte_arrays_accept_exactly_the_integers_0_to_255() {
        let read = |text: &str| {
            let mut r = Reader::new(text.as_bytes());
            let mut b = Vec::new();
            r.byte_array(&mut b).and_then(|()| r.finish().map(|()| b))
        };
        assert_eq!(read("[]"), Ok(vec![]));
        assert_eq!(
            read(" [ 0 , 9,10 ,99,100, 255 ] "),
            Ok(vec![0, 9, 10, 99, 100, 255])
        );
        // `-0` is the integer 0 to the general number path.
        assert_eq!(read("[-0, 7]"), Ok(vec![0, 7]));
        for bad in [
            "[256]", "[1000]", "[2550]", "[-1]", "[1.0]", "[1e2]", "[01]", "[00]", "[\"1\"]",
            "[[1]]", "[1,]", "[,1]", "[1 2]", "[1", "{}", "[null]",
        ] {
            assert!(read(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(br#"["plain", "esc\naped"]"#);
        r.begin_array().unwrap();
        let mut first = true;
        assert!(r.next_element(&mut first).unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain")));
        assert!(r.next_element(&mut first).unwrap());
        assert_eq!(r.string().unwrap(), "esc\naped");
        assert!(!r.next_element(&mut first).unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn invalid_utf8_in_strings_is_rejected() {
        let mut r = Reader::new(b"\"a\xffb\"");
        assert!(r.string().is_err());
        let mut r = Reader::new(b"\"\\n\xc3\"");
        assert!(r.string().is_err());
    }
}
