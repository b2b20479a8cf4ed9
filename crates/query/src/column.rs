//! Typed column slabs: the physical layout of ingested Table-I data.
//!
//! Each relational column becomes one contiguous slab — `i64` values,
//! `f64` values, interned string ids or a packed byte arena — plus a null
//! bitmap. Integer slabs additionally carry min/max statistics so the
//! executor can decide whole partitions before scanning them.

use excovery_store::ColumnType;
use std::collections::HashMap;
use std::fmt;

/// A fixed-length bitmap: a slab's null mask (bit `i` set means row `i`
/// is NULL) or a scan's selection (bit `i` set means row `i` matches).
/// Bits past `len` in the last word are always zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// `len` bits, all set or all clear.
    pub(crate) fn filled(len: usize, set: bool) -> Self {
        let mut b = Self {
            words: vec![if set { u64::MAX } else { 0 }; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// One bit per value, set where `pred` holds, packed 64 at a time.
    pub(crate) fn pack<T: Copy>(vals: &[T], pred: impl Fn(T) -> bool) -> Self {
        let words = vals
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (j, &v)| w | (u64::from(pred(v)) << j))
            })
            .collect();
        Self {
            words,
            len: vals.len(),
        }
    }

    /// One bit per row index `0..len`, set where `pred` holds.
    pub(crate) fn from_fn(len: usize, pred: impl Fn(usize) -> bool) -> Self {
        let words = (0..len.div_ceil(64))
            .map(|w| {
                (w * 64..len.min(w * 64 + 64))
                    .fold(0u64, |acc, i| acc | (u64::from(pred(i)) << (i % 64)))
            })
            .collect();
        Self { words, len }
    }

    fn clear_tail(&mut self) {
        if let (Some(last), tail @ 1..) = (self.words.last_mut(), self.len % 64) {
            *last &= (1u64 << tail) - 1;
        }
    }

    /// Keeps the bits also set in `other` (same length).
    pub(crate) fn and(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Adds the bits set in `other` (same length).
    pub(crate) fn or(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Flips every bit.
    pub(crate) fn not(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Sets the bits at the set positions of `mask` to `to` (same length).
    pub(crate) fn assign_where(&mut self, mask: &Bitmap, to: bool) {
        debug_assert_eq!(self.len, mask.len);
        for (a, m) in self.words.iter_mut().zip(&mask.words) {
            *a = if to { *a | m } else { *a & !m };
        }
    }

    /// The indices of the set bits, in ascending order.
    pub(crate) fn ones(&self) -> Ones<'_> {
        Ones {
            words: self.words.iter(),
            base: 0,
            bits: 0,
        }
    }

    /// Appends one bit.
    pub(crate) fn push(&mut self, set: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if set {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends `n` copies of one bit, word-at-a-time — the RLE decode
    /// path appends whole runs, where per-bit `push` dominates.
    pub(crate) fn push_n(&mut self, set: bool, n: usize) {
        if !set {
            self.len += n;
            self.words.resize(self.len.div_ceil(64), 0);
            return;
        }
        let mut remaining = n;
        while remaining > 0 {
            let bit = self.len % 64;
            if self.len / 64 == self.words.len() {
                self.words.push(0);
            }
            let take = (64 - bit).min(remaining);
            let mask = if take == 64 {
                u64::MAX
            } else {
                ((1u64 << take) - 1) << bit
            };
            self.words[self.len / 64] |= mask;
            self.len += take;
            remaining -= take;
        }
    }

    /// Reads bit `i`.
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Rebuilds a bitmap from its packed words (slab-file decode path).
    /// Bits past `len` in the last word must be zero, as `push` leaves
    /// them — `PartialEq` compares words directly.
    pub(crate) fn from_raw(words: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        Self { words, len }
    }

    /// The packed 64-bit words (slab-file encode path).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Iterator over the set bits of a [`Bitmap`], a word at a time.
pub(crate) struct Ones<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Index of bit 0 of the word after `bits`.
    base: usize,
    /// The not yet visited bits of the current word.
    bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.base += 64;
        }
        let i = self.base - 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

/// The row indices a selection holds (all of `0..rows` when `sel` is
/// `None`), in ascending order.
pub(crate) fn selected_rows(sel: Option<&Bitmap>, rows: usize) -> impl Iterator<Item = usize> + '_ {
    let (all, ones) = match sel {
        None => (0..rows, None),
        Some(sel) => (0..0, Some(sel.ones())),
    };
    all.chain(ones.into_iter().flatten())
}

/// Interns the distinct strings of a dataset; scans compare cheap `u32`
/// ids and only resolve back to text at result-materialisation time.
///
/// Built serially during ingest and then shared read-only across scan
/// workers, so no locking is needed on the hot path.
#[derive(Debug, Clone, Default)]
pub(crate) struct StringPool {
    map: HashMap<String, u32>,
    strings: Vec<String>,
}

impl StringPool {
    /// An empty pool.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Returns the id of `s`, interning it on first sight.
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("string pool overflow");
        self.map.insert(s.to_string(), id);
        self.strings.push(s.to_string());
        id
    }

    /// The id of `s` if it was ever interned.
    pub(crate) fn lookup(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// The string behind an id.
    pub(crate) fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }
}

/// One materialised cell value, as surfaced in a result [`Frame`]
/// (strings resolved, blobs copied out).
///
/// [`Frame`]: crate::Frame
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer cell.
    I64(i64),
    /// Float cell (also the type of `mean`/`sum` aggregates).
    F64(f64),
    /// Text cell.
    Str(String),
    /// Blob cell.
    Bytes(Vec<u8>),
}

impl Value {
    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Float view (integers widen, like `SqlValue::as_real`).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Blob view.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

/// A borrowed view of one cell during a scan — no allocation, strings
/// stay as pool ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellRef<'a> {
    /// NULL cell.
    Null,
    /// Integer cell.
    I64(i64),
    /// Float cell.
    F64(f64),
    /// Interned-string cell.
    Str(u32),
    /// Blob cell.
    Bytes(&'a [u8]),
}

/// Min/max statistics of an integer slab (non-null values only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IntStats {
    /// Smallest non-null value.
    pub min: i64,
    /// Largest non-null value.
    pub max: i64,
}

/// What a partition's statistics say about one column of a table: the
/// slab file footer's for a spilled partition, the slabs' own for a
/// resident one. Enough to bound how its cells compare with a literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ColumnStats {
    pub(crate) kind: ColumnType,
    /// Rows of the table in the partition.
    pub(crate) rows: usize,
    /// NULL cells among them.
    pub(crate) nulls: usize,
    /// Min/max of the non-null cells; integer columns only.
    pub(crate) range: Option<IntStats>,
}

/// One typed column slab.
#[derive(Debug, Clone)]
pub(crate) enum Slab {
    /// Integer column: values plus per-slab min/max for pruning.
    I64 {
        /// Cell values (0 where null).
        vals: Vec<i64>,
        /// Null bitmap.
        nulls: Bitmap,
        /// Min/max over non-null cells; `None` if all cells are null.
        stats: Option<IntStats>,
    },
    /// Float column (integers stored into a `Real` column widen).
    F64 {
        /// Cell values (0.0 where null).
        vals: Vec<f64>,
        /// Null bitmap.
        nulls: Bitmap,
    },
    /// Text column of interned string ids.
    Str {
        /// Pool ids (0 where null).
        ids: Vec<u32>,
        /// Null bitmap.
        nulls: Bitmap,
    },
    /// Blob column packed into one byte arena.
    Bytes {
        /// `offsets[i]..offsets[i+1]` delimits row `i` in `data`.
        offsets: Vec<usize>,
        /// Packed payloads.
        data: Vec<u8>,
        /// Null bitmap.
        nulls: Bitmap,
    },
}

impl Slab {
    /// An empty slab for a column kind.
    pub(crate) fn empty_i64() -> Self {
        Slab::I64 {
            vals: Vec::new(),
            nulls: Bitmap::new(),
            stats: None,
        }
    }

    /// An empty float slab.
    pub(crate) fn empty_f64() -> Self {
        Slab::F64 {
            vals: Vec::new(),
            nulls: Bitmap::new(),
        }
    }

    /// An empty string slab.
    pub(crate) fn empty_str() -> Self {
        Slab::Str {
            ids: Vec::new(),
            nulls: Bitmap::new(),
        }
    }

    /// An empty blob slab.
    pub(crate) fn empty_bytes() -> Self {
        Slab::Bytes {
            offsets: vec![0],
            data: Vec::new(),
            nulls: Bitmap::new(),
        }
    }

    /// Number of rows in the slab.
    pub(crate) fn len(&self) -> usize {
        match self {
            Slab::I64 { vals, .. } => vals.len(),
            Slab::F64 { vals, .. } => vals.len(),
            Slab::Str { ids, .. } => ids.len(),
            Slab::Bytes { offsets, .. } => offsets.len() - 1,
        }
    }

    /// Number of null cells.
    pub(crate) fn null_count(&self) -> usize {
        self.nulls().count_ones()
    }

    /// Integer min/max statistics, if this is an integer slab with at
    /// least one non-null cell.
    pub(crate) fn int_stats(&self) -> Option<IntStats> {
        match self {
            Slab::I64 { stats, .. } => *stats,
            _ => None,
        }
    }

    /// The column type this slab stores.
    pub(crate) fn kind(&self) -> ColumnType {
        match self {
            Slab::I64 { .. } => ColumnType::Integer,
            Slab::F64 { .. } => ColumnType::Real,
            Slab::Str { .. } => ColumnType::Text,
            Slab::Bytes { .. } => ColumnType::Blob,
        }
    }

    /// The null bitmap.
    pub(crate) fn nulls(&self) -> &Bitmap {
        match self {
            Slab::I64 { nulls, .. }
            | Slab::F64 { nulls, .. }
            | Slab::Str { nulls, .. }
            | Slab::Bytes { nulls, .. } => nulls,
        }
    }

    /// Appends an integer cell.
    pub(crate) fn push_i64(&mut self, v: i64) {
        let Slab::I64 { vals, nulls, stats } = self else {
            panic!("push_i64 into non-integer slab");
        };
        vals.push(v);
        nulls.push(false);
        *stats = Some(match *stats {
            None => IntStats { min: v, max: v },
            Some(s) => IntStats {
                min: s.min.min(v),
                max: s.max.max(v),
            },
        });
    }

    /// Appends a float cell.
    pub(crate) fn push_f64(&mut self, v: f64) {
        let Slab::F64 { vals, nulls } = self else {
            panic!("push_f64 into non-float slab");
        };
        vals.push(v);
        nulls.push(false);
    }

    /// Appends an interned-string cell.
    pub(crate) fn push_str(&mut self, id: u32) {
        let Slab::Str { ids, nulls } = self else {
            panic!("push_str into non-text slab");
        };
        ids.push(id);
        nulls.push(false);
    }

    /// Appends a blob cell.
    pub(crate) fn push_bytes(&mut self, b: &[u8]) {
        let Slab::Bytes {
            offsets,
            data,
            nulls,
        } = self
        else {
            panic!("push_bytes into non-blob slab");
        };
        data.extend_from_slice(b);
        offsets.push(data.len());
        nulls.push(false);
    }

    /// Appends a NULL cell.
    pub(crate) fn push_null(&mut self) {
        match self {
            Slab::I64 { vals, nulls, .. } => {
                vals.push(0);
                nulls.push(true);
            }
            Slab::F64 { vals, nulls } => {
                vals.push(0.0);
                nulls.push(true);
            }
            Slab::Str { ids, nulls } => {
                ids.push(0);
                nulls.push(true);
            }
            Slab::Bytes {
                offsets,
                data,
                nulls,
            } => {
                offsets.push(data.len());
                nulls.push(true);
            }
        }
    }

    /// The cell at row `i`, borrowed.
    pub(crate) fn get(&self, i: usize) -> CellRef<'_> {
        match self {
            Slab::I64 { vals, nulls, .. } => {
                if nulls.get(i) {
                    CellRef::Null
                } else {
                    CellRef::I64(vals[i])
                }
            }
            Slab::F64 { vals, nulls } => {
                if nulls.get(i) {
                    CellRef::Null
                } else {
                    CellRef::F64(vals[i])
                }
            }
            Slab::Str { ids, nulls } => {
                if nulls.get(i) {
                    CellRef::Null
                } else {
                    CellRef::Str(ids[i])
                }
            }
            Slab::Bytes {
                offsets,
                data,
                nulls,
            } => {
                if nulls.get(i) {
                    CellRef::Null
                } else {
                    CellRef::Bytes(&data[offsets[i]..offsets[i + 1]])
                }
            }
        }
    }

    /// Materialises the cell at row `i` (resolving strings via `pool`).
    pub(crate) fn value(&self, i: usize, pool: &StringPool) -> Value {
        match self.get(i) {
            CellRef::Null => Value::Null,
            CellRef::I64(v) => Value::I64(v),
            CellRef::F64(v) => Value::F64(v),
            CellRef::Str(id) => Value::Str(pool.resolve(id).to_string()),
            CellRef::Bytes(b) => Value::Bytes(b.to_vec()),
        }
    }
}

/// One table's slice of a partition: parallel slabs, one per column.
#[derive(Debug, Clone)]
pub(crate) struct ColumnTable {
    /// Column names, in schema order.
    pub names: Vec<String>,
    /// One slab per column.
    pub slabs: Vec<Slab>,
    /// Number of rows.
    pub rows: usize,
}

impl ColumnTable {
    /// An empty table with the given column names and fresh slabs.
    pub(crate) fn new(names: Vec<String>, slabs: Vec<Slab>) -> Self {
        Self {
            names,
            slabs,
            rows: 0,
        }
    }

    /// Index of a named column.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The statistics of a named column, read off its slab.
    pub(crate) fn column_stats(&self, name: &str) -> Option<ColumnStats> {
        let slab = &self.slabs[self.column_index(name)?];
        Some(ColumnStats {
            kind: slab.kind(),
            rows: self.rows,
            nulls: slab.null_count(),
            range: slab.int_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_roundtrip_across_word_boundary() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len, 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn string_pool_interns_once() {
        let mut p = StringPool::new();
        let a = p.intern("sd_start_search");
        let b = p.intern("sd_service_add");
        assert_ne!(a, b);
        assert_eq!(p.intern("sd_start_search"), a);
        assert_eq!(p.resolve(b), "sd_service_add");
        assert_eq!(p.lookup("missing"), None);
    }

    #[test]
    fn i64_slab_tracks_stats_and_nulls() {
        let mut s = Slab::empty_i64();
        s.push_i64(5);
        s.push_null();
        s.push_i64(-3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.null_count(), 1);
        assert_eq!(s.int_stats(), Some(IntStats { min: -3, max: 5 }));
        assert_eq!(s.get(0), CellRef::I64(5));
        assert_eq!(s.get(1), CellRef::Null);
        assert_eq!(s.get(2), CellRef::I64(-3));
    }

    #[test]
    fn bytes_slab_packs_payloads() {
        let mut s = Slab::empty_bytes();
        s.push_bytes(b"abc");
        s.push_null();
        s.push_bytes(b"");
        s.push_bytes(b"zz");
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(0), CellRef::Bytes(b"abc"));
        assert_eq!(s.get(1), CellRef::Null);
        assert_eq!(s.get(2), CellRef::Bytes(b""));
        assert_eq!(s.get(3), CellRef::Bytes(b"zz"));
    }

    #[test]
    fn all_null_int_slab_has_no_stats() {
        let mut s = Slab::empty_i64();
        s.push_null();
        s.push_null();
        assert_eq!(s.int_stats(), None);
        assert_eq!(s.null_count(), 2);
    }

    #[test]
    fn value_views_match_sqlvalue_semantics() {
        assert_eq!(Value::I64(3).as_f64(), Some(3.0), "ints widen");
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_i64(), None);
        assert_eq!(Value::from("t"), Value::Str("t".into()));
        assert_eq!(Value::from(7u64), Value::I64(7));
    }
}
