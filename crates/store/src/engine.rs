//! A small embedded relational engine.
//!
//! Stands in for the SQLite database of the paper's third storage level:
//! named tables with typed columns, row insertion with type checking, and
//! persistence of a whole database to a single JSON file (one package per
//! experiment, "preferably stored as a database to unify and accelerate
//! data access", §IV-F). It stores cells and nothing else: filters,
//! aggregates and orderings over a package are `excovery_query` scans.
//!
//! A [`Table`] stores its rows column by column. [`Table::insert`] takes
//! an owned [`Row`], checks it and scatters it into one typed vector per
//! column; [`Table::rows`] hands out borrowed [`RowRef`] views whose
//! cells are [`CellRef`]s, and [`Table::column`] lends a whole column as
//! a [`ColumnRef`]. Bytes per cell, before vector slack:
//!
//! - `Integer`: 8, the `i64`;
//! - `Real`: 8, the `f64` bits or an `Int` cell's exact `i64`, and one
//!   bit marking `Int` cells once the column holds one;
//! - `Text`: 4 for the `u32` end offset into one `String` arena, plus the
//!   UTF-8 bytes;
//! - `Blob`: 4 for the `u32` end offset into one byte arena, plus the
//!   bytes;
//!
//! plus one NULL bit per cell once the column holds a NULL. An arena is
//! limited to `u32::MAX` bytes per column; an insert past it is an error.
//!
//! The package is streamed both ways through the codec in [`crate::json`]:
//! [`Database::save`] writes tables straight into one buffer with the
//! JSON writer's primitives, and [`Database::load`] pulls tokens straight
//! into the columns — neither builds a [`JsonValue`](crate::JsonValue)
//! tree. The document:
//!
//! ```text
//! {"tables":{"<name>":{"columns":[{"name":"<col>","ctype":"Integer|Real|Text|Blob"},…],
//!                      "indexed":["<col>",…],
//!                      "rows":[[<cell>,…],…]},…}}
//! ```
//!
//! with tables in name order, and each cell one of `null`, `{"int":N}`,
//! `{"real":F}`, a string (text) or an array of integers 0..=255 (blob):
//! every value type has its own shape, so a cell decodes without its
//! column (an `Int` in a `Real` column stays an `Int`). A `Real` that is
//! NaN or infinite has no JSON form, so `save` refuses it.

use crate::json::{self, Kind, Number, Reader};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Writes `data` to `path` atomically: the bytes land in a dot-prefixed
/// temp file in the same directory, which is then renamed into place.
/// Readers (and a crash at any instant) observe either the old content or
/// the complete new content — never a torn write. Every journal in the
/// repository stack (level-2 run journal, the server's L4 queue journal)
/// goes through this primitive.
pub fn atomic_write(path: &Path, data: &[u8]) -> Result<(), StoreError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let parent = path
        .parent()
        .ok_or_else(|| err(format!("no parent directory for {path:?}")))?;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| err(format!("invalid file name in {path:?}")))?;
    let tmp = parent.join(format!(
        ".{file_name}.tmp-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    // The parent almost always exists already; it is created only when
    // the temp file's own create reports it missing.
    match std::fs::write(&tmp, data) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::create_dir_all(parent).map_err(|e| err(format!("mkdir {parent:?}: {e}")))?;
            std::fs::write(&tmp, data)
        }
        written => written,
    }
    .map_err(|e| err(format!("write {tmp:?}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        err(format!("rename {tmp:?} -> {path:?}: {e}"))
    })
}

/// Error type of the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError(pub String);

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

fn err(msg: impl Into<String>) -> StoreError {
    StoreError(msg.into())
}

/// Column type affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integers.
    Integer,
    /// 64-bit floats.
    Real,
    /// UTF-8 text.
    Text,
    /// Raw bytes (packet contents, log files).
    Blob,
}

/// A typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Real(f64),
    /// Text value.
    Text(String),
    /// Byte-string value.
    Blob(Vec<u8>),
}

impl ColumnType {
    fn type_name(self) -> &'static str {
        match self {
            ColumnType::Integer => "Integer",
            ColumnType::Real => "Real",
            ColumnType::Text => "Text",
            ColumnType::Blob => "Blob",
        }
    }

    fn parse_name(s: &str) -> Option<Self> {
        match s {
            "Integer" => Some(ColumnType::Integer),
            "Real" => Some(ColumnType::Real),
            "Text" => Some(ColumnType::Text),
            "Blob" => Some(ColumnType::Blob),
            _ => None,
        }
    }
}

impl From<i64> for SqlValue {
    fn from(v: i64) -> Self {
        SqlValue::Int(v)
    }
}
impl From<u64> for SqlValue {
    fn from(v: u64) -> Self {
        SqlValue::Int(v as i64)
    }
}
impl From<f64> for SqlValue {
    fn from(v: f64) -> Self {
        SqlValue::Real(v)
    }
}
impl From<&str> for SqlValue {
    fn from(v: &str) -> Self {
        SqlValue::Text(v.to_string())
    }
}
impl From<String> for SqlValue {
    fn from(v: String) -> Self {
        SqlValue::Text(v)
    }
}
impl From<Vec<u8>> for SqlValue {
    fn from(v: Vec<u8>) -> Self {
        SqlValue::Blob(v)
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Type affinity.
    pub ctype: ColumnType,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, ctype: ColumnType) -> Self {
        Self {
            name: name.into(),
            ctype,
        }
    }
}

/// A row: one value per column of the owning table. The owned form a
/// row takes at the API edge ([`Table::insert`], `Row::from(RowRef)`); a
/// table stores its cells column by column.
pub type Row = Vec<SqlValue>;

/// A borrowed cell: [`SqlValue`] with its text or blob left in the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellRef<'a> {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Real(f64),
    /// Text value.
    Text(&'a str),
    /// Byte-string value.
    Blob(&'a [u8]),
}

impl CellRef<'_> {
    /// The owned value.
    pub fn to_owned(self) -> SqlValue {
        match self {
            CellRef::Null => SqlValue::Null,
            CellRef::Int(v) => SqlValue::Int(v),
            CellRef::Real(v) => SqlValue::Real(v),
            CellRef::Text(s) => SqlValue::Text(s.to_string()),
            CellRef::Blob(b) => SqlValue::Blob(b.to_vec()),
        }
    }

    /// The value type's name, for errors that must not print the value.
    fn kind(self) -> &'static str {
        match self {
            CellRef::Null => "Null",
            CellRef::Int(_) => "Int",
            CellRef::Real(_) => "Real",
            CellRef::Text(_) => "Text",
            CellRef::Blob(_) => "Blob",
        }
    }
}

impl SqlValue {
    fn as_cell(&self) -> CellRef<'_> {
        match self {
            SqlValue::Null => CellRef::Null,
            SqlValue::Int(v) => CellRef::Int(*v),
            SqlValue::Real(v) => CellRef::Real(*v),
            SqlValue::Text(s) => CellRef::Text(s),
            SqlValue::Blob(b) => CellRef::Blob(b),
        }
    }
}

/// A borrowed row of a [`Table`], as [`Table::rows`] yields it.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    table: &'a Table,
    index: usize,
}

impl<'a> RowRef<'a> {
    /// The cell in column `column` (by position); panics past the last
    /// column, as indexing a row does.
    pub fn get(&self, column: usize) -> CellRef<'a> {
        self.table.column(column).get(self.index)
    }

    fn cells(self) -> impl Iterator<Item = CellRef<'a>> {
        (0..self.table.columns.len()).map(move |c| self.get(c))
    }
}

impl From<RowRef<'_>> for Row {
    fn from(row: RowRef<'_>) -> Self {
        row.cells().map(CellRef::to_owned).collect()
    }
}

/// Cell by cell with [`SqlValue`]'s `==`.
impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.table.columns.len() == other.table.columns.len() && self.cells().eq(other.cells())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.cells()).finish()
    }
}

/// The rows of a [`Table`] in insertion order, as [`Table::rows`] yields
/// them. Two are equal when the rows they have left are.
#[derive(Clone)]
pub struct Rows<'a> {
    table: &'a Table,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for Rows<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        self.range.next().map(|index| self.table.row(index))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.clone().eq(other.clone())
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// One column of a [`Table`] in its storage form, for readers that go a
/// column at a time ([`Table::column`]).
///
/// `nulls` marks the NULL rows: row `i` is bit `i % 64` of word `i / 64`,
/// and rows past the last word are not NULL (a column that never held a
/// NULL has no words). A NULL row keeps a 0 in `values`/`bits` and an
/// empty span in `ends`.
#[derive(Debug, Clone, Copy)]
pub enum ColumnRef<'a> {
    /// An `Integer` column.
    Integer {
        /// NULL rows.
        nulls: &'a [u64],
        /// One value per row.
        values: &'a [i64],
    },
    /// A `Real` column.
    Real {
        /// NULL rows.
        nulls: &'a [u64],
        /// Rows that hold an `Int` (same layout as `nulls`).
        ints: &'a [u64],
        /// Per row the float's bits, or an `Int` row's `i64` as `u64`.
        bits: &'a [u64],
    },
    /// A `Text` column.
    Text {
        /// NULL rows.
        nulls: &'a [u64],
        /// Row `i` is `arena[ends[i - 1]..ends[i]]` (from 0 for row 0).
        ends: &'a [u32],
        /// Every row's text, back to back.
        arena: &'a str,
    },
    /// A `Blob` column.
    Blob {
        /// NULL rows.
        nulls: &'a [u64],
        /// Row `i` is `arena[ends[i - 1]..ends[i]]` (from 0 for row 0).
        ends: &'a [u32],
        /// Every row's bytes, back to back.
        arena: &'a [u8],
    },
}

impl<'a> ColumnRef<'a> {
    /// The cell of row `row`; panics past the last row.
    pub fn get(self, row: usize) -> CellRef<'a> {
        match self {
            ColumnRef::Integer { nulls, .. }
            | ColumnRef::Real { nulls, .. }
            | ColumnRef::Text { nulls, .. }
            | ColumnRef::Blob { nulls, .. }
                if bit(nulls, row) =>
            {
                CellRef::Null
            }
            ColumnRef::Integer { values, .. } => CellRef::Int(values[row]),
            ColumnRef::Real { ints, bits, .. } if bit(ints, row) => CellRef::Int(bits[row] as i64),
            ColumnRef::Real { bits, .. } => CellRef::Real(f64::from_bits(bits[row])),
            ColumnRef::Text { ends, arena, .. } => CellRef::Text(&arena[span(ends, row)]),
            ColumnRef::Blob { ends, arena, .. } => CellRef::Blob(&arena[span(ends, row)]),
        }
    }
}

/// Bit `i` of a bitmap whose missing trailing words are zero.
fn bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

fn set_bit(words: &mut Vec<u64>, i: usize) {
    if words.len() <= i / 64 {
        words.resize(i / 64 + 1, 0);
    }
    words[i / 64] |= 1 << (i % 64);
}

/// Clears every bit from `len` on.
fn truncate_bits(words: &mut Vec<u64>, len: usize) {
    words.truncate(len.div_ceil(64));
    if let Some(last) = words.get_mut(len / 64) {
        *last &= (1 << (len % 64)) - 1;
    }
}

/// The arena span of row `i`.
fn span(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let start = i.checked_sub(1).map_or(0, |p| ends[p] as usize);
    start..ends[i] as usize
}

/// An arena length as a `u32` end offset.
#[inline]
fn arena_end(len: usize, column: &Column) -> Result<u32, StoreError> {
    u32::try_from(len).map_err(|_| arena_full(column))
}

#[cold]
fn arena_full(column: &Column) -> StoreError {
    err(format!(
        "column '{}' holds more than {} bytes",
        column.name,
        u32::MAX
    ))
}

#[cold]
fn mismatch(cell: CellRef<'_>, column: &Column) -> StoreError {
    err(format!(
        "type mismatch in column '{}': {} value, expected {}",
        column.name,
        cell.kind(),
        column.ctype.type_name()
    ))
}

/// One column's storage: a NULL bitmap plus the typed cells (see
/// [`ColumnRef`], its borrowed form).
#[derive(Debug, Clone)]
struct Cells {
    nulls: Vec<u64>,
    data: Data,
}

#[derive(Debug, Clone)]
enum Data {
    Integer(Vec<i64>),
    Real { ints: Vec<u64>, bits: Vec<u64> },
    Text { ends: Vec<u32>, arena: String },
    Blob { ends: Vec<u32>, arena: Vec<u8> },
}

impl Cells {
    fn new(ctype: ColumnType) -> Self {
        let data = match ctype {
            ColumnType::Integer => Data::Integer(Vec::new()),
            ColumnType::Real => Data::Real {
                ints: Vec::new(),
                bits: Vec::new(),
            },
            ColumnType::Text => Data::Text {
                ends: Vec::new(),
                arena: String::new(),
            },
            ColumnType::Blob => Data::Blob {
                ends: Vec::new(),
                arena: Vec::new(),
            },
        };
        Self {
            nulls: Vec::new(),
            data,
        }
    }

    fn borrow(&self) -> ColumnRef<'_> {
        let nulls = &self.nulls;
        match &self.data {
            Data::Integer(values) => ColumnRef::Integer { nulls, values },
            Data::Real { ints, bits } => ColumnRef::Real { nulls, ints, bits },
            Data::Text { ends, arena } => ColumnRef::Text { nulls, ends, arena },
            Data::Blob { ends, arena } => ColumnRef::Blob { nulls, ends, arena },
        }
    }

    /// Appends `cell` as row `row` (the column's length). A cell the
    /// column's type does not take, or an arena past `u32::MAX` bytes, is
    /// an error that leaves the column as it was.
    #[inline]
    fn push(&mut self, row: usize, cell: CellRef<'_>, column: &Column) -> Result<(), StoreError> {
        match (&mut self.data, cell) {
            (Data::Integer(values), CellRef::Int(v)) => values.push(v),
            (Data::Real { bits, .. }, CellRef::Real(v)) => bits.push(v.to_bits()),
            (Data::Real { ints, bits }, CellRef::Int(v)) => {
                set_bit(ints, row);
                bits.push(v as u64);
            }
            (Data::Text { ends, arena }, CellRef::Text(s)) => {
                ends.push(arena_end(arena.len() + s.len(), column)?);
                arena.push_str(s);
            }
            (Data::Blob { ends, arena }, CellRef::Blob(b)) => {
                ends.push(arena_end(arena.len() + b.len(), column)?);
                arena.extend_from_slice(b);
            }
            (data, CellRef::Null) => {
                match data {
                    Data::Integer(values) => values.push(0),
                    Data::Real { bits, .. } => bits.push(0),
                    Data::Text { ends, arena } => ends.push(arena_end(arena.len(), column)?),
                    Data::Blob { ends, arena } => ends.push(arena_end(arena.len(), column)?),
                }
                set_bit(&mut self.nulls, row);
            }
            _ => return Err(mismatch(cell, column)),
        }
        Ok(())
    }

    /// Drops every row from `len` on.
    fn truncate(&mut self, len: usize) {
        truncate_bits(&mut self.nulls, len);
        match &mut self.data {
            Data::Integer(values) => values.truncate(len),
            Data::Real { ints, bits } => {
                truncate_bits(ints, len);
                bits.truncate(len);
            }
            Data::Text { ends, arena } => {
                ends.truncate(len);
                arena.truncate(ends.last().map_or(0, |&e| e as usize));
            }
            Data::Blob { ends, arena } => {
                ends.truncate(len);
                arena.truncate(ends.last().map_or(0, |&e| e as usize));
            }
        }
    }
}

/// A table: schema plus rows in insertion order, stored one typed vector
/// per column, and the list of columns declared indexed, which the
/// package records.
#[derive(Clone)]
pub struct Table {
    columns: Vec<Column>,
    cells: Vec<Cells>,
    len: usize,
    indexed_columns: Vec<String>,
}

/// Cell by cell with [`SqlValue`]'s `==`.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns
            && self.indexed_columns == other.indexed_columns
            && self.rows().eq(other.rows())
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("columns", &self.columns)
            .field("rows", &self.rows())
            .field("indexed_columns", &self.indexed_columns)
            .finish()
    }
}

impl Table {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Self {
            cells: columns.iter().map(|c| Cells::new(c.ctype)).collect(),
            columns,
            len: 0,
            indexed_columns: Vec::new(),
        }
    }

    /// Column definitions.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The storage of column `index` (by position); panics past the last
    /// column.
    pub fn column(&self, index: usize) -> ColumnRef<'_> {
        self.cells[index].borrow()
    }

    /// Declares an index on an integer/text column. Only the name is
    /// kept: it is saved in the package's `"indexed"` member, and reads
    /// scan the rows. Idempotent.
    pub fn create_index(&mut self, column: &str) -> Result<(), StoreError> {
        let idx = self.column_index(column)?;
        match self.columns[idx].ctype {
            ColumnType::Integer | ColumnType::Text => {}
            other => return Err(err(format!("cannot index {other:?} column '{column}'"))),
        }
        if !self.indexed_columns.contains(&column.to_string()) {
            self.indexed_columns.push(column.to_string());
        }
        Ok(())
    }

    /// True if the column is declared indexed.
    pub fn is_indexed(&self, column: &str) -> bool {
        self.indexed_columns.iter().any(|c| c == column)
    }

    /// Appends this table's package form (see the module docs); `name` is
    /// only for the error a non-finite `Real` gets.
    fn write(&self, name: &str, out: &mut Vec<u8>) -> Result<(), StoreError> {
        out.extend_from_slice(b"{\"columns\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(b"{\"name\":");
            json::write_str(out, &c.name);
            out.extend_from_slice(b",\"ctype\":");
            json::write_str(out, c.ctype.type_name());
            out.push(b'}');
        }
        out.extend_from_slice(b"],\"indexed\":[");
        for (i, c) in self.indexed_columns.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            json::write_str(out, c);
        }
        out.extend_from_slice(b"],\"rows\":[");
        let columns: Vec<ColumnRef<'_>> = self.cells.iter().map(Cells::borrow).collect();
        for r in 0..self.len {
            out.extend_from_slice(if r > 0 { b",[" } else { b"[" });
            for (i, column) in columns.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                match column.get(r) {
                    CellRef::Null => out.extend_from_slice(b"null"),
                    CellRef::Int(v) => {
                        out.extend_from_slice(b"{\"int\":");
                        json::write_i64(out, v);
                        out.push(b'}');
                    }
                    CellRef::Real(v) if !v.is_finite() => {
                        return Err(err(format!(
                            "save: table '{name}', column '{}': {v} has no JSON form",
                            self.columns[i].name
                        )))
                    }
                    CellRef::Real(v) => {
                        out.extend_from_slice(b"{\"real\":");
                        json::write_f64(out, v);
                        out.push(b'}');
                    }
                    CellRef::Text(s) => json::write_str(out, s),
                    CellRef::Blob(b) => json::write_bytes(out, b),
                }
            }
            out.push(b']');
        }
        out.extend_from_slice(b"]}");
        Ok(())
    }

    /// Reads one table's package form. Members may come in any order, and
    /// the first of a repeated member counts. Rows read after the columns
    /// go straight into them; rows read before are buffered and inserted
    /// once the columns are known. The declared indexes are recorded
    /// after the last row.
    fn read(r: &mut Reader<'_>) -> Result<Self, String> {
        let (mut table, mut buffered, mut has_rows, mut indexed) = (None, None, false, None);
        r.begin_object()?;
        let mut first = true;
        while let Some(key) = r.next_key(&mut first)? {
            match &*key {
                "columns" if table.is_none() => table = Some(Table::new(read_columns(r)?)),
                "rows" if !has_rows => {
                    has_rows = true;
                    match &mut table {
                        Some(table) => table.read_rows(r)?,
                        None => buffered = Some(read_buffered_rows(r)?),
                    }
                }
                // Anything but an array declares no index.
                "indexed" if indexed.is_none() => {
                    indexed = Some(if r.kind()? == Kind::Array {
                        read_strings(r)?
                    } else {
                        r.skip_value()?;
                        Vec::new()
                    })
                }
                _ => r.skip_value()?,
            }
        }
        let mut table = table.ok_or("table without 'columns'")?;
        if !has_rows {
            return Err("table without 'rows'".into());
        }
        for row in buffered.unwrap_or_default() {
            table.insert(row).map_err(|e| e.0)?;
        }
        for column in indexed.unwrap_or_default() {
            table.create_index(&column).map_err(|e| e.0)?;
        }
        Ok(table)
    }

    /// Reads the `rows` array into the columns. A bad row fails the whole
    /// read, so a row cut short by an error is never seen.
    fn read_rows(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        let mut blob = Vec::new();
        r.begin_array()?;
        let mut first = true;
        while r.next_element(&mut first)? {
            r.begin_array()?;
            let mut first_cell = true;
            let mut c = 0;
            while r.next_element(&mut first_cell)? {
                let (Some(column), Some(cells)) = (self.columns.get(c), self.cells.get_mut(c))
                else {
                    return Err(format!("row has more than {} values", self.columns.len()));
                };
                read_cell(r, &mut blob, |cell| {
                    cells.push(self.len, cell, column).map_err(|e| e.0)
                })?;
                c += 1;
            }
            if c != self.columns.len() {
                return Err(format!(
                    "arity mismatch: {c} values for {} columns",
                    self.columns.len()
                ));
            }
            self.len += 1;
        }
        Ok(())
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Result<usize, StoreError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| err(format!("no such column: {name}")))
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Inserts a row after checking arity and types; a row that fails
    /// either check leaves the table as it was.
    pub fn insert(&mut self, row: Row) -> Result<(), StoreError> {
        if row.len() != self.columns.len() {
            return Err(err(format!(
                "arity mismatch: {} values for {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        let columns = self.cells.iter_mut().zip(&self.columns);
        for (c, (value, (cells, column))) in row.iter().zip(columns).enumerate() {
            // Integers are most cells of most tables: pushed in line.
            let pushed = match (&mut cells.data, value) {
                (Data::Integer(values), SqlValue::Int(v)) => {
                    values.push(*v);
                    Ok(())
                }
                _ => cells.push(self.len, value.as_cell(), column),
            };
            if let Err(e) = pushed {
                for cells in &mut self.cells[..c] {
                    cells.truncate(self.len);
                }
                return Err(e);
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All rows in insertion order, borrowed.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            table: self,
            range: 0..self.len,
        }
    }

    /// Row `index` (which must be below [`Self::len`]), borrowed.
    pub(crate) fn row(&self, index: usize) -> RowRef<'_> {
        debug_assert!(index < self.len);
        RowRef { table: self, index }
    }
}

/// A named collection of tables — one experiment package (level 3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table; errors if the name is taken.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        columns: Vec<Column>,
    ) -> Result<(), StoreError> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(err(format!("table exists: {name}")));
        }
        self.tables.insert(name, Table::new(columns));
        Ok(())
    }

    /// Immutable table access.
    pub fn table(&self, name: &str) -> Result<&Table, StoreError> {
        self.tables
            .get(name)
            .ok_or_else(|| err(format!("no such table: {name}")))
    }

    /// Mutable table access.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| err(format!("no such table: {name}")))
    }

    /// Inserts a row into a named table.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), StoreError> {
        self.table_mut(table)?.insert(row)
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// The package bytes [`Self::save`] writes.
    fn encode(&self) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::new();
        out.extend_from_slice(b"{\"tables\":{");
        for (i, (name, table)) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            json::write_str(&mut out, name);
            out.push(b':');
            table.write(name, &mut out)?;
        }
        out.extend_from_slice(b"}}");
        Ok(out)
    }

    /// The database a package holds; `Err` for exactly the documents the
    /// JSON grammar or the package shape rejects.
    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let read = |r: &mut Reader<'_>| -> Result<Self, String> {
            let mut db = None;
            r.begin_object()?;
            let mut first = true;
            while let Some(key) = r.next_key(&mut first)? {
                if key == "tables" && db.is_none() {
                    db = Some(Self::read_tables(r)?);
                } else {
                    r.skip_value()?;
                }
            }
            r.finish()?;
            db.ok_or_else(|| "missing 'tables' object".to_string())
        };
        read(&mut Reader::new(bytes)).map_err(|e| err(format!("parse: {e}")))
    }

    /// Reads the `tables` object; a name given twice keeps its last table.
    fn read_tables(r: &mut Reader<'_>) -> Result<Self, String> {
        let mut db = Self::new();
        r.begin_object()?;
        let mut first = true;
        while let Some(name) = r.next_key(&mut first)? {
            let table = Table::read(r)?;
            db.tables.insert(name.into_owned(), table);
        }
        Ok(db)
    }

    /// Persists the whole database to one file (JSON), written atomically
    /// so a crash mid-save never leaves a torn package behind. A `Real`
    /// that is NaN or infinite is an error naming its table and column,
    /// and nothing is written.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.encode()?;
        atomic_write(path, &bytes)?;
        if excovery_obs::enabled() {
            let reg = excovery_obs::global();
            reg.counter("store_writes_total", &[("level", "3")]).inc();
            reg.counter("store_bytes_written_total", &[("level", "3")])
                .add(bytes.len() as u64);
        }
        Ok(())
    }

    /// Loads a database from a file written by [`Self::save`].
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path).map_err(|e| err(format!("read {path:?}: {e}")))?;
        Self::decode(&bytes)
    }
}

// ---- package reader pieces (the first of a repeated member counts, as
// `JsonValue::get` has it) ---------------------------------------------------

fn read_columns(r: &mut Reader<'_>) -> Result<Vec<Column>, String> {
    let mut columns = Vec::new();
    r.begin_array()?;
    let mut first = true;
    while r.next_element(&mut first)? {
        let (mut name, mut ctype) = (None, None);
        r.begin_object()?;
        let mut first_member = true;
        while let Some(key) = r.next_key(&mut first_member)? {
            match &*key {
                "name" if name.is_none() => name = Some(string_or_skip(r)?),
                "ctype" if ctype.is_none() => ctype = Some(string_or_skip(r)?),
                _ => r.skip_value()?,
            }
        }
        let name = name.flatten().ok_or("column without name")?;
        let ctype = ctype
            .flatten()
            .as_deref()
            .and_then(ColumnType::parse_name)
            .ok_or_else(|| format!("bad column type for '{name}'"))?;
        columns.push(Column::new(name, ctype));
    }
    Ok(columns)
}

fn read_strings(r: &mut Reader<'_>) -> Result<Vec<String>, String> {
    let mut strings = Vec::new();
    r.begin_array()?;
    let mut first = true;
    while r.next_element(&mut first)? {
        strings.push(r.string()?.into_owned());
    }
    Ok(strings)
}

/// Reads a `rows` array met before the columns: each row owned, to be
/// inserted once the columns are known.
fn read_buffered_rows(r: &mut Reader<'_>) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let mut blob = Vec::new();
    r.begin_array()?;
    let mut first = true;
    while r.next_element(&mut first)? {
        let mut row = Vec::new();
        r.begin_array()?;
        let mut first_cell = true;
        while r.next_element(&mut first_cell)? {
            read_cell(r, &mut blob, |cell| {
                row.push(cell.to_owned());
                Ok(())
            })?;
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Reads one cell and hands it to `put`; a blob's bytes are read into
/// `blob` first.
fn read_cell(
    r: &mut Reader<'_>,
    blob: &mut Vec<u8>,
    put: impl FnOnce(CellRef<'_>) -> Result<(), String>,
) -> Result<(), String> {
    match r.kind()? {
        Kind::Null => {
            r.null()?;
            put(CellRef::Null)
        }
        Kind::String => put(CellRef::Text(&r.string()?)),
        Kind::Array => {
            blob.clear();
            r.byte_array(blob)?;
            put(CellRef::Blob(blob))
        }
        Kind::Object => {
            // `{"int":N}` or `{"real":F}`; an integral `real` widens.
            let (mut int, mut real) = (None, None);
            r.begin_object()?;
            let mut first = true;
            while let Some(key) = r.next_key(&mut first)? {
                match &*key {
                    "int" if int.is_none() => int = Some(number_or_skip(r)?),
                    "real" if real.is_none() => real = Some(number_or_skip(r)?),
                    _ => r.skip_value()?,
                }
            }
            put(match (int.flatten(), real.flatten()) {
                (Some(Number::Int(i)), _) => CellRef::Int(i),
                (_, Some(Number::Int(i))) => CellRef::Real(i as f64),
                (_, Some(Number::Float(f))) => CellRef::Real(f),
                _ => return Err("unknown tagged cell value".into()),
            })
        }
        other => Err(format!("unexpected cell value of kind {other:?}")),
    }
}

/// The next value if it is a string; any other value is read and dropped.
fn string_or_skip(r: &mut Reader<'_>) -> Result<Option<String>, String> {
    if r.kind()? == Kind::String {
        Ok(Some(r.string()?.into_owned()))
    } else {
        r.skip_value().map(|()| None)
    }
}

/// The next value if it is a number; any other value is read and dropped.
fn number_or_skip(r: &mut Reader<'_>) -> Result<Option<Number>, String> {
    if r.kind()? == Kind::Number {
        r.number().map(Some)
    } else {
        r.skip_value().map(|()| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use proptest::prelude::*;

    fn people() -> Table {
        let mut t = Table::new(vec![
            Column::new("name", ColumnType::Text),
            Column::new("age", ColumnType::Integer),
            Column::new("height", ColumnType::Real),
        ]);
        t.insert(vec!["ada".into(), SqlValue::Int(36), SqlValue::Real(1.70)])
            .unwrap();
        t.insert(vec!["bob".into(), SqlValue::Int(25), SqlValue::Real(1.85)])
            .unwrap();
        t.insert(vec!["cyd".into(), SqlValue::Null, SqlValue::Real(1.60)])
            .unwrap();
        t
    }

    #[test]
    fn insert_checks_arity_and_types() {
        let mut t = people();
        assert!(t.insert(vec!["x".into()]).is_err(), "arity");
        assert!(
            t.insert(vec![
                SqlValue::Int(1),
                SqlValue::Int(1),
                SqlValue::Real(1.0)
            ])
            .is_err(),
            "type"
        );
        assert!(
            t.insert(vec![SqlValue::Null, SqlValue::Null, SqlValue::Null])
                .is_ok(),
            "NULLs"
        );
        // Int accepted into Real column (affinity).
        assert!(t
            .insert(vec!["dee".into(), SqlValue::Int(40), SqlValue::Int(2)])
            .is_ok());
    }

    #[test]
    fn type_mismatch_names_the_column_and_kinds_but_not_the_value() {
        let mut t = Table::new(vec![
            Column::new("RunID", ColumnType::Integer),
            Column::new("Data", ColumnType::Blob),
        ]);
        let payload = SqlValue::Blob(vec![0xab; 1 << 20]);
        let e = t.insert(vec![payload.clone(), SqlValue::Null]).unwrap_err();
        assert_eq!(
            e.0,
            "type mismatch in column 'RunID': Blob value, expected Integer"
        );
        let e = t.insert(vec![SqlValue::Int(1), "x".into()]).unwrap_err();
        assert_eq!(
            e.0,
            "type mismatch in column 'Data': Text value, expected Blob"
        );
        assert!(t.insert(vec![SqlValue::Int(1), payload]).is_ok());
    }

    #[test]
    fn a_refused_row_leaves_every_column_as_it_was() {
        let mut t = Table::new(vec![
            Column::new("s", ColumnType::Text),
            Column::new("r", ColumnType::Real),
            Column::new("b", ColumnType::Blob),
            Column::new("k", ColumnType::Integer),
        ]);
        let first = vec![
            "ab".into(),
            SqlValue::Real(-0.0),
            vec![1u8].into(),
            7i64.into(),
        ];
        t.insert(first.clone()).unwrap();
        let before = t.clone();
        let bad = vec![
            "xyz".into(),
            SqlValue::Int(3),
            vec![2u8, 3].into(),
            "k".into(),
        ];
        assert!(t.insert(bad).is_err());
        assert_eq!(t, before);
        assert_eq!(t.encode_table(), before.encode_table());
        let second = vec![
            SqlValue::Null,
            SqlValue::Int(-4),
            SqlValue::Null,
            SqlValue::Null,
        ];
        t.insert(second.clone()).unwrap();
        assert_eq!(t.rows().map(Row::from).collect::<Vec<_>>(), [first, second]);
        // `-0.0` keeps its sign bit, and an `Int` in a `Real` column stays an `Int`.
        let row = t.rows().next().unwrap();
        assert!(matches!(row.get(1), CellRef::Real(v) if v.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(t.rows().nth(1).unwrap().get(1), CellRef::Int(-4));
    }

    impl Table {
        fn encode_table(&self) -> Vec<u8> {
            let mut out = Vec::new();
            self.write("t", &mut out).unwrap();
            out
        }
    }

    #[test]
    fn unknown_column_is_error() {
        let t = people();
        assert_eq!(t.column_index("age"), Ok(1));
        assert!(t.column_index("nope").is_err());
        assert_eq!(t.column_names(), vec!["name", "age", "height"]);
    }

    #[test]
    fn database_create_insert_query() {
        let mut db = Database::new();
        db.create_table("t", vec![Column::new("x", ColumnType::Integer)])
            .unwrap();
        assert!(db.create_table("t", vec![]).is_err(), "duplicate");
        db.insert("t", vec![SqlValue::Int(5)]).unwrap();
        assert_eq!(db.table("t").unwrap().len(), 1);
        assert!(db.table("missing").is_err());
        assert!(db.insert("missing", vec![]).is_err());
        assert_eq!(db.table_names(), vec!["t"]);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("excovery-store-test-{}", std::process::id()));
        let path = dir.join("db.json");
        let mut db = Database::new();
        db.create_table(
            "Packets",
            vec![
                Column::new("RunID", ColumnType::Integer),
                Column::new("Data", ColumnType::Blob),
            ],
        )
        .unwrap();
        db.insert(
            "Packets",
            vec![SqlValue::Int(1), SqlValue::Blob(vec![1, 2, 255])],
        )
        .unwrap();
        db.save(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        assert_eq!(loaded, db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_errors_on_missing_or_corrupt() {
        assert!(Database::load(Path::new("/nonexistent/x.json")).is_err());
        let dir = std::env::temp_dir().join(format!("excovery-store-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(Database::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_on_unindexable_type_is_rejected() {
        let mut t = Table::new(vec![Column::new("x", ColumnType::Real)]);
        assert!(t.create_index("x").is_err());
        assert!(t.create_index("missing").is_err());
    }

    #[test]
    fn indexes_survive_persistence() {
        let dir = std::env::temp_dir().join(format!("excovery-idx-{}", std::process::id()));
        let path = dir.join("db.json");
        let mut db = Database::new();
        db.create_table("t", vec![Column::new("k", ColumnType::Integer)])
            .unwrap();
        db.table_mut("t").unwrap().create_index("k").unwrap();
        for i in 0..50 {
            db.insert("t", vec![SqlValue::Int(i % 5)]).unwrap();
        }
        db.save(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        assert_eq!(loaded, db);
        let t = loaded.table("t").unwrap();
        assert!(t.is_indexed("k"));
        assert_eq!(t.len(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn value_conversions() {
        assert_eq!(SqlValue::from(5i64), SqlValue::Int(5));
        assert_eq!(SqlValue::from(5u64), SqlValue::Int(5));
        assert_eq!(SqlValue::from(2.5), SqlValue::Real(2.5));
        assert_eq!(SqlValue::from("x"), SqlValue::Text("x".into()));
        assert_eq!(SqlValue::from(vec![1u8]), SqlValue::Blob(vec![1]));
        assert_eq!(SqlValue::Blob(vec![7]).as_cell(), CellRef::Blob(&[7]));
        assert_eq!(CellRef::Text("x").to_owned(), SqlValue::Text("x".into()));
    }

    #[test]
    fn non_finite_real_is_refused_and_nothing_is_written() {
        let dir = std::env::temp_dir().join(format!("excovery-nan-{}", std::process::id()));
        let path = dir.join("db.json");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut db = Database::new();
            db.create_table(
                "Metrics",
                vec![
                    Column::new("Id", ColumnType::Integer),
                    Column::new("Value", ColumnType::Real),
                ],
            )
            .unwrap();
            db.insert("Metrics", vec![SqlValue::Int(1), SqlValue::Real(bad)])
                .unwrap();
            let e = db.save(&path).expect_err("no JSON form");
            assert!(e.0.contains("'Metrics'") && e.0.contains("'Value'"), "{e}");
            assert!(!path.exists(), "nothing written for {bad}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_accepts_members_in_any_order_and_records_declared_indexes() {
        let doc = br#" { "extra": [1, {"x": null}], "tables": { "t": {
            "rows": [[{"int": 2, "int": 2.5}, "b", {"real": 3}], [null, "a", {"real": 0.5, "int": 1.5}]],
            "indexed": ["k", "k"],
            "columns": [{"ctype": "Integer", "name": "k"}, {"name": "s", "ctype": "Text", "z": 1},
                        {"name": "r", "ctype": "Real"}],
            "rows": "ignored: the first member counts"
        } }, "tables": 7 } "#;
        let db = Database::decode(doc).unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.column_names(), vec!["k", "s", "r"]);
        assert_eq!(
            t.rows().map(Row::from).collect::<Vec<_>>(),
            [
                vec![SqlValue::Int(2), "b".into(), SqlValue::Real(3.0)],
                vec![SqlValue::Null, "a".into(), SqlValue::Real(0.5)],
            ]
        );
        assert!(t.is_indexed("k"));
        assert_eq!(t.indexed_columns, vec!["k".to_string()]);
        assert_eq!(Ok(db.clone()), oracle_decode(doc));
    }

    // ---- the tree codec `save` and `load` replaced: the oracle they are
    // held to --------------------------------------------------------------

    fn cell_to_json(v: &SqlValue) -> JsonValue {
        match v {
            SqlValue::Null => JsonValue::Null,
            SqlValue::Int(v) => JsonValue::Object(vec![("int".into(), JsonValue::Int(*v))]),
            SqlValue::Real(v) => JsonValue::Object(vec![("real".into(), JsonValue::Float(*v))]),
            SqlValue::Text(s) => JsonValue::Str(s.clone()),
            SqlValue::Blob(b) => JsonValue::bytes(b),
        }
    }

    fn cell_from_json(v: &JsonValue) -> Result<SqlValue, StoreError> {
        match v {
            JsonValue::Null => Ok(SqlValue::Null),
            JsonValue::Str(s) => Ok(SqlValue::Text(s.clone())),
            JsonValue::Array(_) => v
                .to_bytes()
                .map(SqlValue::Blob)
                .ok_or_else(|| err("parse: blob cell holds non-byte values")),
            JsonValue::Object(_) => {
                if let Some(i) = v.get("int").and_then(JsonValue::as_i64) {
                    Ok(SqlValue::Int(i))
                } else if let Some(f) = v.get("real").and_then(JsonValue::as_f64) {
                    Ok(SqlValue::Real(f))
                } else {
                    Err(err("parse: unknown tagged cell value"))
                }
            }
            other => Err(err(format!("parse: unexpected cell value {other:?}"))),
        }
    }

    fn table_to_json(t: &Table) -> JsonValue {
        let columns = t
            .columns
            .iter()
            .map(|c| {
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::str(&c.name)),
                    ("ctype".into(), JsonValue::str(c.ctype.type_name())),
                ])
            })
            .collect();
        let indexed = t.indexed_columns.iter().map(JsonValue::str).collect();
        let rows = t
            .rows()
            .map(|r| JsonValue::Array(Row::from(r).iter().map(cell_to_json).collect()))
            .collect();
        JsonValue::Object(vec![
            ("columns".into(), JsonValue::Array(columns)),
            ("indexed".into(), JsonValue::Array(indexed)),
            ("rows".into(), JsonValue::Array(rows)),
        ])
    }

    fn table_from_json(v: &JsonValue) -> Result<Table, StoreError> {
        let columns = v
            .get("columns")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| err("parse: table without 'columns'"))?
            .iter()
            .map(|c| {
                let name = c
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| err("parse: column without name"))?;
                let ctype = c
                    .get("ctype")
                    .and_then(JsonValue::as_str)
                    .and_then(ColumnType::parse_name)
                    .ok_or_else(|| err(format!("parse: bad column type for '{name}'")))?;
                Ok(Column::new(name, ctype))
            })
            .collect::<Result<Vec<_>, StoreError>>()?;
        let mut table = Table::new(columns);
        for row in v
            .get("rows")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| err("parse: table without 'rows'"))?
        {
            let row = row
                .as_array()
                .ok_or_else(|| err("parse: row is not an array"))?
                .iter()
                .map(cell_from_json)
                .collect::<Result<Row, StoreError>>()?;
            table.insert(row)?;
        }
        if let Some(indexed) = v.get("indexed").and_then(JsonValue::as_array) {
            for col in indexed {
                let col = col
                    .as_str()
                    .ok_or_else(|| err("parse: indexed column is not a string"))?;
                table.create_index(col)?;
            }
        }
        Ok(table)
    }

    fn oracle_encode(db: &Database) -> Vec<u8> {
        let tables = db
            .tables
            .iter()
            .map(|(name, t)| (name.clone(), table_to_json(t)))
            .collect();
        JsonValue::Object(vec![("tables".into(), JsonValue::Object(tables))])
            .to_string()
            .into_bytes()
    }

    fn oracle_decode(bytes: &[u8]) -> Result<Database, StoreError> {
        let json = std::str::from_utf8(bytes).map_err(|e| err(format!("read: {e}")))?;
        let doc = JsonValue::parse(json).map_err(|e| err(format!("parse: {e}")))?;
        let tables = doc
            .get("tables")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| err("parse: missing 'tables' object"))?;
        let mut db = Database::new();
        for (name, t) in tables {
            db.tables.insert(name.clone(), table_from_json(t)?);
        }
        Ok(db)
    }

    /// Equality with floats compared by bit pattern: `-0.0` is not `0.0`.
    fn bit_equal(a: &Database, b: &Database) -> bool {
        let same_cell = |x: CellRef<'_>, y: CellRef<'_>| match (x, y) {
            (CellRef::Real(p), CellRef::Real(q)) => p.to_bits() == q.to_bits(),
            _ => x == y,
        };
        a.tables.len() == b.tables.len()
            && a.tables.iter().zip(&b.tables).all(|((na, ta), (nb, tb))| {
                na == nb
                    && ta.columns == tb.columns
                    && ta.indexed_columns == tb.indexed_columns
                    && ta.len() == tb.len()
                    && ta.rows().zip(tb.rows()).all(|(ra, rb)| {
                        (0..ta.columns.len()).all(|c| same_cell(ra.get(c), rb.get(c)))
                    })
            })
    }

    /// Text with control characters, quotes, backslashes and characters
    /// of every UTF-8 length.
    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                0u32..0x20,
                prop_oneof![Just(u32::from(b'"')), Just(u32::from(b'\\'))],
                0x20u32..0x7f,
                0x7fu32..0x800,
                0x800u32..0xd800,
                0xe000u32..0x11_0000,
            ],
            0..6,
        )
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    /// Finite floats, the awkward ones by name.
    fn real() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::from_bits(1)),
                Just(-f64::MIN_POSITIVE / 3.0),
                Just(f64::MIN_POSITIVE),
                Just(f64::MAX),
                Just(f64::MIN),
                Just(1e300),
                Just(-1e-300),
                Just(3.0),
                Just(0.1),
            ],
            any::<u64>().prop_map(|bits| {
                let f = f64::from_bits(bits);
                if f.is_finite() {
                    f
                } else {
                    -2.5
                }
            }),
        ]
    }

    /// One cell of each kind; the generator picks the one a column takes.
    type CellDraw = (u8, i64, f64, String, Vec<u8>);

    fn cell_draw() -> impl Strategy<Value = CellDraw> {
        (
            any::<u8>(),
            prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), -300i64..300],
            real(),
            text(),
            prop::collection::vec(any::<u8>(), 0..12),
        )
    }

    type TableDraw = (String, Vec<(u8, String)>, u8, Vec<Vec<CellDraw>>);

    fn table_draw() -> impl Strategy<Value = TableDraw> {
        (
            text(),
            prop::collection::vec((any::<u8>(), text()), 1..5),
            any::<u8>(),
            prop::collection::vec(prop::collection::vec(cell_draw(), 4), 0..6),
        )
    }

    /// Builds a database from draws: every column type, `NULL` anywhere,
    /// `Int` in `Real` columns, empty texts and blobs, and an index on
    /// some integer or text columns.
    fn database(draws: Vec<TableDraw>) -> Database {
        let mut db = Database::new();
        for (name, columns, index_mask, rows) in draws {
            if db.tables.contains_key(&name) {
                continue;
            }
            let mut names = std::collections::BTreeSet::new();
            let columns: Vec<Column> = columns
                .into_iter()
                .filter(|(_, n)| names.insert(n.clone()))
                .map(|(t, n)| {
                    let ctype = [
                        ColumnType::Integer,
                        ColumnType::Real,
                        ColumnType::Text,
                        ColumnType::Blob,
                    ][usize::from(t % 4)];
                    Column::new(n, ctype)
                })
                .collect();
            let mut table = Table::new(columns.clone());
            for cells in rows {
                let row = columns
                    .iter()
                    .zip(cells)
                    .map(|(c, (pick, i, f, s, b))| match (c.ctype, pick % 5) {
                        (_, 0) => SqlValue::Null,
                        (ColumnType::Integer, _) => SqlValue::Int(i),
                        (ColumnType::Real, 1) => SqlValue::Int(i),
                        (ColumnType::Real, _) => SqlValue::Real(f),
                        (ColumnType::Text, _) => SqlValue::Text(s),
                        (ColumnType::Blob, _) => SqlValue::Blob(b),
                    })
                    .collect();
                table.insert(row).unwrap();
            }
            for (i, c) in columns.iter().enumerate() {
                if index_mask & (1 << i) != 0
                    && matches!(c.ctype, ColumnType::Integer | ColumnType::Text)
                {
                    table.create_index(&c.name).unwrap();
                }
            }
            db.tables.insert(name, table);
        }
        db
    }

    fn small_package() -> Database {
        database(vec![
            (
                "Packets".into(),
                vec![
                    (0, "RunID".into()),
                    (2, "Node\u{1}ä".into()),
                    (1, "T".into()),
                    (3, "Data".into()),
                ],
                0b11,
                vec![
                    vec![
                        (1, 7, 0.0, String::new(), vec![]),
                        (1, 0, 0.0, "n\"1".into(), vec![]),
                        (1, 0, -0.5, String::new(), vec![]),
                        (1, 0, 0.0, String::new(), vec![0, 255, 16]),
                    ],
                    vec![
                        (0, 0, 0.0, String::new(), vec![]),
                        (2, 0, 0.0, String::new(), vec![]),
                        (1, -3, 2.0, String::new(), vec![]),
                        (0, 0, 0.0, String::new(), vec![]),
                    ],
                ],
            ),
            ("E".into(), vec![(0, "x".into())], 0, vec![]),
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The streamed package is byte for byte what the tree wrote, and
        /// loads back to the same database, floats bit for bit.
        #[test]
        fn streamed_save_matches_the_tree_and_round_trips(
            draws in prop::collection::vec(table_draw(), 0..4)
        ) {
            let db = database(draws);
            let streamed = db.encode().unwrap();
            prop_assert_eq!(
                String::from_utf8(streamed.clone()).unwrap(),
                String::from_utf8(oracle_encode(&db)).unwrap()
            );
            let loaded = Database::decode(&streamed).unwrap();
            prop_assert!(bit_equal(&loaded, &db), "{:?}\n!=\n{:?}", loaded, db);
            prop_assert_eq!(loaded.encode().unwrap(), streamed);
        }
    }

    /// On every truncation and every single-bit flip of a small package,
    /// the streaming loader fails exactly when the tree loader does, and
    /// when both succeed they agree.
    #[test]
    fn damaged_packages_load_as_the_tree_loader_loads_them() {
        let good = small_package().encode().unwrap();
        assert!(good.len() > 200, "{}", String::from_utf8_lossy(&good));
        let check = |bytes: &[u8], what: &str| match (Database::decode(bytes), oracle_decode(bytes))
        {
            (Ok(got), Ok(want)) => assert!(bit_equal(&got, &want), "{what}: {got:?} != {want:?}"),
            (Err(_), Err(_)) => {}
            (got, want) => panic!("{what}: streaming {got:?}, tree {want:?}"),
        };
        for len in 0..good.len() {
            check(&good[..len], &format!("cut at {len}"));
        }
        for suffix in ["", " \n", "x", "}", "{}", "\u{0}"] {
            let longer = [&good[..], suffix.as_bytes()].concat();
            check(&longer, &format!("{suffix:?} appended"));
        }
        let mut accepted = 0;
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            check(&bad, &format!("bit {bit} flipped"));
            accepted += usize::from(oracle_decode(&bad).is_ok());
        }
        // Some flips keep the document loadable (a digit, a letter inside
        // a string), so both sides of the comparison are exercised.
        assert!(accepted > 0);
    }
}
