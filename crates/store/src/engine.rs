//! A small embedded relational engine.
//!
//! Stands in for the SQLite database of the paper's third storage level:
//! named tables with typed columns, row insertion with type checking,
//! predicate-filtered selection with ordering and projection, and
//! persistence of a whole database to a single JSON file (one package per
//! experiment, "preferably stored as a database to unify and accelerate
//! data access", §IV-F).
//!
//! The package is streamed both ways through the codec in [`crate::json`]:
//! [`Database::save`] writes tables straight into one buffer with the
//! JSON writer's primitives, and [`Database::load`] pulls tokens straight
//! into rows — neither builds a [`JsonValue`](crate::JsonValue) tree. The
//! document:
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

impl SqlValue {
    /// True if the value is acceptable in a column of `t` (NULL always is).
    pub fn matches(&self, t: ColumnType) -> bool {
        matches!(
            (self, t),
            (SqlValue::Null, _)
                | (SqlValue::Int(_), ColumnType::Integer)
                | (SqlValue::Real(_), ColumnType::Real)
                | (SqlValue::Int(_), ColumnType::Real)
                | (SqlValue::Text(_), ColumnType::Text)
                | (SqlValue::Blob(_), ColumnType::Blob)
        )
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            SqlValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float view (ints widen).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            SqlValue::Real(v) => Some(*v),
            SqlValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            SqlValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Blob view.
    pub fn as_blob(&self) -> Option<&[u8]> {
        match self {
            SqlValue::Blob(b) => Some(b),
            _ => None,
        }
    }

    /// Total order used by ORDER BY: NULL < numbers < text < blob.
    fn order_key(&self) -> (u8, OrdKey<'_>) {
        match self {
            SqlValue::Null => (0, OrdKey::Unit),
            SqlValue::Int(v) => (1, OrdKey::Num(*v as f64)),
            SqlValue::Real(v) => (1, OrdKey::Num(*v)),
            SqlValue::Text(s) => (2, OrdKey::Text(s)),
            SqlValue::Blob(b) => (3, OrdKey::Blob(b)),
        }
    }

    /// SQL-style comparison; mixed numeric types compare numerically.
    pub fn cmp_sql(&self, other: &SqlValue) -> std::cmp::Ordering {
        let (ka, va) = self.order_key();
        let (kb, vb) = other.order_key();
        ka.cmp(&kb).then_with(|| va.cmp_with(&vb))
    }
}

enum OrdKey<'a> {
    Unit,
    Num(f64),
    Text(&'a str),
    Blob(&'a [u8]),
}

impl<'a> OrdKey<'a> {
    fn cmp_with(&self, other: &OrdKey<'a>) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (OrdKey::Unit, OrdKey::Unit) => Ordering::Equal,
            (OrdKey::Num(a), OrdKey::Num(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (OrdKey::Text(a), OrdKey::Text(b)) => a.cmp(b),
            (OrdKey::Blob(a), OrdKey::Blob(b)) => a.cmp(b),
            _ => Ordering::Equal, // unreachable: kinds already ordered
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

/// A row: one value per column of the owning table.
pub type Row = Vec<SqlValue>;

/// Hashable key of an indexable cell value (integers and text only; the
/// query planner falls back to a scan for other types).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IndexKey {
    Int(i64),
    Text(String),
}

impl IndexKey {
    fn of(v: &SqlValue) -> Option<IndexKey> {
        match v {
            SqlValue::Int(i) => Some(IndexKey::Int(*i)),
            SqlValue::Text(t) => Some(IndexKey::Text(t.clone())),
            _ => None,
        }
    }
}

/// Row filter used by queries. Composable and serializable in spirit —
/// the subset needed by the conditioning/analysis pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// Column equals value.
    Eq(String, SqlValue),
    /// Column less than value (SQL ordering).
    Lt(String, SqlValue),
    /// Column greater than value (SQL ordering).
    Gt(String, SqlValue),
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `a AND b` without the boxing noise.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `a OR b` without the boxing noise.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    fn eval(&self, table: &Table, row: &Row) -> Result<bool, StoreError> {
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq(col, v) => {
                let idx = table.column_index(col)?;
                row[idx].cmp_sql(v) == std::cmp::Ordering::Equal
            }
            Predicate::Lt(col, v) => {
                let idx = table.column_index(col)?;
                row[idx].cmp_sql(v) == std::cmp::Ordering::Less
            }
            Predicate::Gt(col, v) => {
                let idx = table.column_index(col)?;
                row[idx].cmp_sql(v) == std::cmp::Ordering::Greater
            }
            Predicate::And(a, b) => a.eval(table, row)? && b.eval(table, row)?,
            Predicate::Or(a, b) => a.eval(table, row)? || b.eval(table, row)?,
            Predicate::Not(p) => !p.eval(table, row)?,
        })
    }
}

/// A table: schema plus rows in insertion order, with optional hash
/// indexes on integer/text columns ("accelerate data access and
/// extraction methods", §IV-F).
#[derive(Debug, Clone)]
pub struct Table {
    /// Column definitions.
    pub columns: Vec<Column>,
    rows: Vec<Row>,
    indexed_columns: Vec<String>,
    /// column index → key → row positions; built by `create_index` and
    /// kept current by `insert`.
    indexes: std::collections::HashMap<usize, std::collections::HashMap<IndexKey, Vec<usize>>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        // Indexes are derived state; equality is schema + data.
        self.columns == other.columns
            && self.rows == other.rows
            && self.indexed_columns == other.indexed_columns
    }
}

impl Table {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Self {
            columns,
            rows: Vec::new(),
            indexed_columns: Vec::new(),
            indexes: Default::default(),
        }
    }

    /// Creates a hash index on an integer/text column; subsequent `Eq`
    /// lookups on it avoid the full scan. Idempotent.
    pub fn create_index(&mut self, column: &str) -> Result<(), StoreError> {
        let idx = self.column_index(column)?;
        match self.columns[idx].ctype {
            ColumnType::Integer | ColumnType::Text => {}
            other => return Err(err(format!("cannot index {other:?} column '{column}'"))),
        }
        if !self.indexed_columns.contains(&column.to_string()) {
            self.indexed_columns.push(column.to_string());
        }
        self.rebuild_index(idx);
        Ok(())
    }

    /// True if the column has a hash index.
    pub fn is_indexed(&self, column: &str) -> bool {
        self.indexed_columns.iter().any(|c| c == column)
    }

    fn rebuild_index(&mut self, col: usize) {
        let mut map: std::collections::HashMap<IndexKey, Vec<usize>> = Default::default();
        for (pos, row) in self.rows.iter().enumerate() {
            if let Some(key) = IndexKey::of(&row[col]) {
                map.entry(key).or_default().push(pos);
            }
        }
        self.indexes.insert(col, map);
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
        for (r, row) in self.rows.iter().enumerate() {
            out.extend_from_slice(if r > 0 { b",[" } else { b"[" });
            for (i, (value, column)) in row.iter().zip(&self.columns).enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                match value {
                    SqlValue::Null => out.extend_from_slice(b"null"),
                    SqlValue::Int(v) => {
                        out.extend_from_slice(b"{\"int\":");
                        json::write_i64(out, *v);
                        out.push(b'}');
                    }
                    SqlValue::Real(v) if !v.is_finite() => {
                        return Err(err(format!(
                            "save: table '{name}', column '{}': {v} has no JSON form",
                            column.name
                        )))
                    }
                    SqlValue::Real(v) => {
                        out.extend_from_slice(b"{\"real\":");
                        json::write_f64(out, *v);
                        out.push(b'}');
                    }
                    SqlValue::Text(s) => json::write_str(out, s),
                    SqlValue::Blob(b) => json::write_bytes(out, b),
                }
            }
            out.push(b']');
        }
        out.extend_from_slice(b"]}");
        Ok(())
    }

    /// Reads one table's package form. Members may come in any order, and
    /// the first of a repeated member counts; rows go through
    /// [`Self::insert`] once the columns are known, and each declared
    /// index is built once, after the last row.
    fn read(r: &mut Reader<'_>) -> Result<Self, String> {
        let (mut columns, mut rows, mut indexed) = (None, None, None);
        r.begin_object()?;
        let mut first = true;
        while let Some(key) = r.next_key(&mut first)? {
            match &*key {
                "columns" if columns.is_none() => columns = Some(read_columns(r)?),
                "rows" if rows.is_none() => rows = Some(read_rows(r)?),
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
        let mut table = Table::new(columns.ok_or("table without 'columns'")?);
        for row in rows.ok_or("table without 'rows'")? {
            table.insert(row).map_err(|e| e.0)?;
        }
        for column in indexed.unwrap_or_default() {
            table.create_index(&column).map_err(|e| e.0)?;
        }
        Ok(table)
    }

    /// Index lookup for an `Eq` predicate head, if applicable.
    fn index_candidates(&self, predicate: &Predicate) -> Option<&[usize]> {
        let (col_name, value) = match predicate {
            Predicate::Eq(c, v) => (c, v),
            Predicate::And(a, _) => {
                if let Predicate::Eq(c, v) = a.as_ref() {
                    (c, v)
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        let col = self.column_index(col_name).ok()?;
        let map = self.indexes.get(&col)?;
        let key = IndexKey::of(value)?;
        Some(map.get(&key).map(Vec::as_slice).unwrap_or(&[]))
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

    /// Inserts a row after checking arity and types.
    pub fn insert(&mut self, row: Row) -> Result<(), StoreError> {
        if row.len() != self.columns.len() {
            return Err(err(format!(
                "arity mismatch: {} values for {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if !v.matches(c.ctype) {
                return Err(err(format!(
                    "type mismatch in column '{}': {:?} is not {:?}",
                    c.name, v, c.ctype
                )));
            }
        }
        let pos = self.rows.len();
        for (&col, map) in &mut self.indexes {
            if let Some(key) = IndexKey::of(&row[col]) {
                map.entry(key).or_default().push(pos);
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Filtered selection, optionally ordered by a column. Uses a hash
    /// index when the predicate is (or starts with) an `Eq` on an indexed
    /// column.
    pub fn select(
        &self,
        predicate: &Predicate,
        order_by: Option<&str>,
    ) -> Result<Vec<&Row>, StoreError> {
        let mut out = Vec::new();
        match self.index_candidates(predicate) {
            Some(candidates) => {
                for &pos in candidates {
                    let row = &self.rows[pos];
                    if predicate.eval(self, row)? {
                        out.push(row);
                    }
                }
            }
            None => {
                for row in &self.rows {
                    if predicate.eval(self, row)? {
                        out.push(row);
                    }
                }
            }
        }
        if let Some(col) = order_by {
            let idx = self.column_index(col)?;
            out.sort_by(|a, b| a[idx].cmp_sql(&b[idx]));
        }
        Ok(out)
    }

    /// Values of one column, filtered.
    pub fn column_values(
        &self,
        column: &str,
        predicate: &Predicate,
    ) -> Result<Vec<SqlValue>, StoreError> {
        let idx = self.column_index(column)?;
        Ok(self
            .select(predicate, None)?
            .into_iter()
            .map(|r| r[idx].clone())
            .collect())
    }

    /// Number of matching rows.
    pub fn count(&self, predicate: &Predicate) -> Result<usize, StoreError> {
        Ok(self.select(predicate, None)?.len())
    }

    /// Numeric aggregate over a column (NULLs and non-numeric cells are
    /// skipped). Returns `None` when no numeric value matched.
    pub fn aggregate(
        &self,
        column: &str,
        predicate: &Predicate,
        agg: Aggregate,
    ) -> Result<Option<f64>, StoreError> {
        let values: Vec<f64> = self
            .column_values(column, predicate)?
            .iter()
            .filter_map(SqlValue::as_real)
            .collect();
        if values.is_empty() {
            return Ok(None);
        }
        Ok(Some(match agg {
            Aggregate::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregate::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregate::Sum => values.iter().sum(),
            Aggregate::Avg => values.iter().sum::<f64>() / values.len() as f64,
        }))
    }

    /// Distinct values of a column, in SQL order.
    pub fn distinct(
        &self,
        column: &str,
        predicate: &Predicate,
    ) -> Result<Vec<SqlValue>, StoreError> {
        let mut values = self.column_values(column, predicate)?;
        values.sort_by(SqlValue::cmp_sql);
        values.dedup_by(|a, b| a.cmp_sql(b) == std::cmp::Ordering::Equal);
        Ok(values)
    }
}

/// Aggregation functions for [`Table::aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Avg,
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

    /// Loads a database from a file written by [`Self::save`], with its
    /// declared indexes built.
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

fn read_rows(r: &mut Reader<'_>) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    r.begin_array()?;
    let mut first = true;
    while r.next_element(&mut first)? {
        let mut row = Vec::new();
        r.begin_array()?;
        let mut first_cell = true;
        while r.next_element(&mut first_cell)? {
            row.push(read_cell(r)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

fn read_cell(r: &mut Reader<'_>) -> Result<SqlValue, String> {
    match r.kind()? {
        Kind::Null => r.null().map(|()| SqlValue::Null),
        Kind::String => Ok(SqlValue::Text(r.string()?.into_owned())),
        Kind::Array => r.byte_array().map(SqlValue::Blob),
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
            match (int.flatten(), real.flatten()) {
                (Some(Number::Int(i)), _) => Ok(SqlValue::Int(i)),
                (_, Some(Number::Int(i))) => Ok(SqlValue::Real(i as f64)),
                (_, Some(Number::Float(f))) => Ok(SqlValue::Real(f)),
                _ => Err("unknown tagged cell value".into()),
            }
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
    fn select_with_predicates() {
        let t = people();
        let adults = t
            .select(&Predicate::Gt("age".into(), SqlValue::Int(30)), None)
            .unwrap();
        assert_eq!(adults.len(), 1);
        assert_eq!(adults[0][0].as_text(), Some("ada"));

        let both = t
            .select(
                &Predicate::Eq("name".into(), "bob".into())
                    .or(Predicate::Eq("name".into(), "cyd".into())),
                Some("name"),
            )
            .unwrap();
        assert_eq!(both.len(), 2);
        assert_eq!(both[0][0].as_text(), Some("bob"));

        let not_bob = t
            .select(
                &Predicate::Not(Box::new(Predicate::Eq("name".into(), "bob".into()))),
                None,
            )
            .unwrap();
        assert_eq!(not_bob.len(), 2);
    }

    #[test]
    fn nulls_sort_first_and_compare_unequal() {
        let t = people();
        let sorted = t.select(&Predicate::True, Some("age")).unwrap();
        assert_eq!(sorted[0][1], SqlValue::Null);
        // NULL = NULL is true under cmp_sql (simplified tri-state logic).
        let nulls = t
            .count(&Predicate::Eq("age".into(), SqlValue::Null))
            .unwrap();
        assert_eq!(nulls, 1);
    }

    #[test]
    fn unknown_column_is_error() {
        let t = people();
        assert!(t
            .select(&Predicate::Eq("nope".into(), SqlValue::Int(1)), None)
            .is_err());
        assert!(t.select(&Predicate::True, Some("nope")).is_err());
    }

    #[test]
    fn column_values_and_count() {
        let t = people();
        let names = t.column_values("name", &Predicate::True).unwrap();
        assert_eq!(names.len(), 3);
        assert_eq!(
            t.count(&Predicate::Lt("height".into(), SqlValue::Real(1.8)))
                .unwrap(),
            2
        );
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            SqlValue::Int(2).cmp_sql(&SqlValue::Real(2.0)),
            std::cmp::Ordering::Equal
        );
        assert_eq!(
            SqlValue::Int(1).cmp_sql(&SqlValue::Real(1.5)),
            std::cmp::Ordering::Less
        );
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
    fn aggregates_and_distinct() {
        let t = people();
        let avg = t
            .aggregate("age", &Predicate::True, Aggregate::Avg)
            .unwrap()
            .unwrap();
        assert!(
            (avg - 30.5).abs() < 1e-12,
            "mean of 36 and 25 (NULL skipped)"
        );
        assert_eq!(
            t.aggregate("age", &Predicate::True, Aggregate::Min)
                .unwrap(),
            Some(25.0)
        );
        assert_eq!(
            t.aggregate("age", &Predicate::True, Aggregate::Max)
                .unwrap(),
            Some(36.0)
        );
        assert_eq!(
            t.aggregate("age", &Predicate::True, Aggregate::Sum)
                .unwrap(),
            Some(61.0)
        );
        // Empty match yields None.
        assert_eq!(
            t.aggregate(
                "age",
                &Predicate::Gt("age".into(), SqlValue::Int(99)),
                Aggregate::Avg
            )
            .unwrap(),
            None
        );
        // Distinct on text column.
        let names = t.distinct("name", &Predicate::True).unwrap();
        assert_eq!(names.len(), 3);
        // Text aggregate yields None (non-numeric skipped).
        assert_eq!(
            t.aggregate("name", &Predicate::True, Aggregate::Avg)
                .unwrap(),
            None
        );
    }

    #[test]
    fn index_accelerated_select_matches_scan() {
        let mut t = Table::new(vec![
            Column::new("run", ColumnType::Integer),
            Column::new("name", ColumnType::Text),
        ]);
        for i in 0..500i64 {
            t.insert(vec![SqlValue::Int(i % 10), format!("n{}", i % 7).into()])
                .unwrap();
        }
        let scan: Vec<Row> = t
            .select(&Predicate::Eq("run".into(), SqlValue::Int(3)), None)
            .unwrap()
            .into_iter()
            .cloned()
            .collect();
        t.create_index("run").unwrap();
        assert!(t.is_indexed("run"));
        let indexed: Vec<Row> = t
            .select(&Predicate::Eq("run".into(), SqlValue::Int(3)), None)
            .unwrap()
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(scan, indexed);
        // And with a compound predicate headed by the indexed Eq.
        let compound = Predicate::Eq("run".into(), SqlValue::Int(3))
            .and(Predicate::Eq("name".into(), "n3".into()));
        let mut t2 = t.clone();
        t2.indexed_columns.clear();
        t2.indexes.clear();
        assert_eq!(
            t.select(&compound, None).unwrap(),
            t2.select(&compound, None).unwrap()
        );
        // Inserts after index creation are covered.
        t.insert(vec![SqlValue::Int(3), "fresh".into()]).unwrap();
        let after = t
            .select(&Predicate::Eq("run".into(), SqlValue::Int(3)), None)
            .unwrap();
        assert_eq!(after.len(), indexed.len() + 1);
        // Missing key returns empty fast.
        assert!(t
            .select(&Predicate::Eq("run".into(), SqlValue::Int(999)), None)
            .unwrap()
            .is_empty());
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
        assert_eq!(
            t.select(&Predicate::Eq("k".into(), SqlValue::Int(2)), None)
                .unwrap()
                .len(),
            10
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn value_conversions() {
        assert_eq!(SqlValue::from(5i64), SqlValue::Int(5));
        assert_eq!(SqlValue::from(5u64), SqlValue::Int(5));
        assert_eq!(SqlValue::from(2.5), SqlValue::Real(2.5));
        assert_eq!(SqlValue::from("x"), SqlValue::Text("x".into()));
        assert_eq!(SqlValue::from(vec![1u8]), SqlValue::Blob(vec![1]));
        assert_eq!(SqlValue::Int(3).as_real(), Some(3.0));
        assert_eq!(SqlValue::Blob(vec![7]).as_blob(), Some(&[7u8][..]));
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
    fn load_accepts_members_in_any_order_and_builds_declared_indexes() {
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
            t.rows(),
            &[
                vec![SqlValue::Int(2), "b".into(), SqlValue::Real(3.0)],
                vec![SqlValue::Null, "a".into(), SqlValue::Real(0.5)],
            ]
        );
        assert!(t.is_indexed("k"));
        assert_eq!(t.indexed_columns, vec!["k".to_string()]);
        assert_eq!(
            t.select(&Predicate::Eq("k".into(), SqlValue::Int(2)), None)
                .unwrap()
                .len(),
            1
        );
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
            .rows
            .iter()
            .map(|r| JsonValue::Array(r.iter().map(cell_to_json).collect()))
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
        let same_cell = |x: &SqlValue, y: &SqlValue| match (x, y) {
            (SqlValue::Real(p), SqlValue::Real(q)) => p.to_bits() == q.to_bits(),
            _ => x == y,
        };
        a.tables.len() == b.tables.len()
            && a.tables.iter().zip(&b.tables).all(|((na, ta), (nb, tb))| {
                na == nb
                    && ta.columns == tb.columns
                    && ta.indexed_columns == tb.indexed_columns
                    && ta.rows.len() == tb.rows.len()
                    && ta.rows.iter().zip(&tb.rows).all(|(ra, rb)| {
                        ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| same_cell(x, y))
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
