//! On-disk column slabs: one binary, mmap-able file per partition.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0..4)  magic "EXQS"
//! [4..8)  format version u32
//! [8..)   column data blocks, one per (table, column), addressed by
//!         footer offsets — dictionary ids for text, run-length runs or
//!         plain arrays for fixed-width columns, raw arenas for blobs
//! footer  partition metadata: schema, per-column encoding + offset,
//!         null counts, integer min/max statistics, the file-local
//!         string dictionary and resident-size estimates
//! [-20..) footer offset u64 | footer length u64 | magic "EXQF"
//! ```
//!
//! The trailer makes the footer reachable with two small reads, so the
//! spill layer answers `table_rows` and min/max pruning questions without
//! decoding a single data block. Data blocks are plain `std::fs` reads
//! here; the offsets-plus-trailer layout is exactly what an `mmap`-based
//! reader would want, without taking a platform dependency.
//!
//! Encodings per column kind:
//!
//! * `I64`/`F64`/`Str` — run-length runs `(null?, length, value)` when
//!   that is smaller, otherwise a plain value array followed by the
//!   packed null bitmap words. Run keys compare `f64` by bit pattern, so
//!   decode is exact.
//! * `Str` values are ids into a **file-local** dictionary (first
//!   appearance order) stored in the footer; the spill layer merges each
//!   file's dictionary into the dataset's global [`StringPool`] once at
//!   open time and hands decode a remap table, keeping the pool
//!   immutable during scans.
//! * `Bytes` — plain only: `rows + 1` offsets, the packed arena, the
//!   null bitmap.

use crate::column::{Bitmap, ColumnStats, ColumnTable, IntStats, Slab, StringPool};
use crate::dataset::Partition;
use crate::error::QueryError;
use excovery_store::ColumnType;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// File extension of partition slab files (`part-000042.slab`).
pub(crate) const SLAB_FILE_EXTENSION: &str = "slab";

const SLAB_MAGIC: &[u8; 4] = b"EXQS";
const FOOTER_MAGIC: &[u8; 4] = b"EXQF";
const FORMAT_VERSION: u32 = 1;
const TRAILER_LEN: u64 = 8 + 8 + 4;

/// Per-column physical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Encoding {
    /// Plain value array plus packed null-bitmap words.
    Plain,
    /// Run-length runs of `(null flag, run length, value)`.
    Rle,
}

/// Footer metadata of one column block.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnMeta {
    /// Column name.
    pub name: String,
    /// Column type affinity.
    pub kind: ColumnType,
    /// Physical encoding of the data block.
    pub encoding: Encoding,
    /// Number of NULL cells.
    pub null_count: u64,
    /// Integer min/max over non-null cells (integer columns only).
    pub int_stats: Option<IntStats>,
    offset: u64,
    len: u64,
}

/// Footer metadata of one table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableMeta {
    /// Table name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Per-column metadata, in schema order.
    pub columns: Vec<ColumnMeta>,
}

/// The decoded footer of a partition slab file: everything a reader
/// needs to prune, account for, or decode the partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionFooter {
    /// Partition column of the owning dataset (`RunID` by default).
    pub partition_column: String,
    /// Experiment (package) id the rows came from.
    pub experiment: String,
    /// Index of the package in ingest order.
    pub experiment_index: u64,
    /// Partition-column value; `None` for the meta partition.
    pub key: Option<i64>,
    /// File-local string dictionary, in first-appearance order.
    pub dict: Vec<String>,
    /// Per-table metadata.
    pub(crate) tables: Vec<TableMeta>,
    /// Total size of the encoded data blocks.
    pub encoded_bytes: u64,
    /// Estimated resident size of the decoded partition (platform-fixed
    /// arithmetic, so the estimate is deterministic everywhere).
    pub decoded_bytes: u64,
}

impl PartitionFooter {
    /// Row count of `table` in this partition, if present.
    pub(crate) fn table_rows(&self, table: &str) -> Option<u64> {
        self.tables.iter().find(|t| t.name == table).map(|t| t.rows)
    }

    /// The statistics of a column of `table` — the footer-level twin of
    /// `ColumnTable::column_stats`, so a partition is decided without
    /// being loaded.
    pub(crate) fn column_stats(&self, table: &str, column: &str) -> Option<ColumnStats> {
        let t = self.tables.iter().find(|t| t.name == table)?;
        let c = t.columns.iter().find(|c| c.name == column)?;
        Some(ColumnStats {
            kind: c.kind,
            rows: t.rows as usize,
            nulls: c.null_count as usize,
            range: c.int_stats,
        })
    }
}

/// Deterministic estimate of a partition's decoded resident size, using
/// fixed per-element widths (8-byte lengths/offsets) so the number is
/// identical on every platform. The spill layer budgets with this.
pub(crate) fn partition_resident_bytes(p: &Partition) -> u64 {
    let mut total = 0u64;
    for t in p.tables.values() {
        let words = (t.rows as u64).div_ceil(64) * 8;
        for slab in &t.slabs {
            total += words
                + match slab {
                    Slab::I64 { vals, .. } => vals.len() as u64 * 8,
                    Slab::F64 { vals, .. } => vals.len() as u64 * 8,
                    Slab::Str { ids, .. } => ids.len() as u64 * 4,
                    Slab::Bytes { offsets, data, .. } => {
                        offsets.len() as u64 * 8 + data.len() as u64
                    }
                };
        }
    }
    total
}

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> QueryError {
    QueryError::Io(format!("{ctx} {}: {e}", path.display()))
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> QueryError {
    QueryError::Corrupt(format!("{}: {what}", path.display()))
}

// ---------------------------------------------------------------------
// Binary writer/reader helpers.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(
        out,
        u32::try_from(s.len()).expect("string too long for slab file"),
    );
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over a decoded byte section; every overrun is
/// a typed [`QueryError::Corrupt`], never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], QueryError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                QueryError::Corrupt(format!("truncated section: need {n} more bytes"))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, QueryError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, QueryError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, QueryError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, QueryError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, QueryError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| QueryError::Corrupt("non-UTF-8 string in footer".into()))
    }

    /// Guards a declared element count against the bytes that remain, so
    /// a hostile count cannot trigger a huge allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, QueryError> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() - self.pos {
            return Err(QueryError::Corrupt(format!(
                "declared count {n} exceeds section size"
            )));
        }
        Ok(n)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------
// Column block encode/decode.
// ---------------------------------------------------------------------

/// One run of equal cells: `(is_null, length, value bits)`.
fn runs_of<T: PartialEq + Copy>(
    rows: usize,
    cell: impl Fn(usize) -> (bool, T),
) -> Vec<(bool, u32, T)> {
    let mut runs: Vec<(bool, u32, T)> = Vec::new();
    for i in 0..rows {
        let (null, v) = cell(i);
        match runs.last_mut() {
            Some((n, len, rv)) if *n == null && (*n || *rv == v) && *len < u32::MAX => *len += 1,
            _ => runs.push((null, 1, v)),
        }
    }
    runs
}

/// Encodes one slab, choosing the smaller of RLE and plain.
fn encode_slab(slab: &Slab, rows: usize, local_ids: Option<&[u32]>) -> (Encoding, Vec<u8>) {
    let words = rows.div_ceil(64);
    match slab {
        Slab::I64 { vals, nulls, .. } => {
            let runs = runs_of(rows, |i| (nulls.get(i), vals[i]));
            let rle_size = 8 + runs
                .iter()
                .map(|(n, ..)| if *n { 5 } else { 13 })
                .sum::<usize>();
            if rle_size < rows * 8 + words * 8 {
                let mut out = Vec::with_capacity(rle_size);
                put_u64(&mut out, runs.len() as u64);
                for (null, len, v) in runs {
                    out.push(null as u8);
                    put_u32(&mut out, len);
                    if !null {
                        put_i64(&mut out, v);
                    }
                }
                (Encoding::Rle, out)
            } else {
                let mut out = Vec::with_capacity(rows * 8 + words * 8);
                for v in vals {
                    put_i64(&mut out, *v);
                }
                for w in nulls.words() {
                    put_u64(&mut out, *w);
                }
                (Encoding::Plain, out)
            }
        }
        Slab::F64 { vals, nulls } => {
            let runs = runs_of(rows, |i| (nulls.get(i), vals[i].to_bits()));
            let rle_size = 8 + runs
                .iter()
                .map(|(n, ..)| if *n { 5 } else { 13 })
                .sum::<usize>();
            if rle_size < rows * 8 + words * 8 {
                let mut out = Vec::with_capacity(rle_size);
                put_u64(&mut out, runs.len() as u64);
                for (null, len, bits) in runs {
                    out.push(null as u8);
                    put_u32(&mut out, len);
                    if !null {
                        put_u64(&mut out, bits);
                    }
                }
                (Encoding::Rle, out)
            } else {
                let mut out = Vec::with_capacity(rows * 8 + words * 8);
                for v in vals {
                    put_u64(&mut out, v.to_bits());
                }
                for w in nulls.words() {
                    put_u64(&mut out, *w);
                }
                (Encoding::Plain, out)
            }
        }
        Slab::Str { nulls, .. } => {
            // `local_ids` already carries the file-local dictionary ids.
            let ids = local_ids.expect("string slab without local ids");
            let runs = runs_of(rows, |i| (nulls.get(i), ids[i]));
            let rle_size = 8 + runs
                .iter()
                .map(|(n, ..)| if *n { 5 } else { 9 })
                .sum::<usize>();
            if rle_size < rows * 4 + words * 8 {
                let mut out = Vec::with_capacity(rle_size);
                put_u64(&mut out, runs.len() as u64);
                for (null, len, id) in runs {
                    out.push(null as u8);
                    put_u32(&mut out, len);
                    if !null {
                        put_u32(&mut out, id);
                    }
                }
                (Encoding::Rle, out)
            } else {
                let mut out = Vec::with_capacity(rows * 4 + words * 8);
                for id in ids {
                    put_u32(&mut out, *id);
                }
                for w in nulls.words() {
                    put_u64(&mut out, *w);
                }
                (Encoding::Plain, out)
            }
        }
        Slab::Bytes {
            offsets,
            data,
            nulls,
        } => {
            let mut out = Vec::with_capacity((rows + 1) * 8 + data.len() + words * 8);
            for o in offsets {
                put_u64(&mut out, *o as u64);
            }
            out.extend_from_slice(data);
            for w in nulls.words() {
                put_u64(&mut out, *w);
            }
            (Encoding::Plain, out)
        }
    }
}

/// Reads `rows` null-bitmap words off the tail of a plain block.
fn read_bitmap(r: &mut Reader<'_>, rows: usize) -> Result<Bitmap, QueryError> {
    let words = bulk_u64(r, rows.div_ceil(64))?;
    Ok(Bitmap::from_raw(words, rows))
}

/// Bulk-decodes `n` little-endian u64 values with one bounds check —
/// the hot path of plain blocks (`chunks_exact` vectorises cleanly,
/// where a per-value `Reader` round trip does not).
fn bulk_u64(r: &mut Reader<'_>, n: usize) -> Result<Vec<u64>, QueryError> {
    Ok(r.take(n.saturating_mul(8))?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

fn bulk_i64(r: &mut Reader<'_>, n: usize) -> Result<Vec<i64>, QueryError> {
    Ok(r.take(n.saturating_mul(8))?
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

fn bulk_u32(r: &mut Reader<'_>, n: usize) -> Result<Vec<u32>, QueryError> {
    Ok(r.take(n.saturating_mul(4))?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Decodes RLE runs: each run stores its value once; `on_run` fires
/// once per run with its length (`None` for null runs), so decoders can
/// append whole runs instead of paying a call per covered row.
fn decode_runs<T: Copy>(
    r: &mut Reader<'_>,
    rows: usize,
    mut read_value: impl FnMut(&mut Reader<'_>) -> Result<T, QueryError>,
    mut on_run: impl FnMut(Option<T>, usize),
) -> Result<(), QueryError> {
    let runs = r.count(5)?;
    let mut total = 0usize;
    for _ in 0..runs {
        let is_null = r.u8()? != 0;
        let len = r.u32()? as usize;
        total += len;
        if total > rows {
            return Err(QueryError::Corrupt("run lengths exceed row count".into()));
        }
        if is_null {
            on_run(None, len);
        } else {
            on_run(Some(read_value(r)?), len);
        }
    }
    if total != rows {
        return Err(QueryError::Corrupt(format!(
            "runs cover {total} rows, expected {rows}"
        )));
    }
    Ok(())
}

fn decode_slab(
    meta: &ColumnMeta,
    bytes: &[u8],
    rows: usize,
    remap: &[u32],
) -> Result<Slab, QueryError> {
    let mut r = Reader::new(bytes);
    let slab = match (meta.kind, meta.encoding) {
        (ColumnType::Integer, Encoding::Plain) => Slab::I64 {
            vals: bulk_i64(&mut r, rows)?,
            nulls: read_bitmap(&mut r, rows)?,
            stats: meta.int_stats,
        },
        (ColumnType::Integer, Encoding::Rle) => {
            let mut vals = Vec::with_capacity(rows);
            let mut nulls = Bitmap::new();
            decode_runs(
                &mut r,
                rows,
                |r| r.i64(),
                |v, len| {
                    vals.resize(vals.len() + len, v.unwrap_or(0));
                    nulls.push_n(v.is_none(), len);
                },
            )?;
            Slab::I64 {
                vals,
                nulls,
                stats: meta.int_stats,
            }
        }
        (ColumnType::Real, Encoding::Plain) => Slab::F64 {
            vals: bulk_u64(&mut r, rows)?
                .into_iter()
                .map(f64::from_bits)
                .collect(),
            nulls: read_bitmap(&mut r, rows)?,
        },
        (ColumnType::Real, Encoding::Rle) => {
            let mut vals = Vec::with_capacity(rows);
            let mut nulls = Bitmap::new();
            decode_runs(
                &mut r,
                rows,
                |r| r.u64(),
                |bits, len| {
                    vals.resize(vals.len() + len, f64::from_bits(bits.unwrap_or(0)));
                    nulls.push_n(bits.is_none(), len);
                },
            )?;
            Slab::F64 { vals, nulls }
        }
        (ColumnType::Text, enc) => {
            let global = |local: u32| -> Result<u32, QueryError> {
                remap
                    .get(local as usize)
                    .copied()
                    .ok_or_else(|| QueryError::Corrupt(format!("dangling dictionary id {local}")))
            };
            match enc {
                Encoding::Plain => {
                    let locals = bulk_u32(&mut r, rows)?;
                    let nulls = read_bitmap(&mut r, rows)?;
                    let mut ids = Vec::with_capacity(rows);
                    for (i, l) in locals.into_iter().enumerate() {
                        // Null rows carry id 0, which may dangle in an
                        // empty dictionary; they are never resolved.
                        ids.push(if nulls.get(i) { 0 } else { global(l)? });
                    }
                    Slab::Str { ids, nulls }
                }
                Encoding::Rle => {
                    let mut ids = Vec::with_capacity(rows);
                    let mut nulls = Bitmap::new();
                    decode_runs(
                        &mut r,
                        rows,
                        |r| global(r.u32()?),
                        |id, len| {
                            ids.resize(ids.len() + len, id.unwrap_or(0));
                            nulls.push_n(id.is_none(), len);
                        },
                    )?;
                    Slab::Str { ids, nulls }
                }
            }
        }
        (ColumnType::Blob, Encoding::Plain) => {
            let offsets: Vec<usize> = bulk_u64(&mut r, rows + 1)?
                .into_iter()
                .map(|v| v as usize)
                .collect();
            if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(QueryError::Corrupt("non-monotonic blob offsets".into()));
            }
            let data = r.take(offsets[rows])?.to_vec();
            Slab::Bytes {
                offsets,
                data,
                nulls: read_bitmap(&mut r, rows)?,
            }
        }
        (ColumnType::Blob, Encoding::Rle) => {
            return Err(QueryError::Corrupt("blob columns are never RLE".into()));
        }
    };
    if !r.done() {
        return Err(QueryError::Corrupt(format!(
            "{} trailing bytes after column block",
            bytes.len() - r.pos
        )));
    }
    Ok(slab)
}

// ---------------------------------------------------------------------
// Whole-file encode.
// ---------------------------------------------------------------------

/// Serializes one partition to `path` (written atomically). Strings are
/// re-keyed from the dataset's global pool into a file-local dictionary,
/// so slab files are self-contained and relocatable across datasets.
pub(crate) fn write_partition(
    path: &Path,
    partition_column: &str,
    p: &Partition,
    pool: &StringPool,
) -> Result<PartitionFooter, QueryError> {
    let mut dict: Vec<String> = Vec::new();
    let mut local_of: HashMap<u32, u32> = HashMap::new();
    let mut data: Vec<u8> = Vec::new();
    let mut tables: Vec<TableMeta> = Vec::new();
    for (name, t) in &p.tables {
        let mut columns = Vec::with_capacity(t.slabs.len());
        for (cname, slab) in t.names.iter().zip(&t.slabs) {
            // File-local dictionary ids, assigned in first-appearance
            // order (deterministic for a given partition).
            let local_ids: Option<Vec<u32>> = match slab {
                Slab::Str { ids, nulls } => Some(
                    ids.iter()
                        .enumerate()
                        .map(|(i, gid)| {
                            if nulls.get(i) {
                                return 0;
                            }
                            *local_of.entry(*gid).or_insert_with(|| {
                                let l = dict.len() as u32;
                                dict.push(pool.resolve(*gid).to_string());
                                l
                            })
                        })
                        .collect(),
                ),
                _ => None,
            };
            let (encoding, block) = encode_slab(slab, t.rows, local_ids.as_deref());
            columns.push(ColumnMeta {
                name: cname.clone(),
                kind: slab.kind(),
                encoding,
                null_count: slab.null_count() as u64,
                int_stats: slab.int_stats(),
                offset: 8 + data.len() as u64,
                len: block.len() as u64,
            });
            data.extend_from_slice(&block);
        }
        tables.push(TableMeta {
            name: name.clone(),
            rows: t.rows as u64,
            columns,
        });
    }
    let footer = PartitionFooter {
        partition_column: partition_column.to_string(),
        experiment: p.experiment.clone(),
        experiment_index: p.experiment_index as u64,
        key: p.key,
        dict,
        tables,
        encoded_bytes: data.len() as u64,
        decoded_bytes: partition_resident_bytes(p),
    };

    let mut file = Vec::with_capacity(8 + data.len() + 256);
    file.extend_from_slice(SLAB_MAGIC);
    put_u32(&mut file, FORMAT_VERSION);
    file.extend_from_slice(&data);
    let footer_offset = file.len() as u64;
    encode_footer(&mut file, &footer);
    let footer_len = file.len() as u64 - footer_offset;
    put_u64(&mut file, footer_offset);
    put_u64(&mut file, footer_len);
    file.extend_from_slice(FOOTER_MAGIC);
    excovery_store::atomic_write(path, &file).map_err(|e| QueryError::Io(e.0))?;
    if excovery_obs::enabled() {
        excovery_obs::global()
            .counter("query_slab_bytes_written_total", &[])
            .add(file.len() as u64);
    }
    Ok(footer)
}

fn encode_footer(out: &mut Vec<u8>, f: &PartitionFooter) {
    put_str(out, &f.partition_column);
    put_str(out, &f.experiment);
    put_u64(out, f.experiment_index);
    match f.key {
        None => out.push(0),
        Some(k) => {
            out.push(1);
            put_i64(out, k);
        }
    }
    put_u64(out, f.encoded_bytes);
    put_u64(out, f.decoded_bytes);
    put_u64(out, f.dict.len() as u64);
    for s in &f.dict {
        put_str(out, s);
    }
    put_u64(out, f.tables.len() as u64);
    for t in &f.tables {
        put_str(out, &t.name);
        put_u64(out, t.rows);
        put_u64(out, t.columns.len() as u64);
        for c in &t.columns {
            put_str(out, &c.name);
            out.push(match c.kind {
                ColumnType::Integer => 0,
                ColumnType::Real => 1,
                ColumnType::Text => 2,
                ColumnType::Blob => 3,
            });
            out.push(match c.encoding {
                Encoding::Plain => 0,
                Encoding::Rle => 1,
            });
            put_u64(out, c.offset);
            put_u64(out, c.len);
            put_u64(out, c.null_count);
            match c.int_stats {
                None => out.push(0),
                Some(s) => {
                    out.push(1);
                    put_i64(out, s.min);
                    put_i64(out, s.max);
                }
            }
        }
    }
}

fn decode_footer(bytes: &[u8], path: &Path) -> Result<PartitionFooter, QueryError> {
    let mut r = Reader::new(bytes);
    let partition_column = r.str()?;
    let experiment = r.str()?;
    let experiment_index = r.u64()?;
    let key = match r.u8()? {
        0 => None,
        1 => Some(r.i64()?),
        t => return Err(corrupt(path, format!("bad key tag {t}"))),
    };
    let encoded_bytes = r.u64()?;
    let decoded_bytes = r.u64()?;
    let dict: Vec<String> = (0..r.count(4)?)
        .map(|_| r.str())
        .collect::<Result<_, _>>()?;
    let ntables = r.count(1)?;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = r.str()?;
        let rows = r.u64()?;
        let ncols = r.count(1)?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = r.str()?;
            let kind = match r.u8()? {
                0 => ColumnType::Integer,
                1 => ColumnType::Real,
                2 => ColumnType::Text,
                3 => ColumnType::Blob,
                t => return Err(corrupt(path, format!("bad column kind {t}"))),
            };
            let encoding = match r.u8()? {
                0 => Encoding::Plain,
                1 => Encoding::Rle,
                t => return Err(corrupt(path, format!("bad encoding tag {t}"))),
            };
            let offset = r.u64()?;
            let len = r.u64()?;
            let null_count = r.u64()?;
            let int_stats = match r.u8()? {
                0 => None,
                1 => Some(IntStats {
                    min: r.i64()?,
                    max: r.i64()?,
                }),
                t => return Err(corrupt(path, format!("bad stats tag {t}"))),
            };
            columns.push(ColumnMeta {
                name: cname,
                kind,
                encoding,
                null_count,
                int_stats,
                offset,
                len,
            });
        }
        tables.push(TableMeta {
            name,
            rows,
            columns,
        });
    }
    if !r.done() {
        return Err(corrupt(path, "trailing bytes after footer"));
    }
    Ok(PartitionFooter {
        partition_column,
        experiment,
        experiment_index,
        key,
        dict,
        tables,
        encoded_bytes,
        decoded_bytes,
    })
}

// ---------------------------------------------------------------------
// Whole-file decode.
// ---------------------------------------------------------------------

/// Reads only the footer of a slab file: two small seeks, no data-block
/// IO. This is what makes stats-based pruning and byte budgeting free
/// for cold partitions.
pub(crate) fn read_footer(path: &Path) -> Result<PartitionFooter, QueryError> {
    let mut f = std::fs::File::open(path).map_err(|e| io_err("open", path, e))?;
    let size = f.metadata().map_err(|e| io_err("stat", path, e))?.len();
    if size < 8 + TRAILER_LEN {
        return Err(corrupt(path, "file smaller than header + trailer"));
    }
    let mut head = [0u8; 8];
    f.read_exact(&mut head)
        .map_err(|e| io_err("read", path, e))?;
    if &head[0..4] != SLAB_MAGIC {
        return Err(corrupt(path, "bad header magic"));
    }
    let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(corrupt(
            path,
            format!("unsupported format version {version}"),
        ));
    }
    f.seek(SeekFrom::End(-(TRAILER_LEN as i64)))
        .map_err(|e| io_err("seek", path, e))?;
    let mut trailer = [0u8; TRAILER_LEN as usize];
    f.read_exact(&mut trailer)
        .map_err(|e| io_err("read", path, e))?;
    if &trailer[16..20] != FOOTER_MAGIC {
        return Err(corrupt(path, "bad trailer magic"));
    }
    let footer_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
    let footer_len = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
    if footer_offset
        .checked_add(footer_len)
        .is_none_or(|end| end > size - TRAILER_LEN)
    {
        return Err(corrupt(path, "footer span out of bounds"));
    }
    f.seek(SeekFrom::Start(footer_offset))
        .map_err(|e| io_err("seek", path, e))?;
    let mut buf = vec![0u8; footer_len as usize];
    f.read_exact(&mut buf)
        .map_err(|e| io_err("read", path, e))?;
    decode_footer(&buf, path)
}

/// Decodes the partition body. `remap` maps file-local dictionary ids to
/// global [`StringPool`] ids (one entry per `footer.dict` string) — the
/// pool itself is not touched, so concurrent scans can share it freely.
pub(crate) fn read_partition(
    path: &Path,
    footer: &PartitionFooter,
    remap: &[u32],
) -> Result<Partition, QueryError> {
    read_partition_impl(path, footer, remap, None)
}

/// Projected decode: reads only the named `columns` of `table`. Other
/// tables are omitted entirely and unrequested columns of the target
/// table become empty placeholder slabs (right name, right kind, footer
/// stats, zero rows of data) — callers must only touch the columns they
/// asked for. The executor's plan context guarantees exactly that, which
/// is what lets a narrow aggregate over a wide warehouse skip most of
/// the decode work.
pub(crate) fn read_partition_projected(
    path: &Path,
    footer: &PartitionFooter,
    remap: &[u32],
    table: &str,
    columns: &[String],
) -> Result<Partition, QueryError> {
    read_partition_impl(path, footer, remap, Some((table, columns)))
}

/// An un-decoded stand-in slab for a projected-out column. Integer
/// placeholders keep the footer stats so pruning answers stay exact.
fn placeholder_slab(meta: &ColumnMeta) -> Slab {
    match meta.kind {
        ColumnType::Integer => Slab::I64 {
            vals: Vec::new(),
            nulls: Bitmap::new(),
            stats: meta.int_stats,
        },
        ColumnType::Real => Slab::F64 {
            vals: Vec::new(),
            nulls: Bitmap::new(),
        },
        ColumnType::Text => Slab::Str {
            ids: Vec::new(),
            nulls: Bitmap::new(),
        },
        ColumnType::Blob => Slab::Bytes {
            offsets: vec![0],
            data: Vec::new(),
            nulls: Bitmap::new(),
        },
    }
}

fn read_partition_impl(
    path: &Path,
    footer: &PartitionFooter,
    remap: &[u32],
    keep: Option<(&str, &[String])>,
) -> Result<Partition, QueryError> {
    if remap.len() != footer.dict.len() {
        return Err(corrupt(
            path,
            format!(
                "remap table has {} entries for {} dictionary strings",
                remap.len(),
                footer.dict.len()
            ),
        ));
    }
    let mut f = std::fs::File::open(path).map_err(|e| io_err("open", path, e))?;
    let size = f.metadata().map_err(|e| io_err("stat", path, e))?.len();
    let mut tables = BTreeMap::new();
    let mut read_total = 0u64;
    for t in &footer.tables {
        if let Some((target, _)) = keep {
            if t.name != target {
                continue;
            }
        }
        let rows = t.rows as usize;
        let mut names = Vec::with_capacity(t.columns.len());
        let mut slabs = Vec::with_capacity(t.columns.len());
        for c in &t.columns {
            if let Some((_, cols)) = keep {
                if !cols.iter().any(|n| n == &c.name) {
                    names.push(c.name.clone());
                    slabs.push(placeholder_slab(c));
                    continue;
                }
            }
            if c.offset.checked_add(c.len).is_none_or(|end| end > size) {
                return Err(corrupt(
                    path,
                    format!("column {:?} span out of bounds", c.name),
                ));
            }
            f.seek(SeekFrom::Start(c.offset))
                .map_err(|e| io_err("seek", path, e))?;
            let mut buf = vec![0u8; c.len as usize];
            f.read_exact(&mut buf)
                .map_err(|e| io_err("read", path, e))?;
            read_total += c.len;
            let slab = decode_slab(c, &buf, rows, remap).map_err(|e| match e {
                QueryError::Corrupt(msg) => corrupt(path, format!("column {:?}: {msg}", c.name)),
                other => other,
            })?;
            names.push(c.name.clone());
            slabs.push(slab);
        }
        let mut table = ColumnTable::new(names, slabs);
        table.rows = rows;
        tables.insert(t.name.clone(), table);
    }
    if excovery_obs::enabled() {
        excovery_obs::global()
            .counter("query_slab_bytes_read_total", &[])
            .add(read_total);
    }
    Ok(Partition {
        experiment: footer.experiment.clone(),
        experiment_index: footer.experiment_index as usize,
        key: footer.key,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;
    use crate::dataset::Dataset;
    use excovery_store::{Column, Database, SqlValue};

    fn sample_db() -> Database {
        use ColumnType::*;
        let mut db = Database::new();
        db.create_table(
            "Events",
            vec![
                Column::new("RunID", Integer),
                Column::new("Kind", Text),
                Column::new("Time", Real),
                Column::new("Payload", Blob),
            ],
        )
        .unwrap();
        for run in 0..3i64 {
            for k in 0..50i64 {
                db.insert(
                    "Events",
                    vec![
                        SqlValue::Int(run),
                        if k % 7 == 0 {
                            SqlValue::Null
                        } else {
                            SqlValue::Text(format!("kind-{}", k % 3))
                        },
                        SqlValue::Real(run as f64 + k as f64 / 10.0),
                        SqlValue::Blob(vec![run as u8; (k % 4) as usize]),
                    ],
                )
                .unwrap();
            }
        }
        db
    }

    /// Interns the footer dictionary into a pool, producing the remap.
    fn remap_into(pool: &mut StringPool, footer: &PartitionFooter) -> Vec<u32> {
        footer.dict.iter().map(|s| pool.intern(s)).collect()
    }

    #[test]
    fn partition_roundtrips_bit_for_bit() {
        let db = sample_db();
        let ds = Dataset::from_database(&db).unwrap();
        let dir = std::env::temp_dir().join(format!("slab-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, p) in ds.partitions.iter().enumerate() {
            let path = dir.join(format!("part-{i:06}.{SLAB_FILE_EXTENSION}"));
            let footer = write_partition(&path, "RunID", p, &ds.pool).unwrap();
            assert_eq!(footer.key, p.key);
            assert_eq!(footer.table_rows("Events"), Some(50));

            let mut pool = StringPool::new();
            let remap = remap_into(&mut pool, &footer);
            let back = read_partition(&path, &footer, &remap).unwrap();
            let (a, b) = (&p.tables["Events"], &back.tables["Events"]);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.names, b.names);
            for row in 0..a.rows {
                for col in 0..a.slabs.len() {
                    let (x, y) = (
                        a.slabs[col].value(row, &ds.pool),
                        b.slabs[col].value(row, &pool),
                    );
                    match (&x, &y) {
                        (Value::F64(l), Value::F64(r)) => assert_eq!(l.to_bits(), r.to_bits()),
                        _ => assert_eq!(x, y, "row {row} col {col}"),
                    }
                }
            }
            // Decoded stats survive for pruning.
            assert_eq!(
                back.tables["Events"].slabs[0].int_stats(),
                p.tables["Events"].slabs[0].int_stats()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_reads_answer_pruning_without_data_io() {
        let db = sample_db();
        let ds = Dataset::from_database(&db).unwrap();
        let dir = std::env::temp_dir().join(format!("slab-ft-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.slab");
        let written = write_partition(&path, "RunID", &ds.partitions[1], &ds.pool).unwrap();
        let footer = read_footer(&path).unwrap();
        assert_eq!(footer, written);
        assert_eq!(footer.partition_column, "RunID");
        assert!(footer.table_rows("Events").is_some());
        assert!(footer.table_rows("Nope").is_none());
        let run = footer.column_stats("Events", "RunID").unwrap();
        assert_eq!(run.range, Some(IntStats { min: 1, max: 1 }));
        assert_eq!(run.nulls, 0);
        // The footer states what the resident slabs state, column by column.
        let events = &ds.partitions[1].tables["Events"];
        for name in &events.names {
            assert_eq!(
                footer.column_stats("Events", name),
                events.column_stats(name),
                "{name}"
            );
        }
        assert_eq!(footer.column_stats("Events", "Kind").unwrap().range, None);
        assert_eq!(footer.column_stats("Events", "Nope"), None);
        assert!(footer.encoded_bytes > 0);
        assert!(footer.decoded_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn constant_columns_choose_rle_and_shrink() {
        let db = sample_db();
        let ds = Dataset::from_database(&db).unwrap();
        let dir = std::env::temp_dir().join(format!("slab-rle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.slab");
        let footer = write_partition(&path, "RunID", &ds.partitions[0], &ds.pool).unwrap();
        let run_id = footer.tables[0]
            .columns
            .iter()
            .find(|c| c.name == "RunID")
            .unwrap();
        assert_eq!(run_id.encoding, Encoding::Rle, "constant RunID should RLE");
        assert!(
            footer.encoded_bytes < footer.decoded_bytes,
            "encoded {} !< decoded {}",
            footer.encoded_bytes,
            footer.decoded_bytes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_files_are_typed_errors_not_panics() {
        let dir = std::env::temp_dir().join(format!("slab-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.slab");

        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(read_footer(&path), Err(QueryError::Corrupt(_))));

        let mut junk = Vec::new();
        junk.extend_from_slice(b"NOPE\x01\x00\x00\x00");
        junk.extend_from_slice(&[0u8; 32]);
        std::fs::write(&path, &junk).unwrap();
        assert!(matches!(read_footer(&path), Err(QueryError::Corrupt(_))));

        // Valid header/trailer but a footer that lies about its span.
        let db = sample_db();
        let ds = Dataset::from_database(&db).unwrap();
        let good = dir.join("good.slab");
        write_partition(&good, "RunID", &ds.partitions[0], &ds.pool).unwrap();
        let mut bytes = std::fs::read(&good).unwrap();
        let n = bytes.len();
        bytes[n - 20..n - 12].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_footer(&path), Err(QueryError::Corrupt(_))));

        assert!(matches!(
            read_footer(&dir.join("missing.slab")),
            Err(QueryError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
