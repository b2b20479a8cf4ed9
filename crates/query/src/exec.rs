//! Parallel scan execution with deterministic, partition-ordered merge.
//!
//! Partitions are scanned concurrently via the campaign fan-out primitive
//! (`excovery_netsim::run_indexed`), which returns per-partition results
//! in partition order regardless of scheduling. Aggregate partials are
//! then merged serially in that fixed order, so every scan is
//! bit-identical at any worker count — the same determinism contract the
//! replication campaigns established.
//!
//! The pieces are factored so three callers share one code path and
//! therefore one byte-exact semantics:
//!
//! * [`execute`] — a one-shot [`Scan::collect`], over resident or
//!   spilled partitions alike;
//! * the incremental layer (`incremental.rs`) reuses [`PlanCtx`],
//!   [`scan_partition_agg`], [`merge_groups`] and [`finalize_agg_frame`]
//!   to refresh standing queries one partition at a time;
//! * spilled datasets (`spill.rs`) are pruned from footer statistics and
//!   loaded lazily inside the same fan-out.

use crate::agg::{Agg, AggPartial};
use crate::column::{CellRef, ColumnTable, Slab, StringPool, Value};
use crate::dataset::{Dataset, Partition, TableSchema};
use crate::error::QueryError;
use crate::expr::Expr;
use crate::plan::{Frame, Scan};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (FxHash-style) for the group-by maps. Map iteration
/// order never reaches the result (group keys are sorted before emission,
/// and merges are keyed), so SipHash's DoS resistance buys nothing in the
/// scan hot loop while costing most of its time.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

const FX_SEED: u64 = 0x517cc1b727220a95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FX_SEED);
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(FX_SEED);
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(FX_SEED);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FX_SEED);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Per-partition (and merged) group-by state: group key → one partial
/// per aggregate.
pub(crate) type GroupMap = FxMap<Vec<Key>, Vec<AggPartial>>;

/// A hashable group-by key cell (floats by bit pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    Null,
    I64(i64),
    F64(u64),
    Str(u32),
    Bytes(Vec<u8>),
}

fn key_of(cell: CellRef<'_>) -> Key {
    match cell {
        CellRef::Null => Key::Null,
        CellRef::I64(v) => Key::I64(v),
        CellRef::F64(v) => Key::F64(v.to_bits()),
        CellRef::Str(id) => Key::Str(id),
        CellRef::Bytes(b) => Key::Bytes(b.to_vec()),
    }
}

fn key_value(key: &Key, pool: &StringPool) -> Value {
    match key {
        Key::Null => Value::Null,
        Key::I64(v) => Value::I64(*v),
        Key::F64(bits) => Value::F64(f64::from_bits(*bits)),
        Key::Str(id) => Value::Str(pool.resolve(*id).to_string()),
        Key::Bytes(b) => Value::Bytes(b.clone()),
    }
}

/// `cmp_sql` over key cells: NULL < numbers < text < blob.
fn cmp_key(a: &Key, b: &Key, pool: &StringPool) -> Ordering {
    fn kind(k: &Key) -> u8 {
        match k {
            Key::Null => 0,
            Key::I64(_) | Key::F64(_) => 1,
            Key::Str(_) => 2,
            Key::Bytes(_) => 3,
        }
    }
    fn num(k: &Key) -> f64 {
        match k {
            Key::I64(v) => *v as f64,
            Key::F64(bits) => f64::from_bits(*bits),
            _ => unreachable!(),
        }
    }
    kind(a).cmp(&kind(b)).then_with(|| match (a, b) {
        (Key::Null, Key::Null) => Ordering::Equal,
        (Key::Str(x), Key::Str(y)) => pool.resolve(*x).cmp(pool.resolve(*y)),
        (Key::Bytes(x), Key::Bytes(y)) => x.cmp(y),
        _ => num(a).partial_cmp(&num(b)).unwrap_or(Ordering::Equal),
    })
}

/// `cmp_sql` over cells of one column (used by `sort_by`).
fn cmp_cells(a: CellRef<'_>, b: CellRef<'_>, pool: &StringPool) -> Ordering {
    fn kind(c: &CellRef<'_>) -> u8 {
        match c {
            CellRef::Null => 0,
            CellRef::I64(_) | CellRef::F64(_) => 1,
            CellRef::Str(_) => 2,
            CellRef::Bytes(_) => 3,
        }
    }
    fn num(c: CellRef<'_>) -> f64 {
        match c {
            CellRef::I64(v) => v as f64,
            CellRef::F64(v) => v,
            _ => unreachable!(),
        }
    }
    kind(&a).cmp(&kind(&b)).then_with(|| match (a, b) {
        (CellRef::Null, CellRef::Null) => Ordering::Equal,
        (CellRef::Str(x), CellRef::Str(y)) => pool.resolve(x).cmp(pool.resolve(y)),
        (CellRef::Bytes(x), CellRef::Bytes(y)) => x.cmp(y),
        (a, b) => num(a).partial_cmp(&num(b)).unwrap_or(Ordering::Equal),
    })
}

/// A fully resolved logical plan over one table schema: column names
/// validated and bound to indices, independent of any one partition (or
/// dataset). Built once per query, shared by every partition scan.
#[derive(Debug, Clone)]
pub(crate) struct PlanCtx {
    pub(crate) table: String,
    pub(crate) filter: Option<Expr>,
    pub(crate) group_by: Vec<String>,
    pub(crate) aggs: Vec<Agg>,
    pub(crate) project: Vec<String>,
    pub(crate) proj_cols: Vec<usize>,
    pub(crate) sort_col: Option<usize>,
    pub(crate) group_cols: Vec<usize>,
    pub(crate) agg_cols: Vec<Option<usize>>,
    pub(crate) agg_float: Vec<bool>,
    /// Every column the plan actually reads — the projected-decode set
    /// handed to the spill loader so unreferenced columns stay on disk.
    pub(crate) needed: Vec<String>,
}

impl PlanCtx {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        schema: &TableSchema,
        table: String,
        filter: Option<Expr>,
        group_by: Vec<String>,
        aggs: Vec<Agg>,
        project: Option<Vec<String>>,
        sort: Option<String>,
        pool: &StringPool,
    ) -> Result<Self, QueryError> {
        let col_index =
            |name: &str| -> Result<usize, QueryError> {
                schema.names.iter().position(|n| n == name).ok_or_else(|| {
                    QueryError::NoSuchColumn {
                        table: table.clone(),
                        column: name.to_string(),
                    }
                })
            };
        let group_cols: Vec<usize> = group_by
            .iter()
            .map(|c| col_index(c))
            .collect::<Result<_, _>>()?;
        let agg_cols: Vec<Option<usize>> = aggs
            .iter()
            .map(|a| a.input_column().map(&col_index).transpose())
            .collect::<Result<_, _>>()?;
        let agg_float: Vec<bool> = agg_cols
            .iter()
            .map(|c| c.is_some_and(|i| schema.kinds[i] == excovery_store::ColumnType::Real))
            .collect();
        let project: Vec<String> = project.unwrap_or_else(|| schema.names.clone());
        let proj_cols: Vec<usize> = project
            .iter()
            .map(|c| col_index(c))
            .collect::<Result<_, _>>()?;
        let sort_col = sort.as_deref().map(&col_index).transpose()?;
        // Validate the filter's shape and column names once, against an
        // empty table of the scanned schema (per-partition binding would
        // miss tables absent from every partition).
        if let Some(f) = &filter {
            let probe = ColumnTable::new(schema.names.clone(), schema.empty_slabs());
            f.bind(&table, &probe, pool)?;
        }
        let mut needed: std::collections::BTreeSet<String> = group_by.iter().cloned().collect();
        for a in &aggs {
            if let Some(c) = a.input_column() {
                needed.insert(c.to_string());
            }
        }
        if let Some(f) = &filter {
            f.collect_columns(&mut needed);
        }
        if aggs.is_empty() && group_by.is_empty() {
            needed.extend(project.iter().cloned());
            if let Some(s) = &sort {
                needed.insert(s.clone());
            }
        }
        Ok(Self {
            table,
            filter,
            group_by,
            aggs,
            project,
            proj_cols,
            sort_col,
            group_cols,
            agg_cols,
            agg_float,
            needed: needed.into_iter().collect(),
        })
    }

    pub(crate) fn aggregate_mode(&self) -> bool {
        !self.aggs.is_empty() || !self.group_by.is_empty()
    }
}

/// One selected partition: resident in the dataset, or a spill slot.
enum Sel<'a> {
    Resident(&'a Partition),
    Spilled(usize),
}

pub(crate) fn execute(scan: Scan<'_>) -> Result<Frame, QueryError> {
    let ds = scan.ds;
    let schema = ds.schema(&scan.table)?;
    let ctx = PlanCtx::new(
        schema,
        scan.table.clone(),
        scan.filter.clone(),
        scan.group_by.clone(),
        scan.aggs.clone(),
        scan.project.clone(),
        scan.sort.clone(),
        &ds.pool,
    )?;
    let workers = scan
        .workers
        .unwrap_or_else(excovery_netsim::workers_from_env);
    execute_ctx(ds, &ctx, workers)
}

pub(crate) fn execute_ctx(
    ds: &Dataset,
    ctx: &PlanCtx,
    workers: usize,
) -> Result<Frame, QueryError> {
    // Partition selection with min/max pruning — from slab footers for
    // spilled datasets (no IO beyond the already-read footers), from the
    // resident slabs otherwise.
    let mut parts: Vec<Sel<'_>> = Vec::new();
    let mut pruned = 0usize;
    let mut rows_total = 0usize;
    if let Some(store) = &ds.spill {
        for (i, footer) in store.footers().enumerate() {
            let Some(rows) = footer.table_rows(&ctx.table) else {
                continue;
            };
            if let Some(f) = &ctx.filter {
                let stats = |col: &str| footer.int_column_stats(&ctx.table, col);
                if f.prunes(&stats) {
                    pruned += 1;
                    continue;
                }
            }
            rows_total += rows as usize;
            parts.push(Sel::Spilled(i));
        }
    } else {
        for p in &ds.partitions {
            let Some(t) = p.tables.get(&ctx.table) else {
                continue;
            };
            if let Some(f) = &ctx.filter {
                let stats = |col: &str| p.int_column_stats(&ctx.table, col);
                if f.prunes(&stats) {
                    pruned += 1;
                    continue;
                }
            }
            rows_total += t.rows;
            parts.push(Sel::Resident(p));
        }
    }
    if excovery_obs::enabled() {
        let reg = excovery_obs::global();
        reg.counter("query_partitions_scanned_total", &[])
            .add(parts.len() as u64);
        reg.counter("query_partitions_pruned_total", &[])
            .add(pruned as u64);
        reg.counter("query_rows_scanned_total", &[])
            .add(rows_total as u64);
    }

    // Scans one selected partition, loading it first when spilled. The
    // loaded `Arc` lives for the duration of the closure, so eviction
    // during a concurrent scan can never invalidate it.
    let with_table =
        |sel: &Sel<'_>, f: &mut dyn FnMut(&ColumnTable) -> Result<GroupMap, QueryError>| match sel {
            Sel::Resident(p) => f(p.tables.get(&ctx.table).expect("selected table present")),
            Sel::Spilled(slot) => {
                let part = ds
                    .spill
                    .as_ref()
                    .expect("spilled selection")
                    .load_projected(*slot, &ctx.table, &ctx.needed)?;
                f(part
                    .tables
                    .get(&ctx.table)
                    .expect("footer promised this table"))
            }
        };

    if ctx.aggregate_mode() {
        let partials = excovery_netsim::run_indexed(workers, parts.len(), |i| {
            timed_partition_scan(|| {
                with_table(&parts[i], &mut |t| scan_partition_agg(ctx, t, &ds.pool))
            })
        });
        // Serial merge in partition order: per-group merge order is
        // fixed, so float merges are deterministic too.
        let mut master = GroupMap::default();
        for part in partials {
            merge_groups(&mut master, part?);
        }
        Ok(finalize_agg_frame(ctx, master, &ds.pool))
    } else {
        let chunks = excovery_netsim::run_indexed(workers, parts.len(), |i| {
            timed_partition_scan(|| match &parts[i] {
                Sel::Resident(p) => scan_partition_rows(
                    ctx,
                    p.tables.get(&ctx.table).expect("selected table present"),
                    &ds.pool,
                ),
                Sel::Spilled(slot) => {
                    let part = ds
                        .spill
                        .as_ref()
                        .expect("spilled selection")
                        .load_projected(*slot, &ctx.table, &ctx.needed)?;
                    scan_partition_rows(
                        ctx,
                        part.tables
                            .get(&ctx.table)
                            .expect("footer promised this table"),
                        &ds.pool,
                    )
                }
            })
        });
        let mut rows = Vec::new();
        for chunk in chunks {
            rows.extend(chunk?);
        }
        Ok(Frame {
            columns: ctx.project.clone(),
            rows,
        })
    }
}

/// Merges one partition's groups into the master map. Callers must feed
/// partitions in canonical partition order — per-group partial merges
/// then happen in that fixed sequence, which is what keeps float
/// aggregates bit-identical across worker counts and arrival orders.
pub(crate) fn merge_groups(master: &mut GroupMap, part: GroupMap) {
    for (key, partial) in part {
        match master.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                for (a, b) in e.get_mut().iter_mut().zip(&partial) {
                    a.merge(b);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(partial);
            }
        }
    }
}

/// Sorts group keys SQL-style and emits the result frame, synthesising
/// the one-row output of a global aggregate over zero rows — shared by
/// one-shot scans and standing-query refreshes.
pub(crate) fn finalize_agg_frame(ctx: &PlanCtx, mut master: GroupMap, pool: &StringPool) -> Frame {
    // A global aggregate (no group_by) over zero rows still yields one
    // row: count 0, everything else NULL — like the row engine.
    if ctx.group_by.is_empty() && master.is_empty() {
        master.insert(
            Vec::new(),
            ctx.aggs
                .iter()
                .zip(&ctx.agg_float)
                .map(|(a, &f)| AggPartial::new(&a.spec, f))
                .collect(),
        );
    }
    let mut keys: Vec<Vec<Key>> = master.keys().cloned().collect();
    keys.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| cmp_key(x, y, pool))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    let columns: Vec<String> = ctx
        .group_by
        .iter()
        .cloned()
        .chain(ctx.aggs.iter().map(|a| a.name.clone()))
        .collect();
    let rows: Vec<Vec<Value>> = keys
        .iter()
        .map(|key| {
            let partials = &master[key];
            key.iter()
                .map(|k| key_value(k, pool))
                .chain(
                    partials
                        .iter()
                        .zip(&ctx.aggs)
                        .map(|(p, a)| p.finalize(&a.spec)),
                )
                .collect()
        })
        .collect();
    Frame { columns, rows }
}

/// Wraps one partition scan in an optional wall-clock observation.
fn timed_partition_scan<T>(f: impl FnOnce() -> T) -> T {
    let started = excovery_obs::enabled().then(std::time::Instant::now);
    let out = f();
    if let Some(t0) = started {
        excovery_obs::global()
            .histogram("query_partition_scan_ns", &[])
            .observe(t0.elapsed().as_nanos() as u64);
    }
    out
}

pub(crate) fn scan_partition_agg(
    ctx: &PlanCtx,
    t: &ColumnTable,
    pool: &StringPool,
) -> Result<GroupMap, QueryError> {
    let bound = ctx
        .filter
        .as_ref()
        .map(|f| f.bind(&ctx.table, t, pool))
        .transpose()?;
    let fresh_partials = || -> Vec<AggPartial> {
        ctx.aggs
            .iter()
            .zip(&ctx.agg_float)
            .map(|(a, &f)| AggPartial::new(&a.spec, f))
            .collect()
    };
    let update = |partials: &mut Vec<AggPartial>, i: usize| {
        for (partial, col) in partials.iter_mut().zip(&ctx.agg_cols) {
            let cell = match col {
                Some(c) => t.slabs[*c].get(i),
                None => CellRef::Null,
            };
            partial.update(cell);
        }
    };
    let groups = if let [gc] = ctx.group_cols[..] {
        // Constant-key fast path: when the single group column is an
        // integer slab whose min == max with no nulls (true of the
        // partition column itself in every run partition), the whole
        // partition is one group — fold each aggregate column-at-a-time
        // with no per-row hashing. Row order is preserved inside each
        // column, so results stay bit-identical to the hashed path.
        if bound.is_none() && t.rows > 0 {
            if let Slab::I64 { .. } = &t.slabs[gc] {
                if let Some(s) = t.slabs[gc].int_stats() {
                    if s.min == s.max && t.slabs[gc].null_count() == 0 {
                        let mut partials = fresh_partials();
                        for (partial, col) in partials.iter_mut().zip(&ctx.agg_cols) {
                            match col {
                                Some(c) => partial.update_slab(&t.slabs[*c]),
                                None => partial.update_rows(t.rows),
                            }
                        }
                        let mut m = GroupMap::default();
                        m.insert(vec![Key::I64(s.min)], partials);
                        return Ok(m);
                    }
                }
            }
        }
        // Single group column (the overwhelmingly common shape): key the
        // map by the bare `Key` so the hot loop allocates nothing per row.
        let mut fast: FxMap<Key, Vec<AggPartial>> = FxMap::default();
        for i in 0..t.rows {
            if let Some(b) = &bound {
                if !b.eval(t, i, pool) {
                    continue;
                }
            }
            let partials = fast
                .entry(key_of(t.slabs[gc].get(i)))
                .or_insert_with(fresh_partials);
            update(partials, i);
        }
        fast.into_iter().map(|(k, v)| (vec![k], v)).collect()
    } else {
        let mut groups = GroupMap::default();
        for i in 0..t.rows {
            if let Some(b) = &bound {
                if !b.eval(t, i, pool) {
                    continue;
                }
            }
            let key: Vec<Key> = ctx
                .group_cols
                .iter()
                .map(|&c| key_of(t.slabs[c].get(i)))
                .collect();
            let partials = groups.entry(key).or_insert_with(fresh_partials);
            update(partials, i);
        }
        groups
    };
    Ok(groups)
}

pub(crate) fn scan_partition_rows(
    ctx: &PlanCtx,
    t: &ColumnTable,
    pool: &StringPool,
) -> Result<Vec<Vec<Value>>, QueryError> {
    let bound = ctx
        .filter
        .as_ref()
        .map(|f| f.bind(&ctx.table, t, pool))
        .transpose()?;
    let mut idx: Vec<usize> = (0..t.rows)
        .filter(|&i| bound.as_ref().is_none_or(|b| b.eval(t, i, pool)))
        .collect();
    if let Some(c) = ctx.sort_col {
        let slab = &t.slabs[c];
        // Stable, like the row engine's ORDER BY: equal keys keep
        // insertion order.
        idx.sort_by(|&a, &b| cmp_cells(slab.get(a), slab.get(b), pool));
    }
    Ok(idx
        .into_iter()
        .map(|i| {
            ctx.proj_cols
                .iter()
                .map(|&c| t.slabs[c].value(i, pool))
                .collect()
        })
        .collect())
}
