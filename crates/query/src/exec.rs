//! Parallel scan execution with deterministic, partition-ordered merge.
//!
//! Partitions are scanned concurrently via the workspace's fan-out
//! primitive ([`excovery_obs::par::run_indexed`]), which returns
//! per-partition results in partition order regardless of scheduling. Aggregate partials are
//! then merged serially in that fixed order, so every scan is
//! bit-identical at any worker count.
//!
//! Before any row is read, [`PlanCtx::plan_partition`] decides each
//! partition from its statistics (slab footers when spilled, the slabs
//! when resident): pruned, answered from its row count, or scanned — with
//! the filter, or without it when every row provably matches. A scan
//! evaluates the filter column at a time into a selection bitmap and
//! visits the selected rows in ascending order.
//!
//! The pieces are factored so three callers share one code path and
//! therefore one byte-exact semantics:
//!
//! * [`execute`] — a one-shot [`Scan::collect`], over resident or
//!   spilled partitions alike;
//! * the incremental layer (`incremental.rs`) reuses [`PlanCtx`],
//!   [`scan_partition_agg`], [`merge_groups`] and [`finalize_agg_frame`]
//!   to refresh standing queries one partition at a time;
//! * spilled datasets (`spill.rs`) are decided from footer statistics
//!   and loaded lazily inside the same fan-out.

use crate::agg::{Agg, AggPartial};
use crate::column::{
    selected_rows, Bitmap, CellRef, ColumnStats, ColumnTable, Slab, StringPool, Value,
};
use crate::dataset::{Dataset, Partition, TableSchema};
use crate::error::QueryError;
use crate::expr::{Decision, Expr};
use crate::plan::{Frame, Scan};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

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

/// The key every row of a column shares, when its statistics prove
/// there is one: an integer column whose min equals its max with no
/// NULLs, or a column of NULLs only.
fn constant_key(s: ColumnStats) -> Option<Key> {
    match s.range {
        _ if s.rows > 0 && s.nulls == s.rows => Some(Key::Null),
        Some(r) if s.nulls == 0 && r.min == r.max => Some(Key::I64(r.min)),
        _ => None,
    }
}

/// The SQL order (see `expr.rs`) over key cells: NULL < numbers < text <
/// blob.
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

/// What one partition contributes to a plan, decided from its
/// statistics before any of its rows is read.
pub(crate) enum PartPlan {
    /// No row matches the filter.
    Pruned,
    /// Every row matches and the aggregates read no column: the groups
    /// follow from the row count and the statistics alone.
    Answered(GroupMap),
    /// The partition's `rows` rows are read; `filtered` is false when
    /// every row provably matches, so no filter runs.
    Scan { filtered: bool, rows: usize },
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

    /// One empty partial per aggregate.
    fn fresh_partials(&self) -> Vec<AggPartial> {
        self.aggs
            .iter()
            .zip(&self.agg_float)
            .map(|(a, &f)| AggPartial::new(&a.spec, f))
            .collect()
    }

    /// Decides what a partition holding `rows` rows of the scanned table
    /// contributes, from the statistics of its columns alone. One-shot
    /// scans over resident and spilled partitions and standing queries
    /// all ask this, so they all take the same path.
    pub(crate) fn plan_partition(
        &self,
        rows: usize,
        stats: &dyn Fn(&str) -> Option<ColumnStats>,
    ) -> PartPlan {
        match self
            .filter
            .as_ref()
            .map_or(Decision::All, |f| f.decide(stats))
        {
            Decision::None => PartPlan::Pruned,
            Decision::Some => PartPlan::Scan {
                filtered: true,
                rows,
            },
            Decision::All => match self.answer_from_stats(rows, stats) {
                Some(groups) => PartPlan::Answered(groups),
                None => PartPlan::Scan {
                    filtered: false,
                    rows,
                },
            },
        }
    }

    /// The groups of a partition whose every row matches, when they
    /// follow from the row count: the aggregates read no column (`COUNT`)
    /// and every group column is constant by its statistics.
    fn answer_from_stats(
        &self,
        rows: usize,
        stats: &dyn Fn(&str) -> Option<ColumnStats>,
    ) -> Option<GroupMap> {
        if !self.aggregate_mode() || self.agg_cols.iter().any(Option::is_some) {
            return None;
        }
        let key = self
            .group_by
            .iter()
            .map(|c| stats(c).and_then(constant_key))
            .collect::<Option<Vec<Key>>>()?;
        let mut groups = GroupMap::default();
        if rows > 0 {
            let mut partials = self.fresh_partials();
            for p in &mut partials {
                p.update_rows(rows);
            }
            groups.insert(key, partials);
        }
        Some(groups)
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
    execute_ctx(ds, &ctx, scan.workers)
}

pub(crate) fn execute_ctx(
    ds: &Dataset,
    ctx: &PlanCtx,
    workers: usize,
) -> Result<Frame, QueryError> {
    // Every partition is decided before any row is read — from slab
    // footers for spilled datasets (no IO beyond the already-read
    // footers), from the resident slabs otherwise.
    let mut plans: Vec<(Sel<'_>, PartPlan)> = Vec::new();
    if let Some(store) = &ds.spill {
        for (i, footer) in store.footers().enumerate() {
            if let Some(rows) = footer.table_rows(&ctx.table) {
                let stats = |c: &str| footer.column_stats(&ctx.table, c);
                plans.push((Sel::Spilled(i), ctx.plan_partition(rows as usize, &stats)));
            }
        }
    } else {
        for p in &ds.partitions {
            if let Some(t) = p.tables.get(&ctx.table) {
                let stats = |c: &str| t.column_stats(c);
                plans.push((Sel::Resident(p), ctx.plan_partition(t.rows, &stats)));
            }
        }
    }
    if excovery_obs::enabled() {
        let (mut scanned, mut pruned, mut answered, mut rows_read) = (0u64, 0u64, 0u64, 0u64);
        for (_, plan) in &plans {
            match plan {
                PartPlan::Pruned => pruned += 1,
                PartPlan::Answered(_) => answered += 1,
                PartPlan::Scan { rows, .. } => {
                    scanned += 1;
                    rows_read += *rows as u64;
                }
            }
        }
        let reg = excovery_obs::global();
        reg.counter("query_partitions_scanned_total", &[])
            .add(scanned);
        reg.counter("query_partitions_pruned_total", &[])
            .add(pruned);
        reg.counter("query_partitions_answered_from_stats_total", &[])
            .add(answered);
        reg.counter("query_rows_scanned_total", &[]).add(rows_read);
    }

    let scans: Vec<(&Sel<'_>, bool)> = plans
        .iter()
        .filter_map(|(sel, plan)| match plan {
            PartPlan::Scan { filtered, .. } => Some((sel, *filtered)),
            _ => None,
        })
        .collect();
    if ctx.aggregate_mode() {
        let mut partials = excovery_obs::par::run_indexed(workers, scans.len(), |i| {
            let (sel, filtered) = scans[i];
            timed_partition_scan(|| {
                with_table(ds, ctx, sel, |t| {
                    scan_partition_agg(ctx, t, &ds.pool, filtered)
                })
            })
        })
        .into_iter();
        // Serial merge in partition order: per-group merge order is
        // fixed, so float merges are deterministic too.
        let mut master = GroupMap::default();
        for (_, plan) in plans {
            let groups = match plan {
                PartPlan::Pruned => continue,
                PartPlan::Answered(groups) => groups,
                PartPlan::Scan { .. } => {
                    partials.next().expect("one result per scanned partition")?
                }
            };
            merge_groups(&mut master, groups);
        }
        Ok(finalize_agg_frame(ctx, master, &ds.pool))
    } else {
        let chunks = excovery_obs::par::run_indexed(workers, scans.len(), |i| {
            let (sel, filtered) = scans[i];
            timed_partition_scan(|| {
                with_table(ds, ctx, sel, |t| {
                    scan_partition_rows(ctx, t, &ds.pool, filtered)
                })
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

/// Runs `f` on the scanned table of one selected partition, loading it
/// first when spilled. The loaded `Arc` lives for the duration of the
/// call, so eviction during a concurrent scan can never invalidate it.
fn with_table<T>(
    ds: &Dataset,
    ctx: &PlanCtx,
    sel: &Sel<'_>,
    f: impl FnOnce(&ColumnTable) -> Result<T, QueryError>,
) -> Result<T, QueryError> {
    match sel {
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
    // row: count 0, everything else NULL — as SQL has it.
    if ctx.group_by.is_empty() && master.is_empty() {
        master.insert(Vec::new(), ctx.fresh_partials());
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

/// The rows of a partition a scan visits: `None` for every row (no
/// filter, or every row provably matches), else the kernels' selection.
fn selection(
    ctx: &PlanCtx,
    t: &ColumnTable,
    pool: &StringPool,
    filtered: bool,
) -> Result<Option<Bitmap>, QueryError> {
    match &ctx.filter {
        Some(f) if filtered => Ok(Some(f.bind(&ctx.table, t, pool)?.select(t, pool))),
        _ => Ok(None),
    }
}

pub(crate) fn scan_partition_agg(
    ctx: &PlanCtx,
    t: &ColumnTable,
    pool: &StringPool,
    filtered: bool,
) -> Result<GroupMap, QueryError> {
    let sel = selection(ctx, t, pool, filtered)?;
    let sel = sel.as_ref();
    if sel.map_or(t.rows, Bitmap::count_ones) == 0 {
        return Ok(GroupMap::default());
    }
    // When the statistics prove the group key constant (true of the
    // partition column itself in every run partition, and of a global
    // aggregate), every selected row lands in one group, with no per-row
    // key to compute.
    let constant = ctx
        .group_by
        .iter()
        .map(|c| t.column_stats(c).and_then(constant_key))
        .collect::<Option<Vec<Key>>>();
    if let Some(key) = constant {
        let mut partials = ctx.fresh_partials();
        fold_columns(ctx, t, sel, &mut partials);
        let mut groups = GroupMap::default();
        groups.insert(key, partials);
        return Ok(groups);
    }
    // A single text or integer group column is keyed by its pool id or
    // value, with no per-row `Key`; anything else by the key cells.
    Ok(match ctx.group_cols[..] {
        [c] => match &t.slabs[c] {
            Slab::Str { ids, nulls } => fold_groups(
                ctx,
                t,
                sel,
                |i| (!nulls.get(i)).then(|| ids[i]),
                |k| vec![k.map_or(Key::Null, Key::Str)],
            ),
            Slab::I64 { vals, nulls, .. } => fold_groups(
                ctx,
                t,
                sel,
                |i| (!nulls.get(i)).then(|| vals[i]),
                |k| vec![k.map_or(Key::Null, Key::I64)],
            ),
            slab => fold_groups(ctx, t, sel, |i| key_of(slab.get(i)), |k| vec![k]),
        },
        _ => fold_groups(
            ctx,
            t,
            sel,
            |i| {
                ctx.group_cols
                    .iter()
                    .map(|&c| key_of(t.slabs[c].get(i)))
                    .collect::<Vec<Key>>()
            },
            |k| k,
        ),
    })
}

/// Folds every selected row into one group's partials, one aggregate
/// column at a time.
fn fold_columns(ctx: &PlanCtx, t: &ColumnTable, sel: Option<&Bitmap>, partials: &mut [AggPartial]) {
    for (partial, col) in partials.iter_mut().zip(&ctx.agg_cols) {
        match col {
            Some(c) => partial.update_slab(&t.slabs[*c], sel),
            None => partial.update_rows(sel.map_or(t.rows, Bitmap::count_ones)),
        }
    }
}

/// Groups the selected rows by `key_at(row)` and folds every aggregate
/// in, row by row in ascending order. Consecutive rows mostly share a
/// key, so the last one is remembered and the map is consulted only
/// when the key changes. A selection that turns out to hold one key is
/// folded a column at a time instead.
fn fold_groups<K: Hash + Eq + Clone>(
    ctx: &PlanCtx,
    t: &ColumnTable,
    sel: Option<&Bitmap>,
    key_at: impl Fn(usize) -> K,
    to_key: impl Fn(K) -> Vec<Key>,
) -> GroupMap {
    let mut rows = selected_rows(sel, t.rows);
    let first = key_at(rows.next().expect("the selection is not empty"));
    if rows.all(|i| key_at(i) == first) {
        let mut partials = ctx.fresh_partials();
        fold_columns(ctx, t, sel, &mut partials);
        return std::iter::once((to_key(first), partials)).collect();
    }
    let mut slots: FxMap<K, usize> = FxMap::default();
    let mut groups: Vec<(K, Vec<AggPartial>)> = Vec::new();
    let mut last: Option<(K, usize)> = None;
    selected_rows(sel, t.rows).for_each(|i| {
        let key = key_at(i);
        let slot = match &last {
            Some((k, slot)) if *k == key => *slot,
            _ => {
                let slot = *slots.entry(key.clone()).or_insert_with(|| {
                    groups.push((key.clone(), ctx.fresh_partials()));
                    groups.len() - 1
                });
                last = Some((key, slot));
                slot
            }
        };
        for (partial, col) in groups[slot].1.iter_mut().zip(&ctx.agg_cols) {
            partial.update(col.map_or(CellRef::Null, |c| t.slabs[c].get(i)));
        }
    });
    // `finalize_agg_frame` orders groups in the SQL order, which calls some
    // distinct keys equal (NaN, ±0.0, integers that round to one double);
    // those keep the iteration order of the merged map, which follows
    // from how each partition's map is built. Frames depend on it, so it
    // is fixed: keys inserted in first-appearance order, for one group
    // column into a map keyed by the bare cell and then rekeyed.
    let groups = groups
        .into_iter()
        .map(|(k, partials)| (to_key(k), partials));
    if let [_] = ctx.group_cols[..] {
        let mut by_cell: FxMap<Key, Vec<AggPartial>> = FxMap::default();
        for (mut key, partials) in groups {
            by_cell.insert(key.pop().expect("one key cell"), partials);
        }
        by_cell
            .into_iter()
            .map(|(k, partials)| (vec![k], partials))
            .collect()
    } else {
        let mut map = GroupMap::default();
        for (key, partials) in groups {
            map.insert(key, partials);
        }
        map
    }
}

pub(crate) fn scan_partition_rows(
    ctx: &PlanCtx,
    t: &ColumnTable,
    pool: &StringPool,
    filtered: bool,
) -> Result<Vec<Vec<Value>>, QueryError> {
    let sel = selection(ctx, t, pool, filtered)?;
    let mut idx: Vec<usize> = selected_rows(sel.as_ref(), t.rows).collect();
    if let Some(c) = ctx.sort_col {
        // Stable: equal keys keep insertion order.
        sort_rows(&mut idx, &t.slabs[c], pool);
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

/// Sorts row indices by one column in the SQL order of its cells:
/// NULLs first, numbers as `f64` (integers converted, a NaN equal to
/// everything), text by string, blobs by bytes. The comparator is typed
/// per slab kind and answers every pair as the per-cell order does,
/// so the stable `sort_by` yields the same permutation.
fn sort_rows(idx: &mut [usize], slab: &Slab, pool: &StringPool) {
    let nulls = (slab.null_count() > 0).then(|| slab.nulls());
    match slab {
        Slab::I64 { vals, .. } => {
            sort_by_cells(idx, nulls, |a, b| cmp_num(vals[a] as f64, vals[b] as f64))
        }
        Slab::F64 { vals, .. } => sort_by_cells(idx, nulls, |a, b| cmp_num(vals[a], vals[b])),
        Slab::Str { ids, .. } => {
            let rank = string_ranks(ids, idx, nulls, pool);
            sort_by_cells(idx, nulls, |a, b| rank[a].cmp(&rank[b]))
        }
        Slab::Bytes { offsets, data, .. } => {
            let cell = |i: usize| &data[offsets[i]..offsets[i + 1]];
            sort_by_cells(idx, nulls, |a, b| cell(a).cmp(cell(b)))
        }
    }
}

fn cmp_num(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// Stable `sort_by` that puts NULL rows first, equal among themselves,
/// and orders non-NULL rows by `cmp`.
fn sort_by_cells(
    idx: &mut [usize],
    nulls: Option<&Bitmap>,
    cmp: impl Fn(usize, usize) -> Ordering,
) {
    match nulls {
        None => idx.sort_by(|&a, &b| cmp(a, b)),
        Some(n) => idx.sort_by(|&a, &b| match (n.get(a), n.get(b)) {
            (false, false) => cmp(a, b),
            (a_null, b_null) => b_null.cmp(&a_null),
        }),
    }
}

/// Each listed non-NULL row's rank among the distinct strings of those
/// rows, indexed by row. Interned strings are distinct, so the ranks
/// order rows exactly as their strings do.
fn string_ranks(
    ids: &[u32],
    rows: &[usize],
    nulls: Option<&Bitmap>,
    pool: &StringPool,
) -> Vec<u32> {
    let listed = || {
        rows.iter()
            .copied()
            .filter(|&i| nulls.is_none_or(|n| !n.get(i)))
    };
    let mut distinct: Vec<u32> = listed().map(|i| ids[i]).collect();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.sort_unstable_by(|&a, &b| pool.resolve(a).cmp(pool.resolve(b)));
    let rank_of: FxMap<u32, u32> = (0u32..).zip(distinct).map(|(r, id)| (id, r)).collect();
    let mut rank = vec![0; ids.len()];
    for i in listed() {
        rank[i] = rank_of[&ids[i]];
    }
    rank
}

/// The SQL order over cells of one column: the order the typed sort
/// comparator is tested against.
#[cfg(test)]
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

#[cfg(test)]
mod tests;
