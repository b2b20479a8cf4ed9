//! Generated equivalence: the column-at-a-time kernels give what the
//! per-row interpreter they replaced gives, on generated tables and
//! filters. Integer cells sit near ±2⁵³ (where `i64` and `f64` order
//! differ) and at the extremes; float cells include NaN, ±0.0 and ±∞;
//! text literals may or may not be interned; every column can hold
//! NULLs, none, or only NULLs.

use super::*;
use crate::column::IntStats;
use crate::expr::{col, BoundExpr};
use crate::incremental::StandingQuery;
use excovery_store::{Column, ColumnType, Database, SqlValue};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

const TABLE: &str = "T";
/// Column names of the generated table, in schema order.
const COLUMNS: [&str; 5] = ["RunID", "I", "F", "S", "B"];
/// The strings text cells are drawn from; all interned.
const TEXT: [&str; 4] = ["a", "ab", "b", "c"];

/// A generated table, column by column.
#[derive(Debug, Clone)]
struct Rows {
    /// Partition key of row `i` is `i % runs`.
    runs: i64,
    i: Vec<Option<i64>>,
    f: Vec<Option<f64>>,
    s: Vec<Option<String>>,
    b: Vec<Option<Vec<u8>>>,
}

impl Rows {
    fn len(&self) -> usize {
        self.i.len()
    }

    fn run(&self, row: usize) -> i64 {
        row as i64 % self.runs
    }

    /// The rows as one resident table whose strings are interned in
    /// `pool`.
    fn table(&self, pool: &mut StringPool) -> ColumnTable {
        let mut slabs = vec![
            Slab::empty_i64(),
            Slab::empty_i64(),
            Slab::empty_f64(),
            Slab::empty_str(),
            Slab::empty_bytes(),
        ];
        for r in 0..self.len() {
            slabs[0].push_i64(self.run(r));
            match self.i[r] {
                Some(v) => slabs[1].push_i64(v),
                None => slabs[1].push_null(),
            }
            match self.f[r] {
                Some(v) => slabs[2].push_f64(v),
                None => slabs[2].push_null(),
            }
            match &self.s[r] {
                Some(v) => slabs[3].push_str(pool.intern(v)),
                None => slabs[3].push_null(),
            }
            match &self.b[r] {
                Some(v) => slabs[4].push_bytes(v),
                None => slabs[4].push_null(),
            }
        }
        let mut t = ColumnTable::new(COLUMNS.map(String::from).to_vec(), slabs);
        t.rows = self.len();
        t
    }

    /// The rows as a level-3 package, partitioned by `RunID` on ingest.
    fn database(&self) -> Database {
        use ColumnType::{Blob, Integer, Real, Text};
        let mut db = Database::new();
        let kinds = [Integer, Integer, Real, Text, Blob];
        db.create_table(
            TABLE,
            COLUMNS
                .iter()
                .zip(kinds)
                .map(|(n, k)| Column::new(*n, k))
                .collect(),
        )
        .unwrap();
        for r in 0..self.len() {
            let cell = |v: Option<SqlValue>| v.unwrap_or(SqlValue::Null);
            db.insert(
                TABLE,
                vec![
                    SqlValue::Int(self.run(r)),
                    cell(self.i[r].map(SqlValue::Int)),
                    cell(self.f[r].map(SqlValue::Real)),
                    cell(self.s[r].clone().map(SqlValue::Text)),
                    cell(self.b[r].clone().map(SqlValue::Blob)),
                ],
            )
            .unwrap();
        }
        db
    }
}

/// A pool with every string text cells are drawn from interned, so a
/// literal from `TEXT` is interned whether or not a cell holds it.
fn pool() -> StringPool {
    let mut pool = StringPool::new();
    for s in TEXT {
        pool.intern(s);
    }
    pool
}

fn int() -> impl Strategy<Value = i64> {
    const P53: i64 = 1 << 53;
    prop_oneof![
        3 => -3i64..4,
        2 => (P53 - 2)..(P53 + 3),
        1 => (-P53 - 2)..(-P53 + 3),
        1 => prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(i64::MAX - 1)],
    ]
}

fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => (-6i64..7).prop_map(|v| v as f64 / 2.0),
        2 => prop_oneof![
            Just(f64::NAN),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
        1 => int().prop_map(|v| v as f64),
    ]
}

fn text() -> impl Strategy<Value = String> {
    prop_oneof![Just(TEXT[0]), Just(TEXT[1]), Just(TEXT[2]), Just(TEXT[3])].prop_map(String::from)
}

fn blob() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 0..3)
}

/// `n` cells: all present, some NULL, all NULL, or one repeated value
/// (so statistics can decide whole partitions both ways).
fn cells<S: Strategy + Clone + 'static>(values: S, n: usize) -> BoxedStrategy<Vec<Option<S::Value>>>
where
    S::Value: Clone + 'static,
{
    prop_oneof![
        2 => prop::collection::vec(values.clone().prop_map(Some), n),
        3 => prop::collection::vec(prop::option::of(values.clone()), n),
        1 => Just(vec![None; n]),
        1 => values.prop_map(move |v| vec![Some(v); n]),
    ]
    .boxed()
}

fn rows(max: usize) -> impl Strategy<Value = Rows> {
    (0..max, 1i64..4).prop_flat_map(|(n, runs)| {
        (
            cells(int().boxed(), n),
            cells(float().boxed(), n),
            cells(text().boxed(), n),
            cells(blob().boxed(), n),
        )
            .prop_map(move |(i, f, s, b)| Rows { runs, i, f, s, b })
    })
}

fn literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        int().prop_map(Value::I64),
        float().prop_map(Value::F64),
        // "a" and "b" are interned; "aa", "zz" and "" never are.
        prop_oneof![Just("a"), Just("b"), Just("aa"), Just("zz"), Just("")]
            .prop_map(|s| Value::Str(s.into())),
        blob().prop_map(Value::Bytes),
    ]
}

/// Every `CmpOp` against every literal kind, either way round, under
/// `And`/`Or`/`Not`.
fn filter() -> BoxedStrategy<Expr> {
    let leaf = (0usize..6, 0usize..COLUMNS.len(), literal(), any::<bool>()).prop_map(
        |(op, c, v, flipped)| {
            let (c, v) = (col(COLUMNS[c]), Expr::Lit(v));
            let (a, b) = if flipped { (v, c) } else { (c, v) };
            match op {
                0 => a.eq(b),
                1 => a.ne(b),
                2 => a.lt(b),
                3 => a.le(b),
                4 => a.gt(b),
                _ => a.ge(b),
            }
        },
    );
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Expr::not),
        ]
    })
}

/// The per-row interpreter's selection.
fn oracle_selection(b: &BoundExpr, t: &ColumnTable, pool: &StringPool) -> Bitmap {
    Bitmap::from_fn(t.rows, |i| b.eval(t, i, pool))
}

/// The scan the kernels replaced: every partition, every row through
/// the per-row interpreter, keyed by `Key` cells, sorted by `cmp_cells`.
fn oracle_frame(ds: &Dataset, ctx: &PlanCtx) -> Frame {
    let mut master = GroupMap::default();
    let mut rows = Vec::new();
    for p in &ds.partitions {
        let Some(t) = p.tables.get(&ctx.table) else {
            continue;
        };
        let bound = ctx
            .filter
            .as_ref()
            .map(|f| f.bind(TABLE, t, &ds.pool).unwrap());
        let mut idx: Vec<usize> = (0..t.rows)
            .filter(|&i| bound.as_ref().is_none_or(|b| b.eval(t, i, &ds.pool)))
            .collect();
        if ctx.aggregate_mode() {
            let update = |partials: &mut Vec<AggPartial>, i: usize| {
                for (partial, c) in partials.iter_mut().zip(&ctx.agg_cols) {
                    partial.update(c.map_or(CellRef::Null, |c| t.slabs[c].get(i)));
                }
            };
            // One group column was keyed by the bare cell, then rekeyed.
            let groups = if let [c] = ctx.group_cols[..] {
                let mut by_cell: FxMap<Key, Vec<AggPartial>> = FxMap::default();
                for i in idx {
                    let partials = by_cell
                        .entry(key_of(t.slabs[c].get(i)))
                        .or_insert_with(|| ctx.fresh_partials());
                    update(partials, i);
                }
                by_cell.into_iter().map(|(k, v)| (vec![k], v)).collect()
            } else {
                let mut groups = GroupMap::default();
                for i in idx {
                    let key = ctx
                        .group_cols
                        .iter()
                        .map(|&c| key_of(t.slabs[c].get(i)))
                        .collect();
                    update(groups.entry(key).or_insert_with(|| ctx.fresh_partials()), i);
                }
                groups
            };
            merge_groups(&mut master, groups);
        } else {
            if let Some(c) = ctx.sort_col {
                let slab = &t.slabs[c];
                idx.sort_by(|&a, &b| cmp_cells(slab.get(a), slab.get(b), &ds.pool));
            }
            rows.extend(idx.into_iter().map(|i| {
                ctx.proj_cols
                    .iter()
                    .map(|&c| t.slabs[c].value(i, &ds.pool))
                    .collect::<Vec<Value>>()
            }));
        }
    }
    if ctx.aggregate_mode() {
        finalize_agg_frame(ctx, master, &ds.pool)
    } else {
        Frame {
            columns: ctx.project.clone(),
            rows,
        }
    }
}

/// A plan shape over the generated table: group columns plus aggregates,
/// or (no group and no aggregate) a projection sorted by one column.
fn plan_shape() -> impl Strategy<Value = (Vec<&'static str>, Vec<usize>, usize)> {
    let groups = prop_oneof![
        Just(vec![]),
        Just(vec!["RunID"]),
        Just(vec!["I"]),
        Just(vec!["F"]),
        Just(vec!["S"]),
        Just(vec!["B"]),
        Just(vec!["S", "I"]),
    ];
    (
        groups,
        prop::collection::vec(0usize..7, 0..4),
        0usize..COLUMNS.len(),
    )
}

fn agg(k: usize) -> Agg {
    match k {
        0 => Agg::count(),
        1 => Agg::sum("I"),
        2 => Agg::mean("F"),
        3 => Agg::min("I"),
        4 => Agg::max("F"),
        5 => Agg::max("I"),
        _ => Agg::quantile("I", 0.5),
    }
}

fn scratch_dir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, AtomicOrdering::SeqCst);
    std::env::temp_dir().join(format!("kernel-tests-{}-{n}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn selection_equals_the_per_row_interpreter(rows in rows(150), f in filter()) {
        let mut pool = pool();
        let t = rows.table(&mut pool);
        let b = f.bind(TABLE, &t, &pool).unwrap();
        prop_assert_eq!(b.select(&t, &pool), oracle_selection(&b, &t, &pool), "{:?}", f);
    }

    #[test]
    fn decisions_are_never_contradicted_by_a_row(rows in rows(150), f in filter()) {
        let mut pool = pool();
        let t = rows.table(&mut pool);
        let b = f.bind(TABLE, &t, &pool).unwrap();
        let matching = oracle_selection(&b, &t, &pool).count_ones();
        match f.decide(&|c| t.column_stats(c)) {
            Decision::None => prop_assert_eq!(matching, 0, "{:?} pruned", f),
            Decision::All => prop_assert_eq!(matching, t.rows, "{:?} kept whole", f),
            Decision::Some => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `sort_by` asks only whether one row is less than another, so the
    /// typed sort puts every pair `[a, b]` in the order the per-cell
    /// `cmp_cells` does exactly when it answers every such question the
    /// same way; a whole column sorts to the same permutation.
    #[test]
    fn typed_sort_orders_as_cmp_cells(rows in rows(40)) {
        let mut pool = pool();
        let t = rows.table(&mut pool);
        for slab in &t.slabs {
            let oracle = |idx: &mut [usize]| {
                idx.sort_by(|&a, &b| cmp_cells(slab.get(a), slab.get(b), &pool));
            };
            for a in 0..t.rows {
                for b in 0..t.rows {
                    let (mut typed, mut want) = ([a, b], [a, b]);
                    sort_rows(&mut typed, slab, &pool);
                    oracle(&mut want);
                    prop_assert_eq!(typed, want, "{:?} rows {} {}", slab.kind(), a, b);
                }
            }
            // With a NaN cell `cmp_sql` is no total order, and `sort_by`
            // may panic on a whole column, whichever comparator answers.
            let nan = matches!(slab, Slab::F64 { vals, .. } if vals.iter().any(|v| v.is_nan()));
            if !nan {
                let mut typed: Vec<usize> = (0..t.rows).collect();
                let mut want = typed.clone();
                sort_rows(&mut typed, slab, &pool);
                oracle(&mut want);
                prop_assert_eq!(typed, want, "{:?}", slab.kind());
            }
        }
    }

    /// One-shot scans at workers 1 and 2, over resident and spilled
    /// partitions, and a standing query, all equal the per-row scan.
    #[test]
    fn scans_equal_the_per_row_scan(
        rows in rows(120),
        f in prop::option::of(filter()),
        shape in plan_shape(),
    ) {
        let (groups, aggs, sort) = shape;
        // NaN makes `cmp_sql` no total order, and sorting NaN group keys
        // or a NaN sort column may panic inside `sort_by` — before and
        // after the kernels alike.
        let row_mode = groups.is_empty() && aggs.is_empty();
        let keys_f = groups.contains(&"F") || (row_mode && COLUMNS[sort] == "F");
        if keys_f && rows.f.iter().flatten().any(|v| v.is_nan()) {
            return Ok(());
        }
        let db = rows.database();
        let ds = Dataset::from_database(&db).unwrap();
        let mut scan = ds.scan(TABLE).group_by(groups.clone()).agg(aggs.iter().map(|&k| agg(k)));
        if let Some(f) = &f {
            scan = scan.filter(f.clone());
        }
        if row_mode {
            scan = scan.select(["I", "S", "F", "B"]).sort_by(COLUMNS[sort]);
        }
        let ctx = PlanCtx::new(
            ds.schema(TABLE).unwrap(),
            TABLE.into(),
            scan.filter.clone(),
            scan.group_by.clone(),
            scan.aggs.clone(),
            scan.project.clone(),
            scan.sort.clone(),
            &ds.pool,
        )
        .unwrap();
        let want = oracle_frame(&ds, &ctx).digest();
        for workers in [1, 2] {
            let got = scan.clone().workers(workers).collect().unwrap().digest();
            prop_assert_eq!(got, want, "resident, workers {}", workers);
        }
        let dir = scratch_dir();
        let spilled = ds.spill_to(&dir, Some(1)).unwrap();
        let got = spilled.run_spec(&scan.to_spec().unwrap()).unwrap().digest();
        drop(spilled);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(got, want, "spilled");
        let mut standing = StandingQuery::new(scan.to_spec().unwrap());
        standing.ingest_package("default", &db).unwrap();
        prop_assert_eq!(standing.frame().unwrap().digest(), want, "standing");
    }
}

/// Footer and slab statistics state the same things, so a spilled and a
/// resident partition are decided alike.
#[test]
fn footer_statistics_equal_slab_statistics() {
    let rows = Rows {
        runs: 1,
        i: vec![Some(1 << 53), None, Some(-4)],
        f: vec![None, None, None],
        s: vec![Some("b".into()), None, Some("a".into())],
        b: vec![Some(vec![]), Some(vec![2]), None],
    };
    let ds = Dataset::from_database(&rows.database()).unwrap();
    let dir = scratch_dir();
    let spilled = ds.spill_to(&dir, None).unwrap();
    let t = &ds.partitions[0].tables[TABLE];
    let footer = spilled.spill_store().unwrap().footers().next().unwrap();
    for c in COLUMNS {
        assert_eq!(footer.column_stats(TABLE, c), t.column_stats(c), "{c}");
    }
    assert_eq!(
        t.column_stats("I").unwrap().range,
        Some(IntStats {
            min: -4,
            max: 1 << 53
        })
    );
    drop(spilled);
    std::fs::remove_dir_all(&dir).ok();
}
