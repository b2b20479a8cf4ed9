//! Property: **one plan vocabulary, lossless end-to-end.** Any `Scan`
//! builder chain lowers to a [`PlanSpec`] via `to_spec()`, survives the
//! actual XML-RPC wire (`pack_plan` → XML → `unpack_plan`), and
//! `run_spec` on the unpacked spec returns a `Frame` bit-identical to
//! `collect()` on the original builder — including every float bit.

use excovery_query::{col, lit, Agg, Dataset, Expr, Frame, Value};
use excovery_rpc::{pack_plan, unpack_plan, MethodCall};
use excovery_store::{Column, ColumnType, Database, SqlValue};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A deterministic fixture warehouse: two experiments, float-heavy
/// measurements, a nullable column and repeated group keys.
fn fixture() -> Dataset {
    let mut db0 = Database::new();
    let mut db1 = Database::new();
    fill_package(&mut db0, 11);
    fill_package(&mut db1, 7001);
    Dataset::from_packages(&[("exp0", &db0), ("exp1", &db1)]).unwrap()
}

/// Plain data describing a builder chain, so strategies stay `'static`
/// while the borrowed `Scan` is assembled per case.
#[derive(Debug, Clone)]
enum AggShape {
    Count,
    SumRetries,
    MeanLatency,
    MinLatency,
    MaxLatency,
    Quantile(f64),
}

impl AggShape {
    fn build(&self) -> Agg {
        match self {
            AggShape::Count => Agg::count(),
            AggShape::SumRetries => Agg::sum("Retries").named("retries"),
            AggShape::MeanLatency => Agg::mean("Latency"),
            AggShape::MinLatency => Agg::min("Latency"),
            AggShape::MaxLatency => Agg::max("Latency"),
            AggShape::Quantile(q) => Agg::quantile("Latency", *q).named("q_lat"),
        }
    }
}

#[derive(Debug, Clone)]
enum Pred {
    RunCmp(u8, i64),
    ServiceEq(u8),
    LatencyLt(f64),
    RetriesNull(bool),
}

impl Pred {
    fn build(&self) -> Expr {
        match self {
            Pred::RunCmp(op, v) => {
                let c = col("RunID");
                let l = lit(*v);
                match op % 6 {
                    0 => c.eq(l),
                    1 => c.ne(l),
                    2 => c.lt(l),
                    3 => c.le(l),
                    4 => c.gt(l),
                    _ => c.ge(l),
                }
            }
            Pred::ServiceEq(n) => col("Service").eq(lit(format!("svc{}", n % 4))),
            Pred::LatencyLt(v) => col("Latency").lt(lit(*v)),
            Pred::RetriesNull(yes) => {
                let e = col("Retries").eq(excovery_query::null());
                if *yes {
                    e
                } else {
                    e.not()
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct PlanShape {
    filter: Vec<Pred>,
    any_or: bool,
    group_by: Vec<&'static str>,
    aggs: Vec<AggShape>,
    select: Vec<&'static str>,
    sort: Option<&'static str>,
    workers: usize,
}

fn pred_strategy() -> impl Strategy<Value = Pred> {
    prop_oneof![
        (any::<u8>(), -1i64..4).prop_map(|(op, v)| Pred::RunCmp(op, v)),
        any::<u8>().prop_map(Pred::ServiceEq),
        (0.0f64..40.0).prop_map(Pred::LatencyLt),
        any::<bool>().prop_map(Pred::RetriesNull),
    ]
}

fn agg_strategy() -> impl Strategy<Value = AggShape> {
    prop_oneof![
        Just(AggShape::Count),
        Just(AggShape::SumRetries),
        Just(AggShape::MeanLatency),
        Just(AggShape::MinLatency),
        Just(AggShape::MaxLatency),
        (0.0f64..1.0).prop_map(AggShape::Quantile),
    ]
}

const GROUP_COLS: &[&str] = &["RunID", "Service"];
const ROW_COLS: &[&str] = &["RunID", "Service", "Latency", "Retries"];

/// Interprets a bitmask as a subset of `cols`, preserving order.
fn subset(cols: &[&'static str], mask: u8) -> Vec<&'static str> {
    cols.iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, c)| *c)
        .collect()
}

fn shape_strategy() -> impl Strategy<Value = PlanShape> {
    let filter = || (prop::collection::vec(pred_strategy(), 0..3), any::<bool>());
    let agg_mode = (
        filter(),
        any::<u8>(),
        prop::collection::vec(agg_strategy(), 1..4),
        1usize..5,
    )
        .prop_map(|((filter, any_or), group_mask, aggs, workers)| PlanShape {
            filter,
            any_or,
            group_by: subset(GROUP_COLS, group_mask),
            aggs,
            select: Vec::new(),
            sort: None,
            workers,
        });
    let row_mode = (
        filter(),
        1u8..16, // non-empty projection: empty select has no spec form
        prop::option::of(0usize..ROW_COLS.len()),
        1usize..5,
    )
        .prop_map(
            |((filter, any_or), select_mask, sort_idx, workers)| PlanShape {
                filter,
                any_or,
                group_by: Vec::new(),
                aggs: Vec::new(),
                select: subset(ROW_COLS, select_mask),
                sort: sort_idx.map(|i| ROW_COLS[i]),
                workers,
            },
        );
    prop_oneof![agg_mode, row_mode]
}

fn apply<'d>(ds: &'d Dataset, shape: &PlanShape) -> excovery_query::Scan<'d> {
    let mut scan = ds.scan("Facts").workers(shape.workers);
    let mut preds = shape.filter.iter().map(Pred::build);
    if let Some(first) = preds.next() {
        let combined = preds.fold(
            first,
            |acc, p| {
                if shape.any_or {
                    acc.or(p)
                } else {
                    acc.and(p)
                }
            },
        );
        scan = scan.filter(combined);
    }
    if !shape.group_by.is_empty() || !shape.aggs.is_empty() {
        scan = scan
            .group_by(shape.group_by.iter().copied())
            .agg(shape.aggs.iter().map(AggShape::build));
    } else {
        scan = scan.select(shape.select.iter().copied());
        if let Some(s) = shape.sort {
            scan = scan.sort_by(s);
        }
    }
    scan
}

fn assert_bits_equal(a: &Frame, b: &Frame) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.columns, &b.columns);
    prop_assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (Value::F64(x), Value::F64(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
                _ => prop_assert_eq!(va, vb),
            }
        }
    }
    prop_assert_eq!(a.digest(), b.digest());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// builder → `to_spec` → XML wire → `unpack_plan` → `run_spec`
    /// equals `collect()` on the original chain, bit for bit.
    #[test]
    fn builder_chains_roundtrip_the_wire_bit_identically(shape in shape_strategy()) {
        let ds = fixture();
        let scan = apply(&ds, &shape);
        let spec = scan.to_spec().unwrap();
        let direct = apply(&ds, &shape).collect().unwrap();

        // Through the actual XML-RPC wire format.
        let call = MethodCall::new("query.run", vec![pack_plan(&spec)]);
        let rewired = MethodCall::from_xml(&call.to_xml()).unwrap();
        let unpacked = unpack_plan(&rewired.params[0]).unwrap();
        prop_assert_eq!(&unpacked, &spec, "spec must survive the wire losslessly");

        let via_spec = ds.run_spec(&unpacked).unwrap();
        assert_bits_equal(&direct, &via_spec)?;
    }

    /// The spec also replays identically through a standing query fed
    /// the same packages, whatever the plan shape (aggregate or row).
    #[test]
    fn specs_replay_bit_identically_through_standing_queries(shape in shape_strategy()) {
        let ds = fixture();
        let spec = apply(&ds, &shape).to_spec().unwrap();
        let one_shot = ds.run_spec(&spec).unwrap();

        let mut sq = excovery_query::StandingQuery::new(spec);
        // Rebuild the identical packages and feed them in order.
        let mut db0 = Database::new();
        let mut db1 = Database::new();
        fill_package(&mut db0, 11);
        fill_package(&mut db1, 7001);
        sq.ingest_package("exp0", &db0).unwrap();
        sq.ingest_package("exp1", &db1).unwrap();
        assert_bits_equal(&one_shot, &sq.frame().unwrap())?;
    }
}

/// One fixture experiment package: float-heavy measurements, a
/// nullable column and repeated group keys, seeded by `base`.
fn fill_package(db: &mut Database, base: i64) {
    db.create_table(
        "Facts",
        vec![
            Column::new("RunID", ColumnType::Integer),
            Column::new("Service", ColumnType::Text),
            Column::new("Latency", ColumnType::Real),
            Column::new("Retries", ColumnType::Integer),
        ],
    )
    .unwrap();
    for run in 0..3i64 {
        for i in 0..10i64 {
            db.insert(
                "Facts",
                vec![
                    SqlValue::Int(run),
                    SqlValue::Text(format!("svc{}", (base + run + i) % 3)),
                    SqlValue::Real(((base * 31 + run * 17 + i * 13) % 997) as f64 / 31.0),
                    if i % 4 == 0 {
                        SqlValue::Null
                    } else {
                        SqlValue::Int(i)
                    },
                ],
            )
            .unwrap();
        }
    }
}
