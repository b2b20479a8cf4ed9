//! Golden equivalence: a [`StandingQuery`] fed runs one at a time must
//! produce `Frame`s that are **bit-identical** (`f64::to_bits`-level)
//! to a cold one-shot scan of the same data — at every arrival step,
//! at worker counts 1 and 4, and whether the one-shot side scans a
//! resident dataset or a spilled one under a one-byte memory budget.
//! The one-shot side names its worker count per scan, which is why this
//! test lives inside the crate: `Dataset::spec_scan` is crate-private.

use std::path::PathBuf;

use crate::{Dataset, Frame, StandingQuery, Value};
use excovery_rpc::{AggOp, AggSpec, CellValue, ExprSpec, FilterOp, PlanSpec};
use excovery_store::{Column, ColumnType, Database, SqlValue};

/// Deterministic, float-heavy synthetic run: latencies exercise the
/// full mantissa so any summation reorder would change the mean bits.
fn push_run(db: &mut Database, run: i64) {
    for i in 0..24i64 {
        let latency = ((run * 7919 + i * 104_729) % 100_003) as f64 / 97.0 + 1e-9 * i as f64;
        db.insert(
            "Facts",
            vec![
                SqlValue::Int(run),
                SqlValue::Text(format!("svc{}", (run + i) % 3)),
                SqlValue::Real(latency),
                if i % 7 == 0 {
                    SqlValue::Null
                } else {
                    SqlValue::Int(i * 3)
                },
            ],
        )
        .unwrap();
    }
}

fn db_with_runs(end: i64) -> Database {
    let mut db = Database::new();
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
    for run in 0..end {
        push_run(&mut db, run);
    }
    db
}

fn agg(op: AggOp, column: Option<&str>, name: Option<&str>) -> AggSpec {
    AggSpec {
        op,
        column: column.map(String::from),
        name: name.map(String::from),
        q: None,
    }
}

/// A plan covering every aggregate shape the engine merges: count,
/// exact integer sum, float mean, min/max and a quantile.
fn golden_plan() -> PlanSpec {
    PlanSpec {
        table: "Facts".into(),
        predicate: Some(ExprSpec::Cmp {
            column: "Service".into(),
            op: FilterOp::Ne,
            value: CellValue::Str("svc9".into()),
        }),
        group_by: vec!["RunID".into(), "Service".into()],
        aggs: vec![
            agg(AggOp::Count, None, None),
            agg(AggOp::Sum, Some("Retries"), Some("retries")),
            agg(AggOp::Mean, Some("Latency"), Some("mean_lat")),
            agg(AggOp::Min, Some("Latency"), Some("min_lat")),
            agg(AggOp::Max, Some("Latency"), Some("max_lat")),
            AggSpec {
                op: AggOp::Quantile,
                column: Some("Latency".into()),
                name: Some("p50_lat".into()),
                q: Some(0.5),
            },
        ],
        select: Vec::new(),
        sort_by: None,
    }
}

/// A row-mode plan (select + sort) so both execution modes are golden.
fn row_plan() -> PlanSpec {
    PlanSpec {
        table: "Facts".into(),
        predicate: None,
        group_by: Vec::new(),
        aggs: Vec::new(),
        select: vec!["RunID".into(), "Service".into(), "Latency".into()],
        sort_by: Some("Latency".into()),
    }
}

/// `f64::to_bits`-level equality: every cell compared exactly, floats
/// by their bit pattern (so `-0.0 != 0.0` and NaN payloads matter).
fn assert_bit_identical(a: &Frame, b: &Frame, what: &str) {
    assert_eq!(a.columns, b.columns, "{what}: column names");
    assert_eq!(a.rows.len(), b.rows.len(), "{what}: row count");
    for (r, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
        for (c, (va, vb)) in ra.iter().zip(rb).enumerate() {
            match (va, vb) {
                (Value::F64(x), Value::F64(y)) => {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{what}: row {r} col {c}: {x} vs {y}"
                    );
                }
                _ => assert_eq!(va, vb, "{what}: row {r} col {c}"),
            }
        }
    }
    assert_eq!(a.digest(), b.digest(), "{what}: digest");
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("golden-{tag}-{}", std::process::id()))
}

/// The golden property; each one-shot scan runs at `workers` threads.
#[test]
fn incremental_frames_match_one_shot_bit_for_bit_at_workers_1_and_4() {
    const RUNS: i64 = 6;
    for workers in [1, 4] {
        for plan in [golden_plan(), row_plan()] {
            let mut sq = StandingQuery::new(plan.clone());
            for end in 1..=RUNS {
                // Feed runs one at a time: the cumulative snapshot now
                // holds runs 0..end; the standing query scans only the
                // newly arrived one.
                let db = db_with_runs(end);
                let scanned = sq.ingest_package("exp", &db).unwrap();
                assert_eq!(scanned, 1, "exactly the new run is scanned");

                let standing = sq.frame().unwrap();
                let what = format!("workers={workers} end={end}");

                // Cold one-shot over the same snapshot, resident.
                let ds = Dataset::from_database(&db).unwrap();
                let one_shot = ds
                    .spec_scan(&plan)
                    .unwrap()
                    .workers(workers)
                    .collect()
                    .unwrap();
                assert_bit_identical(&standing, &one_shot, &what);

                // And spilled under a one-byte budget, so every
                // partition loads from its slab file and evicts.
                let dir = tmp(&format!("w{workers}-e{end}"));
                let spilled = ds.spill_to(&dir, Some(1)).unwrap();
                let from_disk = spilled
                    .spec_scan(&plan)
                    .unwrap()
                    .workers(workers)
                    .collect()
                    .unwrap();
                assert_bit_identical(&standing, &from_disk, &format!("{what} (spilled)"));
                drop(spilled);
                std::fs::remove_dir_all(&dir).ok();
            }
            assert_eq!(sq.refreshes(), RUNS as u64);
        }
    }
}
