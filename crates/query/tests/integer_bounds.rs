//! Partition decisions agree with row evaluation for integers beyond 2⁵³.
//!
//! `cmp_sql` compares an integer cell with a number as `f64`, so
//! 2⁵³ + 1 equals 2⁵³. A partition's min/max statistics must be read the
//! same way, or a scan prunes a partition that holds matching rows. The
//! same filter over resident partitions, spilled ones and a standing
//! query counts what the rows say, and what the float literal says.

use excovery_query::{col, lit, Agg, Dataset, Expr, StandingQuery, Value};
use excovery_store::{Column, ColumnType, Database, SqlValue};

const P53: i64 = 1 << 53;

/// One row per run, so each `X` is its own partition's min and max.
const CELLS: [i64; 3] = [P53 - 1, P53, P53 + 1];

fn package() -> Database {
    let mut db = Database::new();
    db.create_table(
        "Facts",
        vec![
            Column::new("RunID", ColumnType::Integer),
            Column::new("X", ColumnType::Integer),
        ],
    )
    .unwrap();
    for (run, x) in CELLS.into_iter().enumerate() {
        db.insert("Facts", vec![SqlValue::Int(run as i64), SqlValue::Int(x)])
            .unwrap();
    }
    db
}

fn count(ds: &Dataset, filter: Expr) -> i64 {
    let frame = ds
        .scan("Facts")
        .filter(filter)
        .agg([Agg::count()])
        .collect()
        .unwrap();
    frame.rows[0][0].as_i64().unwrap()
}

#[test]
fn integer_literals_decide_partitions_as_rows_compare_them() {
    let db = package();
    let resident = Dataset::from_database(&db).unwrap();
    let dir = std::env::temp_dir().join(format!("integer-bounds-{}", std::process::id()));
    let spilled = resident.spill_to(&dir, None).unwrap();
    type Op = fn(Expr, Expr) -> Expr;
    type Holds = fn(f64, f64) -> bool;
    let ops: [(&str, Op, Holds); 5] = [
        ("=", Expr::eq, |a, b| a == b),
        ("<", Expr::lt, |a, b| a < b),
        ("<=", Expr::le, |a, b| a <= b),
        (">", Expr::gt, |a, b| a > b),
        (">=", Expr::ge, |a, b| a >= b),
    ];
    for v in [P53 - 1, P53, P53 + 1, P53 + 2] {
        for (name, op, holds) in ops {
            let what = format!("X {name} {v}");
            let rows = CELLS.iter().filter(|&&x| holds(x as f64, v as f64)).count() as i64;
            let filter = op(col("X"), lit(v));
            assert_eq!(count(&resident, filter.clone()), rows, "{what}, resident");
            assert_eq!(count(&spilled, filter.clone()), rows, "{what}, spilled");
            let float = op(col("X"), lit(v as f64));
            assert_eq!(count(&resident, float), rows, "{what}, float literal");

            let spec = resident
                .scan("Facts")
                .filter(filter)
                .agg([Agg::count()])
                .to_spec()
                .unwrap();
            let mut standing = StandingQuery::new(spec);
            standing.ingest_package("default", &db).unwrap();
            let frame = standing.frame().unwrap();
            assert_eq!(frame.rows[0][0], Value::I64(rows), "{what}, standing");
        }
    }
    drop(spilled);
    std::fs::remove_dir_all(&dir).ok();
}
