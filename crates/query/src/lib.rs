//! # excovery-query
//!
//! A columnar, parallel query layer over the ExCovery measurement storage
//! (levels 3 and 4). The paper stops at "accelerate data access" via a
//! relational package per experiment (§IV-F); this crate follows the
//! C-Store/MonetDB lineage instead: ingested packages become typed column
//! slabs partitioned by experiment and run, and analysis questions run as
//! small logical plans — projection, partitions decided from their
//! min/max statistics before any row is read, column-at-a-time filter
//! kernels, hash group-by and mergeable aggregates — fanned out across
//! scoped worker threads.
//!
//! ## Determinism contract
//!
//! Every scan is **bit-identical regardless of worker count**: partitions
//! are scanned concurrently but merged in partition order (the campaign
//! discipline), integer sums accumulate exactly in `i128`, and group rows
//! are emitted in SQL key order. `EXCOVERY_WORKERS` (or
//! [`Scan::workers`]) changes only the wall-clock, never a byte of any
//! [`Frame`].
//!
//! ## Entry point
//!
//! [`Dataset`] is the one entry point: build it from a package, a package
//! list or a level-4 [`Repository`], then
//! `scan(table).filter(…).group_by(…).agg(…).collect()`.
//!
//! [`Repository`]: excovery_store::Repository

pub mod agg;
pub mod column;
pub mod dataset;
pub mod error;
mod exec;
pub mod expr;
pub mod incremental;
pub mod plan;
pub mod slab_io;
pub mod spec;
pub mod spill;
pub mod warehouse;

pub use agg::{Agg, AggSpec};
pub use column::{Bitmap, CellRef, ColumnTable, IntStats, Slab, StringPool, Value};
pub use dataset::{Dataset, DatasetBuilder, Partition, TableSchema, DEFAULT_PARTITION_COLUMN};
pub use error::QueryError;
pub use expr::{col, lit, null, CmpOp, Expr};
pub use incremental::StandingQuery;
pub use plan::{Frame, Scan};
pub use slab_io::{read_footer, PartitionFooter, SLAB_FILE_EXTENSION};
pub use spec::{
    agg_to_spec, cell_to_value, expr_to_spec, frame_to_wire, spec_to_agg, spec_to_expr,
    value_to_cell, wire_to_frame,
};
pub use spill::{SpillBuilder, SpillStore, DEFAULT_MEMORY_BUDGET};

/// The one serializable logical-plan vocabulary, re-exported from the
/// rpc crate: [`Scan::to_spec`] lowers into it, [`Dataset::run_spec`]
/// executes it, and the server ships it over `query.run`.
pub use excovery_rpc::{ExprSpec, PlanSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_store::records::{EventRow, RunInfoRow};
    use excovery_store::schema::create_level3_database;
    use excovery_store::Database;

    /// A small two-package dataset with known contents.
    fn packages() -> (Database, Database) {
        let mut a = create_level3_database();
        let mut b = create_level3_database();
        for (db, runs, base) in [(&mut a, 3u64, 10i64), (&mut b, 2, 1000)] {
            for run in 0..runs {
                RunInfoRow {
                    run_id: run,
                    node_id: "su".into(),
                    start_time_ns: 0,
                    time_diff_ns: 0,
                }
                .insert(db)
                .unwrap();
                for k in 0..4i64 {
                    EventRow {
                        run_id: run,
                        node_id: if k % 2 == 0 { "su" } else { "sp" }.into(),
                        common_time_ns: base + k,
                        event_type: if k == 3 { "sd_service_add" } else { "sd_probe" }.into(),
                        parameter: String::new(),
                    }
                    .insert(db)
                    .unwrap();
                }
            }
        }
        (a, b)
    }

    #[test]
    fn group_by_count_over_two_packages() {
        let (a, b) = packages();
        let ds = Dataset::from_packages(&[("a", &a), ("b", &b)]).unwrap();
        let f = ds
            .scan("Events")
            .group_by(["RunID"])
            .agg([Agg::count()])
            .collect()
            .unwrap();
        assert_eq!(f.columns, vec!["RunID".to_string(), "count".to_string()]);
        // Runs 0..3 from package a and 0..2 from package b share ids.
        assert_eq!(f.rows.len(), 3);
        assert_eq!(f.rows[0], vec![Value::I64(0), Value::I64(8)]);
        assert_eq!(f.rows[2], vec![Value::I64(2), Value::I64(4)]);
    }

    #[test]
    fn filter_and_global_aggregate() {
        let (a, b) = packages();
        let ds = Dataset::from_packages(&[("a", &a), ("b", &b)]).unwrap();
        let f = ds
            .scan("Events")
            .filter(col("EventType").eq(lit("sd_service_add")))
            .agg([Agg::count(), Agg::mean("CommonTime")])
            .collect()
            .unwrap();
        assert_eq!(f.rows.len(), 1);
        assert_eq!(f.rows[0][0], Value::I64(5));
        // Mean of [13, 13, 13, 1003, 1003].
        assert_eq!(f.rows[0][1], Value::F64((13.0 * 3.0 + 1003.0 * 2.0) / 5.0));
    }

    #[test]
    fn row_scan_matches_row_engine_order() {
        let (a, _) = packages();
        let ds = Dataset::from_database(&a).unwrap();
        let f = ds
            .scan("Events")
            .select(["RunID", "CommonTime"])
            .sort_by("CommonTime")
            .collect()
            .unwrap();
        // Partition order (RunID) then CommonTime — the read_all order.
        let pairs: Vec<(i64, i64)> = f
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
        assert_eq!(pairs.len(), 12);
    }

    #[test]
    fn scans_are_digest_equal_at_any_worker_count() {
        let (a, b) = packages();
        let ds = Dataset::from_packages(&[("a", &a), ("b", &b)]).unwrap();
        let run = |workers: usize| {
            ds.scan("Events")
                .filter(col("NodeID").eq(lit("su")))
                .group_by(["RunID", "EventType"])
                .agg([
                    Agg::count(),
                    Agg::mean("CommonTime"),
                    Agg::max("CommonTime"),
                ])
                .workers(workers)
                .collect()
                .unwrap()
        };
        let serial = run(1);
        for w in [2, 4, 8] {
            let parallel = run(w);
            assert_eq!(serial, parallel, "workers={w}");
            assert_eq!(serial.digest(), parallel.digest(), "workers={w}");
        }
    }

    #[test]
    fn group_by_without_aggs_is_sorted_distinct() {
        let (a, _) = packages();
        let ds = Dataset::from_database(&a).unwrap();
        let f = ds.scan("Events").group_by(["EventType"]).collect().unwrap();
        let names: Vec<&str> = f.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["sd_probe", "sd_service_add"]);
    }

    #[test]
    fn pruning_skips_runs_outside_the_predicate() {
        let (a, _) = packages();
        let ds = Dataset::from_database(&a).unwrap();
        // RunID is the partition column, so Eq prunes 2 of 3 partitions;
        // the result is unaffected.
        let f = ds
            .scan("Events")
            .filter(col("RunID").eq(lit(1i64)))
            .agg([Agg::count()])
            .collect()
            .unwrap();
        assert_eq!(f.rows[0][0], Value::I64(4));
        let none = ds
            .scan("Events")
            .filter(col("RunID").gt(lit(99i64)))
            .agg([Agg::count()])
            .collect()
            .unwrap();
        assert_eq!(none.rows[0][0], Value::I64(0));
    }

    #[test]
    fn errors_are_typed() {
        let (a, _) = packages();
        let ds = Dataset::from_database(&a).unwrap();
        assert!(matches!(
            ds.scan("Nope").collect(),
            Err(QueryError::NoSuchTable(_))
        ));
        assert!(matches!(
            ds.scan("Events").group_by(["Nope"]).collect(),
            Err(QueryError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            ds.scan("Events")
                .filter(col("Nope").eq(lit(1i64)))
                .collect(),
            Err(QueryError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            ds.scan("Events").agg([Agg::mean("Nope")]).collect(),
            Err(QueryError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            ds.scan("Events").select(["Nope"]).collect(),
            Err(QueryError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            ds.scan("Events").sort_by("Nope").collect(),
            Err(QueryError::NoSuchColumn { .. })
        ));
    }
}
