//! Cross-experiment warehouse slicing (§IV-F's anticipated dimensional
//! model): two packaged experiments feed one star schema, and OLAP-style
//! slices on `FactDiscovery` are `excovery_query` scans keyed through the
//! `DimNode` / `DimRun` dimensions.

use excovery::query::warehouse::build_warehouse;
use excovery::query::{col, lit, Agg, Dataset, Expr, Value};
use excovery::store::schema::{create_level3_database, EE_VERSION};
use excovery::store::{Database, EventRow, ExperimentInfo, RunInfoRow};

/// Builds a level-3 package named `name` containing one discovery episode
/// per `(run_id, node, t_r_ns)` entry.
fn package(name: &str, episodes: &[(u64, &str, i64)]) -> Database {
    let mut db = create_level3_database();
    ExperimentInfo {
        exp_xml: String::new(),
        ee_version: EE_VERSION.into(),
        name: name.into(),
        comment: String::new(),
    }
    .insert(&mut db)
    .unwrap();
    let mut seen_runs: Vec<(u64, &str)> = Vec::new();
    for &(run_id, node, t_r_ns) in episodes {
        if !seen_runs.contains(&(run_id, node)) {
            seen_runs.push((run_id, node));
            RunInfoRow {
                run_id,
                node_id: node.into(),
                start_time_ns: run_id as i64 * 1_000,
                time_diff_ns: 0,
            }
            .insert(&mut db)
            .unwrap();
        }
        for (t, event_type, parameter) in [
            (100, "sd_start_search", ""),
            (100 + t_r_ns, "sd_service_add", "service=sm"),
            (200 + t_r_ns, "sd_stop_search", ""),
        ] {
            EventRow {
                run_id,
                node_id: node.into(),
                common_time_ns: t,
                event_type: event_type.into(),
                parameter: parameter.into(),
            }
            .insert(&mut db)
            .unwrap();
        }
    }
    db
}

/// One column of the rows of `table` that pass `filter`, ordered by that
/// column within each partition.
fn column(ds: &Dataset, table: &str, filter: Expr, column: &str) -> Vec<i64> {
    ds.scan(table)
        .filter(filter)
        .select([column])
        .sort_by(column)
        .collect()
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect()
}

#[test]
fn facts_slice_by_node_and_run_dimensions_across_experiments() {
    // Experiment "alpha": two runs, two system-under-test nodes.
    let alpha = package(
        "alpha",
        &[
            (0, "su-a", 1_000),
            (0, "su-b", 2_000),
            (1, "su-a", 3_000),
            (1, "su-b", 4_000),
        ],
    );
    // Experiment "beta": one run, one node (same node name as alpha's —
    // the warehouse must still key them apart per experiment).
    let beta = package("beta", &[(0, "su-a", 9_000)]);
    let wh = build_warehouse(&[("alpha", &alpha), ("beta", &beta)]).unwrap();
    let ds = Dataset::builder()
        .partition_by("RunKey")
        .add_package("warehouse", &wh)
        .unwrap()
        .build();
    assert_eq!(ds.table_rows("FactDiscovery").unwrap(), 5);

    // --- slice by node: alpha's "su-b", keyed through DimNode ----------
    let su_b = column(
        &ds,
        "DimNode",
        col("NodeID")
            .eq(lit("su-b"))
            .and(col("ExpKey").eq(lit(0i64))),
        "NodeKey",
    );
    assert_eq!(su_b.len(), 1, "one su-b dimension row for alpha");
    assert_eq!(
        column(
            &ds,
            "FactDiscovery",
            col("SuNodeKey").eq(lit(su_b[0])),
            "ResponseTimeNs"
        ),
        [2_000, 4_000],
        "su-b episodes of both alpha runs, nothing from su-a or beta"
    );

    // Same node *name* in beta resolves to a different surrogate key, so
    // the slice above cannot leak beta's episode.
    let beta_su_a = column(
        &ds,
        "DimNode",
        col("NodeID")
            .eq(lit("su-a"))
            .and(col("ExpKey").eq(lit(1i64))),
        "NodeKey",
    );
    assert_eq!(beta_su_a.len(), 1);
    assert_ne!(beta_su_a, su_b);

    // --- slice by run: alpha's run 1, keyed through DimRun -------------
    let run1 = column(
        &ds,
        "DimRun",
        col("ExpKey").eq(lit(0i64)).and(col("RunID").eq(lit(1i64))),
        "RunKey",
    );
    assert_eq!(run1.len(), 1);
    let run1_key = col("RunKey").eq(lit(run1[0]));
    assert_eq!(
        column(&ds, "FactDiscovery", run1_key.clone(), "ResponseTimeNs"),
        [3_000, 4_000],
        "exactly the two episodes of alpha's run 1"
    );

    // --- combined slice: alpha run 1 OR anything from beta -------------
    assert_eq!(
        column(
            &ds,
            "FactDiscovery",
            run1_key.or(col("ExpKey").eq(lit(1i64))),
            "ResponseTimeNs"
        ),
        [3_000, 4_000, 9_000]
    );

    // Every fact row's ExpKey points at exactly one DimExperiment row.
    let exp_keys = ds
        .scan("FactDiscovery")
        .group_by(["ExpKey"])
        .collect()
        .unwrap();
    assert_eq!(exp_keys.rows.len(), 2);
    for key in &exp_keys.rows {
        let dims = ds
            .scan("DimExperiment")
            .filter(col("ExpKey").eq(lit(key[0].clone())))
            .agg([Agg::count()])
            .collect()
            .unwrap();
        assert_eq!(dims.rows, [[Value::I64(1)]]);
    }
}
