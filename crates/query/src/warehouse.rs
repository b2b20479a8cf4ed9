//! The star-schema warehouse and its aggregates as `Dataset` pipelines —
//! the paper's anticipated improvement: "Several future improvements are
//! possible, for example by using a dimensional database model to store
//! experiments in a data warehouse structure" (§IV-F).
//!
//! [`build_warehouse`] converts one or more level-3 packages, read by
//! scans, into a star schema: a central `FactDiscovery` table (one row
//! per discovery, with the response time as the measure) surrounded by
//! `DimExperiment`, `DimRun` and `DimNode` dimensions.
//! [`mean_response_time_by_experiment`] answers the canned question,
//! the mean response time per experiment, as a one-line columnar query,
//! partitioned by `RunKey` so it shards across workers (the parity suite
//! pins its answers).

use crate::agg::Agg;
use crate::column::Value;
use crate::dataset::Dataset;
use crate::error::QueryError;
use crate::expr::{col, lit};
use excovery_store::records::{EventRow, ExperimentInfo};
use excovery_store::{Column, ColumnType, Database, SqlValue};
use std::collections::BTreeMap;

fn warehouse_schema() -> Database {
    use ColumnType::*;
    let mut db = Database::new();
    db.create_table(
        "DimExperiment",
        vec![
            Column::new("ExpKey", Integer),
            Column::new("Name", Text),
            Column::new("Comment", Text),
            Column::new("EEVersion", Text),
        ],
    )
    .unwrap();
    db.create_table(
        "DimRun",
        vec![
            Column::new("RunKey", Integer),
            Column::new("ExpKey", Integer),
            Column::new("RunID", Integer),
            Column::new("StartTime", Integer),
        ],
    )
    .unwrap();
    db.create_table(
        "DimNode",
        vec![
            Column::new("NodeKey", Integer),
            Column::new("ExpKey", Integer),
            Column::new("NodeID", Text),
        ],
    )
    .unwrap();
    db.create_table(
        "FactDiscovery",
        vec![
            Column::new("ExpKey", Integer),
            Column::new("RunKey", Integer),
            Column::new("SuNodeKey", Integer),
            Column::new("Service", Text),
            Column::new("SearchStart", Integer),
            Column::new("ResponseTimeNs", Integer),
        ],
    )
    .unwrap();
    db
}

/// Builds a warehouse from `(experiment id, level-3 package)` pairs.
///
/// Every `sd_service_add` following an `sd_start_search` on the same node
/// (with no `sd_stop_search` between) becomes one fact row; surrogate
/// keys link the dimensions. Each package is scanned once per table:
/// `RunInfos` in run order, the search events in `(RunID, CommonTime,
/// insertion)` order.
pub fn build_warehouse(packages: &[(&str, &Database)]) -> Result<Database, QueryError> {
    let mut wh = warehouse_schema();
    let mut next_run_key: i64 = 0;
    let mut next_node_key: i64 = 0;
    for (exp_key, (_, db)) in packages.iter().enumerate() {
        let exp_key = exp_key as i64;
        let info = ExperimentInfo::read(db)?;
        wh.insert(
            "DimExperiment",
            vec![
                SqlValue::Int(exp_key),
                info.name.into(),
                info.comment.into(),
                info.ee_version.into(),
            ],
        )?;
        let ds = Dataset::builder()
            .add_tables("default", db, |t| matches!(t, "Events" | "RunInfos"))?
            .build();
        // Node dimension: every node appearing in RunInfos.
        let run_infos = ds
            .scan("RunInfos")
            .select(["RunID", "NodeID", "StartTime"])
            .collect()?
            .rows;
        let mut node_keys: BTreeMap<&str, i64> = BTreeMap::new();
        for node in run_infos.iter().filter_map(|r| r[1].as_str()) {
            if !node_keys.contains_key(node) {
                node_keys.insert(node, next_node_key);
                wh.insert(
                    "DimNode",
                    vec![
                        SqlValue::Int(next_node_key),
                        SqlValue::Int(exp_key),
                        node.into(),
                    ],
                )?;
                next_node_key += 1;
            }
        }
        // Run dimension + facts; the search events are read once, in run
        // order, and each run's slice is ordered by common time.
        let searches = col("EventType")
            .eq(lit("sd_start_search"))
            .or(col("EventType").eq(lit("sd_service_add")))
            .or(col("EventType").eq(lit("sd_stop_search")));
        let events = ds
            .scan("Events")
            .filter(searches)
            .select(["RunID", "NodeID", "CommonTime", "EventType", "Parameter"])
            .sort_by("CommonTime")
            .collect()?
            .rows;
        for infos in run_infos.chunk_by(|a, b| a[0] == b[0]) {
            let (Some(run_id), Some(start)) = (infos[0][0].as_i64(), infos[0][2].as_i64()) else {
                continue;
            };
            let run_key = next_run_key;
            next_run_key += 1;
            wh.insert(
                "DimRun",
                vec![
                    SqlValue::Int(run_key),
                    SqlValue::Int(exp_key),
                    SqlValue::Int(run_id),
                    SqlValue::Int(start),
                ],
            )?;

            // Facts: reconstruct episodes from the run's events.
            let run_of = |e: &Vec<Value>| e[0].as_i64().cmp(&Some(run_id));
            let first = events.partition_point(|e| run_of(e).is_lt());
            let end = events.partition_point(|e| run_of(e).is_le());
            let mut open: BTreeMap<&str, i64> = BTreeMap::new(); // node -> search start
            for e in &events[first..end] {
                let (Some(node), Some(at), Some(event_type)) =
                    (e[1].as_str(), e[2].as_i64(), e[3].as_str())
                else {
                    continue;
                };
                match event_type {
                    "sd_start_search" => {
                        open.insert(node, at);
                    }
                    "sd_stop_search" => {
                        open.remove(node);
                    }
                    _ => {
                        let Some(&start) = open.get(node) else {
                            continue;
                        };
                        let su_key = *node_keys.entry(node).or_insert_with(|| {
                            let k = next_node_key;
                            next_node_key += 1;
                            k
                        });
                        let service = EventRow::decode_params(e[4].as_str().unwrap_or(""))
                            .into_iter()
                            .find(|(k, _)| k == "service")
                            .map(|(_, v)| v)
                            .unwrap_or_default();
                        wh.insert(
                            "FactDiscovery",
                            vec![
                                SqlValue::Int(exp_key),
                                SqlValue::Int(run_key),
                                SqlValue::Int(su_key),
                                service.into(),
                                SqlValue::Int(start),
                                SqlValue::Int(at - start),
                            ],
                        )?;
                    }
                }
            }
        }
    }
    Ok(wh)
}

/// Mean response time (seconds) per experiment key of a warehouse built
/// by [`build_warehouse`].
pub fn mean_response_time_by_experiment(wh: &Database) -> Result<BTreeMap<i64, f64>, QueryError> {
    let ds = Dataset::builder()
        .partition_by("RunKey")
        .add_package("warehouse", wh)?
        .build();
    mean_response_time_by_experiment_on(&ds)
}

/// Same slice over an already-ingested warehouse dataset (partitioned by
/// `RunKey`), for callers issuing several queries against one snapshot.
pub fn mean_response_time_by_experiment_on(ds: &Dataset) -> Result<BTreeMap<i64, f64>, QueryError> {
    let frame = ds
        .scan("FactDiscovery")
        .group_by(["ExpKey"])
        .agg([Agg::mean("ResponseTimeNs").named("mean_ns")])
        .collect()?;
    let mut out = BTreeMap::new();
    for row in &frame.rows {
        let (Value::I64(key), Value::F64(mean_ns)) = (&row[0], &row[1]) else {
            // A NULL key or a group without a numeric cell has no mean.
            continue;
        };
        out.insert(*key, mean_ns / 1e9);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_store::records::RunInfoRow;
    use excovery_store::schema::{create_level3_database, EE_VERSION};
    use excovery_store::CellRef;

    fn package(name: &str, t_r_ns: i64) -> Database {
        let mut db = create_level3_database();
        ExperimentInfo {
            exp_xml: String::new(),
            ee_version: EE_VERSION.into(),
            name: name.into(),
            comment: String::new(),
        }
        .insert(&mut db)
        .unwrap();
        RunInfoRow {
            run_id: 0,
            node_id: "su".into(),
            start_time_ns: 0,
            time_diff_ns: 0,
        }
        .insert(&mut db)
        .unwrap();
        for (t, ev, param) in [
            (100, "sd_start_search", ""),
            (100 + t_r_ns, "sd_service_add", "service=sm"),
        ] {
            EventRow {
                run_id: 0,
                node_id: "su".into(),
                common_time_ns: t,
                event_type: ev.into(),
                parameter: param.into(),
            }
            .insert(&mut db)
            .unwrap();
        }
        db
    }

    /// The cells of one warehouse column, in row order.
    fn cells<'a>(wh: &'a Database, table: &str, column: &str) -> Vec<CellRef<'a>> {
        let t = wh.table(table).unwrap();
        let c = t.column(t.column_index(column).unwrap());
        (0..t.len()).map(|r| c.get(r)).collect()
    }

    #[test]
    fn warehouse_has_star_schema() {
        let p = package("one", 5_000);
        let wh = build_warehouse(&[("one", &p)]).unwrap();
        for t in ["DimExperiment", "DimRun", "DimNode", "FactDiscovery"] {
            assert!(wh.table(t).is_ok(), "{t}");
        }
        assert_eq!(wh.table("DimExperiment").unwrap().len(), 1);
        assert_eq!(wh.table("DimRun").unwrap().len(), 1);
        assert_eq!(
            cells(&wh, "FactDiscovery", "ResponseTimeNs"),
            [CellRef::Int(5_000)],
            "response time measure"
        );
        assert_eq!(
            cells(&wh, "FactDiscovery", "Service"),
            [CellRef::Text("sm")]
        );
    }

    #[test]
    fn cross_experiment_facts_are_keyed() {
        let a = package("fast", 1_000_000);
        let b = package("slow", 9_000_000);
        let wh = build_warehouse(&[("fast", &a), ("slow", &b)]).unwrap();
        assert_eq!(wh.table("DimExperiment").unwrap().len(), 2);
        assert_eq!(
            cells(&wh, "FactDiscovery", "ExpKey"),
            [CellRef::Int(0), CellRef::Int(1)]
        );
        assert_eq!(
            cells(&wh, "FactDiscovery", "ResponseTimeNs"),
            [CellRef::Int(1_000_000), CellRef::Int(9_000_000)]
        );
    }

    #[test]
    fn adds_without_search_are_ignored() {
        let mut db = package("x", 1_000);
        // A stray add after stop_search.
        EventRow {
            run_id: 0,
            node_id: "su".into(),
            common_time_ns: 50,
            event_type: "sd_stop_search".into(),
            parameter: String::new(),
        }
        .insert(&mut db)
        .unwrap();
        let wh = build_warehouse(&[("x", &db)]).unwrap();
        // Original episode intact; ordering by common time means the stray
        // stop (t=50) happens before the search start (t=100).
        assert_eq!(wh.table("FactDiscovery").unwrap().len(), 1);
    }

    #[test]
    fn empty_package_yields_empty_facts() {
        let mut db = create_level3_database();
        ExperimentInfo {
            exp_xml: String::new(),
            ee_version: EE_VERSION.into(),
            name: "empty".into(),
            comment: String::new(),
        }
        .insert(&mut db)
        .unwrap();
        let wh = build_warehouse(&[("empty", &db)]).unwrap();
        assert!(wh.table("FactDiscovery").unwrap().is_empty());
        assert_eq!(wh.table("DimExperiment").unwrap().len(), 1);
    }

    #[test]
    fn matches_a_plain_loop_mean_bit_for_bit() {
        let a = package("fast", 1_000_000);
        let b = package("slow", 9_000_000);
        let wh = build_warehouse(&[("fast", &a), ("slow", &b)]).unwrap();
        // Sum and count per ExpKey in row order, then divide.
        let mut sums: BTreeMap<i64, (f64, u32)> = BTreeMap::new();
        let keys = cells(&wh, "FactDiscovery", "ExpKey");
        let times = cells(&wh, "FactDiscovery", "ResponseTimeNs");
        for (key, time) in keys.into_iter().zip(times) {
            let (CellRef::Int(exp), CellRef::Int(t)) = (key, time) else {
                panic!("{key:?} {time:?}");
            };
            let sum = sums.entry(exp).or_default();
            sum.0 += t as f64;
            sum.1 += 1;
        }
        let new = mean_response_time_by_experiment(&wh).unwrap();
        assert_eq!(new.keys().collect::<Vec<_>>(), [&0, &1]);
        for (k, (sum, n)) in &sums {
            let mean = sum / f64::from(*n) / 1e9;
            assert_eq!(mean.to_bits(), new[k].to_bits(), "experiment {k}");
        }
    }

    #[test]
    fn empty_warehouse_yields_empty_map() {
        let wh = build_warehouse(&[]).unwrap();
        assert!(mean_response_time_by_experiment(&wh).unwrap().is_empty());
    }
}
