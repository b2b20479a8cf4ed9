//! Dimensional (star-schema) export — the paper's anticipated improvement:
//! "Several future improvements are possible, for example by using a
//! dimensional database model to store experiments in a data warehouse
//! structure" (§IV-F).
//!
//! [`build_warehouse`] converts one or more level-3 packages into a star
//! schema: a central `FactDiscovery` table (one row per discovery episode,
//! with the response time as the measure) surrounded by `DimExperiment`,
//! `DimRun` and `DimNode` dimensions. Cross-experiment OLAP-style slicing
//! then reduces to plain `excovery_query` scans of the fact table.

use crate::engine::{Column, ColumnType, Database, SqlValue, StoreError};
use crate::records::{EventRow, ExperimentInfo, RunInfoRow};
use std::collections::BTreeMap;

/// Table names of the warehouse schema.
pub const WAREHOUSE_TABLES: [&str; 4] = ["DimExperiment", "DimRun", "DimNode", "FactDiscovery"];

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
/// becomes one fact row; surrogate keys link the dimensions.
pub fn build_warehouse(packages: &[(&str, &Database)]) -> Result<Database, StoreError> {
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
        // Node dimension: every node appearing in RunInfos.
        let mut node_keys: BTreeMap<String, i64> = BTreeMap::new();
        let run_infos = RunInfoRow::read_all(db)?;
        for ri in &run_infos {
            if !node_keys.contains_key(&ri.node_id) {
                node_keys.insert(ri.node_id.clone(), next_node_key);
                wh.insert(
                    "DimNode",
                    vec![
                        SqlValue::Int(next_node_key),
                        SqlValue::Int(exp_key),
                        ri.node_id.clone().into(),
                    ],
                )?;
                next_node_key += 1;
            }
        }
        // Run dimension + facts; the events are read once and split by
        // run, each run's slice ordered by common time.
        let mut events_by_run: BTreeMap<u64, Vec<EventRow>> = BTreeMap::new();
        for e in EventRow::read_all(db)? {
            events_by_run.entry(e.run_id).or_default().push(e);
        }
        for infos in run_infos.chunk_by(|a, b| a.run_id == b.run_id) {
            let (run_id, start) = (infos[0].run_id, infos[0].start_time_ns);
            let run_key = next_run_key;
            next_run_key += 1;
            wh.insert(
                "DimRun",
                vec![
                    SqlValue::Int(run_key),
                    SqlValue::Int(exp_key),
                    SqlValue::Int(run_id as i64),
                    SqlValue::Int(start),
                ],
            )?;

            // Facts: reconstruct episodes from the event list.
            let events = events_by_run.remove(&run_id).unwrap_or_default();
            let mut open: BTreeMap<&str, i64> = BTreeMap::new(); // node -> search start
            for e in &events {
                match e.event_type.as_str() {
                    "sd_start_search" => {
                        open.insert(e.node_id.as_str(), e.common_time_ns);
                    }
                    "sd_stop_search" => {
                        open.remove(e.node_id.as_str());
                    }
                    "sd_service_add" => {
                        let Some(&start) = open.get(e.node_id.as_str()) else {
                            continue;
                        };
                        let su_key = *node_keys.entry(e.node_id.clone()).or_insert_with(|| {
                            let k = next_node_key;
                            next_node_key += 1;
                            k
                        });
                        let service = EventRow::decode_params(&e.parameter)
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
                                SqlValue::Int(e.common_time_ns - start),
                            ],
                        )?;
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(wh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CellRef;
    use crate::schema::{create_level3_database, EE_VERSION};

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
        for (t, name, param) in [
            (100, "sd_start_search", ""),
            (100 + t_r_ns, "sd_service_add", "service=sm"),
        ] {
            EventRow {
                run_id: 0,
                node_id: "su".into(),
                common_time_ns: t,
                event_type: name.into(),
                parameter: param.into(),
            }
            .insert(&mut db)
            .unwrap();
        }
        db
    }

    #[test]
    fn warehouse_has_star_schema() {
        let p = package("one", 5_000);
        let wh = build_warehouse(&[("one", &p)]).unwrap();
        for t in WAREHOUSE_TABLES {
            assert!(wh.table(t).is_ok(), "{t}");
        }
        assert_eq!(wh.table("DimExperiment").unwrap().len(), 1);
        assert_eq!(wh.table("DimRun").unwrap().len(), 1);
        assert_eq!(wh.table("FactDiscovery").unwrap().len(), 1);
        let fact = wh.table("FactDiscovery").unwrap().rows().next().unwrap();
        assert_eq!(fact.get(5), CellRef::Int(5_000), "response time measure");
        assert_eq!(fact.get(3), CellRef::Text("sm"));
    }

    #[test]
    fn cross_experiment_facts_are_keyed() {
        let a = package("fast", 1_000_000);
        let b = package("slow", 9_000_000);
        let wh = build_warehouse(&[("fast", &a), ("slow", &b)]).unwrap();
        assert_eq!(wh.table("DimExperiment").unwrap().len(), 2);
        let facts = wh.table("FactDiscovery").unwrap();
        let keyed: Vec<(i64, i64)> = facts
            .rows()
            .map(|r| match (r.get(0), r.get(5)) {
                (CellRef::Int(exp), CellRef::Int(t)) => (exp, t),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(keyed, [(0, 1_000_000), (1, 9_000_000)]);
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
}
