//! Warehouse aggregates as `Dataset` pipelines.
//!
//! The star-schema warehouse (`excovery_store::warehouse`) answers its
//! canned question, the mean response time per experiment, as a one-line
//! columnar query, partitioned by `RunKey` so it shards across workers
//! (the parity suite pins its answers).

use crate::agg::Agg;
use crate::column::Value;
use crate::dataset::Dataset;
use crate::error::QueryError;
use excovery_store::Database;
use std::collections::BTreeMap;

/// Mean response time (seconds) per experiment key of a warehouse built
/// by `excovery_store::warehouse::build_warehouse`.
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
    use excovery_store::records::{EventRow, ExperimentInfo, RunInfoRow};
    use excovery_store::schema::{create_level3_database, EE_VERSION};
    use excovery_store::warehouse::build_warehouse;
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

    #[test]
    fn matches_a_plain_loop_mean_bit_for_bit() {
        let a = package("fast", 1_000_000);
        let b = package("slow", 9_000_000);
        let wh = build_warehouse(&[("fast", &a), ("slow", &b)]).unwrap();
        // Sum and count per ExpKey in row order, then divide.
        let mut sums: BTreeMap<i64, (f64, u32)> = BTreeMap::new();
        for row in wh.table("FactDiscovery").unwrap().rows() {
            let (CellRef::Int(exp), CellRef::Int(t)) = (row.get(0), row.get(5)) else {
                panic!("{row:?}");
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
