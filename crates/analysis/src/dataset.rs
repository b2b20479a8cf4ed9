//! A columnar view over one experiment package.
//!
//! [`ExperimentDataset`] snapshots a level-3 database into an
//! `excovery_query::Dataset` (partitioned by `RunID`) and answers the
//! analysis modules' standard questions as scans: run inventories,
//! discovery episodes, packet volumes and clock offsets. Partitions merge
//! in run order, so every answer comes back in run order; the parity
//! suite (`tests/query_parity.rs`) pins the answers on real packages.

use crate::error::AnalysisError;
use crate::responsiveness::{responsiveness_curve, ResponsivenessPoint};
use crate::runs::{episodes_from_ordered, DiscoveryEpisode, EpisodeEvent};
use excovery_query::{col, lit, Agg, Dataset, Value};
use excovery_store::Database;
use std::collections::BTreeMap;

/// The three event types the episode state machine consumes.
const EPISODE_EVENTS: [&str; 3] = ["sd_start_search", "sd_service_add", "sd_stop_search"];

/// A level-3 package snapshotted into column slabs, with the analysis
/// crate's standard questions as one-line queries.
///
/// ```no_run
/// # fn demo(db: &excovery_store::Database) -> Result<(), excovery_analysis::AnalysisError> {
/// use excovery_analysis::dataset::ExperimentDataset;
/// let ds = ExperimentDataset::new(db)?;
/// let episodes = ds.episodes()?;
/// let curve = ds.responsiveness(1, &[0.1, 1.0, 10.0])?;
/// # let _ = (episodes, curve); Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentDataset {
    ds: Dataset,
}

impl ExperimentDataset {
    /// Ingests a level-3 package.
    pub fn new(db: &Database) -> Result<Self, AnalysisError> {
        Ok(Self {
            ds: Dataset::from_database(db)?,
        })
    }

    /// The underlying dataset, for ad-hoc `scan` pipelines.
    pub fn query(&self) -> &Dataset {
        &self.ds
    }

    /// All run ids with recorded events, ascending.
    pub fn run_ids(&self) -> Result<Vec<u64>, AnalysisError> {
        self.distinct_run_ids("Events")
    }

    /// All run ids with a `RunInfos` row, ascending, as
    /// `RunInfoRow::run_ids` lists them.
    pub fn run_ids_with_info(&self) -> Result<Vec<u64>, AnalysisError> {
        self.distinct_run_ids("RunInfos")
    }

    fn distinct_run_ids(&self, table: &str) -> Result<Vec<u64>, AnalysisError> {
        let frame = self.ds.scan(table).group_by(["RunID"]).collect()?;
        Ok(frame
            .rows
            .iter()
            .filter_map(|r| r[0].as_i64())
            .filter(|&id| id >= 0)
            .map(|id| id as u64)
            .collect())
    }

    /// Discovery episodes of every run, keyed by run id.
    ///
    /// One filtered scan reads the episode events of every run: rows come
    /// back grouped by run (the partition order) and time-ordered within
    /// each run, ties in recording order, and each run's slice goes
    /// through the episode state machine of [`crate::runs`]. Runs without
    /// a search, add or stop event have no entry.
    pub fn episodes_by_run(&self) -> Result<BTreeMap<u64, Vec<DiscoveryEpisode>>, AnalysisError> {
        let interesting = col("EventType")
            .eq(lit(EPISODE_EVENTS[0]))
            .or(col("EventType").eq(lit(EPISODE_EVENTS[1])))
            .or(col("EventType").eq(lit(EPISODE_EVENTS[2])));
        let frame = self
            .ds
            .scan("Events")
            .filter(interesting)
            .select(["RunID", "NodeID", "CommonTime", "EventType", "Parameter"])
            .sort_by("CommonTime")
            .collect()?;
        let mut out = BTreeMap::new();
        let mut i = 0;
        while i < frame.rows.len() {
            let Some(run) = frame.rows[i][0].as_i64().filter(|&id| id >= 0) else {
                i += 1;
                continue;
            };
            let start = i;
            while i < frame.rows.len() && frame.rows[i][0].as_i64() == Some(run) {
                i += 1;
            }
            let run = run as u64;
            let events = frame.rows[start..i].iter().map(|row| EpisodeEvent {
                node_id: row[1].as_str().unwrap_or(""),
                common_time_ns: row[2].as_i64().unwrap_or(0),
                event_type: row[3].as_str().unwrap_or(""),
                parameter: row[4].as_str().unwrap_or(""),
            });
            out.insert(run, episodes_from_ordered(run, events));
        }
        Ok(out)
    }

    /// All discovery episodes in run order.
    pub fn episodes(&self) -> Result<Vec<DiscoveryEpisode>, AnalysisError> {
        Ok(self.episodes_by_run()?.into_values().flatten().collect())
    }

    /// Responsiveness curve over all episodes of the package.
    pub fn responsiveness(
        &self,
        k: usize,
        deadlines_s: &[f64],
    ) -> Result<Vec<ResponsivenessPoint>, AnalysisError> {
        Ok(responsiveness_curve(&self.episodes()?, k, deadlines_s))
    }

    /// Captured packets per run, as a group-by count.
    pub fn packets_per_run(&self) -> Result<BTreeMap<u64, usize>, AnalysisError> {
        let frame = self
            .ds
            .scan("Packets")
            .group_by(["RunID"])
            .agg([Agg::count()])
            .collect()?;
        let mut out = BTreeMap::new();
        for row in &frame.rows {
            let (Some(run), Value::I64(n)) = (row[0].as_i64().filter(|&id| id >= 0), &row[1])
            else {
                continue;
            };
            out.insert(run as u64, *n as usize);
        }
        Ok(out)
    }

    /// Recorded per-node clock offsets (`RunInfos.TimeDiff`), in
    /// `RunInfoRow::read_all` order: run ascending, insertion order within
    /// a run.
    pub fn clock_offsets_ns(&self) -> Result<Vec<i64>, AnalysisError> {
        let frame = self.ds.scan("RunInfos").select(["TimeDiff"]).collect()?;
        Ok(frame.rows.iter().filter_map(|r| r[0].as_i64()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::Discovery;
    use excovery_store::records::{EventRow, PacketRow, RunInfoRow};
    use excovery_store::schema::create_level3_database;

    fn sample_db() -> Database {
        let mut db = create_level3_database();
        for run in 0..3u64 {
            RunInfoRow {
                run_id: run,
                node_id: "su".into(),
                start_time_ns: 0,
                time_diff_ns: 1_000_000 + run as i64,
            }
            .insert(&mut db)
            .unwrap();
            EventRow {
                run_id: run,
                node_id: "su".into(),
                common_time_ns: 1_000,
                event_type: "sd_start_search".into(),
                parameter: String::new(),
            }
            .insert(&mut db)
            .unwrap();
            if run != 1 {
                EventRow {
                    run_id: run,
                    node_id: "su".into(),
                    common_time_ns: 5_000 + run as i64,
                    event_type: "sd_service_add".into(),
                    parameter: "service=sm-a".into(),
                }
                .insert(&mut db)
                .unwrap();
            }
            for p in 0..(run + 1) {
                PacketRow {
                    run_id: run,
                    node_id: "su".into(),
                    common_time_ns: p as i64,
                    src_node_id: "sp".into(),
                    data: vec![0, 0, 1],
                }
                .insert(&mut db)
                .unwrap();
            }
        }
        db
    }

    #[test]
    fn run_inventories_list_runs_ascending() {
        let db = sample_db();
        let ds = ExperimentDataset::new(&db).unwrap();
        assert_eq!(ds.run_ids().unwrap(), [0, 1, 2]);
        assert_eq!(
            ds.run_ids_with_info().unwrap(),
            RunInfoRow::run_ids(&db).unwrap()
        );
    }

    #[test]
    fn episodes_follow_each_run_search() {
        let db = sample_db();
        let ds = ExperimentDataset::new(&db).unwrap();
        let episode = |run: u64, found: &[i64]| DiscoveryEpisode {
            run_id: run,
            su_node: "su".into(),
            search_start_ns: 1_000,
            discoveries: found
                .iter()
                .map(|&at_ns| Discovery {
                    service: "sm-a".into(),
                    at_ns,
                    t_r_ns: at_ns - 1_000,
                })
                .collect(),
        };
        let want = [episode(0, &[5_000]), episode(1, &[]), episode(2, &[5_002])];
        assert_eq!(ds.episodes().unwrap(), want);
        let by_run: BTreeMap<u64, Vec<DiscoveryEpisode>> =
            want.into_iter().map(|ep| (ep.run_id, vec![ep])).collect();
        assert_eq!(ds.episodes_by_run().unwrap(), by_run);
    }

    #[test]
    fn packet_volumes_count_rows_per_run() {
        let db = sample_db();
        let ds = ExperimentDataset::new(&db).unwrap();
        let expected = BTreeMap::from([(0, 1), (1, 2), (2, 3)]);
        assert_eq!(ds.packets_per_run().unwrap(), expected);
    }

    #[test]
    fn clock_offsets_keep_read_all_order() {
        let db = sample_db();
        let ds = ExperimentDataset::new(&db).unwrap();
        let expected: Vec<i64> = RunInfoRow::read_all(&db)
            .unwrap()
            .iter()
            .map(|i| i.time_diff_ns)
            .collect();
        assert_eq!(ds.clock_offsets_ns().unwrap(), expected);
    }

    #[test]
    fn empty_database_is_empty_everywhere() {
        let db = create_level3_database();
        let ds = ExperimentDataset::new(&db).unwrap();
        assert!(ds.run_ids().unwrap().is_empty());
        assert!(ds.episodes().unwrap().is_empty());
        assert!(ds.packets_per_run().unwrap().is_empty());
        assert!(ds.clock_offsets_ns().unwrap().is_empty());
    }
}
