//! A columnar view over one experiment package: the one read path from
//! a level-3 package to analysis input.
//!
//! [`ExperimentDataset`] snapshots a level-3 database into an
//! `excovery_query::Dataset` (partitioned by `RunID`) and answers the
//! analysis modules' standard questions as scans: run inventories,
//! discovery episodes and packet volumes. Partitions merge in run order,
//! so every answer comes back in run order; the parity suite
//! (`tests/query_parity.rs`) pins the answers on real packages.
//!
//! The typed rows of `Events`, `Packets` and `RunInfos`
//! ([`EventRow`], [`PacketRow`], [`RunInfoRow`]) are read here too, all
//! of a package or one run's (the filter prunes the other partitions).
//! The order contract is `(RunID, CommonTime, insertion)`: runs
//! ascending, time-ordered within a run, rows with equal times in the
//! order they were recorded. [`ExperimentDataset::events_recorded`] and
//! [`ExperimentDataset::run_infos`] skip the time key and keep recording
//! order within each run.

use crate::error::AnalysisError;
use crate::runs::{episodes_from_ordered, DiscoveryEpisode, EpisodeEvent};
use excovery_query::{col, lit, Agg, Dataset, Value};
use excovery_store::records::{EventRow, PacketRow, RunInfoRow};
use excovery_store::{schema, Database, StoreError};
use std::collections::BTreeMap;

/// The three event types the episode state machine consumes.
const EPISODE_EVENTS: [&str; 3] = ["sd_start_search", "sd_service_add", "sd_stop_search"];

/// A level-3 package snapshotted into column slabs, with the analysis
/// crate's standard questions as one-line queries.
///
/// ```no_run
/// # fn demo(db: &excovery_store::Database) -> Result<(), excovery_analysis::AnalysisError> {
/// use excovery_analysis::{responsiveness_curve, ExperimentDataset};
/// let ds = ExperimentDataset::new(db)?;
/// let episodes = ds.episodes()?;
/// let curve = responsiveness_curve(&episodes, 1, &[0.1, 1.0, 10.0]);
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

    /// The events of every run, or of run `run`, ordered by run, then
    /// common time; events with equal times keep their recording order.
    pub fn events(&self, run: Option<u64>) -> Result<Vec<EventRow>, AnalysisError> {
        self.typed_rows("Events", run, true, event_row)
    }

    /// The events of every run, or of run `run`, in recording order
    /// within each run.
    ///
    /// [`Self::events`] orders by conditioned common time, which can swap
    /// two causally ordered cross-node events whose true gap is smaller
    /// than the sync-error residual left by conditioning. Causal
    /// assertions must use this order instead.
    pub fn events_recorded(&self, run: Option<u64>) -> Result<Vec<EventRow>, AnalysisError> {
        self.typed_rows("Events", run, false, event_row)
    }

    /// The packet captures of every run, or of run `run`, ordered by run,
    /// then common time; captures with equal times keep their recording
    /// order.
    pub fn packets(&self, run: Option<u64>) -> Result<Vec<PacketRow>, AnalysisError> {
        self.typed_rows("Packets", run, true, packet_row)
    }

    /// The run infos of every run, or of run `run`, ordered by run;
    /// the rows of one run keep their insertion order.
    pub fn run_infos(&self, run: Option<u64>) -> Result<Vec<RunInfoRow>, AnalysisError> {
        self.typed_rows("RunInfos", run, false, run_info_row)
    }

    /// Scans every Table I column of `table`, in partition (run) order,
    /// then by `CommonTime` within a run when `by_time`, and builds one
    /// typed row from each frame row.
    fn typed_rows<T>(
        &self,
        table: &str,
        run: Option<u64>,
        by_time: bool,
        typed: fn(Vec<Value>) -> Option<T>,
    ) -> Result<Vec<T>, AnalysisError> {
        let columns = schema::attributes(table).expect("a Table I table");
        let mut scan = self.ds.scan(table).select(columns.iter().copied());
        if let Some(run) = run {
            scan = scan.filter(col("RunID").eq(lit(run as i64)));
        }
        if by_time {
            scan = scan.sort_by("CommonTime");
        }
        let mistyped = || StoreError(format!("{table} holds a NULL or mistyped cell")).into();
        let rows = scan.collect()?.rows.into_iter();
        rows.map(|row| typed(row).ok_or_else(mistyped)).collect()
    }
}

fn text(v: Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// An `Events` row from its cells in `schema::attributes` order.
fn event_row(row: Vec<Value>) -> Option<EventRow> {
    let [run, node, time, event_type, parameter] = <[Value; 5]>::try_from(row).ok()?;
    Some(EventRow {
        run_id: run.as_i64()? as u64,
        node_id: text(node)?,
        common_time_ns: time.as_i64()?,
        event_type: text(event_type)?,
        parameter: text(parameter)?,
    })
}

/// A `Packets` row from its cells in `schema::attributes` order.
fn packet_row(row: Vec<Value>) -> Option<PacketRow> {
    let [run, node, time, src, Value::Bytes(data)] = <[Value; 5]>::try_from(row).ok()? else {
        return None;
    };
    Some(PacketRow {
        run_id: run.as_i64()? as u64,
        node_id: text(node)?,
        common_time_ns: time.as_i64()?,
        src_node_id: text(src)?,
        data,
    })
}

/// A `RunInfos` row from its cells in `schema::attributes` order.
fn run_info_row(row: Vec<Value>) -> Option<RunInfoRow> {
    let [run, node, start, diff] = <[Value; 4]>::try_from(row).ok()?;
    Some(RunInfoRow {
        run_id: run.as_i64()? as u64,
        node_id: text(node)?,
        start_time_ns: start.as_i64()?,
        time_diff_ns: diff.as_i64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::Discovery;
    use excovery_store::schema::create_level3_database;
    use proptest::prelude::*;

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
        assert_eq!(ds.run_ids_with_info().unwrap(), [0, 1, 2]);
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
    fn empty_database_is_empty_everywhere() {
        let db = create_level3_database();
        let ds = ExperimentDataset::new(&db).unwrap();
        assert!(ds.run_ids().unwrap().is_empty());
        assert!(ds.episodes().unwrap().is_empty());
        assert!(ds.packets_per_run().unwrap().is_empty());
        assert!(ds.events(None).unwrap().is_empty());
        assert!(ds.events_recorded(Some(0)).unwrap().is_empty());
        assert!(ds.packets(None).unwrap().is_empty());
        assert!(ds.run_infos(Some(0)).unwrap().is_empty());
    }

    /// One inserted row of the order-contract property: the table
    /// (0 = `Events`, 1 = `Packets`, 2 = `RunInfos`), run, node and
    /// common time (the start time of a run info). Each row also carries
    /// its insertion index, so equal rows stay told apart.
    type Insert = (u8, u64, u8, i64);

    fn event_of(i: usize, (_, run, node, t): Insert) -> EventRow {
        EventRow {
            run_id: run,
            node_id: format!("n{node}"),
            common_time_ns: t,
            event_type: format!("e{i}"),
            parameter: String::new(),
        }
    }

    fn packet_of(i: usize, (_, run, node, t): Insert) -> PacketRow {
        PacketRow {
            run_id: run,
            node_id: format!("n{node}"),
            common_time_ns: t,
            src_node_id: "s".into(),
            data: (i as u32).to_be_bytes().to_vec(),
        }
    }

    fn run_info_of(i: usize, (_, run, node, t): Insert) -> RunInfoRow {
        RunInfoRow {
            run_id: run,
            node_id: format!("n{node}"),
            start_time_ns: t,
            time_diff_ns: i as i64,
        }
    }

    /// The read contract over any insertion sequence: each reader returns
    /// exactly the inserted rows, stably sorted by `(RunID, CommonTime)`
    /// (`events`, `packets`) or by `RunID` alone (`events_recorded`,
    /// `run_infos`), and a run-filtered read is the unfiltered read
    /// filtered afterwards.
    fn check_order_contract(inserts: &[Insert]) -> Result<(), TestCaseError> {
        let mut db = create_level3_database();
        let (mut events, mut packets, mut infos) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &insert) in inserts.iter().enumerate() {
            match insert.0 {
                0 => {
                    events.push(event_of(i, insert));
                    event_of(i, insert).insert(&mut db).unwrap();
                }
                1 => {
                    packets.push(packet_of(i, insert));
                    packet_of(i, insert).insert(&mut db).unwrap();
                }
                _ => {
                    infos.push(run_info_of(i, insert));
                    run_info_of(i, insert).insert(&mut db).unwrap();
                }
            }
        }
        let ds = ExperimentDataset::new(&db).unwrap();

        let mut by_time = events.clone();
        by_time.sort_by_key(|e| (e.run_id, e.common_time_ns));
        let mut recorded = events;
        recorded.sort_by_key(|e| e.run_id);
        packets.sort_by_key(|p| (p.run_id, p.common_time_ns));
        infos.sort_by_key(|r| r.run_id);
        prop_assert_eq!(ds.events(None).unwrap(), by_time.clone());
        prop_assert_eq!(ds.events_recorded(None).unwrap(), recorded.clone());
        prop_assert_eq!(ds.packets(None).unwrap(), packets.clone());
        prop_assert_eq!(ds.run_infos(None).unwrap(), infos.clone());

        let runs: std::collections::BTreeSet<u64> = inserts.iter().map(|i| i.1).collect();
        for run in runs.into_iter().chain([99]) {
            let of_run = |rows: &[EventRow]| -> Vec<EventRow> {
                rows.iter().filter(|e| e.run_id == run).cloned().collect()
            };
            prop_assert_eq!(ds.events(Some(run)).unwrap(), of_run(&by_time));
            prop_assert_eq!(ds.events_recorded(Some(run)).unwrap(), of_run(&recorded));
            let packets_of_run: Vec<PacketRow> = packets
                .iter()
                .filter(|p| p.run_id == run)
                .cloned()
                .collect();
            prop_assert_eq!(ds.packets(Some(run)).unwrap(), packets_of_run);
            let infos_of_run: Vec<RunInfoRow> =
                infos.iter().filter(|r| r.run_id == run).cloned().collect();
            prop_assert_eq!(ds.run_infos(Some(run)).unwrap(), infos_of_run);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rows of several runs, inserted out of run order, with equal
        /// common times across nodes (times are drawn from 0..4).
        #[test]
        fn readers_keep_the_order_contract(
            inserts in prop::collection::vec((0u8..3, 0u64..4, 0u8..3, 0i64..4), 0..40)
        ) {
            check_order_contract(&inserts)?;
        }
    }

    /// Equal times keep recording order; `events_recorded` keeps it
    /// outright.
    #[test]
    fn equal_times_keep_recording_order() {
        let inserts = [(0, 20), (0, 10), (1, 10), (0, 20), (0, 10)];
        check_order_contract(&inserts.map(|(run, t)| (0, run, 0, t))).unwrap();
    }

    /// Run infos are ordered by run, stable within one.
    #[test]
    fn run_infos_are_stable_within_a_run() {
        let inserts = [(1, "z"), (0, "b"), (1, "a"), (0, "a"), (1, "m")];
        check_order_contract(&inserts.map(|(run, node)| (2, run, node.as_bytes()[0], 0))).unwrap();
    }

    /// Reading all packets is reading each run's in turn.
    #[test]
    fn packets_of_all_runs_are_each_runs_in_turn() {
        let inserts = [(2, 5), (0, 9), (2, 1), (0, 9), (1, 3), (0, 2)];
        check_order_contract(&inserts.map(|(run, t)| (1, run, 0, t))).unwrap();
    }
}
