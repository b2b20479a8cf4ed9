//! Typed views of the Table I rows.
//!
//! The engine stores each table column by column and hands rows out as
//! borrowed views of dynamically typed cells; these structs are the typed
//! interface the execution engine writes through and the analysis reads
//! through.
//! Times are nanoseconds on the *common* (conditioned) time base, except
//! `RunInfoRow::time_diff_ns`, which is the measured node-clock offset.
//!
//! Reads are plain passes over a table's rows. Every ordered read is a
//! stable sort of insertion order, so rows with equal keys keep the order
//! they were recorded in.

use crate::engine::{CellRef, Database, RowRef, SqlValue, StoreError};

/// The single `ExperimentInfo` tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// The complete abstract experiment description (XML).
    pub exp_xml: String,
    /// ExCovery version that executed the experiment.
    pub ee_version: String,
    /// Descriptive name.
    pub name: String,
    /// Free comment.
    pub comment: String,
}

impl ExperimentInfo {
    /// Writes the tuple (exactly one per database).
    pub fn insert(&self, db: &mut Database) -> Result<(), StoreError> {
        if !db.table("ExperimentInfo")?.is_empty() {
            return Err(StoreError("ExperimentInfo already written".into()));
        }
        db.insert(
            "ExperimentInfo",
            vec![
                self.exp_xml.clone().into(),
                self.ee_version.clone().into(),
                self.name.clone().into(),
                self.comment.clone().into(),
            ],
        )
    }

    /// Reads the tuple back.
    pub fn read(db: &Database) -> Result<Self, StoreError> {
        let t = db.table("ExperimentInfo")?;
        let row = t
            .rows()
            .next()
            .ok_or_else(|| StoreError("ExperimentInfo is empty".into()))?;
        Ok(Self {
            exp_xml: text(row.get(0))?,
            ee_version: text(row.get(1))?,
            name: text(row.get(2))?,
            comment: text(row.get(3))?,
        })
    }
}

fn text(v: CellRef<'_>) -> Result<String, StoreError> {
    match v {
        CellRef::Text(s) => Ok(s.to_string()),
        _ => Err(StoreError(format!("expected text, found {v:?}"))),
    }
}

fn int(v: CellRef<'_>) -> Result<i64, StoreError> {
    match v {
        CellRef::Int(i) => Ok(i),
        _ => Err(StoreError(format!("expected int, found {v:?}"))),
    }
}

/// The typed rows of a run-keyed table (`RunID` first) in insertion
/// order: all of them, or those of run `run`, found from the `RunID`
/// column alone.
fn read_rows<T>(
    db: &Database,
    table: &str,
    run: Option<u64>,
    from_row: fn(RowRef<'_>) -> Result<T, StoreError>,
) -> Result<Vec<T>, StoreError> {
    let table = db.table(table)?;
    let Some(run) = run else {
        return table.rows().map(from_row).collect();
    };
    if table.is_empty() {
        return Ok(Vec::new());
    }
    let run_ids = table.column(0);
    (0..table.len())
        .filter(|&r| run_ids.get(r) == CellRef::Int(run as i64))
        .map(|r| from_row(table.row(r)))
        .collect()
}

/// One `Events` row: a recorded state change (§IV-B1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRow {
    /// Run the event belongs to.
    pub run_id: u64,
    /// Node the event occurred on (platform id).
    pub node_id: String,
    /// Common-time-base timestamp, nanoseconds.
    pub common_time_ns: i64,
    /// Event name (e.g. `sd_service_add`).
    pub event_type: String,
    /// Flattened `key=value` parameter list, `;`-separated.
    pub parameter: String,
}

impl EventRow {
    /// Encodes event parameters into the flat `Parameter` attribute:
    /// `key=value` pairs joined by `;`.
    pub fn encode_params(params: &[(impl AsRef<str>, impl AsRef<str>)]) -> String {
        let len = params
            .iter()
            .map(|(k, v)| k.as_ref().len() + v.as_ref().len() + 2)
            .sum();
        let mut out = String::with_capacity(len);
        for (i, (k, v)) in params.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(k.as_ref());
            out.push('=');
            out.push_str(v.as_ref());
        }
        out
    }

    /// Decodes the flat `Parameter` attribute.
    pub fn decode_params(parameter: &str) -> Vec<(String, String)> {
        if parameter.is_empty() {
            return Vec::new();
        }
        parameter
            .split(';')
            .filter_map(|kv| {
                kv.split_once('=')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
            })
            .collect()
    }

    /// Inserts into the `Events` table, moving the row's strings there.
    pub fn insert(self, db: &mut Database) -> Result<(), StoreError> {
        db.insert(
            "Events",
            vec![
                SqlValue::Int(self.run_id as i64),
                self.node_id.into(),
                SqlValue::Int(self.common_time_ns),
                self.event_type.into(),
                self.parameter.into(),
            ],
        )
    }

    fn from_row(row: RowRef<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            run_id: int(row.get(0))? as u64,
            node_id: text(row.get(1))?,
            common_time_ns: int(row.get(2))?,
            event_type: text(row.get(3))?,
            parameter: text(row.get(4))?,
        })
    }

    /// Reads all events of a run, ordered by common time; events with
    /// equal times keep their recording order.
    pub fn read_run(db: &Database, run_id: u64) -> Result<Vec<Self>, StoreError> {
        let mut events = Self::read_run_recorded(db, run_id)?;
        events.sort_by_key(|e| e.common_time_ns);
        Ok(events)
    }

    /// Reads all events of a run in recording (insertion) order.
    ///
    /// `read_run` orders by conditioned common time, which can swap two
    /// causally ordered cross-node events whose true gap is smaller than
    /// the sync-error residual left by conditioning. Causal assertions
    /// must use this order instead.
    pub fn read_run_recorded(db: &Database, run_id: u64) -> Result<Vec<Self>, StoreError> {
        read_rows(db, "Events", Some(run_id), Self::from_row)
    }

    /// Reads all events, ordered by run then common time.
    pub fn read_all(db: &Database) -> Result<Vec<Self>, StoreError> {
        let mut all = read_rows(db, "Events", None, Self::from_row)?;
        all.sort_by_key(|e| (e.run_id, e.common_time_ns));
        Ok(all)
    }
}

/// One `Packets` row: a captured packet (§IV-B2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRow {
    /// Run the capture belongs to.
    pub run_id: u64,
    /// Capturing node (platform id).
    pub node_id: String,
    /// Common-time-base timestamp, nanoseconds.
    pub common_time_ns: i64,
    /// Originating node of the packet.
    pub src_node_id: String,
    /// Raw packet data.
    pub data: Vec<u8>,
}

impl PacketRow {
    /// Inserts into the `Packets` table, moving the row's bytes there.
    pub fn insert(self, db: &mut Database) -> Result<(), StoreError> {
        db.insert(
            "Packets",
            vec![
                SqlValue::Int(self.run_id as i64),
                self.node_id.into(),
                SqlValue::Int(self.common_time_ns),
                self.src_node_id.into(),
                self.data.into(),
            ],
        )
    }

    fn from_row(row: RowRef<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            run_id: int(row.get(0))? as u64,
            node_id: text(row.get(1))?,
            common_time_ns: int(row.get(2))?,
            src_node_id: text(row.get(3))?,
            data: match row.get(4) {
                CellRef::Blob(b) => b.to_vec(),
                _ => return Err(StoreError("Data is not a blob".into())),
            },
        })
    }

    /// Reads all captures of a run, ordered by common time.
    pub fn read_run(db: &Database, run_id: u64) -> Result<Vec<Self>, StoreError> {
        let mut packets = read_rows(db, "Packets", Some(run_id), Self::from_row)?;
        packets.sort_by_key(|p| p.common_time_ns);
        Ok(packets)
    }

    /// Reads all captures, ordered by run then common time.
    pub fn read_all(db: &Database) -> Result<Vec<Self>, StoreError> {
        let mut all = read_rows(db, "Packets", None, Self::from_row)?;
        all.sort_by_key(|p| (p.run_id, p.common_time_ns));
        Ok(all)
    }
}

/// One `RunInfos` row: start time and clock offset of a node in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunInfoRow {
    /// Run identifier.
    pub run_id: u64,
    /// Node (platform id).
    pub node_id: String,
    /// Run start on the common time base, nanoseconds.
    pub start_time_ns: i64,
    /// Measured node-clock offset to the reference clock, nanoseconds.
    pub time_diff_ns: i64,
}

impl RunInfoRow {
    /// Inserts into the `RunInfos` table.
    pub fn insert(&self, db: &mut Database) -> Result<(), StoreError> {
        db.insert(
            "RunInfos",
            vec![
                SqlValue::Int(self.run_id as i64),
                self.node_id.clone().into(),
                SqlValue::Int(self.start_time_ns),
                SqlValue::Int(self.time_diff_ns),
            ],
        )
    }

    fn from_row(row: RowRef<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            run_id: int(row.get(0))? as u64,
            node_id: text(row.get(1))?,
            start_time_ns: int(row.get(2))?,
            time_diff_ns: int(row.get(3))?,
        })
    }

    /// Reads all run infos, ordered by the stored (signed) run id; rows
    /// of one run keep their insertion order.
    pub fn read_all(db: &Database) -> Result<Vec<Self>, StoreError> {
        let mut all = read_rows(db, "RunInfos", None, Self::from_row)?;
        all.sort_by_key(|r| r.run_id as i64);
        Ok(all)
    }

    /// Distinct run ids present.
    pub fn run_ids(db: &Database) -> Result<Vec<u64>, StoreError> {
        let mut ids: Vec<u64> = Self::read_all(db)?.into_iter().map(|r| r.run_id).collect();
        ids.dedup();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::create_level3_database;

    #[test]
    fn experiment_info_roundtrip_and_singleton() {
        let mut db = create_level3_database();
        let info = ExperimentInfo {
            exp_xml: "<experiment name=\"x\"/>".into(),
            ee_version: crate::schema::EE_VERSION.into(),
            name: "x".into(),
            comment: "demo".into(),
        };
        info.insert(&mut db).unwrap();
        assert_eq!(ExperimentInfo::read(&db).unwrap(), info);
        assert!(info.insert(&mut db).is_err(), "only one tuple allowed");
    }

    #[test]
    fn experiment_info_read_empty_errors() {
        let db = create_level3_database();
        assert!(ExperimentInfo::read(&db).is_err());
    }

    #[test]
    fn event_rows_ordered_by_time_within_run() {
        let mut db = create_level3_database();
        for (run, t, name) in [(0u64, 30i64, "b"), (0, 10, "a"), (1, 5, "c"), (0, 20, "m")] {
            EventRow {
                run_id: run,
                node_id: "t9-105".into(),
                common_time_ns: t,
                event_type: name.into(),
                parameter: String::new(),
            }
            .insert(&mut db)
            .unwrap();
        }
        let run0 = EventRow::read_run(&db, 0).unwrap();
        let names: Vec<&str> = run0.iter().map(|e| e.event_type.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "b"]);
        assert_eq!(EventRow::read_run(&db, 1).unwrap().len(), 1);
        assert_eq!(EventRow::read_all(&db).unwrap().len(), 4);
    }

    #[test]
    fn param_encoding_roundtrip() {
        let params = vec![
            ("service".to_string(), "sm-A".to_string()),
            ("stype".to_string(), "_http._tcp".to_string()),
        ];
        let flat = EventRow::encode_params(&params);
        assert_eq!(flat, "service=sm-A;stype=_http._tcp");
        assert_eq!(EventRow::decode_params(&flat), params);
        assert!(EventRow::decode_params("").is_empty());
    }

    #[test]
    fn packet_rows_roundtrip() {
        let mut db = create_level3_database();
        PacketRow {
            run_id: 3,
            node_id: "t9-105".into(),
            common_time_ns: 777,
            src_node_id: "t9-157".into(),
            data: vec![1, 2, 3],
        }
        .insert(&mut db)
        .unwrap();
        let read = PacketRow::read_run(&db, 3).unwrap();
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].data, vec![1, 2, 3]);
        assert!(PacketRow::read_run(&db, 99).unwrap().is_empty());
    }

    #[test]
    fn run_info_rows_and_ids() {
        let mut db = create_level3_database();
        for run in [0u64, 0, 1, 2] {
            RunInfoRow {
                run_id: run,
                node_id: format!("n{run}"),
                start_time_ns: run as i64 * 100,
                time_diff_ns: -5_000,
            }
            .insert(&mut db)
            .unwrap();
        }
        assert_eq!(RunInfoRow::read_all(&db).unwrap().len(), 4);
        assert_eq!(RunInfoRow::run_ids(&db).unwrap(), vec![0, 1, 2]);
    }

    fn event(db: &mut Database, run: u64, t: i64, name: &str) {
        EventRow {
            run_id: run,
            node_id: "n".into(),
            common_time_ns: t,
            event_type: name.into(),
            parameter: String::new(),
        }
        .insert(db)
        .unwrap();
    }

    #[test]
    fn equal_times_keep_recording_order() {
        let mut db = create_level3_database();
        for (run, t, name) in [(0, 20, "c"), (0, 10, "a"), (1, 10, "x"), (0, 20, "d")] {
            event(&mut db, run, t, name);
        }
        event(&mut db, 0, 10, "b");
        let names = |events: Vec<EventRow>| -> Vec<String> {
            events.into_iter().map(|e| e.event_type).collect()
        };
        assert_eq!(
            names(EventRow::read_run(&db, 0).unwrap()),
            ["a", "b", "c", "d"]
        );
        assert_eq!(
            names(EventRow::read_run_recorded(&db, 0).unwrap()),
            ["c", "a", "d", "b"]
        );
        assert_eq!(
            names(EventRow::read_all(&db).unwrap()),
            ["a", "b", "c", "d", "x"]
        );
    }

    #[test]
    fn run_infos_are_stable_within_a_run() {
        let mut db = create_level3_database();
        for (run, node) in [(1u64, "z"), (0, "b"), (1, "a"), (0, "a"), (1, "m")] {
            RunInfoRow {
                run_id: run,
                node_id: node.into(),
                start_time_ns: 0,
                time_diff_ns: 0,
            }
            .insert(&mut db)
            .unwrap();
        }
        let order: Vec<(u64, String)> = RunInfoRow::read_all(&db)
            .unwrap()
            .into_iter()
            .map(|r| (r.run_id, r.node_id))
            .collect();
        let want = [(0, "b"), (0, "a"), (1, "z"), (1, "a"), (1, "m")];
        assert_eq!(order, want.map(|(r, n)| (r, n.to_string())));
    }

    #[test]
    fn packet_read_all_is_read_run_over_run_ids() {
        let mut db = create_level3_database();
        for (i, (run, t)) in [(2u64, 5i64), (0, 9), (2, 1), (0, 9), (1, 3), (0, 2)]
            .into_iter()
            .enumerate()
        {
            PacketRow {
                run_id: run,
                node_id: "n".into(),
                common_time_ns: t,
                src_node_id: "s".into(),
                data: vec![i as u8],
            }
            .insert(&mut db)
            .unwrap();
        }
        let per_run: Vec<PacketRow> = [0, 1, 2]
            .into_iter()
            .flat_map(|run| PacketRow::read_run(&db, run).unwrap())
            .collect();
        assert_eq!(PacketRow::read_all(&db).unwrap(), per_run);
        let data: Vec<u8> = per_run.iter().map(|p| p.data[0]).collect();
        assert_eq!(data, [5, 1, 3, 4, 2, 0]);
    }
}
