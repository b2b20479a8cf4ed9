//! Typed rows of Table I: the interface the execution engine writes
//! through.
//!
//! [`EventRow`], [`PacketRow`] and [`RunInfoRow`] are inserted here and
//! read back by `excovery_analysis::ExperimentDataset`, which builds them
//! from column scans in the order `(RunID, CommonTime, insertion)`.
//! [`EventRow`] also owns the codec of the flat `Parameter` attribute.
//! [`ExperimentInfo`] is the one tuple read directly, a single row.
//! Times are nanoseconds on the *common* (conditioned) time base, except
//! `RunInfoRow::time_diff_ns`, which is the measured node-clock offset.

use crate::engine::{CellRef, Database, SqlValue, StoreError};

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
        if t.is_empty() {
            return Err(StoreError("ExperimentInfo is empty".into()));
        }
        let row = t.row(0);
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
}
