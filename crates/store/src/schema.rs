//! The level-3 database schema — the paper's **Table I**.
//!
//! | Table                  | Attributes                                       |
//! |------------------------|--------------------------------------------------|
//! | ExperimentInfo         | ExpXML, EEVersion, Name, Comment                 |
//! | Logs                   | NodeID, Log                                      |
//! | EEFiles                | ID, File                                         |
//! | ExperimentMeasurements | ID, NodeID, Name, Content                        |
//! | RunInfos               | RunID, NodeID, StartTime, TimeDiff               |
//! | ExtraRunMeasurements   | RunID, NodeID, Name, Content                     |
//! | Events                 | RunID, NodeID, CommonTime, EventType, Parameter  |
//! | Packets                | RunID, NodeID, CommonTime, SrcNodeID, Data       |

use crate::engine::{Column, ColumnType, Database, StoreError};

/// Version string stored in `ExperimentInfo.EEVersion`.
pub const EE_VERSION: &str = concat!("excovery-rs ", env!("CARGO_PKG_VERSION"));

/// Names of the eight Table I tables, in the paper's order.
pub const TABLE_NAMES: [&str; 8] = [
    "ExperimentInfo",
    "Logs",
    "EEFiles",
    "ExperimentMeasurements",
    "RunInfos",
    "ExtraRunMeasurements",
    "Events",
    "Packets",
];

/// The attribute list of each table, in the paper's order.
pub fn attributes(table: &str) -> Option<&'static [&'static str]> {
    Some(match table {
        "ExperimentInfo" => &["ExpXML", "EEVersion", "Name", "Comment"],
        "Logs" => &["NodeID", "Log"],
        "EEFiles" => &["ID", "File"],
        "ExperimentMeasurements" => &["ID", "NodeID", "Name", "Content"],
        "RunInfos" => &["RunID", "NodeID", "StartTime", "TimeDiff"],
        "ExtraRunMeasurements" => &["RunID", "NodeID", "Name", "Content"],
        "Events" => &["RunID", "NodeID", "CommonTime", "EventType", "Parameter"],
        "Packets" => &["RunID", "NodeID", "CommonTime", "SrcNodeID", "Data"],
        _ => return None,
    })
}

fn columns(table: &str) -> Vec<Column> {
    use ColumnType::*;
    match table {
        "ExperimentInfo" => vec![
            Column::new("ExpXML", Text),
            Column::new("EEVersion", Text),
            Column::new("Name", Text),
            Column::new("Comment", Text),
        ],
        "Logs" => vec![Column::new("NodeID", Text), Column::new("Log", Blob)],
        "EEFiles" => vec![Column::new("ID", Text), Column::new("File", Blob)],
        "ExperimentMeasurements" => vec![
            Column::new("ID", Integer),
            Column::new("NodeID", Text),
            Column::new("Name", Text),
            Column::new("Content", Blob),
        ],
        "RunInfos" => vec![
            Column::new("RunID", Integer),
            Column::new("NodeID", Text),
            Column::new("StartTime", Integer),
            Column::new("TimeDiff", Integer),
        ],
        "ExtraRunMeasurements" => vec![
            Column::new("RunID", Integer),
            Column::new("NodeID", Text),
            Column::new("Name", Text),
            Column::new("Content", Blob),
        ],
        "Events" => vec![
            Column::new("RunID", Integer),
            Column::new("NodeID", Text),
            Column::new("CommonTime", Integer),
            Column::new("EventType", Text),
            Column::new("Parameter", Text),
        ],
        "Packets" => vec![
            Column::new("RunID", Integer),
            Column::new("NodeID", Text),
            Column::new("CommonTime", Integer),
            Column::new("SrcNodeID", Text),
            Column::new("Data", Blob),
        ],
        other => unreachable!("unknown schema table {other}"),
    }
}

/// Creates an empty level-3 database with the full Table I schema.
/// Run-keyed tables declare `RunID` indexed: it is the run key the
/// package records and `excovery_query` partitions by.
pub fn create_level3_database() -> Database {
    let mut db = Database::new();
    for name in TABLE_NAMES {
        db.create_table(name, columns(name))
            .expect("fresh database");
    }
    for name in ["RunInfos", "ExtraRunMeasurements", "Events", "Packets"] {
        db.table_mut(name)
            .unwrap()
            .create_index("RunID")
            .expect("indexable");
    }
    db
}

/// Checks that a database matches the Table I schema exactly.
pub fn verify_schema(db: &Database) -> Result<(), StoreError> {
    for name in TABLE_NAMES {
        let table = db.table(name)?;
        let expected = attributes(name).unwrap();
        let actual = table.column_names();
        if actual != expected {
            return Err(StoreError(format!(
                "table {name}: expected attributes {expected:?}, found {actual:?}"
            )));
        }
    }
    Ok(())
}

/// Renders Table I as the paper prints it (for the `table1_schema` harness).
pub fn render_table1() -> String {
    let mut out = String::from("Table                  | Attributes\n");
    out.push_str("-----------------------+-------------------------------------------------\n");
    for name in TABLE_NAMES {
        let attrs = attributes(name).unwrap().join(", ");
        out.push_str(&format!("{name:<22} | {attrs}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_tables_present() {
        let db = create_level3_database();
        assert_eq!(db.table_names().len(), 8);
        for name in TABLE_NAMES {
            assert!(db.table(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn schema_matches_paper_attributes() {
        let db = create_level3_database();
        verify_schema(&db).unwrap();
        // Spot checks against the literal Table I.
        assert_eq!(
            db.table("Events").unwrap().column_names(),
            vec!["RunID", "NodeID", "CommonTime", "EventType", "Parameter"]
        );
        assert_eq!(
            db.table("Packets").unwrap().column_names(),
            vec!["RunID", "NodeID", "CommonTime", "SrcNodeID", "Data"]
        );
        assert_eq!(
            db.table("ExperimentInfo").unwrap().column_names(),
            vec!["ExpXML", "EEVersion", "Name", "Comment"]
        );
    }

    #[test]
    fn verify_schema_detects_deviation() {
        let mut db = create_level3_database();
        // Recreate a table with wrong columns under the same name.
        db = {
            let mut bad = Database::new();
            for name in TABLE_NAMES {
                if name == "Logs" {
                    bad.create_table(
                        name,
                        vec![Column::new("Wrong", crate::engine::ColumnType::Text)],
                    )
                    .unwrap();
                } else {
                    let t = db.table(name).unwrap();
                    bad.create_table(name, t.columns().to_vec()).unwrap();
                }
            }
            bad
        };
        assert!(verify_schema(&db).is_err());
    }

    #[test]
    fn render_lists_every_table_once() {
        let rendered = render_table1();
        for name in TABLE_NAMES {
            assert_eq!(rendered.matches(name).count(), 1, "{name}");
        }
        assert!(rendered.contains("RunID, NodeID, CommonTime, EventType, Parameter"));
    }

    #[test]
    fn unknown_table_attributes_is_none() {
        assert!(attributes("Bogus").is_none());
    }
}
