//! Dataset ingest: level-3 packages → partitioned column slabs.
//!
//! A [`Dataset`] snapshots one or more experiment packages into typed
//! column slabs, partitioned by experiment and run: every distinct value
//! of the partition column (`RunID` by default) in each package becomes
//! one partition, and rows whose partition cell is NULL — plus whole
//! tables that lack the partition column, like `ExperimentInfo` — land in
//! the package's meta partition. Partitions are ordered by
//! `(package, NULL-first run key)`, which makes partition-ordered
//! concatenation equal to the row engine's `ORDER BY RunID` with ties in
//! insertion order — the property the parity suite leans on.

use crate::column::{ColumnTable, Slab, StringPool};
use crate::error::QueryError;
use crate::plan::Scan;
use excovery_store::{ColumnType, Database, Repository, SqlValue};
use std::collections::BTreeMap;

/// Default partition column: the run id shared by all measurement tables.
pub const DEFAULT_PARTITION_COLUMN: &str = "RunID";

/// The schema of one ingested table (identical across partitions).
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Column names in order.
    pub names: Vec<String>,
    /// Column type affinities in order.
    pub kinds: Vec<ColumnType>,
}

impl TableSchema {
    pub(crate) fn empty_slabs(&self) -> Vec<Slab> {
        self.kinds
            .iter()
            .map(|k| match k {
                ColumnType::Integer => Slab::empty_i64(),
                ColumnType::Real => Slab::empty_f64(),
                ColumnType::Text => Slab::empty_str(),
                ColumnType::Blob => Slab::empty_bytes(),
            })
            .collect()
    }
}

/// One horizontal slice of the dataset: all rows of one experiment whose
/// partition cell equals `key` (`None` = the meta partition).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Package (experiment) id the rows came from.
    pub experiment: String,
    /// Index of the package in ingest order.
    pub experiment_index: usize,
    /// Partition-column value; `None` for the meta partition.
    pub key: Option<i64>,
    /// Per-table column slabs (only tables with rows in this partition).
    pub tables: BTreeMap<String, ColumnTable>,
}

/// A columnar snapshot of one or more level-3 packages, ready to scan.
///
/// Build one with [`Dataset::builder`] (or the [`Dataset::from_database`]
/// / [`Dataset::from_packages`] / [`Dataset::from_repository`]
/// conveniences), then query it through [`Dataset::scan`]:
///
/// ```no_run
/// # fn demo(db: &excovery_store::Database) -> Result<(), excovery_query::QueryError> {
/// use excovery_query::{col, lit, Agg, Dataset};
/// let ds = Dataset::from_database(db)?;
/// let frame = ds
///     .scan("Events")
///     .filter(col("EventType").eq(lit("sd_service_add")))
///     .group_by(["RunID"])
///     .agg([Agg::count()])
///     .collect()?;
/// # let _ = frame; Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    pub(crate) pool: StringPool,
    pub(crate) partitions: Vec<Partition>,
    pub(crate) schemas: BTreeMap<String, TableSchema>,
    pub(crate) partition_column: String,
    pub(crate) experiments: Vec<String>,
    /// On-disk partition store; when set, `partitions` is empty and every
    /// partition loads lazily through the spill layer (see `spill.rs`).
    pub(crate) spill: Option<std::sync::Arc<crate::spill::SpillStore>>,
}

impl Dataset {
    /// Starts a dataset builder with the default `RunID` partitioning.
    pub fn builder() -> DatasetBuilder {
        DatasetBuilder {
            partition_column: DEFAULT_PARTITION_COLUMN.to_string(),
            dataset: Dataset {
                pool: StringPool::new(),
                partitions: Vec::new(),
                schemas: BTreeMap::new(),
                partition_column: DEFAULT_PARTITION_COLUMN.to_string(),
                experiments: Vec::new(),
                spill: None,
            },
        }
    }

    /// Ingests a single package under the experiment id `"default"`.
    pub fn from_database(db: &Database) -> Result<Self, QueryError> {
        Ok(Self::builder().add_package("default", db)?.build())
    }

    /// Ingests `(experiment id, package)` pairs in order.
    pub fn from_packages(packages: &[(&str, &Database)]) -> Result<Self, QueryError> {
        let mut b = Self::builder();
        for (id, db) in packages {
            b = b.add_package(id, db)?;
        }
        Ok(b.build())
    }

    /// Ingests every package of a level-4 repository, in index order.
    pub fn from_repository(repo: &Repository) -> Result<Self, QueryError> {
        let mut b = Self::builder();
        for entry in repo.index()? {
            let db = repo.load(&entry.id)?;
            b = b.add_package(&entry.id, &db)?;
        }
        Ok(b.build())
    }

    /// Starts a scan of `table`.
    pub fn scan(&self, table: impl Into<String>) -> Scan<'_> {
        Scan::new(self, table.into())
    }

    /// Ingested experiment ids, in ingest order.
    pub fn experiments(&self) -> &[String] {
        &self.experiments
    }

    /// The column used for partitioning.
    pub fn partition_column(&self) -> &str {
        &self.partition_column
    }

    /// Number of partitions (including meta partitions and partitions
    /// that currently live on disk).
    pub fn partition_count(&self) -> usize {
        match &self.spill {
            Some(store) => store.partition_count(),
            None => self.partitions.len(),
        }
    }

    /// The schema of an ingested table.
    pub fn schema(&self, table: &str) -> Result<&TableSchema, QueryError> {
        self.schemas
            .get(table)
            .ok_or_else(|| QueryError::NoSuchTable(table.to_string()))
    }

    /// Total ingested rows of `table` across all partitions. For spilled
    /// datasets this is answered from footer statistics alone — no
    /// partition is loaded.
    pub fn table_rows(&self, table: &str) -> Result<usize, QueryError> {
        self.schema(table)?;
        if let Some(store) = &self.spill {
            return Ok(store.table_rows(table));
        }
        Ok(self
            .partitions
            .iter()
            .filter_map(|p| p.tables.get(table))
            .map(|t| t.rows)
            .sum())
    }
}

/// Builds a [`Dataset`] package by package.
#[derive(Debug)]
pub struct DatasetBuilder {
    partition_column: String,
    dataset: Dataset,
}

impl DatasetBuilder {
    /// Changes the partition column (default `RunID`). Must be called
    /// before the first package is added.
    pub fn partition_by(mut self, column: impl Into<String>) -> Self {
        assert!(
            self.dataset.partitions.is_empty() && self.dataset.experiments.is_empty(),
            "partition_by must precede add_package"
        );
        self.partition_column = column.into();
        self.dataset.partition_column = self.partition_column.clone();
        self
    }

    /// Ingests one `(experiment id, package)` pair.
    pub fn add_package(mut self, experiment: &str, db: &Database) -> Result<Self, QueryError> {
        let exp_index = self.dataset.experiments.len();
        self.dataset.experiments.push(experiment.to_string());
        let parts = ingest_package(
            &mut self.dataset.pool,
            &mut self.dataset.schemas,
            &self.partition_column,
            experiment,
            exp_index,
            db,
        )?;
        self.dataset.partitions.extend(parts);
        Ok(self)
    }

    /// Finishes the build.
    pub fn build(self) -> Dataset {
        self.dataset
    }
}

/// Splits one package into partitions, interning strings into `pool` and
/// checking `schemas` for cross-package consistency. Shared by the
/// in-memory [`DatasetBuilder`], the streaming spill builder and the
/// incremental standing-query layer, so all three produce byte-identical
/// slabs for the same rows.
pub(crate) fn ingest_package(
    pool: &mut StringPool,
    schemas: &mut BTreeMap<String, TableSchema>,
    partition_column: &str,
    experiment: &str,
    exp_index: usize,
    db: &Database,
) -> Result<Vec<Partition>, QueryError> {
    // Partition key → table name → slabs; BTreeMap keeps keys in
    // ascending order with the meta (None) partition first, which is
    // exactly `ORDER BY RunID` order under cmp_sql (NULL first).
    let mut parts: BTreeMap<Option<i64>, BTreeMap<String, ColumnTable>> = BTreeMap::new();
    for name in db.table_names() {
        let table = db.table(name)?;
        let schema = TableSchema {
            names: table.columns.iter().map(|c| c.name.clone()).collect(),
            kinds: table.columns.iter().map(|c| c.ctype).collect(),
        };
        if let Some(existing) = schemas.get(name) {
            if existing.names != schema.names || existing.kinds != schema.kinds {
                return Err(QueryError::Unsupported(format!(
                    "table {name:?} has a different schema in package {experiment:?}"
                )));
            }
        } else {
            schemas.insert(name.to_string(), schema.clone());
        }
        let part_col = schema
            .names
            .iter()
            .position(|n| n == partition_column)
            .filter(|&i| schema.kinds[i] == ColumnType::Integer);
        for row in table.rows() {
            let key = part_col.and_then(|i| row[i].as_int());
            let dest = parts
                .entry(key)
                .or_default()
                .entry(name.to_string())
                .or_insert_with(|| ColumnTable::new(schema.names.clone(), schema.empty_slabs()));
            for (cell, slab) in row.iter().zip(dest.slabs.iter_mut()) {
                match cell {
                    SqlValue::Null => slab.push_null(),
                    SqlValue::Int(v) => match slab {
                        // Integers stored into a Real column widen,
                        // matching `SqlValue::as_real` and keeping
                        // cmp_sql's numeric kind class intact.
                        Slab::F64 { .. } => slab.push_f64(*v as f64),
                        _ => slab.push_i64(*v),
                    },
                    SqlValue::Real(v) => slab.push_f64(*v),
                    SqlValue::Text(s) => {
                        let id = pool.intern(s);
                        slab.push_str(id);
                    }
                    SqlValue::Blob(b) => slab.push_bytes(b),
                }
            }
            dest.rows += 1;
        }
    }
    Ok(parts
        .into_iter()
        .map(|(key, tables)| Partition {
            experiment: experiment.to_string(),
            experiment_index: exp_index,
            key,
            tables,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_store::records::{EventRow, RunInfoRow};
    use excovery_store::schema::create_level3_database;

    fn package(runs: u64) -> Database {
        let mut db = create_level3_database();
        for run in 0..runs {
            RunInfoRow {
                run_id: run,
                node_id: "su".into(),
                start_time_ns: run as i64 * 100,
                time_diff_ns: 0,
            }
            .insert(&mut db)
            .unwrap();
            for t in 0..3i64 {
                EventRow {
                    run_id: run,
                    node_id: "su".into(),
                    common_time_ns: t * 10,
                    event_type: "sd_probe".into(),
                    parameter: String::new(),
                }
                .insert(&mut db)
                .unwrap();
            }
        }
        db
    }

    #[test]
    fn partitions_split_by_run_with_meta_partition() {
        let db = package(3);
        let ds = Dataset::from_database(&db).unwrap();
        // Empty tables produce no partitions of their own; Events and
        // RunInfos have rows for runs 0..3. No NULL run ids → no meta
        // partition here.
        assert_eq!(ds.partition_count(), 3);
        assert_eq!(ds.partitions[0].key, Some(0));
        assert_eq!(ds.partitions[2].key, Some(2));
        assert_eq!(ds.table_rows("Events").unwrap(), 9);
        assert_eq!(ds.table_rows("RunInfos").unwrap(), 3);
        assert_eq!(ds.experiments(), ["default".to_string()]);
    }

    #[test]
    fn tables_without_partition_column_land_in_meta() {
        let mut db = package(1);
        excovery_store::ExperimentInfo {
            exp_xml: "<x/>".into(),
            ee_version: "v".into(),
            name: "n".into(),
            comment: String::new(),
        }
        .insert(&mut db)
        .unwrap();
        let ds = Dataset::from_database(&db).unwrap();
        assert_eq!(ds.partitions[0].key, None, "meta partition sorts first");
        assert!(ds.partitions[0].tables.contains_key("ExperimentInfo"));
        assert_eq!(ds.table_rows("ExperimentInfo").unwrap(), 1);
    }

    #[test]
    fn packages_keep_ingest_order() {
        let a = package(2);
        let b = package(1);
        let ds = Dataset::from_packages(&[("exp-a", &a), ("exp-b", &b)]).unwrap();
        assert_eq!(ds.experiments(), ["exp-a".to_string(), "exp-b".to_string()]);
        assert_eq!(ds.partition_count(), 3);
        assert_eq!(ds.partitions[0].experiment, "exp-a");
        assert_eq!(ds.partitions[2].experiment, "exp-b");
        assert_eq!(ds.partitions[2].experiment_index, 1);
    }

    #[test]
    fn unknown_table_is_a_typed_error() {
        let ds = Dataset::from_database(&package(1)).unwrap();
        assert!(matches!(ds.schema("Nope"), Err(QueryError::NoSuchTable(_))));
        assert!(matches!(
            ds.table_rows("Nope"),
            Err(QueryError::NoSuchTable(_))
        ));
    }

    #[test]
    fn custom_partition_column() {
        let db = package(2);
        let ds = Dataset::builder()
            .partition_by("CommonTime")
            .add_package("x", &db)
            .unwrap()
            .build();
        // Events split by CommonTime (0, 10, 20); RunInfos lacks the
        // column entirely and lands in the meta partition.
        assert_eq!(ds.partition_column(), "CommonTime");
        assert_eq!(ds.partition_count(), 4);
        assert_eq!(ds.partitions[0].key, None);
        assert!(ds.partitions[0].tables.contains_key("RunInfos"));
    }
}
