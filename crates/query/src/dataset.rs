//! Dataset ingest: level-3 packages → partitioned column slabs.
//!
//! A [`Dataset`] snapshots one or more experiment packages into typed
//! column slabs, partitioned by experiment and run: every distinct value
//! of the partition column (`RunID` by default) in each package becomes
//! one partition, and rows whose partition cell is NULL — plus whole
//! tables that lack the partition column, like `ExperimentInfo` — land in
//! the package's meta partition. Partitions are ordered by
//! `(package, NULL-first run key)`, so partition-ordered concatenation
//! lists rows by run with ties in insertion order — the order
//! `excovery_store::records` reads in, which the parity suite leans on.
//! A NaN `Real` cell is refused at ingest, as `Database::save` refuses
//! it: it has no place in the SQL order scans sort and group by.

use crate::column::{ColumnTable, Slab, StringPool};
use crate::error::QueryError;
use crate::plan::Scan;
use excovery_store::{CellRef, ColumnRef, ColumnType, Database, Repository};
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
    // `ORDER BY RunID` in the SQL order (NULL first).
    let mut parts: BTreeMap<Option<i64>, BTreeMap<String, ColumnTable>> = BTreeMap::new();
    for name in db.table_names() {
        let table = db.table(name)?;
        let schema = TableSchema {
            names: table.columns().iter().map(|c| c.name.clone()).collect(),
            kinds: table.columns().iter().map(|c| c.ctype).collect(),
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
        let columns: Vec<ColumnRef<'_>> =
            (0..schema.names.len()).map(|c| table.column(c)).collect();
        let text_ids = intern_row_major(pool, name, &schema, &columns, table.len())?;
        // Each partition's rows, in insertion order.
        let mut groups: BTreeMap<Option<i64>, Vec<usize>> = BTreeMap::new();
        let mut add = |key: Option<i64>, r: usize| match groups.last_entry() {
            // Runs are recorded one after another in ascending order, so
            // a row mostly joins the last partition.
            Some(mut last) if *last.key() == key => last.get_mut().push(r),
            _ => groups.entry(key).or_default().push(r),
        };
        match part_col.map(|c| columns[c]) {
            // A column that never held a NULL has no bitmap words.
            Some(ColumnRef::Integer { nulls: [], values }) => values
                .iter()
                .enumerate()
                .for_each(|(r, &v)| add(Some(v), r)),
            Some(column) => (0..table.len()).for_each(|r| match column.get(r) {
                CellRef::Int(v) => add(Some(v), r),
                _ => add(None, r),
            }),
            None => (0..table.len()).for_each(|r| add(None, r)),
        }
        for (key, rows) in groups {
            let mut slabs = schema.empty_slabs();
            for ((slab, column), ids) in slabs.iter_mut().zip(&columns).zip(&text_ids) {
                scatter(slab, *column, ids, &rows);
            }
            let mut dest = ColumnTable::new(schema.names.clone(), slabs);
            dest.rows = rows.len();
            parts.entry(key).or_default().insert(name.to_string(), dest);
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

/// Interns every text cell of a table in row-major order, so pool ids are
/// the ones a row-at-a-time ingest assigns, and refuses the first NaN in
/// that order. Returns one id per row for each text column (empty for
/// the others).
fn intern_row_major(
    pool: &mut StringPool,
    name: &str,
    schema: &TableSchema,
    columns: &[ColumnRef<'_>],
    len: usize,
) -> Result<Vec<Vec<u32>>, QueryError> {
    let visited: Vec<(usize, ColumnRef<'_>)> = columns
        .iter()
        .copied()
        .enumerate()
        .filter(|(c, _)| matches!(schema.kinds[*c], ColumnType::Text | ColumnType::Real))
        .collect();
    let mut ids = vec![Vec::new(); columns.len()];
    for r in 0..len {
        for &(c, column) in &visited {
            match column.get(r) {
                CellRef::Text(s) => ids[c].push(pool.intern(s)),
                CellRef::Null if schema.kinds[c] == ColumnType::Text => ids[c].push(0),
                // A NaN has no place in the SQL order, so sorting or
                // grouping by it could not be answered.
                CellRef::Real(v) if v.is_nan() => {
                    return Err(QueryError::Unsupported(format!(
                        "table {name:?}, column {:?}: a NaN cell has no order",
                        schema.names[c]
                    )));
                }
                _ => {}
            }
        }
    }
    Ok(ids)
}

/// Appends rows `rows` of `column` to `slab`; `ids` are the column's
/// interned text ids.
fn scatter(slab: &mut Slab, column: ColumnRef<'_>, ids: &[u32], rows: &[usize]) {
    // A column that never held a NULL has no bitmap words.
    if let ColumnRef::Integer { nulls: [], values } = column {
        rows.iter().for_each(|&r| slab.push_i64(values[r]));
        return;
    }
    let widen = matches!(column, ColumnRef::Real { .. });
    for &r in rows {
        match column.get(r) {
            CellRef::Null => slab.push_null(),
            // Integers stored into a Real column widen, keeping the
            // numbers one kind in the SQL order.
            CellRef::Int(v) if widen => slab.push_f64(v as f64),
            CellRef::Int(v) => slab.push_i64(v),
            CellRef::Real(v) => slab.push_f64(v),
            CellRef::Text(_) => slab.push_str(ids[r]),
            CellRef::Blob(b) => slab.push_bytes(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_store::records::{EventRow, RunInfoRow};
    use excovery_store::schema::create_level3_database;
    use excovery_store::SqlValue;

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
    fn a_nan_real_cell_is_refused_at_ingest() {
        use excovery_store::Column;
        let metrics = |values: &[f64]| {
            let mut db = Database::new();
            db.create_table(
                "M",
                vec![
                    Column::new("RunID", ColumnType::Integer),
                    Column::new("Value", ColumnType::Real),
                ],
            )
            .unwrap();
            for &v in values {
                db.insert("M", vec![SqlValue::Int(0), SqlValue::Real(v)])
                    .unwrap();
            }
            db
        };
        let ordered = metrics(&[1.5, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
        let ds = Dataset::from_database(&ordered).unwrap();
        let spec = ds
            .scan("M")
            .group_by(["Value"])
            .agg([crate::Agg::count()])
            .to_spec()
            .unwrap();
        assert_eq!(ds.run_spec(&spec).unwrap().rows.len(), 4);

        let with_nan = metrics(&[1.5, f64::NAN, 2.5]);
        let e = Dataset::from_database(&with_nan).expect_err("NaN has no order");
        assert!(
            matches!(&e, QueryError::Unsupported(m) if m.contains("\"M\"") && m.contains("\"Value\"")),
            "{e}"
        );
        // A standing query ingests through the same function.
        let mut standing = crate::StandingQuery::new(spec);
        assert_eq!(standing.ingest_package("x", &with_nan), Err(e));
    }

    #[test]
    fn null_and_out_of_order_run_ids_keep_insertion_order_per_partition() {
        use crate::column::Value;
        use excovery_store::Column;
        let mut db = Database::new();
        db.create_table(
            "T",
            vec![
                Column::new("RunID", ColumnType::Integer),
                Column::new("V", ColumnType::Real),
                Column::new("S", ColumnType::Text),
            ],
        )
        .unwrap();
        let rows = [
            (SqlValue::Int(2), SqlValue::Int(7), "b".into()),
            (SqlValue::Null, SqlValue::Real(0.5), SqlValue::Null),
            (SqlValue::Int(1), SqlValue::Null, "a".into()),
            (SqlValue::Int(2), SqlValue::Real(-0.0), "a".into()),
        ];
        for (run, v, s) in rows {
            db.insert("T", vec![run, v, s]).unwrap();
        }
        let ds = Dataset::from_database(&db).unwrap();
        let keys: Vec<_> = ds.partitions.iter().map(|p| p.key).collect();
        assert_eq!(keys, [None, Some(1), Some(2)]);
        // Text is interned in row order across partitions.
        assert_eq!(
            (ds.pool.lookup("b"), ds.pool.lookup("a")),
            (Some(0), Some(1))
        );
        let cells = |p: usize| {
            let t = &ds.partitions[p].tables["T"];
            (0..t.rows)
                .map(|r| {
                    let cell = |c: usize| t.slabs[c].value(r, &ds.pool);
                    (cell(0), cell(1), cell(2))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(cells(0), [(Value::Null, Value::F64(0.5), Value::Null)]);
        assert_eq!(
            cells(1),
            [(Value::I64(1), Value::Null, Value::Str("a".into()))]
        );
        // The `Int` in the `Real` column widens; `-0.0` keeps its sign.
        let run2 = cells(2);
        assert_eq!(
            run2,
            [
                (Value::I64(2), Value::F64(7.0), Value::Str("b".into())),
                (Value::I64(2), Value::F64(-0.0), Value::Str("a".into())),
            ]
        );
        assert!(matches!(run2[1].1, Value::F64(v) if v.is_sign_negative()));
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
