//! Spill-to-disk partitions: datasets larger than RAM behind a memory
//! budget.
//!
//! A spilled [`Dataset`] keeps no partition resident by default — every
//! partition lives in one slab file (see `slab_io`) and is decoded
//! lazily when a scan touches it. Loaded partitions are cached under a
//! configurable byte budget (`EXCOVERY_QUERY_MEM`, default 256 MiB) and
//! evicted least-recently-used when the budget is exceeded, so the
//! resident set stays bounded however large the warehouse grows.
//!
//! Three entry points:
//!
//! * [`Dataset::spill_to`] — write an in-memory dataset out and return
//!   its spilled twin (same pool, same scan results bit for bit).
//! * [`SpillBuilder`] — stream packages to disk one at a time, never
//!   materialising more than one package's partitions; this is how the
//!   bench grows a 10M-fact warehouse without holding it in memory.
//! * [`Dataset::open_spill`] — reopen a spill directory cold: footers
//!   only, dictionaries merged into a fresh pool, no data blocks read.
//!
//! Determinism: partitions are ordered by `(experiment index, NULL-first
//! key)` — the in-memory ingest order — so scans over a spilled dataset
//! merge partials in the same sequence and stay bit-identical to their
//! in-memory twin at any worker count and any budget.

use crate::column::StringPool;
use crate::dataset::{ingest_package, Dataset, Partition, TableSchema, DEFAULT_PARTITION_COLUMN};
use crate::error::QueryError;
use crate::slab_io::{
    read_footer, read_partition, read_partition_projected, write_partition, PartitionFooter,
    SLAB_FILE_EXTENSION,
};
use excovery_store::{ColumnType, Database};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable naming the resident-memory budget in bytes.
pub(crate) const MEMORY_BUDGET_ENV: &str = "EXCOVERY_QUERY_MEM";

/// Default resident-memory budget: 256 MiB.
pub const DEFAULT_MEMORY_BUDGET: u64 = 256 * 1024 * 1024;

/// The budget from `EXCOVERY_QUERY_MEM` (bytes), or the default.
pub fn memory_budget_from_env() -> u64 {
    std::env::var(MEMORY_BUDGET_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_MEMORY_BUDGET)
}

/// One on-disk partition: its file, its footer, the dictionary remap
/// into the dataset pool, and the cached decode (if resident).
#[derive(Debug)]
struct SpillSlot {
    path: PathBuf,
    footer: PartitionFooter,
    remap: Vec<u32>,
    cached: Mutex<Option<Arc<Partition>>>,
    last_used: AtomicU64,
}

/// The on-disk partition store behind a spilled [`Dataset`]: slab files,
/// footer statistics, a bounded cache of decoded partitions.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    budget: u64,
    slots: Vec<SpillSlot>,
    resident: AtomicU64,
    clock: AtomicU64,
}

impl SpillStore {
    fn new(dir: PathBuf, budget: u64, slots: Vec<SpillSlot>) -> Self {
        Self {
            dir,
            budget,
            slots,
            resident: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The resident-memory budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Number of on-disk partitions.
    pub fn partition_count(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of decoded partitions currently cached (footer estimates).
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::SeqCst)
    }

    /// Total rows of `table` across all partitions, from footers alone.
    pub fn table_rows(&self, table: &str) -> usize {
        self.slots
            .iter()
            .filter_map(|s| s.footer.table_rows(table))
            .sum::<u64>() as usize
    }

    /// Per-partition footers, in canonical partition order.
    pub fn footers(&self) -> impl Iterator<Item = &PartitionFooter> {
        self.slots.iter().map(|s| &s.footer)
    }

    /// Loads partition `i`, from cache when resident, decoding (and then
    /// evicting colder partitions past the budget) when not. The
    /// returned `Arc` stays valid even if the slot is evicted mid-scan.
    pub(crate) fn load(&self, i: usize) -> Result<Arc<Partition>, QueryError> {
        let slot = &self.slots[i];
        slot.last_used.store(
            self.clock.fetch_add(1, Ordering::SeqCst) + 1,
            Ordering::SeqCst,
        );
        let part = {
            // Hold the slot lock across the decode so concurrent scans
            // of one partition do the IO once.
            let mut cached = slot.cached.lock().unwrap();
            match cached.as_ref() {
                Some(p) => return Ok(p.clone()),
                None => {
                    let part = Arc::new(read_partition(&slot.path, &slot.footer, &slot.remap)?);
                    *cached = Some(part.clone());
                    self.resident
                        .fetch_add(slot.footer.decoded_bytes, Ordering::SeqCst);
                    if excovery_obs::enabled() {
                        excovery_obs::global()
                            .counter("query_partitions_loaded_total", &[])
                            .inc();
                    }
                    part
                }
            }
        };
        self.evict_to_budget(i);
        Ok(part)
    }

    /// Loads partition `i` decoding only the named `columns` of `table`
    /// (projection pushdown). An already-resident partition is reused
    /// as-is, and a projection covering the whole file takes the normal
    /// caching [`load`](Self::load) path; a genuinely narrow decode
    /// bypasses the cache entirely — the cache only ever holds complete
    /// partitions, so a narrow scan neither poisons it with partial data
    /// nor evicts a wider working set.
    pub(crate) fn load_projected(
        &self,
        i: usize,
        table: &str,
        columns: &[String],
    ) -> Result<Arc<Partition>, QueryError> {
        let slot = &self.slots[i];
        let full = slot.footer.tables.iter().all(|t| {
            t.name == table
                && t.columns
                    .iter()
                    .all(|c| columns.iter().any(|n| n == &c.name))
        });
        if full {
            return self.load(i);
        }
        if let Some(p) = slot.cached.lock().unwrap().as_ref() {
            slot.last_used.store(
                self.clock.fetch_add(1, Ordering::SeqCst) + 1,
                Ordering::SeqCst,
            );
            return Ok(Arc::clone(p));
        }
        let part = read_partition_projected(&slot.path, &slot.footer, &slot.remap, table, columns)?;
        if excovery_obs::enabled() {
            excovery_obs::global()
                .counter("query_partitions_projected_loads_total", &[])
                .inc();
        }
        Ok(Arc::new(part))
    }

    /// Drops least-recently-used cached partitions (never slot `keep`)
    /// until the resident estimate fits the budget again. In-flight
    /// scans keep their own `Arc` clones, so eviction is only a cache
    /// drop, never a dangling read.
    fn evict_to_budget(&self, keep: usize) {
        while self.resident.load(Ordering::SeqCst) > self.budget {
            let mut coldest: Option<(u64, usize)> = None;
            for (j, s) in self.slots.iter().enumerate() {
                if j == keep {
                    continue;
                }
                if s.cached.lock().unwrap().is_some() {
                    let lu = s.last_used.load(Ordering::SeqCst);
                    if coldest.is_none_or(|(best, _)| lu < best) {
                        coldest = Some((lu, j));
                    }
                }
            }
            let Some((_, j)) = coldest else { break };
            if self.slots[j].cached.lock().unwrap().take().is_some() {
                self.resident
                    .fetch_sub(self.slots[j].footer.decoded_bytes, Ordering::SeqCst);
                if excovery_obs::enabled() {
                    excovery_obs::global()
                        .counter("query_partitions_evicted_total", &[])
                        .inc();
                }
            }
        }
        if excovery_obs::enabled() {
            excovery_obs::global()
                .gauge("query_resident_bytes", &[])
                .set(self.resident.load(Ordering::SeqCst) as i64);
        }
    }
}

fn slot_path(dir: &Path, ordinal: usize) -> PathBuf {
    dir.join(format!("part-{ordinal:06}.{SLAB_FILE_EXTENSION}"))
}

/// Writes one partition and builds its slot; the dictionary remap is an
/// identity lookup because every dict string came out of `pool`.
fn write_slot(
    dir: &Path,
    ordinal: usize,
    partition_column: &str,
    p: &Partition,
    pool: &StringPool,
) -> Result<SpillSlot, QueryError> {
    let path = slot_path(dir, ordinal);
    let footer = write_partition(&path, partition_column, p, pool)?;
    let remap = footer
        .dict
        .iter()
        .map(|s| pool.lookup(s).expect("dictionary string missing from pool"))
        .collect();
    if excovery_obs::enabled() {
        excovery_obs::global()
            .counter("query_partitions_spilled_total", &[])
            .inc();
    }
    Ok(SpillSlot {
        path,
        footer,
        remap,
        cached: Mutex::new(None),
        last_used: AtomicU64::new(0),
    })
}

impl Dataset {
    /// Writes every partition to `dir` and returns the spilled twin of
    /// this dataset: nothing resident, everything loaded lazily under
    /// `budget` bytes (`None` = `EXCOVERY_QUERY_MEM` or the default).
    /// Scans over the twin are bit-identical to scans over `self`.
    pub fn spill_to(
        &self,
        dir: impl AsRef<Path>,
        budget: Option<u64>,
    ) -> Result<Dataset, QueryError> {
        if self.spill.is_some() {
            return Err(QueryError::Unsupported("dataset is already spilled".into()));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| QueryError::Io(format!("create {}: {e}", dir.display())))?;
        let slots = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| write_slot(dir, i, &self.partition_column, p, &self.pool))
            .collect::<Result<Vec<_>, _>>()?;
        let budget = budget.unwrap_or_else(memory_budget_from_env);
        Ok(Dataset {
            pool: self.pool.clone(),
            partitions: Vec::new(),
            schemas: self.schemas.clone(),
            partition_column: self.partition_column.clone(),
            experiments: self.experiments.clone(),
            spill: Some(Arc::new(SpillStore::new(dir.to_path_buf(), budget, slots))),
        })
    }

    /// Reopens a spill directory cold: reads every footer (no data
    /// blocks), merges the file dictionaries into a fresh pool, rebuilds
    /// schemas and experiment order, and serves scans lazily under
    /// `budget` bytes.
    pub fn open_spill(dir: impl AsRef<Path>, budget: Option<u64>) -> Result<Dataset, QueryError> {
        let dir = dir.as_ref();
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| QueryError::Io(format!("open {}: {e}", dir.display())))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == SLAB_FILE_EXTENSION))
            .collect();
        files.sort();
        let mut loaded: Vec<(PathBuf, PartitionFooter)> = files
            .into_iter()
            .map(|p| read_footer(&p).map(|f| (p, f)))
            .collect::<Result<_, _>>()?;
        // Canonical partition order — identical to in-memory ingest.
        loaded.sort_by_key(|(_, f)| (f.experiment_index, f.key));

        let mut pool = StringPool::new();
        let mut schemas: BTreeMap<String, TableSchema> = BTreeMap::new();
        let mut experiments: Vec<String> = Vec::new();
        let mut partition_column: Option<String> = None;
        let mut slots = Vec::with_capacity(loaded.len());
        for (path, footer) in loaded {
            match &partition_column {
                None => partition_column = Some(footer.partition_column.clone()),
                Some(pc) if *pc != footer.partition_column => {
                    return Err(QueryError::Corrupt(format!(
                        "{}: partition column {:?} differs from {pc:?}",
                        path.display(),
                        footer.partition_column
                    )));
                }
                _ => {}
            }
            let idx = footer.experiment_index as usize;
            if idx == experiments.len() {
                experiments.push(footer.experiment.clone());
            } else if experiments.get(idx) != Some(&footer.experiment) {
                return Err(QueryError::Corrupt(format!(
                    "{}: experiment index {idx} is not contiguous",
                    path.display()
                )));
            }
            for t in &footer.tables {
                let schema = TableSchema {
                    names: t.columns.iter().map(|c| c.name.clone()).collect(),
                    kinds: t
                        .columns
                        .iter()
                        .map(|c| c.kind)
                        .collect::<Vec<ColumnType>>(),
                };
                match schemas.get(&t.name) {
                    None => {
                        schemas.insert(t.name.clone(), schema);
                    }
                    Some(existing)
                        if existing.names != schema.names || existing.kinds != schema.kinds =>
                    {
                        return Err(QueryError::Corrupt(format!(
                            "{}: table {:?} schema differs across partitions",
                            path.display(),
                            t.name
                        )));
                    }
                    _ => {}
                }
            }
            let remap = footer.dict.iter().map(|s| pool.intern(s)).collect();
            slots.push(SpillSlot {
                path,
                footer,
                remap,
                cached: Mutex::new(None),
                last_used: AtomicU64::new(0),
            });
        }
        let budget = budget.unwrap_or_else(memory_budget_from_env);
        Ok(Dataset {
            pool,
            partitions: Vec::new(),
            schemas,
            partition_column: partition_column
                .unwrap_or_else(|| DEFAULT_PARTITION_COLUMN.to_string()),
            experiments,
            spill: Some(Arc::new(SpillStore::new(dir.to_path_buf(), budget, slots))),
        })
    }

    /// The spill store, if this dataset is spilled.
    pub fn spill_store(&self) -> Option<&SpillStore> {
        self.spill.as_deref()
    }
}

/// Streams packages into a spill directory one at a time: each package
/// is ingested, written out partition by partition, and dropped before
/// the next arrives — peak memory is one package, not the warehouse.
#[derive(Debug)]
pub struct SpillBuilder {
    dir: PathBuf,
    partition_column: String,
    pool: StringPool,
    schemas: BTreeMap<String, TableSchema>,
    experiments: Vec<String>,
    slots: Vec<SpillSlot>,
}

impl SpillBuilder {
    /// Starts a streaming spill into `dir` (created if missing), with
    /// the default `RunID` partitioning.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, QueryError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| QueryError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(Self {
            dir,
            partition_column: DEFAULT_PARTITION_COLUMN.to_string(),
            pool: StringPool::new(),
            schemas: BTreeMap::new(),
            experiments: Vec::new(),
            slots: Vec::new(),
        })
    }

    /// Changes the partition column. Must precede the first package.
    pub fn partition_by(mut self, column: impl Into<String>) -> Self {
        assert!(
            self.experiments.is_empty(),
            "partition_by must precede add_package"
        );
        self.partition_column = column.into();
        self
    }

    /// Ingests one package and writes its partitions straight to disk.
    /// Returns the number of partitions written.
    pub fn add_package(&mut self, experiment: &str, db: &Database) -> Result<usize, QueryError> {
        let exp_index = self.experiments.len();
        self.experiments.push(experiment.to_string());
        let parts = ingest_package(
            &mut self.pool,
            &mut self.schemas,
            &self.partition_column,
            experiment,
            exp_index,
            db,
        )?;
        let written = parts.len();
        for p in parts {
            self.slots.push(write_slot(
                &self.dir,
                self.slots.len(),
                &self.partition_column,
                &p,
                &self.pool,
            )?);
        }
        Ok(written)
    }

    /// Finishes the stream: a spilled dataset over everything written,
    /// budgeted at `budget` bytes (`None` = env or default).
    pub fn finish(self, budget: Option<u64>) -> Dataset {
        let budget = budget.unwrap_or_else(memory_budget_from_env);
        Dataset {
            pool: self.pool,
            partitions: Vec::new(),
            schemas: self.schemas,
            partition_column: self.partition_column.clone(),
            experiments: self.experiments,
            spill: Some(Arc::new(SpillStore::new(self.dir, budget, self.slots))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Agg;
    use crate::expr::{col, lit};
    use excovery_store::records::{EventRow, RunInfoRow};
    use excovery_store::schema::create_level3_database;

    fn package(runs: u64, base: i64) -> Database {
        let mut db = create_level3_database();
        for run in 0..runs {
            RunInfoRow {
                run_id: run,
                node_id: "su".into(),
                start_time_ns: 0,
                time_diff_ns: 0,
            }
            .insert(&mut db)
            .unwrap();
            for k in 0..40i64 {
                EventRow {
                    run_id: run,
                    node_id: if k % 2 == 0 { "su" } else { "sp" }.into(),
                    common_time_ns: base + k,
                    event_type: if k % 5 == 0 {
                        "sd_service_add"
                    } else {
                        "sd_probe"
                    }
                    .into(),
                    parameter: String::new(),
                }
                .insert(&mut db)
                .unwrap();
            }
        }
        db
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spill-{tag}-{}", std::process::id()))
    }

    fn query(ds: &Dataset, workers: usize) -> u64 {
        ds.scan("Events")
            .filter(col("NodeID").eq(lit("su")))
            .group_by(["RunID", "EventType"])
            .agg([
                Agg::count(),
                Agg::mean("CommonTime"),
                Agg::max("CommonTime"),
            ])
            .workers(workers)
            .collect()
            .unwrap()
            .digest()
    }

    #[test]
    fn spilled_scans_are_bit_identical_to_resident_scans() {
        let (a, b) = (package(4, 100), package(3, 9000));
        let ds = Dataset::from_packages(&[("a", &a), ("b", &b)]).unwrap();
        let dir = tmp("ident");
        let spilled = ds.spill_to(&dir, Some(DEFAULT_MEMORY_BUDGET)).unwrap();
        assert_eq!(spilled.partition_count(), ds.partition_count());
        assert_eq!(
            spilled.table_rows("Events").unwrap(),
            ds.table_rows("Events").unwrap()
        );
        for workers in [1, 4] {
            assert_eq!(query(&ds, workers), query(&spilled, workers));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_budget_bounds_the_resident_set() {
        let ds = Dataset::from_database(&package(6, 0)).unwrap();
        let dir = tmp("evict");
        // A budget below one partition: every load evicts the previous.
        let spilled = ds.spill_to(&dir, Some(1)).unwrap();
        for workers in [1, 4] {
            assert_eq!(query(&ds, workers), query(&spilled, workers), "budget=1");
        }
        let store = spilled.spill_store().unwrap();
        let largest = store.footers().map(|f| f.decoded_bytes).max().unwrap();
        assert!(
            store.resident_bytes() <= largest,
            "resident {} exceeds one partition ({largest})",
            store.resident_bytes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_spill_rebuilds_the_dataset_cold() {
        let (a, b) = (package(3, 50), package(2, 7000));
        let ds = Dataset::from_packages(&[("x", &a), ("y", &b)]).unwrap();
        let dir = tmp("open");
        ds.spill_to(&dir, None).unwrap();
        let cold = Dataset::open_spill(&dir, Some(DEFAULT_MEMORY_BUDGET)).unwrap();
        assert_eq!(cold.experiments(), ds.experiments());
        assert_eq!(cold.partition_column(), "RunID");
        assert_eq!(cold.partition_count(), ds.partition_count());
        assert_eq!(
            cold.table_rows("Events").unwrap(),
            ds.table_rows("Events").unwrap()
        );
        for workers in [1, 4] {
            assert_eq!(query(&ds, workers), query(&cold, workers));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_builder_matches_in_memory_ingest() {
        let (a, b) = (package(3, 10), package(2, 2000));
        let ds = Dataset::from_packages(&[("a", &a), ("b", &b)]).unwrap();
        let dir = tmp("stream");
        let mut builder = SpillBuilder::create(&dir).unwrap();
        assert_eq!(builder.add_package("a", &a).unwrap(), 3);
        assert_eq!(builder.add_package("b", &b).unwrap(), 2);
        let streamed = builder.finish(Some(DEFAULT_MEMORY_BUDGET));
        for workers in [1, 4] {
            assert_eq!(query(&ds, workers), query(&streamed, workers));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spilled_datasets_prune_from_footers() {
        let ds = Dataset::from_database(&package(5, 0)).unwrap();
        let dir = tmp("prune");
        let spilled = ds.spill_to(&dir, None).unwrap();
        let f = spilled
            .scan("Events")
            .filter(col("RunID").eq(lit(2i64)))
            .agg([Agg::count()])
            .collect()
            .unwrap();
        assert_eq!(f.rows[0][0], crate::column::Value::I64(40));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn double_spill_is_a_typed_error() {
        let ds = Dataset::from_database(&package(1, 0)).unwrap();
        let dir = tmp("double");
        let spilled = ds.spill_to(&dir, None).unwrap();
        assert!(matches!(
            spilled.spill_to(&dir, None),
            Err(QueryError::Unsupported(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
