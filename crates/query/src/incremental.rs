//! Standing queries: incremental plan execution over a growing campaign.
//!
//! A [`StandingQuery`] holds one serializable plan
//! ([`excovery_rpc::PlanSpec`]) plus per-partition scan state. Each time
//! a run completes, the scheduler (or a local caller) feeds the
//! experiment's current database back in with
//! [`ingest_package`](StandingQuery::ingest_package); only partitions
//! not seen before are scanned — completed run partitions are
//! immutable, so their state is computed once and kept. The meta
//! partition (rows with a NULL partition key: configuration tables,
//! experiment-level constants) *is* re-scanned every refresh, because
//! later slices may append to it.
//!
//! [`frame`](StandingQuery::frame) then merges the per-partition states
//! in canonical partition order — `(experiment index, partition key)`
//! with NULL first, the exact order a one-shot scan over the same data
//! uses — so the standing frame is **bit-identical** to
//! `Dataset::from_database(db)?.run_spec(&spec)` after every refresh,
//! at any ingest granularity and any arrival interleaving of runs
//! within an experiment. That equality is the correctness contract the
//! golden test (`tests/incremental_golden.rs`) pins down to
//! `f64::to_bits` level.

use crate::column::StringPool;
use crate::dataset::{self, Partition, TableSchema};
use crate::error::QueryError;
use crate::exec::{
    finalize_agg_frame, merge_groups, scan_partition_agg, scan_partition_rows, GroupMap, PartPlan,
    PlanCtx,
};
use crate::plan::Frame;
use crate::spec::{spec_to_agg, spec_to_expr};
use excovery_rpc::PlanSpec;
use excovery_store::Database;
use std::collections::BTreeMap;

/// Cached scan state of one partition under the standing plan.
#[derive(Debug, Clone)]
enum PartState {
    /// Aggregate mode: group key → one partial per aggregate.
    Agg(GroupMap),
    /// Row mode: the partition's filtered (and partition-locally
    /// sorted) projected rows.
    Rows(Vec<Vec<crate::column::Value>>),
}

/// An incrementally maintained query over runs as they land.
///
/// ```no_run
/// # use excovery_query::{Dataset, StandingQuery, Agg};
/// # use excovery_store::Database;
/// # fn demo(spec: excovery_rpc::PlanSpec, slices: Vec<Database>) {
/// let mut sq = StandingQuery::new(spec);
/// for db in &slices {
///     sq.ingest_package("exp-a", db).unwrap(); // scans only new runs
///     let frame = sq.frame().unwrap(); // == one-shot over db, bit for bit
///     println!("{} groups after {} refreshes", frame.len(), sq.refreshes());
/// }
/// # }
/// ```
pub struct StandingQuery {
    spec: PlanSpec,
    partition_column: String,
    pool: StringPool,
    schemas: BTreeMap<String, TableSchema>,
    /// Experiment names in first-ingest order; the index is the
    /// canonical partition sort key, exactly like `Dataset` packages.
    experiments: Vec<String>,
    /// `(experiment index, partition key)` → cached scan state. NULL
    /// keys (the meta partition) sort first, matching one-shot order.
    states: BTreeMap<(usize, Option<i64>), PartState>,
    refreshes: u64,
}

impl StandingQuery {
    /// A standing query for `spec`, partitioned by the default run-key
    /// column ([`crate::DEFAULT_PARTITION_COLUMN`]).
    pub fn new(spec: PlanSpec) -> StandingQuery {
        StandingQuery {
            spec,
            partition_column: crate::dataset::DEFAULT_PARTITION_COLUMN.to_string(),
            pool: StringPool::new(),
            schemas: BTreeMap::new(),
            experiments: Vec::new(),
            states: BTreeMap::new(),
            refreshes: 0,
        }
    }

    /// Overrides the partition column. Must match the `Dataset`
    /// partitioning this query's frames are compared against, and must
    /// be set before the first ingest.
    pub fn with_partition_column(mut self, column: impl Into<String>) -> StandingQuery {
        assert!(
            self.states.is_empty(),
            "with_partition_column must precede ingest_package"
        );
        self.partition_column = column.into();
        self
    }

    /// The plan this query maintains.
    pub fn spec(&self) -> &PlanSpec {
        &self.spec
    }

    /// Number of partitions with cached state.
    pub fn partitions(&self) -> usize {
        self.states.len()
    }

    /// Number of completed [`ingest_package`](Self::ingest_package)
    /// calls.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Folds the current state of one experiment's database in,
    /// scanning only partitions not seen before (plus the meta
    /// partition, which later slices may still append to). The database
    /// is a *cumulative* snapshot — feeding the same runs again is a
    /// no-op, so callers can simply hand over the whole experiment
    /// database after every slice.
    ///
    /// Returns the number of partitions whose state was (re)computed,
    /// including those decided from their statistics alone.
    pub fn ingest_package(&mut self, experiment: &str, db: &Database) -> Result<usize, QueryError> {
        let t0 = excovery_obs::enabled().then(std::time::Instant::now);
        let exp_index = match self.experiments.iter().position(|e| e == experiment) {
            Some(i) => i,
            None => {
                self.experiments.push(experiment.to_string());
                self.experiments.len() - 1
            }
        };
        let partitions = dataset::ingest_package(
            &mut self.pool,
            &mut self.schemas,
            &self.partition_column,
            experiment,
            exp_index,
            db,
        )?;
        // The plan context depends only on the scanned table's schema,
        // which the ingest above may have just introduced.
        let ctx = match self.schemas.get(&self.spec.table) {
            Some(schema) => Some(plan_ctx(&self.spec, schema, &self.pool)?),
            None => None,
        };
        let mut scanned = 0usize;
        for p in &partitions {
            let slot = (exp_index, p.key);
            // Completed-run partitions are immutable: state computed
            // once. The meta partition (NULL key) can still grow.
            if p.key.is_some() && self.states.contains_key(&slot) {
                continue;
            }
            let Some(ctx) = &ctx else { continue };
            let Some(state) = scan_state(ctx, p, &self.pool)? else {
                continue;
            };
            self.states.insert(slot, state);
            scanned += 1;
        }
        self.refreshes += 1;
        if let Some(t0) = t0 {
            let reg = excovery_obs::global();
            reg.counter("query_standing_refresh_total", &[]).inc();
            reg.histogram("query_standing_refresh_ns", &[])
                .observe(t0.elapsed().as_nanos() as u64);
        }
        Ok(scanned)
    }

    /// The plan's current result, merged from the cached per-partition
    /// states in canonical partition order — bit-identical to a
    /// one-shot `run_spec` over a dataset holding the same packages.
    pub fn frame(&self) -> Result<Frame, QueryError> {
        let schema = self
            .schemas
            .get(&self.spec.table)
            .ok_or_else(|| QueryError::NoSuchTable(self.spec.table.clone()))?;
        let ctx = plan_ctx(&self.spec, schema, &self.pool)?;
        if ctx.aggregate_mode() {
            let mut master = GroupMap::default();
            for state in self.states.values() {
                if let PartState::Agg(groups) = state {
                    merge_groups(&mut master, groups.clone());
                }
            }
            Ok(finalize_agg_frame(&ctx, master, &self.pool))
        } else {
            let mut rows = Vec::new();
            for state in self.states.values() {
                if let PartState::Rows(r) = state {
                    rows.extend(r.iter().cloned());
                }
            }
            Ok(Frame {
                columns: ctx.project.clone(),
                rows,
            })
        }
    }
}

/// Builds the resolved plan context a spec describes over `schema`.
fn plan_ctx(
    spec: &PlanSpec,
    schema: &TableSchema,
    pool: &StringPool,
) -> Result<PlanCtx, QueryError> {
    PlanCtx::new(
        schema,
        spec.table.clone(),
        spec.predicate.as_ref().map(spec_to_expr),
        spec.group_by.clone(),
        spec.aggs
            .iter()
            .map(spec_to_agg)
            .collect::<Result<Vec<_>, _>>()?,
        if spec.select.is_empty() {
            None
        } else {
            Some(spec.select.clone())
        },
        spec.sort_by.clone(),
        pool,
    )
}

/// Decides, and if needed scans, one partition under the plan — the
/// decision a one-shot scan makes, from the same slab statistics; `None`
/// when the partition has no slice of the scanned table.
fn scan_state(
    ctx: &PlanCtx,
    p: &Partition,
    pool: &StringPool,
) -> Result<Option<PartState>, QueryError> {
    let Some(t) = p.tables.get(&ctx.table) else {
        return Ok(None);
    };
    let plan = ctx.plan_partition(t.rows, &|c| t.column_stats(c));
    Ok(Some(match (plan, ctx.aggregate_mode()) {
        (PartPlan::Pruned, true) => PartState::Agg(GroupMap::default()),
        (PartPlan::Pruned, false) => PartState::Rows(Vec::new()),
        (PartPlan::Answered(groups), _) => PartState::Agg(groups),
        (PartPlan::Scan { filtered, .. }, true) => {
            PartState::Agg(scan_partition_agg(ctx, t, pool, filtered)?)
        }
        (PartPlan::Scan { filtered, .. }, false) => {
            PartState::Rows(scan_partition_rows(ctx, t, pool, filtered)?)
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use excovery_rpc::{AggOp, AggSpec as WireAggSpec};
    use excovery_store::{Column, ColumnType, SqlValue};

    fn mean_by_run_spec() -> PlanSpec {
        PlanSpec {
            table: "Facts".into(),
            predicate: None,
            group_by: vec!["RunID".into()],
            aggs: vec![
                WireAggSpec {
                    op: AggOp::Count,
                    column: None,
                    name: None,
                    q: None,
                },
                WireAggSpec {
                    op: AggOp::Mean,
                    column: Some("Latency".into()),
                    name: Some("mean_lat".into()),
                    q: None,
                },
            ],
            select: Vec::new(),
            sort_by: None,
        }
    }

    fn db_with_runs(runs: &[i64]) -> Database {
        let mut db = Database::new();
        db.create_table(
            "Facts",
            vec![
                Column::new("RunID", ColumnType::Integer),
                Column::new("Latency", ColumnType::Real),
            ],
        )
        .unwrap();
        for &run in runs {
            for i in 0..4 {
                db.insert(
                    "Facts",
                    vec![
                        SqlValue::Int(run),
                        SqlValue::Real(0.25 * (run as f64) + 0.1 * f64::from(i)),
                    ],
                )
                .unwrap();
            }
        }
        db
    }

    #[test]
    fn cumulative_ingest_matches_one_shot_bit_for_bit() {
        let mut sq = StandingQuery::new(mean_by_run_spec());
        for end in 1..=5i64 {
            let runs: Vec<i64> = (0..end).collect();
            let db = db_with_runs(&runs);
            sq.ingest_package("exp", &db).unwrap();
            let one_shot = Dataset::from_database(&db)
                .unwrap()
                .run_spec(sq.spec())
                .unwrap();
            let standing = sq.frame().unwrap();
            assert_eq!(standing.digest(), one_shot.digest(), "after run {end}");
            assert_eq!(standing, one_shot);
        }
        assert_eq!(sq.refreshes(), 5);
        assert_eq!(sq.partitions(), 5);
    }

    #[test]
    fn reingesting_seen_runs_scans_nothing() {
        let mut sq = StandingQuery::new(mean_by_run_spec());
        let db = db_with_runs(&[0, 1]);
        assert_eq!(sq.ingest_package("exp", &db).unwrap(), 2);
        assert_eq!(sq.ingest_package("exp", &db).unwrap(), 0);
        assert_eq!(sq.refreshes(), 2);
    }

    #[test]
    fn frame_before_any_ingest_is_no_such_table() {
        let sq = StandingQuery::new(mean_by_run_spec());
        assert!(matches!(sq.frame(), Err(QueryError::NoSuchTable(_))));
    }

    #[test]
    fn multi_experiment_merge_order_matches_dataset_order() {
        let spec = PlanSpec {
            table: "Facts".into(),
            predicate: None,
            group_by: Vec::new(),
            aggs: vec![WireAggSpec {
                op: AggOp::Mean,
                column: Some("Latency".into()),
                name: None,
                q: None,
            }],
            select: Vec::new(),
            sort_by: None,
        };
        let db_a = db_with_runs(&[0, 1, 2]);
        let db_b = db_with_runs(&[0, 1]);
        let mut sq = StandingQuery::new(spec.clone());
        // Interleaved arrivals: b's runs land between a's.
        sq.ingest_package("a", &db_with_runs(&[0])).unwrap();
        sq.ingest_package("b", &db_with_runs(&[0])).unwrap();
        sq.ingest_package("a", &db_with_runs(&[0, 1, 2])).unwrap();
        sq.ingest_package("b", &db_b).unwrap();
        let ds = Dataset::builder()
            .add_package("a", &db_a)
            .unwrap()
            .add_package("b", &db_b)
            .unwrap()
            .build();
        assert_eq!(
            sq.frame().unwrap().digest(),
            ds.run_spec(&spec).unwrap().digest()
        );
    }

    #[test]
    fn row_mode_standing_query_accumulates_rows() {
        let spec = PlanSpec {
            table: "Facts".into(),
            predicate: None,
            group_by: Vec::new(),
            aggs: Vec::new(),
            select: vec!["RunID".into(), "Latency".into()],
            sort_by: Some("Latency".into()),
        };
        let db = db_with_runs(&[0, 1, 2]);
        let mut sq = StandingQuery::new(spec.clone());
        sq.ingest_package("exp", &db).unwrap();
        let one_shot = Dataset::from_database(&db)
            .unwrap()
            .run_spec(&spec)
            .unwrap();
        assert_eq!(sq.frame().unwrap().digest(), one_shot.digest());
    }
}
