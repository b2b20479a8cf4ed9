//! Standing queries over running campaigns.
//!
//! `query.run` historically served completed packages only; a live
//! campaign was a black box until its last run landed. The
//! [`StandingRegistry`] closes that gap: the scheduler feeds each job's
//! cumulative database snapshot in after every slice, and any plan a
//! client asks about while the job is still running becomes a
//! [`excovery_query::StandingQuery`] that refreshes incrementally —
//! completed-run partitions are scanned once, ever, no matter how many
//! times the client polls or how many slices land.
//!
//! Frames served this way are **bit-identical** to a one-shot
//! `run_plan` over the same snapshot (the incremental layer's
//! determinism contract), so a client polling a running job and a
//! client querying the finished package can never disagree about the
//! runs both have seen.

use std::collections::HashMap;

use excovery_obs::sync::Mutex;
use excovery_query::StandingQuery;
use excovery_rpc::{pack_plan, JobId, MethodCall, PlanSpec, WireFrame};
use excovery_store::Database;

use crate::convert::frame_to_wire;
use crate::ServerError;

/// Per-job standing state.
#[derive(Default)]
struct JobStanding {
    /// The job's latest cumulative database, kept so a plan registered
    /// *between* slices starts from the runs already completed instead
    /// of an empty frame.
    snapshot: Option<Database>,
    /// Plan key (canonical wire XML) → maintained standing query.
    queries: HashMap<String, StandingQuery>,
}

/// Standing queries of all running jobs, shared by the scheduler (which
/// refreshes) and the rpc front (which serves).
#[derive(Default)]
pub struct StandingRegistry {
    jobs: Mutex<HashMap<JobId, JobStanding>>,
}

/// The canonical identity of a plan: its packed wire XML. Two plans
/// serialize identically iff they are the same plan, so this is the
/// dedup key for standing queries.
fn plan_key(plan: &PlanSpec) -> String {
    MethodCall::new("q", vec![pack_plan(plan)]).to_xml()
}

impl StandingRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a job's cumulative database snapshot in: every standing
    /// query registered for the job rescans only partitions it has not
    /// seen. Called by the scheduler after each slice.
    pub fn refresh(&self, id: JobId, db: &Database) -> Result<(), ServerError> {
        let mut jobs = self.jobs.lock();
        let standing = jobs.entry(id).or_default();
        for query in standing.queries.values_mut() {
            query
                .ingest_package(crate::repo::DEFAULT_EXPERIMENT, db)
                .map_err(|e| ServerError::Query(e.to_string()))?;
        }
        standing.snapshot = Some(db.clone());
        Ok(())
    }

    /// Serves `plan` for a job that has not completed: registers a
    /// standing query on first sight (seeded from the job's latest
    /// snapshot, if any slice has landed), then returns its current
    /// frame. Before any slice has landed the frame is empty — zero
    /// columns, zero rows — and fills in as the campaign progresses.
    pub fn frame(&self, id: JobId, plan: &PlanSpec) -> Result<WireFrame, ServerError> {
        let mut jobs = self.jobs.lock();
        let standing = jobs.entry(id).or_default();
        let key = plan_key(plan);
        if !standing.queries.contains_key(&key) {
            let mut query = StandingQuery::new(plan.clone());
            if let Some(db) = &standing.snapshot {
                query
                    .ingest_package(crate::repo::DEFAULT_EXPERIMENT, db)
                    .map_err(|e| ServerError::Query(e.to_string()))?;
            }
            standing.queries.insert(key.clone(), query);
        }
        let query = &standing.queries[&key];
        if query.refreshes() == 0 {
            // Nothing ingested yet: the plan's table cannot exist. An
            // empty frame (not a fault) tells the client to poll again.
            return Ok(WireFrame {
                columns: Vec::new(),
                rows: Vec::new(),
            });
        }
        let frame = query
            .frame()
            .map_err(|e| ServerError::Query(e.to_string()))?;
        Ok(frame_to_wire(&frame))
    }

    /// Drops a job's standing state (terminal jobs are served from their
    /// packaged database instead).
    pub fn retire(&self, id: JobId) {
        self.jobs.lock().remove(&id);
    }

    /// Number of standing queries currently maintained for a job.
    pub fn query_count(&self, id: JobId) -> usize {
        self.jobs.lock().get(&id).map_or(0, |s| s.queries.len())
    }
}
