//! # excovery-server
//!
//! The experiment *server*: a daemon that accepts level-1 experiment
//! descriptions over the framed rpc protocol, persists them in a
//! level-4 campaign repository, executes them concurrently under a
//! fair-share scheduler, and serves remote analysis queries against the
//! finished level-3 packages.
//!
//! The paper's storage model (§IV-F, Table I) stops at level 4 — "a
//! repository integrating multiple experiments" — without realizing it.
//! This crate is that realization, extended into a long-running service
//! the way the paper's testbed deployment (§VI) implies: experimenters
//! hand descriptions to a central coordinator and fetch conditioned
//! results later.
//!
//! Structure:
//!
//! * `repo` ([`ServerRepo`]) — the on-disk L4 repository: a crash-durable `queue.json`
//!   journal (atomic temp+rename writes), one directory per job holding
//!   the level-1 description, the level-2 run hierarchy and the packaged
//!   level-3 database. Submissions carry a durable idempotency key;
//!   resubmitting the same key returns the original [`excovery_rpc::JobId`].
//! * `scheduler` ([`Scheduler`]) — the fair-share scheduler. Each tick gives every
//!   tenant with runnable work at least one *slice* (a bounded number of
//!   runs executed by a resuming [`excovery_core::master::ExperiMaster`]),
//!   interleaved round-robin and executed on the campaign worker pool.
//!   Because every run is journalled in level 2 and outcomes are
//!   resume-invariant, a server killed mid-campaign resumes bit-exactly:
//!   the final `ExperimentOutcome::digest()` equals an uninterrupted
//!   reference execution.
//! * [`server`] ([`ExperimentServer`]) — the rpc front: `job.submit`/`job.status`/`job.list`/
//!   `job.results` plus `query.tables`/`query.run`, which executes
//!   serialized query plans server-side and ships `Frame`s back over the
//!   wire. `query.run` against a *running* job answers from the standing
//!   registry — a live, incrementally refreshed view of the campaign.
//! * `standing` — `StandingRegistry`: per-job
//!   [`excovery_query::StandingQuery`] instances the scheduler refreshes
//!   after every slice, giving clients progress frames bit-identical to
//!   a one-shot scan of the runs completed so far.
//! * `client` — [`ServerClient`], the typed client used by the
//!   `excovery` CLI verbs (`serve`, `submit`, `status`, `results`) and
//!   the integration tests.
//! * `convert` — thin adapters over the query crate's canonical
//!   wire conversions; [`excovery_rpc::PlanSpec`] is the one
//!   serializable plan vocabulary end-to-end.

mod client;
mod convert;
mod repo;
mod scheduler;
pub mod server;
mod standing;

pub use client::ServerClient;
pub use convert::{cell_to_value, frame_to_wire, value_to_cell};
pub use repo::ServerRepo;
pub use scheduler::{preset_config, Scheduler, SchedulerConfig};
pub use server::{ExperimentServer, ServerConfig};

/// Engine presets a submission may name (see [`preset_config`]).
pub(crate) const PRESETS: &[&str] = &["grid_default", "wired_lan", "lossy_mesh"];

/// Errors of the server subsystem.
#[derive(Debug)]
pub enum ServerError {
    /// Filesystem or journal failure in the L4 repository.
    Storage(String),
    /// The submitted description XML did not parse.
    Description(String),
    /// The submission named a preset [`preset_config`] does not know.
    UnknownPreset(String),
    /// No job with this id exists.
    UnknownJob(excovery_rpc::JobId),
    /// Results were requested for a job that has not completed.
    NotCompleted(excovery_rpc::JobId),
    /// The experiment engine failed while executing a slice.
    Engine(String),
    /// A remote query plan failed to execute.
    Query(String),
    /// Client-side rpc failure.
    Rpc(excovery_rpc::RpcError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Storage(m) => write!(f, "storage: {m}"),
            ServerError::Description(m) => write!(f, "description: {m}"),
            ServerError::UnknownPreset(p) => write!(f, "unknown preset '{p}'"),
            ServerError::UnknownJob(id) => write!(f, "no such job {id}"),
            ServerError::NotCompleted(id) => write!(f, "job {id} has not completed"),
            ServerError::Engine(m) => write!(f, "engine: {m}"),
            ServerError::Query(m) => write!(f, "query: {m}"),
            ServerError::Rpc(e) => write!(f, "rpc: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<excovery_store::StoreError> for ServerError {
    fn from(e: excovery_store::StoreError) -> Self {
        ServerError::Storage(e.to_string())
    }
}

impl From<excovery_rpc::RpcError> for ServerError {
    fn from(e: excovery_rpc::RpcError) -> Self {
        ServerError::Rpc(e)
    }
}
