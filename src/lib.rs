//! # excovery
//!
//! Facade crate re-exporting the full ExCovery reproduction workspace.
//!
//! ExCovery (Dittrich, Wanja, Malek — IPDPSW 2014) is an experimentation
//! environment for dependability analysis of distributed processes. This
//! workspace reimplements it in Rust, together with every substrate the
//! paper depends on:
//!
//! * [`xml`] — the XML notation used for experiment descriptions,
//! * [`desc`] — the abstract experiment description and treatment planning,
//! * [`netsim`] — a deterministic discrete-event network simulator standing
//!   in for the DES wireless testbed,
//! * [`rpc`] — XML-RPC between the ExperiMaster and NodeManagers,
//! * [`sd`] — service-discovery protocols (two-party, three-party, hybrid),
//! * [`engine`] — the execution engine (master, nodes, fault injection,
//!   measurement and recording),
//! * [`store`] — the four-level measurement storage with the paper's
//!   Table I relational schema,
//! * [`query`] — the columnar, parallel query layer over stored packages
//!   (typed column slabs, predicate pushdown, deterministic group-by),
//! * [`analysis`] — conditioning, metrics (responsiveness, t_R) and
//!   timeline visualization,
//! * [`server`] — the experiment server: level-4 campaign repository,
//!   fair-share scheduler and remote analysis over the rpc protocol
//!   (see DESIGN.md §14),
//! * [`obs`] — the observability subsystem: lock-free metrics,
//!   clock-agnostic spans and Prometheus/JSONL exporters (see DESIGN.md
//!   §10), plus the workspace's lock type and its index-ordered thread
//!   fan-out (`obs::par`).
//!
//! See `examples/quickstart.rs` for an end-to-end experiment, or run one
//! inline:
//!
//! ```
//! use excovery::analysis::ExperimentDataset;
//! use excovery::desc::ExperimentDescription;
//! use excovery::engine::{EngineConfig, ExperiMaster};
//!
//! let desc = ExperimentDescription::paper_two_party_sd(1);
//! let mut cfg = EngineConfig::grid_default();
//! cfg.max_runs = Some(1);
//! let mut master = ExperiMaster::new(desc, cfg)?;
//! let outcome = master.execute()?;
//! let episodes = ExperimentDataset::new(&outcome.database)
//!     .and_then(|ds| ds.episodes())
//!     .unwrap();
//! assert_eq!(episodes.len(), 1);
//! # Ok::<(), String>(())
//! ```

pub use excovery_analysis as analysis;
pub use excovery_core as engine;
pub use excovery_desc as desc;
pub use excovery_netsim as netsim;
pub use excovery_obs as obs;
pub use excovery_query as query;
pub use excovery_rpc as rpc;
pub use excovery_sd as sd;
pub use excovery_server as server;
pub use excovery_store as store;
pub use excovery_xml as xml;

/// One-per-concern entry points, for `use excovery::prelude::*`.
///
/// * describe an experiment — [`ExperimentDescription`](prelude::ExperimentDescription),
/// * execute it — [`EngineConfig`](prelude::EngineConfig) (via
///   `EngineConfig::builder()`) and [`ExperiMaster`](prelude::ExperiMaster),
/// * store and archive packages — [`Database`](prelude::Database) and
///   [`Repository`](prelude::Repository),
/// * query measurements — [`Dataset`](prelude::Dataset) with
///   [`col`](prelude::col)/[`lit`](prelude::lit) predicates and
///   [`Agg`](prelude::Agg) aggregates,
/// * analyze — [`ExperimentDataset`](prelude::ExperimentDataset) and
///   [`ReportOptions`](prelude::ReportOptions) (via
///   `ReportOptions::builder()`).
///
/// The error set of those layers — [`EngineError`](prelude::EngineError),
/// [`StoreError`](prelude::StoreError),
/// [`QueryError`](prelude::QueryError),
/// [`AnalysisError`](prelude::AnalysisError) — rides along, so `?`-heavy
/// harnesses only need this one import.
pub mod prelude {
    pub use excovery_analysis::report::ReportOptions;
    pub use excovery_analysis::{AnalysisError, DiscoveryEpisode, ExperimentDataset};
    pub use excovery_core::{EngineConfig, EngineError, ExperiMaster, ExperimentOutcome};
    pub use excovery_desc::ExperimentDescription;
    pub use excovery_query::{col, lit, Agg, Dataset, Frame, QueryError};
    pub use excovery_server::{ExperimentServer, ServerClient, ServerConfig, ServerError};
    pub use excovery_store::{Database, Repository, StoreError};
}
