//! # excovery-desc
//!
//! The abstract experiment description of ExCovery (paper §IV-C/§IV-E) and
//! its treatment-plan generation (§IV-C1).
//!
//! An experiment description consists of three parts:
//!
//! 1. the **experiment design** — which [`factors`] are applied in which
//!    combination and order, including the replication factor;
//! 2. **manipulations** of the process environment and participants —
//!    fault-injection and environment-manipulation [`process`]es;
//! 3. the **distributed process under examination** — actor processes built
//!    from actions and flow-control functions (`wait_for_time`,
//!    `wait_for_event`, `wait_marker`, `event_flag`).
//!
//! Descriptions are notated in XML ([`xmlio`]), validated ([`validate`])
//! and expanded into deterministic treatment [`plan`]s. The [`platform`]
//! module carries the mapping from abstract nodes to concrete platform
//! nodes (paper Fig. 8).

pub mod factors;
pub mod model;
pub mod plan;
pub mod platform;
pub mod process;
pub mod schema_doc;
pub mod validate;
pub mod visualize;
pub mod xmlio;

pub use factors::{Factor, FactorList, FactorUsage, LevelValue};
pub use model::{DescError, ExperimentDescription};
pub use plan::{Design, PlanOptions, RunSpec, Treatment, TreatmentPlan};
pub use platform::{NodeSpec, PlatformSpec};
pub use process::{ActorProcess, EnvProcess, EventSelector, NodeSelector, ProcessAction, ValueRef};
