//! # excovery-core
//!
//! The ExCovery execution engine (paper §IV, §VI).
//!
//! The [`ExperiMaster`] drives experiments from an abstract
//! description: it generates the treatment plan, initializes the
//! participating nodes, executes each run's processes (experiment, fault
//! injection and environment manipulation) with the four flow-control
//! functions, records events and packet captures, and conditions and
//! stores everything into the four-level storage.
//!
//! Mirroring the prototype's component architecture (Fig. 12), the master
//! talks to one [`nodemanager::NodeManager`] per node over XML-RPC; each
//! NodeManager translates procedure calls into actions on the simulated
//! platform (SD commands, fault filters, event flags).
//!
//! The paper's execution concepts map as follows:
//!
//! * experiment/run lifecycle (`experiment_init`, `run_init`, `run_exit`,
//!   `experiment_exit`) — [`ExperiMaster`] (the private `master` module:
//!   `config`, `run`, `package`, `outcome`, `ctx`),
//! * process descriptions and flow control — [`interp`],
//! * fault injection envelopes (duration/rate/randomseed) — [`faults`],
//! * event recording and `wait_for_event` matching — `event_log`
//!   ([`EventLog`]),
//! * actor-to-node resolution (abstract nodes → platform nodes → simulator
//!   nodes) — [`binding`],
//! * crash recovery by resuming aborted runs — the level-2 run journal
//!   consulted by [`ExperiMaster::execute`],
//! * the level-2 entries each run stages, binary packet captures among
//!   them — [`l2codec`].

pub mod binding;
pub mod error;
mod event_log;
pub mod faults;
pub mod interp;
pub mod l2codec;
mod master;
pub mod nodemanager;
pub mod scenarios;

pub use binding::PlatformBinding;
pub use error::EngineError;
pub use event_log::EventLog;
pub use excovery_rpc::RetryPolicy;
pub use master::config::{EngineConfig, EngineConfigBuilder, TransportKind};
pub use master::{
    ctx::PluginCtx, outcome::ExperimentOutcome, outcome::RunOutcome, session::Session, ExperiMaster,
};
