//! # excovery-store
//!
//! The four-level measurement storage of ExCovery (paper §IV-F, Table I).
//!
//! * **Level 1** — the abstract experiment description itself (an XML
//!   document, exchanged and loaded for execution and analysis).
//! * **Level 2** — intermediate storage of all concrete experiment data:
//!   per-node, per-run log files and measurements, one sealed record
//!   per run appended to one file under an append-only journal
//!   ([`level2`]).
//! * **Level 3** — one package per experiment: a single relational database
//!   with the schema of Table I ([`schema`]), containing all conditioned
//!   measurements, logs and the complete experiment plan. The paper uses
//!   SQLite; this crate ships its own small embedded store ([`engine`])
//!   with typed columns, type-checked inserts and file persistence (see
//!   DESIGN.md for the substitution rationale). Queries over a package
//!   are `excovery_query` scans.
//! * **Level 4** — a repository integrating multiple experiments for
//!   cross-experiment comparison ([`repository`]). The paper leaves this
//!   level unrealized; it is implemented here as an extension.

pub mod engine;
mod json;
pub mod level2;
pub mod records;
pub mod repository;
pub mod schema;

pub use engine::{
    atomic_write, CellRef, Column, ColumnRef, ColumnType, Database, Row, SqlValue, StoreError,
    Table,
};
pub use json::{write_json_str, JsonValue};
pub use records::{EventRow, ExperimentInfo, PacketRow, RunInfoRow};
pub use repository::Repository;
