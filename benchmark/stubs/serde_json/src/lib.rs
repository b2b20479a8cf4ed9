//! Offline stand-in for `serde_json`.
//!
//! The library crates of the workspace list `serde_json` as a dependency
//! but call nothing in it (the engine and store paths use the in-tree
//! `excovery_store::JsonValue` codec), so this crate only has to resolve.
