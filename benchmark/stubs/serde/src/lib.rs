//! Offline stand-in for `serde`.
//!
//! The traits are markers: the derives of the sibling `serde_derive`
//! stand-in expand to nothing, and no library crate of the workspace
//! bounds on or calls them.

/// Marker for `use serde::Serialize`.
pub trait Serialize {}

/// Marker for `use serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
