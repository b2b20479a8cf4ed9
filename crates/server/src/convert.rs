//! Bridges between the rpc wire types and the query crate.
//!
//! [`excovery_rpc::PlanSpec`] is the one serializable logical-plan type,
//! and the query crate itself owns every conversion — this module only
//! re-exports them and adapts error types, so the server cannot drift
//! from local execution semantics.

use excovery_query::Dataset;
use excovery_rpc::{PlanSpec, WireFrame};
use excovery_store::Database;

use crate::ServerError;

/// Wire cell → query value (the query crate's canonical conversion).
pub use excovery_query::cell_to_value;
/// Query value → wire cell (the query crate's canonical conversion).
pub use excovery_query::value_to_cell;

/// Query frame → wire frame, cell for cell: floats keep their bit
/// patterns, so wire digest equality ⇔ frame digest equality.
pub use excovery_query::frame_to_wire;

/// Executes a serialized plan against a level-3 package: the server side
/// of `query.run` for completed jobs. One thin call into the unified
/// plan API — the exact code path `Scan::collect` and standing queries
/// use, so a remote frame is bit-identical to a local one.
pub fn run_plan(db: &Database, plan: &PlanSpec) -> Result<WireFrame, ServerError> {
    let dataset = Dataset::from_database(db).map_err(|e| ServerError::Query(e.to_string()))?;
    let frame = dataset
        .run_spec(plan)
        .map_err(|e| ServerError::Query(e.to_string()))?;
    Ok(frame_to_wire(&frame))
}
