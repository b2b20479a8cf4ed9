//! Quickstart: describe, execute and analyze a small ExCovery experiment.
//!
//! Builds the paper's two-party service-discovery experiment (Figs. 4–10)
//! with a handful of replications, runs it on the simulated mesh platform,
//! and prints the recorded event sequence and the measured responsiveness.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use excovery::analysis::responsiveness::{format_curve, responsiveness_curve};
use excovery::prelude::*;
use excovery::store::schema::verify_schema;

fn main() -> Result<(), String> {
    // 1. The abstract experiment description (paper §IV-C). This is the
    //    complete two-party SD experiment of the paper's listings, scaled
    //    to 5 replications of each of the 6 treatments.
    let desc = ExperimentDescription::paper_two_party_sd(5);
    println!("experiment: {}", desc.name);
    println!("plan size: {} runs\n", desc.plan().len());

    // 2. Instantiate on a platform: a 3×3 grid mesh standing in for the
    //    DES testbed, with loosely synchronized node clocks.
    let mut master = ExperiMaster::new(desc, EngineConfig::grid_default())?;

    // 3. Execute: run lifecycle, measurement, conditioning, storage.
    let outcome = master.execute()?;
    let completed = outcome.runs.iter().filter(|r| r.completed).count();
    println!(
        "executed {} runs ({} completed)",
        outcome.runs.len(),
        completed
    );

    // 4. The result is a single relational package with the paper's
    //    Table I schema.
    verify_schema(&outcome.database).map_err(|e| e.to_string())?;
    println!("level-3 database verified against Table I\n");

    // 5. Inspect the first run's event list (the Fig. 11 sequence),
    //    read from a columnar snapshot of the package.
    let ds = ExperimentDataset::new(&outcome.database).map_err(|e| e.to_string())?;
    let events = ds.events(Some(0)).map_err(|e| e.to_string())?;
    println!("run 0 events:");
    for e in &events {
        println!(
            "  {:>12} ns  {:<10} {}",
            e.common_time_ns, e.node_id, e.event_type
        );
    }

    // 6. Extract the headline metric: responsiveness R(deadline).
    let episodes = ds.episodes().map_err(|e| e.to_string())?;
    let curve = responsiveness_curve(&episodes, 1, &[0.1, 0.25, 0.5, 1.0, 5.0, 30.0]);
    println!(
        "\n{}",
        format_curve("two-party, all treatments pooled", &curve)
    );
    Ok(())
}
