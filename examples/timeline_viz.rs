//! Fig. 11 — visualization of a one-shot discovery process.
//!
//! Executes a single run of the paper's two-party experiment, extracts the
//! per-actor event timeline from the stored database and renders it as
//! ASCII (stdout) and SVG (`target/fig11_timeline.svg`).
//!
//! ```sh
//! cargo run --example timeline_viz
//! ```

use excovery::analysis::timeline::Timeline;
use excovery::prelude::*;
use std::collections::BTreeMap;

fn main() -> Result<(), String> {
    let desc = ExperimentDescription::paper_two_party_sd(1);
    let mut cfg = EngineConfig::grid_default();
    cfg.max_runs = Some(1);
    let mut master = ExperiMaster::new(desc, cfg)?;
    let outcome = master.execute()?;

    let events = ExperimentDataset::new(&outcome.database)
        .and_then(|ds| ds.events(Some(0)))
        .map_err(|e| e.to_string())?;
    // Label the lanes like the paper's figure: SM1 and SU1.
    let actors = BTreeMap::from([
        ("t9-157".to_string(), "SM1".to_string()),
        ("t9-105".to_string(), "SU1".to_string()),
    ]);
    let timeline = Timeline::from_events(&events, &actors);
    println!("{}", timeline.render_ascii(96));

    let svg = timeline.render_svg(900);
    let path = std::path::Path::new("target/fig11_timeline.svg");
    std::fs::create_dir_all("target").ok();
    std::fs::write(path, &svg).map_err(|e| e.to_string())?;
    println!("SVG written to {}", path.display());
    Ok(())
}
