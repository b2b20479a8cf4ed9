//! Level-4 storage and the dimensional warehouse (paper §IV-F future work).
//!
//! Runs the same abstract experiment on two *different platforms* (wired
//! LAN vs lossy wireless mesh — the external-validity diversity of §II-C1),
//! stores both packages in a level-4 repository, builds the star-schema
//! warehouse across them and compares the discovery response times.
//!
//! ```sh
//! cargo run --release --example warehouse_analysis
//! ```

use excovery::engine::scenarios::{chain_between_actors, hop_distance};
use excovery::prelude::*;
use excovery::query::warehouse::build_warehouse;
use excovery::query::warehouse::mean_response_time_by_experiment_on;

fn run_on(cfg: EngineConfig, seed: u64) -> Result<Database, String> {
    let desc = hop_distance(15, seed);
    let mut cfg = cfg;
    cfg.topology = chain_between_actors(3);
    let mut master = ExperiMaster::new(desc, cfg)?;
    Ok(master.execute()?.database)
}

fn main() -> Result<(), String> {
    // 1. Same description, two platforms.
    let wired = run_on(EngineConfig::wired_lan(), 11)?;
    let mesh = run_on(EngineConfig::lossy_mesh(), 11)?;

    // 2. Level 4: both packages into one repository.
    let dir = std::env::temp_dir().join("excovery-warehouse-example");
    std::fs::remove_dir_all(&dir).ok();
    let repo = Repository::open(&dir).map_err(|e| e.to_string())?;
    repo.store("wired-lan", &wired).map_err(|e| e.to_string())?;
    repo.store("lossy-mesh", &mesh).map_err(|e| e.to_string())?;
    println!("repository {} holds:", dir.display());
    for e in repo.index().map_err(|e| e.to_string())? {
        println!("  {} ({})", e.id, e.name);
    }

    // 3. The dimensional warehouse across both experiments.
    let wh = build_warehouse(&[("wired-lan", &wired), ("lossy-mesh", &mesh)])
        .map_err(|e| e.to_string())?;
    println!("\nwarehouse tables:");
    for t in wh.table_names() {
        println!("  {t:<16} {:>5} rows", wh.table(t).unwrap().len());
    }

    // 4. OLAP-style slice: mean t_R per experiment dimension, as scans of
    //    the warehouse partitioned by run.
    let ds = Dataset::builder()
        .partition_by("RunKey")
        .add_package("warehouse", &wh)
        .map_err(|e| e.to_string())?
        .build();
    let means = mean_response_time_by_experiment_on(&ds).map_err(|e| e.to_string())?;
    let names = ds
        .scan("DimExperiment")
        .select(["ExpKey", "Name"])
        .collect()
        .map_err(|e| e.to_string())?;
    println!("\nmean response time by platform:");
    for (key, mean) in &means {
        let name = names
            .rows
            .iter()
            .find(|r| r[0].as_i64() == Some(*key))
            .and_then(|r| r[1].as_str())
            .unwrap_or_default();
        println!("  {name:<16} {mean:.4} s");
    }

    // 5. Fact-level predicate query as a columnar pipeline: discoveries
    //    slower than 100 ms, with run-pruning pushdown.
    let slow = ds
        .scan("FactDiscovery")
        .filter(col("ResponseTimeNs").gt(lit(100_000_000i64)))
        .agg([Agg::count()])
        .collect()
        .map_err(|e| e.to_string())?;
    println!(
        "\ndiscoveries slower than 100 ms across both platforms: {}",
        slow.rows[0][0]
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
