//! Platform diversity — "it generally strengthens the external validity of
//! an experiment if it is run in a diversity of platforms" (paper §II-C1).
//!
//! The same abstract description executes unchanged on three platform
//! presets; the measured responsiveness orders the platforms as physics
//! would: wired LAN ≥ default mesh ≥ lossy mesh.

use excovery::analysis::ExperimentDataset;
use excovery::engine::scenarios::hop_distance;
use excovery::engine::{EngineConfig, ExperiMaster};

fn short_deadline_r(cfg: EngineConfig) -> f64 {
    let desc = hop_distance(15, 99);
    let mut cfg = cfg;
    cfg.topology = excovery::engine::scenarios::chain_between_actors(3);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    let outcome = master.execute().unwrap();
    let episodes = ExperimentDataset::new(&outcome.database)
        .and_then(|ds| ds.episodes())
        .unwrap();
    let hits = episodes
        .iter()
        .filter(|e| e.discovered_within(1, 200_000_000)) // 200 ms
        .count();
    hits as f64 / episodes.len() as f64
}

#[test]
fn same_description_runs_on_all_platform_presets() {
    let wired = short_deadline_r(EngineConfig::wired_lan());
    let mesh = short_deadline_r(EngineConfig::grid_default());
    let lossy = short_deadline_r(EngineConfig::lossy_mesh());
    assert!(
        wired >= mesh && mesh >= lossy,
        "expected wired ({wired}) >= mesh ({mesh}) >= lossy ({lossy})"
    );
    assert!(wired > 0.9, "wired LAN discovers nearly always: {wired}");
    assert!(
        lossy < 1.0,
        "lossy mesh must show failures at 200 ms: {lossy}"
    );
}

#[test]
fn wired_lan_clocks_are_tighter() {
    fn max_offset(cfg: EngineConfig) -> i64 {
        let desc = hop_distance(2, 7);
        let mut cfg = cfg;
        cfg.topology = excovery::engine::scenarios::chain_between_actors(1);
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let outcome = master.execute().unwrap();
        ExperimentDataset::new(&outcome.database)
            .unwrap()
            .run_infos(None)
            .unwrap()
            .iter()
            .map(|r| r.time_diff_ns.abs())
            .max()
            .unwrap_or(0)
    }
    let wired = max_offset(EngineConfig::wired_lan());
    let mesh = max_offset(EngineConfig::grid_default());
    assert!(wired < mesh, "wired {wired} ns vs mesh {mesh} ns");
    assert!(wired <= 600_000, "wired offsets stay sub-ms: {wired}");
}
