//! Reproduces **Figs. 5 and 7** — the traffic-generation environment
//! process driven by the factor list, and its observable effect on the
//! experiment process.

use excovery::analysis::runs::DiscoveryEpisode;
use excovery::analysis::ExperimentDataset;
use excovery::engine::scenarios::load_sweep;
use excovery::engine::{EngineConfig, ExperiMaster};
use excovery::netsim::topology::Topology;
use excovery::store::Database;

fn episodes(db: &Database) -> Vec<DiscoveryEpisode> {
    ExperimentDataset::new(db)
        .and_then(|ds| ds.episodes())
        .unwrap()
}

#[test]
fn traffic_process_starts_and_stops_with_the_run() {
    let desc = load_sweep(&[5], &[50], 2, 3);
    let mut cfg = EngineConfig::grid_default();
    cfg.max_runs = Some(2);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    let outcome = master.execute().unwrap();
    for run in 0..2u64 {
        let events = ExperimentDataset::new(&outcome.database)
            .unwrap()
            .events(Some(run))
            .unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.event_type.as_str()).collect();
        assert!(
            names.contains(&"env_traffic_started"),
            "run {run}: {names:?}"
        );
        assert!(
            names.contains(&"env_traffic_stopped"),
            "run {run}: {names:?}"
        );
    }
    // Clean-up removed the load: nothing lingers on the links.
    let sim = master.simulator();
    let s = sim.lock();
    let residual: f64 = s
        .topology()
        .edges()
        .iter()
        .map(|&(a, b)| s.link_load(a, b))
        .sum();
    assert_eq!(residual, 0.0, "traffic must be fully removed at run_exit");
}

#[test]
fn heavy_load_degrades_discovery_over_a_long_path() {
    // Same experiment on a 5-hop chain at two load levels. Heavy
    // cross-traffic on the only path must slow or defeat discovery —
    // the qualitative effect the paper's case study measures.
    fn mean_t_r(bw: i64, pairs: i64) -> (f64, usize, usize) {
        let mut desc = load_sweep(&[pairs], &[bw], 12, 11);
        // A and B at the ends of a 6-node chain; traffic among all nodes.
        desc.platform = excovery::desc::PlatformSpec::new()
            .with_actor_node("t9-157", "10.0.0.157", "A")
            .with_actor_node("t9-105", "10.0.0.105", "B")
            .with_env_node("t9-001", "10.0.0.1")
            .with_env_node("t9-002", "10.0.0.2")
            .with_env_node("t9-003", "10.0.0.3")
            .with_env_node("t9-004", "10.0.0.4");
        let mut cfg = EngineConfig::grid_default();
        cfg.topology = Topology::chain(6);
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let outcome = master.execute().unwrap();
        let episodes = episodes(&outcome.database);
        let t_rs: Vec<f64> = episodes
            .iter()
            .filter_map(|e| e.first_t_r_ns())
            .map(|t| t as f64 / 1e9)
            .collect();
        let found = t_rs.len();
        let mean = if found == 0 {
            f64::INFINITY
        } else {
            t_rs.iter().sum::<f64>() / found as f64
        };
        (mean, found, episodes.len())
    }
    let (t_idle, found_idle, n_idle) = mean_t_r(10, 2);
    let (t_loaded, found_loaded, n_loaded) = mean_t_r(2000, 8);
    assert_eq!(n_idle, 12);
    assert_eq!(n_loaded, 12);
    assert!(
        found_idle >= 11,
        "idle chain discovers reliably ({found_idle}/12)"
    );
    // Load must hurt: fewer discoveries or clearly slower ones.
    assert!(
        found_loaded < found_idle || t_loaded > 2.0 * t_idle,
        "idle: {t_idle:.4}s ({found_idle}), loaded: {t_loaded:.4}s ({found_loaded})"
    );
}

#[test]
fn hop_distance_in_chain_affects_response_time() {
    // CS-3 shape check at two hop counts.
    fn median_t_r(hops: usize) -> f64 {
        let desc = excovery::engine::scenarios::hop_distance(10, 5);
        let mut cfg = EngineConfig::grid_default();
        cfg.topology = excovery::engine::scenarios::chain_between_actors(hops);
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let outcome = master.execute().unwrap();
        let mut t_rs: Vec<f64> = episodes(&outcome.database)
            .iter()
            .filter_map(|e| e.first_t_r_ns())
            .map(|t| t as f64 / 1e9)
            .collect();
        assert!(!t_rs.is_empty(), "at {hops} hops nothing was discovered");
        t_rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        t_rs[t_rs.len() / 2]
    }
    let near = median_t_r(1);
    let far = median_t_r(5);
    assert!(
        far > near,
        "5 hops ({far:.4}s) must be slower than 1 hop ({near:.4}s)"
    );
}

#[test]
fn replication_seed_binding_reproduces_pair_switching() {
    // Fig. 7 binds random_switch_seed to the replication factor: the same
    // replicate index must see the same traffic pairs in every treatment
    // block — observable as identical event tables across two executions.
    fn run_events() -> Vec<(u64, String, i64)> {
        let desc = load_sweep(&[4], &[100], 2, 77);
        let mut master = ExperiMaster::new(desc, EngineConfig::grid_default()).unwrap();
        let outcome = master.execute().unwrap();
        ExperimentDataset::new(&outcome.database)
            .unwrap()
            .events(None)
            .unwrap()
            .into_iter()
            .map(|e| (e.run_id, e.event_type, e.common_time_ns))
            .collect()
    }
    assert_eq!(run_events(), run_events());
}
