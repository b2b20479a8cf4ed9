//! SD substrate scenario tests beyond the single-discovery happy path:
//! directory failures, concurrent users, registration leases.

use excovery_netsim::filter::{Direction, FilterRule};
use excovery_netsim::link::LinkModel;
use excovery_netsim::sim::{ProtocolEvent, Simulator, SimulatorConfig};
use excovery_netsim::topology::Topology;
use excovery_netsim::{NodeId, SimDuration};
use excovery_sd::{
    sd_command, Role, SdAgent, SdCommand, SdConfig, ServiceDescription, ServiceType, SD_PORT,
};

fn quiet_sim(n: usize, seed: u64) -> Simulator {
    let cfg = SimulatorConfig {
        link_model: LinkModel {
            base_loss: 0.0,
            ..LinkModel::default()
        },
        ..SimulatorConfig::perfect_clocks(seed)
    };
    Simulator::new(Topology::grid(n, 1), cfg)
}

/// A 2×2 grid: SM (node 0) and SU (node 2) are adjacent, the SCM (node 1)
/// is reachable but NOT a relay on their path — so killing the SCM tests
/// the protocol fallback, not a physical partition.
fn square_sim(seed: u64) -> Simulator {
    let cfg = SimulatorConfig {
        link_model: LinkModel {
            base_loss: 0.0,
            ..LinkModel::default()
        },
        ..SimulatorConfig::perfect_clocks(seed)
    };
    Simulator::new(Topology::grid(2, 2), cfg)
}

fn install(sim: &mut Simulator, node: u16, cfg: SdConfig) {
    sim.install_agent(NodeId(node), SD_PORT, Box::new(SdAgent::new(cfg, SD_PORT)));
}

fn http() -> ServiceType {
    ServiceType::new("_http._tcp")
}

fn publish(name: &str, node: u16) -> SdCommand {
    SdCommand::StartPublish(ServiceDescription::new(name, http(), NodeId(node)))
}

fn names_on(evts: &[ProtocolEvent], node: u16) -> Vec<&str> {
    evts.iter()
        .filter(|e| e.node == NodeId(node))
        .map(|e| e.name.as_str())
        .collect()
}

#[test]
fn hybrid_survives_scm_failure() {
    // Hybrid architecture: SCM present first, then partitioned away.
    // Discovery must still succeed over the two-party path.
    let mut sim = square_sim(1);
    for n in 0..4 {
        install(&mut sim, n, SdConfig::hybrid());
    }
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::CacheManager));
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(2), SdCommand::Init(Role::ServiceUser));
    sim.run_for(SimDuration::from_secs(2)); // adverts heard, scm_found
    let evts = sim.drain_protocol_events();
    assert!(names_on(&evts, 2).contains(&"scm_found"));

    // SCM dies (radio off) before anything was published.
    sim.install_filter(
        NodeId(1),
        FilterRule::InterfaceDown {
            direction: Direction::Both,
        },
    );
    sd_command(&mut sim, NodeId(0), publish("sm-A", 0));
    sd_command(&mut sim, NodeId(2), SdCommand::StartSearch(http()));
    sim.run_for(SimDuration::from_secs(5));
    let evts = sim.drain_protocol_events();
    assert!(
        names_on(&evts, 2).contains(&"sd_service_add"),
        "hybrid must fall back to multicast: {evts:?}"
    );
}

#[test]
fn pure_three_party_is_defeated_by_scm_failure() {
    // The contrast case: without the multicast fallback, losing the SCM
    // kills discovery — the centralization trade-off of Fig. 2.
    let mut sim = square_sim(2);
    for n in 0..4 {
        install(&mut sim, n, SdConfig::three_party());
    }
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::CacheManager));
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(2), SdCommand::Init(Role::ServiceUser));
    sim.run_for(SimDuration::from_secs(2));
    sim.install_filter(
        NodeId(1),
        FilterRule::InterfaceDown {
            direction: Direction::Both,
        },
    );
    sd_command(&mut sim, NodeId(0), publish("sm-A", 0));
    sd_command(&mut sim, NodeId(2), SdCommand::StartSearch(http()));
    sim.run_for(SimDuration::from_secs(10));
    let evts = sim.drain_protocol_events();
    assert!(
        !names_on(&evts, 2).contains(&"sd_service_add"),
        "three-party without SCM must fail: {evts:?}"
    );
}

#[test]
fn multiple_sus_discover_concurrently() {
    let mut sim = quiet_sim(5, 3);
    for n in 0..5 {
        install(&mut sim, n, SdConfig::two_party());
    }
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(0), publish("sm-A", 0));
    for n in 1..5 {
        sd_command(&mut sim, NodeId(n), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(n), SdCommand::StartSearch(http()));
    }
    sim.run_for(SimDuration::from_secs(5));
    let evts = sim.drain_protocol_events();
    for n in 1..5 {
        assert!(
            names_on(&evts, n).contains(&"sd_service_add"),
            "SU on node {n} must discover: {evts:?}"
        );
    }
}

#[test]
fn one_su_discovers_multiple_sms_of_same_type() {
    let mut sim = quiet_sim(4, 4);
    for n in 0..4 {
        install(&mut sim, n, SdConfig::two_party());
    }
    for n in [0u16, 1, 2] {
        sd_command(&mut sim, NodeId(n), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(n), publish(&format!("sm-{n}"), n));
    }
    sd_command(&mut sim, NodeId(3), SdCommand::Init(Role::ServiceUser));
    sd_command(&mut sim, NodeId(3), SdCommand::StartSearch(http()));
    sim.run_for(SimDuration::from_secs(5));
    let evts = sim.drain_protocol_events();
    let found: std::collections::HashSet<&str> = evts
        .iter()
        .filter(|e| e.node == NodeId(3) && e.name == "sd_service_add")
        .filter_map(|e| e.params.iter().find(|(k, _)| k == "service"))
        .map(|(_, v)| v.as_str())
        .collect();
    assert_eq!(found.len(), 3, "all three SMs found: {found:?}");
}

#[test]
fn scm_registration_refresh_outlives_short_lease() {
    // A short registration lease must be refreshed by the SM so the SU
    // still finds the service long after the first lease expired.
    let mut sim = quiet_sim(3, 5);
    let cfg = SdConfig {
        registration_lease: SimDuration::from_secs(4),
        ..SdConfig::three_party()
    };
    for n in 0..3 {
        install(&mut sim, n, cfg.clone());
    }
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::CacheManager));
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(2), SdCommand::Init(Role::ServiceUser));
    sim.run_for(SimDuration::from_secs(2));
    sd_command(&mut sim, NodeId(0), publish("sm-A", 0));
    // Wait three lease periods, then search.
    sim.run_for(SimDuration::from_secs(12));
    let _ = sim.drain_protocol_events();
    sd_command(&mut sim, NodeId(2), SdCommand::StartSearch(http()));
    sim.run_for(SimDuration::from_secs(3));
    let evts = sim.drain_protocol_events();
    assert!(
        names_on(&evts, 2).contains(&"sd_service_add"),
        "lease must have been refreshed: {evts:?}"
    );
}

#[test]
fn scm_drops_unrefreshed_registration_after_sm_dies() {
    let mut sim = quiet_sim(3, 6);
    let cfg = SdConfig {
        registration_lease: SimDuration::from_secs(3),
        ..SdConfig::three_party()
    };
    for n in 0..3 {
        install(&mut sim, n, cfg.clone());
    }
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::CacheManager));
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(2), SdCommand::Init(Role::ServiceUser));
    sim.run_for(SimDuration::from_secs(2));
    sd_command(&mut sim, NodeId(0), publish("sm-A", 0));
    sim.run_for(SimDuration::from_secs(1));
    // SM dies silently; its lease expires at the SCM.
    sim.set_drop_all(NodeId(0), true);
    sim.run_for(SimDuration::from_secs(10));
    let _ = sim.drain_protocol_events();
    sd_command(&mut sim, NodeId(2), SdCommand::StartSearch(http()));
    sim.run_for(SimDuration::from_secs(5));
    let evts = sim.drain_protocol_events();
    assert!(
        !names_on(&evts, 2).contains(&"sd_service_add"),
        "expired registration must not be served: {evts:?}"
    );
}

#[test]
fn restart_after_exit_works() {
    let mut sim = quiet_sim(2, 7);
    install(&mut sim, 0, SdConfig::two_party());
    install(&mut sim, 1, SdConfig::two_party());
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
    sd_command(&mut sim, NodeId(0), publish("sm-A", 0));
    sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
    sim.run_for(SimDuration::from_secs(3));
    // Full exit on both sides.
    sd_command(&mut sim, NodeId(0), SdCommand::Exit);
    sd_command(&mut sim, NodeId(1), SdCommand::Exit);
    sim.run_for(SimDuration::from_secs(1));
    let _ = sim.drain_protocol_events();
    // Re-init and re-discover: no stale state may interfere.
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
    sd_command(&mut sim, NodeId(0), publish("sm-A2", 0));
    sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
    sim.run_for(SimDuration::from_secs(5));
    let evts = sim.drain_protocol_events();
    let add = evts
        .iter()
        .find(|e| e.node == NodeId(1) && e.name == "sd_service_add")
        .expect("re-discovery after exit");
    assert!(add
        .params
        .iter()
        .any(|(k, v)| k == "service" && v == "sm-A2"));
}

#[test]
fn probing_delays_announcements_but_discovery_succeeds() {
    let mut sim = quiet_sim(2, 8);
    let cfg = SdConfig {
        probe_before_announce: true,
        ..SdConfig::two_party()
    };
    install(&mut sim, 0, cfg.clone());
    install(&mut sim, 1, cfg);
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
    sd_command(&mut sim, NodeId(0), publish("sm-A", 0));
    sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
    // During the probe window (3 probes × 250 ms) the SM must not answer
    // queries or announce.
    sim.run_for(SimDuration::from_millis(400));
    let evts = sim.drain_protocol_events();
    assert!(
        !names_on(&evts, 1).contains(&"sd_service_add"),
        "name not established yet: {evts:?}"
    );
    sim.run_for(SimDuration::from_secs(3));
    let evts = sim.drain_protocol_events();
    assert!(names_on(&evts, 1).contains(&"sd_service_add"), "{evts:?}");
}

#[test]
fn name_conflict_is_resolved_by_renaming_one_side() {
    let mut sim = quiet_sim(3, 9);
    let cfg = SdConfig {
        probe_before_announce: true,
        ..SdConfig::two_party()
    };
    for n in 0..3 {
        install(&mut sim, n, cfg.clone());
    }
    // Two SMs claim the same instance name for the same type.
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(2), SdCommand::Init(Role::ServiceUser));
    sd_command(&mut sim, NodeId(0), publish("printer", 0));
    sd_command(&mut sim, NodeId(1), publish("printer", 1));
    sd_command(&mut sim, NodeId(2), SdCommand::StartSearch(http()));
    sim.run_for(SimDuration::from_secs(10));
    let evts = sim.drain_protocol_events();
    // Exactly one conflict event fired.
    let conflicts: Vec<_> = evts
        .iter()
        .filter(|e| e.name == "sd_name_conflict")
        .collect();
    assert_eq!(conflicts.len(), 1, "{conflicts:?}");
    // The SU discovered two distinct instance names.
    let found: std::collections::HashSet<&str> = evts
        .iter()
        .filter(|e| e.node == NodeId(2) && e.name == "sd_service_add")
        .filter_map(|e| e.params.iter().find(|(k, _)| k == "service"))
        .map(|(_, v)| v.as_str())
        .collect();
    assert_eq!(
        found.len(),
        2,
        "two distinct services after renaming: {found:?}"
    );
    assert!(
        found.contains("printer"),
        "the winner keeps the name: {found:?}"
    );
    assert!(
        found.iter().any(|n| n.starts_with("printer-")),
        "the loser renamed: {found:?}"
    );
}

#[test]
fn probing_disabled_keeps_original_latency() {
    // Default config: announcement at ~50 ms, unchanged by the probing code.
    let mut sim = quiet_sim(2, 10);
    install(&mut sim, 0, SdConfig::two_party());
    install(&mut sim, 1, SdConfig::two_party());
    sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
    sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
    sd_command(&mut sim, NodeId(0), publish("sm-A", 0));
    sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
    sim.run_for(SimDuration::from_millis(200));
    let evts = sim.drain_protocol_events();
    assert!(names_on(&evts, 1).contains(&"sd_service_add"), "{evts:?}");
}

/// A wide two-party flood: 40 SMs on an 8×8 grid and an SU at every other
/// node, so every announcement and response is one shared packet decoded
/// by whichever receiver comes first, on whichever shard owns it. The run
/// must not depend on the shard count: the simulator state digest, the
/// executed events and the whole protocol-event stream agree at 1, 2 and
/// 4 shards.
#[test]
fn a_wide_flood_runs_alike_on_one_two_and_four_shards() {
    let run = |shards: usize| {
        let cfg = SimulatorConfig::default().with_seed(5).with_shards(shards);
        let mut sim = Simulator::new(Topology::grid(8, 8), cfg);
        for node in 0..64 {
            install(&mut sim, node, SdConfig::two_party());
            let sm = node % 8 < 5;
            let role = if sm {
                Role::ServiceManager
            } else {
                Role::ServiceUser
            };
            sd_command(&mut sim, NodeId(node), SdCommand::Init(role));
            if sm {
                sd_command(&mut sim, NodeId(node), publish(&format!("sm-{node}"), node));
            } else {
                sd_command(&mut sim, NodeId(node), SdCommand::StartSearch(http()));
            }
        }
        sim.run_for(SimDuration::from_secs(5));
        let events = sim.drain_protocol_events();
        (sim.state_digest(), sim.events_executed(), events)
    };
    let serial = run(1);
    let adds = serial
        .2
        .iter()
        .filter(|e| e.name.as_str() == "sd_service_add")
        .count();
    assert!(adds >= 24 * 30, "only {adds} discoveries");
    for shards in [2, 4] {
        let sharded = run(shards);
        assert!(sharded == serial, "{shards} shards diverged");
    }
}
