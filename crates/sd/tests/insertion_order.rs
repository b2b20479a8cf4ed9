//! A node that publishes and searches several service types acts on them
//! in the order its commands started them: `Exit SD` stops them in that
//! order, and a newly found SCM receives their registrations and directed
//! queries in that order. So the node's protocol events and the payloads
//! it sends are the same in every fresh simulator.

use excovery_netsim::capture::CaptureKind;
use excovery_netsim::link::LinkModel;
use excovery_netsim::sim::{Simulator, SimulatorConfig};
use excovery_netsim::topology::Topology;
use excovery_netsim::{NodeId, SimDuration};
use excovery_sd::{
    sd_command, Architecture, Role, SdAgent, SdCommand, SdConfig, ServiceDescription, ServiceType,
    SD_PORT,
};

/// Published and searched types, neither in sorted order.
const PUBLISHED: [&str; 2] = ["_printer._tcp", "_http._tcp"];
const SEARCHED: [&str; 2] = ["_ssh._tcp", "_ftp._tcp"];

/// Node 0 publishes two types and searches two, then (except two-party)
/// an SCM starts at node 1, and node 0 exits. Returns node 0's protocol
/// events and the payloads it sent, as text.
fn trace(cfg: &SdConfig) -> (Vec<String>, Vec<String>) {
    let sim_cfg = SimulatorConfig {
        link_model: LinkModel {
            base_loss: 0.0,
            ..LinkModel::default()
        },
        ..SimulatorConfig::perfect_clocks(5)
    };
    let mut sim = Simulator::new(Topology::chain(2), sim_cfg);
    for node in [0, 1] {
        let agent = SdAgent::new(cfg.clone(), SD_PORT);
        sim.install_agent(NodeId(node), SD_PORT, Box::new(agent));
    }
    let sm = NodeId(0);
    sd_command(&mut sim, sm, SdCommand::Init(Role::ServiceManager));
    for stype in PUBLISHED {
        let desc = ServiceDescription::new(format!("sm{stype}"), ServiceType::new(stype), sm);
        sd_command(&mut sim, sm, SdCommand::StartPublish(desc));
    }
    for stype in SEARCHED {
        sd_command(
            &mut sim,
            sm,
            SdCommand::StartSearch(ServiceType::new(stype)),
        );
    }
    if cfg.architecture != Architecture::TwoParty {
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::CacheManager));
    }
    sim.run_for(SimDuration::from_secs(2));
    sd_command(&mut sim, sm, SdCommand::Exit);
    sim.run_for(SimDuration::from_secs(1));
    let events = sim
        .drain_protocol_events()
        .into_iter()
        .filter(|e| e.node == sm)
        .map(|e| format!("{} {:?}", e.name.as_str(), e.params))
        .collect();
    let sent = sim
        .captures(sm)
        .iter()
        .filter(|c| c.kind == CaptureKind::Sent)
        .map(|c| String::from_utf8_lossy(c.payload.as_bytes()).into_owned())
        .collect();
    (events, sent)
}

/// The types of `candidates` that the lines starting with `prefix` name,
/// in the order of the lines.
fn types_in<'a>(lines: &[String], prefix: &str, candidates: [&'a str; 2]) -> Vec<&'a str> {
    lines
        .iter()
        .filter(|line| line.starts_with(prefix))
        .filter_map(|line| candidates.into_iter().find(|t| line.contains(t)))
        .collect()
}

fn check(cfg: SdConfig) {
    let first = trace(&cfg);
    for _ in 1..20 {
        assert_eq!(trace(&cfg), first, "{:?}", cfg.architecture);
    }
    let (events, sent) = first;
    assert_eq!(types_in(&events, "sd_stop_publish", PUBLISHED), PUBLISHED);
    assert_eq!(types_in(&events, "sd_stop_search", SEARCHED), SEARCHED);
    if cfg.architecture != Architecture::ThreeParty {
        let goodbyes: Vec<String> = sent
            .iter()
            .filter(|p| p.starts_with("ANN|") && p.split(';').nth(4) == Some("0"))
            .cloned()
            .collect();
        assert_eq!(types_in(&goodbyes, "ANN|", PUBLISHED), PUBLISHED);
    }
    if cfg.architecture != Architecture::TwoParty {
        assert_eq!(types_in(&sent, "REG|", PUBLISHED)[..2], PUBLISHED);
        assert_eq!(types_in(&sent, "DQR|", SEARCHED)[..2], SEARCHED);
        assert_eq!(types_in(&sent, "DRG|", PUBLISHED), PUBLISHED);
    }
}

#[test]
fn two_party_acts_in_command_order() {
    check(SdConfig::two_party());
}

#[test]
fn hybrid_acts_in_command_order() {
    check(SdConfig::hybrid());
}

#[test]
fn three_party_acts_in_command_order() {
    check(SdConfig::three_party());
}
