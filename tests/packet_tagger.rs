//! End-to-end packet-tagger analysis (paper §VI-A): real CBR background
//! flows are injected by the traffic process (`inject=1`), every packet is
//! stamped by the sending node's 16-bit tagger, and the analysis
//! reconstructs per-path loss from tag gaps in the stored Packets table.

use excovery::analysis::packetstats::{split_tag, tag_loss_stats};
use excovery::analysis::ExperimentDataset;
use excovery::desc::process::{ProcessAction, ValueRef};
use excovery::engine::scenarios::load_sweep;
use excovery::engine::{EngineConfig, ExperiMaster};
use excovery::netsim::topology::Topology;

fn description_with_injection(bw: i64) -> excovery::desc::ExperimentDescription {
    let mut desc = load_sweep(&[2], &[bw], 1, 31);
    // Turn on real packet injection in the Fig. 7 traffic action.
    for env in &mut desc.env_processes {
        for action in &mut env.actions {
            if let ProcessAction::Invoke { name, params } = action {
                if name == "env_traffic_start" {
                    params.push(("inject".to_string(), ValueRef::int(1)));
                    params.push(("packet_size".to_string(), ValueRef::int(400)));
                }
            }
        }
    }
    desc
}

#[test]
fn injected_flows_appear_in_the_packets_table() {
    let desc = description_with_injection(200);
    let mut cfg = EngineConfig::grid_default();
    cfg.topology = Topology::grid(3, 2);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    let outcome = master.execute().unwrap();
    assert!(outcome.runs[0].completed, "{:?}", outcome.runs[0].failures);
    let packets = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .packets(Some(0))
        .unwrap();
    // Background CBR payloads are 0xCB-filled after the sequence number.
    let background = packets
        .iter()
        .filter(|p| split_tag(&p.data).is_some_and(|(_, pl)| pl.ends_with(&[0xCB])))
        .count();
    assert!(background > 10, "CBR packets stored: {background}");
    // Every stored packet carries a tag prefix.
    assert!(packets.iter().all(|p| split_tag(&p.data).is_some()));
}

#[test]
fn tag_gap_analysis_detects_fault_injected_loss() {
    // Add a heavy message-loss fault on the SM node and route the CBR
    // flow between the acting nodes (choice=1), so the flow is guaranteed
    // to cross the faulted node's filter regardless of which pair the
    // traffic seed would draw; the tag-gap estimate for streams through
    // that node must reflect substantial loss. Smaller packets give a
    // denser tag stream while discovery is being delayed by the fault.
    let mut desc = description_with_injection(100);
    for env in &mut desc.env_processes {
        for action in &mut env.actions {
            if let ProcessAction::Invoke { name, params } = action {
                if name == "env_traffic_start" {
                    for (key, value) in params.iter_mut() {
                        if key == "choice" {
                            *value = ValueRef::int(1);
                        }
                        if key == "packet_size" {
                            *value = ValueRef::int(100);
                        }
                    }
                }
            }
        }
    }
    let sm = desc
        .node_processes
        .iter_mut()
        .find(|p| p.actor_id == "actor0")
        .unwrap();
    sm.actions.insert(
        0,
        ProcessAction::invoke_with(
            "fault_message_loss_start",
            [(
                "probability".to_string(),
                ValueRef::Lit(excovery::desc::LevelValue::Float(0.8)),
            )],
        ),
    );
    let mut cfg = EngineConfig::grid_default();
    cfg.topology = Topology::grid(3, 2);
    cfg.run_timeout = excovery::netsim::SimDuration::from_secs(45);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    let outcome = master.execute().unwrap();
    let stats = tag_loss_stats(&ExperimentDataset::new(&outcome.database).unwrap(), 0).unwrap();
    assert!(!stats.is_empty(), "tag streams observed");
    // At least one observed stream shows measurable loss.
    let max_loss = stats
        .values()
        .filter(|s| s.received >= 20)
        .map(|s| s.loss_ratio())
        .fold(0.0f64, f64::max);
    assert!(
        max_loss > 0.1,
        "tag gaps must expose injected loss, max was {max_loss}"
    );
}

#[test]
fn without_injection_only_protocol_packets_are_stored() {
    let desc = load_sweep(&[2], &[50], 1, 32);
    let mut cfg = EngineConfig::grid_default();
    cfg.topology = Topology::grid(3, 2);
    let mut master = ExperiMaster::new(desc, cfg).unwrap();
    let outcome = master.execute().unwrap();
    let packets = ExperimentDataset::new(&outcome.database)
        .unwrap()
        .packets(Some(0))
        .unwrap();
    for p in &packets {
        let (_, payload) = split_tag(&p.data).unwrap();
        assert!(
            excovery::sd::SdMessage::decode(payload).is_some(),
            "non-SD packet stored without injection"
        );
    }
}
