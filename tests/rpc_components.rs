//! Reproduces **Fig. 12** — the execution components: ExperiMaster,
//! XML-RPC channel, NodeManager with its sub-components (SD actions, fault
//! injection, event generator), exercised over the real wire format.

use excovery::engine::binding::PlatformBinding;
use excovery::engine::nodemanager::NodeManager;
use excovery::netsim::sim::SimulatorConfig;
use excovery::netsim::topology::Topology;
use excovery::netsim::{NodeId, SimDuration, Simulator};
use excovery::rpc::{Channel, MethodCall, MethodResponse, NodeProxy, Value};
use excovery::sd::SdConfig;
use excovery_obs::sync::Mutex;
use std::sync::Arc;

fn platform() -> excovery::desc::PlatformSpec {
    excovery::desc::ExperimentDescription::paper_two_party_sd(1).platform
}

/// The master-side node object for `node`: a proxy over its NodeManager's
/// registry.
fn node_proxy(
    node: NodeId,
    pid: &str,
    sim: Arc<Mutex<Simulator>>,
    binding: Arc<PlatformBinding>,
) -> NodeProxy {
    let reg = NodeManager::registry(node, pid, sim, binding, SdConfig::two_party());
    NodeProxy::new(pid, Channel::new(reg))
}

#[test]
fn nodemanager_exposes_the_fig12_procedure_families() {
    // Build the registry directly and inspect its procedure inventory.
    let binding = Arc::new(PlatformBinding::new(&platform(), 6).unwrap());
    let sim = Arc::new(Mutex::new(Simulator::new(
        Topology::grid(3, 2),
        SimulatorConfig::perfect_clocks(1),
    )));
    let proxy = node_proxy(NodeId(0), "t9-157", sim, binding);
    // Management actions.
    for m in [
        "experiment_init",
        "experiment_exit",
        "run_init",
        "run_exit",
        "measure_sync",
    ] {
        assert!(proxy.call(m, vec![]).is_ok(), "management procedure {m}");
    }
    // Unknown methods are reported as XML-RPC faults, not panics.
    let err = proxy.call("definitely_not_a_method", vec![]).unwrap_err();
    assert!(err.to_string().contains("definitely_not_a_method"));
}

#[test]
fn wire_format_is_real_xmlrpc() {
    // A call serialized by our client parses as the spec's XML shape.
    let call = MethodCall::new("sd_init", vec![Value::str("SU")]);
    let xml = call.to_xml();
    let doc = excovery::xml::parse(&xml).unwrap();
    assert_eq!(doc.root().name, "methodCall");
    assert_eq!(doc.root().find_text("methodName"), Some("sd_init".into()));
    assert_eq!(
        doc.root().find_text("params/param/value/string"),
        Some("SU".into())
    );
    // And a fault response likewise.
    let fault = MethodResponse::Fault(excovery::rpc::Fault::new(400, "missing role"));
    let doc = excovery::xml::parse(&fault.to_xml()).unwrap();
    assert!(doc.root().find("fault/value/struct").is_some());
}

#[test]
fn concurrent_master_threads_serialize_on_the_node_lock() {
    // The prototype creates an experiment process thread and a fault
    // thread per node; the node object must serialize access (§VI-A).
    let binding = Arc::new(PlatformBinding::new(&platform(), 6).unwrap());
    let sim = Arc::new(Mutex::new(Simulator::new(
        Topology::grid(3, 2),
        SimulatorConfig::perfect_clocks(2),
    )));
    let proxy = Arc::new(node_proxy(NodeId(0), "t9-157", Arc::clone(&sim), binding));
    proxy.call("experiment_init", vec![]).unwrap();
    let mut handles = Vec::new();
    for i in 0..8 {
        let p = Arc::clone(&proxy);
        handles.push(std::thread::spawn(move || {
            // Mix of process actions and event flags from two "threads".
            if i % 2 == 0 {
                p.call("event_flag", vec![Value::str(format!("flag-{i}"))])
                    .unwrap();
            } else {
                p.call("measure_sync", vec![]).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let events = sim.lock().drain_protocol_events();
    assert_eq!(
        events
            .iter()
            .filter(|e| e.name.starts_with("flag-"))
            .count(),
        4
    );
}

#[test]
fn sd_actions_drive_the_protocol_through_rpc() {
    let binding = Arc::new(PlatformBinding::new(&platform(), 6).unwrap());
    let sim = Arc::new(Mutex::new(Simulator::new(
        Topology::grid(3, 2),
        SimulatorConfig::perfect_clocks(3),
    )));
    let sm = node_proxy(NodeId(0), "t9-157", Arc::clone(&sim), Arc::clone(&binding));
    let su = node_proxy(NodeId(1), "t9-105", Arc::clone(&sim), binding);
    for p in [&sm, &su] {
        p.call("experiment_init", vec![]).unwrap();
    }
    sm.call("sd_init", vec![Value::str("SM")]).unwrap();
    su.call("sd_init", vec![Value::str("SU")]).unwrap();
    sm.call("sd_start_publish", vec![Value::str("_demo._tcp")])
        .unwrap();
    su.call("sd_start_search", vec![Value::str("_demo._tcp")])
        .unwrap();
    sim.lock().run_for(SimDuration::from_secs(3));
    let events = sim.lock().drain_protocol_events();
    assert!(events.iter().any(|e| e.name == "sd_service_add"));
}
