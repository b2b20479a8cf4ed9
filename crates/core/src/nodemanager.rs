//! The NodeManager — the node-side execution component (paper §VI-A).
//!
//! "The NodeManager is the central component of the nodes participating in
//! experiments. It handles remote procedure calls coming from ExperiMaster.
//! Basic procedures exposed via RPC are the actions for management, fault
//! injection, environment manipulation and the experiment process actions."
//!
//! Each NodeManager binds one platform node; its procedures translate into
//! actions on the shared simulated platform: SD commands to the local
//! protocol agent (the prototype delegates these to Avahi), filter rules
//! for fault injection, event flags, and management operations for the run
//! lifecycle.

use crate::binding::PlatformBinding;
use excovery_netsim::filter::{Direction, FilterRule, RuleId};
use excovery_netsim::{EventParams, NodeId, SimDuration, Simulator};
use excovery_obs::sync::Mutex;
use excovery_rpc::{Fault, ServerRegistry, Value};
use excovery_sd::{
    sd_command, Role, SdAgent, SdCommand, SdConfig, ServiceDescription, ServiceType, SD_PORT,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Shared handle to the simulated platform.
pub(crate) type SharedSim = Arc<Mutex<Simulator>>;

/// Builds the NodeManager (its procedure registry) for one platform node.
pub struct NodeManager;

fn p_str(params: &[Value], i: usize, what: &str) -> Result<String, Fault> {
    params
        .get(i)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| Fault::new(400, format!("missing string param {i} ({what})")))
}

fn p_f64(v: Option<&Value>) -> Option<f64> {
    v.and_then(Value::as_double)
}

impl NodeManager {
    /// Creates the registry of procedures for `node` (platform id
    /// `platform_id`). The registry is transport-agnostic: a reactor link
    /// dispatches into it in-process (`ReactorEndpoint::Memory`, or a
    /// `NodeProxy` over a `Channel`), or `excovery_rpc::TcpRpcServer`
    /// serves it over sockets.
    pub fn registry(
        node: NodeId,
        platform_id: &str,
        sim: SharedSim,
        binding: Arc<PlatformBinding>,
        sd_config: SdConfig,
    ) -> ServerRegistry {
        let mut reg = ServerRegistry::new();
        let fault_handles: Arc<Mutex<HashMap<i64, RuleId>>> = Arc::new(Mutex::new(HashMap::new()));
        let next_handle = Arc::new(Mutex::new(0i64));
        let pid = platform_id.to_string();

        // Raw per-node action log: every RPC is appended with the node's
        // local clock reading (the content of the Logs table, §IV-F).
        // `collect_log` itself is excluded: the master drains the log at
        // run boundaries, and recording the drain would make the segment
        // depend on when (and how often) collection happened rather than
        // on what the run did.
        let log: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
        {
            let sim = Arc::clone(&sim);
            let log = Arc::clone(&log);
            let pid = pid.clone();
            reg.set_observer(move |method, params| {
                // Procedure names form a fixed vocabulary (the registry
                // below), so the label stays low-cardinality.
                if excovery_obs::enabled() {
                    excovery_obs::global()
                        .counter("nodemanager_calls_total", &[("method", method)])
                        .inc();
                }
                if method == "collect_log" {
                    return;
                }
                let local = {
                    let s = sim.lock();
                    s.clock(node).local_time(s.now())
                };
                // The line goes straight into the segment. Writing into a
                // string cannot fail.
                let _ = writeln!(
                    log.lock(),
                    "[{local}] {pid} <- {method}({} params)",
                    params.len()
                );
            });
        }
        {
            // `collect_log(true)` drains: it returns the segment accumulated
            // since the previous drain and clears it, so the master can
            // persist disjoint per-run segments to level 2. Dedup replay of
            // a retried drain returns the recorded segment without clearing
            // twice, keeping the drain exactly-once under chaos.
            let log = Arc::clone(&log);
            reg.register("collect_log", move |params| {
                let drain = params.first().and_then(Value::as_bool).unwrap_or(false);
                let mut l = log.lock();
                if drain {
                    Ok(Value::str(std::mem::take(&mut *l)))
                } else {
                    Ok(Value::str(l.clone()))
                }
            });
        }

        // ---- management ---------------------------------------------------
        {
            let sim = Arc::clone(&sim);
            let cfg = sd_config.clone();
            reg.register("experiment_init", move |_params| {
                let mut s = sim.lock();
                s.install_agent(node, SD_PORT, Box::new(SdAgent::new(cfg.clone(), SD_PORT)));
                Ok(Value::Bool(true))
            });
        }
        {
            let sim = Arc::clone(&sim);
            reg.register("experiment_exit", move |_params| {
                sim.lock().remove_agent(node, SD_PORT);
                Ok(Value::Bool(true))
            });
        }
        {
            let sim = Arc::clone(&sim);
            let handles = Arc::clone(&fault_handles);
            reg.register("run_init", move |_params| {
                let mut s = sim.lock();
                // Reset to a defined initial condition (§IV-C1): drop rules
                // from previous runs; captures are drained by the master.
                let mut cleared = 0i64;
                for (_, rule) in handles.lock().drain() {
                    s.remove_filter(node, rule);
                    cleared += 1;
                }
                if cleared > 0 && excovery_obs::enabled() {
                    excovery_obs::global()
                        .gauge("nodemanager_fault_rules_active", &[])
                        .add(-cleared);
                }
                s.set_drop_all(node, false);
                Ok(Value::Bool(true))
            });
        }
        {
            let sim = Arc::clone(&sim);
            reg.register("measure_sync", move |_params| {
                let mut s = sim.lock();
                let m = s.measure_sync(node);
                Ok(Value::Struct(vec![
                    (
                        "offset_ns".into(),
                        Value::str(m.estimated_offset_ns.to_string()),
                    ),
                    (
                        "uncertainty_ns".into(),
                        Value::str(m.uncertainty_ns.to_string()),
                    ),
                ]))
            });
        }
        {
            let sim = Arc::clone(&sim);
            reg.register("run_exit", move |_params| {
                let mut s = sim.lock();
                s.set_drop_all(node, false);
                Ok(Value::Bool(true))
            });
        }

        // ---- experiment process actions (SD, §V) ---------------------------
        let sd = |sim: &SharedSim, node: NodeId, cmd: SdCommand| -> Result<Value, Fault> {
            let ok = sd_command(&mut sim.lock(), node, cmd);
            if ok {
                Ok(Value::Bool(true))
            } else {
                Err(Fault::new(
                    500,
                    "no SD agent installed (experiment_init missing?)",
                ))
            }
        };
        {
            let sim = Arc::clone(&sim);
            reg.register("sd_init", move |params| {
                let role_str = p_str(params, 0, "role")?;
                let role = Role::parse(&role_str)
                    .ok_or_else(|| Fault::new(400, format!("unknown role '{role_str}'")))?;
                sd(&sim, node, SdCommand::Init(role))
            });
        }
        {
            let sim = Arc::clone(&sim);
            reg.register("sd_exit", move |_params| sd(&sim, node, SdCommand::Exit));
        }
        {
            let sim = Arc::clone(&sim);
            reg.register("sd_start_search", move |params| {
                let stype = ServiceType::new(p_str(params, 0, "stype")?);
                sd(&sim, node, SdCommand::StartSearch(stype))
            });
        }
        {
            let sim = Arc::clone(&sim);
            reg.register("sd_stop_search", move |params| {
                let stype = ServiceType::new(p_str(params, 0, "stype")?);
                sd(&sim, node, SdCommand::StopSearch(stype))
            });
        }
        {
            let sim = Arc::clone(&sim);
            let instance = pid.clone();
            reg.register("sd_start_publish", move |params| {
                let stype = ServiceType::new(p_str(params, 0, "stype")?);
                // The service identifier is the publishing node's platform
                // id, so `sd_service_add` parameters identify the SM node
                // (needed by Fig. 10's param_dependency).
                let desc = ServiceDescription::new(instance.clone(), stype, node);
                sd(&sim, node, SdCommand::StartPublish(desc))
            });
        }
        {
            let sim = Arc::clone(&sim);
            reg.register("sd_stop_publish", move |params| {
                let stype = ServiceType::new(p_str(params, 0, "stype")?);
                sd(&sim, node, SdCommand::StopPublish(stype))
            });
        }
        {
            let sim = Arc::clone(&sim);
            let instance = pid.clone();
            reg.register("sd_update_publication", move |params| {
                let stype = ServiceType::new(p_str(params, 0, "stype")?);
                let port: u16 = params
                    .get(1)
                    .and_then(Value::as_int)
                    .map(|v| v as u16)
                    .unwrap_or(80);
                let mut desc = ServiceDescription::new(instance.clone(), stype, node);
                desc.service_port = port;
                sd(&sim, node, SdCommand::UpdatePublication(desc))
            });
        }

        // ---- events --------------------------------------------------------
        {
            let sim = Arc::clone(&sim);
            reg.register("event_flag", move |params| {
                let name = p_str(params, 0, "event name")?;
                sim.lock()
                    .emit_external_event(node, name, EventParams::new());
                Ok(Value::Bool(true))
            });
        }

        // ---- fault injection (§IV-D1) ---------------------------------------
        {
            let sim = Arc::clone(&sim);
            let handles = Arc::clone(&fault_handles);
            let next = Arc::clone(&next_handle);
            let binding = Arc::clone(&binding);
            reg.register("fault_start", move |params| {
                let spec = params
                    .first()
                    .ok_or_else(|| Fault::new(400, "missing fault spec"))?;
                let kind = spec
                    .member("kind")
                    .and_then(Value::as_str)
                    .ok_or_else(|| Fault::new(400, "fault spec without kind"))?
                    .to_string();
                let direction = match spec.member("direction").and_then(Value::as_str) {
                    None | Some("both") => Direction::Both,
                    Some("receive") => Direction::Receive,
                    Some("transmit") => Direction::Transmit,
                    Some(other) => return Err(Fault::new(400, format!("bad direction '{other}'"))),
                };
                let peer = match spec.member("peer").and_then(Value::as_str) {
                    None => None,
                    Some(p) => Some(
                        binding
                            .sim_node(p)
                            .ok_or_else(|| Fault::new(400, format!("unknown peer node '{p}'")))?,
                    ),
                };
                let probability = p_f64(spec.member("probability"))
                    .unwrap_or(1.0)
                    .clamp(0.0, 1.0);
                let delay = SimDuration::from_millis(
                    spec.member("delay_ms")
                        .and_then(Value::as_int)
                        .unwrap_or(0)
                        .max(0) as u64,
                );
                let rule = match kind.as_str() {
                    "interface" => FilterRule::InterfaceDown { direction },
                    "message_loss" => FilterRule::MessageLoss {
                        probability,
                        direction,
                    },
                    "message_delay" => FilterRule::MessageDelay { delay, direction },
                    "path_loss" => FilterRule::PathLoss {
                        peer: peer.ok_or_else(|| Fault::new(400, "path_loss needs peer"))?,
                        probability,
                        direction,
                    },
                    "path_delay" => FilterRule::PathDelay {
                        peer: peer.ok_or_else(|| Fault::new(400, "path_delay needs peer"))?,
                        delay,
                        direction,
                    },
                    other => return Err(Fault::new(400, format!("unknown fault '{other}'"))),
                };
                let mut s = sim.lock();
                let rule_id = s.install_filter(node, rule);
                let handle = {
                    let mut n = next.lock();
                    *n += 1;
                    *n
                };
                handles.lock().insert(handle, rule_id);
                if excovery_obs::enabled() {
                    excovery_obs::global()
                        .gauge("nodemanager_fault_rules_active", &[])
                        .add(1);
                }
                // Each fault action signals its start with an event (§IV-D3).
                s.emit_external_event(
                    node,
                    format!("fault_{kind}_started"),
                    [("handle", handle.to_string())],
                );
                Ok(Value::Int(handle as i32))
            });
        }
        {
            let sim = Arc::clone(&sim);
            let handles = Arc::clone(&fault_handles);
            reg.register("fault_stop", move |params| {
                let handle = params
                    .first()
                    .and_then(Value::as_int)
                    .ok_or_else(|| Fault::new(400, "missing fault handle"))?
                    as i64;
                let Some(rule) = handles.lock().remove(&handle) else {
                    return Err(Fault::new(404, format!("unknown fault handle {handle}")));
                };
                if excovery_obs::enabled() {
                    excovery_obs::global()
                        .gauge("nodemanager_fault_rules_active", &[])
                        .add(-1);
                }
                let mut s = sim.lock();
                s.remove_filter(node, rule);
                s.emit_external_event(node, "fault_stopped", [("handle", handle.to_string())]);
                Ok(Value::Bool(true))
            });
        }
        {
            let sim = Arc::clone(&sim);
            reg.register("drop_all", move |params| {
                let on = params.first().and_then(Value::as_bool).unwrap_or(true);
                sim.lock().set_drop_all(node, on);
                Ok(Value::Bool(true))
            });
        }

        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_desc::ExperimentDescription;
    use excovery_netsim::sim::SimulatorConfig;
    use excovery_netsim::topology::Topology;
    use excovery_rpc::{Channel, NodeProxy};

    fn setup() -> (SharedSim, NodeProxy, NodeProxy) {
        let desc = ExperimentDescription::paper_two_party_sd(1);
        let binding = Arc::new(PlatformBinding::new(&desc.platform, 6).unwrap());
        let sim = Arc::new(Mutex::new(Simulator::new(
            Topology::grid(3, 2),
            SimulatorConfig::perfect_clocks(7),
        )));
        let proxy = |node, pid| {
            let reg = NodeManager::registry(
                node,
                pid,
                Arc::clone(&sim),
                Arc::clone(&binding),
                SdConfig::two_party(),
            );
            NodeProxy::new(pid, Channel::new(reg))
        };
        let (sm, su) = (proxy(NodeId(0), "t9-157"), proxy(NodeId(1), "t9-105"));
        (sim, sm, su)
    }

    #[test]
    fn full_discovery_via_rpc() {
        let (sim, sm, su) = setup();
        sm.call("experiment_init", vec![]).unwrap();
        su.call("experiment_init", vec![]).unwrap();
        sm.call("sd_init", vec![Value::str("SM")]).unwrap();
        su.call("sd_init", vec![Value::str("SU")]).unwrap();
        sm.call("sd_start_publish", vec![Value::str("_exp._tcp")])
            .unwrap();
        su.call("sd_start_search", vec![Value::str("_exp._tcp")])
            .unwrap();
        sim.lock().run_for(SimDuration::from_secs(5));
        let events = sim.lock().drain_protocol_events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"sd_start_publish"));
        assert!(names.contains(&"sd_service_add"), "{names:?}");
        // The discovered service is identified by the SM's platform id.
        let add = events.iter().find(|e| e.name == "sd_service_add").unwrap();
        assert!(add
            .params
            .iter()
            .any(|(k, v)| k == "service" && v == "t9-157"));
    }

    #[test]
    fn sd_without_experiment_init_faults() {
        let (_sim, sm, _su) = setup();
        let err = sm.call("sd_init", vec![Value::str("SM")]).unwrap_err();
        assert!(err.to_string().contains("no SD agent"), "{err}");
    }

    #[test]
    fn bad_role_is_a_fault() {
        let (_sim, sm, _su) = setup();
        sm.call("experiment_init", vec![]).unwrap();
        assert!(sm.call("sd_init", vec![Value::str("WIZARD")]).is_err());
        assert!(sm.call("sd_init", vec![]).is_err(), "missing param");
    }

    #[test]
    fn event_flag_is_recorded() {
        let (sim, sm, _su) = setup();
        sm.call("event_flag", vec![Value::str("ready_to_init")])
            .unwrap();
        let events = sim.lock().drain_protocol_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "ready_to_init");
        assert_eq!(events[0].node, NodeId(0));
    }

    #[test]
    fn fault_lifecycle_blocks_and_restores_traffic() {
        let (sim, sm, su) = setup();
        sm.call("experiment_init", vec![]).unwrap();
        su.call("experiment_init", vec![]).unwrap();
        sm.call("sd_init", vec![Value::str("SM")]).unwrap();
        su.call("sd_init", vec![Value::str("SU")]).unwrap();
        // Interface fault on the SM: publish + search must find nothing.
        let handle = sm
            .call(
                "fault_start",
                vec![Value::Struct(vec![
                    ("kind".into(), Value::str("interface")),
                    ("direction".into(), Value::str("both")),
                ])],
            )
            .unwrap();
        sm.call("sd_start_publish", vec![Value::str("_exp._tcp")])
            .unwrap();
        su.call("sd_start_search", vec![Value::str("_exp._tcp")])
            .unwrap();
        sim.lock().run_for(SimDuration::from_secs(5));
        let names: Vec<String> = sim
            .lock()
            .drain_protocol_events()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        assert!(names.contains(&"fault_interface_started".to_string()));
        assert!(!names.contains(&"sd_service_add".to_string()), "{names:?}");
        // Stop the fault: the periodic queries now get through.
        sm.call("fault_stop", vec![handle]).unwrap();
        sim.lock().run_for(SimDuration::from_secs(10));
        let names: Vec<String> = sim
            .lock()
            .drain_protocol_events()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        assert!(names.contains(&"sd_service_add".to_string()), "{names:?}");
    }

    #[test]
    fn path_faults_require_peer() {
        let (_sim, sm, _su) = setup();
        let err = sm
            .call(
                "fault_start",
                vec![Value::Struct(vec![(
                    "kind".into(),
                    Value::str("path_loss"),
                )])],
            )
            .unwrap_err();
        assert!(err.to_string().contains("peer"));
        let err = sm
            .call(
                "fault_start",
                vec![Value::Struct(vec![
                    ("kind".into(), Value::str("path_loss")),
                    ("peer".into(), Value::str("unknown-host")),
                ])],
            )
            .unwrap_err();
        assert!(err.to_string().contains("unknown peer"));
    }

    #[test]
    fn unknown_fault_handle_errors() {
        let (_sim, sm, _su) = setup();
        assert!(sm.call("fault_stop", vec![Value::Int(99)]).is_err());
    }

    #[test]
    fn measure_sync_returns_offset() {
        let (_sim, sm, _su) = setup();
        let v = sm.call("measure_sync", vec![]).unwrap();
        let offset: i64 = v
            .member("offset_ns")
            .and_then(Value::as_str)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(offset, 0, "perfect clocks in this test setup");
    }

    #[test]
    fn run_init_clears_fault_rules() {
        let (sim, sm, su) = setup();
        sm.call("experiment_init", vec![]).unwrap();
        su.call("experiment_init", vec![]).unwrap();
        sm.call(
            "fault_start",
            vec![Value::Struct(vec![(
                "kind".into(),
                Value::str("interface"),
            )])],
        )
        .unwrap();
        sm.call("run_init", vec![]).unwrap();
        // After run_init the interface fault is gone: discovery works.
        sm.call("sd_init", vec![Value::str("SM")]).unwrap();
        su.call("sd_init", vec![Value::str("SU")]).unwrap();
        sm.call("sd_start_publish", vec![Value::str("_exp._tcp")])
            .unwrap();
        su.call("sd_start_search", vec![Value::str("_exp._tcp")])
            .unwrap();
        sim.lock().run_for(SimDuration::from_secs(5));
        let names: Vec<String> = sim
            .lock()
            .drain_protocol_events()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        assert!(names.contains(&"sd_service_add".to_string()), "{names:?}");
    }
}
