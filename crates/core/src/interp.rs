//! The process interpreter (paper §IV-C2).
//!
//! Every process of the description — experiment processes on actor nodes,
//! manipulation (fault) processes, and environment processes — is a
//! sequence of actions executed step by step. Processes run concurrently;
//! the master advances each of them cooperatively between simulator steps,
//! which replaces the prototype's per-process Python threads with a
//! deterministic schedule while preserving the paper's flow-control
//! semantics:
//!
//! * `wait_for_time` — fixed delay,
//! * `wait_for_event` — blocks until the event log satisfies the selector
//!   (only events after the last `wait_marker`), optional timeout after
//!   which the process simply continues,
//! * `wait_marker` — stamps the position in the event stream,
//! * `event_flag` — emits a local event for other processes to depend on.

use crate::faults::{parse_fault_invoke, FaultInvoke, ParsedFault};
use excovery_desc::factors::LevelValue;
use excovery_desc::process::{EventSelector, ProcessAction, ValueRef};
use excovery_netsim::{SimDuration, SimTime};
use excovery_rpc::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Execution state of one process.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcState {
    /// The next action can execute.
    Ready,
    /// Sleeping until an absolute instant (`wait_for_time`).
    WaitingTime {
        /// Wake-up instant.
        until: SimTime,
    },
    /// Blocked on an event selector (`wait_for_event`).
    WaitingEvent {
        /// The awaited condition.
        selector: EventSelector,
        /// Event-log position the wait considers events from.
        since: u64,
        /// Absolute deadline, if a timeout was given.
        deadline: Option<SimTime>,
    },
    /// All actions executed.
    Done,
    /// Aborted with an error.
    Failed(String),
}

/// One executable process instance.
#[derive(Debug, Clone)]
pub struct ProcessInstance {
    /// Display label, e.g. `actor1[0]@t9-105` or `env#0`.
    pub label: String,
    /// Platform node the process runs on; `None` for environment processes.
    pub platform_id: Option<String>,
    /// Role string (`SM`, `SU`, `SCM`) for `sd_init`, from the actor name.
    pub role: Option<String>,
    /// The action sequence, shared by every instance of the process.
    pub actions: Arc<[ProcessAction]>,
    /// Program counter.
    pub pc: usize,
    /// Current state.
    pub state: ProcState,
    /// Event-log marker set by the last `wait_marker` (0 = run start).
    pub marker: u64,
    /// Open fault handles by kind (for `fault_<kind>_stop`).
    pub fault_handles: HashMap<String, Vec<i32>>,
}

impl ProcessInstance {
    /// Creates a ready process.
    pub fn new(
        label: impl Into<String>,
        platform_id: Option<String>,
        role: Option<String>,
        actions: impl Into<Arc<[ProcessAction]>>,
    ) -> Self {
        Self {
            label: label.into(),
            platform_id,
            role,
            actions: actions.into(),
            pc: 0,
            state: ProcState::Ready,
            marker: 0,
            fault_handles: HashMap::new(),
        }
    }

    /// Makes the process ready to run from its first action again, its
    /// events considered from `marker` on and no fault handle open: what
    /// a new run needs of an instance an earlier run left behind.
    pub(crate) fn reset(&mut self, marker: u64) {
        self.pc = 0;
        self.state = ProcState::Ready;
        self.marker = marker;
        for handles in self.fault_handles.values_mut() {
            handles.clear();
        }
    }

    /// True once the process finished or failed.
    pub fn finished(&self) -> bool {
        matches!(self.state, ProcState::Done | ProcState::Failed(_))
    }
}

/// The environment the interpreter executes against — implemented by the
/// ExperiMaster (and by a mock in tests).
pub trait ExecCtx {
    /// Current reference time.
    fn now(&self) -> SimTime;
    /// Current event-log position (for `wait_marker`).
    fn marker(&self) -> u64;
    /// Resolves a value reference against the current treatment.
    fn resolve(&self, v: &ValueRef) -> Option<LevelValue>;
    /// True if the selector is satisfied by events at/after `since`.
    fn satisfied(&self, selector: &EventSelector, since: u64) -> bool;
    /// Calls a NodeManager procedure.
    fn call_node(
        &mut self,
        platform_id: &str,
        method: &str,
        params: Vec<Value>,
    ) -> Result<Value, String>;
    /// Executes an environment action (traffic, drop-all, plugins).
    fn env_invoke(
        &mut self,
        name: &str,
        params: &HashMap<String, LevelValue>,
    ) -> Result<(), String>;
    /// Emits a master-side event (environment `event_flag`).
    fn emit_master_event(&mut self, name: &str);
    /// Schedules a windowed fault (duration/rate envelope) on a node.
    fn schedule_fault(
        &mut self,
        platform_id: &str,
        fault: &ParsedFault,
        window: (SimTime, SimTime),
    ) -> Result<(), String>;
}

/// Default service type used by SD actions without an explicit `stype`.
pub(crate) const DEFAULT_STYPE: &str = "_exp._tcp";

/// Advances `proc` as far as possible without blocking. Returns `true` if
/// any action was executed (progress was made).
pub fn step(proc: &mut ProcessInstance, ctx: &mut dyn ExecCtx) -> bool {
    let mut progressed = false;
    loop {
        // Re-evaluate blocked states first.
        match &proc.state {
            ProcState::Done | ProcState::Failed(_) => return progressed,
            ProcState::WaitingTime { until } => {
                if ctx.now() >= *until {
                    proc.state = ProcState::Ready;
                } else {
                    return progressed;
                }
            }
            ProcState::WaitingEvent {
                selector,
                since,
                deadline,
            } => {
                let satisfied = ctx.satisfied(selector, *since);
                let timed_out = deadline.is_some_and(|d| ctx.now() >= d);
                if satisfied || timed_out {
                    // A timeout is not an error: the paper's SU proceeds to
                    // flag `done` either way (Fig. 10).
                    proc.state = ProcState::Ready;
                } else {
                    return progressed;
                }
            }
            ProcState::Ready => {}
        }
        if proc.pc >= proc.actions.len() {
            proc.state = ProcState::Done;
            return progressed;
        }
        let actions = Arc::clone(&proc.actions);
        let action = &actions[proc.pc];
        proc.pc += 1;
        progressed = true;
        if let Err(e) = execute(proc, action, ctx) {
            proc.state = ProcState::Failed(format!("{}: action {}: {e}", proc.label, proc.pc - 1));
            return progressed;
        }
    }
}

fn resolve_params(
    params: &[(String, ValueRef)],
    ctx: &dyn ExecCtx,
) -> Result<HashMap<String, LevelValue>, String> {
    let mut out = HashMap::new();
    for (k, v) in params {
        let resolved = ctx
            .resolve(v)
            .ok_or_else(|| format!("parameter '{k}': unresolvable reference {v}"))?;
        out.insert(k.clone(), resolved);
    }
    Ok(out)
}

fn execute(
    proc: &mut ProcessInstance,
    action: &ProcessAction,
    ctx: &mut dyn ExecCtx,
) -> Result<(), String> {
    match action {
        ProcessAction::WaitForTime { seconds } => {
            let secs = ctx
                .resolve(seconds)
                .and_then(|v| v.as_float())
                .ok_or("wait_for_time without numeric duration")?;
            proc.state = ProcState::WaitingTime {
                until: ctx.now() + SimDuration::from_secs_f64(secs),
            };
            Ok(())
        }
        ProcessAction::WaitMarker => {
            proc.marker = ctx.marker();
            Ok(())
        }
        ProcessAction::WaitForEvent(selector) => {
            let deadline = match &selector.timeout_s {
                None => None,
                Some(t) => {
                    let secs = ctx
                        .resolve(t)
                        .and_then(|v| v.as_float())
                        .ok_or("wait_for_event timeout is not numeric")?;
                    Some(ctx.now() + SimDuration::from_secs_f64(secs))
                }
            };
            proc.state = ProcState::WaitingEvent {
                selector: selector.clone(),
                since: proc.marker,
                deadline,
            };
            Ok(())
        }
        ProcessAction::EventFlag { value } => match &proc.platform_id {
            Some(pid) => {
                ctx.call_node(pid, "event_flag", vec![Value::str(value.clone())])?;
                Ok(())
            }
            None => {
                ctx.emit_master_event(value);
                Ok(())
            }
        },
        ProcessAction::Invoke { name, params } => {
            let resolved = resolve_params(params, ctx)?;
            // Fault actions first: they exist on node processes only.
            if let Some(parsed) = parse_fault_invoke(name, &resolved) {
                let ProcessInstance {
                    platform_id,
                    fault_handles,
                    ..
                } = proc;
                let pid = platform_id
                    .as_deref()
                    .ok_or("fault actions require a node-bound process")?;
                return match parsed? {
                    FaultInvoke::Start(fault) => {
                        match fault.envelope.activation_window(ctx.now()) {
                            Some(window) => ctx.schedule_fault(pid, &fault, window),
                            None => {
                                let handle = ctx
                                    .call_node(pid, "fault_start", vec![fault.spec.clone()])?
                                    .as_int()
                                    .ok_or("fault_start returned no handle")?;
                                match fault_handles.get_mut(&fault.kind) {
                                    Some(open) => open.push(handle),
                                    None => {
                                        fault_handles.insert(fault.kind.clone(), vec![handle]);
                                    }
                                }
                                Ok(())
                            }
                        }
                    }
                    FaultInvoke::Stop(kind) => {
                        let handle = fault_handles
                            .get_mut(&kind)
                            .and_then(Vec::pop)
                            .ok_or_else(|| format!("no active '{kind}' fault to stop"))?;
                        ctx.call_node(pid, "fault_stop", vec![Value::Int(handle)])?;
                        Ok(())
                    }
                };
            }
            match &proc.platform_id {
                Some(pid) => invoke_node_action(proc, pid, name, &resolved, ctx),
                None => ctx.env_invoke(name, &resolved),
            }
        }
    }
}

fn invoke_node_action(
    proc: &ProcessInstance,
    pid: &str,
    name: &str,
    params: &HashMap<String, LevelValue>,
    ctx: &mut dyn ExecCtx,
) -> Result<(), String> {
    let stype = params
        .get("stype")
        .and_then(|v| v.as_text().map(str::to_string))
        .unwrap_or_else(|| DEFAULT_STYPE.to_string());
    match name {
        "sd_init" => {
            let role = params
                .get("role")
                .and_then(|v| v.as_text().map(str::to_string))
                .or_else(|| proc.role.clone())
                .ok_or("sd_init: no role (set the actor's name to SM/SU/SCM)")?;
            ctx.call_node(pid, "sd_init", vec![Value::str(role)])?;
        }
        "sd_exit" => {
            ctx.call_node(pid, "sd_exit", vec![])?;
        }
        "sd_start_search" => {
            ctx.call_node(pid, "sd_start_search", vec![Value::str(stype)])?;
        }
        "sd_stop_search" => {
            ctx.call_node(pid, "sd_stop_search", vec![Value::str(stype)])?;
        }
        "sd_start_publish" => {
            ctx.call_node(pid, "sd_start_publish", vec![Value::str(stype)])?;
        }
        "sd_stop_publish" => {
            ctx.call_node(pid, "sd_stop_publish", vec![Value::str(stype)])?;
        }
        "sd_update_publication" => {
            let port = params
                .get("port")
                .and_then(LevelValue::as_int)
                .unwrap_or(80);
            ctx.call_node(
                pid,
                "sd_update_publication",
                vec![Value::str(stype), Value::Int(port as i32)],
            )?;
        }
        "drop_all_start" => {
            ctx.call_node(pid, "drop_all", vec![Value::Bool(true)])?;
        }
        "drop_all_stop" => {
            ctx.call_node(pid, "drop_all", vec![Value::Bool(false)])?;
        }
        // Unknown node actions go to the node as generic calls — the
        // paper's generic function / plugin hook.
        other => {
            let args: Vec<Value> = params
                .iter()
                .map(|(k, v)| {
                    Value::Struct(vec![
                        ("name".into(), Value::str(k.clone())),
                        ("value".into(), Value::str(v.to_string())),
                    ])
                })
                .collect();
            ctx.call_node(pid, other, args)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mock context recording calls and scripting event satisfaction.
    struct Mock {
        now: SimTime,
        calls: Vec<String>,
        satisfied_events: Vec<String>,
        marker: u64,
        fail_call: bool,
    }

    impl Mock {
        fn new() -> Self {
            Self {
                now: SimTime::ZERO,
                calls: vec![],
                satisfied_events: vec![],
                marker: 0,
                fail_call: false,
            }
        }
    }

    impl ExecCtx for Mock {
        fn now(&self) -> SimTime {
            self.now
        }
        fn marker(&self) -> u64 {
            self.marker
        }
        fn resolve(&self, v: &ValueRef) -> Option<LevelValue> {
            match v {
                ValueRef::Lit(l) => Some(l.clone()),
                ValueRef::FactorRef(id) if id == "fact_known" => Some(LevelValue::Int(42)),
                ValueRef::FactorRef(_) => None,
            }
        }
        fn satisfied(&self, selector: &EventSelector, _since: u64) -> bool {
            self.satisfied_events.contains(&selector.event)
        }
        fn call_node(
            &mut self,
            platform_id: &str,
            method: &str,
            params: Vec<Value>,
        ) -> Result<Value, String> {
            if self.fail_call {
                return Err("injected failure".into());
            }
            self.calls
                .push(format!("{platform_id}:{method}({})", params.len()));
            Ok(Value::Int(7)) // doubles as a fault handle
        }
        fn env_invoke(
            &mut self,
            name: &str,
            params: &HashMap<String, LevelValue>,
        ) -> Result<(), String> {
            self.calls.push(format!("env:{name}({})", params.len()));
            Ok(())
        }
        fn emit_master_event(&mut self, name: &str) {
            self.calls.push(format!("flag:{name}"));
        }
        fn schedule_fault(
            &mut self,
            platform_id: &str,
            fault: &ParsedFault,
            window: (SimTime, SimTime),
        ) -> Result<(), String> {
            self.calls.push(format!(
                "window:{platform_id}:{}:{}..{}",
                fault.kind,
                window.0.as_nanos(),
                window.1.as_nanos()
            ));
            Ok(())
        }
    }

    fn node_proc(actions: Vec<ProcessAction>) -> ProcessInstance {
        ProcessInstance::new("p", Some("t9-157".into()), Some("SM".into()), actions)
    }

    #[test]
    fn sm_process_runs_to_wait() {
        // Fig. 9: init, publish, wait for done, stop, exit.
        let mut p = node_proc(vec![
            ProcessAction::invoke("sd_init"),
            ProcessAction::invoke("sd_start_publish"),
            ProcessAction::WaitForEvent(EventSelector::named("done")),
            ProcessAction::invoke("sd_stop_publish"),
            ProcessAction::invoke("sd_exit"),
        ]);
        let mut ctx = Mock::new();
        assert!(step(&mut p, &mut ctx));
        assert_eq!(
            ctx.calls,
            vec!["t9-157:sd_init(1)", "t9-157:sd_start_publish(1)"]
        );
        assert!(matches!(p.state, ProcState::WaitingEvent { .. }));
        // "done" appears → process completes.
        ctx.satisfied_events.push("done".into());
        assert!(step(&mut p, &mut ctx));
        assert_eq!(p.state, ProcState::Done);
        assert_eq!(ctx.calls.len(), 4);
        assert!(ctx.calls[3].contains("sd_exit"));
    }

    #[test]
    fn wait_for_time_blocks_until_deadline() {
        let mut p = node_proc(vec![
            ProcessAction::WaitForTime {
                seconds: ValueRef::int(2),
            },
            ProcessAction::invoke("sd_init"),
        ]);
        let mut ctx = Mock::new();
        step(&mut p, &mut ctx);
        assert!(matches!(p.state, ProcState::WaitingTime { .. }));
        assert!(ctx.calls.is_empty());
        ctx.now = SimTime::from_nanos(1_999_999_999);
        assert!(!step(&mut p, &mut ctx), "not yet");
        ctx.now = SimTime::from_nanos(2_000_000_000);
        step(&mut p, &mut ctx);
        assert_eq!(p.state, ProcState::Done);
        assert_eq!(ctx.calls.len(), 1);
    }

    #[test]
    fn wait_for_event_timeout_proceeds() {
        let mut p = node_proc(vec![
            ProcessAction::WaitForEvent(
                EventSelector::named("never").with_timeout(ValueRef::int(30)),
            ),
            ProcessAction::EventFlag {
                value: "done".into(),
            },
        ]);
        let mut ctx = Mock::new();
        step(&mut p, &mut ctx);
        assert!(matches!(
            p.state,
            ProcState::WaitingEvent {
                deadline: Some(_),
                ..
            }
        ));
        ctx.now = SimTime::from_nanos(30_000_000_000);
        step(&mut p, &mut ctx);
        assert_eq!(p.state, ProcState::Done);
        assert_eq!(ctx.calls, vec!["t9-157:event_flag(1)"]);
    }

    #[test]
    fn wait_marker_updates_marker() {
        let mut p = node_proc(vec![
            ProcessAction::WaitMarker,
            ProcessAction::WaitForEvent(EventSelector::named("e")),
        ]);
        let mut ctx = Mock::new();
        ctx.marker = 17;
        step(&mut p, &mut ctx);
        assert_eq!(p.marker, 17);
        match &p.state {
            ProcState::WaitingEvent { since, .. } => assert_eq!(*since, 17),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn env_process_dispatches_env_actions_and_flags() {
        let mut p = ProcessInstance::new(
            "env#0",
            None,
            None,
            vec![
                ProcessAction::EventFlag {
                    value: "ready_to_init".into(),
                },
                ProcessAction::invoke_with(
                    "env_traffic_start",
                    [("bw".to_string(), ValueRef::factor("fact_known"))],
                ),
                ProcessAction::WaitForEvent(EventSelector::named("done")),
                ProcessAction::invoke("env_traffic_stop"),
            ],
        );
        let mut ctx = Mock::new();
        step(&mut p, &mut ctx);
        assert_eq!(
            ctx.calls,
            vec!["flag:ready_to_init", "env:env_traffic_start(1)"]
        );
        ctx.satisfied_events.push("done".into());
        step(&mut p, &mut ctx);
        assert_eq!(p.state, ProcState::Done);
        assert_eq!(ctx.calls[2], "env:env_traffic_stop(0)");
    }

    #[test]
    fn unresolvable_factor_fails_process() {
        let mut p = node_proc(vec![ProcessAction::invoke_with(
            "sd_start_search",
            [("stype".to_string(), ValueRef::factor("missing"))],
        )]);
        let mut ctx = Mock::new();
        step(&mut p, &mut ctx);
        assert!(matches!(p.state, ProcState::Failed(_)), "{:?}", p.state);
    }

    #[test]
    fn rpc_failure_fails_process() {
        let mut p = node_proc(vec![ProcessAction::invoke("sd_init")]);
        let mut ctx = Mock::new();
        ctx.fail_call = true;
        step(&mut p, &mut ctx);
        match &p.state {
            ProcState::Failed(msg) => assert!(msg.contains("injected failure")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbounded_fault_start_and_stop() {
        let mut p = node_proc(vec![
            ProcessAction::invoke_with(
                "fault_message_loss_start",
                [(
                    "probability".to_string(),
                    ValueRef::Lit(LevelValue::Float(0.3)),
                )],
            ),
            ProcessAction::invoke("fault_message_loss_stop"),
        ]);
        let mut ctx = Mock::new();
        step(&mut p, &mut ctx);
        assert_eq!(p.state, ProcState::Done);
        assert_eq!(
            ctx.calls,
            vec!["t9-157:fault_start(1)", "t9-157:fault_stop(1)"]
        );
        assert!(p.fault_handles["message_loss"].is_empty());
    }

    #[test]
    fn stopping_inactive_fault_fails() {
        let mut p = node_proc(vec![ProcessAction::invoke("fault_interface_stop")]);
        let mut ctx = Mock::new();
        step(&mut p, &mut ctx);
        assert!(matches!(p.state, ProcState::Failed(_)));
    }

    #[test]
    fn windowed_fault_is_scheduled_not_started() {
        let mut p = node_proc(vec![ProcessAction::invoke_with(
            "fault_interface_start",
            [
                ("duration".to_string(), ValueRef::int(10)),
                ("rate".to_string(), ValueRef::Lit(LevelValue::Float(0.5))),
                ("randomseed".to_string(), ValueRef::int(3)),
            ],
        )]);
        let mut ctx = Mock::new();
        step(&mut p, &mut ctx);
        assert_eq!(p.state, ProcState::Done);
        assert_eq!(ctx.calls.len(), 1);
        assert!(
            ctx.calls[0].starts_with("window:t9-157:interface:"),
            "{:?}",
            ctx.calls
        );
    }

    #[test]
    fn sd_init_uses_role_param_override() {
        let mut p = node_proc(vec![ProcessAction::invoke_with(
            "sd_init",
            [("role".to_string(), ValueRef::text("SCM"))],
        )]);
        let mut ctx = Mock::new();
        step(&mut p, &mut ctx);
        assert_eq!(p.state, ProcState::Done);
        assert_eq!(ctx.calls, vec!["t9-157:sd_init(1)"]);
    }

    #[test]
    fn unknown_node_action_is_forwarded_generically() {
        let mut p = node_proc(vec![ProcessAction::invoke_with(
            "my_plugin_measure",
            [("gain".to_string(), ValueRef::int(3))],
        )]);
        let mut ctx = Mock::new();
        step(&mut p, &mut ctx);
        assert_eq!(p.state, ProcState::Done);
        assert_eq!(ctx.calls, vec!["t9-157:my_plugin_measure(1)"]);
    }
}
