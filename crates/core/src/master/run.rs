//! One run: preparation (`run_init`), execution of the process set under
//! the four flow-control functions, clean-up (`run_exit`), and the run's
//! level-2 record, sealed last.

use super::ctx::MasterCtx;
use super::outcome::RunOutcome;
use super::{ExperiMaster, FaultWindow};
use crate::binding::ResolvedActors;
use crate::error::EngineError;
use crate::interp::{self, ProcState, ProcessInstance};
use crate::l2codec;
use excovery_desc::factors::LevelValue;
use excovery_desc::plan::{RunSpec, Treatment};
use excovery_desc::ExperimentDescription;
use excovery_netsim::{EventName, EventParams, NodeId, SimDuration, SimTime};
use excovery_rpc::Value;
use excovery_store::level2::Level2Store;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Master reaction quantum: the longest simulated step the run loop takes
/// while waiting on events.
const QUANTUM: SimDuration = SimDuration::from_millis(20);

/// The process set of one actor resolution, built once per session and
/// reset by every run whose treatment resolves the actors the same way.
pub(super) struct CompiledProcesses {
    /// The level of every node process's `nodes_factor` in the treatment,
    /// in process order: all a resolution depends on.
    levels: Vec<Option<LevelValue>>,
    actors: Arc<ResolvedActors>,
    /// Taken by the run that executes them, and put back after it.
    procs: Vec<ProcessInstance>,
}

/// The treatment's level of every node process's `nodes_factor`, the
/// input of [`ResolvedActors::resolve`] besides the fixed description and
/// binding.
fn resolution_levels<'a>(
    desc: &'a ExperimentDescription,
    treatment: &'a Treatment,
) -> impl Iterator<Item = Option<&'a LevelValue>> {
    desc.node_processes
        .iter()
        .filter_map(|p| p.nodes_factor.as_deref())
        .map(|factor| treatment.level(factor))
}

/// The node name of the master's own events, shared by all of them.
fn master_node() -> Arc<str> {
    static MASTER: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(MASTER.get_or_init(|| Arc::from("master")))
}

impl ExperiMaster {
    /// Instantiates the process set of `actors`: one instance per node an
    /// actor process resolves to, then the environment processes.
    fn instantiate_processes(&self, actors: &ResolvedActors) -> Vec<ProcessInstance> {
        let mut procs = Vec::new();
        for p in &self.desc.node_processes {
            let actions: Arc<[_]> = p.actions.clone().into();
            for (i, (_, platform, _)) in actors.instances(&p.actor_id).iter().enumerate() {
                procs.push(ProcessInstance::new(
                    format!("{}[{}]@{}", p.actor_id, i, platform),
                    Some(platform.clone()),
                    p.name.clone(),
                    Arc::clone(&actions),
                ));
            }
        }
        for (i, env) in self.desc.env_processes.iter().enumerate() {
            procs.push(ProcessInstance::new(
                format!("env#{i}"),
                None,
                None,
                env.actions.clone(),
            ));
        }
        procs
    }

    /// Resolves the actors of `treatment` and takes the process set they
    /// run from `compiled`, building both on first use. Returns the set's
    /// place, where [`Self::execute_run`] puts it back.
    fn take_processes(
        &mut self,
        treatment: &Treatment,
        compiled: &mut Vec<CompiledProcesses>,
    ) -> Result<(usize, Vec<ProcessInstance>), EngineError> {
        let desc = &self.desc;
        let found = compiled.iter().position(|c| {
            let levels = c.levels.iter().map(Option::as_ref);
            levels.eq(resolution_levels(desc, treatment))
        });
        let at = match found {
            Some(at) => at,
            None => {
                let actors = ResolvedActors::resolve(&self.desc, treatment, &self.binding)
                    .map_err(EngineError::Run)?;
                let procs = self.instantiate_processes(&actors);
                let levels = resolution_levels(&self.desc, treatment)
                    .map(Option::<&LevelValue>::cloned)
                    .collect();
                compiled.push(CompiledProcesses {
                    levels,
                    actors: Arc::new(actors),
                    procs,
                });
                compiled.len() - 1
            }
        };
        self.actors = Arc::clone(&compiled[at].actors);
        Ok((at, std::mem::take(&mut compiled[at].procs)))
    }

    fn drain_events(&mut self) {
        let drained = self.sim.lock().drain_protocol_events();
        for e in drained {
            let node = match self.binding.shared_platform_id(e.node) {
                Some(pid) => Arc::clone(pid),
                None => Arc::from(e.node.to_string()),
            };
            self.log
                .record(self.run_id, node, e.local_time, e.name, e.params);
        }
    }

    /// Applies fault-window boundaries up to the current instant.
    fn apply_fault_windows(&mut self) -> Result<(), EngineError> {
        let now = self.sim.lock().now();
        let mut windows = std::mem::take(&mut self.fault_windows);
        for w in &mut windows {
            if w.handle.is_none() && now >= w.start && now < w.stop {
                let v = self
                    .retry_call(w.link, "fault_start", std::slice::from_ref(&w.spec))
                    .map_err(|e| EngineError::from_rpc(w.platform_id.clone(), e))?;
                w.handle = v.as_int();
            }
        }
        let mut keep = Vec::new();
        for w in windows {
            if now >= w.stop {
                // Windows fully in the past are dropped.
                self.stop_fault(&w)?;
            } else {
                keep.push(w);
            }
        }
        self.fault_windows = keep;
        Ok(())
    }

    /// Stops a windowed fault if it was started.
    fn stop_fault(&self, w: &FaultWindow) -> Result<(), EngineError> {
        if let Some(h) = w.handle {
            self.retry_call(w.link, "fault_stop", &[Value::Int(h)])
                .map_err(|e| EngineError::from_rpc(w.platform_id.clone(), e))?;
        }
        Ok(())
    }

    /// Records an event of the master at the platform's current instant,
    /// which it returns.
    pub(super) fn record_master_event(
        &mut self,
        name: impl Into<EventName>,
        params: EventParams,
    ) -> SimTime {
        let now = self.sim.lock().now();
        self.log
            .record(self.run_id, master_node(), now, name, params);
        now
    }

    /// Stops the background traffic and removes its CBR flows, if any.
    pub(super) fn stop_traffic(&mut self) {
        if let Some(mut t) = self.traffic.take() {
            t.stop(&mut self.sim.lock());
        }
        let flows = std::mem::take(&mut self.cbr_flows);
        if !flows.is_empty() {
            excovery_netsim::cbr::remove_cbr_flows(&mut self.sim.lock(), &flows);
        }
    }

    fn next_fault_boundary(&self, now: SimTime) -> Option<SimTime> {
        self.fault_windows
            .iter()
            .flat_map(|w| [w.start, w.stop])
            .filter(|t| *t > now)
            .min()
    }

    pub(super) fn execute_run(
        &mut self,
        run: &RunSpec,
        l2: &Level2Store,
        compiled: &mut Vec<CompiledProcesses>,
    ) -> Result<RunOutcome, EngineError> {
        // ---- preparation (run_init) ------------------------------------------
        let preparing = self.phase_timer(|| "run_prepare");
        self.run_id = run.run_id;
        self.replicate = run.replicate;
        let (set, mut procs) = self.take_processes(&run.treatment, compiled)?;
        self.traffic = None;
        self.cbr_flows.clear();
        self.fault_windows.clear();
        self.run_measurements.clear();
        self.sim.lock().reset_for_run(run.run_id);
        // The log holds only this run: level 2 already has every earlier
        // run's events, and aligned sequence numbers keep a stale marker
        // from matching anything recorded now.
        self.log.clear();
        self.log.align_for_run(run.run_id);
        let run_start = self.sim.lock().now();
        self.finish_phase(preparing, "run_prepare");

        // Each preparation procedure fans out to all nodes concurrently,
        // with a barrier between the phases: no node enters
        // `experiment_init` before every node finished `run_init`.
        self.fan_out("run_init", &[])?;
        self.fan_out("experiment_init", &[])?;
        // Preliminary measurement: clock offset against the reference
        // (paper §IV-B3, stored as RunInfos.TimeDiff).
        let measured = self.fan_out("measure_sync", &[])?;

        // ---- execution ---------------------------------------------------------
        let executing = self.phase_timer(|| "run_execute");
        let mut sync_offsets: Vec<i64> = Vec::with_capacity(measured.len());
        for (pid, m) in self.managed.iter().zip(measured) {
            let offset: i64 = m
                .member("offset_ns")
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| EngineError::Node {
                    node: pid.clone(),
                    detail: "measure_sync returned no offset".into(),
                })?;
            sync_offsets.push(offset);
        }
        let run_param = || EventParams::from([("run", run.run_id.to_string())]);
        self.record_master_event("run_init", run_param());

        // Flow control must only consider events of *this* run: every
        // process starts at its first action with its marker at the
        // current log position (run_init resets the environment, §IV-C1).
        let run_marker = self.log.marker();
        for p in &mut procs {
            p.reset(run_marker);
        }
        let deadline = run_start + self.cfg.run_timeout;
        loop {
            // Step processes until quiescent.
            loop {
                let mut any = false;
                for p in &mut procs {
                    let mut ctx = MasterCtx {
                        master: self,
                        treatment: &run.treatment,
                    };
                    any |= interp::step(p, &mut ctx);
                }
                self.drain_events();
                if !any {
                    break;
                }
            }
            if procs.iter().all(ProcessInstance::finished) {
                break;
            }
            // Advance the platform.
            let now = self.sim.lock().now();
            if now >= deadline {
                for p in &mut procs {
                    if !p.finished() {
                        p.state = ProcState::Failed(format!("{}: run timeout", p.label));
                    }
                }
                break;
            }
            let mut next = now + QUANTUM;
            for p in &procs {
                match &p.state {
                    ProcState::WaitingTime { until } if *until > now => next = next.min(*until),
                    ProcState::WaitingEvent {
                        deadline: Some(d), ..
                    } if *d > now => next = next.min(*d),
                    _ => {}
                }
            }
            if let Some(b) = self.next_fault_boundary(now) {
                next = next.min(b);
            }
            let next = next.min(deadline);
            self.sim.lock().run_until(next);
            self.apply_fault_windows()?;
            self.drain_events();
        }
        self.finish_phase(executing, "run_execute");

        // ---- clean-up (run_exit) -----------------------------------------------
        let cleaning = self.phase_timer(|| "run_cleanup");
        self.stop_traffic();
        // Stop any still-active windowed faults.
        for w in std::mem::take(&mut self.fault_windows) {
            self.stop_fault(&w)?;
        }
        self.finish_phase(cleaning, "run_cleanup");
        self.fan_out("run_exit", &[])?;

        // ---- collection into level 2 ---------------------------------------------
        let staging = self.phase_timer(|| "l2_stage");
        self.drain_events();
        let run_end = self.record_master_event("run_exit", run_param());
        let events = l2codec::encode_events(self.log.events(), run.run_id)
            .map_err(|e| l2codec::entry_error(run.run_id, l2codec::MASTER, l2codec::EVENTS, e))?;
        l2.put_run(run.run_id, l2codec::MASTER, l2codec::EVENTS, events)?;
        // `sync.json` and `start.json` are rendered into the one buffer
        // the master keeps for its small entries.
        let mut offsets: Vec<(&str, i64)> = self
            .managed
            .iter()
            .map(String::as_str)
            .zip(sync_offsets)
            .collect();
        let buf = &mut self.entry_buf;
        buf.clear();
        l2codec::write_sync(buf, &mut offsets);
        l2.put_run(run.run_id, l2codec::MASTER, l2codec::SYNC, buf.as_slice())?;
        buf.clear();
        l2codec::write_start(buf, run_start.as_nanos());
        l2.put_run(run.run_id, l2codec::MASTER, l2codec::START, buf.as_slice())?;
        // Plugin measurements get their separate storage location (§IV-B5).
        if !self.run_measurements.is_empty() {
            let ms = l2codec::measurements_to_json(&self.run_measurements).to_string();
            l2.put_run(
                run.run_id,
                l2codec::PLUGINS,
                l2codec::MEASUREMENTS,
                ms.into_bytes(),
            )?;
        }
        self.finish_phase(staging, "l2_stage");

        let mut packets_total = 0;
        let staging = self.phase_timer(|| "l2_captures");
        {
            let mut sim = self.sim.lock();
            let src_id = |node: NodeId| match self.binding.platform_id(node) {
                Some(pid) => Cow::Borrowed(pid),
                None => Cow::Owned(node.to_string()),
            };
            for (link, pid) in self.managed.iter().enumerate() {
                let captures = sim.drain_captures(NodeId(link as u16));
                packets_total += captures.len();
                let entry = l2codec::encode_captures(&captures, src_id)
                    .map_err(|e| l2codec::entry_error(run.run_id, pid, l2codec::CAPTURES, e))?;
                l2.put_run(run.run_id, pid, l2codec::CAPTURES, entry)?;
            }
        }
        self.finish_phase(staging, "l2_captures");
        // Drain each node's action-log segment for this run into level 2
        // (a fan-out like the other lifecycle phases, so it rides the
        // reactor). Draining per run — rather than reading the
        // cumulative log at packaging time — makes the Logs table
        // crash-durable: a master killed after this run's completion
        // marker lands can be resumed by a fresh incarnation — with
        // fresh, empty NodeManagers — and the packaged Logs still cover
        // every run, byte-identically.
        let segments = self.fan_out("collect_log", &[Value::Bool(true)])?;
        let staging = self.phase_timer(|| "l2_node_logs");
        for (pid, segment) in self.managed.iter().zip(segments) {
            // The segment the NodeManager handed over is staged as it is.
            let segment = match segment {
                Value::String(text) => text.into_bytes(),
                _ => Vec::new(),
            };
            l2.put_run(run.run_id, pid, l2codec::NODE_LOG, segment)?;
        }
        self.finish_phase(staging, "l2_node_logs");
        // Per-run observability summary: flush the data plane's batched
        // counters, then persist the registry snapshot plus the spans of
        // this run under the reserved `_obs` node. `package` reads run
        // entries by exact name, so these files can never reach the
        // level-3 database (the digest stays obs-independent).
        let rendering = self.phase_timer(|| "obs_summary");
        self.sim.lock().publish_obs();
        if excovery_obs::enabled() {
            let reg = excovery_obs::global();
            reg.counter("master_runs_executed_total", &[]).inc();
            reg.histogram("master_run_sim_duration_ns", &[])
                .observe(run_end.saturating_since(run_start).as_nanos());
            let spans = excovery_obs::global_tracer().drain();
            let summary = l2codec::obs_jsonl(reg.snapshot(), spans);
            l2.put_run(
                run.run_id,
                l2codec::OBS,
                l2codec::OBS_SUMMARY,
                summary.into_bytes(),
            )?;
        }
        self.finish_phase(rendering, "obs_summary");

        let sealing = self.phase_timer(|| "l2_seal");
        let failures: Vec<String> = procs
            .iter()
            .filter_map(|p| match &p.state {
                ProcState::Failed(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        compiled[set].procs = procs;
        let outcome = RunOutcome {
            run_id: run.run_id,
            replicate: run.replicate,
            treatment_key: run.treatment.key(),
            completed: failures.is_empty(),
            failures,
            events: self.log.len(),
            packets: packets_total,
            duration: run_end.saturating_since(run_start),
        };
        // The summary is staged before the seal, so it is inside the
        // record the journal confirms: a run is only "complete" once a
        // resumed master can restore its outcome without re-executing it.
        let buf = &mut self.entry_buf;
        buf.clear();
        l2codec::write_outcome(buf, &outcome);
        l2.put_run(
            run.run_id,
            l2codec::MASTER,
            l2codec::OUTCOME,
            buf.as_slice(),
        )?;
        l2.mark_run_complete(run.run_id)?;
        self.finish_phase(sealing, "l2_seal");
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use crate::master::tests::{dataset, paper_desc, small_config};
    use crate::ExperiMaster;
    use excovery_desc::factors::LevelValue;
    use excovery_desc::process::ValueRef;
    use excovery_netsim::SimDuration;
    use excovery_store::records::EventRow;

    #[test]
    fn discovery_event_identifies_the_sm_node() {
        let desc = paper_desc(1);
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        let events = dataset(&outcome).events(Some(0)).unwrap();
        let add = events
            .iter()
            .find(|e| e.event_type == "sd_service_add" && e.node_id == "t9-105")
            .expect("SU discovered the service");
        let params = EventRow::decode_params(&add.parameter);
        assert!(
            params.iter().any(|(k, v)| k == "service" && v == "t9-157"),
            "{params:?}"
        );
    }

    #[test]
    fn event_log_holds_only_the_current_run() {
        let mut cfg = small_config();
        cfg.max_runs = Some(3);
        let mut master = ExperiMaster::new(paper_desc(3), cfg).unwrap();
        let outcome = master.execute().unwrap();
        assert_eq!(outcome.runs.len(), 3);
        let last = outcome.runs.last().unwrap();
        assert!(last.events > 0);
        assert_eq!(master.log.len(), last.events);
        assert!(master.log.events().iter().all(|e| e.run_id == last.run_id));
    }

    #[test]
    fn interface_fault_process_blocks_discovery() {
        use excovery_desc::process::{ActorProcess, ProcessAction};
        let mut desc = paper_desc(1);
        // A manipulation process on the SM: interface down for the whole
        // run (started, never stopped; run_exit cleans up).
        let mut fault = ActorProcess::new("fault_sm");
        fault.is_manipulation = true;
        fault.nodes_factor = Some("fact_nodes".into());
        fault.actions = vec![ProcessAction::invoke("fault_interface_start")];
        // Bind the fault process to actor0's node by adding it to the map.
        // Reuse actor0's assignment: give the fault process the same actor id.
        fault.actor_id = "actor0".into();
        // Rename to avoid duplicate actor ids (validation): append actions
        // to the SM process instead — simpler and equivalent.
        let sm = desc
            .node_processes
            .iter_mut()
            .find(|p| p.actor_id == "actor0")
            .unwrap();
        sm.actions
            .insert(0, ProcessAction::invoke("fault_interface_start"));
        let mut cfg = small_config();
        cfg.run_timeout = SimDuration::from_secs(45);
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let outcome = master.execute().unwrap();
        let events = dataset(&outcome).events(Some(0)).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.event_type.as_str()).collect();
        assert!(names.contains(&"fault_interface_started"));
        assert!(
            !names.contains(&"sd_service_add"),
            "fault must prevent discovery: {names:?}"
        );
        // The SU's 30 s deadline fired and the run still completed.
        assert!(names.contains(&"done"));
        assert!(outcome.runs[0].completed, "{:?}", outcome.runs[0].failures);
    }

    #[test]
    fn windowed_fault_applies_and_clears() {
        use excovery_desc::process::ProcessAction;
        let mut desc = paper_desc(1);
        let sm = desc
            .node_processes
            .iter_mut()
            .find(|p| p.actor_id == "actor0")
            .unwrap();
        // Interface down for the first 3 seconds of the run only.
        sm.actions.insert(
            0,
            ProcessAction::invoke_with(
                "fault_interface_start",
                [
                    ("duration".to_string(), ValueRef::int(3)),
                    ("rate".to_string(), ValueRef::Lit(LevelValue::Float(1.0))),
                ],
            ),
        );
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        assert!(outcome.runs[0].completed, "{:?}", outcome.runs[0].failures);
        let events = dataset(&outcome).events(Some(0)).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.event_type.as_str()).collect();
        assert!(names.contains(&"fault_interface_started"), "{names:?}");
        assert!(names.contains(&"fault_stopped"));
        // Discovery succeeds after the window clears (SU retries queries).
        assert!(names.contains(&"sd_service_add"), "{names:?}");
    }
}
