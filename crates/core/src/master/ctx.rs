//! The interpreter's view of the master ([`MasterCtx`]) and the plugins'
//! view of the platform ([`PluginCtx`]).

use super::{ExperiMaster, FaultWindow};
use crate::faults::ParsedFault;
use crate::interp::ExecCtx;
use excovery_desc::factors::LevelValue;
use excovery_desc::process::{EventSelector, ValueRef};
use excovery_netsim::traffic::{PairChoice, TrafficGenerator, TrafficSpec};
use excovery_netsim::{SimTime, Simulator};
use excovery_rpc::Value;
use std::collections::HashMap;

/// Context handed to plugins: platform access plus the custom-measurement
/// channel (paper §IV-B: "ExCovery has a plugin concept to extend these
/// data with custom measurements on demand"; "Plugins have a separate
/// storage location", §IV-B5). Recorded measurements end up in the
/// `ExtraRunMeasurements` table of the level-3 package.
pub struct PluginCtx<'a> {
    /// The simulated platform.
    pub sim: &'a mut Simulator,
    /// Current run id.
    pub run_id: u64,
    measurements: &'a mut Vec<(String, String, Vec<u8>)>,
}

impl PluginCtx<'_> {
    /// Records a named custom measurement for the current run, attributed
    /// to `node_id` (a platform id, or a plugin-specific label).
    pub fn record_measurement(
        &mut self,
        node_id: impl Into<String>,
        name: impl Into<String>,
        content: impl Into<Vec<u8>>,
    ) {
        self.measurements
            .push((node_id.into(), name.into(), content.into()));
    }
}

/// A plugin: a custom environment action.
pub(crate) type PluginFn =
    Box<dyn FnMut(&HashMap<String, LevelValue>, &mut PluginCtx) -> Result<(), String> + Send>;

/// [`ExecCtx`] implementation delegating to the master.
pub(super) struct MasterCtx<'a> {
    pub(super) master: &'a mut ExperiMaster,
}

impl ExecCtx for MasterCtx<'_> {
    fn now(&self) -> SimTime {
        self.master.sim.lock().now()
    }

    fn marker(&self) -> u64 {
        self.master.log.marker()
    }

    fn resolve(&self, v: &ValueRef) -> Option<LevelValue> {
        v.resolve(
            &self.master.treatment,
            &self.master.desc.factors.replication.id,
            self.master.replicate,
        )
    }

    fn satisfied(&self, selector: &EventSelector, since: u64) -> bool {
        self.master
            .log
            .satisfied(selector, since, &self.master.actors)
    }

    fn call_node(
        &mut self,
        platform_id: &str,
        method: &str,
        params: Vec<Value>,
    ) -> Result<Value, String> {
        if self.master.binding.sim_node(platform_id).is_none() {
            return Err(format!("no NodeManager for '{platform_id}'"));
        }
        self.master
            .retry_call(platform_id, method, params)
            .map_err(|e| e.to_string())
    }

    fn env_invoke(
        &mut self,
        name: &str,
        params: &HashMap<String, LevelValue>,
    ) -> Result<(), String> {
        let get_i = |key: &str| params.get(key).and_then(LevelValue::as_int);
        match name {
            "env_traffic_start" => {
                let spec = TrafficSpec {
                    pairs: get_i("random_pairs").unwrap_or(1).max(0) as usize,
                    rate_kbps: params
                        .get("bw")
                        .and_then(LevelValue::as_float)
                        .unwrap_or(100.0),
                    choice: match get_i("choice").unwrap_or(0) {
                        1 => PairChoice::ActingNodes,
                        2 => PairChoice::NonActingNodes,
                        _ => PairChoice::AllNodes,
                    },
                    switch_amount: get_i("random_switch_amount").unwrap_or(1).max(0) as usize,
                    seed: get_i("random_seed").unwrap_or(0) as u64,
                    switch_seed: get_i("random_switch_seed").unwrap_or(0) as u64,
                };
                let switch_idx = get_i("random_switch_seed").unwrap_or(0) as u64;
                let inject_packets = get_i("inject").unwrap_or(0) != 0;
                let packet_size = get_i("packet_size").unwrap_or(500).clamp(8, 60_000) as usize;
                let rate = spec.rate_kbps;
                let mut sim = self.master.sim.lock();
                let acting = self.master.actors.acting_sim_nodes();
                let mut gen = TrafficGenerator::new(spec, &sim, acting);
                // Pairs vary from run to run as determined by the switch
                // amount (paper §IV-D2); the switch index is the resolved
                // switch seed (the replicate number in Fig. 7).
                gen.switch_pairs(&sim, switch_idx);
                gen.start(&mut sim);
                if inject_packets {
                    // Real CBR packets in addition to the offered-load
                    // model: their captures make tag-gap loss analysis
                    // possible (§VI-A).
                    self.master.cbr_flows = excovery_netsim::cbr::install_cbr_flows(
                        &mut sim,
                        gen.pairs(),
                        rate,
                        packet_size,
                    );
                }
                drop(sim);
                self.master.traffic = Some(gen);
                self.emit_master_event("env_traffic_started");
                Ok(())
            }
            "env_traffic_stop" => {
                self.master.stop_traffic();
                self.emit_master_event("env_traffic_stopped");
                Ok(())
            }
            "env_drop_all_start" => {
                self.master.sim.lock().set_drop_all_everywhere(true);
                self.emit_master_event("env_drop_all_started");
                Ok(())
            }
            "env_drop_all_stop" => {
                self.master.sim.lock().set_drop_all_everywhere(false);
                self.emit_master_event("env_drop_all_stopped");
                Ok(())
            }
            other => match self.master.plugins.get_mut(other) {
                Some(plugin) => {
                    let mut sim = self.master.sim.lock();
                    let mut ctx = PluginCtx {
                        sim: &mut sim,
                        run_id: self.master.run_id,
                        measurements: &mut self.master.run_measurements,
                    };
                    plugin(params, &mut ctx)
                }
                None => Err(format!("unknown environment action '{other}'")),
            },
        }
    }

    fn emit_master_event(&mut self, name: &str) {
        self.master.record_master_event(name, vec![]);
    }

    fn schedule_fault(
        &mut self,
        platform_id: &str,
        fault: &ParsedFault,
        window: (SimTime, SimTime),
    ) -> Result<(), String> {
        self.master.fault_windows.push(FaultWindow {
            platform_id: platform_id.to_string(),
            spec: fault.spec.clone(),
            start: window.0,
            stop: window.1,
            handle: None,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::master::tests::{dataset, paper_desc, small_config};
    use crate::ExperiMaster;
    use excovery_desc::ExperimentDescription;
    use excovery_obs::sync::Mutex;
    use excovery_store::CellRef;
    use std::sync::Arc;

    #[test]
    fn traffic_factors_drive_the_generator() {
        // Full paper description including load factors, one replicate.
        let desc = ExperimentDescription::paper_two_party_sd(1);
        let mut cfg = small_config();
        cfg.max_runs = Some(1);
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let outcome = master.execute().unwrap();
        assert!(outcome.runs[0].completed, "{:?}", outcome.runs[0].failures);
        let events = dataset(&outcome).events(Some(0)).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.event_type.as_str()).collect();
        assert!(names.contains(&"env_traffic_started"), "{names:?}");
        assert!(names.contains(&"env_traffic_stopped"));
    }

    #[test]
    fn plugin_actions_are_invocable() {
        use excovery_desc::process::ProcessAction;
        let mut desc = paper_desc(1);
        desc.env_processes[0]
            .actions
            .insert(0, ProcessAction::invoke("my_custom_probe"));
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let hits = Arc::new(Mutex::new(0));
        let h2 = Arc::clone(&hits);
        master.register_plugin(
            "my_custom_probe",
            Box::new(move |_params, ctx| {
                *h2.lock() += 1;
                let pending = ctx.sim.pending_events() as u32;
                ctx.record_measurement(
                    "master",
                    "pending_events",
                    pending.to_string().into_bytes(),
                );
                Ok(())
            }),
        );
        let outcome = master.execute().unwrap();
        assert!(outcome.runs[0].completed);
        assert_eq!(*hits.lock(), 1);
        // The measurement landed in ExtraRunMeasurements.
        let table = outcome.database.table("ExtraRunMeasurements").unwrap();
        assert_eq!(table.len(), 1);
        let name = table.column(table.column_index("Name").unwrap());
        assert_eq!(name.get(0), CellRef::Text("pending_events"));
    }

    #[test]
    fn unknown_env_action_fails_the_run_not_the_experiment() {
        use excovery_desc::process::ProcessAction;
        let mut desc = paper_desc(1);
        desc.env_processes[0]
            .actions
            .insert(0, ProcessAction::invoke("no_such_plugin"));
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        assert!(!outcome.runs[0].completed);
        assert!(
            outcome.runs[0]
                .failures
                .iter()
                .any(|f| f.contains("no_such_plugin")),
            "{:?}",
            outcome.runs[0].failures
        );
    }
}
