//! One execution's lifecycle: `open`, then [`Session::step`], [`Session::finish`].

use super::outcome::{ExperimentOutcome, RunOutcome};
use super::run::CompiledProcesses;
use super::ExperiMaster;
use crate::error::EngineError;
use crate::l2codec::{self, read_json};
use excovery_desc::plan::TreatmentPlan;
use excovery_netsim::NodeId;
use excovery_store::level2::Level2Store;
use std::sync::atomic::Ordering;

/// An execution in progress over one level-2 store. A session dropped
/// without [`Self::finish`] leaves level 2 as a killed master does: every
/// sealed run stays, and an execution with `resume` continues after them.
pub struct Session<'a> {
    master: &'a mut ExperiMaster,
    l2: &'a Level2Store,
    plan: TreatmentPlan,
    participants: Vec<NodeId>,
    /// The process sets built for this execution, one per distinct actor
    /// resolution; a run resets the one its treatment resolves to.
    compiled: Vec<CompiledProcesses>,
    /// The restored outcomes, then the executed ones: run `i` is entry `i`.
    outcomes: Vec<RunOutcome>,
    restored: u64,
}

impl ExperiMaster {
    /// Opens an execution over `l2` (phases `topology`, `resume_restore`):
    /// run 0 comes next, or on `resume` the first run the journal does not
    /// confirm, the outcomes of those before it restored.
    pub fn open<'a>(&'a mut self, l2: &'a Level2Store) -> Result<Session<'a>, EngineError> {
        let participants = self.binding.managed_sim_nodes();
        self.stage_topology(l2, &participants, l2codec::TOPOLOGIES[0])?;
        let plan = self.desc.plan();
        let first = if self.cfg.resume {
            l2.first_incomplete_run(plan.runs.len() as u64)?
        } else {
            0
        };
        // The outcome vector of a resumed campaign must equal the
        // uninterrupted one (the digest covers it).
        let restoring = self.phase_timer(|| "resume_restore");
        let mut outcomes = Vec::new();
        for run_id in 0..first {
            let record = l2.load_run(run_id)?;
            outcomes.push(read_json(
                &record,
                run_id,
                l2codec::MASTER,
                l2codec::OUTCOME,
                l2codec::outcome_from_json,
            )?);
        }
        self.finish_phase(restoring, "resume_restore");
        Ok(Session {
            master: self,
            l2,
            plan,
            participants,
            compiled: Vec::new(),
            outcomes,
            restored: first,
        })
    }
}

impl Session<'_> {
    /// Executes and seals the next `n` runs of the plan, fewer once it is
    /// exhausted, and returns their outcomes (empty when none was left).
    /// A run that fails is not sealed: the next `step` executes it again.
    pub fn step(&mut self, n: u64) -> Result<&[RunOutcome], EngineError> {
        let first = self.outcomes.len();
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        for run in self.plan.runs[first..].iter().take(n) {
            let outcome = self.master.execute_run(run, self.l2, &mut self.compiled);
            // A failed run keeps the process set it took: build all anew.
            self.outcomes
                .push(outcome.inspect_err(|_| self.compiled.clear())?);
        }
        Ok(&self.outcomes[first..])
    }

    /// Ends the execution over the runs sealed so far (phases `topology`,
    /// `package`, the `experiment_exit` fan-out to every node and, with obs
    /// on, `obs_summary`). The outcome's `l2_root` is empty: the caller
    /// opened the store.
    pub fn finish(self) -> Result<ExperimentOutcome, EngineError> {
        let (master, l2) = (self.master, self.l2);
        master.stage_topology(l2, &self.participants, l2codec::TOPOLOGIES[1])?;
        let packaging = master.phase_timer(|| "package");
        let database = master.package(l2)?;
        master.finish_phase(packaging, "package");
        master.fan_out("experiment_exit", &[])?;
        // End-of-experiment observability snapshot, persisted alongside the
        // run journal. `package` reads experiment entries by exact name
        // (the topologies), so an `_obs` entry is digest-safe.
        if excovery_obs::enabled() {
            let rendering = master.phase_timer(|| "obs_summary");
            let spans = excovery_obs::global_tracer().drain();
            let snapshot = l2codec::obs_jsonl(excovery_obs::global().snapshot(), spans);
            l2.put_experiment(l2codec::OBS, l2codec::OBS_SNAPSHOT, snapshot.as_bytes())?;
            master.finish_phase(rendering, "obs_summary");
        }
        Ok(ExperimentOutcome {
            database,
            runs: self.outcomes,
            restored_runs: self.restored,
            l2_root: std::path::PathBuf::new(),
            control_retries: master.control_retries.load(Ordering::Relaxed),
        })
    }
}
