//! The fair-share campaign scheduler.
//!
//! Work is metered in *slices*: a bounded number of runs executed by a
//! resuming [`ExperiMaster`] against the job's level-2 hierarchy. Each
//! [`Scheduler::tick`] picks at least one slice for **every** tenant
//! with runnable work (round-robin, rotating the starting tenant across
//! ticks), fills any remaining worker slots by continuing the rotation,
//! and executes the picked slices on the workspace's index-ordered
//! fan-out ([`run_indexed`], [`SchedulerConfig::workers`] wide). With
//! one worker the slices of a round simply serialize — fairness is a
//! property of the pick, not of the parallelism.
//!
//! Crash safety leans entirely on the engine's resume model: every run
//! is sealed in level 2 before the journal confirms it, outcomes
//! are resume-invariant, and each slice runs under a freshly journalled
//! master epoch ([`ServerRepo::begin_slice`]). A server killed at any
//! point — even mid-run — resumes the campaign bit-exactly, and the
//! final digest equals an uninterrupted execution. The completion order
//! (package the level-3 database, *then* journal `Completed`) makes the
//! last window safe too: a crash between the two re-executes a zero-run
//! slice that restores all outcomes and repackages deterministically.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use excovery_core::master::{EngineConfig, ExperiMaster};
use excovery_desc::xmlio;
use excovery_obs::par::{resolve_workers, run_indexed};
use excovery_obs::sync::Mutex;
use excovery_obs::{global, Counter, Gauge, Histogram};
use excovery_rpc::{JobId, JobState};

use crate::repo::{is_terminal, ServerRepo, SliceOutcome};
use crate::standing::StandingRegistry;
use crate::ServerError;

/// Resolves a preset name (`grid_default`, `wired_lan` or `lossy_mesh`)
/// to its engine configuration.
pub fn preset_config(name: &str) -> Result<EngineConfig, ServerError> {
    match name {
        "grid_default" => Ok(EngineConfig::grid_default()),
        "wired_lan" => Ok(EngineConfig::wired_lan()),
        "lossy_mesh" => Ok(EngineConfig::lossy_mesh()),
        other => Err(ServerError::UnknownPreset(other.to_string())),
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker-pool width; `0` = auto (available parallelism, see
    /// [`resolve_workers`]). `excovery serve --workers` sets it.
    pub workers: usize,
    /// Runs per slice. Smaller slices interleave tenants more finely at
    /// the cost of more master incarnations.
    pub slice_runs: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 0,
            slice_runs: 2,
        }
    }
}

/// One executed slice, as reported by [`Scheduler::tick`].
#[derive(Debug, Clone)]
pub struct SliceReport {
    /// The job the slice ran for.
    pub job_id: JobId,
    /// Its tenant.
    pub tenant: String,
    /// Completed runs before the slice.
    pub runs_before: u64,
    /// Completed runs after the slice.
    pub runs_after: u64,
    /// Job state after the slice.
    pub state: JobState,
}

/// Everything one tick executed.
#[derive(Debug, Clone, Default)]
pub struct RoundReport {
    /// Executed slices, in pick order.
    pub slices: Vec<SliceReport>,
}

impl RoundReport {
    /// `true` when the tick found nothing runnable.
    pub fn is_idle(&self) -> bool {
        self.slices.is_empty()
    }

    /// Tenants whose completed-run count advanced this round (sorted,
    /// deduplicated) — the quantity the fairness property speaks about.
    pub fn tenants_progressed(&self) -> Vec<&str> {
        let mut t: Vec<&str> = self
            .slices
            .iter()
            .filter(|s| s.runs_after > s.runs_before || is_terminal(s.state))
            .map(|s| s.tenant.as_str())
            .collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

/// Everything a slice needs, captured under the repository lock at pick
/// time so execution runs lock-free.
struct SlicePlan {
    job_id: JobId,
    tenant: String,
    epoch: u64,
    preset: String,
    runs_total: u64,
    runs_before: u64,
    description_path: PathBuf,
    l2_root: PathBuf,
    package_path: PathBuf,
}

struct SchedulerMetrics {
    queue_depth: Gauge,
    active: Gauge,
    completed: Counter,
    failed: Counter,
    schedule_latency: Histogram,
}

impl SchedulerMetrics {
    fn new() -> Self {
        let reg = global();
        SchedulerMetrics {
            queue_depth: reg.gauge("server_queue_depth", &[]),
            active: reg.gauge("server_active_campaigns", &[]),
            completed: reg.counter("server_campaigns_completed_total", &[]),
            failed: reg.counter("server_campaigns_failed_total", &[]),
            schedule_latency: reg.histogram("server_job_schedule_latency_ns", &[]),
        }
    }
}

/// The fair-share scheduler over one [`ServerRepo`].
pub struct Scheduler {
    repo: Arc<Mutex<ServerRepo>>,
    cfg: SchedulerConfig,
    rotation: usize,
    metrics: SchedulerMetrics,
    standing: Arc<StandingRegistry>,
}

impl Scheduler {
    /// Creates a scheduler over `repo` with its own (private) standing
    /// registry.
    pub fn new(repo: Arc<Mutex<ServerRepo>>, cfg: SchedulerConfig) -> Self {
        Self::with_standing(repo, cfg, Arc::new(StandingRegistry::new()))
    }

    /// Creates a scheduler that feeds completed slices into a shared
    /// standing registry (the rpc front serves live frames from it).
    pub(crate) fn with_standing(
        repo: Arc<Mutex<ServerRepo>>,
        cfg: SchedulerConfig,
        standing: Arc<StandingRegistry>,
    ) -> Self {
        Scheduler {
            repo,
            cfg,
            rotation: 0,
            metrics: SchedulerMetrics::new(),
            standing,
        }
    }

    /// Executes one scheduling round; returns what ran. An empty report
    /// means the repository had nothing runnable.
    pub fn tick(&mut self) -> Result<RoundReport, ServerError> {
        let plans = self.pick_slices()?;
        if plans.is_empty() {
            self.update_gauges();
            return Ok(RoundReport::default());
        }
        let slice_runs = self.cfg.slice_runs;
        let standing = self.standing.as_ref();
        let outcomes = run_indexed(self.cfg.workers, plans.len(), |i| {
            execute_slice(&plans[i], slice_runs, standing)
        });
        let mut slices = Vec::with_capacity(plans.len());
        {
            let mut repo = self.repo.lock();
            for (plan, outcome) in plans.iter().zip(&outcomes) {
                repo.record_slice(plan.job_id, outcome)?;
                if is_terminal(outcome.state) {
                    // Terminal jobs are served from their packaged
                    // database; standing state is no longer needed.
                    self.standing.retire(plan.job_id);
                }
                match outcome.state {
                    JobState::Completed => self.metrics.completed.inc(),
                    JobState::Failed => self.metrics.failed.inc(),
                    _ => {}
                }
                slices.push(SliceReport {
                    job_id: plan.job_id,
                    tenant: plan.tenant.clone(),
                    runs_before: plan.runs_before,
                    runs_after: outcome.runs_completed,
                    state: outcome.state,
                });
            }
        }
        self.update_gauges();
        Ok(RoundReport { slices })
    }

    /// Ticks until the repository has nothing runnable; returns the
    /// number of non-idle rounds. Deterministic drive for tests and the
    /// CLI's one-shot mode.
    pub fn drain(&mut self) -> Result<usize, ServerError> {
        let mut rounds = 0;
        loop {
            if self.tick()?.is_idle() {
                return Ok(rounds);
            }
            rounds += 1;
        }
    }

    /// Fair pick: every tenant with runnable work gets one slice, then
    /// remaining worker slots continue the round-robin. Claims epochs
    /// and captures slice plans under one repository lock.
    fn pick_slices(&mut self) -> Result<Vec<SlicePlan>, ServerError> {
        let mut repo = self.repo.lock();
        let mut queues: BTreeMap<String, VecDeque<JobId>> = BTreeMap::new();
        for j in repo.jobs() {
            if !is_terminal(j.state) {
                queues
                    .entry(j.tenant.clone())
                    .or_default()
                    .push_back(j.job_id);
            }
        }
        if queues.is_empty() {
            return Ok(Vec::new());
        }
        let tenants: Vec<String> = queues.keys().cloned().collect();
        let slots = resolve_workers(self.cfg.workers).max(tenants.len());
        let start = self.rotation % tenants.len();
        self.rotation = self.rotation.wrapping_add(1);
        let mut picked = Vec::new();
        let mut idx = start;
        let mut misses = 0;
        while picked.len() < slots && misses < tenants.len() {
            let tenant = &tenants[idx % tenants.len()];
            idx += 1;
            match queues.get_mut(tenant).and_then(VecDeque::pop_front) {
                Some(job_id) => {
                    picked.push(job_id);
                    misses = 0;
                }
                None => misses += 1,
            }
        }
        let mut plans = Vec::with_capacity(picked.len());
        for job_id in picked {
            let epoch = repo.begin_slice(job_id)?;
            if let Some(t0) = repo.take_submit_instant(job_id) {
                self.metrics
                    .schedule_latency
                    .observe(t0.elapsed().as_nanos() as u64);
            }
            let rec = repo.job(job_id)?;
            plans.push(SlicePlan {
                job_id,
                tenant: rec.tenant.clone(),
                epoch,
                preset: rec.preset.clone(),
                runs_total: rec.runs_total,
                runs_before: rec.runs_completed,
                description_path: repo.description_path(job_id),
                l2_root: repo.l2_root(job_id),
                package_path: repo.package_path(job_id),
            });
        }
        Ok(plans)
    }

    fn update_gauges(&self) {
        let repo = self.repo.lock();
        self.metrics.queue_depth.set(repo.queue_depth() as i64);
        self.metrics.active.set(repo.active_count() as i64);
    }
}

/// Runs one slice; an engine failure becomes a `Failed` outcome rather
/// than an error, so one broken campaign never wedges the round.
fn execute_slice(plan: &SlicePlan, slice_runs: u64, standing: &StandingRegistry) -> SliceOutcome {
    match run_slice(plan, slice_runs, standing) {
        Ok(outcome) => outcome,
        Err(e) => SliceOutcome {
            runs_completed: plan.runs_before,
            state: JobState::Failed,
            digest: None,
            error: Some(e.to_string()),
        },
    }
}

fn run_slice(
    plan: &SlicePlan,
    slice_runs: u64,
    standing: &StandingRegistry,
) -> Result<SliceOutcome, ServerError> {
    let xml = std::fs::read_to_string(&plan.description_path)
        .map_err(|e| ServerError::Storage(format!("read description: {e}")))?;
    let desc = xmlio::from_xml(&xml).map_err(|e| ServerError::Description(e.to_string()))?;
    let mut cfg = preset_config(&plan.preset)?;
    cfg.l2_root = Some(plan.l2_root.clone());
    cfg.keep_l2 = true;
    cfg.resume = true;
    cfg.epoch = plan.epoch;
    cfg.max_runs = Some((plan.runs_before + slice_runs).min(plan.runs_total));
    let mut master =
        ExperiMaster::new(desc, cfg).map_err(|e| ServerError::Engine(e.to_string()))?;
    let outcome = master
        .execute()
        .map_err(|e| ServerError::Engine(e.to_string()))?;
    let done = outcome.runs.len() as u64;
    if done >= plan.runs_total {
        // Package first, then journal Completed: a crash between the two
        // re-runs a zero-run slice that repackages deterministically.
        outcome.database.save(&plan.package_path)?;
        Ok(SliceOutcome {
            runs_completed: done,
            state: JobState::Completed,
            digest: Some(outcome.digest()),
            error: None,
        })
    } else {
        // Feed the cumulative snapshot into the job's standing queries:
        // each rescans only partitions (runs) it has not seen yet.
        standing.refresh(plan.job_id, &outcome.database)?;
        Ok(SliceOutcome {
            runs_completed: done,
            state: JobState::Running,
            digest: None,
            error: None,
        })
    }
}
