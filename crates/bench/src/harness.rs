//! Shared helpers for the table/figure harness binaries.

use excovery_analysis::responsiveness::ResponsivenessPoint;
use excovery_analysis::runs::DiscoveryEpisode;
use excovery_analysis::ExperimentDataset;
use excovery_core::{EngineConfig, ExperiMaster, ExperimentOutcome};
use excovery_desc::ExperimentDescription;
use excovery_netsim::topology::Topology;
use excovery_obs::par::{run_indexed, workers_from_env};
use excovery_obs::sync::Mutex;
use std::collections::HashMap;

/// Replications per treatment, from `EXCOVERY_REPS` (default 40).
///
/// The paper runs 1000 replications per treatment; 40 keeps the harnesses
/// interactive while preserving every qualitative shape.
pub fn reps_from_env() -> u64 {
    std::env::var("EXCOVERY_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// Deadlines (seconds) reported by the responsiveness harnesses.
pub const DEADLINES_S: [f64; 8] = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0];

/// Executes a description on `topology` and returns the outcome plus the
/// run→treatment mapping needed for per-treatment grouping.
pub fn execute_on(
    desc: ExperimentDescription,
    topology: Topology,
) -> Result<(ExperimentOutcome, HashMap<u64, String>), String> {
    let mut cfg = EngineConfig::grid_default();
    cfg.topology = topology;
    execute_with(desc, cfg)
}

/// Executes with an explicit engine configuration.
pub fn execute_with(
    desc: ExperimentDescription,
    cfg: EngineConfig,
) -> Result<(ExperimentOutcome, HashMap<u64, String>), String> {
    let mut master = ExperiMaster::new(desc, cfg)?;
    let outcome = master.execute()?;
    let by_run = outcome
        .runs
        .iter()
        .map(|r| (r.run_id, r.treatment_key.clone()))
        .collect();
    Ok((outcome, by_run))
}

/// All discovery episodes of an outcome.
pub fn episodes(outcome: &ExperimentOutcome) -> Vec<DiscoveryEpisode> {
    ExperimentDataset::new(&outcome.database)
        .and_then(|ds| ds.episodes())
        .expect("episodes readable")
}

/// Renders a compact series `deadline → R` as one table row.
pub fn curve_row(label: &str, curve: &[ResponsivenessPoint]) -> String {
    let cells: Vec<String> = curve
        .iter()
        .map(|p| format!("{:>6.3}", p.probability))
        .collect();
    format!("{label:<28} {}", cells.join(" "))
}

/// The table header matching [`curve_row`].
pub fn curve_header() -> String {
    let cells: Vec<String> = DEADLINES_S.iter().map(|d| format!("{d:>6}")).collect();
    format!("{:<28} {}", "treatment \\ deadline_s", cells.join(" "))
}

/// Extracts `t_R` values (seconds) of successful first discoveries.
pub fn first_t_rs_s(eps: &[DiscoveryEpisode]) -> Vec<f64> {
    eps.iter()
        .filter_map(|e| e.first_t_r_ns())
        .map(|t| t as f64 / 1e9)
        .collect()
}

/// Result of one harness execution: the outcome plus the run→treatment map.
pub type ExecResult = Result<(ExperimentOutcome, HashMap<u64, String>), String>;

/// A deterministic parallel campaign over independent experiments.
///
/// Sweeps over independent descriptions are embarrassingly parallel: each
/// experiment derives all randomness from its own description seed, so
/// results depend only on the job list — never on scheduling. Jobs are
/// fanned across a bounded pool of scoped worker threads and results are
/// merged **in submission order**, making the output byte-identical to
/// running the same jobs serially (the MACI scaling model).
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    workers: usize,
}

impl Campaign {
    /// A campaign with an explicit worker count (`0` = available
    /// parallelism).
    pub fn new(workers: usize) -> Self {
        Self { workers }
    }

    /// Worker count from `EXCOVERY_WORKERS` (default: auto).
    ///
    /// # Panics
    /// Panics with a clear message when `EXCOVERY_WORKERS` is set but not
    /// a non-negative integer — a typo like `EXCOVERY_WORKERS=four` must
    /// not silently fall back to auto-sizing (the contract of
    /// [`workers_from_env`], which this delegates to).
    pub fn from_env() -> Self {
        Self::new(workers_from_env())
    }

    /// A serial campaign (one worker) — the reference execution order.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Executes all jobs, returning results in submission order. A
    /// panicking experiment yields an `Err` for its own slot only.
    pub fn run(&self, jobs: Vec<(ExperimentDescription, EngineConfig)>) -> Vec<ExecResult> {
        let count = jobs.len();
        let slots: Vec<Mutex<Option<(ExperimentDescription, EngineConfig)>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        run_indexed(self.workers, count, |i| {
            let (desc, cfg) = slots[i].lock().take().expect("campaign job taken twice");
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_with(desc, cfg)))
                .unwrap_or_else(|_| Err("experiment thread panicked".into()))
        })
    }
}

/// Runs independent experiments in parallel across a bounded worker pool;
/// results return in input order. Convenience wrapper over [`Campaign`].
pub fn execute_parallel(jobs: Vec<(ExperimentDescription, EngineConfig)>) -> Vec<ExecResult> {
    Campaign::from_env().run(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_analysis::responsiveness::responsiveness_curve;
    use excovery_core::scenarios::loss_sweep;

    #[test]
    fn harness_executes_and_groups() {
        let desc = loss_sweep(&[0.0], 2, 1);
        let (outcome, by_run) = execute_on(desc, Topology::chain(2)).unwrap();
        assert_eq!(outcome.runs.len(), 2);
        assert_eq!(by_run.len(), 2);
        let eps = episodes(&outcome);
        assert_eq!(eps.len(), 2);
        assert_eq!(first_t_rs_s(&eps).len(), 2);
    }

    #[test]
    fn row_and_header_align() {
        let eps = vec![];
        let curve = responsiveness_curve(&eps, 1, &DEADLINES_S);
        let header = curve_header();
        let row = curve_row("x", &curve);
        // "treatment \ deadline_s" contributes three tokens, the label one.
        assert_eq!(header.split_whitespace().count() - 3, DEADLINES_S.len());
        assert_eq!(row.split_whitespace().count() - 1, DEADLINES_S.len());
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        use excovery_core::scenarios::hop_distance;
        let job = || {
            let mut cfg = EngineConfig::grid_default();
            cfg.topology = Topology::chain(2);
            (hop_distance(2, 3), cfg)
        };
        let results = execute_parallel(vec![job(), job()]);
        assert_eq!(results.len(), 2);
        let eps: Vec<Vec<_>> = results
            .into_iter()
            .map(|r| episodes(&r.expect("experiment ok").0))
            .collect();
        // Identical descriptions + seeds produce identical measurements,
        // also when executed concurrently.
        assert_eq!(eps[0], eps[1]);
        let seq = execute_with(job().0, job().1).unwrap();
        assert_eq!(episodes(&seq.0), eps[0]);
    }

    #[test]
    fn reps_default() {
        // Only checks the default path (env var not set in tests).
        if std::env::var("EXCOVERY_REPS").is_err() {
            assert_eq!(reps_from_env(), 40);
        }
    }
}
