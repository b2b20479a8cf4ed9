//! Responsiveness — the paper's headline SD metric (§VI).
//!
//! "As a time-critical operation, one key property of SD is responsiveness
//! — the probability that a number of SMs is found within a deadline, as
//! required by the application calling SD."
//!
//! [`responsiveness_curve`] estimates `R(d) = P(k SMs found within d)` over
//! the replicated episodes of an experiment, with Wilson confidence bounds,
//! and groups estimates by treatment so factor effects (load, loss, hops)
//! can be read directly from the stored database.

use crate::dataset::ExperimentDataset;
use crate::error::AnalysisError;
use crate::runs::DiscoveryEpisode;
use crate::stats::wilson_interval;
use excovery_store::Database;
use std::collections::BTreeMap;

/// One point of a responsiveness curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponsivenessPoint {
    /// Deadline in seconds.
    pub deadline_s: f64,
    /// Estimated probability.
    pub probability: f64,
    /// Lower 95% Wilson bound.
    pub ci_low: f64,
    /// Upper 95% Wilson bound.
    pub ci_high: f64,
    /// Episodes the estimate is based on.
    pub episodes: u64,
}

/// Estimates `R(d)` for each deadline over a set of episodes.
///
/// ```
/// use excovery_analysis::responsiveness::responsiveness_curve;
/// use excovery_analysis::runs::{Discovery, DiscoveryEpisode};
///
/// let episode = DiscoveryEpisode {
///     run_id: 0,
///     su_node: "su".into(),
///     search_start_ns: 0,
///     discoveries: vec![Discovery { service: "sm".into(), at_ns: 50_000_000, t_r_ns: 50_000_000 }],
/// };
/// let curve = responsiveness_curve(&[episode], 1, &[0.01, 1.0]);
/// assert_eq!(curve[0].probability, 0.0); // 10 ms deadline missed
/// assert_eq!(curve[1].probability, 1.0); // 1 s deadline met
/// ```
pub fn responsiveness_curve(
    episodes: &[DiscoveryEpisode],
    k: usize,
    deadlines_s: &[f64],
) -> Vec<ResponsivenessPoint> {
    deadlines_s
        .iter()
        .map(|&d| {
            let deadline_ns = (d * 1e9) as i64;
            let trials = episodes.len() as u64;
            let successes = episodes
                .iter()
                .filter(|e| e.discovered_within(k, deadline_ns))
                .count() as u64;
            let probability = if trials == 0 {
                0.0
            } else {
                successes as f64 / trials as f64
            };
            let (ci_low, ci_high) = wilson_interval(successes, trials);
            ResponsivenessPoint {
                deadline_s: d,
                probability,
                ci_low,
                ci_high,
                episodes: trials,
            }
        })
        .collect()
}

/// Responsiveness per treatment key, directly from a level-3 database.
///
/// `treatment_of_run` maps run ids to treatment keys; the engine's
/// `RunOutcome`s provide it, or it can be reconstructed from the stored
/// experiment plan.
pub fn responsiveness_by_treatment(
    db: &Database,
    treatment_of_run: &dyn Fn(u64) -> String,
    k: usize,
    deadlines_s: &[f64],
) -> Result<BTreeMap<String, Vec<ResponsivenessPoint>>, AnalysisError> {
    let ds = ExperimentDataset::new(db)?;
    let mut by_run = ds.episodes_by_run()?;
    let mut grouped: BTreeMap<String, Vec<DiscoveryEpisode>> = BTreeMap::new();
    // Runs are enumerated from RunInfos (as before), so a run without
    // events still registers its treatment key with zero episodes.
    for run_id in ds.run_ids_with_info()? {
        let eps = by_run.remove(&run_id).unwrap_or_default();
        grouped
            .entry(treatment_of_run(run_id))
            .or_default()
            .extend(eps);
    }
    Ok(grouped
        .into_iter()
        .map(|(key, eps)| (key, responsiveness_curve(&eps, k, deadlines_s)))
        .collect())
}

/// Formats a curve as an aligned text table (harness output).
pub fn format_curve(label: &str, curve: &[ResponsivenessPoint]) -> String {
    let mut out = format!("# responsiveness: {label}\n");
    out.push_str("deadline_s  R         ci_low    ci_high   n\n");
    for p in curve {
        out.push_str(&format!(
            "{:<10.3} {:<9.4} {:<9.4} {:<9.4} {}\n",
            p.deadline_s, p.probability, p.ci_low, p.ci_high, p.episodes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::Discovery;

    fn episode(t_rs_ns: &[i64]) -> DiscoveryEpisode {
        DiscoveryEpisode {
            run_id: 0,
            su_node: "n1".into(),
            search_start_ns: 0,
            discoveries: t_rs_ns
                .iter()
                .enumerate()
                .map(|(i, &t)| Discovery {
                    service: format!("sm-{i}"),
                    at_ns: t,
                    t_r_ns: t,
                })
                .collect(),
        }
    }

    #[test]
    fn curve_is_monotone_in_deadline() {
        let eps: Vec<DiscoveryEpisode> = (0..100)
            .map(|i| episode(&[(i as i64 + 1) * 10_000_000])) // 10..1000 ms
            .collect();
        let curve = responsiveness_curve(&eps, 1, &[0.005, 0.25, 0.5, 1.0, 2.0]);
        assert_eq!(curve[0].probability, 0.0);
        assert_eq!(curve.last().unwrap().probability, 1.0);
        for w in curve.windows(2) {
            assert!(w[0].probability <= w[1].probability);
        }
    }

    #[test]
    fn k_services_requires_k_within_deadline() {
        let eps = vec![episode(&[100, 2_000_000_000])];
        let one = responsiveness_curve(&eps, 1, &[1.0]);
        let two = responsiveness_curve(&eps, 2, &[1.0]);
        let two_late = responsiveness_curve(&eps, 2, &[3.0]);
        assert_eq!(one[0].probability, 1.0);
        assert_eq!(two[0].probability, 0.0);
        assert_eq!(two_late[0].probability, 1.0);
    }

    #[test]
    fn confidence_bounds_bracket_estimate() {
        let mut eps: Vec<DiscoveryEpisode> = (0..80).map(|_| episode(&[1_000])).collect();
        eps.extend((0..20).map(|_| episode(&[])));
        let curve = responsiveness_curve(&eps, 1, &[1.0]);
        let p = &curve[0];
        assert!((p.probability - 0.8).abs() < 1e-12);
        assert!(p.ci_low < 0.8 && 0.8 < p.ci_high);
        assert_eq!(p.episodes, 100);
    }

    #[test]
    fn empty_episode_set_gives_zero() {
        let curve = responsiveness_curve(&[], 1, &[1.0]);
        assert_eq!(curve[0].probability, 0.0);
        assert_eq!(curve[0].episodes, 0);
    }

    #[test]
    fn format_is_tabular() {
        let curve = responsiveness_curve(&[episode(&[100])], 1, &[0.5, 1.0]);
        let text = format_curve("demo", &curve);
        assert!(text.contains("# responsiveness: demo"));
        assert_eq!(text.lines().count(), 4);
    }
}
