//! Analytic responsiveness model.
//!
//! Ref. \[26\] of the paper (Dittrich, Lichtblau, Rezende, Malek, MMB&DFT
//! 2014) models the responsiveness of decentralized SD in wireless mesh
//! networks; ExCovery was built to validate such models experimentally.
//! This module provides the matching closed-form model for the one-shot
//! two-party discovery of Fig. 11 on an `h`-hop path with i.i.d. per-link
//! loss `p`:
//!
//! * the SM's unsolicited announcements arrive with probability
//!   `(1-p)^h` each, at their (doubling-interval) schedule;
//! * each SU query round-trips with probability `(1-p)^(2h)` (query out,
//!   response back), at the exponential-backoff schedule;
//! * attempts are independent (each transmission draws its own channel),
//!   so `R(d) = 1 − Π (1 − p_i)` over the attempts completing by `d`.
//!
//! The model deliberately mirrors the defaults of the SD substrate's
//! `SdConfig`; `cs6_model_vs_experiment` overlays its predictions on
//! measured curves.

/// Protocol schedule parameters (mirror `excovery_sd::SdConfig` defaults).
#[derive(Debug, Clone)]
pub(crate) struct ProtocolSchedule {
    /// Delay of the first unsolicited announcement after publish, seconds.
    pub first_announce_delay_s: f64,
    /// Number of unsolicited announcements.
    pub announce_count: u32,
    /// First inter-announcement interval (doubles each time), seconds.
    pub announce_interval_s: f64,
    /// Delay of the first query after search start, seconds.
    pub first_query_delay_s: f64,
    /// First inter-query interval, seconds.
    pub query_interval_s: f64,
    /// Backoff multiplier of successive queries.
    pub query_backoff: f64,
    /// Maximum inter-query interval, seconds.
    pub max_query_interval_s: f64,
    /// Mean responder jitter, seconds (uniform draw in [0, 2·mean]).
    pub mean_response_jitter_s: f64,
    /// One-hop propagation/MAC delay, seconds.
    pub hop_delay_s: f64,
}

impl Default for ProtocolSchedule {
    fn default() -> Self {
        Self {
            first_announce_delay_s: 0.050,
            announce_count: 3,
            announce_interval_s: 1.0,
            first_query_delay_s: 0.020,
            query_interval_s: 1.0,
            query_backoff: 2.0,
            max_query_interval_s: 60.0,
            mean_response_jitter_s: 0.060,
            hop_delay_s: 0.0008,
        }
    }
}

/// One discovery opportunity of the model.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Instant (seconds after search start) the evidence would arrive.
    pub completes_at_s: f64,
    /// Success probability of this attempt.
    pub success_probability: f64,
    /// `"announce"` or `"query"`.
    pub kind: &'static str,
}

/// The closed-form model for an `h`-hop path with per-link loss `p`.
#[derive(Debug, Clone)]
pub struct ResponsivenessModel {
    /// Hop count between SU and SM.
    pub hops: u32,
    /// Per-link loss probability.
    pub per_link_loss: f64,
    /// Protocol schedule.
    pub(crate) schedule: ProtocolSchedule,
    /// Horizon: attempts are enumerated up to this deadline, seconds.
    pub horizon_s: f64,
}

impl ResponsivenessModel {
    /// Creates a model with the default protocol schedule and a 30 s
    /// horizon (the Fig. 10 deadline).
    pub fn new(hops: u32, per_link_loss: f64) -> Self {
        Self {
            hops,
            per_link_loss: per_link_loss.clamp(0.0, 1.0),
            schedule: ProtocolSchedule::default(),
            horizon_s: 30.0,
        }
    }

    /// Path delivery probability over `k·hops` links.
    fn path_prob(&self, passes: u32) -> f64 {
        (1.0 - self.per_link_loss).powi((passes * self.hops) as i32)
    }

    /// Enumerates the discovery attempts up to the horizon, in time order.
    ///
    /// Assumes search and publish start simultaneously (the engine gates
    /// both on `ready_to_init`), as in the paper's Figs. 9/10.
    pub fn attempts(&self) -> Vec<Attempt> {
        let s = &self.schedule;
        let mut out = Vec::new();
        // Announcements: one-way, doubling intervals.
        let mut t = s.first_announce_delay_s;
        let mut interval = s.announce_interval_s;
        for _ in 0..s.announce_count {
            let completes = t + self.hops as f64 * s.hop_delay_s;
            if completes <= self.horizon_s {
                out.push(Attempt {
                    completes_at_s: completes,
                    success_probability: self.path_prob(1),
                    kind: "announce",
                });
            }
            t += interval;
            interval *= 2.0;
        }
        // Queries: round trip plus responder jitter.
        let mut t = s.first_query_delay_s;
        let mut interval = s.query_interval_s;
        while t <= self.horizon_s {
            let completes = t + 2.0 * self.hops as f64 * s.hop_delay_s + s.mean_response_jitter_s;
            if completes <= self.horizon_s {
                out.push(Attempt {
                    completes_at_s: completes,
                    success_probability: self.path_prob(2),
                    kind: "query",
                });
            }
            t += interval;
            interval = (interval * self.schedule.query_backoff).min(s.max_query_interval_s);
            if interval <= 0.0 {
                break; // degenerate schedule guard
            }
        }
        out.sort_by(|a, b| a.completes_at_s.total_cmp(&b.completes_at_s));
        out
    }

    /// Predicted `R(d)`: probability of at least one successful attempt
    /// completing within `deadline_s`.
    pub fn predict(&self, deadline_s: f64) -> f64 {
        let mut miss = 1.0;
        for a in self.attempts() {
            if a.completes_at_s <= deadline_s {
                miss *= 1.0 - a.success_probability;
            }
        }
        1.0 - miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_path_discovers_on_first_opportunity() {
        let m = ResponsivenessModel::new(1, 0.0);
        // The first query completes ≈ 0.082 s, before the announce at 0.051.
        assert_eq!(m.predict(0.001), 0.0);
        assert!((m.predict(0.1) - 1.0).abs() < 1e-12);
        assert!((m.predict(30.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_loss_never_discovers() {
        let m = ResponsivenessModel::new(2, 1.0);
        assert_eq!(m.predict(30.0), 0.0);
    }

    #[test]
    fn prediction_is_monotone_in_deadline() {
        let m = ResponsivenessModel::new(3, 0.3);
        let curve: Vec<(f64, f64)> = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]
            .into_iter()
            .map(|d| (d, m.predict(d)))
            .collect();
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12, "{curve:?}");
        }
    }

    #[test]
    fn prediction_decreases_with_loss_and_hops() {
        for d in [0.5, 2.0, 10.0] {
            let base = ResponsivenessModel::new(2, 0.2).predict(d);
            assert!(
                ResponsivenessModel::new(2, 0.4).predict(d) < base,
                "loss effect at {d}"
            );
            assert!(
                ResponsivenessModel::new(4, 0.2).predict(d) < base,
                "hop effect at {d}"
            );
        }
    }

    #[test]
    fn attempts_respect_horizon_and_order() {
        let m = ResponsivenessModel::new(1, 0.2);
        let attempts = m.attempts();
        assert!(attempts.iter().all(|a| a.completes_at_s <= m.horizon_s));
        for w in attempts.windows(2) {
            assert!(w[0].completes_at_s <= w[1].completes_at_s);
        }
        // Default schedule within 30 s: 3 announcements + queries at
        // 0.02, 1.02, 3.02, 7.02, 15.02 (+jitter ≈ .08 …) → 5 queries.
        assert_eq!(attempts.iter().filter(|a| a.kind == "announce").count(), 3);
        assert_eq!(attempts.iter().filter(|a| a.kind == "query").count(), 5);
    }

    #[test]
    fn announce_and_query_probabilities_differ() {
        let m = ResponsivenessModel::new(2, 0.3);
        let attempts = m.attempts();
        let ann = attempts.iter().find(|a| a.kind == "announce").unwrap();
        let qry = attempts.iter().find(|a| a.kind == "query").unwrap();
        assert!((ann.success_probability - 0.49).abs() < 1e-12, "(1-p)^h");
        assert!((qry.success_probability - 0.2401).abs() < 1e-12, "(1-p)^2h");
    }

    #[test]
    fn degenerate_backoff_terminates() {
        let mut m = ResponsivenessModel::new(1, 0.5);
        m.schedule.query_backoff = 0.0;
        m.schedule.query_interval_s = 0.0;
        // Must not loop forever.
        let _ = m.attempts();
    }
}
