//! Per-link loss and delay model.
//!
//! Wireless links in the DES testbed exhibit loss and delay that grow with
//! channel load; ExCovery compensates for incomplete control by measuring
//! rather than assuming. Our model captures the established qualitative
//! behaviour (cf. Milic & Malek, "Properties of wireless multihop networks
//! in theory and practice"):
//!
//! * a base loss probability per link (imperfect medium),
//! * loss rising convexly with utilization — `p = 1 − (1−p₀)·e^(−k·u)`,
//! * delay composed of a base propagation/MAC component plus an M/M/1-style
//!   queueing term `d = d₀ · (1 + u/(1−u))`, capped to keep the simulation
//!   stable at overload,
//! * utilization `u` computed from the background traffic flows crossing
//!   the link (see [`crate::traffic`]).

use crate::time::SimDuration;

/// Parameters of the link model, shared by all links of a simulation.
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// Loss probability of an idle link.
    pub base_loss: f64,
    /// Exponent steepness of load-induced loss.
    pub load_loss_factor: f64,
    /// One-hop delay of an idle link.
    pub base_delay: SimDuration,
    /// Relative jitter amplitude applied to each hop delay (±fraction).
    pub jitter_frac: f64,
    /// Nominal link capacity in kilobits per second; utilization is
    /// offered background load divided by this.
    pub capacity_kbps: f64,
    /// Utilization cap to keep queueing delay finite.
    pub max_utilization: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self {
            // Calibrated so an idle 1-hop mDNS exchange succeeds >99% and a
            // saturated mesh loses a substantial share of multicasts —
            // the regimes spanned by the paper's case study.
            base_loss: 0.01,
            load_loss_factor: 2.0,
            base_delay: SimDuration::from_micros(800),
            jitter_frac: 0.25,
            capacity_kbps: 6_000.0,
            max_utilization: 0.95,
        }
    }
}

impl LinkModel {
    /// Effective loss probability of a link at `offered_kbps` background load.
    #[inline]
    pub(crate) fn loss_probability(&self, offered_kbps: f64) -> f64 {
        let u = self.utilization(offered_kbps);
        // Idle link: exp(0) = 1 exactly, so skip the transcendental.
        if u == 0.0 {
            return self.base_loss;
        }
        1.0 - (1.0 - self.base_loss) * (-self.load_loss_factor * u).exp()
    }

    /// Effective one-hop delay at `offered_kbps` background load, before
    /// jitter. Grows hyperbolically with utilization (queueing).
    #[inline]
    pub(crate) fn hop_delay(&self, offered_kbps: f64) -> SimDuration {
        let u = self.utilization(offered_kbps);
        // Idle link: the queueing factor is exactly 1.
        if u == 0.0 {
            return self.base_delay;
        }
        self.base_delay.mul_f64(1.0 + u / (1.0 - u))
    }

    /// Applies symmetric jitter to a delay: `jitter_draw` ∈ [0,1).
    pub(crate) fn jittered(&self, delay: SimDuration, jitter_draw: f64) -> SimDuration {
        let k = 1.0 + self.jitter_frac * (2.0 * jitter_draw - 1.0);
        delay.mul_f64(k.max(0.0))
    }

    /// The smallest delay any link crossing can experience: the idle base
    /// delay at the minimum jitter draw. Load, serialization time and
    /// injected fault delays only ever *add* to this. The sharded
    /// simulator uses it as the conservative lookahead: an event processed
    /// at time `t` cannot schedule a cross-shard arrival earlier than
    /// `t + min_transit_delay()` (see `crate::shard`). A zero value (a
    /// degenerate model) leaves no window, so the simulator runs it on one
    /// shard.
    pub(crate) fn min_transit_delay(&self) -> SimDuration {
        self.base_delay.mul_f64((1.0 - self.jitter_frac).max(0.0))
    }

    /// Serialization time of `size_bytes` on this link.
    pub(crate) fn serialization_delay(&self, size_bytes: u32) -> SimDuration {
        let bits = f64::from(size_bytes) * 8.0;
        SimDuration::from_secs_f64(bits / (self.capacity_kbps * 1_000.0))
    }

    fn utilization(&self, offered_kbps: f64) -> f64 {
        (offered_kbps.max(0.0) / self.capacity_kbps).min(self.max_utilization)
    }
}

/// Tracks the background load (kbit/s) offered to each undirected link.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkLoad {
    // Keyed by (min, max) node index.
    load: crate::fasthash::FastHashMap<(u16, u16), f64>,
}

impl LinkLoad {
    /// Creates an empty load map.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds `kbps` of offered load to the link `a—b` (order-insensitive).
    pub fn add(&mut self, a: u16, b: u16, kbps: f64) {
        *self.load.entry(key(a, b)).or_insert(0.0) += kbps;
    }

    /// Removes `kbps` of offered load from the link `a—b`, clamping at 0.
    pub(crate) fn remove(&mut self, a: u16, b: u16, kbps: f64) {
        if let Some(v) = self.load.get_mut(&key(a, b)) {
            *v = (*v - kbps).max(0.0);
            if *v == 0.0 {
                self.load.remove(&key(a, b));
            }
        }
    }

    /// Current offered load on the link `a—b` in kbit/s.
    #[inline]
    pub(crate) fn get(&self, a: u16, b: u16) -> f64 {
        // Idle network fast path: no lookup per link crossing.
        if self.load.is_empty() {
            return 0.0;
        }
        self.load.get(&key(a, b)).copied().unwrap_or(0.0)
    }

    /// Clears all load (end-of-run reset).
    pub(crate) fn clear(&mut self) {
        self.load.clear();
    }

    /// Offered load of every loaded link, as `((a, b), kbps)` with
    /// `a <= b` (diagnostics/observability; iteration order unspecified).
    pub(crate) fn entries(&self) -> impl Iterator<Item = ((u16, u16), f64)> + '_ {
        self.load.iter().map(|(k, v)| (*k, *v))
    }
}

fn key(a: u16, b: u16) -> (u16, u16) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_link_loss_is_base_loss() {
        let m = LinkModel::default();
        assert!((m.loss_probability(0.0) - m.base_loss).abs() < 1e-12);
    }

    #[test]
    fn loss_monotone_in_load() {
        let m = LinkModel::default();
        let p0 = m.loss_probability(0.0);
        let p1 = m.loss_probability(1_000.0);
        let p2 = m.loss_probability(5_000.0);
        assert!(p0 < p1 && p1 < p2, "{p0} {p1} {p2}");
        assert!(p2 < 1.0);
    }

    #[test]
    fn loss_saturates_at_capacity_cap() {
        let m = LinkModel::default();
        // Beyond max_utilization the probability stops growing.
        assert_eq!(m.loss_probability(1e9), m.loss_probability(1e12));
    }

    #[test]
    fn delay_grows_with_load() {
        let m = LinkModel::default();
        let d0 = m.hop_delay(0.0);
        let d1 = m.hop_delay(3_000.0);
        assert_eq!(d0, m.base_delay);
        assert!(d1 > d0);
    }

    #[test]
    fn jitter_bounds() {
        let m = LinkModel::default();
        let d = SimDuration::from_millis(10);
        let lo = m.jittered(d, 0.0);
        let hi = m.jittered(d, 1.0 - 1e-12);
        assert!(lo < d && d < hi);
        assert!(lo >= d.mul_f64(1.0 - m.jitter_frac));
        assert!(hi <= d.mul_f64(1.0 + m.jitter_frac));
        // Mid draw is identity.
        assert_eq!(m.jittered(d, 0.5), d);
    }

    #[test]
    fn serialization_scales_with_size() {
        let m = LinkModel::default();
        let d1 = m.serialization_delay(100);
        let d2 = m.serialization_delay(200);
        let diff = (d2.as_nanos() as i64 - 2 * d1.as_nanos() as i64).abs();
        assert!(diff <= 1, "rounding beyond 1 ns: {diff}");
    }

    #[test]
    fn link_load_is_undirected_and_clamped() {
        let mut l = LinkLoad::new();
        l.add(3, 1, 100.0);
        assert_eq!(l.get(1, 3), 100.0);
        assert_eq!(l.get(3, 1), 100.0);
        l.add(1, 3, 50.0);
        assert_eq!(l.get(1, 3), 150.0);
        l.remove(3, 1, 200.0);
        assert_eq!(l.get(1, 3), 0.0);
    }

    #[test]
    fn link_load_clear() {
        let mut l = LinkLoad::new();
        l.add(0, 1, 10.0);
        l.add(1, 2, 20.0);
        assert_eq!(l.get(1, 2), 20.0);
        l.clear();
        assert_eq!(l.get(0, 1), 0.0);
    }
}
