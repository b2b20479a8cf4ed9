//! Per-node clocks with offset and drift.
//!
//! ExCovery measures, before each run, the difference of each participant's
//! clock to a reference clock so a valid global time line can be constructed
//! later (§IV-B3). The simulated clocks therefore deviate realistically: a
//! constant offset plus a linear drift (parts-per-million), and the
//! synchronization *measurement* itself carries a bounded error, so the
//! conditioning pipeline downstream has real work to do.

use crate::time::SimTime;

/// A node-local clock derived from the simulation reference clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeClock {
    /// Constant offset added to the reference clock, in nanoseconds
    /// (may be negative: the node clock can run behind).
    pub offset_ns: i64,
    /// Linear drift in parts per million of elapsed reference time.
    pub drift_ppm: f64,
}

impl NodeClock {
    /// Creates a clock with the given offset and drift.
    pub(crate) fn new(offset_ns: i64, drift_ppm: f64) -> Self {
        Self {
            offset_ns,
            drift_ppm,
        }
    }

    /// Converts a reference instant to this node's local reading.
    ///
    /// `local = ref + offset + drift_ppm * ref / 1e6`, clamped at zero.
    #[inline]
    pub fn local_time(&self, reference: SimTime) -> SimTime {
        // Perfect clocks (the common bench/test configuration) read the
        // reference directly; the deviation math below reduces to it.
        if self.offset_ns == 0 && self.drift_ppm == 0.0 {
            return reference;
        }
        let t = reference.as_nanos() as i128;
        let drift = (t as f64 * self.drift_ppm / 1e6) as i128;
        let local = t + i128::from(self.offset_ns) + drift;
        SimTime::from_nanos(local.max(0) as u64)
    }

    /// The instantaneous offset (local − reference) at a given reference time.
    pub(crate) fn instantaneous_offset_ns(&self, reference: SimTime) -> i64 {
        self.local_time(reference).signed_delta_nanos(reference)
    }
}

/// One synchronization measurement of a node clock against the reference.
///
/// Mirrors the `TimeDiff` attribute of the `RunInfos` table (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncMeasurement {
    /// Reference instant when the measurement was taken.
    pub measured_at: SimTime,
    /// Estimated offset (local − reference) in nanoseconds, including
    /// measurement error.
    pub estimated_offset_ns: i64,
    /// Half-width of the measurement uncertainty interval in nanoseconds
    /// (the paper requires platforms to quantify the synchronization error).
    pub uncertainty_ns: u64,
}

impl SyncMeasurement {
    /// Performs a measurement of `clock` at `now` with the given error term.
    ///
    /// `error_ns` is sampled by the caller from a seeded stream so runs are
    /// reproducible; its absolute value bounds the reported uncertainty.
    pub(crate) fn measure(clock: &NodeClock, now: SimTime, error_ns: i64) -> Self {
        let true_offset = clock.instantaneous_offset_ns(now);
        Self {
            measured_at: now,
            estimated_offset_ns: true_offset + error_ns,
            uncertainty_ns: error_ns.unsigned_abs().max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_is_identity() {
        let t = SimTime::from_nanos(123_456_789);
        assert_eq!(NodeClock::new(0, 0.0).local_time(t), t);
    }

    #[test]
    fn positive_offset_moves_clock_forward() {
        let c = NodeClock::new(5_000, 0.0);
        let t = SimTime::from_nanos(1_000_000);
        assert_eq!(c.local_time(t).as_nanos(), 1_005_000);
        assert_eq!(c.instantaneous_offset_ns(t), 5_000);
    }

    #[test]
    fn negative_offset_clamps_at_zero_near_epoch() {
        let c = NodeClock::new(-10_000, 0.0);
        assert_eq!(c.local_time(SimTime::from_nanos(4_000)), SimTime::ZERO);
    }

    #[test]
    fn drift_accumulates_linearly() {
        let c = NodeClock::new(0, 100.0); // 100 ppm fast
        let t = SimTime::from_nanos(10 * 1_000_000_000);
        // 10 s * 100 ppm = 1 ms ahead.
        assert_eq!(c.instantaneous_offset_ns(t), 1_000_000);
    }

    #[test]
    fn sync_measurement_recovers_offset_within_error() {
        let c = NodeClock::new(250_000, 10.0);
        let now = SimTime::from_nanos(2_000_000_000);
        let m = SyncMeasurement::measure(&c, now, 300);
        let true_offset = c.instantaneous_offset_ns(now);
        assert_eq!(m.estimated_offset_ns, true_offset + 300);
        assert_eq!(m.uncertainty_ns, 300);
    }

    #[test]
    fn uncertainty_is_at_least_one_ns() {
        let m = SyncMeasurement::measure(&NodeClock::new(0, 0.0), SimTime::ZERO, 0);
        assert_eq!(m.uncertainty_ns, 1);
    }
}
