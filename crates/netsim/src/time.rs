//! Simulated time.
//!
//! [`SimTime`] is an absolute instant on the simulator's reference clock,
//! [`SimDuration`] a span between instants. Both count whole nanoseconds in
//! a `u64`, giving deterministic integer arithmetic (no float drift) and a
//! range of ~584 years, far beyond any experiment series.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Absolute instant of the simulation reference clock, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// Span between two [`SimTime`]s, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The experiment epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`; saturates at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Signed difference in nanoseconds (`self - other`).
    pub(crate) fn signed_delta_nanos(self, other: SimTime) -> i64 {
        self.0 as i64 - other.0 as i64
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds; negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return Self(0);
        }
        Self((s * 1e9).round() as u64)
    }

    /// Nanoseconds in the span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds in the span (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies the span by a non-negative float (saturating).
    pub fn mul_f64(self, k: f64) -> Self {
        if k <= 0.0 || !k.is_finite() {
            return Self(0);
        }
        Self((self.0 as f64 * k).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> Self {
        Self(self.0.saturating_sub(other.0))
    }

    /// Saturating multiplication by an integer factor.
    pub(crate) const fn saturating_mul(self, k: u64) -> Self {
        Self(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_nanos(5_000);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d).as_nanos(), 8_000);
        assert_eq!((t + d) - t, SimDuration::from_nanos(3_000));
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(b.saturating_since(a).as_nanos(), 10);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn signed_delta() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(25);
        assert_eq!(a.signed_delta_nanos(b), -15);
        assert_eq!(b.signed_delta_nanos(a), 15);
    }

    #[test]
    fn mul_f64_saturates_on_bad_input() {
        let d = SimDuration::from_secs(1);
        assert_eq!(d.mul_f64(0.25).as_millis(), 250);
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.0us");
        assert_eq!(SimDuration::from_millis(7).to_string(), "7.00ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn ordering_is_chronological() {
        let mut v = [
            SimTime::from_nanos(30),
            SimTime::from_nanos(10),
            SimTime::from_nanos(20),
        ];
        v.sort();
        assert_eq!(v[0].as_nanos(), 10);
        assert_eq!(v[2].as_nanos(), 30);
    }
}
