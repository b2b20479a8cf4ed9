//! Summary statistics for metric extraction.

/// Summary of a sample of numeric observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Sample standard deviation (n−1); 0 for n < 2.
    pub stddev: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty sample.
    pub fn compute(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Some(Self {
            n,
            mean,
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            stddev: var.sqrt(),
        })
    }
}

/// Linear-interpolated percentile of a sorted sample, `q` in `[0, 1]`.
pub(crate) fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Wilson score interval for a binomial proportion at ~95% confidence.
///
/// Preferred over the normal approximation for the probabilities near 1.0
/// that responsiveness analysis produces.
pub(crate) fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96_f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::compute(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.5);
        assert!((s.stddev - 1.2909944).abs() < 1e-6);
    }

    #[test]
    fn summary_singleton_and_empty() {
        let s = Summary::compute(&[7.0]).unwrap();
        assert_eq!(s.median, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert!(Summary::compute(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 40.0);
        assert_eq!(percentile_sorted(&v, 0.5), 25.0);
        assert!((percentile_sorted(&v, 1.0 / 3.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn wilson_basics() {
        let (lo, hi) = wilson_interval(0, 0);
        assert_eq!((lo, hi), (0.0, 1.0));
        let (lo, hi) = wilson_interval(50, 100);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.25, "reasonably tight at n=100");
        // All successes: upper bound is ~1, lower bound below 1.
        let (lo, hi) = wilson_interval(100, 100);
        assert!(hi > 0.999999);
        assert!(lo > 0.94 && lo < 1.0);
        // More trials tighten the interval.
        let (lo2, _) = wilson_interval(1000, 1000);
        assert!(lo2 > lo);
    }
}
