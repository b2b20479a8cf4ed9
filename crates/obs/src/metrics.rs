//! Lock-free metric primitives and the registry that names them.
//!
//! Three instrument kinds cover everything the workspace measures:
//!
//! * [`Counter`] — monotonically increasing `u64`, sharded across
//!   cache-line-padded atomics so concurrent writers (campaign workers,
//!   per-node fan-out threads) never contend on one line.
//! * [`Gauge`] — a signed instantaneous value (queue depth, worker count).
//! * [`Histogram`] — log₂-bucketed distribution with a fixed number of
//!   buckets, so a histogram costs the same memory whether it saw ten
//!   observations or ten billion.
//!
//! Handles are `Arc`-backed clones: registration (name + label lookup
//! under a mutex) happens once at construction time, after which every
//! record operation is a couple of relaxed atomic instructions guarded by
//! the global [`enabled`](crate::enabled) flag. Label sets are expected
//! to be **low-cardinality and stable** (transport kind, phase name,
//! error kind) — the registry enforces this with a hard series cap and
//! routes any excess into a single overflow series rather than growing
//! without bound.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Writer shards per counter. Eight covers the worker counts the
/// campaign layer actually spawns without making `value()` reads slow.
pub(crate) const COUNTER_SHARDS: usize = 8;

/// Buckets per histogram: bucket `i` counts values in `[2^i, 2^(i+1))`
/// (bucket 0 also absorbs zero). 44 buckets span one nanosecond to
/// roughly 4.8 hours — beyond any duration the framework measures.
pub const HISTOGRAM_BUCKETS: usize = 44;

/// Hard cap on distinct series per registry; past it, records land in a
/// per-kind overflow series so memory stays fixed even under a
/// cardinality bug.
pub(crate) const MAX_SERIES: usize = 1024;

/// An atomic on its own cache line, so sharded writers never false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// Stable per-thread shard assignment: threads take round-robin slots so
/// a fixed worker pool spreads evenly over the shards.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

struct CounterCore {
    shards: [PaddedU64; COUNTER_SHARDS],
}

/// A monotonically increasing counter. Cloning shares the underlying
/// series.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    fn new() -> Self {
        Self {
            core: Arc::new(CounterCore {
                shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
            }),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A no-op while observability is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.core.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (sum over shards).
    pub fn value(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// An instantaneous signed value.
#[derive(Clone)]
pub struct Gauge {
    core: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Self {
            core: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Sets the gauge. A no-op while observability is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.core.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (negative to decrease). A no-op while disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.core.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.core.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂-bucketed histogram of `u64` observations (typically
/// nanoseconds or byte counts).
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

/// The bucket index a value lands in: its log₂, clamped to the fixed
/// bucket range.
pub fn bucket_index(v: u64) -> usize {
    if v < 2 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Exclusive upper bound of bucket `i` (`2^(i+1)`); the last bucket is
/// unbounded and reported as `+Inf` by the Prometheus exporter.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= HISTOGRAM_BUCKETS {
        None
    } else {
        Some(1u64 << (i + 1))
    }
}

impl Histogram {
    fn new() -> Self {
        Self {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation. A no-op while observability is disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the distribution for export.
    pub(crate) fn snapshot_value(&self) -> HistogramSnapshot {
        let buckets = self
            .core
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Point-in-time copy of one histogram, with only the non-empty buckets
/// as `(bucket_index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, count)`, ascending.
    pub buckets: Vec<(usize, u64)>,
}

/// Series identity: metric name plus its sorted label pairs.
pub(crate) type SeriesKey = (String, Vec<(String, String)>);

/// One exported series of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue<T> {
    /// Metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: T,
}

/// A point-in-time copy of every series in a registry, in deterministic
/// (sorted) order: what the Prometheus exporter and the engine's `_obs`
/// level-2 entries are rendered from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<MetricValue<u64>>,
    /// All gauges.
    pub gauges: Vec<MetricValue<i64>>,
    /// All histograms.
    pub histograms: Vec<MetricValue<HistogramSnapshot>>,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<SeriesKey, Counter>,
    gauges: BTreeMap<SeriesKey, Gauge>,
    histograms: BTreeMap<SeriesKey, Histogram>,
}

impl RegistryInner {
    fn series(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }
}

/// Names and owns every series. Lookup/creation takes a mutex; record
/// operations on the returned handles do not.
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

/// Series name every over-cap registration is folded into.
pub(crate) const OVERFLOW_SERIES: &str = "obs_series_overflow";

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    debug_assert!(
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && !name.starts_with(|c: char| c.is_ascii_digit()),
        "invalid metric name {name:?}"
    );
    let mut pairs: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    pairs.sort();
    (name.to_string(), pairs)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Returns the counter for `(name, labels)`, creating it on first
    /// use. Past 1024 series (`MAX_SERIES`) the shared overflow counter is returned
    /// instead, so a cardinality bug cannot grow memory unboundedly.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = series_key(name, labels);
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        if !inner.counters.contains_key(&key) && inner.series() >= MAX_SERIES {
            return inner
                .counters
                .entry(series_key(OVERFLOW_SERIES, &[]))
                .or_insert_with(Counter::new)
                .clone();
        }
        inner
            .counters
            .entry(key)
            .or_insert_with(Counter::new)
            .clone()
    }

    /// Returns the gauge for `(name, labels)`, creating it on first use;
    /// overflow behaves like [`Registry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = series_key(name, labels);
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        if !inner.gauges.contains_key(&key) && inner.series() >= MAX_SERIES {
            return inner
                .gauges
                .entry(series_key(OVERFLOW_SERIES, &[]))
                .or_insert_with(Gauge::new)
                .clone();
        }
        inner.gauges.entry(key).or_insert_with(Gauge::new).clone()
    }

    /// Returns the histogram for `(name, labels)`, creating it on first
    /// use; overflow behaves like [`Registry::counter`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = series_key(name, labels);
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        if !inner.histograms.contains_key(&key) && inner.series() >= MAX_SERIES {
            return inner
                .histograms
                .entry(series_key(OVERFLOW_SERIES, &[]))
                .or_insert_with(Histogram::new)
                .clone();
        }
        inner
            .histograms
            .entry(key)
            .or_insert_with(Histogram::new)
            .clone()
    }

    /// Number of registered series across all kinds.
    pub fn series_count(&self) -> usize {
        self.inner.lock().expect("obs registry poisoned").series()
    }

    /// Copies every series, sorted by `(name, labels)` within each kind —
    /// a deterministic export order regardless of registration order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("obs registry poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|((name, labels), c)| MetricValue {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: c.value(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|((name, labels), g)| MetricValue {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: g.value(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|((name, labels), h)| MetricValue {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: h.snapshot_value(),
                })
                .collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording<T>(f: impl FnOnce() -> T) -> T {
        // Tests in this crate run in one process; recording is only ever
        // switched on, so parallel test threads cannot observe a
        // mid-test disable.
        crate::set_enabled(true);
        f()
    }

    #[test]
    fn counter_shards_sum_across_threads() {
        recording(|| {
            let reg = Registry::new();
            let c = reg.counter("threads_total", &[]);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    let c = c.clone();
                    s.spawn(move || {
                        for _ in 0..1000 {
                            c.inc();
                        }
                    });
                }
            });
            assert_eq!(c.value(), 8000);
        });
    }

    #[test]
    fn same_key_returns_the_same_series() {
        recording(|| {
            let reg = Registry::new();
            let a = reg.counter("x_total", &[("k", "v"), ("a", "b")]);
            // Label order must not matter.
            let b = reg.counter("x_total", &[("a", "b"), ("k", "v")]);
            a.inc();
            b.add(2);
            assert_eq!(a.value(), 3);
            assert_eq!(reg.series_count(), 1);
        });
    }

    #[test]
    fn gauge_set_and_add() {
        recording(|| {
            let reg = Registry::new();
            let g = reg.gauge("depth", &[]);
            g.set(10);
            g.add(-3);
            assert_eq!(g.value(), 7);
        });
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), Some(2));
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
        recording(|| {
            let reg = Registry::new();
            let h = reg.histogram("lat_ns", &[]);
            for v in [1u64, 3, 3, 100, 1_000_000] {
                h.observe(v);
            }
            let snap = h.snapshot_value();
            assert_eq!(snap.count, 5);
            assert_eq!(snap.sum, 1 + 3 + 3 + 100 + 1_000_000);
            assert_eq!(
                snap.buckets,
                vec![
                    (bucket_index(1), 1),
                    (bucket_index(3), 2),
                    (bucket_index(100), 1),
                    (bucket_index(1_000_000), 1)
                ]
            );
        });
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        recording(|| {
            let reg = Registry::new();
            reg.counter("b_total", &[]).inc();
            reg.counter("a_total", &[("z", "1")]).inc();
            reg.counter("a_total", &[("a", "1")]).inc();
            let names: Vec<String> = reg
                .snapshot()
                .counters
                .iter()
                .map(|m| format!("{}{:?}", m.name, m.labels))
                .collect();
            let mut sorted = names.clone();
            sorted.sort();
            assert_eq!(names, sorted);
        });
    }

    #[test]
    fn series_cap_routes_to_overflow() {
        recording(|| {
            let reg = Registry::new();
            for i in 0..MAX_SERIES {
                let label = i.to_string();
                reg.counter("cap_total", &[("i", &label)]).inc();
            }
            assert_eq!(reg.series_count(), MAX_SERIES);
            let overflow = reg.counter("cap_total", &[("i", "too_many")]);
            overflow.inc();
            overflow.inc();
            // The overflow handle aliases the shared overflow series.
            assert_eq!(reg.counter(OVERFLOW_SERIES, &[]).value(), 2);
            // One slot over the cap: the overflow series itself.
            assert_eq!(reg.series_count(), MAX_SERIES + 1);
        });
    }
}
