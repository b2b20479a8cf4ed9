//! Lightweight span/event tracing with caller-supplied clocks.
//!
//! The determinism contract of the workspace forbids instrumentation
//! from *reading* time on its own: inside the simulator, "now" is
//! simulated nanoseconds owned by the event loop; in the master and the
//! RPC layer it is monotonic wall time. So this module never calls into
//! a time source — every timestamp is handed in by the caller, either
//! directly ([`Tracer::record_span`]) or through a [`Clock`]
//! implementation the *caller* chose ([`WallClock`] for control-plane
//! code, raw sim timestamps for the data plane).
//!
//! Finished spans land in a bounded ring buffer: memory stays fixed, the
//! oldest spans are dropped (and counted) under pressure, and the engine
//! drains the ring at run boundaries into the per-run summary.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A source of monotonic nanosecond timestamps, supplied by the caller.
///
/// Implementations must be monotonic within one tracer's lifetime but
/// carry no epoch guarantee — spans are compared within one recording,
/// never across clocks.
pub trait Clock {
    /// Current time in nanoseconds on this clock.
    fn now_ns(&self) -> u64;
}

/// Monotonic wall-clock time, anchored at construction. The clock for
/// control-plane instrumentation (master phases, RPC latency).
pub struct WallClock {
    anchor: std::time::Instant,
}

impl WallClock {
    /// A clock reading zero now.
    pub fn new() -> Self {
        Self {
            anchor: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }
}

/// One finished span (or instantaneous event, where `start_ns ==
/// end_ns`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name; static for the fixed vocabulary of engine phases,
    /// owned for names carrying identifiers (e.g. `run:3`).
    pub name: Cow<'static, str>,
    /// Start timestamp on the caller's clock.
    pub start_ns: u64,
    /// End timestamp on the same clock.
    pub end_ns: u64,
}

struct TracerInner {
    buf: VecDeque<SpanRecord>,
    capacity: usize,
}

/// A bounded ring of finished spans.
pub struct Tracer {
    inner: Mutex<TracerInner>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer keeping at most `capacity` finished spans.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(TracerInner {
                buf: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            dropped: AtomicU64::new(0),
        }
    }

    /// Resizes the ring; excess oldest spans are dropped (and counted).
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().expect("obs tracer poisoned");
        inner.capacity = capacity.max(1);
        while inner.buf.len() > inner.capacity {
            inner.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished span. A no-op while observability is disabled.
    pub fn record_span(&self, name: impl Into<Cow<'static, str>>, start_ns: u64, end_ns: u64) {
        if !crate::enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("obs tracer poisoned");
        if inner.buf.len() == inner.capacity {
            inner.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.buf.push_back(SpanRecord {
            name: name.into(),
            start_ns,
            end_ns,
        });
    }

    /// Records an instantaneous event (a zero-length span).
    pub fn record_event(&self, name: impl Into<Cow<'static, str>>, at_ns: u64) {
        self.record_span(name, at_ns, at_ns);
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("obs tracer poisoned").buf.len()
    }

    /// True if no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped to the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Removes and returns all buffered spans — how the engine collects
    /// a run's spans into its per-run summary.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .expect("obs tracer poisoned")
            .buf
            .drain(..)
            .collect()
    }
}

/// An in-flight span: captures the start timestamp from the caller's
/// clock, records on [`SpanTimer::finish`].
pub struct SpanTimer {
    name: Cow<'static, str>,
    start_ns: u64,
}

impl SpanTimer {
    /// Starts a span now on `clock`.
    pub fn start(clock: &impl Clock, name: impl Into<Cow<'static, str>>) -> Self {
        Self {
            name: name.into(),
            start_ns: clock.now_ns(),
        }
    }

    /// Finishes the span now on `clock` (which must be the clock it
    /// started on) and records it into `tracer`. Returns the duration.
    pub fn finish(self, clock: &impl Clock, tracer: &Tracer) -> u64 {
        let end_ns = clock.now_ns();
        let duration = end_ns.saturating_sub(self.start_ns);
        tracer.record_span(self.name, self.start_ns, end_ns);
        duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that reads whatever the test last set.
    struct Step(AtomicU64);

    impl Clock for Step {
        fn now_ns(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn a_timer_records_its_span() {
        crate::set_enabled(true);
        let tracer = Tracer::new(16);
        let clock = Step(AtomicU64::new(100));
        let timer = SpanTimer::start(&clock, "phase:run_init");
        clock.0.store(150, Ordering::Relaxed);
        let d = timer.finish(&clock, &tracer);
        assert_eq!(d, 50);
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "phase:run_init");
        assert_eq!(spans[0].start_ns, 100);
        assert_eq!(spans[0].end_ns, 150);
        assert!(tracer.is_empty());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        crate::set_enabled(true);
        let tracer = Tracer::new(2);
        tracer.record_event("a", 1);
        tracer.record_event("b", 2);
        tracer.record_event("c", 3);
        assert_eq!(tracer.dropped(), 1);
        let names: Vec<_> = tracer.drain().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn shrinking_capacity_evicts() {
        crate::set_enabled(true);
        let tracer = Tracer::new(8);
        for i in 0..8 {
            tracer.record_event("e", i);
        }
        tracer.set_capacity(3);
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.dropped(), 5);
        assert_eq!(tracer.drain()[0].start_ns, 5);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }
}
