//! Observability subsystem of the ExCovery reproduction.
//!
//! The paper's framework records *everything relevant to an experiment*
//! (§IV-B: node-local events, captures, clock offsets) — this crate gives
//! the reproduction the same property at runtime: counters, latency
//! histograms, phase spans, and exporters to look at them, across both
//! the control plane (master ↔ NodeManager RPC) and the data plane (the
//! deterministic network simulator).
//!
//! Three rules keep the layer compatible with the workspace's determinism
//! contract (DESIGN.md §6):
//!
//! 1. **Caller-supplied clocks.** Nothing in this crate reads a clock.
//!    Spans and events carry timestamps handed in by the caller — the
//!    simulator passes simulated nanoseconds, the master passes monotonic
//!    wall time via [`WallClock`]. Instrumentation therefore never
//!    perturbs simulated behaviour, only describes it.
//! 2. **Observation only.** No instrumented code path branches on a
//!    metric value. Enabling or disabling the subsystem must never change
//!    an [`ExperimentOutcome::digest()`]-visible byte — the engine's
//!    `obs_digest_parity` test pins that.
//! 3. **Near-zero cost when off.** The global [`ObsConfig`] toggle gates
//!    every record operation behind one relaxed atomic load; hot loops
//!    (the simulator packet path) publish counters in batch at run
//!    boundaries instead of per event.
//!
//! [`ExperimentOutcome::digest()`]: https://docs.rs/excovery-core
//!
//! # Quick tour
//!
//! ```
//! use excovery_obs as obs;
//!
//! // Handles are cheap clones; registration is keyed by (name, labels).
//! let calls = obs::global().counter("demo_calls_total", &[("transport", "memory")]);
//! let latency = obs::global().histogram("demo_latency_ns", &[]);
//!
//! obs::set_enabled(true);
//! calls.inc();
//! latency.observe(1_500);
//!
//! let text = obs::prometheus::render(&obs::global().snapshot());
//! assert!(text.contains("demo_calls_total{transport=\"memory\"} 1"));
//! ```

pub mod jsonl;
pub mod metrics;
pub mod par;
pub mod prometheus;
pub mod span;
pub mod sync;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry, Snapshot};
pub use span::{Clock, ManualClock, SpanRecord, SpanTimer, Tracer, WallClock};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Global on/off switch; see [`enabled`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True if observability is currently recording.
///
/// One relaxed load — the entire cost of the subsystem on any
/// instrumented path while disabled. All handle operations
/// ([`Counter::inc`], [`Histogram::observe`], [`Tracer::record_span`], …)
/// check this internally, so call sites do not need to.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metrics registry every instrumented crate records
/// into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide span tracer.
pub fn global_tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(ObsConfig::DEFAULT_SPAN_CAPACITY))
}

/// Runtime configuration of the observability layer.
///
/// The default is **disabled**: benches and digest-sensitive test suites
/// opt in explicitly, so a freshly linked binary pays one atomic load per
/// instrumented operation and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether metric and span recording is active.
    pub enabled: bool,
    /// Ring-buffer capacity of the global tracer; oldest spans are
    /// dropped (and counted) beyond this, keeping memory bounded.
    pub span_capacity: usize,
}

impl ObsConfig {
    /// Default span ring capacity of [`global_tracer`].
    pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

    /// Configuration with recording switched on.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Configuration with recording switched off (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Applies the configuration process-wide: sets the enable flag and
    /// resizes the global tracer ring.
    pub fn install(&self) {
        global_tracer().set_capacity(self.span_capacity);
        set_enabled(self.enabled);
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            span_capacity: Self::DEFAULT_SPAN_CAPACITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable/disable round-trip lives in `tests/toggle.rs` (its own
    // process): unit tests here share one process and only ever switch
    // recording on, so they cannot race each other through the flag.

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
