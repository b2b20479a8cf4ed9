//! Deterministic fault injection for the control channel.
//!
//! Dfuntest-style distributed test harnesses must script their own
//! failures to be credible: waiting for the network to misbehave is not a
//! test plan. Faults come from a *seeded, replayable schedule*: every call
//! to a node is assigned that node's next call index, and the fault
//! decision for index `i` is a pure function of `(seed, i)` plus the
//! configured windows ([`fault_at`]). The [`crate::reactor::Reactor`] keeps
//! one schedule position per node and draws once per attempt, for
//! lifecycle fan-outs and in-run calls alike. Running the same master
//! logic against the same [`ChaosOptions`] therefore reproduces the exact
//! same fault sequence — a failing chaos run is replayed by its seed
//! alone.
//!
//! Injected fault classes (all surfacing as the [`RpcError`] variants the
//! engine already classifies via [`RpcError::is_retryable`]):
//!
//! * **DropRequest** — the call never reaches the server; the caller sees
//!   a retryable [`RpcError::Io`].
//! * **DropResponse** — the server *executes* the call but the response is
//!   lost; the caller sees [`RpcError::Timeout`]. This is the class that
//!   forces idempotent server-side dispatch: a blind retry would execute
//!   the procedure twice.
//! * **InjectTimeout** — the deadline elapses before the request is sent.
//! * **InjectDisconnected** — the connection drops before the request.
//! * **Delay** — the response is delivered, late (a wall-clock gate;
//!   simulated time is unaffected).
//! * **Crash windows** — contiguous call-index ranges `[start, end)`
//!   during which the node is down: every call fails with
//!   [`RpcError::Disconnected`] without reaching the server.
//!
//! A schedule whose `horizon_calls` is finite and whose crash windows all
//! end *eventually clears*: past the horizon and the last window every
//! call passes through untouched, so a bounded-retry master always
//! converges.

use crate::error::RpcError;

/// Configuration of a seeded fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// Seed of the schedule; the fault decision for call index `i` is a
    /// pure function of `(seed, i)`.
    pub seed: u64,
    /// Probability in `[0, 1]` that a call below the horizon draws a
    /// fault (crash windows apply regardless of this rate).
    pub fault_rate: f64,
    /// Call index after which no rate-based faults are injected. A finite
    /// horizon makes the schedule eventually-clearing.
    pub horizon_calls: u64,
    /// Hard "node crash" windows as `[start, end)` call-index ranges:
    /// inside a window every call fails without reaching the server.
    pub crash_windows: Vec<(u64, u64)>,
    /// Upper bound for injected response delays (wall clock). Zero
    /// disables the delay class.
    pub max_delay_ms: u64,
}

impl ChaosOptions {
    /// A schedule that injects nothing (pass-through).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            fault_rate: 0.0,
            horizon_calls: 0,
            crash_windows: Vec::new(),
            max_delay_ms: 0,
        }
    }

    /// A moderate eventually-clearing schedule: `fault_rate` faults over
    /// the first `horizon_calls` calls, no crash windows, 1 ms delays.
    pub fn flaky(seed: u64, fault_rate: f64, horizon_calls: u64) -> Self {
        Self {
            seed,
            fault_rate,
            horizon_calls,
            crash_windows: Vec::new(),
            max_delay_ms: 1,
        }
    }

    /// True if no fault can ever be injected after some call index — the
    /// precondition for crash-free convergence under bounded retry.
    pub fn eventually_clears(&self) -> bool {
        // Rate faults stop at the horizon. A crash window stops at its
        // end, except one ending at `u64::MAX`: no call index ever
        // reaches it, so that node stays down.
        (self.fault_rate <= 0.0 || self.horizon_calls < u64::MAX)
            && self.crash_windows.iter().all(|&(_, end)| end < u64::MAX)
    }

    /// Longest crash window, in calls — a master's retry budget must
    /// exceed this for a logical call to survive the window.
    pub fn longest_crash_window(&self) -> u64 {
        self.crash_windows
            .iter()
            .map(|(s, e)| e.saturating_sub(*s))
            .max()
            .unwrap_or(0)
    }
}

/// The fault decision for one call index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the call untouched.
    Pass,
    /// Fail without reaching the server (`Io`).
    DropRequest,
    /// Execute on the server, then lose the response (`Timeout`).
    DropResponse,
    /// Fail with an injected `Timeout` before the request is sent.
    InjectTimeout,
    /// Fail with an injected `Disconnected` before the request is sent.
    InjectDisconnected,
    /// Deliver the call after a wall-clock delay of the given ms.
    Delay(u64),
    /// The node is inside a crash window (`Disconnected`).
    Crash,
}

impl FaultAction {
    /// A stable, low-cardinality label for this action — the `kind`
    /// label of the `rpc_chaos_injections_total` metric. Like
    /// [`RpcError::kind_label`], these strings are a public contract and
    /// never change once shipped.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FaultAction::Pass => "pass",
            FaultAction::DropRequest => "drop_request",
            FaultAction::DropResponse => "drop_response",
            FaultAction::InjectTimeout => "inject_timeout",
            FaultAction::InjectDisconnected => "inject_disconnected",
            FaultAction::Delay(_) => "delay",
            FaultAction::Crash => "crash",
        }
    }
}

/// splitmix64: a tiny, high-quality deterministic mixer, so the schedule
/// needs no external RNG dependency and is identical on every platform.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fault decision for call index `i` under `opts` — a pure function,
/// exposed so tests (and humans replaying a seed) can print a schedule
/// without performing any call.
pub fn fault_at(opts: &ChaosOptions, i: u64) -> FaultAction {
    if opts.crash_windows.iter().any(|(s, e)| i >= *s && i < *e) {
        return FaultAction::Crash;
    }
    if i >= opts.horizon_calls || opts.fault_rate <= 0.0 {
        return FaultAction::Pass;
    }
    let roll = splitmix64(opts.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // Top 53 bits → uniform f64 in [0, 1).
    let uniform = (roll >> 11) as f64 / (1u64 << 53) as f64;
    if uniform >= opts.fault_rate.clamp(0.0, 1.0) {
        return FaultAction::Pass;
    }
    // A second independent draw picks the fault class.
    match splitmix64(roll) % 5 {
        0 => FaultAction::DropRequest,
        1 => FaultAction::DropResponse,
        2 => FaultAction::InjectTimeout,
        3 => FaultAction::InjectDisconnected,
        _ if opts.max_delay_ms > 0 => {
            FaultAction::Delay(1 + splitmix64(roll ^ 1) % opts.max_delay_ms)
        }
        _ => FaultAction::DropRequest,
    }
}

/// One node's position in its fault schedule. The reactor keeps one per
/// chaos-enabled node and draws from it once per attempt, so every call
/// to the node — whatever path issued it — advances the same index.
pub(crate) struct NodeSchedule {
    opts: ChaosOptions,
    next_call: u64,
}

impl NodeSchedule {
    pub(crate) fn new(opts: ChaosOptions) -> Self {
        Self { opts, next_call: 0 }
    }

    /// Draws the verdict for the next attempt of `method`. Actions that
    /// put the call on the wire (`Pass`, `Delay`, `DropResponse`) come back
    /// as `Ok`; the others fail the attempt before any wire work and come
    /// back as the injected error.
    pub(crate) fn draw(&mut self, method: &str) -> Result<FaultAction, RpcError> {
        let index = self.next_call;
        self.next_call += 1;
        let action = fault_at(&self.opts, index);
        // Chaos calls are control-plane rate, so a registry lookup per
        // injection (rather than pre-resolved handles) is acceptable.
        if excovery_obs::enabled() && action != FaultAction::Pass {
            excovery_obs::global()
                .counter("rpc_chaos_injections_total", &[("kind", action.label())])
                .inc();
        }
        match action {
            FaultAction::Pass | FaultAction::DropResponse | FaultAction::Delay(_) => Ok(action),
            FaultAction::DropRequest => Err(RpcError::Io(format!(
                "chaos: request '{method}' dropped at call #{index}"
            ))),
            FaultAction::InjectTimeout => Err(RpcError::Timeout {
                method: method.to_string(),
                after_ms: 0,
            }),
            FaultAction::InjectDisconnected => Err(RpcError::Disconnected(format!(
                "chaos: link to server lost at call #{index}"
            ))),
            FaultAction::Crash => Err(RpcError::Disconnected(format!(
                "chaos: node crashed (window hit at call #{index})"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_index() {
        let opts = ChaosOptions::flaky(42, 0.5, 1000);
        let a: Vec<FaultAction> = (0..200).map(|i| fault_at(&opts, i)).collect();
        let b: Vec<FaultAction> = (0..200).map(|i| fault_at(&opts, i)).collect();
        assert_eq!(a, b);
        // A different seed produces a different schedule.
        let other = ChaosOptions::flaky(43, 0.5, 1000);
        let c: Vec<FaultAction> = (0..200).map(|i| fault_at(&other, i)).collect();
        assert_ne!(a, c);
        // The rate is roughly honoured.
        let faults = a.iter().filter(|f| !matches!(f, FaultAction::Pass)).count();
        assert!((60..160).contains(&faults), "{faults} faults at rate 0.5");
    }

    #[test]
    fn faults_clear_past_the_horizon() {
        let opts = ChaosOptions::flaky(7, 1.0, 25);
        for i in 0..25 {
            assert_ne!(fault_at(&opts, i), FaultAction::Pass, "index {i}");
        }
        for i in 25..200 {
            assert_eq!(fault_at(&opts, i), FaultAction::Pass, "index {i}");
        }
        assert!(opts.eventually_clears());
    }

    #[test]
    fn a_crash_window_ending_at_u64_max_never_clears() {
        let down = ChaosOptions {
            crash_windows: vec![(0, u64::MAX)],
            ..ChaosOptions::quiet(1)
        };
        assert!(!down.eventually_clears());
        let finite = ChaosOptions {
            crash_windows: vec![(0, 5), (9, 12)],
            ..ChaosOptions::quiet(1)
        };
        assert!(finite.eventually_clears());
        assert_eq!(finite.longest_crash_window(), 5);
    }

    #[test]
    fn draws_advance_one_index_per_attempt_and_name_it_in_the_error() {
        let mut schedule = NodeSchedule::new(ChaosOptions {
            crash_windows: vec![(1, 2)],
            ..ChaosOptions::quiet(3)
        });
        assert_eq!(schedule.draw("ping"), Ok(FaultAction::Pass));
        match schedule.draw("ping") {
            Err(RpcError::Disconnected(msg)) => {
                assert_eq!(msg, "chaos: node crashed (window hit at call #1)");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(schedule.draw("ping"), Ok(FaultAction::Pass));
    }
}
