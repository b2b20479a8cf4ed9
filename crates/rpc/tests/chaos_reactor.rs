//! Chaos schedule + idempotent dispatch on the reactor, over both link
//! kinds.
//!
//! The properties exercised here are the foundation the engine-level
//! `chaos_equivalence` suite builds on: the fault schedule is replayable
//! from its seed alone, and bounded retry with a stable idempotency key
//! executes every logical call exactly once server-side — even when
//! responses are lost after execution.

use excovery_obs::sync::Mutex;
use excovery_rpc::{
    fault_at, ChaosOptions, FaultAction, IdemKey, NodeCall, Reactor, ReactorEndpoint, RetryPolicy,
    ServerRegistry, TcpOptions, TcpRpcServer, Value,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn counting_registry() -> (Arc<Mutex<ServerRegistry>>, Arc<AtomicUsize>) {
    let executed = Arc::new(AtomicUsize::new(0));
    let e2 = Arc::clone(&executed);
    let mut reg = ServerRegistry::new();
    reg.register("ping", move |params| {
        e2.fetch_add(1, Ordering::SeqCst);
        Ok(params
            .first()
            .cloned()
            .unwrap_or_else(|| Value::str("pong")))
    });
    (Arc::new(Mutex::new(reg)), executed)
}

/// A reactor with one node, link 0, behind `endpoint` and the schedule
/// `opts`.
fn one_node(endpoint: ReactorEndpoint, opts: ChaosOptions) -> Reactor {
    let mut reactor = Reactor::new();
    reactor.add_node(endpoint, Some(opts));
    reactor
}

/// Idempotency key number `seq` of run 0, epoch 0.
fn key(seq: u64) -> IdemKey {
    IdemKey {
        run: 0,
        epoch: 0,
        seq,
    }
}

/// Dispatches one logical call to link 0, keyed `seq`, whose parameter
/// is `param`.
fn ping(
    reactor: &mut Reactor,
    seq: u64,
    param: &Value,
    retry: &RetryPolicy,
) -> excovery_rpc::DispatchOutcome {
    let call = NodeCall {
        link: 0,
        method: "ping",
        params: std::slice::from_ref(param),
        idem_key: Some(key(seq)),
    };
    reactor.dispatch(&[call], retry).remove(0)
}

/// Dispatches one logical call under `retry` whose parameter is its own
/// key's text and returns its value, failing on any error left once the
/// budget is spent.
fn call_until_ok(reactor: &mut Reactor, seq: u64, retry: &RetryPolicy) -> Value {
    let outcome = ping(reactor, seq, &Value::str(key(seq).to_string()), retry);
    match outcome.result {
        Ok(v) => v,
        Err(e) => panic!(
            "retry budget exhausted after {} retries: {e}",
            outcome.retries
        ),
    }
}

#[test]
fn same_seed_injects_the_pure_fault_schedule() {
    let opts = ChaosOptions {
        seed: 404,
        fault_rate: 0.6,
        horizon_calls: 64,
        crash_windows: vec![(8, 12)],
        max_delay_ms: 1,
    };
    let observed: Vec<Vec<bool>> = (0..2)
        .map(|_| {
            let (reg, _) = counting_registry();
            let mut reactor = one_node(ReactorEndpoint::Memory(reg), opts.clone());
            (0..96)
                .map(|i| {
                    let outcome = ping(&mut reactor, i, &Value::Int(0), &RetryPolicy::none());
                    outcome.result.is_ok()
                })
                .collect()
        })
        .collect();
    assert_eq!(observed[0], observed[1]);
    // And the outcome sequence matches the pure schedule: a call fails
    // iff its index draws anything but Pass/Delay.
    let predicted: Vec<bool> = (0..96)
        .map(|i| {
            matches!(
                fault_at(&opts, i),
                FaultAction::Pass | FaultAction::Delay(_)
            )
        })
        .collect();
    assert_eq!(observed[0], predicted);
}

#[test]
fn idempotent_retry_executes_each_logical_call_once() {
    // Full fault rate below the horizon: every early attempt draws a
    // fault, including DropResponse (server executes, response lost). The
    // retries reuse the key, so the dedup cache must absorb the duplicates.
    let opts = ChaosOptions {
        seed: 7,
        fault_rate: 1.0,
        horizon_calls: 24,
        crash_windows: Vec::new(),
        max_delay_ms: 0,
    };
    assert!(opts.eventually_clears());
    let retry = RetryPolicy::for_chaos(opts.horizon_calls + opts.longest_crash_window());
    let (reg, executed) = counting_registry();
    let mut reactor = one_node(ReactorEndpoint::Memory(reg), opts);
    for logical in 0..10 {
        let text = Value::str(key(logical).to_string());
        assert_eq!(call_until_ok(&mut reactor, logical, &retry), text);
    }
    assert_eq!(
        executed.load(Ordering::SeqCst),
        10,
        "dedup must hide retries and lost responses from the handler"
    );
}

#[test]
fn crash_window_is_survivable_with_sufficient_budget() {
    let opts = ChaosOptions {
        seed: 11,
        fault_rate: 0.0,
        horizon_calls: 0,
        crash_windows: vec![(1, 9)],
        max_delay_ms: 0,
    };
    let budget = RetryPolicy {
        max_attempts: opts.longest_crash_window() as u32 + 2,
        ..RetryPolicy::for_chaos(0)
    };
    let (reg, executed) = counting_registry();
    let mut reactor = one_node(ReactorEndpoint::Memory(reg), opts);
    call_until_ok(&mut reactor, 0, &RetryPolicy::none()); // call #0: passes
    call_until_ok(&mut reactor, 1, &budget); // calls #1..: rides out the window
    assert_eq!(executed.load(Ordering::SeqCst), 2);
}

#[test]
fn chaos_and_dedup_compose_over_tcp() {
    let (reg, executed) = counting_registry();
    let server = TcpRpcServer::bind("127.0.0.1:0", reg).unwrap();
    let opts = ChaosOptions {
        seed: 21,
        fault_rate: 0.9,
        horizon_calls: 30,
        crash_windows: Vec::new(),
        max_delay_ms: 0,
    };
    let retry = RetryPolicy::for_chaos(opts.horizon_calls);
    let endpoint = ReactorEndpoint::Tcp {
        addr: server.local_addr(),
        opts: TcpOptions::default(),
    };
    let mut reactor = one_node(endpoint, opts);
    for logical in 0..6 {
        let text = Value::str(key(logical).to_string());
        assert_eq!(call_until_ok(&mut reactor, logical, &retry), text);
    }
    assert_eq!(executed.load(Ordering::SeqCst), 6);
    server.shutdown();
}
