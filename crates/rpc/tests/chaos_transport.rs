//! Chaos schedule + idempotent dispatch, end to end over both transports.
//!
//! The properties exercised here are the foundation the engine-level
//! `chaos_equivalence` suite builds on: the fault schedule is replayable
//! from its seed alone, and a bounded retry loop with a stable idempotency
//! key executes every logical call exactly once server-side — even when
//! responses are lost after execution.

use excovery_obs::sync::Mutex;
use excovery_rpc::{
    fault_at, Channel, ChaosOptions, ChaosTransport, FaultAction, NodeProxy, RpcError,
    ServerRegistry, TcpOptions, TcpRpcServer, TcpTransport, Value,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn counting_registry() -> (ServerRegistry, Arc<AtomicUsize>) {
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
    (reg, executed)
}

/// Retries one logical call with a fixed idempotency key until it passes —
/// the shape of the engine's `retry_call`.
fn retry_until_ok(proxy: &NodeProxy, key: &str, budget: u32) -> Value {
    let mut last: Option<RpcError> = None;
    for _ in 0..budget {
        match proxy.call_idempotent("ping", vec![Value::str(key)], key) {
            Ok(v) => return v,
            Err(e) => {
                assert!(e.is_retryable(), "non-transient chaos error: {e}");
                last = Some(e);
            }
        }
    }
    panic!("retry budget exhausted; last error: {last:?}");
}

#[test]
fn same_seed_injects_identical_fault_sequences() {
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
            let t = ChaosTransport::new(Channel::new(reg), opts.clone());
            let proxy = NodeProxy::new("n0", t);
            (0..96)
                .map(|_| proxy.call("ping", vec![]).is_ok())
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
    // Full fault rate below the horizon: every early call draws a fault,
    // including DropResponse (server executes, response lost). The retry
    // loop reuses the key, so the dedup cache must absorb the duplicates.
    let opts = ChaosOptions {
        seed: 7,
        fault_rate: 1.0,
        horizon_calls: 24,
        crash_windows: Vec::new(),
        max_delay_ms: 0,
    };
    assert!(opts.eventually_clears());
    let (reg, executed) = counting_registry();
    let t = ChaosTransport::new(Channel::new(reg), opts);
    let proxy = NodeProxy::new("n0", t);
    for logical in 0..10 {
        let key = format!("0:0:{logical}");
        let v = retry_until_ok(&proxy, &key, 64);
        assert_eq!(v, Value::str(&key));
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
    let budget = opts.longest_crash_window() as u32 + 2;
    let (reg, executed) = counting_registry();
    let t = ChaosTransport::new(Channel::new(reg), opts);
    let proxy = NodeProxy::new("n0", t);
    retry_until_ok(&proxy, "a", 64); // call #0: passes
    retry_until_ok(&proxy, "b", budget); // calls #1..: rides out the window
    assert_eq!(executed.load(Ordering::SeqCst), 2);
}

#[test]
fn chaos_and_dedup_compose_over_tcp() {
    let (reg, executed) = counting_registry();
    let server = TcpRpcServer::bind("127.0.0.1:0", Arc::new(Mutex::new(reg))).unwrap();
    let addr = server.local_addr();
    let opts = ChaosOptions {
        seed: 21,
        fault_rate: 0.9,
        horizon_calls: 30,
        crash_windows: Vec::new(),
        max_delay_ms: 0,
    };
    let tcp = TcpTransport::connect(addr, TcpOptions::default()).unwrap();
    let proxy = NodeProxy::new("n0", ChaosTransport::new(tcp, opts));
    for logical in 0..6 {
        let key = format!("tcp:{logical}");
        assert_eq!(retry_until_ok(&proxy, &key, 64), Value::str(&key));
    }
    assert_eq!(executed.load(Ordering::SeqCst), 6);
    proxy.close();
    server.shutdown();
}
