//! The reactor records the same client series a blocking transport does:
//! one `rpc_client_calls_total` and one `rpc_client_call_latency_ns`
//! sample per call that reaches a link, labelled by the link's transport,
//! and wire bytes only where a frame is actually encoded (TCP).
//!
//! Its own process, and its tests take turns on one lock, because the
//! series live in the process-wide registry: a concurrent test would move
//! the counts.

use excovery_obs::sync::Mutex;
use excovery_rpc::{
    NodeCall, Reactor, ReactorEndpoint, RetryPolicy, ServerRegistry, TcpOptions, TcpRpcServer,
    Value,
};
use std::sync::Arc;

const CALLS: usize = 5;

/// Held by every test for its whole body: they read deltas of the same
/// process-wide series.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn registry() -> Arc<Mutex<ServerRegistry>> {
    let mut reg = ServerRegistry::new();
    reg.register("run_init", |_| Ok(Value::Bool(true)));
    Arc::new(Mutex::new(reg))
}

/// `(calls, latency samples, bytes sent, bytes received)` of one label.
fn series(transport: &str) -> [u64; 4] {
    let reg = excovery_obs::global();
    let labels = [("transport", transport)];
    [
        reg.counter("rpc_client_calls_total", &labels).value(),
        reg.histogram("rpc_client_call_latency_ns", &labels).count(),
        reg.counter("rpc_client_bytes_sent_total", &labels).value(),
        reg.counter("rpc_client_bytes_received_total", &labels)
            .value(),
    ]
}

/// Dispatches `CALLS` calls, one per node, and returns the series delta.
fn dispatch_delta(transport: &str, mut reactor: Reactor) -> [u64; 4] {
    let before = series(transport);
    let calls: Vec<NodeCall> = (0..CALLS)
        .map(|i| NodeCall {
            node_id: format!("n{i}"),
            method: "run_init".into(),
            params: vec![],
            idem_key: Some(format!("0:0:{i}")),
        })
        .collect();
    let outcomes = reactor.dispatch(calls, &RetryPolicy::none());
    assert!(outcomes.iter().all(|o| o.result.is_ok()), "{outcomes:?}");
    let after = series(transport);
    [0, 1, 2, 3].map(|k| after[k] - before[k])
}

#[test]
fn every_reactor_call_lands_in_the_client_series_of_its_transport() {
    let _serial = serial();
    excovery_obs::set_enabled(true);

    let mut memory = Reactor::new();
    for i in 0..CALLS {
        memory.add_node(format!("n{i}"), ReactorEndpoint::Memory(registry()), None);
    }
    let [calls, latencies, sent, received] = dispatch_delta("memory", memory);
    assert_eq!((calls, latencies), (CALLS as u64, CALLS as u64));
    // Memory links dispatch the parsed call: no frame, no bytes.
    assert_eq!((sent, received), (0, 0));

    let servers: Vec<TcpRpcServer> = (0..CALLS)
        .map(|_| TcpRpcServer::bind("127.0.0.1:0", registry()).unwrap())
        .collect();
    let mut tcp = Reactor::new();
    for (i, server) in servers.iter().enumerate() {
        let endpoint = ReactorEndpoint::Tcp {
            addr: server.local_addr(),
            opts: TcpOptions::default(),
        };
        tcp.add_node(format!("n{i}"), endpoint, None);
    }
    let [calls, latencies, sent, received] = dispatch_delta("tcp", tcp);
    assert_eq!((calls, latencies), (CALLS as u64, CALLS as u64));
    assert!(sent > 0 && received > 0, "sent {sent}, received {received}");
    for server in &servers {
        server.shutdown();
    }
}

/// A 1,000-node flat phase: one dispatch with no retry budget returns
/// every node's own answer in input order and costs exactly one wire op
/// per node.
#[test]
fn a_thousand_node_flat_dispatch_answers_in_input_order() {
    const NODES: usize = 1000;
    let _serial = serial();
    excovery_obs::set_enabled(true);

    let mut reactor = Reactor::new();
    for i in 0..NODES {
        let mut reg = ServerRegistry::new();
        reg.register("run_init", move |params| match params {
            [Value::Int(run)] => Ok(Value::Int(run + i as i32)),
            other => panic!("run_init got {other:?}"),
        });
        let endpoint = ReactorEndpoint::Memory(Arc::new(Mutex::new(reg)));
        reactor.add_node(format!("n{i:04}"), endpoint, None);
    }
    let wire_ops = || {
        excovery_obs::global()
            .counter("rpc_reactor_wire_ops_total", &[("link", "memory")])
            .value()
    };
    let before = wire_ops();
    // Calls run against registration order, so an answer landing in the
    // wrong slot cannot pass.
    let calls: Vec<NodeCall> = (0..NODES)
        .rev()
        .map(|i| NodeCall {
            node_id: format!("n{i:04}"),
            method: "run_init".into(),
            params: vec![Value::Int(7)],
            idem_key: Some(format!("0:0:{i}")),
        })
        .collect();
    let answers: Vec<Value> = reactor
        .dispatch(calls, &RetryPolicy::none())
        .into_iter()
        .map(|o| o.result.expect("run_init failed"))
        .collect();
    assert_eq!(wire_ops() - before, NODES as u64);
    let want: Vec<Value> = (0..NODES).rev().map(|i| Value::Int(7 + i as i32)).collect();
    assert_eq!(answers, want);
}
