//! Fault-path and concurrency tests for the pluggable control channel.
//!
//! The in-memory [`Channel`] can not lose bytes or stall, so everything
//! here drives the TCP backend against real sockets: deadlines that
//! actually elapse, servers that vanish mid-call, peers that speak
//! garbage, and the parallel fan-out the engine relies on.

use excovery_obs::sync::Mutex;
use excovery_rpc::tcp::{TcpOptions, TcpRpcServer, TcpTransport};
use excovery_rpc::{Fault, NodeProxy, RpcError, ServerRegistry, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn shared(reg: ServerRegistry) -> Arc<Mutex<ServerRegistry>> {
    Arc::new(Mutex::new(reg))
}

fn fast_opts() -> TcpOptions {
    TcpOptions {
        connect_timeout: Duration::from_millis(500),
        call_timeout: Duration::from_millis(250),
        max_connect_attempts: 2,
        backoff_initial: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
    }
}

/// A raw TCP peer that accepts one connection, optionally reads the
/// request frame, runs `respond` to produce raw bytes (empty = close
/// without answering), and exits.
fn raw_peer(respond: impl FnOnce() -> Vec<u8> + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Read the request frame so the client is committed to this call.
        let mut header = [0u8; 4];
        if stream.read_exact(&mut header).is_err() {
            return;
        }
        let len = u32::from_be_bytes(header) as usize;
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        let reply = respond();
        if !reply.is_empty() {
            let _ = stream.write_all(&reply);
            let _ = stream.flush();
        }
        // Dropping the stream closes the connection.
    });
    addr
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

#[test]
fn per_call_deadline_fires_on_a_stalled_server() {
    // The peer reads the request and then never answers.
    let addr = raw_peer(|| {
        std::thread::sleep(Duration::from_secs(5));
        Vec::new()
    });
    let proxy = NodeProxy::new("stalled", TcpTransport::connect(addr, fast_opts()).unwrap());
    let started = Instant::now();
    match proxy.call("ping", vec![]) {
        Err(RpcError::Timeout { method, after_ms }) => {
            assert_eq!(method, "ping");
            assert_eq!(after_ms, 250);
        }
        other => panic!("expected timeout, got {other:?}"),
    }
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(200) && waited < Duration::from_secs(2),
        "deadline should bound the wait: {waited:?}"
    );
}

#[test]
fn server_disconnect_mid_call_is_reported_and_retryable() {
    // The peer reads the request and hangs up without replying.
    let addr = raw_peer(Vec::new);
    let proxy = NodeProxy::new("flaky", TcpTransport::connect(addr, fast_opts()).unwrap());
    let err = proxy.call("ping", vec![]).unwrap_err();
    assert!(
        matches!(err, RpcError::Disconnected(_)),
        "expected disconnect, got {err:?}"
    );
    assert!(err.is_retryable());
    assert!(!err.is_server_side());
}

#[test]
fn malformed_response_frame_is_a_codec_error() {
    let addr = raw_peer(|| frame(b"this is not an xml-rpc response"));
    let proxy = NodeProxy::new("garbled", TcpTransport::connect(addr, fast_opts()).unwrap());
    let err = proxy.call("ping", vec![]).unwrap_err();
    assert!(matches!(err, RpcError::Codec(_)), "got {err:?}");
    assert!(!err.is_retryable());
}

#[test]
fn oversized_length_prefix_is_a_codec_error() {
    // A corrupt header claiming a 2 GiB frame must be rejected up front,
    // not allocated.
    let addr = raw_peer(|| 0x8000_0000u32.to_be_bytes().to_vec());
    let proxy = NodeProxy::new("corrupt", TcpTransport::connect(addr, fast_opts()).unwrap());
    let err = proxy.call("ping", vec![]).unwrap_err();
    assert!(matches!(err, RpcError::Codec(_)), "got {err:?}");
}

#[test]
fn reconnect_after_disconnect_resumes_service() {
    // First server answers one call, then is dropped; a second server on
    // a fresh port cannot help (the address is fixed), so instead restart
    // on the *same* port to exercise the lazy reconnect path.
    let reg = shared({
        let mut r = ServerRegistry::new();
        r.register("ping", |_| Ok(Value::str("pong")));
        r
    });
    let server = TcpRpcServer::bind("127.0.0.1:0", Arc::clone(&reg)).unwrap();
    let addr = server.local_addr();
    let proxy = NodeProxy::new("n0", TcpTransport::connect(addr, fast_opts()).unwrap());
    assert_eq!(proxy.call("ping", vec![]).unwrap(), Value::str("pong"));

    drop(server);
    // Connection threads notice shutdown within their 50 ms read timeout;
    // wait that out so the next call really hits a dead peer.
    std::thread::sleep(Duration::from_millis(200));
    let err = proxy.call("ping", vec![]).unwrap_err();
    assert!(err.is_retryable(), "got {err:?}");

    // Rebind the same address and call again: the transport reconnects.
    let server = TcpRpcServer::bind(addr, reg).unwrap();
    assert_eq!(proxy.call("ping", vec![]).unwrap(), Value::str("pong"));
    drop(server);
}

#[test]
fn two_proxies_share_one_registry_concurrently() {
    let reg = shared({
        let mut r = ServerRegistry::new();
        r.register("add", |params| match params {
            [Value::Int(a), Value::Int(b)] => Ok(Value::Int(a + b)),
            _ => Err(Fault::new(1, "bad args")),
        });
        r
    });
    let server = TcpRpcServer::bind("127.0.0.1:0", reg).unwrap();
    let addr = server.local_addr();

    let make_proxy = |id: &str| {
        NodeProxy::new(
            id,
            TcpTransport::connect(addr, TcpOptions::default()).unwrap(),
        )
    };
    let a = make_proxy("a");
    let b = make_proxy("b");

    std::thread::scope(|scope| {
        for proxy in [&a, &b] {
            scope.spawn(move || {
                for i in 0..100i32 {
                    let v = proxy
                        .call("add", vec![Value::Int(i), Value::Int(1)])
                        .unwrap();
                    assert_eq!(v, Value::Int(i + 1));
                }
            });
        }
    });
}

/// Serial-vs-parallel dispatch over eight nodes with slow procedures.
///
/// This is the micro-version of the engine's lifecycle fan-out: eight
/// real TCP servers whose handler sleeps ~20 ms. Dispatching serially
/// costs the sum (≥160 ms); a `thread::scope` fan-out costs roughly the
/// max. The generous assertion bound keeps the test robust on loaded CI.
#[test]
fn parallel_fanout_beats_serial_dispatch_on_eight_nodes() {
    const NODES: usize = 8;
    const WORK: Duration = Duration::from_millis(20);

    let mut servers = Vec::new();
    let mut proxies = Vec::new();
    for i in 0..NODES {
        let reg = shared({
            let mut r = ServerRegistry::new();
            r.register("slow_ping", move |_| {
                std::thread::sleep(WORK);
                Ok(Value::Int(i as i32))
            });
            r
        });
        let server = TcpRpcServer::bind("127.0.0.1:0", reg).unwrap();
        proxies.push(NodeProxy::new(
            format!("node{i}"),
            TcpTransport::connect(server.local_addr(), TcpOptions::default()).unwrap(),
        ));
        servers.push(server);
    }

    let serial_start = Instant::now();
    for p in &proxies {
        p.call("slow_ping", vec![]).unwrap();
    }
    let serial = serial_start.elapsed();

    let parallel_start = Instant::now();
    std::thread::scope(|scope| {
        for p in &proxies {
            scope.spawn(move || p.call("slow_ping", vec![]).unwrap());
        }
    });
    let parallel = parallel_start.elapsed();

    eprintln!("8-node dispatch: serial {serial:?}, parallel {parallel:?}");
    assert!(
        serial >= WORK * NODES as u32,
        "serial pays the sum: {serial:?}"
    );
    assert!(
        parallel < serial / 2,
        "parallel fan-out should at least halve the wall clock: \
         serial {serial:?} vs parallel {parallel:?}"
    );
}
