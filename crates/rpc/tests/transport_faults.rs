//! Fault-path and concurrency tests for the reactor's TCP link — the link
//! the master's `--transport tcp` campaigns and the experiment server's
//! client both use.
//!
//! An in-memory link can not lose bytes or stall, so everything here
//! drives real sockets: deadlines that actually elapse, servers that
//! vanish mid-call, peers that speak garbage, the server refusing a
//! request that is not UTF-8, and the fan-out the engine relies on. Most
//! cases go through [`NodeProxy`], the blocking one-link client; the
//! fan-out is a [`Reactor::dispatch`] over eight servers.

use excovery_obs::sync::Mutex;
use excovery_rpc::tcp::{TcpOptions, TcpRpcServer, TcpTransport};
use excovery_rpc::{
    Channel, Fault, MethodCall, MethodResponse, NodeCall, NodeProxy, Reactor, ReactorEndpoint,
    RetryPolicy, RpcError, ServerRegistry, Value, FAULT_PARSE_ERROR,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
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
        if read_raw_frame(&mut stream).is_none() {
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

fn read_raw_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).ok()?;
    let mut body = vec![0u8; u32::from_be_bytes(header) as usize];
    stream.read_exact(&mut body).ok()?;
    Some(body)
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

#[test]
fn roundtrip_over_real_sockets() {
    let reg = shared({
        let mut r = ServerRegistry::new();
        r.register("echo", |params| Ok(Value::Array(params.to_vec())));
        r.register("fail", |_| Err(Fault::new(7, "nope")));
        r
    });
    let server = TcpRpcServer::bind("127.0.0.1:0", reg).unwrap();
    let t = TcpTransport::connect(server.local_addr(), TcpOptions::default()).unwrap();
    let proxy = NodeProxy::new("n0", t);
    let v = proxy
        .call("echo", vec![Value::Int(41), Value::str("x")])
        .unwrap();
    assert_eq!(v, Value::Array(vec![Value::Int(41), Value::str("x")]));
    // Faults travel as responses, not transport errors.
    match proxy.call("fail", vec![]) {
        Err(RpcError::Fault(f)) => assert_eq!(f.code, 7),
        other => panic!("{other:?}"),
    }
    // The connection survived the fault.
    proxy.call("echo", vec![]).unwrap();
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
fn non_utf8_request_is_refused_without_dispatch() {
    let executed = Arc::new(AtomicUsize::new(0));
    let observed = Arc::new(AtomicUsize::new(0));
    let reg = shared({
        let (e2, o2) = (Arc::clone(&executed), Arc::clone(&observed));
        let mut r = ServerRegistry::new();
        r.register("echo", move |params| {
            e2.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Array(params.to_vec()))
        });
        r.set_observer(move |_, _| {
            o2.fetch_add(1, Ordering::SeqCst);
        });
        r
    });
    let server = TcpRpcServer::bind("127.0.0.1:0", reg).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A well-formed call whose string argument holds the bytes FF FE.
    let xml = MethodCall::new("echo", vec![Value::str("aXYb")]).to_xml();
    let mut request = xml.into_bytes();
    let at = request.windows(2).position(|w| w == b"XY").unwrap();
    request[at..at + 2].copy_from_slice(&[0xFF, 0xFE]);
    stream.write_all(&frame(&request)).unwrap();

    let response = read_raw_frame(&mut stream).expect("the server answers");
    match MethodResponse::from_xml(std::str::from_utf8(&response).unwrap()).unwrap() {
        MethodResponse::Fault(f) => assert_eq!(f.code, FAULT_PARSE_ERROR, "{}", f.message),
        other => panic!("expected a parse fault, got {other:?}"),
    }
    assert_eq!(executed.load(Ordering::SeqCst), 0, "the handler never ran");
    assert_eq!(
        observed.load(Ordering::SeqCst),
        0,
        "nothing reached the log"
    );
}

#[test]
fn blocking_client_calls_carry_no_idempotency_key() {
    // Every dispatched call's parameters, as the registry observer sees them.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let executed = Arc::new(AtomicUsize::new(0));
    let registry = || {
        let (s2, e2) = (Arc::clone(&seen), Arc::clone(&executed));
        let mut r = ServerRegistry::new();
        r.register("bump", move |_| {
            Ok(Value::Int(e2.fetch_add(1, Ordering::SeqCst) as i32))
        });
        r.set_observer(move |_, params| s2.lock().push(params.to_vec()));
        r
    };
    let server = TcpRpcServer::bind("127.0.0.1:0", shared(registry())).unwrap();
    let tcp = NodeProxy::new(
        "tcp",
        TcpTransport::connect(server.local_addr(), fast_opts()).unwrap(),
    );
    let memory = NodeProxy::new("memory", Channel::new(registry()));
    let params = vec![Value::Int(7), Value::str("x")];
    for proxy in [&tcp, &memory] {
        // Two identical calls both execute: neither is a replay.
        assert_eq!(proxy.call("bump", params.clone()).unwrap(), Value::Int(0));
        assert_eq!(proxy.call("bump", params.clone()).unwrap(), Value::Int(1));
        executed.store(0, Ordering::SeqCst);
    }
    // The handler saw exactly the caller's parameters, with no trailing
    // `{__idem: key}` struct.
    assert_eq!(*seen.lock(), vec![params; 4]);
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

    // Rebind the same address and call again: the link reconnects.
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

/// Serial-vs-fan-out dispatch over eight nodes with slow procedures.
///
/// This is the micro-version of the engine's lifecycle fan-out: eight
/// real TCP servers whose handler sleeps ~20 ms. Eight dispatches of one
/// cost the sum (≥160 ms); one dispatch of eight costs roughly the max.
/// The generous assertion bound keeps the test robust on loaded CI.
#[test]
fn tcp_fanout_beats_serial_dispatch_on_eight_nodes() {
    const NODES: usize = 8;
    const WORK: Duration = Duration::from_millis(20);

    let mut servers = Vec::new();
    let mut reactor = Reactor::new();
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
        let endpoint = ReactorEndpoint::Tcp {
            addr: server.local_addr(),
            opts: TcpOptions::default(),
        };
        reactor.add_node(endpoint, None);
        servers.push(server);
    }
    let calls: Vec<NodeCall> = (0..NODES)
        .map(|link| NodeCall {
            link,
            method: "slow_ping",
            params: &[],
            idem_key: None,
        })
        .collect();
    let retry = RetryPolicy::none();

    let serial_start = Instant::now();
    for call in &calls {
        let outcome = reactor
            .dispatch(std::slice::from_ref(call), &retry)
            .remove(0);
        outcome.result.unwrap();
    }
    let serial = serial_start.elapsed();

    let fanout_start = Instant::now();
    let outcomes = reactor.dispatch(&calls, &retry);
    let fanout = fanout_start.elapsed();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        assert_eq!(outcome.result.unwrap(), Value::Int(i as i32));
    }

    eprintln!("8-node dispatch: serial {serial:?}, fan-out {fanout:?}");
    assert!(
        serial >= WORK * NODES as u32,
        "serial pays the sum: {serial:?}"
    );
    assert!(
        fanout < serial / 2,
        "the fan-out should at least halve the wall clock: \
         serial {serial:?} vs fan-out {fanout:?}"
    );
}

#[test]
fn connect_to_nothing_reports_disconnected_after_backoff() {
    // Port 1 on localhost: nothing listens there.
    let opts = TcpOptions {
        max_connect_attempts: 3,
        backoff_initial: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        connect_timeout: Duration::from_millis(200),
        ..TcpOptions::default()
    };
    let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let started = Instant::now();
    match TcpTransport::connect(addr, opts.clone()) {
        Err(RpcError::Disconnected(m)) => assert!(m.contains("3 attempts"), "{m}"),
        Err(other) => panic!("{other:?}"),
        Ok(_) => panic!("connected to a closed port"),
    }
    // A lazily connecting link gives up the same way.
    let mut reactor = Reactor::new();
    reactor.add_node(ReactorEndpoint::Tcp { addr, opts }, None);
    let call = NodeCall {
        link: 0,
        method: "ping",
        params: &[],
        idem_key: None,
    };
    match reactor
        .dispatch(&[call], &RetryPolicy::none())
        .remove(0)
        .result
    {
        Err(RpcError::Disconnected(m)) => assert!(m.contains("3 attempts"), "{m}"),
        other => panic!("{other:?}"),
    }
    // Backoff is bounded: milliseconds of sleeping, not seconds.
    assert!(started.elapsed() < Duration::from_secs(2));
}
