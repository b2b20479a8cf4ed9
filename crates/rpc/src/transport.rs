//! The dedicated control channel between master and nodes.
//!
//! A [`ServerRegistry`] holds the procedures a NodeManager exposes, and
//! its idempotent dispatch is what every client path relies on. The
//! ExperiMaster reaches registries only through [`crate::reactor`], which
//! dispatches in-process or over framed TCP itself.
//!
//! A [`Transport`] is the blocking, one-call-at-a-time client: it carries
//! serialized XML-RPC documents between a caller and a registry. Two
//! backends exist: the in-memory [`Channel`] (standing in for the
//! testbed's separate management network, §IV-A1) and the framed TCP
//! transport in [`crate::tcp`]. A [`NodeProxy`] wraps either with the
//! per-node locking the prototype uses ("a node object [...] uses locking
//! to allow only one access at a time", §VI-A). Their callers are the
//! experiment server's client (TCP), `NodeManager::spawn` (a proxy over a
//! `Channel`), the transport fault tests and the benchmark's round-trip
//! probes.

use crate::error::{RpcError, FAULT_INTERNAL_ERROR, FAULT_NO_SUCH_METHOD, FAULT_PARSE_ERROR};
use crate::message::{Fault, MethodCall, MethodResponse};
use crate::value::Value;
use excovery_obs::sync::Mutex;
use excovery_obs::{Counter, Histogram};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Client-side metric handles of one transport instance: calls, errors
/// by [`RpcError::kind_label`], per-call latency, and wire bytes.
/// Handles are resolved once at transport construction; recording is a
/// few relaxed atomics gated on the global observability toggle.
#[derive(Clone)]
pub(crate) struct ClientObs {
    transport: &'static str,
    calls: Counter,
    latency_ns: Histogram,
    bytes_sent: Counter,
    bytes_received: Counter,
}

impl ClientObs {
    pub(crate) fn new(transport: &'static str) -> Self {
        let reg = excovery_obs::global();
        let labels = [("transport", transport)];
        Self {
            transport,
            calls: reg.counter("rpc_client_calls_total", &labels),
            latency_ns: reg.histogram("rpc_client_call_latency_ns", &labels),
            bytes_sent: reg.counter("rpc_client_bytes_sent_total", &labels),
            bytes_received: reg.counter("rpc_client_bytes_received_total", &labels),
        }
    }

    /// Captures a start timestamp only while recording is on, so the
    /// disabled layer costs one branch here.
    pub(crate) fn start(&self) -> Option<Instant> {
        excovery_obs::enabled().then(Instant::now)
    }

    /// Records one completed call: count, latency (if a start timestamp
    /// was captured), and — on error — the per-kind error series.
    pub(crate) fn observe_call<T>(&self, started: Option<Instant>, result: &Result<T, RpcError>) {
        if !excovery_obs::enabled() {
            return;
        }
        self.calls.inc();
        if let Some(t0) = started {
            self.latency_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        if let Err(e) = result {
            // Error kinds are a bounded label set; the registry lookup
            // happens only on the (rare) error path.
            excovery_obs::global()
                .counter(
                    "rpc_client_errors_total",
                    &[("transport", self.transport), ("kind", e.kind_label())],
                )
                .inc();
        }
    }

    pub(crate) fn add_bytes_sent(&self, n: usize) {
        self.bytes_sent.add(n as u64);
    }

    pub(crate) fn add_bytes_received(&self, n: usize) {
        self.bytes_received.add(n as u64);
    }
}

/// A procedure handler.
pub type Handler = Box<dyn FnMut(&[Value]) -> Result<Value, Fault> + Send>;

/// Observer invoked for every dispatched call (wire tracing, node logs).
pub type CallObserver = Box<dyn FnMut(&MethodCall) + Send>;

/// One side of the control channel: sends a call, returns the response.
///
/// Implementations must be shareable across the master's experiment,
/// fault and management threads — all methods take `&self`.
pub trait Transport: Send + Sync {
    /// Performs one synchronous remote procedure call.
    fn call(&self, call: &MethodCall) -> Result<MethodResponse, RpcError>;

    /// Human-readable endpoint description (diagnostics).
    fn endpoint(&self) -> String {
        "memory".into()
    }

    /// Releases any underlying connection. Further calls may fail with
    /// [`RpcError::Disconnected`]. Default: nothing to release.
    fn close(&self) {}
}

/// Maps a parsed response into the caller-facing result, classifying
/// well-known fault codes via `From<Fault> for RpcError`.
pub fn response_to_result(response: MethodResponse) -> Result<Value, RpcError> {
    response.into_result().map_err(RpcError::from)
}

/// Reserved name of the trailing struct parameter carrying a caller-chosen
/// idempotency key. A client that retries a call reuses the key, and the
/// server replays the recorded response instead of executing the procedure
/// again — the contract that makes lost-response faults survivable.
pub const IDEMPOTENCY_MEMBER: &str = "__idem";

/// Bound on remembered responses per registry; oldest entries are evicted
/// first. Far larger than any plausible retry window.
const IDEMPOTENCY_CACHE_CAP: usize = 4096;

/// Registry of procedures exposed by one server (NodeManager).
pub struct ServerRegistry {
    handlers: HashMap<String, Handler>,
    observer: Option<CallObserver>,
    /// Response cache keyed by idempotency key, with FIFO eviction order.
    idem_cache: HashMap<String, MethodResponse>,
    idem_order: std::collections::VecDeque<String>,
    obs_dispatches: Counter,
    obs_idem_replays: Counter,
}

impl Default for ServerRegistry {
    fn default() -> Self {
        let reg = excovery_obs::global();
        Self {
            handlers: HashMap::new(),
            observer: None,
            idem_cache: HashMap::new(),
            idem_order: std::collections::VecDeque::new(),
            obs_dispatches: reg.counter("rpc_server_dispatches_total", &[]),
            obs_idem_replays: reg.counter("rpc_server_idem_replays_total", &[]),
        }
    }
}

/// Splits a trailing `{__idem: key}` struct parameter off a call, if
/// present. Returns the key and the call as the handler must see it.
fn split_idempotency(call: &MethodCall) -> (Option<String>, Option<MethodCall>) {
    if let Some(Value::Struct(members)) = call.params.last() {
        if let [(name, Value::String(key))] = members.as_slice() {
            if name == IDEMPOTENCY_MEMBER {
                let stripped = MethodCall::new(
                    call.method.clone(),
                    call.params[..call.params.len() - 1].to_vec(),
                );
                return (Some(key.clone()), Some(stripped));
            }
        }
    }
    (None, None)
}

impl ServerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `handler` under `name`, replacing any previous handler.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        handler: impl FnMut(&[Value]) -> Result<Value, Fault> + Send + 'static,
    ) {
        self.handlers.insert(name.into(), Box::new(handler));
    }

    /// Installs an observer invoked with every dispatched call — the hook
    /// NodeManagers use to keep their raw action log (`Logs` table).
    pub fn set_observer(&mut self, f: impl FnMut(&MethodCall) + Send + 'static) {
        self.observer = Some(Box::new(f));
    }

    /// Registered method names (sorted, for introspection).
    pub fn method_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.handlers.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Dispatches a parsed call. The XML-RPC introspection convention
    /// `system.listMethods` is answered built-in. A panicking handler is
    /// contained server-side and reported as an internal fault, so the
    /// registry (and every lock guarding it) stays usable afterwards.
    ///
    /// A call carrying a trailing `{__idem: key}` struct parameter is
    /// dispatched **at most once** per key: the response is recorded, and
    /// a repeat of the same key replays it without invoking the handler or
    /// the observer — a retried call that already executed (its response
    /// was lost in transit) leaves no second trace in the node's action
    /// log. The key parameter is stripped before the handler sees the
    /// arguments.
    pub fn dispatch(&mut self, call: &MethodCall) -> MethodResponse {
        let (idem_key, stripped) = split_idempotency(call);
        if let Some(key) = &idem_key {
            if let Some(replay) = self.idem_cache.get(key) {
                self.obs_idem_replays.inc();
                return replay.clone();
            }
        }
        let call = stripped.as_ref().unwrap_or(call);
        let response = self.dispatch_inner(call);
        if let Some(key) = idem_key {
            if self.idem_order.len() >= IDEMPOTENCY_CACHE_CAP {
                if let Some(evicted) = self.idem_order.pop_front() {
                    self.idem_cache.remove(&evicted);
                }
            }
            self.idem_order.push_back(key.clone());
            self.idem_cache.insert(key, response.clone());
        }
        response
    }

    fn dispatch_inner(&mut self, call: &MethodCall) -> MethodResponse {
        self.obs_dispatches.inc();
        if let Some(observer) = &mut self.observer {
            observer(call);
        }
        if call.method == "system.listMethods" {
            let names = self
                .method_names()
                .into_iter()
                .map(Value::str)
                .collect::<Vec<_>>();
            return MethodResponse::Success(Value::Array(names));
        }
        match self.handlers.get_mut(&call.method) {
            None => MethodResponse::Fault(Fault::new(
                FAULT_NO_SUCH_METHOD,
                format!("no such method: {}", call.method),
            )),
            Some(h) => match catch_unwind(AssertUnwindSafe(|| h(&call.params))) {
                Ok(Ok(v)) => MethodResponse::Success(v),
                Ok(Err(f)) => MethodResponse::Fault(f),
                Err(panic) => MethodResponse::Fault(Fault::new(
                    FAULT_INTERNAL_ERROR,
                    format!(
                        "handler '{}' panicked: {}",
                        call.method,
                        panic_message(panic.as_ref())
                    ),
                )),
            },
        }
    }

    /// Handles a raw XML request and produces a raw XML response — the full
    /// wire path of a real XML-RPC endpoint (shared by every transport).
    pub fn handle_wire(&mut self, request_xml: &str) -> String {
        match MethodCall::from_xml(request_xml) {
            Err(e) => {
                MethodResponse::Fault(Fault::new(FAULT_PARSE_ERROR, format!("parse error: {e}")))
                    .to_xml()
            }
            Ok(call) => self.dispatch(&call).to_xml(),
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "unknown panic payload"
    }
}

/// The in-memory control channel to one server.
///
/// Calls are serialized to XML, handed to the registry, and the response is
/// parsed back — byte-for-byte what a TCP transport would carry.
#[derive(Clone)]
pub struct Channel {
    server: Arc<Mutex<ServerRegistry>>,
    obs: ClientObs,
}

impl Channel {
    /// Wraps a registry into a channel endpoint.
    pub fn new(server: ServerRegistry) -> Self {
        Self {
            server: Arc::new(Mutex::new(server)),
            obs: ClientObs::new("memory"),
        }
    }

    /// Access to the server side (to register more procedures later, or
    /// to serve the same registry over another transport).
    pub fn server(&self) -> Arc<Mutex<ServerRegistry>> {
        Arc::clone(&self.server)
    }

    /// Performs a synchronous call over the wire format (convenience
    /// wrapper around the [`Transport`] impl).
    pub fn call(&self, method: &str, params: Vec<Value>) -> Result<Value, RpcError> {
        response_to_result(Transport::call(self, &MethodCall::new(method, params))?)
    }
}

impl Transport for Channel {
    fn call(&self, call: &MethodCall) -> Result<MethodResponse, RpcError> {
        let started = self.obs.start();
        let request = call.to_xml();
        self.obs.add_bytes_sent(request.len());
        let response_xml = self.server.lock().handle_wire(&request);
        self.obs.add_bytes_received(response_xml.len());
        let result =
            MethodResponse::from_xml(&response_xml).map_err(|e| RpcError::Codec(e.to_string()));
        self.obs.observe_call(started, &result);
        result
    }
}

/// Master-side object representing one participating node (§VI-A).
///
/// Serializes all access to the node with a lock so concurrent experiment
/// process threads, fault threads and management actions cannot interleave
/// calls to the same node. The lock is held only for the duration of one
/// call and is released cleanly on every outcome — error, timeout, or a
/// panic unwinding out of the transport — so one failed call can never
/// wedge subsequent calls to the node.
pub struct NodeProxy {
    /// Node identifier (host name).
    pub node_id: String,
    transport: Arc<dyn Transport>,
    lock: Mutex<()>,
}

impl NodeProxy {
    /// Creates a proxy for `node_id` over `transport`.
    pub fn new(node_id: impl Into<String>, transport: impl Transport + 'static) -> Self {
        Self::from_arc(node_id, Arc::new(transport))
    }

    /// Creates a proxy over an already-shared transport object.
    pub fn from_arc(node_id: impl Into<String>, transport: Arc<dyn Transport>) -> Self {
        Self {
            node_id: node_id.into(),
            transport,
            lock: Mutex::new(()),
        }
    }

    /// Calls a procedure with a caller-chosen idempotency key, appended as
    /// the trailing `{__idem: key}` struct parameter. A retry that reuses
    /// the key is deduplicated server-side (see
    /// [`ServerRegistry::dispatch`]): the recorded response is replayed
    /// and the procedure is not executed again.
    pub fn call_idempotent(
        &self,
        method: &str,
        mut params: Vec<Value>,
        key: &str,
    ) -> Result<Value, RpcError> {
        params.push(Value::Struct(vec![(
            IDEMPOTENCY_MEMBER.into(),
            Value::str(key),
        )]));
        self.call(method, params)
    }

    /// Calls a procedure on the node, holding the node lock for the
    /// duration of the call. A transport that panics is contained here
    /// and surfaces as [`RpcError::Io`]; the node lock is released either
    /// way (it does not poison).
    pub fn call(&self, method: &str, params: Vec<Value>) -> Result<Value, RpcError> {
        let _guard = self.lock.lock();
        let call = MethodCall::new(method, params);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.transport.call(&call)));
        match outcome {
            Ok(result) => response_to_result(result?),
            Err(panic) => Err(RpcError::Io(format!(
                "transport panicked during '{}': {}",
                method,
                panic_message(panic.as_ref())
            ))),
        }
    }

    /// Endpoint description of the underlying transport.
    pub fn endpoint(&self) -> String {
        self.transport.endpoint()
    }

    /// Closes the underlying transport.
    pub fn close(&self) {
        self.transport.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn echo_registry() -> ServerRegistry {
        let mut reg = ServerRegistry::new();
        reg.register("echo", |params| Ok(Value::Array(params.to_vec())));
        reg.register("add", |params| {
            let a = params
                .first()
                .and_then(Value::as_int)
                .ok_or_else(|| Fault::new(1, "missing a"))?;
            let b = params
                .get(1)
                .and_then(Value::as_int)
                .ok_or_else(|| Fault::new(1, "missing b"))?;
            Ok(Value::Int(a + b))
        });
        reg.register("fail", |_| Err(Fault::new(99, "intentional")));
        reg
    }

    #[test]
    fn call_roundtrips_through_wire_format() {
        let ch = Channel::new(echo_registry());
        let result = ch
            .call("echo", vec![Value::str("x"), Value::Int(2)])
            .unwrap();
        assert_eq!(result, Value::Array(vec![Value::str("x"), Value::Int(2)]));
    }

    #[test]
    fn add_and_fault_paths() {
        let ch = Channel::new(echo_registry());
        assert_eq!(
            ch.call("add", vec![Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(5)
        );
        match ch.call("add", vec![Value::Int(2)]) {
            Err(RpcError::Fault(f)) => assert_eq!(f.code, 1),
            other => panic!("{other:?}"),
        }
        match ch.call("fail", vec![]) {
            Err(RpcError::Fault(f)) => assert_eq!(f.message, "intentional"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_method_is_distinguished() {
        let ch = Channel::new(echo_registry());
        match ch.call("nope", vec![]) {
            Err(RpcError::NoSuchMethod(m)) => assert!(m.contains("nope")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn handlers_can_be_stateful() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let mut reg = ServerRegistry::new();
        reg.register("bump", move |_| {
            Ok(Value::Int(c2.fetch_add(1, Ordering::SeqCst) as i32))
        });
        let ch = Channel::new(reg);
        assert_eq!(ch.call("bump", vec![]).unwrap(), Value::Int(0));
        assert_eq!(ch.call("bump", vec![]).unwrap(), Value::Int(1));
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn registry_introspection() {
        let reg = echo_registry();
        assert_eq!(reg.method_names(), vec!["add", "echo", "fail"]);
    }

    #[test]
    fn observer_sees_every_dispatch() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let mut reg = echo_registry();
        reg.set_observer(move |call| s2.lock().push(call.method.clone()));
        let ch = Channel::new(reg);
        ch.call("echo", vec![]).unwrap();
        let _ = ch.call("nope", vec![]);
        ch.call("system.listMethods", vec![]).unwrap();
        assert_eq!(*seen.lock(), vec!["echo", "nope", "system.listMethods"]);
    }

    #[test]
    fn system_list_methods_over_the_wire() {
        let ch = Channel::new(echo_registry());
        let v = ch.call("system.listMethods", vec![]).unwrap();
        let names: Vec<&str> = v
            .as_array()
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(names, vec!["add", "echo", "fail"]);
    }

    #[test]
    fn handle_wire_reports_parse_errors_as_fault() {
        let mut reg = echo_registry();
        let resp = reg.handle_wire("this is not xml");
        let parsed = MethodResponse::from_xml(&resp).unwrap();
        match parsed {
            MethodResponse::Fault(f) => assert_eq!(f.code, FAULT_PARSE_ERROR),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idempotent_calls_execute_at_most_once_per_key() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let mut reg = ServerRegistry::new();
        reg.register("bump", move |_| {
            Ok(Value::Int(c2.fetch_add(1, Ordering::SeqCst) as i32))
        });
        let proxy = NodeProxy::new("t9-105", Channel::new(reg));
        // Same key: executed once, identical response replayed.
        assert_eq!(
            proxy.call_idempotent("bump", vec![], "0:0:1").unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            proxy.call_idempotent("bump", vec![], "0:0:1").unwrap(),
            Value::Int(0),
            "retry must replay, not re-execute"
        );
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        // A fresh key executes again.
        assert_eq!(
            proxy.call_idempotent("bump", vec![], "0:0:2").unwrap(),
            Value::Int(1)
        );
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn idempotency_key_is_stripped_and_replay_skips_the_observer() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let mut reg = ServerRegistry::new();
        reg.register("echo", |params| Ok(Value::Array(params.to_vec())));
        reg.set_observer(move |call| s2.lock().push(call.params.len()));
        let proxy = NodeProxy::new("t9-105", Channel::new(reg));
        let first = proxy
            .call_idempotent("echo", vec![Value::Int(7)], "k")
            .unwrap();
        // The handler never sees the trailing key struct.
        assert_eq!(first, Value::Array(vec![Value::Int(7)]));
        let replay = proxy
            .call_idempotent("echo", vec![Value::Int(7)], "k")
            .unwrap();
        assert_eq!(replay, first);
        // One observer entry with the stripped arity: the action log is
        // identical to a fault-free execution.
        assert_eq!(*seen.lock(), vec![1]);
    }

    #[test]
    fn idempotent_faults_are_replayed_too() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let mut reg = ServerRegistry::new();
        reg.register("flaky", move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
            Err(Fault::new(99, "always fails"))
        });
        let proxy = NodeProxy::new("t9-105", Channel::new(reg));
        for _ in 0..3 {
            match proxy.call_idempotent("flaky", vec![], "k1") {
                Err(RpcError::Fault(f)) => assert_eq!(f.code, 99),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            counter.load(Ordering::SeqCst),
            1,
            "a recorded fault is a recorded outcome"
        );
    }

    #[test]
    fn idempotency_cache_evicts_oldest_first() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let mut reg = ServerRegistry::new();
        reg.register("bump", move |_| {
            Ok(Value::Int(c2.fetch_add(1, Ordering::SeqCst) as i32))
        });
        let proxy = NodeProxy::new("t9-105", Channel::new(reg));
        for i in 0..=IDEMPOTENCY_CACHE_CAP {
            proxy
                .call_idempotent("bump", vec![], &format!("k{i}"))
                .unwrap();
        }
        // Key k0 was evicted to admit the CAP+1st entry: replaying it
        // executes again. A recent key still replays.
        let executed = counter.load(Ordering::SeqCst);
        proxy.call_idempotent("bump", vec![], "k1").unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), executed);
        proxy.call_idempotent("bump", vec![], "k0").unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), executed + 1);
    }

    #[test]
    fn plain_struct_params_are_not_mistaken_for_keys() {
        let mut reg = ServerRegistry::new();
        reg.register("echo", |params| Ok(Value::Array(params.to_vec())));
        let ch = Channel::new(reg);
        // A genuine trailing struct with a different member name passes
        // through untouched.
        let spec = Value::Struct(vec![("kind".into(), Value::str("interface"))]);
        let got = ch.call("echo", vec![spec.clone()]).unwrap();
        assert_eq!(got, Value::Array(vec![spec]));
    }

    #[test]
    fn node_proxy_serializes_access() {
        // Handler records max concurrent entries; proxy lock must keep it 1.
        let inside = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let (i2, m2) = (Arc::clone(&inside), Arc::clone(&max_seen));
        let mut reg = ServerRegistry::new();
        reg.register("slow", move |_| {
            let now = i2.fetch_add(1, Ordering::SeqCst) + 1;
            m2.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            i2.fetch_sub(1, Ordering::SeqCst);
            Ok(Value::Bool(true))
        });
        let proxy = Arc::new(NodeProxy::new("t9-105", Channel::new(reg)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = Arc::clone(&proxy);
            handles.push(std::thread::spawn(move || {
                p.call("slow", vec![]).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "node lock must serialize calls"
        );
    }

    #[test]
    fn channel_clone_shares_server() {
        let ch = Channel::new(ServerRegistry::new());
        ch.server()
            .lock()
            .register("ping", |_| Ok(Value::str("pong")));
        let ch2 = ch.clone();
        assert_eq!(ch2.call("ping", vec![]).unwrap(), Value::str("pong"));
    }

    #[test]
    fn panicking_handler_is_contained_as_internal_fault() {
        let mut reg = echo_registry();
        reg.register("explode", |_| panic!("kaboom"));
        let proxy = NodeProxy::new("t9-105", Channel::new(reg));
        match proxy.call("explode", vec![]) {
            Err(RpcError::Fault(f)) => {
                assert_eq!(f.code, FAULT_INTERNAL_ERROR);
                assert!(f.message.contains("kaboom"), "{}", f.message);
            }
            other => panic!("{other:?}"),
        }
        // The failed call released both the node lock and the registry
        // lock: subsequent calls on the same proxy still work.
        assert_eq!(
            proxy
                .call("add", vec![Value::Int(1), Value::Int(2)])
                .unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn panicking_transport_releases_the_node_lock() {
        struct Bomb {
            armed: std::sync::atomic::AtomicBool,
            inner: Channel,
        }
        impl Transport for Bomb {
            fn call(&self, call: &MethodCall) -> Result<MethodResponse, RpcError> {
                if self.armed.swap(false, Ordering::SeqCst) {
                    panic!("wire melted");
                }
                Transport::call(&self.inner, call)
            }
        }
        let bomb = Bomb {
            armed: std::sync::atomic::AtomicBool::new(true),
            inner: Channel::new(echo_registry()),
        };
        let proxy = NodeProxy::new("t9-105", bomb);
        match proxy.call("echo", vec![]) {
            Err(RpcError::Io(m)) => assert!(m.contains("wire melted"), "{m}"),
            other => panic!("{other:?}"),
        }
        // The poisoned first call must not wedge the per-node lock.
        proxy.call("echo", vec![Value::Int(7)]).unwrap();
    }

    #[test]
    fn transport_object_is_usable_behind_dyn() {
        let t: Arc<dyn Transport> = Arc::new(Channel::new(echo_registry()));
        let proxy = NodeProxy::from_arc("t9-105", Arc::clone(&t));
        assert_eq!(proxy.endpoint(), "memory");
        let resp = t
            .call(&MethodCall::new("add", vec![Value::Int(4), Value::Int(5)]))
            .unwrap();
        assert_eq!(response_to_result(resp).unwrap(), Value::Int(9));
        proxy.close();
    }
}
