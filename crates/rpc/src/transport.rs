//! The NodeManager's side of the control channel, plus the in-memory
//! endpoint.
//!
//! A [`ServerRegistry`] holds the procedures a NodeManager exposes, and
//! its idempotent dispatch is what every client path relies on. Clients
//! reach registries only through [`crate::reactor`], which dispatches
//! in-process or over framed TCP itself; `ClientObs` is the client
//! series each reactor link records.
//!
//! A [`Channel`] is the in-memory endpoint (standing in for the testbed's
//! separate management network, §IV-A1): a [`NodeProxy`] over it is a
//! reactor memory link, and [`Channel::call`] is one XML round trip
//! through [`ServerRegistry::handle_wire`].
//!
//! [`NodeProxy`]: crate::reactor::NodeProxy

use crate::error::{RpcError, FAULT_INTERNAL_ERROR, FAULT_NO_SUCH_METHOD, FAULT_PARSE_ERROR};
use crate::message::{Fault, MethodCall, MethodResponse};
use crate::value::Value;
use excovery_obs::sync::Mutex;
use excovery_obs::{Counter, Histogram};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Client-side metric handles of one reactor link: calls, errors by
/// [`RpcError::kind_label`], per-call latency, and wire bytes. Handles
/// are resolved once when the link is added; recording is a few relaxed
/// atomics gated on the global observability toggle.
#[derive(Clone)]
pub(crate) struct ClientObs {
    /// The link kind, `memory` or `tcp`.
    pub(crate) transport: &'static str,
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
fn split_idempotency(call: &MethodCall) -> Option<(String, MethodCall)> {
    let (Value::Struct(members), params) = call.params.split_last()? else {
        return None;
    };
    match members.as_slice() {
        [(name, Value::String(key))] if name == IDEMPOTENCY_MEMBER => Some((
            key.clone(),
            MethodCall::new(call.method.clone(), params.to_vec()),
        )),
        _ => None,
    }
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
        let Some((key, stripped)) = split_idempotency(call) else {
            return self.dispatch_inner(call);
        };
        if let Some(replay) = self.idem_cache.get(&key) {
            self.obs_idem_replays.inc();
            return replay.clone();
        }
        let response = self.dispatch_inner(&stripped);
        if self.idem_order.len() >= IDEMPOTENCY_CACHE_CAP {
            if let Some(evicted) = self.idem_order.pop_front() {
                self.idem_cache.remove(&evicted);
            }
        }
        self.idem_order.push_back(key.clone());
        self.idem_cache.insert(key, response.clone());
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
    /// wire path of a real XML-RPC endpoint (the TCP server's and
    /// [`Channel::call`]'s).
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

/// The in-memory endpoint of one server.
///
/// [`Channel::call`] serializes the call to XML, hands the document to the
/// registry, and parses the response back — byte-for-byte what a TCP link
/// carries. A [`NodeProxy`] over a channel skips the XML and dispatches
/// the parsed call, like every reactor memory link.
///
/// [`NodeProxy`]: crate::reactor::NodeProxy
#[derive(Clone)]
pub struct Channel {
    pub(crate) server: Arc<Mutex<ServerRegistry>>,
}

impl Channel {
    /// Wraps a registry into a channel endpoint.
    pub fn new(server: ServerRegistry) -> Self {
        Self {
            server: Arc::new(Mutex::new(server)),
        }
    }

    /// Access to the server side (to register more procedures later, or
    /// to serve the same registry over another transport).
    pub fn server(&self) -> Arc<Mutex<ServerRegistry>> {
        Arc::clone(&self.server)
    }

    /// Performs a synchronous call over the wire format.
    pub fn call(&self, method: &str, params: Vec<Value>) -> Result<Value, RpcError> {
        let request = MethodCall::new(method, params).to_xml();
        let response = self.server.lock().handle_wire(&request);
        MethodResponse::from_xml(&response)
            .map_err(|e| RpcError::Codec(e.to_string()))?
            .into_result()
            .map_err(RpcError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::NodeProxy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `params` plus the trailing `{__idem: key}` struct of a keyed call.
    fn keyed(mut params: Vec<Value>, key: &str) -> Vec<Value> {
        params.push(Value::Struct(vec![(
            IDEMPOTENCY_MEMBER.into(),
            Value::str(key),
        )]));
        params
    }

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
        let ch = Channel::new(reg);
        // Same key: executed once, identical response replayed.
        assert_eq!(
            ch.call("bump", keyed(vec![], "0:0:1")).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            ch.call("bump", keyed(vec![], "0:0:1")).unwrap(),
            Value::Int(0),
            "retry must replay, not re-execute"
        );
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        // A fresh key executes again.
        assert_eq!(
            ch.call("bump", keyed(vec![], "0:0:2")).unwrap(),
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
        let ch = Channel::new(reg);
        let first = ch.call("echo", keyed(vec![Value::Int(7)], "k")).unwrap();
        // The handler never sees the trailing key struct.
        assert_eq!(first, Value::Array(vec![Value::Int(7)]));
        let replay = ch.call("echo", keyed(vec![Value::Int(7)], "k")).unwrap();
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
        let ch = Channel::new(reg);
        for _ in 0..3 {
            match ch.call("flaky", keyed(vec![], "k1")) {
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
        let ch = Channel::new(reg);
        for i in 0..=IDEMPOTENCY_CACHE_CAP {
            ch.call("bump", keyed(vec![], &format!("k{i}"))).unwrap();
        }
        // Key k0 was evicted to admit the CAP+1st entry: replaying it
        // executes again. A recent key still replays.
        let executed = counter.load(Ordering::SeqCst);
        ch.call("bump", keyed(vec![], "k1")).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), executed);
        ch.call("bump", keyed(vec![], "k0")).unwrap();
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
}
