//! Non-blocking multiplexed dispatcher: the one client of the control
//! channel. The master's lifecycle fan-outs and in-run calls, and every
//! blocking caller through [`NodeProxy`], are dispatches on it.
//!
//! The [`Reactor`] is a hand-rolled readiness loop on the *calling*
//! thread: every node link (in-memory registry or framed-TCP socket) is
//! driven as a small state machine, TCP sockets run non-blocking with
//! partial-write/partial-read resumption, and at most one wire operation
//! is in flight per link at a time (the per-node serialisation the paper's
//! node object provides with a lock, §VI-A). No poll/mio, no threads: one
//! sweep services every link that is ready and waits only when nothing
//! can progress — on the socket itself when a lone call awaits its
//! response — so a phase costs the same whether it reaches 2 nodes or
//! 1,000, and a single call is a dispatch of one.
//!
//! Every NodeManager has exactly one link, and each call travels on it as
//! an ordinary single-method frame. A keyed call (the master's) carries a
//! trailing `{__idem: key}` struct and is replayed, not re-executed, by
//! the server; an unkeyed call (a [`NodeProxy`]'s) carries exactly the
//! caller's parameters. In-memory links skip the XML wire format entirely
//! and dispatch against the registry, which is safe because
//! idempotency/dedup live in `ServerRegistry::dispatch` itself.
//!
//! Chaos and retry live here too. Each chaos-enabled node has one position
//! in its seeded schedule ([`crate::chaos`]), advanced once per attempt;
//! the verdict is drawn from the pure [`crate::chaos::fault_at`].
//! Retries follow one [`RetryPolicy`]: bounded attempts with exponential
//! backoff, only [`RpcError::is_retryable`] errors retried, and each retry
//! reuses the call's idempotency key so a replayed request is
//! exactly-once per node. Backoffs and chaos delays are deadlines inside
//! the loop, not sleeps — other nodes keep making progress while one
//! backs off.
//!
//! Every wire op that reaches a link records the client series a
//! transport would: `rpc_client_calls_total` and
//! `rpc_client_call_latency_ns` labelled `transport=memory|tcp`, plus
//! `rpc_client_errors_total` on failure. `rpc_client_bytes_*` count only
//! frames actually encoded, i.e. on TCP links.

use crate::chaos::{ChaosOptions, FaultAction, NodeSchedule};
use crate::error::RpcError;
use crate::message::{MethodCall, MethodResponse};
use crate::tcp::{TcpOptions, TcpTransport, MAX_FRAME_BYTES};
use crate::transport::{Channel, ClientObs, ServerRegistry, IDEMPOTENCY_MEMBER};
use crate::value::Value;
use excovery_obs::sync::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a reactor link terminates: an in-process registry or a framed-TCP
/// server (connected lazily or adopted already open, reconnected after
/// failures).
pub enum ReactorEndpoint {
    /// Shared server registry, dispatched synchronously in-process.
    Memory(Arc<Mutex<ServerRegistry>>),
    /// Framed-TCP server; `opts` supplies connect/call deadlines and the
    /// reconnect backoff.
    Tcp {
        /// Server socket address.
        addr: SocketAddr,
        /// Deadline and reconnect-backoff knobs.
        opts: TcpOptions,
    },
    /// Framed-TCP server whose first connection is already open; the link
    /// adopts the socket and behaves as [`ReactorEndpoint::Tcp`] after.
    TcpConnected(TcpTransport),
}

impl From<Channel> for ReactorEndpoint {
    fn from(channel: Channel) -> Self {
        Self::Memory(channel.server)
    }
}

impl From<TcpTransport> for ReactorEndpoint {
    fn from(transport: TcpTransport) -> Self {
        Self::TcpConnected(transport)
    }
}

/// Bounded retry policy for control-channel calls: the budget of every
/// [`Reactor::dispatch`].
///
/// A call is retried up to `max_attempts` times, under its one
/// idempotency key, on failures that [`RpcError::is_retryable`] classifies
/// as transient (timeouts, disconnects, I/O), with exponential backoff. Server faults and codec errors are never retried — repeating a
/// call the node *rejected* cannot succeed and would only mask the bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per logical call (first try included); minimum 1.
    pub max_attempts: u32,
    /// Wall-clock delay before the first retry.
    pub backoff_initial: Duration,
    /// Backoff ceiling; doubling stops here.
    pub backoff_max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_initial: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// A policy sized to outlast a chaos schedule: enough attempts to ride
    /// out `worst_window` consecutive failing calls, with fast backoff.
    pub fn for_chaos(worst_window: u64) -> Self {
        Self {
            max_attempts: u32::try_from(worst_window)
                .unwrap_or(u32::MAX)
                .saturating_add(6),
            backoff_initial: Duration::from_micros(100),
            backoff_max: Duration::from_millis(2),
        }
    }
}

/// One logical control call: target node, method, parameters and the
/// optional idempotency key reused across every retry of this call.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCall {
    /// Platform id of the target NodeManager.
    pub node_id: String,
    /// Procedure name.
    pub method: String,
    /// Parameters, without the trailing idempotency struct.
    pub params: Vec<Value>,
    /// Idempotency key (the master's `{run_id}:{epoch}:{seq}`). A keyed
    /// response is cached server-side, so a retry replays it; `None`
    /// sends the bare parameters, and such a call is dispatched with
    /// [`RetryPolicy::none`] because a retry could execute it twice.
    pub idem_key: Option<String>,
}

/// Result of one [`NodeCall`] after retries, aligned with the input order
/// of [`Reactor::dispatch`].
#[derive(Debug)]
pub struct DispatchOutcome {
    /// Platform id the call was addressed to.
    pub node_id: String,
    /// Final result after the retry budget.
    pub result: Result<Value, RpcError>,
    /// Transient failures absorbed by retry for this call.
    pub retries: u64,
    /// Wall time from dispatch start to this call's completion.
    pub duration_ns: u64,
}

enum Link {
    Memory(Arc<Mutex<ServerRegistry>>),
    /// Its `stream` is `None` until connected and after a failed exchange.
    Tcp(TcpTransport),
}

/// One NodeManager's link, its client series and its chaos schedule.
struct NodeLink {
    link: Link,
    obs: ClientObs,
    chaos: Option<NodeSchedule>,
}

/// The multiplexed dispatcher: one link per node, each with its own chaos
/// schedule, driven by [`Reactor::dispatch`] on the caller's thread.
pub struct Reactor {
    nodes: Vec<NodeLink>,
    index: HashMap<String, usize>,
}

enum Phase {
    Ready,
    Waiting(Instant),
    InFlight,
    Delayed {
        until: Instant,
        result: Result<Value, RpcError>,
    },
    Done(Result<Value, RpcError>),
}

struct CallState {
    attempts: u32,
    retries: u64,
    backoff: Duration,
    started: Instant,
    duration_ns: u64,
    phase: Phase,
}

struct WireOp {
    node: usize,
    /// When the op's first step ran — the start of its call latency. Set
    /// only while observability records (see [`ClientObs::start`]).
    started: Option<Instant>,
    /// Index of the call this op carries, in [`Reactor::dispatch`] input
    /// order.
    index: usize,
    /// The call's chaos verdict: only the wire-reaching `Pass`,
    /// `DropResponse` and `Delay` occur here.
    verdict: FaultAction,
    call: MethodCall,
    frame: Vec<u8>,
    sent: usize,
    /// Response bytes: the first `received` are read, the rest is room
    /// for the remainder of the frame once its header is in.
    in_buf: Vec<u8>,
    received: usize,
    deadline: Instant,
    connect_attempts: u32,
    connect_backoff: Duration,
    next_connect_at: Instant,
}

enum Step {
    Pending,
    Done(Result<MethodResponse, RpcError>),
}

fn finish(state: &mut CallState, result: Result<Value, RpcError>) {
    state.duration_ns = state.started.elapsed().as_nanos() as u64;
    state.phase = Phase::Done(result);
}

/// One attempt failed: retry retryable errors while budget remains,
/// otherwise the error is final.
fn fail_attempt(state: &mut CallState, method: &str, err: RpcError, retry: &RetryPolicy) {
    state.attempts += 1;
    if err.is_retryable() && state.attempts < retry.max_attempts.max(1) {
        state.retries += 1;
        if excovery_obs::enabled() {
            excovery_obs::global()
                .counter("rpc_client_retries_total", &[("method", method)])
                .inc();
        }
        state.phase = Phase::Waiting(Instant::now() + state.backoff);
        state.backoff = state.backoff.saturating_mul(2).min(retry.backoff_max);
    } else {
        finish(state, Err(err));
    }
}

fn settle_attempt(
    state: &mut CallState,
    method: &str,
    result: Result<Value, RpcError>,
    retry: &RetryPolicy,
) {
    match result {
        Ok(v) => finish(state, Ok(v)),
        Err(e) => fail_attempt(state, method, e, retry),
    }
}

fn apply_verdict(
    state: &mut CallState,
    method: &str,
    verdict: FaultAction,
    result: Result<Value, RpcError>,
    retry: &RetryPolicy,
) {
    match verdict {
        // The server executed; only the response is lost. The retry will
        // replay the recorded response under the same idempotency key.
        FaultAction::DropResponse => fail_attempt(
            state,
            method,
            RpcError::Timeout {
                method: method.to_string(),
                after_ms: 0,
            },
            retry,
        ),
        FaultAction::Delay(ms) => {
            state.phase = Phase::Delayed {
                until: Instant::now() + Duration::from_millis(ms),
                result,
            }
        }
        _ => settle_attempt(state, method, result, retry),
    }
}

/// Maps a parsed response into the caller-facing result, classifying
/// well-known fault codes via `From<Fault> for RpcError`.
fn response_to_result(response: MethodResponse) -> Result<Value, RpcError> {
    response.into_result().map_err(RpcError::from)
}

/// Total size (header included) of the frame whose first bytes are
/// `in_buf`, once its 4-byte length prefix is complete.
fn frame_size(in_buf: &[u8]) -> Option<usize> {
    let header: [u8; 4] = in_buf.get(..4)?.try_into().ok()?;
    Some(4 + u32::from_be_bytes(header) as usize)
}

/// Tries to decode one length-prefixed response frame from the read
/// buffer, counting its payload as received. `None` means more bytes are
/// needed.
fn decode_frame(in_buf: &[u8], obs: &ClientObs) -> Option<Step> {
    let len = (frame_size(in_buf)? - 4) as u32;
    if len > MAX_FRAME_BYTES {
        return Some(Step::Done(Err(RpcError::Codec(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )))));
    }
    let len = len as usize;
    if in_buf.len() < 4 + len {
        return None;
    }
    obs.add_bytes_received(len);
    Some(Step::Done(match std::str::from_utf8(&in_buf[4..4 + len]) {
        Ok(xml) => MethodResponse::from_xml(xml).map_err(|e| RpcError::Codec(e.to_string())),
        Err(_) => Err(RpcError::Codec("response frame is not UTF-8".into())),
    }))
}

/// Advances one wire op as far as it can go without blocking.
fn step_op(link: &mut Link, obs: &ClientObs, op: &mut WireOp, now: Instant) -> Step {
    // Ops of one sweep are stepped in turn and a memory op completes in
    // its first step, so its latency starts here, not when the op was made.
    if op.started.is_none() {
        op.started = obs.start();
    }
    let failed = |e| Step::Done(Err(e));
    let closed = || {
        failed(RpcError::Disconnected(
            "server closed the connection mid-call".into(),
        ))
    };
    match link {
        Link::Memory(registry) => Step::Done(Ok(registry.lock().dispatch(&op.call))),
        Link::Tcp(tcp) => {
            if now >= op.deadline {
                return failed(RpcError::Timeout {
                    method: op.call.method.clone(),
                    after_ms: tcp.opts.call_timeout.as_millis() as u64,
                });
            }
            if tcp.stream.is_none() {
                if now < op.next_connect_at {
                    return Step::Pending;
                }
                match tcp.open() {
                    Ok(s) => tcp.stream = Some(s),
                    Err(e) => {
                        op.connect_attempts += 1;
                        if op.connect_attempts >= tcp.opts.max_connect_attempts.max(1) {
                            return failed(tcp.unreachable(op.connect_attempts, e));
                        }
                        op.next_connect_at = now + op.connect_backoff;
                        op.connect_backoff = op
                            .connect_backoff
                            .saturating_mul(2)
                            .min(tcp.opts.backoff_max);
                        return Step::Pending;
                    }
                }
            }
            let addr = tcp.addr;
            let s = tcp.stream.as_mut().expect("stream just ensured");
            while op.sent < op.frame.len() {
                match s.write(&op.frame[op.sent..]) {
                    Ok(0) => return closed(),
                    Ok(n) => {
                        op.sent += n;
                        if op.sent == op.frame.len() {
                            obs.add_bytes_sent(op.frame.len() - 4);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Step::Pending,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => {
                        return failed(RpcError::Disconnected(format!("write to {addr}: {e}")))
                    }
                }
            }
            loop {
                // Header first, then the rest of the frame in one buffer:
                // a large response lands in as few reads as the socket
                // allows. `decode_frame` has refused an oversized header
                // before its length sizes the buffer.
                let want = frame_size(&op.in_buf[..op.received]).unwrap_or(4);
                if op.in_buf.len() < want {
                    op.in_buf.resize(want, 0);
                }
                match s.read(&mut op.in_buf[op.received..want]) {
                    Ok(0) => return closed(),
                    Ok(n) => {
                        op.received += n;
                        if let Some(step) = decode_frame(&op.in_buf[..op.received], obs) {
                            return step;
                        }
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        break
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => {
                        return failed(RpcError::Disconnected(format!("read from {addr}: {e}")))
                    }
                }
            }
            Step::Pending
        }
    }
}

impl Reactor {
    /// An empty reactor; add links with [`Reactor::add_node`].
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Registers a NodeManager's link with an optional per-node chaos
    /// schedule (drawn once per attempt).
    pub fn add_node(
        &mut self,
        node_id: impl Into<String>,
        endpoint: ReactorEndpoint,
        chaos: Option<ChaosOptions>,
    ) {
        let (link, transport) = match endpoint {
            ReactorEndpoint::Memory(registry) => (Link::Memory(registry), "memory"),
            ReactorEndpoint::Tcp { addr, opts } => {
                let stream = None;
                (Link::Tcp(TcpTransport { addr, opts, stream }), "tcp")
            }
            ReactorEndpoint::TcpConnected(t) => (Link::Tcp(t), "tcp"),
        };
        self.nodes.push(NodeLink {
            link,
            obs: ClientObs::new(transport),
            chaos: chaos.map(NodeSchedule::new),
        });
        self.index.insert(node_id.into(), self.nodes.len() - 1);
    }

    /// Nodes this reactor can reach, sorted.
    pub fn node_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.index.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Builds the wire op for call `index` on link `n`: the single-method
    /// frame, keyed if the call is (encoded only for TCP links).
    fn make_op(
        &self,
        n: usize,
        index: usize,
        verdict: FaultAction,
        c: &NodeCall,
        now: Instant,
    ) -> Result<WireOp, RpcError> {
        let mut params = c.params.clone();
        if let Some(key) = &c.idem_key {
            params.push(Value::Struct(vec![(
                IDEMPOTENCY_MEMBER.into(),
                Value::str(key.clone()),
            )]));
        }
        let call = MethodCall::new(c.method.clone(), params);
        let link = &self.nodes[n].link;
        let (frame, deadline, connect_backoff) = match link {
            // Memory ops complete synchronously on the next step; the
            // deadline is never consulted.
            Link::Memory(_) => (Vec::new(), now + Duration::from_secs(3600), Duration::ZERO),
            Link::Tcp(TcpTransport { opts, .. }) => {
                let xml = call.to_xml();
                if xml.len() as u64 > u64::from(MAX_FRAME_BYTES) {
                    return Err(RpcError::Codec(format!(
                        "request frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                        xml.len()
                    )));
                }
                let mut frame = Vec::with_capacity(4 + xml.len());
                frame.extend_from_slice(&(xml.len() as u32).to_be_bytes());
                frame.extend_from_slice(xml.as_bytes());
                (frame, now + opts.call_timeout, opts.backoff_initial)
            }
        };
        if excovery_obs::enabled() {
            let label = self.nodes[n].obs.transport;
            excovery_obs::global()
                .counter("rpc_reactor_wire_ops_total", &[("link", label)])
                .inc();
        }
        Ok(WireOp {
            node: n,
            started: None,
            index,
            verdict,
            call,
            frame,
            sent: 0,
            in_buf: Vec::new(),
            received: 0,
            deadline,
            connect_attempts: 0,
            connect_backoff,
            next_connect_at: now,
        })
    }

    /// Drives every call to completion and returns outcomes aligned with
    /// the input order. The whole fan-out runs on the calling thread; a
    /// sweep services every link that is ready and the loop waits only
    /// when no link, backoff or delay gate can progress: on the socket of
    /// a lone call awaiting its response, else in sleeps of ≤ 1 ms.
    pub fn dispatch(&mut self, calls: Vec<NodeCall>, retry: &RetryPolicy) -> Vec<DispatchOutcome> {
        let started = Instant::now();
        if excovery_obs::enabled() {
            excovery_obs::global()
                .counter("rpc_reactor_dispatches_total", &[])
                .inc();
        }
        let mut states: Vec<CallState> = calls
            .iter()
            .map(|_| CallState {
                attempts: 0,
                retries: 0,
                backoff: retry.backoff_initial,
                started,
                duration_ns: 0,
                phase: Phase::Ready,
            })
            .collect();
        // Each call's link, resolved once per dispatch.
        let links: Vec<Option<usize>> = calls
            .iter()
            .map(|c| self.index.get(&c.node_id).copied())
            .collect();
        for (i, call) in calls.iter().enumerate() {
            if links[i].is_none() {
                finish(
                    &mut states[i],
                    Err(RpcError::Io(format!(
                        "no NodeManager for '{}'",
                        call.node_id
                    ))),
                );
            }
        }
        let mut ops: Vec<WireOp> = Vec::new();
        let mut busy = vec![false; self.nodes.len()];

        loop {
            let mut progressed = false;
            let now = Instant::now();

            // Expired timers: backoffs become ready, delay gates deliver.
            for i in 0..states.len() {
                match &states[i].phase {
                    Phase::Waiting(until) if now >= *until => {
                        states[i].phase = Phase::Ready;
                        progressed = true;
                    }
                    Phase::Delayed { until, .. } if now >= *until => {
                        let Phase::Delayed { result, .. } =
                            std::mem::replace(&mut states[i].phase, Phase::Ready)
                        else {
                            unreachable!()
                        };
                        settle_attempt(&mut states[i], &calls[i].method, result, retry);
                        progressed = true;
                    }
                    _ => {}
                }
            }

            // Start new attempts in input order: each ready call whose link
            // is idle draws its chaos verdict (see [`NodeSchedule::draw`])
            // and, if that lets it reach the wire, goes in flight. One op
            // per link, so a second call to a busy node waits a sweep.
            for i in 0..calls.len() {
                let Some(n) = links[i] else { continue };
                if busy[n] || !matches!(states[i].phase, Phase::Ready) {
                    continue;
                }
                progressed = true;
                let verdict = match &mut self.nodes[n].chaos {
                    Some(schedule) => schedule.draw(&calls[i].method),
                    None => Ok(FaultAction::Pass),
                };
                match verdict.and_then(|v| self.make_op(n, i, v, &calls[i], now)) {
                    Ok(op) => {
                        states[i].phase = Phase::InFlight;
                        busy[n] = true;
                        ops.push(op);
                    }
                    Err(err) => fail_attempt(&mut states[i], &calls[i].method, err, retry),
                }
            }

            // Advance in-flight ops.
            let mut k = 0;
            while k < ops.len() {
                let n = ops[k].node;
                let node = &mut self.nodes[n];
                let Step::Done(result) = step_op(&mut node.link, &node.obs, &mut ops[k], now)
                else {
                    k += 1;
                    continue;
                };
                let op = ops.swap_remove(k);
                busy[n] = false;
                progressed = true;
                node.obs.observe_call(op.started, &result);
                let (i, method) = (op.index, &calls[op.index].method);
                match result {
                    Ok(response) => {
                        let result = response_to_result(response);
                        apply_verdict(&mut states[i], method, op.verdict, result, retry);
                    }
                    Err(err) => {
                        // Like TcpTransport: a failed exchange poisons the
                        // connection; reconnect lazily on the next attempt.
                        if let Link::Tcp(t) = &mut node.link {
                            t.stream = None;
                        }
                        fail_attempt(&mut states[i], method, err, retry);
                    }
                }
            }

            if states.iter().all(|s| matches!(s.phase, Phase::Done(_))) {
                break;
            }
            if !progressed {
                let timer = states
                    .iter()
                    .filter_map(|s| match &s.phase {
                        Phase::Waiting(until) | Phase::Delayed { until, .. } => Some(*until),
                        _ => None,
                    })
                    .min();
                // A lone op awaiting its response blocks on its socket
                // until the response, its deadline or the next timer:
                // nothing else can progress before then. Anything else
                // polls.
                let awaiting = match ops.as_slice() {
                    [op] if op.sent == op.frame.len() => match &self.nodes[op.node].link {
                        Link::Tcp(TcpTransport {
                            stream: Some(s), ..
                        }) => Some((s, op.deadline)),
                        _ => None,
                    },
                    _ => None,
                };
                let now = Instant::now();
                match awaiting {
                    Some((s, deadline)) => {
                        let wake = timer.map_or(deadline, |t| t.min(deadline));
                        wait_readable(s, wake.saturating_duration_since(now).max(MIN_PAUSE));
                    }
                    None => {
                        let wake = ops.iter().flat_map(|op| [op.deadline, op.next_connect_at]);
                        let pause = wake
                            .chain(timer)
                            .min()
                            .map_or(MAX_PAUSE, |w| w.saturating_duration_since(now));
                        std::thread::sleep(pause.clamp(MIN_PAUSE, MAX_PAUSE));
                    }
                }
            }
        }

        calls
            .into_iter()
            .zip(states)
            .map(|(call, state)| {
                let Phase::Done(result) = state.phase else {
                    unreachable!("dispatch loop exited with work pending")
                };
                DispatchOutcome {
                    node_id: call.node_id,
                    result,
                    retries: state.retries,
                    duration_ns: state.duration_ns,
                }
            })
            .collect()
    }
}

/// Shortest idle wait of one dispatch sweep, and longest polling sleep.
const MIN_PAUSE: Duration = Duration::from_micros(50);
const MAX_PAUSE: Duration = Duration::from_millis(1);

/// Blocks until `stream` has bytes (or end of stream) to read, or
/// `timeout` passes, then returns it to non-blocking mode.
fn wait_readable(stream: &TcpStream, timeout: Duration) {
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(timeout)).is_err() {
        std::thread::sleep(timeout.min(MAX_PAUSE));
    } else {
        let _ = stream.peek(&mut [0u8; 1]);
    }
    // Should this fail, the socket stays blocking under the read timeout
    // just set: reads still return within `timeout`.
    let _ = stream.set_nonblocking(true);
}

/// Master-side object representing one participating node (§VI-A): the
/// blocking client of the control channel.
///
/// A one-link [`Reactor`] behind the node lock, so concurrent experiment
/// process threads, fault threads and management actions cannot
/// interleave calls to the node. Each call is a single attempt and
/// carries no idempotency key: the handler sees exactly the caller's
/// parameters, and nothing is cached server-side.
pub struct NodeProxy {
    /// Node identifier (host name).
    pub node_id: String,
    reactor: Mutex<Reactor>,
}

impl NodeProxy {
    /// Creates a proxy for `node_id` over an in-memory [`Channel`] or an
    /// open [`TcpTransport`].
    pub fn new(node_id: impl Into<String>, endpoint: impl Into<ReactorEndpoint>) -> Self {
        let node_id = node_id.into();
        let mut reactor = Reactor::new();
        reactor.add_node(node_id.clone(), endpoint.into(), None);
        Self {
            node_id,
            reactor: Mutex::new(reactor),
        }
    }

    /// Calls a procedure on the node, holding the node lock for the
    /// duration of the call.
    pub fn call(&self, method: &str, params: Vec<Value>) -> Result<Value, RpcError> {
        let call = NodeCall {
            node_id: self.node_id.clone(),
            method: method.to_string(),
            params,
            idem_key: None,
        };
        let mut outcomes = self
            .reactor
            .lock()
            .dispatch(vec![call], &RetryPolicy::none());
        outcomes.pop().expect("one outcome per call").result
    }
}

impl Default for Reactor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counting_registry(count: Arc<AtomicU64>, tag: i32) -> Arc<Mutex<ServerRegistry>> {
        let mut reg = ServerRegistry::new();
        reg.register("run_init", move |params: &[Value]| {
            count.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Int(tag + params.len() as i32))
        });
        Arc::new(Mutex::new(reg))
    }

    fn call(node: &str, seq: u64) -> NodeCall {
        NodeCall {
            node_id: node.into(),
            method: "run_init".into(),
            params: vec![],
            idem_key: Some(format!("0:0:{seq}")),
        }
    }

    #[test]
    fn memory_fanout_returns_results_in_input_order() {
        let mut reactor = Reactor::new();
        let counts: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for (i, count) in counts.iter().enumerate() {
            reactor.add_node(
                format!("p{i}"),
                ReactorEndpoint::Memory(counting_registry(Arc::clone(count), i as i32 * 10)),
                None,
            );
        }
        let calls = vec![call("p2", 1), call("p0", 2), call("p1", 3)];
        let outcomes = reactor.dispatch(calls, &RetryPolicy::default());
        let got: Vec<(String, Value)> = outcomes
            .into_iter()
            .map(|o| (o.node_id, o.result.unwrap()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("p2".to_string(), Value::Int(20)),
                ("p0".to_string(), Value::Int(0)),
                ("p1".to_string(), Value::Int(10)),
            ]
        );
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn unknown_nodes_fail_without_touching_known_ones() {
        let mut reactor = Reactor::new();
        let count = Arc::new(AtomicU64::new(0));
        reactor.add_node(
            "p0",
            ReactorEndpoint::Memory(counting_registry(Arc::clone(&count), 0)),
            None,
        );
        let outcomes = reactor.dispatch(
            vec![call("ghost", 1), call("p0", 2)],
            &RetryPolicy::default(),
        );
        match &outcomes[0].result {
            Err(RpcError::Io(msg)) => assert!(msg.contains("ghost")),
            other => panic!("{other:?}"),
        }
        assert!(outcomes[1].result.is_ok());
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn crash_window_is_absorbed_by_retry_with_the_chaos_error_string() {
        let schedule = ChaosOptions {
            crash_windows: vec![(0, 1)],
            ..ChaosOptions::quiet(0)
        };
        // With retries: the crashed attempt is retried past the window.
        let count = Arc::new(AtomicU64::new(0));
        let mut reactor = Reactor::new();
        reactor.add_node(
            "p0",
            ReactorEndpoint::Memory(counting_registry(Arc::clone(&count), 0)),
            Some(schedule.clone()),
        );
        let outcomes = reactor.dispatch(vec![call("p0", 1)], &RetryPolicy::default());
        assert_eq!(outcomes[0].result.as_ref().unwrap(), &Value::Int(0));
        assert_eq!(outcomes[0].retries, 1);
        assert_eq!(count.load(Ordering::Relaxed), 1);

        // Without retries: the injected error is final and carries the
        // chaos wording.
        let mut reactor = Reactor::new();
        reactor.add_node(
            "p0",
            ReactorEndpoint::Memory(counting_registry(Arc::new(AtomicU64::new(0)), 0)),
            Some(schedule),
        );
        let outcomes = reactor.dispatch(vec![call("p0", 2)], &RetryPolicy::none());
        match &outcomes[0].result {
            Err(RpcError::Disconnected(msg)) => {
                assert!(msg.contains("chaos: node crashed"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crash_window_rejects_every_call_inside() {
        let count = Arc::new(AtomicU64::new(0));
        let mut reactor = Reactor::new();
        reactor.add_node(
            "p0",
            ReactorEndpoint::Memory(counting_registry(Arc::clone(&count), 0)),
            Some(ChaosOptions {
                crash_windows: vec![(2, 5)],
                ..ChaosOptions::quiet(3)
            }),
        );
        let outcomes: Vec<bool> = (0..7)
            .map(|seq| {
                let outcome = reactor.dispatch(vec![call("p0", seq)], &RetryPolicy::none());
                outcome[0].result.is_ok()
            })
            .collect();
        assert_eq!(outcomes, [true, true, false, false, false, true, true]);
        assert_eq!(
            count.load(Ordering::Relaxed),
            4,
            "crashed calls never execute"
        );
    }

    #[test]
    fn drop_response_executes_server_side_exactly_once() {
        // A seed whose first verdict is DropResponse, and nothing after it.
        let forced = |seed| ChaosOptions {
            seed,
            fault_rate: 1.0,
            horizon_calls: 1,
            crash_windows: Vec::new(),
            max_delay_ms: 0,
        };
        let seed = (0..10_000u64)
            .find(|s| crate::chaos::fault_at(&forced(*s), 0) == FaultAction::DropResponse)
            .expect("some seed yields DropResponse first");
        let count = Arc::new(AtomicU64::new(0));
        let mut reactor = Reactor::new();
        reactor.add_node(
            "p0",
            ReactorEndpoint::Memory(counting_registry(Arc::clone(&count), 0)),
            Some(forced(seed)),
        );
        // The server executes, but the caller sees a timeout.
        let lost = reactor.dispatch(vec![call("p0", 1)], &RetryPolicy::none());
        assert!(matches!(lost[0].result, Err(RpcError::Timeout { .. })));
        assert_eq!(count.load(Ordering::Relaxed), 1);
        // The retry reuses the key: the recorded response is replayed and
        // the procedure does not run again.
        let replayed = reactor.dispatch(vec![call("p0", 1)], &RetryPolicy::none());
        assert_eq!(replayed[0].result.as_ref().unwrap(), &Value::Int(0));
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn retry_budget_for_chaos_saturates_instead_of_truncating() {
        assert_eq!(RetryPolicy::for_chaos(10).max_attempts, 16);
        assert_eq!(RetryPolicy::for_chaos(1 << 32).max_attempts, u32::MAX);
        assert_eq!(RetryPolicy::for_chaos(u64::MAX).max_attempts, u32::MAX);
    }
}
