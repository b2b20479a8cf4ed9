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
//! Every NodeManager has exactly one link. A keyed call (the master's)
//! is replayed, not re-executed, by the server; an unkeyed call (a
//! [`NodeProxy`]'s) carries exactly the caller's parameters. On a TCP link
//! a call travels as an ordinary single-method frame, its key as a
//! trailing `{__idem: "run:epoch:seq"}` struct. In-memory links skip the
//! XML wire format entirely and hand the registry the method, the key and
//! the borrowed parameters, which is safe because idempotency/dedup live
//! in the registry itself.
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
use crate::message::{call_xml, MethodResponse};
use crate::tcp::{TcpOptions, TcpTransport, MAX_FRAME_BYTES};
use crate::transport::{Channel, ClientObs, IdemKey, ServerRegistry, IDEMPOTENCY_MEMBER};
use crate::value::Value;
use excovery_obs::sync::Mutex;
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

/// One logical control call: target link, method, parameters and the
/// optional idempotency key reused across every retry of this call.
///
/// A call borrows what it carries. A memory link hands the method, the
/// parameters and the key to the registry as they are; only a TCP link
/// encodes them, with the key as a trailing `{__idem: "run:epoch:seq"}`
/// struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCall<'a> {
    /// The target NodeManager's link, as [`Reactor::add_node`] numbered it.
    pub link: usize,
    /// Procedure name.
    pub method: &'a str,
    /// Parameters, without the idempotency key.
    pub params: &'a [Value],
    /// Idempotency key. A keyed call is executed at most once per key, so
    /// a retry of a call whose response was lost replays it; `None` sends
    /// the bare parameters, and such a call is dispatched with
    /// [`RetryPolicy::none`] because a retry could execute it twice.
    pub idem_key: Option<IdemKey>,
}

/// Result of one [`NodeCall`] after retries, aligned with the input order
/// of [`Reactor::dispatch`].
#[derive(Debug)]
pub struct DispatchOutcome {
    /// Final result after the retry budget.
    pub result: Result<Value, RpcError>,
    /// Transient failures absorbed by retry for this call.
    pub retries: u64,
    /// Wall time from dispatch start to this call's completion, measured
    /// only while observability records (0 otherwise).
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
    // The per-dispatch state, kept between dispatches so that a call
    // allocates only for what it carries: one entry per call, one busy
    // flag per link, and the wire ops in flight.
    states: Vec<CallState>,
    busy: Vec<bool>,
    ops: Vec<WireOp>,
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
    /// The exchange on a TCP link; a memory op has none.
    wire: Option<Exchange>,
}

/// One framed request and its response on a TCP link.
struct Exchange {
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
    /// The exchange ended: the response, or `None` where a memory link
    /// knew it was lost and the registry recorded it instead.
    Done(Result<Option<MethodResponse>, RpcError>),
}

/// The clock of one dispatch sweep, read on first use: a sweep over
/// memory links with no timer pending reads none.
#[derive(Default)]
struct SweepClock(Option<Instant>);

impl SweepClock {
    fn now(&mut self) -> Instant {
        *self.0.get_or_insert_with(Instant::now)
    }
}

fn finish(state: &mut CallState, started: Option<Instant>, result: Result<Value, RpcError>) {
    if let Some(t0) = started {
        state.duration_ns = t0.elapsed().as_nanos() as u64;
    }
    state.phase = Phase::Done(result);
}

/// One attempt failed: retry retryable errors while budget remains,
/// otherwise the error is final.
fn fail_attempt(
    state: &mut CallState,
    started: Option<Instant>,
    method: &str,
    err: RpcError,
    retry: &RetryPolicy,
) {
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
        finish(state, started, Err(err));
    }
}

fn settle_attempt(
    state: &mut CallState,
    started: Option<Instant>,
    method: &str,
    result: Result<Value, RpcError>,
    retry: &RetryPolicy,
) {
    match result {
        Ok(v) => finish(state, started, Ok(v)),
        Err(e) => fail_attempt(state, started, method, e, retry),
    }
}

fn apply_verdict(
    state: &mut CallState,
    started: Option<Instant>,
    method: &str,
    verdict: FaultAction,
    response: Option<MethodResponse>,
    retry: &RetryPolicy,
) {
    match (verdict, response) {
        // The server executed; only the response is lost. The retry will
        // replay the recorded response under the same idempotency key.
        (FaultAction::DropResponse, _) => fail_attempt(
            state,
            started,
            method,
            RpcError::Timeout {
                method: method.to_string(),
                after_ms: 0,
            },
            retry,
        ),
        (FaultAction::Delay(ms), Some(response)) => {
            state.phase = Phase::Delayed {
                until: Instant::now() + Duration::from_millis(ms),
                result: response_to_result(response),
            }
        }
        (_, Some(response)) => {
            settle_attempt(state, started, method, response_to_result(response), retry)
        }
        (_, None) => unreachable!("only a dropped response stays with the registry"),
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
        Ok(xml) => MethodResponse::from_xml(xml)
            .map(Some)
            .map_err(|e| RpcError::Codec(e.to_string())),
        Err(_) => Err(RpcError::Codec("response frame is not UTF-8".into())),
    }))
}

/// The framed request of `call`: its parameters, then the key as the
/// trailing `{__idem: "run:epoch:seq"}` struct if it has one. The key
/// becomes text here and nowhere else.
fn encode_request(call: &NodeCall) -> Result<Vec<u8>, RpcError> {
    let key = call.idem_key.map(|key| {
        Value::Struct(vec![(
            IDEMPOTENCY_MEMBER.into(),
            Value::String(key.to_string()),
        )])
    });
    let xml = call_xml(call.method, call.params.iter().chain(&key));
    if xml.len() as u64 > u64::from(MAX_FRAME_BYTES) {
        return Err(RpcError::Codec(format!(
            "request frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            xml.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + xml.len());
    frame.extend_from_slice(&(xml.len() as u32).to_be_bytes());
    frame.extend_from_slice(xml.as_bytes());
    Ok(frame)
}

/// Advances one wire op as far as it can go without blocking.
fn step_op(
    link: &mut Link,
    obs: &ClientObs,
    op: &mut WireOp,
    call: &NodeCall,
    clock: &mut SweepClock,
) -> Step {
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
    let (tcp, ex) = match (link, &mut op.wire) {
        (Link::Memory(registry), _) => {
            let mut registry = registry.lock();
            return Step::Done(Ok(if op.verdict == FaultAction::DropResponse {
                registry.dispatch_lost(call.method, call.params, call.idem_key);
                None
            } else {
                Some(registry.dispatch(call.method, call.params, call.idem_key))
            }));
        }
        (Link::Tcp(tcp), Some(ex)) => (tcp, ex),
        (Link::Tcp(_), None) => unreachable!("a TCP op carries its exchange"),
    };
    let now = clock.now();
    if now >= ex.deadline {
        return failed(RpcError::Timeout {
            method: call.method.to_string(),
            after_ms: tcp.opts.call_timeout.as_millis() as u64,
        });
    }
    if tcp.stream.is_none() {
        if now < ex.next_connect_at {
            return Step::Pending;
        }
        match tcp.open() {
            Ok(s) => tcp.stream = Some(s),
            Err(e) => {
                ex.connect_attempts += 1;
                if ex.connect_attempts >= tcp.opts.max_connect_attempts.max(1) {
                    return failed(tcp.unreachable(ex.connect_attempts, e));
                }
                ex.next_connect_at = now + ex.connect_backoff;
                ex.connect_backoff = ex
                    .connect_backoff
                    .saturating_mul(2)
                    .min(tcp.opts.backoff_max);
                return Step::Pending;
            }
        }
    }
    let addr = tcp.addr;
    let s = tcp.stream.as_mut().expect("stream just ensured");
    while ex.sent < ex.frame.len() {
        match s.write(&ex.frame[ex.sent..]) {
            Ok(0) => return closed(),
            Ok(n) => {
                ex.sent += n;
                if ex.sent == ex.frame.len() {
                    obs.add_bytes_sent(ex.frame.len() - 4);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Step::Pending,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return failed(RpcError::Disconnected(format!("write to {addr}: {e}"))),
        }
    }
    loop {
        // Header first, then the rest of the frame in one buffer: a large
        // response lands in as few reads as the socket allows.
        // `decode_frame` has refused an oversized header before its length
        // sizes the buffer.
        let want = frame_size(&ex.in_buf[..ex.received]).unwrap_or(4);
        if ex.in_buf.len() < want {
            ex.in_buf.resize(want, 0);
        }
        match s.read(&mut ex.in_buf[ex.received..want]) {
            Ok(0) => return closed(),
            Ok(n) => {
                ex.received += n;
                if let Some(step) = decode_frame(&ex.in_buf[..ex.received], obs) {
                    return step;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return failed(RpcError::Disconnected(format!("read from {addr}: {e}"))),
        }
    }
    Step::Pending
}

impl Reactor {
    /// An empty reactor; add links with [`Reactor::add_node`].
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            states: Vec::new(),
            busy: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Adds a NodeManager's link with an optional per-node chaos schedule
    /// (drawn once per attempt) and returns its number, the
    /// [`NodeCall::link`] of every call to that node. Links are numbered
    /// from 0 in the order they are added.
    pub fn add_node(&mut self, endpoint: ReactorEndpoint, chaos: Option<ChaosOptions>) -> usize {
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
        self.nodes.len() - 1
    }

    /// Builds the wire op for call `index` on link `n`: on a TCP link, its
    /// single-method frame, keyed if the call is.
    fn make_op(
        node: &NodeLink,
        n: usize,
        index: usize,
        verdict: FaultAction,
        c: &NodeCall,
        clock: &mut SweepClock,
    ) -> Result<WireOp, RpcError> {
        let wire = match &node.link {
            Link::Memory(_) => None,
            Link::Tcp(TcpTransport { opts, .. }) => {
                let now = clock.now();
                Some(Exchange {
                    frame: encode_request(c)?,
                    sent: 0,
                    in_buf: Vec::new(),
                    received: 0,
                    deadline: now + opts.call_timeout,
                    connect_attempts: 0,
                    connect_backoff: opts.backoff_initial,
                    next_connect_at: now,
                })
            }
        };
        if excovery_obs::enabled() {
            excovery_obs::global()
                .counter(
                    "rpc_reactor_wire_ops_total",
                    &[("link", node.obs.transport)],
                )
                .inc();
        }
        Ok(WireOp {
            node: n,
            started: None,
            index,
            verdict,
            wire,
        })
    }

    /// Drives every call to completion and returns outcomes aligned with
    /// the input order. The whole fan-out runs on the calling thread; a
    /// sweep services every link that is ready and the loop waits only
    /// when no link, backoff or delay gate can progress: on the socket of
    /// a lone call awaiting its response, else in sleeps of ≤ 1 ms.
    pub fn dispatch(&mut self, calls: &[NodeCall], retry: &RetryPolicy) -> Vec<DispatchOutcome> {
        // The dispatch's start is read only for the durations obs reports.
        let started = excovery_obs::enabled().then(Instant::now);
        if started.is_some() {
            excovery_obs::global()
                .counter("rpc_reactor_dispatches_total", &[])
                .inc();
        }
        let Reactor {
            nodes,
            states,
            busy,
            ops,
        } = self;
        states.clear();
        states.extend(calls.iter().map(|_| CallState {
            attempts: 0,
            retries: 0,
            backoff: retry.backoff_initial,
            duration_ns: 0,
            phase: Phase::Ready,
        }));
        busy.clear();
        busy.resize(nodes.len(), false);
        for (state, call) in states.iter_mut().zip(calls) {
            if call.link >= nodes.len() {
                let err = RpcError::Io(format!("no NodeManager on link {}", call.link));
                finish(state, started, Err(err));
            }
        }

        loop {
            let mut progressed = false;
            let mut clock = SweepClock::default();

            // Expired timers: backoffs become ready, delay gates deliver.
            for (state, call) in states.iter_mut().zip(calls) {
                match &state.phase {
                    Phase::Waiting(until) if clock.now() >= *until => {
                        state.phase = Phase::Ready;
                        progressed = true;
                    }
                    Phase::Delayed { until, .. } if clock.now() >= *until => {
                        let Phase::Delayed { result, .. } =
                            std::mem::replace(&mut state.phase, Phase::Ready)
                        else {
                            unreachable!()
                        };
                        settle_attempt(state, started, call.method, result, retry);
                        progressed = true;
                    }
                    _ => {}
                }
            }

            // Start new attempts in input order: each ready call whose link
            // is idle draws its chaos verdict (see [`NodeSchedule::draw`])
            // and, if that lets it reach the wire, goes in flight. One op
            // per link, so a second call to a busy node waits a sweep.
            for (i, call) in calls.iter().enumerate() {
                let n = call.link;
                let state = &mut states[i];
                if !matches!(state.phase, Phase::Ready) || busy[n] {
                    continue;
                }
                progressed = true;
                let node = &mut nodes[n];
                let verdict = match &mut node.chaos {
                    Some(schedule) => schedule.draw(call.method),
                    None => Ok(FaultAction::Pass),
                };
                match verdict.and_then(|v| Self::make_op(node, n, i, v, call, &mut clock)) {
                    Ok(op) => {
                        state.phase = Phase::InFlight;
                        busy[n] = true;
                        ops.push(op);
                    }
                    Err(err) => fail_attempt(state, started, call.method, err, retry),
                }
            }

            // Advance in-flight ops.
            let mut k = 0;
            while k < ops.len() {
                let n = ops[k].node;
                let call = &calls[ops[k].index];
                let node = &mut nodes[n];
                let Step::Done(result) =
                    step_op(&mut node.link, &node.obs, &mut ops[k], call, &mut clock)
                else {
                    k += 1;
                    continue;
                };
                let op = ops.swap_remove(k);
                busy[n] = false;
                progressed = true;
                node.obs.observe_call(op.started, &result);
                let state = &mut states[op.index];
                match result {
                    Ok(response) => {
                        apply_verdict(state, started, call.method, op.verdict, response, retry)
                    }
                    Err(err) => {
                        // Like TcpTransport: a failed exchange poisons the
                        // connection; reconnect lazily on the next attempt.
                        if let Link::Tcp(t) = &mut node.link {
                            t.stream = None;
                        }
                        fail_attempt(state, started, call.method, err, retry);
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
                    [WireOp {
                        node,
                        wire: Some(ex),
                        ..
                    }] if ex.sent == ex.frame.len() => match &nodes[*node].link {
                        Link::Tcp(TcpTransport {
                            stream: Some(s), ..
                        }) => Some((s, ex.deadline)),
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
                        let wake = ops
                            .iter()
                            .filter_map(|op| op.wire.as_ref())
                            .flat_map(|ex| [ex.deadline, ex.next_connect_at]);
                        let pause = wake
                            .chain(timer)
                            .min()
                            .map_or(MAX_PAUSE, |w| w.saturating_duration_since(now));
                        std::thread::sleep(pause.clamp(MIN_PAUSE, MAX_PAUSE));
                    }
                }
            }
        }

        states
            .drain(..)
            .map(|state| {
                let Phase::Done(result) = state.phase else {
                    unreachable!("dispatch loop exited with work pending")
                };
                DispatchOutcome {
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
        let mut reactor = Reactor::new();
        reactor.add_node(endpoint.into(), None);
        Self {
            node_id: node_id.into(),
            reactor: Mutex::new(reactor),
        }
    }

    /// Calls a procedure on the node, holding the node lock for the
    /// duration of the call.
    pub fn call(&self, method: &str, params: Vec<Value>) -> Result<Value, RpcError> {
        let call = NodeCall {
            link: 0,
            method,
            params: &params,
            idem_key: None,
        };
        let mut outcomes = self.reactor.lock().dispatch(&[call], &RetryPolicy::none());
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

    fn key(seq: u64) -> Option<IdemKey> {
        Some(IdemKey {
            run: 0,
            epoch: 0,
            seq,
        })
    }

    fn call(link: usize, seq: u64) -> NodeCall<'static> {
        NodeCall {
            link,
            method: "run_init",
            params: &[],
            idem_key: key(seq),
        }
    }

    #[test]
    fn memory_fanout_returns_results_in_input_order() {
        let mut reactor = Reactor::new();
        let counts: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for (i, count) in counts.iter().enumerate() {
            let registry = counting_registry(Arc::clone(count), i as i32 * 10);
            assert_eq!(reactor.add_node(ReactorEndpoint::Memory(registry), None), i);
        }
        let calls = [call(2, 1), call(0, 2), call(1, 3)];
        let outcomes = reactor.dispatch(&calls, &RetryPolicy::default());
        let got: Vec<Value> = outcomes.into_iter().map(|o| o.result.unwrap()).collect();
        assert_eq!(got, vec![Value::Int(20), Value::Int(0), Value::Int(10)]);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn unknown_links_fail_without_touching_known_ones() {
        let mut reactor = Reactor::new();
        let count = Arc::new(AtomicU64::new(0));
        reactor.add_node(
            ReactorEndpoint::Memory(counting_registry(Arc::clone(&count), 0)),
            None,
        );
        let outcomes = reactor.dispatch(&[call(5, 1), call(0, 2)], &RetryPolicy::default());
        match &outcomes[0].result {
            Err(RpcError::Io(msg)) => assert!(msg.contains("link 5"), "{msg}"),
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
            ReactorEndpoint::Memory(counting_registry(Arc::clone(&count), 0)),
            Some(schedule.clone()),
        );
        let outcomes = reactor.dispatch(&[call(0, 1)], &RetryPolicy::default());
        assert_eq!(outcomes[0].result.as_ref().unwrap(), &Value::Int(0));
        assert_eq!(outcomes[0].retries, 1);
        assert_eq!(count.load(Ordering::Relaxed), 1);

        // Without retries: the injected error is final and carries the
        // chaos wording.
        let mut reactor = Reactor::new();
        reactor.add_node(
            ReactorEndpoint::Memory(counting_registry(Arc::new(AtomicU64::new(0)), 0)),
            Some(schedule),
        );
        let outcomes = reactor.dispatch(&[call(0, 2)], &RetryPolicy::none());
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
            ReactorEndpoint::Memory(counting_registry(Arc::clone(&count), 0)),
            Some(ChaosOptions {
                crash_windows: vec![(2, 5)],
                ..ChaosOptions::quiet(3)
            }),
        );
        let outcomes: Vec<bool> = (0..7)
            .map(|seq| {
                let outcome = reactor.dispatch(&[call(0, seq)], &RetryPolicy::none());
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
        let registry = counting_registry(Arc::clone(&count), 0);
        let mut reactor = Reactor::new();
        reactor.add_node(
            ReactorEndpoint::Memory(Arc::clone(&registry)),
            Some(forced(seed)),
        );
        // The server executes, but the caller sees a timeout.
        let lost = reactor.dispatch(&[call(0, 1)], &RetryPolicy::none());
        assert!(matches!(lost[0].result, Err(RpcError::Timeout { .. })));
        assert_eq!(count.load(Ordering::Relaxed), 1);
        // The retry reuses the key: the recorded response is replayed and
        // the procedure does not run again.
        let replayed = reactor.dispatch(&[call(0, 1)], &RetryPolicy::none());
        assert_eq!(replayed[0].result.as_ref().unwrap(), &Value::Int(0));
        assert_eq!(count.load(Ordering::Relaxed), 1);
        // The reactor holds the replayed response now; the registry keeps
        // nothing for a delivered call.
        let delivered = reactor.dispatch(&[call(0, 2)], &RetryPolicy::none());
        assert_eq!(delivered[0].result.as_ref().unwrap(), &Value::Int(0));
        assert_eq!(count.load(Ordering::Relaxed), 2);
        assert_eq!(registry.lock().recorded(), 0);
    }

    #[test]
    fn a_keyed_tcp_request_keeps_its_bytes() {
        // The frame earlier releases sent for this call: a server keys its
        // response cache by the key's text, so that text must not drift.
        const FRAME: &[u8] = b"\x00\x00\x01\x34<methodCall><methodName>sd_update_publication\
</methodName><params><param><value><string>_exp._tcp</string></value></param><param>\
<value><int>80</int></value></param><param><value><struct><member><name>__idem</name>\
<value><string>3:1:42</string></value></member></struct></value></param></params>\
</methodCall>";
        let params = [Value::str("_exp._tcp"), Value::Int(80)];
        let call = NodeCall {
            link: 0,
            method: "sd_update_publication",
            params: &params,
            idem_key: Some(IdemKey {
                run: 3,
                epoch: 1,
                seq: 42,
            }),
        };
        let frame = encode_request(&call).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&frame),
            String::from_utf8_lossy(FRAME)
        );
        assert_eq!(frame, FRAME);
    }

    #[test]
    fn retry_budget_for_chaos_saturates_instead_of_truncating() {
        assert_eq!(RetryPolicy::for_chaos(10).max_attempts, 16);
        assert_eq!(RetryPolicy::for_chaos(1 << 32).max_attempts, u32::MAX);
        assert_eq!(RetryPolicy::for_chaos(u64::MAX).max_attempts, u32::MAX);
    }
}
