//! Framed TCP backend for the control channel.
//!
//! The prototype runs XML-RPC over a dedicated management network
//! (§IV-A1); this module provides the equivalent real-socket transport so
//! the same [`ServerRegistry`] a NodeManager exposes in-process can be
//! served across machines. Frames are length-prefixed XML documents:
//!
//! ```text
//! +----------------+---------------------+
//! | u32 BE length  |  XML-RPC document   |
//! +----------------+---------------------+
//! ```
//!
//! The client side ([`TcpTransport`]) adds what the in-memory channel
//! never needed: a per-call deadline, reconnection with bounded
//! exponential backoff, and error classification (timeout vs. disconnect
//! vs. codec) so the engine can decide whether a run is recoverable.

use crate::error::RpcError;
use crate::message::{MethodCall, MethodResponse};
use crate::transport::{ServerRegistry, Transport};
use excovery_obs::frame::{read_frame, write_frame};
use excovery_obs::sync::Mutex;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on a single frame; anything larger is a codec error (a
/// corrupt length prefix would otherwise ask for gigabytes). The framing
/// itself lives in [`excovery_obs::frame`] so the metrics scrape
/// endpoint shares the exact plumbing; this re-export keeps the
/// historical path.
pub use excovery_obs::frame::MAX_FRAME_BYTES;

// ---- server ----------------------------------------------------------------

/// A running TCP RPC server: accept loop plus one thread per connection,
/// all dispatching into a shared [`ServerRegistry`].
///
/// Dropping the handle (or calling [`TcpRpcServer::shutdown`]) stops the
/// accept loop and closes every open connection.
pub struct TcpRpcServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpRpcServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `registry`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<Mutex<ServerRegistry>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name(format!("rpc-accept-{addr}"))
            .spawn(move || accept_loop(listener, registry, stop2))?;
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and asks connection threads to wind down.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl Drop for TcpRpcServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, registry: Arc<Mutex<ServerRegistry>>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                let _ = std::thread::Builder::new()
                    .name("rpc-conn".into())
                    .spawn(move || serve_connection(stream, registry, stop));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    registry: Arc<Mutex<ServerRegistry>>,
    stop: Arc<AtomicBool>,
) {
    // A short read timeout lets the thread notice shutdown promptly while
    // staying blocked on idle clients the rest of the time.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let request = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // client closed
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(_) => return,
        };
        let request_xml = String::from_utf8_lossy(&request);
        let response_xml = registry.lock().handle_wire(&request_xml);
        if write_frame(&mut stream, response_xml.as_bytes()).is_err() {
            return;
        }
    }
}

// ---- client ----------------------------------------------------------------

/// Client-side policy knobs of the TCP transport.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Deadline for one connection attempt.
    pub connect_timeout: Duration,
    /// Deadline for one complete call (request write + response read,
    /// including any reconnection time spent before the request went out).
    pub call_timeout: Duration,
    /// Connection attempts per call before giving up.
    pub max_connect_attempts: u32,
    /// First retry delay of the exponential backoff.
    pub backoff_initial: Duration,
    /// Backoff ceiling; doubling stops here.
    pub backoff_max: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            call_timeout: Duration::from_secs(10),
            max_connect_attempts: 4,
            backoff_initial: Duration::from_millis(25),
            backoff_max: Duration::from_millis(800),
        }
    }
}

/// TCP client end of the control channel to one node.
///
/// One connection is kept per transport; the [`NodeProxy`] lock already
/// serializes callers, and a failed or timed-out call drops the
/// connection so the next call starts from a clean reconnect instead of
/// reading a stale response.
///
/// [`NodeProxy`]: crate::transport::NodeProxy
pub struct TcpTransport {
    addr: SocketAddr,
    opts: TcpOptions,
    stream: Mutex<Option<TcpStream>>,
    closed: AtomicBool,
    obs: crate::transport::ClientObs,
}

impl TcpTransport {
    /// Resolves `addr` and eagerly establishes the first connection (with
    /// the configured backoff), so endpoint misconfiguration surfaces at
    /// setup rather than mid-experiment.
    pub fn connect(addr: impl ToSocketAddrs, opts: TcpOptions) -> Result<Self, RpcError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| RpcError::Io(format!("resolve: {e}")))?
            .next()
            .ok_or_else(|| RpcError::Io("address resolved to nothing".into()))?;
        let transport = Self {
            addr,
            opts,
            stream: Mutex::new(None),
            closed: AtomicBool::new(false),
            obs: crate::transport::ClientObs::new("tcp"),
        };
        let stream = transport.reconnect()?;
        *transport.stream.lock() = Some(stream);
        Ok(transport)
    }

    /// Connects with bounded exponential backoff.
    fn reconnect(&self) -> Result<TcpStream, RpcError> {
        let mut delay = self.opts.backoff_initial;
        let mut last_err = String::new();
        for attempt in 0..self.opts.max_connect_attempts {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(self.opts.backoff_max);
            }
            match TcpStream::connect_timeout(&self.addr, self.opts.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last_err = e.to_string(),
            }
        }
        Err(RpcError::Disconnected(format!(
            "{} unreachable after {} attempts: {last_err}",
            self.addr, self.opts.max_connect_attempts
        )))
    }

    /// One request/response exchange on an established stream, honouring
    /// the remaining per-call budget via the socket read timeout.
    fn exchange(
        &self,
        stream: &mut TcpStream,
        request: &[u8],
        deadline: Instant,
        method: &str,
    ) -> Result<MethodResponse, RpcError> {
        write_frame(stream, request).map_err(|e| RpcError::Disconnected(e.to_string()))?;
        self.obs.add_bytes_sent(request.len());
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(self.timeout_error(method));
        }
        stream
            .set_read_timeout(Some(remaining))
            .map_err(|e| RpcError::Io(e.to_string()))?;
        match read_frame(stream) {
            Ok(Some(payload)) => {
                self.obs.add_bytes_received(payload.len());
                let xml = String::from_utf8_lossy(&payload);
                MethodResponse::from_xml(&xml).map_err(|e| RpcError::Codec(e.to_string()))
            }
            Ok(None) => Err(RpcError::Disconnected(
                "server closed the connection mid-call".into(),
            )),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Err(self.timeout_error(method))
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => Err(RpcError::Codec(e.to_string())),
            Err(e) => Err(RpcError::Disconnected(e.to_string())),
        }
    }

    fn timeout_error(&self, method: &str) -> RpcError {
        RpcError::Timeout {
            method: method.to_string(),
            after_ms: self.opts.call_timeout.as_millis() as u64,
        }
    }
}

impl Transport for TcpTransport {
    fn call(&self, call: &MethodCall) -> Result<MethodResponse, RpcError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(RpcError::Disconnected("transport closed".into()));
        }
        let started = self.obs.start();
        let request = call.to_xml().into_bytes();
        let deadline = Instant::now() + self.opts.call_timeout;
        let mut guard = self.stream.lock();
        // Reconnect lazily if a previous call tore the stream down.
        if guard.is_none() {
            match self.reconnect() {
                Ok(stream) => *guard = Some(stream),
                Err(e) => {
                    let result = Err(e);
                    self.obs.observe_call(started, &result);
                    return result;
                }
            }
        }
        let stream = guard.as_mut().expect("stream just ensured");
        let result = self.exchange(stream, &request, deadline, &call.method);
        self.obs.observe_call(started, &result);
        if let Err(e) = &result {
            // After a failed exchange the stream state is unknown (a late
            // response could desynchronize framing): drop it so the next
            // call reconnects. Server-side faults arrive as *successful*
            // exchanges and keep the connection.
            if e.is_retryable() || matches!(e, RpcError::Codec(_)) {
                *guard = None;
            }
        }
        result
    }

    fn endpoint(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        *self.stream.lock() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::NodeProxy;
    use crate::value::Value;
    use crate::Fault;

    fn registry() -> Arc<Mutex<ServerRegistry>> {
        let mut reg = ServerRegistry::new();
        reg.register("echo", |params| Ok(Value::Array(params.to_vec())));
        reg.register("fail", |_| Err(Fault::new(7, "nope")));
        Arc::new(Mutex::new(reg))
    }

    #[test]
    fn roundtrip_over_real_sockets() {
        let server = TcpRpcServer::bind("127.0.0.1:0", registry()).unwrap();
        let t = TcpTransport::connect(server.local_addr(), TcpOptions::default()).unwrap();
        let proxy = NodeProxy::new("n0", t);
        assert!(proxy.endpoint().starts_with("tcp://127.0.0.1:"));
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
    fn connect_to_nothing_reports_disconnected_after_backoff() {
        // Port 1 on localhost: nothing listens there.
        let opts = TcpOptions {
            max_connect_attempts: 3,
            backoff_initial: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            connect_timeout: Duration::from_millis(200),
            ..TcpOptions::default()
        };
        let started = Instant::now();
        match TcpTransport::connect("127.0.0.1:1", opts) {
            Err(RpcError::Disconnected(m)) => {
                assert!(m.contains("3 attempts"), "{m}");
            }
            Err(other) => panic!("{other:?}"),
            Ok(_) => panic!("connected to a closed port"),
        }
        // Backoff is bounded: 1 + 2 ms of sleeping, not seconds.
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
