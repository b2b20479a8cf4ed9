//! Framed TCP backend for the control channel.
//!
//! The prototype runs XML-RPC over a dedicated management network
//! (§IV-A1); this module provides the equivalent real-socket server so
//! the same [`ServerRegistry`] a NodeManager exposes in-process can be
//! served across machines. Frames are length-prefixed XML documents:
//!
//! ```text
//! +----------------+---------------------+
//! | u32 BE length  |  XML-RPC document   |
//! +----------------+---------------------+
//! ```
//!
//! The client side is a reactor link ([`crate::Reactor`]): it owns the
//! per-call deadline, reconnection with bounded exponential backoff, and
//! the error classification (timeout vs. disconnect vs. codec) the engine
//! uses to decide whether a run is recoverable. [`TcpTransport`] only
//! opens a link's first connection eagerly.

use crate::error::{RpcError, FAULT_PARSE_ERROR};
use crate::message::{Fault, MethodResponse};
use crate::transport::ServerRegistry;
use excovery_obs::sync::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on a single frame; anything larger is a codec error (a
/// corrupt length prefix would otherwise ask for gigabytes).
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

// ---- framing ---------------------------------------------------------------

/// Writes one frame and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` means clean EOF at a frame boundary; a
/// length above [`MAX_FRAME_BYTES`] is an `InvalidData` error.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        other => other?,
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

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
        // A request that is not UTF-8 is refused before dispatch: decoding
        // it lossily would run the handler on altered arguments.
        let response_xml = match std::str::from_utf8(&request) {
            Ok(request_xml) => registry.lock().handle_wire(request_xml),
            Err(e) => MethodResponse::Fault(Fault::new(
                FAULT_PARSE_ERROR,
                format!("parse error: request frame is not UTF-8 ({e})"),
            ))
            .to_xml(),
        };
        if write_frame(&mut stream, response_xml.as_bytes()).is_err() {
            return;
        }
    }
}

// ---- client ----------------------------------------------------------------

/// Client-side policy knobs of a TCP link.
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

/// The state of a TCP link: server address, policy knobs and the socket,
/// when connected. [`TcpTransport::connect`] opens it eagerly, for a
/// reactor link to adopt ([`NodeProxy::new`] or [`Reactor::add_node`]).
///
/// It moves no bytes itself: the reactor link frames every call, enforces
/// `opts.call_timeout`, and reconnects with the same bounded backoff after
/// a failed exchange.
///
/// [`NodeProxy::new`]: crate::reactor::NodeProxy::new
/// [`Reactor::add_node`]: crate::reactor::Reactor::add_node
pub struct TcpTransport {
    pub(crate) addr: SocketAddr,
    pub(crate) opts: TcpOptions,
    pub(crate) stream: Option<TcpStream>,
}

impl TcpTransport {
    /// Resolves `addr` and establishes the connection (with the configured
    /// backoff), so endpoint misconfiguration surfaces at setup rather than
    /// at the first call.
    pub fn connect(addr: impl ToSocketAddrs, opts: TcpOptions) -> Result<Self, RpcError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| RpcError::Io(format!("resolve: {e}")))?
            .next()
            .ok_or_else(|| RpcError::Io("address resolved to nothing".into()))?;
        let mut link = Self {
            addr,
            opts,
            stream: None,
        };
        let mut delay = link.opts.backoff_initial;
        let mut attempt = 1;
        loop {
            match link.open() {
                Ok(stream) => {
                    link.stream = Some(stream);
                    return Ok(link);
                }
                Err(e) if attempt >= link.opts.max_connect_attempts.max(1) => {
                    return Err(link.unreachable(attempt, e))
                }
                Err(_) => {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(link.opts.backoff_max);
                    attempt += 1;
                }
            }
        }
    }

    /// One connection attempt: a no-delay socket in the non-blocking mode
    /// a reactor link drives it in.
    pub(crate) fn open(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.opts.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// The error of a link whose `attempts` connection attempts all failed.
    pub(crate) fn unreachable(&self, attempts: u32, last: std::io::Error) -> RpcError {
        RpcError::Disconnected(format!(
            "{} unreachable after {attempts} attempts: {last}",
            self.addr
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_length_is_invalid_data() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"x");
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn eof_before_a_complete_header_reads_as_end_of_stream() {
        // A peer closing before a full header is treated as end of stream.
        let mut partial = std::io::Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut partial).unwrap().is_none());
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
    }
}
