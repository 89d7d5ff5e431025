//! The socket [`Transport`] backend: length-prefixed frames over TCP or
//! Unix-domain streams, plus the silo-side serving loop behind
//! `fedra-silo serve`.
//!
//! # Framing
//!
//! Every frame is a fixed little-endian header followed by a payload that
//! is **byte-identical** to the in-memory encoding ([`crate::wire`]):
//!
//! ```text
//! request frame:  [payload_len: u32][corr: u64][epoch: u64][checksum: u64][deadline_rel_us: u64][payload]
//! reply frame:    [payload_len: u32][corr: u64][epoch: u64][checksum: u64][payload]
//! ```
//!
//! * `corr` is a provider-chosen correlation id pairing replies back to
//!   their in-flight calls; it doubles as the [`Transport`] token.
//! * `epoch` is the client's connection generation at send time; the
//!   server echoes it verbatim. A reply whose epoch differs from the
//!   reading connection's generation was solicited before a reconnect —
//!   a middlebox (e.g. [`crate::transport::chaos::ChaosProxy`]) replayed
//!   it onto the new connection — and is **fenced**: discarded and
//!   counted under `fedra_epoch_fenced_replies_total` instead of being
//!   allowed to answer a fresh call.
//! * `checksum` is an FNV-1a digest of the payload bytes (the one
//!   [`crate::wire`] digest snapshot files use too). A mismatch
//!   surfaces as the typed [`FrameError::Corrupt`] — a flipped byte in a
//!   wire-encoded `f64` would otherwise decode silently into a wrong
//!   answer.
//! * `deadline_rel_us` carries the call deadline as **relative**
//!   microseconds from send time ([`DEADLINE_NONE`] = no deadline). The
//!   serving side re-anchors it at frame receipt, so no cross-process
//!   clock agreement is needed; an expired deadline sheds the request
//!   exactly like the in-memory worker does (the byte-counted
//!   [`crate::protocol::Response::DeadlineExceeded`] still travels).
//! * the header is the real-world analogue of the simulated per-message
//!   overhead ([`super::DEFAULT_MESSAGE_OVERHEAD`]): [`CommCounters`]
//!   record payload bytes only, so the communication-cost metric is
//!   identical across backends.
//!
//! # Who reads
//!
//! The client runs no thread. A caller waiting on a reply reads the
//! connection itself and hands every reply it reads to its call's slot;
//! a caller that finds another one reading parks on its own slot, and a
//! reader that stops (its own reply came, or its deadline passed) nudges
//! a parked caller to read next (see [`SocketTransport`]).
//!
//! # Reconnects and failure semantics
//!
//! Whoever observes a connection loss handles it: a reading waiter that
//! meets EOF, a truncated or a corrupt frame, or a sender whose write
//! fails. The loss fails every in-flight call of that connection with a
//! retryable [`TransportError::Transient`] when a reconnect succeeds
//! (callers retry under their [`super::CallPolicy`]), and with
//! [`TransportError::Disconnected`] once three reconnect attempts are
//! refused — mirroring the in-memory backend, where a crashed worker
//! wakes its waiters with `Disconnected`. An injected crash closes the
//! server's listener before it drops the connection, so the client's
//! reconnects are refused and both backends word the crash alike. The
//! reconnect attempts stop at the observer's deadline; the calls then
//! fail as transients. Neither outcome is terminal: with the connection
//! down, every subsequent [`Transport::send_frame`] makes one fresh
//! connect attempt, so a health-breaker HalfOpen probe rejoins a
//! respawned peer (e.g. a `fedra-silo` restarted from its
//! `--snapshot-dir`) instead of failing silently forever.
//!
//! # Determinism caveats
//!
//! The socket path keeps answers bit-identical to the in-memory path —
//! payload bytes, shed semantics, and per-silo request order (one
//! connection per channel, frames handled sequentially) all match. What
//! it cannot keep deterministic is *timing*: kernel scheduling and socket
//! buffering perturb latency-sensitive schedules (hedge firings, races),
//! which is why the in-memory backend remains the tier-1 default.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use super::{
    Inflight, RecvOutcome, ReplySlot, Served, SiloChannel, SiloDiagnostics, SiloServer, Transport,
    TransportError,
};
use crate::fault::SiloFaultInjector;
use crate::silo::{Silo, SiloId};
use crate::wire::fnv1a;
use fedra_obs::catalog::{
    EPOCH_FENCED_REPLIES_TOTAL, SILO_ACCEPT_ERRORS_TOTAL, TRANSPORT_RECONNECTS_TOTAL,
};
use fedra_obs::CommCounters;

/// `deadline_rel_us` value meaning "no deadline".
pub const DEADLINE_NONE: u64 = u64::MAX;

/// Request frame header length:
/// `payload_len (4) + corr (8) + epoch (8) + checksum (8) + deadline (8)`.
pub const REQUEST_HEADER_LEN: usize = 36;

/// Reply frame header length:
/// `payload_len (4) + corr (8) + epoch (8) + checksum (8)`.
pub const REPLY_HEADER_LEN: usize = 28;

/// Largest payload a peer may announce. A length prefix beyond this is
/// rejected with [`FrameError::Oversized`] *before* any allocation — a
/// corrupt or hostile peer cannot OOM the process.
pub const MAX_FRAME_PAYLOAD: u32 = 256 * 1024 * 1024;

/// Initial size of a connection's reply read buffer; a frame that does
/// not fit grows it for as long as it is being read.
const READ_CHUNK: usize = 16 * 1024;

/// Refused reconnect attempts after a connection loss before the peer is
/// declared gone.
const RECONNECT_ATTEMPTS: u32 = 3;

/// Salt that keeps the reconnect backoff's jitter apart from the call
/// retries' (`"RECN"`).
pub(super) const RECONNECT_SEED: u64 = 0x5245_434E;

/// How long a crashing connection waits for its server's accept loop to
/// close the listener before it drops its peer anyway.
const CLOSE_WAIT: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------
// Addresses and streams
// ---------------------------------------------------------------------

/// A silo endpoint: TCP (`tcp:host:port`) or a Unix-domain socket path
/// (`unix:/path/to.sock`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiloAddr {
    /// TCP endpoint, `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl SiloAddr {
    /// Parses `tcp:host:port`, `unix:/path`, or a bare `host:port`
    /// (treated as TCP). The error is a human-readable reason.
    pub fn parse(s: &str) -> Result<SiloAddr, String> {
        if let Some(rest) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                if rest.is_empty() {
                    return Err("empty unix socket path".into());
                }
                return Ok(SiloAddr::Unix(PathBuf::from(rest)));
            }
            #[cfg(not(unix))]
            {
                let _ = rest;
                return Err("unix-domain sockets are not supported on this platform".into());
            }
        }
        let rest = s.strip_prefix("tcp:").unwrap_or(s);
        if rest.contains(':') {
            Ok(SiloAddr::Tcp(rest.to_string()))
        } else {
            Err(format!(
                "`{s}` is not a silo address (expected tcp:host:port or unix:/path)"
            ))
        }
    }

    pub(crate) fn connect(&self) -> std::io::Result<SocketStream> {
        match self {
            SiloAddr::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(SocketStream::Tcp(stream))
            }
            #[cfg(unix)]
            SiloAddr::Unix(path) => Ok(SocketStream::Unix(UnixStream::connect(path)?)),
        }
    }
}

impl std::fmt::Display for SiloAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SiloAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            SiloAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A connected stream of either flavour.
#[derive(Debug)]
pub(crate) enum SocketStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl SocketStream {
    pub(crate) fn try_clone(&self) -> std::io::Result<SocketStream> {
        match self {
            SocketStream::Tcp(s) => Ok(SocketStream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            SocketStream::Unix(s) => Ok(SocketStream::Unix(s.try_clone()?)),
        }
    }

    pub(crate) fn shutdown(&self) {
        match self {
            SocketStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            SocketStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

/// Reads and writes go through a shared reference, so one stream serves
/// a reading waiter and a writing sender at once.
impl Read for &SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => (&mut &*s).read(buf),
            #[cfg(unix)]
            SocketStream::Unix(s) => (&mut &*s).read(buf),
        }
    }
}

impl Write for &SocketStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => (&mut &*s).write(buf),
            #[cfg(unix)]
            SocketStream::Unix(s) => (&mut &*s).write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A bound listener of either flavour.
enum SocketListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl SocketListener {
    /// Binds `addr`, returning the listener plus the *resolved* address
    /// (TCP `host:0` resolves its ephemeral port).
    fn bind(addr: &SiloAddr) -> std::io::Result<(SocketListener, SiloAddr)> {
        match addr {
            SiloAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec)?;
                let resolved = SiloAddr::Tcp(listener.local_addr()?.to_string());
                Ok((SocketListener::Tcp(listener), resolved))
            }
            #[cfg(unix)]
            SiloAddr::Unix(path) => {
                let listener = UnixListener::bind(path)?;
                Ok((SocketListener::Unix(listener, path.clone()), addr.clone()))
            }
        }
    }

    /// Blocks until a peer connects.
    fn accept(&self) -> std::io::Result<SocketStream> {
        match self {
            SocketListener::Tcp(l) => l.accept().map(|(s, _)| SocketStream::Tcp(s)),
            #[cfg(unix)]
            SocketListener::Unix(l, _) => l.accept().map(|(s, _)| SocketStream::Unix(s)),
        }
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let SocketListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// Typed framing failures (satisfying panic-discipline: a malformed or
/// hostile peer produces an error value, never a panic or an unbounded
/// allocation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed cleanly at a frame boundary.
    Eof,
    /// The stream ended mid-frame (partial header or payload).
    Truncated {
        /// Which part of the frame was cut short.
        context: &'static str,
    },
    /// The length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The announced payload length.
        len: u64,
    },
    /// The payload bytes do not match the header's checksum: the frame
    /// was corrupted in flight. Surfacing this as a typed error (the
    /// connection is dropped, in-flight calls retry as transients) is
    /// what keeps a flipped byte from decoding into a wrong answer.
    Corrupt {
        /// Which frame kind failed verification.
        context: &'static str,
    },
    /// OS-level read failure.
    Io {
        /// The I/O error, stringified (keeps `FrameError: Clone + Eq`).
        message: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "peer closed the connection"),
            FrameError::Truncated { context } => {
                write!(f, "stream ended mid-frame reading {context}")
            }
            FrameError::Oversized { len } => write!(
                f,
                "frame length prefix {len} exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
            ),
            FrameError::Corrupt { context } => {
                write!(
                    f,
                    "checksum mismatch on {context} (frame corrupted in flight)"
                )
            }
            FrameError::Io { message } => write!(f, "socket read failed: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads exactly `buf.len()` bytes. `at_boundary` distinguishes a clean
/// peer close (first byte of a frame) from a mid-frame truncation.
fn read_exact_frame(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    context: &'static str,
) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Truncated { context }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(FrameError::Io {
                    message: e.to_string(),
                })
            }
        }
    }
    Ok(())
}

fn read_u64(header: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&header[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// One of the two frame layouts: its header length and the names its
/// errors carry.
struct Layout {
    header_len: usize,
    header: &'static str,
    payload: &'static str,
}

const REQUEST: Layout = Layout {
    header_len: REQUEST_HEADER_LEN,
    header: "request header",
    payload: "request payload",
};

const REPLY: Layout = Layout {
    header_len: REPLY_HEADER_LEN,
    header: "reply header",
    payload: "reply payload",
};

/// How far the frame at the head of a buffer reaches, as [`parse_frame`]
/// reads it.
#[derive(Debug, PartialEq)]
enum Parsed {
    /// The frame spans this many bytes, and fewer are in.
    Need(usize),
    /// A whole frame of this many bytes, its payload checked.
    Whole(usize),
}

/// The one frame parser: the client's buffered reads ([`FrameBuf`]),
/// [`read_reply_frame`] and [`read_request_frame`] all ask it where the
/// frame `bytes` begins with ends — a `layout` header, then the payload
/// its length prefix announces. A prefix over [`MAX_FRAME_PAYLOAD`] is
/// refused before anything is allocated for it, and a whole payload that
/// does not match the header's checksum is [`FrameError::Corrupt`].
fn parse_frame(bytes: &[u8], layout: &Layout) -> Result<Parsed, FrameError> {
    let Some(header) = bytes.get(..layout.header_len) else {
        return Ok(Parsed::Need(layout.header_len));
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized { len: len as u64 });
    }
    let total = layout.header_len + len as usize;
    match bytes.get(layout.header_len..total) {
        None => Ok(Parsed::Need(total)),
        Some(payload) if fnv1a(payload) != read_u64(header, 20) => Err(FrameError::Corrupt {
            context: layout.payload,
        }),
        Some(_) => Ok(Parsed::Whole(total)),
    }
}

/// Reads one `layout` frame off `r` — exactly its bytes, so the next
/// frame stays in the stream — as the whole frame, header included.
/// [`FrameError::Eof`] on a clean close before its first byte.
fn read_frame(r: &mut impl Read, layout: &Layout) -> Result<Bytes, FrameError> {
    let mut header = [0u8; REQUEST_HEADER_LEN];
    let header = &mut header[..layout.header_len];
    read_exact_frame(r, header, true, layout.header)?;
    let (Parsed::Need(total) | Parsed::Whole(total)) = parse_frame(header, layout)?;
    let mut frame = Vec::with_capacity(total);
    frame.extend_from_slice(header);
    frame.resize(total, 0);
    read_exact_frame(r, &mut frame[layout.header_len..], false, "frame payload")?;
    parse_frame(&frame, layout)?;
    Ok(Bytes::from(frame))
}

/// One decoded request frame.
#[derive(Debug)]
pub struct RequestFrame {
    /// Correlation id chosen by the provider.
    pub corr: u64,
    /// The sender's connection generation; echoed verbatim in the reply
    /// header so the client can fence replies from dead generations.
    pub epoch: u64,
    /// Deadline in relative microseconds from send ([`DEADLINE_NONE`] =
    /// none).
    pub deadline_rel_us: u64,
    /// The wire-encoded [`crate::protocol::Request`], byte-identical to the
    /// in-memory encoding.
    pub payload: Bytes,
}

/// Writes one request frame (single `write_all`, so concurrent senders
/// serialized by a lock can never interleave partial frames).
pub fn write_request_frame(
    w: &mut impl Write,
    corr: u64,
    epoch: u64,
    deadline_rel_us: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(REQUEST_HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&corr.to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
    buf.extend_from_slice(&deadline_rel_us.to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one request frame ([`FrameError::Eof`] on a clean peer close,
/// [`FrameError::Corrupt`] when the payload fails its checksum).
pub fn read_request_frame(r: &mut impl Read) -> Result<RequestFrame, FrameError> {
    let frame = read_frame(r, &REQUEST)?;
    Ok(RequestFrame {
        corr: read_u64(&frame, 4),
        epoch: read_u64(&frame, 12),
        deadline_rel_us: read_u64(&frame, 28),
        payload: frame.slice(REQUEST_HEADER_LEN..frame.len()),
    })
}

/// Writes one reply frame, echoing the request's `epoch`.
pub fn write_reply_frame(
    w: &mut impl Write,
    corr: u64,
    epoch: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(REPLY_HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&corr.to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one reply frame: `(corr, epoch, payload)`.
/// [`FrameError::Corrupt`] when the payload fails its checksum.
pub fn read_reply_frame(r: &mut impl Read) -> Result<(u64, u64, Bytes), FrameError> {
    let frame = read_frame(r, &REPLY)?;
    Ok((
        read_u64(&frame, 4),
        read_u64(&frame, 12),
        frame.slice(REPLY_HEADER_LEN..frame.len()),
    ))
}

/// Encodes a call deadline as relative microseconds from `now`
/// (saturating at zero: an already-expired deadline ships as `0`, which
/// the serving side sheds on arrival — same as the in-memory worker).
fn deadline_to_rel_us(deadline: Option<Instant>, now: Instant) -> u64 {
    match deadline {
        None => DEADLINE_NONE,
        Some(d) => {
            let us = d.saturating_duration_since(now).as_micros();
            us.min((DEADLINE_NONE - 1) as u128) as u64
        }
    }
}

// ---------------------------------------------------------------------
// Serving side
// ---------------------------------------------------------------------

/// Silo-side configuration for [`SiloSocketServer`]: the same
/// deterministic fault injection the in-memory worker supports, applied
/// per frame by the same serve step, plus an optional grid snapshot path.
#[derive(Default)]
pub struct SocketServerConfig {
    /// Deterministic fault injector (see [`crate::fault::FaultPlan`]).
    pub faults: Option<SiloFaultInjector>,
    /// When set, the silo's setup spec and retained grid are persisted
    /// here (checksummed, see [`crate::silo::SiloGridSnapshot`]) after
    /// every served `BuildGrid`, so a killed-and-respawned `fedra-silo`
    /// sets itself up from disk instead of waiting for a provider.
    pub snapshot_path: Option<PathBuf>,
}

/// Stops a server's accept loop: raises its stop flag, then wakes the
/// blocked `accept` with a throwaway self-connect, which the loop discards
/// once it sees the flag. Every path that stops a server goes through
/// here — without the wake, joining the accept thread would hang.
#[derive(Clone)]
pub(crate) struct ServerStop {
    flag: Arc<AtomicBool>,
    addr: SiloAddr,
    /// Whether the accept loop still holds its listener; cleared, and the
    /// waiters woken, once the loop has dropped it.
    listening: Arc<(Mutex<bool>, Condvar)>,
}

impl ServerStop {
    fn new(addr: SiloAddr) -> ServerStop {
        ServerStop {
            flag: Arc::new(AtomicBool::new(false)),
            addr,
            listening: Arc::new((Mutex::new(true), Condvar::new())),
        }
    }

    fn stop(&self) {
        self.flag.store(true, Ordering::Release);
        let _ = self.addr.connect();
    }

    fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Reports the listener closed (the accept loop, once it dropped it).
    fn closed(&self) {
        let (listening, cv) = &*self.listening;
        *listening.lock().unwrap_or_else(PoisonError::into_inner) = false;
        cv.notify_all();
    }

    /// Stops the server and waits, at most [`CLOSE_WAIT`], until its
    /// listener is closed: from then on a reconnect is refused.
    fn stop_and_close(&self) {
        self.stop();
        let (listening, cv) = &*self.listening;
        let open = listening.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = cv.wait_timeout_while(open, CLOSE_WAIT, |open| *open);
    }
}

struct ServerShared {
    server: SiloServer,
    /// Raised by [`SiloSocketServer::stop`], its drop, the owning
    /// transport's drop, or an injected crash: the server stops accepting
    /// and drops every connection at its next frame, so clients observe
    /// `Disconnected` — the socket analogue of the in-memory worker thread
    /// exiting.
    stop: ServerStop,
    /// Failed accepts, each retried after a backoff.
    accept_errors: Arc<fedra_obs::Counter>,
}

/// One silo served over a socket: an accept loop plus one sequential
/// frame-handling thread per connection. This is what `fedra-silo serve`
/// runs, and what the in-process socket backend
/// ([`spawn_silo_socket`]) stands up behind the scenes.
///
/// Frames on one connection are handled strictly in arrival order —
/// matching the in-memory worker's envelope queue — and each consumes
/// one fault-injector action, so a seeded [`crate::fault::FaultPlan`]
/// produces the same schedule on both backends. An idle server wakes no
/// thread: the accept loop and every connection thread block in the
/// kernel until a peer connects or sends.
pub struct SiloSocketServer {
    stop: ServerStop,
    thread: Option<JoinHandle<()>>,
}

impl SiloSocketServer {
    /// Binds `addr` and starts serving `silo`. Returns the running
    /// server; [`SiloSocketServer::addr`] carries the resolved address
    /// (with the ephemeral port filled in for TCP `host:0`).
    pub fn spawn(
        silo: Silo,
        addr: &SiloAddr,
        config: SocketServerConfig,
    ) -> Result<SiloSocketServer, TransportError> {
        let id = silo.id();
        let spawn_err = |reason: String| TransportError::Spawn { silo: id, reason };
        let (listener, resolved) =
            SocketListener::bind(addr).map_err(|e| spawn_err(format!("bind {addr}: {e}")))?;
        let stop = ServerStop::new(resolved);
        let accept_errors = silo.metrics().series(&SILO_ACCEPT_ERRORS_TOTAL, &[&id]);
        let shared = Arc::new(ServerShared {
            server: SiloServer {
                silo,
                faults: Mutex::new(config.faults),
                snapshot_path: config.snapshot_path,
            },
            stop: stop.clone(),
            accept_errors,
        });
        let thread = std::thread::Builder::new()
            .name(format!("fedra-silo-srv-{id}"))
            .spawn(move || accept_loop(listener, shared))
            .map_err(|e| spawn_err(format!("spawn accept loop: {e}")))?;
        Ok(SiloSocketServer {
            stop,
            thread: Some(thread),
        })
    }

    /// The resolved listen address.
    pub fn addr(&self) -> &SiloAddr {
        &self.stop.addr
    }

    /// Makes the accept loop exit; live connections close at their next
    /// frame.
    pub fn stop(&self) {
        self.stop.stop();
    }

    /// Dismantles the handle into its stop handle and join handle — the
    /// in-process backend hands the join handle to the federation's
    /// worker list and ties the stop to the client transport's drop.
    pub(crate) fn detach(mut self) -> (ServerStop, Option<JoinHandle<()>>) {
        let thread = self.thread.take();
        (self.stop.clone(), thread)
    }

    /// Blocks until the accept loop exits (`fedra-silo serve` runs until
    /// killed or crashed by an injected fault).
    pub fn join(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for SiloSocketServer {
    fn drop(&mut self) {
        // Only while still owning the accept loop: `detach()` hands the
        // stop responsibility to the client transport's drop.
        if let Some(thread) = self.thread.take() {
            self.stop.stop();
            let _ = thread.join();
        }
    }
}

/// Accepts until the server is stopped. Only the stop flag ends the loop:
/// a failed accept (out of descriptors, say, which leaves the connection
/// queued) is counted and retried after the shared backoff.
fn accept_loop(listener: SocketListener, shared: Arc<ServerShared>) {
    let silo = shared.server.silo.id();
    let mut failures = 0u32;
    loop {
        let accepted = listener.accept();
        if shared.stop.is_stopped() {
            break;
        }
        match accepted {
            Ok(conn) => {
                failures = 0;
                let shared = Arc::clone(&shared);
                // A failed handler spawn drops the connection; the peer
                // sees EOF and handles it like any other loss.
                let _ = std::thread::Builder::new()
                    .name("fedra-silo-conn".into())
                    .spawn(move || serve_connection(conn, shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                shared.accept_errors.inc();
                failures = failures.saturating_add(1);
                std::thread::sleep(super::backoff(silo, failures, 0));
            }
        }
    }
    // Closing the listener (and removing a Unix socket path) refuses
    // every later connect; a crashing connection waits for this before it
    // drops its peer.
    drop(listener);
    shared.stop.closed();
}

/// Serves one connection: frames strictly in arrival order, each through
/// the serve step the in-memory worker runs ([`SiloServer::serve`]).
fn serve_connection(conn: SocketStream, shared: Arc<ServerShared>) {
    let mut reader = std::io::BufReader::new(&conn);
    loop {
        if shared.stop.is_stopped() {
            return;
        }
        let frame = match read_request_frame(&mut reader) {
            Ok(frame) => frame,
            Err(_) => return, // EOF, truncation, or protocol corruption: drop the connection
        };
        // The deadline was shipped as relative microseconds; re-anchor it
        // at receipt.
        let deadline = (frame.deadline_rel_us != DEADLINE_NONE)
            .then(|| Instant::now() + Duration::from_micros(frame.deadline_rel_us));
        match shared.server.serve(frame.payload, deadline) {
            Served::Reply(payload) => {
                if write_reply_frame(&mut &conn, frame.corr, frame.epoch, &payload).is_err() {
                    return;
                }
            }
            Served::NoReply => {}
            Served::Crash => {
                // The whole server dies, like the in-memory worker thread
                // exiting: the listener closes first, so the peer's
                // reconnect is refused, then this connection drops without
                // a reply.
                shared.stop.stop_and_close();
                conn.shutdown();
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// One established connection: the stream both directions share, and the
/// generation it was established as.
struct Link {
    stream: SocketStream,
    gen: u64,
    /// Serializes frame writes, so concurrent senders never interleave
    /// partial frames. Held for one write (or one non-blocking read pass),
    /// never across a blocking read.
    writer: Mutex<()>,
}

/// Reply bytes read off one connection and not yet dispatched, plus the
/// read timeout last set on its socket. Partial frame bytes stay here when
/// a read times out mid-frame, so the next reader picks the stream up in
/// frame sync.
#[derive(Default)]
struct FrameBuf {
    /// Generation of the connection the bytes came from.
    gen: u64,
    buf: Vec<u8>,
    /// The undispatched bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// The socket's current read timeout (`None`: reads block).
    timeout: Option<Duration>,
}

impl FrameBuf {
    /// Points the buffer at connection `gen`, dropping an older
    /// connection's leftovers.
    fn attach(&mut self, gen: u64) {
        if self.gen != gen {
            self.gen = gen;
            self.start = 0;
            self.end = 0;
            self.timeout = None;
        }
        if self.buf.len() < READ_CHUNK {
            self.buf.resize(READ_CHUNK, 0);
        }
    }

    /// The next complete reply frame, `(corr, epoch, payload)`, as
    /// [`parse_frame`] reads it.
    fn next_frame(&mut self) -> Result<Option<(u64, u64, Bytes)>, FrameError> {
        let frame = &self.buf[self.start..self.end];
        let Parsed::Whole(total) = parse_frame(frame, &REPLY)? else {
            return Ok(None);
        };
        let reply = (
            read_u64(frame, 4),
            read_u64(frame, 12),
            Bytes::from(&frame[REPLY_HEADER_LEN..total]),
        );
        self.start += total;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > READ_CHUNK {
                self.buf.truncate(READ_CHUNK);
                self.buf.shrink_to_fit();
            }
        }
        Ok(Some(reply))
    }

    /// One read from `stream` into the free space, after moving the
    /// undispatched bytes to the front and growing the buffer to fit the
    /// frame they begin. `Ok(0)` is the peer's close.
    fn read_from(&mut self, mut stream: impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let frame_len = match parse_frame(&self.buf[..self.end], &REPLY) {
            Ok(Parsed::Need(len)) => len,
            _ => 0,
        };
        let need = frame_len.max(self.end + 1);
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// The connection's read side, shared by the waiters: at most one of them
/// reads at a time.
#[derive(Default)]
struct Rx {
    /// A waiter is reading, with `frames` lent out to it.
    reading: bool,
    frames: FrameBuf,
    /// Waiters parked on their own slot while another reads.
    parked: Vec<Arc<ReplySlot>>,
}

impl Rx {
    /// With nobody reading, nudges the first parked waiter still without
    /// its reply to take the reads over.
    fn hand_off(&self) {
        if !self.reading {
            let _ = self.parked.iter().any(|slot| slot.nudge());
        }
    }
}

/// Rounds a read timeout up to whole milliseconds: the kernel counts
/// socket timeouts in scheduler ticks anyway, and a coarse value lets
/// consecutive waits keep the timeout already set.
fn read_timeout(left: Duration) -> Duration {
    let ms = left.as_nanos().div_ceil(1_000_000);
    Duration::from_millis(u64::try_from(ms).unwrap_or(u64::MAX))
}

/// The socket [`Transport`] backend: one multiplexed connection per
/// channel, length-prefixed frames (see the module docs), correlation-id
/// reply pairing through the shared in-flight table, and
/// reconnect-on-transient.
///
/// It runs no thread of its own. A caller waiting on a reply reads the
/// connection itself and hands every reply it reads to its call's slot;
/// callers that find another caller reading park on their own slot until
/// it is filled, or until the reader stops and nudges one of them to read
/// next ([`Transport::wait_reply`]).
pub struct SocketTransport {
    silo: SiloId,
    addr: SiloAddr,
    /// Generation of the latest connection: bumped on every (re)connect,
    /// so the in-flight sweep fails only calls sent on the lost
    /// connection, and a second report of one loss finds it handled.
    generation: AtomicU64,
    /// The current connection (`None` once a loss was given up on). Held
    /// briefly, and across reconnect attempts — never across a read or a
    /// write.
    conn: Mutex<Option<Arc<Link>>>,
    /// In-flight calls; a call's token is its frames' correlation id.
    inflight: Inflight,
    rx: Mutex<Rx>,
    diagnostics: SiloDiagnostics,
    reconnects: Arc<fedra_obs::Counter>,
    /// Stale-epoch replies fenced out (see the module docs).
    fenced: Arc<fedra_obs::Counter>,
    /// When the backend owns an in-process server, dropping the transport
    /// tears the server down too.
    server: Option<ServerStop>,
}

impl SocketTransport {
    /// Connects to the remote silo served at `addr`. `silo` is the
    /// provider-side id for error attribution; the served counter, failure
    /// flag and metrics registry are client-local (see
    /// [`SiloDiagnostics`]).
    pub fn connect(silo: SiloId, addr: SiloAddr) -> Result<SocketTransport, TransportError> {
        Self::open(silo, addr, SiloDiagnostics::remote())
    }

    /// Connects to `addr` reporting through `diagnostics` (an in-process
    /// silo's own, for [`spawn_silo_socket`]).
    fn open(
        silo: SiloId,
        addr: SiloAddr,
        diagnostics: SiloDiagnostics,
    ) -> Result<SocketTransport, TransportError> {
        let reconnects = diagnostics.metrics.series(&TRANSPORT_RECONNECTS_TOTAL, &[]);
        let fenced = diagnostics.metrics.series(&EPOCH_FENCED_REPLIES_TOTAL, &[]);
        let transport = SocketTransport {
            silo,
            addr,
            generation: AtomicU64::new(0),
            conn: Mutex::new(None),
            inflight: Inflight::default(),
            rx: Mutex::new(Rx::default()),
            diagnostics: SiloDiagnostics {
                backend: "socket",
                ..diagnostics
            },
            reconnects,
            fenced,
            server: None,
        };
        transport.establish(
            &mut transport
                .conn
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )?;
        Ok(transport)
    }

    /// Ties an in-process server's stop to this transport's drop (used by
    /// [`spawn_silo_socket`]).
    fn with_server_stop(mut self, stop: ServerStop) -> SocketTransport {
        self.server = Some(stop);
        self
    }

    /// The address this transport is connected to.
    pub fn addr(&self) -> &SiloAddr {
        &self.addr
    }

    /// Connects under the `conn` lock, as the next generation.
    fn establish(&self, conn: &mut Option<Arc<Link>>) -> Result<(), TransportError> {
        let stream = self
            .addr
            .connect()
            .map_err(|_| TransportError::Disconnected { silo: self.silo })?;
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        *conn = Some(Arc::new(Link {
            stream,
            gen,
            writer: Mutex::new(()),
        }));
        Ok(())
    }

    /// Handles the loss of connection `lost_gen`, whoever saw it — a
    /// reading waiter (EOF, a corrupt or truncated frame) or a sender
    /// whose write failed. It shuts the lost stream (waking a waiter still
    /// reading it), reconnects and fails that connection's in-flight calls
    /// as retryable transients; once [`RECONNECT_ATTEMPTS`] attempts are
    /// refused, it fails them as `Disconnected`. The
    /// attempts stop at `deadline`, the observer's own: its calls then
    /// fail as transients, with the connection left down. Neither outcome
    /// is terminal — see [`Transport::send_frame`], which probes the peer
    /// again per call.
    fn handle_loss(&self, lost_gen: u64, deadline: Option<Instant>) {
        let mut conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        if conn.as_ref().is_none_or(|link| link.gen != lost_gen) {
            return; // handled already, or a newer connection superseded it
        }
        if let Some(link) = conn.take() {
            link.stream.shutdown();
        }
        let transient = |message: &str| TransportError::Transient {
            silo: self.silo,
            message: message.into(),
        };
        let mut attempt = 0u32;
        let error = loop {
            attempt += 1;
            if attempt > RECONNECT_ATTEMPTS {
                break None;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break Some(transient("socket connection lost"));
            }
            if self.establish(&mut conn).is_ok() {
                self.reconnects.inc();
                break Some(transient("socket connection lost; reconnected"));
            }
            let pause = super::backoff(self.silo, attempt, RECONNECT_SEED);
            let left = deadline.map_or(pause, |d| d.saturating_duration_since(Instant::now()));
            std::thread::sleep(pause.min(left));
        };
        drop(conn);
        self.inflight.sweep(lost_gen, error);
    }

    /// The connection call `token` rides, while it is the current one.
    fn link_of(&self, token: u64) -> Option<Arc<Link>> {
        let gen = self.inflight.generation(token)?;
        self.conn
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .filter(|link| link.gen == gen)
    }

    fn lock_rx(&self) -> MutexGuard<'_, Rx> {
        self.rx.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops `slot`'s parked registration and passes the reads on.
    fn leave(&self, slot: &Arc<ReplySlot>) {
        let mut rx = self.lock_rx();
        rx.parked.retain(|parked| !Arc::ptr_eq(parked, slot));
        rx.hand_off();
    }

    /// Hands every complete frame in `frames` to its call's slot. A reply
    /// from a dead connection generation is fenced: only a middlebox (the
    /// chaos proxy, a future load balancer) multiplexing one upstream
    /// connection across our reconnects can deliver one, and fencing it —
    /// instead of letting its corr race a fresh call — is the staleness
    /// guarantee the partition soak pins. A reply to a call already given
    /// up is dropped, like the in-memory worker filling a discarded slot.
    fn dispatch(&self, link: &Link, frames: &mut FrameBuf) -> Result<(), FrameError> {
        while let Some((corr, epoch, payload)) = frames.next_frame()? {
            if epoch != link.gen {
                self.fenced.inc();
                continue;
            }
            if let Some(slot) = self.inflight.retire(corr) {
                self.diagnostics.reply_drained();
                slot.fill(payload);
            }
        }
        Ok(())
    }

    /// Reads `link` as its one reader, dispatching every reply, until
    /// `slot` resolves or `deadline` passes. `None`: the connection was
    /// lost, and the loss handled — `slot` is swept with the rest of the
    /// connection's calls. EOF, a truncated frame and a checksum mismatch
    /// all count as a loss: the stream can no longer be trusted to be in
    /// frame sync.
    fn read_until(
        &self,
        link: &Link,
        frames: &mut FrameBuf,
        slot: &ReplySlot,
        deadline: Option<Instant>,
    ) -> Option<RecvOutcome> {
        frames.attach(link.gen);
        loop {
            if self.dispatch(link, frames).is_err() {
                break;
            }
            if let Some(outcome) = slot.poll() {
                return Some(outcome);
            }
            let timeout = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(Duration::ZERO) => {
                    if self.read_ready(link, frames, slot) {
                        return Some(slot.poll().unwrap_or(RecvOutcome::TimedOut));
                    }
                    break;
                }
                left => left.map(read_timeout),
            };
            if frames.timeout != timeout {
                if link.stream.set_read_timeout(timeout).is_err() {
                    break;
                }
                frames.timeout = timeout;
            }
            match frames.read_from(&link.stream) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if is_nothing_yet(&e) => {}
                Err(_) => break,
            }
        }
        self.handle_loss(link.gen, deadline);
        None
    }

    /// One non-blocking pass, for a wait whose deadline has passed: reads
    /// and dispatches whatever the kernel already holds, so a reply that
    /// arrived in time is not reported late. The writer lock keeps senders
    /// off the socket while it is non-blocking. `false`: the connection
    /// was lost.
    fn read_ready(&self, link: &Link, frames: &mut FrameBuf, slot: &ReplySlot) -> bool {
        let _writer = link.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if link.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let alive = loop {
            if self.dispatch(link, frames).is_err() {
                break false;
            }
            if slot.is_resolved() {
                break true;
            }
            match frames.read_from(&link.stream) {
                Ok(0) => break false,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break e.kind() == std::io::ErrorKind::WouldBlock,
            }
        };
        link.stream.set_nonblocking(false).is_ok() && alive
    }
}

/// Whether a read error only means "nothing yet" (a timeout or an
/// interrupted read), rather than a broken connection.
fn is_nothing_yet(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

impl Transport for SocketTransport {
    fn silo(&self) -> SiloId {
        self.silo
    }

    fn send_frame(
        &self,
        frame: Bytes,
        deadline: Option<Instant>,
        slot: &Arc<ReplySlot>,
    ) -> Result<u64, TransportError> {
        let link = {
            let mut conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
            if conn.is_none() {
                // An earlier loss was given up on. Probe the peer once per
                // call instead of failing forever: this is what lets a
                // health breaker's HalfOpen draw rejoin a respawned
                // `fedra-silo` after a partition heals. A refused connect
                // keeps surfacing as `Disconnected`, which the caller's
                // failure path records against the breaker.
                self.establish(&mut conn)?;
                self.reconnects.inc();
            }
            conn.clone()
        };
        let Some(link) = link else {
            return Err(TransportError::Disconnected { silo: self.silo });
        };
        let corr = self.inflight.register(link.gen, slot);
        let rel = deadline_to_rel_us(deadline, Instant::now());
        let written = {
            let _writer = link.writer.lock().unwrap_or_else(PoisonError::into_inner);
            write_request_frame(&mut &link.stream, corr, link.gen, rel, &frame)
        };
        let Err(e) = written else {
            return Ok(corr);
        };
        if self.inflight.retire(corr).is_none() {
            // A loss sweep claimed the call first and resolved its slot:
            // the wait reports that outcome.
            return Ok(corr);
        }
        // No thread reads the connection in the background to notice the
        // loss, so the sender handles it, then surfaces the send as a
        // retryable transient so the caller retries onto the fresh
        // connection.
        self.handle_loss(link.gen, deadline);
        Err(TransportError::Transient {
            silo: self.silo,
            message: format!("socket write failed: {e}"),
        })
    }

    fn retire(&self, token: u64) {
        self.inflight.retire(token);
    }

    fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    fn diagnostics(&self) -> &SiloDiagnostics {
        &self.diagnostics
    }

    /// The caller reads its own reply: it becomes the connection's reader
    /// unless another waiter already is, in which case it parks on its
    /// slot until that reader fills it, or stops and nudges it to read
    /// next. A call whose connection is gone waits for the loss sweep.
    fn wait_reply(
        &self,
        token: u64,
        slot: &Arc<ReplySlot>,
        deadline: Option<Instant>,
    ) -> RecvOutcome {
        let mut registered = false;
        let outcome = loop {
            if let Some(outcome) = slot.poll() {
                break outcome;
            }
            let Some(link) = self.link_of(token) else {
                if std::mem::take(&mut registered) {
                    self.leave(slot);
                }
                break slot.wait(deadline);
            };
            let mut rx = self.lock_rx();
            if std::mem::take(&mut registered) {
                rx.parked.retain(|parked| !Arc::ptr_eq(parked, slot));
            }
            if rx.reading {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    drop(rx);
                    break slot.poll().unwrap_or(RecvOutcome::TimedOut);
                }
                rx.parked.push(Arc::clone(slot));
                registered = true;
                drop(rx);
                match slot.park(deadline) {
                    Some(outcome) => break outcome,
                    None => continue, // nudged: the reads are ours to take
                }
            }
            rx.reading = true;
            let mut frames = std::mem::take(&mut rx.frames);
            drop(rx);
            let read = self.read_until(&link, &mut frames, slot, deadline);
            let mut rx = self.lock_rx();
            rx.reading = false;
            rx.frames = frames;
            rx.hand_off();
            drop(rx);
            if let Some(outcome) = read {
                break outcome;
            }
        };
        if registered {
            self.leave(slot);
        }
        outcome
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        if let Some(link) = self
            .conn
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            link.stream.shutdown();
        }
        if let Some(server) = &self.server {
            server.stop();
        }
    }
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("silo", &self.silo)
            .field("addr", &self.addr)
            .finish()
    }
}

// ---------------------------------------------------------------------
// In-process socket federation
// ---------------------------------------------------------------------

/// Stands one silo up behind a real loopback socket **in this process**:
/// binds an ephemeral TCP listener, serves the silo on it, and connects
/// a [`SocketTransport`] channel — sharing the silo's served counter,
/// failure flag and metrics registry, so every federation diagnostic
/// behaves exactly like the in-memory backend while all frames travel
/// through the kernel's socket stack.
///
/// This is the socket twin of [`super::spawn_silo`] (selected by
/// `FederationBuilder::transport_backend` or `FEDRA_TRANSPORT=socket`):
/// same fault-injection semantics, and the returned join handle is the
/// server's accept loop.
pub fn spawn_silo_socket(
    silo: Silo,
    stats: Arc<CommCounters>,
    faults: Option<SiloFaultInjector>,
) -> Result<(SiloChannel, JoinHandle<()>), TransportError> {
    let id = silo.id();
    let diagnostics = SiloDiagnostics::shared_with(&silo);
    let server = SiloSocketServer::spawn(
        silo,
        &SiloAddr::Tcp("127.0.0.1:0".into()),
        SocketServerConfig {
            faults,
            snapshot_path: None,
        },
    )?;
    let (stop, thread) = server.detach();
    let Some(thread) = thread else {
        return Err(TransportError::Spawn {
            silo: id,
            reason: "socket server thread missing".into(),
        });
    };
    let transport = match SocketTransport::open(id, stop.addr.clone(), diagnostics) {
        Ok(t) => t.with_server_stop(stop),
        Err(e) => {
            stop.stop();
            let _ = thread.join();
            return Err(e);
        }
    };
    Ok((SiloChannel::over(Arc::new(transport), stats), thread))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use crate::wire::Wire;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A stream that hands its bytes out in the given read sizes, in turn.
    struct Chunked<'a> {
        bytes: &'a [u8],
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            let n = size.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.reads += 1;
            Ok(n)
        }
    }

    /// What reading one reply frame came to.
    #[derive(Debug, PartialEq)]
    enum Read1 {
        Frame((u64, u64, Bytes)),
        Failed(FrameError),
        NeedMore,
    }

    /// Reads `bytes` through the client's buffered path ([`FrameBuf`]),
    /// `sizes` bytes a read, until a frame, a typed error or the end of
    /// the bytes; also returns the largest the buffer grew.
    fn buffered(bytes: &[u8], sizes: Vec<usize>) -> (Read1, usize) {
        let mut stream = Chunked {
            bytes,
            sizes,
            reads: 0,
        };
        let mut frames = FrameBuf::default();
        frames.attach(1);
        let mut grown = frames.buf.len();
        let outcome = loop {
            match frames.next_frame() {
                Ok(Some(frame)) => break Read1::Frame(frame),
                Ok(None) => {}
                Err(error) => break Read1::Failed(error),
            }
            match frames.read_from(&mut stream) {
                Ok(0) => break Read1::NeedMore,
                Ok(_) => grown = grown.max(frames.buf.len()),
                Err(e) => panic!("a slice never fails a read: {e}"),
            }
        };
        (outcome, grown)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Valid reply frames, each whole, cut short, with one payload byte
        /// flipped, or under a wrong length prefix (just over the cap, or
        /// small), read in random chunk sizes: the buffered read path gives
        /// back the frame, a typed error or "need more bytes", never
        /// panics, and allocates nothing for a prefix over the cap. The
        /// exact-read `read_reply_frame` comes to the same outcome.
        #[test]
        fn hostile_reply_bytes_come_back_whole_typed_or_wanting(
            payload in vec(any::<u8>(), 0..200),
            ids in (any::<u64>(), any::<u64>()),
            damage in 0u8..5,
            at in any::<u32>(),
            sizes in vec(1usize..64, 1..6),
        ) {
            let mut frame = Vec::new();
            write_reply_frame(&mut frame, ids.0, ids.1, &payload).expect("encode");
            let original = (ids.0, ids.1, Bytes::from(payload.as_slice()));
            let at = at as usize;
            match damage {
                1 => frame.truncate(at % frame.len()),
                2 => {
                    // No payload byte to flip: the checksum's, then.
                    let i = REPLY_HEADER_LEN + at % payload.len().max(1) - usize::from(payload.is_empty());
                    frame[i] ^= 1 << (at % 8);
                }
                3 => {
                    let len = MAX_FRAME_PAYLOAD + 1 + (at % 1024) as u32;
                    frame[..4].copy_from_slice(&len.to_le_bytes());
                }
                4 => {
                    let wrong = (at % 256) as u32;
                    prop_assume!(wrong as usize != payload.len());
                    frame[..4].copy_from_slice(&wrong.to_le_bytes());
                }
                _ => {}
            }
            let (outcome, grown) = buffered(&frame, sizes);
            match damage {
                0 => prop_assert_eq!(&outcome, &Read1::Frame(original.clone())),
                1 => prop_assert_eq!(&outcome, &Read1::NeedMore),
                2 => prop_assert_eq!(
                    &outcome,
                    &Read1::Failed(FrameError::Corrupt { context: "reply payload" })
                ),
                3 => {
                    prop_assert!(matches!(outcome, Read1::Failed(FrameError::Oversized { .. })));
                    prop_assert_eq!(grown, READ_CHUNK);
                }
                _ => prop_assert!(match &outcome {
                    Read1::Frame(got) => *got == original,
                    Read1::Failed(FrameError::Corrupt { .. }) | Read1::NeedMore => true,
                    Read1::Failed(_) => false,
                }),
            }
            let exact = match read_reply_frame(&mut frame.as_slice()) {
                Ok(frame) => Read1::Frame(frame),
                Err(FrameError::Eof | FrameError::Truncated { .. }) => Read1::NeedMore,
                Err(error) => Read1::Failed(error),
            };
            prop_assert_eq!(exact, outcome);
        }
    }

    #[test]
    fn addr_parse_roundtrips() {
        assert_eq!(
            SiloAddr::parse("tcp:127.0.0.1:9000"),
            Ok(SiloAddr::Tcp("127.0.0.1:9000".into()))
        );
        assert_eq!(
            SiloAddr::parse("127.0.0.1:9000"),
            Ok(SiloAddr::Tcp("127.0.0.1:9000".into()))
        );
        #[cfg(unix)]
        assert_eq!(
            SiloAddr::parse("unix:/tmp/s.sock"),
            Ok(SiloAddr::Unix(PathBuf::from("/tmp/s.sock")))
        );
        assert!(SiloAddr::parse("nonsense").is_err());
        assert_eq!(
            SiloAddr::parse("unix:/a/b").map(|a| a.to_string()),
            Ok("unix:/a/b".into())
        );
    }

    #[test]
    fn request_frame_roundtrips_and_payload_is_wire_identical() {
        let request = Request::Ping;
        let payload = request.to_bytes();
        let mut buf = Vec::new();
        write_request_frame(&mut buf, 42, 3, 1234, &payload).expect("write");
        assert_eq!(buf.len(), REQUEST_HEADER_LEN + payload.len());
        // The payload section is byte-identical to the in-memory frame.
        assert_eq!(&buf[REQUEST_HEADER_LEN..], payload.as_ref());
        let frame = read_request_frame(&mut buf.as_slice()).expect("read");
        assert_eq!(frame.corr, 42);
        assert_eq!(frame.epoch, 3);
        assert_eq!(frame.deadline_rel_us, 1234);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn reply_frame_roundtrips() {
        let payload = Response::Pong.to_bytes();
        let mut buf = Vec::new();
        write_reply_frame(&mut buf, 7, 9, &payload).expect("write");
        assert_eq!(&buf[REPLY_HEADER_LEN..], payload.as_ref());
        let (corr, epoch, got) = read_reply_frame(&mut buf.as_slice()).expect("read");
        assert_eq!(corr, 7);
        assert_eq!(epoch, 9);
        assert_eq!(got, payload);
    }

    #[test]
    fn corrupted_payload_is_a_typed_error_not_a_wrong_answer() {
        // Flip one payload byte in each direction: the checksum must
        // catch it (a flipped byte inside a wire-encoded f64 would
        // otherwise decode silently into a different number).
        let payload = Response::Agg(fedra_index::Aggregate {
            count: 4.0,
            sum: 10.0,
            sum_sqr: 30.0,
        })
        .to_bytes();
        let mut buf = Vec::new();
        write_reply_frame(&mut buf, 1, 0, &payload).expect("write");
        let flip_at = REPLY_HEADER_LEN + payload.len() / 2;
        buf[flip_at] ^= 0x40;
        assert_eq!(
            read_reply_frame(&mut buf.as_slice()),
            Err(FrameError::Corrupt {
                context: "reply payload"
            })
        );
        let payload = Request::Ping.to_bytes();
        let mut buf = Vec::new();
        write_request_frame(&mut buf, 1, 0, DEADLINE_NONE, &payload).expect("write");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        match read_request_frame(&mut buf.as_slice()) {
            Err(FrameError::Corrupt { context }) => assert_eq!(context, "request payload"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_and_truncation_are_distinguished() {
        let empty: &[u8] = &[];
        assert_eq!(read_reply_frame(&mut &*empty), Err(FrameError::Eof));
        // A partial header is a truncation, not a clean close.
        let partial = [1u8, 0, 0];
        assert_eq!(
            read_reply_frame(&mut partial.as_slice()),
            Err(FrameError::Truncated {
                context: "reply header"
            })
        );
        // A header announcing more payload than the stream carries.
        let mut buf = Vec::new();
        write_reply_frame(&mut buf, 9, 0, &[1, 2, 3, 4]).expect("write");
        buf.truncate(buf.len() - 2);
        assert_eq!(
            read_reply_frame(&mut buf.as_slice()),
            Err(FrameError::Truncated {
                context: "frame payload"
            })
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // corr
        buf.extend_from_slice(&0u64.to_le_bytes()); // epoch
        buf.extend_from_slice(&0u64.to_le_bytes()); // checksum
        assert_eq!(
            read_reply_frame(&mut buf.as_slice()),
            Err(FrameError::Oversized {
                len: u32::MAX as u64
            })
        );
        // Same check on the request path (header is longer).
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // corr
        buf.extend_from_slice(&0u64.to_le_bytes()); // epoch
        buf.extend_from_slice(&0u64.to_le_bytes()); // checksum
        buf.extend_from_slice(&DEADLINE_NONE.to_le_bytes());
        match read_request_frame(&mut buf.as_slice()) {
            Err(FrameError::Oversized { len }) => {
                assert_eq!(len, (MAX_FRAME_PAYLOAD + 1) as u64);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn deadline_encoding_saturates() {
        let now = Instant::now();
        assert_eq!(deadline_to_rel_us(None, now), DEADLINE_NONE);
        // Already expired: ships as 0 → shed on arrival.
        assert_eq!(
            deadline_to_rel_us(Some(now - Duration::from_millis(5)), now),
            0
        );
        let rel = deadline_to_rel_us(Some(now + Duration::from_millis(5)), now);
        assert!((4_000..=5_000).contains(&rel), "rel = {rel}");
    }
}
