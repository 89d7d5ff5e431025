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
//! * `checksum` is an FNV-1a digest of the payload bytes. A mismatch
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
//! # Reconnects and failure semantics
//!
//! A connection loss fails every in-flight call with a retryable
//! [`TransportError::Transient`] when a reconnect succeeds (callers retry
//! under their [`super::CallPolicy`]), and with
//! [`TransportError::Disconnected`] when the reconnect budget of the
//! client's [`ReconnectPolicy`] is exhausted — mirroring the in-memory
//! backend, where a crashed worker wakes its waiters with `Disconnected`.
//! Exhaustion is not terminal, though: every subsequent
//! [`Transport::send_frame`] makes one fresh connect attempt, so a
//! health-breaker HalfOpen probe rejoins a respawned peer (e.g. a
//! `fedra-silo` restarted from its `--snapshot-dir`) instead of failing
//! silently forever.
//!
//! # Determinism caveats
//!
//! The socket path keeps answers bit-identical to the in-memory path —
//! payload bytes, shed semantics, and per-silo request order (one
//! connection per channel, frames handled sequentially) all match. What
//! it cannot keep deterministic is *timing*: kernel scheduling and socket
//! buffering perturb latency-sensitive schedules (hedge firings, races),
//! which is why the in-memory backend remains the tier-1 default.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use super::{
    ReplySlot, Served, SiloChannel, SiloDiagnostics, SiloServer, Transport, TransportError,
};
use crate::fault::SiloFaultInjector;
use crate::silo::{Silo, SiloId};
use fedra_obs::catalog::{EPOCH_FENCED_REPLIES_TOTAL, TRANSPORT_RECONNECTS_TOTAL};
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

/// How often the accept loop polls its shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Default reconnect attempts after a connection loss before declaring
/// the peer dead (see [`ReconnectPolicy`]).
const RECONNECT_ATTEMPTS: u32 = 3;

/// Salt that keeps the reconnect backoff's jitter apart from the call
/// retries' (`"RECN"`).
const RECONNECT_SEED: u64 = 0x5245_434E;

/// How a [`SocketTransport`] retries after a connection loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconnectAttempts {
    /// Give up (fail in-flight calls, mark the client not-alive) after
    /// this many consecutive refused attempts.
    Limited(u32),
    /// Keep trying until the transport is dropped. For supervised
    /// deployments where the peer is expected to come back (a respawned
    /// `fedra-silo`); the backoff between attempts stays capped.
    Unbounded,
}

/// Reconnect policy for the socket client: an attempt budget. Between
/// attempts the client sleeps [`ReconnectPolicy::backoff`], the call
/// retries' capped exponential with its own jitter salt — no RNG, no
/// clock, so chaos runs stay reproducible while reconnect storms from
/// many clients decorrelate.
///
/// The default reproduces the historical hard-coded behaviour: 3
/// attempts, 2 ms base backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// How many consecutive refused attempts end the reconnect loop.
    pub attempts: ReconnectAttempts,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            attempts: ReconnectAttempts::Limited(RECONNECT_ATTEMPTS),
        }
    }
}

impl ReconnectPolicy {
    /// The supervised-deployment policy: retry forever (until the
    /// transport is dropped).
    pub fn unbounded() -> Self {
        ReconnectPolicy {
            attempts: ReconnectAttempts::Unbounded,
        }
    }

    /// Whether attempt number `attempt` (1-based) is still within the
    /// budget.
    pub fn allows_attempt(&self, attempt: u32) -> bool {
        match self.attempts {
            ReconnectAttempts::Limited(n) => attempt <= n,
            ReconnectAttempts::Unbounded => true,
        }
    }

    /// Backoff before reconnect attempt `attempt` (1-based) to `silo`:
    /// the transport's shared `backoff` salted with `RECONNECT_SEED`.
    pub fn backoff(&self, silo: SiloId, attempt: u32) -> Duration {
        super::backoff(silo, attempt, RECONNECT_SEED)
    }
}

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
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.flush(),
        }
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
                listener.set_nonblocking(true)?;
                Ok((SocketListener::Tcp(listener), resolved))
            }
            #[cfg(unix)]
            SiloAddr::Unix(path) => {
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok((SocketListener::Unix(listener, path.clone()), addr.clone()))
            }
        }
    }

    /// Non-blocking accept: `Ok(None)` when no connection is pending.
    fn accept(&self) -> std::io::Result<Option<SocketStream>> {
        let accepted = match self {
            SocketListener::Tcp(l) => l.accept().map(|(s, _)| SocketStream::Tcp(s)),
            #[cfg(unix)]
            SocketListener::Unix(l, _) => l.accept().map(|(s, _)| SocketStream::Unix(s)),
        };
        match accepted {
            Ok(stream) => Ok(Some(stream)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
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
/// peer close (first byte of a header) from a mid-frame truncation.
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

/// Validates a length prefix and reads the payload it announces.
fn read_payload(r: &mut impl Read, len: u32) -> Result<Bytes, FrameError> {
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized { len: len as u64 });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_frame(r, &mut payload, false, "frame payload")?;
    Ok(Bytes::from(payload))
}

/// FNV-1a digest of the payload bytes — cheap, deterministic, and more
/// than enough to catch the byte flips a chaos proxy (or a flaky link)
/// injects. Not cryptographic; the threat model is corruption, not
/// forgery.
pub fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in payload {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn read_u64(header: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&header[at..at + 8]);
    u64::from_le_bytes(raw)
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
    buf.extend_from_slice(&payload_checksum(payload).to_le_bytes());
    buf.extend_from_slice(&deadline_rel_us.to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one request frame ([`FrameError::Eof`] on a clean peer close,
/// [`FrameError::Corrupt`] when the payload fails its checksum).
pub fn read_request_frame(r: &mut impl Read) -> Result<RequestFrame, FrameError> {
    let mut header = [0u8; REQUEST_HEADER_LEN];
    read_exact_frame(r, &mut header, true, "request header")?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let corr = read_u64(&header, 4);
    let epoch = read_u64(&header, 12);
    let checksum = read_u64(&header, 20);
    let deadline_rel_us = read_u64(&header, 28);
    let payload = read_payload(r, len)?;
    if payload_checksum(&payload) != checksum {
        return Err(FrameError::Corrupt {
            context: "request payload",
        });
    }
    Ok(RequestFrame {
        corr,
        epoch,
        deadline_rel_us,
        payload,
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
    buf.extend_from_slice(&payload_checksum(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one reply frame: `(corr, epoch, payload)`.
/// [`FrameError::Corrupt`] when the payload fails its checksum.
pub fn read_reply_frame(r: &mut impl Read) -> Result<(u64, u64, Bytes), FrameError> {
    let mut header = [0u8; REPLY_HEADER_LEN];
    read_exact_frame(r, &mut header, true, "reply header")?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let corr = read_u64(&header, 4);
    let epoch = read_u64(&header, 12);
    let checksum = read_u64(&header, 20);
    let payload = read_payload(r, len)?;
    if payload_checksum(&payload) != checksum {
        return Err(FrameError::Corrupt {
            context: "reply payload",
        });
    }
    Ok((corr, epoch, payload))
}

/// Encodes a call deadline as relative microseconds from `now`
/// (saturating at zero: an already-expired deadline ships as `0`, which
/// the serving side sheds on arrival — same as the in-memory worker).
pub fn deadline_to_rel_us(deadline: Option<Instant>, now: Instant) -> u64 {
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
    /// When set, the silo's retained grid is persisted here (checksummed,
    /// see [`crate::silo::SiloGridSnapshot`]) after every served
    /// `BuildGrid`, so a killed-and-respawned `fedra-silo` can warm-start
    /// from disk instead of re-binning its partition.
    pub snapshot_path: Option<PathBuf>,
}

struct ServerShared {
    server: SiloServer,
    shutdown: Arc<AtomicBool>,
    /// Set by an injected crash: the server stops accepting and drops
    /// every connection, so clients observe `Disconnected` — the socket
    /// analogue of the in-memory worker thread exiting.
    dead: Arc<AtomicBool>,
}

/// One silo served over a socket: an accept loop plus one sequential
/// frame-handling thread per connection. This is what `fedra-silo serve`
/// runs, and what the in-process socket backend
/// ([`spawn_silo_socket`]) stands up behind the scenes.
///
/// Frames on one connection are handled strictly in arrival order —
/// matching the in-memory worker's envelope queue — and each consumes
/// one fault-injector action, so a seeded [`crate::fault::FaultPlan`]
/// produces the same schedule on both backends.
pub struct SiloSocketServer {
    addr: SiloAddr,
    shutdown: Arc<AtomicBool>,
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
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ServerShared {
            server: SiloServer {
                silo,
                faults: Mutex::new(config.faults),
                snapshot_path: config.snapshot_path,
            },
            shutdown: Arc::clone(&shutdown),
            dead: Arc::new(AtomicBool::new(false)),
        });
        let thread = std::thread::Builder::new()
            .name(format!("fedra-silo-srv-{id}"))
            .spawn(move || accept_loop(listener, shared))
            .map_err(|e| spawn_err(format!("spawn accept loop: {e}")))?;
        Ok(SiloSocketServer {
            addr: resolved,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The resolved listen address.
    pub fn addr(&self) -> &SiloAddr {
        &self.addr
    }

    /// Asks the accept loop to exit (live connections drain on their own
    /// when the peers close).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Dismantles the handle into its shutdown flag and join handle —
    /// the in-process backend hands the join handle to the federation's
    /// worker list and ties the flag to the client transport's drop.
    pub fn detach(mut self) -> (SiloAddr, Arc<AtomicBool>, Option<JoinHandle<()>>) {
        let thread = self.thread.take();
        (self.addr.clone(), Arc::clone(&self.shutdown), thread)
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
        // shutdown responsibility to the client transport's drop.
        if let Some(thread) = self.thread.take() {
            self.shutdown.store(true, Ordering::Release);
            let _ = thread.join();
        }
    }
}

fn accept_loop(listener: SocketListener, shared: Arc<ServerShared>) {
    while !shared.shutdown.load(Ordering::Acquire) && !shared.dead.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(Some(conn)) => {
                let shared = Arc::clone(&shared);
                // A failed handler spawn drops the connection; the peer
                // sees EOF and handles it like any other loss.
                let _ = std::thread::Builder::new()
                    .name("fedra-silo-conn".into())
                    .spawn(move || serve_connection(conn, shared));
            }
            Ok(None) => std::thread::sleep(ACCEPT_POLL),
            Err(_) => break,
        }
    }
    // Dropping the listener here closes it (and removes a Unix socket
    // path), so post-crash reconnect attempts are refused.
}

/// Serves one connection: frames strictly in arrival order, each through
/// the serve step the in-memory worker runs ([`SiloServer::serve`]).
fn serve_connection(conn: SocketStream, shared: Arc<ServerShared>) {
    if conn.set_nonblocking(false).is_err() {
        return;
    }
    let mut writer = conn;
    let mut reader = match writer.try_clone() {
        Ok(r) => std::io::BufReader::new(r),
        Err(_) => return,
    };
    loop {
        if shared.shutdown.load(Ordering::Acquire) || shared.dead.load(Ordering::Acquire) {
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
                if write_reply_frame(&mut writer, frame.corr, frame.epoch, &payload).is_err() {
                    return;
                }
            }
            Served::NoReply => {}
            Served::Crash => {
                // The whole server dies, like the in-memory worker thread
                // exiting: stop accepting, drop this connection without a
                // reply. Reconnects get refused once the listener drops.
                shared.dead.store(true, Ordering::Release);
                writer.shutdown();
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

struct ClientInner {
    silo: SiloId,
    addr: SiloAddr,
    /// Set once, by `Drop`: no reconnect may ever follow.
    closed: AtomicBool,
    policy: ReconnectPolicy,
    next_corr: AtomicU64,
    /// Connection generation: bumped on every (re)connect so a stale
    /// reader thread can tell its loss report is outdated, and the
    /// in-flight sweep only fails calls sent on the lost connection.
    generation: AtomicU64,
    /// Write half of the current connection.
    ///
    /// Lock order: `conn` before `inflight`, everywhere.
    conn: Mutex<Option<SocketStream>>,
    /// In-flight calls: corr → (generation, slot).
    inflight: Mutex<HashMap<u64, (u64, Arc<ReplySlot>)>>,
    diagnostics: SiloDiagnostics,
    reconnects: Arc<fedra_obs::Counter>,
    /// Stale-epoch replies the reader fenced out (see the module docs).
    fenced: Arc<fedra_obs::Counter>,
}

impl ClientInner {
    /// Establishes a connection under the `conn` lock (bumping the
    /// generation and spawning the paired reader thread).
    fn establish(self: &Arc<Self>, conn: &mut Option<SocketStream>) -> Result<(), TransportError> {
        let stream = self
            .addr
            .connect()
            .map_err(|_| TransportError::Disconnected { silo: self.silo })?;
        let read_half = stream
            .try_clone()
            .map_err(|_| TransportError::Disconnected { silo: self.silo })?;
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let inner = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("fedra-sock-rx-{}", self.silo))
            .spawn(move || reader_loop(inner, read_half, gen))
            .map_err(|e| TransportError::Spawn {
                silo: self.silo,
                reason: e.to_string(),
            })?;
        *conn = Some(stream);
        Ok(())
    }

    /// Fails every in-flight call sent on a generation ≤ `up_to` with
    /// `error` (or marks them dead when the peer is gone for good).
    fn sweep(&self, up_to: u64, error: Option<TransportError>) {
        let swept: Vec<Arc<ReplySlot>> = {
            let mut inflight = self.inflight.lock();
            let stale: Vec<u64> = inflight
                .iter()
                .filter(|(_, (gen, _))| *gen <= up_to)
                .map(|(corr, _)| *corr)
                .collect();
            stale
                .into_iter()
                .filter_map(|corr| inflight.remove(&corr).map(|(_, slot)| slot))
                .collect()
        };
        for slot in swept {
            match &error {
                Some(e) => slot.fail(e.clone()),
                None => slot.mark_dead(),
            }
        }
    }

    /// Handles a connection loss observed by the reader of `lost_gen`:
    /// reconnect under the client's [`ReconnectPolicy`] (failing that
    /// generation's in-flight calls as retryable transients), or give up
    /// for now. Exhaustion is not terminal — see [`Transport::send_frame`],
    /// which probes the peer again per call.
    fn handle_loss(self: &Arc<Self>, lost_gen: u64) {
        let mut conn = self.conn.lock();
        if self.generation.load(Ordering::Acquire) != lost_gen {
            return; // a newer connection superseded the lost one
        }
        *conn = None;
        if self.closed.load(Ordering::Acquire) {
            drop(conn);
            self.sweep(lost_gen, None);
            return;
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if !self.policy.allows_attempt(attempt) || self.closed.load(Ordering::Acquire) {
                break;
            }
            if self.establish(&mut conn).is_ok() {
                self.reconnects.inc();
                drop(conn);
                self.sweep(
                    lost_gen,
                    Some(TransportError::Transient {
                        silo: self.silo,
                        message: "socket connection lost; reconnected".into(),
                    }),
                );
                return;
            }
            std::thread::sleep(self.policy.backoff(self.silo, attempt));
        }
        drop(conn);
        self.sweep(u64::MAX, None);
    }
}

fn reader_loop(inner: Arc<ClientInner>, read_half: SocketStream, gen: u64) {
    let mut reader = std::io::BufReader::new(read_half);
    loop {
        match read_reply_frame(&mut reader) {
            Ok((corr, epoch, payload)) => {
                if epoch != gen {
                    // A reply solicited on a dead connection generation:
                    // only reachable when a middlebox (the chaos proxy, a
                    // future load balancer) multiplexes one upstream
                    // connection across our reconnects. Fencing it here —
                    // instead of letting the corr race a fresh call that
                    // reused the slot map — is the staleness guarantee
                    // the partition soak pins.
                    inner.fenced.inc();
                    continue;
                }
                let slot = inner.inflight.lock().remove(&corr).map(|(_, slot)| slot);
                if let Some(slot) = slot {
                    inner.diagnostics.reply_drained();
                    slot.fill(payload);
                }
                // An unknown corr is a reply to an abandoned call whose
                // entry was already retired — dropped, like the in-memory
                // worker filling a discarded slot.
            }
            Err(_) => {
                // EOF, truncation, or a checksum mismatch (`Corrupt`):
                // the stream can no longer be trusted to be in frame
                // sync, so the connection is torn down and in-flight
                // calls retry on the replacement.
                inner.handle_loss(gen);
                return;
            }
        }
    }
}

/// The socket [`Transport`] backend: one multiplexed connection per
/// channel, length-prefixed frames (see the module docs), correlation-id
/// reply pairing, and reconnect-on-transient.
pub struct SocketTransport {
    inner: Arc<ClientInner>,
    /// When the backend owns an in-process server, dropping the last
    /// channel clone tears the server down too.
    server_shutdown: Option<Arc<AtomicBool>>,
}

impl SocketTransport {
    /// Connects to the silo served at `addr` with the default
    /// [`ReconnectPolicy`]. `silo` is the provider-side id for error
    /// attribution; `diagnostics` decides whether served/failed/metrics
    /// are shared with an in-process silo or client-local (see
    /// [`SiloDiagnostics`]).
    pub fn connect(
        silo: SiloId,
        addr: SiloAddr,
        diagnostics: SiloDiagnostics,
    ) -> Result<SocketTransport, TransportError> {
        Self::connect_with(silo, addr, diagnostics, ReconnectPolicy::default())
    }

    /// Like [`SocketTransport::connect`], with an explicit reconnect
    /// policy (its attempt budget).
    pub fn connect_with(
        silo: SiloId,
        addr: SiloAddr,
        diagnostics: SiloDiagnostics,
        policy: ReconnectPolicy,
    ) -> Result<SocketTransport, TransportError> {
        let reconnects = diagnostics.metrics.series(&TRANSPORT_RECONNECTS_TOTAL, &[]);
        let fenced = diagnostics.metrics.series(&EPOCH_FENCED_REPLIES_TOTAL, &[]);
        let inner = Arc::new(ClientInner {
            silo,
            addr,
            closed: AtomicBool::new(false),
            policy,
            next_corr: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            conn: Mutex::new(None),
            inflight: Mutex::new(HashMap::new()),
            diagnostics: SiloDiagnostics {
                backend: "socket",
                ..diagnostics
            },
            reconnects,
            fenced,
        });
        {
            let mut conn = inner.conn.lock();
            inner.establish(&mut conn)?;
        }
        Ok(SocketTransport {
            inner,
            server_shutdown: None,
        })
    }

    /// Ties an in-process server's shutdown flag to this transport's
    /// drop (used by [`spawn_silo_socket`]).
    pub fn with_server_shutdown(mut self, flag: Arc<AtomicBool>) -> SocketTransport {
        self.server_shutdown = Some(flag);
        self
    }

    /// The address this transport is connected to.
    pub fn addr(&self) -> &SiloAddr {
        &self.inner.addr
    }
}

impl Transport for SocketTransport {
    fn silo(&self) -> SiloId {
        self.inner.silo
    }

    fn send_frame(
        &self,
        frame: Bytes,
        deadline: Option<Instant>,
        slot: &Arc<ReplySlot>,
    ) -> Result<u64, TransportError> {
        let inner = &self.inner;
        if inner.closed.load(Ordering::Acquire) {
            return Err(TransportError::Disconnected { silo: inner.silo });
        }
        let mut conn = inner.conn.lock();
        if conn.is_none() {
            // The reconnect budget ran out earlier (or the loss handler
            // gave the connection up while we waited on the lock). Probe
            // the peer once per call instead of failing forever: this is
            // what lets a health breaker's HalfOpen draw rejoin a
            // respawned `fedra-silo` after a partition heals. A refused
            // connect keeps surfacing as `Disconnected`, which the
            // caller's failure path records against the breaker.
            if inner.closed.load(Ordering::Acquire) || inner.establish(&mut conn).is_err() {
                return Err(TransportError::Disconnected { silo: inner.silo });
            }
            inner.reconnects.inc();
        }
        let Some(stream) = conn.as_mut() else {
            return Err(TransportError::Disconnected { silo: inner.silo });
        };
        let corr = inner.next_corr.fetch_add(1, Ordering::Relaxed);
        let gen = inner.generation.load(Ordering::Acquire);
        inner.inflight.lock().insert(corr, (gen, Arc::clone(slot)));
        let rel = deadline_to_rel_us(deadline, Instant::now());
        match write_request_frame(stream, corr, gen, rel, &frame) {
            Ok(()) => Ok(corr),
            Err(e) => {
                inner.inflight.lock().remove(&corr);
                // The reader on this connection will observe the same
                // failure and drive the reconnect; surface the send as a
                // retryable transient so the caller retries onto the
                // fresh connection.
                Err(TransportError::Transient {
                    silo: inner.silo,
                    message: format!("socket write failed: {e}"),
                })
            }
        }
    }

    fn retire(&self, token: u64) {
        self.inner.inflight.lock().remove(&token);
    }

    fn inflight_len(&self) -> usize {
        self.inner.inflight.lock().len()
    }

    fn diagnostics(&self) -> &SiloDiagnostics {
        &self.inner.diagnostics
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // Order matters: mark the client closed first so neither the
        // reader's loss handler nor a racing send will reconnect, then
        // close the stream to wake the reader.
        self.inner.closed.store(true, Ordering::Release);
        if let Some(flag) = &self.server_shutdown {
            flag.store(true, Ordering::Release);
        }
        if let Some(stream) = self.inner.conn.lock().take() {
            stream.shutdown();
        }
    }
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("silo", &self.inner.silo)
            .field("addr", &self.inner.addr)
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
/// same fault-injection semantics, plus the client's reconnect policy,
/// and the returned join handle is the server's accept loop.
pub fn spawn_silo_socket(
    silo: Silo,
    stats: Arc<CommCounters>,
    faults: Option<SiloFaultInjector>,
    reconnect: ReconnectPolicy,
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
    let (addr, shutdown, thread) = server.detach();
    let Some(thread) = thread else {
        return Err(TransportError::Spawn {
            silo: id,
            reason: "socket server thread missing".into(),
        });
    };
    let transport = match SocketTransport::connect_with(id, addr, diagnostics, reconnect) {
        Ok(t) => t.with_server_shutdown(shutdown),
        Err(e) => {
            shutdown.store(true, Ordering::Release);
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
    fn reconnect_policy_defaults_reproduce_old_constants() {
        let p = ReconnectPolicy::default();
        assert_eq!(p.attempts, ReconnectAttempts::Limited(RECONNECT_ATTEMPTS));
        assert!(p.allows_attempt(1) && p.allows_attempt(3) && !p.allows_attempt(4));
        assert!(ReconnectPolicy::unbounded().allows_attempt(u32::MAX));
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
