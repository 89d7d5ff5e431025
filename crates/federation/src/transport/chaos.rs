//! A network-chaos proxy for partition and corruption drills.
//!
//! [`ChaosProxy`] sits between a [`super::socket::SocketTransport`] client
//! and a `fedra-silo` server on the socket path and injects, on demand,
//! the faults a real network delivers. It draws nothing: every fault is a
//! drill the test arms, so a run replays exactly. Seeded per-silo faults
//! (latency, drops, refusals, flaps, crashes) belong to
//! [`crate::fault::FaultPlan`], which the serve step applies on either
//! backend.
//!
//! * **hard partition** — [`ChaosProxy::partition_for`] severs the client
//!   and black-holes traffic until the deadline passes, after which the
//!   health breaker's HalfOpen probes rejoin the silo;
//! * **connection drop** — [`ChaosProxy::drop_client_after_next_request`]
//!   severs the client right after forwarding a request; in-flight calls
//!   retry on the reconnect (or fail typed, never wrong);
//! * **byte corruption** — [`ChaosProxy::corrupt_next_reply`] flips a bit
//!   of the next reply *without* fixing the header checksum, surfacing as
//!   [`super::socket::FrameError::Corrupt`].
//!
//! # Topology: one upstream connection, many client generations
//!
//! The proxy keeps **one persistent connection to the upstream silo** for
//! its whole life and multiplexes every client connection over it. That
//! asymmetry is what makes epoch fencing reachable: when the proxy drops
//! the client mid-call, the silo's reply still comes back on the healthy
//! upstream connection, and the proxy forwards it to the *reconnected*
//! client — a reply stamped with a dead connection generation, which the
//! client's reader must fence (`fedra_epoch_fenced_replies_total`) rather
//! than let answer a fresh call. [`ChaosProxy::drop_client_after_next_request`]
//! produces exactly this interleaving on demand.
//!
//! Corruption applies only on the **reply path**: the upstream connection
//! must stay framing-healthy, or the silo would drop it and the proxy
//! would degenerate into a plain connection killer.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::socket::{
    read_reply_frame, read_request_frame, write_reply_frame, write_request_frame, SiloAddr,
    SocketStream, REPLY_HEADER_LEN,
};

/// How often blocked proxy loops poll their flags.
const POLL: Duration = Duration::from_millis(1);

/// How long the reply pump waits for a client connection to deliver a
/// pending reply to before giving the frame up as partition-lost.
const REPLY_LINGER: Duration = Duration::from_secs(2);

/// What the proxy did with the replies it read (see
/// [`ChaosProxy::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Reply frames forwarded intact.
    pub replies_forwarded: u64,
    /// Reply frames forwarded with a flipped bit.
    pub replies_corrupted: u64,
    /// Reply frames silently dropped (partition losses, or no client
    /// connection to deliver to).
    pub replies_dropped: u64,
}

#[derive(Default)]
struct StatCells {
    replies_forwarded: AtomicU64,
    replies_corrupted: AtomicU64,
    replies_dropped: AtomicU64,
}

struct Inner {
    /// Write half of the one persistent upstream connection.
    upstream: Mutex<Option<SocketStream>>,
    /// Write half of the *current* client connection (replaced on every
    /// accept; replies always go to the newest client).
    client: Mutex<Option<TcpStream>>,
    partition_until: Mutex<Option<Instant>>,
    /// One-shot: sever the client right after the next request is
    /// forwarded upstream (deterministic fenced-reply production).
    drop_after_next: AtomicBool,
    /// One-shot: flip a bit of the next reply delivered to the client.
    corrupt_next: AtomicBool,
    shutdown: AtomicBool,
    stats: StatCells,
}

impl Inner {
    fn partitioned(&self) -> bool {
        let until = *self
            .partition_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        matches!(until, Some(t) if Instant::now() < t)
    }

    /// Severs the current client connection (if any).
    fn drop_client(&self) {
        if let Some(conn) = self
            .client
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The proxy: a TCP listener the client connects to, one persistent
/// upstream connection, and armed drills in between. See the module docs
/// for the topology and chaos directionality.
pub struct ChaosProxy {
    inner: Arc<Inner>,
    addr: SiloAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Connects to `upstream` (TCP or Unix), binds an ephemeral loopback
    /// TCP listener for the client side, and starts forwarding faithfully.
    pub fn spawn(upstream: &SiloAddr) -> std::io::Result<ChaosProxy> {
        let upstream_conn = upstream.connect()?;
        upstream_conn.set_nonblocking(false)?;
        let upstream_read = upstream_conn.try_clone()?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = SiloAddr::Tcp(listener.local_addr()?.to_string());
        listener.set_nonblocking(true)?;
        let inner = Arc::new(Inner {
            upstream: Mutex::new(Some(upstream_conn)),
            client: Mutex::new(None),
            partition_until: Mutex::new(None),
            drop_after_next: AtomicBool::new(false),
            corrupt_next: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            stats: StatCells::default(),
        });
        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("fedra-chaos-accept".into())
                    .spawn(move || accept_loop(listener, inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("fedra-chaos-reply".into())
                    .spawn(move || reply_pump(upstream_read, inner))?,
            );
        }
        Ok(ChaosProxy {
            inner,
            addr,
            threads,
        })
    }

    /// The address clients should connect to instead of the silo's.
    pub fn addr(&self) -> &SiloAddr {
        &self.addr
    }

    /// Black-holes the link for `duration`: the current client connection
    /// is severed, new connections are accepted-then-severed, and replies
    /// arriving from upstream are dropped until the deadline passes.
    pub fn partition_for(&self, duration: Duration) {
        *self
            .inner
            .partition_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Instant::now() + duration);
        self.inner.drop_client();
    }

    /// One-shot: forward the next request upstream, then sever the client
    /// connection. The silo's reply then arrives while the client is on a
    /// *new* connection generation — the deterministic way to produce a
    /// reply the client must epoch-fence.
    pub fn drop_client_after_next_request(&self) {
        self.inner.drop_after_next.store(true, Ordering::Release);
    }

    /// One-shot: deliver the next reply with one bit flipped — in its
    /// first payload byte, or in its checksum when the payload is empty —
    /// and the header checksum left stale, so the client reads
    /// [`super::socket::FrameError::Corrupt`].
    pub fn corrupt_next_reply(&self) {
        self.inner.corrupt_next.store(true, Ordering::Release);
    }

    /// What the proxy has done with the replies so far.
    pub fn stats(&self) -> ChaosStats {
        let s = &self.inner.stats;
        ChaosStats {
            replies_forwarded: s.replies_forwarded.load(Ordering::Relaxed),
            replies_corrupted: s.replies_corrupted.load(Ordering::Relaxed),
            replies_dropped: s.replies_dropped.load(Ordering::Relaxed),
        }
    }

    /// Stops the proxy: severs both sides and joins the pump threads.
    pub fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(conn) = self
            .inner
            .upstream
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            conn.shutdown();
        }
        if let Some(conn) = self
            .inner
            .client
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .finish()
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    while !inner.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((conn, _)) => {
                if inner.partitioned() {
                    // The kernel completed the handshake out of the
                    // backlog; severing here is the closest a userspace
                    // proxy gets to a refused connect.
                    let _ = conn.shutdown(std::net::Shutdown::Both);
                    continue;
                }
                let _ = conn.set_nonblocking(false);
                let _ = conn.set_nodelay(true);
                let write_half = match conn.try_clone() {
                    Ok(w) => w,
                    Err(_) => continue,
                };
                if let Some(old) = inner
                    .client
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .replace(write_half)
                {
                    let _ = old.shutdown(std::net::Shutdown::Both);
                }
                let inner = Arc::clone(&inner);
                // A failed spawn drops the connection; the client sees
                // EOF and reconnects.
                let _ = std::thread::Builder::new()
                    .name("fedra-chaos-req".into())
                    .spawn(move || request_pump(conn, inner));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => return,
        }
    }
}

/// Forwards request frames from one client connection to the upstream
/// silo. Exits when its connection dies (superseded, severed, or the
/// client reconnected).
fn request_pump(mut conn: TcpStream, inner: Arc<Inner>) {
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let frame = match read_request_frame(&mut conn) {
            Ok(frame) => frame,
            Err(_) => return,
        };
        if inner.partitioned() {
            continue;
        }
        let sever_after = inner.drop_after_next.swap(false, Ordering::AcqRel);
        if sever_after {
            // Sever BEFORE forwarding: once the request is upstream, its
            // reply races this drop, and the drill's whole point is that
            // the reply deterministically lands on the *next* connection
            // (the stale-epoch frame clients must fence).
            inner.drop_client();
        }
        {
            let mut upstream = inner
                .upstream
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let Some(stream) = upstream.as_mut() else {
                return;
            };
            if write_request_frame(
                stream,
                frame.corr,
                frame.epoch,
                frame.deadline_rel_us,
                &frame.payload,
            )
            .is_err()
            {
                // Upstream died (silo killed): nothing to forward to.
                // Keep draining the client so its frames fail on their
                // deadlines rather than on a half-duplex stall.
                *upstream = None;
                continue;
            }
        }
        if sever_after {
            return;
        }
    }
}

/// Forwards reply frames from the persistent upstream connection to the
/// current client connection, applying an armed corruption drill.
fn reply_pump(mut upstream: SocketStream, inner: Arc<Inner>) {
    loop {
        let (corr, epoch, payload) = match read_reply_frame(&mut upstream) {
            Ok(reply) => reply,
            Err(_) => return, // upstream gone (or proxy stopped)
        };
        if inner.partitioned() {
            inner.stats.replies_dropped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let corrupt = inner.corrupt_next.swap(false, Ordering::AcqRel);
        // Wait (bounded) for a client connection: a reply that raced a
        // client reconnect is *delivered late*, not dropped — that is the
        // stale frame epoch fencing exists to catch.
        let deadline = Instant::now() + REPLY_LINGER;
        let delivered = loop {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            if inner.partitioned() || Instant::now() >= deadline {
                break false;
            }
            let mut client = inner.client.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(stream) = client.as_mut() else {
                drop(client);
                std::thread::sleep(POLL);
                continue;
            };
            let outcome = if corrupt {
                let mut buf = Vec::new();
                write_reply_frame(&mut buf, corr, epoch, &payload).and_then(|()| {
                    // No payload byte to flip: flip the checksum instead.
                    let at = REPLY_HEADER_LEN - usize::from(payload.is_empty());
                    buf[at] ^= 1;
                    stream.write_all(&buf)?;
                    stream.flush()
                })
            } else {
                write_reply_frame(stream, corr, epoch, &payload)
            };
            match outcome {
                Ok(()) => break true,
                Err(_) => {
                    // This client is gone; retry against its successor.
                    *client = None;
                    drop(client);
                    std::thread::sleep(POLL);
                }
            }
        };
        let cell = match (delivered, corrupt) {
            (false, _) => &inner.stats.replies_dropped,
            (true, true) => &inner.stats.replies_corrupted,
            (true, false) => &inner.stats.replies_forwarded,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silo::Silo;
    use crate::transport::socket::{SiloSocketServer, SocketServerConfig};
    use fedra_geo::{Point, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;

    fn test_silo(id: usize) -> Silo {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let objects: Vec<SpatialObject> = (0..50)
            .map(|i| SpatialObject::at((i % 10) as f64, (i / 10) as f64, 1.0))
            .collect();
        let silo = Silo::new(id, objects, 1);
        let spec = crate::FederationBuilder::new(bounds)
            .histogram_config(MinSkewConfig {
                resolution: 8,
                budget: 8,
            })
            .lsr_seed(1)
            .silo_spec(id);
        silo.setup(spec).expect("set up");
        silo
    }

    fn serve(id: usize) -> SiloSocketServer {
        SiloSocketServer::spawn(
            test_silo(id),
            &SiloAddr::Tcp("127.0.0.1:0".into()),
            SocketServerConfig::default(),
        )
        .expect("server")
    }

    #[test]
    fn calm_proxy_forwards_faithfully() {
        use crate::protocol::{Request, Response};
        use crate::wire::Wire;
        let server = serve(0);
        let proxy = ChaosProxy::spawn(server.addr()).expect("proxy");
        let mut conn = proxy.addr().connect().expect("connect");
        let payload = Request::Ping.to_bytes();
        write_request_frame(&mut conn, 5, 1, u64::MAX, &payload).expect("write");
        let (corr, epoch, reply) = read_reply_frame(&mut conn).expect("reply");
        assert_eq!(corr, 5);
        assert_eq!(epoch, 1, "the server echoes the request epoch verbatim");
        assert_eq!(Response::from_bytes(reply), Ok(Response::Pong));
        // The reply pump bumps its counter after its own write: the reply
        // can reach the client before the counter moves — poll it.
        let deadline = Instant::now() + Duration::from_secs(2);
        let stats = loop {
            let stats = proxy.stats();
            if stats.replies_forwarded == 1 || Instant::now() >= deadline {
                break stats;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(stats.replies_forwarded, 1);
        assert_eq!(stats.replies_corrupted + stats.replies_dropped, 0);
        server.stop();
    }

    #[test]
    fn a_corrupted_reply_surfaces_as_typed_frame_error() {
        use crate::protocol::Request;
        use crate::transport::socket::FrameError;
        use crate::wire::Wire;
        let server = serve(1);
        let mut proxy = ChaosProxy::spawn(server.addr()).expect("proxy");
        proxy.corrupt_next_reply();
        let mut conn = proxy.addr().connect().expect("connect");
        let payload = Request::Ping.to_bytes();
        write_request_frame(&mut conn, 0, 1, u64::MAX, &payload).expect("write");
        assert_eq!(
            read_reply_frame(&mut conn),
            Err(FrameError::Corrupt {
                context: "reply payload"
            })
        );
        // The pump counts a reply after writing it, so the client's read
        // can return first; `stop` joins the pump, after which the stats
        // are final.
        proxy.stop();
        assert_eq!(proxy.stats().replies_corrupted, 1);
        server.stop();
    }

    #[test]
    fn partition_severs_and_heals() {
        use crate::protocol::{Request, Response};
        use crate::wire::Wire;
        let server = serve(2);
        let proxy = ChaosProxy::spawn(server.addr()).expect("proxy");
        let mut conn = proxy.addr().connect().expect("connect");
        let payload = Request::Ping.to_bytes();
        write_request_frame(&mut conn, 1, 1, u64::MAX, &payload).expect("write");
        read_reply_frame(&mut conn).expect("pre-partition reply");

        proxy.partition_for(Duration::from_millis(150));
        // The live connection was severed: the next read fails.
        assert!(read_reply_frame(&mut conn).is_err());
        std::thread::sleep(Duration::from_millis(200));

        // Healed: a fresh connection works again.
        let mut conn = proxy.addr().connect().expect("reconnect");
        write_request_frame(&mut conn, 2, 2, u64::MAX, &payload).expect("write");
        let (corr, epoch, reply) = read_reply_frame(&mut conn).expect("post-heal reply");
        assert_eq!((corr, epoch), (2, 2));
        assert_eq!(Response::from_bytes(reply), Ok(Response::Pong));
        server.stop();
    }

    #[test]
    fn dropped_client_reply_is_delivered_to_the_next_connection() {
        use crate::protocol::Request;
        use crate::wire::Wire;
        let server = serve(3);
        let proxy = ChaosProxy::spawn(server.addr()).expect("proxy");
        let mut conn = proxy.addr().connect().expect("connect");
        proxy.drop_client_after_next_request();
        let payload = Request::Ping.to_bytes();
        // Sent on "epoch 1"; the proxy severs this connection right after
        // forwarding, so the reply must land on the next connection.
        write_request_frame(&mut conn, 9, 1, u64::MAX, &payload).expect("write");
        assert!(read_reply_frame(&mut conn).is_err(), "severed connection");
        let mut conn2 = proxy.addr().connect().expect("reconnect");
        let (corr, epoch, _) = read_reply_frame(&mut conn2).expect("late reply");
        assert_eq!(
            (corr, epoch),
            (9, 1),
            "the stale-epoch reply crosses connections — what clients fence"
        );
        server.stop();
    }
}
