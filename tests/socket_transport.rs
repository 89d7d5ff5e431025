//! Socket-backend edge cases (DESIGN.md §5h): wire-bytes parity with the
//! in-memory encoding for EVERY protocol variant, partial-read
//! reassembly, typed rejection of oversized length prefixes, peer
//! disconnects surfacing as retryable transport errors, and the read path
//! where the waiting caller reads its own reply (concurrent callers, a
//! reply split across a deadline, a failed write nobody reads behind,
//! the hand-off to a parked waiter).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedra::core::theory::select_level;
use fedra::federation::protocol::{
    LocalMode, Request, Response, SiloMemoryReport, PROTOCOL_VERSION,
};
use fedra::federation::transport::socket::{
    read_reply_frame, read_request_frame, write_reply_frame, write_request_frame, FrameError,
    MAX_FRAME_PAYLOAD, REPLY_HEADER_LEN, REQUEST_HEADER_LEN,
};
use fedra::federation::transport::DEFAULT_MESSAGE_OVERHEAD;
use fedra::federation::wire::{Wire, WireError};
use fedra::federation::{
    ChaosProxy, SetupError, Silo, SiloAddr, SiloChannel, SiloSocketServer, SiloSpec,
    SocketServerConfig, SocketTransport, Transport,
};
use fedra::index::grid::{GridIndex, GridSpec};
use fedra::index::histogram::MinSkewConfig;
use fedra::index::rtree::RTreeConfig;
use fedra::obs::catalog::TRANSPORT_RECONNECTS_TOTAL;
use fedra::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Wire-bytes parity: every variant's socket payload IS its in-memory
// encoding
// ---------------------------------------------------------------------

fn sample_aggregate() -> Aggregate {
    Aggregate {
        count: 3.0,
        sum: 7.5,
        sum_sqr: 21.25,
    }
}

fn sample_rect() -> Rect {
    Rect::new(Point::new(-4.0, -2.0), Point::new(4.0, 2.0))
}

/// The spec a federation over `sample_rect()` at `L = 1` sends silo 0.
fn sample_spec() -> SiloSpec {
    FederationBuilder::new(sample_rect())
        .grid_cell_len(1.0)
        .lsr_seed(7)
        .silo_spec(0)
}

/// `(index, count)`: which of the listed variant patterns `value`
/// matches, and how many are listed. The `match` has no wildcard arm, so
/// a new variant does not compile until it is listed here, and
/// [`assert_covers`] then fails until the sample set holds one.
macro_rules! variant_index {
    ($value:expr, $($variant:pat),+ $(,)?) => {{
        match $value {
            $($variant)|+ => {}
        }
        let mut index = None;
        let mut count = 0;
        $(
            if index.is_none() && matches!($value, $variant) {
                index = Some(count);
            }
            count += 1;
        )+
        (index.expect("the match above is exhaustive"), count)
    }};
}

fn request_variant(request: &Request) -> (usize, usize) {
    variant_index!(
        request,
        Request::Setup(_),
        Request::BuildGrid { .. },
        Request::Aggregate { .. },
        Request::CellContributions { .. },
        Request::HistogramEstimate { .. },
        Request::Ping,
        Request::Batch(_),
        Request::Masked { .. },
    )
}

fn response_variant(response: &Response) -> (usize, usize) {
    variant_index!(
        response,
        Response::Grid { .. },
        Response::GridAck { .. },
        Response::Agg(_),
        Response::AggVec(_),
        Response::Memory(_),
        Response::Pong,
        Response::Error(_),
        Response::Batch(_),
        Response::Transient(_),
        Response::DeadlineExceeded { .. },
    )
}

/// Asserts that `samples` hit every variant `variant` lists.
fn assert_covers<T>(samples: &[T], variant: fn(&T) -> (usize, usize)) {
    let mut hit = Vec::new();
    for sample in samples {
        let (index, count) = variant(sample);
        hit.resize(count, false);
        hit[index] = true;
    }
    let missing: Vec<usize> = (0..hit.len()).filter(|&v| !hit[v]).collect();
    assert!(
        !hit.is_empty() && missing.is_empty(),
        "no sample for variant indices {missing:?}"
    );
}

/// One instance of every [`Request`] variant.
fn all_requests() -> Vec<Request> {
    let samples = vec![
        Request::Setup(sample_spec()),
        Request::BuildGrid { return_cells: true },
        Request::Aggregate {
            range: Range::circle(Point::new(0.5, -0.5), 1.5),
            mode: LocalMode::Exact,
        },
        Request::CellContributions {
            range: Range::rect(Point::new(-4.0, -2.0), Point::new(4.0, 2.0)),
            mode: LocalMode::lsr(select_level(0.1, 0.01, 12.0)),
        },
        Request::HistogramEstimate {
            range: Range::circle(Point::new(1.0, 1.0), 2.0),
        },
        Request::Ping,
        Request::Batch(vec![
            Request::Ping,
            Request::BuildGrid {
                return_cells: false,
            },
        ]),
        Request::Masked {
            moments: AggFunc::Avg.moments(),
            request: Box::new(Request::HistogramEstimate {
                range: Range::circle(Point::new(1.0, 1.0), 2.0),
            }),
        },
        Request::Masked {
            moments: AggFunc::Count.moments(),
            request: Box::new(Request::CellContributions {
                range: Range::circle(Point::new(0.5, -0.5), 1.5),
                mode: LocalMode::Exact,
            }),
        },
    ];
    assert_covers(&samples, request_variant);
    samples
}

/// One instance of every [`Response`] variant.
fn all_responses() -> Vec<Response> {
    let samples = vec![
        Response::Grid({
            let spec = GridSpec::new(sample_rect(), 0.5);
            let mut cells = vec![Aggregate::ZERO; spec.num_cells()];
            cells[0] = sample_aggregate();
            Box::new(GridIndex::from_parts(spec, cells, 2))
        }),
        Response::GridAck {
            total: sample_aggregate(),
            outside: 1,
        },
        Response::Agg(sample_aggregate()),
        Response::AggVec(vec![sample_aggregate(), Aggregate::ZERO]),
        Response::Memory(SiloMemoryReport {
            rtree: 1,
            lsr_extra: 2,
            grid: 3,
            histogram: 4,
        }),
        Response::Pong,
        Response::Error("broken".into()),
        Response::Batch(vec![Response::Pong, Response::Error("sub".into())]),
        Response::Transient("flap window".into()),
        Response::DeadlineExceeded { late_by_us: 12345 },
    ];
    assert_covers(&samples, response_variant);
    samples
}

#[test]
fn request_frames_carry_the_in_memory_encoding_for_every_variant() {
    for request in all_requests() {
        let payload = request.to_bytes();
        let mut frame = Vec::new();
        write_request_frame(&mut frame, 9, 5, 777, &payload).expect("write");
        assert_eq!(
            &frame[REQUEST_HEADER_LEN..],
            payload.as_ref(),
            "socket payload differs from in-memory bytes for {request:?}"
        );
        let decoded = read_request_frame(&mut frame.as_slice()).expect("read");
        assert_eq!(decoded.corr, 9);
        assert_eq!(decoded.epoch, 5);
        assert_eq!(decoded.deadline_rel_us, 777);
        assert_eq!(
            Request::from_bytes(decoded.payload).expect("decode"),
            request
        );
    }
}

#[test]
fn reply_frames_carry_the_in_memory_encoding_for_every_variant() {
    for response in all_responses() {
        let payload = response.to_bytes();
        let mut frame = Vec::new();
        write_reply_frame(&mut frame, 4, 6, &payload).expect("write");
        assert_eq!(
            &frame[REPLY_HEADER_LEN..],
            payload.as_ref(),
            "socket payload differs from in-memory bytes for {response:?}"
        );
        let (corr, epoch, bytes) = read_reply_frame(&mut frame.as_slice()).expect("read");
        assert_eq!(corr, 4);
        assert_eq!(epoch, 6);
        assert_eq!(Response::from_bytes(bytes).expect("decode"), response);
    }
}

// ---------------------------------------------------------------------
// Partial reads
// ---------------------------------------------------------------------

/// A reader that yields ONE byte per `read()` call — the worst-case
/// fragmentation a socket can deliver.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.0.split_first() {
            Some((byte, rest)) if !buf.is_empty() => {
                buf[0] = *byte;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

#[test]
fn frames_reassemble_from_single_byte_reads() {
    let first = Response::Agg(sample_aggregate()).to_bytes();
    let second = Response::Pong.to_bytes();
    let mut stream = Vec::new();
    write_reply_frame(&mut stream, 1, 7, &first).expect("write");
    write_reply_frame(&mut stream, 2, 7, &second).expect("write");
    let mut trickle = Trickle(&stream);
    assert_eq!(
        read_reply_frame(&mut trickle).expect("first"),
        (1, 7, first)
    );
    assert_eq!(
        read_reply_frame(&mut trickle).expect("second"),
        (2, 7, second)
    );
    // Clean EOF at the frame boundary, not a truncation error.
    assert_eq!(read_reply_frame(&mut trickle), Err(FrameError::Eof));
}

#[test]
fn truncation_mid_frame_is_not_a_clean_eof() {
    let payload = Response::Pong.to_bytes();
    let mut stream = Vec::new();
    write_reply_frame(&mut stream, 1, 0, &payload).expect("write");
    for cut in 1..stream.len() {
        let err = read_reply_frame(&mut Trickle(&stream[..cut])).expect_err("truncated");
        assert!(
            matches!(err, FrameError::Truncated { .. }),
            "cut at {cut} gave {err:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Oversized length prefixes: typed errors, never a panic or a huge
// allocation
// ---------------------------------------------------------------------

#[test]
fn oversized_reply_prefix_is_a_typed_error() {
    let mut bogus = vec![PROTOCOL_VERSION];
    bogus.extend_from_slice(&u32::MAX.to_le_bytes());
    bogus.extend_from_slice(&1u64.to_le_bytes()); // corr
    bogus.extend_from_slice(&0u64.to_le_bytes()); // epoch
    bogus.extend_from_slice(&0u64.to_le_bytes()); // checksum
    assert_eq!(
        read_reply_frame(&mut bogus.as_slice()),
        Err(FrameError::Oversized {
            len: u32::MAX as u64
        })
    );
}

/// A real server must drop a connection that announces an oversized
/// request instead of allocating for it or panicking — and keep serving
/// well-formed peers afterwards.
#[test]
fn server_drops_oversized_request_frames_and_survives() {
    let server = spawn_test_server();
    let addr = tcp_addr(server.addr());

    // Hostile peer: announces a payload over the cap.
    let mut hostile = TcpStream::connect(&addr).expect("connect");
    let mut bogus = vec![PROTOCOL_VERSION];
    bogus.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    bogus.extend_from_slice(&0u64.to_le_bytes()); // corr
    bogus.extend_from_slice(&0u64.to_le_bytes()); // epoch
    bogus.extend_from_slice(&0u64.to_le_bytes()); // checksum
    bogus.extend_from_slice(&u64::MAX.to_le_bytes()); // no deadline
    hostile.write_all(&bogus).expect("write bogus header");
    // The server hangs up without replying.
    hostile
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut sink = Vec::new();
    let got = hostile.read_to_end(&mut sink).expect("read");
    assert_eq!(got, 0, "server must close, not answer, an oversized frame");

    // A well-formed peer on a fresh connection is still served.
    let mut honest = TcpStream::connect(&addr).expect("connect");
    write_request_frame(&mut honest, 1, 0, u64::MAX, &Request::Ping.to_bytes()).expect("write");
    let (corr, epoch, payload) = read_reply_frame(&mut honest).expect("reply");
    assert_eq!(corr, 1);
    assert_eq!(epoch, 0);
    assert_eq!(
        Response::from_bytes(payload).expect("decode"),
        Response::Pong
    );
}

// ---------------------------------------------------------------------
// Peer disconnects mid-call: retryable TransportError
// ---------------------------------------------------------------------

/// A fake silo that accepts, reads one request, and hangs up without
/// replying — then accepts the reconnect and keeps it open. The client
/// must surface the in-flight batch as a retryable transient, not hang
/// or panic.
#[test]
fn peer_disconnect_mid_batch_is_a_retryable_transport_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake_silo = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        // Read the batch request, then vanish mid-call.
        let _ = read_request_frame(&mut conn).expect("request");
        drop(conn);
        // Accept the reconnect so the client classifies the loss as
        // transient (peer alive) rather than a dead silo.
        let (reconnect, _) = listener.accept().expect("re-accept");
        std::thread::sleep(Duration::from_millis(200));
        drop(reconnect);
    });

    let stats = Arc::new(CommCounters::default());
    let transport = SocketTransport::connect(0, SiloAddr::Tcp(addr)).expect("connect");
    let channel = SiloChannel::over(Arc::new(transport), stats);
    let deadline = Instant::now() + Duration::from_secs(10);
    let pending = channel
        .begin_frame(&[(0, &Request::Ping), (1, &Request::Ping)], Some(deadline))
        .expect("begin");
    let err = pending.wait().expect_err("the peer hung up mid-batch");
    assert!(
        matches!(err, TransportError::Transient { silo: 0, .. }),
        "expected a transient, got {err:?}"
    );
    assert!(err.is_retryable());
    fake_silo.join().expect("fake silo");
}

// ---------------------------------------------------------------------
// End-to-end: a real served silo answers identically over the socket
// ---------------------------------------------------------------------

/// The 50-object partition every served-silo test here stands up.
fn sample_partition() -> Vec<SpatialObject> {
    (0..50)
        .map(|i| SpatialObject::at(-4.0 + 0.16 * i as f64, -1.0 + 0.04 * i as f64, 1.0))
        .collect()
}

/// Silo 0 over the sample partition, set up by [`sample_spec`].
fn sample_silo() -> Silo {
    let silo = Silo::new(0, sample_partition(), 1);
    assert!(matches!(
        silo.handle(Request::Setup(sample_spec())),
        Response::Memory(_)
    ));
    silo
}

fn spawn_test_server() -> SiloSocketServer {
    SiloSocketServer::spawn(
        sample_silo(),
        &SiloAddr::Tcp("127.0.0.1:0".into()),
        SocketServerConfig::default(),
    )
    .expect("spawn server")
}

fn tcp_addr(addr: &SiloAddr) -> String {
    match addr {
        SiloAddr::Tcp(a) => a.clone(),
        other => panic!("expected a TCP address, got {other}"),
    }
}

#[test]
fn served_silo_answers_and_counts_bytes_like_the_in_memory_backend() {
    let request = Request::Aggregate {
        range: Range::circle(Point::new(0.0, 0.0), 2.0),
        mode: LocalMode::Exact,
    };

    // In-memory reference: same silo data behind the default backend.
    let reference = sample_silo();
    let expected = reference.handle(request.clone());

    let server = spawn_test_server();
    let stats = Arc::new(CommCounters::default());
    let transport = SocketTransport::connect(0, server.addr().clone()).expect("connect");
    assert_eq!(transport.diagnostics().backend(), "socket");
    let channel = SiloChannel::over(Arc::new(transport), Arc::clone(&stats));
    let answer = channel.call(&request).expect("call");
    assert_eq!(answer, expected);
    // Byte accounting counts payload bytes exactly like the in-memory
    // backend: one round, up = request encoding, down = response encoding.
    let snapshot = stats.snapshot();
    assert_eq!(snapshot.rounds, 1);
    assert_eq!(
        snapshot.bytes_up,
        request.to_bytes().len() as u64 + DEFAULT_MESSAGE_OVERHEAD
    );
    assert_eq!(
        snapshot.bytes_down,
        expected.to_bytes().len() as u64 + DEFAULT_MESSAGE_OVERHEAD
    );
}

// ---------------------------------------------------------------------
// Hostile ranges: a silo classifies the cell range it reads off the wire
// ---------------------------------------------------------------------

/// A `CellContributions` request carries no cell ids: the silo classifies
/// the range against its own grid. NaN, infinite, inverted, negative and
/// astronomically large ranges must each get an `AggVec` no longer than
/// the grid, or a refusal — the same outcome on both backends — and never
/// take the silo down.
#[test]
fn hostile_cell_ranges_get_a_bounded_reply_or_a_refusal_on_both_backends() {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let origin = Point::new(0.0, 0.0);
    let ranges = [
        Range::circle(Point::new(nan, 0.0), 1.0),
        Range::circle(Point::new(nan, nan), nan),
        Range::rect(Point::new(-inf, -inf), Point::new(inf, inf)),
        Range::rect(Point::new(-inf, 0.0), Point::new(0.0, inf)),
        Range::Rect(Rect {
            min: Point::new(inf, inf),
            max: Point::new(-inf, -inf),
        }),
        Range::Circle(Circle {
            center: origin,
            radius: -3.0,
        }),
        Range::circle(origin, 1e300),
        Range::circle(origin, inf),
        Range::circle(Point::new(inf, -inf), 1.0),
        // The whole grid (every cell covered), a circle over most of it
        // (most cells boundary), and a range far outside it.
        Range::Rect(sample_rect()),
        Range::circle(origin, 4.2),
        Range::circle(Point::new(1e6, -1e6), 2.0),
    ];
    let modes = [
        LocalMode::Exact,
        LocalMode::lsr(select_level(0.1, 0.01, 12.0)),
    ];
    let outcomes = |backend: TransportBackend| {
        let fed = FederationBuilder::new(sample_rect())
            .grid_cell_len(0.5)
            .transport_backend(backend)
            .build(vec![sample_partition()]);
        let num_cells = fed.merged_grid().spec().num_cells();
        let mut outcomes = Vec::new();
        for range in ranges {
            for mode in modes {
                let leaf = Request::CellContributions { range, mode };
                let masked = Request::Masked {
                    moments: AggFunc::Count.moments(),
                    request: Box::new(leaf.clone()),
                };
                for request in [leaf, masked] {
                    let outcome = fed.call(0, &request);
                    match &outcome {
                        Ok(Response::AggVec(v)) => assert!(v.len() <= num_cells, "{range:?}"),
                        Err(TransportError::Remote { .. }) => {}
                        other => panic!("{range:?} {mode:?}: {other:?}"),
                    }
                    outcomes.push(format!("{outcome:?}"));
                }
            }
        }
        assert_eq!(
            fed.call(0, &Request::Ping).expect("still serving"),
            Response::Pong
        );
        outcomes
    };
    assert_eq!(
        outcomes(TransportBackend::InMemory),
        outcomes(TransportBackend::Socket)
    );
}

// ---------------------------------------------------------------------
// TCP loopback through the chaos proxy
// ---------------------------------------------------------------------

/// A disarmed (calm) proxy on the TCP loopback path must be invisible:
/// same answers, same payload byte accounting as a direct connection.
#[test]
fn calm_chaos_proxy_preserves_answers_and_byte_accounting() {
    let request = Request::Aggregate {
        range: Range::circle(Point::new(0.0, 0.0), 2.0),
        mode: LocalMode::Exact,
    };
    let server = spawn_test_server();
    let direct_stats = Arc::new(CommCounters::default());
    let direct = SocketTransport::connect(0, server.addr().clone()).expect("connect direct");
    let direct_channel = SiloChannel::over(Arc::new(direct), Arc::clone(&direct_stats));
    let expected = direct_channel.call(&request).expect("direct call");

    let proxy = ChaosProxy::spawn(server.addr()).expect("proxy");
    let proxied_stats = Arc::new(CommCounters::default());
    let proxied = SocketTransport::connect(0, proxy.addr().clone()).expect("connect via proxy");
    let proxied_channel = SiloChannel::over(Arc::new(proxied), Arc::clone(&proxied_stats));
    let answer = proxied_channel.call(&request).expect("proxied call");

    assert_eq!(answer, expected);
    assert_eq!(proxied_stats.snapshot(), direct_stats.snapshot());
    // The pump bumps replies_forwarded *after* the client-side write, so
    // the reply can be observed a beat before the counter — poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let stats = loop {
        let stats = proxy.stats();
        if stats.replies_forwarded == 1 || std::time::Instant::now() >= deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(stats.replies_forwarded, 1);
    assert_eq!(
        stats.replies_corrupted + stats.replies_dropped,
        0,
        "a calm proxy must not inject anything"
    );
}

/// Corruption injected on the TCP path surfaces as a retryable transport
/// error and then a correct answer on the retried connection — never a
/// silently wrong aggregate.
#[test]
fn corrupted_reply_over_tcp_retries_to_a_correct_answer() {
    let request = Request::Aggregate {
        range: Range::circle(Point::new(0.0, 0.0), 2.0),
        mode: LocalMode::Exact,
    };
    let server = spawn_test_server();
    let direct = SocketTransport::connect(0, server.addr().clone()).expect("connect direct");
    let expected = SiloChannel::over(Arc::new(direct), Arc::new(CommCounters::default()))
        .call(&request)
        .expect("direct call");

    // Corrupt exactly one reply: that call fails typed, and the next call
    // (on the reconnected client) answers correctly.
    let proxy = ChaosProxy::spawn(server.addr()).expect("proxy");
    let transport = SocketTransport::connect(0, proxy.addr().clone()).expect("connect via proxy");
    let channel = SiloChannel::over(Arc::new(transport), Arc::new(CommCounters::default()));
    proxy.corrupt_next_reply();
    match channel.call(&request) {
        Ok(answer) => panic!("a corrupted frame must never decode, got {answer:?}"),
        Err(e) => assert!(
            e.is_retryable() || matches!(e, TransportError::Disconnected { .. }),
            "corruption must surface typed, got {e:?}"
        ),
    }
    assert_eq!(
        channel.call(&request).expect("the next call answers"),
        expected
    );
    // The pump counts the corrupted reply before it forwards the next.
    assert_eq!(proxy.stats().replies_corrupted, 1);
}

// ---------------------------------------------------------------------
// Serve-step parity: one seeded FaultPlan, one schedule, both backends
// ---------------------------------------------------------------------

/// Both backends serve every frame through the same step (latency →
/// fault action → deadline shed → decode → handle → encode), so a seeded
/// plan mixing every fault kind must yield the identical per-request
/// outcome sequence whether the silo sits behind the in-memory worker or
/// a loopback socket.
#[test]
fn seeded_fault_plan_yields_the_same_outcome_sequence_on_both_backends() {
    const CRASH_AT: usize = 30;
    const PINGS: usize = CRASH_AT + 4;
    let plan = FaultPlan::seeded(23).with_spec(
        0,
        SiloFaultSpec {
            flap: Some(FlapSchedule {
                period: 6,
                down: 1,
                phase: 0,
            }),
            transient_prob: 0.15,
            drop_prob: 0.1,
            crash_after: Some(CRASH_AT as u64),
            ..Default::default()
        },
    );
    let outcomes = |backend: TransportBackend| {
        let fed = FederationBuilder::new(sample_rect())
            .transport_backend(backend)
            .fault_plan(plan.clone())
            .build(vec![sample_partition()]);
        (0..PINGS)
            .map(|_| {
                // A dropped frame is reaped by the deadline; everything
                // else answers in microseconds.
                let deadline = Instant::now() + Duration::from_millis(400);
                fed.channel(0)
                    .begin_frame(&[(0, &Request::Ping)], Some(deadline))
                    .and_then(|frame| frame.wait_one())
            })
            .collect::<Vec<_>>()
    };
    let memory = outcomes(TransportBackend::InMemory);
    let socket = outcomes(TransportBackend::Socket);
    // Requests 0..CRASH_AT are served and request CRASH_AT draws the
    // crash: identical outcomes, message for message.
    assert_eq!(memory[..=CRASH_AT], socket[..=CRASH_AT]);
    // The plan must actually have exercised every branch of the step.
    let kinds: Vec<&str> = memory
        .iter()
        .map(|o| o.as_ref().map_or_else(|e| e.kind(), |_| "ok"))
        .collect();
    for kind in ["ok", "transient", "deadline", "disconnected"] {
        assert!(kinds.contains(&kind), "no {kind} outcome in {kinds:?}");
    }
    assert_eq!(kinds[5], "transient", "request 5 sits in the flap window");
    assert_eq!(kinds[CRASH_AT], "disconnected");
    // After the crash nothing is ever served again. How the *client*
    // words the loss is not the serve step's business: the socket client
    // may report a retryable write failure while the dead server's
    // listener winds down.
    let mut after_crash = memory[CRASH_AT..].iter().chain(&socket[CRASH_AT..]);
    assert!(after_crash.all(Result::is_err), "{memory:?}\n{socket:?}");
}

// ---------------------------------------------------------------------
// The caller reads its own reply: concurrency, deadlines, write failures
// ---------------------------------------------------------------------

/// Exact aggregate over the first `k + 1` objects of [`sample_partition`]
/// (both coordinates grow with the index), so every `k` has its own
/// answer.
fn prefix_request(k: usize) -> Request {
    let (x, y) = (-4.0 + 0.16 * k as f64, -1.0 + 0.04 * k as f64);
    Request::Aggregate {
        range: Range::rect(Point::new(-5.0, -2.0), Point::new(x + 0.01, y + 0.01)),
        mode: LocalMode::Exact,
    }
}

/// Many threads calling on one channel take turns reading the shared
/// connection: every reply must reach the caller that asked for it, and
/// no call may be left registered once all of them are answered.
#[test]
fn concurrent_callers_on_one_channel_each_get_their_own_reply() {
    const THREADS: usize = 8;
    const CALLS: usize = 60;
    let reference = sample_silo();
    let expected: Vec<Response> = (0..50)
        .map(|k| reference.handle(prefix_request(k)))
        .collect();
    let server = spawn_test_server();
    let transport = Arc::new(SocketTransport::connect(0, server.addr().clone()).expect("connect"));
    let channel = SiloChannel::over(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::new(CommCounters::default()),
    );
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let channel = channel.clone();
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..CALLS {
                    let k = (t * 13 + i) % expected.len();
                    let answer = channel.call(&prefix_request(k)).expect("call");
                    assert_eq!(answer, expected[k], "thread {t}, call {i}: k = {k}");
                }
            });
        }
    });
    assert_eq!(transport.inflight_len(), 0);
}

/// A read that times out mid-frame keeps the partial bytes: the next
/// waiter resumes the stream in frame sync instead of misreading the
/// rest of the old frame as a new header.
#[test]
fn a_reply_split_across_a_deadline_keeps_the_stream_in_sync() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let (timed_out_tx, timed_out_rx) = std::sync::mpsc::channel::<()>();
    let fake_silo = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let first = read_request_frame(&mut conn).expect("first request");
        let mut late = Vec::new();
        let reply = Response::Error("late".into()).to_bytes();
        write_reply_frame(&mut late, first.corr, first.epoch, &reply).expect("encode");
        let half = late.len() / 2;
        conn.write_all(&late[..half]).expect("write half a reply");
        timed_out_rx.recv().expect("the first call timed out");
        let second = read_request_frame(&mut conn).expect("second request");
        let mut rest = late[half..].to_vec();
        write_reply_frame(
            &mut rest,
            second.corr,
            second.epoch,
            &Response::Pong.to_bytes(),
        )
        .expect("encode");
        conn.write_all(&rest).expect("write the rest");
        // Hold the connection open until the client is done with it.
        let _ = read_request_frame(&mut conn);
    });

    let transport = Arc::new(SocketTransport::connect(0, SiloAddr::Tcp(addr)).expect("connect"));
    let channel = SiloChannel::over(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::new(CommCounters::default()),
    );
    let deadline = Instant::now() + Duration::from_millis(150);
    let first = channel
        .begin_frame(&[(0, &Request::Ping)], Some(deadline))
        .expect("begin");
    assert_eq!(
        first.wait_one(),
        Err(TransportError::DeadlineExceeded { silo: 0 })
    );
    timed_out_tx.send(()).expect("signal the fake silo");
    assert_eq!(channel.call(&Request::Ping), Ok(Response::Pong));
    assert_eq!(transport.inflight_len(), 0);
    drop(channel);
    drop(transport);
    fake_silo.join().expect("fake silo");
}

/// With no waiter reading, nobody but the sender can notice that the
/// connection broke: its failed write must start the reconnect, so the
/// next call is answered instead of failing as a transient forever.
#[test]
fn a_failed_write_with_nobody_reading_reconnects() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let (closed_tx, closed_rx) = std::sync::mpsc::channel::<()>();
    let fake_silo = std::thread::spawn(move || {
        let (first, _) = listener.accept().expect("accept");
        drop(first);
        closed_tx.send(()).expect("signal the close");
        // The replacement connection is served normally.
        let (mut conn, _) = listener.accept().expect("re-accept");
        while let Ok(frame) = read_request_frame(&mut conn) {
            let pong = Response::Pong.to_bytes();
            if write_reply_frame(&mut conn, frame.corr, frame.epoch, &pong).is_err() {
                break;
            }
        }
    });

    let transport = SocketTransport::connect(0, SiloAddr::Tcp(addr)).expect("connect");
    let channel = SiloChannel::over(Arc::new(transport), Arc::new(CommCounters::default()));
    closed_rx.recv().expect("the peer closed");
    // Frames sent and abandoned unread: the first write to the closed
    // peer may still succeed, a later one fails.
    let mut write_failed = false;
    for _ in 0..100 {
        match channel.begin_frame(&[(0, &Request::Ping)], None) {
            Ok(pending) => drop(pending),
            Err(e) => {
                assert!(e.is_retryable(), "a failed write is a transient, got {e:?}");
                write_failed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(write_failed, "no write to the closed peer ever failed");
    assert_eq!(channel.call(&Request::Ping), Ok(Response::Pong));
    drop(channel);
    fake_silo.join().expect("fake silo");
}

/// A waiter parked while another reads must not be stranded when the
/// reader's own reply lands first: the stopping reader nudges it to read
/// its reply itself. The pauses only make that interleaving likely; a run
/// where the second caller starts reading on its own passes as well.
#[test]
fn a_stopping_reader_hands_the_reads_to_a_parked_waiter() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake_silo = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let first = read_request_frame(&mut conn).expect("first request");
        let second = read_request_frame(&mut conn).expect("second request");
        let pong = Response::Pong.to_bytes();
        // Give the second caller time to park behind the first, then
        // answer the first caller alone.
        std::thread::sleep(Duration::from_millis(50));
        write_reply_frame(&mut conn, first.corr, first.epoch, &pong).expect("first reply");
        std::thread::sleep(Duration::from_millis(50));
        write_reply_frame(&mut conn, second.corr, second.epoch, &pong).expect("second reply");
        let _ = read_request_frame(&mut conn);
    });

    let transport = SocketTransport::connect(0, SiloAddr::Tcp(addr)).expect("connect");
    let channel = SiloChannel::over(Arc::new(transport), Arc::new(CommCounters::default()));
    let first = channel
        .begin_frame(&[(0, &Request::Ping)], None)
        .expect("begin first");
    let reader = std::thread::spawn(move || first.wait_one());
    std::thread::sleep(Duration::from_millis(20));
    let deadline = Instant::now() + Duration::from_secs(5);
    let second = channel
        .begin_frame(&[(0, &Request::Ping)], Some(deadline))
        .expect("begin second");
    assert_eq!(second.wait_one(), Ok(Response::Pong));
    assert_eq!(reader.join().expect("first caller"), Ok(Response::Pong));
    drop(channel);
    fake_silo.join().expect("fake silo");
}

// ---------------------------------------------------------------------
// A hostile Grid reply fails setup with a typed error
// ---------------------------------------------------------------------

/// A fake remote silo answers the setup frame with the reply an honest
/// silo would send — a memory report, then a `Grid` — with only the grid's
/// `L` and cell count patched so its spec cannot carry its cells.
/// `try_build` must come back with the grid decoder's own error, never
/// panic.
#[test]
fn a_hostile_grid_reply_fails_setup_with_a_codec_error() {
    let bounds = sample_rect();
    let num_cells = GridSpec::new(bounds, 1.0).num_cells();
    assert!(num_cells < 128, "the cell count is a one-byte varint");
    let memory = Response::Memory(SiloMemoryReport {
        rtree: 1,
        lsr_extra: 2,
        grid: 3,
        histogram: 4,
    });
    let grid = GridIndex::from_parts(
        GridSpec::new(bounds, 1.0),
        vec![Aggregate::ZERO; num_cells],
        0,
    );
    let honest = Response::Batch(vec![memory.clone(), Response::Grid(Box::new(grid))]).to_bytes();
    // The batch tag and count, the memory reply, the grid tag and bounds.
    let at_len = 1 + 1 + memory.encoded_len() + 1 + 32;
    let bad_spec = WireError::BadValue {
        context: "grid spec",
    };
    let short = |len| WireError::BadLength {
        context: "grid cells",
        len,
    };
    // (L, cells, error): a negative L, a cell vector one short of its
    // spec, and an L so small that no cell vector fits it.
    for (cell_len, cells, error) in [
        (-1.0f64, num_cells, bad_spec),
        (1.0, num_cells - 1, short(num_cells - 1)),
        (1e-9, 0, short(0)),
    ] {
        let mut reply = honest.to_vec();
        reply[at_len..at_len + 8].copy_from_slice(&cell_len.to_le_bytes());
        reply[at_len + 8] = cells as u8;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let fake_silo = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let setup = read_request_frame(&mut conn).expect("setup frame");
            write_reply_frame(&mut conn, setup.corr, setup.epoch, &reply).expect("reply");
            // Hold the connection until the provider drops it.
            let _ = read_request_frame(&mut conn);
        });
        let result = FederationBuilder::new(bounds)
            .grid_cell_len(1.0)
            .connect_remote(format!("tcp:{addr}"))
            .try_build(Vec::new());
        assert_eq!(
            result.err(),
            Some(SetupError::Transport(TransportError::Codec {
                silo: 0,
                error
            })),
            "L = {cell_len}, {cells} cells"
        );
        fake_silo.join().expect("fake silo");
    }
}

// ---------------------------------------------------------------------
// Protocol versions: a peer of another build meets one typed error
// ---------------------------------------------------------------------

/// The version byte of a peer of another build.
const OTHER_VERSION: u8 = PROTOCOL_VERSION.wrapping_add(1);

/// What a call to silo 0 fails with when the peer is of version `tag`.
fn version_refused(tag: u8) -> TransportError {
    TransportError::Codec {
        silo: 0,
        error: WireError::BadTag {
            context: "frame version",
            tag,
        },
    }
}

/// FNV-1a, the digest of every frame checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A fake remote silo answers the setup frame with a well-formed reply of
/// another version. `try_build` fails with the codec error at once, and
/// the client gives the connection up instead of reconnecting: the fake
/// silo sees one connection, so `fedra_transport_reconnects_total`, which
/// counts reconnects that connected, stays 0.
#[test]
fn a_reply_of_another_version_fails_setup_with_one_codec_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake_silo = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let setup = read_request_frame(&mut conn).expect("setup frame");
        let mut reply = Vec::new();
        let pong = Response::Pong.to_bytes();
        write_reply_frame(&mut reply, setup.corr, setup.epoch, &pong).expect("encode");
        reply[0] = OTHER_VERSION;
        conn.write_all(&reply).expect("reply");
        // The provider closes the connection...
        assert!(read_request_frame(&mut conn).is_err());
        listener
    });
    let result = FederationBuilder::new(sample_rect())
        .grid_cell_len(1.0)
        .connect_remote(format!("tcp:{addr}"))
        .try_build(Vec::new());
    assert_eq!(
        result.err(),
        Some(SetupError::Transport(version_refused(OTHER_VERSION)))
    );
    // ...and never connects again.
    let listener = fake_silo.join().expect("fake silo");
    listener.set_nonblocking(true).expect("nonblocking");
    assert!(
        matches!(listener.accept(), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the client reconnected"
    );
}

/// Copies `from` to `to` until `from` closes, with the first byte set to
/// [`OTHER_VERSION`], then closes `to` for writing; returns the bytes
/// read.
fn shift_version(mut from: TcpStream, mut to: TcpStream) -> Vec<u8> {
    let (mut seen, mut chunk) = (Vec::new(), [0u8; 4096]);
    while let Ok(n @ 1..) = from.read(&mut chunk) {
        let first = seen.is_empty();
        seen.extend_from_slice(&chunk[..n]);
        if first {
            chunk[0] = OTHER_VERSION;
        }
        if to.write_all(&chunk[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
    seen
}

/// Relays one connection to `upstream`, with the version byte opening
/// each direction shifted to [`OTHER_VERSION`], so each end sees the other
/// as a peer of another build. Returns the relay's address, and a handle
/// yielding the bytes `upstream` sent.
fn version_shifting_relay(upstream: String) -> (String, std::thread::JoinHandle<Vec<u8>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let relay = std::thread::spawn(move || {
        let (client, _) = listener.accept().expect("accept");
        let server = TcpStream::connect(&upstream).expect("connect upstream");
        let (up_from, up_to) = (
            client.try_clone().expect("clone"),
            server.try_clone().expect("clone"),
        );
        let up = std::thread::spawn(move || shift_version(up_from, up_to));
        let down = shift_version(server, client);
        up.join().expect("upstream pump");
        down
    });
    (addr, relay)
}

/// A real server that gets a request of another version answers with a
/// header-only reply of its own version and closes; the client, to which
/// that reply is of another version, fails the call with the codec error
/// and does not reconnect. The server goes on serving an honest peer.
#[test]
fn a_served_silo_answers_another_version_with_its_own_and_closes() {
    let server = spawn_test_server();
    let (relay_addr, relay) = version_shifting_relay(tcp_addr(server.addr()));
    let transport =
        Arc::new(SocketTransport::connect(0, SiloAddr::Tcp(relay_addr)).expect("connect"));
    let channel = SiloChannel::over(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::new(CommCounters::default()),
    );
    assert_eq!(
        channel.call(&Request::Ping),
        Err(version_refused(OTHER_VERSION))
    );
    let metrics = transport.diagnostics().metrics();
    assert_eq!(metrics.series(&TRANSPORT_RECONNECTS_TOTAL, &[]).get(), 0);
    // What the server sent: one header-only reply of its own version.
    let answer = relay.join().expect("relay");
    assert_eq!(answer.len(), REPLY_HEADER_LEN);
    assert_eq!(answer[0], PROTOCOL_VERSION);
    let (corr, epoch, payload) = read_reply_frame(&mut answer.as_slice()).expect("reply frame");
    assert_eq!((corr, epoch, payload.len()), (0, 0, 0));
    // An honest peer on a fresh connection is served.
    let honest = SocketTransport::connect(0, server.addr().clone()).expect("connect");
    let channel = SiloChannel::over(Arc::new(honest), Arc::new(CommCounters::default()));
    assert_eq!(channel.call(&Request::Ping), Ok(Response::Pong));
}

/// `payload` framed in the layout before the version byte: the length
/// first, then `corr`, `epoch`, the checksum and, for a request, the
/// deadline — a 36-byte request or 28-byte reply header.
fn unversioned(payload: &[u8], request: bool) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&0x100u64.to_le_bytes()); // corr
    frame.extend_from_slice(&3u64.to_le_bytes()); // epoch
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    if request {
        frame.extend_from_slice(&u64::MAX.to_le_bytes()); // no deadline
    }
    frame.extend_from_slice(payload);
    frame
}

/// What reading an unversioned frame comes to: its first byte is its
/// length's low byte, so it is refused as a version mismatch, or, when
/// that byte equals the version, as corrupt — the checksum this layout
/// reads sits at a shifted offset.
fn unversioned_refusal(frame: &[u8], context: &'static str) -> FrameError {
    match frame[0] {
        PROTOCOL_VERSION => FrameError::Corrupt { context },
        version => FrameError::Version { version },
    }
}

/// A request frame in the layout before the version byte (36 header
/// bytes, the length first) is refused, never misread as a request.
#[test]
fn an_unversioned_request_frame_is_refused_not_misread() {
    let mut corrupt = 0;
    for request in all_requests() {
        let frame = unversioned(&request.to_bytes(), true);
        let refusal = unversioned_refusal(&frame, "request payload");
        corrupt += usize::from(matches!(refusal, FrameError::Corrupt { .. }));
        assert_eq!(
            read_request_frame(&mut frame.as_slice()).err(),
            Some(refusal),
            "{request:?}"
        );
    }
    assert!(corrupt > 0, "no request's first byte equals the version");
}

/// A reply frame in the layout before the version byte (28 header
/// bytes, the length first) is refused, never misread as a reply.
#[test]
fn an_unversioned_reply_frame_is_refused_not_misread() {
    let mut corrupt = 0;
    for response in all_responses() {
        let frame = unversioned(&response.to_bytes(), false);
        let refusal = unversioned_refusal(&frame, "reply payload");
        corrupt += usize::from(matches!(refusal, FrameError::Corrupt { .. }));
        assert_eq!(
            read_reply_frame(&mut frame.as_slice()).err(),
            Some(refusal),
            "{response:?}"
        );
    }
    assert!(corrupt > 0, "no reply's first byte equals the version");
}

/// Every wire layout in fixed values that depend on no default: one value
/// of every `Request`, `Response` and `LocalMode` variant — a masked
/// request, both batches, a sparse and a columnar cell vector, a grid —
/// and a header of each frame kind.
fn layout_corpus() -> Vec<Vec<u8>> {
    let circle = Range::circle(Point::new(0.5, -0.5), 1.5);
    let rect = Range::rect(Point::new(-4.0, -2.0), Point::new(4.0, 2.0));
    let requests = vec![
        Request::Setup(SiloSpec {
            bounds: sample_rect(),
            cell_len: 0.5,
            rtree: RTreeConfig { max_entries: 16 },
            histogram: MinSkewConfig {
                resolution: 64,
                budget: 32,
            },
            lsr_seed: 7,
        }),
        Request::BuildGrid { return_cells: true },
        Request::Aggregate {
            range: circle,
            mode: LocalMode::Exact,
        },
        Request::CellContributions {
            range: rect,
            mode: LocalMode::Lsr { level: 5 },
        },
        Request::HistogramEstimate { range: circle },
        Request::Ping,
        Request::Batch(vec![
            Request::Ping,
            Request::BuildGrid {
                return_cells: false,
            },
        ]),
        Request::Masked {
            moments: AggFunc::Count.moments(),
            request: Box::new(Request::CellContributions {
                range: circle,
                mode: LocalMode::Exact,
            }),
        },
    ];
    assert_covers(&requests, request_variant);
    let whole = Aggregate {
        count: 3.0,
        sum: 7.0,
        sum_sqr: 21.0,
    };
    let (sparse, columns) = (
        Response::AggVec(vec![sample_aggregate(), Aggregate::ZERO]),
        Response::AggVec(vec![whole, Aggregate::ZERO, whole]),
    );
    // The byte after the reply tag and the one-byte count is the layout.
    assert_eq!(sparse.to_bytes()[2], 0, "sparse cells");
    assert_eq!(columns.to_bytes()[2], 0x87, "three columns");
    let responses = vec![
        Response::Grid({
            let spec = GridSpec::new(sample_rect(), 2.0);
            let mut cells = vec![Aggregate::ZERO; spec.num_cells()];
            cells[1] = whole;
            Box::new(GridIndex::from_parts(spec, cells, 2))
        }),
        Response::GridAck {
            total: whole,
            outside: 1,
        },
        Response::Agg(sample_aggregate()),
        sparse,
        columns,
        Response::Memory(SiloMemoryReport {
            rtree: 1,
            lsr_extra: 2,
            grid: 3,
            histogram: 4,
        }),
        Response::Pong,
        Response::Error("broken".into()),
        Response::Batch(vec![Response::Pong, Response::Error("sub".into())]),
        Response::Transient("flap window".into()),
        Response::DeadlineExceeded { late_by_us: 12345 },
    ];
    assert_covers(&responses, response_variant);
    let modes = [LocalMode::Exact, LocalMode::Lsr { level: 5 }];
    assert_covers(&modes, |mode| {
        variant_index!(mode, LocalMode::Exact, LocalMode::Lsr { .. })
    });
    let (mut request_header, mut reply_header) = (Vec::new(), Vec::new());
    write_request_frame(&mut request_header, 9, 5, 777, &[]).expect("header");
    write_reply_frame(&mut reply_header, 4, 6, &[]).expect("header");
    let requests = requests.iter().map(Wire::to_bytes);
    let responses = responses.iter().map(Wire::to_bytes);
    let modes = modes.iter().map(Wire::to_bytes);
    requests
        .chain(responses)
        .chain(modes)
        .map(|bytes| bytes.to_vec())
        .chain([request_header, reply_header])
        .collect()
}

/// A layout change must bump [`PROTOCOL_VERSION`]: this pins a digest of
/// every layout to the version, so the change fails here until it does.
#[test]
fn every_wire_layout_is_pinned_to_the_protocol_version() {
    let mut corpus = Vec::new();
    for bytes in layout_corpus() {
        corpus.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        corpus.extend_from_slice(&bytes);
    }
    assert_eq!(
        (PROTOCOL_VERSION, fnv1a(&corpus)),
        (1, 0x672a_919d_66a8_9542),
        "a wire layout changed: bump `PROTOCOL_VERSION` and re-pin"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile header bytes — any version byte, a length prefix below or
    /// above the cap, an arbitrary rest — through both exact frame
    /// readers: a frame or a typed `FrameError`, never a panic. Another
    /// version is refused on its first byte, and a prefix over
    /// `MAX_FRAME_PAYLOAD` as `Oversized`, which the readers return before
    /// they allocate anything for the payload. (Prefixes just under the
    /// cap are left out: a reader rightly allocates what they announce.)
    #[test]
    fn hostile_frame_headers_come_back_whole_or_typed(
        version in prop_oneof![Just(PROTOCOL_VERSION), any::<u8>()],
        len in prop_oneof![0u32..64, (MAX_FRAME_PAYLOAD + 1)..u32::MAX],
        rest in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let mut bytes = vec![version];
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&rest);
        let outcomes = [
            (REQUEST_HEADER_LEN, "request header", read_request_frame(&mut bytes.as_slice()).map(|_| ())),
            (REPLY_HEADER_LEN, "reply header", read_reply_frame(&mut bytes.as_slice()).map(|_| ())),
        ];
        for (header_len, header, outcome) in outcomes {
            if version != PROTOCOL_VERSION {
                prop_assert_eq!(outcome, Err(FrameError::Version { version }));
            } else if bytes.len() < header_len {
                prop_assert_eq!(outcome, Err(FrameError::Truncated { context: header }));
            } else if len > MAX_FRAME_PAYLOAD {
                prop_assert_eq!(outcome, Err(FrameError::Oversized { len: u64::from(len) }));
            } else {
                prop_assert!(
                    matches!(outcome, Ok(()) | Err(FrameError::Corrupt { .. } | FrameError::Truncated { .. })),
                    "{outcome:?}"
                );
            }
        }
    }
}
