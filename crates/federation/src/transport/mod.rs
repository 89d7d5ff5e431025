//! Byte-counted transport between the provider and its silos.
//!
//! The provider talks to every silo through a [`SiloChannel`], a thin
//! handle over a pluggable [`Transport`] backend. Two backends ship:
//!
//! * **in-memory** ([`spawn_silo`]): the silo runs on its own OS thread
//!   and receives length-delimited byte buffers over a crossbeam channel.
//!   This is the deterministic tier-1 default.
//! * **socket** ([`socket::SocketTransport`]): the silo lives behind a
//!   length-prefixed TCP or Unix-domain socket — in another thread,
//!   process (`fedra-silo serve`), or machine. Payload bytes on the wire
//!   are byte-identical to the in-memory encoding; the per-frame header
//!   is the real-world analogue of the simulated per-message overhead.
//!
//! Either way, replies travel back on pooled parked-wait oneshot slots
//! (checked out per in-flight call, so the steady-state hot path
//! allocates nothing) and every buffer is a real [`crate::wire`]
//! encoding — the transport never shortcuts through shared memory — so
//! the byte counters here *are* the paper's communication-cost metric.
//!
//! Two amortization levers ride on top of the basic RPC:
//!
//! * **send/wait split** ([`SiloChannel::begin_call`] /
//!   [`PendingCall::wait`]): begin a frame on every relevant channel, then
//!   wait — the silo workers *are* the fan-out pool, no provider threads
//!   needed;
//! * **batching** ([`SiloChannel::call_batch`]): `n` same-silo requests
//!   share one wire frame, paying the per-message envelope overhead once
//!   per direction instead of `n` times.

pub mod chaos;
pub mod socket;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use crate::fault::{FaultAction, SiloFaultInjector};
use crate::protocol::{encode_batch_request, Request, Response};
use crate::silo::{Silo, SiloId};
use crate::wire::{Wire, WireError};

// The byte-accounting types moved to `fedra-obs` so every layer (and the
// exporters) share one definition; the transport re-exports them under
// their historical home.
pub use fedra_obs::{CommCounters, CommSnapshot, DEFAULT_MESSAGE_OVERHEAD};

struct Envelope {
    request: Bytes,
    reply: Arc<ReplySlot>,
    /// Control metadata, not wire bytes: lets the worker shed requests
    /// whose caller has already given up (the caller enforces the same
    /// deadline on its receive side).
    deadline: Option<Instant>,
}

/// State of a [`ReplySlot`]: empty while the call is in flight, full once
/// the backend delivered, failed when the backend hit a connection-level
/// error it can attribute, dead once the backend is known gone without a
/// reply.
enum SlotState {
    Empty,
    Full(Bytes),
    Failed(TransportError),
    Dead,
}

/// A reusable parked-wait oneshot: the transport backend fills it, the
/// caller sleeps on the condvar until the reply lands, the deadline
/// passes, or the backend marks the slot failed/dead.
///
/// This replaces the earlier pooled `bounded(1)` reply channels, whose
/// caller-side sender kept the channel permanently connected — worker
/// death was unobservable on the channel itself, forcing the waiter into
/// a 5 ms sliced poll of a liveness flag. Here the waiter parks outright
/// and is *woken* on either event, so an idle provider burns no cycles
/// per in-flight call no matter how long the silo takes.
pub struct ReplySlot {
    cell: std::sync::Mutex<SlotState>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Self {
        ReplySlot {
            cell: std::sync::Mutex::new(SlotState::Empty),
            cv: Condvar::new(),
        }
    }

    /// Delivers the reply bytes and wakes the waiter. A slot abandoned by
    /// its caller (deadline miss) is simply filled with nobody listening;
    /// it was discarded from the pool, so the stale bytes are dropped with
    /// the last `Arc` reference.
    pub fn fill(&self, bytes: Bytes) {
        let mut state = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, SlotState::Empty) {
            *state = SlotState::Full(bytes);
            self.cv.notify_all();
        }
    }

    /// Marks the backend as gone and wakes the waiter; a reply that
    /// already landed wins (backends always deliver *before* they give
    /// up on a connection, so a full slot is a served call regardless of
    /// the backend's fate afterwards). The waiter observes this as
    /// [`TransportError::Disconnected`].
    pub fn mark_dead(&self) {
        let mut state = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, SlotState::Empty) {
            *state = SlotState::Dead;
            self.cv.notify_all();
        }
    }

    /// Fails the in-flight call with a backend-attributed error (e.g. a
    /// socket reset that a reconnect may cure surfaces as a retryable
    /// [`TransportError::Transient`]) and wakes the waiter. A reply that
    /// already landed wins.
    pub fn fail(&self, error: TransportError) {
        let mut state = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, SlotState::Empty) {
            *state = SlotState::Failed(error);
            self.cv.notify_all();
        }
    }

    /// Parks until the slot is filled, the backend dies, or `deadline`
    /// passes — whichever comes first. A reply that raced the deadline
    /// onto the slot still wins (the state is checked before the timeout
    /// verdict).
    fn wait(&self, deadline: Option<Instant>) -> RecvOutcome {
        let mut state = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match std::mem::replace(&mut *state, SlotState::Empty) {
                SlotState::Full(bytes) => return RecvOutcome::Bytes(bytes),
                SlotState::Failed(error) => return RecvOutcome::Failed(error),
                SlotState::Dead => {
                    *state = SlotState::Dead;
                    return RecvOutcome::Dead;
                }
                SlotState::Empty => {}
            }
            state = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return RecvOutcome::TimedOut;
                    }
                    let (guard, _timed_out) = self
                        .cv
                        .wait_timeout(state, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    guard
                }
                None => self.cv.wait(state).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

/// Pool of reply slots, so steady-state calls allocate no channels.
///
/// Slots are checked out per in-flight call and returned once the reply
/// has been drained — a slot whose pending call was abandoned is
/// *discarded* instead (the worker may still push a stale reply into it
/// later).
#[derive(Default)]
struct ReplyPool {
    slots: Mutex<Vec<Arc<ReplySlot>>>,
}

impl Default for ReplySlot {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplyPool {
    fn checkout(&self) -> Arc<ReplySlot> {
        self.slots
            .lock()
            .pop()
            .unwrap_or_else(|| Arc::new(ReplySlot::new()))
    }

    fn restore(&self, slot: Arc<ReplySlot>) {
        self.slots.lock().push(slot);
    }
}

/// Registry of in-flight reply slots for one silo channel, shared with
/// the worker's [`AliveGuard`]: when the worker exits on *any* path, the
/// guard sweeps the registry and marks every outstanding slot dead, which
/// is what wakes parked waiters that would otherwise sleep forever on a
/// reply that can no longer come.
///
/// Entries are weak so an abandoned call's slot can die independently;
/// resolved calls deregister eagerly, and registration prunes dead weaks
/// once the map grows past a small bound, so the registry stays
/// proportional to the number of calls actually in flight.
#[derive(Default)]
struct InflightRegistry {
    inflight: Mutex<InflightSlots>,
}

#[derive(Default)]
struct InflightSlots {
    next_token: u64,
    slots: HashMap<u64, Weak<ReplySlot>>,
}

/// Registry size beyond which registration prunes unreachable entries.
const INFLIGHT_PRUNE_LEN: usize = 64;

impl InflightRegistry {
    fn register(&self, slot: &Arc<ReplySlot>) -> u64 {
        let mut guard = self.inflight.lock();
        if guard.slots.len() >= INFLIGHT_PRUNE_LEN {
            guard.slots.retain(|_, weak| weak.strong_count() > 0);
        }
        let token = guard.next_token;
        guard.next_token = guard.next_token.wrapping_add(1);
        guard.slots.insert(token, Arc::downgrade(slot));
        token
    }

    fn deregister(&self, token: u64) {
        self.inflight.lock().slots.remove(&token);
    }

    /// Marks every registered slot dead (worker exit). The upgrade happens
    /// under the registry lock but the marking outside it, so no slot lock
    /// is ever taken while the registry is held.
    fn sweep_dead(&self) {
        let live: Vec<Arc<ReplySlot>> = {
            let mut guard = self.inflight.lock();
            let slots = guard.slots.drain().filter_map(|(_, w)| w.upgrade());
            slots.collect()
        };
        for slot in live {
            slot.mark_dead();
        }
    }
}

/// Errors surfaced by [`SiloChannel::call`].
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The silo worker is gone (shutdown or panic).
    Disconnected {
        /// Which silo.
        silo: SiloId,
    },
    /// The silo answered, but the payload would not decode.
    Codec {
        /// Which silo.
        silo: SiloId,
        /// The decode failure.
        error: crate::wire::WireError,
    },
    /// The silo refused the request (failure injection, missing state…).
    Remote {
        /// Which silo.
        silo: SiloId,
        /// The silo's error message.
        message: String,
    },
    /// The silo worker thread could not be spawned at all.
    ///
    /// Carries the OS error as a string because [`TransportError`] is
    /// `Clone + PartialEq` and `std::io::Error` is neither.
    Spawn {
        /// Which silo.
        silo: SiloId,
        /// The OS-level spawn failure.
        reason: String,
    },
    /// The silo refused transiently (flap window, injected chaos,
    /// overload): retrying the same request against the same silo may
    /// succeed, unlike [`TransportError::Remote`].
    Transient {
        /// Which silo.
        silo: SiloId,
        /// The silo's refusal message.
        message: String,
    },
    /// The call's deadline expired: either no reply arrived in time, or
    /// the worker shed the request because the deadline had already
    /// passed when it was picked up.
    DeadlineExceeded {
        /// Which silo.
        silo: SiloId,
    },
}

impl TransportError {
    /// The silo this error is attributed to.
    pub fn silo(&self) -> SiloId {
        match self {
            TransportError::Disconnected { silo }
            | TransportError::Codec { silo, .. }
            | TransportError::Remote { silo, .. }
            | TransportError::Spawn { silo, .. }
            | TransportError::Transient { silo, .. }
            | TransportError::DeadlineExceeded { silo } => *silo,
        }
    }

    /// Whether retrying the same request on the same silo may succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, TransportError::Transient { .. })
    }

    /// Whether this is a deadline miss (callers resample rather than
    /// retry the same silo).
    pub fn is_deadline(&self) -> bool {
        matches!(self, TransportError::DeadlineExceeded { .. })
    }

    /// A short stable label for metrics/error summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            TransportError::Disconnected { .. } => "disconnected",
            TransportError::Codec { .. } => "codec",
            TransportError::Remote { .. } => "remote",
            TransportError::Spawn { .. } => "spawn",
            TransportError::Transient { .. } => "transient",
            TransportError::DeadlineExceeded { .. } => "deadline",
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected { silo } => write!(f, "silo {silo} disconnected"),
            TransportError::Codec { silo, error } => write!(f, "silo {silo} codec error: {error}"),
            TransportError::Remote { silo, message } => write!(f, "silo {silo} error: {message}"),
            TransportError::Spawn { silo, reason } => {
                write!(f, "silo {silo} worker could not be spawned: {reason}")
            }
            TransportError::Transient { silo, message } => {
                write!(f, "silo {silo} transient error: {message}")
            }
            TransportError::DeadlineExceeded { silo } => {
                write!(f, "silo {silo} deadline exceeded")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Timing/robustness policy for silo calls: per-attempt deadline, retry
/// budget for transient refusals, backoff shape, and the hedging
/// threshold.
///
/// The federation carries one policy (see
/// [`crate::FederationBuilder::call_policy`]); the default disables
/// deadlines and hedging, so behaviour is identical to the pre-policy
/// transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallPolicy {
    /// Per-attempt RPC deadline (`None`: wait forever, the historical
    /// behaviour).
    pub deadline: Option<Duration>,
    /// Maximum same-silo retries after a [`TransportError::Transient`].
    pub retries: u32,
    /// First backoff sleep; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Fire a hedge request at a second silo if the first has not
    /// answered within this threshold (`None`: never hedge).
    pub hedge_after: Option<Duration>,
}

impl Default for CallPolicy {
    fn default() -> Self {
        CallPolicy {
            deadline: None,
            retries: 2,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            hedge_after: None,
        }
    }
}

impl CallPolicy {
    /// Backoff before retry number `attempt` (1-based): capped
    /// exponential, plus deterministic jitter in `[0, backoff_base)`
    /// derived from `(silo, attempt)` — no RNG, no clock, so chaos runs
    /// stay reproducible while retry storms still decorrelate.
    pub fn backoff(&self, silo: SiloId, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.backoff_cap);
        let base_ns = self.backoff_base.as_nanos() as u64;
        // SplitMix64-style hash of (silo, attempt) for the jitter draw.
        let mut z = (silo as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        capped + Duration::from_nanos((z ^ (z >> 31)) % base_ns.max(1))
    }
}

/// Resolution of an in-flight call polled with a timeout: either the
/// decoded outcome, or the still-pending handle to poll again later.
#[derive(Debug)]
pub enum Poll<P, T> {
    /// The reply arrived (or the worker disconnected).
    Ready(T),
    /// Nothing yet; the call stays in flight.
    Pending(P),
}

/// Outcome of [`race_calls`]: which of the two in-flight calls answered
/// first, or neither before the deadline.
#[derive(Debug)]
pub enum RaceWinner {
    /// The primary call answered first.
    Primary(Result<Response, TransportError>),
    /// The hedge call answered first.
    Hedge(Result<Response, TransportError>),
    /// Neither answered before the deadline (both calls are abandoned).
    Timeout,
}

/// Races a primary in-flight call against a hedge: returns the first
/// reply to land before `deadline`, abandoning the loser (its reply pair
/// is discarded once the stale reply arrives, never reused).
///
/// The shim's channels have no `select`, so the race alternates short
/// timed waits between the two receivers; the slice is far below any
/// latency this layer injects, and each wait parks on a condvar rather
/// than spinning.
pub fn race_calls(primary: PendingCall, hedge: PendingCall, deadline: Instant) -> RaceWinner {
    const SLICE: Duration = Duration::from_micros(500);
    let mut first = primary;
    let mut second = hedge;
    // Tracks whether `first` currently refers to the primary call.
    let mut first_is_primary = true;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return RaceWinner::Timeout;
        }
        let slice_end = (now + SLICE).min(deadline);
        match first.poll_deadline(slice_end) {
            Poll::Ready(result) => {
                return if first_is_primary {
                    RaceWinner::Primary(result)
                } else {
                    RaceWinner::Hedge(result)
                };
            }
            Poll::Pending(pending) => {
                first = second;
                second = pending;
                first_is_primary = !first_is_primary;
            }
        }
    }
}

/// A backend that can carry one silo's frames: ship an already-encoded
/// request, deliver the reply into a [`ReplySlot`], and report liveness.
///
/// [`SiloChannel`] is a thin handle over an `Arc<dyn Transport>`: the
/// send/wait split, reply-slot pooling, deadline enforcement on the wait
/// side, and [`CommCounters`] byte accounting all live *above* this
/// boundary and are shared by every backend. A backend only moves bytes:
///
/// * the **in-memory** backend hands frames to a per-silo worker thread
///   over a crossbeam channel ([`spawn_silo`]);
/// * the **socket** backend writes length-prefixed frames to a TCP or
///   Unix-domain stream and pairs replies back by correlation id
///   ([`socket::SocketTransport`]).
///
/// The deadline passed to [`Transport::send_frame`] is control metadata,
/// not wire bytes (the socket backend encodes it into the frame *header*,
/// never the payload): it lets the remote side shed requests whose caller
/// has already given up, exactly like the in-memory worker does.
pub trait Transport: Send + Sync {
    /// Which silo this backend reaches.
    fn silo(&self) -> SiloId;

    /// A short stable backend label (`"memory"`, `"socket"`).
    fn backend_name(&self) -> &'static str;

    /// Ships an encoded request frame. The backend must eventually
    /// resolve `slot` — [`ReplySlot::fill`] with the reply payload,
    /// [`ReplySlot::fail`] with an attributed error, or
    /// [`ReplySlot::mark_dead`] — on every path, including backend death
    /// after a successful send. Returns a token identifying the in-flight
    /// call until [`Transport::retire`] is called for it.
    fn send_frame(
        &self,
        frame: Bytes,
        deadline: Option<Instant>,
        slot: &Arc<ReplySlot>,
    ) -> Result<u64, TransportError>;

    /// Retires an in-flight token (reply drained, or the caller gave up).
    /// Must be idempotent.
    fn retire(&self, token: u64);

    /// Whether the backend can still carry frames (`false` once the
    /// worker thread exited or the peer is unreachable for good).
    fn is_alive(&self) -> bool;

    /// Number of calls currently in flight (diagnostics; tests use this
    /// to pin eager deregistration).
    fn inflight_len(&self) -> usize;

    /// Number of logical requests the silo has served. Live for the
    /// in-memory backend and in-process socket silos (shared counter);
    /// a genuinely remote silo reports the replies this client drained.
    fn served(&self) -> u64;

    /// Injects (or clears) a failure: while set, the silo answers every
    /// request with an error. For a genuinely remote silo this flag is
    /// client-local bookkeeping only (the remote process keeps its own).
    fn set_failed(&self, failed: bool);

    /// Whether the failure flag is set.
    fn is_failed(&self) -> bool;

    /// The silo's metrics registry (shared `Arc` for in-process silos; a
    /// client-local registry of transport metrics for remote ones).
    fn silo_metrics(&self) -> &Arc<fedra_obs::MetricsRegistry>;
}

/// A frame in flight: the request has been handed to the transport
/// backend, the reply has not been drained yet.
///
/// This is the primitive that turns the silo backends into a fan-out
/// pool: the provider `begin`s a frame on every relevant channel *without
/// blocking*, then waits on each pending reply. No provider-side threads
/// are needed for parallel fan-out — the per-silo backends already
/// provide the concurrency.
struct PendingReply {
    silo: SiloId,
    up: usize,
    slot: Arc<ReplySlot>,
    token: u64,
    backend: Arc<dyn Transport>,
    pool: Arc<ReplyPool>,
    stats: Arc<CommCounters>,
    deadline: Option<Instant>,
}

/// How a parked reply wait ended (see [`ReplySlot::wait`]).
enum RecvOutcome {
    /// The reply frame arrived.
    Bytes(Bytes),
    /// The wait's deadline passed with the call still in flight.
    TimedOut,
    /// The backend failed the call with an attributed error.
    Failed(TransportError),
    /// The backend is gone and no reply is queued.
    Dead,
}

impl PendingReply {
    /// The shared wait core every pending type resolves through: waits
    /// (bounded by the deadline captured at send time, unless overridden
    /// via [`PendingReply::with_deadline`]), retires the in-flight token,
    /// records the round's traffic, returns the slot to the pool, and
    /// hands the reply bytes to `decode`.
    ///
    /// On a deadline miss or backend failure the slot is *discarded*
    /// instead of pooled — the backend may still push a stale reply into
    /// it later.
    fn resolve<T>(
        self,
        decode: impl FnOnce(SiloId, Bytes) -> Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        match self.slot.wait(self.deadline) {
            RecvOutcome::Bytes(bytes) => {
                self.backend.retire(self.token);
                self.stats.record(self.up, bytes.len());
                self.pool.restore(self.slot);
                decode(self.silo, bytes)
            }
            RecvOutcome::TimedOut => {
                self.backend.retire(self.token);
                Err(TransportError::DeadlineExceeded { silo: self.silo })
            }
            RecvOutcome::Failed(error) => {
                self.backend.retire(self.token);
                Err(error)
            }
            RecvOutcome::Dead => {
                self.backend.retire(self.token);
                Err(TransportError::Disconnected { silo: self.silo })
            }
        }
    }

    /// The polling twin of [`PendingReply::resolve`]: waits until
    /// `deadline`, but a timeout keeps the call in flight (`Pending`) so
    /// the caller can hedge elsewhere and poll again later.
    fn resolve_poll<T>(
        self,
        deadline: Instant,
        decode: impl FnOnce(SiloId, Bytes) -> Result<T, TransportError>,
    ) -> Poll<PendingReply, Result<T, TransportError>> {
        match self.slot.wait(Some(deadline)) {
            RecvOutcome::Bytes(bytes) => {
                self.backend.retire(self.token);
                self.stats.record(self.up, bytes.len());
                self.pool.restore(self.slot);
                Poll::Ready(decode(self.silo, bytes))
            }
            RecvOutcome::TimedOut => Poll::Pending(self),
            RecvOutcome::Failed(error) => {
                self.backend.retire(self.token);
                Poll::Ready(Err(error))
            }
            RecvOutcome::Dead => {
                self.backend.retire(self.token);
                Poll::Ready(Err(TransportError::Disconnected { silo: self.silo }))
            }
        }
    }

    /// Overrides the deadline captured at send time (the `wait_deadline`
    /// family routes through this).
    fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// An in-flight single-request RPC; resolve it with [`PendingCall::wait`].
pub struct PendingCall {
    inner: PendingReply,
}

/// Decodes a single-call reply frame, mapping refusal payloads to their
/// transport errors so callers can't mistake a refusal for an answer.
fn decode_single(silo: SiloId, bytes: Bytes) -> Result<Response, TransportError> {
    match Response::from_bytes(bytes) {
        Ok(Response::Error(message)) => Err(TransportError::Remote { silo, message }),
        Ok(Response::Transient(message)) => Err(TransportError::Transient { silo, message }),
        Ok(Response::DeadlineExceeded { .. }) => Err(TransportError::DeadlineExceeded { silo }),
        Ok(response) => Ok(response),
        Err(error) => Err(TransportError::Codec { silo, error }),
    }
}

impl PendingCall {
    /// Which silo this call is in flight to.
    pub fn silo(&self) -> SiloId {
        self.inner.silo
    }

    /// Blocks for the response, recording the traffic.
    ///
    /// `Response::Error` payloads are mapped to [`TransportError::Remote`]
    /// (and the transient/deadline refusals to their dedicated variants)
    /// so callers can't mistake a refusal for an answer. When the call was
    /// begun with a deadline, waiting past it yields
    /// [`TransportError::DeadlineExceeded`].
    pub fn wait(self) -> Result<Response, TransportError> {
        self.inner.resolve(decode_single)
    }

    /// Like [`PendingCall::wait`], but bounded by an explicit deadline
    /// (overriding any deadline set at send time).
    pub fn wait_deadline(self, deadline: Instant) -> Result<Response, TransportError> {
        self.inner.with_deadline(deadline).resolve(decode_single)
    }

    /// Waits until `deadline`; a timeout returns the still-pending call
    /// instead of an error, so the caller can hedge elsewhere and poll
    /// this handle again later (first answer wins).
    pub fn poll_deadline(
        self,
        deadline: Instant,
    ) -> Poll<PendingCall, Result<Response, TransportError>> {
        match self.inner.resolve_poll(deadline, decode_single) {
            Poll::Ready(result) => Poll::Ready(result),
            Poll::Pending(inner) => Poll::Pending(PendingCall { inner }),
        }
    }
}

impl std::fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingCall")
            .field("silo", &self.inner.silo)
            .finish()
    }
}

/// An in-flight batched RPC; resolve it with [`PendingBatch::wait`].
pub struct PendingBatch {
    inner: PendingReply,
    expected: usize,
}

/// Decodes a batch reply frame into per-item results (see
/// [`PendingBatch::wait`] for the contract).
fn decode_batch(
    silo: SiloId,
    expected: usize,
    bytes: Bytes,
) -> Result<Vec<Result<Response, TransportError>>, TransportError> {
    match Response::from_bytes(bytes) {
        Ok(Response::Batch(items)) => {
            if items.len() != expected {
                return Err(TransportError::Codec {
                    silo,
                    error: WireError::BadLength {
                        context: "batch response arity",
                        len: items.len(),
                    },
                });
            }
            Ok(items
                .into_iter()
                .map(|item| match item {
                    Response::Error(message) => Err(TransportError::Remote { silo, message }),
                    Response::Transient(message) => {
                        Err(TransportError::Transient { silo, message })
                    }
                    Response::DeadlineExceeded { .. } => {
                        Err(TransportError::DeadlineExceeded { silo })
                    }
                    other => Ok(other),
                })
                .collect())
        }
        // A whole-frame refusal (e.g. the worker could not decode the
        // request, or the fault injector refused the frame) fails every
        // sub-request the same way, at transport level, so callers see
        // the silo-wide nature of the failure.
        Ok(Response::Error(message)) => Ok(vec![
            Err(TransportError::Remote { silo, message });
            expected
        ]),
        Ok(Response::Transient(message)) => Err(TransportError::Transient { silo, message }),
        Ok(Response::DeadlineExceeded { .. }) => Err(TransportError::DeadlineExceeded { silo }),
        Ok(other) => Err(TransportError::Remote {
            silo,
            message: format!("expected batch response, got {other:?}"),
        }),
        Err(error) => Err(TransportError::Codec { silo, error }),
    }
}

impl PendingBatch {
    /// Which silo this batch is in flight to.
    pub fn silo(&self) -> SiloId {
        self.inner.silo
    }

    /// How many sub-responses this batch expects.
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Blocks for the batch response, recording the traffic.
    ///
    /// The outer `Result` is transport-level (worker gone, undecodable
    /// frame, wrong arity, whole-frame transient refusal or deadline
    /// shed); the inner `Vec` carries one entry per sub-request *in
    /// request order*, each individually an error if the silo refused
    /// that item. One bad item never poisons its batch-mates. When the
    /// batch was begun with a deadline, waiting past it yields
    /// [`TransportError::DeadlineExceeded`].
    pub fn wait(self) -> Result<Vec<Result<Response, TransportError>>, TransportError> {
        let expected = self.expected;
        self.inner
            .resolve(move |silo, bytes| decode_batch(silo, expected, bytes))
    }

    /// Like [`PendingBatch::wait`], but bounded by an explicit deadline
    /// (overriding any deadline set at send time).
    pub fn wait_deadline(
        self,
        deadline: Instant,
    ) -> Result<Vec<Result<Response, TransportError>>, TransportError> {
        let expected = self.expected;
        self.inner
            .with_deadline(deadline)
            .resolve(move |silo, bytes| decode_batch(silo, expected, bytes))
    }

    /// Waits until `deadline`; a timeout returns the still-pending batch
    /// instead of an error, so the scatter-gather engine can hedge the
    /// riders elsewhere while keeping this frame alive (first answer
    /// wins).
    #[allow(clippy::type_complexity)]
    pub fn poll_deadline(
        self,
        deadline: Instant,
    ) -> Poll<PendingBatch, Result<Vec<Result<Response, TransportError>>, TransportError>> {
        let expected = self.expected;
        match self.inner.resolve_poll(deadline, move |silo, bytes| {
            decode_batch(silo, expected, bytes)
        }) {
            Poll::Ready(result) => Poll::Ready(result),
            Poll::Pending(inner) => Poll::Pending(PendingBatch { inner, expected }),
        }
    }
}

impl std::fmt::Debug for PendingBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingBatch")
            .field("silo", &self.inner.silo)
            .field("expected", &self.expected)
            .finish()
    }
}

/// An in-flight multiplexed batch whose sub-requests came from *different*
/// callers: each rides with a caller-chosen correlation id, and the reply
/// items come back paired with those ids.
///
/// The ids never travel. The batch protocol already guarantees reply order
/// equals request order, so the wire frame is byte-identical to the one
/// [`SiloChannel::begin_batch_with`] ships; the correlation ids are
/// provider-side bookkeeping zipped back onto the positional replies. This
/// is what lets a scheduler coalesce outstanding requests from unrelated
/// queries into one frame per silo per tick and still route every reply to
/// the query that asked.
pub struct PendingTaggedBatch {
    inner: PendingBatch,
    tags: Vec<u64>,
}

/// Pairs each correlation id with its positional reply item.
fn zip_tags(
    tags: Vec<u64>,
    items: Vec<Result<Response, TransportError>>,
) -> Vec<(u64, Result<Response, TransportError>)> {
    // `decode_batch` already enforced arity == expected == tags.len().
    tags.into_iter().zip(items).collect()
}

impl PendingTaggedBatch {
    /// Which silo this batch is in flight to.
    pub fn silo(&self) -> SiloId {
        self.inner.silo()
    }

    /// How many sub-responses this batch expects.
    pub fn expected(&self) -> usize {
        self.inner.expected()
    }

    /// The correlation ids riding this frame, in request order.
    pub fn tags(&self) -> &[u64] {
        &self.tags
    }

    /// Blocks for the batch response and pairs every item with the
    /// correlation id its request carried. Error contract as in
    /// [`PendingBatch::wait`]: the outer `Result` is frame-level (worker
    /// gone, whole-frame refusal or deadline shed — every rider failed the
    /// same way), the inner entries are per-rider.
    #[allow(clippy::type_complexity)]
    pub fn wait(self) -> Result<Vec<(u64, Result<Response, TransportError>)>, TransportError> {
        let items = self.inner.wait()?;
        Ok(zip_tags(self.tags, items))
    }

    /// Like [`PendingTaggedBatch::wait`], but bounded by an explicit
    /// deadline (overriding any deadline set at send time).
    #[allow(clippy::type_complexity)]
    pub fn wait_deadline(
        self,
        deadline: Instant,
    ) -> Result<Vec<(u64, Result<Response, TransportError>)>, TransportError> {
        let items = self.inner.wait_deadline(deadline)?;
        Ok(zip_tags(self.tags, items))
    }

    /// Waits until `deadline`; a timeout returns the still-pending batch
    /// instead of an error so the caller can keep the frame alive across
    /// scheduling ticks.
    #[allow(clippy::type_complexity)]
    pub fn poll_deadline(
        self,
        deadline: Instant,
    ) -> Poll<
        PendingTaggedBatch,
        Result<Vec<(u64, Result<Response, TransportError>)>, TransportError>,
    > {
        match self.inner.poll_deadline(deadline) {
            Poll::Ready(Ok(items)) => Poll::Ready(Ok(zip_tags(self.tags, items))),
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending(inner) => Poll::Pending(PendingTaggedBatch {
                inner,
                tags: self.tags,
            }),
        }
    }
}

impl std::fmt::Debug for PendingTaggedBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingTaggedBatch")
            .field("silo", &self.inner.silo())
            .field("tags", &self.tags)
            .finish()
    }
}

/// The in-memory [`Transport`] backend: frames travel to a per-silo OS
/// worker thread over a crossbeam channel ([`spawn_silo`]). This is the
/// deterministic tier-1 default.
pub struct InMemoryTransport {
    silo: SiloId,
    tx: Sender<Envelope>,
    registry: Arc<InflightRegistry>,
    served: Arc<AtomicU64>,
    failed: Arc<std::sync::atomic::AtomicBool>,
    silo_metrics: Arc<fedra_obs::MetricsRegistry>,
    worker_alive: Arc<AtomicBool>,
}

impl Transport for InMemoryTransport {
    fn silo(&self) -> SiloId {
        self.silo
    }

    fn backend_name(&self) -> &'static str {
        "memory"
    }

    fn send_frame(
        &self,
        frame: Bytes,
        deadline: Option<Instant>,
        slot: &Arc<ReplySlot>,
    ) -> Result<u64, TransportError> {
        // Register *before* the send: the worker's exit sweep can only
        // wake slots it can see, and a successful send proves the worker
        // had not yet dropped its receiver — so a post-send exit is
        // guaranteed to sweep this entry.
        let token = self.registry.register(slot);
        if self
            .tx
            .send(Envelope {
                request: frame,
                reply: Arc::clone(slot),
                deadline,
            })
            .is_err()
        {
            self.registry.deregister(token);
            return Err(TransportError::Disconnected { silo: self.silo });
        }
        if !self.worker_alive.load(Ordering::Acquire) {
            // Belt and braces against an exit racing the send: a no-op if
            // the worker served the frame first (the slot is already
            // full), otherwise it wakes the waiter with `Dead`.
            slot.mark_dead();
        }
        Ok(token)
    }

    fn retire(&self, token: u64) {
        self.registry.deregister(token);
    }

    fn is_alive(&self) -> bool {
        self.worker_alive.load(Ordering::Acquire)
    }

    fn inflight_len(&self) -> usize {
        self.registry.inflight.lock().slots.len()
    }

    fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    fn set_failed(&self, failed: bool) {
        self.failed.store(failed, Ordering::Release);
    }

    fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    fn silo_metrics(&self) -> &Arc<fedra_obs::MetricsRegistry> {
        &self.silo_metrics
    }
}

/// The provider's handle to one silo: a thin, clonable wrapper over a
/// [`Transport`] backend plus the provider-side machinery every backend
/// shares — the [`CommCounters`] the channel records into and the pooled
/// reply slots the send/wait split parks on.
#[derive(Clone)]
pub struct SiloChannel {
    backend: Arc<dyn Transport>,
    stats: Arc<CommCounters>,
    reply_pool: Arc<ReplyPool>,
}

impl SiloChannel {
    /// Wraps a transport backend into a channel recording traffic into
    /// `stats`.
    pub fn over(backend: Arc<dyn Transport>, stats: Arc<CommCounters>) -> SiloChannel {
        SiloChannel {
            backend,
            stats,
            reply_pool: Arc::new(ReplyPool::default()),
        }
    }

    /// Which silo this channel reaches.
    pub fn id(&self) -> SiloId {
        self.backend.silo()
    }

    /// The transport backend this channel rides on.
    pub fn backend(&self) -> &Arc<dyn Transport> {
        &self.backend
    }

    /// Ships an already-encoded frame to the backend and returns the
    /// in-flight reply handle. The deadline rides as frame metadata
    /// (the silo sheds expired requests) and bounds the caller's wait.
    fn send_frame(
        &self,
        frame: Bytes,
        deadline: Option<Instant>,
    ) -> Result<PendingReply, TransportError> {
        let up = frame.len();
        let slot = self.reply_pool.checkout();
        let token = match self.backend.send_frame(frame, deadline, &slot) {
            Ok(token) => token,
            Err(e) => {
                self.reply_pool.restore(slot);
                return Err(e);
            }
        };
        Ok(PendingReply {
            silo: self.backend.silo(),
            up,
            slot,
            token,
            backend: Arc::clone(&self.backend),
            pool: Arc::clone(&self.reply_pool),
            stats: Arc::clone(&self.stats),
            deadline,
        })
    }

    /// Starts a request without blocking for the reply.
    ///
    /// Begin on several channels, then [`PendingCall::wait`] on each: the
    /// silo workers execute concurrently, giving fan-out parallelism with
    /// zero provider-side threads.
    pub fn begin_call(&self, request: &Request) -> Result<PendingCall, TransportError> {
        self.begin_call_encoded(request.to_bytes())
    }

    /// Starts a request with a deadline: the worker sheds it if expired
    /// on arrival, and [`PendingCall::wait`] gives up at the deadline.
    pub fn begin_call_with(
        &self,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<PendingCall, TransportError> {
        Ok(PendingCall {
            inner: self.send_frame(request.to_bytes(), deadline)?,
        })
    }

    /// Starts a request from a pre-encoded frame (O(1) to clone — use for
    /// broadcasting one frame to many silos without re-encoding).
    pub fn begin_call_encoded(&self, frame: Bytes) -> Result<PendingCall, TransportError> {
        Ok(PendingCall {
            inner: self.send_frame(frame, None)?,
        })
    }

    /// Starts a batch of requests as one coalesced wire frame, without
    /// blocking for the reply.
    ///
    /// The whole batch pays the per-message envelope overhead *once* per
    /// direction, instead of once per request.
    pub fn begin_batch(&self, requests: &[&Request]) -> Result<PendingBatch, TransportError> {
        self.begin_batch_with(requests, None)
    }

    /// Starts a batch with a deadline: the worker sheds the whole frame
    /// if expired on arrival, and [`PendingBatch::wait`] gives up at the
    /// deadline.
    pub fn begin_batch_with(
        &self,
        requests: &[&Request],
        deadline: Option<Instant>,
    ) -> Result<PendingBatch, TransportError> {
        Ok(PendingBatch {
            inner: self.send_frame(encode_batch_request(requests), deadline)?,
            expected: requests.len(),
        })
    }

    /// Starts a cross-caller batch: each request rides with a caller
    /// correlation id that is paired back onto its reply by
    /// [`PendingTaggedBatch::wait`]. The wire frame is byte-identical to
    /// [`SiloChannel::begin_batch_with`] on the same requests — the ids
    /// are provider-side only.
    pub fn begin_tagged_batch_with(
        &self,
        requests: &[(u64, &Request)],
        deadline: Option<Instant>,
    ) -> Result<PendingTaggedBatch, TransportError> {
        let refs: Vec<&Request> = requests.iter().map(|(_, r)| *r).collect();
        Ok(PendingTaggedBatch {
            inner: self.begin_batch_with(&refs, deadline)?,
            tags: requests.iter().map(|(tag, _)| *tag).collect(),
        })
    }

    /// Sends a request and waits for the response, recording the traffic.
    ///
    /// `Response::Error` payloads are mapped to
    /// [`TransportError::Remote`] so callers can't mistake a refusal for an
    /// answer.
    pub fn call(&self, request: &Request) -> Result<Response, TransportError> {
        self.begin_call(request)?.wait()
    }

    /// Sends `requests` as one coalesced frame and waits for the per-item
    /// results, in request order.
    ///
    /// An empty slice is answered locally with no traffic. See
    /// [`PendingBatch::wait`] for the error contract.
    pub fn call_batch(
        &self,
        requests: &[Request],
    ) -> Result<Vec<Result<Response, TransportError>>, TransportError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let refs: Vec<&Request> = requests.iter().collect();
        self.begin_batch(&refs)?.wait()
    }

    /// The one way to re-point a channel's byte accounting: returns a
    /// copy of this channel (same backend, same reply-slot pool) that
    /// records traffic into a different counter set. The federation uses
    /// this to swap setup counters for query counters once Alg. 1
    /// finishes, so experiments can report per-query communication cost
    /// net of index construction.
    pub fn with_comm(&self, comm: Arc<CommCounters>) -> SiloChannel {
        SiloChannel {
            backend: Arc::clone(&self.backend),
            stats: comm,
            reply_pool: Arc::clone(&self.reply_pool),
        }
    }

    /// The silo's own metrics registry (request counts by kind, batch
    /// sizes, LSR level picks). Shared by `Arc` for in-process silos —
    /// diagnostics cross the thread boundary without touching the
    /// byte-counted wire path. See [`Transport::silo_metrics`].
    pub fn silo_metrics(&self) -> &Arc<fedra_obs::MetricsRegistry> {
        self.backend.silo_metrics()
    }

    /// Number of logical requests the silo has served so far
    /// ([`Transport::served`]).
    pub fn served(&self) -> u64 {
        self.backend.served()
    }

    /// Injects (or clears) a failure: while set, the silo answers every
    /// request with an error ([`Transport::set_failed`]).
    pub fn set_failed(&self, failed: bool) {
        self.backend.set_failed(failed);
    }

    /// Whether the failure flag is set.
    pub fn is_failed(&self) -> bool {
        self.backend.is_failed()
    }
}

impl std::fmt::Debug for SiloChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiloChannel")
            .field("id", &self.id())
            .field("backend", &self.backend.backend_name())
            .finish()
    }
}

/// One silo behind a transport: the silo plus everything a backend's
/// receive loop applies around [`Silo::handle`]. Both backends serve
/// every frame through [`SiloServer::serve`], so the same
/// [`crate::fault::FaultPlan`] yields the same per-frame schedule on
/// either by construction.
pub(crate) struct SiloServer {
    pub(crate) silo: Silo,
    /// Fixed simulated latency added before serving each frame.
    pub(crate) latency: Option<Duration>,
    /// One action is drawn per frame; the lock is held for the draw only.
    pub(crate) faults: Mutex<Option<SiloFaultInjector>>,
    /// Where the retained grid is persisted after every served `BuildGrid`
    /// (`fedra-silo serve --snapshot`; `None` on the in-memory backend).
    pub(crate) snapshot_path: Option<PathBuf>,
}

/// What [`SiloServer::serve`] decided for one frame.
pub(crate) enum Served {
    /// Send these reply bytes (an answer, an injected transient refusal or
    /// a deadline shed — all travel and are byte-counted).
    Reply(Bytes),
    /// Injected message drop: the caller's deadline reaps the call.
    NoReply,
    /// Injected crash: the backend stops serving this silo altogether.
    Crash,
}

impl SiloServer {
    /// The serve step: simulated latency → fault action → deadline shed →
    /// decode → handle → encode, in that order, for one received frame.
    pub(crate) fn serve(&self, payload: Bytes, deadline: Option<Instant>) -> Served {
        if let Some(latency) = self.latency {
            std::thread::sleep(latency);
        }
        let action = self
            .faults
            .lock()
            .as_mut()
            .map(SiloFaultInjector::next_action);
        match action {
            Some(FaultAction::Crash) => return Served::Crash,
            Some(FaultAction::Drop) => return Served::NoReply,
            Some(FaultAction::Transient { message, delay }) => {
                if let Some(delay) = delay {
                    std::thread::sleep(delay);
                }
                return Served::Reply(Response::Transient(message).to_bytes());
            }
            Some(FaultAction::Proceed { delay: Some(delay) }) => std::thread::sleep(delay),
            Some(FaultAction::Proceed { delay: None }) | None => {}
        }
        // Shed work whose caller has already given up: the refusal still
        // travels (and is byte-counted), the local query work is skipped.
        if let Some(deadline) = deadline {
            let now = Instant::now();
            if now >= deadline {
                let late_by_us = (now - deadline).as_micros().min(u64::MAX as u128) as u64;
                return Served::Reply(Response::DeadlineExceeded { late_by_us }.to_bytes());
            }
        }
        let response = match Request::from_bytes(payload) {
            Ok(request) => {
                let snapshot_to = self
                    .snapshot_path
                    .as_ref()
                    .filter(|_| builds_grid(&request));
                let response = self.silo.handle(request);
                // Persist the freshly retained grid before replying, so a
                // crash any time after the provider saw the (Grid|GridAck)
                // can recover from disk.
                if let Some(path) = snapshot_to {
                    let _ = self.silo.save_grid_snapshot(path);
                }
                response
            }
            Err(e) => Response::Error(format!("undecodable request: {e}")),
        };
        Served::Reply(response.to_bytes())
    }
}

/// Whether serving `request` (re)builds the silo's retained grid — the
/// state worth snapshotting afterwards.
fn builds_grid(request: &Request) -> bool {
    match request {
        Request::BuildGrid { .. } => true,
        Request::Batch(items) => items
            .iter()
            .any(|item| matches!(item, Request::BuildGrid { .. })),
        _ => false,
    }
}

/// Spawns the silo worker thread and returns the provider-side channel
/// plus the join handle (owned by the federation for shutdown).
///
/// Fails with [`TransportError::Spawn`] when the OS refuses the thread
/// (resource exhaustion) — the federation maps that to a setup error
/// instead of tearing the provider down.
pub fn spawn_silo(
    silo: Silo,
    stats: Arc<CommCounters>,
    simulated_latency: Option<Duration>,
    faults: Option<SiloFaultInjector>,
) -> Result<(SiloChannel, JoinHandle<()>), TransportError> {
    let (tx, rx) = unbounded::<Envelope>();
    let id = silo.id();
    let served = silo.served_counter();
    let failed = silo.failure_flag();
    let silo_metrics = silo.metrics();
    let worker_alive = Arc::new(AtomicBool::new(true));
    let registry = Arc::new(InflightRegistry::default());
    let alive_guard = AliveGuard {
        alive: Arc::clone(&worker_alive),
        registry: Arc::clone(&registry),
    };
    let server = SiloServer {
        silo,
        latency: simulated_latency,
        faults: Mutex::new(faults),
        snapshot_path: None,
    };
    let handle = std::thread::Builder::new()
        .name(format!("fedra-silo-{id}"))
        .spawn(move || {
            // Runs on every exit path — normal shutdown, injected crash,
            // panic — clearing the liveness flag and waking callers
            // parked on a reply. Declared before the loop so the loop's
            // iterator (owning the receiver) drops *first*: once the
            // guard's sweep runs, no new envelope can have been accepted.
            let _alive = alive_guard;
            for envelope in rx {
                match server.serve(envelope.request, envelope.deadline) {
                    // A caller that gave up simply never drains the slot.
                    Served::Reply(bytes) => envelope.reply.fill(bytes),
                    Served::NoReply => {}
                    Served::Crash => return,
                }
            }
        })
        .map_err(|e| TransportError::Spawn {
            silo: id,
            reason: e.to_string(),
        })?;
    let backend = InMemoryTransport {
        silo: id,
        tx,
        registry,
        served,
        failed,
        silo_metrics,
        worker_alive,
    };
    Ok((SiloChannel::over(Arc::new(backend), stats), handle))
}

/// Which [`Transport`] backend a federation stands its local silos up
/// behind (see `FederationBuilder::transport_backend`).
///
/// The default is [`TransportBackend::InMemory`] — the deterministic
/// tier-1 path. [`TransportBackend::Socket`] serves every local silo
/// over a real loopback TCP socket ([`socket::spawn_silo_socket`]):
/// answers and byte counts stay identical, only timing becomes
/// OS-scheduled. The `FEDRA_TRANSPORT` environment variable (`memory` |
/// `socket`) selects a backend when the builder was not told explicitly,
/// which is how the test suites re-run against sockets unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportBackend {
    /// Crossbeam channel to a worker thread in this process (default).
    #[default]
    InMemory,
    /// Loopback TCP socket to a server thread in this process.
    Socket,
}

impl TransportBackend {
    /// Reads `FEDRA_TRANSPORT` (unset or unrecognised ⇒ in-memory).
    pub fn from_env() -> TransportBackend {
        match std::env::var("FEDRA_TRANSPORT") {
            Ok(v) if v.eq_ignore_ascii_case("socket") => TransportBackend::Socket,
            _ => TransportBackend::InMemory,
        }
    }
}

/// Guard owned by the silo worker thread whose `Drop` marks the worker as
/// gone and wakes every parked caller, no matter how the thread exits:
/// it clears the liveness flag, then sweeps the in-flight slot registry
/// so waiters see `Dead` instead of sleeping forever.
struct AliveGuard {
    alive: Arc<AtomicBool>,
    registry: Arc<InflightRegistry>,
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Release);
        self.registry.sweep_dead();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LocalMode;
    use crate::silo::SiloConfig;
    use fedra_geo::{Point, Range, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;
    use fedra_index::rtree::RTreeConfig;

    fn test_silo(id: SiloId, n: usize) -> Silo {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let objects: Vec<SpatialObject> = (0..n)
            .map(|i| SpatialObject::at((i % 10) as f64 + 0.5, (i / 10 % 10) as f64 + 0.5, 1.0))
            .collect();
        Silo::new(
            id,
            objects,
            SiloConfig {
                rtree: RTreeConfig::default(),
                histogram: MinSkewConfig {
                    resolution: 8,
                    budget: 8,
                },
                bounds,
                threads: 0,
                lsr_seed: 1,
            },
        )
    }

    #[test]
    fn call_round_trips_through_the_thread() {
        let stats = Arc::new(CommCounters::default());
        let (chan, handle) =
            spawn_silo(test_silo(0, 100), Arc::clone(&stats), None, None).expect("spawn silo");
        let resp = chan.call(&Request::Ping).expect("ping");
        assert_eq!(resp, Response::Pong);
        let snap = stats.snapshot();
        assert_eq!(snap.rounds, 1);
        assert!(snap.bytes_up >= 1);
        assert!(snap.bytes_down >= 1);
        drop(chan);
        handle.join().expect("worker exits cleanly");
    }

    #[test]
    fn traffic_is_counted_per_round() {
        // Zero-overhead stats so payload sizes can be pinned exactly.
        let stats = Arc::new(CommCounters::with_overhead(0));
        let (chan, _handle) =
            spawn_silo(test_silo(1, 100), Arc::clone(&stats), None, None).expect("spawn silo");
        let q = Range::circle(Point::new(5.0, 5.0), 2.0);
        let before = stats.snapshot();
        chan.call(&Request::Aggregate {
            range: q,
            mode: LocalMode::Exact,
        })
        .expect("aggregate");
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.rounds, 1);
        // Request: tag + range(25) + mode(1) = 27; response: tag + agg(24) = 25.
        assert_eq!(delta.bytes_up, 27);
        assert_eq!(delta.bytes_down, 25);
    }

    #[test]
    fn default_overhead_is_charged_per_message() {
        let stats = Arc::new(CommCounters::default());
        assert_eq!(stats.overhead(), DEFAULT_MESSAGE_OVERHEAD);
        let (chan, _handle) =
            spawn_silo(test_silo(7, 10), Arc::clone(&stats), None, None).expect("spawn silo");
        chan.call(&Request::Ping).unwrap();
        let snap = stats.snapshot();
        assert!(snap.bytes_up > DEFAULT_MESSAGE_OVERHEAD);
        assert!(snap.bytes_down > DEFAULT_MESSAGE_OVERHEAD);
    }

    #[test]
    fn remote_errors_are_surfaced() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(2, 10), Arc::clone(&stats), None, None).expect("spawn silo");
        chan.set_failed(true);
        let err = chan.call(&Request::Ping).expect_err("should fail");
        assert!(matches!(err, TransportError::Remote { silo: 2, .. }));
        assert!(chan.is_failed());
        chan.set_failed(false);
        assert!(chan.call(&Request::Ping).is_ok());
    }

    #[test]
    fn served_counter_tracks_requests() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(3, 10), Arc::clone(&stats), None, None).expect("spawn silo");
        assert_eq!(chan.served(), 0);
        for _ in 0..5 {
            chan.call(&Request::Ping).unwrap();
        }
        assert_eq!(chan.served(), 5);
    }

    #[test]
    fn concurrent_calls_from_many_threads() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(4, 200), Arc::clone(&stats), None, None).expect("spawn silo");
        let q = Range::circle(Point::new(5.0, 5.0), 3.0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let chan = chan.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        let r = chan
                            .call(&Request::Aggregate {
                                range: q,
                                mode: LocalMode::Exact,
                            })
                            .expect("aggregate");
                        assert!(matches!(r, Response::Agg(_)));
                    }
                });
            }
        });
        assert_eq!(stats.snapshot().rounds, 160);
    }

    #[test]
    fn call_batch_preserves_request_order() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(8, 100), Arc::clone(&stats), None, None).expect("spawn silo");
        let q = Range::circle(Point::new(5.0, 5.0), 2.0);
        let exact = chan
            .call(&Request::Aggregate {
                range: q,
                mode: LocalMode::Exact,
            })
            .unwrap();
        let before = stats.snapshot();
        let results = chan
            .call_batch(&[
                Request::Ping,
                Request::Aggregate {
                    range: q,
                    mode: LocalMode::Exact,
                },
                Request::MemoryReport,
            ])
            .expect("batch transport");
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], Ok(Response::Pong));
        assert_eq!(results[1].as_ref().unwrap(), &exact);
        assert!(matches!(results[2], Ok(Response::Memory(_))));
        // The whole batch is one round.
        assert_eq!(stats.snapshot().since(&before).rounds, 1);
    }

    #[test]
    fn tagged_batch_pairs_replies_with_correlation_ids() {
        let stats = Arc::new(CommCounters::with_overhead(0));
        let (chan, _handle) =
            spawn_silo(test_silo(11, 100), Arc::clone(&stats), None, None).expect("spawn silo");
        let q = Range::circle(Point::new(5.0, 5.0), 2.0);
        let agg = Request::Aggregate {
            range: q,
            mode: LocalMode::Exact,
        };
        // The plain batch pins the wire cost the tagged variant must match.
        let before = stats.snapshot();
        chan.call_batch(&[Request::Ping, agg.clone(), Request::MemoryReport])
            .expect("plain batch");
        let plain = stats.snapshot().since(&before);

        let before = stats.snapshot();
        let results = chan
            .begin_tagged_batch_with(
                &[
                    (907, &Request::Ping),
                    (11, &agg),
                    (42, &Request::MemoryReport),
                ],
                None,
            )
            .expect("begin tagged batch")
            .wait()
            .expect("tagged batch transport");
        let tagged = stats.snapshot().since(&before);
        // Correlation ids are provider-side bookkeeping: same bytes, one round.
        assert_eq!(tagged, plain);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].0, 907);
        assert_eq!(results[0].1, Ok(Response::Pong));
        assert_eq!(results[1].0, 11);
        assert!(matches!(results[1].1, Ok(Response::Agg(_))));
        assert_eq!(results[2].0, 42);
        assert!(matches!(results[2].1, Ok(Response::Memory(_))));
    }

    #[test]
    fn tagged_batch_deadline_shed_fails_the_whole_frame() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(12, 10), Arc::clone(&stats), None, None).expect("spawn silo");
        // A frame expired before dispatch: the worker sheds it whole, and
        // the refusal still costs a byte-counted round. Waiting with a
        // generous *receive* deadline (while the envelope deadline is
        // already past) is what lets the shed response actually arrive.
        let expired = Instant::now() - Duration::from_millis(5);
        let err = chan
            .begin_tagged_batch_with(&[(1, &Request::Ping), (2, &Request::Ping)], Some(expired))
            .expect("send succeeds; the shed happens silo-side")
            .wait_deadline(Instant::now() + Duration::from_secs(5))
            .expect_err("expired frame is shed");
        assert!(matches!(err, TransportError::DeadlineExceeded { silo: 12 }));
        assert_eq!(stats.snapshot().rounds, 1);
    }

    #[test]
    fn call_batch_surfaces_per_item_errors() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(9, 10), Arc::clone(&stats), None, None).expect("spawn silo");
        chan.set_failed(true);
        let results = chan
            .call_batch(&[Request::Ping, Request::Ping, Request::Ping])
            .expect("transport still works; the refusals are per item");
        assert_eq!(results.len(), 3);
        for r in results {
            assert!(matches!(r, Err(TransportError::Remote { silo: 9, .. })));
        }
        // Failure injection costs one round, not three.
        assert_eq!(stats.snapshot().rounds, 1);
    }

    #[test]
    fn empty_batch_sends_no_traffic() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(10, 10), Arc::clone(&stats), None, None).expect("spawn silo");
        assert_eq!(chan.call_batch(&[]).unwrap(), Vec::new());
        assert_eq!(stats.snapshot(), CommSnapshot::default());
    }

    #[test]
    fn batch_amortizes_the_envelope_overhead() {
        // Zero-overhead stats pin the payload arithmetic; the saving shows
        // in rounds (each round costs 2 × overhead under default stats).
        let stats = Arc::new(CommCounters::with_overhead(0));
        let (chan, _handle) =
            spawn_silo(test_silo(11, 100), Arc::clone(&stats), None, None).expect("spawn silo");
        let q = Range::circle(Point::new(5.0, 5.0), 2.0);
        let agg = Request::Aggregate {
            range: q,
            mode: LocalMode::Exact,
        };
        let before = stats.snapshot();
        chan.call_batch(&[agg.clone(), agg.clone()]).unwrap();
        let batched = stats.snapshot().since(&before);
        let before = stats.snapshot();
        chan.call(&agg).unwrap();
        chan.call(&agg).unwrap();
        let singleton = stats.snapshot().since(&before);
        // Payloads: singleton 2 × (27 up, 25 down); batch adds a 5-byte
        // frame header each way (tag + count) on top of the same items.
        assert_eq!(singleton.bytes_up, 54);
        assert_eq!(singleton.bytes_down, 50);
        assert_eq!(batched.bytes_up, 59);
        assert_eq!(batched.bytes_down, 55);
        assert_eq!(singleton.rounds, 2);
        assert_eq!(batched.rounds, 1);
    }

    #[test]
    fn reply_slots_are_pooled_and_reused() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(12, 10), Arc::clone(&stats), None, None).expect("spawn silo");
        for _ in 0..10 {
            chan.call(&Request::Ping).unwrap();
        }
        // Sequential calls recycle a single slot.
        assert_eq!(chan.reply_pool.slots.lock().len(), 1);
        // Resolved calls deregister eagerly, so the in-flight registry
        // holds nothing between calls.
        assert_eq!(chan.backend().inflight_len(), 0);
        // An abandoned pending call discards its slot instead of
        // returning a (possibly stale) one to the pool.
        let pending = chan.begin_call(&Request::Ping).unwrap();
        drop(pending);
        assert!(chan.reply_pool.slots.lock().is_empty());
        // The channel still works after the discard.
        assert_eq!(chan.call(&Request::Ping).unwrap(), Response::Pong);
    }

    #[test]
    fn begin_then_wait_overlaps_silo_work() {
        // With 20ms of injected latency per frame, four pipelined frames
        // on four silos must finish in ~1 latency, not 4.
        let stats = Arc::new(CommCounters::default());
        let latency = Duration::from_millis(20);
        let channels: Vec<SiloChannel> = (0..4)
            .map(|i| {
                spawn_silo(test_silo(i, 10), Arc::clone(&stats), Some(latency), None)
                    .expect("spawn silo")
                    .0
            })
            .collect();
        let start = std::time::Instant::now();
        let pending: Vec<PendingCall> = channels
            .iter()
            .map(|c| c.begin_call(&Request::Ping).unwrap())
            .collect();
        for p in pending {
            assert_eq!(p.wait().unwrap(), Response::Pong);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < latency * 3,
            "fan-out not overlapped: {elapsed:?} for 4 × {latency:?} silos"
        );
    }

    #[test]
    fn disconnected_worker_reports_cleanly() {
        let stats = Arc::new(CommCounters::default());
        let (chan, handle) =
            spawn_silo(test_silo(5, 10), Arc::clone(&stats), None, None).expect("spawn silo");
        // Simulate a dead worker: clone the channel, drop the original
        // sender... the worker only exits when *all* senders drop, so
        // instead kill it by dropping every channel and joining.
        let chan2 = chan.clone();
        drop(chan);
        drop(chan2);
        handle.join().expect("worker exits");
    }

    #[test]
    fn simulated_latency_is_applied() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) = spawn_silo(
            test_silo(6, 10),
            Arc::clone(&stats),
            Some(Duration::from_millis(20)),
            None,
        )
        .expect("spawn silo");
        let start = std::time::Instant::now();
        chan.call(&Request::Ping).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    fn slow_injector(silo: SiloId, latency: Duration) -> Option<SiloFaultInjector> {
        use std::sync::atomic::AtomicBool;
        crate::fault::FaultPlan::seeded(1)
            .slow_silo(silo, latency)
            .injector_for(silo, Arc::new(AtomicBool::new(true)))
    }

    #[test]
    fn wait_deadline_times_out_and_discards_the_pair() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) = spawn_silo(
            test_silo(20, 10),
            Arc::clone(&stats),
            None,
            slow_injector(20, Duration::from_millis(100)),
        )
        .expect("spawn silo");
        let pending = chan.begin_call(&Request::Ping).unwrap();
        let err = pending
            .wait_deadline(Instant::now() + Duration::from_millis(5))
            .expect_err("must time out");
        assert_eq!(err, TransportError::DeadlineExceeded { silo: 20 });
        assert!(err.is_deadline());
        assert!(!err.is_retryable());
        // The abandoned slot must not be pooled (its stale reply is still
        // coming).
        assert!(chan.reply_pool.slots.lock().is_empty());
        // And a timed-out round records no traffic.
        assert_eq!(stats.snapshot().rounds, 0);
        // The channel still works once the slow reply has drained.
        assert_eq!(chan.call(&Request::Ping).unwrap(), Response::Pong);
    }

    #[test]
    fn expired_deadline_is_shed_by_the_worker() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) = spawn_silo(
            test_silo(21, 10),
            Arc::clone(&stats),
            Some(Duration::from_millis(20)),
            None,
        )
        .expect("spawn silo");
        // The deadline expires while the latency sleep runs, so the
        // worker sheds the request; the shed reply still counts a round.
        let pending = chan
            .begin_call_with(
                &Request::Ping,
                Some(Instant::now() + Duration::from_millis(1)),
            )
            .unwrap();
        // Wait without a deadline override: the shed response itself
        // reports the miss.
        let err = pending
            .wait_deadline(Instant::now() + Duration::from_secs(5))
            .expect_err("shed");
        assert_eq!(err, TransportError::DeadlineExceeded { silo: 21 });
        assert_eq!(stats.snapshot().rounds, 1);
    }

    #[test]
    fn transient_faults_map_to_their_own_variant() {
        use std::sync::atomic::AtomicBool;
        let stats = Arc::new(CommCounters::default());
        let injector = crate::fault::FaultPlan::seeded(3)
            .flapping_silo(22, 2, 1)
            .injector_for(22, Arc::new(AtomicBool::new(true)));
        let (chan, _handle) =
            spawn_silo(test_silo(22, 10), Arc::clone(&stats), None, injector).expect("spawn silo");
        // period 2, down 1: request 0 serves, request 1 refuses.
        assert_eq!(chan.call(&Request::Ping).unwrap(), Response::Pong);
        let err = chan.call(&Request::Ping).expect_err("flap window");
        assert!(matches!(err, TransportError::Transient { silo: 22, .. }));
        assert!(err.is_retryable());
        // Request 2 lands in the next up window…
        assert_eq!(chan.call(&Request::Ping).unwrap(), Response::Pong);
        // …and a batch frame in the following down window fails at
        // transport level.
        let err = chan
            .call_batch(&[Request::Ping, Request::Ping])
            .expect_err("whole-frame transient");
        assert!(matches!(err, TransportError::Transient { silo: 22, .. }));
    }

    #[test]
    fn crash_after_n_disconnects_later_calls() {
        use std::sync::atomic::AtomicBool;
        let stats = Arc::new(CommCounters::default());
        let injector = crate::fault::FaultPlan::seeded(3)
            .with_spec(
                23,
                crate::fault::SiloFaultSpec {
                    crash_after: Some(2),
                    ..Default::default()
                },
            )
            .injector_for(23, Arc::new(AtomicBool::new(true)));
        let (chan, handle) =
            spawn_silo(test_silo(23, 10), Arc::clone(&stats), None, injector).expect("spawn silo");
        assert!(chan.call(&Request::Ping).is_ok());
        assert!(chan.call(&Request::Ping).is_ok());
        let err = chan.call(&Request::Ping).expect_err("crashed");
        assert_eq!(err, TransportError::Disconnected { silo: 23 });
        assert_eq!(err.kind(), "disconnected");
        handle.join().expect("worker exited by crashing");
    }

    #[test]
    fn parked_wait_is_woken_by_worker_death() {
        use std::sync::atomic::AtomicBool;
        // A wait with *no* deadline parks until the worker exits; the
        // exit sweep must wake it promptly with `Disconnected` rather
        // than leaving it asleep forever.
        let stats = Arc::new(CommCounters::default());
        let injector = crate::fault::FaultPlan::seeded(3)
            .with_spec(
                28,
                crate::fault::SiloFaultSpec {
                    crash_after: Some(0),
                    ..Default::default()
                },
            )
            .injector_for(28, Arc::new(AtomicBool::new(true)));
        let (chan, handle) =
            spawn_silo(test_silo(28, 10), Arc::clone(&stats), None, injector).expect("spawn silo");
        let pending = chan.begin_call(&Request::Ping).unwrap();
        let start = Instant::now();
        assert_eq!(
            pending.wait().expect_err("worker crashed"),
            TransportError::Disconnected { silo: 28 }
        );
        // Woken by the sweep, not by a poll slice or timeout.
        assert!(start.elapsed() < Duration::from_secs(2));
        handle.join().expect("worker exited by crashing");
    }

    #[test]
    fn dropped_messages_are_reaped_by_the_deadline() {
        use std::sync::atomic::AtomicBool;
        let stats = Arc::new(CommCounters::default());
        let injector = crate::fault::FaultPlan::seeded(3)
            .with_spec(
                24,
                crate::fault::SiloFaultSpec {
                    drop_prob: 1.0,
                    ..Default::default()
                },
            )
            .injector_for(24, Arc::new(AtomicBool::new(true)));
        let (chan, _handle) =
            spawn_silo(test_silo(24, 10), Arc::clone(&stats), None, injector).expect("spawn silo");
        let pending = chan
            .begin_call_with(
                &Request::Ping,
                Some(Instant::now() + Duration::from_millis(10)),
            )
            .unwrap();
        assert_eq!(
            pending.wait().expect_err("dropped"),
            TransportError::DeadlineExceeded { silo: 24 }
        );
    }

    #[test]
    fn poll_deadline_keeps_the_call_alive() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) = spawn_silo(
            test_silo(25, 10),
            Arc::clone(&stats),
            None,
            slow_injector(25, Duration::from_millis(40)),
        )
        .expect("spawn silo");
        let pending = chan.begin_call(&Request::Ping).unwrap();
        let pending = match pending.poll_deadline(Instant::now() + Duration::from_millis(2)) {
            Poll::Pending(p) => p,
            Poll::Ready(r) => panic!("slow call answered early: {r:?}"),
        };
        assert_eq!(pending.silo(), 25);
        match pending.poll_deadline(Instant::now() + Duration::from_secs(5)) {
            Poll::Ready(Ok(Response::Pong)) => {}
            other => panic!("expected pong, got {other:?}"),
        }
        assert_eq!(stats.snapshot().rounds, 1);
    }

    #[test]
    fn race_calls_first_answer_wins() {
        let stats = Arc::new(CommCounters::default());
        let (slow, _h1) = spawn_silo(
            test_silo(26, 10),
            Arc::clone(&stats),
            None,
            slow_injector(26, Duration::from_millis(80)),
        )
        .expect("spawn silo");
        let (fast, _h2) =
            spawn_silo(test_silo(27, 10), Arc::clone(&stats), None, None).expect("spawn silo");
        let primary = slow.begin_call(&Request::Ping).unwrap();
        let hedge = fast.begin_call(&Request::Ping).unwrap();
        match race_calls(primary, hedge, Instant::now() + Duration::from_secs(5)) {
            RaceWinner::Hedge(Ok(Response::Pong)) => {}
            other => panic!("expected the fast hedge to win, got {other:?}"),
        }
        // Race two slow calls into a tight deadline: both lose.
        let primary = slow.begin_call(&Request::Ping).unwrap();
        let hedge = slow.begin_call(&Request::Ping).unwrap();
        match race_calls(primary, hedge, Instant::now() + Duration::from_millis(5)) {
            RaceWinner::Timeout => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn call_policy_backoff_is_capped_and_deterministic() {
        let policy = CallPolicy {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
            ..Default::default()
        };
        assert_eq!(policy.backoff(1, 3), policy.backoff(1, 3));
        assert!(policy.backoff(1, 1) >= Duration::from_millis(2));
        // Capped: even huge attempt counts stay under cap + jitter.
        assert!(policy.backoff(1, 30) < Duration::from_millis(12));
        let zero = CallPolicy {
            backoff_base: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(zero.backoff(0, 5), Duration::ZERO);
    }
}
