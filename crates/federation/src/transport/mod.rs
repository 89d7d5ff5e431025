//! Byte-counted transport between the provider and its silos.
//!
//! The provider talks to every silo through a [`SiloChannel`], a thin
//! handle over a pluggable [`Transport`] backend. Two backends ship:
//!
//! * **in-memory** ([`spawn_silo`]): the silo runs on its own OS thread
//!   and receives length-delimited byte buffers over an `mpsc` channel.
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
//! One in-flight handle rides on top of the basic RPC: every frame —
//! [`SiloChannel::begin_frame`] for riders tagged with caller correlation
//! ids, [`SiloChannel::begin_encoded`] for a pre-encoded broadcast frame —
//! comes back as a [`PendingFrame`], resolved by [`PendingFrame::wait`] or
//! polled with [`PendingFrame::wait_until`]. Begin a frame on every
//! relevant channel, then wait: the silo workers *are* the fan-out pool, no
//! provider threads needed. `n` same-silo riders share one wire frame,
//! paying the per-message envelope overhead once per direction instead of
//! `n` times — and a frame with **one** rider travels as the bare
//! [`Request`], answered by a bare [`Response`], so a lone query costs
//! exactly its own bytes. That wire rule is decided here, once (encode in
//! `begin_frame`, decode in `decode_frame`).

pub mod chaos;
pub mod socket;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::fault::{FaultAction, SiloFaultInjector};
use crate::protocol::{decode_riders, encode_batch_request, Request, Response, Riders};
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

/// What a [`ReplySlot`] guards.
struct SlotCell {
    state: SlotState,
    /// The waiter is parked on the condvar.
    parked: bool,
    /// The waiter is asked to stop parking and read its connection itself
    /// (the socket backend's reader hand-off, see [`ReplySlot::nudge`]).
    nudged: bool,
}

impl SlotCell {
    /// Takes a resolved outcome, leaving `Dead` in place (the backend stays
    /// gone) and clearing a nudge the outcome made moot.
    fn take(&mut self) -> Option<RecvOutcome> {
        let outcome = match std::mem::replace(&mut self.state, SlotState::Empty) {
            SlotState::Full(bytes) => RecvOutcome::Bytes(bytes),
            SlotState::Failed(error) => RecvOutcome::Failed(error),
            SlotState::Dead => {
                self.state = SlotState::Dead;
                RecvOutcome::Dead
            }
            SlotState::Empty => return None,
        };
        self.nudged = false;
        Some(outcome)
    }
}

/// A reusable parked-wait oneshot: the transport backend fills it, the
/// caller sleeps on the condvar until the reply lands, the deadline
/// passes, or the backend marks the slot failed/dead.
///
/// Resolving the slot wakes the waiter only when it is parked: a caller
/// that reads its own reply off a socket, or finds it already delivered,
/// costs the resolver no wake-up call.
pub struct ReplySlot {
    cell: Mutex<SlotCell>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Self {
        ReplySlot {
            cell: Mutex::new(SlotCell {
                state: SlotState::Empty,
                parked: false,
                nudged: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotCell> {
        self.cell.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves an empty slot with `state` and wakes a parked waiter; a
    /// slot already resolved keeps its outcome.
    fn resolve(&self, state: SlotState) {
        let mut cell = self.lock();
        if matches!(cell.state, SlotState::Empty) {
            cell.state = state;
            let wake = cell.parked;
            drop(cell);
            if wake {
                self.cv.notify_one();
            }
        }
    }

    /// Delivers the reply bytes and wakes the waiter. A slot abandoned by
    /// its caller (deadline miss) is simply filled with nobody listening;
    /// it was discarded from the pool, so the stale bytes are dropped with
    /// the last `Arc` reference.
    pub fn fill(&self, bytes: Bytes) {
        self.resolve(SlotState::Full(bytes));
    }

    /// Marks the backend as gone and wakes the waiter; a reply that
    /// already landed wins (backends always deliver *before* they give
    /// up on a connection, so a full slot is a served call regardless of
    /// the backend's fate afterwards). The waiter observes this as
    /// [`TransportError::Disconnected`].
    pub fn mark_dead(&self) {
        self.resolve(SlotState::Dead);
    }

    /// Fails the in-flight call with a backend-attributed error (e.g. a
    /// socket reset that a reconnect may cure surfaces as a retryable
    /// [`TransportError::Transient`]) and wakes the waiter. A reply that
    /// already landed wins.
    pub fn fail(&self, error: TransportError) {
        self.resolve(SlotState::Failed(error));
    }

    /// The outcome, if the slot is resolved; never parks.
    fn poll(&self) -> Option<RecvOutcome> {
        self.lock().take()
    }

    /// Whether the slot holds an outcome.
    fn is_resolved(&self) -> bool {
        !matches!(self.lock().state, SlotState::Empty)
    }

    /// Asks the waiter of an unresolved slot to stop parking: its
    /// [`ReplySlot::park`] returns `None`. The request sticks until the
    /// waiter sees it, so a nudge sent before the waiter parks is not lost.
    /// Returns whether the slot was unresolved (and so nudged).
    fn nudge(&self) -> bool {
        let mut cell = self.lock();
        if !matches!(cell.state, SlotState::Empty) {
            return false;
        }
        cell.nudged = true;
        let wake = cell.parked;
        drop(cell);
        if wake {
            self.cv.notify_one();
        }
        true
    }

    /// Parks until the slot is resolved, `deadline` passes, or the waiter
    /// is nudged (`None`) — whichever comes first. A reply that raced the
    /// deadline onto the slot still wins (the state is checked before the
    /// timeout verdict).
    fn park(&self, deadline: Option<Instant>) -> Option<RecvOutcome> {
        let mut cell = self.lock();
        loop {
            if let Some(outcome) = cell.take() {
                return Some(outcome);
            }
            if std::mem::take(&mut cell.nudged) {
                return None;
            }
            let timeout = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Some(RecvOutcome::TimedOut);
                    }
                    Some(d - now)
                }
                None => None,
            };
            cell.parked = true;
            cell = match timeout {
                Some(timeout) => {
                    let parked = self.cv.wait_timeout(cell, timeout);
                    parked.unwrap_or_else(PoisonError::into_inner).0
                }
                None => self.cv.wait(cell).unwrap_or_else(PoisonError::into_inner),
            };
            cell.parked = false;
        }
    }

    /// Parks until the slot is filled, the backend dies, or `deadline`
    /// passes; a nudge is not a reason to stop waiting here.
    fn wait(&self, deadline: Option<Instant>) -> RecvOutcome {
        loop {
            if let Some(outcome) = self.park(deadline) {
                return outcome;
            }
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
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| Arc::new(ReplySlot::new()))
    }

    fn restore(&self, slot: Arc<ReplySlot>) {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(slot);
    }
}

/// The in-flight table both backends keep: token → the reply slot of a
/// call still out, tagged with the connection generation it was sent on
/// (the in-memory backend has one, generation 0; the socket client's
/// tokens are its frames' correlation ids). A call leaves the table when
/// its reply is handed over or its caller retires it. A lost connection
/// sweeps the calls of its generation and a worker exit sweeps them all,
/// which is what wakes waiters that would otherwise sleep forever on a
/// reply that can no longer come.
#[derive(Default)]
pub(crate) struct Inflight {
    calls: Mutex<InflightCalls>,
}

#[derive(Default)]
struct InflightCalls {
    next_token: u64,
    slots: HashMap<u64, (u64, Arc<ReplySlot>)>,
}

impl Inflight {
    /// Enters a call sent on generation `gen`; returns its token.
    pub(crate) fn register(&self, gen: u64, slot: &Arc<ReplySlot>) -> u64 {
        let mut calls = self.calls.lock().unwrap_or_else(PoisonError::into_inner);
        let token = calls.next_token;
        calls.next_token = token.wrapping_add(1);
        calls.slots.insert(token, (gen, Arc::clone(slot)));
        token
    }

    /// Takes call `token` out of the table: its slot, if it was still in.
    pub(crate) fn retire(&self, token: u64) -> Option<Arc<ReplySlot>> {
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .slots
            .remove(&token)
            .map(|(_, slot)| slot)
    }

    /// The generation call `token` was sent on, while it is in the table.
    pub(crate) fn generation(&self, token: u64) -> Option<u64> {
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .slots
            .get(&token)
            .map(|(gen, _)| *gen)
    }

    /// Takes out every call sent on a generation ≤ `up_to` and fails it
    /// with `error`, or marks it dead when there is none (the peer is gone
    /// for good; a worker exit sweeps up to `u64::MAX`). The slots are
    /// resolved outside the table's lock, so no slot lock is ever taken
    /// while the table is held.
    pub(crate) fn sweep(&self, up_to: u64, error: Option<TransportError>) {
        let swept: Vec<Arc<ReplySlot>> = self
            .calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .slots
            .extract_if(|_, (gen, _)| *gen <= up_to)
            .map(|(_, (_, slot))| slot)
            .collect();
        for slot in swept {
            match &error {
                Some(error) => slot.fail(error.clone()),
                None => slot.mark_dead(),
            }
        }
    }

    /// Number of calls in the table.
    pub(crate) fn len(&self) -> usize {
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .slots
            .len()
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

/// Timing policy for silo calls: the per-attempt deadline and the
/// hedging threshold. A transient refusal is retried on the same silo up
/// to [`CallPolicy::RETRIES`] times, sleeping [`CallPolicy::backoff`]
/// before each retry.
///
/// The federation carries one policy (see
/// [`crate::FederationBuilder::call_policy`]); the default disables
/// deadlines and hedging.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CallPolicy {
    /// Per-attempt RPC deadline (`None`: wait forever).
    pub deadline: Option<Duration>,
    /// Fire a hedge request at a second silo if the first has not
    /// answered within this threshold (`None`: never hedge).
    pub hedge_after: Option<Duration>,
}

impl CallPolicy {
    /// Same-silo retries after a [`TransportError::Transient`].
    pub const RETRIES: u32 = 2;

    /// Backoff before retry number `attempt` (1-based) of a call to
    /// `silo`: the transport's shared `backoff` with salt 0 — capped
    /// exponential from 2 ms to 50 ms plus deterministic jitter below
    /// 2 ms, no RNG and no clock.
    pub fn backoff(&self, silo: SiloId, attempt: u32) -> Duration {
        backoff(silo, attempt, 0)
    }
}

/// First sleep of a retry or reconnect backoff; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(2);

/// Ceiling of the exponential part of a backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// The one backoff shared by call retries ([`CallPolicy::backoff`]) and
/// socket reconnects (salted with `socket::RECONNECT_SEED`): before attempt
/// `attempt` (1-based), [`BACKOFF_BASE`] doubled per attempt up to
/// [`BACKOFF_CAP`], plus jitter in `[0, BACKOFF_BASE)` from a SplitMix64
/// hash of `(silo, attempt)` xor `salt`. No RNG and no clock, so chaos runs
/// stay reproducible while retry and reconnect storms decorrelate across
/// silos; distinct salts keep the two schedules apart.
pub(crate) fn backoff(silo: SiloId, attempt: u32, salt: u64) -> Duration {
    let exp = BACKOFF_BASE.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let mut z = (silo as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(attempt as u64)
        ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    exp.min(BACKOFF_CAP) + Duration::from_nanos((z ^ (z >> 31)) % BACKOFF_BASE.as_nanos() as u64)
}

/// Resolution of an in-flight frame polled with a timeout: either the
/// decoded outcome, or the still-pending handle to poll again later.
#[derive(Debug)]
pub enum Poll<P, T> {
    /// The reply arrived (or the worker disconnected).
    Ready(T),
    /// Nothing yet; the frame stays in flight.
    Pending(P),
}

/// Diagnostics a [`Transport`] backend exposes about the silo behind it.
/// For an **in-process** silo these are the silo's own shared handles (so
/// `served()`, `set_failed()` and `metrics()` read and steer the silo
/// itself, whichever backend carries its frames); for a **remote** silo
/// they are client-local stand-ins (`served()` counts drained replies,
/// `set_failed()` is client-side bookkeeping the remote process never
/// sees).
pub struct SiloDiagnostics {
    backend: &'static str,
    served: Arc<AtomicU64>,
    /// `served` is this client's own count of drained replies.
    remote: bool,
    failed: Arc<AtomicBool>,
    metrics: Arc<fedra_obs::MetricsRegistry>,
}

impl SiloDiagnostics {
    /// Shares the diagnostics of an in-process [`Silo`].
    pub(crate) fn shared_with(silo: &Silo) -> SiloDiagnostics {
        SiloDiagnostics {
            backend: "memory",
            served: silo.served_counter(),
            remote: false,
            failed: silo.failure_flag(),
            metrics: silo.metrics(),
        }
    }

    /// Client-local diagnostics for a genuinely remote silo.
    pub(crate) fn remote() -> SiloDiagnostics {
        SiloDiagnostics {
            backend: "socket",
            served: Arc::new(AtomicU64::new(0)),
            remote: true,
            failed: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(fedra_obs::MetricsRegistry::new()),
        }
    }

    /// A short stable backend label (`"memory"`, `"socket"`).
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Number of logical requests the silo has served (for a remote silo:
    /// the replies this client drained).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Counts one reply drained off the wire — a remote silo's stand-in
    /// for the served counter an in-process silo keeps itself.
    fn reply_drained(&self) {
        if self.remote {
            self.served.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Injects (or clears) a failure: while set, the silo answers every
    /// request with an error.
    pub fn set_failed(&self, failed: bool) {
        self.failed.store(failed, Ordering::Release);
    }

    /// Whether the failure flag is set.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// The silo's metrics registry (a client-local registry of transport
    /// metrics for a remote silo).
    pub fn metrics(&self) -> &Arc<fedra_obs::MetricsRegistry> {
        &self.metrics
    }
}

/// A backend that can carry one silo's frames: ship an already-encoded
/// request and deliver the reply into a [`ReplySlot`].
///
/// [`SiloChannel`] is a thin handle over an `Arc<dyn Transport>`: the
/// send/wait split, reply-slot pooling, deadline enforcement on the wait
/// side, and [`CommCounters`] byte accounting all live *above* this
/// boundary and are shared by every backend. A backend only moves bytes:
///
/// * the **in-memory** backend hands frames to a per-silo worker thread
///   over an `mpsc` channel ([`spawn_silo`]);
/// * the **socket** backend writes length-prefixed frames to a TCP or
///   Unix-domain stream and pairs replies back by correlation id
///   ([`socket::SocketTransport`]); with no thread of its own, it also
///   overrides [`Transport::wait_reply`] so the waiting caller reads the
///   reply off the stream.
///
/// The deadline passed to [`Transport::send_frame`] is control metadata,
/// not wire bytes (the socket backend encodes it into the frame *header*,
/// never the payload): it lets the remote side shed requests whose caller
/// has already given up, exactly like the in-memory worker does.
pub trait Transport: Send + Sync {
    /// Which silo this backend reaches.
    fn silo(&self) -> SiloId;

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

    /// Number of calls currently in flight (tests use this to pin eager
    /// deregistration).
    fn inflight_len(&self) -> usize;

    /// The served counter, failure flag, metrics registry and backend
    /// label of the silo behind this backend.
    fn diagnostics(&self) -> &SiloDiagnostics;

    /// Waits until `slot` — the slot of in-flight call `token` — resolves
    /// or `deadline` passes. A deadline already past still reports an
    /// outcome the backend can reach without blocking. The default parks
    /// on the slot, for backends that resolve slots on their own threads;
    /// the socket backend has the waiter read its connection instead.
    fn wait_reply(
        &self,
        token: u64,
        slot: &Arc<ReplySlot>,
        deadline: Option<Instant>,
    ) -> RecvOutcome {
        let _ = token;
        slot.wait(deadline)
    }
}

/// How a reply wait ended (see [`Transport::wait_reply`]).
#[derive(Debug)]
pub enum RecvOutcome {
    /// The reply frame arrived.
    Bytes(Bytes),
    /// The wait's deadline passed with the call still in flight.
    TimedOut,
    /// The backend failed the call with an attributed error.
    Failed(TransportError),
    /// The backend is gone and no reply is queued.
    Dead,
}

/// One rider's outcome: its response, or the error the silo refused it
/// with.
pub type Reply = Result<Response, TransportError>;

/// A resolved frame: the outer `Result` is frame-level (worker gone,
/// undecodable reply, wrong arity, deadline miss, or a bare refusal in
/// place of the frame's answer — every rider failed the same way); the
/// inner `Vec` pairs each rider's correlation id with its own outcome, in
/// request order. One bad rider never poisons its frame-mates.
pub type FrameReplies = Result<Vec<(u64, Reply)>, TransportError>;

/// A frame in flight: the request has been handed to the transport
/// backend, the reply has not been drained yet.
///
/// This is the primitive that turns the silo backends into a fan-out
/// pool: the provider begins a frame on every relevant channel *without
/// blocking*, then waits on each pending reply. No provider-side threads
/// are needed for parallel fan-out — the per-silo backends already
/// provide the concurrency.
///
/// The riders' correlation ids never travel. The batch protocol already
/// guarantees reply order equals request order, so the ids are
/// provider-side bookkeeping zipped back onto the positional replies —
/// which is what lets a scheduler coalesce outstanding requests from
/// unrelated queries into one frame per silo and still route every reply
/// to the query that asked.
pub struct PendingFrame {
    silo: SiloId,
    up: usize,
    /// The riders' correlation ids, in request order.
    tags: Vec<u64>,
    slot: Arc<ReplySlot>,
    token: u64,
    backend: Arc<dyn Transport>,
    pool: Arc<ReplyPool>,
    stats: Arc<CommCounters>,
    deadline: Option<Instant>,
}

/// Maps the refusal payloads to their transport errors, so callers can't
/// mistake a refusal for an answer.
fn refused(silo: SiloId, response: Response) -> Reply {
    match response {
        Response::Error(message) => Err(TransportError::Remote { silo, message }),
        Response::Transient(message) => Err(TransportError::Transient { silo, message }),
        Response::DeadlineExceeded { .. } => Err(TransportError::DeadlineExceeded { silo }),
        response => Ok(response),
    }
}

/// Decodes a reply frame for the riders `tags`. The decode half of the
/// one-rider wire rule: a lone rider's frame is answered by its bare
/// [`Response`], whose refusal fails the frame; several riders are
/// answered by a `Response::Batch` of the same arity, each item refused
/// or answered on its own. Anything else in place of the batch — the
/// worker could not decode the request, the fault injector refused the
/// frame, the deadline shed it — is a frame-level error.
fn decode_frame(silo: SiloId, tags: Vec<u64>, bytes: Bytes) -> FrameReplies {
    let response =
        Response::from_bytes(bytes).map_err(|error| TransportError::Codec { silo, error })?;
    if let [tag] = tags[..] {
        return refused(silo, response).map(|response| vec![(tag, Ok(response))]);
    }
    match response {
        Response::Batch(items) if items.len() == tags.len() => Ok(tags
            .into_iter()
            .zip(items.into_iter().map(|item| refused(silo, item)))
            .collect()),
        Response::Batch(items) => Err(TransportError::Codec {
            silo,
            error: WireError::BadLength {
                context: "batch response arity",
                len: items.len(),
            },
        }),
        other => Err(match refused(silo, other) {
            Err(refusal) => refusal,
            Ok(other) => TransportError::Remote {
                silo,
                message: format!("expected batch response, got {other:?}"),
            },
        }),
    }
}

impl PendingFrame {
    /// Which silo this frame is in flight to.
    pub fn silo(&self) -> SiloId {
        self.silo
    }

    /// Ends the wait: records the round's traffic and returns the slot to
    /// the pool when the reply arrived, then decodes it. On a deadline
    /// miss or backend failure the slot is *discarded* instead of pooled —
    /// the backend may still push a stale reply into it later. Dropping
    /// the handle retires the in-flight token on every path.
    fn finish(mut self, outcome: RecvOutcome) -> FrameReplies {
        match outcome {
            RecvOutcome::Bytes(bytes) => {
                self.stats.record(self.up, bytes.len());
                self.pool.restore(Arc::clone(&self.slot));
                decode_frame(self.silo, std::mem::take(&mut self.tags), bytes)
            }
            RecvOutcome::TimedOut => Err(TransportError::DeadlineExceeded { silo: self.silo }),
            RecvOutcome::Failed(error) => Err(error),
            RecvOutcome::Dead => Err(TransportError::Disconnected { silo: self.silo }),
        }
    }

    /// Blocks for the frame's reply, recording the traffic. When the frame
    /// was begun with a deadline, waiting past it yields
    /// [`TransportError::DeadlineExceeded`].
    pub fn wait(self) -> FrameReplies {
        let outcome = self
            .backend
            .wait_reply(self.token, &self.slot, self.deadline);
        self.finish(outcome)
    }

    /// [`PendingFrame::wait`] for a frame begun with one rider: its reply.
    pub fn wait_one(self) -> Reply {
        let silo = self.silo;
        match self.wait()?.pop() {
            Some((_, reply)) => reply,
            None => Err(TransportError::Codec {
                silo,
                error: WireError::BadLength {
                    context: "reply to a one-rider frame",
                    len: 0,
                },
            }),
        }
    }

    /// Waits until `until` (whatever deadline the frame was begun with);
    /// a timeout returns the still-pending frame instead of an error, so
    /// the caller can hedge its riders elsewhere and poll this handle
    /// again later (first answer wins).
    pub fn wait_until(self, until: Instant) -> Poll<PendingFrame, FrameReplies> {
        match self.backend.wait_reply(self.token, &self.slot, Some(until)) {
            RecvOutcome::TimedOut => Poll::Pending(self),
            outcome => Poll::Ready(self.finish(outcome)),
        }
    }
}

/// An abandoned frame (a hedge's loser, a wait given up at its bound)
/// deregisters eagerly, like a resolved one.
impl Drop for PendingFrame {
    fn drop(&mut self) {
        self.backend.retire(self.token);
    }
}

impl std::fmt::Debug for PendingFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingFrame")
            .field("silo", &self.silo)
            .field("tags", &self.tags)
            .finish()
    }
}

/// The in-memory [`Transport`] backend: frames travel to a per-silo OS
/// worker thread over an `mpsc` channel ([`spawn_silo`]). This is the
/// deterministic tier-1 default.
pub(crate) struct InMemoryTransport {
    silo: SiloId,
    tx: Sender<Envelope>,
    inflight: Arc<Inflight>,
    diagnostics: SiloDiagnostics,
    worker_alive: Arc<AtomicBool>,
}

impl Transport for InMemoryTransport {
    fn silo(&self) -> SiloId {
        self.silo
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
        let token = self.inflight.register(0, slot);
        if self
            .tx
            .send(Envelope {
                request: frame,
                reply: Arc::clone(slot),
                deadline,
            })
            .is_err()
        {
            self.inflight.retire(token);
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
        self.inflight.retire(token);
    }

    fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    fn diagnostics(&self) -> &SiloDiagnostics {
        &self.diagnostics
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

    /// Ships an already-encoded frame carrying the riders `tags` to the
    /// backend and returns the in-flight handle. The deadline rides as
    /// frame metadata (the silo sheds expired requests) and bounds
    /// [`PendingFrame::wait`].
    fn send_frame(
        &self,
        frame: Bytes,
        tags: Vec<u64>,
        deadline: Option<Instant>,
    ) -> Result<PendingFrame, TransportError> {
        let up = frame.len();
        let slot = self.reply_pool.checkout();
        let token = match self.backend.send_frame(frame, deadline, &slot) {
            Ok(token) => token,
            Err(e) => {
                self.reply_pool.restore(slot);
                return Err(e);
            }
        };
        Ok(PendingFrame {
            silo: self.backend.silo(),
            up,
            tags,
            slot,
            token,
            backend: Arc::clone(&self.backend),
            pool: Arc::clone(&self.reply_pool),
            stats: Arc::clone(&self.stats),
            deadline,
        })
    }

    /// Starts one wire frame carrying `riders` — each request paired with
    /// a caller correlation id that [`PendingFrame::wait`] pairs back onto
    /// its reply — without blocking for the reply.
    ///
    /// Begin on several channels, then wait on each: the silo workers
    /// execute concurrently, giving fan-out parallelism with zero
    /// provider-side threads. The whole frame pays the per-message
    /// envelope overhead *once* per direction. The encode half of the
    /// one-rider wire rule lives here: a lone rider travels as its bare
    /// [`Request`], several as one `Request::Batch`.
    pub fn begin_frame(
        &self,
        riders: &[(u64, &Request)],
        deadline: Option<Instant>,
    ) -> Result<PendingFrame, TransportError> {
        let frame = match riders {
            [(_, request)] => request.to_bytes(),
            _ => {
                let requests: Vec<&Request> = riders.iter().map(|(_, r)| *r).collect();
                encode_batch_request(&requests)
            }
        };
        let tags = riders.iter().map(|(tag, _)| *tag).collect();
        self.send_frame(frame, tags, deadline)
    }

    /// Starts a one-rider frame from a pre-encoded request (O(1) to clone
    /// — use for broadcasting one frame to many silos without
    /// re-encoding).
    pub fn begin_encoded(&self, frame: Bytes) -> Result<PendingFrame, TransportError> {
        self.send_frame(frame, vec![0], None)
    }

    /// Sends a request and waits for the response, recording the traffic.
    ///
    /// `Response::Error` payloads are mapped to
    /// [`TransportError::Remote`] (and the transient/deadline refusals to
    /// their dedicated variants) so callers can't mistake a refusal for an
    /// answer.
    pub fn call(&self, request: &Request) -> Reply {
        self.begin_frame(&[(0, request)], None)?.wait_one()
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
    /// byte-counted wire path. See [`SiloDiagnostics::metrics`].
    pub fn silo_metrics(&self) -> &Arc<fedra_obs::MetricsRegistry> {
        self.backend.diagnostics().metrics()
    }

    /// Number of logical requests the silo has served so far
    /// ([`SiloDiagnostics::served`]).
    pub fn served(&self) -> u64 {
        self.backend.diagnostics().served()
    }

    /// Injects (or clears) a failure: while set, the silo answers every
    /// request with an error. For a genuinely remote silo this flag is
    /// client-local bookkeeping only (the remote process keeps its own).
    pub fn set_failed(&self, failed: bool) {
        self.backend.diagnostics().set_failed(failed);
    }

    /// Whether the failure flag is set.
    pub fn is_failed(&self) -> bool {
        self.backend.diagnostics().is_failed()
    }
}

impl std::fmt::Debug for SiloChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiloChannel")
            .field("id", &self.id())
            .field("backend", &self.backend.diagnostics().backend())
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
    /// One action is drawn per frame; the lock is held for the draw only.
    pub(crate) faults: Mutex<Option<SiloFaultInjector>>,
    /// Where the setup spec and retained grid are persisted after every
    /// served `BuildGrid` (`fedra-silo serve --snapshot-dir`; `None` in
    /// process).
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
    /// The serve step: fault action → deadline shed → decode → handle →
    /// encode, in that order, for one received frame. A batch item out
    /// of the served domain fails alone ([`decode_riders`]).
    pub(crate) fn serve(&self, payload: Bytes, deadline: Option<Instant>) -> Served {
        let action = self
            .faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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
        let response = match decode_riders(payload) {
            Ok(riders) => {
                let snapshot_to = self.snapshot_path.as_ref().filter(|_| builds_grid(&riders));
                let response = match riders {
                    Riders::Lone(request) => self.silo.handle(request),
                    Riders::Batch(items) => self.silo.handle_batch(items),
                };
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

/// Whether serving `riders` (re)builds the silo's retained grid — the
/// state worth snapshotting afterwards.
fn builds_grid(riders: &Riders) -> bool {
    let builds = |request: &Request| matches!(request, Request::BuildGrid { .. });
    match riders {
        Riders::Lone(request) => builds(request),
        Riders::Batch(items) => items.iter().flatten().any(builds),
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
    faults: Option<SiloFaultInjector>,
) -> Result<(SiloChannel, JoinHandle<()>), TransportError> {
    let (tx, rx) = mpsc::channel::<Envelope>();
    let id = silo.id();
    let diagnostics = SiloDiagnostics::shared_with(&silo);
    let worker_alive = Arc::new(AtomicBool::new(true));
    let inflight = Arc::new(Inflight::default());
    let alive_guard = AliveGuard {
        alive: Arc::clone(&worker_alive),
        inflight: Arc::clone(&inflight),
    };
    let server = SiloServer {
        silo,
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
        inflight,
        diagnostics,
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
    /// `mpsc` channel to a worker thread in this process (default).
    #[default]
    InMemory,
    /// Loopback TCP socket to a server thread in this process.
    Socket,
}

impl TransportBackend {
    /// The backend `FEDRA_TRANSPORT` selects: unset ⇒ in-memory, `memory`
    /// | `socket` by name. Any other value is returned as the error — a
    /// typo must fail the build rather than quietly run the default
    /// backend and pass.
    pub fn from_env() -> Result<TransportBackend, String> {
        Self::from_setting(std::env::var("FEDRA_TRANSPORT").ok().as_deref())
    }

    /// [`TransportBackend::from_env`] for the value `value`.
    fn from_setting(value: Option<&str>) -> Result<TransportBackend, String> {
        match value {
            None => Ok(TransportBackend::InMemory),
            Some(v) if v.eq_ignore_ascii_case("memory") => Ok(TransportBackend::InMemory),
            Some(v) if v.eq_ignore_ascii_case("socket") => Ok(TransportBackend::Socket),
            Some(v) => Err(v.to_string()),
        }
    }
}

/// Guard owned by the silo worker thread whose `Drop` marks the worker as
/// gone and wakes every parked caller, no matter how the thread exits:
/// it clears the liveness flag, then sweeps the in-flight table so
/// waiters see `Dead` instead of sleeping forever.
struct AliveGuard {
    alive: Arc<AtomicBool>,
    inflight: Arc<Inflight>,
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Release);
        self.inflight.sweep(u64::MAX, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LocalMode;
    use fedra_geo::{Point, Range, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;

    fn test_silo(id: SiloId, n: usize) -> Silo {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let objects: Vec<SpatialObject> = (0..n)
            .map(|i| SpatialObject::at((i % 10) as f64 + 0.5, (i / 10 % 10) as f64 + 0.5, 1.0))
            .collect();
        let silo = Silo::new(id, objects, 0);
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

    #[test]
    fn call_round_trips_through_the_thread() {
        let stats = Arc::new(CommCounters::default());
        let (chan, handle) =
            spawn_silo(test_silo(0, 100), Arc::clone(&stats), None).expect("spawn silo");
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
            spawn_silo(test_silo(1, 100), Arc::clone(&stats), None).expect("spawn silo");
        let q = Range::circle(Point::new(5.0, 5.0), 2.0);
        let aggregate = Request::Aggregate {
            range: q,
            mode: LocalMode::Exact,
        };
        let before = stats.snapshot();
        chan.call(&aggregate).expect("aggregate");
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.rounds, 1);
        // Request: tag + range(25) + mode(1) = 27. Response: tag + the
        // aggregate's presence byte + count, sum, sum_sqr: the circle
        // holds 12 objects of measure 1 (4 at 0.71 km, 8 at 1.58 km from
        // the centre), so each moment is the whole number 12, a one-byte
        // varint: 1 + 1 + 3 = 5.
        assert_eq!(delta.bytes_up, 27);
        assert_eq!(delta.bytes_down, 5);

        let before = stats.snapshot();
        chan.call(&Request::Masked {
            moments: fedra_index::Moments::COUNT,
            request: Box::new(aggregate),
        })
        .expect("masked aggregate");
        let delta = stats.snapshot().since(&before);
        // Request: Masked tag + mask byte + the 27 above = 29. Response:
        // tag + presence byte + the count's one-byte varint = 3.
        assert_eq!(delta.bytes_up, 29);
        assert_eq!(delta.bytes_down, 3);
    }

    #[test]
    fn default_overhead_is_charged_per_message() {
        let stats = Arc::new(CommCounters::default());
        assert_eq!(stats.overhead(), DEFAULT_MESSAGE_OVERHEAD);
        let (chan, _handle) =
            spawn_silo(test_silo(7, 10), Arc::clone(&stats), None).expect("spawn silo");
        chan.call(&Request::Ping).unwrap();
        let snap = stats.snapshot();
        assert!(snap.bytes_up > DEFAULT_MESSAGE_OVERHEAD);
        assert!(snap.bytes_down > DEFAULT_MESSAGE_OVERHEAD);
    }

    #[test]
    fn remote_errors_are_surfaced() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(2, 10), Arc::clone(&stats), None).expect("spawn silo");
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
            spawn_silo(test_silo(3, 10), Arc::clone(&stats), None).expect("spawn silo");
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
            spawn_silo(test_silo(4, 200), Arc::clone(&stats), None).expect("spawn silo");
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

    /// A backend that records every frame it is handed and answers it on
    /// the spot with canned reply bytes.
    struct Canned {
        sent: Mutex<Vec<Bytes>>,
        reply: Bytes,
        diagnostics: SiloDiagnostics,
    }

    impl Transport for Canned {
        fn silo(&self) -> SiloId {
            3
        }
        fn send_frame(
            &self,
            frame: Bytes,
            _deadline: Option<Instant>,
            slot: &Arc<ReplySlot>,
        ) -> Result<u64, TransportError> {
            self.sent.lock().unwrap().push(frame);
            slot.fill(self.reply.clone());
            Ok(0)
        }
        fn retire(&self, _token: u64) {}
        fn inflight_len(&self) -> usize {
            0
        }
        fn diagnostics(&self) -> &SiloDiagnostics {
            &self.diagnostics
        }
    }

    fn canned(reply: &Response) -> (Arc<Canned>, SiloChannel) {
        let backend = Arc::new(Canned {
            sent: Mutex::new(Vec::new()),
            reply: reply.to_bytes(),
            diagnostics: SiloDiagnostics::remote(),
        });
        let stats = Arc::new(CommCounters::default());
        (Arc::clone(&backend), SiloChannel::over(backend, stats))
    }

    #[test]
    fn a_one_rider_frame_is_the_bare_request_answered_by_a_bare_response() {
        let agg = Request::Aggregate {
            range: Range::circle(Point::new(5.0, 5.0), 2.0),
            mode: LocalMode::Exact,
        };
        // One rider: the request's own bytes travel, and the bare reply is
        // that rider's answer.
        let (backend, chan) = canned(&Response::Pong);
        let replies = chan.begin_frame(&[(41, &agg)], None).unwrap().wait();
        assert_eq!(replies, Ok(vec![(41, Ok(Response::Pong))]));
        assert_eq!(backend.sent.lock().unwrap()[..], [agg.to_bytes()]);
        // `call` and a pre-encoded frame are the same one-rider frame.
        assert_eq!(chan.call(&agg), Ok(Response::Pong));
        let encoded = chan.begin_encoded(agg.to_bytes()).unwrap();
        assert_eq!(encoded.wait_one(), Ok(Response::Pong));
        assert_eq!(
            backend.sent.lock().unwrap()[..],
            [(); 3].map(|_| agg.to_bytes())
        );
        // A refusal of the one rider is the frame's refusal: one
        // frame-level error, not an answered frame with a failed item.
        let (_, chan) = canned(&Response::Error("unavailable".into()));
        let refused = chan.begin_frame(&[(41, &agg)], None).unwrap().wait();
        assert!(matches!(
            refused,
            Err(TransportError::Remote { silo: 3, .. })
        ));
        // Two riders travel as one batch; a bare refusal in place of the
        // batch reply fails the frame the same way.
        let (backend, chan) = canned(&Response::Transient("flap".into()));
        let riders = [(1, &agg), (2, &Request::Ping)];
        let refused = chan.begin_frame(&riders, None).unwrap().wait();
        assert!(matches!(
            refused,
            Err(TransportError::Transient { silo: 3, .. })
        ));
        let batch = Request::Batch(vec![agg.clone(), Request::Ping]);
        assert_eq!(backend.sent.lock().unwrap()[..], [batch.to_bytes()]);
    }

    #[test]
    fn a_frame_pairs_replies_with_correlation_ids_in_request_order() {
        let stats = Arc::new(CommCounters::with_overhead(0));
        let (chan, _handle) =
            spawn_silo(test_silo(8, 100), Arc::clone(&stats), None).expect("spawn silo");
        let agg = Request::Aggregate {
            range: Range::circle(Point::new(5.0, 5.0), 2.0),
            mode: LocalMode::Exact,
        };
        let exact = chan.call(&agg).unwrap();
        let before = stats.snapshot();
        // A repeated Setup answers the memory report.
        let spec =
            crate::FederationBuilder::new(Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)))
                .histogram_config(MinSkewConfig {
                    resolution: 8,
                    budget: 8,
                })
                .lsr_seed(1)
                .silo_spec(8);
        let riders = [
            (907, &Request::Ping),
            (11, &agg),
            (42, &Request::Setup(spec)),
        ];
        let results = chan
            .begin_frame(&riders, None)
            .expect("begin frame")
            .wait()
            .expect("frame transport");
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], (907, Ok(Response::Pong)));
        assert_eq!(results[1], (11, Ok(exact)));
        assert_eq!(results[2].0, 42);
        assert!(matches!(results[2].1, Ok(Response::Memory(_))));
        // Correlation ids are provider-side bookkeeping: the wire carries
        // the plain batch, in one round.
        let delta = stats.snapshot().since(&before);
        let plain = Request::Batch(vec![Request::Ping, agg.clone(), Request::Setup(spec)]);
        assert_eq!(delta.rounds, 1);
        assert_eq!(delta.bytes_up, plain.to_bytes().len() as u64);
    }

    #[test]
    fn a_frame_shed_at_its_deadline_fails_whole() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(12, 10), Arc::clone(&stats), None).expect("spawn silo");
        // A frame expired before dispatch: the worker sheds it whole, and
        // the refusal still costs a byte-counted round. Waiting with a
        // generous *receive* bound (while the envelope deadline is
        // already past) is what lets the shed response actually arrive.
        let expired = Instant::now() - Duration::from_millis(5);
        let shed = chan
            .begin_frame(&[(1, &Request::Ping), (2, &Request::Ping)], Some(expired))
            .expect("send succeeds; the shed happens silo-side")
            .wait_until(Instant::now() + Duration::from_secs(5));
        assert!(matches!(
            shed,
            Poll::Ready(Err(TransportError::DeadlineExceeded { silo: 12 }))
        ));
        assert_eq!(stats.snapshot().rounds, 1);
    }

    #[test]
    fn a_frame_surfaces_per_rider_errors() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(9, 10), Arc::clone(&stats), None).expect("spawn silo");
        chan.set_failed(true);
        let riders = [
            (0, &Request::Ping),
            (1, &Request::Ping),
            (2, &Request::Ping),
        ];
        let results = chan
            .begin_frame(&riders, None)
            .unwrap()
            .wait()
            .expect("transport still works; the refusals are per rider");
        assert_eq!(results.len(), 3);
        for (_, r) in results {
            assert!(matches!(r, Err(TransportError::Remote { silo: 9, .. })));
        }
        // Failure injection costs one round, not three.
        assert_eq!(stats.snapshot().rounds, 1);
    }

    #[test]
    fn a_frame_amortizes_the_envelope_overhead() {
        // Zero-overhead stats pin the payload arithmetic; the saving shows
        // in rounds (each round costs 2 × overhead under default stats).
        let stats = Arc::new(CommCounters::with_overhead(0));
        let (chan, _handle) =
            spawn_silo(test_silo(11, 100), Arc::clone(&stats), None).expect("spawn silo");
        let q = Range::circle(Point::new(5.0, 5.0), 2.0);
        let agg = Request::Aggregate {
            range: q,
            mode: LocalMode::Exact,
        };
        let before = stats.snapshot();
        let frame = chan.begin_frame(&[(0, &agg), (1, &agg)], None).unwrap();
        frame.wait().unwrap();
        let batched = stats.snapshot().since(&before);
        let before = stats.snapshot();
        chan.call(&agg).unwrap();
        chan.call(&agg).unwrap();
        let singleton = stats.snapshot().since(&before);
        // Payloads: singleton 2 × (27 up, 5 down — tag + presence byte +
        // three moments of 12 as one-byte varints); the shared frame adds
        // a 2-byte header each way (tag + a one-byte varint count) on top
        // of the same items.
        assert_eq!(singleton.bytes_up, 54);
        assert_eq!(singleton.bytes_down, 10);
        assert_eq!(batched.bytes_up, 56);
        assert_eq!(batched.bytes_down, 12);
        assert_eq!(singleton.rounds, 2);
        assert_eq!(batched.rounds, 1);
    }

    #[test]
    fn reply_slots_are_pooled_and_reused() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) =
            spawn_silo(test_silo(12, 10), Arc::clone(&stats), None).expect("spawn silo");
        for _ in 0..10 {
            chan.call(&Request::Ping).unwrap();
        }
        // Sequential calls recycle a single slot.
        assert_eq!(chan.reply_pool.slots.lock().unwrap().len(), 1);
        // Resolved calls deregister eagerly, so the in-flight registry
        // holds nothing between calls.
        assert_eq!(chan.backend.inflight_len(), 0);
        // An abandoned pending frame discards its slot instead of
        // returning a (possibly stale) one to the pool, and deregisters
        // just as eagerly.
        let pending = chan.begin_frame(&[(0, &Request::Ping)], None).unwrap();
        assert_eq!(chan.backend.inflight_len(), 1);
        drop(pending);
        assert!(chan.reply_pool.slots.lock().unwrap().is_empty());
        assert_eq!(chan.backend.inflight_len(), 0);
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
                spawn_silo(
                    test_silo(i, 10),
                    Arc::clone(&stats),
                    slow_injector(i, latency),
                )
                .expect("spawn silo")
                .0
            })
            .collect();
        let start = std::time::Instant::now();
        let pending: Vec<PendingFrame> = channels
            .iter()
            .map(|c| c.begin_frame(&[(0, &Request::Ping)], None).unwrap())
            .collect();
        for p in pending {
            assert_eq!(p.wait_one().unwrap(), Response::Pong);
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
            spawn_silo(test_silo(5, 10), Arc::clone(&stats), None).expect("spawn silo");
        // Simulate a dead worker: clone the channel, drop the original
        // sender... the worker only exits when *all* senders drop, so
        // instead kill it by dropping every channel and joining.
        let chan2 = chan.clone();
        drop(chan);
        drop(chan2);
        handle.join().expect("worker exits");
    }

    fn slow_injector(silo: SiloId, latency: Duration) -> Option<SiloFaultInjector> {
        use std::sync::atomic::AtomicBool;
        crate::fault::FaultPlan::seeded(1)
            .slow_silo(silo, latency)
            .injector_for(silo, Arc::new(AtomicBool::new(true)))
    }

    #[test]
    fn a_wait_past_the_deadline_times_out_and_discards_the_slot() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) = spawn_silo(
            test_silo(20, 10),
            Arc::clone(&stats),
            slow_injector(20, Duration::from_millis(100)),
        )
        .expect("spawn silo");
        let deadline = Instant::now() + Duration::from_millis(5);
        let pending = chan
            .begin_frame(&[(0, &Request::Ping)], Some(deadline))
            .unwrap();
        let err = pending.wait().expect_err("must time out");
        assert_eq!(err, TransportError::DeadlineExceeded { silo: 20 });
        assert!(err.is_deadline());
        assert!(!err.is_retryable());
        // The abandoned slot must not be pooled (its stale reply is still
        // coming), and the call is no longer registered as in flight.
        assert!(chan.reply_pool.slots.lock().unwrap().is_empty());
        assert_eq!(chan.backend.inflight_len(), 0);
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
            slow_injector(21, Duration::from_millis(20)),
        )
        .expect("spawn silo");
        // The deadline expires while the latency sleep runs, so the
        // worker sheds the request; the shed reply still counts a round.
        let deadline = Instant::now() + Duration::from_millis(1);
        let pending = chan
            .begin_frame(&[(0, &Request::Ping)], Some(deadline))
            .unwrap();
        // Wait past the send-time deadline: the shed response itself
        // reports the miss.
        match pending.wait_until(Instant::now() + Duration::from_secs(5)) {
            Poll::Ready(Err(err)) => {
                assert_eq!(err, TransportError::DeadlineExceeded { silo: 21 })
            }
            other => panic!("expected the shed, got {other:?}"),
        }
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
            spawn_silo(test_silo(22, 10), Arc::clone(&stats), injector).expect("spawn silo");
        // period 2, down 1: request 0 serves, request 1 refuses.
        assert_eq!(chan.call(&Request::Ping).unwrap(), Response::Pong);
        let err = chan.call(&Request::Ping).expect_err("flap window");
        assert!(matches!(err, TransportError::Transient { silo: 22, .. }));
        assert!(err.is_retryable());
        // Request 2 lands in the next up window…
        assert_eq!(chan.call(&Request::Ping).unwrap(), Response::Pong);
        // …and a two-rider frame in the following down window fails at
        // frame level.
        let err = chan
            .begin_frame(&[(0, &Request::Ping), (1, &Request::Ping)], None)
            .unwrap()
            .wait()
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
            spawn_silo(test_silo(23, 10), Arc::clone(&stats), injector).expect("spawn silo");
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
            spawn_silo(test_silo(28, 10), Arc::clone(&stats), injector).expect("spawn silo");
        let pending = chan.begin_frame(&[(0, &Request::Ping)], None).unwrap();
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
            spawn_silo(test_silo(24, 10), Arc::clone(&stats), injector).expect("spawn silo");
        let deadline = Instant::now() + Duration::from_millis(10);
        let pending = chan
            .begin_frame(&[(0, &Request::Ping)], Some(deadline))
            .unwrap();
        assert_eq!(
            pending.wait().expect_err("dropped"),
            TransportError::DeadlineExceeded { silo: 24 }
        );
    }

    #[test]
    fn a_timed_out_poll_keeps_the_frame_alive() {
        let stats = Arc::new(CommCounters::default());
        let (chan, _handle) = spawn_silo(
            test_silo(25, 10),
            Arc::clone(&stats),
            slow_injector(25, Duration::from_millis(40)),
        )
        .expect("spawn silo");
        let pending = chan.begin_frame(&[(7, &Request::Ping)], None).unwrap();
        let pending = match pending.wait_until(Instant::now() + Duration::from_millis(2)) {
            Poll::Pending(p) => p,
            Poll::Ready(r) => panic!("slow call answered early: {r:?}"),
        };
        assert_eq!(pending.silo(), 25);
        assert_eq!(chan.backend.inflight_len(), 1);
        match pending.wait_until(Instant::now() + Duration::from_secs(5)) {
            Poll::Ready(Ok(replies)) => assert_eq!(replies, [(7, Ok(Response::Pong))]),
            other => panic!("expected pong, got {other:?}"),
        }
        assert_eq!(stats.snapshot().rounds, 1);
    }

    #[test]
    fn the_first_answer_wins_between_two_pending_frames() {
        let stats = Arc::new(CommCounters::default());
        let (slow, _h1) = spawn_silo(
            test_silo(26, 10),
            Arc::clone(&stats),
            slow_injector(26, Duration::from_millis(80)),
        )
        .expect("spawn silo");
        let (fast, _h2) =
            spawn_silo(test_silo(27, 10), Arc::clone(&stats), None).expect("spawn silo");
        // A primary silent past its hedge threshold stays in flight while
        // the hedge is polled: whichever resolves first is the answer.
        let primary = slow.begin_frame(&[(0, &Request::Ping)], None).unwrap();
        let hedge = fast.begin_frame(&[(0, &Request::Ping)], None).unwrap();
        let primary = match primary.wait_until(Instant::now() + Duration::from_millis(2)) {
            Poll::Pending(p) => p,
            Poll::Ready(r) => panic!("slow primary answered early: {r:?}"),
        };
        match hedge.wait_until(Instant::now() + Duration::from_secs(5)) {
            Poll::Ready(Ok(replies)) => assert_eq!(replies, [(0, Ok(Response::Pong))]),
            other => panic!("expected the fast hedge to win, got {other:?}"),
        }
        // The loser is abandoned: deregistered at once, its slot never
        // pooled (the stale reply is still coming).
        drop(primary);
        assert_eq!(slow.backend.inflight_len(), 0);
        assert!(slow.reply_pool.slots.lock().unwrap().is_empty());
        // Two slow frames into a tight bound: neither answers.
        let bound = Instant::now() + Duration::from_millis(5);
        for frame in [
            slow.begin_frame(&[(0, &Request::Ping)], None).unwrap(),
            slow.begin_frame(&[(0, &Request::Ping)], None).unwrap(),
        ] {
            assert!(matches!(frame.wait_until(bound), Poll::Pending(_)));
        }
    }

    #[test]
    fn the_inflight_table_sweeps_by_generation_and_retires_by_token() {
        let table = Inflight::default();
        let slots: Vec<Arc<ReplySlot>> = (0..4).map(|_| Arc::new(ReplySlot::new())).collect();
        let tokens: Vec<u64> = slots
            .iter()
            .zip([1, 1, 2, 2])
            .map(|(slot, gen)| table.register(gen, slot))
            .collect();
        assert_eq!(table.len(), 4);
        assert_eq!(table.generation(tokens[2]), Some(2));
        // Losing generation 1 fails its two calls with the loss's error
        // and leaves generation 2 alone.
        let lost = TransportError::Transient {
            silo: 4,
            message: "connection lost".into(),
        };
        table.sweep(1, Some(lost.clone()));
        assert_eq!(table.len(), 2);
        for slot in &slots[..2] {
            assert!(matches!(slot.poll(), Some(RecvOutcome::Failed(e)) if e == lost));
        }
        assert!(slots[2..].iter().all(|slot| slot.poll().is_none()));
        assert_eq!(table.generation(tokens[0]), None);
        // Retiring a call takes it out, once; a worker exit marks the
        // rest dead.
        assert!(table.retire(tokens[2]).is_some());
        assert!(table.retire(tokens[2]).is_none());
        table.sweep(u64::MAX, None);
        assert!(matches!(slots[3].poll(), Some(RecvOutcome::Dead)));
        assert!(slots[2].poll().is_none(), "a retired call is not swept");
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn an_unrecognised_transport_setting_is_an_error_not_the_default() {
        use TransportBackend::{InMemory, Socket};
        assert_eq!(TransportBackend::from_setting(None), Ok(InMemory));
        assert_eq!(TransportBackend::from_setting(Some("memory")), Ok(InMemory));
        assert_eq!(TransportBackend::from_setting(Some("Socket")), Ok(Socket));
        // A typo (ci.sh's socket stanza once could have carried one) must
        // not run the in-memory backend and pass.
        assert_eq!(
            TransportBackend::from_setting(Some("sokcet")),
            Err("sokcet".to_string())
        );
        assert_eq!(TransportBackend::from_setting(Some("")), Err(String::new()));
    }

    #[test]
    fn call_and_reconnect_backoffs_keep_their_schedules() {
        // (silo, attempt, call ns, reconnect ns): 2 ms doubling per
        // attempt, capped at 50 ms, plus jitter below 2 ms — the last two
        // rows are capped. Pinned so the shared backoff cannot drift.
        let policy = CallPolicy::default();
        for (silo, attempt, call_ns, reconnect_ns) in [
            (0, 1, 2_578_789, 2_169_984),
            (1, 1, 2_822_465, 3_836_947),
            (1, 2, 4_348_110, 5_039_582),
            (2, 3, 9_111_561, 8_866_681),
            (3, 4, 16_977_247, 17_732_018),
            (5, 5, 33_883_461, 32_494_758),
            (7, 6, 51_520_020, 51_027_333),
            (2, 30, 50_998_108, 50_595_184),
        ] {
            assert_eq!(
                policy.backoff(silo, attempt),
                Duration::from_nanos(call_ns),
                "call backoff ({silo}, {attempt})"
            );
            assert_eq!(
                backoff(silo, attempt, socket::RECONNECT_SEED),
                Duration::from_nanos(reconnect_ns),
                "reconnect backoff ({silo}, {attempt})"
            );
        }
    }
}
