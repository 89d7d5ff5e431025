//! Concurrent query scheduler: many in-flight queries share the
//! federation, one wire frame per silo per tick.
//!
//! [`QueryEngine`](crate::QueryEngine) coalesces silo requests *within*
//! one batch; concurrent callers still serialize on the engine and each
//! pays its own round trips. [`QueryScheduler`] feeds the engine's driver
//! from a serving layer: clients [`submit`](QueryScheduler::submit)
//! queries from any thread, one driver thread admits them to the same
//! driver value a batch uses (plan and finish take microseconds each — no
//! thread is spawned on a tick), and every scheduling tick merges the
//! outstanding remote requests of *all* in-flight queries into one
//! multiplexed frame per silo ([`SiloChannel::begin_frame`]). This module
//! owns only what a batch lacks: the intake queue, admission classes,
//! tickets and the shed class names.
//!
//! # Tick model
//!
//! A tick drains its intake before it dispatches: the driver thread
//! admits what is queued, then takes (without blocking) and admits
//! whatever was submitted meanwhile, until the queue is dry or the tick
//! has admitted [`TICK_ADMISSIONS`] queries; only then
//! does it pump the driver once. A lone query finds the queue dry as
//! soon as it is planned and is dispatched at once; under load the riders
//! a frame carries are everything that arrived while the tick planned —
//! set by this policy, not by how long a stage happened to take.
//!
//! # Determinism contract
//!
//! Coalescing may change *when* frames travel, never *what* a query
//! computes. Each submission gets a fresh algorithm instance from the
//! scheduler's seed factory, so no RNG state is shared between queries:
//! a query's result is a function of `(query, seed)` alone and is
//! bit-identical to serial execution of the same pair
//! (`tests/concurrent_equivalence.rs` pins this). Admission control and
//! deadlines are the exception by design — *whether* a query is shed
//! under overload is wall-clock dependent, its value never is.
//!
//! # Admission control and backpressure
//!
//! Every submission names an admission class ([`ClassPolicy`]): a bounded
//! queue budget and an optional deadline measured from **submission**
//! time (not dispatch — queue wait counts against the budget). Overload
//! sheds in three places, all counted under `fedra_shed_total`:
//!
//! 1. **queue-full** — the class budget is exhausted at submit;
//! 2. **expired at dispatch** — the deadline passed while queued; the
//!    request still travels, as an already-expired frame the silo sheds
//!    for one byte-counted round trip (the PR 5
//!    `Response::DeadlineExceeded` path), so shed traffic lands in the
//!    same communication ledger as served traffic;
//! 3. **expired in flight** — the silo (or the frame wait) ran past the
//!    deadline.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedra_federation::Federation;
use fedra_obs::catalog::{SCHED_COMPLETED_TOTAL, SCHED_SUBMITTED_TOTAL, SHED_TOTAL};
use fedra_obs::{Counter, ObsContext, Series, TraceHandle};

use crate::algorithm::FraAlgorithm;
use crate::framework::Driver;
use crate::query::{FraError, FraQuery, QueryResult};
use crate::run::Budget;

#[cfg(doc)]
use fedra_federation::SiloChannel;

/// One admission class: a name (for `class="..."` metric labels), a
/// bounded queue budget, and an optional deadline enforced from
/// submission time.
#[derive(Debug, Clone)]
pub struct ClassPolicy {
    /// Label value for this class's `fedra_sched_*`/`fedra_shed_*` series.
    pub name: String,
    /// Queued-but-not-yet-dispatched submissions admitted before
    /// [`SubmitError::QueueFull`] sheds the overflow.
    pub queue_capacity: usize,
    /// Total budget from submission to answer; `None` waits forever.
    pub deadline: Option<Duration>,
}

impl ClassPolicy {
    /// A deadline-free class with the given name and queue budget.
    pub fn unbounded(name: &str, queue_capacity: usize) -> Self {
        ClassPolicy {
            name: name.to_string(),
            queue_capacity,
            deadline: None,
        }
    }

    /// A class whose queries expire `deadline` after submission.
    pub fn with_deadline(name: &str, queue_capacity: usize, deadline: Duration) -> Self {
        ClassPolicy {
            name: name.to_string(),
            queue_capacity,
            deadline: Some(deadline),
        }
    }
}

/// Scheduler tuning knobs; the defaults serve a single deadline-free
/// class with a generous queue.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Admission classes, addressed by index in
    /// [`QueryScheduler::submit`].
    pub classes: Vec<ClassPolicy>,
}

/// Most new submissions planned per tick; the rest stay queued and ride
/// the next tick (bounds how long a tick plans before it dispatches,
/// under burst).
pub const TICK_ADMISSIONS: usize = 256;

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            classes: vec![ClassPolicy::unbounded("default", 4096)],
        }
    }
}

/// Why a submission was rejected at the front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The class's admission queue is at capacity — the query was shed
    /// without planning (counted under `fedra_shed_total`).
    QueueFull {
        /// The class whose budget was exhausted.
        class: String,
    },
    /// No such class index in the scheduler's configuration.
    UnknownClass {
        /// The out-of-range index.
        class: usize,
    },
    /// The scheduler is shutting down and accepts no new work.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { class } => {
                write!(f, "admission queue full for class `{class}` — query shed")
            }
            SubmitError::UnknownClass { class } => {
                write!(f, "no admission class with index {class}")
            }
            SubmitError::Shutdown => write!(f, "scheduler is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What a [`TicketCell`] guards.
#[derive(Default)]
struct TicketSlot {
    /// `None` while the query is in flight.
    outcome: Option<Result<QueryResult, FraError>>,
    /// The owner is parked on the condvar, waiting for `outcome`.
    parked: bool,
}

/// A one-shot result cell shared between the driver and one client.
///
/// Mutex + condvar: the waiter parks instead of spinning, and the first
/// delivery wins. Delivery wakes the owner only when it is parked: a
/// client that redeems its ticket after the answer landed costs the
/// driver no wake-up call.
struct TicketCell {
    filled: Mutex<TicketSlot>,
    ready: Condvar,
}

impl TicketCell {
    fn new() -> Self {
        TicketCell {
            filled: Mutex::new(TicketSlot::default()),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TicketSlot> {
        self.filled.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// First delivery wins; later ones are dropped. Returns whether it
    /// woke a parked owner.
    fn deliver(&self, outcome: Result<QueryResult, FraError>) -> bool {
        let mut slot = self.lock();
        if slot.outcome.is_some() {
            return false;
        }
        slot.outcome = Some(outcome);
        let wake = slot.parked;
        drop(slot);
        if wake {
            self.ready.notify_one();
        }
        wake
    }

    fn take(&self) -> Result<QueryResult, FraError> {
        let mut slot = self.lock();
        loop {
            if let Some(outcome) = slot.outcome.take() {
                return outcome;
            }
            slot.parked = true;
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
            slot.parked = false;
        }
    }
}

/// A claim on one submitted query; redeem it with [`QueryTicket::wait`].
pub struct QueryTicket {
    id: u64,
    cell: Arc<TicketCell>,
}

impl QueryTicket {
    /// The submission's id, unique within its scheduler and increasing in
    /// submission order. It names the ticket only: frames are tagged by
    /// the driver.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Parks until the scheduler answers (or sheds) the query.
    pub fn wait(self) -> Result<QueryResult, FraError> {
        self.cell.take()
    }
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket").field("id", &self.id).finish()
    }
}

/// One admission class with its pre-built `class="..."` series.
struct Class {
    policy: ClassPolicy,
    submitted: Series<Counter>,
    completed: Series<Counter>,
    shed: Series<Counter>,
}

impl Class {
    fn new(policy: ClassPolicy, obs: &ObsContext) -> Self {
        Class {
            submitted: obs.labeled(&SCHED_SUBMITTED_TOTAL, &policy.name),
            completed: obs.labeled(&SCHED_COMPLETED_TOTAL, &policy.name),
            shed: obs.labeled(&SHED_TOTAL, &policy.name),
            policy,
        }
    }
}

/// One accepted submission, queued until a tick admits it.
struct Submission {
    query: FraQuery,
    seed: u64,
    class: usize,
    submitted_at: Instant,
    /// `submitted_at + class deadline`: queue wait spends the budget.
    deadline: Option<Instant>,
    cell: Arc<TicketCell>,
}

/// Intake shared between client threads and the driver.
struct IntakeState {
    backlog: VecDeque<Submission>,
    /// Queued-per-class counts, indexed like `SchedulerConfig::classes`.
    per_class: Vec<usize>,
    closed: bool,
    /// The driver is parked on `wakeup` with nothing to do: the next
    /// submission must wake it, and only then is a wake-up paid.
    driver_parked: bool,
    /// The next accepted submission's ticket id.
    next_id: u64,
}

struct Intake {
    gate: Mutex<IntakeState>,
    wakeup: Condvar,
}

impl Intake {
    fn lock(&self) -> MutexGuard<'_, IntakeState> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The serving front end. See the module docs for the tick model.
///
/// Dropping the scheduler (or calling [`shutdown`](Self::shutdown))
/// closes intake, drains every queued and in-flight query to its ticket,
/// and joins the driver thread.
pub struct QueryScheduler {
    intake: Arc<Intake>,
    classes: Arc<[Class]>,
    obs: Arc<ObsContext>,
    driver: Option<JoinHandle<()>>,
}

impl QueryScheduler {
    /// Starts the driver thread. `factory` builds one fresh algorithm per
    /// submission from the submission's seed — the scheduler never shares
    /// algorithm state (or RNG state) between queries.
    pub fn start<F>(
        federation: Arc<Federation>,
        factory: F,
        config: SchedulerConfig,
        obs: Arc<ObsContext>,
    ) -> Self
    where
        F: Fn(u64) -> Box<dyn FraAlgorithm> + Send + Sync + 'static,
    {
        let policies = if config.classes.is_empty() {
            SchedulerConfig::default().classes
        } else {
            config.classes
        };
        let classes: Arc<[Class]> = policies
            .into_iter()
            .map(|policy| Class::new(policy, &obs))
            .collect();
        let intake = Arc::new(Intake {
            gate: Mutex::new(IntakeState {
                backlog: VecDeque::new(),
                per_class: vec![0; classes.len()],
                closed: false,
                driver_parked: false,
                next_id: 1,
            }),
            wakeup: Condvar::new(),
        });
        let driver = DriverThread {
            federation,
            factory: Box::new(factory),
            obs: Arc::clone(&obs),
            intake: Arc::clone(&intake),
            classes: Arc::clone(&classes),
        };
        let handle = std::thread::Builder::new()
            .name("fedra-sched".to_string())
            .spawn(move || driver.run())
            .ok();
        QueryScheduler {
            intake,
            classes,
            obs,
            driver: handle,
        }
    }

    /// Submits one query under the given admission class (an index into
    /// [`SchedulerConfig::classes`]). Returns immediately: redeem the
    /// ticket with [`QueryTicket::wait`] from any thread.
    pub fn submit(
        &self,
        query: FraQuery,
        seed: u64,
        class: usize,
    ) -> Result<QueryTicket, SubmitError> {
        let Some(chosen) = self.classes.get(class) else {
            return Err(SubmitError::UnknownClass { class });
        };
        let policy = &chosen.policy;
        let cell = Arc::new(TicketCell::new());
        let (id, depth, wake) = {
            let mut st = self.intake.lock();
            if st.closed {
                return Err(SubmitError::Shutdown);
            }
            if st.per_class[class] >= policy.queue_capacity {
                chosen.shed.inc();
                self.obs.metrics().shed_queue_full.inc();
                return Err(SubmitError::QueueFull {
                    class: policy.name.clone(),
                });
            }
            st.per_class[class] += 1;
            let id = st.next_id;
            st.next_id += 1;
            // Wall-clock by design: deadlines and queue-wait metrics are
            // serving-layer concerns, never part of a query's value.
            let submitted_at = Instant::now();
            st.backlog.push_back(Submission {
                query,
                seed,
                class,
                submitted_at,
                deadline: policy.deadline.map(|d| submitted_at + d),
                cell: Arc::clone(&cell),
            });
            (id, st.backlog.len(), st.driver_parked)
        };
        chosen.submitted.inc();
        self.obs.metrics().sched_queue_depth.set(depth as f64);
        if wake {
            self.intake.wakeup.notify_one();
        }
        Ok(QueryTicket { id, cell })
    }

    /// Closes intake, drains all accepted work to its tickets, and joins
    /// the driver. Also runs on drop; calling it explicitly just makes
    /// the join visible.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut st = self.intake.lock();
            st.closed = true;
        }
        self.intake.wakeup.notify_all();
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryScheduler {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// The driver thread's state: everything a tick needs besides the
/// [`Driver`] itself, which lives on the thread's stack.
struct DriverThread {
    federation: Arc<Federation>,
    factory: Box<dyn Fn(u64) -> Box<dyn FraAlgorithm> + Send + Sync>,
    obs: Arc<ObsContext>,
    intake: Arc<Intake>,
    classes: Arc<[Class]>,
}

impl DriverThread {
    fn run(self) {
        let mut driver = Driver::new(&self.federation, &self.obs);
        let metrics = self.obs.metrics();
        let cap = TICK_ADMISSIONS;
        while let Some(mut admitted) = self.take_admissions(driver.is_empty(), cap) {
            metrics.sched_ticks.inc();
            // Drain until dry: what was submitted while this tick planned
            // rides this tick's frames, up to the cap.
            let mut room = cap;
            while !admitted.is_empty() {
                room -= admitted.len();
                for sub in admitted {
                    let waited = sub.submitted_at.elapsed().as_nanos() as u64;
                    metrics.sched_queue_wait_ns.observe(waited);
                    // A fresh algorithm per submission; the submission's
                    // absolute deadline is its budget. The scheduler opens
                    // no traces (its clients read metrics).
                    let (query, seed, budget) = (sub.query, sub.seed, Budget::Until(sub.deadline));
                    let factory = || (self.factory)(seed);
                    let trace = TraceHandle::disabled();
                    // A provider-side plan (or a panic) answers at once.
                    if let Some((sub, outcome)) = driver.admit(sub, query, factory, budget, trace) {
                        self.deliver(&sub, outcome);
                    }
                }
                admitted = self.take_admissions(false, room).unwrap_or_default();
            }
            metrics.sched_active.set(driver.len() as f64);
            // Deliver the tick's answers in one burst after the finish
            // stage, oldest submission first: a client redeeming tickets in
            // order is woken at the head of the burst, and no woken client
            // competes with the finish stage for a core.
            for (sub, outcome) in driver.pump() {
                self.deliver(&sub, outcome);
            }
        }
    }

    /// Pops up to `room` submissions. Parks on the intake condvar when
    /// there is nothing to do at all, marked parked so the next submission
    /// wakes it; returns `None` exactly once, when intake is closed and
    /// fully drained (`may_block` implies no in-flight queries remain
    /// either).
    fn take_admissions(&self, may_block: bool, room: usize) -> Option<Vec<Submission>> {
        let mut st = self.intake.lock();
        while may_block && st.backlog.is_empty() && !st.closed {
            st.driver_parked = true;
            st = self
                .intake
                .wakeup
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.driver_parked = false;
        }
        if may_block && st.backlog.is_empty() && st.closed {
            return None;
        }
        let n = st.backlog.len().min(room);
        let admitted: Vec<Submission> = st.backlog.drain(..n).collect();
        for sub in &admitted {
            st.per_class[sub.class] -= 1;
        }
        let depth = st.backlog.len();
        drop(st);
        self.obs.metrics().sched_queue_depth.set(depth as f64);
        Some(admitted)
    }

    /// Delivers one resolved query to its ticket, recording completion /
    /// shed counters and end-to-end latency.
    fn deliver(&self, sub: &Submission, mut outcome: Result<QueryResult, FraError>) {
        let class = &self.classes[sub.class];
        let metrics = self.obs.metrics();
        if let Err(FraError::Shed { class: shed }) = &mut outcome {
            // The driver sheds without a name: only this layer knows it.
            shed.clone_from(&class.policy.name);
            class.shed.inc();
            metrics.shed_expired.inc();
        } else {
            class.completed.inc();
        }
        let latency = sub.submitted_at.elapsed().as_nanos() as u64;
        metrics.sched_latency_ns.observe(latency);
        sub.cell.deliver(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::Exact;
    use crate::sampling::{IidEst, NonIidEst};
    use crate::QueryEngine;
    use fedra_federation::FederationBuilder;
    use fedra_index::AggFunc;
    use fedra_obs::metrics::bucket_index;
    use fedra_workload::{QueryGenerator, WorkloadSpec};
    use std::sync::Once;

    fn stand_up(seed: u64) -> (Arc<Federation>, Vec<FraQuery>) {
        let spec = WorkloadSpec::default()
            .with_total_objects(4_000)
            .with_silos(4)
            .with_seed(seed);
        let dataset = spec.generate();
        let all = dataset.all_objects();
        let bounds = dataset.bounds();
        let federation = FederationBuilder::new(bounds)
            .grid_cell_len(1.0)
            .build(dataset.into_partitions());
        let mut generator = QueryGenerator::new(&all, seed ^ 0x5EED);
        let queries = generator
            .circles(2.0, 24)
            .iter()
            .map(|r| FraQuery::new(*r, AggFunc::Count))
            .collect();
        (Arc::new(federation), queries)
    }

    fn factory(seed: u64) -> Box<dyn FraAlgorithm> {
        Box::new(IidEst::new(seed))
    }

    #[test]
    fn scheduled_results_match_serial_execution() {
        let (federation, queries) = stand_up(71);
        let obs = Arc::new(ObsContext::new());
        let sched = QueryScheduler::start(
            Arc::clone(&federation),
            factory,
            SchedulerConfig::default(),
            Arc::clone(&obs),
        );
        let tickets: Vec<QueryTicket> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| sched.submit(*q, 1000 + i as u64, 0).expect("admitted"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.wait().expect("scheduled query answers");
            let alg = factory(1000 + i as u64);
            let serial = QueryEngine::per_silo(alg.as_ref(), &federation).execute_batch_with(
                &federation,
                &queries[i..=i],
                &ObsContext::new(),
            );
            let want = serial.results[0].as_ref().expect("serial query answers");
            assert_eq!(got.value.to_bits(), want.value.to_bits());
            assert_eq!(&got, want);
        }
        sched.shutdown();
    }

    #[test]
    fn queue_full_sheds_at_submit() {
        let (federation, queries) = stand_up(72);
        let obs = Arc::new(ObsContext::new());
        // Capacity 0: the front door sheds everything.
        let config = SchedulerConfig {
            classes: vec![ClassPolicy::unbounded("tiny", 0)],
        };
        let sched = QueryScheduler::start(Arc::clone(&federation), factory, config, obs);
        let err = sched.submit(queries[0], 7, 0).expect_err("queue full");
        assert_eq!(
            err,
            SubmitError::QueueFull {
                class: "tiny".into()
            }
        );
        assert_eq!(
            sched.submit(queries[0], 7, 9).expect_err("bad class"),
            SubmitError::UnknownClass { class: 9 }
        );
    }

    #[test]
    fn expired_submissions_are_shed_byte_counted() {
        let (federation, queries) = stand_up(73);
        let obs = Arc::new(ObsContext::new());
        // A zero deadline expires every query in queue; the scheduler
        // still ships each one as a dead-on-arrival frame the silo sheds.
        let config = SchedulerConfig {
            classes: vec![ClassPolicy::with_deadline("rt", 64, Duration::ZERO)],
        };
        let before = federation.query_comm();
        let sched =
            QueryScheduler::start(Arc::clone(&federation), factory, config, Arc::clone(&obs));
        let tickets: Vec<QueryTicket> = queries
            .iter()
            .map(|q| sched.submit(*q, 5, 0).expect("admitted"))
            .collect();
        let mut sheds = 0;
        for ticket in tickets {
            match ticket.wait() {
                Err(FraError::Shed { class }) => {
                    assert_eq!(class, "rt");
                    sheds += 1;
                }
                other => panic!("expired query should shed, got {other:?}"),
            }
        }
        assert_eq!(sheds, queries.len());
        // The sheds travelled: byte-counted rounds, not silent drops.
        let delta = federation.query_comm().since(&before);
        assert!(delta.rounds > 0, "shed frames should be byte-counted");
        // Load shedding never poisons breaker state: the silos did what
        // the expired envelopes asked, so no failure is held against them
        // (and no breaker, enabled or not, can have moved).
        for silo in federation.health().snapshot() {
            assert_eq!(silo.failures_total, 0, "silo {}", silo.silo);
        }
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let (federation, queries) = stand_up(74);
        let obs = Arc::new(ObsContext::new());
        let sched = QueryScheduler::start(
            Arc::clone(&federation),
            factory,
            SchedulerConfig::default(),
            obs,
        );
        let tickets: Vec<QueryTicket> = queries
            .iter()
            .map(|q| sched.submit(*q, 3, 0).expect("admitted"))
            .collect();
        sched.shutdown();
        for ticket in tickets {
            ticket.wait().expect("drained on shutdown");
        }
    }

    /// `fedra_sched_ticks_total` and the `fedra_sched_frame_riders`
    /// histogram as of now.
    fn ticks_and_riders(obs: &ObsContext) -> (u64, fedra_obs::metrics::HistogramSnapshot) {
        let snapshot = obs.snapshot();
        (
            snapshot.counters["fedra_sched_ticks_total"],
            snapshot.histograms["fedra_sched_frame_riders"].clone(),
        )
    }

    #[test]
    fn a_submission_that_lands_while_a_tick_is_planning_rides_that_tick() {
        let (federation, queries) = stand_up(76);
        let m = federation.num_silos() as u64;
        let obs = Arc::new(ObsContext::new());
        // The factory runs on the driver thread, mid-plan: its first call
        // submits a second query through the shared handle. EXACT, so
        // every silo gets one frame per tick whatever the seeds.
        let shared: Arc<Mutex<Option<QueryScheduler>>> = Arc::new(Mutex::new(None));
        let late: Arc<Mutex<Option<QueryTicket>>> = Arc::new(Mutex::new(None));
        let factory = {
            let (shared, late, second) = (Arc::clone(&shared), Arc::clone(&late), queries[1]);
            let first_call = Once::new();
            move |_seed| -> Box<dyn FraAlgorithm> {
                first_call.call_once(|| {
                    let sched = shared.lock().unwrap();
                    let sched = sched.as_ref().expect("stored before the first submit");
                    *late.lock().unwrap() = Some(sched.submit(second, 0, 0).expect("admitted"));
                });
                Box::new(Exact::new())
            }
        };
        let before = federation.query_comm();
        let sched = QueryScheduler::start(
            Arc::clone(&federation),
            factory,
            SchedulerConfig::default(),
            Arc::clone(&obs),
        );
        *shared.lock().unwrap() = Some(sched);
        let first = shared
            .lock()
            .unwrap()
            .as_ref()
            .expect("just stored")
            .submit(queries[0], 0, 0)
            .expect("admitted");
        first.wait().expect("the first query answers");
        let late = late.lock().unwrap().take().expect("submitted mid-plan");
        late.wait().expect("the late query answers");
        let sched = shared.lock().unwrap().take().expect("still stored");
        sched.shutdown();

        let (ticks, riders) = ticks_and_riders(&obs);
        assert_eq!(ticks, 1, "the late submission must not wait for a tick");
        assert_eq!(federation.query_comm().since(&before).rounds, m);
        assert_eq!((riders.count, riders.sum), (m, 2 * m), "two legs per frame");
    }

    #[test]
    fn no_tick_admits_more_than_its_cap() {
        let (federation, queries) = stand_up(77);
        let m = federation.num_silos() as u64;
        let obs = Arc::new(ObsContext::new());
        // The first factory call holds the driver mid-plan until all 600
        // submissions are queued.
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let factory = {
            let (gate, first_call) = (Mutex::new(gate), Once::new());
            move |_seed| -> Box<dyn FraAlgorithm> {
                first_call.call_once(|| gate.lock().unwrap().recv().expect("gate opens"));
                Box::new(Exact::new())
            }
        };
        let config = SchedulerConfig::default();
        let sched =
            QueryScheduler::start(Arc::clone(&federation), factory, config, Arc::clone(&obs));
        let tickets: Vec<QueryTicket> = queries
            .iter()
            .cycle()
            .take(600)
            .map(|q| sched.submit(*q, 0, 0).expect("admitted"))
            .collect();
        open.send(()).expect("driver is waiting");
        for ticket in tickets {
            ticket.wait().expect("answers");
        }
        sched.shutdown();

        // Every frame of a tick carries one leg per query the tick
        // admitted: 256 + 256 + 88, never 600.
        let (ticks, riders) = ticks_and_riders(&obs);
        assert_eq!(ticks, 3);
        assert_eq!((riders.count, riders.sum), (3 * m, 600 * m));
        let over_cap: u64 = riders.buckets[bucket_index(TICK_ADMISSIONS as u64) + 1..]
            .iter()
            .sum();
        assert_eq!(
            over_cap, 0,
            "a frame carried more than {TICK_ADMISSIONS} riders"
        );
    }

    #[test]
    fn walks_and_fan_out_legs_share_one_tick() {
        let (federation, queries) = stand_up(79);
        let m = federation.num_silos() as u64;
        let obs = Arc::new(ObsContext::new());
        fn mixed(seed: u64) -> Box<dyn FraAlgorithm> {
            match seed % 3 {
                0 => Box::new(Exact::new()),
                1 => Box::new(IidEst::new(seed)),
                _ => Box::new(NonIidEst::new(seed)),
            }
        }
        // The first factory call holds the driver mid-plan until the whole
        // burst is queued, so walks and fan-outs interleave in one tick.
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let factory = {
            let (gate, first_call) = (Mutex::new(gate), Once::new());
            move |seed| -> Box<dyn FraAlgorithm> {
                first_call.call_once(|| gate.lock().unwrap().recv().expect("gate opens"));
                mixed(seed)
            }
        };
        let sched = QueryScheduler::start(
            Arc::clone(&federation),
            factory,
            SchedulerConfig::default(),
            Arc::clone(&obs),
        );
        let tickets: Vec<QueryTicket> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| sched.submit(*q, 1000 + i as u64, 0).expect("admitted"))
            .collect();
        open.send(()).expect("driver is waiting");
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.wait().expect("scheduled query answers");
            let lone = mixed(1000 + i as u64).try_execute(&federation, &queries[i]);
            let want = lone.expect("lone query answers");
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "query {i}");
            assert_eq!(got, want, "query {i}");
        }
        sched.shutdown();

        let (ticks, riders) = ticks_and_riders(&obs);
        assert_eq!(ticks, 1, "the burst should ride one tick");
        assert_eq!(riders.count, m, "one frame per silo");
        assert!(
            riders.sum > riders.count,
            "no frame carried two riders: {} riders on {} frames",
            riders.sum,
            riders.count
        );
    }

    #[test]
    fn a_panicking_plan_answers_only_its_own_ticket() {
        let (federation, queries) = stand_up(78);
        let sched = QueryScheduler::start(
            Arc::clone(&federation),
            |seed| {
                assert!(seed != 1003, "factory refuses seed 1003");
                factory(seed)
            },
            SchedulerConfig::default(),
            Arc::new(ObsContext::new()),
        );
        let tickets: Vec<QueryTicket> = queries[..8]
            .iter()
            .enumerate()
            .map(|(i, q)| sched.submit(*q, 1000 + i as u64, 0).expect("admitted"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            match (i, ticket.wait()) {
                (3, Err(FraError::Internal { message })) => {
                    assert!(message.contains("planning"), "{message}")
                }
                (3, other) => panic!("the panicking plan should answer Internal, got {other:?}"),
                (_, outcome) => {
                    let want = factory(1000 + i as u64).try_execute(&federation, &queries[i]);
                    assert_eq!(outcome, want, "query {i}");
                }
            }
        }
        sched.shutdown();
    }

    fn answer(value: f64) -> Result<QueryResult, FraError> {
        let aggregate = fedra_index::Aggregate {
            count: value,
            ..fedra_index::Aggregate::ZERO
        };
        Ok(QueryResult::from_aggregate(aggregate, AggFunc::Count))
    }

    #[test]
    fn a_delivery_before_the_owner_waits_wakes_nobody() {
        let cell = TicketCell::new();
        assert!(!cell.deliver(answer(1.0)), "nobody is parked yet");
        assert!(!cell.deliver(answer(2.0)), "a second delivery is dropped");
        assert_eq!(cell.take(), answer(1.0));
    }

    #[test]
    fn a_parked_owner_is_woken_by_its_delivery() {
        let cell = Arc::new(TicketCell::new());
        let started = Arc::new(std::sync::Barrier::new(2));
        let owner = {
            let (cell, started) = (Arc::clone(&cell), Arc::clone(&started));
            std::thread::spawn(move || {
                started.wait();
                cell.take()
            })
        };
        started.wait();
        // `take` sets the mark under the lock and releases that lock only
        // inside `wait`: whoever reads the mark true holds the lock the
        // owner is parked on, so the delivery must wake it.
        while !cell.lock().parked {
            std::thread::yield_now();
        }
        assert!(cell.deliver(answer(3.0)), "the parked owner must be woken");
        assert_eq!(owner.join().expect("owner thread"), answer(3.0));
        assert!(!cell.lock().parked);
    }

    #[test]
    fn ticket_ids_are_unique_and_returned() {
        let (federation, queries) = stand_up(75);
        let obs = Arc::new(ObsContext::new());
        let sched = QueryScheduler::start(
            Arc::clone(&federation),
            factory,
            SchedulerConfig::default(),
            obs,
        );
        let a = sched.submit(queries[0], 1, 0).expect("admitted");
        let b = sched.submit(queries[1], 2, 0).expect("admitted");
        assert_ne!(a.id(), b.id());
        a.wait().expect("answers");
        b.wait().expect("answers");
    }
}
