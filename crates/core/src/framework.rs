//! The multi-query framework of Alg. 4: batched scatter–gather execution.
//!
//! Single-silo sampling is what makes batching pay: each query lands on an
//! independently sampled silo, so a batch of |Q| queries spreads ≈ |Q|/m
//! per silo instead of |Q| everywhere (the EXACT/OPTA fan-out pattern).
//! The engine plans every query up front, groups the planned requests by
//! destination silo, and ships each silo's share of the batch as **one
//! coalesced wire frame** — |Q| queries cost at most m rounds (plus
//! resampling rounds), and the per-message envelope overhead is paid once
//! per silo instead of once per query. A fan-out query
//! ([`FraAlgorithm::fan_out`]) rides the same rounds as `m` single-silo
//! legs, so a batch of EXACT queries is `m` frames too: each silo still
//! does |Q| probes, but the provider pays `m` envelopes, not `m`·|Q|.
//! Algorithms with neither a plan/finish split nor a fan-out — the pooled
//! multi-silo estimator, whose k-of-n walk is sequential by definition,
//! and the planner and cache wrappers — fall back to a worker pool over
//! `try_execute`.
//!
//! The procedure itself is one crate-private value, the driver: it admits
//! queries, pumps scatter–gather rounds and finishes each query as its
//! runs end. A lone query and a [`QueryEngine`] batch admit their whole
//! slice and pump until it is empty; a
//! [`QueryScheduler`](crate::QueryScheduler) tick is the same driver fed
//! from a queue, pumped once per tick.
//!
//! [`QueryEngine`] reports the paper's experiment metrics per batch: wall
//! time, throughput, communication, and (given exact references) mean
//! relative error.

use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fedra_federation::{
    CommSnapshot, Federation, HealthTransition, PendingFrame, Poll, Reply, Request, SiloId,
    TransportError,
};
use fedra_index::pool::WorkerPool;
use fedra_obs::{ObsContext, Span, TraceHandle};

use crate::algorithm::{finish_run, join_fanout, FraAlgorithm, QueryPlan, RemotePlan};
use crate::query::{FraError, FraQuery, QueryResult};
use crate::run::{Action, Budget, End, Event, QueryRun};

/// Batch execution statistics (one experiment data point).
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query results, in input order.
    pub results: Vec<Result<QueryResult, FraError>>,
    /// Wall-clock time for the whole batch.
    pub wall_time: Duration,
    /// Queries per second (`|Q| / wall_time` — the paper's throughput).
    pub throughput_qps: f64,
    /// Query-time communication consumed by the batch.
    pub comm: CommSnapshot,
}

impl BatchResult {
    /// Mean relative error against a slice of exact reference values
    /// (the paper's MRE, Eq. 3). Failed queries count as error 1.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn mean_relative_error(&self, exact: &[f64]) -> f64 {
        assert_eq!(exact.len(), self.results.len(), "reference length mismatch");
        if exact.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .results
            .iter()
            .zip(exact)
            .map(|(r, &e)| match r {
                Ok(result) => result.relative_error(e),
                Err(_) => 1.0,
            })
            .sum();
        total / exact.len() as f64
    }

    /// Number of failed queries in the batch.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }

    /// Records realized accuracy against exact references into `obs`:
    /// the batch MRE as the `fedra_batch_mre` gauge and each query's
    /// relative error (in parts per million, failures as 1.0) into the
    /// `fedra_realized_error_ppm` histogram.
    ///
    /// Benches call this to close the loop between the *promised*
    /// accuracy (ε, δ recorded at plan time) and the *realized* error.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn record_accuracy(&self, obs: &ObsContext, exact: &[f64]) {
        assert_eq!(exact.len(), self.results.len(), "reference length mismatch");
        if !obs.is_enabled() || exact.is_empty() {
            return;
        }
        let metrics = obs.metrics();
        for (r, &e) in self.results.iter().zip(exact) {
            let rel = match r {
                Ok(result) => result.relative_error(e),
                Err(_) => 1.0,
            };
            metrics.realized_error_ppm.observe((rel * 1e6) as u64);
        }
        metrics.batch_mre.set(self.mean_relative_error(exact));
    }

    /// Unwraps all results (for healthy-path tests and examples).
    ///
    /// # Panics
    /// Panics when any query in the batch failed; fallible callers should
    /// walk `results` instead.
    pub fn values(&self) -> Vec<f64> {
        self.results
            .iter()
            .map(|r| r.as_ref().expect("batch query failed").value) // fedra-lint: allow(panic-discipline)
            .collect()
    }
}

/// The Alg. 4 execution engine: one algorithm's batch admitted to the
/// driver a lone query and a scheduler tick use, one coalesced frame per
/// silo per round, whether the riders are sampled single-silo plans or
/// the legs of EXACT / OPTA fan-outs. `workers` sizes the fallback pool
/// for algorithms that announce neither
/// ([`MultiSiloEst`](crate::MultiSiloEst), the wrappers): each drives its
/// own remote calls inside `try_execute`.
pub struct QueryEngine<'a> {
    algorithm: &'a dyn FraAlgorithm,
    workers: usize,
    query_budget: Option<Duration>,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine with one worker per silo — the paper's setup
    /// ("the number of threads equals to the number of silos").
    pub fn per_silo(algorithm: &'a dyn FraAlgorithm, federation: &Federation) -> Self {
        Self {
            algorithm,
            workers: federation.num_silos().max(1),
            query_budget: None,
        }
    }

    /// Creates an engine with an explicit worker count.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn with_workers(algorithm: &'a dyn FraAlgorithm, workers: usize) -> Self {
        assert!(workers > 0, "the engine needs at least one worker");
        Self {
            algorithm,
            workers,
            query_budget: None,
        }
    }

    /// Caps every scatter–gather frame's wait at `budget`, overriding the
    /// federation's [`CallPolicy`](fedra_federation::CallPolicy) deadline
    /// for batches run through this engine. Frames that overrun are
    /// abandoned; their riders resample (or degrade to the grid-only
    /// estimate), so a batch never blocks on a dead silo.
    pub fn with_query_budget(mut self, budget: Duration) -> Self {
        self.query_budget = Some(budget);
        self
    }

    /// Executes a batch of queries, measuring wall time / throughput /
    /// communication around the whole batch (Alg. 4 semantics: the batch
    /// arrives at once, answers stream out as silos respond).
    ///
    /// Planning and fan-out algorithms take the coalesced scatter–gather
    /// path (one wire frame per silo per round); the rest run on the
    /// worker pool. Either way the per-query results are identical to
    /// running `try_execute` on each query — batching changes how frames
    /// travel, not what they compute.
    pub fn execute_batch(&self, federation: &Federation, queries: &[FraQuery]) -> BatchResult {
        self.execute_batch_with(federation, queries, ObsContext::noop())
    }

    /// Executes a batch of queries with instrumentation: per-query traces
    /// and the same lifecycle counters [`drive_planned`] records on the
    /// sequential path (`fedra_silo_requests_total{silo}`,
    /// `fedra_sampled_silo_total{silo}`, plan/resample/degraded counts),
    /// plus batch-level telemetry (`fedra_batch_wall_ns`,
    /// `fedra_query_rounds`, `fedra_queries_total`, failure counts) and a
    /// mirror of the batch's communication delta into `obs.comm()`.
    ///
    /// [`drive_planned`]: crate::algorithm::drive_planned
    ///
    /// Passing [`ObsContext::noop`] makes this identical to
    /// `execute_batch` — every recording is a single untaken branch.
    pub fn execute_batch_with(
        &self,
        federation: &Federation,
        queries: &[FraQuery],
        obs: &ObsContext,
    ) -> BatchResult {
        obs.metrics().engine_workers.set(self.workers as f64);
        let comm_before = federation.query_comm();
        // Wall timing feeds BatchResult/throughput reporting only, never
        // a query answer.
        // fedra-lint: allow(determinism-discipline)
        let started = Instant::now();
        let rides_rounds = self.algorithm.supports_planning()
            || queries.iter().any(|q| self.algorithm.fan_out(q).is_some());
        let results = if rides_rounds {
            // Each run's per-attempt allowance.
            let allowance = self.query_budget.or(federation.call_policy().deadline);
            let budget = Budget::PerAttempt(allowance);
            drive_rounds(self.algorithm, federation, queries, budget, obs)
        } else {
            self.run_pooled(federation, queries, obs)
        };
        let wall_time = started.elapsed();
        let throughput_qps = if wall_time.as_secs_f64() > 0.0 {
            queries.len() as f64 / wall_time.as_secs_f64()
        } else {
            f64::INFINITY
        };
        let comm = federation.query_comm().since(&comm_before);
        if obs.is_enabled() {
            // Mirror the transport's own accounting: the engine adds the
            // batch delta verbatim, so after a from-reset run the mirror
            // matches `federation.query_comm()` bit for bit.
            obs.comm().add_delta(&comm);
            let metrics = obs.metrics();
            metrics.batches.inc();
            metrics.queries.add(queries.len() as u64);
            let failures = results.iter().filter(|r| r.is_err()).count();
            metrics.query_failures.add(failures as u64);
            metrics.batch_wall_ns.observe(wall_time.as_nanos() as u64);
            for result in results.iter().flatten() {
                metrics.query_rounds.observe(result.rounds);
            }
        }
        BatchResult {
            results,
            wall_time,
            throughput_qps,
            comm,
        }
    }

    /// Worker-pool execution: one `try_execute` per query on a
    /// [`WorkerPool`] sized to this engine's worker count. A panicking
    /// worker forfeits its in-flight queries; those slots surface as
    /// [`FraError::Internal`] while the rest of the batch answers
    /// normally.
    fn run_pooled(
        &self,
        federation: &Federation,
        queries: &[FraQuery],
        obs: &ObsContext,
    ) -> Vec<Result<QueryResult, FraError>> {
        let pool = WorkerPool::new(self.workers);
        if !queries.is_empty() {
            // Expected share per worker; the pool's shared cursor balances
            // the actual split dynamically.
            let per_task = queries.len().div_ceil(pool.threads().max(1));
            obs.metrics()
                .engine_pool_items_per_task
                .observe(per_task as u64);
        }
        pool.try_map(queries, |_, query| {
            self.algorithm.try_execute_with(federation, query, obs)
        })
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(FraError::Internal {
                    message: "batch worker panicked before answering this query".into(),
                })
            })
        })
        .collect()
    }
}

/// A query's answer, or why it has none.
type Outcome = Result<QueryResult, FraError>;

/// Coalesced scatter–gather execution of `queries` for a planning or
/// fan-out algorithm — a batch, or a lone query as a batch of one: every
/// query is admitted to one [`Driver`] in input order (planning consumes
/// the algorithm's RNG, and input order is what keeps a batch
/// seed-equivalent to query-for-query execution), then the driver is
/// pumped until it is empty. `budget` is each run's allowance.
pub(crate) fn drive_rounds<A: FraAlgorithm + ?Sized>(
    algorithm: &A,
    federation: &Federation,
    queries: &[FraQuery],
    budget: Budget,
    obs: &ObsContext,
) -> Vec<Outcome> {
    let mut driver = Driver::new(federation, obs);
    let admit = |(i, query): (usize, &FraQuery)| {
        let trace = obs.start_trace("query", algorithm.name());
        driver.admit(i, *query, || algorithm, budget, trace)
    };
    let mut answered: Vec<(usize, Outcome)> =
        queries.iter().enumerate().filter_map(admit).collect();
    // Every admitted query resolves exactly once, at admission or in a pump.
    while !driver.is_empty() {
        answered.extend(driver.pump());
    }
    answered.sort_unstable_by_key(|(i, _)| *i);
    answered.into_iter().map(|(_, outcome)| outcome).collect()
}

/// The multi-query procedure of Alg. 4 as one value: plan every admitted
/// query, ship each silo its share in [`round`]s, finish each query as its
/// runs end. It is the one caller of [`round`], behind all three entry
/// points: a lone query and a [`QueryEngine`] batch admit their whole
/// slice and pump until the driver is empty; a
/// [`QueryScheduler`](crate::QueryScheduler) tick admits what its intake
/// holds and pumps once.
///
/// `K` is the caller's name for a query (a slot index, a submission),
/// handed back with its outcome; `H` is the algorithm handle (a borrow, or
/// the scheduler's fresh instance per query).
pub(crate) struct Driver<'f, K, H> {
    federation: &'f Federation,
    obs: &'f ObsContext,
    table: RunTable<K, H>,
    state: RoundState,
}

/// The driver's queries in flight, each found by its tag in O(1).
///
/// A tag names a query: its slot in the table and the slot's generation.
/// A rider's tag and the silo its frame went to name one run — the
/// query's walk, or the leg of its fan-out to that silo. A slot is reused
/// once its query resolved, under the next generation, so no tag is ever
/// issued twice and a late parked frame reaches nobody but its own riders
/// (a slot whose generation is spent is retired, never reused). The table
/// holds as many slots as queries were ever in flight at once, however
/// long one of them outlives the queries admitted after it.
struct RunTable<K, H> {
    slots: Vec<Slot<K, H>>,
    /// Slot `i`'s request, the one every run of its query sends: apart from
    /// `slots`, so a round lends the requests to its frames while it
    /// dispatches the runs. A freed slot's request waits to be replaced.
    requests: Vec<Request>,
    /// Slots free for the next admission.
    free: Vec<usize>,
    /// Occupied slots, in admission order: the order a round dispatches
    /// the runs in and a pump hands the answers back in.
    admitted: Vec<usize>,
}

struct Slot<K, H> {
    generation: u32,
    state: SlotState<K, H>,
}

enum SlotState<K, H> {
    Free,
    Riding(InFlight<K, H>),
    /// Finished during this pump; handed back when the round is over.
    Resolved(K, Outcome),
}

/// Slot `slot` under `generation`, as one correlation id.
fn tag_of(slot: usize, generation: u32) -> u64 {
    u64::from(generation) << 32 | slot as u64
}

/// The slot and the generation `tag` names.
fn untag(tag: u64) -> (usize, u32) {
    ((tag & u64::from(u32::MAX)) as usize, (tag >> 32) as u32)
}

impl<K, H> RunTable<K, H> {
    fn new() -> Self {
        RunTable {
            slots: Vec::new(),
            requests: Vec::new(),
            free: Vec::new(),
            admitted: Vec::new(),
        }
    }

    /// Queries admitted and not yet handed back.
    fn len(&self) -> usize {
        self.admitted.len()
    }

    fn insert(&mut self, request: Request, query: InFlight<K, H>) {
        let state = SlotState::Riding(query);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot].state = state;
                self.requests[slot] = request;
                slot
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    state,
                });
                self.requests.push(request);
                self.slots.len() - 1
            }
        };
        self.admitted.push(slot);
    }

    /// The slot `tag` names, while the tag is its current one.
    fn get_mut(&mut self, tag: u64) -> Option<&mut Slot<K, H>> {
        let (slot, generation) = untag(tag);
        self.slots
            .get_mut(slot)
            .filter(|slot| slot.generation == generation)
    }

    /// Whether the run `tag` sent to `silo` still rides.
    fn rides(&self, tag: u64, silo: SiloId) -> bool {
        let (slot, current) = untag(tag);
        matches!(
            self.slots.get(slot),
            Some(Slot { generation, state: SlotState::Riding(q) })
                if *generation == current && q.runs.rides_to(silo)
        )
    }

    /// Hands back the queries resolved since the last sweep, in admission
    /// order, and frees their slots.
    fn sweep(&mut self) -> Vec<(K, Outcome)> {
        let (slots, free) = (&mut self.slots, &mut self.free);
        let mut resolved = Vec::new();
        self.admitted.retain(|&i| {
            let slot = &mut slots[i];
            if !matches!(slot.state, SlotState::Resolved(..)) {
                return true;
            }
            if let SlotState::Resolved(key, outcome) =
                std::mem::replace(&mut slot.state, SlotState::Free)
            {
                resolved.push((key, outcome));
            }
            if let Some(next) = slot.generation.checked_add(1) {
                slot.generation = next;
                free.push(i);
            }
            false
        });
        resolved
    }
}

impl<K, H> Slot<K, H>
where
    H: Deref,
    H::Target: FraAlgorithm,
{
    /// Finishes the slot's query once its last run ended: `finish_run` for
    /// a walk, `join_fanout` for a fan-out, and a shed run answers
    /// [`FraError::Shed`] with an empty class for the serving layer to
    /// name.
    fn settle(&mut self, federation: &Federation, obs: &ObsContext) {
        if !matches!(&self.state, SlotState::Riding(q) if q.runs.done()) {
            return;
        }
        if let SlotState::Riding(q) = std::mem::replace(&mut self.state, SlotState::Free) {
            let (key, outcome) = q.resolve(federation, obs);
            self.state = SlotState::Resolved(key, outcome);
        }
    }
}

/// One admitted query whose runs still ride rounds.
struct InFlight<K, H> {
    key: K,
    query: FraQuery,
    budget: Budget,
    runs: Runs<H>,
    trace: TraceHandle,
    /// The `remote` or `fanout` span, open while the runs ride rounds.
    span: Span,
}

/// A query's runs, and what finishes it once they all ended.
enum Runs<H> {
    /// Its one walk down the plan's candidate order, finished by its
    /// algorithm.
    Walk {
        algorithm: H,
        order: Vec<SiloId>,
        leg: Leg,
    },
    /// Its fan-out's leg table, indexed by silo: leg `k` walks silo `k`
    /// alone. Joined once no leg rides.
    FanOut { legs: Vec<Leg>, riding: usize },
}

/// One run, and how its walk ended once it is over.
struct Leg {
    run: QueryRun,
    end: Option<End>,
}

impl Leg {
    fn new(retries: u32, budget: Budget) -> Self {
        Leg {
            run: QueryRun::new(retries, budget),
            end: None,
        }
    }

    fn rides(&self) -> bool {
        self.end.is_none()
    }

    /// Feeds `event` to the run walking `order`, keeping the `End` it
    /// reaches; returns the send it asks for.
    fn on(
        &mut self,
        order: &[SiloId],
        event: Event<'_>,
        obs: &ObsContext,
    ) -> Option<(SiloId, u32)> {
        match self.run.on(order, event, obs) {
            Action::Send { silo, retry } => Some((silo, retry)),
            Action::Wait => None,
            Action::End(end) => {
                self.end = Some(end);
                None
            }
        }
    }
}

impl<H> Runs<H> {
    /// How many runs the query has: one walk, or `m` legs.
    fn len(&self) -> usize {
        match self {
            Runs::Walk { .. } => 1,
            Runs::FanOut { legs, .. } => legs.len(),
        }
    }

    /// Feeds `event` to the run that rides to `silo` — the walk, wherever
    /// it stands, or the fan-out's leg `silo`. Returns the send it asks
    /// for.
    fn on(&mut self, silo: SiloId, event: Event<'_>, obs: &ObsContext) -> Option<(SiloId, u32)> {
        match self {
            Runs::Walk { order, leg, .. } => leg.on(order, event, obs),
            Runs::FanOut { legs, riding } => {
                let leg = legs.get_mut(silo).filter(|leg| leg.rides())?;
                let send = leg.on(std::slice::from_ref(&silo), event, obs);
                if !leg.rides() {
                    *riding -= 1;
                }
                send
            }
        }
    }

    fn rides_to(&self, silo: SiloId) -> bool {
        match self {
            Runs::Walk { leg, .. } => leg.rides(),
            Runs::FanOut { legs, .. } => legs.get(silo).is_some_and(Leg::rides),
        }
    }

    fn done(&self) -> bool {
        match self {
            Runs::Walk { leg, .. } => !leg.rides(),
            Runs::FanOut { riding, .. } => *riding == 0,
        }
    }
}

impl<K, H> InFlight<K, H>
where
    H: Deref,
    H::Target: FraAlgorithm,
{
    /// The finish step, once every run ended.
    fn resolve(self, federation: &Federation, obs: &ObsContext) -> (K, Outcome) {
        drop(self.span);
        let (query, trace) = (&self.query, &self.trace);
        let shed = |leg: &Leg| matches!(leg.end, Some(End::Shed));
        let outcome = guarded("finishing", || match self.runs {
            Runs::Walk {
                algorithm,
                leg: Leg { end: Some(end), .. },
                ..
            } if !matches!(end, End::Shed) => {
                finish_run(&*algorithm, federation, query, end, trace, obs)
            }
            Runs::FanOut { legs, .. } if !legs.iter().any(shed) => {
                let ends = legs.into_iter().filter_map(|leg| leg.end);
                join_fanout(federation, query, ends, obs)
            }
            // Shedding names an admission class only the serving layer knows.
            _ => Err(FraError::Shed {
                class: String::new(),
            }),
        })
        .and_then(|outcome| outcome);
        obs.finish_trace(trace);
        (self.key, outcome)
    }
}

/// The one panic rule of every entry point: a plan or finish step that
/// panics answers its own query [`FraError::Internal`], and nobody else's.
fn guarded<T>(stage: &str, step: impl FnOnce() -> T) -> Result<T, FraError> {
    catch_unwind(AssertUnwindSafe(step)).map_err(|_| FraError::Internal {
        message: format!("panicked while {stage} this query"),
    })
}

impl<'f, K, H> Driver<'f, K, H>
where
    H: Deref,
    H::Target: FraAlgorithm,
{
    pub(crate) fn new(federation: &'f Federation, obs: &'f ObsContext) -> Self {
        Driver {
            federation,
            obs,
            table: RunTable::new(),
            state: RoundState::default(),
        }
    }

    /// Queries admitted and not yet resolved.
    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Admits one query: builds its algorithm (inside the panic rule, so a
    /// failing factory answers only this query), then plans it on `trace`
    /// or lays out its `m` fan-out legs, each run with `budget`. Nothing
    /// here waits on a silo. Returns the outcome at once when the plan
    /// resolved provider-side (or panicked); otherwise the query rides the
    /// next [`pump`](Self::pump).
    pub(crate) fn admit(
        &mut self,
        key: K,
        query: FraQuery,
        algorithm: impl FnOnce() -> H,
        budget: Budget,
        trace: TraceHandle,
    ) -> Option<(K, Outcome)> {
        let (federation, obs) = (self.federation, self.obs);
        let retries = federation.call_policy().retries;
        // `Err`: the query is answered without a silo.
        let planned = guarded("planning", || {
            let algorithm = algorithm();
            if let Some(request) = algorithm.fan_out(&query) {
                // One leg per silo, whose candidate order is that silo
                // alone: every rule of the walk applies to each leg. Each
                // makes the `allows` probe draw of a sampled plan, without
                // which a breaker opened by fan-out traffic alone would
                // never half-open; `may_call` decides at dispatch.
                let span = Span::enter(&trace, "fanout");
                let leg = |k| {
                    federation.health().allows(k);
                    Leg::new(retries, budget)
                };
                let legs: Vec<Leg> = (0..federation.num_silos()).map(leg).collect();
                let riding = legs.len();
                return Ok((Runs::FanOut { legs, riding }, request, span));
            }
            let plan_span = Span::enter(&trace, "plan");
            let RemotePlan { order, request } = match algorithm.plan_with(federation, &query, obs) {
                QueryPlan::Ready(outcome) => {
                    obs.metrics().plan_ready.inc();
                    return Err(outcome);
                }
                QueryPlan::SingleSilo(plan) => plan,
            };
            obs.metrics().plan_remote.inc();
            drop(plan_span);
            let span = Span::enter(&trace, "remote");
            let leg = Leg::new(retries, budget);
            Ok((
                Runs::Walk {
                    algorithm,
                    order,
                    leg,
                },
                request,
                span,
            ))
        });
        let (runs, request, span) = match planned.unwrap_or_else(|panicked| Err(Err(panicked))) {
            Ok(remote) => remote,
            Err(outcome) => {
                obs.finish_trace(&trace);
                return Some((key, outcome));
            }
        };
        let query = InFlight {
            key,
            query,
            budget,
            runs,
            trace,
            span,
        };
        self.table.insert(request, query);
        None
    }

    /// One [`round`] over every live run. A query is resolved as soon as
    /// its last run ends, while the round still gathers other frames.
    /// Returns the resolved queries in admission order.
    pub(crate) fn pump(&mut self) -> Vec<(K, Outcome)> {
        round(self.federation, self.obs, &mut self.state, &mut self.table);
        self.table.sweep()
    }

    /// Slots the run table holds: the most queries ever in flight at once.
    #[cfg(test)]
    fn footprint(&self) -> usize {
        self.table.slots.len()
    }
}

/// How long a gather waits for the silo's byte-counted refusal of a
/// dead-on-arrival frame before abandoning the reply. The shed is
/// silo-side either way; the grace window only decides whether its bytes
/// get recorded before the round moves on.
const SHED_GRACE: Duration = Duration::from_millis(250);

/// Waits without a deadline still need a hard bound; an hour is
/// "unbounded" at this layer's time scales.
const UNBOUNDED: Duration = Duration::from_secs(3600);

/// How long [`Gather::await_parked`] waits on one parked frame before the
/// next gets its turn. The channels have no `select`, so "first frame to
/// answer" is an alternation of short timed waits; the slice is far below
/// any latency this layer injects, and each wait parks on a condvar rather
/// than spinning.
const PARKED_SLICE: Duration = Duration::from_micros(500);

/// Surfaces a breaker transition as a labelled counter (no-op for
/// [`HealthTransition::None`]).
fn note_transition(obs: &ObsContext, transition: HealthTransition) {
    let to = match transition {
        HealthTransition::None => return,
        HealthTransition::Opened => "open",
        HealthTransition::HalfOpened => "half_open",
        HealthTransition::Closed => "closed",
    };
    obs.metrics().breaker_transitions.inc(to);
}

/// Records a call that answered after `latency` against the health
/// tracker.
fn record_success(federation: &Federation, obs: &ObsContext, silo: SiloId, latency: Duration) {
    note_transition(obs, federation.health().record_success(silo, latency));
}

/// Records a failed call against the health tracker and the deadline-miss
/// counter.
fn record_failure(federation: &Federation, obs: &ObsContext, error: &TransportError) {
    if error.is_deadline() {
        obs.metrics().deadline_missed.inc(error.silo());
    }
    note_transition(obs, federation.health().record_failure(error.silo()));
}

/// A tagged frame in flight.
struct Frame {
    silo: SiloId,
    tags: Vec<u64>,
    begun: Instant,
    /// When the wait is given up: the frame deadline (an hour when there
    /// is none), or the grace window of a dead-on-arrival frame.
    bound: Instant,
    /// Dead on arrival by design: its riders' budgets were spent before
    /// the send, and the silo sheds it whole, byte-counted.
    doa: bool,
    /// `Err`: the frame could not even be begun.
    pending: Result<PendingFrame, TransportError>,
}

/// What outlives a [`round`]: frames still silent past the hedge
/// threshold, *parked* — kept in flight while their riders hedge on other
/// silos, first answer wins — until their bound. A [`Driver`] owns one:
/// for a batch, or across a scheduler's ticks.
#[derive(Default)]
struct RoundState {
    parked: Vec<Frame>,
    /// Every frame begun, as its silo and its riders' tags.
    #[cfg(test)]
    sent: Vec<(SiloId, Vec<u64>)>,
}

/// One silo's riders of a round, in admission order: each rider's tag and
/// request, and apart from them (the frame takes the pairs as they are)
/// its budget.
#[derive(Default)]
struct Riders<'r> {
    tagged: Vec<(u64, &'r Request)>,
    budgets: Vec<Budget>,
}

impl<'r> Riders<'r> {
    /// Splits off the riders whose absolute budget is already spent at
    /// `now`, each side in admission order.
    fn split_spent(self, now: Instant) -> (Riders<'r>, Riders<'r>) {
        if !self.budgets.iter().any(|budget| budget.spent(now)) {
            return (self, Riders::default());
        }
        let (mut live, mut doa) = (Riders::default(), Riders::default());
        for (rider, budget) in self.tagged.into_iter().zip(self.budgets) {
            let side = if budget.spent(now) {
                &mut doa
            } else {
                &mut live
            };
            side.tagged.push(rider);
            side.budgets.push(budget);
        }
        (live, doa)
    }
}

/// The riders of one round plus everything a reply needs to reach them.
struct Gather<'r, K, H> {
    federation: &'r Federation,
    obs: &'r ObsContext,
    table: &'r mut RunTable<K, H>,
}

impl<K, H> Gather<'_, K, H>
where
    H: Deref,
    H::Target: FraAlgorithm,
{
    /// Feeds one rider's reply to its run, and finishes its query if that
    /// was its last run. Tags of riders already answered and delivered (a
    /// late parked frame) match nobody.
    fn feed(&mut self, tag: u64, silo: SiloId, result: Reply) {
        let Some(slot) = self.table.get_mut(tag) else {
            return;
        };
        if let SlotState::Riding(q) = &mut slot.state {
            q.runs.on(silo, Event::Reply { silo, result }, self.obs);
        }
        slot.settle(self.federation, self.obs);
    }

    /// Waits on `frame` until `until`. A frame that resolves feeds its
    /// riders; one still silent at its bound is abandoned as a deadline
    /// miss (a late reply goes nowhere); otherwise it is handed back,
    /// still in flight.
    fn settle(&mut self, frame: Frame, until: Instant) -> Option<Frame> {
        let silo = frame.silo;
        let reply = match frame.pending.map(|pending| pending.wait_until(until)) {
            Err(error) => Err(error),
            Ok(Poll::Ready(reply)) => reply,
            Ok(Poll::Pending(pending)) if until < frame.bound => {
                let pending = Ok(pending);
                return Some(Frame { pending, ..frame });
            }
            Ok(Poll::Pending(_)) => Err(TransportError::DeadlineExceeded { silo }),
        };
        match reply {
            Ok(items) => {
                record_success(self.federation, self.obs, silo, frame.begun.elapsed());
                for (tag, item) in items {
                    if let Err(error) = &item {
                        record_failure(self.federation, self.obs, error);
                    }
                    self.feed(tag, silo, item);
                }
            }
            // Whole-frame failure: every rider failed the same way.
            Err(error) => {
                // A dead-on-arrival frame shed as intended: the silo did
                // exactly what the envelope asked, and load shedding must
                // never poison the health state.
                if !(frame.doa && error.is_deadline()) {
                    record_failure(self.federation, self.obs, &error);
                }
                for tag in frame.tags {
                    self.feed(tag, silo, Err(error.clone()));
                }
            }
        }
        None
    }

    /// Polls the parked frames once: replies already in reach their
    /// riders, frames past their bound are abandoned.
    fn poll_parked(&mut self, state: &mut RoundState) {
        // Deadline polling is wall-clock by design (DESIGN.md §5e); the
        // clock decides *when* to give up, never what value a query
        // returns.
        // fedra-lint: allow(determinism-discipline)
        let now = Instant::now();
        let parked = std::mem::take(&mut state.parked);
        state.parked = parked
            .into_iter()
            .filter_map(|frame| self.settle(frame, now))
            .collect();
    }

    /// Blocks until the **first** parked frame resolves (or reaches its
    /// bound), whichever frame that is: a stranded rider whose hedge
    /// already answered must not sit behind a silent primary's bound. The
    /// frames take turns, [`PARKED_SLICE`] each; a lone frame has nobody
    /// to take turns with and is parked on outright.
    fn await_parked(&mut self, state: &mut RoundState) {
        let alone = state.parked.len() == 1;
        for turn in (0..state.parked.len()).cycle() {
            let frame = state.parked.remove(turn);
            let until = if alone {
                frame.bound
            } else {
                // fedra-lint: allow(determinism-discipline)
                frame.bound.min(Instant::now() + PARKED_SLICE)
            };
            match self.settle(frame, until) {
                Some(frame) => state.parked.insert(turn, frame),
                None => return,
            }
        }
    }
}

/// One scatter–gather round over the live runs of a lone query, a batch
/// or a tick — the one pump, called only by [`Driver::pump`]: drain parked
/// frames that answered, dispatch every live run in admission order into
/// its candidate silo's rider list (runs whose absolute budget is already
/// spent get their own dead-on-arrival frame the silo sheds
/// byte-countedly), ship one tagged frame per silo, gather every reply and
/// feed it to its run. A query is finished in its table slot as soon as
/// its last run ends.
///
/// With `CallPolicy::hedge_after` set, a frame still pending past the
/// threshold is parked in `state` instead of waited out, and its riders
/// hedge: they ride their next candidate next round. A round with nothing
/// to send returns as soon as the first parked frame resolves.
fn round<K, H>(
    federation: &Federation,
    obs: &ObsContext,
    state: &mut RoundState,
    table: &mut RunTable<K, H>,
) where
    H: Deref,
    H::Target: FraAlgorithm,
{
    let policy = federation.call_policy();
    let health = federation.health();
    let mut gather = Gather {
        federation,
        obs,
        table,
    };
    // First answer wins: parked primaries that resolved (or expired)
    // reach their riders before anyone is dispatched.
    gather.poll_parked(state);

    let may_call = |silo| health.may_call(silo);
    let mut riders: Vec<Riders> = Vec::new();
    riders.resize_with(federation.num_silos(), Riders::default);
    let mut sends = 0;
    // The largest backoff among the sends, for as long as every one of
    // them is a same-silo transient retry.
    let mut all_retries = Some(Duration::ZERO);
    let RunTable {
        slots,
        requests,
        admitted,
        ..
    } = &mut *gather.table;
    for &i in admitted.iter() {
        let slot = &mut slots[i];
        let tag = tag_of(i, slot.generation);
        let SlotState::Riding(q) = &mut slot.state else {
            continue;
        };
        for leg in 0..q.runs.len() {
            let dispatch = Event::Dispatch {
                may_call: &may_call,
            };
            let Some((silo, retry)) = q.runs.on(leg, dispatch, obs) else {
                continue;
            };
            riders[silo].tagged.push((tag, &requests[i]));
            riders[silo].budgets.push(q.budget);
            sends += 1;
            all_retries = all_retries
                .filter(|_| retry > 0)
                .map(|pause| pause.max(policy.backoff(silo, retry)));
        }
        // A run the breaker refused everywhere ended at dispatch.
        slot.settle(federation, obs);
    }
    if sends == 0 {
        // Nothing new to send: wait on the parked frames somebody still
        // rides (a frame all of whose riders were answered elsewhere is
        // abandoned).
        let table = &*gather.table;
        let live = |frame: &Frame| frame.tags.iter().any(|&tag| table.rides(tag, frame.silo));
        state.parked.retain(live);
        gather.await_parked(state);
        return;
    }
    // The backoff rule, one for every caller: a round that would only
    // re-ask silos that just refused transiently sleeps the largest of
    // those backoffs first, instead of hammering a flapping silo at
    // round-trip cadence. A lone query's retry is the one-rider case. One
    // fresh send keeps the round on time — it must not wait on somebody
    // else's flapping silo.
    if let Some(pause) = all_retries {
        std::thread::sleep(pause);
    }

    // Scatter: begin every silo's frame before waiting on any reply — the
    // silo workers run concurrently. Frames leave in silo order, a silo's
    // live frame before its dead-on-arrival one. This is the one place in
    // the crate that begins a single-silo frame. Wall-clock: a budget
    // decides when to give up, never what a query computes.
    // fedra-lint: allow(determinism-discipline)
    let now = Instant::now();
    let metrics = obs.metrics();
    let mut frames: Vec<Frame> = Vec::new();
    for (silo, riders) in riders.into_iter().enumerate() {
        let (live, spent) = riders.split_spent(now);
        for (doa, riders) in [(false, live), (true, spent)] {
            if riders.tagged.is_empty() {
                continue;
            }
            metrics
                .sched_frame_riders
                .observe(riders.tagged.len() as u64);
            metrics.silo_requests.add(silo, riders.tagged.len() as u64);
            // fedra-lint: allow(determinism-discipline)
            let begun = Instant::now();
            // A live frame takes the *max* deadline over its riders (it
            // must never shed a rider that still has budget; one unbounded
            // rider makes it unbounded), a dead-on-arrival frame the
            // earliest, already past, so the silo sheds it on arrival.
            let mut deadlines = riders.budgets.iter().map(|budget| budget.deadline(begun));
            let (deadline, bound) = if doa {
                (deadlines.flatten().min(), begun + SHED_GRACE)
            } else {
                let latest = deadlines.try_fold(None, |latest, d| d.map(|d| latest.max(Some(d))));
                let deadline = latest.flatten();
                (deadline, deadline.unwrap_or(begun + UNBOUNDED))
            };
            let pending = federation
                .channel(silo)
                .begin_frame(&riders.tagged, deadline);
            let tags: Vec<u64> = riders.tagged.iter().map(|(tag, _)| *tag).collect();
            #[cfg(test)]
            state.sent.push((silo, tags.clone()));
            frames.push(Frame {
                silo,
                tags,
                begun,
                bound,
                doa,
                pending,
            });
        }
    }
    // Gather. A frame that outlasts the hedge threshold is parked and its
    // riders told to hedge; without one every frame is waited to its bound.
    for frame in frames {
        let until = match policy.hedge_after {
            Some(after) if !frame.doa => (frame.begun + after).min(frame.bound),
            _ => frame.bound,
        };
        if let Some(frame) = gather.settle(frame, until) {
            for &tag in &frame.tags {
                if let Some(Slot {
                    state: SlotState::Riding(q),
                    ..
                }) = gather.table.get_mut(tag)
                {
                    q.runs.on(frame.silo, Event::HedgeDue, obs);
                }
            }
            state.parked.push(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::drive_planned;
    use crate::exact::Exact;
    use crate::sampling::{IidEst, NonIidEst};
    use fedra_federation::{
        CallPolicy, FaultPlan, FederationBuilder, LocalMode, Response, SiloFaultSpec,
        TransportBackend,
    };
    use fedra_geo::{Point, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;
    use fedra_index::AggFunc;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn partitions(m: usize, per_silo: usize) -> Vec<Vec<SpatialObject>> {
        let mut rng = StdRng::seed_from_u64(55);
        (0..m)
            .map(|_| {
                (0..per_silo)
                    .map(|_| {
                        SpatialObject::at(
                            rng.random_range(0.0..100.0),
                            rng.random_range(0.0..100.0),
                            rng.random_range(1.0..4.0),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn builder() -> FederationBuilder {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        FederationBuilder::new(bounds)
            .grid_cell_len(5.0)
            .histogram_config(MinSkewConfig {
                resolution: 16,
                budget: 16,
            })
    }

    fn setup(m: usize, per_silo: usize) -> Federation {
        builder().build(partitions(m, per_silo))
    }

    fn queries(n: usize, seed: u64) -> Vec<FraQuery> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                FraQuery::circle(
                    Point::new(rng.random_range(10.0..90.0), rng.random_range(10.0..90.0)),
                    10.0,
                    AggFunc::Count,
                )
            })
            .collect()
    }

    #[test]
    fn batch_results_are_in_input_order() {
        let fed = setup(3, 1000);
        let qs = queries(20, 1);
        let exact = Exact::new();
        let engine = QueryEngine::per_silo(&exact, &fed);
        let batch = engine.execute_batch(&fed, &qs);
        assert_eq!(batch.results.len(), 20);
        assert_eq!(batch.failures(), 0);
        // Sequential re-execution must match slot for slot (EXACT is
        // deterministic).
        for (i, q) in qs.iter().enumerate() {
            let sequential = exact.execute(&fed, q).value;
            assert_eq!(batch.results[i].as_ref().unwrap().value, sequential);
        }
    }

    #[test]
    fn throughput_and_comm_are_recorded() {
        let fed = setup(3, 500);
        fed.reset_query_comm();
        let qs = queries(30, 2);
        let alg = IidEst::new(3);
        let engine = QueryEngine::per_silo(&alg, &fed);
        let batch = engine.execute_batch(&fed, &qs);
        assert!(batch.throughput_qps > 0.0);
        // Coalesced: the 30 queries share at most one frame per silo.
        assert!(
            batch.comm.rounds <= 3,
            "expected ≤ 3 coalesced rounds, got {}",
            batch.comm.rounds
        );
        assert!(batch.wall_time > Duration::ZERO);
    }

    #[test]
    fn batched_path_amortizes_envelopes_over_query_for_query_execution() {
        let fed = setup(3, 500);
        let qs = queries(40, 20);
        let alg = IidEst::new(21);
        let engine = QueryEngine::per_silo(&alg, &fed);
        fed.reset_query_comm();
        let batched = engine.execute_batch(&fed, &qs);
        // The reference: a same-seed instance executed query for query,
        // consuming the RNG in the same (input) order as the sequentially
        // planned batched run.
        let alg_seq = IidEst::new(21);
        fed.reset_query_comm();
        let singleton: Vec<f64> = qs
            .iter()
            .map(|q| alg_seq.try_execute(&fed, q).unwrap().value)
            .collect();
        let singleton_comm = fed.query_comm();
        // Same seed, same queries: identical answers...
        assert_eq!(batched.values(), singleton);
        // ...but the batched run pays one envelope per silo, not per query.
        assert_eq!(singleton_comm.rounds, 40);
        assert!(batched.comm.rounds <= 3);
        assert!(
            batched.comm.total_bytes() < singleton_comm.total_bytes() / 2,
            "batched {} bytes vs singleton {} bytes",
            batched.comm.total_bytes(),
            singleton_comm.total_bytes()
        );
    }

    #[test]
    fn batched_iid_est_matches_sequential_fixed_seed() {
        let fed = setup(3, 1000);
        let qs = queries(25, 9);
        // Batched via the engine...
        let alg = IidEst::new(42);
        let batch = QueryEngine::per_silo(&alg, &fed).execute_batch(&fed, &qs);
        // ...vs a fresh same-seed instance executed query for query.
        let reference = IidEst::new(42);
        for (i, q) in qs.iter().enumerate() {
            let sequential = reference.try_execute(&fed, q).unwrap();
            let batched = batch.results[i].as_ref().unwrap();
            assert_eq!(batched.value, sequential.value, "query {i}");
            assert_eq!(batched.sampled_silo, sequential.sampled_silo, "query {i}");
            assert_eq!(batched.rounds, sequential.rounds, "query {i}");
        }
    }

    #[test]
    fn batched_noniid_est_matches_sequential_fixed_seed() {
        let fed = setup(4, 800);
        let qs = queries(25, 10);
        let alg = NonIidEst::new(43);
        let batch = QueryEngine::per_silo(&alg, &fed).execute_batch(&fed, &qs);
        let reference = NonIidEst::new(43);
        for (i, q) in qs.iter().enumerate() {
            let sequential = reference.try_execute(&fed, q).unwrap();
            let batched = batch.results[i].as_ref().unwrap();
            assert_eq!(batched.value, sequential.value, "query {i}");
            assert_eq!(batched.sampled_silo, sequential.sampled_silo, "query {i}");
        }
    }

    #[test]
    fn batched_resampling_survives_a_failed_silo() {
        let fed = setup(4, 600);
        let qs = queries(30, 11);
        fed.set_silo_failed(2, true);
        let alg = IidEst::new(44);
        let batch = QueryEngine::per_silo(&alg, &fed).execute_batch(&fed, &qs);
        assert_eq!(batch.failures(), 0);
        // Every answered query sampled a healthy silo (possibly after a
        // failed first attempt, which shows up as rounds > 1).
        let reference = IidEst::new(44);
        for (i, q) in qs.iter().enumerate() {
            let batched = batch.results[i].as_ref().unwrap();
            assert_ne!(
                batched.sampled_silo,
                Some(2),
                "query {i} stuck on failed silo"
            );
            let sequential = reference.try_execute(&fed, q).unwrap();
            assert_eq!(batched.value, sequential.value, "query {i}");
            assert_eq!(batched.sampled_silo, sequential.sampled_silo, "query {i}");
            assert_eq!(batched.rounds, sequential.rounds, "query {i}");
        }
        fed.set_silo_failed(2, false);
    }

    /// The counters a candidate walk and its frames increment, whoever
    /// pumps it (the engine's batch-level telemetry is left out).
    fn walk_counters(obs: &ObsContext) -> BTreeMap<String, u64> {
        const WALK: [&str; 9] = [
            "fedra_plan_",
            "fedra_silo_requests_total",
            "fedra_sampled_silo_total",
            "fedra_retries_total",
            "fedra_resamples_total",
            "fedra_hedges_",
            "fedra_breaker_skipped_total",
            "fedra_degraded_total",
            "fedra_deadline_missed_total",
        ];
        let mut counters = obs.snapshot().counters;
        counters.retain(|name, _| WALK.iter().any(|prefix| name.starts_with(prefix)));
        counters
    }

    /// One query, lone through `try_execute_with` or as a one-query batch.
    fn execute_one(
        batched: bool,
        alg: &dyn FraAlgorithm,
        fed: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        if !batched {
            return alg.try_execute_with(fed, query, obs);
        }
        let engine = QueryEngine::with_workers(alg, 1);
        let batch = engine.execute_batch_with(fed, std::slice::from_ref(query), obs);
        batch.results[0].clone()
    }

    /// Runs `qs` one at a time on a freshly built federation (flap
    /// schedules count frames), lone through `try_execute_with` or as
    /// one-query batches, and returns everything the two must agree on.
    #[allow(clippy::type_complexity)]
    fn one_at_a_time(
        batched: bool,
        alg: &dyn FraAlgorithm,
        qs: &[FraQuery],
        configure: &dyn Fn(FederationBuilder) -> FederationBuilder,
    ) -> (
        Vec<Result<QueryResult, FraError>>,
        CommSnapshot,
        BTreeMap<String, u64>,
    ) {
        let fed = configure(builder()).build(partitions(4, 600));
        let obs = ObsContext::new();
        let outcomes = qs
            .iter()
            .map(|q| execute_one(batched, alg, &fed, q, &obs))
            .collect();
        (outcomes, fed.query_comm(), walk_counters(&obs))
    }

    #[test]
    fn a_lone_query_is_a_one_query_batch() {
        type Scenario<'a> = (
            &'a str,
            &'a dyn Fn(FederationBuilder) -> FederationBuilder,
            // The walk counter that shows the scenario is not vacuous.
            Option<&'a str>,
        );
        let scenarios: [Scenario; 3] = [
            ("healthy", &|b| b, None),
            (
                "flapping silo",
                &|b| b.fault_plan(FaultPlan::seeded(0xF1A9).flapping_silo(1, 2, 1)),
                Some("fedra_retries_total"),
            ),
            (
                // Down for good behind the planner's back (it would skip a
                // failure-flagged silo): retries run out, the walk resamples.
                "failed head candidate",
                &|b| b.fault_plan(FaultPlan::seeded(0xDEAD).flapping_silo(2, 1, 1)),
                Some("fedra_resamples_total"),
            ),
        ];
        let iid: fn() -> Box<dyn FraAlgorithm> = || Box::new(IidEst::new(77));
        let noniid: fn() -> Box<dyn FraAlgorithm> = || Box::new(NonIidEst::new(77));
        let qs = queries(16, 13);
        for (what, configure, witness) in scenarios {
            for fresh in [iid, noniid] {
                // Same seed on both sides: the same plans in the same order.
                let lone = one_at_a_time(false, fresh().as_ref(), &qs, configure);
                let batch = one_at_a_time(true, fresh().as_ref(), &qs, configure);
                let name = fresh().name();
                assert_eq!(lone.0, batch.0, "{what}, {name}: results");
                // Rounds, bytes up and bytes down: a one-rider frame is
                // the lone query's bare request either way.
                assert_eq!(lone.1, batch.1, "{what}, {name}: communication");
                assert_eq!(lone.2, batch.2, "{what}, {name}: walk counters");
                if let Some(counter) = witness {
                    assert!(
                        lone.2.get(counter).is_some_and(|n| *n > 0),
                        "{what}: vacuous"
                    );
                }
            }
        }
    }

    #[test]
    fn a_stranded_rider_is_answered_by_the_first_frame_to_resolve() {
        // Silo 0 drops every frame, silo 1 answers after ~30 ms. A query
        // that samples silo 0 hedges to silo 1 after 5 ms and is then
        // stranded with both frames parked: it must be answered when the
        // hedge answers, not after the silent primary's 2 s bound.
        let dropper = SiloFaultSpec {
            drop_prob: 1.0,
            ..Default::default()
        };
        let plan = FaultPlan::seeded(3)
            .with_spec(0, dropper)
            .slow_silo(1, Duration::from_millis(30));
        let fed = builder()
            .fault_plan(plan)
            .call_policy(CallPolicy {
                deadline: Some(Duration::from_secs(2)),
                hedge_after: Some(Duration::from_millis(5)),
                ..Default::default()
            })
            .build(partitions(2, 400));
        let qs = queries(8, 14);
        for batched in [false, true] {
            let alg = IidEst::new(78);
            let obs = ObsContext::new();
            for q in &qs {
                let started = Instant::now();
                let answered = execute_one(batched, &alg, &fed, q, &obs);
                assert_eq!(answered.expect("silo 1 answers").sampled_silo, Some(1));
                let elapsed = started.elapsed();
                assert!(
                    elapsed < Duration::from_secs(1),
                    "batched = {batched}: waited {elapsed:?} behind the silent primary"
                );
            }
            let counters = obs.snapshot().counters;
            let won = counters.get("fedra_hedges_won_total").copied();
            assert!(
                won > Some(0),
                "no query was stranded: the scenario is vacuous"
            );
        }
    }

    /// IID-est whose finish step panics on one chosen query.
    struct PanicsOn {
        inner: IidEst,
        bad: FraQuery,
    }

    impl FraAlgorithm for PanicsOn {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn try_execute_with(
            &self,
            federation: &Federation,
            query: &FraQuery,
            obs: &ObsContext,
        ) -> Result<QueryResult, FraError> {
            drive_planned(self, federation, query, obs)
        }

        fn supports_planning(&self) -> bool {
            true
        }

        fn plan_with(
            &self,
            federation: &Federation,
            query: &FraQuery,
            obs: &ObsContext,
        ) -> QueryPlan {
            self.inner.plan_with(federation, query, obs)
        }

        fn finish_with(
            &self,
            federation: &Federation,
            query: &FraQuery,
            silo: SiloId,
            response: Response,
            rounds: u64,
            obs: &ObsContext,
        ) -> Result<QueryResult, FraError> {
            assert!(*query != self.bad, "finish refuses the chosen query");
            self.inner
                .finish_with(federation, query, silo, response, rounds, obs)
        }
    }

    #[test]
    fn a_panicking_finish_answers_only_its_own_slot() {
        let fed = setup(3, 1000);
        let qs = queries(12, 15);
        let alg = |seed| PanicsOn {
            inner: IidEst::new(seed),
            bad: qs[5],
        };
        let batch = QueryEngine::per_silo(&alg(79), &fed).execute_batch(&fed, &qs);
        // Same seed, same plans in the same order, one query at a time.
        let lone = alg(79);
        for (i, (got, q)) in batch.results.iter().zip(&qs).enumerate() {
            let want = lone.try_execute(&fed, q);
            if i == 5 {
                for outcome in [got, &want] {
                    match outcome {
                        Err(FraError::Internal { message }) => {
                            assert!(message.contains("finishing"), "{message}")
                        }
                        other => panic!("the panicking finish should answer Internal: {other:?}"),
                    }
                }
                continue;
            }
            let (got, want) = (got.as_ref().expect("batched"), want.expect("lone"));
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "query {i}");
            assert_eq!(*got, want, "query {i}");
        }
    }

    /// Admits `batch` to one driver in order and pumps it dry, as the
    /// engine does. Returns the outcomes in admission order, the
    /// communication spent, and every frame sent as its silo and its
    /// riders' table slots (a fresh driver's slot `i` is admission `i`
    /// until a query resolves).
    #[allow(clippy::type_complexity)]
    fn drive_batch(
        fed: &Federation,
        batch: &[(FraQuery, &dyn FraAlgorithm)],
    ) -> (Vec<Outcome>, CommSnapshot, Vec<(SiloId, Vec<usize>)>) {
        let before = fed.query_comm();
        let mut driver = Driver::new(fed, ObsContext::noop());
        let budget = Budget::PerAttempt(fed.call_policy().deadline);
        let mut answered = Vec::new();
        for (i, &(query, algorithm)) in batch.iter().enumerate() {
            let trace = TraceHandle::disabled();
            answered.extend(driver.admit(i, query, || algorithm, budget, trace));
        }
        while !driver.is_empty() {
            answered.extend(driver.pump());
        }
        answered.sort_by_key(|(i, _)| *i);
        let frames = driver
            .state
            .sent
            .iter()
            .map(|(silo, tags)| (*silo, tags.iter().map(|&tag| untag(tag).0).collect()))
            .collect();
        let outcomes = answered.into_iter().map(|(_, outcome)| outcome).collect();
        (outcomes, fed.query_comm().since(&before), frames)
    }

    /// `got` and `want` agree to the bit, rounds and sampled silo included.
    fn assert_same_answers(got: &[Outcome], want: &[Outcome]) {
        assert_eq!(got.len(), want.len());
        for (i, (got, want)) in got.iter().zip(want).enumerate() {
            let (got, want) = (got.as_ref().expect("batched"), want.as_ref().expect("lone"));
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "query {i}");
            assert_eq!(got.rounds, want.rounds, "query {i}");
            assert_eq!(*got, *want, "query {i}");
        }
    }

    #[test]
    fn batched_exact_matches_query_for_query_execution() {
        let fed = setup(3, 800);
        let qs = queries(15, 12);
        let exact = Exact::new();
        let lone: Vec<Outcome> = qs.iter().map(|q| exact.try_execute(&fed, q)).collect();
        let engine = QueryEngine::per_silo(&exact, &fed);
        let batched = engine.execute_batch(&fed, &qs);
        assert_same_answers(&batched.results, &lone);
        // One frame per silo, and the bytes of the run-map driver this
        // table replaced.
        let pinned = CommSnapshot {
            bytes_up: 2856,
            bytes_down: 2001,
            rounds: 3,
        };
        assert_eq!(batched.comm, pinned);
        // The same batch on the engine's driver, frame by frame: each
        // silo's frame carries every query's leg, in admission order.
        let batch: Vec<(FraQuery, &dyn FraAlgorithm)> = qs
            .iter()
            .map(|q| (*q, &exact as &dyn FraAlgorithm))
            .collect();
        let (outcomes, comm, frames) = drive_batch(&fed, &batch);
        assert_same_answers(&outcomes, &lone);
        assert_eq!(comm, pinned);
        let every: Vec<usize> = (0..qs.len()).collect();
        let expected: Vec<(SiloId, Vec<usize>)> = (0..3).map(|k| (k, every.clone())).collect();
        assert_eq!(frames, expected);
    }

    #[test]
    fn a_mixed_batch_rides_one_frame_per_silo_in_admission_order() {
        let fed = setup(4, 600);
        let qs = queries(24, 16);
        let exact = Exact::new();
        let (iid, noniid) = (IidEst::new(81), NonIidEst::new(82));
        let algorithms: [&dyn FraAlgorithm; 3] = [&exact, &iid, &noniid];
        let batch: Vec<(FraQuery, &dyn FraAlgorithm)> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| (*q, algorithms[i % 3]))
            .collect();
        let (outcomes, comm, frames) = drive_batch(&fed, &batch);
        // Same seeds, each algorithm's queries in the same order, one at a
        // time.
        let (iid, noniid) = (IidEst::new(81), NonIidEst::new(82));
        let algorithms: [&dyn FraAlgorithm; 3] = [&exact, &iid, &noniid];
        let lone: Vec<Outcome> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| algorithms[i % 3].try_execute(&fed, q))
            .collect();
        assert_same_answers(&outcomes, &lone);
        assert_eq!(
            comm,
            CommSnapshot {
                bytes_up: 3460,
                bytes_down: 2974,
                rounds: 4,
            }
        );
        // Silo k's one frame: every EXACT leg and every walk that sampled
        // k, walks and legs interleaved in admission order.
        let rides_to = |i: usize, k: SiloId| {
            i.is_multiple_of(3) || outcomes[i].as_ref().expect("answered").sampled_silo == Some(k)
        };
        let expected: Vec<(SiloId, Vec<usize>)> = (0..4)
            .map(|k| (k, (0..qs.len()).filter(|&i| rides_to(i, k)).collect()))
            .collect();
        assert_eq!(frames, expected);
        let walks = frames.iter().map(|(_, riders)| riders.len()).sum::<usize>() - 4 * 8;
        assert_eq!(walks, 16, "every walk rides exactly one frame");
    }

    /// Asks one fixed silo for its exact aggregate: a walk whose candidate
    /// order is that silo alone.
    struct AskSilo(SiloId);

    impl FraAlgorithm for AskSilo {
        fn name(&self) -> &'static str {
            "ask-silo"
        }

        fn try_execute_with(
            &self,
            federation: &Federation,
            query: &FraQuery,
            obs: &ObsContext,
        ) -> Result<QueryResult, FraError> {
            drive_planned(self, federation, query, obs)
        }

        fn supports_planning(&self) -> bool {
            true
        }

        fn plan_with(&self, _: &Federation, query: &FraQuery, _: &ObsContext) -> QueryPlan {
            QueryPlan::SingleSilo(RemotePlan {
                order: vec![self.0],
                request: Request::Aggregate {
                    range: query.range,
                    mode: LocalMode::Exact,
                },
            })
        }

        fn finish_with(
            &self,
            _: &Federation,
            query: &FraQuery,
            silo: SiloId,
            response: Response,
            rounds: u64,
            _: &ObsContext,
        ) -> Result<QueryResult, FraError> {
            match response {
                Response::Agg(agg) => {
                    Ok(QueryResult::from_aggregate(agg, query.func).with_rounds(rounds))
                }
                _ => Err(FraError::ProtocolViolation {
                    silo,
                    expected: "Agg",
                }),
            }
        }
    }

    #[test]
    fn a_held_run_leaves_the_run_table_the_size_of_the_live_runs() {
        // Silo 0 drops its first frame and crashes on its second; silo 1
        // answers. The first query's frame to silo 0 is parked past the
        // hedge threshold and its run stranded on it, while three thousand
        // later queries are admitted and answered through silo 1 around it.
        let dropper = SiloFaultSpec {
            drop_prob: 1.0,
            crash_after: Some(1),
            ..Default::default()
        };
        let fed = builder()
            .transport_backend(TransportBackend::InMemory)
            .fault_plan(FaultPlan::seeded(5).with_spec(0, dropper))
            .call_policy(CallPolicy {
                hedge_after: Some(Duration::from_millis(1)),
                ..Default::default()
            })
            .build(partitions(2, 400));
        let qs = queries(3002, 17);
        let (silo0, silo1): (&'static AskSilo, &'static AskSilo) = (&AskSilo(0), &AskSilo(1));
        let budget = Budget::PerAttempt(Some(Duration::from_secs(60)));
        let mut driver = Driver::new(&fed, ObsContext::noop());
        let admit = |driver: &mut Driver<usize, &AskSilo>,
                     i: usize,
                     algorithm: &'static AskSilo| {
            let answered = driver.admit(i, qs[i], || algorithm, budget, TraceHandle::disabled());
            assert!(answered.is_none(), "query {i} needs a silo");
        };
        admit(&mut driver, 0, silo0);
        assert!(driver.pump().is_empty(), "silo 0 never answers");
        let mut answered = Vec::new();
        for chunk in (1..3001).collect::<Vec<_>>().chunks(10) {
            for &i in chunk {
                admit(&mut driver, i, silo1);
            }
            // Pump until only the held run is left (a later frame slower
            // than the threshold parks too, and is awaited).
            while driver.len() > 1 {
                answered.extend(driver.pump());
            }
            assert!(
                driver.footprint() <= 11,
                "{} slots for at most 11 queries in flight",
                driver.footprint()
            );
        }
        // Every later query answered once, by silo 1, to the bit.
        answered.sort_by_key(|(i, _)| *i);
        assert_eq!(answered.len(), 3000);
        for (i, got) in &answered {
            let want = silo1.try_execute(&fed, &qs[*i]).expect("silo 1 answers");
            let got = got.as_ref().expect("silo 1 answered");
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "query {i}");
        }
        // A second frame crashes silo 0: the held run's frame fails, and
        // the held run resolves to its own query's grid fallback.
        admit(&mut driver, 3001, silo0);
        let mut last = Vec::new();
        while !driver.is_empty() {
            last.extend(driver.pump());
        }
        last.sort_by_key(|(i, _)| *i);
        let keys: Vec<usize> = last.iter().map(|(i, _)| *i).collect();
        assert_eq!(keys, [0, 3001]);
        for (i, got) in last {
            let want = silo0
                .finish_degraded(&fed, &qs[i], 1)
                .expect("fail-fast degrades");
            let got = got.expect("the grid answers");
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "query {i}");
            assert_eq!(got, want, "query {i}");
        }
    }

    #[test]
    fn sampling_spreads_load_across_silos() {
        let fed = setup(4, 800);
        let served_before = fed.served_per_silo();
        let alg = NonIidEst::new(5);
        let engine = QueryEngine::per_silo(&alg, &fed);
        engine.execute_batch(&fed, &queries(200, 6));
        let served_after = fed.served_per_silo();
        let deltas: Vec<u64> = served_before
            .iter()
            .zip(&served_after)
            .map(|(b, a)| a - b)
            .collect();
        let total: u64 = deltas.iter().sum();
        assert_eq!(total, 200);
        // Expect ≈ 50 per silo; allow wide randomness margins.
        for (k, d) in deltas.iter().enumerate() {
            assert!(
                (20..=90).contains(d),
                "silo {k} served {d} of 200 queries — load not balanced: {deltas:?}"
            );
        }
    }

    #[test]
    fn mre_against_exact_references() {
        let fed = setup(3, 2000);
        let qs = queries(15, 7);
        let exact_alg = Exact::new();
        let exact_vals: Vec<f64> = qs
            .iter()
            .map(|q| exact_alg.execute(&fed, q).value)
            .collect();
        let alg = IidEst::new(8);
        let engine = QueryEngine::per_silo(&alg, &fed);
        let batch = engine.execute_batch(&fed, &qs);
        let mre = batch.mean_relative_error(&exact_vals);
        assert!(mre < 0.3, "MRE {mre}");
        // EXACT against itself is 0.
        let batch = QueryEngine::per_silo(&exact_alg, &fed).execute_batch(&fed, &qs);
        assert_eq!(batch.mean_relative_error(&exact_vals), 0.0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let fed = setup(2, 100);
        let exact = Exact::new();
        let engine = QueryEngine::per_silo(&exact, &fed);
        let batch = engine.execute_batch(&fed, &[]);
        assert!(batch.results.is_empty());
        assert_eq!(batch.mean_relative_error(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let exact = Exact::new();
        QueryEngine::with_workers(&exact, 0);
    }
}
