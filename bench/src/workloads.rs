//! The five workloads and the closed loops that drive them.
//!
//! Every workload runs at the same fixed point (see `inputs`) with product
//! defaults for every builder, scheduler and pool setting; they differ
//! only in algorithm, query driver and transport backend — which is what
//! decides which layer does the work. `bench/README.md` says why each one
//! exists and which layer metric should move which end-to-end metric.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedra::prelude::*;

use crate::inputs::{Inputs, BATCH_SIZE, CHECK_QUERIES};
use crate::trace::SpanLog;

/// Queries outstanding in total on the scheduler workloads.
pub const OUTSTANDING: usize = 64;
/// Check queries the socket-vs-memory byte comparison submits one at a time.
const LOCKSTEP_QUERIES: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Exact,
    NonIid,
    IidLsr,
    NonIidLsr,
}

impl Algo {
    /// A fresh algorithm instance seeded with `seed` (ε = 0.1, δ = 0.01
    /// for the LSR variants — Tab. 2's defaults).
    pub fn instance(self, seed: u64) -> Box<dyn FraAlgorithm> {
        let params = AccuracyParams::new(0.1, 0.01);
        match self {
            Algo::Exact => Box::new(Exact::new()),
            Algo::NonIid => Box::new(NonIidEst::new(seed)),
            Algo::IidLsr => Box::new(IidEstLsr::new(seed, params)),
            Algo::NonIidLsr => Box::new(NonIidEstLsr::new(seed, params)),
        }
    }
}

/// Which of the program's three query drivers a workload goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `QueryEngine::execute_batch` on back-to-back 250-query batches.
    Batch,
    /// `QueryScheduler` with [`OUTSTANDING`] queries in flight.
    Scheduler,
    /// `try_execute`, one query in flight.
    Single,
}

pub struct Workload {
    pub name: &'static str,
    pub algo: Algo,
    pub driver: Driver,
    pub backend: TransportBackend,
    /// Ceiling on the check pass's MRE in percent (0 = must equal the
    /// brute-force scan). Set from the calibration runs in the README:
    /// about 1.5× the largest value seen over ten seeds.
    pub mre_ceiling_pct: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch_exact_mem",
        algo: Algo::Exact,
        driver: Driver::Batch,
        backend: TransportBackend::InMemory,
        mre_ceiling_pct: 0.0,
    },
    Workload {
        name: "batch_noniid_mem",
        algo: Algo::NonIid,
        driver: Driver::Batch,
        backend: TransportBackend::InMemory,
        mre_ceiling_pct: 5.5,
    },
    Workload {
        name: "sched_iid_mem",
        algo: Algo::IidLsr,
        driver: Driver::Scheduler,
        backend: TransportBackend::InMemory,
        mre_ceiling_pct: 11.5,
    },
    Workload {
        name: "sched_iid_tcp",
        algo: Algo::IidLsr,
        driver: Driver::Scheduler,
        backend: TransportBackend::Socket,
        mre_ceiling_pct: 11.5,
    },
    Workload {
        name: "single_noniid_tcp",
        algo: Algo::NonIidLsr,
        driver: Driver::Single,
        backend: TransportBackend::Socket,
        mre_ceiling_pct: 8.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Load-generator threads on the scheduler workloads: callers that each
/// wait for their replies, never more than the host can run beside the
/// program's own threads.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Stands a federation up behind `backend`; returns it with the wall time
/// of `FederationBuilder::build` (index builds + the Alg. 1 grid
/// exchange). Copying the generated objects is not part of that time.
pub fn stand_up(inputs: &Inputs, backend: TransportBackend) -> (Arc<Federation>, f64) {
    let partitions = inputs.partitions.clone();
    let started = Instant::now();
    let federation = FederationBuilder::new(inputs.bounds)
        .lsr_seed(inputs.seeds.lsr)
        .transport_backend(backend)
        .build(partitions);
    let setup_s = started.elapsed().as_secs_f64();
    (Arc::new(federation), setup_s)
}

/// Index memory the paper's Figs. 3d–9d report: every silo's indexes plus
/// the provider's grids, in MiB.
pub fn index_mem_mb(federation: &Federation) -> f64 {
    let silos: u64 = federation
        .silo_memory_reports()
        .iter()
        .map(|r| r.total())
        .sum();
    (silos + federation.provider_memory_bytes()) as f64 / (1024.0 * 1024.0)
}

/// What one closed-loop window measured.
#[derive(Default)]
pub struct Window {
    /// Queries answered (on `batch_*`, 250 per operation).
    pub queries: u64,
    /// Errors, sheds and degraded answers among them.
    pub failed: u64,
    pub elapsed_s: f64,
    /// One sample per operation, submit → answer in hand.
    pub latencies_us: Vec<f64>,
    /// The harness's own spans (traced windows only).
    pub spans: SpanLog,
}

impl Window {
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed_s
    }
}

/// How a window is observed. The end-to-end numbers come from
/// `Observe::Off` windows only.
pub enum Observe {
    /// `ObsContext::noop()` and no harness spans. The scheduler cannot be
    /// started without a live context (its API takes an `Arc<ObsContext>`
    /// and only `noop()` is disabled), so on `sched_*` "off" means a
    /// private live context nobody reads — what `fedra-serve` runs with.
    Off,
    /// A live context whose snapshot the caller reads afterwards, plus
    /// one harness span per operation.
    Traced(Arc<ObsContext>),
}

impl Observe {
    fn traced(&self) -> bool {
        matches!(self, Observe::Traced(_))
    }

    fn context(&self) -> &ObsContext {
        match self {
            Observe::Off => ObsContext::noop(),
            Observe::Traced(obs) => obs,
        }
    }

    fn shared(&self) -> Arc<ObsContext> {
        match self {
            Observe::Off => Arc::new(ObsContext::new()),
            Observe::Traced(obs) => Arc::clone(obs),
        }
    }
}

/// Counts a result the way `failed_share` does: an error, a shed or a
/// degraded (coverage-annotated) answer is a failed operation.
fn is_failure(outcome: &Result<QueryResult, FraError>) -> bool {
    !matches!(outcome, Ok(r) if r.coverage.is_none())
}

/// Runs the workload's closed loop for `duration` against `federation`.
/// `round` only varies the algorithm seed between rounds.
pub fn run_window(
    workload: &Workload,
    inputs: &Inputs,
    federation: &Arc<Federation>,
    duration: Duration,
    round: u64,
    observe: &Observe,
) -> Window {
    let seed = inputs.seeds.algorithm ^ (round + 1);
    match workload.driver {
        Driver::Batch => batch_window(workload, inputs, federation, duration, seed, observe),
        Driver::Single => single_window(workload, inputs, federation, duration, seed, observe),
        Driver::Scheduler => sched_window(workload, inputs, federation, duration, observe),
    }
}

/// The one-generator closed loop: runs `operation` back to back until
/// `duration` has passed, one latency sample (and, traced, one span) each.
/// `operation(n)` performs the n-th operation and returns how many queries
/// it answered and how many of them failed.
fn closed_loop(
    duration: Duration,
    span: Option<&'static str>,
    mut operation: impl FnMut(usize) -> (u64, u64),
) -> Window {
    let mut window = Window::default();
    let started = Instant::now();
    for op in 0.. {
        let begun = Instant::now();
        if begun.duration_since(started) >= duration {
            break;
        }
        let (queries, failed) = operation(op);
        let done = Instant::now();
        window.queries += queries;
        window.failed += failed;
        window
            .latencies_us
            .push(done.duration_since(begun).as_secs_f64() * 1e6);
        if let Some(name) = span {
            window.spans.record(name, begun, done, None, op as u64);
        }
    }
    window.elapsed_s = started.elapsed().as_secs_f64();
    window
}

pub fn batch_window(
    workload: &Workload,
    inputs: &Inputs,
    federation: &Federation,
    duration: Duration,
    seed: u64,
    observe: &Observe,
) -> Window {
    let algorithm = workload.algo.instance(seed);
    let engine = QueryEngine::per_silo(algorithm.as_ref(), federation);
    let batches = inputs.batches();
    let span = observe.traced().then_some("driver.batch");
    closed_loop(duration, span, |op| {
        let batch = batches[op % batches.len()];
        let result = engine.execute_batch_with(federation, batch, observe.context());
        let failed = result.results.iter().filter(|r| is_failure(r)).count();
        (batch.len() as u64, failed as u64)
    })
}

pub fn single_window(
    workload: &Workload,
    inputs: &Inputs,
    federation: &Federation,
    duration: Duration,
    seed: u64,
    observe: &Observe,
) -> Window {
    let algorithm = workload.algo.instance(seed);
    let span = observe.traced().then_some("driver.query");
    closed_loop(duration, span, |op| {
        let query = &inputs.pool[op % inputs.pool.len()];
        let outcome = algorithm.try_execute_with(federation, query, observe.context());
        (1, u64::from(is_failure(&outcome)))
    })
}

/// Starts the scheduler every `sched_*` measurement uses: default config,
/// one fresh estimator per submission.
pub fn start_scheduler(
    workload: &Workload,
    federation: &Arc<Federation>,
    obs: Arc<ObsContext>,
) -> QueryScheduler {
    let algo = workload.algo;
    QueryScheduler::start(
        Arc::clone(federation),
        move |seed| algo.instance(seed),
        SchedulerConfig::default(),
        obs,
    )
}

/// One generator thread's closed loop: keep `depth` tickets outstanding,
/// redeem them first-in first-out, stop submitting at `deadline`, drain.
/// `next` yields the pool index of each submission (`None` = no more).
fn ticket_loop(
    scheduler: &QueryScheduler,
    inputs: &Inputs,
    depth: usize,
    deadline: Option<Instant>,
    traced: bool,
    mut next: impl FnMut() -> Option<usize>,
    mut on_answer: impl FnMut(usize, &Result<QueryResult, FraError>),
) -> Window {
    let mut window = Window::default();
    let mut in_flight: VecDeque<(QueryTicket, usize, Instant)> = VecDeque::new();
    let mut open = true;
    loop {
        let now = Instant::now();
        open = open && deadline.is_none_or(|d| now < d);
        if open && in_flight.len() < depth {
            let Some(index) = next() else {
                open = false;
                continue;
            };
            match scheduler.submit(inputs.pool[index], inputs.seeds.query(index), 0) {
                Ok(ticket) => {
                    if traced {
                        let submitted = Instant::now();
                        window
                            .spans
                            .record("sched.submit", now, submitted, None, index as u64);
                    }
                    in_flight.push_back((ticket, index, now));
                }
                Err(_) => {
                    // Refused at the door: attempted, failed, no latency.
                    window.queries += 1;
                    window.failed += 1;
                }
            }
            continue;
        }
        let Some((ticket, index, submitted)) = in_flight.pop_front() else {
            break;
        };
        let outcome = ticket.wait();
        let done = Instant::now();
        window.queries += 1;
        if is_failure(&outcome) {
            window.failed += 1;
        } else {
            window
                .latencies_us
                .push(done.duration_since(submitted).as_secs_f64() * 1e6);
        }
        if traced {
            window
                .spans
                .record("sched.wait", now, done, None, index as u64);
        }
        on_answer(index, &outcome);
    }
    window
}

fn sched_window(
    workload: &Workload,
    inputs: &Inputs,
    federation: &Arc<Federation>,
    duration: Duration,
    observe: &Observe,
) -> Window {
    let threads = generator_threads();
    let scheduler = start_scheduler(workload, federation, observe.shared());
    let started = Instant::now();
    let deadline = started + duration;
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let scheduler = &scheduler;
                scope.spawn(move || {
                    // Thread t walks pool indexes t, t + threads, … so the
                    // threads never submit the same query at once.
                    let mut cursor = t;
                    ticket_loop(
                        scheduler,
                        inputs,
                        OUTSTANDING / threads,
                        Some(deadline),
                        observe.traced(),
                        || {
                            let index = cursor % inputs.pool.len();
                            cursor += threads;
                            Some(index)
                        },
                        |_, _| {},
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    scheduler.shutdown();
    let mut window = Window {
        elapsed_s,
        ..Window::default()
    };
    for part in parts {
        window.queries += part.queries;
        window.failed += part.failed;
        window.latencies_us.extend(part.latencies_us);
        window.spans.merge(part.spans);
    }
    window
}

/// The fixed-count check pass: the first [`CHECK_QUERIES`] pool queries
/// with fixed seeds through the workload's own driver.
pub struct CheckPass {
    /// Answers in pool order (NaN where the query failed).
    pub answers: Vec<f64>,
    pub failed: u64,
    /// Counted bytes up + down per query (`Federation::query_comm`) over
    /// this pass; printed beside the end-to-end metric, which is counted
    /// over the timed windows.
    pub comm_bytes_per_query: f64,
    /// Answers that must equal `answers` bit for bit, with what they are.
    pub replays: Vec<(String, Vec<f64>)>,
    /// Gate conditions the pass itself found violated.
    pub violations: Vec<String>,
}

/// The answer's value, NaN for a failed (or degraded) one.
fn value_of(outcome: &Result<QueryResult, FraError>) -> f64 {
    match outcome {
        Ok(result) if !is_failure(outcome) => result.value,
        _ => f64::NAN,
    }
}

/// Serial reference: the same queries and seeds through `try_execute`,
/// one at a time, on `federation`.
fn serial_replay(workload: &Workload, inputs: &Inputs, federation: &Federation) -> Vec<f64> {
    let queries = &inputs.pool[..CHECK_QUERIES];
    match workload.driver {
        Driver::Scheduler => queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let algorithm = workload.algo.instance(inputs.seeds.query(i));
                value_of(&algorithm.try_execute(federation, q))
            })
            .collect(),
        Driver::Batch | Driver::Single => {
            let algorithm = workload.algo.instance(inputs.seeds.algorithm);
            queries
                .iter()
                .map(|q| value_of(&algorithm.try_execute(federation, q)))
                .collect()
        }
    }
}

/// Counted bytes of the first [`LOCKSTEP_QUERIES`] check queries through
/// the scheduler with one query outstanding. At 64 outstanding the number
/// of riders per frame — and with it the envelope bytes — depends on
/// timing; in lockstep every frame carries one rider, so the two backends
/// must count exactly the same bytes.
fn lockstep_bytes(workload: &Workload, inputs: &Inputs, federation: &Arc<Federation>) -> u64 {
    let scheduler = start_scheduler(workload, federation, Arc::new(ObsContext::new()));
    let before = federation.query_comm();
    for (i, query) in inputs.pool[..LOCKSTEP_QUERIES].iter().enumerate() {
        if let Ok(ticket) = scheduler.submit(*query, inputs.seeds.query(i), 0) {
            // The answers are judged by the check pass proper.
            let _ = ticket.wait();
        }
    }
    scheduler.shutdown();
    federation.query_comm().since(&before).total_bytes()
}

pub fn check_pass(workload: &Workload, inputs: &Inputs, federation: &Arc<Federation>) -> CheckPass {
    let queries = &inputs.pool[..CHECK_QUERIES];
    let comm_before = federation.query_comm();
    let answers: Vec<f64> = match workload.driver {
        Driver::Batch => {
            let algorithm = workload.algo.instance(inputs.seeds.algorithm);
            let engine = QueryEngine::per_silo(algorithm.as_ref(), federation);
            queries
                .chunks(BATCH_SIZE)
                .flat_map(|batch| {
                    let result = engine.execute_batch(federation, batch);
                    result.results.iter().map(value_of).collect::<Vec<_>>()
                })
                .collect()
        }
        // One query at a time through `try_execute` is this workload's driver.
        Driver::Single => serial_replay(workload, inputs, federation),
        Driver::Scheduler => {
            let scheduler = start_scheduler(workload, federation, Arc::new(ObsContext::new()));
            // A submission refused at the door leaves its NaN in place.
            let mut answers = vec![f64::NAN; queries.len()];
            let mut indexes = 0..queries.len();
            ticket_loop(
                &scheduler,
                inputs,
                OUTSTANDING,
                None,
                false,
                || indexes.next(),
                |index, outcome| answers[index] = value_of(outcome),
            );
            scheduler.shutdown();
            answers
        }
    };
    let failed = answers.iter().filter(|a| a.is_nan()).count() as u64;
    let comm = federation.query_comm().since(&comm_before);
    let comm_bytes_per_query = comm.total_bytes() as f64 / queries.len() as f64;

    let mut replays = Vec::new();
    let mut violations = Vec::new();
    match (workload.driver, workload.backend) {
        (Driver::Single, _) => {}
        (_, TransportBackend::InMemory) => replays.push((
            "serial try_execute replay".to_string(),
            serial_replay(workload, inputs, federation),
        )),
        (_, TransportBackend::Socket) => {
            // Replaying on an in-memory twin checks two things at once:
            // scheduled = serial, and socket answers = in-memory answers.
            let (twin, _) = stand_up(inputs, TransportBackend::InMemory);
            replays.push((
                "serial try_execute replay on an in-memory twin".to_string(),
                serial_replay(workload, inputs, &twin),
            ));
            if workload.driver == Driver::Scheduler {
                let socket = lockstep_bytes(workload, inputs, federation);
                let memory = lockstep_bytes(workload, inputs, &twin);
                if socket != memory {
                    violations.push(format!(
                        "{LOCKSTEP_QUERIES} lockstep queries counted {socket} B over sockets but {memory} B in memory"
                    ));
                }
            }
        }
    }
    CheckPass {
        answers,
        failed,
        comm_bytes_per_query,
        replays,
        violations,
    }
}
