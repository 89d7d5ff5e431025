//! Scheduler equivalence: answers served concurrently must be
//! **bit-identical** to serial execution of the same `(query, seed)`.
//!
//! The scheduler (DESIGN.md §5g) coalesces outstanding silo requests
//! from many clients' queries into shared wire frames, retries and
//! resamples per rider, and finishes answers on a worker pool — none of
//! which may leak into a query's value. These tests pin that contract
//! through the public `fedra` API: K client threads race submissions in
//! scrambled order, and every answer has to match what a one-worker
//! `QueryEngine` produces for the same query under the same seed.
//!
//! `ci.sh` runs this suite under `FEDRA_SILO_THREADS={1,4}`; the builds
//! below auto-size their pools, so the override steers silo-side *and*
//! scheduler-side parallelism. The fault-plan test arms latency-only
//! injection, which perturbs timing and frame composition but must
//! never perturb bits.
//!
//! The driver-parity tests at the bottom add the sequential
//! `try_execute` path as a third column: under counter-driven faults the
//! three entry points pump one `QueryRun` state machine, so they must
//! agree on every answer, every error (trail included) and every walk
//! counter.

use std::sync::Arc;
use std::time::Duration;

use fedra::prelude::*;

const CLIENTS: usize = 8;

fn stand_up(seed: u64, faults: Option<FaultPlan>) -> (Arc<Federation>, Vec<FraQuery>) {
    stand_up_with(seed, &|builder| match &faults {
        Some(plan) => builder.fault_plan(plan.clone()),
        None => builder,
    })
}

fn stand_up_with(
    seed: u64,
    configure: &dyn Fn(FederationBuilder) -> FederationBuilder,
) -> (Arc<Federation>, Vec<FraQuery>) {
    let spec = WorkloadSpec::default()
        .with_total_objects(12_000)
        .with_silos(4)
        .with_seed(seed);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let builder = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .lsr_seed(seed ^ 0x15AF);
    let federation = Arc::new(configure(builder).build(dataset.into_partitions()));
    let mut generator = QueryGenerator::new(&all, seed ^ 0x5EED);
    let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg];
    let queries = generator
        .circles(2.0, 96)
        .iter()
        .enumerate()
        .map(|(i, r)| FraQuery::new(*r, funcs[i % funcs.len()]))
        .collect();
    (federation, queries)
}

fn query_seed(i: usize) -> u64 {
    0xC0_5EED ^ (i as u64).wrapping_mul(0x9E37_79B9)
}

/// Serial ground truth: a fresh one-worker engine per query, same seed.
fn serial_reference(
    federation: &Federation,
    queries: &[FraQuery],
    factory: &dyn Fn(u64) -> Box<dyn FraAlgorithm>,
) -> Vec<QueryResult> {
    queries
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let alg = factory(query_seed(i));
            let batch = QueryEngine::with_workers(alg.as_ref(), 1).execute_batch_with(
                federation,
                &queries[i..=i],
                &ObsContext::new(),
            );
            *batch.results[0].as_ref().expect("serial query answers")
        })
        .collect()
}

/// Drives `queries` through a scheduler with K racing client threads and
/// returns the answers in submission-index order.
fn concurrent_run(
    federation: &Arc<Federation>,
    queries: &[FraQuery],
    factory: impl Fn(u64) -> Box<dyn FraAlgorithm> + Send + Sync + 'static,
) -> Vec<QueryResult> {
    let sched = Arc::new(QueryScheduler::start(
        Arc::clone(federation),
        factory,
        SchedulerConfig::default(),
        Arc::new(ObsContext::new()),
    ));
    let mut results: Vec<Option<QueryResult>> = vec![None; queries.len()];
    let mut slots: Vec<(usize, &mut Option<QueryResult>)> =
        results.iter_mut().enumerate().collect();
    std::thread::scope(|scope| {
        // Client c owns every c-th query: interleaved ownership keeps all
        // clients submitting concurrently over the whole index range, so
        // frames coalesce riders from many clients.
        for (client, chunk) in chunks_by_stride(&mut slots, CLIENTS)
            .into_iter()
            .enumerate()
        {
            let sched = Arc::clone(&sched);
            scope.spawn(move || {
                let _ = client;
                for (i, slot) in chunk {
                    let ticket = sched
                        .submit(queries[i], query_seed(i), 0)
                        .expect("default class admits");
                    *slot = Some(ticket.wait().expect("scheduled query answers"));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all served"))
        .collect()
}

/// Splits `(index, slot)` pairs into `stride` interleaved groups.
fn chunks_by_stride<T>(slots: &mut Vec<T>, stride: usize) -> Vec<Vec<T>> {
    let mut groups: Vec<Vec<T>> = (0..stride).map(|_| Vec::new()).collect();
    for (i, slot) in slots.drain(..).enumerate() {
        groups[i % stride].push(slot);
    }
    groups
}

fn assert_bit_identical(got: &[QueryResult], want: &[QueryResult], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.value.to_bits(),
            w.value.to_bits(),
            "{what}: query {i} value diverged ({} vs {})",
            g.value,
            w.value
        );
        assert_eq!(g, w, "{what}: query {i} metadata diverged");
    }
}

#[test]
fn concurrent_clients_are_bit_identical_to_serial() {
    let (federation, queries) = stand_up(0xABE1, None);
    let serial = serial_reference(&federation, &queries, &|s| Box::new(IidEst::new(s)));
    let concurrent = concurrent_run(&federation, &queries, |s| Box::new(IidEst::new(s)));
    assert_bit_identical(&concurrent, &serial, "IidEst");
}

#[test]
fn mixed_algorithm_factory_is_bit_identical_to_serial() {
    // The factory picks the estimator from the seed, the way a serving
    // deployment might route query classes to different algorithms. The
    // contract is per-submission, so mixing must change nothing.
    let pick = |s: u64| -> Box<dyn FraAlgorithm> {
        if s % 2 == 0 {
            Box::new(IidEst::new(s))
        } else {
            Box::new(NonIidEst::new(s))
        }
    };
    let (federation, queries) = stand_up(0xABE2, None);
    let serial = serial_reference(&federation, &queries, &pick);
    let concurrent = concurrent_run(&federation, &queries, pick);
    assert_bit_identical(&concurrent, &serial, "mixed factory");
}

#[test]
fn equivalence_holds_with_an_armed_fault_plan() {
    // Latency-only injection: silo 1 answers slowly, which reshuffles
    // tick boundaries and frame composition (some queries ride alone,
    // some coalesce) but can never change an answer. Serial ground truth
    // runs over the same faulted federation so both sides pay the same
    // injected latency.
    let plan = FaultPlan::seeded(0xFA17).slow_silo(1, Duration::from_millis(2));
    let (federation, queries) = stand_up(0xABE3, Some(plan));
    let serial = serial_reference(&federation, &queries, &|s| Box::new(IidEst::new(s)));
    let concurrent = concurrent_run(&federation, &queries, |s| Box::new(IidEst::new(s)));
    assert_bit_identical(&concurrent, &serial, "slow-silo fault plan");
}

#[test]
fn repeated_concurrent_runs_agree_with_each_other() {
    // Two scheduler runs over the same federation race differently —
    // different tick boundaries, different frame coalescing — yet must
    // agree bit for bit because each (query, seed) is self-contained.
    let (federation, queries) = stand_up(0xABE4, None);
    let first = concurrent_run(&federation, &queries, |s| Box::new(IidEst::new(s)));
    let second = concurrent_run(&federation, &queries, |s| Box::new(IidEst::new(s)));
    assert_bit_identical(&second, &first, "run-to-run");
}

// ---------------------------------------------------------------------
// Driver parity: sequential vs one-worker engine vs scheduler
// ---------------------------------------------------------------------

/// The counters the candidate walk itself increments.
const WALK_COUNTERS: [&str; 4] = [
    "fedra_retries_total",
    "fedra_resamples_total",
    "fedra_degraded_total",
    "fedra_breaker_skipped_total",
];

type Outcome = Result<QueryResult, FraError>;

/// Runs the first `n` queries one at a time through one entry point —
/// sequential `try_execute_with`, one-query engine batches, or scheduler
/// submit-and-wait — on a freshly built federation, so every driver
/// meets the same frame counters (flap schedules count frames) and the
/// same breaker history. Returns the outcomes and the walk counters.
fn drive(
    driver: &str,
    seed: u64,
    n: usize,
    configure: &dyn Fn(FederationBuilder) -> FederationBuilder,
    prepare: &dyn Fn(&Federation),
) -> (Vec<Outcome>, Vec<u64>) {
    let (federation, queries) = stand_up_with(seed, configure);
    prepare(&federation);
    let factory = |s: u64| -> Box<dyn FraAlgorithm> { Box::new(IidEst::new(s)) };
    let obs = Arc::new(ObsContext::new());
    let queries = queries.iter().take(n).enumerate();
    let outcomes: Vec<Outcome> = match driver {
        "sequential" => queries
            .map(|(i, q)| factory(query_seed(i)).try_execute_with(&federation, q, &obs))
            .collect(),
        "engine" => queries
            .map(|(i, q)| {
                let alg = factory(query_seed(i));
                let engine = QueryEngine::with_workers(alg.as_ref(), 1);
                let batch = engine.execute_batch_with(&federation, std::slice::from_ref(q), &obs);
                batch.results[0].clone()
            })
            .collect(),
        _ => {
            let sched = QueryScheduler::start(
                Arc::clone(&federation),
                factory,
                SchedulerConfig::default(),
                Arc::clone(&obs),
            );
            queries
                .map(|(i, q)| sched.submit(*q, query_seed(i), 0).expect("admitted").wait())
                .collect()
        }
    };
    let counters = obs.snapshot().counters;
    let walk = WALK_COUNTERS
        .iter()
        .map(|name| counters.get(*name).copied().unwrap_or(0))
        .collect();
    (outcomes, walk)
}

/// Drives all three entry points and asserts they agree; returns the
/// shared column for scenario-specific checks.
fn assert_driver_parity(
    what: &str,
    seed: u64,
    n: usize,
    configure: &dyn Fn(FederationBuilder) -> FederationBuilder,
    prepare: &dyn Fn(&Federation),
) -> (Vec<Outcome>, Vec<u64>) {
    let reference = drive("sequential", seed, n, configure, prepare);
    for driver in ["engine", "scheduler"] {
        let (outcomes, walk) = drive(driver, seed, n, configure, prepare);
        for (i, (got, want)) in outcomes.iter().zip(&reference.0).enumerate() {
            if let (Ok(g), Ok(w)) = (got, want) {
                assert_eq!(
                    g.value.to_bits(),
                    w.value.to_bits(),
                    "{what}: {driver} query {i} value diverged"
                );
            }
            // Full equality: sampled_silo, rounds, coverage — or the
            // identical error, per-candidate trail included.
            assert_eq!(got, want, "{what}: {driver} query {i} diverged");
        }
        assert_eq!(
            walk, reference.1,
            "{what}: {driver} walk counters {WALK_COUNTERS:?} diverged"
        );
    }
    reference
}

#[test]
fn drivers_agree_around_a_failed_silo() {
    let (outcomes, _) = assert_driver_parity(
        "failed silo",
        0xABE5,
        48,
        &|b| b.health_config(HealthConfig::enabled()),
        &|federation| federation.set_silo_failed(2, true),
    );
    for outcome in &outcomes {
        let result = outcome.as_ref().expect("three healthy silos remain");
        assert_ne!(result.sampled_silo, Some(2), "answered by the failed silo");
    }
}

#[test]
fn drivers_agree_under_flapping_silos() {
    // Silo 1 refuses every second frame (one retry rescues the query);
    // silo 2 refuses three of every four, which outlasts the retry budget
    // (a resample) and trips the enabled breaker.
    let (outcomes, walk) = assert_driver_parity(
        "flapping silos",
        0xABE6,
        48,
        &|b| {
            b.fault_plan(
                FaultPlan::seeded(0xF1A9)
                    .flapping_silo(1, 2, 1)
                    .flapping_silo(2, 4, 3),
            )
            .health_config(HealthConfig::enabled())
        },
        &|_| {},
    );
    assert!(outcomes.iter().all(Result::is_ok), "estimators ride it out");
    assert!(walk[0] > 0, "no retry fired: the scenario is vacuous");
    assert!(walk[1] > 0, "no resample fired: the scenario is vacuous");
}

#[test]
fn drivers_agree_when_every_silo_is_down_and_the_floors_are_unmet() {
    // Every silo refuses every frame, and the policy demands a live silo:
    // the walk exhausts its candidates and the query fails with the
    // per-candidate trail — from every entry point, not only the
    // sequential one.
    let (outcomes, walk) = assert_driver_parity(
        "all silos down",
        0xABE7,
        12,
        &|b| {
            let all_down = (0..4).fold(FaultPlan::seeded(0xDEAD), |plan, k| {
                plan.flapping_silo(k, 1, 1)
            });
            b.fault_plan(all_down)
                .degrade_policy(DegradePolicy::Partial {
                    min_silos: 1,
                    min_coverage: 0.5,
                })
                .health_config(HealthConfig::enabled())
        },
        &|_| {},
    );
    match &outcomes[0] {
        Err(FraError::AllSilosUnavailable { errors }) => {
            assert!(!errors.is_empty(), "the error trail was dropped");
        }
        other => panic!("expected AllSilosUnavailable with a trail, got {other:?}"),
    }
    assert!(walk[2] > 0, "no walk degraded: the scenario is vacuous");
}
