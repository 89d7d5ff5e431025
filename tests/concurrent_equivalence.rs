//! Scheduler equivalence: answers served concurrently must be
//! **bit-identical** to serial execution of the same `(query, seed)`.
//!
//! The scheduler (DESIGN.md §5g) coalesces outstanding silo requests
//! from many clients' queries into shared wire frames, retries and
//! resamples per rider, and finishes answers on its driver thread — none
//! of which may leak into a query's value. These tests pin that contract
//! through the public `fedra` API: K client threads race submissions in
//! scrambled order, and every answer has to match what a one-query
//! `QueryEngine` batch produces for the same query under the same seed.
//!
//! `ci.sh` runs this suite under `FEDRA_SILO_THREADS={1,4}`; the builds
//! below auto-size their pools, so the override changes how many threads
//! build each silo's indexes (a silo serves on one thread either way),
//! which must not change a bit. The fault-plan test arms latency-only
//! injection, which perturbs timing and frame composition but must
//! never perturb bits.
//!
//! The driver-parity tests at the bottom add the sequential
//! `try_execute` path as a third column: under counter-driven faults the
//! three entry points pump one `QueryRun` state machine, so they must
//! agree on every answer, every error (trail included) and every walk
//! counter.
//!
//! The fan-out tests at the very bottom do the same for EXACT and OPTA,
//! whose `m` legs ride those rounds too: lone = batched = scheduled, the
//! batch pays `m` frames, and a scheduled burst coalesces.

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

/// Serial ground truth: a fresh engine per query, same seed.
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
            let batch = QueryEngine::per_silo(alg.as_ref(), federation).execute_batch_with(
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
        match s % 3 {
            0 => Box::new(IidEst::new(s)),
            1 => Box::new(NonIidEst::new(s)),
            _ => Box::new(NonIidEst::pooled(s, 2)),
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
// Driver parity: sequential vs one-query engine batches vs scheduler
// ---------------------------------------------------------------------

/// The counters the candidate walk itself increments.
const WALK_COUNTERS: [&str; 4] = [
    "fedra_retries_total",
    "fedra_resamples_total",
    "fedra_degraded_total",
    "fedra_breaker_skipped_total",
];

type Outcome = Result<QueryResult, FraError>;
type Factory = fn(u64) -> Box<dyn FraAlgorithm>;

/// Runs `queries` one at a time through one entry point — sequential
/// `try_execute_with`, one-query engine batches, or scheduler
/// submit-and-wait — with a fresh `factory(query_seed(i))` per query.
fn outcomes_through(
    driver: &str,
    federation: &Arc<Federation>,
    queries: &[FraQuery],
    factory: Factory,
    obs: &Arc<ObsContext>,
) -> Vec<Outcome> {
    let queries = queries.iter().enumerate();
    match driver {
        "sequential" => queries
            .map(|(i, q)| factory(query_seed(i)).try_execute_with(federation, q, obs))
            .collect(),
        "engine" => queries
            .map(|(i, q)| {
                let alg = factory(query_seed(i));
                let engine = QueryEngine::per_silo(alg.as_ref(), federation);
                let batch = engine.execute_batch_with(federation, std::slice::from_ref(q), obs);
                batch.results[0].clone()
            })
            .collect(),
        _ => {
            let sched = QueryScheduler::start(
                Arc::clone(federation),
                factory,
                SchedulerConfig::default(),
                Arc::clone(obs),
            );
            queries
                .map(|(i, q)| sched.submit(*q, query_seed(i), 0).expect("admitted").wait())
                .collect()
        }
    }
}

/// Runs the first `n` queries through [`outcomes_through`] with IID-est
/// on a freshly built federation, so every driver meets the same frame
/// counters (flap schedules count frames) and the same breaker history.
/// Returns the outcomes and the walk counters.
fn drive(
    driver: &str,
    seed: u64,
    n: usize,
    configure: &dyn Fn(FederationBuilder) -> FederationBuilder,
    prepare: &dyn Fn(&Federation),
) -> (Vec<Outcome>, Vec<u64>) {
    let (federation, queries) = stand_up_with(seed, configure);
    prepare(&federation);
    let obs = Arc::new(ObsContext::new());
    let iid: Factory = |s| Box::new(IidEst::new(s));
    let outcomes = outcomes_through(driver, &federation, &queries[..n], iid, &obs);
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

// ---------------------------------------------------------------------
// Fan-out parity: EXACT and OPTA's legs ride the same rounds
// ---------------------------------------------------------------------

const FAN_OUTS: [(&str, Factory); 2] = [
    ("EXACT", |_| Box::new(Exact::new())),
    ("OPTA", |_| Box::new(Opta::new())),
];

/// The first `n` queries of `queries`, cycling through all five functions.
fn with_every_function(queries: &[FraQuery], n: usize) -> Vec<FraQuery> {
    (0..n)
        .map(|i| FraQuery::new(queries[i].range, AggFunc::ALL[i % AggFunc::ALL.len()]))
        .collect()
}

#[test]
fn fan_out_drivers_agree_healthy_around_a_failed_silo_and_degraded() {
    let partial = DegradePolicy::Partial {
        min_silos: 1,
        min_coverage: 0.0,
    };
    let scenarios = [
        ("healthy", DegradePolicy::FailFast, None),
        ("failed silo, fail-fast", DegradePolicy::FailFast, Some(2)),
        ("failed silo, partial", partial, Some(2)),
    ];
    for (what, policy, down) in scenarios {
        let (federation, queries) = stand_up_with(0xABE8, &|b| b.degrade_policy(policy));
        let queries = with_every_function(&queries, 20);
        if let Some(silo) = down {
            federation.set_silo_failed(silo, true);
        }
        for (name, factory) in FAN_OUTS {
            let obs = Arc::new(ObsContext::new());
            let lone = outcomes_through("sequential", &federation, &queries, factory, &obs);
            for driver in ["engine", "scheduler"] {
                let got = outcomes_through(driver, &federation, &queries, factory, &obs);
                for (i, (got, want)) in got.iter().zip(&lone).enumerate() {
                    if let (Ok(g), Ok(w)) = (got, want) {
                        assert_eq!(
                            g.value.to_bits(),
                            w.value.to_bits(),
                            "{what}: {name} via {driver}, query {i} value diverged"
                        );
                    }
                    // Rounds and the coverage record — or the same error.
                    assert_eq!(got, want, "{what}: {name} via {driver}, query {i}");
                }
            }
            for (i, outcome) in lone.iter().enumerate() {
                match (down, policy.allows_partial(), outcome) {
                    (None, _, Ok(result)) => assert!(result.coverage.is_none()),
                    (Some(silo), false, Err(FraError::SiloFailed(error))) => {
                        assert_eq!(error.silo(), silo)
                    }
                    (Some(_), true, Ok(result)) => {
                        let coverage = result.coverage.expect("a degraded answer says so");
                        assert_eq!((coverage.responding, coverage.total), (3, 4));
                    }
                    other => panic!("{what}: {name} query {i}: unexpected {other:?}"),
                }
            }
        }
    }
}

#[test]
fn a_fan_out_batch_pays_m_frames_and_matches_query_for_query_execution() {
    let (federation, queries) = stand_up(0xABE9, None);
    let queries = with_every_function(&queries, 40);
    let m = federation.num_silos() as u64;
    for (name, factory) in FAN_OUTS {
        let alg = factory(0);
        federation.reset_query_comm();
        let batched =
            QueryEngine::per_silo(alg.as_ref(), &federation).execute_batch(&federation, &queries);
        let batched_comm = federation.query_comm();
        federation.reset_query_comm();
        let lone: Vec<QueryResult> = queries
            .iter()
            .map(|q| alg.try_execute(&federation, q).expect("healthy"))
            .collect();
        let lone_comm = federation.query_comm();
        // Same partials summed in the same order: identical answers...
        let batched: Vec<QueryResult> = batched.results.into_iter().map(Result::unwrap).collect();
        assert_bit_identical(&batched, &lone, name);
        // ...but one envelope per silo for the batch, not one per leg.
        assert_eq!(lone_comm.rounds, 40 * m, "{name}");
        assert_eq!(batched_comm.rounds, m, "{name}");
        assert!(
            batched_comm.total_bytes() < lone_comm.total_bytes() / 2,
            "{name}: batched {} bytes vs lone {} bytes",
            batched_comm.total_bytes(),
            lone_comm.total_bytes()
        );
    }
}

#[test]
fn a_scheduled_fan_out_burst_coalesces_and_never_runs_inside_the_plan_stage() {
    // Every EXACT query waits 20 ms on silo 1, so the first tick is still
    // out while the rest of the burst is submitted: the second tick must
    // put the burst's legs on shared frames.
    let plan = FaultPlan::seeded(0xFA18).slow_silo(1, Duration::from_millis(20));
    let (federation, queries) = stand_up(0xABEA, Some(plan));
    let queries = &queries[..32];
    let exact = Exact::new();
    let obs = Arc::new(ObsContext::new());
    let sched = QueryScheduler::start(
        Arc::clone(&federation),
        |_| Box::new(Exact::new()),
        SchedulerConfig::default(),
        Arc::clone(&obs),
    );
    let tickets: Vec<QueryTicket> = queries
        .iter()
        .map(|q| sched.submit(*q, 0, 0).expect("admitted"))
        .collect();
    for (ticket, q) in tickets.into_iter().zip(queries) {
        let got = ticket.wait().expect("scheduled EXACT answers");
        let want = exact
            .try_execute(&federation, q)
            .expect("lone EXACT answers");
        assert_eq!(got.value.to_bits(), want.value.to_bits());
        assert_eq!(got, want);
    }
    sched.shutdown();
    let snapshot = obs.snapshot();
    let riders = &snapshot.histograms["fedra_sched_frame_riders"];
    assert!(
        riders.sum > riders.count,
        "no frame carried two legs: {} riders on {} frames",
        riders.sum,
        riders.count
    );
    // A fan-out executed inside the plan stage would have come back as a
    // provider-side plan.
    assert_eq!(snapshot.counters.get("fedra_plan_ready_total"), None);
    let burst = queries.len() as u64;
    assert_eq!(
        snapshot.counters.get("fedra_plan_remote_total"),
        Some(&burst)
    );
}
