//! Failure-injection integration: the availability ladder the estimators
//! climb down as silos disappear, the hard-fail semantics of the fan-out
//! baselines, and what a fan-out's legs — and a pooled run's — inherit
//! from the candidate walk (deadline, transient retries, breaker).

use std::sync::mpsc;
use std::time::Duration;

use fedra::prelude::*;

fn testbed(seed: u64) -> (Federation, f64, FraQuery) {
    let spec = WorkloadSpec::default()
        .with_total_objects(30_000)
        .with_silos(5)
        .with_seed(seed);
    let dataset = spec.generate();
    let federation = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());
    let q = FraQuery::circle(Point::new(0.0, -95.0), 2.0, AggFunc::Count);
    let truth = Exact::new().execute(&federation, &q).value;
    assert!(truth > 100.0, "query must hit data: {truth}");
    (federation, truth, q)
}

#[test]
fn exact_and_opta_fail_fast_on_any_down_silo() {
    let (fed, _, q) = testbed(1);
    fed.set_silo_failed(2, true);
    assert!(matches!(
        Exact::new().try_execute(&fed, &q),
        Err(FraError::SiloFailed(_))
    ));
    assert!(matches!(
        Opta::new().try_execute(&fed, &q),
        Err(FraError::SiloFailed(_))
    ));
}

#[test]
fn estimators_survive_partial_outages() {
    let (fed, truth, q) = testbed(2);
    // Progressive outage: keep failing silos; the estimators must keep
    // answering with bounded error as long as one candidate remains.
    for down in 0..4 {
        fed.set_silo_failed(down, true);
        let r = NonIidEst::new(3 + down as u64).execute(&fed, &q);
        assert!(
            r.relative_error(truth) < 0.35,
            "with {} silos down: error {}",
            down + 1,
            r.relative_error(truth)
        );
        let r = IidEst::new(30 + down as u64).execute(&fed, &q);
        assert!(
            r.relative_error(truth) < 0.5,
            "IID with {} silos down: error {}",
            down + 1,
            r.relative_error(truth)
        );
    }
}

#[test]
fn estimators_degrade_to_grid_only_under_total_outage() {
    let (fed, truth, q) = testbed(3);
    for k in 0..fed.num_silos() {
        fed.set_silo_failed(k, true);
    }
    fed.reset_query_comm();
    let r = NonIidEst::new(4).execute(&fed, &q);
    assert!(r.sampled_silo.is_none());
    assert!(
        r.relative_error(truth) < 0.5,
        "grid-only degradation error {}",
        r.relative_error(truth)
    );
    // Dead silos still cost failed rounds (the resample attempts), but
    // the answer comes from provider state.
    let comm = fed.query_comm();
    assert!(comm.rounds <= fed.num_silos() as u64);
}

#[test]
fn recovery_restores_single_round_behavior() {
    let (fed, truth, q) = testbed(5);
    for k in 0..fed.num_silos() {
        fed.set_silo_failed(k, true);
    }
    let _ = NonIidEst::new(6).execute(&fed, &q);
    for k in 0..fed.num_silos() {
        fed.set_silo_failed(k, false);
    }
    fed.reset_query_comm();
    let r = NonIidEst::new(7).execute(&fed, &q);
    assert_eq!(fed.query_comm().rounds, 1);
    assert!(r.sampled_silo.is_some());
    assert!(r.relative_error(truth) < 0.3);
}

#[test]
fn batch_execution_tolerates_mid_batch_failures() {
    let spec = WorkloadSpec::default()
        .with_total_objects(20_000)
        .with_silos(4)
        .with_seed(8);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let fed = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());
    let mut generator = QueryGenerator::new(&all, 9);
    let queries: Vec<FraQuery> = generator
        .circles(2.0, 60)
        .into_iter()
        .map(|r| FraQuery::new(r, AggFunc::Count))
        .collect();

    fed.set_silo_failed(0, true);
    fed.set_silo_failed(1, true);
    let alg = IidEst::new(10);
    let engine = QueryEngine::per_silo(&alg, &fed);
    let batch = engine.execute_batch(&fed, &queries);
    assert_eq!(batch.failures(), 0, "estimators never fail a batch");
    // No answer may come from a failed silo.
    for r in &batch.results {
        if let Some(silo) = r.as_ref().unwrap().sampled_silo {
            assert!(silo >= 2, "answer came from failed silo {silo}");
        }
    }
}

/// Three silos' worth of the testbed data, with the given knobs.
fn fan_out_testbed(
    seed: u64,
    configure: &dyn Fn(FederationBuilder) -> FederationBuilder,
) -> (Federation, FraQuery) {
    let spec = WorkloadSpec::default()
        .with_total_objects(9_000)
        .with_silos(3)
        .with_seed(seed);
    let dataset = spec.generate();
    let builder = FederationBuilder::new(dataset.bounds()).grid_cell_len(1.0);
    let federation = configure(builder).build(dataset.into_partitions());
    let q = FraQuery::circle(Point::new(0.0, -95.0), 2.0, AggFunc::Count);
    (federation, q)
}

const PARTIAL: DegradePolicy = DegradePolicy::Partial {
    min_silos: 1,
    min_coverage: 0.0,
};

#[test]
fn fan_out_honours_the_call_deadline_on_a_silent_silo() {
    // Silo 1 swallows every request. Each run happens on its own thread
    // and is awaited with a generous timeout, so a fan-out that ignores
    // the deadline fails this test instead of hanging the suite.
    for partial in [false, true] {
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let silent = SiloFaultSpec {
                drop_prob: 1.0,
                ..Default::default()
            };
            let (fed, q) = fan_out_testbed(11, &|b| {
                let b = b
                    .fault_plan(FaultPlan::seeded(11).with_spec(1, silent))
                    .call_policy(CallPolicy {
                        deadline: Some(Duration::from_millis(100)),
                        ..Default::default()
                    });
                if partial {
                    b.degrade_policy(PARTIAL)
                } else {
                    b
                }
            });
            let outcomes = [
                Exact::new().try_execute(&fed, &q),
                Opta::new().try_execute(&fed, &q),
            ];
            let _ = done.send(outcomes);
        });
        let outcomes = outcome
            .recv_timeout(Duration::from_secs(60))
            .expect("a fan-out with a 100 ms deadline blocked on the silent silo");
        for outcome in outcomes {
            if partial {
                let coverage = outcome.expect("two silos answer").coverage;
                let coverage = coverage.expect("a degraded answer says so");
                assert_eq!((coverage.responding, coverage.total), (2, 3));
            } else {
                let missed = TransportError::DeadlineExceeded { silo: 1 };
                assert_eq!(outcome, Err(FraError::SiloFailed(missed)));
            }
        }
    }
}

#[test]
fn the_pooled_walk_honours_the_call_deadline_on_a_silent_silo() {
    // MultiSilo-est pooling all three silos, silo 1 silent. Its legs ride
    // the rounds under the federation's CallPolicy: silo 1's leg misses
    // its 100 ms deadline, the answer pools silos 0 and 2, and the misses
    // alone open silo 1's breaker. Awaited on a thread with a generous
    // timeout, so a walk that ignores the deadline fails this test
    // instead of hanging the suite.
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let silent = SiloFaultSpec {
            drop_prob: 1.0,
            ..Default::default()
        };
        let (fed, q) = fan_out_testbed(11, &|b| {
            b.fault_plan(FaultPlan::seeded(11).with_spec(1, silent))
                .call_policy(CallPolicy {
                    deadline: Some(Duration::from_millis(100)),
                    ..Default::default()
                })
                .health_config(HealthConfig::enabled())
        });
        let alg = NonIidEst::pooled(11, 3);
        let obs = ObsContext::new();
        // The default breaker opens after three consecutive failures.
        let outcomes: Vec<_> = (0..3)
            .map(|_| alg.try_execute_with(&fed, &q, &obs))
            .collect();
        let _ = done.send((outcomes, obs.snapshot().counters, fed.health().state(1)));
    });
    let (outcomes, counters, breaker) = outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("a pooled walk with a 100 ms deadline blocked on the silent silo");
    for outcome in outcomes {
        let answer = outcome.expect("silos 0 and 2 answer");
        assert!(answer.coverage.is_none());
        assert_ne!(answer.sampled_silo, Some(1));
    }
    let count = |name: &str| counters.get(name).copied();
    assert_eq!(count("fedra_sampled_silo_total{silo=\"0\"}"), Some(3));
    assert_eq!(count("fedra_sampled_silo_total{silo=\"2\"}"), Some(3));
    assert_eq!(count("fedra_sampled_silo_total{silo=\"1\"}"), None);
    assert_eq!(count("fedra_deadline_missed_total{silo=\"1\"}"), Some(3));
    assert_eq!(
        breaker,
        BreakerState::Open,
        "pooled traffic alone opens the breaker"
    );
}

#[test]
fn fan_out_retries_a_transient_refusal() {
    let (calm, q) = fan_out_testbed(12, &|b| b);
    let truth = Exact::new().execute(&calm, &q);
    // Silo 1 refuses every second request: one same-silo retry rescues
    // each query that meets a down window.
    let (fed, q) = fan_out_testbed(12, &|b| {
        b.fault_plan(FaultPlan::seeded(12).flapping_silo(1, 2, 1))
    });
    let obs = ObsContext::new();
    for i in 0..4 {
        let got = Exact::new()
            .try_execute_with(&fed, &q, &obs)
            .expect("the retry rides the flap out");
        assert_eq!(got.value.to_bits(), truth.value.to_bits(), "query {i}");
        assert!(got.coverage.is_none());
    }
    let retries = obs.snapshot().counters.get("fedra_retries_total").copied();
    assert!(retries > Some(0), "no retry fired: the scenario is vacuous");
}

#[test]
fn fan_out_traffic_alone_opens_the_breaker_skips_the_silo_and_recovers() {
    for partial in [false, true] {
        let (fed, q) = fan_out_testbed(13, &|b| {
            let b = b.health_config(HealthConfig::enabled());
            if partial {
                b.degrade_policy(PARTIAL)
            } else {
                b
            }
        });
        let m = fed.num_silos() as u64;
        let truth = Exact::new().execute(&fed, &q);
        let obs = ObsContext::new();
        fed.set_silo_failed(1, true);
        // Every query meets the failing silo; once its breaker is open,
        // some query must be answered (or failed) without calling it.
        let mut skipped = 0;
        for _ in 0..40 {
            let before = fed.query_comm().rounds;
            let outcome = Exact::new().try_execute_with(&fed, &q, &obs);
            let sent = fed.query_comm().rounds - before;
            match outcome {
                Ok(result) => {
                    assert!(partial, "fail-fast answered around a failed silo");
                    let coverage = result.coverage.expect("a degraded answer says so");
                    assert_eq!((coverage.responding, coverage.total), (2, 3));
                }
                Err(FraError::SiloFailed(error)) => {
                    assert!(!partial, "Partial failed a query two silos answered");
                    assert_eq!(error.silo(), 1);
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
            if sent == m - 1 {
                skipped += 1;
            }
        }
        assert_eq!(fed.health().non_closed(), vec![1], "breaker never opened");
        assert!(skipped > 0, "no query skipped the open silo");
        let counted = obs.snapshot().counters["fedra_breaker_skipped_total"];
        assert_eq!(counted, skipped, "skips and unsent legs disagree");

        // Recovery: the legs' own probe draws half-open the breaker and
        // the first probe that answers closes it.
        fed.set_silo_failed(1, false);
        let healed = (0..400).any(|_| {
            let _ = Exact::new().try_execute_with(&fed, &q, &obs);
            fed.health().non_closed().is_empty()
        });
        assert!(healed, "breaker leaked: {:?}", fed.health().non_closed());
        let after = Exact::new().try_execute(&fed, &q).expect("healthy again");
        assert_eq!(after, truth);
    }
}

#[test]
fn estimators_degrade_through_one_path_when_no_candidate_is_left() {
    // Every in-range silo taken away two ways: failure flags, or open
    // breakers that admit no probe — then `failed_silos()` is empty and
    // only the in-range mass says the answer cannot be exact.
    let partial = |min_silos| DegradePolicy::Partial {
        min_silos,
        min_coverage: 0.0,
    };
    let estimators: [fn() -> Box<dyn FraAlgorithm>; 3] = [
        || Box::new(IidEst::new(41)),
        || Box::new(NonIidEst::new(42)),
        || Box::new(NonIidEst::pooled(43, 2)),
    ];
    for policy in [DegradePolicy::FailFast, partial(0), partial(1)] {
        for breaker in [false, true] {
            let (fed, q) = fan_out_testbed(14, &|b| {
                let b = b.degrade_policy(policy);
                if !breaker {
                    return b;
                }
                b.health_config(HealthConfig {
                    breaker_enabled: true,
                    probe_probability: 0.0,
                })
            });
            let m = fed.num_silos();
            for k in 0..m {
                if breaker {
                    // Three consecutive failures open a breaker.
                    for _ in 0..3 {
                        fed.health().record_failure(k);
                    }
                } else {
                    fed.set_silo_failed(k, true);
                }
            }
            assert_eq!(fed.failed_silos().is_empty(), breaker);
            let grid_only = fedra::core::helpers::grid_estimate(fed.merged_grid(), &q.range);
            let grid_only = QueryResult::from_aggregate(grid_only, q.func).value;
            for make in estimators {
                let estimator = make();
                let what = format!("{}, breaker {breaker}, {policy:?}", estimator.name());
                let obs = ObsContext::new();
                let outcome = estimator.try_execute_with(&fed, &q, &obs);
                match (policy, outcome) {
                    (DegradePolicy::FailFast, Ok(answer)) => {
                        assert_eq!(answer.value.to_bits(), grid_only.to_bits(), "{what}");
                        assert_eq!(answer.coverage, None, "{what}");
                    }
                    (DegradePolicy::Partial { min_silos: 0, .. }, Ok(answer)) => {
                        let coverage = answer.coverage.expect("a degraded answer says so");
                        assert_eq!((coverage.responding, coverage.total), (0, m), "{what}");
                        let counters = obs.snapshot().counters;
                        assert_eq!(counters["fedra_degraded_answers_total"], 1, "{what}");
                    }
                    (_, Err(FraError::AllSilosUnavailable { .. })) if policy == partial(1) => {}
                    (_, outcome) => panic!("{what}: unexpected {outcome:?}"),
                }
                let degraded = obs.snapshot().counters.get("fedra_degraded_total").copied();
                assert_eq!(degraded, Some(1), "{what}: fedra_degraded_total");
            }
        }
    }
}

/// A request no well-behaved provider sends: an LSR mode naming a level
/// deeper than 63, or a grid no `GridSpec` accepts. On either backend each
/// answers a typed error — the level refusal at decode, the handler panic
/// as a caught `Remote` error — and the silo goes on serving.
#[test]
fn a_hostile_request_fails_typed_and_the_silo_keeps_serving() {
    let spec = WorkloadSpec::default()
        .with_total_objects(6_000)
        .with_silos(2)
        .with_seed(3);
    let dataset = spec.generate();
    let bounds = dataset.bounds();
    let range = Range::circle(Point::new(0.0, -95.0), 2.0);
    let lsr = |level| fedra::federation::LocalMode::Lsr { level };
    let hostile = [
        (
            fedra::federation::Request::Aggregate {
                range,
                mode: lsr(64),
            },
            "local mode level",
        ),
        (
            fedra::federation::Request::CellContributions {
                range,
                mode: lsr(255),
            },
            "local mode level",
        ),
        (
            fedra::federation::Request::Setup(SiloSpec {
                cell_len: -1.0,
                ..FederationBuilder::new(bounds).silo_spec(0)
            }),
            "silo spec grid",
        ),
    ];
    for backend in [TransportBackend::InMemory, TransportBackend::Socket] {
        let fed = FederationBuilder::new(bounds)
            .transport_backend(backend)
            .build(dataset.partitions().to_vec());
        for (request, why) in &hostile {
            match fed.call(0, request) {
                Err(TransportError::Remote { silo: 0, message }) => {
                    assert!(message.contains(why), "{backend:?}: {message}")
                }
                other => panic!("{backend:?}: {request:?} answered {other:?}"),
            }
            assert_eq!(
                fed.call(0, &fedra::federation::Request::Ping).ok(),
                Some(fedra::federation::Response::Pong),
                "{backend:?}: silo 0 after {request:?}"
            );
        }
        let q = FraQuery::circle(Point::new(0.0, -95.0), 2.0, AggFunc::Count);
        let answer = Exact::new()
            .try_execute(&fed, &q)
            .expect("every silo serves");
        assert!(answer.value > 0.0, "{backend:?}: {answer:?}");
    }
}

/// A batch rider whose bytes parse but whose LSR level is out of its domain fails
/// alone: its frame-mates are served, on either backend, while the wire
/// bytes stay what the encoder wrote.
#[test]
fn a_hostile_batch_rider_fails_alone_and_its_frame_mates_are_served() {
    use fedra::federation::{LocalMode, Request, Response};
    let spec = WorkloadSpec::default()
        .with_total_objects(2_000)
        .with_silos(1)
        .with_seed(5);
    let dataset = spec.generate();
    let hostile = Request::Aggregate {
        range: Range::circle(Point::new(0.0, -95.0), 2.0),
        mode: LocalMode::Lsr { level: 64 },
    };
    let riders = [(0, &Request::Ping), (1, &hostile), (2, &Request::Ping)];
    for backend in [TransportBackend::InMemory, TransportBackend::Socket] {
        let fed = FederationBuilder::new(dataset.bounds())
            .transport_backend(backend)
            .build(dataset.partitions().to_vec());
        let replies = fed
            .channel(0)
            .begin_frame(&riders, None)
            .and_then(|frame| frame.wait())
            .unwrap_or_else(|e| panic!("{backend:?}: the frame failed whole: {e}"));
        assert_eq!(replies.len(), 3, "{backend:?}");
        assert_eq!(replies[0], (0, Ok(Response::Pong)), "{backend:?}");
        match &replies[1] {
            (1, Err(TransportError::Remote { silo: 0, message })) => {
                assert!(
                    message.contains("local mode level"),
                    "{backend:?}: {message}"
                )
            }
            other => panic!("{backend:?}: the hostile rider answered {other:?}"),
        }
        assert_eq!(replies[2], (2, Ok(Response::Pong)), "{backend:?}");
    }
}
