//! Seeded chaos soak: the estimators must survive a mixed fault plan —
//! one slow silo (beyond the hedge threshold) plus one flapping silo —
//! inside the deadline budget, with bounded error, reconciled counters,
//! and reproducible results.
//!
//! Three contracts are pinned here:
//!
//! * **Envelope**: under chaos, every query still answers within the
//!   Lemma-1-style error envelope the failure-injection tests use.
//! * **Reconciliation**: retry/hedge/resample counters account for every
//!   silo request, and the obs comm mirror matches the transport's own
//!   byte counters bit for bit.
//! * **Determinism**: timing-free fault plans (flap schedules, no
//!   injected latency, no hedging) are bit-identical across silo pool
//!   sizes, and a *disarmed* fault plan is bit-identical to a build with
//!   no plan at all.

use std::time::Duration;

use fedra::prelude::*;

fn generate(seed: u64) -> (fedra::workload::Dataset, Vec<SpatialObject>) {
    let spec = WorkloadSpec::default()
        .with_total_objects(30_000)
        .with_silos(6)
        .with_seed(seed);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    (dataset, all)
}

fn count_queries(all: &[SpatialObject], n: usize, seed: u64) -> Vec<FraQuery> {
    let mut generator = QueryGenerator::new(all, seed);
    generator
        .circles(2.0, n)
        .into_iter()
        .map(|r| FraQuery::new(r, AggFunc::Count))
        .collect()
}

fn counter_sum_with_prefix(snapshot: &MetricsSnapshot, prefix: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn chaos_soak_stays_within_the_error_envelope() {
    let (dataset, all) = generate(0xC0A5);
    let fed = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .lsr_seed(99)
        .fault_plan(
            FaultPlan::seeded(7)
                .slow_silo(0, Duration::from_millis(40))
                // Every second frame refused, starting with the first
                // (phase 1): silo 1 is certain to see a first frame, not a
                // second, so only this phase makes the flap a given.
                .with_spec(
                    1,
                    SiloFaultSpec {
                        flap: Some(FlapSchedule {
                            period: 2,
                            down: 1,
                            phase: 1,
                        }),
                        ..Default::default()
                    },
                ),
        )
        .call_policy(CallPolicy {
            deadline: Some(Duration::from_secs(2)),
            hedge_after: Some(Duration::from_millis(10)),
        })
        .health_config(HealthConfig::enabled())
        .build(dataset.into_partitions());
    let queries = count_queries(&all, 250, 17);
    assert_eq!(queries.len(), 250);

    // Ground truth with the chaos disarmed (EXACT hard-fails under
    // flaps, and must not advance the injector sequences).
    fed.set_faults_armed(false);
    let exact = Exact::new();
    let truths: Vec<f64> = queries
        .iter()
        .map(|q| exact.execute(&fed, q).value)
        .collect();
    fed.set_faults_armed(true);

    let alg = NonIidEst::new(41);
    let obs = ObsContext::new();
    fed.reset_query_comm();
    let started = std::time::Instant::now();
    let batch = QueryEngine::per_silo(&alg, &fed).execute_batch_with(&fed, &queries, &obs);
    let wall = started.elapsed();
    assert_eq!(batch.failures(), 0, "estimators never fail under chaos");

    // Every query answers inside the deadline budget — the whole soak
    // must not look like 250 sequential 40 ms stalls.
    assert!(
        wall < Duration::from_secs(30),
        "soak took {wall:?}: hedging did not mask the slow silo"
    );
    for (i, (r, truth)) in batch.results.iter().zip(&truths).enumerate() {
        let r = r.as_ref().expect("no per-query failures");
        // The envelope is relative for queries with enough mass; for
        // near-empty ranges (a handful of objects) relative error is
        // noise, so bound the absolute miss instead.
        assert!(
            r.relative_error(*truth) < 0.35 || (r.value - truth).abs() < 25.0,
            "query {i}: error {} (truth {truth})",
            r.relative_error(*truth)
        );
    }

    let snap = obs.snapshot();
    let hedges_fired = counter(&snap, "fedra_hedges_fired_total");
    let hedges_won = counter(&snap, "fedra_hedges_won_total");
    let retries = counter(&snap, "fedra_retries_total");
    let resamples = counter(&snap, "fedra_resamples_total");
    let requests = counter_sum_with_prefix(&snap, "fedra_silo_requests_total");

    // The slow silo overruns the 10 ms hedge threshold every time it is
    // someone's first candidate, so hedges fired. The flapping silo
    // refuses its very first frame, and the walk leaves that frame's
    // riders two ways out whoever wins the race: the refusal is read in
    // time and they retry, or it is not, they hedge past it, and a hedge
    // answers them.
    assert!(hedges_fired > 0, "slow silo never triggered a hedge");
    assert!(
        retries > 0 || hedges_won > 0,
        "flapping silo triggered neither a retry nor a won hedge"
    );
    assert!(hedges_won <= hedges_fired, "{hedges_won} > {hedges_fired}");

    // Request accounting: every planned query fires at least its first
    // frame, and every extra frame is a recorded retry, hedge, or
    // resample (some re-fires are won by a parked primary first, hence
    // the upper bound).
    assert_eq!(counter(&snap, "fedra_plan_remote_total"), 250);
    assert!(requests >= 250, "{requests} < 250");
    assert!(
        requests <= 250 + retries + hedges_fired + resamples,
        "{requests} requests exceed 250 + {retries} retries + {hedges_fired} hedges + {resamples} resamples"
    );
    // Every query resolved exactly one way: a sampled silo or the
    // grid-only degradation.
    let sampled = counter_sum_with_prefix(&snap, "fedra_sampled_silo_total");
    let degraded = counter(&snap, "fedra_degraded_total");
    assert_eq!(sampled + degraded, 250);
    assert_eq!(counter(&snap, "fedra_queries_total"), 250);

    // The obs comm mirror matches the transport's own accounting bit for
    // bit, chaos or not.
    let mirrored = obs.comm_snapshot();
    let transport = fed.query_comm();
    assert_eq!(mirrored.bytes_up, transport.bytes_up);
    assert_eq!(mirrored.bytes_down, transport.bytes_down);
    assert_eq!(mirrored.rounds, transport.rounds);
}

#[test]
fn deterministic_faults_are_bit_identical_across_pool_sizes() {
    // Flap schedules are pure counters — no clocks, no RNG on the worker
    // side — and without hedging or deadlines the engine's control flow
    // never consults wall time. Pool size must then trade wall-clock
    // only, exactly like the healthy-path equivalence suite.
    let run = |threads: usize| -> (Vec<u64>, std::collections::BTreeMap<String, u64>) {
        let (dataset, all) = generate(0xD1CE);
        let fed = FederationBuilder::new(dataset.bounds())
            .grid_cell_len(1.0)
            .lsr_seed(99)
            .silo_threads(threads)
            .fault_plan(FaultPlan::seeded(11).flapping_silo(1, 3, 1))
            .health_config(HealthConfig::enabled())
            .build(dataset.into_partitions());
        let queries = count_queries(&all, 120, 23);
        let alg = NonIidEst::new(5);
        let obs = ObsContext::new();
        let batch = QueryEngine::per_silo(&alg, &fed).execute_batch_with(&fed, &queries, &obs);
        assert_eq!(batch.failures(), 0);
        let bits = batch
            .results
            .iter()
            .map(|r| r.as_ref().expect("no failures").value.to_bits())
            .collect();
        (bits, obs.snapshot().counters)
    };
    let (reference_bits, reference_counters) = run(1);
    let (bits, counters) = run(4);
    assert_eq!(bits, reference_bits, "answers diverged across pool sizes");
    assert_eq!(
        counters, reference_counters,
        "retry/resample accounting diverged across pool sizes"
    );
}

#[test]
fn disarmed_fault_plan_matches_the_unfaulted_build_bit_for_bit() {
    let queries_for = |all: &[SpatialObject]| count_queries(all, 120, 29);

    let (dataset, all) = generate(0xFA57);
    let plain = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .lsr_seed(99)
        .build(dataset.into_partitions());
    let alg = IidEst::new(42);
    let reference: Vec<u64> = QueryEngine::per_silo(&alg, &plain)
        .execute_batch(&plain, &queries_for(&all))
        .results
        .iter()
        .map(|r| r.as_ref().expect("healthy batch").value.to_bits())
        .collect();

    // Same data, same seeds, full chaos configuration — but disarmed.
    // The deadline/hedge machinery idles (a parked primary still wins its
    // race) and the breaker stays closed, so the answers are the same
    // bits as a build that never heard of fault plans.
    let (dataset, all) = generate(0xFA57);
    let chaotic = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .lsr_seed(99)
        .fault_plan(
            FaultPlan::seeded(7)
                .slow_silo(0, Duration::from_millis(400))
                .flapping_silo(1, 2, 1),
        )
        .call_policy(CallPolicy {
            deadline: Some(Duration::from_secs(2)),
            hedge_after: Some(Duration::from_millis(250)),
        })
        .health_config(HealthConfig::enabled())
        .build(dataset.into_partitions());
    chaotic.set_faults_armed(false);
    let alg = IidEst::new(42);
    let got: Vec<u64> = QueryEngine::per_silo(&alg, &chaotic)
        .execute_batch(&chaotic, &queries_for(&all))
        .results
        .iter()
        .map(|r| r.as_ref().expect("healthy batch").value.to_bits())
        .collect();
    assert_eq!(got, reference, "a disarmed fault plan changed the answers");
}
