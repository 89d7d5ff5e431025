//! Healthy-path overhead guard for the fault-tolerance machinery.
//!
//! The deadline/hedge/breaker layer promises to be pay-for-what-you-use:
//! a federation with a full resilience configuration — deadline budget,
//! hedge threshold, enabled breaker, an attached (but disarmed) fault
//! plan — must answer a healthy IID-est batch within noise (≤ 3 %) of
//! the default build, whose frames take the exact pre-deadline wait
//! path. Medians over interleaved rounds keep the comparison stable on
//! shared machines.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fedra_core::{FraQuery, IidEst, QueryEngine};
use fedra_federation::{CallPolicy, FaultPlan, Federation, FederationBuilder, HealthConfig};
use fedra_index::AggFunc;
use fedra_workload::{QueryGenerator, WorkloadSpec};

/// Interleaved A/B rounds (odd, so the median is a single sample).
const ROUNDS: usize = 21;
/// The acceptance bound: resilience-machinery overhead within noise.
const MAX_OVERHEAD: f64 = 0.03;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

fn build(with_resilience: bool) -> Federation {
    // The exact IID-est batch workload micro_obs times.
    let spec = WorkloadSpec::default()
        .with_total_objects(60_000)
        .with_silos(4)
        .with_seed(32);
    let dataset = spec.generate();
    let mut builder = FederationBuilder::new(dataset.bounds()).grid_cell_len(1.0);
    if with_resilience {
        builder = builder
            .fault_plan(
                FaultPlan::seeded(7)
                    .slow_silo(0, Duration::from_millis(40))
                    .flapping_silo(1, 2, 1),
            )
            .call_policy(CallPolicy {
                deadline: Some(Duration::from_secs(2)),
                hedge_after: Some(Duration::from_millis(25)),
            })
            .health_config(HealthConfig::enabled());
    }
    builder.build(dataset.into_partitions())
}

fn main() {
    let plain = build(false);
    let guarded = build(true);
    // Healthy-path means healthy: the plan stays attached (its per-frame
    // armed check is part of the measured cost) but injects nothing.
    guarded.set_faults_armed(false);

    let spec = WorkloadSpec::default()
        .with_total_objects(60_000)
        .with_silos(4)
        .with_seed(32);
    let all = spec.generate().all_objects();
    let mut generator = QueryGenerator::new(&all, 33);
    let queries: Vec<FraQuery> = generator
        .circles(2.0, 64)
        .iter()
        .map(|r| FraQuery::new(*r, AggFunc::Count))
        .collect();

    let iid = IidEst::new(34);
    let plain_engine = QueryEngine::per_silo(&iid, &plain);
    let iid_guarded = IidEst::new(34);
    let guarded_engine = QueryEngine::per_silo(&iid_guarded, &guarded);

    // Warm caches and the silo worker pools before timing anything.
    for _ in 0..3 {
        black_box(plain_engine.execute_batch(&plain, &queries).failures());
        black_box(guarded_engine.execute_batch(&guarded, &queries).failures());
    }

    let mut plain_ns = Vec::with_capacity(ROUNDS);
    let mut guarded_ns = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        black_box(plain_engine.execute_batch(&plain, &queries).failures());
        plain_ns.push(start.elapsed().as_nanos() as f64);

        let start = Instant::now();
        black_box(guarded_engine.execute_batch(&guarded, &queries).failures());
        guarded_ns.push(start.elapsed().as_nanos() as f64);
    }
    let plain_med = median(plain_ns);
    let guarded_med = median(guarded_ns);
    let ratio = guarded_med / plain_med;

    println!(
        "micro_faults: IID-est batch of {} queries, m = 4, medians over {} interleaved rounds",
        queries.len(),
        ROUNDS
    );
    println!(
        "  default policy      {:>10.0} ns/batch ({:.0} ns/query)",
        plain_med,
        plain_med / queries.len() as f64
    );
    println!(
        "  deadline + breaker  {:>10.0} ns/batch ({:+.2} % overhead)",
        guarded_med,
        (ratio - 1.0) * 100.0
    );

    assert!(
        ratio <= 1.0 + MAX_OVERHEAD,
        "healthy-path deadline/breaker checks cost {:.2} % (> {:.0} % budget)",
        (ratio - 1.0) * 100.0,
        MAX_OVERHEAD * 100.0
    );
    println!(
        "  [ok] resilience machinery within the {:.0} % noise budget on the healthy path",
        MAX_OVERHEAD * 100.0
    );
}
