//! Failure injection: what happens to FRA answers when silos go dark.
//!
//! ```text
//! cargo run --release --example resilience
//! ```
//!
//! The paper's estimators assume healthy silos; `fedra` extends them with
//! a resampling + degradation ladder:
//!
//! 1. healthy — sample one silo uniformly;
//! 2. some silos down — resample among the survivors (answers stay
//!    single-round, error grows slightly);
//! 3. all silos down — degrade to the provider-only grid estimate
//!    (no rounds, still bounded error from g₀);
//! 4. EXACT, by contrast, hard-fails the moment any silo is down.
//!
//! A second ladder exercises the *timing* faults: a seeded [`FaultPlan`]
//! makes one silo slow (hedged past the threshold) and one silo flap
//! (retried through its down windows), with the breaker state checked
//! for leaks at the end.

use std::time::Duration;

use fedra::prelude::*;

fn main() {
    let spec = WorkloadSpec::default()
        .with_total_objects(80_000)
        .with_silos(6)
        .with_seed(4242);
    let dataset = spec.generate();
    let federation = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());

    let query = FraQuery::circle(Point::new(0.0, -95.0), 2.5, AggFunc::Count);
    let truth = Exact::new().execute(&federation, &query).value;
    println!("query: {query}\nground truth: {truth}\n");

    let noniid = NonIidEst::new(1);
    let stages: [(&str, &[SiloId]); 4] = [
        ("all 6 silos healthy", &[]),
        ("2 silos down", &[1, 4]),
        ("5 silos down", &[0, 1, 2, 3, 4]),
        ("ALL silos down", &[0, 1, 2, 3, 4, 5]),
    ];

    println!(
        "{:>22} {:>14} {:>10} {:>8} {:>24}",
        "scenario", "NonIID-est", "rel.err", "rounds", "EXACT"
    );
    for (label, down) in stages {
        for &s in down {
            federation.set_silo_failed(s, true);
        }
        federation.reset_query_comm();
        let r = noniid.execute(&federation, &query);
        let rounds = federation.query_comm().rounds;
        let exact_outcome = match Exact::new().try_execute(&federation, &query) {
            Ok(x) => format!("{:.0}", x.value),
            Err(e) => truncate(&e.to_string(), 22),
        };
        println!(
            "{:>22} {:>14.1} {:>9.2}% {:>8} {:>24}",
            label,
            r.value,
            (r.value - truth).abs() / truth * 100.0,
            rounds,
            exact_outcome,
        );
        for &s in down {
            federation.set_silo_failed(s, false);
        }
    }

    println!(
        "\nnote: with every silo down the estimator answers from the grid\n\
         index alone (covered cells exact, boundary cells area-weighted) —\n\
         the dashboard stays up while the fleet reconnects."
    );

    chaos_stages();
}

/// Timing faults: a slow silo that trips the hedge threshold and a
/// flapping silo that refuses every other frame. A deterministic seed
/// makes the whole run reproducible.
fn chaos_stages() {
    let spec = WorkloadSpec::default()
        .with_total_objects(80_000)
        .with_silos(6)
        .with_seed(4242);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let federation = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .fault_plan(
            FaultPlan::seeded(4242)
                .slow_silo(0, Duration::from_millis(40))
                .flapping_silo(1, 2, 1),
        )
        .call_policy(CallPolicy {
            deadline: Some(Duration::from_secs(2)),
            hedge_after: Some(Duration::from_millis(10)),
        })
        .health_config(HealthConfig::enabled())
        .build(dataset.into_partitions());

    // Truth is computed with the chaos disarmed, then the plan goes live.
    let mut generator = QueryGenerator::new(&all, 99);
    let queries: Vec<FraQuery> = generator
        .circles(2.5, 60)
        .into_iter()
        .map(|r| FraQuery::new(r, AggFunc::Count))
        .collect();
    federation.set_faults_armed(false);
    let exact = Exact::new();
    let truths: Vec<f64> = queries
        .iter()
        .map(|q| exact.execute(&federation, q).value)
        .collect();
    federation.set_faults_armed(true);

    println!("\n--- timing faults (slow silo 0 at 40ms, flapping silo 1) ---");
    let alg = NonIidEst::new(7);
    let obs = ObsContext::new();
    federation.reset_query_comm();
    let batch =
        QueryEngine::per_silo(&alg, &federation).execute_batch_with(&federation, &queries, &obs);
    let worst = batch
        .results
        .iter()
        .zip(&truths)
        .filter(|(_, &t)| t >= 50.0)
        .map(|(r, &t)| r.as_ref().map(|r| r.relative_error(t)).unwrap_or(1.0))
        .fold(0.0f64, f64::max);
    let snap = obs.snapshot();
    let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!(
        "{} queries in {:?}: {} failed, worst rel.err {:.2}%",
        queries.len(),
        batch.wall_time,
        batch.failures(),
        worst * 100.0
    );
    println!(
        "hedges fired/won: {}/{}, retries: {}, resamples: {}, degraded: {}",
        get("fedra_hedges_fired_total"),
        get("fedra_hedges_won_total"),
        get("fedra_retries_total"),
        get("fedra_resamples_total"),
        get("fedra_degraded_total"),
    );
    for s in federation.health().snapshot() {
        println!(
            "silo {}: {} (ok {}, failed {}, opened {}x)",
            s.silo,
            s.state.label(),
            s.successes_total,
            s.failures_total,
            s.opened_total,
        );
    }
    // A breaker still open (or probing) after the run ended is a leak:
    // the ci chaos smoke greps for this exact line.
    println!("breaker leaks: {}", federation.health().non_closed().len());
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
