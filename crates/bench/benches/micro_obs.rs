//! Observability overhead guard on an IID-est engine batch (64 queries,
//! m = 4).
//!
//! The instrumented execution API promises that callers who pass
//! [`ObsContext::noop`] (which `execute_batch` does) pay only a disabled
//! branch per recording site. This bench holds that promise to a number:
//! the disabled path must stay within noise (≤ 3 %) of an uninstrumented
//! engine. Since the pre-observability engine no longer exists in-tree,
//! the guard bounds the overhead two independent ways:
//!
//! 1. **model** — time the disabled recording primitives directly
//!    (counter inc, histogram observe, trace start/span/finish) and
//!    multiply by a generous per-query site count; that product must be
//!    ≤ 3 % of the measured per-query batch time;
//! 2. **A/B** — the disabled path must not be slower than the *enabled*
//!    path beyond the same 3 % band (the enabled path does strictly more
//!    work, so this catches any accidental cost on the noop branch).
//!
//! Medians over interleaved rounds keep both checks stable on shared
//! machines. The enabled-path overhead is printed for context.

use std::hint::black_box;
use std::time::Instant;

use fedra_core::{FraAlgorithm, FraQuery, IidEst, QueryEngine};
use fedra_federation::FederationBuilder;
use fedra_index::AggFunc;
use fedra_obs::{ObsContext, Span};
use fedra_workload::{QueryGenerator, WorkloadSpec};

/// Interleaved A/B rounds (odd, so the median is a single sample).
const ROUNDS: usize = 21;
/// The acceptance bound: disabled-path overhead within noise.
const MAX_OVERHEAD: f64 = 0.03;
/// Disabled recording bundles modelled per query. One bundle is five
/// noop calls (inc + observe + start_trace + span + finish_trace); the
/// real planned path touches roughly a dozen sites per query, so four
/// bundles (twenty calls) over-counts it comfortably.
const BUNDLES_PER_QUERY: f64 = 4.0;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

fn main() {
    // 64 IID-est COUNT circles over 60k objects on four silos.
    let spec = WorkloadSpec::default()
        .with_total_objects(60_000)
        .with_silos(4)
        .with_seed(32);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let fed = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());
    let mut generator = QueryGenerator::new(&all, 33);
    let queries: Vec<FraQuery> = generator
        .circles(2.0, 64)
        .iter()
        .map(|r| FraQuery::new(*r, AggFunc::Count))
        .collect();

    let iid = IidEst::new(34);
    let engine = QueryEngine::per_silo(&iid, &fed);

    // Warm caches and the silo worker pools before timing anything.
    for _ in 0..3 {
        black_box(engine.execute_batch(&fed, &queries).failures());
    }

    let mut noop_ns = Vec::with_capacity(ROUNDS);
    let mut enabled_ns = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        black_box(engine.execute_batch(&fed, &queries).failures());
        noop_ns.push(start.elapsed().as_nanos() as f64);

        let obs = ObsContext::new();
        let start = Instant::now();
        black_box(engine.execute_batch_with(&fed, &queries, &obs).failures());
        enabled_ns.push(start.elapsed().as_nanos() as f64);
    }
    let noop = median(noop_ns);
    let enabled = median(enabled_ns);
    let per_query_ns = noop / queries.len() as f64;

    // Direct cost of the disabled recording primitives. Real call sites
    // pass constant metric names, so the names stay constant here too;
    // black-boxing the handle each round keeps the enabled-check load
    // (and thus the loop) alive without charging artificial costs.
    const CALLS: u64 = 1_000_000;
    let noop_obs = ObsContext::noop();
    let start = Instant::now();
    for i in 0..CALLS {
        let obs = black_box(noop_obs);
        obs.inc("fedra_guard_total");
        obs.observe("fedra_guard_ns", black_box(i));
        let trace = obs.start_trace("bench", "guard");
        let span = Span::enter(&trace, "noop");
        drop(span);
        obs.finish_trace(&trace);
    }
    let bundle_ns = start.elapsed().as_nanos() as f64 / CALLS as f64;
    let modeled_frac = BUNDLES_PER_QUERY * bundle_ns / per_query_ns;
    let ab_ratio = noop / enabled;

    println!(
        "micro_obs: IID-est batch of {} queries, m = 4, medians over {} interleaved rounds",
        queries.len(),
        ROUNDS
    );
    println!(
        "  disabled path {:>10.0} ns/batch ({:.0} ns/query)",
        noop, per_query_ns
    );
    println!(
        "  enabled path  {:>10.0} ns/batch (+{:.2} % instrumentation cost)",
        enabled,
        (enabled / noop - 1.0) * 100.0
    );
    println!(
        "  noop recording bundle: {:.2} ns → modelled disabled overhead {:.4} % of a query",
        bundle_ns,
        modeled_frac * 100.0
    );

    assert!(
        modeled_frac <= MAX_OVERHEAD,
        "disabled recording sites cost {:.2} % of a query (> {:.0} % budget)",
        modeled_frac * 100.0,
        MAX_OVERHEAD * 100.0
    );
    assert!(
        ab_ratio <= 1.0 + MAX_OVERHEAD,
        "disabled path slower than the enabled path by {:.2} % (> {:.0} % noise band)",
        (ab_ratio - 1.0) * 100.0,
        MAX_OVERHEAD * 100.0
    );
    println!(
        "  [ok] disabled-path overhead within the {:.0} % noise budget",
        MAX_OVERHEAD * 100.0
    );
    let _ = iid.name();
}
