//! The driver layer on its own: what the provider thread spends per rider
//! of a 250-query batch when the silos are near free.
//!
//! Six silos hold 200 objects each, so a silo answers a rider in a few
//! hundred nanoseconds and the batch's cost is the driver's own: admit
//! (plan, or lay out the fan-out legs), dispatch, encode, frame sends,
//! decode, feed and finish or join. EXACT rides every query to all six
//! silos (1 500 riders a batch); NonIID-est rides one sampled silo per
//! query. The CPU time is the calling thread's own, read from
//! `/proc/thread-self/schedstat`, so the silo worker threads are not
//! counted; where that file does not exist the bench reports wall time
//! instead and says so. A rider is one item a silo served
//! (`Federation::served_per_silo`). Medians over interleaved rounds;
//! prints figures, asserts nothing.
//!
//! ```text
//! cargo bench -q -p fedra-bench --bench micro_driver
//! ```

use std::hint::black_box;
use std::time::Instant;

use fedra_core::{Exact, FraAlgorithm, FraQuery, NonIidEst, QueryEngine};
use fedra_federation::{Federation, FederationBuilder};
use fedra_index::AggFunc;
use fedra_workload::{QueryGenerator, WorkloadSpec};

const SILOS: usize = 6;
const OBJECTS_PER_SILO: usize = 200;
const BATCH: usize = 250;
/// Interleaved rounds (odd, so the median is one sample).
const ROUNDS: usize = 15;
const BATCHES_PER_ROUND: usize = 40;

/// CPU time the calling thread has run, in ns (Linux only).
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One round's figures for one algorithm.
struct Sample {
    /// Provider-thread ns per rider (wall ns without a CPU clock).
    per_rider_ns: f64,
    riders_per_query: f64,
    wall_us_per_batch: f64,
}

fn round(federation: &Federation, algorithm: &dyn FraAlgorithm, queries: &[FraQuery]) -> Sample {
    let engine = QueryEngine::per_silo(algorithm, federation);
    let served = |f: &Federation| f.served_per_silo().iter().sum::<u64>();
    let served_before = served(federation);
    let cpu_before = thread_cpu_ns();
    let started = Instant::now();
    for _ in 0..BATCHES_PER_ROUND {
        black_box(engine.execute_batch(federation, queries).failures());
    }
    let wall_ns = started.elapsed().as_nanos() as f64;
    let spent_ns = match (cpu_before, thread_cpu_ns()) {
        (Some(before), Some(after)) => (after - before) as f64,
        _ => wall_ns,
    };
    let riders = (served(federation) - served_before) as f64;
    let batched_queries = (BATCHES_PER_ROUND * queries.len()) as f64;
    Sample {
        per_rider_ns: spent_ns / riders.max(1.0),
        riders_per_query: riders / batched_queries,
        wall_us_per_batch: wall_ns / 1e3 / BATCHES_PER_ROUND as f64,
    }
}

fn main() {
    let spec = WorkloadSpec::default()
        .with_total_objects(SILOS * OBJECTS_PER_SILO)
        .with_silos(SILOS)
        .with_seed(61);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let federation = FederationBuilder::new(dataset.bounds()).build(dataset.into_partitions());
    let queries: Vec<FraQuery> = QueryGenerator::new(&all, 62)
        .circles(2.0, BATCH)
        .iter()
        .map(|range| FraQuery::new(*range, AggFunc::Count))
        .collect();

    let exact = Exact::new();
    let noniid = NonIidEst::new(63);
    let algorithms: [&dyn FraAlgorithm; 2] = [&exact, &noniid];
    // Warm the silo threads, the allocator and the caches.
    for algorithm in algorithms {
        round(&federation, algorithm, &queries);
    }
    let mut samples: [Vec<Sample>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..ROUNDS {
        for (samples, algorithm) in samples.iter_mut().zip(algorithms) {
            samples.push(round(&federation, algorithm, &queries));
        }
    }

    let clock = if thread_cpu_ns().is_some() {
        "provider-thread CPU"
    } else {
        "wall time (no per-thread CPU clock on this platform)"
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "micro_driver: {BATCH}-query batches over {SILOS} silos x {OBJECTS_PER_SILO} objects, \
         {clock}, medians over {ROUNDS} rounds of {BATCHES_PER_ROUND} batches, {cores} cores"
    );
    for (samples, algorithm) in samples.into_iter().zip(algorithms) {
        let riders = median(samples.iter().map(|s| s.riders_per_query).collect());
        let per_rider = median(samples.iter().map(|s| s.per_rider_ns).collect());
        let wall = median(samples.iter().map(|s| s.wall_us_per_batch).collect());
        println!(
            "  {:<11} {riders:>5.2} riders/query  {per_rider:>7.0} ns/rider  \
             {:>7.0} ns/query  {wall:>8.0} us/batch wall",
            algorithm.name(),
            per_rider * riders,
        );
    }
}
