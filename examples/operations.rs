//! Operations features: warm restarts and result caching.
//!
//! ```text
//! cargo run --release --example operations
//! ```
//!
//! Two extensions `fedra` adds on top of the paper for day-2 operation of
//! a federated aggregation service:
//!
//! 1. **Warm restarts** — the provider snapshots its Alg. 1 grid state to
//!    disk; after a restart, silos only return checksums instead of full
//!    cell vectors, collapsing setup traffic. Silos whose data changed
//!    are detected and re-transferred automatically.
//! 2. **Result caching** — rush-hour bursts repeat the same hot stations;
//!    a TTL + LRU cache in front of any algorithm answers repeats without
//!    touching the federation.

use std::time::Duration;

use fedra::federation::ProviderSnapshot;
use fedra::prelude::*;

fn main() {
    let spec = WorkloadSpec::default()
        .with_total_objects(100_000)
        .with_silos(6)
        .with_seed(777);
    let dataset = spec.generate();
    let bounds = dataset.bounds();
    let partitions = dataset.partitions().to_vec();

    // ---- 1. cold start + snapshot ------------------------------------
    println!("== warm restarts ==\n");
    let cold = FederationBuilder::new(bounds)
        .grid_cell_len(1.0)
        .build(partitions.clone());
    let cold_setup = cold.setup_comm();
    println!(
        "cold start : {:>8.1} KB setup traffic ({} rounds)",
        cold_setup.total_bytes() as f64 / 1024.0,
        cold_setup.rounds
    );

    let snapshot_path = std::env::temp_dir().join("fedra-operations-example.snap");
    cold.snapshot()
        .save_to(&snapshot_path)
        .expect("save snapshot");
    println!(
        "snapshot   : {:>8.1} KB on disk at {}",
        std::fs::metadata(&snapshot_path).unwrap().len() as f64 / 1024.0,
        snapshot_path.display()
    );
    drop(cold);

    // ---- provider restarts -------------------------------------------
    let snapshot = ProviderSnapshot::load_from(&snapshot_path).expect("load snapshot");
    let warm = FederationBuilder::new(bounds)
        .grid_cell_len(1.0)
        .warm_start(snapshot)
        .build(partitions.clone());
    let warm_setup = warm.setup_comm();
    println!(
        "warm start : {:>8.1} KB setup traffic ({} rounds, {} of {} silos from cache)",
        warm_setup.total_bytes() as f64 / 1024.0,
        warm_setup.rounds,
        warm.warm_start_hits(),
        warm.num_silos(),
    );
    println!(
        "reduction  : {:>8.1}x less setup traffic",
        cold_setup.total_bytes() as f64 / warm_setup.total_bytes() as f64
    );

    // ---- 2. result caching --------------------------------------------
    println!("\n== result caching ==\n");
    let hot_stations: Vec<FraQuery> = (0..5)
        .map(|i| {
            FraQuery::circle(
                Point::new(-2.0 + i as f64 * 2.0, -95.0 + i as f64),
                2.0,
                AggFunc::Count,
            )
        })
        .collect();
    // A rush-hour minute: 600 asks across 5 hot stations.
    let burst: Vec<FraQuery> = (0..600).map(|i| hot_stations[i % 5]).collect();

    let uncached = NonIidEst::new(1);
    warm.reset_query_comm();
    let engine = QueryEngine::per_silo(&uncached, &warm);
    let b1 = engine.execute_batch(&warm, &burst);
    println!(
        "uncached NonIID-est: {:>8.1} KB, {:>6.0} q/s",
        b1.comm.total_bytes() as f64 / 1024.0,
        b1.throughput_qps
    );

    let cached = AnswerCache::new(
        NonIidEst::new(1),
        CacheConfig {
            capacity: 1024,
            ttl: Duration::from_secs(30),
        },
    );
    warm.reset_query_comm();
    let engine = QueryEngine::per_silo(&cached, &warm);
    let b2 = engine.execute_batch(&warm, &burst);
    let stats = cached.stats();
    println!(
        "cached NonIID-est  : {:>8.1} KB, {:>6.0} q/s ({} hits / {} misses, {:.0}% hit rate)",
        b2.comm.total_bytes() as f64 / 1024.0,
        b2.throughput_qps,
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
    println!(
        "reduction          : {:>8.1}x less query traffic",
        b1.comm.total_bytes() as f64 / b2.comm.total_bytes().max(1) as f64
    );
    // A cached answer must be, bit for bit, the uncached engine's answer
    // to its station's first ask (burst index `i % 5`): a miss draws the
    // sampler exactly as the uncached batch does, and a hit returns that
    // miss's bits. `ci.sh` greps this line and the hit count above.
    let identical = (0..burst.len())
        .filter(|&i| match (&b2.results[i], &b1.results[i % 5]) {
            (Ok(cached), Ok(fresh)) => cached.value.to_bits() == fresh.value.to_bits(),
            _ => false,
        })
        .count();
    println!("cached answers identical: {identical}/{}", burst.len());

    let _ = std::fs::remove_file(&snapshot_path);
}
