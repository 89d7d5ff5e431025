//! Transport microbenchmarks: `n` sequential singleton RPCs (`call/n` —
//! one envelope per request per direction, through the allocation-free
//! reply-slot pool) and the engine's coalesced scatter–gather on a
//! 64-query batch: one sampled rider per query (IID-est) against `m`
//! fan-out legs per query (EXACT), one frame per silo either way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fedra_core::{Exact, FraAlgorithm, FraQuery, IidEst, QueryEngine};
use fedra_federation::{FederationBuilder, LocalMode, Request};
use fedra_geo::Point;
use fedra_index::AggFunc;
use fedra_workload::{QueryGenerator, WorkloadSpec};

const BATCH_SIZES: [usize; 3] = [1, 8, 64];

fn bench_transport(c: &mut Criterion) {
    let spec = WorkloadSpec::default()
        .with_total_objects(60_000)
        .with_silos(4)
        .with_seed(31);
    let dataset = spec.generate();
    let fed = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());
    let request = Request::Aggregate {
        range: fedra_geo::Range::circle(Point::new(0.0, 0.0), 2.0),
        mode: LocalMode::Exact,
    };
    let channel = fed.channel(0);

    let mut group = c.benchmark_group("transport");
    group.sample_size(30);
    for n in BATCH_SIZES {
        // n sequential singleton RPCs: n envelopes per direction.
        group.bench_with_input(BenchmarkId::new("call", n), &n, |b, &n| {
            b.iter(|| {
                for _ in 0..n {
                    black_box(channel.call(&request).expect("call"));
                }
            })
        });
    }
    group.finish();
}

fn bench_engine_paths(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("engine_batch64_m4");
    group.sample_size(15);
    let iid = IidEst::new(34);
    let engine = QueryEngine::per_silo(&iid, &fed);
    group.bench_function("IID-est/coalesced", |b| {
        b.iter(|| black_box(engine.execute_batch(&fed, &queries).failures()))
    });
    let exact = Exact::new();
    let exact_engine = QueryEngine::per_silo(&exact, &fed);
    group.bench_function("EXACT/coalesced-fanout", |b| {
        b.iter(|| black_box(exact_engine.execute_batch(&fed, &queries).failures()))
    });
    group.finish();

    // Context line so the numbers above can be read as comm too.
    fed.reset_query_comm();
    engine.execute_batch(&fed, &queries);
    let coalesced = fed.query_comm();
    println!(
        "engine_batch64_m4/comm: coalesced {} B / {} rounds",
        coalesced.total_bytes(),
        coalesced.rounds
    );
    let _ = exact.name();
}

criterion_group!(benches, bench_transport, bench_engine_paths);
criterion_main!(benches);
