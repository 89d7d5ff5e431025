//! Criterion microbenchmarks of the end-to-end estimators: per-query
//! latency of the six algorithms on a standing federation, plus the wire
//! codec throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fedra_core::{
    AccuracyParams, AnswerCache, Exact, FraAlgorithm, FraQuery, IidEst, IidEstLsr, NonIidEst,
    NonIidEstLsr, Opta,
};
use fedra_federation::wire::Wire;
use fedra_federation::{FederationBuilder, Request, Response};
use fedra_geo::{Point, Range, SpatialObject};
use fedra_index::AggFunc;
use fedra_workload::{QueryGenerator, WorkloadSpec};

fn bench_algorithms(c: &mut Criterion) {
    let spec = WorkloadSpec::default()
        .with_total_objects(120_000)
        .with_silos(6)
        .with_seed(7);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let fed = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());
    let mut generator = QueryGenerator::new(&all, 8);
    let ranges = generator.circles(2.0, 32);
    let queries: Vec<FraQuery> = ranges
        .iter()
        .map(|r| FraQuery::new(*r, AggFunc::Count))
        .collect();

    let params = AccuracyParams::default();
    let algorithms: Vec<Box<dyn FraAlgorithm>> = vec![
        Box::new(Exact::new()),
        Box::new(Opta::new()),
        Box::new(IidEst::new(9)),
        Box::new(IidEstLsr::new(10, params)),
        Box::new(NonIidEst::new(11)),
        Box::new(NonIidEstLsr::new(12, params)),
        Box::new(NonIidEst::pooled(13, 3)),
    ];
    let mut group = c.benchmark_group("fra_query_120k_m6");
    group.sample_size(20);
    for alg in &algorithms {
        group.bench_function(alg.name(), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(alg.execute(&fed, q));
            })
        });
    }
    // The cached wrapper on a hot-station loop (repetition-heavy).
    let cached = AnswerCache::with_defaults(NonIidEst::new(15));
    group.bench_function("NonIID-est cached (hot)", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % 4]; // 4 hot stations
            i += 1;
            black_box(cached.execute(&fed, q));
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let request = Request::CellContributions {
        range: Range::circle(Point::new(0.0, 0.0), 2.0),
        mode: fedra_federation::LocalMode::Exact,
    };
    group.bench_function("encode_cell_request", |b| {
        b.iter(|| black_box(request.to_bytes()))
    });
    let bytes = request.to_bytes();
    group.bench_function("decode_cell_request", |b| {
        b.iter(|| black_box(Request::from_bytes(bytes.clone()).unwrap()))
    });
    // The O(√|g₀|) part of a NonIID exchange: a 64-cell COUNT reply.
    let count = fedra_index::Aggregate {
        count: 3.0,
        ..fedra_index::Aggregate::ZERO
    };
    let reply = Response::AggVec(vec![count; 64]);
    group.bench_function("encode_cell_reply", |b| {
        b.iter(|| black_box(reply.to_bytes()))
    });
    let bytes = reply.to_bytes();
    group.bench_function("decode_cell_reply", |b| {
        b.iter(|| black_box(Response::from_bytes(bytes.clone()).unwrap()))
    });
    let objs: Vec<SpatialObject> = (0..100)
        .map(|i| SpatialObject::at(i as f64, i as f64, 1.0))
        .collect();
    group.bench_function("aggregate_of_100", |b| {
        b.iter(|| black_box(fedra_index::Aggregate::of_all(&objs)))
    });
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_codec);
criterion_main!(benches);
