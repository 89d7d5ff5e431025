//! Criterion microbenchmarks of the silo worker pool: index builds and
//! grid merges at pool sizes 1 / 2 / auto. These isolate the three
//! parallelized build paths (STR bulk load, grid sharding, provider-side
//! merge) from the rest of the federation so per-path scaling is visible
//! on its own; `bench/run.sh` (`setup_s`) is the end-to-end view.
//! The outputs are bit-identical across pool sizes (pinned by
//! `tests/parallel_equivalence.rs`); only the wall-clock may move.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fedra_geo::{Point, Rect, SpatialObject};
use fedra_index::grid::{GridIndex, GridSpec};
use fedra_index::pool::WorkerPool;
use fedra_index::rtree::{RTree, RTreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn objects(n: usize, seed: u64) -> Vec<SpatialObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            SpatialObject::at(
                rng.random_range(0.0..100.0),
                rng.random_range(0.0..100.0),
                rng.random_range(0.0..5.0),
            )
        })
        .collect()
}

fn pools() -> Vec<(String, WorkerPool)> {
    vec![
        ("1".into(), WorkerPool::sequential()),
        ("2".into(), WorkerPool::new(2)),
        (
            format!("auto({})", WorkerPool::auto().threads()),
            WorkerPool::auto(),
        ),
    ]
}

fn bench_parallel_builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_build");
    group.sample_size(10);
    let objs = objects(100_000, 1);
    let spec = GridSpec::new(
        Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        1.0,
    );
    for (label, pool) in pools() {
        group.bench_with_input(BenchmarkId::new("rtree", &label), &pool, |b, pool| {
            b.iter(|| RTree::bulk_load_with(objs.clone(), RTreeConfig::default(), pool))
        });
        group.bench_with_input(BenchmarkId::new("grid", &label), &pool, |b, pool| {
            b.iter(|| GridIndex::build_with(spec, &objs, pool))
        });
    }
    group.finish();
}

fn bench_parallel_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_merge");
    group.sample_size(20);
    let spec = GridSpec::new(
        Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        0.25, // 160k cells: the provider-side merge regime
    );
    let grids: Vec<GridIndex> = (0..6)
        .map(|k| GridIndex::build_with(spec, &objects(20_000, k), &WorkerPool::sequential()))
        .collect();
    let refs: Vec<&GridIndex> = grids.iter().collect();
    for (label, pool) in pools() {
        group.bench_with_input(BenchmarkId::new("merge6", &label), &pool, |b, pool| {
            b.iter(|| black_box(GridIndex::merge_with(&refs, pool)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_builds, bench_parallel_merge);
criterion_main!(benches);
