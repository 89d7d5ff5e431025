//! Criterion microbenchmarks of the index substrate: build times and
//! local range-aggregation latency for the aggregate R-tree, the
//! LSR-Forest (per level), the grid/cumulative array, and the MinSkew
//! histogram. These are the per-operation numbers behind Figs. 3b–9b.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fedra_geo::{Point, Range, Rect, SpatialObject};
use fedra_index::grid::{GridIndex, GridSpec, PrefixGrid};
use fedra_index::histogram::{MinSkewConfig, MinSkewHistogram};
use fedra_index::lsr::LsrForest;
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

fn bench_builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let objs = objects(n, 1);
        group.bench_with_input(BenchmarkId::new("rtree", n), &objs, |b, objs| {
            b.iter(|| RTree::bulk_load(objs.clone(), RTreeConfig::default()))
        });
        group.bench_with_input(BenchmarkId::new("lsr_forest", n), &objs, |b, objs| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2);
                LsrForest::build(objs, RTreeConfig::default(), &mut rng)
            })
        });
        group.bench_with_input(BenchmarkId::new("grid", n), &objs, |b, objs| {
            let spec = GridSpec::new(
                Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
                1.0,
            );
            b.iter(|| GridIndex::build(spec, objs))
        });
        group.bench_with_input(BenchmarkId::new("minskew", n), &objs, |b, objs| {
            let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
            b.iter(|| MinSkewHistogram::build(bounds, MinSkewConfig::default(), objs))
        });
    }
    group.finish();
}

fn bench_local_queries(c: &mut Criterion) {
    let n = 200_000;
    let objs = objects(n, 3);
    let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let rtree = RTree::bulk_load(objs.clone(), RTreeConfig::default());
    let mut rng = StdRng::seed_from_u64(4);
    let lsr = LsrForest::build(&objs, RTreeConfig::default(), &mut rng);
    let grid = GridIndex::build(GridSpec::new(bounds, 1.0), &objs);
    let prefix = PrefixGrid::build(&grid);
    let hist = MinSkewHistogram::build(bounds, MinSkewConfig::default(), &objs);

    let queries: Vec<Range> = (0..64)
        .map(|i| {
            Range::circle(
                Point::new(
                    10.0 + (i as f64 * 1.3) % 80.0,
                    10.0 + (i as f64 * 2.7) % 80.0,
                ),
                5.0,
            )
        })
        .collect();

    let mut group = c.benchmark_group("local_query_200k");
    group.bench_function("rtree_exact", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(rtree.aggregate(q));
            }
        })
    });
    for (label, eps) in [
        ("lsr_eps_0.05", 0.05),
        ("lsr_eps_0.1", 0.1),
        ("lsr_eps_0.25", 0.25),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                for q in &queries {
                    let sum0 = prefix.aggregate_intersecting(q).count;
                    black_box(lsr.query(q, eps, 0.01, sum0));
                }
            })
        });
    }
    group.bench_function("grid_naive", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(grid.aggregate_intersecting(q));
            }
        })
    });
    group.bench_function("grid_prefix", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(prefix.aggregate_intersecting(q));
            }
        })
    });
    group.bench_function("minskew_estimate", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(hist.estimate(q));
            }
        })
    });
    group.finish();
}

fn bench_rtree_fanout(c: &mut Criterion) {
    let objs = objects(100_000, 5);
    let queries: Vec<Range> = (0..32)
        .map(|i| {
            Range::circle(
                Point::new((i as f64 * 3.1) % 100.0, (i as f64 * 7.7) % 100.0),
                5.0,
            )
        })
        .collect();
    let mut group = c.benchmark_group("rtree_fanout");
    group.sample_size(20);
    for fanout in [4usize, 8, 16, 32, 64] {
        let tree = RTree::bulk_load(objs.clone(), RTreeConfig::with_fanout(fanout));
        group.bench_with_input(BenchmarkId::from_parameter(fanout), &tree, |b, tree| {
            b.iter(|| {
                for q in &queries {
                    black_box(tree.aggregate(q));
                }
            })
        });
    }
    group.finish();
}

/// Alg. 3's silo step for one query: the clipped aggregate of each of the
/// 16 boundary cells of a circle, as 16 one-clip descents from the root
/// versus one many-clip walk, on T₀ and on one sampled LSR level.
fn bench_boundary_cells(c: &mut Criterion) {
    let objs = objects(100_000, 6);
    let mut rng = StdRng::seed_from_u64(7);
    let lsr = LsrForest::build(&objs, RTreeConfig::default(), &mut rng);
    let spec = GridSpec::new(
        Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        10.0,
    );
    let query = Range::circle(Point::new(55.0, 55.0), 18.0);
    let ring: Vec<Rect> = spec
        .classify(&query)
        .boundary
        .iter()
        .map(|&id| spec.cell_rect_of(id))
        .collect();
    assert_eq!(ring.len(), 16, "the ring this bench is named after");

    let mut group = c.benchmark_group("boundary_cells_16");
    for (tree, level) in [("t0", 0usize), ("lsr_level_4", 4)] {
        group.bench_function(BenchmarkId::new("per_clip_loop", tree), |b| {
            b.iter(|| {
                for clip in &ring {
                    black_box(lsr.query_clipped_at_level(&query, clip, level));
                }
            })
        });
        group.bench_function(BenchmarkId::new("one_walk", tree), |b| {
            b.iter(|| black_box(lsr.query_clipped_many_at_level(&query, &ring, level)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_builds,
    bench_local_queries,
    bench_rtree_fanout,
    bench_boundary_cells
);
criterion_main!(benches);
