//! Pool-size equivalence: every index and every query mode must be
//! **bit-identical** whether silos run on 1 worker or many.
//!
//! The worker pool (DESIGN.md "Threading model") derives all chunk
//! boundaries from input sizes — never from the pool size — and reduces
//! partial aggregates in fixed chunk order, so parallelism trades only
//! wall-clock, never bits. These tests pin that contract end to end
//! through the public `fedra` API: grids, prefix grids, the STR-packed
//! aR-tree (via EXACT), the LSR-Forest (via the +LSR estimators), and
//! the seeded samplers all have to agree across pool sizes.

use fedra::prelude::*;

const POOL_SIZES: [usize; 2] = [1, 4];

fn build_federation(threads: usize, seed: u64) -> (Federation, Vec<SpatialObject>) {
    let spec = WorkloadSpec::default()
        .with_total_objects(30_000)
        .with_silos(4)
        .with_seed(seed);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let fed = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .lsr_seed(99)
        .silo_threads(threads)
        .build(dataset.into_partitions());
    (fed, all)
}

/// Asserts two aggregates are bit-for-bit equal (not just `==`, which
/// would accept `-0.0 == 0.0` and hide a reduction-order change).
fn assert_bits(a: &Aggregate, b: &Aggregate, what: &str) {
    assert_eq!(a.count.to_bits(), b.count.to_bits(), "{what}: count");
    assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{what}: sum");
    assert_eq!(a.sum_sqr.to_bits(), b.sum_sqr.to_bits(), "{what}: sum_sqr");
}

#[test]
fn grids_and_prefixes_are_bit_identical_across_pool_sizes() {
    let (reference, _) = build_federation(POOL_SIZES[0], 17);
    for &threads in &POOL_SIZES[1..] {
        let (fed, _) = build_federation(threads, 17);
        assert_eq!(fed.num_silos(), reference.num_silos());

        // Merged grid g_0, cell by cell.
        let spec = *reference.merged_grid().spec();
        assert_eq!(fed.merged_grid().spec(), &spec);
        for (i, (a, b)) in reference
            .merged_grid()
            .cells()
            .iter()
            .zip(fed.merged_grid().cells())
            .enumerate()
        {
            assert_bits(a, b, &format!("merged cell {i} (threads {threads})"));
        }

        // Per-silo grids and both prefix-sum layers.
        for k in 0..reference.num_silos() {
            for (i, (a, b)) in reference
                .silo_grid(k)
                .cells()
                .iter()
                .zip(fed.silo_grid(k).cells())
                .enumerate()
            {
                assert_bits(a, b, &format!("silo {k} cell {i} (threads {threads})"));
            }
            let full = reference
                .silo_prefix(k)
                .rect_sum(0, 0, spec.nx() - 1, spec.ny() - 1);
            let got = fed
                .silo_prefix(k)
                .rect_sum(0, 0, spec.nx() - 1, spec.ny() - 1);
            assert_bits(&full, &got, &format!("silo {k} prefix (threads {threads})"));
        }
        for (ix0, iy0, ix1, iy1) in [
            (0, 0, spec.nx() - 1, spec.ny() - 1),
            (1, 1, spec.nx() / 2, spec.ny() / 2),
            (spec.nx() / 3, 0, spec.nx() - 1, spec.ny() / 3),
        ] {
            let a = reference.merged_prefix().rect_sum(ix0, iy0, ix1, iy1);
            let b = fed.merged_prefix().rect_sum(ix0, iy0, ix1, iy1);
            assert_bits(&a, &b, &format!("merged prefix rect (threads {threads})"));
        }
    }
}

#[test]
fn every_algorithm_and_agg_func_is_bit_identical_across_pool_sizes() {
    // One run per pool size: same seeds everywhere, so the only variable
    // is the worker count.
    let run = |threads: usize| -> Vec<u64> {
        let (fed, all) = build_federation(threads, 23);
        let params = AccuracyParams::default();
        let mut generator = QueryGenerator::new(&all, 31);
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::SumSqr,
            AggFunc::Avg,
            AggFunc::Stdev,
        ];
        let mut queries: Vec<FraQuery> = Vec::new();
        for range in generator.circles(2.0, 6) {
            for func in funcs {
                queries.push(FraQuery::new(range, func));
            }
        }
        // Rectangular ranges exercise the prefix-grid fast path.
        queries.push(FraQuery::rect(
            Point::new(-3.0, -3.0),
            Point::new(3.0, 3.0),
            AggFunc::Count,
        ));
        queries.push(FraQuery::rect(
            Point::new(-1.0, -4.0),
            Point::new(5.0, 2.0),
            AggFunc::Sum,
        ));

        let algorithms: Vec<Box<dyn FraAlgorithm>> = vec![
            Box::new(Exact::new()),
            Box::new(Opta::new()),
            Box::new(IidEst::new(4)),
            Box::new(IidEstLsr::new(5, params)),
            Box::new(NonIidEst::new(6)),
            Box::new(NonIidEstLsr::new(7, params)),
        ];
        let mut bits = Vec::new();
        for alg in &algorithms {
            for q in &queries {
                bits.push(alg.execute(&fed, q).value.to_bits());
            }
        }
        bits
    };

    let reference = run(POOL_SIZES[0]);
    for &threads in &POOL_SIZES[1..] {
        assert_eq!(
            run(threads),
            reference,
            "query answers diverged at {threads} worker(s)"
        );
    }
}

#[test]
fn batch_engine_results_are_bit_identical_across_pool_sizes() {
    // The Alg. 4 engine's non-planning pool path (`execute_batch` over a
    // planless algorithm) must answer in input order regardless of how
    // many engine workers race over the batch.
    let (fed, all) = build_federation(1, 29);
    let mut generator = QueryGenerator::new(&all, 37);
    let queries: Vec<FraQuery> = generator
        .circles(1.5, 12)
        .into_iter()
        .map(|r| FraQuery::new(r, AggFunc::Sum))
        .collect();
    let exact = Exact::new();
    let run = |workers: usize| -> Vec<u64> {
        QueryEngine::with_workers(&exact, workers)
            .execute_batch(&fed, &queries)
            .results
            .iter()
            .map(|r| r.as_ref().expect("healthy batch").value.to_bits())
            .collect()
    };
    let reference = run(1);
    for workers in [2, 4, 8] {
        assert_eq!(run(workers), reference, "engine diverged at {workers}");
    }
}

#[test]
fn warm_start_is_bit_identical_across_pool_sizes() {
    // The provider-side pool also materializes warm-start grids; a warm
    // rebuild must hit every silo and reproduce the cold grids exactly.
    let (cold, _) = build_federation(1, 41);
    let snapshot = cold.snapshot();
    for &threads in &POOL_SIZES {
        let spec = WorkloadSpec::default()
            .with_total_objects(30_000)
            .with_silos(4)
            .with_seed(41);
        let dataset = spec.generate();
        let warm = FederationBuilder::new(dataset.bounds())
            .grid_cell_len(1.0)
            .lsr_seed(99)
            .silo_threads(threads)
            .warm_start(snapshot.clone())
            .build(dataset.into_partitions());
        assert_eq!(warm.warm_start_hits(), warm.num_silos());
        for (i, (a, b)) in cold
            .merged_grid()
            .cells()
            .iter()
            .zip(warm.merged_grid().cells())
            .enumerate()
        {
            assert_bits(a, b, &format!("warm merged cell {i} (threads {threads})"));
        }
    }
}
