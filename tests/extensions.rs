//! Integration tests for the beyond-the-paper extensions working
//! together: k-silo pooling, caching, warm restarts and CSV interchange —
//! all through the public `fedra` API.

use std::time::Duration;

use fedra::prelude::*;

fn testbed(seed: u64) -> (Federation, Vec<SpatialObject>, Vec<Vec<SpatialObject>>) {
    let spec = WorkloadSpec::default()
        .with_total_objects(40_000)
        .with_silos(4)
        .with_seed(seed);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let partitions = dataset.partitions().to_vec();
    let federation = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(partitions.clone());
    (federation, all, partitions)
}

#[test]
fn pooled_sampling_tightens_toward_exact() {
    let (fed, all, _) = testbed(5);
    let mut generator = QueryGenerator::new(&all, 6);
    let queries: Vec<FraQuery> = generator
        .circles(2.0, 15)
        .into_iter()
        .map(|r| FraQuery::new(r, AggFunc::Count))
        .collect();
    let exact = Exact::new();
    let truth: Vec<f64> = queries
        .iter()
        .map(|q| exact.execute(&fed, q).value)
        .collect();
    let mre = |k: usize| -> f64 {
        let alg = NonIidEst::pooled(7 + k as u64, k);
        queries
            .iter()
            .zip(&truth)
            .map(|(q, &t)| alg.execute(&fed, q).relative_error(t))
            .sum::<f64>()
            / queries.len() as f64
    };
    let e1 = mre(1);
    let e4 = mre(4);
    assert!(e4 < e1, "pooling all silos ({e4}) must beat k=1 ({e1})");
    assert!(e4 < 0.02, "k=m pooling should be near exact, got {e4}");
}

#[test]
fn cached_planner_stack_composes() {
    // Cache on top of an estimator: the wrapper is a transparent
    // FraAlgorithm, so it stacks on any of them.
    let (fed, all, _) = testbed(8);
    let stack = AnswerCache::new(
        NonIidEst::new(9),
        CacheConfig {
            capacity: 64,
            ttl: Duration::from_secs(60),
        },
    );
    let mut generator = QueryGenerator::new(&all, 10);
    let hot = FraQuery::new(generator.circle(2.0), AggFunc::Count);
    let first = stack.execute(&fed, &hot);
    fed.reset_query_comm();
    for _ in 0..5 {
        assert_eq!(stack.execute(&fed, &hot).value, first.value);
    }
    assert_eq!(fed.query_comm().rounds, 0);
    assert_eq!(stack.stats().hits, 5);
}

#[test]
fn warm_restart_preserves_estimator_behavior() {
    let (fed, all, partitions) = testbed(11);
    let snapshot = fed.snapshot();
    let bounds = fed.bounds();
    let mut generator = QueryGenerator::new(&all, 12);
    let q = FraQuery::new(generator.circle(2.0), AggFunc::Count);
    let before = NonIidEst::new(13).execute(&fed, &q);
    drop(fed);

    let warm = FederationBuilder::new(bounds)
        .grid_cell_len(1.0)
        .warm_start(snapshot)
        .build(partitions);
    assert_eq!(warm.warm_start_hits(), 4);
    let after = NonIidEst::new(13).execute(&warm, &q);
    // Same seed, same provider state → identical estimate.
    assert_eq!(before.value, after.value);
}

#[test]
fn csv_export_import_preserves_query_answers() {
    let (fed, _, partitions) = testbed(14);
    let bounds = fed.bounds();
    let dataset = Dataset::from_partitions(bounds, partitions);
    let dir = std::env::temp_dir().join("fedra-extensions-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("export.csv");
    fedra::workload::write_csv(&dataset, &path).unwrap();
    let loaded = fedra::workload::read_csv(&path, 1.0).unwrap();
    let fed2 = FederationBuilder::new(bounds)
        .grid_cell_len(1.0)
        .build(loaded.into_partitions());

    let q = FraQuery::circle(Point::new(0.0, -95.0), 2.0, AggFunc::Sum);
    let a = Exact::new().execute(&fed, &q).value;
    let b = Exact::new().execute(&fed2, &q).value;
    assert_eq!(a, b, "CSV round trip changed the data");
    let _ = std::fs::remove_file(&path);
}
