//! Concurrency stress tests for the federation runtime: many provider
//! threads hammering many silos, interleaved with failure flapping, must
//! never deadlock, drop a reply, or misroute a response.

use std::sync::atomic::{AtomicU64, Ordering};

use fedra_federation::wire::Wire;
use fedra_federation::{FederationBuilder, LocalMode, Request, Response};
use fedra_geo::{Point, Range, Rect, SpatialObject};
use fedra_index::histogram::MinSkewConfig;
use fedra_index::lsr::lemma1_level;
use fedra_index::Moments;

fn build(m: usize, per_silo: usize) -> fedra_federation::Federation {
    let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let mut state = 1234u64;
    let partitions: Vec<Vec<SpatialObject>> = (0..m)
        .map(|_| {
            (0..per_silo)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let y = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                    SpatialObject::at(x, y, (i % 5) as f64)
                })
                .collect()
        })
        .collect();
    FederationBuilder::new(bounds)
        .grid_cell_len(5.0)
        .histogram_config(MinSkewConfig {
            resolution: 8,
            budget: 8,
        })
        .build(partitions)
}

#[test]
fn sixteen_threads_hammering_four_silos() {
    let fed = build(4, 2_000);
    let q = Range::circle(Point::new(50.0, 50.0), 20.0);
    let expected = match fed
        .call(
            0,
            &Request::Aggregate {
                range: q,
                mode: LocalMode::Exact,
            },
        )
        .unwrap()
    {
        Response::Agg(a) => a.count,
        other => panic!("unexpected {other:?}"),
    };
    fed.reset_query_comm(); // drop the oracle call from the round count
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..16 {
            let fed = &fed;
            let completed = &completed;
            scope.spawn(move || {
                for i in 0..200 {
                    let silo = (t + i) % fed.num_silos();
                    match fed
                        .call(
                            silo,
                            &Request::Aggregate {
                                range: q,
                                mode: LocalMode::Exact,
                            },
                        )
                        .unwrap()
                    {
                        Response::Agg(a) => {
                            // All silos hold statistically similar data;
                            // silo 0's answer is only checked for silo 0.
                            if silo == 0 {
                                assert_eq!(a.count, expected);
                            }
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(completed.load(Ordering::Relaxed), 16 * 200);
    assert_eq!(fed.query_comm().rounds, 16 * 200);
}

#[test]
fn failure_flapping_under_load() {
    let fed = build(3, 1_000);
    let q = Range::circle(Point::new(50.0, 50.0), 15.0);
    std::thread::scope(|scope| {
        // One thread flaps silo 1's failure flag...
        scope.spawn(|| {
            for i in 0..200 {
                fed.set_silo_failed(1, i % 2 == 0);
                std::hint::spin_loop();
            }
            fed.set_silo_failed(1, false);
        });
        // ...while workers keep querying. Errors are fine; panics and
        // hangs are not.
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..200 {
                    let _ = fed.call(
                        1,
                        &Request::Aggregate {
                            range: q,
                            mode: LocalMode::Exact,
                        },
                    );
                }
            });
        }
    });
    // After the flapping stops, the silo serves again.
    assert!(fed
        .call(
            1,
            &Request::Aggregate {
                range: q,
                mode: LocalMode::Exact
            }
        )
        .is_ok());
}

#[test]
fn mixed_request_types_interleave_cleanly() {
    let fed = build(3, 1_500);
    let q = Range::circle(Point::new(50.0, 50.0), 12.0);
    // The cells each silo's reply carries.
    let cells: Vec<usize> = (0..fed.num_silos())
        .map(|k| fed.silo_grid(k).contributing_cells(&q, Moments::ALL).len())
        .collect();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let fed = &fed;
            let cells = &cells;
            scope.spawn(move || {
                for i in 0..100 {
                    let silo = (t + i) % fed.num_silos();
                    match i % 4 {
                        0 => {
                            let r = fed
                                .call(
                                    silo,
                                    &Request::Aggregate {
                                        range: q,
                                        mode: LocalMode::Exact,
                                    },
                                )
                                .unwrap();
                            assert!(matches!(r, Response::Agg(_)));
                        }
                        1 => {
                            let r = fed
                                .call(
                                    silo,
                                    &Request::CellContributions {
                                        range: q,
                                        mode: LocalMode::Exact,
                                    },
                                )
                                .unwrap();
                            match r {
                                Response::AggVec(v) => assert_eq!(v.len(), cells[silo]),
                                other => panic!("unexpected {other:?}"),
                            }
                        }
                        2 => {
                            let r = fed
                                .call(silo, &Request::HistogramEstimate { range: q })
                                .unwrap();
                            assert!(matches!(r, Response::Agg(_)));
                        }
                        _ => {
                            assert_eq!(fed.call(silo, &Request::Ping).unwrap(), Response::Pong);
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn many_federations_coexist_and_shut_down() {
    // Build/drop several federations concurrently: thread naming, channel
    // teardown and Drop joins must not interfere across instances.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..3 {
                    let fed = build(2, 300);
                    let q = Range::circle(Point::new(50.0, 50.0), 10.0);
                    let r = fed
                        .call(
                            0,
                            &Request::Aggregate {
                                range: q,
                                mode: LocalMode::Exact,
                            },
                        )
                        .unwrap();
                    assert!(matches!(r, Response::Agg(_)));
                    drop(fed);
                }
            });
        }
    });
}

#[test]
fn lsr_requests_under_concurrency_stay_in_reasonable_range() {
    let fed = build(4, 4_000);
    let q = Range::circle(Point::new(50.0, 50.0), 25.0);
    let exact = match fed
        .call(
            0,
            &Request::Aggregate {
                range: q,
                mode: LocalMode::Exact,
            },
        )
        .unwrap()
    {
        Response::Agg(a) => a.count,
        other => panic!("unexpected {other:?}"),
    };
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let fed = &fed;
            scope.spawn(move || {
                for _ in 0..50 {
                    match fed
                        .call(
                            0,
                            &Request::Aggregate {
                                range: q,
                                mode: LocalMode::lsr(lemma1_level(0.2, 0.05, exact)),
                            },
                        )
                        .unwrap()
                    {
                        Response::Agg(a) => {
                            let rel = (a.count - exact).abs() / exact;
                            assert!(rel < 0.6, "LSR answer drifted: {} vs {exact}", a.count);
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            });
        }
    });
}

#[test]
fn warm_start_skips_cell_transfer_and_validates() {
    let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let partitions: Vec<Vec<SpatialObject>> = (0..3)
        .map(|k| {
            (0..800)
                .map(|i| SpatialObject::at((i % 40) as f64 * 2.5, (i / 40) as f64 * 5.0, k as f64))
                .collect()
        })
        .collect();
    let cold = FederationBuilder::new(bounds)
        .grid_cell_len(5.0)
        .histogram_config(MinSkewConfig {
            resolution: 8,
            budget: 8,
        })
        .build(partitions.clone());
    let cold_setup = cold.setup_comm().total_bytes();
    assert_eq!(cold.warm_start_hits(), 0);
    let snapshot = cold.snapshot();
    drop(cold);

    // Warm restart on identical data: every silo hits the cache, setup
    // traffic collapses (no cell vectors on the wire).
    let warm = FederationBuilder::new(bounds)
        .grid_cell_len(5.0)
        .histogram_config(MinSkewConfig {
            resolution: 8,
            budget: 8,
        })
        .warm_start(snapshot.clone())
        .build(partitions.clone());
    assert_eq!(warm.warm_start_hits(), 3);
    let warm_setup = warm.setup_comm().total_bytes();
    // Both builds send each silo one [Setup, BuildGrid] frame of the same
    // size (`return_cells` is one byte either way) and get the same
    // memory report back, so the whole difference is the reply to
    // BuildGrid: each silo's full `Grid` cold, its `GridAck` warm.
    let saved: u64 = snapshot
        .grids
        .iter()
        .map(|grid| {
            let cells = Response::Grid(Box::new(grid.clone())).encoded_len();
            let ack = Response::GridAck {
                total: grid.total(),
                outside: grid.outside_count(),
            }
            .encoded_len();
            (cells - ack) as u64
        })
        .sum();
    assert_eq!(
        cold_setup - warm_setup,
        saved,
        "warm setup {warm_setup}, cold {cold_setup}"
    );
    // The provider state must be identical either way.
    let spec = *warm.merged_grid().spec();
    let fresh = FederationBuilder::new(bounds)
        .grid_cell_len(5.0)
        .histogram_config(MinSkewConfig {
            resolution: 8,
            budget: 8,
        })
        .build(partitions.clone());
    for id in 0..spec.num_cells() as u32 {
        assert_eq!(
            warm.merged_grid().cell(id).count,
            fresh.merged_grid().cell(id).count
        );
    }

    // Changed data at one silo: its checksum mismatches, full transfer
    // happens for that silo only, and the answers stay correct.
    let mut changed = partitions.clone();
    changed[1].push(SpatialObject::at(50.0, 50.0, 9.0));
    let partial = FederationBuilder::new(bounds)
        .grid_cell_len(5.0)
        .histogram_config(MinSkewConfig {
            resolution: 8,
            budget: 8,
        })
        .warm_start(snapshot.clone())
        .build(changed);
    assert_eq!(partial.warm_start_hits(), 2);
    assert_eq!(partial.total_objects(), 2401.0);

    // Mismatched geometry: the snapshot is ignored entirely.
    let ignored = FederationBuilder::new(bounds)
        .grid_cell_len(10.0)
        .histogram_config(MinSkewConfig {
            resolution: 8,
            budget: 8,
        })
        .warm_start(snapshot)
        .build(partitions);
    assert_eq!(ignored.warm_start_hits(), 0);
}

#[test]
fn snapshot_survives_disk_round_trip() {
    let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let partitions: Vec<Vec<SpatialObject>> = (0..2)
        .map(|_| {
            (0..200)
                .map(|i| SpatialObject::at(i as f64 / 2.0, 50.0, 1.0))
                .collect()
        })
        .collect();
    let fed = FederationBuilder::new(bounds)
        .grid_cell_len(10.0)
        .histogram_config(MinSkewConfig {
            resolution: 8,
            budget: 8,
        })
        .build(partitions.clone());
    let snapshot = fed.snapshot();
    let dir = std::env::temp_dir().join("fedra-warm-start-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("provider.snap");
    snapshot.save_to(&path).unwrap();
    let loaded = fedra_federation::ProviderSnapshot::load_from(&path).unwrap();
    assert_eq!(loaded, snapshot);
    let warm = FederationBuilder::new(bounds)
        .grid_cell_len(10.0)
        .histogram_config(MinSkewConfig {
            resolution: 8,
            budget: 8,
        })
        .warm_start(loaded)
        .build(partitions);
    assert_eq!(warm.warm_start_hits(), 2);
    let _ = std::fs::remove_file(&path);
}
