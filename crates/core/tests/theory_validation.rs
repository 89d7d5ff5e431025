//! Statistical validation of the Sec. 6 guarantees on live federations:
//! measured ε-violation rates must stay below the analytic bounds, and
//! the qualitative monotonicities the theorems predict must show up.
//!
//! All tests use fixed seeds and generous margins — they are regression
//! tripwires for estimator bias, not tight statistical hypothesis tests.

use fedra_core::theory;
use fedra_core::{AccuracyParams, Exact, FraAlgorithm, FraQuery, NonIidEstLsr};
use fedra_federation::{Federation, FederationBuilder, LocalMode, Request, Response};
use fedra_geo::{Point, Rect, SpatialObject};
use fedra_index::histogram::MinSkewConfig;
use fedra_index::AggFunc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn federation(m: usize, per_silo: usize, seed: u64) -> Federation {
    let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let mut rng = StdRng::seed_from_u64(seed);
    let partitions: Vec<Vec<SpatialObject>> = (0..m)
        .map(|_| {
            (0..per_silo)
                .map(|_| {
                    // Mild two-cluster skew shared by all silos (IID).
                    let (x, y): (f64, f64) = if rng.random_range(0..10) < 6 {
                        (
                            40.0 + rng.random_range(-20.0..20.0),
                            40.0 + rng.random_range(-20.0..20.0),
                        )
                    } else {
                        (rng.random_range(0.0..100.0), rng.random_range(0.0..100.0))
                    };
                    SpatialObject::at(x.clamp(0.0, 100.0), y.clamp(0.0, 100.0), 1.0)
                })
                .collect()
        })
        .collect();
    FederationBuilder::new(bounds)
        .grid_cell_len(4.0)
        .histogram_config(MinSkewConfig {
            resolution: 16,
            budget: 16,
        })
        .build(partitions)
}

/// Local LSR error at one silo, over many queries, vs the Lemma-1 target.
#[test]
fn lemma1_violation_rate_stays_below_delta_with_margin() {
    let fed = federation(3, 30_000, 1);
    let (epsilon, delta) = (0.25, 0.05);
    let mut rng = StdRng::seed_from_u64(2);
    let mut violations = 0usize;
    let mut counted = 0usize;
    for _ in 0..150 {
        let q = fedra_geo::Range::circle(
            Point::new(rng.random_range(25.0..55.0), rng.random_range(25.0..55.0)),
            10.0,
        );
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
        // The Lemma-1 guarantee needs enough expected in-range samples;
        // skip sparse queries (their level clamps to 0 and they are exact
        // anyway at small sum0).
        if exact < 2_000.0 {
            continue;
        }
        let sum0 = fedra_core::helpers::sum0(&fed, &q).count;
        let approx = match fed
            .call(
                0,
                &Request::Aggregate {
                    range: q,
                    mode: LocalMode::lsr(theory::select_level(epsilon, delta, sum0)),
                },
            )
            .unwrap()
        {
            Response::Agg(a) => a.count,
            other => panic!("unexpected {other:?}"),
        };
        if (approx - exact).abs() / exact > epsilon {
            violations += 1;
        }
        counted += 1;
    }
    assert!(counted >= 50, "too few dense queries: {counted}");
    let rate = violations as f64 / counted as f64;
    // δ = 5 %; allow binomial noise up to 3× the bound before tripping.
    assert!(
        rate <= 3.0 * delta,
        "Lemma-1 violation rate {rate} vs δ = {delta} ({violations}/{counted})"
    );
}

#[test]
fn end_to_end_error_shrinks_as_radius_grows() {
    // Theorem 1/3: the failure bound tightens as ans/sum₀ → 1, i.e. with
    // growing radius. The measured MRE must be (weakly) decreasing across
    // a 3-point radius sweep, averaged over enough queries.
    let fed = federation(4, 20_000, 3);
    let exact = Exact::new();
    let mut mres = Vec::new();
    for (i, radius) in [4.0, 8.0, 16.0].into_iter().enumerate() {
        let alg = NonIidEstLsr::new(40 + i as u64, AccuracyParams::default());
        let mut rng = StdRng::seed_from_u64(50 + i as u64);
        let mut err = 0.0;
        let mut counted = 0;
        for _ in 0..40 {
            let q = FraQuery::circle(
                Point::new(rng.random_range(30.0..50.0), rng.random_range(30.0..50.0)),
                radius,
                AggFunc::Count,
            );
            let t = exact.execute(&fed, &q).value;
            if t < 100.0 {
                continue;
            }
            err += (alg.execute(&fed, &q).value - t).abs() / t;
            counted += 1;
        }
        mres.push(err / counted as f64);
    }
    assert!(mres[2] < mres[0], "MRE should fall with radius: {mres:?}");
}

#[test]
fn epsilon_monotonicity_of_lsr_error() {
    // Fig. 6a's mechanism: larger ε → coarser levels → larger measured
    // error, holding everything else fixed.
    let fed = federation(4, 25_000, 4);
    let exact = Exact::new();
    let mut rng = StdRng::seed_from_u64(5);
    let queries: Vec<FraQuery> = (0..40)
        .map(|_| {
            FraQuery::circle(
                Point::new(rng.random_range(30.0..50.0), rng.random_range(30.0..50.0)),
                8.0,
                AggFunc::Count,
            )
        })
        .collect();
    let truth: Vec<f64> = queries
        .iter()
        .map(|q| exact.execute(&fed, q).value)
        .collect();
    let mre = |epsilon: f64, seed: u64| -> f64 {
        let alg = NonIidEstLsr::new(seed, AccuracyParams::new(epsilon, 0.01));
        queries
            .iter()
            .zip(&truth)
            .filter(|(_, &t)| t > 0.0)
            .map(|(q, &t)| (alg.execute(&fed, q).value - t).abs() / t)
            .sum::<f64>()
            / queries.len() as f64
    };
    let tight = mre(0.05, 6);
    let loose = mre(0.4, 7);
    assert!(
        loose > tight,
        "ε = 0.4 error ({loose}) must exceed ε = 0.05 error ({tight})"
    );
}

#[test]
fn selected_levels_scale_with_query_density() {
    // Denser queries (bigger sum₀) earn deeper levels: verify on reported
    // metadata from the end-to-end algorithm.
    let fed = federation(3, 30_000, 8);
    let alg = NonIidEstLsr::new(9, AccuracyParams::new(0.25, 0.05));
    let small = alg.execute(
        &fed,
        &FraQuery::circle(Point::new(40.0, 40.0), 3.0, AggFunc::Count),
    );
    let large = alg.execute(
        &fed,
        &FraQuery::circle(Point::new(40.0, 40.0), 25.0, AggFunc::Count),
    );
    assert!(
        large.lsr_level.unwrap() > small.lsr_level.unwrap(),
        "levels: small-radius {:?} vs large-radius {:?}",
        small.lsr_level,
        large.lsr_level
    );
}

#[test]
fn theorem_bound_function_is_sane_against_measurements() {
    // The analytic bound must *upper-bound* the measured violation rate
    // at matched parameters (it is loose, so the margin is large).
    let fed = federation(4, 15_000, 10);
    let exact = Exact::new();
    let epsilon = 0.3;
    let alg = NonIidEstLsr::new(11, AccuracyParams::new(epsilon, 0.01));
    let mut rng = StdRng::seed_from_u64(12);
    let mut violations = 0usize;
    let mut bound_sum = 0.0;
    let mut counted = 0usize;
    for _ in 0..60 {
        let q = FraQuery::circle(
            Point::new(rng.random_range(30.0..50.0), rng.random_range(30.0..50.0)),
            10.0,
            AggFunc::Count,
        );
        let t = exact.execute(&fed, &q).value;
        if t < 50.0 {
            continue;
        }
        let est = alg.execute(&fed, &q).value;
        if (est - t).abs() / t > epsilon {
            violations += 1;
        }
        let sum0 = fedra_core::helpers::sum0(&fed, &q.range).count;
        bound_sum += theory::theorem_failure_bound(epsilon, t, sum0);
        counted += 1;
    }
    let measured = violations as f64 / counted as f64;
    let mean_bound = bound_sum / counted as f64;
    assert!(
        measured <= mean_bound + 1e-9,
        "measured violation rate {measured} exceeds the analytic bound {mean_bound}"
    );
}
