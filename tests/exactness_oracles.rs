//! Exactness oracles for Alg. 3 (NonIID-est). With one silo `g₀ = g₁`,
//! so every boundary cell's ratio `g₀[i] / g₁[i]` is 1 and NonIID-est
//! must answer what EXACT answers. Pooling every silo
//! (`NonIidEst::pooled(s, m)`) makes the ratio's denominator `g₀` again,
//! so it must too. Both hold only if a silo's per-cell contribution
//! `res_i^k` counts exactly the objects its grid bins into cell `i`:
//! every object in one cell, also on a shared edge. Grid-snapped data,
//! with objects on every cell edge and corner, puts that to the test.

use fedra::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every point `(i·L/d, j·L/d)` of `[0, side·L]²`, one object each. With
/// `d ≤ 4` a cell holds at most 16 of them, and `g·(r/g)` is exact for
/// every `r ≤ g ≤ 21`, so each cell's ratio term keeps a COUNT integral.
/// Measures are positive, so no cell's SUM cancels to a fallback.
fn lattice(cell_len: f64, d: u32, side: u32, rng: &mut StdRng) -> Vec<SpatialObject> {
    let at = |i: u32| f64::from(i) / f64::from(d) * cell_len;
    (0..=side * d)
        .flat_map(|i| (0..=side * d).map(move |j| (i, j)))
        .map(|(i, j)| SpatialObject::at(at(i), at(j), rng.random_range(0.5..5.0)))
        .collect()
}

fn federation(cell_len: f64, side: u32, partitions: Vec<Vec<SpatialObject>>) -> Federation {
    let extent = f64::from(side) * cell_len;
    let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(extent, extent));
    FederationBuilder::new(bounds)
        .grid_cell_len(cell_len)
        .build(partitions)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn noniid_est_answers_exact_on_grid_snapped_partitions() {
    let mut rng = StdRng::seed_from_u64(0x5eed_ce11);
    let non_dyadic = rng.random_range(0.3..1.7);
    let mut checked = 0;
    for (cell_len, d) in [(1.0, 2), (1.0, 4), (non_dyadic, 2), (non_dyadic, 4)] {
        let side = 8;
        let objects = lattice(cell_len, d, side, &mut rng);
        let m = 3;
        let mut partitions = vec![Vec::new(); m];
        for o in &objects {
            partitions[rng.random_range(0..m)].push(*o);
        }
        let one = federation(cell_len, side, vec![objects.clone()]);
        let many = federation(cell_len, side, partitions);
        let extent = f64::from(side) * cell_len;
        for q in 0..24 {
            let c = Point::new(
                rng.random_range(-0.1..1.1) * extent,
                rng.random_range(-0.1..1.1) * extent,
            );
            let r = rng.random_range(0.2..0.45) * extent;
            let range = if q % 2 == 0 {
                Range::circle(c, r)
            } else {
                let h = rng.random_range(0.2..0.45) * extent;
                Range::rect(Point::new(c.x - r, c.y - h), Point::new(c.x + r, c.y + h))
            };
            for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Stdev] {
                let query = FraQuery::new(range, func);
                let what = format!("L {cell_len}, pitch L/{d}, {func} over {range}");
                let truth = Exact::new().execute(&many, &query).value;
                let brute: Vec<&SpatialObject> = objects
                    .iter()
                    .filter(|o| range.contains_point(&o.location))
                    .collect();
                if func == AggFunc::Count {
                    assert_eq!(truth, brute.len() as f64, "{what}: EXACT");
                }
                let answers = [
                    (
                        "NonIID-est, m = 1",
                        NonIidEst::new(q).execute(&one, &query).value,
                    ),
                    (
                        "NonIID-est pooling all silos",
                        NonIidEst::pooled(q, m).execute(&many, &query).value,
                    ),
                ];
                for (name, got) in answers {
                    if func == AggFunc::Count {
                        assert_eq!(got.to_bits(), truth.to_bits(), "{what}: {name}");
                    } else if brute.len() > 1 || func != AggFunc::Stdev {
                        // (The STDEV of one object is √ of a cancellation:
                        // 0 or a NaN by the last bit of its moments.)
                        assert!(close(got, truth), "{what}: {name} {got} vs {truth}");
                    }
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 4 * 24 * 4);
}

/// The lattice table: objects on the 0.5 lattice of `[0, 20]²`, `L = 1`,
/// COUNT circles. A silo that counted an edge object in every closed
/// cell around it answered 175 / 97 / 276 at m = 1 and 350 / 194 / 552
/// with two identical silos.
#[test]
fn noniid_est_answers_the_lattice_table_exactly() {
    let objects: Vec<SpatialObject> = (0..=40)
        .flat_map(|i| {
            (0..=40).map(move |j| SpatialObject::at(f64::from(i) * 0.5, f64::from(j) * 0.5, 1.0))
        })
        .collect();
    let rows = [
        (Point::new(10.3, 9.7), 3.1, 120.0),
        (Point::new(5.2, 5.9), 2.2, 58.0),
        (Point::new(12.0, 12.0), 4.0, 197.0),
    ];
    let one = federation(1.0, 20, vec![objects.clone()]);
    let two = federation(1.0, 20, vec![objects.clone(), objects]);
    for (center, radius, exact) in rows {
        let query = FraQuery::new(Range::circle(center, radius), AggFunc::Count);
        assert_eq!(Exact::new().execute(&one, &query).value, exact);
        assert_eq!(
            NonIidEst::new(1).execute(&one, &query).value,
            exact,
            "m = 1, {query}"
        );
        assert_eq!(Exact::new().execute(&two, &query).value, 2.0 * exact);
        for (name, algorithm) in [
            ("NonIID-est", NonIidEst::new(2)),
            ("pooled, k = 2", NonIidEst::pooled(3, 2)),
        ] {
            let got = algorithm.execute(&two, &query).value;
            assert_eq!(got, 2.0 * exact, "two identical silos, {name}, {query}");
        }
    }
}
