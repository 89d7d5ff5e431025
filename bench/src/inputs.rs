//! Everything the program under test is fed, as a pure function of `--seed`.
//!
//! The fixed point of every workload is the repo's default Tab. 2 point at
//! `FEDRA_SCALE=0.2`: 600 000 company-skewed objects on 6 silos
//! (`WorkloadSpec::default()`), L = 1 km, ε = 0.1, δ = 0.01.

use std::time::Instant;

use fedra::prelude::*;

/// Ranges in the query pool.
pub const POOL_SIZE: usize = 4096;
/// Pool queries the fixed-count check pass runs (`mre_pct` and the
/// correctness gate come from these).
pub const CHECK_QUERIES: usize = 2000;
/// Queries per `QueryEngine` batch on the `batch_*` workloads.
pub const BATCH_SIZE: usize = 250;
/// Query radii, cycled over the pool (the paper sweeps r from 1 to 3 km).
pub const RADII_KM: [f64; 5] = [1.0, 1.5, 2.0, 2.5, 3.0];

/// SplitMix64: the one mixing function every derived seed goes through.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeds derived from `--seed`, one per consumer so that no two
/// consumers share a random stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `WorkloadSpec::with_seed` — the objects and their silo split.
    pub dataset: u64,
    /// `QueryGenerator` anchors and the circle/square coin.
    pub pool: u64,
    /// `FederationBuilder::lsr_seed` — LSR-Forest level sampling.
    pub lsr: u64,
    /// Base of the algorithm seeds (see [`Seeds::query`]).
    pub algorithm: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        let lane = |n: u64| splitmix64(seed ^ splitmix64(n));
        Seeds {
            dataset: lane(1),
            pool: lane(2),
            lsr: lane(3),
            algorithm: lane(4),
        }
    }

    /// Algorithm seed of pool query `index` on the scheduler workloads,
    /// where every submission gets a fresh estimator instance.
    pub fn query(&self, index: usize) -> u64 {
        splitmix64(self.algorithm ^ index as u64)
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub seeds: Seeds,
    pub bounds: Rect,
    /// One object list per silo, in silo order.
    pub partitions: Vec<Vec<SpatialObject>>,
    pub pool: Vec<FraQuery>,
    /// Wall time of [`Inputs::generate`] (`workload.generate_s`).
    pub generate_s: f64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let started = Instant::now();
        let seeds = Seeds::derive(seed);
        let dataset = WorkloadSpec::default().with_seed(seeds.dataset).generate();
        let bounds = dataset.bounds();
        let pool = query_pool(&dataset.all_objects(), seeds.pool);
        Inputs {
            seeds,
            bounds,
            partitions: dataset.into_partitions(),
            pool,
            generate_s: started.elapsed().as_secs_f64(),
        }
    }

    /// The pool cut into the `batch_*` workloads' back-to-back batches
    /// (the 96-query remainder is not used by those workloads).
    pub fn batches(&self) -> Vec<&[FraQuery]> {
        self.pool.chunks_exact(BATCH_SIZE).collect()
    }
}

/// 4096 data-anchored ranges: radii cycle through [`RADII_KM`], COUNT and
/// SUM alternate, and a seeded coin picks circle or equal-area square —
/// a coin, not a fixed pattern, so byte counts differ between seeds.
fn query_pool(objects: &[SpatialObject], seed: u64) -> Vec<FraQuery> {
    let mut anchors = QueryGenerator::new(objects, seed);
    (0..POOL_SIZE)
        .map(|i| {
            let radius = RADII_KM[i % RADII_KM.len()];
            let range = if splitmix64(seed ^ i as u64) & 1 == 0 {
                anchors.circle(radius)
            } else {
                anchors.square(radius)
            };
            let func = if i % 2 == 0 {
                AggFunc::Count
            } else {
                AggFunc::Sum
            };
            FraQuery::new(range, func)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn objects(n: usize) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::at((i % 37) as f64, (i / 37) as f64, 1.0 + (i % 3) as f64))
            .collect()
    }

    #[test]
    fn seeds_are_a_pure_function_of_the_seed() {
        assert_eq!(Seeds::derive(7), Seeds::derive(7));
        assert_ne!(Seeds::derive(7), Seeds::derive(8));
        let s = Seeds::derive(7);
        let lanes = [s.dataset, s.pool, s.lsr, s.algorithm];
        for (i, a) in lanes.iter().enumerate() {
            for b in &lanes[i + 1..] {
                assert_ne!(a, b, "two consumers share a stream");
            }
        }
        assert_eq!(s.query(5), Seeds::derive(7).query(5));
        assert_ne!(s.query(5), s.query(6));
    }

    #[test]
    fn pool_is_a_pure_function_of_the_seed() {
        let objs = objects(500);
        let a = query_pool(&objs, 11);
        assert_eq!(a, query_pool(&objs, 11));
        assert_ne!(a, query_pool(&objs, 12));
    }

    #[test]
    fn pool_has_the_documented_shape() {
        let objs = objects(500);
        let pool = query_pool(&objs, 3);
        assert_eq!(pool.len(), POOL_SIZE);
        let circles = pool
            .iter()
            .filter(|q| matches!(q.range, Range::Circle(_)))
            .count();
        assert!(circles > POOL_SIZE / 3 && circles < 2 * POOL_SIZE / 3);
        for (i, q) in pool.iter().enumerate() {
            let want = if i % 2 == 0 {
                AggFunc::Count
            } else {
                AggFunc::Sum
            };
            assert_eq!(q.func, want);
            let radius = RADII_KM[i % RADII_KM.len()];
            let area = std::f64::consts::PI * radius * radius;
            assert!((q.range.area() - area).abs() < 1e-9, "query {i}");
            let anchor = q.range.bounding_rect().center();
            assert!(objs.iter().any(|o| o.location.distance(&anchor) < 1e-9));
        }
    }

    #[test]
    fn generated_inputs_repeat_for_a_seed() {
        // The full 600k-object dataset: slow in a debug build, so only
        // the first objects and the whole pool are compared.
        let a = Inputs::generate(42);
        let b = Inputs::generate(42);
        assert_eq!(a.partitions.len(), 6);
        assert_eq!(a.partitions.iter().map(Vec::len).sum::<usize>(), 600_000);
        assert_eq!(a.pool, b.pool);
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            assert_eq!(pa[..64], pb[..64]);
            assert_eq!(pa.len(), pb.len());
        }
        assert_eq!(a.batches().len(), POOL_SIZE / BATCH_SIZE);
    }
}
