//! The LSR-Forest: level-sampling R-trees for O(log 1/ε) local queries.
//!
//! Alg. 5 of the paper builds, at each silo, a forest of aggregate R-trees
//! `T_0, T_1, …, T_{log n}` where `T_0` indexes all objects and each
//! subsequent level keeps every object of the previous level independently
//! with probability 1/2. A local range aggregation query (Alg. 6) picks a
//! level `l` from the accuracy target `(ε, δ)` and the grid-based rough
//! estimate `sum₀` (Lemma 1), answers on the ~`n/2^l`-object tree `T_l`,
//! and re-scales by `2^l`. The level rule is
//!
//! ```text
//! l = ⌊log₂( ε² · sum₀ / (3 · ln(2/δ)) )⌋   clamped to [0, max_level]
//! ```
//!
//! so larger expected results tolerate coarser samples, and the expected
//! number of samples *inside the range* stays ≈ 3·ln(2/δ)/ε² regardless of
//! silo size — that is why the local cost becomes independent of `n`.

use rand::Rng;

use fedra_geo::{Range, Rect, SpatialObject};

use crate::grid::{CellId, GridSpec};
use crate::pool::WorkerPool;
use crate::rtree::{by_x, cell_key, RTree, RTreeConfig, NO_CELL};
use crate::{Aggregate, IndexMemory};

/// The Lemma-1 level-selection rule of Alg. 6,
/// `l = ⌊log₂(ε²·sum₀ / (3·ln(2/δ)))⌋`, floored at 0 and not clamped to
/// any forest ([`LsrForest::select_level`] clamps it).
///
/// # Panics
/// Panics unless `ε > 0` is finite and `δ ∈ (0, 1)`.
pub fn lemma1_level(epsilon: f64, delta: f64, sum0: f64) -> usize {
    assert!(
        epsilon > 0.0 && epsilon.is_finite(),
        "epsilon must be positive"
    );
    assert!(
        delta > 0.0 && delta < 1.0,
        "delta must be a probability in (0, 1)"
    );
    if sum0 <= 0.0 {
        return 0;
    }
    let raw = (epsilon * epsilon * sum0 / (3.0 * (2.0 / delta).ln())).log2();
    if !raw.is_finite() || raw <= 0.0 {
        0
    } else {
        raw.floor() as usize
    }
}

/// A level-sampled R-tree forest (Sec. 5 of the paper).
///
/// ```
/// use fedra_geo::{Point, Range, SpatialObject};
/// use fedra_index::lsr::LsrForest;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let objects: Vec<SpatialObject> = (0..10_000)
///     .map(|i| SpatialObject::at((i % 100) as f64, (i / 100) as f64, 1.0))
///     .collect();
/// let mut rng = StdRng::seed_from_u64(7);
/// let forest = LsrForest::from_objects(&objects, &mut rng);
///
/// // Level 0 is exact; deeper levels trade accuracy for speed.
/// let query = Range::circle(Point::new(50.0, 50.0), 20.0);
/// let exact = forest.query_at_level(&query, 0).count;
/// let (approx, level) = forest.query(&query, 0.2, 0.05, exact);
/// assert!(level > 0);
/// assert!((approx.count - exact).abs() / exact < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct LsrForest {
    levels: Vec<RTree>,
}

impl LsrForest {
    /// Builds the forest (Alg. 5). O(n log n) time and space overall: the
    /// level sizes form a geometric series, so the forest costs about as
    /// much as two plain R-trees.
    ///
    /// Sampling uses the caller's RNG so builds are reproducible.
    pub fn build<R: Rng + ?Sized>(
        objects: &[SpatialObject],
        config: RTreeConfig,
        rng: &mut R,
    ) -> Self {
        Self::build_with(objects, config, None, rng, &WorkerPool::sequential())
    }

    /// Builds the forest with the level trees bulk-loaded on a
    /// [`WorkerPool`], every level packed along `grid` when one is given
    /// ([`RTree::bulk_load_with`]). All level samples are drawn first —
    /// the RNG stream defines the nested levels (level `l` samples level
    /// `l−1`), so sampling stays sequential, consumes exactly the same
    /// stream as the sequential build, and does not depend on the grid.
    /// One pooled x-sort then serves every level; under a grid, each
    /// level regroups its share of that order by cell.
    pub fn build_with<R: Rng + ?Sized>(
        objects: &[SpatialObject],
        config: RTreeConfig,
        grid: Option<&GridSpec>,
        rng: &mut R,
        pool: &WorkerPool,
    ) -> Self {
        if objects.is_empty() {
            return Self {
                levels: vec![RTree::bulk_load_with(Vec::new(), config, grid, pool)],
            };
        }
        let max_level = (objects.len() as f64).log2().floor() as u8;
        // depth[i]: the deepest level object i is sampled into. Level l
        // flips one coin per member of level l − 1, in input order.
        let mut depth = vec![0u8; objects.len()];
        let mut sizes = vec![objects.len()];
        for l in 1..=max_level {
            let mut kept = 0;
            for d in depth.iter_mut().filter(|d| **d == l - 1) {
                if rng.random::<bool>() {
                    *d = l;
                    kept += 1;
                }
            }
            if kept == 0 {
                break;
            }
            sizes.push(kept);
        }
        // A stable sort of a subsequence is that subsequence of the
        // stable sort, so one x-sort of everything, filtered per level,
        // is every level's own x-sort. Each object's cell is keyed once
        // too. Each level is gathered at exact capacity: its tree keeps
        // the vector.
        let key = |o: &SpatialObject| grid.map_or(NO_CELL, |grid| cell_key(grid, o));
        let mut sorted: Vec<(SpatialObject, u8, u32)> = objects
            .iter()
            .zip(depth)
            .map(|(o, d)| (*o, d, key(o)))
            .collect();
        pool.sort_by(&mut sorted, |a, b| by_x(&a.0, &b.0));
        let keyed = grid.is_some();
        let mut samples: Vec<Sample> = sizes
            .iter()
            .map(|&n| Sample {
                objects: Vec::with_capacity(n),
                keys: Vec::with_capacity(if keyed { n } else { 0 }),
                tree: None,
            })
            .collect();
        for &(o, d, k) in &sorted {
            for level in &mut samples[..=usize::from(d)] {
                level.objects.push(o);
                if keyed {
                    level.keys.push(k);
                }
            }
        }
        drop(sorted);
        // T_0 dominates the build cost: it gets the pool's parallel slab
        // sorts. The sampled trees are independent of each other and run
        // one per worker (sequential sorts — they are already on the pool).
        let pack = |sample: &mut Sample, pool: &WorkerPool| {
            let objects = std::mem::take(&mut sample.objects);
            let keys = std::mem::take(&mut sample.keys);
            RTree::pack_x_sorted(objects, grid.map(|g| (g, &keys[..])), config, pool)
        };
        let mut levels = vec![pack(&mut samples[0], pool)];
        let sequential = WorkerPool::sequential();
        pool.for_each_mut(samples[1..].chunks_mut(1).collect(), |_, slot| {
            let sample = &mut slot[0];
            sample.tree = Some(pack(sample, &sequential));
        });
        levels.extend(samples.into_iter().filter_map(|s| s.tree));
        Self { levels }
    }

    /// Builds with the default R-tree configuration.
    pub fn from_objects<R: Rng + ?Sized>(objects: &[SpatialObject], rng: &mut R) -> Self {
        Self::build(objects, RTreeConfig::default(), rng)
    }

    /// Number of levels actually built (`T_0 … T_{levels−1}`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The full-resolution tree `T_0` (also the EXACT local index).
    pub fn base(&self) -> &RTree {
        &self.levels[0]
    }

    /// Access one level's tree (tests, diagnostics).
    pub fn level(&self, l: usize) -> Option<&RTree> {
        self.levels.get(l)
    }

    /// The Lemma-1 level selection rule ([`lemma1_level`]), clamped to
    /// the available levels.
    ///
    /// * `epsilon` — target approximation ratio (ε in Definition 3);
    /// * `delta` — failure probability upper bound;
    /// * `sum0` — rough COUNT estimate of the query result from the grid
    ///   index (the paper: "the aggregation result of grids that intersect
    ///   with the query range").
    pub fn select_level(&self, epsilon: f64, delta: f64, sum0: f64) -> usize {
        self.clamp_level(lemma1_level(epsilon, delta, sum0))
    }

    /// The deepest level this forest holds at or below `level`: the level
    /// [`Self::query_at_level`] answers on.
    pub fn clamp_level(&self, level: usize) -> usize {
        level.min(self.levels.len() - 1)
    }

    /// Alg. 6: answers the local range aggregation query on level `l` and
    /// re-scales by `2^l`. The returned aggregate is an unbiased estimate
    /// of the exact local answer.
    pub fn query_at_level(&self, range: &Range, level: usize) -> Aggregate {
        let l = self.clamp_level(level);
        self.levels[l].aggregate(range).scale((1u64 << l) as f64)
    }

    /// Alg. 6 end-to-end: select the level from `(ε, δ, sum₀)` and query.
    /// Returns the estimate together with the level used (for diagnostics
    /// and the Fig. 6/7 sweeps).
    pub fn query(&self, range: &Range, epsilon: f64, delta: f64, sum0: f64) -> (Aggregate, usize) {
        let l = self.select_level(epsilon, delta, sum0);
        (self.query_at_level(range, l), l)
    }

    /// Clipped variant of [`Self::query_at_level`]: estimates the
    /// aggregate of objects in `range ∩ clip` (both closed), re-scaled
    /// from level `l` ([`RTree::aggregate_clipped`]).
    pub fn query_clipped_at_level(&self, range: &Range, clip: &Rect, level: usize) -> Aggregate {
        let l = self.clamp_level(level);
        self.levels[l]
            .aggregate_clipped(range, clip)
            .scale((1u64 << l) as f64)
    }

    /// The per-grid-cell contributions of NonIID-est+LSR: one estimate per
    /// cell of `cells`, each the scan of that cell's run of `T_l`
    /// ([`RTree::aggregate_cells`]) re-scaled by `2^l`.
    ///
    /// # Panics
    /// Panics on a forest built without a grid: it has no cells.
    pub fn query_cells_at_level(
        &self,
        range: &Range,
        cells: &[CellId],
        level: usize,
    ) -> Vec<Aggregate> {
        let l = self.clamp_level(level);
        let scale = (1u64 << l) as f64;
        let mut out = self.levels[l].aggregate_cells(range, cells);
        for agg in &mut out {
            *agg = agg.scale(scale);
        }
        out
    }

    /// Number of objects in the base level.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// Whether the base level is empty.
    pub fn is_empty(&self) -> bool {
        self.levels[0].is_empty()
    }
}

/// One level's sample on its way to a tree: its objects in x order and,
/// under a grid, their cell keys; the tree once packed.
struct Sample {
    objects: Vec<SpatialObject>,
    keys: Vec<u32>,
    tree: Option<RTree>,
}

impl IndexMemory for LsrForest {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.levels.iter().map(|t| t.memory_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_geo::Point;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn objects(n: usize, seed: u64) -> Vec<SpatialObject> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                SpatialObject::at(
                    rng.random_range(0.0..100.0),
                    rng.random_range(0.0..100.0),
                    (i % 5) as f64 + 1.0,
                )
            })
            .collect()
    }

    #[test]
    fn empty_forest_has_single_empty_level() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = LsrForest::from_objects(&[], &mut rng);
        assert_eq!(f.num_levels(), 1);
        assert!(f.is_empty());
        let q = Range::circle(Point::new(0.0, 0.0), 5.0);
        assert_eq!(f.query_at_level(&q, 0), Aggregate::ZERO);
        assert_eq!(f.query_at_level(&q, 7), Aggregate::ZERO);
    }

    #[test]
    fn level_zero_is_exact() {
        let objs = objects(500, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let f = LsrForest::from_objects(&objs, &mut rng);
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let exact = RTree::from_objects(&objs).aggregate(&q);
        assert_eq!(f.query_at_level(&q, 0), exact);
    }

    #[test]
    fn levels_shrink_geometrically() {
        let objs = objects(4096, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let f = LsrForest::from_objects(&objs, &mut rng);
        assert!(f.num_levels() >= 8, "got {} levels", f.num_levels());
        for l in 1..f.num_levels() {
            let prev = f.level(l - 1).unwrap().len();
            let cur = f.level(l).unwrap().len();
            assert!(cur <= prev, "level {l} grew: {cur} > {prev}");
            // With n ≥ a few hundred the binomial is concentrated; allow
            // generous slack for the small deep levels.
            if prev >= 256 {
                let ratio = cur as f64 / prev as f64;
                assert!((0.35..=0.65).contains(&ratio), "level {l} ratio {ratio}");
            }
        }
    }

    #[test]
    fn every_level_is_the_tree_its_own_sample_bulk_loads_into() {
        // Integer x values tie in bulk, so the stable order of equal keys
        // shows: the one shared x-sort must tie-break each level as that
        // level's own sort would.
        let objs: Vec<SpatialObject> = objects(3000, 12)
            .into_iter()
            .map(|o| SpatialObject::at(o.location.x.floor(), o.location.y, o.measure))
            .collect();
        let config = RTreeConfig::with_fanout(5);
        let pool = WorkerPool::new(2);
        // The same holds packed along a grid: each level's (cell, x)
        // order is the one its own bulk load regroups it into.
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let (aligned, finer) = (GridSpec::new(bounds, 10.0), GridSpec::new(bounds, 3.0));
        let q = Range::circle(Point::new(41.0, 52.0), 17.0);
        let clips: Vec<Rect> = (0..100).map(|id| aligned.cell_rect_of(id)).collect();
        // Per cell under a grid; per closed clip without one.
        let probe = |t: &RTree, grid: Option<&GridSpec>| -> Vec<Aggregate> {
            match grid {
                Some(g) => t.aggregate_cells(&q, &(0..g.num_cells() as CellId).collect::<Vec<_>>()),
                None => clips.iter().map(|c| t.aggregate_clipped(&q, c)).collect(),
            }
        };
        for grid in [None, Some(&aligned), Some(&finer)] {
            let seed = StdRng::seed_from_u64(13);
            let forest = LsrForest::build_with(&objs, config, grid, &mut seed.clone(), &pool);
            // Alg. 5 drawn the plain way: level l filters level l − 1.
            let mut rng = seed;
            let mut sample = objs.clone();
            for l in 0..forest.num_levels() {
                if l > 0 {
                    sample.retain(|_| rng.random::<bool>());
                }
                let sequential = WorkerPool::sequential();
                let want = RTree::bulk_load_with(sample.clone(), config, grid, &sequential);
                let got = forest.level(l).unwrap();
                let what = format!("level {l}, grid {:?}", grid.map(GridSpec::cell_len));
                assert_eq!(got.objects(), want.objects(), "{what}");
                assert_eq!(got.node_count(), want.node_count(), "{what}");
                assert_eq!(got.height(), want.height(), "{what}");
                assert_eq!(probe(got, grid), probe(&want, grid), "{what}");
            }
        }
    }

    #[test]
    fn level_sampling_is_nested() {
        // Every object at level l must exist at level l−1 (Alg. 5 samples
        // from the previous level, not from scratch).
        let objs = objects(1024, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let f = LsrForest::from_objects(&objs, &mut rng);
        let everything = Range::rect(Point::new(-1.0, -1.0), Point::new(101.0, 101.0));
        for l in 1..f.num_levels() {
            let upper: std::collections::HashSet<(u64, u64)> = f
                .level(l - 1)
                .unwrap()
                .query_objects(&everything)
                .iter()
                .map(|o| (o.location.x.to_bits(), o.location.y.to_bits()))
                .collect();
            for o in f.level(l).unwrap().query_objects(&everything) {
                assert!(
                    upper.contains(&(o.location.x.to_bits(), o.location.y.to_bits())),
                    "level {l} object missing from level {}",
                    l - 1
                );
            }
        }
    }

    #[test]
    fn select_level_monotone_in_sum0_and_epsilon() {
        let objs = objects(65536, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let f = LsrForest::from_objects(&objs, &mut rng);
        let l_small = f.select_level(0.1, 0.01, 100.0);
        let l_large = f.select_level(0.1, 0.01, 100_000.0);
        assert!(l_large >= l_small);
        let l_tight = f.select_level(0.01, 0.01, 100_000.0);
        let l_loose = f.select_level(0.5, 0.01, 100_000.0);
        assert!(l_loose >= l_tight);
        // Tighter delta → lower level.
        let l_strict = f.select_level(0.1, 1e-9, 100_000.0);
        let l_lax = f.select_level(0.1, 0.1, 100_000.0);
        assert!(l_lax >= l_strict);
    }

    #[test]
    fn select_level_formula_matches_lemma1() {
        let objs = objects(1 << 16, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let f = LsrForest::from_objects(&objs, &mut rng);
        let (eps, delta, sum0) = (0.1, 0.01, 50_000.0);
        let expected = ((eps * eps * sum0) / (3.0 * (2.0f64 / delta).ln()))
            .log2()
            .floor() as usize;
        assert_eq!(
            f.select_level(eps, delta, sum0),
            expected.min(f.num_levels() - 1)
        );
    }

    #[test]
    fn select_level_handles_degenerate_inputs() {
        let objs = objects(256, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let f = LsrForest::from_objects(&objs, &mut rng);
        assert_eq!(f.select_level(0.1, 0.01, 0.0), 0);
        assert_eq!(f.select_level(0.1, 0.01, -5.0), 0);
        assert_eq!(f.select_level(1e-6, 0.01, 10.0), 0); // tiny ε → level 0
    }

    #[test]
    #[should_panic(expected = "delta must be a probability")]
    fn select_level_rejects_bad_delta() {
        let mut rng = StdRng::seed_from_u64(14);
        let f = LsrForest::from_objects(&objects(16, 14), &mut rng);
        f.select_level(0.1, 1.5, 10.0);
    }

    #[test]
    fn estimate_is_unbiased_across_builds() {
        // E[res_l · 2^l] = res (Lemma 1). Average many independently
        // sampled forests and check the mean converges to the exact count.
        let objs = objects(2048, 15);
        let q = Range::circle(Point::new(50.0, 50.0), 25.0);
        let exact = RTree::from_objects(&objs).aggregate(&q).count;
        assert!(exact > 100.0, "test range too small: {exact}");
        let trials = 300;
        let level = 3;
        let mut sum = 0.0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(1000 + t);
            let f = LsrForest::from_objects(&objs, &mut rng);
            sum += f.query_at_level(&q, level).count;
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.05, "mean {mean} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn query_uses_selected_level() {
        let objs = objects(1 << 14, 16);
        let mut rng = StdRng::seed_from_u64(17);
        let f = LsrForest::from_objects(&objs, &mut rng);
        let q = Range::circle(Point::new(50.0, 50.0), 30.0);
        let (est, level) = f.query(&q, 0.2, 0.05, 4000.0);
        assert_eq!(level, f.select_level(0.2, 0.05, 4000.0));
        assert!(est.count >= 0.0);
    }

    #[test]
    fn clipped_query_scales_like_unclipped() {
        let objs = objects(4096, 18);
        let mut rng = StdRng::seed_from_u64(19);
        let f = LsrForest::from_objects(&objs, &mut rng);
        let q = Range::circle(Point::new(50.0, 50.0), 30.0);
        let clip = Rect::new(Point::new(40.0, 40.0), Point::new(60.0, 60.0));
        let whole_plane = Rect::new(Point::new(-1e9, -1e9), Point::new(1e9, 1e9));
        let a = f.query_clipped_at_level(&q, &whole_plane, 2);
        let b = f.query_at_level(&q, 2);
        assert_eq!(a, b);
        let clipped = f.query_clipped_at_level(&q, &clip, 2);
        assert!(clipped.count <= a.count);
    }

    #[test]
    fn cell_answers_are_each_level_s_cell_scans_re_scaled() {
        // Integer-lattice objects put a share of them exactly on the
        // edges and corners of the 10-unit grid.
        let mut objs = objects(3000, 24);
        for (i, o) in objs.iter_mut().enumerate().filter(|(i, _)| i % 4 == 0) {
            o.location = Point::new(((i / 4) % 11) as f64 * 10.0, ((i / 44) % 11) as f64 * 10.0);
        }
        let grid = GridSpec::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            10.0,
        );
        let config = RTreeConfig::default();
        let pool = WorkerPool::sequential();
        let mut rng = StdRng::seed_from_u64(25);
        let f = LsrForest::build_with(&objs, config, Some(&grid), &mut rng, &pool);
        // Every cell, a repeat, and one past the grid.
        let mut cells: Vec<CellId> = (0..100).collect();
        cells.extend([17, 100]);
        let bits = |a: &Aggregate| (a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits());
        for q in [
            Range::circle(Point::new(50.0, 50.0), 30.0),
            Range::rect(Point::new(10.0, 20.0), Point::new(60.0, 90.0)),
        ] {
            // One level past the forest checks the clamp as well.
            for level in 0..=f.num_levels() {
                let got = f.query_cells_at_level(&q, &cells, level);
                assert_eq!(got.len(), cells.len());
                let l = level.min(f.num_levels() - 1);
                let scale = (1u64 << l) as f64;
                for (&id, got) in cells.iter().zip(&got) {
                    let want = f.levels[l]
                        .objects()
                        .iter()
                        .filter(|o| {
                            grid.cell_of(&o.location) == Some(id) && q.contains_point(&o.location)
                        })
                        .fold(Aggregate::ZERO, |a, o| a.merge(&Aggregate::of(o)))
                        .scale(scale);
                    assert_eq!(bits(got), bits(&want), "level {level}, cell {id}");
                }
                // Each object counts in exactly one cell.
                let counted: f64 = got[..100].iter().map(|a| a.count).sum();
                assert_eq!(counted, f.query_at_level(&q, level).count, "level {level}");
                assert!(f.query_cells_at_level(&q, &[], level).is_empty());
                let clip = grid.cell_rect_of(37);
                assert_eq!(
                    bits(&f.query_clipped_at_level(&q, &clip, level)),
                    bits(&f.levels[l].aggregate_clipped(&q, &clip).scale(scale)),
                    "one clip, level {level}"
                );
            }
        }
        let empty = LsrForest::build_with(&[], config, Some(&grid), &mut rng, &pool);
        let q = Range::circle(Point::new(50.0, 50.0), 30.0);
        assert_eq!(
            empty.query_cells_at_level(&q, &cells[..3], 5),
            vec![Aggregate::ZERO; 3]
        );
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let objs = objects(10_000, 22);
        let mut rng_seq = StdRng::seed_from_u64(23);
        let mut rng_par = StdRng::seed_from_u64(23);
        let seq = LsrForest::build(&objs, RTreeConfig::default(), &mut rng_seq);
        let par = LsrForest::build_with(
            &objs,
            RTreeConfig::default(),
            None,
            &mut rng_par,
            &WorkerPool::new(4),
        );
        // Same RNG stream → same levels; same sorts → same trees.
        assert_eq!(rng_seq.random::<u64>(), rng_par.random::<u64>());
        assert_eq!(seq.num_levels(), par.num_levels());
        let q = Range::circle(Point::new(50.0, 50.0), 25.0);
        for l in 0..seq.num_levels() {
            let (a, b) = (seq.level(l).unwrap(), par.level(l).unwrap());
            assert_eq!(a.len(), b.len(), "level {l} size");
            assert_eq!(a.total().sum.to_bits(), b.total().sum.to_bits());
            assert_eq!(
                a.aggregate(&q).sum.to_bits(),
                b.aggregate(&q).sum.to_bits(),
                "level {l} query"
            );
        }
    }

    #[test]
    fn memory_is_about_twice_a_single_tree() {
        let objs = objects(1 << 14, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let f = LsrForest::from_objects(&objs, &mut rng);
        let single = RTree::from_objects(&objs);
        let ratio = f.memory_bytes() as f64 / single.memory_bytes() as f64;
        // Geometric series: Σ 2^{-i} = 2, modest slack for fixed overheads.
        assert!((1.5..=2.6).contains(&ratio), "ratio {ratio}");
    }
}
