//! Histograms for the OPTA baseline.
//!
//! The paper compares against "OPTA, an optimal approximate histogram-based
//! solution with provable guarantees \[23\]". Two variants are provided:
//!
//! * [`EquiWidthHistogram`] — fixed uniform buckets; the textbook baseline;
//! * [`MinSkewHistogram`] — a greedy binary-space-partition histogram that
//!   repeatedly splits the bucket with the highest internal *spatial skew*
//!   (sum of squared deviations of fine-grid cell counts) at the best
//!   position, the construction used by optimal/near-optimal spatial
//!   histograms in the literature. This is the default OPTA substrate.
//!
//! Estimation follows the uniform-within-bucket assumption: a query range
//! receives `area(range ∩ bucket) / area(bucket)` of each bucket's
//! aggregate. Errors concentrate in boundary buckets — which is exactly why
//! OPTA loses to the paper's estimators on accuracy while still being fast.

use fedra_geo::{intersection_area, Range, Rect, SpatialObject};

use crate::grid::{GridIndex, GridSpec};
use crate::{Aggregate, IndexMemory};

/// A fixed uniform-bucket histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiWidthHistogram {
    grid: GridIndex,
}

impl EquiWidthHistogram {
    /// Builds an equi-width histogram with `cell_len`-sized buckets.
    pub fn build(bounds: Rect, cell_len: f64, objects: &[SpatialObject]) -> Self {
        Self {
            grid: GridIndex::build(GridSpec::new(bounds, cell_len), objects),
        }
    }

    /// Estimates the range aggregate under uniform-within-bucket spread.
    pub fn estimate(&self, range: &Range) -> Aggregate {
        let spec = self.grid.spec();
        let mut acc = Aggregate::ZERO;
        let cls = spec.classify(range);
        for id in &cls.covered {
            acc.merge_in(self.grid.cell(*id));
        }
        for id in &cls.boundary {
            let rect = spec.cell_rect_of(*id);
            let frac = intersection_area(range, &rect) / rect.area();
            acc.merge_in(&self.grid.cell(*id).scale(frac));
        }
        acc
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.grid.spec().num_cells()
    }

    /// Grand total over all buckets.
    pub fn total(&self) -> Aggregate {
        self.grid.total()
    }
}

impl IndexMemory for EquiWidthHistogram {
    fn memory_bytes(&self) -> usize {
        self.grid.memory_bytes()
    }
}

/// One bucket of a [`MinSkewHistogram`]: a rectangle plus its aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Spatial extent of the bucket.
    pub rect: Rect,
    /// Aggregate of the objects inside.
    pub agg: Aggregate,
}

/// Build parameters for [`MinSkewHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinSkewConfig {
    /// Side length of the fine grid the skew statistics are computed on.
    /// Buckets align to this resolution.
    pub resolution: u32,
    /// Number of buckets to produce (the histogram "budget").
    pub budget: usize,
}

impl Default for MinSkewConfig {
    fn default() -> Self {
        Self {
            resolution: 128,
            budget: 256,
        }
    }
}

/// A greedy MinSkew binary-space-partition histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct MinSkewHistogram {
    buckets: Vec<Bucket>,
    bounds: Rect,
    total: Aggregate,
}

/// A candidate bucket during construction, in fine-grid cell coordinates
/// (inclusive ranges).
struct WorkBucket {
    ix0: u32,
    iy0: u32,
    ix1: u32,
    iy1: u32,
    skew: f64,
}

/// Fine-grid prefix sums of count, count², sum and sum_sqr.
struct FineGrid {
    nx: usize,
    /// (nx+1)×(ny+1) guard-padded prefix arrays.
    count: Vec<f64>,
    count_sq: Vec<f64>,
    sum: Vec<f64>,
    sum_sqr: Vec<f64>,
}

impl FineGrid {
    fn build(bounds: Rect, resolution: u32, objects: &[SpatialObject]) -> Self {
        let nx = resolution as usize;
        let ny = resolution as usize;
        let w = bounds.width() / nx as f64;
        let h = bounds.height() / ny as f64;
        let mut count = vec![0.0; nx * ny];
        let mut sum = vec![0.0; nx * ny];
        let mut sum_sqr = vec![0.0; nx * ny];
        for o in objects {
            let ix = (((o.location.x - bounds.min.x) / w).floor().max(0.0) as usize).min(nx - 1);
            let iy = (((o.location.y - bounds.min.y) / h).floor().max(0.0) as usize).min(ny - 1);
            let id = iy * nx + ix;
            count[id] += 1.0;
            sum[id] += o.measure;
            sum_sqr[id] += o.measure * o.measure;
        }
        // Prefix-sum each statistic (guard row/column of zeros).
        let pw = nx + 1;
        let prefix = |vals: &[f64], square: bool| -> Vec<f64> {
            let mut p = vec![0.0; pw * (ny + 1)];
            for iy in 0..ny {
                for ix in 0..nx {
                    let mut v = vals[iy * nx + ix];
                    if square {
                        v *= v;
                    }
                    p[(iy + 1) * pw + ix + 1] =
                        v + p[(iy + 1) * pw + ix] + p[iy * pw + ix + 1] - p[iy * pw + ix];
                }
            }
            p
        };
        Self {
            nx,
            count: prefix(&count, false),
            count_sq: prefix(&count, true),
            sum: prefix(&sum, false),
            sum_sqr: prefix(&sum_sqr, false),
        }
    }

    #[inline]
    fn rect_stat(&self, p: &[f64], ix0: u32, iy0: u32, ix1: u32, iy1: u32) -> f64 {
        let pw = self.nx + 1;
        let (ix0, iy0, ix1, iy1) = (ix0 as usize, iy0 as usize, ix1 as usize, iy1 as usize);
        p[(iy1 + 1) * pw + ix1 + 1] - p[iy0 * pw + ix1 + 1] - p[(iy1 + 1) * pw + ix0]
            + p[iy0 * pw + ix0]
    }

    /// Spatial skew (SSE of per-cell counts) of a cell rectangle.
    fn skew(&self, ix0: u32, iy0: u32, ix1: u32, iy1: u32) -> f64 {
        let n = ((ix1 - ix0 + 1) as f64) * ((iy1 - iy0 + 1) as f64);
        let s = self.rect_stat(&self.count, ix0, iy0, ix1, iy1);
        let ss = self.rect_stat(&self.count_sq, ix0, iy0, ix1, iy1);
        (ss - s * s / n).max(0.0)
    }

    fn aggregate(&self, ix0: u32, iy0: u32, ix1: u32, iy1: u32) -> Aggregate {
        Aggregate {
            count: self.rect_stat(&self.count, ix0, iy0, ix1, iy1),
            sum: self.rect_stat(&self.sum, ix0, iy0, ix1, iy1),
            sum_sqr: self.rect_stat(&self.sum_sqr, ix0, iy0, ix1, iy1),
        }
    }
}

impl MinSkewHistogram {
    /// Builds the histogram over `bounds` with the given config.
    pub fn build(bounds: Rect, config: MinSkewConfig, objects: &[SpatialObject]) -> Self {
        assert!(!bounds.is_empty(), "histogram bounds must be non-empty");
        assert!(config.resolution >= 1, "resolution must be at least 1");
        assert!(config.budget >= 1, "bucket budget must be at least 1");
        let fine = FineGrid::build(bounds, config.resolution, objects);
        let res = config.resolution;

        let mut work = vec![WorkBucket {
            ix0: 0,
            iy0: 0,
            ix1: res - 1,
            iy1: res - 1,
            skew: fine.skew(0, 0, res - 1, res - 1),
        }];

        while work.len() < config.budget {
            // Greedy: split the bucket with the highest skew at the
            // position that minimizes the children's combined skew.
            let (victim_idx, _) = match work
                .iter()
                .enumerate()
                .filter(|(_, b)| b.skew > 0.0 && (b.ix1 > b.ix0 || b.iy1 > b.iy0))
                .max_by(|a, b| a.1.skew.total_cmp(&b.1.skew))
            {
                Some((i, b)) => (i, b.skew),
                None => break, // nothing left worth splitting
            };
            let b = work.swap_remove(victim_idx);
            let mut best: Option<(f64, WorkBucket, WorkBucket)> = None;
            // Vertical splits.
            for sx in b.ix0..b.ix1 {
                let l = fine.skew(b.ix0, b.iy0, sx, b.iy1);
                let r = fine.skew(sx + 1, b.iy0, b.ix1, b.iy1);
                if best.as_ref().is_none_or(|(c, _, _)| l + r < *c) {
                    best = Some((
                        l + r,
                        WorkBucket {
                            ix0: b.ix0,
                            iy0: b.iy0,
                            ix1: sx,
                            iy1: b.iy1,
                            skew: l,
                        },
                        WorkBucket {
                            ix0: sx + 1,
                            iy0: b.iy0,
                            ix1: b.ix1,
                            iy1: b.iy1,
                            skew: r,
                        },
                    ));
                }
            }
            // Horizontal splits.
            for sy in b.iy0..b.iy1 {
                let lo = fine.skew(b.ix0, b.iy0, b.ix1, sy);
                let hi = fine.skew(b.ix0, sy + 1, b.ix1, b.iy1);
                if best.as_ref().is_none_or(|(c, _, _)| lo + hi < *c) {
                    best = Some((
                        lo + hi,
                        WorkBucket {
                            ix0: b.ix0,
                            iy0: b.iy0,
                            ix1: b.ix1,
                            iy1: sy,
                            skew: lo,
                        },
                        WorkBucket {
                            ix0: b.ix0,
                            iy0: sy + 1,
                            ix1: b.ix1,
                            iy1: b.iy1,
                            skew: hi,
                        },
                    ));
                }
            }
            match best {
                Some((_, l, r)) => {
                    work.push(l);
                    work.push(r);
                }
                None => {
                    work.push(b); // unsplittable single cell
                    break;
                }
            }
        }

        let cw = bounds.width() / res as f64;
        let ch = bounds.height() / res as f64;
        let mut total = Aggregate::ZERO;
        let buckets: Vec<Bucket> = work
            .iter()
            .map(|b| {
                let rect = Rect::from_corners(
                    fedra_geo::Point::new(
                        bounds.min.x + b.ix0 as f64 * cw,
                        bounds.min.y + b.iy0 as f64 * ch,
                    ),
                    fedra_geo::Point::new(
                        bounds.min.x + (b.ix1 + 1) as f64 * cw,
                        bounds.min.y + (b.iy1 + 1) as f64 * ch,
                    ),
                );
                let agg = fine.aggregate(b.ix0, b.iy0, b.ix1, b.iy1);
                total.merge_in(&agg);
                Bucket { rect, agg }
            })
            .collect();

        Self {
            buckets,
            bounds,
            total,
        }
    }

    /// Builds with the default config.
    pub fn from_objects(bounds: Rect, objects: &[SpatialObject]) -> Self {
        Self::build(bounds, MinSkewConfig::default(), objects)
    }

    /// Estimates the range aggregate under uniform-within-bucket spread.
    pub fn estimate(&self, range: &Range) -> Aggregate {
        let bbox = range.bounding_rect();
        let mut acc = Aggregate::ZERO;
        for b in &self.buckets {
            if !bbox.intersects(&b.rect) {
                continue;
            }
            if range.contains_rect(&b.rect) {
                acc.merge_in(&b.agg);
            } else {
                let overlap = intersection_area(range, &b.rect);
                if overlap > 0.0 {
                    acc.merge_in(&b.agg.scale(overlap / b.rect.area()));
                }
            }
        }
        acc
    }

    /// Number of buckets actually produced.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket list (read-only).
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Bounds the histogram covers.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Grand total over all buckets.
    pub fn total(&self) -> Aggregate {
        self.total
    }
}

impl IndexMemory for MinSkewHistogram {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.buckets.capacity() * std::mem::size_of::<Bucket>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_geo::Point;

    fn bounds() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    fn uniform_objects(n: usize) -> Vec<SpatialObject> {
        let mut objs = Vec::with_capacity(n);
        let mut state = 42u64;
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            objs.push(SpatialObject::at(x, y, (i % 3 + 1) as f64));
        }
        objs
    }

    /// Objects concentrated in two hot clusters plus a sparse background —
    /// skewed data where MinSkew should beat equi-width.
    fn skewed_objects(n: usize) -> Vec<SpatialObject> {
        let mut objs = Vec::with_capacity(n);
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            let (x, y) = if i % 10 < 4 {
                (20.0 + next() * 5.0, 20.0 + next() * 5.0)
            } else if i % 10 < 8 {
                (70.0 + next() * 5.0, 75.0 + next() * 5.0)
            } else {
                (next() * 100.0, next() * 100.0)
            };
            objs.push(SpatialObject::at(x, y, 1.0));
        }
        objs
    }

    fn brute(objs: &[SpatialObject], q: &Range) -> f64 {
        objs.iter()
            .filter(|o| q.contains_point(&o.location))
            .count() as f64
    }

    #[test]
    fn equiwidth_total_is_exact() {
        let objs = uniform_objects(1000);
        let h = EquiWidthHistogram::build(bounds(), 10.0, &objs);
        assert_eq!(h.total().count, 1000.0);
        assert_eq!(h.num_buckets(), 100);
    }

    #[test]
    fn equiwidth_whole_domain_query_is_exact() {
        let objs = uniform_objects(500);
        let h = EquiWidthHistogram::build(bounds(), 10.0, &objs);
        let q = Range::rect(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        assert!((h.estimate(&q).count - 500.0).abs() < 1e-6);
    }

    #[test]
    fn equiwidth_estimates_uniform_data_well() {
        let objs = uniform_objects(20_000);
        let h = EquiWidthHistogram::build(bounds(), 5.0, &objs);
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let est = h.estimate(&q).count;
        let exact = brute(&objs, &q);
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.05, "est {est} vs exact {exact}");
    }

    #[test]
    fn minskew_produces_requested_buckets() {
        let objs = skewed_objects(5000);
        let h = MinSkewHistogram::build(
            bounds(),
            MinSkewConfig {
                resolution: 64,
                budget: 100,
            },
            &objs,
        );
        assert_eq!(h.num_buckets(), 100);
        assert_eq!(h.total().count, 5000.0);
    }

    #[test]
    fn minskew_buckets_partition_the_domain() {
        let objs = skewed_objects(3000);
        let h = MinSkewHistogram::build(
            bounds(),
            MinSkewConfig {
                resolution: 32,
                budget: 50,
            },
            &objs,
        );
        // Areas add up to the domain; aggregates add up to the total.
        let area: f64 = h.buckets().iter().map(|b| b.rect.area()).sum();
        assert!((area - bounds().area()).abs() < 1e-6);
        let count: f64 = h.buckets().iter().map(|b| b.agg.count).sum();
        assert_eq!(count, 3000.0);
        // No pairwise interior overlap.
        for (i, a) in h.buckets().iter().enumerate() {
            for b in &h.buckets()[i + 1..] {
                let inter = a.rect.intersection(&b.rect);
                assert!(
                    inter.area() < 1e-9,
                    "buckets overlap: {} vs {}",
                    a.rect,
                    b.rect
                );
            }
        }
    }

    #[test]
    fn minskew_beats_equiwidth_on_skewed_data() {
        let objs = skewed_objects(30_000);
        // Same bucket budget for both: 10×10 equi-width vs 100 MinSkew.
        let ew = EquiWidthHistogram::build(bounds(), 10.0, &objs);
        let ms = MinSkewHistogram::build(
            bounds(),
            MinSkewConfig {
                resolution: 128,
                budget: 100,
            },
            &objs,
        );
        let queries = [
            Range::circle(Point::new(22.0, 22.0), 4.0),
            Range::circle(Point::new(72.0, 77.0), 4.0),
            Range::circle(Point::new(50.0, 50.0), 15.0),
            Range::circle(Point::new(21.0, 23.0), 8.0),
        ];
        let (mut err_ew, mut err_ms) = (0.0, 0.0);
        for q in &queries {
            let exact = brute(&objs, q).max(1.0);
            err_ew += (ew.estimate(q).count - exact).abs() / exact;
            err_ms += (ms.estimate(q).count - exact).abs() / exact;
        }
        assert!(
            err_ms < err_ew,
            "MinSkew total error {err_ms} should beat equi-width {err_ew}"
        );
    }

    #[test]
    fn minskew_whole_domain_query_is_exact() {
        let objs = skewed_objects(2000);
        let h = MinSkewHistogram::from_objects(bounds(), &objs);
        let q = Range::rect(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        assert!((h.estimate(&q).count - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn minskew_empty_data() {
        let h = MinSkewHistogram::from_objects(bounds(), &[]);
        let q = Range::circle(Point::new(50.0, 50.0), 10.0);
        assert_eq!(h.estimate(&q), Aggregate::ZERO);
        assert_eq!(h.total(), Aggregate::ZERO);
    }

    #[test]
    fn minskew_disjoint_query_is_zero() {
        let objs = uniform_objects(100);
        let h = MinSkewHistogram::from_objects(bounds(), &objs);
        let q = Range::circle(Point::new(500.0, 500.0), 10.0);
        assert_eq!(h.estimate(&q).count, 0.0);
    }

    #[test]
    fn budget_one_gives_single_bucket() {
        let objs = uniform_objects(100);
        let h = MinSkewHistogram::build(
            bounds(),
            MinSkewConfig {
                resolution: 16,
                budget: 1,
            },
            &objs,
        );
        assert_eq!(h.num_buckets(), 1);
        assert_eq!(h.buckets()[0].rect, bounds());
    }

    #[test]
    fn memory_scales_with_buckets() {
        let objs = uniform_objects(1000);
        let small = MinSkewHistogram::build(
            bounds(),
            MinSkewConfig {
                resolution: 32,
                budget: 10,
            },
            &objs,
        );
        let large = MinSkewHistogram::build(
            bounds(),
            MinSkewConfig {
                resolution: 32,
                budget: 200,
            },
            &objs,
        );
        assert!(large.memory_bytes() >= small.memory_bytes());
    }
}
