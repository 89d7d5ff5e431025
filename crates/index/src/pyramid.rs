//! Multi-resolution coarsenings of a [`GridIndex`] — the provider-side
//! pyramid `L1..Lk` over the merged federation grid `g₀`.
//!
//! Each level halves the grid resolution by merging 2×2 blocks of the
//! previous level (the classical image-pyramid / pre-aggregation scheme:
//! estimating range aggregates from coarse pre-computed aggregates is
//! well-grounded — see e.g. arXiv cs/0501029). Every level also carries
//! its own cumulative (prefix-sum) array, so level-aligned rectangle sums
//! stay O(1) at every resolution.
//!
//! The payoff is [`GridPyramid::estimate`]: a top-down refinement that
//! answers a range query from the **coarsest cells whose boundary error
//! fits the caller's ε budget**. Coarse cells fully contained in the
//! range contribute exactly; cells straddling the range boundary either
//! get estimated in place by area fraction (when the accumulated bound
//! already fits ε) or are split into their four children one level down,
//! all the way to the base grid when ε demands it. The absolute error
//! bound of the served answer is *computed* alongside it — never assumed.
//!
//! Determinism contract (DESIGN.md "Threading model"): builds run on the
//! [`WorkerPool`] with chunk boundaries derived from grid dimensions only
//! and every 2×2 merge in fixed child order, so pyramids are bit-identical
//! at every pool size. Queries are sequential and allocation-order
//! deterministic.

use fedra_geo::{intersection_area, Point, Range, Rect, RectRelation};

use crate::agg::Aggregate;
use crate::grid::{GridIndex, GridSpec};
use crate::pool::WorkerPool;
use crate::IndexMemory;

/// Coarse rows per coarsening task. Derived from the grid dimensions
/// only — never from the pool size — to keep builds bit-identical at
/// every worker count (same contract as `BUILD_CHUNK_OBJECTS`).
const COARSEN_CHUNK_ROWS: u32 = 64;

/// Hard cap on pyramid depth. 2¹² cells per side is far beyond any grid
/// the federation builds; the cap only bounds pathological specs.
const MAX_LEVELS: usize = 12;

/// One coarsening level: a 2×2-merged grid plus its prefix-sum array.
#[derive(Debug, Clone)]
pub struct PyramidLevel {
    /// Base cells per coarse cell side: `2^level`.
    factor: u32,
    /// Coarse columns: `ceil(base_nx / factor)`.
    nx: u32,
    /// Coarse rows: `ceil(base_ny / factor)`.
    ny: u32,
    /// Row-major coarse cell aggregates.
    cells: Vec<Aggregate>,
    /// Cumulative array, `(nx+1) × (ny+1)` with a zero guard row/column
    /// (same layout as [`crate::grid::PrefixGrid`]).
    cum: Vec<Aggregate>,
}

impl PyramidLevel {
    /// Base cells per coarse cell side at this level.
    pub fn factor(&self) -> u32 {
        self.factor
    }

    /// Coarse grid width in cells.
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Coarse grid height in cells.
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Row-major coarse cell aggregates.
    pub fn cells(&self) -> &[Aggregate] {
        &self.cells
    }

    /// The aggregate of coarse cell `(ix, iy)`.
    pub fn cell(&self, ix: u32, iy: u32) -> &Aggregate {
        &self.cells[(iy * self.nx + ix) as usize]
    }

    /// O(1) inclusive coarse-rectangle sum `[ix0..=ix1] × [iy0..=iy1]`
    /// by 2-D inclusion–exclusion over the cumulative array.
    pub fn rect_sum(&self, ix0: u32, iy0: u32, ix1: u32, iy1: u32) -> Aggregate {
        assert!(ix0 <= ix1 && ix1 < self.nx, "x range out of bounds");
        assert!(iy0 <= iy1 && iy1 < self.ny, "y range out of bounds");
        let w = (self.nx + 1) as usize;
        let at = |ix: u32, iy: u32| self.cum[iy as usize * w + ix as usize];
        let a = at(ix0, iy0);
        let b = at(ix1 + 1, iy0);
        let c = at(ix0, iy1 + 1);
        let d = at(ix1 + 1, iy1 + 1);
        d.sub(&b).sub(&c).merge(&a)
    }

    /// The coarse cell's rectangle in base-spec coordinates. Exactly the
    /// union of its base cells' rectangles: the coarse edge coordinates
    /// `ix·(2^l·len)` and the fine ones `(2^l·ix)·len` round identically
    /// because scaling by a power of two is exact in binary floating
    /// point.
    fn cell_rect(&self, spec: &GridSpec, ix: u32, iy: u32) -> Rect {
        let len = spec.cell_len() * self.factor as f64;
        let min = spec.bounds().min;
        Rect::new(
            Point::new(min.x + ix as f64 * len, min.y + iy as f64 * len),
            Point::new(min.x + (ix + 1) as f64 * len, min.y + (iy + 1) as f64 * len),
        )
    }
}

/// An answer served from the pyramid, with its computed error bound.
///
/// `aggregate = interior + Σ frac_i · mass_i` over the frontier cells the
/// refinement stopped at; `interior` is the exact mass of all cells fully
/// contained in the range (a lower bound on the true answer), and `bound`
/// is the per-component absolute error bound
/// `Σ max(frac_i, 1 − frac_i) · mass_i` over those frontier cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PyramidEstimate {
    /// The served estimate.
    pub aggregate: Aggregate,
    /// Exact mass of fully-contained cells (true answer is ≥ this,
    /// component-wise, for non-negative measures).
    pub interior: Aggregate,
    /// Per-component absolute error bound of `aggregate`.
    pub bound: Aggregate,
    /// Pyramid level the boundary frontier settled at (0 = base grid).
    pub level: u32,
    /// Cells touched across all levels — the work the pyramid actually
    /// did, for benchmarks and observability.
    pub cells_read: usize,
}

impl PyramidEstimate {
    /// Relative error bound of the served answer: the worst, over the
    /// COUNT / SUM / SUM_SQR components, of `bound / interior`.
    ///
    /// Sound for non-negative measures (the paper's trajectory
    /// workloads): each boundary cell's true in-range mass lies in
    /// `[0, mass]`, so `|estimate − ans| ≤ bound` while `ans ≥ interior`.
    /// Components with no boundary mass bound to 0; boundary mass over an
    /// empty interior (or a negative-sum cell, where `[0, mass]` no
    /// longer brackets the truth) yields `+∞` — never servable.
    pub fn relative_bound(&self) -> f64 {
        let rel = |bound: f64, interior: f64| -> f64 {
            if bound <= 0.0 {
                0.0
            } else if interior <= 0.0 {
                f64::INFINITY
            } else {
                bound / interior
            }
        };
        rel(self.bound.count, self.interior.count)
            .max(rel(self.bound.sum, self.interior.sum))
            .max(rel(self.bound.sum_sqr, self.interior.sum_sqr))
    }

    /// Whether the computed bound fits a requested ε.
    pub fn meets(&self, epsilon: f64) -> bool {
        self.relative_bound() <= epsilon
    }
}

/// Coarsening levels `L1..Lk` of a [`GridIndex`], each with a prefix-sum
/// array. See the module docs for the determinism and accuracy contract.
#[derive(Debug, Clone)]
pub struct GridPyramid {
    /// The base (L0) grid spec the pyramid was built over.
    spec: GridSpec,
    /// `levels[l-1]` holds level `l` (factor `2^l`); L0 stays in the
    /// [`GridIndex`] itself.
    levels: Vec<PyramidLevel>,
}

impl GridPyramid {
    /// Builds the full pyramid sequentially.
    pub fn build(base: &GridIndex) -> Self {
        Self::build_with(base, &WorkerPool::sequential())
    }

    /// Builds the full pyramid on `pool`. Levels are added until the
    /// coarsest is a single cell (or [`MAX_LEVELS`], whichever first);
    /// the result is bit-identical for every pool size.
    pub fn build_with(base: &GridIndex, pool: &WorkerPool) -> Self {
        let spec = *base.spec();
        let mut levels: Vec<PyramidLevel> = Vec::new();
        loop {
            let (pnx, pny, prev_cells) = match levels.last() {
                Some(level) => (level.nx, level.ny, level.cells.as_slice()),
                None => (spec.nx(), spec.ny(), base.cells()),
            };
            if (pnx <= 1 && pny <= 1) || levels.len() >= MAX_LEVELS {
                break;
            }
            let nx = pnx.div_ceil(2);
            let ny = pny.div_ceil(2);
            let cells = coarsen(prev_cells, pnx, pny, nx, ny, pool);
            let cum = prefix(&cells, nx, ny);
            let factor = 2u32 << levels.len();
            levels.push(PyramidLevel {
                factor,
                nx,
                ny,
                cells,
                cum,
            });
        }
        Self { spec, levels }
    }

    /// The base grid spec this pyramid coarsens.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Number of coarsening levels above the base grid (`k` in `L0..Lk`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Level `l` (1-based; L0 lives in the base [`GridIndex`]).
    pub fn level(&self, l: usize) -> &PyramidLevel {
        assert!(
            l >= 1 && l <= self.levels.len(),
            "pyramid level {l} out of range 1..={}",
            self.levels.len()
        );
        &self.levels[l - 1]
    }

    /// O(1) coarse-rectangle sum at level `l` (1-based).
    pub fn rect_sum(&self, l: usize, ix0: u32, iy0: u32, ix1: u32, iy1: u32) -> Aggregate {
        self.level(l).rect_sum(ix0, iy0, ix1, iy1)
    }

    /// Answers `range` from the coarsest cells whose boundary error fits
    /// `epsilon`, refining boundary cells level by level (to the base
    /// grid when ε demands it). See [`PyramidEstimate`] for the served
    /// bound semantics; `base` must be the grid this pyramid was built
    /// from.
    pub fn estimate(&self, base: &GridIndex, range: &Range, epsilon: f64) -> PyramidEstimate {
        assert_eq!(
            base.spec(),
            &self.spec,
            "pyramid was built over a different grid spec"
        );
        assert!(epsilon >= 0.0, "epsilon must be non-negative");

        let mut interior = Aggregate::ZERO;
        let mut cells_read = 0usize;
        // The boundary frontier at the current level: cell coords plus
        // the cell's aggregate and its in-range area fraction.
        let mut frontier: Vec<(u32, u32, Aggregate, f64)> = Vec::new();

        let mut level_number = self.levels.len() as u32;
        // Candidate coarse cells to classify at the current level. The
        // coarsest level is at most 2×2 (build loop runs to 1×1), so the
        // seed enumeration is O(1).
        let (top_nx, top_ny) = match self.levels.last() {
            Some(top) => (top.nx, top.ny),
            None => (self.spec.nx(), self.spec.ny()),
        };
        let mut candidates: Vec<(u32, u32)> = (0..top_ny)
            .flat_map(|iy| (0..top_nx).map(move |ix| (ix, iy)))
            .collect();

        loop {
            // Classify this level's candidates in deterministic order.
            frontier.clear();
            for &(ix, iy) in &candidates {
                cells_read += 1;
                let (rect, mass) = self.cell_at(base, level_number, ix, iy);
                match range.relation(&rect) {
                    RectRelation::Disjoint => {}
                    RectRelation::Contained => interior.merge_in(&mass),
                    RectRelation::Intersecting => {
                        let frac = intersection_area(range, &rect) / rect.area();
                        // Zero-width overlaps (a closed range edge grazing
                        // the next cell column) are treated as disjoint —
                        // the same measure-zero convention as the
                        // planner's boundary-mass weighting.
                        if frac > 0.0 {
                            frontier.push((ix, iy, mass, frac));
                        }
                    }
                }
            }

            // Would the area-fraction estimate of the current frontier
            // already satisfy ε? (Per component: Σ max(f,1−f)·mass ≤
            // ε · interior.) At the base grid there is nowhere finer to
            // go — serve regardless; the bound still reports the truth.
            let mut bound = Aggregate::ZERO;
            for &(_, _, mass, frac) in &frontier {
                bound.merge_in(&mass.scale(frac.max(1.0 - frac)));
            }
            let fits = |b: f64, i: f64| b <= epsilon * i;
            let served = level_number == 0
                || frontier.is_empty()
                || (fits(bound.count, interior.count)
                    && fits(bound.sum, interior.sum)
                    && fits(bound.sum_sqr, interior.sum_sqr));
            if served {
                let mut aggregate = interior;
                for &(_, _, mass, frac) in &frontier {
                    aggregate.merge_in(&mass.scale(frac));
                }
                return PyramidEstimate {
                    aggregate,
                    interior,
                    bound,
                    level: level_number,
                    cells_read,
                };
            }

            // Refine: the next level's candidates are the children of the
            // current boundary cells, in fixed (parent, dy, dx) order.
            let (child_nx, child_ny) = if level_number >= 2 {
                let child = &self.levels[level_number as usize - 2];
                (child.nx, child.ny)
            } else {
                (self.spec.nx(), self.spec.ny())
            };
            candidates.clear();
            for &(ix, iy, _, _) in &frontier {
                for dy in 0..2u32 {
                    for dx in 0..2u32 {
                        let cx = 2 * ix + dx;
                        let cy = 2 * iy + dy;
                        if cx < child_nx && cy < child_ny {
                            candidates.push((cx, cy));
                        }
                    }
                }
            }
            level_number -= 1;
        }
    }

    /// The rectangle and aggregate of cell `(ix, iy)` at `level_number`
    /// (0 = base grid).
    fn cell_at(&self, base: &GridIndex, level_number: u32, ix: u32, iy: u32) -> (Rect, Aggregate) {
        if level_number == 0 {
            let id = self.spec.cell_id(ix, iy);
            (self.spec.cell_rect(ix, iy), *base.cell(id))
        } else {
            let level = &self.levels[level_number as usize - 1];
            (level.cell_rect(&self.spec, ix, iy), *level.cell(ix, iy))
        }
    }
}

impl IndexMemory for GridPyramid {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .levels
                .iter()
                .map(|l| {
                    std::mem::size_of::<PyramidLevel>()
                        + (l.cells.capacity() + l.cum.capacity()) * std::mem::size_of::<Aggregate>()
                })
                .sum::<usize>()
    }
}

/// 2×2-merges `prev` (`pnx × pny`) into a `nx × ny` coarse grid. Each
/// coarse cell folds its (up to four) children in fixed
/// `(+0,+0) (+1,+0) (+0,+1) (+1,+1)` order; rows are chunked by
/// [`COARSEN_CHUNK_ROWS`] and concatenated in chunk order, so the result
/// is bit-identical at every pool size.
fn coarsen(
    prev: &[Aggregate],
    pnx: u32,
    pny: u32,
    nx: u32,
    ny: u32,
    pool: &WorkerPool,
) -> Vec<Aggregate> {
    let chunks: Vec<(u32, u32)> = (0..ny)
        .step_by(COARSEN_CHUNK_ROWS as usize)
        .map(|row0| (row0, (row0 + COARSEN_CHUNK_ROWS).min(ny)))
        .collect();
    let parts: Vec<Vec<Aggregate>> = pool.map(&chunks, |_, &(row0, row1)| {
        let mut out = Vec::with_capacity(((row1 - row0) * nx) as usize);
        for cy in row0..row1 {
            for cx in 0..nx {
                let mut agg = Aggregate::ZERO;
                for dy in 0..2u32 {
                    for dx in 0..2u32 {
                        let fx = 2 * cx + dx;
                        let fy = 2 * cy + dy;
                        if fx < pnx && fy < pny {
                            agg.merge_in(&prev[(fy * pnx + fx) as usize]);
                        }
                    }
                }
                out.push(agg);
            }
        }
        out
    });
    parts.concat()
}

/// Builds the `(nx+1) × (ny+1)` cumulative array of a coarse grid (same
/// recurrence as `PrefixGrid::build`).
fn prefix(cells: &[Aggregate], nx: u32, ny: u32) -> Vec<Aggregate> {
    let w = (nx + 1) as usize;
    let mut cum = vec![Aggregate::ZERO; w * (ny + 1) as usize];
    for iy in 0..ny as usize {
        for ix in 0..nx as usize {
            let cell = cells[iy * nx as usize + ix];
            let left = cum[(iy + 1) * w + ix];
            let above = cum[iy * w + ix + 1];
            let diag = cum[iy * w + ix];
            cum[(iy + 1) * w + ix + 1] = cell.merge(&left).merge(&above).sub(&diag);
        }
    }
    cum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PrefixGrid;
    use fedra_geo::SpatialObject;

    /// Deterministic objects with *integer* measures: integer-valued
    /// aggregates are exactly representable in f64, so any two exact
    /// summation orders agree bit-for-bit — which is what makes the
    /// interior-sum bit-identity assertions meaningful.
    fn objects(n: usize, seed: u64) -> Vec<SpatialObject> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                SpatialObject::at(x, y, (i % 7) as f64 + 1.0)
            })
            .collect()
    }

    fn grid(n: usize, seed: u64, cell_len: f64) -> GridIndex {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        GridIndex::build(GridSpec::new(bounds, cell_len), &objects(n, seed))
    }

    fn assert_bits(a: &Aggregate, b: &Aggregate, what: &str) {
        assert_eq!(a.count.to_bits(), b.count.to_bits(), "{what}: count");
        assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{what}: sum");
        assert_eq!(a.sum_sqr.to_bits(), b.sum_sqr.to_bits(), "{what}: sum_sqr");
    }

    #[test]
    fn levels_shrink_to_one_cell() {
        let g = grid(5_000, 3, 1.0); // 100×100 base
        let p = GridPyramid::build(&g);
        assert_eq!(p.num_levels(), 7); // 100→50→25→13→7→4→2→1
        let top = p.level(p.num_levels());
        assert_eq!((top.nx(), top.ny()), (1, 1));
        // Every level conserves total mass exactly (integer measures).
        let total = g.total();
        for l in 1..=p.num_levels() {
            let level = p.level(l);
            let sum: Aggregate = level.cells().iter().copied().sum();
            assert_bits(&sum, &total, &format!("level {l} total"));
            assert_bits(
                &level.rect_sum(0, 0, level.nx() - 1, level.ny() - 1),
                &total,
                &format!("level {l} full rect_sum"),
            );
        }
    }

    #[test]
    fn level_rect_sums_match_base_prefix_bit_for_bit() {
        // Property (satellite 3.1): on level-aligned rectangles, the
        // coarse rect_sum must agree bit-for-bit with the L0 PrefixGrid
        // over the same base cells, for every level and several windows.
        let g = grid(20_000, 17, 1.0);
        let p = GridPyramid::build(&g);
        let base = PrefixGrid::build(&g);
        let spec = g.spec();
        for l in 1..=p.num_levels() {
            let level = p.level(l);
            let f = level.factor();
            let windows = [
                (0, 0, level.nx() - 1, level.ny() - 1),
                (0, 0, level.nx() / 2, level.ny() / 2),
                (
                    level.nx() / 3,
                    level.ny() / 4,
                    level.nx() - 1,
                    level.ny() - 1,
                ),
            ];
            for (cx0, cy0, cx1, cy1) in windows {
                let coarse = level.rect_sum(cx0, cy0, cx1, cy1);
                let fine = base.rect_sum(
                    cx0 * f,
                    cy0 * f,
                    ((cx1 + 1) * f - 1).min(spec.nx() - 1),
                    ((cy1 + 1) * f - 1).min(spec.ny() - 1),
                );
                assert_bits(
                    &coarse,
                    &fine,
                    &format!("level {l} window ({cx0},{cy0})..({cx1},{cy1})"),
                );
            }
        }
    }

    #[test]
    fn builds_are_bit_identical_across_pool_sizes() {
        let g = grid(30_000, 29, 0.5); // 200×200: multiple row chunks
        let reference = GridPyramid::build_with(&g, &WorkerPool::new(1));
        for threads in [2, 4, 8] {
            let p = GridPyramid::build_with(&g, &WorkerPool::new(threads));
            assert_eq!(p.num_levels(), reference.num_levels());
            for l in 1..=p.num_levels() {
                for (i, (a, b)) in reference
                    .level(l)
                    .cells()
                    .iter()
                    .zip(p.level(l).cells())
                    .enumerate()
                {
                    assert_bits(a, b, &format!("threads {threads} level {l} cell {i}"));
                }
            }
        }
    }

    #[test]
    fn estimate_within_its_own_bound_against_truth() {
        // The served answer must honor its *computed* bound against the
        // base grid's exact covered+boundary decomposition.
        let g = grid(20_000, 41, 1.0);
        let p = GridPyramid::build(&g);
        let all = objects(20_000, 41);
        for (i, &(cx, cy, r)) in [
            (50.0, 50.0, 30.0),
            (20.0, 70.0, 15.0),
            (80.0, 30.0, 24.0),
            (50.0, 50.0, 49.0),
        ]
        .iter()
        .enumerate()
        {
            let range = Range::circle(Point::new(cx, cy), r);
            let truth = all
                .iter()
                .filter(|o| range.contains_point(&o.location))
                .count() as f64;
            for epsilon in [0.0, 0.02, 0.1, 0.5] {
                let est = p.estimate(&g, &range, epsilon);
                assert!(
                    (est.aggregate.count - truth).abs() <= est.bound.count + 1e-9,
                    "query {i} ε={epsilon}: |{} − {truth}| > bound {}",
                    est.aggregate.count,
                    est.bound.count
                );
                assert!(est.interior.count <= truth + 1e-9, "interior exceeds truth");
            }
        }
    }

    #[test]
    fn looser_epsilon_serves_coarser_levels() {
        let g = grid(50_000, 53, 0.5);
        let p = GridPyramid::build(&g);
        let range = Range::circle(Point::new(50.0, 50.0), 40.0);
        let tight = p.estimate(&g, &range, 0.0);
        let loose = p.estimate(&g, &range, 0.3);
        assert_eq!(tight.level, 0, "ε = 0 must refine to the base grid");
        assert!(
            loose.level > tight.level,
            "ε = 0.3 should settle above L0, got level {}",
            loose.level
        );
        assert!(
            loose.cells_read < tight.cells_read,
            "coarser serving must touch fewer cells ({} vs {})",
            loose.cells_read,
            tight.cells_read
        );
        assert!(loose.meets(0.3), "served bound must fit the budget");
    }

    #[test]
    fn epsilon_zero_matches_grid_only_decomposition() {
        // At ε = 0 the refinement lands on exactly the base grid's
        // covered + area-fraction-boundary decomposition (same cell set;
        // value equality up to float association).
        let g = grid(10_000, 61, 1.0);
        let p = GridPyramid::build(&g);
        let spec = g.spec();
        let range = Range::circle(Point::new(47.0, 53.0), 21.0);
        let est = p.estimate(&g, &range, 0.0);
        let cls = spec.classify(&range);
        let mut expect = g.aggregate_cells(cls.covered.iter().copied());
        for &id in &cls.boundary {
            let rect = spec.cell_rect_of(id);
            let frac = intersection_area(&range, &rect) / rect.area();
            expect.merge_in(&g.cell(id).scale(frac));
        }
        assert!(
            (est.aggregate.count - expect.count).abs() <= 1e-9 * expect.count.max(1.0),
            "{} vs {}",
            est.aggregate.count,
            expect.count
        );
        assert!(
            (est.aggregate.sum - expect.sum).abs() <= 1e-9 * expect.sum.abs().max(1.0),
            "{} vs {}",
            est.aggregate.sum,
            expect.sum
        );
    }

    #[test]
    fn aligned_rect_is_exact_at_tight_epsilon() {
        // A cell-aligned rectangle has only zero-width boundary cells at
        // L0, so ε = 0 refinement bottoms out with bound 0 and exactly
        // the covered-cell mass. A loose ε may legally stop coarse — but
        // must then stay within its own reported bound.
        let g = grid(10_000, 71, 1.0);
        let p = GridPyramid::build(&g);
        let range = Range::rect(Point::new(10.0, 20.0), Point::new(60.0, 80.0));
        let cls = g.spec().classify(&range);
        let exact = g.aggregate_cells(cls.covered.iter().copied());

        let tight = p.estimate(&g, &range, 0.0);
        assert!(tight.bound.count <= 1e-9, "aligned rect: no boundary error");
        assert_bits(&tight.aggregate, &exact, "aligned rect at ε = 0");

        let loose = p.estimate(&g, &range, 0.25);
        assert!(
            (loose.aggregate.count - exact.count).abs() <= loose.bound.count + 1e-9,
            "loose serving must stay within its reported bound"
        );
        assert!(loose.meets(0.25));
    }

    #[test]
    fn memory_accounting_is_positive_and_bounded() {
        let g = grid(10_000, 83, 1.0);
        let p = GridPyramid::build(&g);
        let bytes = p.memory_bytes();
        assert!(bytes > 0);
        // Geometric series: all levels together stay under ~2/3 of the
        // base grid's cell+prefix footprint.
        assert!(
            bytes < g.memory_bytes(),
            "pyramid ({bytes}) should be smaller than its base ({})",
            g.memory_bytes()
        );
    }
}
