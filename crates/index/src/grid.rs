//! The grid index of Alg. 1 and its cumulative-array acceleration.
//!
//! The service provider asks every silo for a [`GridIndex`] over a shared
//! [`GridSpec`], then merges them into the federation-wide index `g₀`
//! ([`GridIndex::merge`]). Estimation (Algs. 2–3) classifies grid cells
//! against the query range with [`GridSpec::classify`]; the cumulative
//! array of the Sec. 4.2.1 remark is [`PrefixGrid`], which answers
//! rectangle-of-cells aggregates in O(1) by inclusion–exclusion.

use serde::{Deserialize, Serialize};

use fedra_geo::{Point, Range, Rect, RectRelation, SpatialObject};

use crate::pool::WorkerPool;
use crate::{Aggregate, IndexMemory};

/// Object-chunk size for [`GridIndex::build_with`]. A function of nothing
/// but this constant — never the pool size — so chunk boundaries (and
/// therefore the float-merge order) are identical for every pool size.
const BUILD_CHUNK_OBJECTS: usize = 32 * 1024;

/// Cell-range chunk size for [`GridIndex::merge_with`].
const MERGE_CHUNK_CELLS: usize = 8 * 1024;

/// The geometry of a grid: bounds plus cell side length.
///
/// All silos and the provider must agree on one `GridSpec` so that cell `i`
/// means the same square everywhere — the estimators divide aggregates of
/// cell `i` in `g₀` by aggregates of cell `i` in `g_k`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    bounds: Rect,
    cell_len: f64,
    nx: u32,
    ny: u32,
}

/// Flat identifier of a grid cell: `iy * nx + ix`.
pub type CellId = u32;

/// Cells of a grid relevant to a query range, split by their relation.
///
/// * `covered` — cells fully inside the range. Their exact contribution is
///   known from `g₀` directly (Sec. 4.2.2 remark), no estimation needed.
/// * `boundary` — cells partially overlapping the range. Only these need
///   estimation, and only these travel on the wire for NonIID-est; there
///   are O(√|g₀|) of them, which is where the communication bound comes
///   from.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellClassification {
    /// Cells fully covered by the range.
    pub covered: Vec<CellId>,
    /// Cells intersecting, but not covered by, the range.
    pub boundary: Vec<CellId>,
}

impl CellClassification {
    /// Total number of relevant cells.
    pub fn len(&self) -> usize {
        self.covered.len() + self.boundary.len()
    }

    /// Whether no cell intersects the range.
    pub fn is_empty(&self) -> bool {
        self.covered.is_empty() && self.boundary.is_empty()
    }

    /// Iterates over all relevant cells (covered, then boundary).
    pub fn iter(&self) -> impl Iterator<Item = CellId> + '_ {
        self.covered.iter().chain(self.boundary.iter()).copied()
    }
}

impl GridSpec {
    /// Creates a grid covering `bounds` with square cells of side
    /// `cell_len` (the paper's grid length `L`, swept in Fig. 5).
    ///
    /// # Panics
    /// Panics if `bounds` is empty or `cell_len` is not strictly positive —
    /// a grid over nothing indicates a configuration bug upstream.
    pub fn new(bounds: Rect, cell_len: f64) -> Self {
        assert!(!bounds.is_empty(), "grid bounds must be non-empty");
        assert!(
            cell_len > 0.0 && cell_len.is_finite(),
            "grid cell length must be positive and finite, got {cell_len}"
        );
        let nx = (bounds.width() / cell_len).ceil().max(1.0) as u32;
        let ny = (bounds.height() / cell_len).ceil().max(1.0) as u32;
        Self {
            bounds,
            cell_len,
            nx,
            ny,
        }
    }

    /// Grid bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Cell side length (`L`).
    pub fn cell_len(&self) -> f64 {
        self.cell_len
    }

    /// Number of columns.
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of rows.
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Total number of cells, `|g|` in the paper's complexity bounds.
    pub fn num_cells(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Flat id of the cell at column `ix`, row `iy`.
    #[inline]
    pub fn cell_id(&self, ix: u32, iy: u32) -> CellId {
        debug_assert!(ix < self.nx && iy < self.ny);
        iy * self.nx + ix
    }

    /// Column/row of a flat cell id.
    #[inline]
    pub fn cell_coords(&self, id: CellId) -> (u32, u32) {
        (id % self.nx, id / self.nx)
    }

    /// The rectangle of cell `(ix, iy)`.
    ///
    /// The last column/row may extend past `bounds` (cells are full
    /// squares); this keeps cell areas uniform, which the area-fraction
    /// fallbacks rely on.
    pub fn cell_rect(&self, ix: u32, iy: u32) -> Rect {
        let x0 = self.bounds.min.x + ix as f64 * self.cell_len;
        let y0 = self.bounds.min.y + iy as f64 * self.cell_len;
        Rect::from_corners(
            Point::new(x0, y0),
            Point::new(x0 + self.cell_len, y0 + self.cell_len),
        )
    }

    /// The rectangle of a flat cell id.
    pub fn cell_rect_of(&self, id: CellId) -> Rect {
        let (ix, iy) = self.cell_coords(id);
        self.cell_rect(ix, iy)
    }

    /// The cell containing `p`, clamped to the grid for points on (or
    /// marginally past) the outer boundary. Returns `None` for points
    /// strictly outside the bounds by more than one cell — those indicate
    /// data outside the agreed federation region.
    pub fn cell_of(&self, p: &Point) -> Option<CellId> {
        let fx = (p.x - self.bounds.min.x) / self.cell_len;
        let fy = (p.y - self.bounds.min.y) / self.cell_len;
        if fx < -1.0 || fy < -1.0 || fx > self.nx as f64 + 1.0 || fy > self.ny as f64 + 1.0 {
            return None;
        }
        let ix = (fx.floor().max(0.0) as u32).min(self.nx - 1);
        let iy = (fy.floor().max(0.0) as u32).min(self.ny - 1);
        Some(self.cell_id(ix, iy))
    }

    /// Inclusive column/row ranges of the cells whose rectangles intersect
    /// `rect`, or `None` when `rect` misses the grid entirely.
    fn cell_span(&self, rect: &Rect) -> Option<(u32, u32, u32, u32)> {
        let clipped = rect.intersection(&Rect::from_corners(
            self.bounds.min,
            Point::new(
                self.bounds.min.x + self.nx as f64 * self.cell_len,
                self.bounds.min.y + self.ny as f64 * self.cell_len,
            ),
        ));
        if clipped.is_empty() {
            return None;
        }
        let ix0 = ((clipped.min.x - self.bounds.min.x) / self.cell_len)
            .floor()
            .max(0.0) as u32;
        let iy0 = ((clipped.min.y - self.bounds.min.y) / self.cell_len)
            .floor()
            .max(0.0) as u32;
        let ix1 =
            (((clipped.max.x - self.bounds.min.x) / self.cell_len).floor() as u32).min(self.nx - 1);
        let iy1 =
            (((clipped.max.y - self.bounds.min.y) / self.cell_len).floor() as u32).min(self.ny - 1);
        Some((ix0, iy0, ix1, iy1))
    }

    /// All cells whose rectangle intersects the query range.
    ///
    /// This is the cell set the estimators call "grids which intersect
    /// with R" — `sum₀` and `sum_k` in Alg. 2 aggregate over exactly these.
    pub fn cells_intersecting(&self, range: &Range) -> Vec<CellId> {
        let mut out = Vec::new();
        let Some((ix0, iy0, ix1, iy1)) = self.cell_span(&range.bounding_rect()) else {
            return out;
        };
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                if range.intersects_rect(&self.cell_rect(ix, iy)) {
                    out.push(self.cell_id(ix, iy));
                }
            }
        }
        out
    }

    /// Classifies cells into covered / boundary sets (Sec. 4.2.2 remark).
    pub fn classify(&self, range: &Range) -> CellClassification {
        let mut out = CellClassification::default();
        let Some((ix0, iy0, ix1, iy1)) = self.cell_span(&range.bounding_rect()) else {
            return out;
        };
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                match range.relation(&self.cell_rect(ix, iy)) {
                    RectRelation::Disjoint => {}
                    RectRelation::Contained => out.covered.push(self.cell_id(ix, iy)),
                    RectRelation::Intersecting => out.boundary.push(self.cell_id(ix, iy)),
                }
            }
        }
        out
    }
}

/// A grid index: one [`Aggregate`] per cell over a [`GridSpec`].
///
/// Built once per silo (Alg. 1, lines 1–3) and merged into the federation
/// index `g₀` at the provider.
///
/// ```
/// use fedra_geo::{Point, Range, Rect, SpatialObject};
/// use fedra_index::grid::{GridIndex, GridSpec, PrefixGrid};
///
/// let spec = GridSpec::new(
///     Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
///     2.5,
/// );
/// let silo_a = GridIndex::build(spec, &[SpatialObject::at(2.0, 2.0, 7.0)]);
/// let silo_b = GridIndex::build(spec, &[SpatialObject::at(1.0, 1.0, 3.0)]);
///
/// // Alg. 1: merge per-silo grids into the federation grid g0.
/// let g0 = GridIndex::merge([&silo_a, &silo_b]).unwrap();
/// assert_eq!(g0.cell(0).count, 2.0);
/// assert_eq!(g0.cell(0).sum, 10.0);
///
/// // The cumulative array answers cell-range sums in O(1).
/// let prefix = PrefixGrid::build(&g0);
/// let q = Range::circle(Point::new(2.0, 2.0), 1.5);
/// assert_eq!(prefix.aggregate_intersecting(&q).count, 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridIndex {
    spec: GridSpec,
    cells: Vec<Aggregate>,
    total: Aggregate,
    /// Objects that fell outside the grid bounds (counted for diagnostics;
    /// they are invisible to grid-based estimation).
    outside: u64,
}

impl GridIndex {
    /// Builds the grid index for a set of spatial objects — the silo-side
    /// half of Alg. 1. O(n) time, O(|g|) space.
    pub fn build(spec: GridSpec, objects: &[SpatialObject]) -> Self {
        Self::build_with(spec, objects, &WorkerPool::sequential())
    }

    /// Builds the grid index with sharded accumulators on a [`WorkerPool`]:
    /// each worker folds a contiguous object chunk into its own cell
    /// vector, and the shards merge in chunk order. Chunk boundaries
    /// depend only on the input size, so the result is bit-identical for
    /// every pool size (including the sequential [`GridIndex::build`]).
    pub fn build_with(spec: GridSpec, objects: &[SpatialObject], pool: &WorkerPool) -> Self {
        if objects.len() <= BUILD_CHUNK_OBJECTS {
            return Self::build_shard(spec, objects);
        }
        let chunks: Vec<&[SpatialObject]> = objects.chunks(BUILD_CHUNK_OBJECTS).collect();
        let shards = pool.map(&chunks, |_, chunk| Self::build_shard(spec, chunk));
        let mut shards = shards.into_iter();
        // At least one shard exists: objects.len() > BUILD_CHUNK_OBJECTS.
        let mut merged = match shards.next() {
            Some(first) => first,
            None => Self::empty(spec),
        };
        for shard in shards {
            for (acc, cell) in merged.cells.iter_mut().zip(&shard.cells) {
                acc.merge_in(cell);
            }
            merged.total.merge_in(&shard.total);
            merged.outside += shard.outside;
        }
        merged
    }

    /// One worker's share of [`GridIndex::build_with`] (also the whole
    /// build when the input fits a single chunk).
    fn build_shard(spec: GridSpec, objects: &[SpatialObject]) -> Self {
        let mut cells = vec![Aggregate::ZERO; spec.num_cells()];
        let mut total = Aggregate::ZERO;
        let mut outside = 0;
        for o in objects {
            match spec.cell_of(&o.location) {
                Some(id) => {
                    let a = Aggregate::of(o);
                    cells[id as usize].merge_in(&a);
                    total.merge_in(&a);
                }
                None => outside += 1,
            }
        }
        Self {
            spec,
            cells,
            total,
            outside,
        }
    }

    /// An all-zero grid index (useful as a merge accumulator).
    pub fn empty(spec: GridSpec) -> Self {
        Self {
            spec,
            cells: vec![Aggregate::ZERO; spec.num_cells()],
            total: Aggregate::ZERO,
            outside: 0,
        }
    }

    /// Merges silo grid indices into the federation index `g₀`
    /// (Alg. 1, provider side). O(Σ|gᵢ|) time.
    ///
    /// # Panics
    /// Panics if the specs disagree — silos must build over the shared spec.
    pub fn merge<'a>(indices: impl IntoIterator<Item = &'a GridIndex>) -> Option<GridIndex> {
        let refs: Vec<&GridIndex> = indices.into_iter().collect();
        Self::merge_with(&refs, &WorkerPool::sequential())
    }

    /// Merges silo grid indices with the cell space chunked across a
    /// [`WorkerPool`]. Every cell folds its silos in silo order, exactly
    /// like the sequential [`GridIndex::merge`], so the result is
    /// bit-identical for every pool size.
    ///
    /// # Panics
    /// Panics if the specs disagree — silos must build over the shared spec.
    pub fn merge_with(indices: &[&GridIndex], pool: &WorkerPool) -> Option<GridIndex> {
        let first = *indices.first()?;
        for g in &indices[1..] {
            assert_eq!(
                g.spec, first.spec,
                "cannot merge grid indices over different specs"
            );
        }
        let num_cells = first.spec.num_cells();
        let ranges: Vec<(usize, usize)> = (0..num_cells)
            .step_by(MERGE_CHUNK_CELLS.max(1))
            .map(|lo| (lo, (lo + MERGE_CHUNK_CELLS).min(num_cells)))
            .collect();
        let chunks = pool.map(&ranges, |_, &(lo, hi)| {
            (lo..hi)
                .map(|i| {
                    let mut acc = indices[0].cells[i];
                    for g in &indices[1..] {
                        acc.merge_in(&g.cells[i]);
                    }
                    acc
                })
                .collect::<Vec<Aggregate>>()
        });
        let mut cells = Vec::with_capacity(num_cells);
        for chunk in chunks {
            cells.extend(chunk);
        }
        let mut total = first.total;
        let mut outside = first.outside;
        for g in &indices[1..] {
            total.merge_in(&g.total);
            outside += g.outside;
        }
        Some(GridIndex {
            spec: first.spec,
            cells,
            total,
            outside,
        })
    }

    /// Reassembles a grid index from its spec and per-cell aggregates —
    /// the decode path of the wire format (Alg. 1 ships `g_i` from silo to
    /// provider). The total and the out-of-bounds count are recomputed /
    /// supplied by the caller.
    ///
    /// # Panics
    /// Panics when `cells.len()` disagrees with the spec.
    pub fn from_parts(spec: GridSpec, cells: Vec<Aggregate>, outside: u64) -> Self {
        assert_eq!(
            cells.len(),
            spec.num_cells(),
            "cell vector length must match the grid spec"
        );
        let total = cells.iter().copied().sum();
        Self {
            spec,
            cells,
            total,
            outside,
        }
    }

    /// The shared grid geometry.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The per-cell aggregates in row-major order (the wire payload).
    pub fn cells(&self) -> &[Aggregate] {
        &self.cells
    }

    /// Aggregate of one cell.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Aggregate {
        &self.cells[id as usize]
    }

    /// Aggregate over an arbitrary set of cells.
    pub fn aggregate_cells(&self, ids: impl IntoIterator<Item = CellId>) -> Aggregate {
        ids.into_iter()
            .fold(Aggregate::ZERO, |acc, id| acc.merge(self.cell(id)))
    }

    /// Aggregate over all cells intersecting `range` — the naive
    /// (non-cumulative) computation of `sum₀`/`sum_k` in Algs. 2–3.
    pub fn aggregate_intersecting(&self, range: &Range) -> Aggregate {
        self.aggregate_cells(self.spec.cells_intersecting(range))
    }

    /// Grand total over all cells.
    pub fn total(&self) -> Aggregate {
        self.total
    }

    /// Number of objects that fell outside the grid bounds during build.
    pub fn outside_count(&self) -> u64 {
        self.outside
    }
}

impl IndexMemory for GridIndex {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.cells.capacity() * std::mem::size_of::<Aggregate>()
    }
}

/// The 2-D cumulative array of the Sec. 4.2.1 remark.
///
/// `cum[iy][ix]` stores the aggregate of all cells `(0,0) .. (ix,iy)`
/// inclusive; by inclusion–exclusion any axis-aligned rectangle of cells is
/// answered in O(1), which drops the provider-side estimation cost of
/// Alg. 2 from O(|g₀|) to O(1) for rectangular ranges (and to
/// O(√|g₀|) per-row spans for circular ones).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixGrid {
    spec: GridSpec,
    /// (nx+1) × (ny+1) cumulative sums with a zero guard row/column.
    cum: Vec<Aggregate>,
}

impl PrefixGrid {
    /// Precomputes the cumulative array from a grid index. O(|g|).
    pub fn build(grid: &GridIndex) -> Self {
        let spec = grid.spec;
        let (nx, ny) = (spec.nx as usize, spec.ny as usize);
        let w = nx + 1;
        let mut cum = vec![Aggregate::ZERO; w * (ny + 1)];
        for iy in 0..ny {
            for ix in 0..nx {
                // cum[iy+1][ix+1] = cell + left + above − diag
                let cell = grid.cell(spec.cell_id(ix as u32, iy as u32));
                let left = cum[(iy + 1) * w + ix];
                let above = cum[iy * w + ix + 1];
                let diag = cum[iy * w + ix];
                cum[(iy + 1) * w + ix + 1] = cell.merge(&left).merge(&above).sub(&diag);
            }
        }
        Self { spec, cum }
    }

    /// Aggregate over the inclusive cell rectangle
    /// `(ix0..=ix1) × (iy0..=iy1)` in O(1).
    pub fn rect_sum(&self, ix0: u32, iy0: u32, ix1: u32, iy1: u32) -> Aggregate {
        debug_assert!(ix0 <= ix1 && iy0 <= iy1);
        debug_assert!(ix1 < self.spec.nx && iy1 < self.spec.ny);
        let w = self.spec.nx as usize + 1;
        let (ix0, iy0, ix1, iy1) = (ix0 as usize, iy0 as usize, ix1 as usize, iy1 as usize);
        let d = self.cum[(iy1 + 1) * w + ix1 + 1];
        let b = self.cum[iy0 * w + ix1 + 1];
        let c = self.cum[(iy1 + 1) * w + ix0];
        let a = self.cum[iy0 * w + ix0];
        d.sub(&b).sub(&c).merge(&a)
    }

    /// Aggregate over all cells intersecting `range`, using per-row
    /// contiguous spans + O(1) row sums: O(√|g₀|) for circles, O(1) for
    /// rectangles (single inclusion–exclusion).
    pub fn aggregate_intersecting(&self, range: &Range) -> Aggregate {
        let spec = &self.spec;
        let Some((ix0, iy0, ix1, iy1)) = spec.cell_span(&range.bounding_rect()) else {
            return Aggregate::ZERO;
        };
        match range {
            Range::Rect(_) => self.rect_sum(ix0, iy0, ix1, iy1),
            Range::Circle(c) => {
                let mut acc = Aggregate::ZERO;
                for iy in iy0..=iy1 {
                    // Vertical offset from the circle center to this row of
                    // cells; the reachable half-width is √(r² − dy²).
                    let y0 = spec.bounds.min.y + iy as f64 * spec.cell_len;
                    let y1 = y0 + spec.cell_len;
                    let dy = (y0 - c.center.y).max(0.0).max(c.center.y - y1);
                    let rr = c.radius * c.radius - dy * dy;
                    if rr < 0.0 {
                        continue;
                    }
                    let w = rr.sqrt();
                    let lo_f = ((c.center.x - w - spec.bounds.min.x) / spec.cell_len).floor();
                    let hi_f = ((c.center.x + w - spec.bounds.min.x) / spec.cell_len).floor();
                    // The reachable columns may fall entirely outside the
                    // span (e.g. the circle pokes past the grid's left
                    // edge at this row); compare before casting so a
                    // negative column is never clamped into the grid.
                    if hi_f < ix0 as f64 || lo_f > ix1 as f64 {
                        continue;
                    }
                    let lo = lo_f.max(ix0 as f64) as u32;
                    let hi = hi_f.min(ix1 as f64) as u32;
                    acc.merge_in(&self.rect_sum(lo, iy, hi, iy));
                }
                acc
            }
        }
    }
}

impl IndexMemory for PrefixGrid {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.cum.capacity() * std::mem::size_of::<Aggregate>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_geo::Point;

    fn spec10() -> GridSpec {
        GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), 2.5)
    }

    /// The 18 objects of the paper's Example 1 (both silos).
    fn example1_objects() -> (Vec<SpatialObject>, Vec<SpatialObject>) {
        // Silo 1: 10 blue objects; silo 2: 8 red objects. The exact layout
        // in Fig. 1c is reproduced coarsely — what matters for the tests is
        // cell-level arithmetic, validated against hand-computed sums.
        let s1 = vec![
            SpatialObject::at(1.0, 9.0, 4.0),
            SpatialObject::at(4.0, 9.0, 0.0),
            SpatialObject::at(1.0, 6.0, 1.0),
            SpatialObject::at(4.0, 6.0, 1.0),
            SpatialObject::at(6.0, 6.0, 2.0),
            SpatialObject::at(1.0, 4.0, 4.0),
            SpatialObject::at(4.0, 4.0, 0.0),
            SpatialObject::at(6.0, 4.0, 0.0),
            SpatialObject::at(8.0, 2.0, 5.0),
            SpatialObject::at(9.0, 1.0, 3.0),
        ];
        let s2 = vec![
            SpatialObject::at(2.0, 2.0, 7.0),
            SpatialObject::at(3.0, 6.0, 1.0),
            SpatialObject::at(4.0, 7.0, 1.0),
            SpatialObject::at(5.0, 5.5, 2.0),
            SpatialObject::at(2.0, 4.0, 1.0),
            SpatialObject::at(8.0, 8.0, 2.0),
            SpatialObject::at(9.0, 3.0, 1.0),
            SpatialObject::at(7.0, 9.0, 6.0),
        ];
        (s1, s2)
    }

    #[test]
    fn spec_dimensions() {
        let s = spec10();
        assert_eq!(s.nx(), 4);
        assert_eq!(s.ny(), 4);
        assert_eq!(s.num_cells(), 16);
        assert_eq!(s.cell_len(), 2.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn spec_rejects_zero_cell_len() {
        GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)), 0.0);
    }

    #[test]
    fn cell_id_round_trips() {
        let s = spec10();
        for iy in 0..s.ny() {
            for ix in 0..s.nx() {
                let id = s.cell_id(ix, iy);
                assert_eq!(s.cell_coords(id), (ix, iy));
            }
        }
    }

    #[test]
    fn cell_of_maps_points_to_their_square() {
        let s = spec10();
        assert_eq!(s.cell_of(&Point::new(0.0, 0.0)), Some(0));
        assert_eq!(s.cell_of(&Point::new(2.0, 2.0)), Some(0));
        assert_eq!(s.cell_of(&Point::new(2.5, 0.0)), Some(1));
        // Exactly on the top-right boundary clamps into the last cell.
        assert_eq!(s.cell_of(&Point::new(10.0, 10.0)), Some(15));
        // Far outside is rejected.
        assert_eq!(s.cell_of(&Point::new(100.0, 0.0)), None);
    }

    #[test]
    fn cell_rect_tiles_the_bounds() {
        let s = spec10();
        let r = s.cell_rect(1, 2);
        assert_eq!(r, Rect::new(Point::new(2.5, 5.0), Point::new(5.0, 7.5)));
    }

    #[test]
    fn example1_grid_counts_and_sums() {
        // Example 2 of the paper: grid length 2.5 over [0,10]², silo 2 has
        // one object at (2,2) with measure 7 in the bottom-left cell.
        let (s1, s2) = example1_objects();
        let g1 = GridIndex::build(spec10(), &s1);
        let g2 = GridIndex::build(spec10(), &s2);
        assert_eq!(g1.cell(0).count, 0.0);
        assert_eq!(g2.cell(0).count, 1.0);
        assert_eq!(g2.cell(0).sum, 7.0);

        let g0 = GridIndex::merge([&g1, &g2]).unwrap();
        assert_eq!(g0.cell(0).count, 1.0);
        assert_eq!(g0.cell(0).sum, 7.0);
        assert_eq!(g0.total().count, 18.0);
        assert_eq!(g0.outside_count(), 0);
    }

    #[test]
    fn merge_requires_a_nonempty_list() {
        assert!(GridIndex::merge([]).is_none());
    }

    #[test]
    #[should_panic(expected = "different specs")]
    fn merge_rejects_mismatched_specs() {
        let a = GridIndex::empty(spec10());
        let b = GridIndex::empty(GridSpec::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            5.0,
        ));
        GridIndex::merge([&a, &b]);
    }

    #[test]
    fn cells_intersecting_circle_matches_example3() {
        // Example 3: the circle at (4,6) radius 3 intersects the 3×3 block
        // of cells in the top-left region (columns 0–2, rows 1–3).
        let s = spec10();
        let q = Range::circle(Point::new(4.0, 6.0), 3.0);
        let cells = s.cells_intersecting(&q);
        let mut coords: Vec<(u32, u32)> = cells.iter().map(|&c| s.cell_coords(c)).collect();
        coords.sort_unstable();
        let mut expected = vec![];
        for iy in 1..=3 {
            for ix in 0..=2 {
                expected.push((ix, iy));
            }
        }
        expected.sort_unstable();
        assert_eq!(coords, expected);
    }

    #[test]
    fn example3_sum0_and_sumk() {
        // Example 3 computes sum₀ = 21 and sum_k = 11 for COUNT over the
        // 3×3 intersecting block. Our coarse Fig. 1c reproduction has the
        // same cell totals for silo 2; verify the mechanism end-to-end.
        let (s1, s2) = example1_objects();
        let g1 = GridIndex::build(spec10(), &s1);
        let g2 = GridIndex::build(spec10(), &s2);
        let g0 = GridIndex::merge([&g1, &g2]).unwrap();
        let q = Range::circle(Point::new(4.0, 6.0), 3.0);
        let sum_k = g2.aggregate_intersecting(&q);
        let sum_0 = g0.aggregate_intersecting(&q);
        // Silo 2 has 5 objects in the 3×3 block; silo 1 has 8 more.
        assert_eq!(sum_k.count, 5.0);
        assert_eq!(sum_0.count, 13.0);
    }

    #[test]
    fn classification_partitions_intersections() {
        let s = spec10();
        let q = Range::circle(Point::new(5.0, 5.0), 4.0);
        let cls = s.classify(&q);
        let all = s.cells_intersecting(&q);
        assert_eq!(cls.len(), all.len());
        for id in cls.covered.iter() {
            assert!(q.contains_rect(&s.cell_rect_of(*id)));
        }
        for id in cls.boundary.iter() {
            let r = s.cell_rect_of(*id);
            assert!(q.intersects_rect(&r) && !q.contains_rect(&r));
        }
    }

    #[test]
    fn classification_of_far_range_is_empty() {
        let s = spec10();
        let q = Range::circle(Point::new(100.0, 100.0), 1.0);
        assert!(s.classify(&q).is_empty());
        assert!(s.cells_intersecting(&q).is_empty());
    }

    #[test]
    fn prefix_grid_matches_naive_rect_sums() {
        let (s1, s2) = example1_objects();
        let mut all = s1;
        all.extend(s2);
        let g = GridIndex::build(spec10(), &all);
        let p = PrefixGrid::build(&g);
        for iy0 in 0..4u32 {
            for ix0 in 0..4u32 {
                for iy1 in iy0..4u32 {
                    for ix1 in ix0..4u32 {
                        let fast = p.rect_sum(ix0, iy0, ix1, iy1);
                        let mut slow = Aggregate::ZERO;
                        for iy in iy0..=iy1 {
                            for ix in ix0..=ix1 {
                                slow.merge_in(g.cell(g.spec().cell_id(ix, iy)));
                            }
                        }
                        assert!(
                            (fast.count - slow.count).abs() < 1e-9
                                && (fast.sum - slow.sum).abs() < 1e-9,
                            "mismatch at ({ix0},{iy0})..({ix1},{iy1})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_grid_intersecting_matches_naive_for_circles() {
        let (s1, s2) = example1_objects();
        let mut all = s1;
        all.extend(s2);
        let g = GridIndex::build(spec10(), &all);
        let p = PrefixGrid::build(&g);
        for (cx, cy, r) in [
            (4.0, 6.0, 3.0),
            (5.0, 5.0, 1.0),
            (0.0, 0.0, 2.0),
            (10.0, 10.0, 4.0),
            (5.0, 5.0, 20.0),
            (-3.0, 5.0, 2.0),
        ] {
            let q = Range::circle(Point::new(cx, cy), r);
            let fast = p.aggregate_intersecting(&q);
            let slow = g.aggregate_intersecting(&q);
            assert!(
                (fast.count - slow.count).abs() < 1e-9,
                "circle ({cx},{cy},{r}): fast {} vs slow {}",
                fast.count,
                slow.count
            );
        }
    }

    #[test]
    fn prefix_grid_intersecting_matches_naive_for_rects() {
        let (s1, s2) = example1_objects();
        let mut all = s1;
        all.extend(s2);
        let g = GridIndex::build(spec10(), &all);
        let p = PrefixGrid::build(&g);
        let q = Range::rect(Point::new(1.0, 1.0), Point::new(6.0, 8.0));
        assert_eq!(
            p.aggregate_intersecting(&q).count,
            g.aggregate_intersecting(&q).count
        );
    }

    #[test]
    fn out_of_bounds_objects_are_counted() {
        let s = spec10();
        let g = GridIndex::build(
            s,
            &[
                SpatialObject::at(5.0, 5.0, 1.0),
                SpatialObject::at(500.0, 5.0, 1.0),
            ],
        );
        assert_eq!(g.total().count, 1.0);
        assert_eq!(g.outside_count(), 1);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        // 100k objects span four build chunks; pool sizes 1 and 4 must
        // produce the same bits because chunking depends only on n.
        let mut state = 7u64;
        let objs: Vec<SpatialObject> = (0..100_000)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0;
                SpatialObject::at(x, y, (i % 9) as f64 * 0.3)
            })
            .collect();
        let spec = spec10();
        let seq = GridIndex::build(spec, &objs);
        let par = GridIndex::build_with(spec, &objs, &WorkerPool::new(4));
        assert_eq!(seq.outside_count(), par.outside_count());
        assert_eq!(seq.total().sum.to_bits(), par.total().sum.to_bits());
        for (a, b) in seq.cells().iter().zip(par.cells()) {
            assert_eq!(a.count.to_bits(), b.count.to_bits());
            assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            assert_eq!(a.sum_sqr.to_bits(), b.sum_sqr.to_bits());
        }
    }

    #[test]
    fn parallel_merge_matches_sequential_bitwise() {
        let (s1, s2) = example1_objects();
        let g1 = GridIndex::build(spec10(), &s1);
        let g2 = GridIndex::build(spec10(), &s2);
        let seq = GridIndex::merge([&g1, &g2]).unwrap();
        let par = GridIndex::merge_with(&[&g1, &g2], &WorkerPool::new(4)).unwrap();
        assert_eq!(seq, par);
        for (a, b) in seq.cells().iter().zip(par.cells()) {
            assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        }
        assert_eq!(seq.total().sum.to_bits(), par.total().sum.to_bits());
    }

    #[test]
    fn memory_accounting_is_positive_and_monotone() {
        let small = GridIndex::empty(GridSpec::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            5.0,
        ));
        let big = GridIndex::empty(spec10());
        assert!(small.memory_bytes() > 0);
        assert!(big.memory_bytes() > small.memory_bytes());
        let p = PrefixGrid::build(&big);
        assert!(p.memory_bytes() > big.memory_bytes());
    }

    #[test]
    fn circle_range_through_example_matches_bruteforce_cells() {
        // Randomized-ish sweep: many circle positions, prefix vs naive.
        let (s1, s2) = example1_objects();
        let mut all = s1;
        all.extend(s2);
        let g = GridIndex::build(spec10(), &all);
        let p = PrefixGrid::build(&g);
        for i in 0..40 {
            let cx = (i as f64 * 0.37) % 12.0 - 1.0;
            let cy = (i as f64 * 0.73) % 12.0 - 1.0;
            let r = 0.5 + (i as f64 * 0.11) % 4.0;
            let q = Range::circle(Point::new(cx, cy), r);
            let fast = p.aggregate_intersecting(&q);
            let slow = g.aggregate_intersecting(&q);
            assert!(
                (fast.count - slow.count).abs() < 1e-9,
                "mismatch at {q}: {} vs {}",
                fast.count,
                slow.count
            );
        }
    }
}
