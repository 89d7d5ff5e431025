//! An aggregate R-tree: exact range aggregation in O(log n).
//!
//! Every node carries the [`Aggregate`] of its whole subtree, so a range
//! aggregation query never has to visit the leaves of a subtree whose MBR
//! is fully covered by the query range — the classic *aR-tree* idea the
//! paper assumes when it says "spatial indices such as R-trees enable
//! O(log n)-time range aggregation queries" (Sec. 3).
//!
//! The tree is bulk-loaded with Sort-Tile-Recursive (STR) packing, which
//! is both the fastest way to build from a static partition (the federated
//! setting fixes partitions during query processing) and gives near-ideal
//! node utilization. The same structure serves as:
//!
//! * the silo-local index of the EXACT baseline,
//! * every level `T_i` of the LSR-Forest (Sec. 5),
//! * the ground-truth oracle in tests.
//!
//! The tree is packed: all nodes live in one contiguous array of 64-byte
//! records, and a node's children are the run `first..first + len` of
//! that array (internal nodes) or of the object array (leaves). STR
//! stores each level in the order it tiles it, so siblings sit next to
//! each other and a leaf's objects are one contiguous slice: a probe
//! follows no per-node allocation and no object index.
//!
//! Packed along a grid (as a silo packs every tree), the object array is
//! laid out cell by cell: each non-empty cell's objects are one run, and
//! a small directory finds it, so a cell's contribution to a query is one
//! scan of that run ([`RTree::aggregate_cells`]).

use fedra_geo::{Point, Range, Rect, RectRelation, SpatialObject};

use crate::grid::{CellId, GridSpec};
use crate::pool::WorkerPool;
use crate::{Aggregate, IndexMemory};

/// R-tree build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum entries per node (fanout). STR packs nodes to capacity.
    pub max_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        // 16 balances depth against per-node scan cost for point data;
        // the `ablations` bench sweeps this.
        Self { max_entries: 16 }
    }
}

impl RTreeConfig {
    /// Creates a config with the given fanout.
    ///
    /// # Panics
    /// Panics when `max_entries < 2` — a tree with fanout 1 never
    /// terminates its build recursion.
    pub fn with_fanout(max_entries: usize) -> Self {
        assert!(max_entries >= 2, "R-tree fanout must be at least 2");
        Self { max_entries }
    }
}

/// One packed node. Its children are the run `first..first + len`: node
/// ids for an internal node, positions in `objects` for a leaf.
#[derive(Debug, Clone, Copy)]
struct Node {
    mbr: Rect,
    agg: Aggregate,
    first: u32,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 64);

impl Node {
    /// The node over `run`, bounding and summing its `entries` in order.
    fn over(run: std::ops::Range<usize>, entries: impl Iterator<Item = (Rect, Aggregate)>) -> Self {
        let (mut mbr, mut agg) = (Rect::EMPTY, Aggregate::ZERO);
        for (rect, a) in entries {
            mbr = mbr.union(&rect);
            agg.merge_in(&a);
        }
        Self {
            mbr,
            agg,
            first: run.start as u32,
            len: run.len() as u32,
        }
    }

    fn run(&self) -> std::ops::Range<u32> {
        self.first..self.first + self.len
    }
}

/// STR's first key: objects by x.
pub(crate) fn by_x(a: &SpatialObject, b: &SpatialObject) -> std::cmp::Ordering {
    a.location.x.total_cmp(&b.location.x)
}

/// Under a grid, a cell holding at least this many fanouts of objects is
/// STR-tiled on its own, so none of its leaves holds another cell's
/// objects.
const OWN_LEAVES_FANOUTS: usize = 3;

/// Under a grid, a cell with at least this many leaves of its own gets
/// its own parents as well.
const OWN_PARENTS_LEAVES: usize = 4;

/// STR tiling of `len > 0` entries into parents of at most `fanout`: the
/// width of each vertical slab, and how many parents the slabs fill (a
/// slab's last parent may be short). `whole` rounds the slab width up to
/// a multiple of `fanout`, so only the last parent of the last slab can
/// be short and the run fills the fewest parents, ⌈len / fanout⌉.
fn str_tiling(len: usize, fanout: usize, whole: bool) -> (usize, usize) {
    let slabs = (len.div_ceil(fanout) as f64).sqrt().ceil() as usize;
    let mut slab = len.div_ceil(slabs);
    if whole {
        slab = slab.next_multiple_of(fanout);
    }
    let parents = len / slab * slab.div_ceil(fanout) + (len % slab).div_ceil(fanout);
    (slab, parents)
}

/// One run of a level that is cut into parents on its own: the whole
/// level, one grid cell's share of it, or the share no cell owns.
#[derive(Debug, Clone, Copy)]
struct Tile {
    len: usize,
    slab: usize,
    parents: usize,
}

impl Tile {
    fn new(len: usize, fanout: usize, whole: bool) -> Self {
        let (slab, parents) = str_tiling(len, fanout, whole);
        Self { len, slab, parents }
    }
}

/// A run of objects, starting at `at` in the object order, cut into
/// leaves on its own: STR-tiled (`tiled`: each slab sorted by y first),
/// or cut in chunks of a fanout just as it is laid out.
#[derive(Debug, Clone, Copy)]
struct LeafTile {
    at: usize,
    tile: Tile,
    tiled: bool,
}

impl LeafTile {
    fn str(at: usize, len: usize, fanout: usize, whole: bool) -> Self {
        let tile = Tile::new(len, fanout, whole);
        Self {
            at,
            tile,
            tiled: true,
        }
    }

    fn cut(at: usize, len: usize, fanout: usize) -> Self {
        let tile = Tile {
            len,
            slab: len,
            parents: len.div_ceil(fanout),
        };
        Self {
            at,
            tile,
            tiled: false,
        }
    }
}

/// A static, STR-bulk-loaded aggregate R-tree.
///
/// ```
/// use fedra_geo::{Point, Range, SpatialObject};
/// use fedra_index::rtree::RTree;
///
/// let objects: Vec<SpatialObject> = (0..100)
///     .map(|i| SpatialObject::at((i % 10) as f64, (i / 10) as f64, 2.0))
///     .collect();
/// let tree = RTree::from_objects(&objects);
///
/// // Exact COUNT/SUM/SUM_SQR in one traversal.
/// let query = Range::circle(Point::new(4.5, 4.5), 2.0);
/// let agg = tree.aggregate(&query);
/// assert_eq!(agg.sum, agg.count * 2.0);
/// assert_eq!(agg.count, objects
///     .iter()
///     .filter(|o| query.contains_point(&o.location))
///     .count() as f64);
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    /// In layout order: leaf `i`'s objects are the run of `nodes[i]`.
    objects: Vec<SpatialObject>,
    /// Level by level from the leaves up; the root is last.
    nodes: Vec<Node>,
    /// Node ids below this are leaves.
    leaves: u32,
    height: usize,
    /// Where each cell's run of `objects` lies, when packed along a grid.
    cells: Option<CellDirectory>,
}

impl RTree {
    /// Bulk-loads the tree from a set of objects (copied and reordered
    /// internally). O(n log n) time, O(n) space.
    pub fn bulk_load(objects: Vec<SpatialObject>, config: RTreeConfig) -> Self {
        Self::bulk_load_with(objects, config, None, &WorkerPool::sequential())
    }

    /// Bulk-loads with the STR pre-sort and per-slab sorts spread over a
    /// [`WorkerPool`], packed along `grid` when one is given. The packed
    /// tree is bit-identical for every pool size: the parallel sort is
    /// stable-canonical, so chunking never shows through in the object
    /// order.
    ///
    /// Under a grid the objects are laid out cell by cell, each in the
    /// cell [`GridSpec::cell_of`] puts it in: every non-empty cell's
    /// objects are one run, found through a directory the tree keeps, so
    /// [`Self::aggregate_cells`] scans each cell's run alone. A cell
    /// holding at least 3 fanouts of objects is STR-tiled on its own into
    /// ⌈c / fanout⌉ leaves, and one with at least 4 leaves gets its own
    /// parents the same way. The smaller cells follow, concatenated along
    /// a Hilbert curve over the grid (Kamel & Faloutsos, "On Packing
    /// R-trees", CIKM 1993) and cut into shared leaves of a fanout each,
    /// so a shared leaf spans neighbouring cells. Objects in no cell come
    /// last, STR-tiled. Plain STR packs every level above. Without a grid
    /// the packing is plain STR throughout.
    pub fn bulk_load_with(
        mut objects: Vec<SpatialObject>,
        config: RTreeConfig,
        grid: Option<&GridSpec>,
        pool: &WorkerPool,
    ) -> Self {
        pool.sort_by(&mut objects, by_x);
        let keys: Option<Vec<u32>> =
            grid.map(|grid| objects.iter().map(|o| cell_key(grid, o)).collect());
        Self::pack_x_sorted(objects, grid.zip(keys.as_deref()), config, pool)
    }

    /// STR-packs objects already in stable [`by_x`] order, the order
    /// [`Self::bulk_load_with`] sorts them into first, along the grid of
    /// `keyed` when one is given, with each object's [`cell_key`].
    ///
    /// Each level is tiled as STR prescribes — sort by x, cut into
    /// vertical slabs, sort each slab by y, chunk into parents — and is
    /// stored in that tiled order, so every parent's children are one
    /// run. A level is final once its parents are cut: nothing points
    /// into it before then, so sorting its records in place is safe.
    pub(crate) fn pack_x_sorted(
        objects: Vec<SpatialObject>,
        keyed: Option<(&GridSpec, &[u32])>,
        config: RTreeConfig,
        pool: &WorkerPool,
    ) -> Self {
        let m = config.max_entries;
        assert!(m >= 2, "R-tree fanout must be at least 2");
        assert!(objects.len() <= u32::MAX as usize, "ids are u32");
        let (mut objects, cells, leaf_tiles, with_parents) = match keyed {
            Some((grid, keys)) => {
                let layout = lay_out(objects, keys, grid, m);
                let directory = Some(layout.directory);
                (layout.objects, directory, layout.tiles, layout.with_parents)
            }
            None => {
                let n = objects.len();
                let tiles = (n > 0).then(|| LeafTile::str(0, n, m, false));
                (objects, None, tiles.into_iter().collect(), 0)
            }
        };
        if objects.is_empty() {
            return Self {
                objects,
                nodes: Vec::new(),
                leaves: 0,
                height: 0,
                cells,
            };
        }
        // Level 1: one tile per cell that owns its parents, then every
        // other leaf. Plain STR above.
        let num_leaves: usize = leaf_tiles.iter().map(|t| t.tile.parents).sum();
        let mut tiles: Vec<Tile> = leaf_tiles[..with_parents]
            .iter()
            .map(|t| Tile::new(t.tile.parents, m, true))
            .collect();
        let rest = num_leaves - tiles.iter().map(|t| t.len).sum::<usize>();
        tiles.extend((rest > 0).then(|| Tile::new(rest, m, false)));

        let mut total = num_leaves;
        if num_leaves > 1 {
            let mut width: usize = tiles.iter().map(|t| t.parents).sum();
            total += width;
            while width > 1 {
                width = str_tiling(width, m, false).1;
                total += width;
            }
        }
        assert!(total <= u32::MAX as usize, "ids are u32");
        let mut nodes = Vec::with_capacity(total);

        // The STR-tiled runs' slabs, sorted by y side by side.
        let mut tiled: Vec<&LeafTile> = leaf_tiles.iter().filter(|t| t.tiled).collect();
        tiled.sort_unstable_by_key(|t| t.at);
        let (mut slabs, mut unsorted, mut pos) = (Vec::new(), objects.as_mut_slice(), 0);
        for t in tiled {
            let (_, tail) = std::mem::take(&mut unsorted).split_at_mut(t.at - pos);
            let (run, tail) = tail.split_at_mut(t.tile.len);
            slabs.extend(run.chunks_mut(t.tile.slab));
            (unsorted, pos) = (tail, t.at + t.tile.len);
        }
        pool.for_each_mut(slabs, |_, slab| {
            slab.sort_by(|a, b| a.location.y.total_cmp(&b.location.y));
        });
        for t in &leaf_tiles {
            for_each_group(t.tile.len, t.tile.slab, m, |run| {
                let run = t.at + run.start..t.at + run.end;
                let entries = objects[run.clone()]
                    .iter()
                    .map(|o| (Rect::from_point(o.location), Aggregate::of(o)));
                nodes.push(Node::over(run, entries));
            });
        }

        let mut height = 1;
        let mut level = 0..nodes.len();
        while level.len() > 1 {
            tile_level(&mut nodes, level.start, &tiles, m, pool);
            level = level.end..nodes.len();
            tiles = vec![Tile::new(level.len(), m, false)];
            height += 1;
        }
        debug_assert_eq!(nodes.len(), total);
        Self {
            objects,
            nodes,
            leaves: num_leaves as u32,
            height,
            cells,
        }
    }

    /// Bulk-loads with the default configuration.
    pub fn from_objects(objects: &[SpatialObject]) -> Self {
        Self::bulk_load(objects.to_vec(), RTreeConfig::default())
    }

    fn root(&self) -> Option<u32> {
        self.nodes.len().checked_sub(1).map(|r| r as u32)
    }

    fn is_leaf(&self, id: u32) -> bool {
        id < self.leaves
    }

    /// A leaf's objects, one contiguous slice.
    fn leaf_objects(&self, node: &Node) -> &[SpatialObject] {
        &self.objects[node.first as usize..(node.first + node.len) as usize]
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Tree height in levels (0 for an empty tree, 1 for a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// MBR of the whole tree ([`Rect::EMPTY`] when empty).
    pub fn mbr(&self) -> Rect {
        self.nodes.last().map_or(Rect::EMPTY, |r| r.mbr)
    }

    /// Aggregate of every indexed object.
    pub fn total(&self) -> Aggregate {
        self.nodes.last().map_or(Aggregate::ZERO, |r| r.agg)
    }

    /// Exact range aggregation: the local query `Q(s_i, R, F)` of
    /// Definition 2, answered in O(log n) expected time.
    pub fn aggregate(&self, range: &Range) -> Aggregate {
        let mut acc = Aggregate::ZERO;
        if let Some(root) = self.root() {
            self.aggregate_rec(root, range, &mut acc);
        }
        acc
    }

    fn aggregate_rec(&self, node_id: u32, range: &Range, acc: &mut Aggregate) {
        let node = &self.nodes[node_id as usize];
        match range.relation(&node.mbr) {
            RectRelation::Disjoint => {}
            RectRelation::Contained => acc.merge_in(&node.agg),
            RectRelation::Intersecting if self.is_leaf(node_id) => {
                for o in self.leaf_objects(node) {
                    if range.contains_point(&o.location) {
                        acc.merge_in(&Aggregate::of(o));
                    }
                }
            }
            RectRelation::Intersecting => {
                for ci in node.run() {
                    self.aggregate_rec(ci, range, acc);
                }
            }
        }
    }

    /// Exact range aggregation restricted to `clip`: aggregates objects in
    /// `range ∩ clip` (both closed) in one descent, absorbing every node
    /// that the range and the clip both cover whole. An object on a
    /// clip's edge counts in that clip, so two closed clips that share an
    /// edge both count an object on it; a silo's per-cell contributions
    /// come from [`Self::aggregate_cells`] instead, where every object
    /// counts in exactly one cell.
    pub fn aggregate_clipped(&self, range: &Range, clip: &Rect) -> Aggregate {
        let mut acc = Aggregate::ZERO;
        if let Some(root) = self.root() {
            self.aggregate_clipped_rec(root, range, clip, &mut acc);
        }
        acc
    }

    fn aggregate_clipped_rec(&self, id: u32, range: &Range, clip: &Rect, acc: &mut Aggregate) {
        let node = &self.nodes[id as usize];
        let rel = range.relation(&node.mbr);
        if rel == RectRelation::Disjoint || !clip.intersects(&node.mbr) {
            return;
        }
        if rel == RectRelation::Contained && clip.contains_rect(&node.mbr) {
            acc.merge_in(&node.agg);
        } else if self.is_leaf(id) {
            for o in self.leaf_objects(node) {
                if range.contains_point(&o.location) && clip.contains_point(&o.location) {
                    acc.merge_in(&Aggregate::of(o));
                }
            }
        } else {
            for ci in node.run() {
                self.aggregate_clipped_rec(ci, range, clip, acc);
            }
        }
    }

    /// Alg. 3's per-cell contributions `res_i^k`: for each of `cells`,
    /// the aggregate of that cell's objects (those [`GridSpec::cell_of`]
    /// puts in it) inside `range`. Each answer is one scan of the cell's
    /// run in layout order, so it depends neither on the other cells
    /// asked for nor on how the nodes group the objects, and every object
    /// counts in exactly one cell. A cell the tree holds nothing of, or
    /// an id past the grid, answers [`Aggregate::ZERO`].
    ///
    /// # Panics
    /// Panics on a tree packed without a grid: it has no cells.
    pub fn aggregate_cells(&self, range: &Range, cells: &[CellId]) -> Vec<Aggregate> {
        let directory = self
            .cells
            .as_ref()
            .expect("only a tree packed along a grid has cells");
        cells
            .iter()
            .map(|&id| {
                directory
                    .run(id)
                    .map_or(Aggregate::ZERO, |run| scan(&self.objects[run], range))
            })
            .collect()
    }

    /// Collects the objects inside the range (for tests / exports).
    pub fn query_objects(&self, range: &Range) -> Vec<SpatialObject> {
        let mut out = Vec::new();
        let mut stack: Vec<u32> = self.root().into_iter().collect();
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if !range.intersects_rect(&node.mbr) {
                continue;
            }
            if self.is_leaf(id) {
                let hits = self.leaf_objects(node).iter();
                out.extend(hits.filter(|o| range.contains_point(&o.location)));
            } else {
                stack.extend(node.run());
            }
        }
        out
    }

    /// Number of nodes (diagnostics / memory model validation).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Every indexed object, in layout order: each leaf's objects are one
    /// contiguous run (STR order — x-sorted slabs, each slab y-sorted —
    /// or, under a grid, cell by cell). This is the silo's canonical copy
    /// of its partition — callers that need "all objects" (e.g. a grid
    /// rebuild) read it directly instead of paying an O(n) inflated-MBR
    /// range query that also risks missing boundary points.
    ///
    /// A fold over this slice sums in layout order. For integer measures
    /// every partial sum is exact, so the order never shows; for
    /// continuous measures a per-cell sum is a re-associated sum and may
    /// differ in the last ulp from a fold in any other order.
    pub fn objects(&self) -> &[SpatialObject] {
        &self.objects
    }
}

/// The aggregate of the objects of `run` inside `range`, folded in run
/// order. The fold is branch-free: each object adds its moments or −0.0
/// (the one float that changes no sum, −0.0 included), selected, never
/// multiplied by a 0/1 mask, so a NaN or infinite measure outside the
/// range cannot poison the sum. The bits are those of filtering, then
/// merging.
fn scan(run: &[SpatialObject], range: &Range) -> Aggregate {
    match range {
        Range::Circle(c) => scan_with(run, |p| c.contains_point(p)),
        Range::Rect(r) => scan_with(run, |p| r.contains_point(p)),
    }
}

#[inline(always)]
fn scan_with(run: &[SpatialObject], inside: impl Fn(&Point) -> bool) -> Aggregate {
    let mut acc = Aggregate::ZERO;
    for o in run {
        let (hit, m) = (inside(&o.location), o.measure);
        acc.count += if hit { 1.0 } else { -0.0 };
        acc.sum += if hit { m } else { -0.0 };
        acc.sum_sqr += if hit { m * m } else { -0.0 };
    }
    acc
}

/// The cell key of an object no grid cell holds.
pub(crate) const NO_CELL: u32 = u32::MAX;

/// The key [`RTree::pack_x_sorted`] groups `o` by under `grid`: its cell
/// ([`GridSpec::cell_of`]), or [`NO_CELL`].
pub(crate) fn cell_key(grid: &GridSpec, o: &SpatialObject) -> u32 {
    grid.cell_of(&o.location).unwrap_or(NO_CELL)
}

/// Where cell `id` of `grid` falls in a grid packing's layout: its index
/// along the Hilbert curve over the smallest power-of-two square holding
/// the grid, so cells next to each other in the layout are next to each
/// other in the plane. A grid more than 2¹⁶ cells on a side, whose curve
/// index would not fit 32 bits, is laid out by cell id instead.
fn layout_key(grid: &GridSpec, id: CellId) -> u32 {
    let side = grid.nx().max(grid.ny());
    if side > 1 << 16 {
        return id;
    }
    let n = side.next_power_of_two();
    let (mut x, mut y) = grid.cell_coords(id);
    let mut key = 0;
    let mut s = n / 2;
    while s > 0 {
        let (rx, ry) = (u32::from(x & s != 0), u32::from(y & s != 0));
        key += s * s * ((3 * rx) ^ ry);
        if ry == 0 {
            if rx == 1 {
                (x, y) = (n - 1 - x, n - 1 - y);
            }
            (x, y) = (y, x);
        }
        s /= 2;
    }
    key
}

/// Where a grid packing's cell runs lie in its object array.
#[derive(Debug, Clone)]
struct CellDirectory {
    grid: GridSpec,
    /// `(layout key, first object)` of every non-empty cell: the cells
    /// that own leaves, then the rest, each part by key. Within a part
    /// the runs follow each other, so a run ends where the next begins.
    entries: Vec<(u32, u32)>,
    /// How many leading `entries` own leaves.
    owning: u32,
    /// The end of the last cell run; the objects of no cell follow.
    end: u32,
}

impl CellDirectory {
    /// The run of the object array holding cell `id`'s objects, or
    /// `None` when the tree holds none.
    fn run(&self, id: CellId) -> Option<std::ops::Range<usize>> {
        if id as usize >= self.grid.num_cells() {
            return None;
        }
        let key = layout_key(&self.grid, id);
        let (own, shared) = self.entries.split_at(self.owning as usize);
        let own_end = shared.first().map_or(self.end, |e| e.1);
        [(own, own_end), (shared, self.end)]
            .into_iter()
            .find_map(|(part, end)| {
                let i = part.binary_search_by_key(&key, |e| e.0).ok()?;
                let end = part.get(i + 1).map_or(end, |e| e.1);
                Some(part[i].1 as usize..end as usize)
            })
    }
}

/// A grid packing's object layout and the runs its leaves are cut from.
struct CellLayout {
    objects: Vec<SpatialObject>,
    directory: CellDirectory,
    /// In the order their leaves are cut: the cells that own their
    /// parents, the other cells that own leaves, the small cells' shared
    /// run, the run of no cell.
    tiles: Vec<LeafTile>,
    /// How many leading `tiles` own their parents.
    with_parents: usize,
}

/// Lays x-sorted `objects`, keyed by `keys` ([`cell_key`]), out cell by
/// cell: first every cell that owns leaves, then every smaller cell, each
/// part in [`layout_key`] order, then the objects of no cell. Each cell's
/// objects keep their x order.
fn lay_out(objects: Vec<SpatialObject>, keys: &[u32], grid: &GridSpec, m: usize) -> CellLayout {
    let owns_leaves = |count: u32| count as usize >= OWN_LEAVES_FANOUTS * m;
    // slot[c] counts cell c's objects, then becomes where its next one goes.
    let mut slot = vec![0u32; grid.num_cells()];
    for &k in keys.iter().filter(|&&k| k != NO_CELL) {
        slot[k as usize] += 1;
    }
    let mut cells: Vec<(u32, CellId)> = (0..grid.num_cells() as CellId)
        .filter(|&id| slot[id as usize] > 0)
        .map(|id| (layout_key(grid, id), id))
        .collect();
    cells.sort_unstable_by_key(|&(key, id)| (!owns_leaves(slot[id as usize]), key));
    let owning = cells.partition_point(|&(_, id)| owns_leaves(slot[id as usize]));
    let mut entries = Vec::with_capacity(cells.len());
    let (mut tiles, mut leaves_only) = (Vec::new(), Vec::new());
    let mut at = 0;
    for (i, &(key, id)) in cells.iter().enumerate() {
        let count = slot[id as usize] as usize;
        entries.push((key, at as u32));
        if i < owning {
            let tile = LeafTile::str(at, count, m, true);
            if tile.tile.parents >= OWN_PARENTS_LEAVES {
                tiles.push(tile);
            } else {
                leaves_only.push(tile);
            }
        }
        slot[id as usize] = at as u32;
        at += count;
    }
    let with_parents = tiles.len();
    tiles.extend(leaves_only);
    let shared = entries.get(owning).map_or(at, |e| e.1 as usize);
    if at > shared {
        tiles.push(LeafTile::cut(shared, at - shared, m));
    }
    if objects.len() > at {
        tiles.push(LeafTile::str(at, objects.len() - at, m, false));
    }
    let directory = CellDirectory {
        grid: *grid,
        entries,
        owning: owning as u32,
        end: at as u32,
    };
    let mut grouped = objects.clone();
    let mut no_cell = at as u32;
    for (o, &k) in objects.iter().zip(keys) {
        let at = match k {
            NO_CELL => &mut no_cell,
            k => &mut slot[k as usize],
        };
        grouped[*at as usize] = *o;
        *at += 1;
    }
    CellLayout {
        objects: grouped,
        directory,
        tiles,
        with_parents,
    }
}

/// Cuts one level of `nodes`, the run from `start` split as `tiles`
/// says, into parents appended to `nodes`. Each tile is STR-ordered in
/// place — by center x, then each slab by center y — and grouped; every
/// tile but the last is small (one cell's), so they are ordered side by
/// side, each on one worker, and the last gets the whole pool.
fn tile_level(nodes: &mut Vec<Node>, start: usize, tiles: &[Tile], m: usize, pool: &WorkerPool) {
    fn str_order(run: &mut [Node], slab: usize, pool: &WorkerPool) {
        pool.sort_by(run, |a, b| a.mbr.center().x.total_cmp(&b.mbr.center().x));
        pool.for_each_mut(run.chunks_mut(slab).collect(), |_, slab| {
            slab.sort_by(|a, b| a.mbr.center().y.total_cmp(&b.mbr.center().y));
        });
    }
    let (last, cells) = tiles.split_last().expect("a level has a tile");
    let mut runs = Vec::with_capacity(cells.len());
    let mut unsorted = &mut nodes[start..];
    for tile in cells {
        let (run, tail) = std::mem::take(&mut unsorted).split_at_mut(tile.len);
        runs.push(run);
        unsorted = tail;
    }
    let sequential = WorkerPool::sequential();
    pool.for_each_mut(runs, |i, run| str_order(run, cells[i].slab, &sequential));
    str_order(&mut unsorted[..last.len], last.slab, pool);
    let mut lo = start;
    for tile in tiles {
        for_each_group(tile.len, tile.slab, m, |run| {
            let run = lo + run.start..lo + run.end;
            let node = Node::over(run.clone(), nodes[run].iter().map(|c| (c.mbr, c.agg)));
            nodes.push(node);
        });
        lo += tile.len;
    }
}

/// Calls `f` with every parent's child run, in STR order: `0..len` cut
/// into slabs of `slab`, each slab into groups of at most `fanout`.
fn for_each_group(
    len: usize,
    slab: usize,
    fanout: usize,
    mut f: impl FnMut(std::ops::Range<usize>),
) {
    for lo in (0..len).step_by(slab) {
        let hi = (lo + slab).min(len);
        for first in (lo..hi).step_by(fanout) {
            f(first..(first + fanout).min(hi));
        }
    }
}

impl IndexMemory for RTree {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.objects.capacity() * std::mem::size_of::<SpatialObject>()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.cells.as_ref().map_or(0, |d| {
                d.entries.capacity() * std::mem::size_of::<(u32, u32)>()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_geo::Point;

    /// Brute-force oracle.
    fn brute(objects: &[SpatialObject], range: &Range) -> Aggregate {
        objects
            .iter()
            .filter(|o| range.contains_point(&o.location))
            .fold(Aggregate::ZERO, |a, o| a.merge(&Aggregate::of(o)))
    }

    fn grid_objects(n: usize) -> Vec<SpatialObject> {
        // Deterministic pseudo-random scatter in [0, 100]².
        let mut objs = Vec::with_capacity(n);
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            objs.push(SpatialObject::at(x, y, (i % 7) as f64));
        }
        objs
    }

    #[test]
    fn empty_tree() {
        let t = RTree::from_objects(&[]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.total(), Aggregate::ZERO);
        assert!(t.mbr().is_empty());
        let q = Range::circle(Point::new(0.0, 0.0), 1.0);
        assert_eq!(t.aggregate(&q), Aggregate::ZERO);
        assert!(t.query_objects(&q).is_empty());
    }

    #[test]
    fn single_object() {
        let t = RTree::from_objects(&[SpatialObject::at(1.0, 2.0, 5.0)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.total().sum, 5.0);
        let hit = Range::circle(Point::new(1.0, 2.0), 0.5);
        let miss = Range::circle(Point::new(9.0, 9.0), 0.5);
        assert_eq!(t.aggregate(&hit).count, 1.0);
        assert_eq!(t.aggregate(&miss).count, 0.0);
    }

    #[test]
    fn total_matches_bruteforce_everything_range() {
        let objs = grid_objects(1000);
        let t = RTree::from_objects(&objs);
        let everything = Range::rect(Point::new(-1.0, -1.0), Point::new(101.0, 101.0));
        let b = brute(&objs, &everything);
        let a = t.aggregate(&everything);
        assert_eq!(a.count, b.count);
        assert_eq!(a.count, 1000.0);
        assert!((a.sum - b.sum).abs() < 1e-9);
    }

    #[test]
    fn circle_queries_match_bruteforce() {
        let objs = grid_objects(2000);
        let t = RTree::from_objects(&objs);
        for (cx, cy, r) in [
            (50.0, 50.0, 10.0),
            (0.0, 0.0, 30.0),
            (100.0, 0.0, 5.0),
            (25.0, 75.0, 0.1),
            (50.0, 50.0, 200.0),
        ] {
            let q = Range::circle(Point::new(cx, cy), r);
            let a = t.aggregate(&q);
            let b = brute(&objs, &q);
            assert_eq!(a.count, b.count, "count mismatch at {q}");
            assert!((a.sum - b.sum).abs() < 1e-9, "sum mismatch at {q}");
            assert!((a.sum_sqr - b.sum_sqr).abs() < 1e-9);
        }
    }

    #[test]
    fn rect_queries_match_bruteforce() {
        let objs = grid_objects(2000);
        let t = RTree::from_objects(&objs);
        for (x0, y0, x1, y1) in [
            (10.0, 10.0, 20.0, 20.0),
            (0.0, 0.0, 100.0, 1.0),
            (49.9, 0.0, 50.1, 100.0),
            (90.0, 90.0, 91.0, 91.0),
        ] {
            let q = Range::rect(Point::new(x0, y0), Point::new(x1, y1));
            let a = t.aggregate(&q);
            let b = brute(&objs, &q);
            assert_eq!(a.count, b.count, "count mismatch at {q}");
            assert!((a.sum - b.sum).abs() < 1e-9);
        }
    }

    #[test]
    fn clipped_queries_match_bruteforce() {
        let objs = grid_objects(1500);
        let t = RTree::from_objects(&objs);
        let range = Range::circle(Point::new(50.0, 50.0), 20.0);
        for (x0, y0, x1, y1) in [
            (40.0, 40.0, 60.0, 60.0),
            (30.0, 50.0, 50.0, 70.0),
            (0.0, 0.0, 10.0, 10.0), // disjoint from the circle
            (45.0, 45.0, 46.0, 46.0),
        ] {
            let clip = Rect::new(Point::new(x0, y0), Point::new(x1, y1));
            let a = t.aggregate_clipped(&range, &clip);
            let b = objs
                .iter()
                .filter(|o| range.contains_point(&o.location) && clip.contains_point(&o.location))
                .fold(Aggregate::ZERO, |acc, o| acc.merge(&Aggregate::of(o)));
            assert_eq!(a.count, b.count, "clip {clip}");
            assert!((a.sum - b.sum).abs() < 1e-9);
        }
    }

    #[test]
    fn clipped_sum_over_partition_equals_unclipped() {
        // Clipping by a partition of the plane must reassemble the answer.
        let objs = grid_objects(1200);
        let t = RTree::from_objects(&objs);
        let range = Range::circle(Point::new(50.0, 50.0), 25.0);
        let mut acc = Aggregate::ZERO;
        let step = 20.0;
        for i in 0..6 {
            for j in 0..6 {
                let clip = Rect::new(
                    Point::new(i as f64 * step, j as f64 * step),
                    // Half-open tiling emulated by nudging the upper edge.
                    Point::new((i + 1) as f64 * step - 1e-9, (j + 1) as f64 * step - 1e-9),
                );
                acc.merge_in(&t.aggregate_clipped(&range, &clip));
            }
        }
        let whole = t.aggregate(&range);
        assert_eq!(acc.count, whole.count);
        assert!((acc.sum - whole.sum).abs() < 1e-9);
    }

    fn bits(a: &Aggregate) -> (u64, u64, u64) {
        (a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits())
    }

    /// `grid_objects` with every fifth object snapped onto the integer
    /// lattice of a 10-unit grid (cell edges and corners), and non-integer
    /// measures so the fold order shows in `sum` / `sum_sqr`.
    fn edge_heavy_objects(n: usize) -> Vec<SpatialObject> {
        grid_objects(n)
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                let m = 0.1 + (i % 13) as f64 * 0.37;
                let (x, y) = (o.location.x, o.location.y);
                match i % 10 {
                    0 => SpatialObject::at((x / 10.0).round() * 10.0, y, m),
                    5 => SpatialObject::at((x / 10.0).round() * 10.0, (y / 10.0).round() * 10.0, m),
                    _ => SpatialObject::at(x, y, m),
                }
            })
            .collect()
    }

    #[test]
    fn an_empty_tree_answers_zero_per_cell_and_per_clip() {
        let q = Range::circle(Point::new(0.0, 0.0), 1.0);
        let clip = Rect::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0));
        let packed = RTree::bulk_load_with(
            Vec::new(),
            RTreeConfig::default(),
            Some(&ten_grid()),
            &WorkerPool::sequential(),
        );
        assert_eq!(
            packed.aggregate_cells(&q, &[0, 0, 99, 100]),
            vec![Aggregate::ZERO; 4]
        );
        assert!(packed.aggregate_cells(&q, &[]).is_empty());
        assert_eq!(packed.aggregate_clipped(&q, &clip), Aggregate::ZERO);
        assert_eq!(
            RTree::from_objects(&[]).aggregate_clipped(&q, &clip),
            Aggregate::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "only a tree packed along a grid has cells")]
    fn a_tree_packed_without_a_grid_has_no_cells() {
        let t = RTree::from_objects(&grid_objects(10));
        t.aggregate_cells(&Range::circle(Point::new(0.0, 0.0), 1.0), &[0]);
    }

    #[test]
    fn query_objects_matches_filter() {
        let objs = grid_objects(500);
        let t = RTree::from_objects(&objs);
        let q = Range::circle(Point::new(50.0, 50.0), 15.0);
        let mut got: Vec<_> = t
            .query_objects(&q)
            .iter()
            .map(|o| (o.location.x.to_bits(), o.location.y.to_bits()))
            .collect();
        let mut want: Vec<_> = objs
            .iter()
            .filter(|o| q.contains_point(&o.location))
            .map(|o| (o.location.x.to_bits(), o.location.y.to_bits()))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn height_grows_logarithmically() {
        let cfg = RTreeConfig::with_fanout(4);
        let t16 = RTree::bulk_load(grid_objects(16), cfg);
        let t64 = RTree::bulk_load(grid_objects(64), cfg);
        let t4096 = RTree::bulk_load(grid_objects(4096), cfg);
        assert!(t16.height() <= 3);
        assert!(t64.height() <= 4);
        assert!(t4096.height() <= 7);
        assert!(t4096.height() > t16.height());
    }

    #[test]
    fn fanout_one_is_rejected() {
        assert!(std::panic::catch_unwind(|| RTreeConfig::with_fanout(1)).is_err());
    }

    #[test]
    fn duplicate_locations_are_kept() {
        let objs = vec![SpatialObject::at(1.0, 1.0, 2.0); 50];
        let t = RTree::from_objects(&objs);
        let q = Range::circle(Point::new(1.0, 1.0), 0.1);
        assert_eq!(t.aggregate(&q).count, 50.0);
        assert_eq!(t.aggregate(&q).sum, 100.0);
    }

    #[test]
    fn memory_grows_with_size() {
        let small = RTree::from_objects(&grid_objects(100));
        let large = RTree::from_objects(&grid_objects(10_000));
        assert!(large.memory_bytes() > small.memory_bytes());
        assert!(small.memory_bytes() > 0);
    }

    #[test]
    fn parallel_bulk_load_is_bit_identical() {
        // 20k objects clear the pool's inline-sort cutoff, so the chunked
        // sorts and merges actually run — and must not show through.
        let objs = grid_objects(20_000);
        let seq = RTree::bulk_load(objs.clone(), RTreeConfig::default());
        let par = RTree::bulk_load_with(objs, RTreeConfig::default(), None, &WorkerPool::new(4));
        let bits = |t: &RTree| -> Vec<(u64, u64)> {
            t.objects()
                .iter()
                .map(|o| (o.location.x.to_bits(), o.location.y.to_bits()))
                .collect()
        };
        assert_eq!(bits(&seq), bits(&par));
        assert_eq!(seq.node_count(), par.node_count());
        assert_eq!(seq.height(), par.height());
        for (cx, cy, r) in [(50.0, 50.0, 17.0), (10.0, 90.0, 33.0)] {
            let q = Range::circle(Point::new(cx, cy), r);
            let (a, b) = (seq.aggregate(&q), par.aggregate(&q));
            assert_eq!(a.count.to_bits(), b.count.to_bits());
            assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            assert_eq!(a.sum_sqr.to_bits(), b.sum_sqr.to_bits());
        }
    }

    #[test]
    fn objects_accessor_returns_every_object() {
        let objs = grid_objects(333);
        let t = RTree::from_objects(&objs);
        assert_eq!(t.objects().len(), 333);
        let mut got: Vec<u64> = t.objects().iter().map(|o| o.location.x.to_bits()).collect();
        let mut want: Vec<u64> = objs.iter().map(|o| o.location.x.to_bits()).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn packed_runs_partition_objects_and_nodes() {
        // (objects, fanout, node count of the Vec-per-node layout the
        // packed one replaced, for the same input).
        for (n, fanout, count) in [
            (1, 4, 1),
            (1, 16, 1),
            (100, 4, 36),
            (100, 9, 15),
            (100, 16, 9),
            (1000, 4, 339),
            (1000, 9, 139),
            (1000, 16, 69),
            (20_000, 4, 6732),
            (20_000, 9, 2545),
            (20_000, 16, 1347),
        ] {
            let t = RTree::bulk_load_with(
                grid_objects(n),
                RTreeConfig::with_fanout(fanout),
                None,
                &WorkerPool::new(2),
            );
            assert_eq!(t.node_count(), count, "{n} objects, fanout {fanout}");
            assert_packed(&t, fanout, &format!("{n} objects, fanout {fanout}"));
        }
    }

    /// The packed layout's invariants: nodes allocated exactly, every
    /// object in exactly one leaf run, every non-root node in exactly one
    /// child run, children before their parent, every run in bounds and
    /// at most `fanout` long, every leaf at the same depth, and every
    /// node's MBR and aggregate those of its children.
    fn assert_packed(t: &RTree, fanout: usize, what: &str) {
        assert_eq!(
            t.nodes.capacity(),
            t.nodes.len(),
            "{what}: nodes are allocated exactly"
        );
        let mut object_hits = vec![0u32; t.len()];
        let mut node_hits = vec![0u32; t.nodes.len()];
        for (id, node) in t.nodes.iter().enumerate() {
            assert!(
                node.len >= 1 && node.len as usize <= fanout,
                "{what}: node {id}"
            );
            let (hits, children): (_, Vec<(Rect, Aggregate)>) = if t.is_leaf(id as u32) {
                let objects = t.leaf_objects(node).iter();
                (
                    &mut object_hits,
                    objects
                        .map(|o| (Rect::from_point(o.location), Aggregate::of(o)))
                        .collect(),
                )
            } else {
                assert!(
                    node.first + node.len <= id as u32,
                    "{what}: children precede {id}"
                );
                let children =
                    t.nodes[node.first as usize..(node.first + node.len) as usize].iter();
                (&mut node_hits, children.map(|c| (c.mbr, c.agg)).collect())
            };
            for i in node.run() {
                hits[i as usize] += 1;
            }
            let want = Node::over(
                node.first as usize..(node.first + node.len) as usize,
                children.into_iter(),
            );
            assert_eq!(node.mbr, want.mbr, "{what}: node {id}");
            assert_eq!(bits(&node.agg), bits(&want.agg), "{what}: node {id}");
        }
        assert!(object_hits.iter().all(|&h| h == 1), "{what}");
        let root = t.nodes.len() - 1;
        assert!(node_hits[..root].iter().all(|&h| h == 1), "{what}");
        assert_eq!(node_hits[root], 0, "{what}");
        // Every root-to-leaf path has `height` nodes.
        let mut stack = vec![(root as u32, 1)];
        while let Some((id, depth)) = stack.pop() {
            if t.is_leaf(id) {
                assert_eq!(depth, t.height(), "{what}: leaf {id}");
            } else {
                stack.extend(t.nodes[id as usize].run().map(|c| (c, depth + 1)));
            }
        }
    }

    /// The 10-unit grid over `[0, 100]²` the grid-packing tests pack along.
    fn ten_grid() -> GridSpec {
        GridSpec::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            10.0,
        )
    }

    /// [`edge_heavy_objects`] (lattice points on the 10-unit cell edges
    /// and corners, continuous measures) plus what a grid packing must
    /// survive: a dense cluster in cell (3, 7), 300 duplicates inside cell
    /// (5, 5), 100 on the corner (20, 20), and 200 objects outside
    /// [`ten_grid`].
    fn grid_packing_objects() -> Vec<SpatialObject> {
        let mut objs = edge_heavy_objects(6000);
        let scatter = grid_objects(2300);
        for (i, o) in scatter.iter().enumerate() {
            let m = 0.3 + (i % 11) as f64 * 0.71;
            let (x, y) = (o.location.x / 10.0, o.location.y / 10.0);
            objs.push(match i {
                0..2000 => SpatialObject::at(30.0 + x, 70.0 + y, m),
                2000..2100 => SpatialObject::at(-30.0 + x * 2.5, y * 10.0, m),
                _ => SpatialObject::at(101.0 + x * 3.0, y * 10.0, m),
            });
        }
        objs.extend((0..300).map(|i| SpatialObject::at(55.5, 55.25, 1.0 + i as f64 * 0.013)));
        objs.extend((0..100).map(|i| SpatialObject::at(20.0, 20.0, 2.0 - i as f64 * 0.017)));
        objs
    }

    #[test]
    fn grid_packing_keeps_every_full_cell_in_its_own_leaves_and_parents() {
        let spec = ten_grid();
        let objs = grid_packing_objects();
        for (fanout, threads) in [(16, 1), (16, 4), (4, 2), (9, 1)] {
            let t = RTree::bulk_load_with(
                objs.clone(),
                RTreeConfig::with_fanout(fanout),
                Some(&spec),
                &WorkerPool::new(threads),
            );
            let what = format!("fanout {fanout}, {threads} threads");
            assert_packed(&t, fanout, &what);
            let key = |o: &SpatialObject| cell_key(&spec, o);
            let mut count = vec![0usize; spec.num_cells()];
            for k in objs.iter().map(key).filter(|&k| k != NO_CELL) {
                count[k as usize] += 1;
            }
            let owns = |k: u32| k != NO_CELL && count[k as usize] >= OWN_LEAVES_FANOUTS * fanout;
            // The cell a leaf belongs to, when one owns it.
            let mut leaf_cell = vec![None; t.leaves as usize];
            let mut leaves_of = vec![0usize; spec.num_cells()];
            for (id, leaf) in t.nodes[..t.leaves as usize].iter().enumerate() {
                let keys: Vec<u32> = t.leaf_objects(leaf).iter().map(key).collect();
                let Some(&k) = keys.iter().find(|&&k| owns(k)) else {
                    continue;
                };
                assert!(
                    keys.iter().all(|&other| other == k),
                    "{what}: leaf {id} mixes cells"
                );
                leaf_cell[id] = Some(k);
                leaves_of[k as usize] += 1;
            }
            let mut owned = 0;
            for (k, &c) in count.iter().enumerate().filter(|&(k, _)| owns(k as u32)) {
                assert_eq!(
                    leaves_of[k],
                    c.div_ceil(fanout),
                    "{what}: cell {k} fills ⌈c/m⌉ leaves"
                );
                owned += 1;
            }
            assert!(owned >= 3, "{what}: only {owned} cells own leaves");
            // A cell of at least 4 leaves has parents of its own, and as
            // few as its leaves allow.
            let mut parents_of = vec![0usize; spec.num_cells()];
            let level_one = t.leaves as usize..t.nodes.len();
            for (id, parent) in t.nodes[level_one].iter().enumerate() {
                let Some(first) = parent.run().next().filter(|&c| t.is_leaf(c)) else {
                    break;
                };
                let cells: Vec<Option<u32>> = parent.run().map(|c| leaf_cell[c as usize]).collect();
                if let Some(k) = leaf_cell[first as usize]
                    .filter(|&k| leaves_of[k as usize] >= OWN_PARENTS_LEAVES)
                {
                    assert!(
                        cells.iter().all(|&c| c == Some(k)),
                        "{what}: parent {id} mixes cells"
                    );
                    parents_of[k as usize] += 1;
                } else {
                    assert!(
                        cells
                            .iter()
                            .all(|c| c.is_none_or(|k| leaves_of[k as usize] < OWN_PARENTS_LEAVES)),
                        "{what}: parent {id} shares an owned cell's leaf"
                    );
                }
            }
            for (k, &leaves) in leaves_of
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l >= OWN_PARENTS_LEAVES)
            {
                assert_eq!(parents_of[k], leaves.div_ceil(fanout), "{what}: cell {k}");
            }
        }
    }

    #[test]
    fn a_grid_packing_lays_each_cell_out_as_one_run_its_directory_finds() {
        let spec = ten_grid();
        let objs = grid_packing_objects();
        let ranges = [
            Range::circle(Point::new(35.0, 75.0), 4.0),
            Range::circle(Point::new(50.0, 50.0), 23.0),
            Range::circle(Point::new(20.0, 20.0), 12.5),
            Range::circle(Point::new(50.0, 50.0), 500.0),
            Range::circle(Point::new(110.0, 5.0), 9.0),
            Range::rect(Point::new(20.0, 30.0), Point::new(70.0, 80.0)),
            Range::rect(Point::new(-8.0, 0.0), Point::new(0.0, 100.0)),
        ];
        // Aligned with the lattice the objects sit on, unaligned (another
        // L), and a second fanout.
        let other = GridSpec::new(spec.bounds(), 7.0);
        for (grid, fanout) in [(&spec, 16), (&other, 16), (&spec, 5)] {
            let what = format!("L {}, fanout {fanout}", grid.cell_len());
            let t = RTree::bulk_load_with(
                objs.clone(),
                RTreeConfig::with_fanout(fanout),
                Some(grid),
                &WorkerPool::new(2),
            );
            assert_packed(&t, fanout, &what);
            let dir = t.cells.as_ref().expect("a directory");
            let mut count = vec![0usize; grid.num_cells()];
            let mut no_cell = 0;
            for o in &objs {
                match grid.cell_of(&o.location) {
                    Some(id) => count[id as usize] += 1,
                    None => no_cell += 1,
                }
            }
            assert!(
                no_cell > 0 && count[0] > 0,
                "{what}: the data leaves the grid"
            );
            // Sorted and complete: one entry per non-empty cell, the
            // leaf-owning ones first, each part by key, each run starting
            // where the one before it ends.
            let owns = |c: usize| c >= OWN_LEAVES_FANOUTS * fanout;
            let non_empty = count.iter().filter(|&&c| c > 0).count();
            assert_eq!(dir.entries.len(), non_empty, "{what}");
            assert_eq!(
                dir.owning as usize,
                count.iter().filter(|&&c| owns(c)).count()
            );
            let (own, shared) = dir.entries.split_at(dir.owning as usize);
            for part in [own, shared] {
                assert!(part.windows(2).all(|w| w[0].0 < w[1].0), "{what}: sorted");
            }
            // Each cell is one run, holding exactly the cell's objects.
            let mut at = 0;
            let mut ids: Vec<CellId> = (0..grid.num_cells() as CellId)
                .filter(|&id| count[id as usize] > 0)
                .collect();
            ids.sort_by_key(|&id| (!owns(count[id as usize]), layout_key(grid, id)));
            for &id in &ids {
                let run = dir.run(id).expect("a non-empty cell has a run");
                assert_eq!(run, at..at + count[id as usize], "{what}: cell {id}");
                let keys = t.objects[run.clone()].iter().map(|o| cell_key(grid, o));
                assert!(keys.into_iter().all(|k| k == id), "{what}: cell {id}");
                at = run.end;
            }
            assert_eq!(dir.end as usize, at, "{what}");
            // Out-of-grid objects are in no cell's run: they close the order.
            assert_eq!(t.len() - at, no_cell, "{what}");
            assert!(t.objects[at..].iter().all(|o| cell_key(grid, o) == NO_CELL));
            for id in (0..grid.num_cells() as CellId).filter(|&id| count[id as usize] == 0) {
                assert_eq!(dir.run(id), None, "{what}: empty cell {id}");
            }
            // A leaf of a leaf-owning cell holds that cell's objects only.
            for (id, leaf) in t.nodes[..t.leaves as usize].iter().enumerate() {
                let run = leaf.first as usize..(leaf.first + leaf.len) as usize;
                if let Some(&(_, start)) = own.iter().find(|e| run.contains(&(e.1 as usize))) {
                    assert_eq!(
                        run.start, start as usize,
                        "{what}: leaf {id} starts its cell"
                    );
                }
                let keys: Vec<u32> = t.objects[run].iter().map(|o| cell_key(grid, o)).collect();
                if keys
                    .iter()
                    .any(|&k| k != NO_CELL && owns(count[k as usize]))
                {
                    assert!(keys.iter().all(|&k| k == keys[0]), "{what}: leaf {id}");
                }
            }
            // The leaf count stays within 1 % of the packing before cell
            // runs: ⌈c / m⌉ leaves per leaf-owning cell, plain STR for the
            // rest.
            let owned: usize = count
                .iter()
                .filter(|&&c| owns(c))
                .map(|c| c.div_ceil(fanout))
                .sum();
            let rest = t.len() - count.iter().filter(|&&c| owns(c)).sum::<usize>();
            let before = owned + str_tiling(rest, fanout, false).1;
            let ratio = t.leaves as f64 / before as f64;
            assert!(
                (0.99..=1.01).contains(&ratio),
                "{what}: {} vs {before} leaves",
                t.leaves
            );
            // Per cell: the scan of its run, bit for bit, over exactly the
            // objects `cell_of` puts there.
            let cells: Vec<CellId> = (0..grid.num_cells() as CellId + 2).collect();
            for range in &ranges {
                let got = t.aggregate_cells(range, &cells);
                for (&id, got) in cells.iter().zip(&got) {
                    let want = t
                        .objects()
                        .iter()
                        .filter(|o| grid.cell_of(&o.location) == Some(id))
                        .filter(|o| range.contains_point(&o.location))
                        .fold(Aggregate::ZERO, |a, o| a.merge(&Aggregate::of(o)));
                    assert_eq!(bits(got), bits(&want), "{what}, {range}, cell {id}");
                }
                let inside = objs.iter().filter(|o| range.contains_point(&o.location));
                let celled = inside
                    .filter(|o| grid.cell_of(&o.location).is_some())
                    .count();
                let counted: f64 = got.iter().map(|a| a.count).sum();
                assert_eq!(counted, celled as f64, "{what}, {range}: each object once");
            }
        }
    }

    #[test]
    fn a_grid_packing_is_bit_identical_for_every_pool_size() {
        let spec = ten_grid();
        let objs = grid_packing_objects();
        let runs =
            |t: &RTree| -> Vec<(u32, u32)> { t.nodes.iter().map(|n| (n.first, n.len)).collect() };
        let seq = RTree::bulk_load_with(
            objs.clone(),
            RTreeConfig::default(),
            Some(&spec),
            &WorkerPool::sequential(),
        );
        for threads in [2, 4] {
            let par = RTree::bulk_load_with(
                objs.clone(),
                RTreeConfig::default(),
                Some(&spec),
                &WorkerPool::new(threads),
            );
            assert_eq!(seq.objects(), par.objects(), "{threads} threads");
            assert_eq!(runs(&seq), runs(&par), "{threads} threads");
            let entries = |t: &RTree| {
                t.cells
                    .as_ref()
                    .map(|d| (d.entries.clone(), d.owning, d.end))
            };
            assert_eq!(entries(&seq), entries(&par), "{threads} threads");
            assert_eq!(seq.height(), par.height());
        }
        // An empty grid packing and a one-object one are the plain trees.
        let empty = RTree::bulk_load_with(
            Vec::new(),
            RTreeConfig::default(),
            Some(&spec),
            &WorkerPool::sequential(),
        );
        assert!(empty.is_empty() && empty.height() == 0);
        let one = RTree::bulk_load_with(
            objs[..1].to_vec(),
            RTreeConfig::default(),
            Some(&spec),
            &WorkerPool::sequential(),
        );
        assert_eq!((one.len(), one.height(), one.node_count()), (1, 1, 1));
    }

    #[test]
    fn node_count_is_linear_in_objects() {
        let t = RTree::bulk_load(grid_objects(1000), RTreeConfig::with_fanout(10));
        // ~100 leaves + ~10 internals + root.
        assert!(t.node_count() >= 100);
        assert!(t.node_count() <= 130);
    }
}
