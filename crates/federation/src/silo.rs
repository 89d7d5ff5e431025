//! A data silo: one autonomous member of the federation.
//!
//! Each silo owns its horizontal partition `P_{s_i}` and serves the
//! protocol of [`crate::protocol`] from behind a channel — the provider
//! can only interact through the query interface, never touch the rows
//! (the federation constraint of Sec. 2). [`Silo::new`] only holds the
//! partition. The provider's `Setup` (Alg. 1) carries the [`SiloSpec`] —
//! the federation grid, fanout, histogram config and this silo's LSR
//! seed — and the silo indexes by it, in-process or behind `fedra-silo`
//! alike:
//!
//! * an LSR-Forest (Alg. 5) whose level `T_0` *is* the aggregate R-tree
//!   over all its objects (exact local queries, the EXACT baseline) and
//!   whose sampled levels serve O(log 1/ε) approximate local queries
//!   (on the level the provider's request names, clamped to this
//!   forest's top by [`LsrForest::clamp_level`]), every level packed
//!   along the spec's grid, cell by cell, so Alg. 3's per-cell
//!   contribution is one scan of that cell's run of objects;
//! * a MinSkew histogram over the spec's bounds for the OPTA baseline;
//!
//! and, on the provider's `BuildGrid` request, a grid index along the
//! same spec, which it returns and retains (it classifies a
//! `CellContributions` range against it). The spec and the retained grid
//! persist as a [`SiloGridSnapshot`] — the grid in the one wire codec of
//! [`crate::wire`], the file checked like the provider's own
//! ([`crate::snapshot`]) — so a respawned silo sets itself up from disk.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use bytes::{BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fedra_obs::catalog::{
    SILO_BATCH_PANICS_TOTAL, SILO_CELLS_PRUNED_TOTAL, SILO_LSR_LEVEL_TOTAL, SILO_POOL_BATCH_ITEMS,
    SILO_POOL_THREADS, SILO_REQUESTS_BY_KIND_TOTAL, SNAPSHOT_LOADED_TOTAL, SNAPSHOT_SAVED_TOTAL,
};
use fedra_obs::{Counter, Histogram, MetricsRegistry};

use fedra_geo::{Range, SpatialObject};
use fedra_index::grid::{CellId, GridIndex, GridSpec};
use fedra_index::histogram::MinSkewHistogram;
use fedra_index::lsr::LsrForest;
use fedra_index::pool::WorkerPool;
use fedra_index::{Aggregate, IndexMemory, Moments};

use crate::protocol::{LocalMode, Request, Response, SiloMemoryReport, SiloSpec};
use crate::snapshot::{read_checked, write_checked};
use crate::transport::socket::MAX_FRAME_PAYLOAD;
use crate::wire::{expect_magic, Wire, WireError, WireResult};

/// Identifier of a silo within its federation: `0 .. m`.
pub type SiloId = usize;

/// The silo's in-memory state and request handler.
///
/// `Silo` itself is transport-agnostic; [`crate::transport`] wraps it in a
/// worker thread. Handling is `&self`: the indexes are set once, by the
/// first `Setup`, and the grid once, by the first `BuildGrid`.
pub struct Silo {
    id: SiloId,
    num_objects: usize,
    /// The partition until `Setup` indexes it; emptied then, since `T_0`
    /// holds the canonical copy. The lock serializes setups.
    partition: Mutex<Vec<SpatialObject>>,
    indexes: OnceLock<Indexes>,
    /// Scoped worker pool for index builds only; every request, batched
    /// or lone, is served on the thread that called [`Silo::handle`].
    pool: WorkerPool,
    /// Failure injection: when set, every request is answered with
    /// `Response::Error`.
    failed: Arc<AtomicBool>,
    /// Number of requests served (diagnostics, load-balance tests).
    served: Arc<AtomicU64>,
    /// Silo-side observability: registry plus pre-resolved handles so the
    /// request hot path pays one relaxed atomic per record, never a map
    /// lookup or an allocation.
    metrics: SiloMetrics,
}

/// What a `Setup` builds from the partition.
pub(crate) struct Indexes {
    spec: SiloSpec,
    grid_spec: GridSpec,
    /// The forest's `T_0` is the exact aggregate R-tree and the canonical
    /// copy of the partition: one full bulk load per silo.
    lsr: LsrForest,
    histogram: MinSkewHistogram,
    /// Retained by the first `BuildGrid` (or restored from a snapshot):
    /// the grid a `CellContributions` range is classified against and
    /// the per-cell mass that picks the cells its reply carries.
    grid: OnceLock<GridIndex>,
    /// One counter per LSR level, indexed by the level picked (Alg. 6);
    /// the paper's O(log 1/ε) claim is readable straight off these.
    lsr_levels: Vec<Arc<Counter>>,
}

/// A silo's persisted state: the spec it was set up with and its grid,
/// everything a respawn needs to rebuild its indexes and re-retain the
/// grid without re-binning the partition (DESIGN.md §5i).
///
/// On disk it is the wire encoding of this struct (a format magic first;
/// the grid in the one [`GridIndex`] codec) in a checked file (see
/// [`crate::snapshot`]). [`Silo::load_grid_snapshot`] refuses a file
/// whose checksum mismatches (torn write, bit rot), whose magic is not
/// this layout's or whose grid is not along its spec, and ignores one
/// whose `num_objects` disagrees with the live partition (stale snapshot
/// from before a re-shard) — the silo then waits for the provider's
/// `Setup`, so a bad snapshot can delay recovery but never corrupt an
/// answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SiloGridSnapshot {
    /// The spec the silo was set up with (the grid is along it).
    pub spec: SiloSpec,
    /// Partition size when the grid was built (staleness guard).
    pub num_objects: u64,
    /// The retained grid.
    pub grid: GridIndex,
}

/// Format magic of [`SiloGridSnapshot`]: layout 5, the whole [`SiloSpec`]
/// and the grid in its own codec. Layouts 1 (no magic), 2 (bounds and `L`
/// only), 3 (bare cells) and 4 (the grid's cells behind a `u32` count, no
/// layout byte) are refused.
const SILO_SNAPSHOT_MAGIC: &[u8; 8] = b"FRAGRID5";

impl Wire for SiloGridSnapshot {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(SILO_SNAPSHOT_MAGIC);
        self.spec.encode(buf);
        self.num_objects.encode(buf);
        self.grid.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        SILO_SNAPSHOT_MAGIC.len()
            + self.spec.encoded_len()
            + self.num_objects.encoded_len()
            + self.grid.encoded_len()
    }

    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        expect_magic(buf, SILO_SNAPSHOT_MAGIC, "silo grid snapshot format")?;
        let snapshot = Self {
            spec: SiloSpec::decode(buf)?,
            num_objects: u64::decode(buf)?,
            grid: GridIndex::decode(buf)?,
        };
        let grid = snapshot.grid.spec();
        if grid.bounds() != snapshot.spec.bounds || grid.cell_len() != snapshot.spec.cell_len {
            return Err(WireError::BadValue {
                context: "silo grid snapshot spec",
            });
        }
        Ok(snapshot)
    }
}

/// The silo's metric registry with cached hot-path handles.
///
/// Shared across the worker-thread boundary by `Arc`, like the served
/// counter and failure flag: metrics are diagnostics, not data, so they
/// may bypass the byte-counted wire path.
struct SiloMetrics {
    registry: Arc<MetricsRegistry>,
    requests: RequestCounters,
    batch_items: Arc<Histogram>,
    batch_panics: Arc<Counter>,
    /// Boundary cells left out of a `CellContributions` reply (and never
    /// scanned): the provider's ratio never reads them.
    cells_pruned: Arc<Counter>,
    /// Grid snapshots written to disk (crash-recovery, DESIGN.md §5i).
    snapshot_saved: Arc<Counter>,
    /// Grid snapshots successfully restored from disk.
    snapshot_loaded: Arc<Counter>,
}

/// Per-request-kind counters, one per [`Request`] variant.
struct RequestCounters {
    setup: Arc<Counter>,
    build_grid: Arc<Counter>,
    aggregate: Arc<Counter>,
    cell_contributions: Arc<Counter>,
    histogram_estimate: Arc<Counter>,
    ping: Arc<Counter>,
    nested_batch: Arc<Counter>,
}

impl SiloMetrics {
    fn new(id: SiloId, pool: &WorkerPool) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let kind = |k: &str| registry.series(&SILO_REQUESTS_BY_KIND_TOTAL, &[&id, &k]);
        let requests = RequestCounters {
            setup: kind("setup"),
            build_grid: kind("build_grid"),
            aggregate: kind("aggregate"),
            cell_contributions: kind("cell_contributions"),
            histogram_estimate: kind("histogram_estimate"),
            ping: kind("ping"),
            nested_batch: kind("nested_batch"),
        };
        registry
            .series(&SILO_POOL_THREADS, &[&id])
            .set(pool.threads() as f64);
        Self {
            requests,
            batch_items: registry.series(&SILO_POOL_BATCH_ITEMS, &[&id]),
            batch_panics: registry.series(&SILO_BATCH_PANICS_TOTAL, &[&id]),
            cells_pruned: registry.series(&SILO_CELLS_PRUNED_TOTAL, &[&id]),
            snapshot_saved: registry.series(&SNAPSHOT_SAVED_TOTAL, &[&id]),
            snapshot_loaded: registry.series(&SNAPSHOT_LOADED_TOTAL, &[&id]),
            registry,
        }
    }
}

impl Indexes {
    fn record_level(&self, level: usize) {
        if let Some(counter) = self.lsr_levels.get(level) {
            counter.inc();
        }
    }

    /// The silo-local range aggregation `Q(s_k, R, F)` — exact on `T_0`
    /// or approximate on a sampled level of the LSR-Forest (Alg. 6).
    fn local_aggregate(&self, range: &Range, mode: LocalMode) -> Aggregate {
        match mode {
            LocalMode::Exact => self.lsr.base().aggregate(range),
            LocalMode::Lsr { level } => {
                let level = self.lsr.clamp_level(level.into());
                self.record_level(level);
                self.lsr.query_at_level(range, level)
            }
        }
    }
}

impl Silo {
    /// Holds a partition until the provider's `Setup` indexes it.
    /// `threads` sizes the worker pool for index builds (the LSR-Forest on
    /// `Setup`, the grid on `BuildGrid`); serving a frame never uses it.
    /// `0` = automatic: available cores clamped to
    /// [`fedra_index::pool::MAX_AUTO_THREADS`], with the
    /// `FEDRA_SILO_THREADS` environment variable as an override. Results
    /// are bit-identical for every value — the pool only changes speed.
    pub fn new(id: SiloId, objects: Vec<SpatialObject>, threads: usize) -> Self {
        let pool = WorkerPool::new(threads);
        Self {
            id,
            num_objects: objects.len(),
            partition: Mutex::new(objects),
            indexes: OnceLock::new(),
            metrics: SiloMetrics::new(id, &pool),
            pool,
            failed: Arc::new(AtomicBool::new(false)),
            served: Arc::new(AtomicU64::new(0)),
        }
    }

    /// This silo's id.
    pub fn id(&self) -> SiloId {
        self.id
    }

    /// Number of objects in the partition (`n_{s_i}`).
    pub fn len(&self) -> usize {
        self.num_objects
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.num_objects == 0
    }

    /// Shared failure flag (used by the transport for failure injection).
    pub fn failure_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.failed)
    }

    /// Shared served-request counter.
    pub fn served_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.served)
    }

    /// Shared silo-side metrics registry (request counts by kind, batch
    /// sizes, LSR level-selection counters).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics.registry)
    }

    /// Serves one wire frame (Alg. 1, Alg. 2 line 3, Alg. 3 line 3,
    /// OPTA, metrics).
    ///
    /// A [`Request::Batch`] frame is unpacked here: the items are served
    /// one after another, in frame order, on the calling thread — a later
    /// item sees everything an earlier one did (a `BuildGrid` after a
    /// `Setup` bins along its spec) — and the answers form a
    /// [`Response::Batch`] of the same arity. Per-item failures —
    /// including a panicking handler — surface as `Response::Error`
    /// items; one bad sub-request never aborts its batch-mates. A lone
    /// request whose handler panics is answered `Response::Error` the same
    /// way, so no request can take the silo down.
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Batch(requests) => self.handle_batch(requests.into_iter().map(Ok).collect()),
            other => self.handle_guarded(other, "request"),
        }
    }

    /// Serves a batch's items in order, each answered on its own: an item
    /// that failed to decode ([`crate::protocol::decode_riders`]) answers
    /// its own [`Response::Error`], and a panicking one its own error too.
    pub(crate) fn handle_batch(&self, items: Vec<WireResult<Request>>) -> Response {
        self.metrics.batch_items.observe(items.len() as u64);
        let serve = |item: WireResult<Request>| match item {
            Ok(item) => self.handle_guarded(item, "batch item"),
            Err(error) => Response::Error(format!("undecodable request: {error}")),
        };
        Response::Batch(items.into_iter().map(serve).collect())
    }

    /// [`Self::handle_one`], with a panic caught and answered as an error
    /// naming `what` panicked.
    fn handle_guarded(&self, request: Request, what: &str) -> Response {
        catch_unwind(AssertUnwindSafe(|| self.handle_one(request))).unwrap_or_else(|_| {
            self.metrics.batch_panics.inc();
            Response::Error(format!("silo {}: {what} panicked", self.id))
        })
    }

    /// Serves one logical (non-batch) request.
    ///
    /// The served counter counts logical requests: a batch of `n`
    /// increments it `n` times, so load-balance diagnostics see the same
    /// numbers whether the provider coalesces frames or not.
    fn handle_one(&self, request: Request) -> Response {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.count_request(&request);
        if self.failed.load(Ordering::Acquire) {
            return Response::Error(format!("silo {} unavailable", self.id));
        }
        self.answer(request, Moments::ALL)
    }

    /// Answers one counted, non-batch request for a function reading
    /// `moments` (all three unless a `Masked` wrapper names fewer).
    fn answer(&self, request: Request, moments: Moments) -> Response {
        match request {
            Request::Setup(spec) => match self.setup(spec) {
                Ok(_) => Response::Memory(self.memory_report()),
                Err(message) => Response::Error(message),
            },
            Request::BuildGrid { return_cells } => {
                self.indexed(|ix| self.handle_build_grid(ix, return_cells))
            }
            Request::Aggregate { range, mode } => {
                self.indexed(|ix| Response::Agg(ix.local_aggregate(&range, mode)))
            }
            Request::CellContributions { range, mode } => {
                self.indexed(|ix| self.handle_cell_contributions(ix, &range, mode, moments))
            }
            Request::HistogramEstimate { range } => {
                self.indexed(|ix| Response::Agg(ix.histogram.estimate(&range)))
            }
            Request::Ping => Response::Pong,
            // One level of batching is all the protocol grants: nesting
            // would let a malformed frame amplify work quadratically.
            Request::Batch(_) => {
                Response::Error(format!("silo {}: nested batch rejected", self.id))
            }
            // The same tree walk as unmasked (over the cells the moments
            // keep), then only the asked-for moments leave the silo.
            Request::Masked { moments, request } => match *request {
                inner @ (Request::Aggregate { .. }
                | Request::CellContributions { .. }
                | Request::HistogramEstimate { .. }) => match self.answer(inner, moments) {
                    Response::Agg(a) => Response::Agg(a.masked(moments)),
                    Response::AggVec(mut v) => {
                        v.iter_mut().for_each(|a| *a = a.masked(moments));
                        Response::AggVec(v)
                    }
                    other => other,
                },
                _ => Response::Error(format!(
                    "silo {}: only an aggregate request can be masked",
                    self.id
                )),
            },
        }
    }

    /// `serve` over the indexes, or a refusal before the first `Setup`.
    fn indexed(&self, serve: impl FnOnce(&Indexes) -> Response) -> Response {
        match self.indexes.get() {
            Some(indexes) => serve(indexes),
            None => Response::Error(format!(
                "silo {}: not set up (a Setup must come first)",
                self.id
            )),
        }
    }

    /// Bumps the per-kind request counter. Exhaustive over [`Request`] so
    /// a new protocol variant cannot arrive unobserved; a masked request
    /// counts as the request it wraps.
    fn count_request(&self, request: &Request) {
        let counters = &self.metrics.requests;
        match request {
            Request::Setup(_) => counters.setup.inc(),
            Request::BuildGrid { .. } => counters.build_grid.inc(),
            Request::Aggregate { .. } => counters.aggregate.inc(),
            Request::CellContributions { .. } => counters.cell_contributions.inc(),
            Request::HistogramEstimate { .. } => counters.histogram_estimate.inc(),
            Request::Ping => counters.ping.inc(),
            Request::Batch(_) => counters.nested_batch.inc(),
            Request::Masked { request, .. } => self.count_request(request),
        }
    }

    /// Indexes the partition by `spec`, once (Alg. 1's setup). An equal
    /// spec again is a no-op, another spec is refused. So is a grid whose
    /// cell vector (or a histogram whose fine grid) would not fit in one
    /// frame: that is checked before anything is allocated, because a
    /// failed allocation aborts the process and no guard catches it. A
    /// grid, fanout or histogram no silo could index never gets here from
    /// bytes: [`SiloSpec`]'s decoder refuses it.
    pub(crate) fn setup(&self, spec: SiloSpec) -> Result<&Indexes, String> {
        let grid = GridSpec::new(spec.bounds, spec.cell_len);
        let mut partition = self
            .partition
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(indexes) = self.indexes.get() {
            if indexes.spec != spec {
                return Err(format!(
                    "silo {}: already set up with another spec ({:?})",
                    self.id, indexes.spec
                ));
            }
            return Ok(indexes);
        }
        let resolution = spec.histogram.resolution as usize;
        for (what, cells) in [
            ("grid", grid.num_cells()),
            ("histogram", resolution.saturating_mul(resolution)),
        ] {
            if cells.saturating_mul(std::mem::size_of::<Aggregate>()) > MAX_FRAME_PAYLOAD as usize {
                return Err(format!(
                    "silo {}: a {cells}-cell {what} does not fit in a {MAX_FRAME_PAYLOAD}-byte frame",
                    self.id
                ));
            }
        }
        let mut rng = StdRng::seed_from_u64(spec.lsr_seed);
        let lsr = LsrForest::build_with(&partition, spec.rtree, Some(&grid), &mut rng, &self.pool);
        let histogram = MinSkewHistogram::build(spec.bounds, spec.histogram, &partition);
        let lsr_levels = (0..lsr.num_levels())
            .map(|l| {
                self.metrics
                    .registry
                    .series(&SILO_LSR_LEVEL_TOTAL, &[&self.id, &l])
            })
            .collect();
        *partition = Vec::new();
        Ok(self.indexes.get_or_init(|| Indexes {
            spec,
            grid_spec: grid,
            lsr,
            histogram,
            grid: OnceLock::new(),
            lsr_levels,
        }))
    }

    /// A wire-serializable copy of the setup spec and the retained grid
    /// (`None` before `BuildGrid` or a successful
    /// [`Self::load_grid_snapshot`]).
    pub fn grid_snapshot(&self) -> Option<SiloGridSnapshot> {
        let indexes = self.indexes.get()?;
        Some(SiloGridSnapshot {
            spec: indexes.spec,
            num_objects: self.num_objects as u64,
            grid: indexes.grid.get()?.clone(),
        })
    }

    /// Persists the spec and the retained grid to the checked file `path`
    /// (see [`crate::snapshot`]), replacing any previous file. Returns
    /// `Ok(false)` when no grid has been built yet.
    pub fn save_grid_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<bool> {
        let Some(snapshot) = self.grid_snapshot() else {
            return Ok(false);
        };
        write_checked(path.as_ref(), &snapshot.to_bytes())?;
        self.metrics.snapshot_saved.inc();
        Ok(true)
    }

    /// Sets the silo up from a file written by
    /// [`Self::save_grid_snapshot`]: the indexes are rebuilt from the
    /// persisted spec and the grid is restored as saved, so the silo
    /// serves before any provider's `Setup` (an equal one is then a
    /// no-op and the next `BuildGrid` answers without re-binning).
    ///
    /// Returns `Ok(true)` when the silo was restored, `Ok(false)` when the
    /// file is missing or stale (its `num_objects` disagrees with the live
    /// partition), and `Err` on corruption — a failed checksum or an
    /// undecodable body — or a spec this silo refuses.
    pub fn load_grid_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<bool> {
        let body = match read_checked(path.as_ref()) {
            Ok(body) => body,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let snapshot = SiloGridSnapshot::from_bytes(body)
            .map_err(|e| invalid(format!("undecodable grid snapshot: {e}")))?;
        if snapshot.num_objects != self.num_objects as u64 {
            // Stale, not corrupt: the partition changed since the save.
            // Ignore it and wait for the provider's Setup.
            return Ok(false);
        }
        let indexes = self.setup(snapshot.spec).map_err(invalid)?;
        let _ = indexes.grid.set(snapshot.grid);
        self.metrics.snapshot_loaded.inc();
        Ok(true)
    }

    /// Bins `T_0` along the setup spec once; a repeated `BuildGrid` (a
    /// warm start) or a snapshot-restored grid answers from the retained
    /// cells without re-scanning. `T_0` keeps the canonical copy of the
    /// partition, so the grid indexes it directly, sharded across the
    /// pool.
    fn handle_build_grid(&self, indexes: &Indexes, return_cells: bool) -> Response {
        let grid = indexes.grid.get_or_init(|| {
            GridIndex::build_with(indexes.grid_spec, indexes.lsr.base().objects(), &self.pool)
        });
        if return_cells {
            Response::Grid(Box::new(grid.clone()))
        } else {
            // Warm start: the provider already holds the cells; it only
            // needs proof that this silo's data still matches.
            Response::GridAck {
                total: grid.total(),
                outside: grid.outside_count(),
            }
        }
    }

    /// The reply is dense over the grid's contributing cells for `range`
    /// and `moments` ([`GridIndex::contributing_cells`]): the boundary
    /// cells whose own mass the provider's ratio reads. The provider holds
    /// the same grid, so it lays the entries back onto the boundary itself.
    fn handle_cell_contributions(
        &self,
        indexes: &Indexes,
        range: &Range,
        mode: LocalMode,
        moments: Moments,
    ) -> Response {
        let Some(grid) = indexes.grid.get() else {
            return Response::Error(format!(
                "silo {}: grid index not built yet (BuildGrid must precede CellContributions)",
                self.id
            ));
        };
        // `contributing_cells`, classified once so the left-out boundary
        // cells can be counted. The range came off the wire; the
        // classification is clipped to the grid, so the reply never has
        // more than `num_cells` entries.
        let boundary = grid.spec().classify(range).boundary;
        let cells: Vec<CellId> = boundary
            .iter()
            .copied()
            .filter(|&id| grid.contributes(id, moments))
            .collect();
        self.metrics
            .cells_pruned
            .add((boundary.len() - cells.len()) as u64);
        // The per-cell contributions (the O(√|g₀|) boundary work of
        // Alg. 3), on this thread: each is one scan of the cell's run of
        // objects in one tree, over the objects the grid bins there. For
        // the LSR mode the provider selected the level once from the
        // whole-query sum₀, so all per-cell estimates share one sample tree.
        let contributions = match mode {
            LocalMode::Exact => indexes.lsr.base().aggregate_cells(range, &cells),
            LocalMode::Lsr { level } => {
                let l = indexes.lsr.clamp_level(level.into());
                indexes.record_level(l);
                indexes.lsr.query_cells_at_level(range, &cells, l)
            }
        };
        Response::AggVec(contributions)
    }

    /// Memory footprint of the silo's indices (all zero before `Setup`).
    pub fn memory_report(&self) -> SiloMemoryReport {
        let Some(indexes) = self.indexes.get() else {
            return SiloMemoryReport::default();
        };
        // T₀ is the forest's first level: report it as the R-tree and only
        // the sampled levels as the LSR extra, so the two add up to the
        // forest without double counting.
        let rtree = indexes.lsr.base().memory_bytes() as u64;
        SiloMemoryReport {
            rtree,
            lsr_extra: (indexes.lsr.memory_bytes() as u64).saturating_sub(rtree),
            grid: indexes.grid.get().map_or(0, |g| g.memory_bytes() as u64),
            histogram: indexes.histogram.memory_bytes() as u64,
        }
    }
}

impl std::fmt::Debug for Silo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Silo")
            .field("id", &self.id)
            .field("objects", &self.num_objects)
            .field("spec", &self.indexes.get().map(|ix| ix.spec))
            .field("failed", &self.failed.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_geo::{Point, Rect};
    use fedra_index::lsr::lemma1_level;
    use fedra_index::rtree::{RTree, RTreeConfig};

    fn bounds() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    /// The spec a federation over `bounds()` at `L = 10` sends silo `id`.
    fn spec(id: SiloId) -> SiloSpec {
        crate::FederationBuilder::new(bounds())
            .grid_cell_len(10.0)
            .histogram_config(fedra_index::histogram::MinSkewConfig {
                resolution: 32,
                budget: 32,
            })
            .lsr_seed(7)
            .silo_spec(id)
    }

    /// A silo set up by [`spec`] (not through `handle`, so no request is
    /// counted).
    fn silo(id: SiloId, objects: Vec<SpatialObject>, threads: usize) -> Silo {
        let silo = Silo::new(id, objects, threads);
        silo.setup(spec(id)).expect("set up");
        silo
    }

    fn ix(s: &Silo) -> &Indexes {
        s.indexes.get().expect("set up")
    }

    /// Exact local aggregate straight off `T_0`, bypassing the protocol.
    fn oracle(s: &Silo, range: &Range) -> Aggregate {
        ix(s).lsr.base().aggregate(range)
    }

    fn objects(n: usize) -> Vec<SpatialObject> {
        let mut state = 11u64;
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
                SpatialObject::at(x, y, (i % 4) as f64 + 1.0)
            })
            .collect()
    }

    /// The cells a `CellContributions` reply from `s` carries, off its own
    /// retained grid.
    fn contributing(s: &Silo, range: &Range, moments: Moments) -> Vec<CellId> {
        ix(s)
            .grid
            .get()
            .expect("grid built")
            .contributing_cells(range, moments)
    }

    #[test]
    fn ping_pongs() {
        let s = silo(0, objects(10), 0);
        assert_eq!(s.handle(Request::Ping), Response::Pong);
        assert_eq!(s.served_counter().load(Ordering::Relaxed), 1);
    }

    #[test]
    fn exact_aggregate_matches_oracle() {
        let objs = objects(2000);
        let s = silo(1, objs.clone(), 0);
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let resp = s.handle(Request::Aggregate {
            range: q,
            mode: LocalMode::Exact,
        });
        let brute: f64 = objs
            .iter()
            .filter(|o| q.contains_point(&o.location))
            .count() as f64;
        match resp {
            Response::Agg(a) => assert_eq!(a.count, brute),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn exact_answers_come_from_the_one_shared_t0() {
        // T₀ of the forest is the silo's only full-partition tree: EXACT
        // whole-range and per-cell answers must equal a standalone
        // bulk load of the same objects bit for bit, at every pool size
        // (integer measures, so the grid packing cannot show in a sum).
        let objs = objects(8000);
        let reference = RTree::bulk_load(objs.clone(), RTreeConfig::default());
        let q = Range::circle(Point::new(45.0, 55.0), 22.0);
        let spec = GridSpec::new(bounds(), 10.0);
        let bits = |a: &Aggregate| (a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits());
        for threads in [1, 4] {
            let s = silo(13, objs.clone(), threads);
            let Response::Agg(whole) = s.handle(Request::Aggregate {
                range: q,
                mode: LocalMode::Exact,
            }) else {
                panic!("unexpected response");
            };
            assert_eq!(
                bits(&whole),
                bits(&reference.aggregate(&q)),
                "threads {threads}"
            );
            s.handle(Request::BuildGrid {
                return_cells: false,
            });
            let Response::AggVec(per_cell) = s.handle(Request::CellContributions {
                range: q,
                mode: LocalMode::Exact,
            }) else {
                panic!("unexpected response");
            };
            let cells = contributing(&s, &q, Moments::ALL);
            assert!(!cells.is_empty());
            assert_eq!(per_cell.len(), cells.len());
            for (&id, got) in cells.iter().zip(&per_cell) {
                let want = reference.aggregate_clipped(&q, &spec.cell_rect_of(id));
                assert_eq!(bits(got), bits(&want), "threads {threads}, cell {id}");
            }
            assert_eq!(
                s.memory_report().rtree,
                ix(&s).lsr.base().memory_bytes() as u64,
                "T₀ is reported once, as the R-tree"
            );
            // T₀ is packed along the silo's grid: the tree a grid-packed
            // bulk load of the partition builds, object for object.
            let packed = RTree::bulk_load_with(
                objs.clone(),
                RTreeConfig::default(),
                Some(&GridSpec::new(bounds(), 10.0)),
                &WorkerPool::sequential(),
            );
            assert_eq!(
                ix(&s).lsr.base().objects(),
                packed.objects(),
                "threads {threads}"
            );
            assert_eq!(ix(&s).lsr.base().node_count(), packed.node_count());
            assert_ne!(packed.objects(), reference.objects(), "the grid shows");
        }
    }

    #[test]
    fn lsr_aggregate_is_close() {
        let objs = objects(20_000);
        let s = silo(2, objs.clone(), 0);
        let q = Range::circle(Point::new(50.0, 50.0), 30.0);
        let exact = oracle(&s, &q).count;
        let resp = s.handle(Request::Aggregate {
            range: q,
            mode: LocalMode::lsr(lemma1_level(0.1, 0.01, exact)),
        });
        match resp {
            Response::Agg(a) => {
                let rel = (a.count - exact).abs() / exact;
                assert!(rel < 0.25, "LSR rel error {rel}");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn build_grid_then_contributions() {
        let objs = objects(1000);
        let s = silo(3, objs.clone(), 0);
        // Contributions before BuildGrid must fail loudly.
        let q = Range::circle(Point::new(50.0, 50.0), 10.0);
        let premature = s.handle(Request::CellContributions {
            range: q,
            mode: LocalMode::Exact,
        });
        assert!(matches!(premature, Response::Error(_)));

        let Response::Grid(grid) = s.handle(Request::BuildGrid { return_cells: true }) else {
            panic!("BuildGrid answers a grid");
        };
        assert_eq!(grid.total().count, 1000.0);

        let cls = grid.spec().classify(&q);
        let resp = s.handle(Request::CellContributions {
            range: q,
            mode: LocalMode::Exact,
        });
        match resp {
            Response::AggVec(v) => {
                // Every boundary cell of this dense silo holds objects.
                assert_eq!(grid.contributing_cells(&q, Moments::ALL), cls.boundary);
                assert_eq!(v.len(), cls.boundary.len());
                // Boundary + covered contributions must reassemble the
                // exact local answer.
                let boundary_total: f64 = v.iter().map(|a| a.count).sum();
                let covered_total: f64 = cls
                    .covered
                    .iter()
                    .map(|&id| oracle(&s, &Range::Rect(grid.spec().cell_rect_of(id))).count)
                    .sum();
                let exact = oracle(&s, &q).count;
                assert!(
                    (boundary_total + covered_total - exact).abs() <= 1e-9 + exact * 1e-12,
                    "{boundary_total} + {covered_total} != {exact}"
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    fn pruned_total(s: &Silo) -> u64 {
        let name = format!("fedra_silo_cells_pruned_total{{silo=\"{}\"}}", s.id());
        s.metrics()
            .snapshot()
            .counters
            .get(&name)
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn a_range_over_an_empty_region_is_answered_with_no_cell() {
        // All data in the left half; a query over the right half meets
        // only boundary cells the silo holds nothing in. The reply is
        // empty, the counter shows every boundary cell left out, and the
        // walk the silo skipped would have found nothing in any of them.
        let objs: Vec<SpatialObject> = (0..500)
            .map(|i| SpatialObject::at((i % 40) as f64, (i / 40) as f64 * 3.0, 1.0))
            .collect();
        let s = silo(20, objs, 0);
        s.handle(Request::BuildGrid { return_cells: true });
        let q = Range::circle(Point::new(80.0, 50.0), 15.0);
        let spec = GridSpec::new(bounds(), 10.0);
        let boundary = spec.classify(&q).boundary;
        assert!(!boundary.is_empty());
        let resp = s.handle(Request::CellContributions {
            range: q,
            mode: LocalMode::Exact,
        });
        assert_eq!(resp, Response::AggVec(vec![]));
        assert_eq!(pruned_total(&s), boundary.len() as u64);
        for id in boundary {
            let direct = ix(&s)
                .lsr
                .base()
                .aggregate_clipped(&q, &spec.cell_rect_of(id));
            assert!(direct.is_zero(), "cell {id}");
        }
    }

    #[test]
    fn max_edge_object_is_never_falsely_pruned() {
        // An object at exactly (10, 10) bins into grid cell (1, 1), yet it
        // sits on the *closed* rectangles of cells (0, 0), (1, 0) and
        // (0, 1) too: all four are boundary cells of the rect below, and
        // all four clips hold it. The reply carries only (1, 1), the one
        // cell whose own mass a ratio divides by; the other three hold
        // nothing, so NonIID-est takes the g₀ area fallback there and
        // never read their entries. Its answer is the same either way.
        let s = silo(21, vec![SpatialObject::at(10.0, 10.0, 5.0)], 0);
        s.handle(Request::BuildGrid { return_cells: true });
        let grid = ix(&s).grid.get().cloned().expect("grid built");
        let spec = *grid.spec();
        let q = Range::rect(Point::new(2.0, 2.0), Point::new(10.0, 10.0));
        let boundary = spec.classify(&q).boundary;
        let ids = |cells: &[(u32, u32)]| -> Vec<CellId> {
            cells.iter().map(|&(x, y)| spec.cell_id(x, y)).collect()
        };
        assert_eq!(boundary, ids(&[(0, 0), (1, 0), (0, 1), (1, 1)]));
        let kept = ids(&[(1, 1)]);
        assert_eq!(grid.contributing_cells(&q, Moments::ALL), kept);
        let Response::AggVec(reply) = s.handle(Request::CellContributions {
            range: q,
            mode: LocalMode::Exact,
        }) else {
            panic!("unexpected response");
        };
        let edge_object = Aggregate {
            count: 1.0,
            sum: 5.0,
            sum_sqr: 25.0,
        };
        assert_eq!(reply, vec![edge_object]);
        // The old protocol's reply: every boundary cell's closed clip.
        let full: Vec<Aggregate> = boundary
            .iter()
            .map(|&id| {
                ix(&s)
                    .lsr
                    .base()
                    .aggregate_clipped(&q, &spec.cell_rect_of(id))
            })
            .collect();
        assert_eq!(full, vec![edge_object; 4]);
        // NonIID-est's COUNT term per boundary cell with one silo
        // (g₀ = g_k): the ratio where it reads the entry, else the area
        // fallback g₀ · frac, which is 0 in an empty cell.
        let term = |id: CellId, res: &Aggregate| {
            let g = grid.cell(id).count;
            if fedra_index::ratio_reads(g) {
                g * (res.count / g)
            } else {
                0.0
            }
        };
        let before: f64 = boundary.iter().zip(&full).map(|(&id, r)| term(id, r)).sum();
        let mut entries = reply.iter();
        let after: f64 = boundary
            .iter()
            .map(|&id| {
                if grid.contributes(id, Moments::ALL) {
                    term(id, entries.next().expect("one entry per kept cell"))
                } else {
                    term(id, &Aggregate::ZERO)
                }
            })
            .sum();
        assert_eq!(before.to_bits(), after.to_bits());
        assert_eq!(after, 1.0, "the edge object is counted once");
    }

    #[test]
    fn one_request_answers_the_same_bits_lone_batched_and_at_every_pool_size() {
        // Left half populated, right half empty (pruned cells), and a row
        // of objects exactly on cell max edges and corners.
        let mut objs: Vec<SpatialObject> = objects(4000)
            .into_iter()
            .filter(|o| o.location.x < 50.0)
            .collect();
        objs.extend((0..40).map(|i| {
            SpatialObject::at(
                ((i % 5) + 1) as f64 * 10.0,
                (i / 5) as f64 * 10.0 + if i % 2 == 0 { 0.0 } else { 3.3 },
                1.5 + i as f64 * 0.01,
            )
        }));
        let q = Range::circle(Point::new(48.0, 52.0), 27.0);
        let spec = GridSpec::new(bounds(), 10.0);
        let cls = spec.classify(&q);
        let modes = [
            LocalMode::Exact,
            LocalMode::lsr(lemma1_level(0.3, 0.05, 2000.0)),
        ];
        let bits = |v: &[Aggregate]| -> Vec<(u64, u64, u64)> {
            v.iter()
                .map(|a| (a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits()))
                .collect()
        };
        for mode in modes {
            let ask = || Request::CellContributions { range: q, mode };
            let mut answers = Vec::new();
            for threads in [1, 4] {
                let s = silo(23, objs.clone(), threads);
                s.handle(Request::BuildGrid {
                    return_cells: false,
                });
                let Response::AggVec(lone) = s.handle(ask()) else {
                    panic!("unexpected response");
                };
                let cells = contributing(&s, &q, Moments::ALL);
                assert_eq!(lone.len(), cells.len());
                let pruned = pruned_total(&s);
                assert!(pruned > 0, "the empty right half must be left out");
                assert_eq!(pruned as usize, cls.boundary.len() - cells.len());
                let Response::Batch(mut items) = s.handle(Request::Batch(vec![
                    Request::Ping,
                    Request::Aggregate { range: q, mode },
                    ask(),
                    Request::Ping,
                ])) else {
                    panic!("unexpected response");
                };
                let Response::AggVec(batched) = items.swap_remove(2) else {
                    panic!("unexpected batch item");
                };
                assert_eq!(bits(&lone), bits(&batched), "{mode:?}, threads {threads}");
                if mode == LocalMode::Exact {
                    // The max-edge row is seen: each per-cell answer folds,
                    // in T₀'s layout order, exactly the in-range objects
                    // the grid bins into that cell, edge objects included.
                    // The edge row's measures are continuous, so the
                    // reference is T₀ as the silo packs it, along its grid.
                    let reference = RTree::bulk_load_with(
                        objs.clone(),
                        RTreeConfig::default(),
                        Some(&GridSpec::new(bounds(), 10.0)),
                        &WorkerPool::sequential(),
                    );
                    let in_cell = |id: CellId| {
                        reference
                            .objects()
                            .iter()
                            .filter(move |o| spec.cell_of(&o.location) == Some(id))
                            .filter(|o| q.contains_point(&o.location))
                    };
                    let direct: Vec<Aggregate> = cells
                        .iter()
                        .map(|&id| {
                            in_cell(id).fold(Aggregate::ZERO, |a, o| a.merge(&Aggregate::of(o)))
                        })
                        .collect();
                    assert_eq!(bits(&lone), bits(&direct), "threads {threads}");
                    let covered: usize = cls.covered.iter().map(|&id| in_cell(id).count()).sum();
                    let sum: f64 = lone.iter().map(|a| a.count).sum();
                    assert_eq!(
                        sum + covered as f64,
                        reference.aggregate(&q).count,
                        "every object in range counts in exactly one cell"
                    );
                    let on_edges = objs[objs.len() - 40..]
                        .iter()
                        .filter(|o| q.contains_point(&o.location))
                        .count();
                    assert!(on_edges > 0, "the edge row reaches the range");
                }
                answers.push(bits(&lone));
            }
            assert_eq!(answers[0], answers[1], "{mode:?}: threads 1 vs 4");
        }
    }

    #[test]
    fn histogram_estimate_is_reasonable() {
        let objs = objects(20_000);
        let s = silo(4, objs.clone(), 0);
        let q = Range::circle(Point::new(50.0, 50.0), 25.0);
        let exact: f64 = objs
            .iter()
            .filter(|o| q.contains_point(&o.location))
            .count() as f64;
        match s.handle(Request::HistogramEstimate { range: q }) {
            Response::Agg(a) => {
                let rel = (a.count - exact).abs() / exact;
                assert!(rel < 0.2, "histogram rel error {rel}");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn batch_serves_items_in_order() {
        let s = silo(8, objects(500), 0);
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let expected = oracle(&s, &q);
        let resp = s.handle(Request::Batch(vec![
            Request::Ping,
            Request::Aggregate {
                range: q,
                mode: LocalMode::Exact,
            },
            Request::Setup(spec(8)),
        ]));
        match resp {
            Response::Batch(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0], Response::Pong);
                assert_eq!(items[1], Response::Agg(expected));
                assert!(matches!(items[2], Response::Memory(_)));
            }
            other => panic!("unexpected response {other:?}"),
        }
        // served counts logical sub-requests, not frames.
        assert_eq!(s.served_counter().load(Ordering::Relaxed), 3);
    }

    #[test]
    fn batch_items_are_served_in_frame_order() {
        // A frame is a sequence: each item sees the state its predecessors
        // left, whatever the build pool's size. The second, equal Setup
        // is a no-op that reports the grid the BuildGrid retained.
        for threads in [1, 4] {
            let s = Silo::new(13, objects(20_000), threads);
            let Response::Batch(items) = s.handle(Request::Batch(vec![
                Request::Setup(spec(13)),
                Request::BuildGrid { return_cells: true },
                Request::Setup(spec(13)),
            ])) else {
                panic!("unexpected response");
            };
            let [Response::Memory(before), Response::Grid { .. }, Response::Memory(after)] =
                &items[..]
            else {
                panic!("threads {threads}: unexpected items {items:?}");
            };
            assert_eq!(before.grid, 0, "threads {threads}");
            assert!(after.grid > 0, "threads {threads}");
        }
    }

    #[test]
    fn panicking_batch_item_degrades_to_error() {
        // A Setup with a negative cell length panics inside the handler
        // (GridSpec::new asserts before the spec is compared); inside a
        // batch that must come back as Response::Error for that item
        // only, with its batch-mates answered normally and the pool
        // intact for the follow-up frame.
        let s = silo(12, objects(200), 4);
        let resp = s.handle(Request::Batch(vec![
            Request::Ping,
            Request::Setup(SiloSpec {
                cell_len: -1.0,
                ..spec(12)
            }),
            Request::Ping,
        ]));
        match resp {
            Response::Batch(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0], Response::Pong);
                assert!(
                    matches!(&items[1], Response::Error(e) if e.contains("panicked")),
                    "got {:?}",
                    items[1]
                );
                assert_eq!(items[2], Response::Pong);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The silo is not poisoned: the next frame still answers.
        assert_eq!(s.handle(Request::Ping), Response::Pong);
    }

    #[test]
    fn a_panicking_lone_request_degrades_to_error() {
        // The same panicking Setup, sent on its own: the silo answers
        // it Response::Error, counts the panic, and keeps serving.
        let s = silo(14, objects(200), 0);
        let resp = s.handle(Request::Setup(SiloSpec {
            cell_len: -1.0,
            ..spec(14)
        }));
        assert!(
            matches!(&resp, Response::Error(e) if e.contains("request panicked")),
            "got {resp:?}"
        );
        assert_eq!(s.metrics.batch_panics.get(), 1);
        assert_eq!(s.handle(Request::Ping), Response::Pong);
    }

    #[test]
    fn nested_batch_is_rejected_per_item() {
        let s = silo(9, objects(10), 0);
        let resp = s.handle(Request::Batch(vec![
            Request::Ping,
            Request::Batch(vec![Request::Ping]),
            Request::Ping,
        ]));
        match resp {
            Response::Batch(items) => {
                assert_eq!(items[0], Response::Pong);
                assert!(matches!(&items[1], Response::Error(e) if e.contains("nested batch")));
                assert_eq!(items[2], Response::Pong);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn failed_silo_answers_batches_item_by_item() {
        let s = silo(10, objects(10), 0);
        s.failure_flag().store(true, Ordering::Release);
        match s.handle(Request::Batch(vec![Request::Ping, Request::Ping])) {
            Response::Batch(items) => {
                assert_eq!(items.len(), 2);
                for item in items {
                    assert!(matches!(item, Response::Error(_)));
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn empty_batch_yields_empty_batch() {
        let s = silo(11, objects(10), 0);
        assert_eq!(s.handle(Request::Batch(vec![])), Response::Batch(vec![]));
        assert_eq!(s.served_counter().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failure_flag_rejects_requests() {
        let s = silo(5, objects(10), 0);
        s.failure_flag().store(true, Ordering::Release);
        assert!(matches!(s.handle(Request::Ping), Response::Error(_)));
        s.failure_flag().store(false, Ordering::Release);
        assert_eq!(s.handle(Request::Ping), Response::Pong);
    }

    #[test]
    fn memory_report_is_consistent() {
        let s = silo(6, objects(5000), 0);
        let before = s.memory_report();
        assert!(before.rtree > 0);
        assert!(before.lsr_extra > 0);
        assert!(before.histogram > 0);
        assert_eq!(before.grid, 0); // not built yet
        s.handle(Request::BuildGrid { return_cells: true });
        let after = s.memory_report();
        assert!(after.grid > 0);
        assert!(after.total() > before.total());
    }

    #[test]
    fn an_integer_measure_grid_has_the_bits_of_one_built_over_the_input() {
        // `BuildGrid` bins T_0's objects in leaf order, not input order.
        // Integer measures keep every cell sum exact, so the order cannot
        // show: the cells equal a grid built straight from the partition.
        let objs = objects(6000);
        let bits = |g: &GridIndex| -> Vec<[u64; 3]> {
            g.cells()
                .iter()
                .map(|a| [a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits()])
                .collect()
        };
        for threads in [1, 4] {
            let s = silo(0, objs.clone(), threads);
            assert_ne!(
                ix(&s).lsr.base().objects(),
                objs,
                "leaf order is not input order"
            );
            let Response::Grid(grid) = s.handle(Request::BuildGrid { return_cells: true }) else {
                panic!("BuildGrid answers a grid");
            };
            let direct = GridIndex::build(*grid.spec(), &objs);
            assert_eq!(bits(&grid), bits(&direct), "{threads} build threads");
        }
    }

    #[test]
    fn grid_snapshot_round_trips_through_disk() {
        let objs = objects(800);
        let dir = std::env::temp_dir().join("fedra-silo-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.grid");

        let s = silo(30, objs.clone(), 0);
        // Nothing to save before BuildGrid.
        assert!(!s.save_grid_snapshot(&path).unwrap());
        let built = s.handle(Request::BuildGrid { return_cells: true });
        assert!(s.save_grid_snapshot(&path).unwrap());

        // A fresh silo over the same partition sets itself up from the
        // file: the same spec, the same forest, the identical grid.
        let r = Silo::new(30, objs, 0);
        assert!(r.load_grid_snapshot(&path).unwrap());
        assert_eq!(ix(&r).spec, spec(30));
        assert_eq!(r.memory_report(), s.memory_report());
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let ask = || Request::CellContributions {
            range: q,
            mode: LocalMode::Exact,
        };
        assert_eq!(r.handle(ask()), s.handle(ask()));
        let reused = r.handle(Request::BuildGrid { return_cells: true });
        assert_eq!(reused, built, "restored grid must answer bit-identically");
        let counters = r.metrics().snapshot().counters;
        assert_eq!(
            counters.get("fedra_snapshot_loaded_total{silo=\"30\"}"),
            Some(&1)
        );
        let counters = s.metrics().snapshot().counters;
        assert_eq!(
            counters.get("fedra_snapshot_saved_total{silo=\"30\"}"),
            Some(&1)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_snapshot_is_ignored_corrupt_snapshot_is_an_error() {
        let dir = std::env::temp_dir().join("fedra-silo-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.grid");

        let s = silo(31, objects(100), 0);
        s.handle(Request::BuildGrid {
            return_cells: false,
        });
        assert!(s.save_grid_snapshot(&path).unwrap());

        // Same file, different partition size: stale, silently ignored.
        let other = Silo::new(31, objects(101), 0);
        assert!(!other.load_grid_snapshot(&path).unwrap());
        assert!(other.indexes.get().is_none());

        // Missing file: also a clean false.
        assert!(!other.load_grid_snapshot(dir.join("missing.grid")).unwrap());

        // Flip one body byte: the checksum catches it as an error.
        let mut raw = std::fs::read(&path).unwrap();
        raw[10] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        let fresh = Silo::new(31, objects(100), 0);
        assert!(fresh.load_grid_snapshot(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_masked_request_is_its_inner_answer_masked_and_counts_once() {
        use fedra_index::AggFunc;
        let s = silo(34, objects(500), 0);
        s.handle(Request::BuildGrid {
            return_cells: false,
        });
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let leaves = [
            Request::Aggregate {
                range: q,
                mode: LocalMode::Exact,
            },
            Request::CellContributions {
                range: q,
                mode: LocalMode::Exact,
            },
            Request::HistogramEstimate { range: q },
        ];
        for leaf in &leaves {
            let full = s.handle(leaf.clone());
            for f in AggFunc::ALL {
                let moments = f.moments();
                // Every measure is ≥ 1, so a cell holding an object passes
                // every function's ratio test: the masked cell reply keeps
                // the unmasked one's cells.
                assert_eq!(
                    contributing(&s, &q, moments),
                    contributing(&s, &q, Moments::ALL)
                );
                let expected = match &full {
                    Response::Agg(a) => Response::Agg(a.masked(moments)),
                    Response::AggVec(v) => {
                        Response::AggVec(v.iter().map(|a| a.masked(moments)).collect())
                    }
                    other => panic!("unexpected {other:?}"),
                };
                let masked = s.handle(Request::Masked {
                    moments,
                    request: Box::new(leaf.clone()),
                });
                assert_eq!(masked, expected, "{f} over {leaf:?}");
            }
        }
        // BuildGrid, then per leaf one unmasked and five masked requests.
        assert_eq!(s.served_counter().load(Ordering::Relaxed), 1 + 3 * 6);
        let counters = s.metrics().snapshot().counters;
        for kind in ["aggregate", "cell_contributions", "histogram_estimate"] {
            let name = format!("fedra_silo_requests_total{{silo=\"34\",kind=\"{kind}\"}}");
            assert_eq!(counters.get(&name), Some(&6), "{kind}");
        }
        // Built in-process around anything else, it is refused per item.
        let ping = s.handle(Request::Masked {
            moments: Moments::ALL,
            request: Box::new(Request::Ping),
        });
        assert!(matches!(ping, Response::Error(e) if e.contains("masked")));
    }

    #[test]
    fn a_snapshot_in_the_old_triple_layout_is_refused_not_misread() {
        let dir = std::env::temp_dir().join("fedra-silo-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("layout1.grid");
        let s = silo(33, objects(300), 0);
        s.handle(Request::BuildGrid {
            return_cells: false,
        });
        let snapshot = s.grid_snapshot().expect("grid built");
        let grid = &snapshot.grid;
        // Layout 1: no magic, every cell a fixed 24-byte triple — with a
        // valid checksum, as the old code wrote it.
        let mut layout1 = BytesMut::new();
        snapshot.spec.bounds.encode(&mut layout1);
        snapshot.spec.cell_len.encode(&mut layout1);
        snapshot.num_objects.encode(&mut layout1);
        (grid.cells().len() as u32).encode(&mut layout1);
        for cell in grid.cells() {
            for v in [cell.count, cell.sum, cell.sum_sqr] {
                v.encode(&mut layout1);
            }
        }
        grid.outside_count().encode(&mut layout1);
        // Layout 3: the whole spec, then the bare cells.
        let mut layout3 = BytesMut::new();
        layout3.put_slice(b"FRAGRID3");
        snapshot.spec.encode(&mut layout3);
        snapshot.num_objects.encode(&mut layout3);
        grid.cells().to_vec().encode(&mut layout3);
        grid.outside_count().encode(&mut layout3);

        let fresh = Silo::new(33, objects(300), 0);
        for old in [layout1, layout3] {
            write_checked(&path, &old).unwrap();
            let err = fresh.load_grid_snapshot(&path).expect_err("old layout");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(fresh.indexes.get().is_none());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_layout_4_snapshot_is_a_typed_error_not_misread() {
        let s = silo(36, objects(300), 0);
        s.handle(Request::BuildGrid {
            return_cells: false,
        });
        let snapshot = s.grid_snapshot().expect("grid built");
        let grid = &snapshot.grid;
        // Layout 4: its magic, the spec, the object count, then the grid
        // with a u32 cell count and no cell-vector layout byte.
        let mut layout4 = BytesMut::new();
        layout4.put_slice(b"FRAGRID4");
        snapshot.spec.encode(&mut layout4);
        snapshot.num_objects.encode(&mut layout4);
        grid.spec().bounds().encode(&mut layout4);
        grid.spec().cell_len().encode(&mut layout4);
        (grid.cells().len() as u32).encode(&mut layout4);
        grid.cells().iter().for_each(|a| a.encode(&mut layout4));
        grid.outside_count().encode(&mut layout4);
        assert_eq!(
            SiloGridSnapshot::from_bytes(layout4.freeze()),
            Err(WireError::BadTag {
                context: "silo grid snapshot format",
                tag: b'F'
            })
        );
    }

    #[test]
    fn a_snapshot_whose_spec_has_fanout_one_is_invalid_data_not_a_panic() {
        let dir = std::env::temp_dir().join("fedra-silo-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fanout1.grid");
        let s = silo(35, objects(300), 0);
        s.handle(Request::BuildGrid {
            return_cells: false,
        });
        let mut snapshot = s.grid_snapshot().expect("grid built");
        snapshot.spec.rtree.max_entries = 1;
        write_checked(&path, &snapshot.to_bytes()).unwrap();

        let fresh = Silo::new(35, objects(300), 0);
        let err = fresh.load_grid_snapshot(&path).expect_err("fanout 1");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("fanout"), "{err}");
        assert!(fresh.indexes.get().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_repeated_setup_is_a_no_op_and_another_spec_is_refused() {
        let s = Silo::new(32, objects(300), 0);
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let not_set_up = |r: Response| matches!(r, Response::Error(e) if e.contains("not set up"));
        for request in [
            Request::Aggregate {
                range: q,
                mode: LocalMode::Exact,
            },
            Request::HistogramEstimate { range: q },
            Request::BuildGrid { return_cells: true },
        ] {
            assert!(not_set_up(s.handle(request)));
        }
        assert_eq!(s.handle(Request::Ping), Response::Pong);
        let Response::Memory(first) = s.handle(Request::Setup(spec(32))) else {
            panic!("Setup answers the memory report");
        };
        assert_eq!(first.grid, 0);
        let built = s.handle(Request::BuildGrid { return_cells: true });
        assert_eq!(s.handle(Request::BuildGrid { return_cells: true }), built);
        // An equal spec is a no-op: the retained grid stays.
        let Response::Memory(again) = s.handle(Request::Setup(spec(32))) else {
            panic!("an equal Setup answers the report");
        };
        assert_eq!(again, s.memory_report());
        assert!(again.grid > 0);
        // Another spec — another L, or another silo's seed — is refused.
        for other in [
            SiloSpec {
                cell_len: 5.0,
                ..spec(32)
            },
            spec(33),
        ] {
            let refused = s.handle(Request::Setup(other));
            assert!(
                matches!(&refused, Response::Error(e) if e.contains("another spec")),
                "{refused:?}"
            );
        }
        assert_eq!(s.handle(Request::BuildGrid { return_cells: true }), built);
    }

    #[test]
    fn a_panic_holding_the_partition_lock_does_not_wedge_setup() {
        // A handler that panics with the partition locked poisons the
        // lock; the next setup recovers the partition and proceeds.
        let s = Silo::new(36, objects(300), 0);
        let held = catch_unwind(AssertUnwindSafe(|| {
            let _partition = s.partition.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("a handler panics mid-setup");
        }));
        assert!(held.is_err() && s.partition.is_poisoned());
        let set_up = s.handle(Request::Setup(spec(36)));
        assert!(matches!(set_up, Response::Memory(_)), "{set_up:?}");
    }

    #[test]
    fn a_setup_whose_grid_cannot_travel_is_refused_before_it_allocates() {
        // 1e-6 km over a 100 km box: 10¹⁶ cells. Allocating them would
        // abort the process; the silo refuses the spec instead.
        let s = Silo::new(35, objects(100), 0);
        for hostile in [
            SiloSpec {
                cell_len: 1e-6,
                ..spec(35)
            },
            SiloSpec {
                histogram: fedra_index::histogram::MinSkewConfig {
                    resolution: u32::MAX,
                    budget: 1,
                },
                ..spec(35)
            },
        ] {
            let refused = s.handle(Request::Setup(hostile));
            assert!(
                matches!(&refused, Response::Error(e) if e.contains("does not fit")),
                "{refused:?}"
            );
            assert!(s.indexes.get().is_none());
            assert_eq!(s.handle(Request::Ping), Response::Pong);
        }
        assert!(matches!(
            s.handle(Request::Setup(spec(35))),
            Response::Memory(_)
        ));
    }

    #[test]
    fn empty_silo_answers_zero() {
        let s = silo(7, vec![], 0);
        assert!(s.is_empty());
        let q = Range::circle(Point::new(0.0, 0.0), 10.0);
        match s.handle(Request::Aggregate {
            range: q,
            mode: LocalMode::Exact,
        }) {
            Response::Agg(a) => assert!(a.is_zero()),
            other => panic!("unexpected response {other:?}"),
        }
    }
}
