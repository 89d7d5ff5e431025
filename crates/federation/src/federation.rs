//! The federation: silo workers plus the provider's own state.
//!
//! [`FederationBuilder::build`] stands the whole system up the way the
//! paper describes:
//!
//! 1. spawn one worker thread per partition ([`crate::transport`]);
//! 2. run Alg. 1 — send `BuildGrid` to every silo over the byte-counted
//!    channel, collect the per-silo grid indices `g_1 … g_m`, merge them
//!    into `g₀`, and precompute [`PrefixGrid`]s for O(1)/O(√|g₀|)
//!    provider-side sums;
//! 3. cache each silo's index-memory report for the Figs. 3d–9d metric.
//!
//! Setup traffic and query traffic are tracked by separate counters, so
//! experiments can report per-query communication cost net of the one-off
//! index construction, exactly like the paper ("the time to construct the
//! static indices excluded").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fedra_geo::{Rect, SpatialObject};
use fedra_index::grid::{GridIndex, PrefixGrid};
use fedra_index::histogram::MinSkewConfig;
use fedra_index::pool::WorkerPool;
use fedra_index::rtree::RTreeConfig;

use crate::fault::FaultPlan;
use crate::health::{HealthConfig, HealthTracker};
use crate::protocol::{Request, Response, SiloMemoryReport};
use crate::silo::{Silo, SiloConfig, SiloId};
use crate::snapshot::ProviderSnapshot;
use crate::transport::socket::{spawn_silo_socket, ReconnectPolicy, SiloAddr, SocketTransport};
use crate::transport::{
    spawn_silo, CallPolicy, CommCounters, CommSnapshot, SiloChannel, SiloDiagnostics, Transport,
    TransportBackend, TransportError,
};
use crate::wire::Wire;

/// Errors from standing a federation up ([`FederationBuilder::try_build`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SetupError {
    /// No partitions were supplied — a federation needs at least one silo
    /// (local or remote).
    NoSilos,
    /// A [`FederationBuilder::connect_remote`] address would not parse.
    BadRemoteAddr {
        /// The address as supplied.
        addr: String,
        /// Why it was rejected.
        reason: String,
    },
    /// `FEDRA_TRANSPORT` is set to something that names no backend.
    UnknownTransport {
        /// The value as found in the environment.
        value: String,
    },
    /// A silo's index-construction thread panicked.
    SiloBuildPanicked {
        /// Which silo.
        silo: SiloId,
    },
    /// The transport failed while running Alg. 1 (spawn failure, dead
    /// worker, undecodable frame, silo refusal).
    Transport(TransportError),
    /// A silo answered setup with the wrong response shape.
    Protocol {
        /// Which silo.
        silo: SiloId,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::NoSilos => write!(f, "a federation needs at least one silo"),
            SetupError::BadRemoteAddr { addr, reason } => {
                write!(f, "remote silo address `{addr}` is invalid: {reason}")
            }
            SetupError::UnknownTransport { value } => write!(
                f,
                "FEDRA_TRANSPORT=`{value}` names no transport backend (expected memory or socket)"
            ),
            SetupError::SiloBuildPanicked { silo } => {
                write!(f, "silo {silo} index construction panicked")
            }
            SetupError::Transport(e) => write!(f, "setup transport failed: {e}"),
            SetupError::Protocol { silo, message } => {
                write!(f, "silo {silo} violated the setup protocol: {message}")
            }
        }
    }
}

impl std::error::Error for SetupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SetupError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for SetupError {
    fn from(e: TransportError) -> Self {
        SetupError::Transport(e)
    }
}

/// What the federation should do when a query cannot reach its full silo
/// complement even after the call policy's retries and hedges
/// (DESIGN.md §5i).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DegradePolicy {
    /// Fail the query (today's behavior, the default): EXACT/OPTA return
    /// `SiloFailed`, estimators fall back to the provider-only grid
    /// estimate without a coverage annotation. Bit-identical to a
    /// federation built before this policy existed.
    #[default]
    FailFast,
    /// Answer from whatever is reachable, carrying an honest coverage
    /// record with an inflated error bound. Queries whose reachable
    /// subset falls below either floor still fail.
    Partial {
        /// Minimum number of responding silos required to emit a
        /// degraded answer (0 = a provider-only grid answer is allowed).
        min_silos: usize,
        /// Minimum fraction of the in-range mass (per-silo grids) that
        /// must be backed by live answers, in `[0, 1]`.
        min_coverage: f64,
    },
}

impl DegradePolicy {
    /// Whether degraded (partial-coverage) answers are allowed at all.
    pub fn allows_partial(&self) -> bool {
        matches!(self, DegradePolicy::Partial { .. })
    }

    /// Whether a degraded answer backed by `responding` silos covering
    /// `mass_fraction` of the in-range mass meets this policy's floors.
    /// `FailFast` accepts nothing.
    pub fn accepts(&self, responding: usize, mass_fraction: f64) -> bool {
        match *self {
            DegradePolicy::FailFast => false,
            DegradePolicy::Partial {
                min_silos,
                min_coverage,
            } => responding >= min_silos && mass_fraction >= min_coverage,
        }
    }
}

/// Builder for a [`Federation`].
#[derive(Debug, Clone)]
pub struct FederationBuilder {
    bounds: Rect,
    grid_cell_len: f64,
    rtree: RTreeConfig,
    histogram: MinSkewConfig,
    lsr_seed: u64,
    silo_threads: usize,
    latency: Option<Duration>,
    message_overhead: u64,
    warm_start: Option<ProviderSnapshot>,
    fault_plan: Option<FaultPlan>,
    call_policy: CallPolicy,
    health: HealthConfig,
    degrade: DegradePolicy,
    reconnect: ReconnectPolicy,
    transport: Option<TransportBackend>,
    remotes: Vec<String>,
}

impl FederationBuilder {
    /// Starts a builder for a federation covering `bounds`.
    pub fn new(bounds: Rect) -> Self {
        Self {
            bounds,
            grid_cell_len: 1.0,
            rtree: RTreeConfig::default(),
            histogram: MinSkewConfig::default(),
            lsr_seed: 0x000F_ED0A,
            silo_threads: 0,
            latency: None,
            message_overhead: crate::transport::DEFAULT_MESSAGE_OVERHEAD,
            warm_start: None,
            fault_plan: None,
            call_policy: CallPolicy::default(),
            health: HealthConfig::default(),
            degrade: DegradePolicy::default(),
            reconnect: ReconnectPolicy::default(),
            transport: None,
            remotes: Vec::new(),
        }
    }

    /// Chooses the [`Transport`] backend local silos are stood up behind.
    /// Unset (the default), the `FEDRA_TRANSPORT` environment variable
    /// decides ([`TransportBackend::from_env`]), falling back to the
    /// deterministic in-memory backend — so existing callers and the
    /// tier-1 suite are unaffected, while the whole test matrix can be
    /// re-run over real sockets by exporting `FEDRA_TRANSPORT=socket`
    /// (a value naming no backend fails the build with
    /// [`SetupError::UnknownTransport`]).
    pub fn transport_backend(mut self, backend: TransportBackend) -> Self {
        self.transport = Some(backend);
        self
    }

    /// Adds a **remote** silo served by a `fedra-silo serve` process at
    /// `addr` (`tcp:host:port`, `unix:/path`, or bare `host:port`).
    ///
    /// Remote silos join the federation after the local partitions, in
    /// the order added, and participate in Alg. 1 setup and every query
    /// exactly like local ones — the remote process must have been
    /// started with the same bounds / LSR seed for answers to line up
    /// (see the `fedra-silo` flags). Fault injection
    /// ([`FederationBuilder::fault_plan`]) applies to local silos only;
    /// faults on a remote silo belong to its own process.
    pub fn connect_remote(mut self, addr: impl Into<String>) -> Self {
        self.remotes.push(addr.into());
        self
    }

    /// Sets the grid cell length `L` (paper default 1 km, swept in Fig. 5).
    pub fn grid_cell_len(mut self, cell_len: f64) -> Self {
        self.grid_cell_len = cell_len;
        self
    }

    /// Sets the R-tree fanout used by all silo indexes.
    pub fn rtree_config(mut self, config: RTreeConfig) -> Self {
        self.rtree = config;
        self
    }

    /// Sets the OPTA histogram parameters.
    pub fn histogram_config(mut self, config: MinSkewConfig) -> Self {
        self.histogram = config;
        self
    }

    /// Seeds the LSR-Forest level sampling (reproducible experiments).
    pub fn lsr_seed(mut self, seed: u64) -> Self {
        self.lsr_seed = seed;
        self
    }

    /// Sets the intra-silo worker-pool size ([`SiloConfig::threads`]);
    /// the provider-side grid merge and prefix builds use the same size.
    /// `0` (the default) sizes the pool automatically from the host's
    /// cores (clamped, `FEDRA_SILO_THREADS` override). Every value
    /// produces bit-identical query results — the knob trades nothing but
    /// wall-clock.
    pub fn silo_threads(mut self, threads: usize) -> Self {
        self.silo_threads = threads;
        self
    }

    /// Adds a fixed simulated network latency to every silo response.
    pub fn simulated_latency(mut self, latency: Duration) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Sets the per-message envelope overhead charged by the
    /// communication-cost metric (default
    /// [`crate::transport::DEFAULT_MESSAGE_OVERHEAD`]; 0 = pure payload).
    pub fn message_overhead(mut self, bytes: u64) -> Self {
        self.message_overhead = bytes;
        self
    }

    /// Installs a deterministic [`FaultPlan`]: each listed silo's worker
    /// injects latency, drops, transient refusals, flap windows or a crash
    /// according to its spec, reproducibly from the plan seed. Faults stay
    /// disarmed during Alg. 1 setup and arm automatically once the
    /// federation is up ([`Federation::set_faults_armed`] toggles later).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the retry/deadline/hedging policy query drivers should apply
    /// to scatter-gather calls (exposed via [`Federation::call_policy`];
    /// the transport itself stays policy-free).
    pub fn call_policy(mut self, policy: CallPolicy) -> Self {
        self.call_policy = policy;
        self
    }

    /// Configures the per-silo health tracker / circuit breaker
    /// ([`Federation::health`]). The default config is passive — it
    /// records outcomes but never blocks a silo.
    pub fn health_config(mut self, config: HealthConfig) -> Self {
        self.health = config;
        self
    }

    /// Sets the degraded-answer policy ([`Federation::degrade_policy`]).
    /// The default, [`DegradePolicy::FailFast`], keeps today's behavior
    /// bit-for-bit; [`DegradePolicy::Partial`] lets query drivers answer
    /// from the reachable subset with an honest coverage record.
    pub fn degrade_policy(mut self, policy: DegradePolicy) -> Self {
        self.degrade = policy;
        self
    }

    /// Sets the socket transport's reconnect policy (attempts, capped
    /// exponential backoff, seeded jitter). Only socket-backed and remote
    /// silos consult it; the default reproduces the historical 3-attempt
    /// cap. Supervised deployments typically pair
    /// [`crate::transport::socket::ReconnectAttempts::Unbounded`] with an
    /// enabled circuit breaker.
    pub fn reconnect_policy(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
        self
    }

    /// Supplies a previous run's [`ProviderSnapshot`]: silos whose grid
    /// checksum still matches skip the cell-vector transfer of Alg. 1
    /// (the provider reuses the cached cells); mismatching silos fall
    /// back to a full transfer transparently.
    pub fn warm_start(mut self, snapshot: ProviderSnapshot) -> Self {
        self.warm_start = Some(snapshot);
        self
    }

    /// Builds silos from the partitions and runs Alg. 1.
    ///
    /// Convenience wrapper over [`FederationBuilder::try_build`] for
    /// experiments and examples that have no setup-failure story.
    ///
    /// # Panics
    /// Panics if setup fails for any reason — including an empty
    /// `partitions` (a federation needs at least one silo). Fallible
    /// callers should use [`FederationBuilder::try_build`].
    pub fn build(self, partitions: Vec<Vec<SpatialObject>>) -> Federation {
        // Documented-panic convenience API; the recoverable path is try_build.
        self.try_build(partitions)
            .unwrap_or_else(|e| panic!("federation setup failed: {e}")) // fedra-lint: allow(panic-discipline)
    }

    /// Builds silos from the partitions and runs Alg. 1, surfacing setup
    /// failures as [`SetupError`] instead of panicking.
    pub fn try_build(self, partitions: Vec<Vec<SpatialObject>>) -> Result<Federation, SetupError> {
        if partitions.is_empty() && self.remotes.is_empty() {
            return Err(SetupError::NoSilos);
        }
        // Fail fast on malformed remote addresses, before any index work.
        let remote_addrs: Vec<SiloAddr> = self
            .remotes
            .iter()
            .map(|addr| {
                SiloAddr::parse(addr).map_err(|reason| SetupError::BadRemoteAddr {
                    addr: addr.clone(),
                    reason,
                })
            })
            .collect::<Result<_, _>>()?;
        let backend = match self.transport {
            Some(backend) => backend,
            None => TransportBackend::from_env()
                .map_err(|value| SetupError::UnknownTransport { value })?,
        };
        let setup_stats = Arc::new(CommCounters::with_overhead(self.message_overhead));
        let query_stats = Arc::new(CommCounters::with_overhead(self.message_overhead));

        // Silo construction (index builds) happens in parallel: for the
        // multi-million-object sweeps this dominates setup wall-clock.
        let silo_config = |_: SiloId| SiloConfig {
            rtree: self.rtree,
            histogram: self.histogram,
            bounds: self.bounds,
            lsr_seed: self.lsr_seed,
            threads: self.silo_threads,
        };
        let silos: Vec<Silo> = std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .into_iter()
                .enumerate()
                .map(|(id, objects)| {
                    let config = silo_config(id);
                    scope.spawn(move || Silo::new(id, objects, config))
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(id, h)| {
                    h.join()
                        .map_err(|_| SetupError::SiloBuildPanicked { silo: id })
                })
                .collect::<Result<Vec<_>, _>>()
        })?;

        // Faults stay disarmed while Alg. 1 runs — the injector consumes
        // neither its schedule counter nor its RNG until armed, so setup
        // traffic never perturbs the chaos schedule.
        let fault_armed = Arc::new(AtomicBool::new(false));
        let mut channels = Vec::with_capacity(silos.len() + remote_addrs.len());
        let mut workers = Vec::with_capacity(silos.len());
        for silo in silos {
            let injector = self
                .fault_plan
                .as_ref()
                .and_then(|plan| plan.injector_for(silo.id(), Arc::clone(&fault_armed)));
            let (channel, handle) = match backend {
                TransportBackend::InMemory => {
                    spawn_silo(silo, Arc::clone(&setup_stats), self.latency, injector)?
                }
                TransportBackend::Socket => spawn_silo_socket(
                    silo,
                    Arc::clone(&setup_stats),
                    self.latency,
                    injector,
                    self.reconnect,
                )?,
            };
            channels.push(channel);
            workers.push(handle);
        }
        // Remote silos join after the local partitions, ids continuing.
        for addr in remote_addrs {
            let id = channels.len();
            let transport =
                SocketTransport::connect_with(id, addr, SiloDiagnostics::remote(), self.reconnect)?;
            channels.push(SiloChannel::over(
                Arc::new(transport) as Arc<dyn Transport>,
                Arc::clone(&setup_stats),
            ));
        }

        // A warm-start snapshot is usable only when its geometry and silo
        // count match this build.
        let snapshot = self.warm_start.filter(|s| {
            s.bounds == self.bounds
                && s.cell_len == self.grid_cell_len
                && s.num_silos() == channels.len()
        });

        // Provider-side worker pool: warm-grid materialization, the g_0
        // merge, and the prefix builds all fan out on it. Sized like the
        // silos' pools so one knob governs the whole deployment.
        let pool = WorkerPool::new(self.silo_threads);
        // Rebuild all cached grids up front (in parallel) instead of
        // lazily inside the reply loop; each GridAck then *takes* its
        // entry, so an unsolicited ack still surfaces as a protocol error.
        let mut warm_grids: Vec<Option<GridIndex>> = match snapshot.as_ref() {
            Some(s) => s.materialize_with(&pool).into_iter().map(Some).collect(),
            None => Vec::new(),
        };

        // Alg. 1: collect g_1 … g_m, merge into g_0. Each silo receives
        // ONE coalesced [MemoryReport, BuildGrid] frame, and every frame
        // is begun before any reply is awaited — setup is a single
        // batched round per silo (plus one fallback round per warm-start
        // miss) and the per-silo grid builds run concurrently on the
        // worker threads instead of serializing through the provider.
        // A silo serves a frame's items in order, so the report is taken
        // before the grid is retained: `index_mem_mb` excludes the grid
        // on every run until ROADMAP item 1 flips this order.
        let build_request = Request::BuildGrid {
            bounds: self.bounds,
            cell_len: self.grid_cell_len,
            // Warm mode asks for a checksum-only build; the cached cell
            // vectors are reused when the silo's data still matches.
            return_cells: snapshot.is_none(),
        };
        let pending = channels
            .iter()
            .map(|channel| {
                channel.begin_frame(&[(0, &Request::MemoryReport), (1, &build_request)], None)
            })
            .collect::<Result<Vec<_>, TransportError>>()?;

        let mut silo_grids: Vec<Option<GridIndex>> = Vec::with_capacity(channels.len());
        let mut memory_reports = Vec::with_capacity(channels.len());
        let mut warm_hits = 0usize;
        for (k, pending) in pending.into_iter().enumerate() {
            let mut items = pending.wait()?;
            let (build, memory) = match (items.pop(), items.pop(), items.pop()) {
                (Some((_, build)), Some((_, memory)), None) => (build, memory),
                _ => {
                    return Err(SetupError::Protocol {
                        silo: k,
                        message: "setup batch must answer exactly two items".into(),
                    })
                }
            };
            let grid =
                match build? {
                    Response::GridAck { total, outside } => {
                        let cached =
                            warm_grids
                                .get_mut(k)
                                .and_then(Option::take)
                                .ok_or_else(|| SetupError::Protocol {
                                    silo: k,
                                    message: "unsolicited GridAck (no warm-start snapshot)".into(),
                                })?;
                        if cached.total() == total && cached.outside_count() == outside {
                            warm_hits += 1;
                            Some(cached)
                        } else {
                            None // stale snapshot entry: full transfer below
                        }
                    }
                    grid_response => Some(grid_response.into_grid_index().ok_or_else(|| {
                        SetupError::Protocol {
                            silo: k,
                            message: "BuildGrid did not return a grid payload".into(),
                        }
                    })?),
                };
            silo_grids.push(grid);
            match memory {
                Ok(Response::Memory(m)) => memory_reports.push(m),
                Ok(other) => {
                    return Err(SetupError::Protocol {
                        silo: k,
                        message: format!("unexpected memory report response: {other:?}"),
                    })
                }
                Err(e) => return Err(SetupError::Transport(e)),
            }
        }

        // Warm-start misses fall back to a full cell transfer — also
        // pipelined, one extra round per stale silo only.
        let misses: Vec<SiloId> = silo_grids
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_none())
            .map(|(k, _)| k)
            .collect();
        if !misses.is_empty() {
            let full = Request::BuildGrid {
                bounds: self.bounds,
                cell_len: self.grid_cell_len,
                return_cells: true,
            }
            .to_bytes();
            let pending = misses
                .iter()
                .map(|&k| channels[k].begin_encoded(full.clone()))
                .collect::<Result<Vec<_>, TransportError>>()?;
            for (&k, pending) in misses.iter().zip(pending) {
                let grid =
                    pending
                        .wait_one()?
                        .into_grid_index()
                        .ok_or_else(|| SetupError::Protocol {
                            silo: k,
                            message: "BuildGrid did not return a grid payload".into(),
                        })?;
                silo_grids[k] = Some(grid);
            }
        }
        let silo_grids: Vec<GridIndex> = silo_grids
            .into_iter()
            .enumerate()
            .map(|(k, g)| {
                g.ok_or(SetupError::Protocol {
                    silo: k,
                    message: "silo grid never resolved during setup".into(),
                })
            })
            .collect::<Result<_, _>>()?;
        let grid_refs: Vec<&GridIndex> = silo_grids.iter().collect();
        let merged = GridIndex::merge_with(&grid_refs, &pool).ok_or(SetupError::NoSilos)?;
        let merged_prefix = PrefixGrid::build(&merged);
        let silo_prefixes = pool.map(&silo_grids, |_, g| PrefixGrid::build(g));

        // From here on, traffic counts as query traffic.
        let setup_snapshot = setup_stats.snapshot();
        for channel in &mut channels {
            *channel = channel.with_comm(Arc::clone(&query_stats));
        }
        // Setup is done — arm the fault injectors for query traffic.
        fault_armed.store(true, Ordering::Release);

        let health = HealthTracker::new(channels.len(), self.health);
        Ok(Federation {
            bounds: self.bounds,
            channels,
            workers,
            silo_grids,
            silo_prefixes,
            merged,
            merged_prefix,
            memory_reports,
            setup_snapshot,
            query_stats,
            warm_hits,
            call_policy: self.call_policy,
            health,
            degrade: self.degrade,
            fault_armed,
        })
    }
}

/// A running federation: worker threads + the provider's indices.
///
/// ```
/// use fedra_federation::{FederationBuilder, LocalMode, Request, Response};
/// use fedra_geo::{Point, Range, Rect, SpatialObject};
///
/// // Two silos, five objects each.
/// let partitions: Vec<Vec<SpatialObject>> = (0..2)
///     .map(|s| (0..5).map(|i| SpatialObject::at(i as f64, s as f64, 1.0)).collect())
///     .collect();
/// let federation = FederationBuilder::new(
///     Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
/// )
/// .grid_cell_len(2.0)
/// .build(partitions);
///
/// // Alg. 1 ran at build time: the provider holds g₀.
/// assert_eq!(federation.total_objects(), 10.0);
///
/// // Every interaction goes over the byte-counted channel.
/// let answer = federation.call(0, &Request::Aggregate {
///     range: Range::circle(Point::new(2.0, 0.0), 1.5),
///     mode: LocalMode::Exact,
/// }).unwrap();
/// assert!(matches!(answer, Response::Agg(a) if a.count == 3.0));
/// assert_eq!(federation.query_comm().rounds, 1);
/// ```
pub struct Federation {
    bounds: Rect,
    channels: Vec<SiloChannel>,
    workers: Vec<JoinHandle<()>>,
    silo_grids: Vec<GridIndex>,
    silo_prefixes: Vec<PrefixGrid>,
    merged: GridIndex,
    merged_prefix: PrefixGrid,
    memory_reports: Vec<SiloMemoryReport>,
    setup_snapshot: CommSnapshot,
    query_stats: Arc<CommCounters>,
    warm_hits: usize,
    call_policy: CallPolicy,
    health: HealthTracker,
    degrade: DegradePolicy,
    fault_armed: Arc<AtomicBool>,
}

impl Federation {
    /// Number of silos `m`.
    pub fn num_silos(&self) -> usize {
        self.channels.len()
    }

    /// Region the federation covers.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The provider's channel to silo `k`.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn channel(&self, silo: SiloId) -> &SiloChannel {
        &self.channels[silo]
    }

    /// Calls silo `k` (convenience for `channel(k).call(..)`).
    pub fn call(
        &self,
        silo: SiloId,
        request: &Request,
    ) -> Result<crate::protocol::Response, TransportError> {
        self.channels[silo].call(request)
    }

    /// Sends one request to *every* silo concurrently; results come back
    /// in silo order.
    ///
    /// The frame is encoded once (the clone per silo is O(1) — `Bytes` is
    /// reference-counted) and begun on all channels before any reply is
    /// awaited, so the per-silo worker threads execute in parallel. This
    /// is the EXACT/OPTA fan-out primitive: `m` silos, `m` rounds, zero
    /// provider-side threads spawned.
    pub fn broadcast(&self, request: &Request) -> Vec<Result<Response, TransportError>> {
        let frame = request.to_bytes();
        let pending: Vec<_> = self
            .channels
            .iter()
            .map(|channel| channel.begin_encoded(frame.clone()))
            .collect();
        pending
            .into_iter()
            .map(|p| p.and_then(|frame| frame.wait_one()))
            .collect()
    }

    /// Per-silo grid index `g_k` held by the provider.
    pub fn silo_grid(&self, silo: SiloId) -> &GridIndex {
        &self.silo_grids[silo]
    }

    /// Per-silo cumulative array over `g_k`.
    pub fn silo_prefix(&self, silo: SiloId) -> &PrefixGrid {
        &self.silo_prefixes[silo]
    }

    /// The merged federation grid `g₀`.
    pub fn merged_grid(&self) -> &GridIndex {
        &self.merged
    }

    /// The cumulative array over `g₀`.
    pub fn merged_prefix(&self) -> &PrefixGrid {
        &self.merged_prefix
    }

    /// Total objects across the federation (from `g₀`; objects outside the
    /// grid bounds are excluded).
    pub fn total_objects(&self) -> f64 {
        self.merged.total().count
    }

    /// Cached per-silo index memory reports.
    pub fn silo_memory_reports(&self) -> &[SiloMemoryReport] {
        &self.memory_reports
    }

    /// Provider-side index memory (per-silo grids + merged + prefixes).
    pub fn provider_memory_bytes(&self) -> u64 {
        use fedra_index::IndexMemory;
        let grids: usize = self.silo_grids.iter().map(|g| g.memory_bytes()).sum();
        let prefixes: usize = self.silo_prefixes.iter().map(|p| p.memory_bytes()).sum();
        (grids + prefixes + self.merged.memory_bytes() + self.merged_prefix.memory_bytes()) as u64
    }

    /// Traffic consumed by Alg. 1 (one-off setup).
    pub fn setup_comm(&self) -> CommSnapshot {
        self.setup_snapshot
    }

    /// Number of silos whose grids were reused from a warm-start snapshot.
    pub fn warm_start_hits(&self) -> usize {
        self.warm_hits
    }

    /// Captures the provider's grid state for a future warm start
    /// ([`FederationBuilder::warm_start`]).
    pub fn snapshot(&self) -> ProviderSnapshot {
        ProviderSnapshot {
            bounds: self.bounds,
            cell_len: self.merged.spec().cell_len(),
            grids: self
                .silo_grids
                .iter()
                .map(|g| (g.cells().to_vec(), g.outside_count()))
                .collect(),
        }
    }

    /// Cumulative query-time traffic.
    pub fn query_comm(&self) -> CommSnapshot {
        self.query_stats.snapshot()
    }

    /// The per-message envelope charged on top of each payload, each way
    /// ([`FederationBuilder::message_overhead`]).
    pub fn message_overhead(&self) -> u64 {
        self.query_stats.overhead()
    }

    /// Zeroes the query-time traffic counters (per-experiment accounting).
    pub fn reset_query_comm(&self) {
        self.query_stats.reset();
    }

    /// Injects or clears a silo failure.
    pub fn set_silo_failed(&self, silo: SiloId, failed: bool) {
        self.channels[silo].set_failed(failed);
    }

    /// Ids of silos currently marked failed.
    pub fn failed_silos(&self) -> Vec<SiloId> {
        self.channels
            .iter()
            .filter(|c| c.is_failed())
            .map(|c| c.id())
            .collect()
    }

    /// Requests served per silo (load-balance diagnostics; Alg. 4 predicts
    /// ≈ |Q|/m each).
    pub fn served_per_silo(&self) -> Vec<u64> {
        self.channels.iter().map(|c| c.served()).collect()
    }

    /// The retry/deadline/hedging policy configured at build time
    /// ([`FederationBuilder::call_policy`]). Query drivers consult this;
    /// the transport itself never retries on its own.
    pub fn call_policy(&self) -> &CallPolicy {
        &self.call_policy
    }

    /// The per-silo health tracker / circuit breaker. Passive unless a
    /// non-default [`HealthConfig`] was supplied at build time.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The degraded-answer policy configured at build time
    /// ([`FederationBuilder::degrade_policy`]). Query drivers consult
    /// this when a query cannot reach its full silo complement.
    pub fn degrade_policy(&self) -> DegradePolicy {
        self.degrade
    }

    /// Arms or disarms the fault injectors installed by
    /// [`FederationBuilder::fault_plan`]. Disarmed requests consume
    /// neither the schedule counter nor the fault RNG, so truth
    /// computations can run fault-free before a chaos phase starts.
    pub fn set_faults_armed(&self, armed: bool) {
        self.fault_armed.store(armed, Ordering::Release);
    }

    /// Whether fault injection is currently armed.
    pub fn faults_armed(&self) -> bool {
        self.fault_armed.load(Ordering::Acquire)
    }

    /// Silo `k`'s own metrics registry (request counts by kind, batch
    /// sizes, LSR level-selection counters). Panics if `k` is out of
    /// range, like [`Federation::channel`].
    pub fn silo_metrics(&self, silo: SiloId) -> &Arc<fedra_obs::MetricsRegistry> {
        self.channels[silo].silo_metrics()
    }
}

impl Drop for Federation {
    fn drop(&mut self) {
        // Dropping the channels closes the workers' request streams.
        self.channels.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("silos", &self.channels.len())
            .field("bounds", &self.bounds)
            .field("grid_cells", &self.merged.spec().num_cells())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{LocalMode, Response};
    use fedra_geo::{Point, Range};

    fn bounds() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    fn partitions(m: usize, per_silo: usize) -> Vec<Vec<SpatialObject>> {
        let mut state = 99u64;
        (0..m)
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
                        SpatialObject::at(x, y, (i % 3) as f64 + 1.0)
                    })
                    .collect()
            })
            .collect()
    }

    fn small_federation(m: usize, per_silo: usize) -> Federation {
        FederationBuilder::new(bounds())
            .grid_cell_len(10.0)
            .histogram_config(MinSkewConfig {
                resolution: 16,
                budget: 16,
            })
            .build(partitions(m, per_silo))
    }

    #[test]
    fn build_merges_grids() {
        let fed = small_federation(3, 500);
        assert_eq!(fed.num_silos(), 3);
        assert_eq!(fed.total_objects(), 1500.0);
        // g0 == sum of g_k cell-wise.
        let spec = *fed.merged_grid().spec();
        for id in 0..spec.num_cells() as u32 {
            let merged = fed.merged_grid().cell(id).count;
            let parts: f64 = (0..3).map(|k| fed.silo_grid(k).cell(id).count).sum();
            assert_eq!(merged, parts);
        }
    }

    #[test]
    fn setup_comm_counts_grid_transfer() {
        let fed = small_federation(3, 100);
        let setup = fed.setup_comm();
        // One batched [MemoryReport, BuildGrid] round per silo.
        assert_eq!(setup.rounds, 3);
        // Each grid response carries 100 cells × 24 bytes.
        assert!(setup.bytes_down > 3 * 100 * 24);
        // Query counters start clean.
        assert_eq!(fed.query_comm().rounds, 0);
    }

    #[test]
    fn broadcast_reaches_every_silo_in_order() {
        let fed = small_federation(3, 200);
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let request = Request::Aggregate {
            range: q,
            mode: LocalMode::Exact,
        };
        let before = fed.query_comm();
        let results = fed.broadcast(&request);
        assert_eq!(results.len(), 3);
        let mut total = 0.0;
        for (k, result) in results.into_iter().enumerate() {
            match result.unwrap() {
                Response::Agg(a) => {
                    // Silo order: each reply matches a direct call.
                    let direct = fed.call(k, &request).unwrap();
                    assert_eq!(direct, Response::Agg(a));
                    total += a.count;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(total > 0.0);
        // The broadcast itself is one round per silo.
        assert_eq!(fed.query_comm().since(&before).rounds, 6); // 3 broadcast + 3 direct
    }

    #[test]
    fn broadcast_surfaces_per_silo_failures() {
        let fed = small_federation(3, 50);
        fed.set_silo_failed(1, true);
        let results = fed.broadcast(&Request::Ping);
        assert_eq!(results[0], Ok(Response::Pong));
        assert!(matches!(
            results[1],
            Err(TransportError::Remote { silo: 1, .. })
        ));
        assert_eq!(results[2], Ok(Response::Pong));
    }

    #[test]
    fn query_comm_accumulates_and_resets() {
        let fed = small_federation(2, 100);
        let q = Range::circle(Point::new(50.0, 50.0), 10.0);
        fed.call(
            0,
            &Request::Aggregate {
                range: q,
                mode: LocalMode::Exact,
            },
        )
        .unwrap();
        let snap = fed.query_comm();
        assert_eq!(snap.rounds, 1);
        assert!(snap.total_bytes() > 0);
        fed.reset_query_comm();
        assert_eq!(fed.query_comm().rounds, 0);
    }

    #[test]
    fn exact_fanout_matches_bruteforce() {
        let parts = partitions(4, 400);
        let all: Vec<SpatialObject> = parts.iter().flatten().copied().collect();
        let fed = FederationBuilder::new(bounds())
            .grid_cell_len(5.0)
            .histogram_config(MinSkewConfig {
                resolution: 16,
                budget: 16,
            })
            .build(parts);
        let q = Range::circle(Point::new(50.0, 50.0), 20.0);
        let mut total = 0.0;
        for k in 0..fed.num_silos() {
            match fed
                .call(
                    k,
                    &Request::Aggregate {
                        range: q,
                        mode: LocalMode::Exact,
                    },
                )
                .unwrap()
            {
                Response::Agg(a) => total += a.count,
                other => panic!("unexpected {other:?}"),
            }
        }
        let brute = all.iter().filter(|o| q.contains_point(&o.location)).count() as f64;
        assert_eq!(total, brute);
    }

    #[test]
    fn failure_injection_round_trips() {
        let fed = small_federation(2, 50);
        assert!(fed.failed_silos().is_empty());
        fed.set_silo_failed(1, true);
        assert_eq!(fed.failed_silos(), vec![1]);
        let err = fed.call(1, &Request::Ping).expect_err("failed silo");
        assert!(matches!(err, TransportError::Remote { silo: 1, .. }));
        assert!(fed.call(0, &Request::Ping).is_ok());
        fed.set_silo_failed(1, false);
        assert!(fed.call(1, &Request::Ping).is_ok());
    }

    #[test]
    fn memory_reports_are_cached() {
        let fed = small_federation(3, 200);
        let reports = fed.silo_memory_reports();
        assert_eq!(reports.len(), 3);
        for r in reports {
            assert!(r.rtree > 0);
        }
        assert!(fed.provider_memory_bytes() > 0);
    }

    #[test]
    #[ignore = "report is item 0 by choice until ROADMAP item 1 re-baselines index_mem_mb; flip the frame order and un-ignore together"]
    fn setup_memory_reports_include_the_grid() {
        // The setup frame is [MemoryReport, BuildGrid] and a silo serves a
        // frame's items in order, so the report is taken before the grid
        // is retained.
        for r in small_federation(3, 200).silo_memory_reports() {
            assert!(r.grid > 0);
        }
    }

    #[test]
    fn served_counters_start_at_setup_level() {
        let fed = small_federation(2, 50);
        // BuildGrid + MemoryReport each.
        assert_eq!(fed.served_per_silo(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one silo")]
    fn empty_federation_is_rejected() {
        FederationBuilder::new(bounds()).build(vec![]);
    }

    #[test]
    fn try_build_surfaces_setup_errors() {
        let err = FederationBuilder::new(bounds())
            .try_build(vec![])
            .expect_err("no silos");
        assert_eq!(err, SetupError::NoSilos);
        assert!(err.to_string().contains("at least one silo"));
    }

    #[test]
    fn try_build_succeeds_on_a_real_federation() {
        let fed = FederationBuilder::new(bounds())
            .grid_cell_len(10.0)
            .try_build(partitions(2, 50))
            .expect("setup succeeds");
        assert_eq!(fed.num_silos(), 2);
        assert_eq!(fed.total_objects(), 100.0);
    }

    #[test]
    fn degrade_policy_floors() {
        assert_eq!(DegradePolicy::default(), DegradePolicy::FailFast);
        assert!(!DegradePolicy::FailFast.allows_partial());
        assert!(!DegradePolicy::FailFast.accepts(3, 1.0));
        let p = DegradePolicy::Partial {
            min_silos: 1,
            min_coverage: 0.5,
        };
        assert!(p.allows_partial());
        assert!(p.accepts(1, 0.5));
        assert!(!p.accepts(0, 0.9));
        assert!(!p.accepts(2, 0.49));
        // The default federation carries FailFast.
        let fed = small_federation(2, 10);
        assert_eq!(fed.degrade_policy(), DegradePolicy::FailFast);
    }

    #[test]
    fn drop_joins_workers() {
        let fed = small_federation(2, 10);
        drop(fed); // must not hang or panic
    }
}
