//! The federation: silo workers plus the provider's own state.
//!
//! [`FederationBuilder::build`] stands the whole system up the way the
//! paper describes:
//!
//! 1. spawn one worker thread per partition ([`crate::transport`]);
//! 2. run Alg. 1 — send every silo, local or remote, one `[Setup,
//!    BuildGrid]` frame over the byte-counted channel: each silo indexes
//!    its partition by the shared [`SiloSpec`] and bins it along the same
//!    grid. Collect the per-silo grid indices `g_1 … g_m`, merge them
//!    into `g₀`, and precompute one [`PrefixStack`] over
//!    `[g₀, g₁ … g_m]` so one O(1)/O(√|g₀|) walk yields every
//!    provider-side sum;
//! 3. cache each silo's index-memory report for the Figs. 3d–9d metric.
//!
//! Setup traffic and query traffic are tracked by separate counters, so
//! experiments can report per-query communication cost net of the one-off
//! index construction, exactly like the paper ("the time to construct the
//! static indices excluded").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fedra_geo::{Rect, SpatialObject};
use fedra_index::grid::{GridIndex, PrefixStack};
use fedra_index::histogram::MinSkewConfig;
use fedra_index::pool::WorkerPool;
use fedra_index::rtree::RTreeConfig;

use crate::fault::FaultPlan;
use crate::health::{HealthConfig, HealthTracker};
use crate::protocol::{Request, Response, SiloMemoryReport, SiloSpec};
use crate::silo::{Silo, SiloId};
use crate::snapshot::ProviderSnapshot;
use crate::transport::socket::{spawn_silo_socket, SiloAddr, SocketTransport};
use crate::transport::{
    spawn_silo, CallPolicy, CommCounters, CommSnapshot, SiloChannel, Transport, TransportBackend,
    TransportError,
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
    /// The [`FaultPlan`] names a silo this builder does not build from a
    /// partition — a remote silo or no silo at all — so its faults would
    /// silently never fire.
    FaultPlanNamesNoLocalSilo {
        /// The silo id the plan names.
        silo: SiloId,
        /// How many silos the federation hosts locally (ids `0..local_silos`).
        local_silos: usize,
    },
    /// `FEDRA_TRANSPORT` is set to something that names no backend.
    UnknownTransport {
        /// The value as found in the environment.
        value: String,
    },
    /// The transport failed while running Alg. 1 (spawn failure, dead
    /// worker, undecodable frame, a silo's refused or panicked `Setup`).
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
            SetupError::FaultPlanNamesNoLocalSilo { silo, local_silos } => write!(
                f,
                "the fault plan names silo {silo}, but only silos 0..{local_silos} are hosted \
                 locally (a remote silo takes its faults from `fedra-silo --fault-*`)"
            ),
            SetupError::UnknownTransport { value } => write!(
                f,
                "FEDRA_TRANSPORT=`{value}` names no transport backend (expected memory or socket)"
            ),
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
    histogram: MinSkewConfig,
    lsr_seed: u64,
    silo_threads: usize,
    message_overhead: u64,
    warm_start: Option<ProviderSnapshot>,
    fault_plan: Option<FaultPlan>,
    call_policy: CallPolicy,
    health: HealthConfig,
    degrade: DegradePolicy,
    transport: Option<TransportBackend>,
    remotes: Vec<String>,
}

impl FederationBuilder {
    /// Starts a builder for a federation covering `bounds`.
    pub fn new(bounds: Rect) -> Self {
        Self {
            bounds,
            grid_cell_len: 1.0,
            histogram: MinSkewConfig::default(),
            lsr_seed: 0x000F_ED0A,
            silo_threads: 0,
            message_overhead: crate::transport::DEFAULT_MESSAGE_OVERHEAD,
            warm_start: None,
            fault_plan: None,
            call_policy: CallPolicy::default(),
            health: HealthConfig::default(),
            degrade: DegradePolicy::default(),
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
    /// exactly like local ones: the same `Setup` frame tells each its
    /// [`FederationBuilder::silo_spec`], so a remote silo serves the same
    /// indexes as an in-process one over the same partition. Fault injection
    /// ([`FederationBuilder::fault_plan`]) applies to local silos only —
    /// a plan naming a remote silo fails the build; faults on a remote
    /// silo belong to its own process.
    pub fn connect_remote(mut self, addr: impl Into<String>) -> Self {
        self.remotes.push(addr.into());
        self
    }

    /// Sets the grid cell length `L` (paper default 1 km, swept in Fig. 5).
    pub fn grid_cell_len(mut self, cell_len: f64) -> Self {
        self.grid_cell_len = cell_len;
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

    /// Sets the intra-silo worker-pool size (the `threads` of [`Silo::new`]);
    /// the provider-side grid merge uses the same size.
    /// `0` (the default) sizes the pool automatically from the host's
    /// cores (clamped, `FEDRA_SILO_THREADS` override). Every value
    /// produces bit-identical query results — the knob trades nothing but
    /// wall-clock.
    pub fn silo_threads(mut self, threads: usize) -> Self {
        self.silo_threads = threads;
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
    ///
    /// The plan may name only silos built from this builder's partitions:
    /// a remote silo takes its faults from `fedra-silo --fault-*`, so
    /// [`FederationBuilder::try_build`] refuses any other id with
    /// [`SetupError::FaultPlanNamesNoLocalSilo`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the deadline/hedging policy query drivers should apply
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

    /// The spec the setup round sends silo `silo` (local or remote): this
    /// builder's grid and histogram config, the default fanout, and the
    /// builder's LSR seed mixed with the silo id.
    pub fn silo_spec(&self, silo: SiloId) -> SiloSpec {
        SiloSpec {
            bounds: self.bounds,
            cell_len: self.grid_cell_len,
            rtree: RTreeConfig::default(),
            histogram: self.histogram,
            lsr_seed: self.lsr_seed ^ (silo as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Builds silos from the partitions and runs Alg. 1, surfacing setup
    /// failures as [`SetupError`] instead of panicking.
    pub fn try_build(
        mut self,
        partitions: Vec<Vec<SpatialObject>>,
    ) -> Result<Federation, SetupError> {
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
        let local_silos = partitions.len();
        if let Some(silo) = self
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.silos().find(|&silo| silo >= local_silos))
        {
            return Err(SetupError::FaultPlanNamesNoLocalSilo { silo, local_silos });
        }
        let backend = match self.transport {
            Some(backend) => backend,
            None => TransportBackend::from_env()
                .map_err(|value| SetupError::UnknownTransport { value })?,
        };
        let setup_stats = Arc::new(CommCounters::with_overhead(self.message_overhead));
        let query_stats = Arc::new(CommCounters::with_overhead(self.message_overhead));

        // Faults stay disarmed while Alg. 1 runs — the injector consumes
        // neither its schedule counter nor its RNG until armed, so setup
        // traffic never perturbs the chaos schedule.
        let fault_armed = Arc::new(AtomicBool::new(false));
        let mut channels = Vec::with_capacity(local_silos + remote_addrs.len());
        let mut workers = Vec::with_capacity(local_silos);
        for (id, objects) in partitions.into_iter().enumerate() {
            let silo = Silo::new(id, objects, self.silo_threads);
            let injector = self
                .fault_plan
                .as_ref()
                .and_then(|plan| plan.injector_for(silo.id(), Arc::clone(&fault_armed)));
            let (channel, handle) = match backend {
                TransportBackend::InMemory => spawn_silo(silo, Arc::clone(&setup_stats), injector)?,
                TransportBackend::Socket => {
                    spawn_silo_socket(silo, Arc::clone(&setup_stats), injector)?
                }
            };
            channels.push(channel);
            workers.push(handle);
        }
        // Remote silos join after the local partitions, ids continuing.
        for addr in remote_addrs {
            let id = channels.len();
            let transport = SocketTransport::connect(id, addr)?;
            channels.push(SiloChannel::over(
                Arc::new(transport) as Arc<dyn Transport>,
                Arc::clone(&setup_stats),
            ));
        }

        // Every grid the provider holds — off the wire or out of a
        // snapshot — must be along this build's grid, or the g_0 merge
        // could not line its cells up.
        let (bounds, cell_len) = (self.bounds, self.grid_cell_len);
        let along_spec =
            move |g: &GridIndex| g.spec().bounds() == bounds && g.spec().cell_len() == cell_len;
        // A warm-start snapshot is usable only when its grids and silo
        // count match this build. Each GridAck *takes* its silo's grid,
        // so an unsolicited ack still surfaces as a protocol error.
        let mut warm_grids: Vec<Option<GridIndex>> = match self.warm_start.take() {
            Some(s) if s.grids.len() == channels.len() && s.grids.iter().all(along_spec) => {
                s.grids.into_iter().map(Some).collect()
            }
            _ => Vec::new(),
        };

        // Alg. 1: collect g_1 … g_m, merge into g_0. Each silo receives
        // ONE coalesced [Setup, BuildGrid] frame, and every frame is begun
        // before any reply is awaited — setup is a single batched round
        // per silo (plus one fallback round per warm-start miss), and the
        // per-silo forest and grid builds run concurrently on the silos'
        // own threads instead of serializing through the provider. A silo
        // serves a frame's items in order and `Setup` answers the memory
        // report, so the report is taken before the grid is retained:
        // `index_mem_mb` excludes the grid until ROADMAP item 1a moves it
        // into the report.
        let build_request = Request::BuildGrid {
            // Warm mode asks for a checksum-only build; the cached cell
            // vectors are reused when the silo's data still matches.
            return_cells: warm_grids.is_empty(),
        };
        let pending = channels
            .iter()
            .enumerate()
            .map(|(k, channel)| {
                let setup = Request::Setup(self.silo_spec(k));
                channel.begin_frame(&[(0, &setup), (1, &build_request)], None)
            })
            .collect::<Result<Vec<_>, TransportError>>()?;

        let mut silo_grids: Vec<Option<GridIndex>> = Vec::with_capacity(channels.len());
        let mut memory_reports = Vec::with_capacity(channels.len());
        let mut warm_hits = 0usize;
        for (k, pending) in pending.into_iter().enumerate() {
            let mut items = pending.wait()?;
            let (build, setup) = match (items.pop(), items.pop(), items.pop()) {
                (Some((_, build)), Some((_, setup)), None) => (build, setup),
                _ => {
                    return Err(SetupError::Protocol {
                        silo: k,
                        message: "setup batch must answer exactly two items".into(),
                    })
                }
            };
            // The Setup's own refusal first: the BuildGrid behind it only
            // says the silo was never set up.
            match setup? {
                Response::Memory(m) => memory_reports.push(m),
                other => {
                    return Err(SetupError::Protocol {
                        silo: k,
                        message: format!("unexpected setup response: {other:?}"),
                    })
                }
            }
            let grid = match build? {
                Response::GridAck { total, outside } => {
                    let cached = warm_grids
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
                other => Some(silo_grid(k, other, along_spec)?),
            };
            silo_grids.push(grid);
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
            let full = Request::BuildGrid { return_cells: true }.to_bytes();
            let pending = misses
                .iter()
                .map(|&k| channels[k].begin_encoded(full.clone()))
                .collect::<Result<Vec<_>, TransportError>>()?;
            for (&k, pending) in misses.iter().zip(pending) {
                silo_grids[k] = Some(silo_grid(k, pending.wait_one()?, along_spec)?);
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
        // Provider-side worker pool: the g_0 merge fans out on it. Sized
        // like the silos' pools so one knob governs the whole deployment.
        let pool = WorkerPool::new(self.silo_threads);
        let grid_refs: Vec<&GridIndex> = silo_grids.iter().collect();
        let merged = GridIndex::merge_with(&grid_refs, &pool).ok_or(SetupError::NoSilos)?;
        let layers: Vec<&GridIndex> = std::iter::once(&merged).chain(&silo_grids).collect();
        let prefix_stack = PrefixStack::build(&layers);

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
            merged,
            prefix_stack,
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

/// Silo `k`'s answer to a full `BuildGrid`: its grid, if the answer is
/// one along the build's grid (`along_spec`), else a protocol error.
fn silo_grid(
    k: SiloId,
    response: Response,
    along_spec: impl Fn(&GridIndex) -> bool,
) -> Result<GridIndex, SetupError> {
    let message = match response {
        Response::Grid(grid) if along_spec(&grid) => return Ok(*grid),
        Response::Grid(_) => "BuildGrid returned a grid along another spec",
        _ => "BuildGrid did not return a grid payload",
    };
    Err(SetupError::Protocol {
        silo: k,
        message: message.into(),
    })
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
    merged: GridIndex,
    prefix_stack: PrefixStack,
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

    /// The merged federation grid `g₀`.
    pub fn merged_grid(&self) -> &GridIndex {
        &self.merged
    }

    /// The cumulative arrays of `[g₀, g₁ … g_m]`, interleaved: layer 0 is
    /// `g₀`, layer `1 + k` is silo `k`'s `g_k`.
    pub fn prefix_stack(&self) -> &PrefixStack {
        &self.prefix_stack
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
        (grids + self.merged.memory_bytes() + self.prefix_stack.memory_bytes()) as u64
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
            grids: self.silo_grids.clone(),
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

    /// The deadline/hedging policy configured at build time
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
    use std::time::Duration;

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
        // One batched [Setup, BuildGrid] round per silo.
        assert_eq!(setup.rounds, 3);
        // Per silo, down: the envelope; the batch reply's tag + a one-byte
        // item count; Setup's Memory reply (tag + 4 × u64); the Grid reply:
        // tag, bounds (32), cell_len (8), a one-byte cell count (100 <
        // 128), the layout byte, the cells, outside (8). Measures are the
        // whole numbers 1–3, so an occupied cell's count, sum and sum_sqr
        // are non-zero whole numbers, each below 128 (asserted): a
        // one-byte varint. So the cells take the shorter of sparse (a
        // presence byte per cell plus 3 B per occupied cell) and columns
        // (3 B per cell, all three moments being present somewhere).
        let expected: u64 = (0..3)
            .map(|k| {
                let cells = fed.silo_grid(k).cells();
                assert!(cells.iter().all(|c| c.sum_sqr < 128.0));
                let occupied = cells.iter().filter(|c| c.count > 0.0).count() as u64;
                let body = (100 + 3 * occupied).min(3 * 100);
                fed.message_overhead() + 2 + 33 + (1 + 32 + 8 + 1 + 1 + body + 8)
            })
            .sum();
        assert_eq!(setup.bytes_down, expected);
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
    #[ignore = "Setup answers the report before the grid is built until ROADMAP item 1a re-baselines index_mem_mb; move the grid into the report and un-ignore together"]
    fn setup_memory_reports_include_the_grid() {
        // The setup frame is [Setup, BuildGrid] and Setup answers the
        // report, so it is taken before the grid is retained.
        for r in small_federation(3, 200).silo_memory_reports() {
            assert!(r.grid > 0);
        }
    }

    #[test]
    fn served_counters_start_at_setup_level() {
        let fed = small_federation(2, 50);
        // Setup + BuildGrid each.
        assert_eq!(fed.served_per_silo(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one silo")]
    fn empty_federation_is_rejected() {
        FederationBuilder::new(bounds()).build(vec![]);
    }

    #[test]
    fn try_build_surfaces_setup_errors() {
        let slow = |silo| FaultPlan::seeded(1).slow_silo(silo, Duration::from_millis(1));
        let no_local_silo = |silo| SetupError::FaultPlanNamesNoLocalSilo {
            silo,
            local_silos: 2,
        };
        for (builder, parts, expected, says) in [
            (
                FederationBuilder::new(bounds()),
                vec![],
                SetupError::NoSilos,
                "at least one silo",
            ),
            // A plan entry for a silo that does not exist, or that lives in
            // another process, would never fire: refused before any index
            // work (and before the remote is dialled).
            (
                FederationBuilder::new(bounds()).fault_plan(slow(9)),
                partitions(2, 10),
                no_local_silo(9),
                "names silo 9",
            ),
            (
                FederationBuilder::new(bounds())
                    .connect_remote("tcp:127.0.0.1:9")
                    .fault_plan(slow(2)),
                partitions(2, 10),
                no_local_silo(2),
                "fedra-silo --fault-*",
            ),
            // A grid no `GridSpec` accepts is refused by each silo's spec
            // decoder: the typed error of the first, not a panic.
            (
                FederationBuilder::new(bounds()).grid_cell_len(0.0),
                partitions(2, 10),
                SetupError::Transport(TransportError::Remote {
                    silo: 0,
                    message:
                        "undecodable request: value out of its domain while decoding silo spec grid"
                            .into(),
                }),
                "silo spec grid",
            ),
        ] {
            let err = builder.try_build(parts).expect_err(says);
            assert_eq!(err, expected);
            assert!(err.to_string().contains(says), "{err}");
        }
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
