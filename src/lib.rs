//! # fedra — approximate range aggregation over spatial data federations
//!
//! `fedra` is a from-scratch Rust implementation of the FRA (Federated
//! Range Aggregation) system of Shi et al., *"Efficient Approximate Range
//! Aggregation over Large-scale Spatial Data Federation"* (ICDE 2022):
//! COUNT/SUM/AVG/STDEV aggregation over circular or rectangular ranges
//! when the data is horizontally partitioned across silos that never share
//! raw rows.
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`geo`] — geometry: points, rectangles, circles, ranges, projections;
//! * [`index`] — grid index + prefix sums, aggregate R-tree, LSR-Forest,
//!   histograms;
//! * [`federation`] — the silo/provider runtime with byte-counted RPC;
//! * [`core`] — the FRA algorithms (EXACT, OPTA, IID-est, NonIID-est,
//!   their +LSR variants), the multi-query framework and accuracy theory;
//! * [`obs`] — query-lifecycle tracing, federation metrics, exporters;
//! * [`workload`] — synthetic Beijing-like workloads and parameter sweeps.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or in short:
//!
//! ```
//! use fedra::prelude::*;
//!
//! // Generate a small 3-silo federation worth of data.
//! let spec = WorkloadSpec::small();
//! let dataset = spec.generate();
//!
//! // Stand the federation up (each silo builds its indices).
//! let federation = FederationBuilder::new(dataset.bounds())
//!     .grid_cell_len(1.0)
//!     .build(dataset.partitions().to_vec());
//!
//! // Ask: how many objects within 2 km of the city center?
//! let query = FraQuery::circle(Point::new(0.0, 0.0), 2.0, AggFunc::Count);
//! let exact = Exact::new().execute(&federation, &query);
//! let approx = NonIidEst::new(7).execute(&federation, &query);
//! let rel_err = (approx.value - exact.value).abs() / exact.value.max(1.0);
//! assert!(rel_err < 0.5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use fedra_core as core;
pub use fedra_federation as federation;
pub use fedra_geo as geo;
pub use fedra_index as index;
pub use fedra_obs as obs;
pub use fedra_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use fedra_core::{
        AccuracyParams, AdaptivePlanner, AnswerCache, BatchResult, CacheAnswer, CacheConfig,
        CachePolicy, CacheSource, CacheStats, ClassPolicy, Coverage, Exact, FraAlgorithm, FraError,
        FraQuery, IidEst, IidEstLsr, MultiSiloEst, NonIidEst, NonIidEstLsr, Opta, PlanDecision,
        PlannerPolicy, QueryEngine, QueryResult, QueryScheduler, QueryTicket, SchedulerConfig,
        SubmitError,
    };
    pub use fedra_federation::{
        BreakerState, CallPolicy, ChaosPlan, ChaosProxy, DegradePolicy, FaultPlan, Federation,
        FederationBuilder, FlapSchedule, HealthConfig, HealthTracker, ReconnectAttempts,
        ReconnectPolicy, Silo, SiloAddr, SiloConfig, SiloFaultSpec, SiloHealthSnapshot, SiloId,
        SiloSocketServer, SocketServerConfig, Transport, TransportBackend, TransportError,
    };
    pub use fedra_geo::{Circle, GeoPoint, Point, Projection, Range, Rect, SpatialObject};
    pub use fedra_index::{AggFunc, Aggregate, IndexMemory};
    pub use fedra_obs::{
        CommCounters, CommSnapshot, MetricsRegistry, MetricsSnapshot, ObsContext, QueryTrace,
    };
    pub use fedra_workload::{Dataset, Distribution, QueryGenerator, SweepConfig, WorkloadSpec};
}
