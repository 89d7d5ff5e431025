//! The `fedra` federation runtime: silos, provider state, byte-counted RPC.
//!
//! A spatial data federation (Sec. 2 of the paper) is `m` autonomous data
//! silos, each holding a horizontal partition of the spatial objects,
//! reachable only through a query interface. This crate simulates that
//! setting hermetically and *measurably*:
//!
//! * every silo runs on its own OS thread ([`Silo`], [`transport`]);
//! * every provider ↔ silo interaction is serialized through a binary
//!   [`wire`] format — the byte counts are the paper's communication-cost
//!   metric, not a model of it;
//! * [`Federation`] owns the provider's state: the per-silo grid indices
//!   `g_1 … g_m`, the merged `g₀` and its cumulative arrays (Alg. 1), the
//!   silo channels, setup vs query traffic counters and failure injection
//!   (one seeded [`FaultPlan`] for latency, drops, refusals, flaps and
//!   crashes).
//!
//! The FRA estimation algorithms themselves live in `fedra-core`; this
//! crate deliberately knows nothing about IID/Non-IID estimation — it only
//! moves bytes and owns indices.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fault;
mod federation;
pub mod health;
pub mod protocol;
mod silo;
pub mod snapshot;
pub mod transport;
pub mod wire;

pub use fault::{FaultPlan, FlapSchedule, SiloFaultSpec};
pub use federation::{DegradePolicy, Federation, FederationBuilder, SetupError};
pub use health::{BreakerState, HealthConfig, HealthTracker, HealthTransition, SiloHealthSnapshot};
pub use protocol::{LocalMode, Request, Response, SiloMemoryReport, SiloSpec};
pub use silo::{Silo, SiloGridSnapshot, SiloId};
pub use snapshot::ProviderSnapshot;
pub use transport::chaos::ChaosProxy;
pub use transport::socket::{SiloAddr, SiloSocketServer, SocketServerConfig, SocketTransport};
pub use transport::{
    CallPolicy, CommCounters, CommSnapshot, FrameReplies, PendingFrame, Poll, Reply, ReplySlot,
    SiloChannel, SiloDiagnostics, Transport, TransportBackend, TransportError,
};
