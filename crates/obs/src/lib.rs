//! Observability layer for the fedra federation.
//!
//! The paper's headline claims are *measured* properties — O(1) /
//! O(√|g₀|) communication for the sampling estimators, O(log 1/ε) local
//! work via the LSR-Forest level pick, ε-bounded error — so the
//! federation needs first-class instrumentation to verify them per query
//! instead of only observing byte totals after the fact. This crate
//! provides that instrumentation with **no dependencies** beyond std and
//! **no unsafe code**:
//!
//! * [`catalog`] — every metric declared once (name, kind, help, label
//!   keys); a metric outside it does not compile;
//! * [`MetricsRegistry`] — named atomic [`Counter`]s, [`Gauge`]s and
//!   log₂-bucketed [`Histogram`]s, snapshot-able at any time;
//! * [`Series`] / [`Family`] / [`Metrics`] — pre-built handles, so a hot
//!   path records with one atomic, never a name lookup;
//! * [`Span`] / [`QueryTrace`] — a lightweight RAII span API recording a
//!   per-query lifecycle (`plan` → `encode` → `fan-out` → `finish`) with
//!   nanosecond timings and free-form attributes;
//! * [`CommCounters`] / [`CommSnapshot`] — the federation's byte-counted
//!   communication accounting (formerly `fedra_federation::transport::CommStats`),
//!   now owned here so every layer shares one definition;
//! * [`ObsContext`] — the handle threaded through the execution API. A
//!   disabled context ([`ObsContext::noop`]) is a branch-per-call no-op,
//!   so uninstrumented paths pay essentially nothing;
//! * [`export`] — stable JSON and Prometheus text-format renderings of a
//!   snapshot, plus a parser for round-trip tests.
//!
//! Metric names follow the Prometheus convention
//! `fedra_<subsystem>_<quantity>[_total]{label="value"}`; the label set,
//! when present, is embedded in the series name so the registry stays a
//! flat string-keyed map.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod comm;
pub mod context;
pub mod export;
pub mod handles;
pub mod metrics;
pub mod trace;

pub use comm::{CommCounters, CommSnapshot, DEFAULT_MESSAGE_OVERHEAD};
pub use context::ObsContext;
pub use export::{parse_prometheus, render_json, render_prometheus};
pub use handles::{Family, LabelValue, Metrics, Series};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Primitive,
};
pub use trace::{QueryTrace, Span, SpanRecord, TraceHandle};
