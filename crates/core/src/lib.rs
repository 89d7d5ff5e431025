//! FRA query algorithms: the paper's contribution, end to end.
//!
//! Six algorithms over a [`fedra_federation::Federation`], all behind the
//! [`FraAlgorithm`] trait:
//!
//! | Algorithm | Paper | Comm / query | Accuracy |
//! |---|---|---|---|
//! | [`Exact`] | Sec. 8.1 baseline | m rounds (m frames per *batch*) | exact |
//! | [`Opta`] | Sec. 8.1 baseline | m rounds (m frames per *batch*) | worst of the six |
//! | [`IidEst`] | Alg. 2 | 1 round, O(1) bytes | Theorem 1 |
//! | [`IidEstLsr`] | Alg. 2 + Alg. 6 | 1 round, O(1) bytes | Theorem 2 |
//! | [`NonIidEst`] | Alg. 3 | 1 round, O(√|g₀|) bytes | Theorem 3 |
//! | [`NonIidEstLsr`] | Alg. 3 + Alg. 6 | 1 round, O(√|g₀|) bytes | Theorem 4 |
//!
//! [`NonIidEst::pooled`] is NonIID-est pooling `k > 1` sampled silos, an
//! extension between NonIID-est and EXACT (the `ablations` bench's
//! Ablation D).
//!
//! "Per query" means per *lone* query: [`framework::QueryEngine`], the
//! Alg. 4 batch executor, ships one coalesced frame per silo per round
//! whatever the algorithm; [`scheduler::QueryScheduler`] serves
//! concurrent clients with cross-query frame coalescing and admission
//! control, and [`theory`] exposes the Sec. 6 guarantees as computable
//! bounds.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod algorithm;
mod cache;
mod exact;
pub mod framework;
pub mod helpers;
mod opta;
mod query;
mod run;
mod sampling;
pub mod scheduler;
pub mod theory;

pub use algorithm::{AccuracyParams, FraAlgorithm, QueryPlan, RemotePlan, RunEnd};
pub use cache::{AnswerCache, CacheConfig, CacheStats};
pub use exact::Exact;
pub use framework::{BatchResult, QueryEngine};
pub use opta::Opta;
pub use query::{Coverage, FraError, FraQuery, QueryResult};
pub use sampling::{IidEst, IidEstLsr, NonIidEst, NonIidEstLsr};
pub use scheduler::{ClassPolicy, QueryScheduler, QueryTicket, SchedulerConfig, SubmitError};
