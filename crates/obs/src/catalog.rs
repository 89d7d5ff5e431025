//! The metric catalog: every metric fedra records, declared once.
//!
//! An entry is a name, a kind, its label keys and a help string (the
//! entry's doc comment). A [`Metric`] can only be built here, so a metric
//! that is not in the catalog does not compile; the Prometheus exporter
//! prints each family's `# HELP` and `# TYPE` lines from it.
//!
//! An entry may also fix the values its one label takes (a span name, a
//! breaker state); [`Family`](crate::Family) builds one handle per value.
//! Histogram exports derive `_count` / `_sum` / `_bucket` from the name.

use std::marker::PhantomData;

use crate::metrics::{Counter, Gauge, Histogram, Primitive};

/// What a metric family measures, as the exposition format names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone total.
    Counter,
    /// A last-write-wins value.
    Gauge,
    /// A log₂-bucketed distribution.
    Histogram,
}

impl Kind {
    /// The `# TYPE` word.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One catalog entry, whatever its kind.
#[derive(Debug)]
pub struct Def {
    name: &'static str,
    kind: Kind,
    help: &'static str,
    labels: &'static [&'static str],
    values: &'static [&'static str],
}

impl Def {
    /// The family name, `fedra_…`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The help text, on one line.
    pub fn help(&self) -> String {
        self.help.split_whitespace().collect::<Vec<_>>().join(" ")
    }

    /// The family's kind.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Label keys, in the order a series name carries them.
    pub fn labels(&self) -> &'static [&'static str] {
        self.labels
    }

    /// The fixed values of the one label, when the entry names them.
    pub fn values(&self) -> &'static [&'static str] {
        self.values
    }
}

/// A catalog entry typed by the primitive it records into.
#[derive(Debug)]
pub struct Metric<T> {
    def: Def,
    kind: PhantomData<fn() -> T>,
}

impl<T: Primitive> Metric<T> {
    const fn new(
        name: &'static str,
        help: &'static str,
        labels: &'static [&'static str],
        values: &'static [&'static str],
    ) -> Self {
        Metric {
            def: Def {
                name,
                kind: T::KIND,
                help,
                labels,
                values,
            },
            kind: PhantomData,
        }
    }
}

impl<T> Metric<T> {
    /// The untyped entry.
    pub fn def(&self) -> &Def {
        &self.def
    }
}

/// The catalog entry of family `name`, if declared.
pub fn lookup(name: &str) -> Option<&'static Def> {
    CATALOG.iter().copied().find(|def| def.name == name)
}

macro_rules! catalog {
    ($(
        $(#[doc = $doc:literal])+
        $id:ident: $kind:ident $name:literal [$($label:literal),*] $(= [$($value:literal),+])?;
    )*) => {
        $(
            $(#[doc = $doc])+
            pub static $id: Metric<$kind> =
                Metric::new($name, concat!($($doc),+), &[$($label),*], &[$($($value),+)?]);
        )*

        /// Every declared metric, in declaration order.
        pub static CATALOG: &[&Def] = &[$(&$id.def),*];
    };
}

catalog! {
    // Engine batches (framework.rs).

    /// Engine batches executed.
    BATCHES_TOTAL: Counter "fedra_batches_total" [];
    /// Queries executed in engine batches.
    QUERIES_TOTAL: Counter "fedra_queries_total" [];
    /// Batch queries that answered an error.
    QUERY_FAILURES_TOTAL: Counter "fedra_query_failures_total" [];
    /// Communication rounds per answered batch query.
    QUERY_ROUNDS: Histogram "fedra_query_rounds" [];
    /// Wall time per engine batch, in nanoseconds.
    BATCH_WALL_NS: Histogram "fedra_batch_wall_ns" [];
    /// Mean relative error of the latest batch against its exact references.
    BATCH_MRE: Gauge "fedra_batch_mre" [];
    /// Realized relative error per query against an exact reference, in ppm.
    REALIZED_ERROR_PPM: Histogram "fedra_realized_error_ppm" [];
    /// Duration of one traced query phase, in nanoseconds.
    SPAN_NS: Histogram "fedra_span_ns" ["name"] = ["plan", "remote", "finish"];

    // Planning (framework.rs).

    /// Queries a plan answered without contacting a silo.
    PLAN_READY_TOTAL: Counter "fedra_plan_ready_total" [];
    /// Queries whose plan needed a remote round.
    PLAN_REMOTE_TOTAL: Counter "fedra_plan_remote_total" [];

    // Estimators and accuracy (sampling.rs, algorithm.rs, run.rs).

    /// The ε an LSR estimator planned with.
    ACCURACY_EPSILON: Gauge "fedra_accuracy_epsilon" [];
    /// The δ an LSR estimator planned with.
    ACCURACY_DELTA: Gauge "fedra_accuracy_delta" [];
    /// The grid estimate sum₀ (COUNT) a query was planned with.
    SUM0_COUNT: Histogram "fedra_sum0_count" [];
    /// Boundary cells per NonIID-est range classification.
    BOUNDARY_CELLS: Histogram "fedra_boundary_cells" [];
    /// LSR level an estimator committed to, per finished query.
    LSR_LEVEL_TOTAL: Counter "fedra_lsr_level_total" ["level"];
    /// The 2^l rescale factor of the latest LSR answer.
    LSR_RESCALE_FACTOR: Gauge "fedra_lsr_rescale_factor" [];
    /// Requests for a silo: sent by the provider (one per rider of a
    /// frame), or handled by the silo itself, per request kind.
    SILO_REQUESTS_TOTAL: Counter "fedra_silo_requests_total" ["silo"];
    /// The silo whose reply a sampled query was finished from.
    SAMPLED_SILO_TOTAL: Counter "fedra_sampled_silo_total" ["silo"];
    /// Candidates given up after their final error, the last one included.
    RESAMPLES_TOTAL: Counter "fedra_resamples_total" [];
    /// Walks that ran out of candidates and took the degraded finish.
    DEGRADED_TOTAL: Counter "fedra_degraded_total" [];
    /// Answers carrying a coverage record (degraded mode).
    DEGRADED_ANSWERS_TOTAL: Counter "fedra_degraded_answers_total" [];
    /// Reachable mass fraction of the latest degraded answer, in ppm.
    COVERAGE_PPM: Gauge "fedra_coverage_ppm" [];

    // Deadlines, retries, hedging, breakers (run.rs, framework.rs, fedra-cli).

    /// Calls or frames that missed their deadline.
    DEADLINE_MISSED_TOTAL: Counter "fedra_deadline_missed_total" ["silo"];
    /// Same-candidate retries after a transient refusal.
    RETRIES_TOTAL: Counter "fedra_retries_total" [];
    /// Runs that moved to their next candidate with a slow request in flight.
    HEDGES_FIRED_TOTAL: Counter "fedra_hedges_fired_total" [];
    /// Hedged runs answered by the candidate they hedged to.
    HEDGES_WON_TOTAL: Counter "fedra_hedges_won_total" [];
    /// Candidates skipped at dispatch because their breaker refused them.
    BREAKER_SKIPPED_TOTAL: Counter "fedra_breaker_skipped_total" [];
    /// Circuit-breaker state changes, by the state entered.
    BREAKER_TRANSITIONS_TOTAL: Counter "fedra_breaker_transitions_total" ["to"] =
        ["open", "half_open", "closed"];
    /// Breaker state per silo: 0 closed, 1 half-open, 2 open.
    BREAKER_STATE: Gauge "fedra_breaker_state" ["silo"];
    /// Per-silo latency EWMA, in microseconds.
    SILO_LATENCY_EWMA_US: Gauge "fedra_silo_latency_ewma_us" ["silo"];

    // Answer cache (cache.rs).

    /// Cache hits.
    CACHE_HITS_TOTAL: Counter "fedra_cache_hits_total" [];
    /// Cache misses.
    CACHE_MISSES_TOTAL: Counter "fedra_cache_misses_total" [];
    /// Entries evicted for capacity.
    CACHE_EVICTIONS_TOTAL: Counter "fedra_cache_evictions_total" [];
    /// Entries found past their TTL.
    CACHE_EXPIRATIONS_TOTAL: Counter "fedra_cache_expirations_total" [];

    // Serving scheduler (scheduler.rs; frame riders from the shared round).

    /// Submissions admitted, per class.
    SCHED_SUBMITTED_TOTAL: Counter "fedra_sched_submitted_total" ["class"];
    /// Tickets redeemed with an answer, per class.
    SCHED_COMPLETED_TOTAL: Counter "fedra_sched_completed_total" ["class"];
    /// Queries shed, per class (queue full at submit, or deadline expired).
    SHED_TOTAL: Counter "fedra_shed_total" ["class"];
    /// Sheds at the front door: the class queue was at capacity.
    SHED_QUEUE_FULL_TOTAL: Counter "fedra_shed_queue_full_total" [];
    /// Sheds past admission: the deadline expired in queue, in flight or at the silo.
    SHED_EXPIRED_TOTAL: Counter "fedra_shed_expired_total" [];
    /// Intake backlog after the latest submit or admission.
    SCHED_QUEUE_DEPTH: Gauge "fedra_sched_queue_depth" [];
    /// Queries in flight on the driver after the latest admission.
    SCHED_ACTIVE: Gauge "fedra_sched_active" [];
    /// Driver ticks.
    SCHED_TICKS_TOTAL: Counter "fedra_sched_ticks_total" [];
    /// Runs coalesced per wire frame.
    SCHED_FRAME_RIDERS: Histogram "fedra_sched_frame_riders" [];
    /// Submission to admission, in nanoseconds.
    SCHED_QUEUE_WAIT_NS: Histogram "fedra_sched_queue_wait_ns" [];
    /// Submission to ticket delivery, in nanoseconds.
    SCHED_LATENCY_NS: Histogram "fedra_sched_latency_ns" [];

    // Silo side (silo.rs, per-silo registries).

    /// Requests for a silo: sent by the provider (one per rider of a
    /// frame), or handled by the silo itself, per request kind.
    SILO_REQUESTS_BY_KIND_TOTAL: Counter "fedra_silo_requests_total" ["silo", "kind"];
    /// The silo's build-pool size.
    SILO_POOL_THREADS: Gauge "fedra_silo_pool_threads" ["silo"];
    /// Items per batch frame a silo served.
    SILO_POOL_BATCH_ITEMS: Histogram "fedra_silo_pool_batch_items" ["silo"];
    /// Requests (lone or batch items) answered with an error after their
    /// handler panicked.
    SILO_BATCH_PANICS_TOTAL: Counter "fedra_silo_batch_panics_total" ["silo"];
    /// Boundary cells left out of a cell-contributions reply.
    SILO_CELLS_PRUNED_TOTAL: Counter "fedra_silo_cells_pruned_total" ["silo"];
    /// LSR level a silo served a query from.
    SILO_LSR_LEVEL_TOTAL: Counter "fedra_silo_lsr_level_total" ["silo", "level"];
    /// Grid snapshots written.
    SNAPSHOT_SAVED_TOTAL: Counter "fedra_snapshot_saved_total" ["silo"];
    /// Warm starts that restored the grid from a snapshot.
    SNAPSHOT_LOADED_TOTAL: Counter "fedra_snapshot_loaded_total" ["silo"];

    // Socket transport (transport/socket.rs, the per-silo registry).

    /// Socket reconnects after a connection loss.
    TRANSPORT_RECONNECTS_TOTAL: Counter "fedra_transport_reconnects_total" [];
    /// Stale replies discarded because their epoch predates the connection.
    EPOCH_FENCED_REPLIES_TOTAL: Counter "fedra_epoch_fenced_replies_total" [];
    /// Failed accepts a silo's socket server retried after a backoff.
    SILO_ACCEPT_ERRORS_TOTAL: Counter "fedra_silo_accept_errors_total" ["silo"];

    // Communication mirror (export.rs).

    /// Bytes sent provider to silos.
    COMM_BYTES_UP_TOTAL: Counter "fedra_comm_bytes_up_total" [];
    /// Bytes sent silos to provider.
    COMM_BYTES_DOWN_TOTAL: Counter "fedra_comm_bytes_down_total" [];
    /// Request/response rounds.
    COMM_ROUNDS_TOTAL: Counter "fedra_comm_rounds_total" [];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_is_well_formed() {
        for def in CATALOG {
            assert!(def.name.starts_with("fedra_"), "{}", def.name);
            assert!(!def.help().is_empty(), "{} has no help", def.name);
            assert!(
                !def.help().contains('\\'),
                "{}: HELP is not escaped",
                def.name
            );
            if def.kind == Kind::Counter {
                assert!(def.name.ends_with("_total"), "{}", def.name);
            }
            assert!(
                def.values.is_empty() || def.labels.len() == 1,
                "{}: fixed values need exactly one label",
                def.name
            );
        }
    }

    #[test]
    fn a_family_is_declared_with_one_kind() {
        for def in CATALOG {
            // One HELP and one TYPE line describe every series of a family.
            let first = lookup(def.name).expect("declared");
            assert_eq!(first.kind, def.kind, "{}", def.name);
            assert_eq!(first.help, def.help, "{}", def.name);
        }
        assert_eq!(lookup("fedra_undeclared_total").map(Def::name), None);
        assert_eq!(SPAN_NS.def().values(), ["plan", "remote", "finish"]);
        assert_eq!(
            SPAN_NS.def().help(),
            "Duration of one traced query phase, in nanoseconds."
        );
    }
}
