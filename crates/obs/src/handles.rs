//! Pre-built handles: what a hot path records through.
//!
//! A [`Series`] is one catalog metric at fixed label values. It is built
//! without touching the registry and registers itself on its first
//! recording, so a snapshot holds exactly the series something recorded.
//! After that a recording is the enabled branch, one `OnceLock` load and
//! the atomic: no name is formatted, looked up or locked.
//!
//! A [`Family`] is one [`Series`] per value of a metric's one label: the
//! values the catalog fixes (span names, breaker states), or the small
//! integers `0..64` (silo ids, LSR levels). [`Metrics`] holds a handle
//! for every metric the provider records through an
//! [`ObsContext`](crate::ObsContext).

use std::fmt::Display;
use std::sync::{Arc, OnceLock};

use crate::catalog::*;
use crate::metrics::{series_name, Counter, Gauge, Histogram, MetricsRegistry, Primitive};

/// Label values a [`Family`] over integers keeps a handle for; a larger
/// value registers through the registry on every recording.
pub const INDEXED_LABELS: usize = 64;

/// The label values of one series.
#[derive(Debug)]
enum Labels {
    None,
    Index(usize),
    Named(&'static str),
    Owned(String),
}

/// One catalog metric at fixed label values, registered on first use;
/// inert when built from a disabled context.
#[derive(Debug)]
pub struct Series<T: 'static> {
    metric: &'static Metric<T>,
    registry: Option<Arc<MetricsRegistry>>,
    labels: Labels,
    cell: OnceLock<Arc<T>>,
}

impl<T: Primitive> Series<T> {
    fn with_labels(
        metric: &'static Metric<T>,
        registry: Option<&Arc<MetricsRegistry>>,
        labels: Labels,
    ) -> Self {
        Series {
            metric,
            registry: registry.cloned(),
            labels,
            cell: OnceLock::new(),
        }
    }

    /// The unlabelled series `metric`, registered on first use.
    fn new(metric: &'static Metric<T>, registry: Option<&Arc<MetricsRegistry>>) -> Self {
        Self::with_labels(metric, registry, Labels::None)
    }

    /// The series `metric` at one label `value`, registered on first use.
    pub(crate) fn labeled(
        metric: &'static Metric<T>,
        registry: Option<&Arc<MetricsRegistry>>,
        value: impl Display,
    ) -> Self {
        Self::with_labels(metric, registry, Labels::Owned(value.to_string()))
    }

    #[inline]
    fn get(&self) -> Option<&T> {
        let registry = self.registry.as_ref()?;
        Some(self.cell.get_or_init(|| {
            let name = match &self.labels {
                Labels::None => series_name(self.metric, &[]),
                Labels::Index(i) => series_name(self.metric, &[i]),
                Labels::Named(v) => series_name(self.metric, &[v]),
                Labels::Owned(v) => series_name(self.metric, &[v]),
            };
            registry.register(name)
        }))
    }
}

impl Series<Counter> {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (registers the series even when `n` is 0).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(counter) = self.get() {
            counter.add(n);
        }
    }
}

impl Series<Gauge> {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(gauge) = self.get() {
            gauge.set(value);
        }
    }
}

impl Series<Histogram> {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(histogram) = self.get() {
            histogram.observe(value);
        }
    }
}

/// One [`Series`] per value of a metric's one label.
#[derive(Debug)]
pub struct Family<T: 'static> {
    metric: &'static Metric<T>,
    registry: Option<Arc<MetricsRegistry>>,
    slots: Box<[Series<T>]>,
}

/// A label value a [`Family`] is addressed by: an integer (silo id, LSR
/// level) or one of the catalog's fixed names.
pub trait LabelValue: Display + Copy {
    /// The slot of this value among `names` (the catalog's fixed values,
    /// empty for an integer label), if the family keeps one.
    fn slot(self, names: &[&str]) -> Option<usize>;
}

impl LabelValue for usize {
    #[inline]
    fn slot(self, names: &[&str]) -> Option<usize> {
        (names.is_empty() && self < INDEXED_LABELS).then_some(self)
    }
}

impl LabelValue for &str {
    #[inline]
    fn slot(self, names: &[&str]) -> Option<usize> {
        names.iter().position(|name| *name == self)
    }
}

impl<T: Primitive> Family<T> {
    fn new(metric: &'static Metric<T>, registry: Option<&Arc<MetricsRegistry>>) -> Self {
        let names = metric.def().values();
        let slots = if names.is_empty() {
            (0..INDEXED_LABELS)
                .map(|i| Series::with_labels(metric, registry, Labels::Index(i)))
                .collect()
        } else {
            names
                .iter()
                .map(|name| Series::with_labels(metric, registry, Labels::Named(name)))
                .collect()
        };
        Family {
            metric,
            registry: registry.cloned(),
            slots,
        }
    }

    #[inline]
    fn with(&self, value: impl LabelValue, record: impl FnOnce(&T)) {
        let Some(registry) = &self.registry else {
            return;
        };
        match value.slot(self.metric.def().values()) {
            Some(slot) => {
                if let Some(series) = self.slots[slot].get() {
                    record(series);
                }
            }
            None => record(&registry.series(self.metric, &[&value])),
        }
    }
}

impl Family<Counter> {
    /// Adds one to the series at `value`.
    #[inline]
    pub fn inc(&self, value: impl LabelValue) {
        self.add(value, 1);
    }

    /// Adds `n` to the series at `value`.
    #[inline]
    pub fn add(&self, value: impl LabelValue, n: u64) {
        self.with(value, |counter| counter.add(n));
    }
}

impl Family<Gauge> {
    /// Sets the series at `value`.
    #[inline]
    pub fn set(&self, value: impl LabelValue, to: f64) {
        self.with(value, |gauge| gauge.set(to));
    }
}

impl Family<Histogram> {
    /// Records one observation in the series at `value`.
    #[inline]
    pub fn observe(&self, value: impl LabelValue, observation: u64) {
        self.with(value, |histogram| histogram.observe(observation));
    }
}

macro_rules! metrics {
    ($($field:ident: $handle:ident<$kind:ident> = $metric:ident,)*) => {
        /// A handle for every metric the provider records through an
        /// [`ObsContext`](crate::ObsContext), named after its catalog entry.
        #[derive(Debug)]
        pub struct Metrics {
            $(
                #[doc = concat!("[`", stringify!($metric), "`].")]
                pub $field: $handle<$kind>,
            )*
        }

        impl Metrics {
            /// Builds every handle without registering a series; a
            /// disabled context passes `None` and every handle is inert.
            pub(crate) fn new(registry: Option<&Arc<MetricsRegistry>>) -> Self {
                Metrics {
                    $($field: $handle::new(&$metric, registry),)*
                }
            }
        }
    };
}

metrics! {
    batches: Series<Counter> = BATCHES_TOTAL,
    queries: Series<Counter> = QUERIES_TOTAL,
    query_failures: Series<Counter> = QUERY_FAILURES_TOTAL,
    query_rounds: Series<Histogram> = QUERY_ROUNDS,
    batch_wall_ns: Series<Histogram> = BATCH_WALL_NS,
    batch_mre: Series<Gauge> = BATCH_MRE,
    realized_error_ppm: Series<Histogram> = REALIZED_ERROR_PPM,
    span_ns: Family<Histogram> = SPAN_NS,
    plan_ready: Series<Counter> = PLAN_READY_TOTAL,
    plan_remote: Series<Counter> = PLAN_REMOTE_TOTAL,
    accuracy_epsilon: Series<Gauge> = ACCURACY_EPSILON,
    accuracy_delta: Series<Gauge> = ACCURACY_DELTA,
    sum0_count: Series<Histogram> = SUM0_COUNT,
    boundary_cells: Series<Histogram> = BOUNDARY_CELLS,
    lsr_level: Family<Counter> = LSR_LEVEL_TOTAL,
    lsr_rescale_factor: Series<Gauge> = LSR_RESCALE_FACTOR,
    silo_requests: Family<Counter> = SILO_REQUESTS_TOTAL,
    sampled_silo: Family<Counter> = SAMPLED_SILO_TOTAL,
    resamples: Series<Counter> = RESAMPLES_TOTAL,
    degraded: Series<Counter> = DEGRADED_TOTAL,
    degraded_answers: Series<Counter> = DEGRADED_ANSWERS_TOTAL,
    coverage_ppm: Series<Gauge> = COVERAGE_PPM,
    deadline_missed: Family<Counter> = DEADLINE_MISSED_TOTAL,
    retries: Series<Counter> = RETRIES_TOTAL,
    hedges_fired: Series<Counter> = HEDGES_FIRED_TOTAL,
    hedges_won: Series<Counter> = HEDGES_WON_TOTAL,
    breaker_skipped: Series<Counter> = BREAKER_SKIPPED_TOTAL,
    breaker_transitions: Family<Counter> = BREAKER_TRANSITIONS_TOTAL,
    breaker_state: Family<Gauge> = BREAKER_STATE,
    silo_latency_ewma_us: Family<Gauge> = SILO_LATENCY_EWMA_US,
    cache_hits: Series<Counter> = CACHE_HITS_TOTAL,
    cache_misses: Series<Counter> = CACHE_MISSES_TOTAL,
    shed_queue_full: Series<Counter> = SHED_QUEUE_FULL_TOTAL,
    shed_expired: Series<Counter> = SHED_EXPIRED_TOTAL,
    sched_queue_depth: Series<Gauge> = SCHED_QUEUE_DEPTH,
    sched_active: Series<Gauge> = SCHED_ACTIVE,
    sched_ticks: Series<Counter> = SCHED_TICKS_TOTAL,
    sched_frame_riders: Series<Histogram> = SCHED_FRAME_RIDERS,
    sched_queue_wait_ns: Series<Histogram> = SCHED_QUEUE_WAIT_NS,
    sched_latency_ns: Series<Histogram> = SCHED_LATENCY_NS,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_series_appears_on_its_first_recording() {
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = Metrics::new(Some(&registry));
        assert!(registry.snapshot().counters.is_empty());
        metrics.query_failures.add(0);
        metrics.silo_requests.add(3, 2);
        metrics.breaker_transitions.inc("half_open");
        metrics.span_ns.observe("plan", 900);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["fedra_query_failures_total"], 0);
        assert_eq!(snap.counters["fedra_silo_requests_total{silo=\"3\"}"], 2);
        assert_eq!(
            snap.counters["fedra_breaker_transitions_total{to=\"half_open\"}"],
            1
        );
        assert_eq!(snap.histograms["fedra_span_ns{name=\"plan\"}"].count, 1);
        assert_eq!(snap.counters.len() + snap.histograms.len(), 4);
    }

    #[test]
    fn values_outside_the_slots_still_record() {
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = Metrics::new(Some(&registry));
        metrics.silo_requests.inc(INDEXED_LABELS + 1);
        metrics.silo_requests.inc(INDEXED_LABELS + 1);
        metrics.span_ns.observe("gather", 5);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["fedra_silo_requests_total{silo=\"65\"}"], 2);
        assert_eq!(snap.histograms["fedra_span_ns{name=\"gather\"}"].count, 1);
    }

    #[test]
    fn a_disabled_handle_records_nothing() {
        let metrics = Metrics::new(None);
        metrics.queries.add(5);
        metrics.silo_requests.inc(2);
        metrics.span_ns.observe("plan", 1);
        let labeled = Series::labeled(&SHED_TOTAL, None, "rt");
        labeled.inc();
        assert!(labeled.get().is_none());
    }
}
