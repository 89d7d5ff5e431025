//! Atomic metric primitives and the registry that names them.
//!
//! Counters and gauges are single atomics; histograms use log₂ buckets
//! (bucket `i` holds observations in `(2^(i-1), 2^i]`, bucket 0 holds 0
//! and 1, the last bucket is +Inf) so a 65-slot array covers the full
//! `u64` range — good enough for nanosecond latencies and byte sizes
//! without configuring bounds per metric.
//!
//! A series is a [`Metric`] from the catalog plus its label values,
//! rendered Prometheus-style into one name, e.g.
//! `fedra_silo_requests_total{silo="3"}`. The registry is a flat
//! string-keyed map, which keeps snapshots and exporters trivial and
//! deterministic (BTreeMap order). A series exists from the moment it is
//! registered; hot paths hold the `Arc` and never look a name up.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::catalog::{Kind, Metric};

/// Number of histogram buckets: 64 powers of two plus a +Inf bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge storing an `f64` (as raw bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Bucket index for an observation: 0 for values ≤ 1, otherwise
/// `ceil(log2(value))` — so bucket `i` spans `(2^(i-1), 2^i]`.
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        (64 - (value - 1).leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i`, or `None` for the +Inf bucket.
pub fn bucket_upper_bound(index: usize) -> Option<u64> {
    if index >= HISTOGRAM_BUCKETS - 1 {
        None
    } else {
        Some(1u64 << index)
    }
}

/// A log₂-bucketed histogram over `u64` observations (latencies in
/// nanoseconds, byte sizes, item counts…).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Per-bucket (non-cumulative) observation counts, one slot per
    /// [`HISTOGRAM_BUCKETS`] bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Iterates non-empty buckets as `(upper_bound, count)` pairs; the
    /// +Inf bucket reports `None` as its bound.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
    }

    /// Estimates the value at quantile `q` (clamped to `0.0..=1.0`) by
    /// rank over the log₂ buckets, linearly interpolated inside the
    /// containing bucket — the classic Prometheus `histogram_quantile`
    /// scheme, so the estimate is exact at bucket boundaries and at
    /// worst one bucket (a factor of two) wide in between.
    ///
    /// Returns `None` for an empty snapshot. Ranks landing in the +Inf
    /// bucket report its lower bound (`2^63`), the only honest answer a
    /// bounded array can give.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || self.buckets.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the target observation under the usual
        // nearest-rank definition; q = 0 maps to the first observation.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = match bucket_upper_bound(i) {
                    Some(u) => u,
                    // +Inf bucket: no finite width to interpolate over.
                    None => return Some(lower),
                };
                let frac = (rank - seen) as f64 / c as f64;
                let width = (upper - lower) as f64;
                return Some(lower + (frac * width).round() as u64);
            }
            seen += c;
        }
        // count > 0 guarantees some bucket is non-empty, so the loop
        // always returns; this arm only guards a torn snapshot.
        None
    }

    /// Median estimate; see [`HistogramSnapshot::quantile`].
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate; see [`HistogramSnapshot::quantile`].
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate; see [`HistogramSnapshot::quantile`].
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// A metric primitive a [`Metric`] can be declared over: [`Counter`],
/// [`Gauge`] or [`Histogram`].
pub trait Primitive: Default + Send + Sync + 'static + sealed::Sealed {
    /// The kind the exporter announces for it.
    const KIND: Kind;
}

mod sealed {
    use super::*;

    pub trait Sealed: Sized {
        fn map(registry: &MetricsRegistry) -> &Mutex<BTreeMap<String, Arc<Self>>>;
    }

    impl Sealed for Counter {
        fn map(registry: &MetricsRegistry) -> &Mutex<BTreeMap<String, Arc<Self>>> {
            &registry.counters
        }
    }

    impl Sealed for Gauge {
        fn map(registry: &MetricsRegistry) -> &Mutex<BTreeMap<String, Arc<Self>>> {
            &registry.gauges
        }
    }

    impl Sealed for Histogram {
        fn map(registry: &MetricsRegistry) -> &Mutex<BTreeMap<String, Arc<Self>>> {
            &registry.histograms
        }
    }
}

impl Primitive for Counter {
    const KIND: Kind = Kind::Counter;
}

impl Primitive for Gauge {
    const KIND: Kind = Kind::Gauge;
}

impl Primitive for Histogram {
    const KIND: Kind = Kind::Histogram;
}

/// The series name of `metric` at `labels`, one value per label key in
/// declaration order: `fedra_x_total{silo="3",kind="ping"}`.
pub(crate) fn series_name<T>(metric: &Metric<T>, labels: &[&dyn Display]) -> String {
    let keys = metric.def().labels();
    debug_assert_eq!(
        keys.len(),
        labels.len(),
        "{}: label arity",
        metric.def().name()
    );
    let mut name = metric.def().name().to_string();
    for (i, (key, value)) in keys.iter().zip(labels).enumerate() {
        name.push(if i == 0 { '{' } else { ',' });
        let _ = write!(name, "{key}=\"{value}\"");
    }
    if !keys.is_empty() {
        name.push('}');
    }
    name
}

/// A registry of counters, gauges and histograms, keyed by series name.
///
/// A series appears in snapshots once registered: a silo registers its
/// counters up front, a context's [`Series`](crate::Series) on first use.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or registers the series of `metric` at `labels` (one value
    /// per declared label key).
    pub fn series<T: Primitive>(&self, metric: &Metric<T>, labels: &[&dyn Display]) -> Arc<T> {
        self.register(series_name(metric, labels))
    }

    /// Gets or registers the series named `name`.
    pub(crate) fn register<T: Primitive>(&self, name: String) -> Arc<T> {
        let mut map = T::map(self).lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name).or_default())
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], with deterministic
/// (sorted) iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 63);
    }

    #[test]
    fn bucket_bounds_cover_range() {
        assert_eq!(bucket_upper_bound(0), Some(1));
        assert_eq!(bucket_upper_bound(10), Some(1024));
        assert_eq!(bucket_upper_bound(63), Some(1u64 << 63));
        assert_eq!(bucket_upper_bound(64), None);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 2); // 0 and 1
        assert_eq!(snap.buckets[1], 1); // 2
        assert_eq!(snap.buckets[2], 2); // 3 and 4
        assert_eq!(snap.buckets[10], 1); // 1000
        assert_eq!(snap.nonzero_buckets().count(), 4);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::default();
        // 100 observations of exactly 1024 (bucket 10, bounds (512, 1024]).
        for _ in 0..100 {
            h.observe(1024);
        }
        let snap = h.snapshot();
        // All ranks land in bucket 10; interpolation spans (512, 1024].
        assert_eq!(snap.quantile(1.0), Some(1024));
        assert_eq!(snap.p50(), Some(768)); // midpoint of the bucket
        assert!(snap.p95() > snap.p50());
        assert!(snap.p99() >= snap.p95());
    }

    #[test]
    fn quantile_orders_across_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(100); // bucket 7, (64, 128]
        }
        for _ in 0..10 {
            h.observe(10_000); // bucket 14, (8192, 16384]
        }
        let snap = h.snapshot();
        let p50 = snap.p50().unwrap();
        let p95 = snap.p95().unwrap();
        let p99 = snap.p99().unwrap();
        assert!((64..=128).contains(&p50), "p50 = {p50}");
        assert!((8192..=16384).contains(&p95), "p95 = {p95}");
        assert!(p99 >= p95);
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);

        let h = Histogram::default();
        h.observe(u64::MAX); // +Inf bucket
        assert_eq!(h.snapshot().quantile(0.5), Some(1u64 << 63));

        // Bucket 0 pools {0, 1}; the interpolated estimate is its
        // upper bound.
        let h = Histogram::default();
        h.observe(0);
        assert_eq!(h.snapshot().quantile(0.0), Some(1));
        // Out-of-range q clamps instead of panicking.
        assert!(h.snapshot().quantile(7.0).is_some());
        assert!(h.snapshot().quantile(-1.0).is_some());
    }

    #[test]
    fn registry_reuses_series_and_renders_labels() {
        use crate::catalog::{SCHED_TICKS_TOTAL, SILO_REQUESTS_BY_KIND_TOTAL};
        let reg = MetricsRegistry::new();
        let a = reg.series(&SCHED_TICKS_TOTAL, &[]);
        let b = reg.series(&SCHED_TICKS_TOTAL, &[]);
        a.add(2);
        b.inc();
        assert_eq!(reg.series(&SCHED_TICKS_TOTAL, &[]).get(), 3);
        reg.series(&SILO_REQUESTS_BY_KIND_TOTAL, &[&3, &"ping"])
            .inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["fedra_sched_ticks_total"], 3);
        assert_eq!(
            snap.counters["fedra_silo_requests_total{silo=\"3\",kind=\"ping\"}"],
            1
        );
    }
}
