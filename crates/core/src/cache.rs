//! ε-aware answer caching for hot queries (extension beyond the paper).
//!
//! The paper's motivating workloads repeat themselves: the same "bikes
//! within 2 km of Zhongguancun station" question arrives many times a
//! minute during rush hour, and a dashboard's city-wide tile refresh asks
//! overlapping rectangles forever. [`AnswerCache`] wraps any
//! [`FraAlgorithm`] with a bounded, time-aware memo keyed *semantically*:
//!
//! * a cached answer `(R₁, f, ε₁)` serves a later query `(R₂, f, ε₂)`
//!   when `R₂ == R₁` (bit-exact) and `ε₁ ≤ ε₂` — the ε-containment rule
//!   of [`crate::theory::epsilon_serves`];
//! * for the *linear* aggregates (COUNT/SUM/SUM_SQR) a rectangle `R₂` is
//!   also served by **containment decomposition**: when fresh cached
//!   fragments tile `R₂` exactly (pairwise interior-disjoint, union
//!   area == area(R₂)), their sum answers `R₂` with computed bound
//!   `max εᵢ` ([`crate::theory::containment_epsilon`]) — never assumed;
//! * entries expire after a TTL — federated data is fleet telemetry, and
//!   a stale count is worse than a slow one past some age. A decomposed
//!   answer inherits the *oldest* fragment's age, so reuse can only
//!   tighten freshness, never launder staleness;
//! * capacity is bounded with least-recently-used eviction;
//! * the cache is thread-safe and works under the Alg. 4 batch engine;
//! * every hit/miss/eviction/expiration and the serving level
//!   (exact vs decomposed) is counted in the cache's own
//!   [`MetricsRegistry`] and mirrored into the per-call [`ObsContext`].
//!
//! The default [`CachePolicy`] is the **degenerate mode**: producer ε = 0
//! and containment off, which is byte-identical-key caching.
//!
//! Caching changes the *freshness* semantics; the accuracy semantics are
//! explicit: a served answer's error bound is computed from the producer
//! bounds of what it was assembled from, and serving is refused whenever
//! that bound exceeds the requested ε.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use fedra_federation::Federation;
use fedra_geo::{Range, Rect};
use fedra_index::AggFunc;
use fedra_obs::metrics::Counter;
use fedra_obs::{MetricsRegistry, ObsContext};

use crate::algorithm::FraAlgorithm;
use crate::query::{FraError, FraQuery, QueryResult};
use crate::theory;

/// Cache configuration (bounds and freshness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of cached results.
    pub capacity: usize,
    /// Maximum age before an entry stops being served.
    pub ttl: Duration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            ttl: Duration::from_secs(30),
        }
    }
}

/// Accuracy policy of the cache: what ε freshly produced entries carry
/// and whether containment decomposition is attempted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePolicy {
    /// Relative-error bound ε₁ stamped on entries produced by the wrapped
    /// algorithm. `0.0` (the default) is the exact/degenerate mode; a
    /// cache over a sampling estimator should set the estimator's ε.
    pub producer_epsilon: f64,
    /// Attempt containment decomposition for COUNT/SUM/SUM_SQR rectangle
    /// queries. Off by default so the degenerate mode stays byte-exact.
    pub containment: bool,
}

impl Default for CachePolicy {
    fn default() -> Self {
        Self {
            producer_epsilon: 0.0,
            containment: false,
        }
    }
}

/// Hit/miss counters (cumulative), assembled from the cache's registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache (exact + decomposed).
    pub hits: u64,
    /// Queries that went through to the wrapped algorithm.
    pub misses: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries refreshed after TTL expiry.
    pub expirations: u64,
    /// Hits served by containment decomposition (subset of `hits`).
    pub decomposed: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when nothing was asked.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How a [`CacheAnswer`] was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// The wrapped algorithm ran (and the result was inserted).
    Miss,
    /// Served from a bit-identical range with a sufficient ε.
    ExactHit,
    /// Assembled from disjoint cached fragments tiling the range.
    DecomposedHit,
}

/// A cache-served answer with its computed accuracy bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheAnswer {
    /// The answer itself.
    pub result: QueryResult,
    /// The relative-error bound the answer carries: the producer ε on a
    /// miss or exact hit, `max εᵢ` over fragments on a decomposed hit.
    pub epsilon_bound: f64,
    /// Where the answer came from.
    pub source: CacheSource,
}

/// Bit-exact cache key for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct QueryKey {
    kind: u8,
    a: u64,
    b: u64,
    c: u64,
    d: u64,
    func: AggFunc,
}

impl QueryKey {
    fn of(query: &FraQuery) -> Self {
        match query.range {
            Range::Circle(circle) => Self {
                kind: 0,
                a: circle.center.x.to_bits(),
                b: circle.center.y.to_bits(),
                c: circle.radius.to_bits(),
                d: 0,
                func: query.func,
            },
            Range::Rect(rect) => Self {
                kind: 1,
                a: rect.min.x.to_bits(),
                b: rect.min.y.to_bits(),
                c: rect.max.x.to_bits(),
                d: rect.max.y.to_bits(),
                func: query.func,
            },
        }
    }

    /// Total order over keys for deterministic tie-breaking (eviction,
    /// fragment ordering). Hash-map iteration order must never decide
    /// anything observable; wherever map order could reach a result, the
    /// decision is settled by this key order instead.
    fn sort_key(&self) -> (u8, u64, u64, u64, u64, u8) {
        (self.kind, self.a, self.b, self.c, self.d, self.func as u8)
    }
}

/// Cheap fixed-width mixer for [`QueryKey`]: multiply-xor-rotate per
/// word with a splitmix64 finisher. The default SipHash costs more than
/// the rest of a cache probe combined on these 41-byte keys; keys are
/// built from our own query geometry (not untrusted input), so a
/// non-DoS-hardened hash is the right trade.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23);
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

#[derive(Debug, Clone, Default)]
struct KeyHashBuilder;

impl std::hash::BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::default()
    }
}

struct Entry {
    range: Range,
    func: AggFunc,
    result: QueryResult,
    /// The relative-error bound this entry's value carries.
    epsilon: f64,
    inserted: Instant,
    /// Monotone counter standing in for "recency" (LRU without a linked
    /// list: eviction scans for the minimum — capacity is modest and
    /// eviction rare, so O(n) eviction beats the bookkeeping). Atomic so
    /// a *hit* can refresh recency under the shared read lock; LRU order
    /// tolerates the relaxed racing (two concurrent hits both count as
    /// recent, whichever tick lands last).
    last_used: AtomicU64,
}

/// The cache's entry map. Guarded by a reader-writer lock: hits — the
/// hot path under concurrent serving — share the read side, while only
/// inserts, evictions and expiry removals take the exclusive write side.
type CacheMap = HashMap<QueryKey, Entry, KeyHashBuilder>;

/// The cache's own metric handles (names follow the PR 4/5 conventions).
struct CacheMetrics {
    registry: Arc<MetricsRegistry>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    expirations: Arc<Counter>,
    level_exact: Arc<Counter>,
    level_decomposed: Arc<Counter>,
}

impl CacheMetrics {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        Self {
            hits: registry.counter("fedra_cache_hits_total"),
            misses: registry.counter("fedra_cache_misses_total"),
            evictions: registry.counter("fedra_cache_evictions_total"),
            expirations: registry.counter("fedra_cache_expirations_total"),
            level_exact: registry.counter("fedra_cache_level_served_total{level=\"exact\"}"),
            level_decomposed: registry
                .counter("fedra_cache_level_served_total{level=\"decomposed\"}"),
            registry,
        }
    }
}

/// An ε-aware caching wrapper around any FRA algorithm.
pub struct AnswerCache<A> {
    inner: A,
    config: CacheConfig,
    policy: CachePolicy,
    state: RwLock<CacheMap>,
    /// Probe counter feeding `Entry::last_used`; outside the lock so the
    /// hit path never needs exclusive access.
    tick: AtomicU64,
    metrics: CacheMetrics,
}

impl<A: FraAlgorithm> AnswerCache<A> {
    /// Wraps `inner` with the given bounds and the degenerate (exact-key)
    /// policy.
    pub fn new(inner: A, config: CacheConfig) -> Self {
        Self::with_policy(inner, config, CachePolicy::default())
    }

    /// Wraps `inner` with explicit accuracy policy.
    pub fn with_policy(inner: A, config: CacheConfig, policy: CachePolicy) -> Self {
        assert!(config.capacity > 0, "cache capacity must be positive");
        assert!(
            policy.producer_epsilon >= 0.0 && policy.producer_epsilon.is_finite(),
            "producer epsilon must be finite and non-negative"
        );
        Self {
            inner,
            config,
            policy,
            state: RwLock::new(HashMap::with_hasher(KeyHashBuilder)),
            tick: AtomicU64::new(0),
            metrics: CacheMetrics::new(),
        }
    }

    /// Wraps with defaults (4096 entries, 30 s TTL, degenerate policy).
    pub fn with_defaults(inner: A) -> Self {
        Self::new(inner, CacheConfig::default())
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The accuracy policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// The bounds/freshness configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The cache's metric registry (`fedra_cache_*` counters).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics.registry)
    }

    /// Cumulative statistics, assembled from the registry counters.
    pub fn stats(&self) -> CacheStats {
        let m = &self.metrics;
        CacheStats {
            hits: m.hits.get(),
            misses: m.misses.get(),
            evictions: m.evictions.get(),
            expirations: m.expirations.get(),
            decomposed: m.level_decomposed.get(),
        }
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.state.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (e.g. after a known fleet update).
    pub fn invalidate_all(&self) {
        self.state.write().clear();
    }

    /// Executes with an explicit requested error budget ε₂, returning the
    /// answer together with its computed bound and provenance.
    ///
    /// Serving discipline: a cached answer is returned only when its own
    /// bound satisfies `ε₁ ≤ ε₂` ([`theory::epsilon_serves`]); a
    /// decomposed answer only when `max εᵢ ≤ ε₂`. A miss runs the wrapped
    /// algorithm and the answer carries the policy's producer ε — if that
    /// exceeds ε₂ the caller asked this stack for more accuracy than it
    /// is configured to give, which no cache decision can fix.
    pub fn try_execute_with_epsilon(
        &self,
        federation: &Federation,
        query: &FraQuery,
        epsilon: f64,
        obs: &ObsContext,
    ) -> Result<CacheAnswer, FraError> {
        assert!(
            epsilon >= 0.0 && epsilon.is_finite(),
            "requested epsilon must be finite and non-negative"
        );
        let key = QueryKey::of(query);
        // The TTL is wall-clock by design; expiry only picks between
        // serving a cached answer and recomputing the identical bits,
        // never the answer's value.
        // fedra-lint: allow(determinism-discipline)
        let now = Instant::now();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;

        // 1. Exact-range probe under the ε-containment rule. Hits run
        //    entirely under the shared read lock — recency is refreshed
        //    through the entry's atomic — so concurrent hits never
        //    serialize on each other.
        {
            let state = self.state.read();
            if let Some(entry) = state.get(&key) {
                if now.duration_since(entry.inserted) > self.config.ttl {
                    // Expiry is lazy: counted at detection, but the stale
                    // entry is left for the miss-path insert to overwrite
                    // (or for LRU eviction) rather than paying a separate
                    // write-lock removal on what is already the slow path.
                    // Decomposition and serving both re-check the TTL, so
                    // a lingering stale entry can never be served.
                    self.metrics.expirations.inc();
                } else if theory::epsilon_serves(entry.epsilon, epsilon) {
                    entry.last_used.store(tick, Ordering::Relaxed);
                    let (result, bound) = (entry.result, entry.epsilon);
                    drop(state);
                    self.metrics.hits.inc();
                    self.metrics.level_exact.inc();
                    obs.inc("fedra_cache_hits_total");
                    obs.inc("fedra_cache_level_served_total{level=\"exact\"}");
                    return Ok(CacheAnswer {
                        result,
                        epsilon_bound: bound,
                        source: CacheSource::ExactHit,
                    });
                }
                // Fresh but too loose: keep the entry (a looser later
                // query may still use it), treat this probe as a miss.
            }
        }

        // 2. Containment decomposition for linear aggregates over
        //    rectangles: a fresh disjoint tiling of R₂ answers it with
        //    bound max εᵢ. The search runs under the read lock; only the
        //    memoization insert takes the write side.
        if self.policy.containment {
            let decomposition = {
                let state = self.state.read();
                let found = self.decompose(&state, query, epsilon, now);
                if let Some((_, _, _, fragments)) = &found {
                    for frag_key in fragments {
                        if let Some(entry) = state.get(frag_key) {
                            entry.last_used.store(tick, Ordering::Relaxed);
                        }
                    }
                }
                found
            };
            if let Some((aggregate, bound, oldest, _)) = decomposition {
                let result = QueryResult::from_aggregate(aggregate, query.func);
                // Memoize the assembly so repeats are exact hits; it
                // ages from its *oldest* fragment, never fresher.
                let mut state = self.state.write();
                Self::insert_bounded(
                    &mut state,
                    &self.metrics,
                    self.config.capacity,
                    key,
                    Entry {
                        range: query.range,
                        func: query.func,
                        result,
                        epsilon: bound,
                        inserted: oldest,
                        last_used: AtomicU64::new(tick),
                    },
                );
                drop(state);
                self.metrics.hits.inc();
                self.metrics.level_decomposed.inc();
                obs.inc("fedra_cache_hits_total");
                obs.inc("fedra_cache_level_served_total{level=\"decomposed\"}");
                return Ok(CacheAnswer {
                    result,
                    epsilon_bound: bound,
                    source: CacheSource::DecomposedHit,
                });
            }
        }

        self.metrics.misses.inc();
        obs.inc("fedra_cache_misses_total");

        // No lock is held across the (slow) federated query.
        let result = self.inner.try_execute_with(federation, query, obs)?;

        let mut state = self.state.write();
        Self::insert_bounded(
            &mut state,
            &self.metrics,
            self.config.capacity,
            key,
            Entry {
                range: query.range,
                func: query.func,
                result,
                epsilon: self.policy.producer_epsilon,
                inserted: now,
                last_used: AtomicU64::new(tick),
            },
        );
        Ok(CacheAnswer {
            result,
            epsilon_bound: self.policy.producer_epsilon,
            source: CacheSource::Miss,
        })
    }

    /// Attempts a containment decomposition of `query.range` from fresh
    /// cached fragments. Returns the summed aggregate, its computed
    /// bound, the oldest fragment's insertion time, and the fragment
    /// keys.
    ///
    /// Only the linear aggregates decompose: COUNT/SUM/SUM_SQR of a
    /// disjoint union is the sum of the parts. AVG/STDEV are ratios and
    /// are never assembled. Candidate fragments must be rectangles fully
    /// inside `R₂` with a sufficient ε; a greedy sweep in (min.y, min.x)
    /// order keeps the first interior-disjoint subset and accepts only if
    /// its area adds up to `R₂`'s exactly (within relative 1e-9) — with
    /// pairwise-disjoint interiors and containment, matching areas imply
    /// an exact tiling up to measure zero, the same edge-grazing
    /// convention the planner's boundary weighting uses.
    ///
    /// Measure-zero caveat: ranges are closed rectangles, so an object
    /// lying *exactly* on a shared interior edge is counted by both
    /// adjacent fragments and would be double-counted by the assembly.
    /// Decomposition therefore assumes data in general position (no mass
    /// concentrated on fragment boundaries) — true almost surely for
    /// continuous coordinates, and the convention grid binning already
    /// uses.
    fn decompose(
        &self,
        state: &CacheMap,
        query: &FraQuery,
        epsilon: f64,
        now: Instant,
    ) -> Option<(fedra_index::Aggregate, f64, Instant, Vec<QueryKey>)> {
        if !matches!(query.func, AggFunc::Count | AggFunc::Sum | AggFunc::SumSqr) {
            return None;
        }
        let Range::Rect(target) = query.range else {
            return None;
        };
        let target_area = target.area();
        if !(target_area > 0.0) {
            return None;
        }

        let mut candidates: Vec<(Rect, &Entry, QueryKey)> = state
            // Visit order feeds the total-order sort below; nothing
            // order-dependent escapes.
            // fedra-lint: allow(determinism-discipline)
            .iter()
            .filter_map(|(k, e)| {
                if e.func != query.func
                    || !theory::epsilon_serves(e.epsilon, epsilon)
                    || now.duration_since(e.inserted) > self.config.ttl
                {
                    return None;
                }
                match e.range {
                    Range::Rect(r) if target.contains_rect(&r) && r.area() > 0.0 => {
                        Some((r, e, *k))
                    }
                    _ => None,
                }
            })
            .collect();
        // Total order: `total_cmp` (no NaN/-0.0 input-order fallback) plus
        // a key tie-break so coincident rects resolve identically no
        // matter what insertion history the map accumulated.
        candidates.sort_by(|(a, _, ka), (b, _, kb)| {
            a.min
                .y
                .total_cmp(&b.min.y)
                .then(a.min.x.total_cmp(&b.min.x))
                .then(a.max.y.total_cmp(&b.max.y))
                .then(a.max.x.total_cmp(&b.max.x))
                .then(ka.sort_key().cmp(&kb.sort_key()))
        });

        let mut taken: Vec<(Rect, &Entry, QueryKey)> = Vec::new();
        let mut covered = 0.0f64;
        for (rect, entry, k) in candidates {
            let disjoint = taken.iter().all(|(t, _, _)| {
                rect.min.x >= t.max.x
                    || rect.max.x <= t.min.x
                    || rect.min.y >= t.max.y
                    || rect.max.y <= t.min.y
            });
            if disjoint {
                covered += rect.area();
                taken.push((rect, entry, k));
            }
        }
        if taken.is_empty() || (covered - target_area).abs() > target_area * 1e-9 {
            return None;
        }
        let mut aggregate = fedra_index::Aggregate::ZERO;
        for (_, e, _) in &taken {
            aggregate.merge_in(&e.result.aggregate);
        }
        let bound = theory::containment_epsilon(
            &taken.iter().map(|(_, e, _)| e.epsilon).collect::<Vec<_>>(),
        );
        if !theory::epsilon_serves(bound, epsilon) {
            return None;
        }
        let oldest = taken
            .iter()
            .map(|(_, e, _)| e.inserted)
            .min()
            .unwrap_or(now);
        let keys = taken.iter().map(|(_, _, k)| *k).collect();
        Some((aggregate, bound, oldest, keys))
    }

    /// Inserts an entry, evicting the LRU entry first when at capacity.
    fn insert_bounded(
        state: &mut CacheMap,
        metrics: &CacheMetrics,
        capacity: usize,
        key: QueryKey,
        entry: Entry,
    ) {
        if state.len() >= capacity && !state.contains_key(&key) {
            // Ties on `last_used` do happen (fragment touches and memoized
            // inserts share a tick); break them by key order so the victim
            // never depends on hash-map iteration order.
            if let Some(victim) = state
                // Visit order cannot escape: the min below is total-ordered.
                // fedra-lint: allow(determinism-discipline)
                .iter()
                .min_by_key(|(k, e)| (e.last_used.load(Ordering::Relaxed), k.sort_key()))
                .map(|(k, _)| *k)
            {
                state.remove(&victim);
                metrics.evictions.inc();
            }
        }
        state.insert(key, entry);
    }
}

impl<A: FraAlgorithm> FraAlgorithm for AnswerCache<A> {
    fn name(&self) -> &'static str {
        // The cache is transparent: report the wrapped algorithm.
        self.inner.name()
    }

    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        // The implicit budget is the producer ε itself: entries may serve
        // their own accuracy class. With the default policy that is ε = 0
        // — byte-identical keys only, the old degenerate behavior.
        self.try_execute_with_epsilon(federation, query, self.policy.producer_epsilon, obs)
            .map(|answer| answer.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::Exact;
    use crate::sampling::NonIidEst;
    use fedra_federation::FederationBuilder;
    use fedra_geo::{Point, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;

    fn federation() -> Federation {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        // Data in general position: offsets keep objects off the tile
        // boundaries the decomposition tests use (multiples of 20), per
        // the measure-zero convention documented on `decompose`.
        let partitions: Vec<Vec<SpatialObject>> = (0..3)
            .map(|k| {
                (0..500)
                    .map(|i| {
                        SpatialObject::at(
                            (i % 25) as f64 * 3.9 + 0.3,
                            (i / 25) as f64 * 4.9 + 0.7,
                            k as f64 + 1.0,
                        )
                    })
                    .collect()
            })
            .collect();
        FederationBuilder::new(bounds)
            .grid_cell_len(10.0)
            .histogram_config(MinSkewConfig {
                resolution: 8,
                budget: 8,
            })
            .build(partitions)
    }

    fn q(x: f64) -> FraQuery {
        FraQuery::circle(Point::new(x, 50.0), 10.0, AggFunc::Count)
    }

    #[test]
    fn repeated_queries_hit_and_skip_communication() {
        let fed = federation();
        let cached = AnswerCache::with_defaults(Exact::new());
        let first = cached.execute(&fed, &q(50.0));
        fed.reset_query_comm();
        for _ in 0..10 {
            let again = cached.execute(&fed, &q(50.0));
            assert_eq!(again.value, first.value);
        }
        assert_eq!(fed.query_comm().rounds, 0, "hits must not touch silos");
        let stats = cached.stats();
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.misses, 1);
        assert!(stats.hit_rate() > 0.9);
    }

    #[test]
    fn different_queries_do_not_collide() {
        let fed = federation();
        let cached = AnswerCache::with_defaults(Exact::new());
        let a = cached.execute(&fed, &q(30.0));
        let b = cached.execute(&fed, &q(70.0));
        // Same radius/function, different centers — separate entries.
        assert_eq!(cached.len(), 2);
        let a2 = cached.execute(&fed, &q(30.0));
        assert_eq!(a.value, a2.value);
        let _ = b;
        // Same center, different function — also separate.
        let c = FraQuery::circle(Point::new(30.0, 50.0), 10.0, AggFunc::Sum);
        cached.execute(&fed, &c);
        assert_eq!(cached.len(), 3);
    }

    #[test]
    fn ttl_expiry_refreshes_entries() {
        let fed = federation();
        let cached = AnswerCache::new(
            Exact::new(),
            CacheConfig {
                capacity: 16,
                ttl: Duration::from_millis(0), // everything expires at once
            },
        );
        cached.execute(&fed, &q(50.0));
        cached.execute(&fed, &q(50.0));
        let stats = cached.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.expirations, 1);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let fed = federation();
        let cached = AnswerCache::new(
            Exact::new(),
            CacheConfig {
                capacity: 2,
                ttl: Duration::from_secs(60),
            },
        );
        cached.execute(&fed, &q(10.0)); // A
        cached.execute(&fed, &q(20.0)); // B
        cached.execute(&fed, &q(10.0)); // touch A → B is LRU
        cached.execute(&fed, &q(30.0)); // C evicts B
        assert_eq!(cached.len(), 2);
        assert_eq!(cached.stats().evictions, 1);
        fed.reset_query_comm();
        cached.execute(&fed, &q(10.0)); // still cached
        assert_eq!(fed.query_comm().rounds, 0);
        cached.execute(&fed, &q(20.0)); // evicted → miss → silo contact
        assert!(fed.query_comm().rounds > 0);
    }

    #[test]
    fn invalidate_all_clears_entries() {
        let fed = federation();
        let cached = AnswerCache::with_defaults(NonIidEst::new(7));
        cached.execute(&fed, &q(40.0));
        assert!(!cached.is_empty());
        cached.invalidate_all();
        assert!(cached.is_empty());
        fed.reset_query_comm();
        cached.execute(&fed, &q(40.0));
        assert!(fed.query_comm().rounds > 0, "post-invalidation is a miss");
    }

    #[test]
    fn cache_works_under_the_batch_engine() {
        let fed = federation();
        let cached = AnswerCache::with_defaults(Exact::new());
        // A burst with heavy repetition: 5 hot stations × 20 asks.
        let queries: Vec<FraQuery> = (0..100).map(|i| q((i % 5) as f64 * 10.0 + 10.0)).collect();
        let engine = crate::framework::QueryEngine::with_workers(&cached, 4);
        let batch = engine.execute_batch(&fed, &queries);
        assert_eq!(batch.failures(), 0);
        let stats = cached.stats();
        assert_eq!(stats.hits + stats.misses, 100);
        // At least the non-first ask of each station hits (racing workers
        // may duplicate a few first asks).
        assert!(stats.hits >= 90, "hits {}", stats.hits);
        // All answers for one station agree.
        let station0: Vec<f64> = queries
            .iter()
            .zip(batch.results.iter())
            .filter(|(qq, _)| qq.range == q(10.0).range)
            .map(|(_, r)| r.as_ref().unwrap().value)
            .collect();
        assert!(station0.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        AnswerCache::new(
            Exact::new(),
            CacheConfig {
                capacity: 0,
                ttl: Duration::from_secs(1),
            },
        );
    }

    #[test]
    fn tighter_epsilon_serves_looser_but_never_the_reverse() {
        let fed = federation();
        // Producer ε = 0.05: entries serve budgets ≥ 0.05 only.
        let cached = AnswerCache::with_policy(
            Exact::new(),
            CacheConfig::default(),
            CachePolicy {
                producer_epsilon: 0.05,
                containment: false,
            },
        );
        let obs = ObsContext::noop();
        let query = q(50.0);
        let first = cached
            .try_execute_with_epsilon(&fed, &query, 0.05, obs)
            .unwrap();
        assert_eq!(first.source, CacheSource::Miss);
        assert_eq!(first.epsilon_bound, 0.05);

        // Looser budget: served.
        let loose = cached
            .try_execute_with_epsilon(&fed, &query, 0.10, obs)
            .unwrap();
        assert_eq!(loose.source, CacheSource::ExactHit);
        assert_eq!(loose.result.value, first.result.value);
        assert!(loose.epsilon_bound <= 0.10);

        // Tighter budget: the fresh entry must NOT serve.
        let tight = cached
            .try_execute_with_epsilon(&fed, &query, 0.01, obs)
            .unwrap();
        assert_eq!(tight.source, CacheSource::Miss);
        // And the refusal did not expire the entry.
        assert_eq!(cached.len(), 1);
    }

    #[test]
    fn containment_decomposition_serves_the_union_exactly() {
        let fed = federation();
        let cached = AnswerCache::with_policy(
            Exact::new(),
            CacheConfig::default(),
            CachePolicy {
                producer_epsilon: 0.0,
                containment: true,
            },
        );
        let obs = ObsContext::noop();
        // Four disjoint tiles of [20,60]×[20,60].
        let tiles = [
            (20.0, 20.0, 40.0, 40.0),
            (40.0, 20.0, 60.0, 40.0),
            (20.0, 40.0, 40.0, 60.0),
            (40.0, 40.0, 60.0, 60.0),
        ];
        for &(x0, y0, x1, y1) in &tiles {
            let tile = FraQuery::rect(Point::new(x0, y0), Point::new(x1, y1), AggFunc::Count);
            let a = cached
                .try_execute_with_epsilon(&fed, &tile, 0.0, obs)
                .unwrap();
            assert_eq!(a.source, CacheSource::Miss);
        }
        fed.reset_query_comm();
        let union = FraQuery::rect(
            Point::new(20.0, 20.0),
            Point::new(60.0, 60.0),
            AggFunc::Count,
        );
        let served = cached
            .try_execute_with_epsilon(&fed, &union, 0.0, obs)
            .unwrap();
        assert_eq!(served.source, CacheSource::DecomposedHit);
        assert_eq!(served.epsilon_bound, 0.0, "exact fragments compose exactly");
        assert_eq!(fed.query_comm().rounds, 0, "decomposition is silo-free");
        let truth = Exact::new().execute(&fed, &union).value;
        assert_eq!(served.result.value, truth, "exact tiling must be exact");
        assert_eq!(cached.stats().decomposed, 1);

        // The assembly was memoized: the repeat is an exact hit.
        let again = cached
            .try_execute_with_epsilon(&fed, &union, 0.0, obs)
            .unwrap();
        assert_eq!(again.source, CacheSource::ExactHit);
        assert_eq!(again.result.value, truth);
    }

    #[test]
    fn partial_covers_never_decompose() {
        let fed = federation();
        let cached = AnswerCache::with_policy(
            Exact::new(),
            CacheConfig::default(),
            CachePolicy {
                producer_epsilon: 0.0,
                containment: true,
            },
        );
        let obs = ObsContext::noop();
        // Three of four tiles: the union must MISS, not serve short.
        for &(x0, y0, x1, y1) in &[
            (20.0, 20.0, 40.0, 40.0),
            (40.0, 20.0, 60.0, 40.0),
            (20.0, 40.0, 40.0, 60.0),
        ] {
            let tile = FraQuery::rect(Point::new(x0, y0), Point::new(x1, y1), AggFunc::Count);
            cached
                .try_execute_with_epsilon(&fed, &tile, 0.0, obs)
                .unwrap();
        }
        let union = FraQuery::rect(
            Point::new(20.0, 20.0),
            Point::new(60.0, 60.0),
            AggFunc::Count,
        );
        let served = cached
            .try_execute_with_epsilon(&fed, &union, 0.0, obs)
            .unwrap();
        assert_eq!(served.source, CacheSource::Miss);
    }

    #[test]
    fn overlapping_fragments_never_double_count() {
        let fed = federation();
        let cached = AnswerCache::with_policy(
            Exact::new(),
            CacheConfig::default(),
            CachePolicy {
                producer_epsilon: 0.0,
                containment: true,
            },
        );
        let obs = ObsContext::noop();
        // Two overlapping halves plus the exact tiles: the greedy sweep
        // must pick a disjoint subset or refuse — never sum an overlap.
        for &(x0, y0, x1, y1) in &[
            (20.0, 20.0, 45.0, 60.0), // overlaps the next one
            (40.0, 20.0, 60.0, 60.0),
        ] {
            let tile = FraQuery::rect(Point::new(x0, y0), Point::new(x1, y1), AggFunc::Count);
            cached
                .try_execute_with_epsilon(&fed, &tile, 0.0, obs)
                .unwrap();
        }
        let union = FraQuery::rect(
            Point::new(20.0, 20.0),
            Point::new(60.0, 60.0),
            AggFunc::Count,
        );
        let served = cached
            .try_execute_with_epsilon(&fed, &union, 0.0, obs)
            .unwrap();
        // The two overlapping rects cannot tile the union exactly, so
        // this must be a miss with the true value.
        assert_eq!(served.source, CacheSource::Miss);
        let truth = Exact::new().execute(&fed, &union).value;
        assert_eq!(served.result.value, truth);
    }

    #[test]
    fn ratio_aggregates_never_decompose() {
        let fed = federation();
        let cached = AnswerCache::with_policy(
            Exact::new(),
            CacheConfig::default(),
            CachePolicy {
                producer_epsilon: 0.0,
                containment: true,
            },
        );
        let obs = ObsContext::noop();
        for &(x0, x1) in &[(20.0, 40.0), (40.0, 60.0)] {
            let tile = FraQuery::rect(Point::new(x0, 20.0), Point::new(x1, 60.0), AggFunc::Avg);
            cached
                .try_execute_with_epsilon(&fed, &tile, 0.0, obs)
                .unwrap();
        }
        let union = FraQuery::rect(Point::new(20.0, 20.0), Point::new(60.0, 60.0), AggFunc::Avg);
        let served = cached
            .try_execute_with_epsilon(&fed, &union, 0.0, obs)
            .unwrap();
        assert_eq!(
            served.source,
            CacheSource::Miss,
            "AVG must not be assembled"
        );
    }

    #[test]
    fn every_served_answer_satisfies_the_requested_epsilon() {
        // Property: across a mixed workload, |served − truth| ≤ ε·truth
        // for every cache-served answer.
        let fed = federation();
        let cached = AnswerCache::with_policy(
            Exact::new(),
            CacheConfig::default(),
            CachePolicy {
                producer_epsilon: 0.0,
                containment: true,
            },
        );
        let obs = ObsContext::noop();
        let exact = Exact::new();
        let mut queries = Vec::new();
        for gx in 0..4 {
            for gy in 0..4 {
                let (x0, y0) = (gx as f64 * 20.0, gy as f64 * 20.0);
                queries.push(FraQuery::rect(
                    Point::new(x0, y0),
                    Point::new(x0 + 20.0, y0 + 20.0),
                    AggFunc::Sum,
                ));
            }
        }
        // Unions of tile blocks, then repeats of everything.
        queries.push(FraQuery::rect(
            Point::new(0.0, 0.0),
            Point::new(40.0, 40.0),
            AggFunc::Sum,
        ));
        queries.push(FraQuery::rect(
            Point::new(0.0, 0.0),
            Point::new(80.0, 80.0),
            AggFunc::Sum,
        ));
        let repeats: Vec<FraQuery> = queries.clone();
        queries.extend(repeats);

        let epsilon = 0.05;
        let mut served = 0;
        for query in &queries {
            let answer = cached
                .try_execute_with_epsilon(&fed, query, epsilon, obs)
                .unwrap();
            if answer.source != CacheSource::Miss {
                served += 1;
                let truth = exact.execute(&fed, query).value;
                assert!(
                    (answer.result.value - truth).abs() <= epsilon * truth.abs() + 1e-9,
                    "served {} vs truth {truth} violates ε = {epsilon}",
                    answer.result.value
                );
                assert!(answer.epsilon_bound <= epsilon);
            }
        }
        assert!(served > 10, "workload must exercise serving ({served})");
    }
}
