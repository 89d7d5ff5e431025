//! Exact-key answer caching for hot queries (extension beyond the paper).
//!
//! The paper's motivating workloads repeat themselves: the same "bikes
//! within 2 km of Zhongguancun station" question arrives many times a
//! minute during rush hour. [`AnswerCache`] wraps any [`FraAlgorithm`]
//! with a bounded, time-aware memo:
//!
//! * a cached answer serves a later query only when its range and
//!   function are bit-identical, so a hit returns exactly the bits the
//!   wrapped algorithm returned for that query;
//! * entries expire after a TTL — federated data is fleet telemetry, and
//!   a stale count is worse than a slow one past some age;
//! * capacity is bounded with least-recently-used eviction;
//! * the cache is thread-safe and works under the Alg. 4 batch engine;
//! * every hit/miss/eviction/expiration is counted in the cache's own
//!   [`MetricsRegistry`] and hits and misses are mirrored into the
//!   per-call [`ObsContext`].
//!
//! Caching changes the *freshness* semantics only: a hit is the answer
//! the wrapped algorithm gave, at most one TTL ago.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

use fedra_federation::Federation;
use fedra_geo::Range;
use fedra_index::AggFunc;
use fedra_obs::catalog::{
    CACHE_EVICTIONS_TOTAL, CACHE_EXPIRATIONS_TOTAL, CACHE_HITS_TOTAL, CACHE_MISSES_TOTAL,
};
use fedra_obs::{Counter, MetricsRegistry, ObsContext};

use crate::algorithm::{FraAlgorithm, QueryPlan};
use crate::query::{FraError, FraQuery, QueryResult};

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

/// Hit/miss counters (cumulative), assembled from the cache's registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that went through to the wrapped algorithm.
    pub misses: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries refreshed after TTL expiry.
    pub expirations: u64,
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
    result: QueryResult,
    inserted: Instant,
    /// The probe tick that last touched the entry, standing in for
    /// "recency" (LRU without a linked list: eviction scans for the
    /// minimum — capacity is modest and eviction rare, so O(n) eviction
    /// beats the bookkeeping). Every probe draws its own tick, so no two
    /// entries share one and the minimum is unique. Atomic so a *hit* can
    /// refresh recency under the shared read lock.
    last_used: AtomicU64,
}

/// The cache's entry map. Guarded by a reader-writer lock: hits — the
/// hot path under concurrent serving — share the read side, while only
/// inserts and evictions take the exclusive write side.
type CacheMap = HashMap<QueryKey, Entry, KeyHashBuilder>;

/// The cache's own series, registered when the cache is built.
struct CacheMetrics {
    registry: Arc<MetricsRegistry>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    expirations: Arc<Counter>,
}

impl CacheMetrics {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        Self {
            hits: registry.series(&CACHE_HITS_TOTAL, &[]),
            misses: registry.series(&CACHE_MISSES_TOTAL, &[]),
            evictions: registry.series(&CACHE_EVICTIONS_TOTAL, &[]),
            expirations: registry.series(&CACHE_EXPIRATIONS_TOTAL, &[]),
            registry,
        }
    }
}

/// An exact-key TTL + LRU caching wrapper around any FRA algorithm.
pub struct AnswerCache<A> {
    inner: A,
    config: CacheConfig,
    state: RwLock<CacheMap>,
    /// Probe counter feeding `Entry::last_used`; outside the lock so the
    /// hit path never needs exclusive access.
    tick: AtomicU64,
    metrics: CacheMetrics,
}

impl<A: FraAlgorithm> AnswerCache<A> {
    /// Wraps `inner` with the given bounds.
    pub fn new(inner: A, config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be positive");
        Self {
            inner,
            config,
            state: RwLock::new(HashMap::with_hasher(KeyHashBuilder)),
            tick: AtomicU64::new(0),
            metrics: CacheMetrics::new(),
        }
    }

    /// Wraps with defaults (4096 entries, 30 s TTL).
    pub fn with_defaults(inner: A) -> Self {
        Self::new(inner, CacheConfig::default())
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
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
        }
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (e.g. after a known fleet update).
    pub fn invalidate_all(&self) {
        self.state
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Inserts an entry, evicting the LRU entry first when at capacity.
    fn insert_bounded(&self, state: &mut CacheMap, key: QueryKey, entry: Entry) {
        if state.len() >= self.config.capacity && !state.contains_key(&key) {
            if let Some(victim) = state
                // Visit order cannot escape: every entry's tick is
                // distinct, so the minimum is unique.
                // fedra-lint: allow(determinism-discipline)
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
            {
                state.remove(&victim);
                self.metrics.evictions.inc();
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

    /// The one plan that answers a query by running one: a hit, or on a
    /// miss the wrapped algorithm's whole run, cached. Inside a batch or a
    /// scheduler tick the miss's run is a nested driver, so admission
    /// waits on it.
    fn plan_with(&self, federation: &Federation, query: &FraQuery, obs: &ObsContext) -> QueryPlan {
        QueryPlan::Ready(self.try_execute_with(federation, query, obs))
    }

    /// A hit, or the wrapped algorithm's own `try_execute_with`: a lone
    /// query runs one driver, not one nested in another.
    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let key = QueryKey::of(query);
        // The TTL is wall-clock by design; expiry only picks between
        // serving a cached answer and recomputing the identical bits,
        // never the answer's value.
        // fedra-lint: allow(determinism-discipline)
        let now = Instant::now();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;

        // Hits run entirely under the shared read lock — recency is
        // refreshed through the entry's atomic — so concurrent hits never
        // serialize on each other.
        {
            let state = self.state.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = state.get(&key) {
                if now.duration_since(entry.inserted) > self.config.ttl {
                    // Expiry is lazy: counted at detection, but the stale
                    // entry is left for the miss-path insert below to
                    // overwrite (or for LRU eviction) rather than paying a
                    // separate write-lock removal on the slow path.
                    self.metrics.expirations.inc();
                } else {
                    entry.last_used.store(tick, Ordering::Relaxed);
                    let result = entry.result;
                    drop(state);
                    self.metrics.hits.inc();
                    obs.metrics().cache_hits.inc();
                    return Ok(result);
                }
            }
        }

        self.metrics.misses.inc();
        obs.metrics().cache_misses.inc();

        // No lock is held across the (slow) federated query.
        let result = self.inner.try_execute_with(federation, query, obs)?;

        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        self.insert_bounded(
            &mut state,
            key,
            Entry {
                result,
                inserted: now,
                last_used: AtomicU64::new(tick),
            },
        );
        Ok(result)
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
        let engine = crate::framework::QueryEngine::per_silo(&cached, &fed);
        let batch = engine.execute_batch(&fed, &queries);
        assert_eq!(batch.failures(), 0);
        let stats = cached.stats();
        // The batch is answered in input order: each station's first ask
        // misses, and every later one hits.
        assert_eq!((stats.hits, stats.misses), (95, 5));
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
}
