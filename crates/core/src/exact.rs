//! The EXACT baseline: fan out to every silo, sum exact partial answers.
//!
//! This is the conventional federated implementation the paper compares
//! against (Sec. 8.1, "EXACT [2]"): for a query `Q(S, R, F)` the provider
//! sends the local query to **all** `m` silos, each answers exactly from
//! its aggregate R-tree in O(log n_{s_i}), and the provider merges the
//! partial aggregates. Correct by construction, but it pays `m` rounds of
//! communication per query and keeps every silo busy with every query —
//! which is exactly what caps its throughput.

use fedra_federation::{Federation, LocalMode, Request, Response};
use fedra_index::Aggregate;
use fedra_obs::{labeled, ObsContext, Span};

use crate::algorithm::{degrade_fanout, note_coverage, FraAlgorithm};
use crate::query::{FraError, FraQuery, QueryResult};

/// The fan-out query EXACT, EXACT-seq and OPTA share ([`FanOut::run`]),
/// named by how it reaches the `m` silos.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FanOut {
    /// [`Federation::broadcast`]: the frame is begun on every channel
    /// before any reply is awaited, so the persistent silo workers answer
    /// concurrently without a thread spawned per query (mirroring the
    /// paper's multi-threaded setup, minus the threads).
    Broadcast,
    /// One blocking call per silo, in id order; a fatal error stops the
    /// walk before the remaining silos are contacted.
    Sequential,
}

impl FanOut {
    /// Sends `request` to all `m` silos, merges the `Agg` partials in
    /// silo-id order, and — under `DegradePolicy::Partial` — fills an
    /// unreachable silo's share from its `g_k` instead of failing the
    /// query.
    pub(crate) fn run(
        self,
        name: &'static str,
        request: &Request,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let trace = obs.start_trace("query", name);
        let m = federation.num_silos();
        if obs.is_enabled() {
            for k in 0..m {
                obs.inc(&labeled("fedra_silo_requests_total", "silo", k));
            }
        }
        let policy = federation.degrade_policy();
        let outcome = (|| {
            let _fanout = Span::enter(
                &trace,
                match self {
                    FanOut::Broadcast => "fanout",
                    FanOut::Sequential => "sequential-fanout",
                },
            );
            let mut total = Aggregate::ZERO;
            let mut responding = Vec::new();
            let mut missing = Vec::new();
            let mut take = |k, partial| {
                match partial {
                    Ok(Response::Agg(a)) => {
                        total.merge_in(&a);
                        responding.push(k);
                    }
                    Ok(_) => {
                        return Err(FraError::ProtocolViolation {
                            silo: k,
                            expected: "Agg",
                        })
                    }
                    Err(e) if policy.allows_partial() => missing.push((k, e)),
                    Err(e) => return Err(FraError::SiloFailed(e)),
                }
                Ok(())
            };
            match self {
                FanOut::Broadcast => {
                    for (k, partial) in federation.broadcast(request).into_iter().enumerate() {
                        take(k, partial)?;
                    }
                }
                FanOut::Sequential => {
                    for k in 0..m {
                        take(k, federation.call(k, request))?;
                    }
                }
            }
            let rounds = m as u64;
            if missing.is_empty() {
                return Ok(QueryResult::from_aggregate(total, query.func).with_rounds(rounds));
            }
            degrade_fanout(federation, query, total, &responding, missing, 0.0)
                .map(|r| r.with_rounds(rounds))
        })();
        if let Ok(result) = &outcome {
            note_coverage(obs, result);
        }
        obs.finish_trace(&trace);
        outcome
    }
}

/// The local query both EXACT variants send.
fn exact_request(query: &FraQuery) -> Request {
    Request::Aggregate {
        range: query.range,
        mode: LocalMode::Exact,
    }
}

/// The EXACT fan-out algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact;

impl Exact {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl FraAlgorithm for Exact {
    fn name(&self) -> &'static str {
        "EXACT"
    }

    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let request = exact_request(query);
        FanOut::Broadcast.run(self.name(), &request, federation, query, obs)
    }
}

/// The naive federated baseline of Sec. 3: contact every silo **one at a
/// time**.
///
/// The paper motivates single-silo sampling by contrasting it with "a
/// naive solution \[that\] would exchange information with every data silo
/// to answer a range aggregation query, allowing only sequential
/// processing". This type is that strawman, kept for the ablation that
/// shows what the multi-threaded EXACT already buys and what sampling
/// buys on top.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSequential;

impl ExactSequential {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl FraAlgorithm for ExactSequential {
    fn name(&self) -> &'static str {
        "EXACT-seq"
    }

    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let request = exact_request(query);
        FanOut::Sequential.run(self.name(), &request, federation, query, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_federation::FederationBuilder;
    use fedra_geo::{Point, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;
    use fedra_index::AggFunc;

    fn setup() -> (Federation, Vec<SpatialObject>) {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let mut state = 5u64;
        let mut partitions = Vec::new();
        let mut all = Vec::new();
        for _ in 0..3 {
            let objs: Vec<SpatialObject> = (0..400)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let y = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                    SpatialObject::at(x, y, (i % 5) as f64 + 1.0)
                })
                .collect();
            all.extend_from_slice(&objs);
            partitions.push(objs);
        }
        let fed = FederationBuilder::new(bounds)
            .grid_cell_len(10.0)
            .histogram_config(MinSkewConfig {
                resolution: 16,
                budget: 16,
            })
            .build(partitions);
        (fed, all)
    }

    #[test]
    fn exact_equals_bruteforce_for_all_functions() {
        let (fed, all) = setup();
        let q_range = fedra_geo::Range::circle(Point::new(50.0, 50.0), 25.0);
        let in_range: Vec<_> = all
            .iter()
            .filter(|o| q_range.contains_point(&o.location))
            .collect();
        let brute = in_range
            .iter()
            .fold(Aggregate::ZERO, |a, o| a.merge(&Aggregate::of(o)));
        for func in AggFunc::ALL {
            let r = Exact::new().execute(&fed, &FraQuery::new(q_range, func));
            assert!(
                (r.value - brute.value(func)).abs() < 1e-9,
                "{func}: {} vs {}",
                r.value,
                brute.value(func)
            );
        }
    }

    #[test]
    fn exact_uses_m_rounds() {
        let (fed, _) = setup();
        fed.reset_query_comm();
        let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
        let r = Exact::new().execute(&fed, &q);
        assert_eq!(r.rounds, 3);
        assert_eq!(fed.query_comm().rounds, 3);
        assert!(r.sampled_silo.is_none());
    }

    #[test]
    fn exact_fails_when_any_silo_is_down() {
        let (fed, _) = setup();
        fed.set_silo_failed(1, true);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
        let err = Exact::new().try_execute(&fed, &q).expect_err("must fail");
        assert!(matches!(err, FraError::SiloFailed(_)));
    }

    #[test]
    fn sequential_matches_parallel_exact() {
        let (fed, _) = setup();
        let q = FraQuery::circle(Point::new(50.0, 50.0), 20.0, AggFunc::Sum);
        let parallel = Exact::new().execute(&fed, &q);
        let sequential = ExactSequential::new().execute(&fed, &q);
        assert_eq!(parallel.value, sequential.value);
        assert_eq!(sequential.rounds, 3);
    }

    #[test]
    fn sequential_fails_fast_on_down_silo() {
        let (fed, _) = setup();
        fed.set_silo_failed(0, true);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 20.0, AggFunc::Count);
        assert!(matches!(
            ExactSequential::new().try_execute(&fed, &q),
            Err(FraError::SiloFailed(_))
        ));
    }

    #[test]
    fn empty_range_is_zero() {
        let (fed, _) = setup();
        let q = FraQuery::circle(Point::new(-500.0, -500.0), 1.0, AggFunc::Sum);
        let r = Exact::new().execute(&fed, &q);
        assert_eq!(r.value, 0.0);
    }
}
