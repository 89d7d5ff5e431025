//! The EXACT baseline: ask every silo, sum exact partial answers.
//!
//! This is the conventional federated implementation the paper compares
//! against (Sec. 8.1, "EXACT [2]"): for a query `Q(S, R, F)` the provider
//! sends the local query to **all** `m` silos, each answers exactly from
//! its aggregate R-tree in O(log n_{s_i}), and the provider merges the
//! partial aggregates. Correct by construction, but it pays `m` rounds of
//! communication per lone query and keeps every silo busy with every
//! query — which is exactly what caps its throughput.
//! The plan is a pool as wide as the federation: every silo in id order,
//! one leg each, every leg an ordinary single-candidate run of the
//! candidate walk (retries, deadline, breaker, shed), so the batch engine
//! and the scheduler coalesce many queries' legs into `m` frames per
//! round; the finish step sums the partials in silo-id order.

use fedra_federation::{Federation, LocalMode, Request, Response, SiloId, TransportError};
use fedra_index::Aggregate;
use fedra_obs::ObsContext;

use crate::algorithm::{FraAlgorithm, QueryPlan, RemotePlan, RunEnd};
use crate::helpers;
use crate::query::{Coverage, FraError, FraQuery, QueryResult};
use crate::theory;

/// The EXACT algorithm.
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

    fn quorum(&self) -> Option<usize> {
        Some(usize::MAX)
    }

    fn plan_with(&self, federation: &Federation, query: &FraQuery, _: &ObsContext) -> QueryPlan {
        let request = Request::Aggregate {
            range: query.range,
            mode: LocalMode::Exact,
        };
        ask_every_silo(federation, helpers::masked_for(query.func, request))
    }

    fn finish_pooled(
        &self,
        federation: &Federation,
        query: &FraQuery,
        runs: Vec<RunEnd>,
        rounds: u64,
        _: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        sum_partials(federation, query, runs, rounds)
    }
}

/// The plan of EXACT and OPTA: `request` to every silo, in id order. Each
/// silo gets the `allows` probe draw a sampled plan makes, without which a
/// breaker opened by this traffic alone would never half-open; the
/// breaker's call-time verdict decides at dispatch, and a silo it refuses
/// keeps its place in the order.
pub(crate) fn ask_every_silo(federation: &Federation, request: Request) -> QueryPlan {
    let health = federation.health();
    let order = (0..federation.num_silos())
        .inspect(|&k| {
            health.allows(k);
        })
        .collect();
    QueryPlan::SingleSilo(RemotePlan { order, request })
}

/// The finish step of EXACT and OPTA: `runs` holds one run per silo, in
/// silo-id order (the driver's leg table, filled in whatever order the
/// frames resolved). Sums the runs' `Agg` partials **in silo-id order** —
/// the same bits whichever frame resolved first. A run that ended without
/// an answer is a missing silo (one the breaker refused has an empty
/// trail): fail-fast, the first in silo-id order fails the query; under
/// `DegradePolicy::Partial` its share is a grid estimate and the answer
/// carries an honest [`Coverage`] (the partials' own guarantee taken as 0:
/// OPTA's histogram error is unbounded and rides on top as it does
/// undegraded) — or [`FraError::AllSilosUnavailable`], per-silo errors
/// included, below the policy's floors.
pub(crate) fn sum_partials(
    federation: &Federation,
    query: &FraQuery,
    runs: Vec<RunEnd>,
    rounds: u64,
) -> Result<QueryResult, FraError> {
    let policy = federation.degrade_policy();
    let mut total = Aggregate::ZERO;
    let mut missing = Vec::new();
    for (silo, run) in runs.iter().enumerate() {
        match run {
            Ok((_, Response::Agg(partial))) => total.merge_in(partial),
            Ok(_) => {
                let expected = "Agg";
                return Err(FraError::ProtocolViolation { silo, expected });
            }
            Err(trail) => {
                let error = trail.last().map_or_else(
                    || {
                        let message = "circuit breaker open: not called".into();
                        TransportError::Transient { silo, message }
                    },
                    |(_, error)| error.clone(),
                );
                if !policy.allows_partial() {
                    return Err(FraError::SiloFailed(error));
                }
                missing.push((silo, error));
            }
        }
    }
    let mut coverage = None;
    if !missing.is_empty() {
        let responding: Vec<SiloId> = (0..runs.len()).filter(|&k| runs[k].is_ok()).collect();
        let fraction = helpers::reachable_mass_fraction(federation, &query.range, &responding);
        if !policy.accepts(responding.len(), fraction) {
            return Err(FraError::AllSilosUnavailable { errors: missing });
        }
        for (k, _) in &missing {
            let grid = federation.silo_grid(*k);
            total.merge_in(&helpers::grid_estimate(grid, &query.range));
        }
        coverage = Some(Coverage {
            responding: responding.len(),
            total: federation.num_silos(),
            mass_fraction: fraction,
            epsilon: theory::degraded_epsilon(0.0, fraction),
        });
    }
    let mut result = QueryResult::from_aggregate(total, query.func).with_rounds(rounds);
    result.coverage = coverage;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_federation::{DegradePolicy, FederationBuilder};
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
    fn empty_range_is_zero() {
        let (fed, _) = setup();
        let q = FraQuery::circle(Point::new(-500.0, -500.0), 1.0, AggFunc::Sum);
        let r = Exact::new().execute(&fed, &q);
        assert_eq!(r.value, 0.0);
    }

    /// Four silos, ten objects each, all inside the query below.
    fn federation(policy: DegradePolicy) -> Federation {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let partitions = (0..4)
            .map(|k| {
                (0..10)
                    .map(|i| SpatialObject::at(i as f64 + 0.5, k as f64 + 0.5, 1.0))
                    .collect()
            })
            .collect();
        FederationBuilder::new(bounds)
            .grid_cell_len(1.0)
            .degrade_policy(policy)
            .build(partitions)
    }

    fn partial(silo: SiloId, sum: f64) -> RunEnd {
        let partial = Aggregate {
            count: 1.0,
            sum,
            sum_sqr: sum * sum,
        };
        Ok((silo, Response::Agg(partial)))
    }

    /// Lands `runs` in a leg table in the given landing order and sums
    /// them, one attempt per run that made one.
    fn join(
        federation: &Federation,
        runs: &[RunEnd],
        landing: &[SiloId],
    ) -> Result<QueryResult, FraError> {
        let query = FraQuery::circle(Point::new(5.0, 5.0), 20.0, AggFunc::Sum);
        let mut table: Vec<Option<RunEnd>> = vec![None; runs.len()];
        for &silo in landing {
            table[silo] = Some(runs[silo].clone());
        }
        let attempts = |run: &RunEnd| u64::from(!matches!(run, Err(trail) if trail.is_empty()));
        let rounds = runs.iter().map(attempts).sum();
        let landed = table.into_iter().map(|run| run.expect("every run landed"));
        sum_partials(federation, &query, landed.collect(), rounds)
    }

    #[test]
    fn the_join_sums_in_silo_id_order_whatever_order_the_legs_land_in() {
        let fed = federation(DegradePolicy::FailFast);
        // Partials whose float sum depends on the order of addition.
        let sums = [1e16, 1.0, -1e16, 1.0];
        let runs: Vec<RunEnd> = (0..4).map(|k| partial(k, sums[k])).collect();
        let in_order = join(&fed, &runs, &[0, 1, 2, 3]).expect("healthy join");
        assert_eq!(in_order.value, ((1e16 + 1.0) + -1e16) + 1.0);
        assert_ne!(in_order.value, ((1.0 + -1e16) + 1.0) + 1e16);
        assert_eq!(in_order.rounds, 4);
        assert!(in_order.coverage.is_none());
        for landing in [[3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]] {
            let got = join(&fed, &runs, &landing).expect("healthy join");
            assert_eq!(got.value.to_bits(), in_order.value.to_bits(), "{landing:?}");
            assert_eq!(got, in_order, "{landing:?}");
        }
    }

    #[test]
    fn the_join_names_the_silo_that_broke_protocol_or_went_missing() {
        let gone = TransportError::Disconnected { silo: 2 };
        let failed: RunEnd = Err(vec![(2, gone.clone())]);
        // What a leg the breaker refused ends as: no attempt, no trail.
        let skipped: RunEnd = Err(vec![]);
        let healthy = |k| partial(k, 1.0);
        let fed = federation(DegradePolicy::FailFast);

        let runs = [healthy(0), Ok((1, Response::Pong)), healthy(2), healthy(3)];
        assert_eq!(
            join(&fed, &runs, &[3, 2, 1, 0]),
            Err(FraError::ProtocolViolation {
                silo: 1,
                expected: "Agg"
            })
        );
        // Fail-fast: the first missing silo in silo-id order, whichever
        // landed first.
        let runs = [healthy(0), skipped.clone(), failed.clone(), healthy(3)];
        match join(&fed, &runs, &[2, 3, 0, 1]) {
            Err(FraError::SiloFailed(TransportError::Transient { silo: 1, .. })) => {}
            other => panic!("expected silo 1's breaker refusal, got {other:?}"),
        }
        let runs = [healthy(0), healthy(1), failed.clone(), skipped.clone()];
        assert_eq!(
            join(&fed, &runs, &[3, 2, 1, 0]),
            Err(FraError::SiloFailed(gone))
        );

        // Partial: both count as missing; rounds are the attempts made.
        let fed = federation(DegradePolicy::Partial {
            min_silos: 1,
            min_coverage: 0.0,
        });
        let runs = [healthy(0), skipped, failed, healthy(3)];
        let degraded = join(&fed, &runs, &[1, 0, 3, 2]).expect("two silos answered");
        let coverage = degraded.coverage.expect("a degraded answer says so");
        assert_eq!((coverage.responding, coverage.total), (2, 4));
        assert_eq!(coverage.mass_fraction, 0.5);
        assert_eq!(degraded.rounds, 3);
    }
}
