//! The EXACT baseline: fan out to every silo, sum exact partial answers.
//!
//! This is the conventional federated implementation the paper compares
//! against (Sec. 8.1, "EXACT [2]"): for a query `Q(S, R, F)` the provider
//! sends the local query to **all** `m` silos, each answers exactly from
//! its aggregate R-tree in O(log n_{s_i}), and the provider merges the
//! partial aggregates. Correct by construction, but it pays `m` rounds of
//! communication per lone query and keeps every silo busy with every
//! query — which is exactly what caps its throughput.
//! Each of the `m` requests is a *leg*, an ordinary single-candidate run
//! of the candidate walk (retries, deadline, breaker, shed), so the batch
//! engine and the scheduler coalesce many queries' legs into `m` frames
//! per round; the partials are summed in silo-id order.

use fedra_federation::{Federation, LocalMode, Request};
use fedra_obs::ObsContext;

use crate::algorithm::{drive_planned, FraAlgorithm};
use crate::helpers;
use crate::query::{FraError, FraQuery, QueryResult};

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

    fn fan_out(&self, query: &FraQuery) -> Option<Request> {
        let request = Request::Aggregate {
            range: query.range,
            mode: LocalMode::Exact,
        };
        Some(helpers::masked_for(query.func, request))
    }

    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        drive_planned(self, federation, query, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_federation::FederationBuilder;
    use fedra_geo::{Point, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;
    use fedra_index::{AggFunc, Aggregate};

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
}
