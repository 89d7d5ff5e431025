//! The OPTA baseline: histogram answers from every silo.
//!
//! The paper's second competitor (Sec. 8.1): an optimal histogram-based
//! approximate solution. Each silo answers the range query from its local
//! MinSkew histogram — fast (no tree traversal, no data scan) but lossy at
//! bucket boundaries — and the provider, lacking any cross-silo statistics
//! of its own, still asks **all** `m` silos and sums the partial
//! estimates. That gives OPTA the same O(m) communication profile as
//! EXACT (Figs. 3c–9c show them close; `m` rounds per lone query, `m`
//! coalesced frames per batch) and the worst accuracy of the compared
//! algorithms (Figs. 3a–9a). Its plan and finish step are EXACT's: a pool
//! as wide as the federation, its partials summed in silo-id order.

use fedra_federation::{Federation, Request};
use fedra_obs::ObsContext;

use crate::algorithm::{FraAlgorithm, QueryPlan, RunEnd};
use crate::exact::{ask_every_silo, sum_partials};
use crate::helpers;
use crate::query::{FraError, FraQuery, QueryResult};

/// The OPTA histogram algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Opta;

impl Opta {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl FraAlgorithm for Opta {
    fn name(&self) -> &'static str {
        "OPTA"
    }

    fn quorum(&self) -> Option<usize> {
        Some(usize::MAX)
    }

    fn plan_with(&self, federation: &Federation, query: &FraQuery, _: &ObsContext) -> QueryPlan {
        let request = Request::HistogramEstimate { range: query.range };
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
        // OPTA's own histogram error rides on top of a degraded answer
        // exactly as it does undegraded.
        sum_partials(federation, query, runs, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::Exact;
    use fedra_federation::FederationBuilder;
    use fedra_geo::{Point, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;
    use fedra_index::AggFunc;

    fn setup(n_per_silo: usize) -> Federation {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let mut state = 77u64;
        let partitions: Vec<Vec<SpatialObject>> = (0..3)
            .map(|_| {
                (0..n_per_silo)
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
                    .collect()
            })
            .collect();
        FederationBuilder::new(bounds)
            .grid_cell_len(10.0)
            .histogram_config(MinSkewConfig {
                resolution: 64,
                budget: 128,
            })
            .build(partitions)
    }

    #[test]
    fn opta_is_close_to_exact_on_large_ranges() {
        let fed = setup(5000);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 30.0, AggFunc::Count);
        let exact = Exact::new().execute(&fed, &q).value;
        let opta = Opta::new().execute(&fed, &q).value;
        let rel = (opta - exact).abs() / exact;
        assert!(rel < 0.15, "OPTA rel error {rel} ({opta} vs {exact})");
    }

    #[test]
    fn opta_uses_m_rounds() {
        let fed = setup(200);
        fed.reset_query_comm();
        let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
        let r = Opta::new().execute(&fed, &q);
        assert_eq!(r.rounds, 3);
        assert_eq!(fed.query_comm().rounds, 3);
    }

    #[test]
    fn opta_fails_when_a_silo_is_down() {
        let fed = setup(100);
        fed.set_silo_failed(0, true);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
        assert!(matches!(
            Opta::new().try_execute(&fed, &q),
            Err(FraError::SiloFailed(_))
        ));
    }

    #[test]
    fn opta_sum_tracks_exact_sum() {
        let fed = setup(5000);
        let q = FraQuery::circle(Point::new(40.0, 60.0), 25.0, AggFunc::Sum);
        let exact = Exact::new().execute(&fed, &q).value;
        let opta = Opta::new().execute(&fed, &q).value;
        let rel = (opta - exact).abs() / exact;
        assert!(rel < 0.15, "OPTA SUM rel error {rel}");
    }
}
