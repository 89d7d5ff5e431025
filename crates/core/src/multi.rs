//! Multi-silo sampling: the natural extension between the paper's
//! single-silo estimators (k = 1) and the EXACT fan-out (k = m).
//!
//! [`MultiSiloEst`] samples `k` *distinct* silos, obtains each one's
//! Non-IID-style per-boundary-cell contributions in parallel, and uses the
//! *pooled* statistics: for boundary cell `i` the in-range fraction is
//! estimated from the union of the sampled silos' data in that cell,
//! `Σ_k res_i^k / Σ_k g_k[i]`, then re-scaled by `g₀[i]`. Pooling (rather
//! than averaging per-silo ratios) keeps the estimator unbiased under the
//! locality assumption while cutting its variance roughly by the pooled
//! sample-size factor; communication grows linearly in `k`.
//!
//! This is an ablation/extension knob, not part of the paper's evaluated
//! algorithms: `k = 1` recovers NonIID-est exactly (modulo RNG), and the
//! `ablations` bench sweeps `k` to show the accuracy/communication
//! trade-off.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use fedra_federation::{Federation, LocalMode, Request, Response, SiloId};
use fedra_geo::intersection_area;
use fedra_index::Aggregate;
use fedra_obs::{labeled, ObsContext, Span};

use crate::algorithm::{finish_run, FraAlgorithm};
use crate::helpers;
use crate::query::{FraError, FraQuery, QueryResult};
use crate::run::End;

/// Non-IID estimation over `k` pooled silos.
pub struct MultiSiloEst {
    rng: Mutex<StdRng>,
    k: usize,
}

impl MultiSiloEst {
    /// Creates the estimator.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn new(seed: u64, k: usize) -> Self {
        assert!(k >= 1, "need at least one sampled silo");
        Self {
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            k,
        }
    }

    /// The number of silos pooled per query.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl FraAlgorithm for MultiSiloEst {
    fn name(&self) -> &'static str {
        "MultiSilo-est"
    }

    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let trace = obs.start_trace("query", self.name());
        let outcome = self.run(federation, query, obs, &trace);
        if let Ok(result) = &outcome {
            trace.attr("rounds", result.rounds);
        }
        obs.finish_trace(&trace);
        outcome
    }
}

impl MultiSiloEst {
    fn run(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
        trace: &fedra_obs::TraceHandle,
    ) -> Result<QueryResult, FraError> {
        let range = &query.range;
        let (classification, covered, grid_spec);
        let grid = federation.merged_grid();
        {
            let _plan_span = Span::enter(trace, "plan");
            grid_spec = grid.spec();
            classification = grid_spec.classify(range);
            if classification.is_empty() {
                return Ok(QueryResult::from_aggregate(Aggregate::ZERO, query.func));
            }
            covered = grid.aggregate_cells(classification.covered.iter().copied());
        }
        if classification.boundary.is_empty() {
            return Ok(QueryResult::from_aggregate(covered, query.func));
        }

        // Visit candidates in random order, pooling the first k that
        // answer; extra candidates double as failover.
        let mut order = helpers::candidate_silos(federation, range);
        order.shuffle(&mut *self.rng.lock());
        let request = Request::CellContributions {
            range: *range,
            cells: classification.boundary.clone(),
            mode: LocalMode::Exact,
        };
        let mut pooled: Vec<Aggregate> = vec![Aggregate::ZERO; classification.boundary.len()];
        let mut pooled_silos: Vec<SiloId> = Vec::new();
        let mut trail = Vec::new();
        let mut rounds = 0;
        {
            let _remote_span = Span::enter(trace, "remote");
            for k in order {
                if pooled_silos.len() == self.k {
                    break;
                }
                rounds += 1;
                if obs.is_enabled() {
                    obs.inc(&labeled("fedra_silo_requests_total", "silo", k));
                }
                match federation.call(k, &request) {
                    Ok(Response::AggVec(contributions)) => {
                        if contributions.len() != pooled.len() {
                            return Err(FraError::ProtocolViolation {
                                silo: k,
                                expected: "one aggregate per requested cell",
                            });
                        }
                        for (acc, c) in pooled.iter_mut().zip(&contributions) {
                            acc.merge_in(c);
                        }
                        pooled_silos.push(k);
                    }
                    Ok(_) => {
                        return Err(FraError::ProtocolViolation {
                            silo: k,
                            expected: "AggVec",
                        })
                    }
                    Err(error) => {
                        obs.inc("fedra_resamples_total");
                        trail.push((k, error));
                    }
                }
            }
        }
        if pooled_silos.is_empty() {
            if helpers::rough_count(federation, range) <= 0.0 {
                // No silo holds mass in the range's cells: the covered
                // cells are the exact answer.
                return Ok(QueryResult::from_aggregate(covered, query.func));
            }
            // Every holder failed or was refused: the single-silo
            // estimators' degraded path, per-candidate errors included.
            let end = End::Degrade { rounds, trail };
            return finish_run(self, federation, query, end, trace, obs);
        }
        if obs.is_enabled() {
            for &s in &pooled_silos {
                obs.inc(&labeled("fedra_sampled_silo_total", "silo", s));
            }
        }

        let _finish_span = Span::enter(trace, "finish");
        let mut estimate = covered;
        for (idx, cell) in classification.boundary.iter().enumerate() {
            let g0_i = grid.cell(*cell);
            // Pooled denominator: the sampled silos' combined cell totals.
            let mut gk_pooled = Aggregate::ZERO;
            for &s in &pooled_silos {
                gk_pooled.merge_in(federation.silo_grid(s).cell(*cell));
            }
            let rect = grid_spec.cell_rect_of(*cell);
            let frac = intersection_area(range, &rect) / rect.area();
            let fallback = g0_i.scale(frac);
            estimate.merge_in(&helpers::ratio_scale(
                g0_i,
                &pooled[idx],
                &gk_pooled,
                &fallback,
            ));
        }
        Ok(QueryResult::from_aggregate(estimate, query.func)
            .with_silo(pooled_silos[0])
            .with_rounds(rounds))
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
    use fedra_index::AggFunc;
    use rand::Rng;

    fn federation(m: usize, per_silo: usize, seed: u64) -> Federation {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let mut rng = StdRng::seed_from_u64(seed);
        let foci = [(25.0, 25.0), (75.0, 25.0), (25.0, 75.0), (75.0, 75.0)];
        let partitions: Vec<Vec<SpatialObject>> = (0..m)
            .map(|k| {
                let (fx, fy) = foci[k % foci.len()];
                (0..per_silo)
                    .map(|_| {
                        let (x, y): (f64, f64) = if rng.random_range(0..10) < 6 {
                            (
                                fx + rng.random_range(-15.0..15.0),
                                fy + rng.random_range(-15.0..15.0),
                            )
                        } else {
                            (rng.random_range(0.0..100.0), rng.random_range(0.0..100.0))
                        };
                        SpatialObject::at(x.clamp(0.0, 100.0), y.clamp(0.0, 100.0), 1.0)
                    })
                    .collect()
            })
            .collect();
        FederationBuilder::new(bounds)
            .grid_cell_len(5.0)
            .histogram_config(MinSkewConfig {
                resolution: 16,
                budget: 16,
            })
            .build(partitions)
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_k_rejected() {
        MultiSiloEst::new(0, 0);
    }

    #[test]
    fn k_equals_m_is_nearly_exact() {
        // Pooling every silo leaves only within-cell spatial variation —
        // boundary cells estimated from *all* the data in them.
        let fed = federation(4, 2000, 1);
        let alg = MultiSiloEst::new(2, 4);
        let exact = Exact::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let q = FraQuery::circle(
                Point::new(rng.random_range(20.0..80.0), rng.random_range(20.0..80.0)),
                12.0,
                AggFunc::Count,
            );
            let t = exact.execute(&fed, &q).value;
            if t < 50.0 {
                continue;
            }
            let e = alg.execute(&fed, &q).value;
            let rel = (e - t).abs() / t;
            assert!(rel < 0.08, "k=m pooled error {rel} at {q}");
        }
    }

    #[test]
    fn larger_k_reduces_error_on_average() {
        let fed = federation(4, 3000, 4);
        let exact = Exact::new();
        let mut rng = StdRng::seed_from_u64(5);
        let queries: Vec<FraQuery> = (0..25)
            .map(|_| {
                FraQuery::circle(
                    Point::new(rng.random_range(20.0..80.0), rng.random_range(20.0..80.0)),
                    10.0,
                    AggFunc::Count,
                )
            })
            .collect();
        let truth: Vec<f64> = queries
            .iter()
            .map(|q| exact.execute(&fed, q).value)
            .collect();
        let mre = |k: usize, seed: u64| -> f64 {
            let alg = MultiSiloEst::new(seed, k);
            queries
                .iter()
                .zip(&truth)
                .filter(|(_, &t)| t > 0.0)
                .map(|(q, &t)| (alg.execute(&fed, q).value - t).abs() / t)
                .sum::<f64>()
                / queries.len() as f64
        };
        let e1 = mre(1, 6);
        let e4 = mre(4, 7);
        assert!(
            e4 < e1,
            "pooling all silos ({e4}) must beat single-silo ({e1})"
        );
    }

    #[test]
    fn k_one_matches_noniid_communication_profile() {
        let fed = federation(4, 1000, 8);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
        fed.reset_query_comm();
        MultiSiloEst::new(9, 1).execute(&fed, &q);
        let multi = fed.query_comm();
        fed.reset_query_comm();
        NonIidEst::new(10).execute(&fed, &q);
        let single = fed.query_comm();
        assert_eq!(multi.rounds, single.rounds);
        assert_eq!(multi.total_bytes(), single.total_bytes());
    }

    #[test]
    fn communication_scales_linearly_in_k() {
        let fed = federation(4, 1000, 11);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
        let bytes = |k: usize| {
            fed.reset_query_comm();
            MultiSiloEst::new(12, k).execute(&fed, &q);
            fed.query_comm().total_bytes()
        };
        let b1 = bytes(1);
        let b3 = bytes(3);
        assert!(
            (b3 as f64 / b1 as f64 - 3.0).abs() < 0.2,
            "k=3 should cost ≈3× k=1: {b3} vs {b1}"
        );
    }

    #[test]
    fn failover_skips_dead_silos() {
        let fed = federation(4, 1000, 13);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
        fed.set_silo_failed(0, true);
        fed.set_silo_failed(1, true);
        let alg = MultiSiloEst::new(14, 2);
        let r = alg.execute(&fed, &q);
        assert!(r.value > 0.0);
        // Both healthy silos pooled despite the dead ones.
        assert!(r.sampled_silo.map(|s| s >= 2).unwrap_or(false));
    }

    #[test]
    fn k_larger_than_m_clamps_gracefully() {
        let fed = federation(3, 500, 15);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
        let alg = MultiSiloEst::new(16, 10);
        let r = alg.execute(&fed, &q);
        assert!(r.value >= 0.0);
        assert!(r.rounds <= 3);
    }
}
