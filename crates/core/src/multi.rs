//! Multi-silo sampling: the natural extension between the paper's
//! single-silo estimators (k = 1) and EXACT's pool of every silo (k = m).
//!
//! [`MultiSiloEst`] samples `k` *distinct* silos, obtains each one's
//! Non-IID-style per-boundary-cell contributions, and uses the *pooled*
//! statistics: for boundary cell `i` the in-range fraction is estimated
//! from the union of the sampled silos' data in that cell,
//! `Σ_k res_i^k / Σ_k g_k[i]`, then re-scaled by `g₀[i]`. Pooling (rather
//! than averaging per-silo ratios) keeps the estimator unbiased under the
//! locality assumption while cutting its variance roughly by the pooled
//! sample-size factor; communication grows linearly in `k`.
//!
//! The plan shuffles the candidate silos; the driver rides `k` legs over
//! that order in parallel ([`FraAlgorithm::quorum`]), leg `i` starting on
//! the `i`-th candidate, and a leg whose candidate fails for good moves on
//! to the next candidate no leg has tried. The answers are pooled in
//! candidate order, so the estimate does not depend on which silo answered
//! first.
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
use fedra_geo::{intersection_area, Range};
use fedra_index::grid::CellId;
use fedra_index::Aggregate;
use fedra_obs::ObsContext;

use crate::algorithm::{grid_only, FraAlgorithm, QueryPlan, RemotePlan, RunEnd};
use crate::helpers;
use crate::query::{FraError, FraQuery, QueryResult};

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

    fn quorum(&self) -> Option<usize> {
        Some(self.k)
    }

    /// The candidates (the silos holding mass in range) in shuffled order,
    /// each to be asked for its contributing cells.
    fn plan_with(&self, federation: &Federation, query: &FraQuery, _: &ObsContext) -> QueryPlan {
        let range = &query.range;
        let grid = federation.merged_grid();
        let classification = grid.spec().classify(range);
        let covered = grid.aggregate_cells(classification.covered.iter().copied());
        let answer_covered =
            || QueryPlan::Ready(Ok(QueryResult::from_aggregate(covered, query.func)));
        if classification.boundary.is_empty() {
            // The range is a union of grid cells (or misses the grid).
            return answer_covered();
        }
        // One walk yields sum₀ and every silo's sum_k.
        let sums = helpers::grid_sums(federation, range);
        if sums.sum0().count <= 0.0 {
            // No silo holds mass in the range's cells: the covered cells
            // are the exact answer.
            return answer_covered();
        }
        let mut order = helpers::candidate_silos(federation, &sums);
        order.shuffle(&mut *self.rng.lock());
        let request = Request::CellContributions {
            range: *range,
            mode: LocalMode::Exact,
        };
        let request = helpers::masked_for(query.func, request);
        QueryPlan::SingleSilo(RemotePlan { order, request })
    }

    /// Pools the answers in candidate order; with none, the grid answers.
    fn finish_pooled(
        &self,
        federation: &Federation,
        query: &FraQuery,
        runs: Vec<RunEnd>,
        rounds: u64,
        _: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let (mut answers, mut trail) = (Vec::new(), Vec::new());
        for run in runs {
            match run {
                Ok(answer) => answers.push(answer),
                Err(errors) => trail.extend(errors),
            }
        }
        if answers.is_empty() {
            return grid_only(federation, query, rounds, trail);
        }
        let range = &query.range;
        let grid = federation.merged_grid();
        let classification = grid.spec().classify(range);
        let covered = grid.aggregate_cells(classification.covered.iter().copied());
        let mut pooled: Vec<Aggregate> = vec![Aggregate::ZERO; classification.boundary.len()];
        for (silo, response) in &answers {
            let Response::AggVec(reply) = response else {
                return Err(FraError::ProtocolViolation {
                    silo: *silo,
                    expected: "AggVec",
                });
            };
            // Each silo replies for its own contributing cells.
            let Some(contributions) = helpers::scatter_reply(
                federation.silo_grid(*silo),
                &classification.boundary,
                query.func.moments(),
                reply,
            ) else {
                return Err(FraError::ProtocolViolation {
                    silo: *silo,
                    expected: "one aggregate per contributing cell",
                });
            };
            for (acc, c) in pooled.iter_mut().zip(&contributions) {
                acc.merge_in(c);
            }
        }
        let pooled_silos: Vec<SiloId> = answers.iter().map(|(silo, _)| *silo).collect();
        let estimate = pooled_estimate(
            federation,
            range,
            covered,
            &classification.boundary,
            &pooled,
            &pooled_silos,
        );
        Ok(QueryResult::from_aggregate(estimate, query.func)
            .with_silo(pooled_silos[0])
            .with_rounds(rounds))
    }
}

/// The pooled estimate: `covered` plus, per boundary cell `i`, the pooled
/// contribution `pooled[i]` re-scaled by `g₀[i] / Σ_k g_k[i]` over the
/// `pooled_silos`. A silo replies only for the cells it holds mass in, so
/// `pooled[i]` sums only those silos' clips: an object on the closed edge
/// of a cell its silo holds nothing in is pooled in neither sum.
fn pooled_estimate(
    federation: &Federation,
    range: &Range,
    covered: Aggregate,
    boundary: &[CellId],
    pooled: &[Aggregate],
    pooled_silos: &[SiloId],
) -> Aggregate {
    let grid = federation.merged_grid();
    let grid_spec = grid.spec();
    let mut estimate = covered;
    for (cell, pooled_i) in boundary.iter().zip(pooled) {
        let g0_i = grid.cell(*cell);
        // Pooled denominator: the sampled silos' combined cell totals.
        let mut gk_pooled = Aggregate::ZERO;
        for &s in pooled_silos {
            gk_pooled.merge_in(federation.silo_grid(s).cell(*cell));
        }
        let fallback = || {
            let rect = grid_spec.cell_rect_of(*cell);
            g0_i.scale(intersection_area(range, &rect) / rect.area())
        };
        estimate.merge_in(&helpers::ratio_scale(g0_i, pooled_i, &gk_pooled, fallback));
    }
    estimate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::Exact;
    use crate::sampling::NonIidEst;
    use fedra_federation::FederationBuilder;
    use fedra_geo::{Point, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;
    use fedra_index::{AggFunc, Moments};
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
    fn the_mask_never_changes_a_pooled_answer() {
        // Replays each query's walk by hand with the unmasked request and
        // pools the full replies: the estimator's answer from masked
        // replies must be the same bits.
        let fed = federation(4, 1500, 17);
        let mut rng = StdRng::seed_from_u64(18);
        for i in 0..8u64 {
            let center = Point::new(rng.random_range(20.0..80.0), rng.random_range(20.0..80.0));
            for func in AggFunc::ALL {
                let q = FraQuery::circle(center, 9.0, func);
                let k = 1 + (i as usize % 3);
                let masked = MultiSiloEst::new(100 + i, k).execute(&fed, &q);

                let cls = fed.merged_grid().spec().classify(&q.range);
                let covered = fed
                    .merged_grid()
                    .aggregate_cells(cls.covered.iter().copied());
                let sums = helpers::grid_sums(&fed, &q.range);
                let mut order = helpers::candidate_silos(&fed, &sums);
                order.shuffle(&mut StdRng::seed_from_u64(100 + i));
                let full_request = Request::CellContributions {
                    range: q.range,
                    mode: LocalMode::Exact,
                };
                let mut pooled = vec![Aggregate::ZERO; cls.boundary.len()];
                for &s in &order[..k] {
                    let Ok(Response::AggVec(full)) = fed.call(s, &full_request) else {
                        panic!("silo {s} did not answer");
                    };
                    let full = helpers::scatter_reply(
                        fed.silo_grid(s),
                        &cls.boundary,
                        Moments::ALL,
                        &full,
                    )
                    .expect("one entry per contributing cell");
                    for (acc, c) in pooled.iter_mut().zip(&full) {
                        acc.merge_in(c);
                    }
                }
                let estimate =
                    pooled_estimate(&fed, &q.range, covered, &cls.boundary, &pooled, &order[..k]);
                let full = QueryResult::from_aggregate(estimate, func)
                    .with_silo(order[0])
                    .with_rounds(k as u64);
                assert_eq!(masked.value.to_bits(), full.value.to_bits(), "k={k} {q}");
                assert_eq!(masked, full, "k={k} {q}");
            }
        }
    }

    #[test]
    fn an_edge_object_in_a_cell_its_silo_holds_nothing_in_is_pooled_nowhere() {
        // The paper's running example (crates/core/tests/paper_example.rs:
        // [0, 10]², L = 2.5, SUM over the circle at (4, 6), radius 3), plus
        // one silo-2 object at (3, 9.5), measure 2, outside R in cell
        // (1, 3). Silo 1's in-range (5, 8), measure 3, bins into (2, 3)
        // but lies on the x = 5 edge it shares with (1, 3).
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let at = |x, y, m| SpatialObject::at(x, y, m);
        let silo1 = vec![
            at(2.0, 4.0, 2.0),
            at(5.0, 8.0, 3.0),
            at(1.5, 6.0, 1.0),
            at(6.5, 9.5, 4.0),
            at(8.0, 5.0, 1.0),
            at(9.0, 2.0, 2.0),
            at(6.0, 1.0, 3.0),
            at(8.0, 8.0, 1.0),
            at(9.5, 0.5, 2.0),
            at(3.0, 1.0, 5.0),
        ];
        let silo2 = vec![
            at(3.0, 6.0, 1.0),
            at(4.0, 7.0, 1.0),
            at(5.0, 5.5, 2.0),
            at(1.0, 9.0, 4.0),
            at(7.0, 3.0, 3.0),
            at(2.0, 2.0, 7.0),
            at(9.0, 9.0, 2.0),
            at(8.0, 1.0, 5.0),
            at(3.0, 9.5, 2.0),
        ];
        let fed = FederationBuilder::new(bounds)
            .grid_cell_len(2.5)
            .histogram_config(MinSkewConfig {
                resolution: 8,
                budget: 8,
            })
            .build(vec![silo1, silo2]);
        let q = FraQuery::circle(Point::new(4.0, 6.0), 3.0, AggFunc::Sum);
        // k = 2 pools both silos. Per cell, SUM: covered (1, 2) gives
        // g₀ = 2 exactly. Boundary cell i adds g₀[i] · Σres_i / Σg[i]:
        //   (0,1) 2·2/2 = 2   (1,1) g₀ = 0 → 0   (2,1) 3·0/3 = 0
        //   (0,2) 1·1/1 = 1   (2,2) 2·2/2 = 2    (0,3) 4·0/4 = 0
        //   (1,3) 2·0/2 = 0   (2,3) 7·(3/7) = 3 (rounds to exactly 3)
        // → 2 + 2 + 1 + 2 + 3 = 10, the exact answer. In (1, 3) silo 1
        // holds nothing (g₁ = 0), so it no longer replies for that cell:
        // (5, 8) is pooled in neither Σres nor Σg there. The old protocol
        // shipped silo 1's closed clip of (1, 3), which holds (5, 8), so
        // Σres = 3 over Σg = 2 (silo 2's object) added 2·3/2 = 3: 13.
        let got = MultiSiloEst::new(41, 2).execute(&fed, &q);
        assert_eq!(got.value.to_bits(), 10.0f64.to_bits(), "{}", got.value);
        assert_eq!(Exact::new().execute(&fed, &q).value, 10.0);

        let cls = fed.merged_grid().spec().classify(&q.range);
        let covered = fed
            .merged_grid()
            .aggregate_cells(cls.covered.iter().copied());
        let sum = |s: f64| Aggregate {
            sum: s,
            ..Aggregate::ZERO
        };
        // The old pooled Σres per boundary cell, in classification order.
        let old: Vec<Aggregate> = [2.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 3.0].map(sum).to_vec();
        let before = pooled_estimate(&fed, &q.range, covered, &cls.boundary, &old, &[0, 1]);
        assert_eq!(before.sum, 13.0);
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
