//! Single-silo sampling estimators: IID-est (Alg. 2) and NonIID-est
//! (Alg. 3), each with an LSR-accelerated variant (… + Alg. 6).
//!
//! Both estimators contact **one** uniformly sampled silo per query and
//! re-weight its partial answer with the grid statistics the provider
//! collected at setup (Alg. 1):
//!
//! * **IID-est** asks the sampled silo for its whole-range answer `res_k`
//!   and returns `sum₀ × res_k / sum_k` — a single scalar re-weighting,
//!   O(1) communication. Unbiased when silos are identically distributed
//!   (Theorem 1); biased under Non-IID partitions.
//! * **NonIID-est** exploits the locality assumption (objects within one
//!   grid cell follow one distribution): boundary-cell contributions are
//!   re-weighted *per cell* by `g₀[i] / g_k[i]`, while cells fully covered
//!   by the range contribute their exact `g₀` aggregates directly (the
//!   Sec. 4.2.2 remark) — O(√|g₀|) communication, unbiased even under
//!   Non-IID partitions (Theorem 3).
//!
//! The +LSR variants replace the silo's exact R-tree lookup with the
//! LSR-Forest query of Alg. 6; by Theorems 2 and 4 the composition stays
//! unbiased with a bounded accuracy guarantee.
//!
//! Beyond the paper, the estimators handle silo failures by resampling
//! among the remaining candidates and degrade to a provider-only grid
//! estimate when no silo is reachable.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use fedra_federation::{Federation, LocalMode, Request, Response, SiloId};
use fedra_geo::intersection_area;
use fedra_index::Aggregate;
use fedra_obs::{labeled, ObsContext};

use crate::algorithm::{drive_planned, AccuracyParams, FraAlgorithm, QueryPlan, RemotePlan};
use crate::helpers;
use crate::query::{FraError, FraQuery, QueryResult};
use crate::theory;

/// Records the LSR level an estimator committed to for one query — the
/// rescale factor 2^l is what Alg. 6 multiplies the sampled sums by.
fn record_level(obs: &ObsContext, level: usize) {
    if obs.is_enabled() {
        obs.inc(&labeled("fedra_lsr_level_total", "level", level));
        obs.set_gauge("fedra_lsr_rescale_factor", (1u64 << level.min(63)) as f64);
    }
}

/// How the sampled silo should execute its local query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum LocalQuery {
    /// Exact, via the silo's aggregate R-tree.
    #[default]
    Exact,
    /// Approximate, via the LSR-Forest (Alg. 6) with these parameters.
    Lsr(AccuracyParams),
}

impl LocalQuery {
    fn mode(&self, sum0_count: f64) -> LocalMode {
        match self {
            LocalQuery::Exact => LocalMode::Exact,
            LocalQuery::Lsr(p) => LocalMode::Lsr {
                epsilon: p.epsilon,
                delta: p.delta,
                sum0: sum0_count,
            },
        }
    }

    fn level(&self, sum0_count: f64) -> Option<usize> {
        match self {
            LocalQuery::Exact => None,
            LocalQuery::Lsr(p) => Some(theory::select_level(p.epsilon, p.delta, sum0_count)),
        }
    }

    /// Publishes the estimator's accuracy inputs (ε, δ, sum₀) once per
    /// planned query.
    fn record_accuracy(&self, obs: &ObsContext, sum0: &Aggregate) {
        if !obs.is_enabled() {
            return;
        }
        if let LocalQuery::Lsr(p) = self {
            obs.set_gauge("fedra_accuracy_epsilon", p.epsilon);
            obs.set_gauge("fedra_accuracy_delta", p.delta);
        }
        obs.observe("fedra_sum0_count", sum0.count.max(0.0) as u64);
    }
}

/// Shared sampling machinery: a seeded RNG plus the resample-on-failure
/// loop. `Mutex`-guarded so one estimator instance can serve the parallel
/// multi-query framework.
struct Sampler {
    rng: Mutex<StdRng>,
}

impl Sampler {
    fn new(seed: u64) -> Self {
        Self {
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Returns candidate silos in a random visiting order (uniform first
    /// choice; the tail is the resampling fallback order).
    fn visiting_order(&self, candidates: &[SiloId]) -> Vec<SiloId> {
        let mut order = candidates.to_vec();
        order.shuffle(&mut *self.rng.lock());
        order
    }
}

/// IID-est (Alg. 2), optionally LSR-accelerated (Alg. 2 + Alg. 6).
pub struct IidEst {
    sampler: Sampler,
    local: LocalQuery,
    name: &'static str,
}

impl IidEst {
    /// Creates IID-est with exact local queries.
    pub fn new(seed: u64) -> Self {
        Self {
            sampler: Sampler::new(seed),
            local: LocalQuery::Exact,
            name: "IID-est",
        }
    }
}

/// IID-est + LSR (Alg. 2 with the Alg. 6 local query).
pub struct IidEstLsr;

impl IidEstLsr {
    /// Creates IID-est+LSR with the given accuracy parameters.
    ///
    /// Returns an [`IidEst`] configured for LSR local queries — the two
    /// variants share all estimator machinery and differ only in the
    /// silo-side execution mode, so one type serves both.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(seed: u64, params: AccuracyParams) -> IidEst {
        IidEst {
            sampler: Sampler::new(seed),
            local: LocalQuery::Lsr(params),
            name: "IID-est+LSR",
        }
    }
}

impl FraAlgorithm for IidEst {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Sequential execution is the shared plan/finish driver — the old
    /// hand-rolled sampling loop here was a duplicate of it.
    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        drive_planned(self, federation, query, obs)
    }

    fn supports_planning(&self) -> bool {
        true
    }

    fn plan_with(&self, federation: &Federation, query: &FraQuery, obs: &ObsContext) -> QueryPlan {
        let range = &query.range;
        let sum0 = helpers::sum0(federation, range);
        self.local.record_accuracy(obs, &sum0);
        if sum0.count == 0.0 {
            // No grid cell intersecting R holds any object: the answer is
            // exactly zero, no silo contact needed.
            return QueryPlan::Ready(Ok(QueryResult::from_aggregate(Aggregate::ZERO, query.func)));
        }
        let candidates = helpers::candidate_silos(federation, range);
        // One visiting-order draw per query, whichever engine drives the
        // plan — this is what keeps batched and sequential runs
        // seed-equivalent.
        // sum0 > 0, so some silo holds mass in range: an empty order means
        // every holder was failure-flagged or refused by its breaker, and
        // the walk degrades at its first dispatch like any exhausted one.
        let order = self.sampler.visiting_order(&candidates);
        QueryPlan::SingleSilo(RemotePlan {
            order,
            request: Request::Aggregate {
                range: *range,
                mode: self.local.mode(sum0.count),
            },
        })
    }

    fn finish_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        silo: SiloId,
        response: Response,
        rounds: u64,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let range = &query.range;
        match response {
            Response::Agg(res_k) => {
                let sum0 = helpers::sum0(federation, range);
                let sum_k = helpers::sum_k(federation, silo, range);
                let fallback = helpers::grid_only_estimate(federation, range);
                let estimate = helpers::ratio_scale(&sum0, &res_k, &sum_k, &fallback);
                let mut result = QueryResult::from_aggregate(estimate, query.func)
                    .with_silo(silo)
                    .with_rounds(rounds);
                if let Some(level) = self.local.level(sum0.count) {
                    result = result.with_level(level);
                    record_level(obs, level);
                }
                Ok(result)
            }
            _ => Err(FraError::ProtocolViolation {
                silo,
                expected: "Agg",
            }),
        }
    }
}

/// NonIID-est (Alg. 3), optionally LSR-accelerated (Alg. 3 + Alg. 6).
pub struct NonIidEst {
    sampler: Sampler,
    local: LocalQuery,
    name: &'static str,
}

impl NonIidEst {
    /// Creates NonIID-est with exact local queries.
    pub fn new(seed: u64) -> Self {
        Self {
            sampler: Sampler::new(seed),
            local: LocalQuery::Exact,
            name: "NonIID-est",
        }
    }
}

/// NonIID-est + LSR (Alg. 3 with the Alg. 6 local query).
pub struct NonIidEstLsr;

impl NonIidEstLsr {
    /// Creates NonIID-est+LSR with the given accuracy parameters.
    ///
    /// Returns a [`NonIidEst`] configured for LSR local queries (see
    /// [`IidEstLsr::new`] for the rationale).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(seed: u64, params: AccuracyParams) -> NonIidEst {
        NonIidEst {
            sampler: Sampler::new(seed),
            local: LocalQuery::Lsr(params),
            name: "NonIID-est+LSR",
        }
    }
}

impl FraAlgorithm for NonIidEst {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Sequential execution is the shared plan/finish driver — the old
    /// hand-rolled sampling loop here was a duplicate of it.
    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        drive_planned(self, federation, query, obs)
    }

    fn supports_planning(&self) -> bool {
        true
    }

    fn plan_with(&self, federation: &Federation, query: &FraQuery, obs: &ObsContext) -> QueryPlan {
        let range = &query.range;
        let grid = federation.merged_grid();
        let spec = grid.spec();
        let classification = spec.classify(range);
        if classification.is_empty() {
            return QueryPlan::Ready(Ok(QueryResult::from_aggregate(Aggregate::ZERO, query.func)));
        }
        // Covered cells: exact contribution straight from g₀
        // (Sec. 4.2.2 remark) — no estimation, no communication.
        let covered = grid.aggregate_cells(classification.covered.iter().copied());
        if classification.boundary.is_empty() {
            // The range is exactly a union of grid cells.
            return QueryPlan::Ready(Ok(QueryResult::from_aggregate(covered, query.func)));
        }
        let sum0_count = helpers::rough_count(federation, range);
        if obs.is_enabled() {
            let rough = Aggregate {
                count: sum0_count,
                ..Aggregate::ZERO
            };
            self.local.record_accuracy(obs, &rough);
            obs.observe("fedra_boundary_cells", classification.boundary.len() as u64);
        }
        let candidates = helpers::candidate_silos(federation, range);
        // One visiting-order draw per query, whichever engine drives the
        // plan — this is what keeps batched and sequential runs
        // seed-equivalent.
        let order = self.sampler.visiting_order(&candidates);
        if sum0_count <= 0.0 {
            // No silo holds mass in the range's cells: the covered cells
            // are the exact answer. Otherwise an empty order means every
            // holder was refused, and the walk degrades at its first
            // dispatch like any exhausted one.
            return QueryPlan::Ready(Ok(QueryResult::from_aggregate(covered, query.func)));
        }
        QueryPlan::SingleSilo(RemotePlan {
            order,
            request: Request::CellContributions {
                range: *range,
                cells: classification.boundary,
                mode: self.local.mode(sum0_count),
            },
        })
    }

    fn finish_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        silo: SiloId,
        response: Response,
        rounds: u64,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let range = &query.range;
        let grid = federation.merged_grid();
        let spec = grid.spec();
        // The classification is a pure function of the grid spec and the
        // range, so recomputing it here reproduces the plan's cell list.
        let classification = spec.classify(range);
        let covered = grid.aggregate_cells(classification.covered.iter().copied());
        match response {
            Response::AggVec(contributions) => {
                if contributions.len() != classification.boundary.len() {
                    return Err(FraError::ProtocolViolation {
                        silo,
                        expected: "one aggregate per requested cell",
                    });
                }
                let sum0_count = helpers::rough_count(federation, range);
                let silo_grid = federation.silo_grid(silo);
                let mut estimate = covered;
                for (cell, res_i) in classification.boundary.iter().zip(&contributions) {
                    let g0_i = grid.cell(*cell);
                    let gk_i = silo_grid.cell(*cell);
                    let rect = spec.cell_rect_of(*cell);
                    let frac = intersection_area(range, &rect) / rect.area();
                    let fallback = g0_i.scale(frac);
                    estimate.merge_in(&helpers::ratio_scale(g0_i, res_i, gk_i, &fallback));
                }
                let mut result = QueryResult::from_aggregate(estimate, query.func)
                    .with_silo(silo)
                    .with_rounds(rounds);
                if let Some(level) = self.local.level(sum0_count) {
                    result = result.with_level(level);
                    record_level(obs, level);
                }
                Ok(result)
            }
            _ => Err(FraError::ProtocolViolation {
                silo,
                expected: "AggVec",
            }),
        }
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
    use rand::Rng;

    fn bounds() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    /// IID partitions: every silo draws from the same mixture.
    fn iid_partitions(m: usize, per_silo: usize, seed: u64) -> Vec<Vec<SpatialObject>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                (0..per_silo)
                    .map(|_| {
                        // Two clusters + background, identical across silos.
                        let (x, y): (f64, f64) = match rng.random_range(0..10) {
                            0..=4 => (
                                30.0 + rng.random_range(-8.0..8.0),
                                30.0 + rng.random_range(-8.0..8.0),
                            ),
                            5..=7 => (
                                70.0 + rng.random_range(-10.0..10.0),
                                60.0 + rng.random_range(-10.0..10.0),
                            ),
                            _ => (rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)),
                        };
                        SpatialObject::at(
                            x.clamp(0.0, 100.0),
                            y.clamp(0.0, 100.0),
                            rng.random_range(1.0..5.0),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Non-IID partitions: silo k concentrates in its own corner but keeps
    /// a city-wide background (overlapping coverage, skewed focus).
    fn noniid_partitions(m: usize, per_silo: usize, seed: u64) -> Vec<Vec<SpatialObject>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let foci = [
            (20.0, 20.0),
            (80.0, 20.0),
            (20.0, 80.0),
            (80.0, 80.0),
            (50.0, 50.0),
        ];
        (0..m)
            .map(|k| {
                let (fx, fy) = foci[k % foci.len()];
                (0..per_silo)
                    .map(|_| {
                        let (x, y): (f64, f64) = if rng.random_range(0..10) < 7 {
                            (
                                fx + rng.random_range(-12.0..12.0),
                                fy + rng.random_range(-12.0..12.0),
                            )
                        } else {
                            (rng.random_range(0.0..100.0), rng.random_range(0.0..100.0))
                        };
                        SpatialObject::at(
                            x.clamp(0.0, 100.0),
                            y.clamp(0.0, 100.0),
                            rng.random_range(1.0..3.0),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn build(partitions: Vec<Vec<SpatialObject>>, cell_len: f64) -> Federation {
        FederationBuilder::new(bounds())
            .grid_cell_len(cell_len)
            .histogram_config(MinSkewConfig {
                resolution: 32,
                budget: 64,
            })
            .build(partitions)
    }

    fn mean_rel_error(alg: &dyn FraAlgorithm, fed: &Federation, queries: &[FraQuery]) -> f64 {
        let exact = Exact::new();
        let mut total = 0.0;
        for q in queries {
            let truth = exact.execute(fed, q).value;
            let est = alg.execute(fed, q);
            total += est.relative_error(truth);
        }
        total / queries.len() as f64
    }

    fn test_queries(seed: u64, n: usize, radius: f64) -> Vec<FraQuery> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                FraQuery::circle(
                    Point::new(rng.random_range(15.0..85.0), rng.random_range(15.0..85.0)),
                    radius,
                    AggFunc::Count,
                )
            })
            .collect()
    }

    #[test]
    fn iid_est_is_accurate_on_iid_data() {
        let fed = build(iid_partitions(4, 4000, 1), 5.0);
        let queries = test_queries(2, 12, 15.0);
        let mre = mean_rel_error(&IidEst::new(3), &fed, &queries);
        assert!(mre < 0.12, "IID-est MRE {mre}");
    }

    #[test]
    fn noniid_est_is_accurate_on_noniid_data() {
        let fed = build(noniid_partitions(4, 4000, 4), 5.0);
        let queries = test_queries(5, 12, 15.0);
        let mre_noniid = mean_rel_error(&NonIidEst::new(6), &fed, &queries);
        assert!(mre_noniid < 0.10, "NonIID-est MRE {mre_noniid}");
    }

    #[test]
    fn noniid_beats_iid_on_skewed_partitions() {
        let fed = build(noniid_partitions(4, 5000, 7), 5.0);
        let queries = test_queries(8, 16, 12.0);
        let mre_iid = mean_rel_error(&IidEst::new(9), &fed, &queries);
        let mre_noniid = mean_rel_error(&NonIidEst::new(10), &fed, &queries);
        assert!(
            mre_noniid < mre_iid,
            "NonIID-est ({mre_noniid}) should beat IID-est ({mre_iid}) on Non-IID data"
        );
    }

    #[test]
    fn lsr_variants_stay_close_to_their_bases() {
        let fed = build(iid_partitions(4, 5000, 11), 5.0);
        let queries = test_queries(12, 10, 18.0);
        let params = AccuracyParams::default();
        let mre_iid_lsr = mean_rel_error(&IidEstLsr::new(13, params), &fed, &queries);
        let mre_noniid_lsr = mean_rel_error(&NonIidEstLsr::new(14, params), &fed, &queries);
        assert!(mre_iid_lsr < 0.2, "IID-est+LSR MRE {mre_iid_lsr}");
        assert!(mre_noniid_lsr < 0.15, "NonIID-est+LSR MRE {mre_noniid_lsr}");
    }

    #[test]
    fn single_silo_communication() {
        let fed = build(iid_partitions(5, 1000, 15), 5.0);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 12.0, AggFunc::Count);
        fed.reset_query_comm();
        let r = IidEst::new(16).execute(&fed, &q);
        assert_eq!(r.rounds, 1);
        assert_eq!(fed.query_comm().rounds, 1);
        assert!(r.sampled_silo.is_some());

        fed.reset_query_comm();
        let r = NonIidEst::new(17).execute(&fed, &q);
        assert_eq!(r.rounds, 1);
        let comm = fed.query_comm();
        assert_eq!(comm.rounds, 1);
        // NonIID ships per-boundary-cell vectors: more bytes than IID's
        // single aggregate but far fewer than m round trips.
        assert!(comm.total_bytes() > 0);
    }

    #[test]
    fn noniid_comm_grows_with_boundary_not_grid() {
        let fed = build(iid_partitions(3, 2000, 18), 2.0); // fine grid: 50×50 cells
        let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
        fed.reset_query_comm();
        NonIidEst::new(19).execute(&fed, &q);
        let bytes = fed.query_comm().total_bytes();
        // Boundary of a r=10 circle on a 2 km grid ≈ 2πr/L ≈ 31 cells.
        // Each costs 4 bytes up + 24 bytes down ≈ 900 bytes, far below the
        // 2500-cell full grid (~60 KB).
        assert!(bytes < 4000, "NonIID comm {bytes} bytes is not O(√|g0|)");
    }

    #[test]
    fn estimators_handle_failed_silos_by_resampling() {
        let fed = build(iid_partitions(4, 2000, 20), 5.0);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 15.0, AggFunc::Count);
        let exact = Exact::new().execute(&fed, &q).value;
        // Fail all but silo 3: estimators must still answer via resampling.
        for k in 0..3 {
            fed.set_silo_failed(k, true);
        }
        let r = IidEst::new(21).execute(&fed, &q);
        assert_eq!(r.sampled_silo, Some(3));
        assert!(r.relative_error(exact) < 0.5);
        let r = NonIidEst::new(22).execute(&fed, &q);
        assert_eq!(r.sampled_silo, Some(3));
        for k in 0..3 {
            fed.set_silo_failed(k, false);
        }
    }

    #[test]
    fn estimators_degrade_to_grid_when_all_silos_fail() {
        let fed = build(iid_partitions(3, 3000, 23), 5.0);
        let q = FraQuery::circle(Point::new(50.0, 50.0), 15.0, AggFunc::Count);
        let exact = Exact::new().execute(&fed, &q).value;
        for k in 0..3 {
            fed.set_silo_failed(k, true);
        }
        let r = IidEst::new(24).execute(&fed, &q);
        assert!(r.sampled_silo.is_none());
        assert!(r.value > 0.0);
        assert!(
            r.relative_error(exact) < 0.5,
            "grid-only degraded answer too far off"
        );
        let r = NonIidEst::new(25).execute(&fed, &q);
        assert!(r.value > 0.0);
        for k in 0..3 {
            fed.set_silo_failed(k, false);
        }
    }

    #[test]
    fn empty_ranges_are_zero_without_communication() {
        let fed = build(iid_partitions(3, 500, 26), 5.0);
        let q = FraQuery::circle(Point::new(-300.0, -300.0), 5.0, AggFunc::Sum);
        fed.reset_query_comm();
        assert_eq!(IidEst::new(27).execute(&fed, &q).value, 0.0);
        assert_eq!(NonIidEst::new(28).execute(&fed, &q).value, 0.0);
        assert_eq!(fed.query_comm().rounds, 0);
    }

    #[test]
    fn cell_aligned_rect_queries_are_exact_for_noniid() {
        // A rect query on cell boundaries: the interior cells are covered
        // (answered exactly from g₀); the only "boundary" cells are the
        // zero-width strips the closed query edge shares with the next
        // cell column/row, which hold no data in a continuous workload —
        // so NonIID-est reproduces the exact answer.
        let fed = build(noniid_partitions(3, 2000, 29), 10.0);
        let q = FraQuery::rect(
            Point::new(20.0, 20.0),
            Point::new(60.0, 70.0),
            AggFunc::Count,
        );
        let exact = Exact::new().execute(&fed, &q).value;
        fed.reset_query_comm();
        let r = NonIidEst::new(30).execute(&fed, &q);
        assert!(fed.query_comm().rounds <= 1);
        assert!((r.value - exact).abs() < 1e-9, "{} vs {exact}", r.value);
    }

    #[test]
    fn avg_and_stdev_ride_on_the_triple() {
        let fed = build(iid_partitions(4, 5000, 31), 5.0);
        let exact = Exact::new();
        for func in [AggFunc::Avg, AggFunc::Stdev] {
            let q = FraQuery::circle(Point::new(40.0, 40.0), 20.0, func);
            let truth = exact.execute(&fed, &q).value;
            let est = NonIidEst::new(32).execute(&fed, &q);
            let rel = est.relative_error(truth);
            assert!(rel < 0.2, "{func} rel error {rel}");
        }
    }

    #[test]
    fn iid_estimator_is_unbiased_over_many_seeds() {
        // E[ans'] = E[ans] (Theorem 1): average IID-est over many RNG
        // seeds; the mean must approach the exact answer much closer than
        // any single estimate's deviation.
        let fed = build(iid_partitions(5, 3000, 33), 5.0);
        let q = FraQuery::circle(Point::new(35.0, 35.0), 15.0, AggFunc::Count);
        let exact = Exact::new().execute(&fed, &q).value;
        let trials = 200;
        let mut sum = 0.0;
        for t in 0..trials {
            sum += IidEst::new(1000 + t).execute(&fed, &q).value;
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(
            rel < 0.03,
            "IID-est mean {mean} vs exact {exact} (rel {rel})"
        );
    }

    #[test]
    fn noniid_estimator_is_unbiased_over_many_seeds() {
        // Theorem 3's unbiasedness is over the data-generating process
        // *under the locality assumption*: objects within one grid cell
        // follow the same distribution at every silo. Generate data that
        // satisfies it exactly — silo-specific weights over cells, uniform
        // placement within a cell — and average the est/exact ratio across
        // freshly generated federations.
        let cell = 5.0;
        let piecewise_uniform = |m: usize, per_silo: usize, seed: u64| -> Vec<Vec<SpatialObject>> {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_cells = 20u32; // 100 / cell
            (0..m)
                .map(|k| {
                    // Distinct per-silo skew: silo k over-weights a band of
                    // columns, so cell weights genuinely differ (Non-IID).
                    let weights: Vec<f64> = (0..n_cells * n_cells)
                        .map(|id| {
                            let ix = id % n_cells;
                            if (ix as usize / 4) % m == k {
                                5.0
                            } else {
                                1.0
                            }
                        })
                        .collect();
                    let total: f64 = weights.iter().sum();
                    (0..per_silo)
                        .map(|_| {
                            let mut pick = rng.random_range(0.0..total);
                            let mut id = 0;
                            for (i, w) in weights.iter().enumerate() {
                                if pick < *w {
                                    id = i as u32;
                                    break;
                                }
                                pick -= w;
                            }
                            let (ix, iy) = (id % n_cells, id / n_cells);
                            SpatialObject::at(
                                ix as f64 * cell + rng.random_range(0.0..cell),
                                iy as f64 * cell + rng.random_range(0.0..cell),
                                rng.random_range(1.0..3.0),
                            )
                        })
                        .collect()
                })
                .collect()
        };
        let trials = 30;
        let mut ratio_sum = 0.0;
        for t in 0..trials {
            let fed = build(piecewise_uniform(4, 1500, 100 + t), cell);
            let q = FraQuery::circle(Point::new(50.0, 50.0), 15.0, AggFunc::Count);
            let exact = Exact::new().execute(&fed, &q).value;
            assert!(exact > 0.0);
            ratio_sum += NonIidEst::new(2000 + t).execute(&fed, &q).value / exact;
        }
        let mean_ratio = ratio_sum / trials as f64;
        assert!(
            (mean_ratio - 1.0).abs() < 0.04,
            "NonIID-est mean ratio {mean_ratio} drifts from 1"
        );
    }
}
