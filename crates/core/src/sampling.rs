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
//!
//! Also beyond the paper, [`NonIidEst::pooled`] samples `k` *distinct*
//! silos — the natural extension between the single-silo estimators
//! (`k = 1`, NonIID-est itself) and EXACT's pool of every silo (`k = m`).
//! It uses the *pooled* statistics: for boundary cell `i` the in-range
//! fraction is estimated from the union of the sampled silos' data in
//! that cell, `Σ_k res_i^k / Σ_k g_k[i]`, then re-scaled by `g₀[i]`.
//! Pooling (rather than averaging per-silo ratios) keeps the estimator
//! unbiased under the locality assumption while cutting its variance
//! roughly by the pooled sample-size factor; communication grows linearly
//! in `k`. The plan is NonIID-est's; the driver rides `k` legs over the
//! shuffled candidates in parallel ([`FraAlgorithm::quorum`]), leg `i`
//! starting on the `i`-th candidate, and a leg whose candidate fails for
//! good moves on to the next candidate no leg has tried. The answers are
//! pooled in candidate order, so the estimate does not depend on which
//! silo answered first. The `ablations` bench sweeps `k` to show the
//! accuracy/communication trade-off.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use fedra_federation::{Federation, LocalMode, Request, Response, SiloId};
use fedra_geo::{intersection_area, Range};
use fedra_index::grid::CellId;
use fedra_index::Aggregate;
use fedra_obs::ObsContext;

use crate::algorithm::{grid_only, AccuracyParams, FraAlgorithm, QueryPlan, RemotePlan, RunEnd};
use crate::helpers;
use crate::query::{FraError, FraQuery, QueryResult};
use crate::theory;

/// Records the LSR level an estimator committed to for one query — the
/// rescale factor 2^l is what Alg. 6 multiplies the sampled sums by.
fn record_level(obs: &ObsContext, level: usize) {
    let metrics = obs.metrics();
    metrics.lsr_level.inc(level);
    metrics
        .lsr_rescale_factor
        .set((1u64 << level.min(63)) as f64);
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
    /// The mode the sampled silo runs. For LSR that is the Lemma-1 level
    /// alone: the silo needs neither (ε, δ) nor `sum0_count`, and learns
    /// no count of the federation's.
    fn mode(&self, sum0_count: f64) -> LocalMode {
        self.level(|| sum0_count)
            .map_or(LocalMode::Exact, LocalMode::lsr)
    }

    /// The LSR level Alg. 6 selects; `sum0_count` is read only then.
    fn level(&self, sum0_count: impl FnOnce() -> f64) -> Option<usize> {
        match self {
            LocalQuery::Exact => None,
            LocalQuery::Lsr(p) => Some(theory::select_level(p.epsilon, p.delta, sum0_count())),
        }
    }

    /// Publishes the estimator's accuracy inputs (ε, δ, sum₀) once per
    /// planned query.
    fn record_accuracy(&self, obs: &ObsContext, sum0: &Aggregate) {
        let metrics = obs.metrics();
        if let LocalQuery::Lsr(p) = self {
            metrics.accuracy_epsilon.set(p.epsilon);
            metrics.accuracy_delta.set(p.delta);
        }
        metrics.sum0_count.observe(sum0.count.max(0.0) as u64);
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

    /// Shuffles candidate silos into a random visiting order (uniform
    /// first choice; the tail is the resampling fallback order).
    fn visiting_order(&self, mut candidates: Vec<SiloId>) -> Vec<SiloId> {
        candidates.shuffle(&mut *self.rng.lock().unwrap_or_else(PoisonError::into_inner));
        candidates
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

    fn plan_with(&self, federation: &Federation, query: &FraQuery, obs: &ObsContext) -> QueryPlan {
        let range = &query.range;
        // One walk yields sum₀ and every silo's sum_k.
        let sums = helpers::grid_sums(federation, range);
        let sum0 = *sums.sum0();
        self.local.record_accuracy(obs, &sum0);
        if sum0.count == 0.0 {
            // No grid cell intersecting R holds any object: the answer is
            // exactly zero, no silo contact needed.
            return QueryPlan::Ready(Ok(QueryResult::from_aggregate(Aggregate::ZERO, query.func)));
        }
        let candidates = helpers::candidate_silos(federation, &sums);
        // One visiting-order draw per query, whichever engine drives the
        // plan — this is what keeps batched and sequential runs
        // seed-equivalent.
        // sum0 > 0, so some silo holds mass in range: an empty order means
        // every holder was failure-flagged or refused by its breaker, and
        // the walk degrades at its first dispatch like any exhausted one.
        let order = self.sampler.visiting_order(candidates);
        let request = Request::Aggregate {
            range: *range,
            mode: self.local.mode(sum0.count),
        };
        QueryPlan::SingleSilo(RemotePlan {
            order,
            request: helpers::masked_for(query.func, request),
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
                let (sum0, sum_k) = helpers::sum0_and_k(federation, silo, range);
                let fallback = || helpers::grid_estimate(federation.merged_grid(), range);
                let estimate = helpers::ratio_scale(&sum0, &res_k, &sum_k, fallback);
                let mut result = QueryResult::from_aggregate(estimate, query.func)
                    .with_silo(silo)
                    .with_rounds(rounds);
                if let Some(level) = self.local.level(|| sum0.count) {
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

/// NonIID-est (Alg. 3), optionally LSR-accelerated (Alg. 3 + Alg. 6), or
/// pooling `k` sampled silos ([`NonIidEst::pooled`]).
pub struct NonIidEst {
    sampler: Sampler,
    local: LocalQuery,
    name: &'static str,
    /// Silos pooled per query; 1 walks the order until one answers.
    k: usize,
}

impl NonIidEst {
    /// Creates NonIID-est with exact local queries.
    pub fn new(seed: u64) -> Self {
        Self::pooled(seed, 1)
    }

    /// Creates NonIID-est pooling `k` sampled silos per query, with exact
    /// local queries (`MultiSilo-est`); `k = 1` is [`NonIidEst::new`].
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn pooled(seed: u64, k: usize) -> Self {
        assert!(k >= 1, "need at least one sampled silo");
        Self {
            sampler: Sampler::new(seed),
            local: LocalQuery::Exact,
            name: if k == 1 {
                "NonIID-est"
            } else {
                "MultiSilo-est"
            },
            k,
        }
    }

    /// The one request NonIID-est sends for `query`: the boundary cells'
    /// contributions, masked to `F`'s moments. The silo works out the
    /// cells itself.
    pub(crate) fn request(&self, query: &FraQuery, sum0_count: f64) -> Request {
        let request = Request::CellContributions {
            range: query.range,
            mode: self.local.mode(sum0_count),
        };
        helpers::masked_for(query.func, request)
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
            k: 1,
        }
    }
}

impl FraAlgorithm for NonIidEst {
    fn name(&self) -> &'static str {
        self.name
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
        // One walk yields sum₀ and every silo's sum_k.
        let sums = helpers::grid_sums(federation, range);
        let sum0_count = sums.sum0().count;
        let rough = Aggregate {
            count: sum0_count,
            ..Aggregate::ZERO
        };
        self.local.record_accuracy(obs, &rough);
        obs.metrics()
            .boundary_cells
            .observe(classification.boundary.len() as u64);
        let candidates = helpers::candidate_silos(federation, &sums);
        // One visiting-order draw per query, whichever engine drives the
        // plan — this is what keeps batched and sequential runs
        // seed-equivalent.
        let order = self.sampler.visiting_order(candidates);
        if sum0_count <= 0.0 {
            // No silo holds mass in the range's cells: the covered cells
            // are the exact answer. Otherwise an empty order means every
            // holder was refused, and the walk degrades at its first
            // dispatch like any exhausted one.
            return QueryPlan::Ready(Ok(QueryResult::from_aggregate(covered, query.func)));
        }
        QueryPlan::SingleSilo(RemotePlan {
            order,
            request: self.request(query, sum0_count),
        })
    }

    fn quorum(&self) -> Option<usize> {
        (self.k > 1).then_some(self.k)
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
        self.finish_answers(federation, query, &[(silo, response)], rounds, obs)
    }

    /// Pools the answers in candidate order; with none, the grid answers.
    fn finish_pooled(
        &self,
        federation: &Federation,
        query: &FraQuery,
        runs: Vec<RunEnd>,
        rounds: u64,
        obs: &ObsContext,
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
        self.finish_answers(federation, query, &answers, rounds, obs)
    }
}

impl NonIidEst {
    /// Alg. 3's finish over the non-empty `answers` of the sampled silos,
    /// in candidate order: their boundary-cell contributions summed per
    /// cell, then [`pooled_estimate`]. The first silo is the one reported.
    fn finish_answers(
        &self,
        federation: &Federation,
        query: &FraQuery,
        answers: &[(SiloId, Response)],
        rounds: u64,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let range = &query.range;
        let grid = federation.merged_grid();
        // The classification is a pure function of the grid spec and the
        // range: the silos ran the same one over the same spec.
        let classification = grid.spec().classify(range);
        let covered = grid.aggregate_cells(classification.covered.iter().copied());
        let mut pooled: Vec<Aggregate> = Vec::new();
        for (i, &(silo, ref response)) in answers.iter().enumerate() {
            let Response::AggVec(reply) = response else {
                return Err(FraError::ProtocolViolation {
                    silo,
                    expected: "AggVec",
                });
            };
            // Each silo replies for its own contributing cells.
            let Some(contributions) = helpers::scatter_reply(
                federation.silo_grid(silo),
                &classification.boundary,
                query.func.moments(),
                reply,
            ) else {
                return Err(FraError::ProtocolViolation {
                    silo,
                    expected: "one aggregate per contributing cell",
                });
            };
            if i == 0 {
                pooled = contributions;
            } else {
                for (acc, c) in pooled.iter_mut().zip(&contributions) {
                    acc.merge_in(c);
                }
            }
        }
        let silos = answers.iter().map(|(silo, _)| silo);
        let boundary = &classification.boundary;
        let estimate = pooled_estimate(federation, range, covered, boundary, &pooled, silos);
        let mut result = QueryResult::from_aggregate(estimate, query.func).with_rounds(rounds);
        if let Some(&(first, _)) = answers.first() {
            result = result.with_silo(first);
        }
        // Only the LSR variant reads sum₀; it walks g₀ alone.
        let sum0_count = || helpers::sum0(federation, range).count;
        if let Some(level) = self.local.level(sum0_count) {
            result = result.with_level(level);
            record_level(obs, level);
        }
        Ok(result)
    }
}

/// The pooled estimate: `covered` plus, per boundary cell `i`, the pooled
/// contribution `pooled[i]` re-scaled by `g₀[i] / Σ_k g_k[i]` over the
/// `pooled_silos` (one silo: Alg. 3's `g₀[i] / g_k[i]`; none: `covered`).
/// A silo replies only for the cells it holds mass in, and each entry
/// counts exactly the objects its grid bins into that cell, so `pooled[i]`
/// and `Σ_k g_k[i]` count the same objects.
fn pooled_estimate<'a, S>(
    federation: &Federation,
    range: &Range,
    covered: Aggregate,
    boundary: &[CellId],
    pooled: &[Aggregate],
    pooled_silos: S,
) -> Aggregate
where
    S: IntoIterator<Item = &'a SiloId>,
    S::IntoIter: Clone,
{
    let grid = federation.merged_grid();
    let spec = grid.spec();
    let mut rest = pooled_silos.into_iter();
    let Some(first) = rest.next().map(|&silo| federation.silo_grid(silo)) else {
        return covered;
    };
    let mut estimate = covered;
    for (cell, pooled_i) in boundary.iter().zip(pooled) {
        let g0_i = grid.cell(*cell);
        // Pooled denominator: the sampled silos' combined cell totals.
        let mut gk_i = *first.cell(*cell);
        for &s in rest.clone() {
            gk_i.merge_in(federation.silo_grid(s).cell(*cell));
        }
        let fallback = || {
            let rect = spec.cell_rect_of(*cell);
            g0_i.scale(intersection_area(range, &rect) / rect.area())
        };
        estimate.merge_in(&helpers::ratio_scale(g0_i, pooled_i, &gk_i, fallback));
    }
    estimate
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
        let payload = fed.query_comm().total_bytes() - 2 * fed.message_overhead();
        // Up: Masked tag + mask byte + CellContributions tag + range (25 B)
        // + Exact mode byte = 29 B, whatever the boundary. Down: AggVec
        // tag + a one-byte varint length (fewer than 128 cells) + the
        // layout byte, then at most 9 B per boundary cell (a sparse COUNT
        // cell: presence byte + at most 8 B; a COUNT column entry takes
        // at most 8). The boundary of an r = 10 circle on a 2 km grid is
        // ≈ 4 · 2r/L = 40 cells, not the 2500 of the grid.
        let n = fed.merged_grid().spec().classify(&q.range).boundary.len() as u64;
        assert!((30..=48).contains(&n), "{n} boundary cells");
        let priced = 29 + 3 + 9 * n;
        assert!(payload <= priced, "NonIID comm {payload} > {priced} bytes");
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

    /// `sum₀ × res / sum_k` with the fallback computed up front, as the
    /// estimators did before `ratio_scale` took a closure.
    fn eager_ratio_scale(
        s0: &Aggregate,
        res: &Aggregate,
        sk: &Aggregate,
        fb: &Aggregate,
    ) -> Aggregate {
        let c = |s0: f64, r: f64, sk: f64, fb: f64| {
            if fedra_index::ratio_reads(sk) {
                s0 * (r / sk)
            } else {
                fb
            }
        };
        Aggregate {
            count: c(s0.count, res.count, sk.count, fb.count),
            sum: c(s0.sum, res.sum, sk.sum, fb.sum),
            sum_sqr: c(s0.sum_sqr, res.sum_sqr, sk.sum_sqr, fb.sum_sqr),
        }
    }

    fn bits(a: &Aggregate) -> [u64; 3] {
        [a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits()]
    }

    #[test]
    fn a_fallback_computed_only_when_read_changes_no_answer() {
        let fed = build(noniid_partitions(4, 3000, 40), 5.0);
        let grid = fed.merged_grid();
        let spec = grid.spec();
        let params = AccuracyParams::default();
        let noop = ObsContext::noop();
        let mut rng = StdRng::seed_from_u64(41);
        let (mut compared, mut fallbacks_read) = (0, 0);
        for i in 0..24u64 {
            let center = Point::new(rng.random_range(10.0..90.0), rng.random_range(10.0..90.0));
            let radius = rng.random_range(2.0..15.0);
            for func in AggFunc::ALL {
                let q = FraQuery::circle(center, radius, func);
                let estimators: [Box<dyn FraAlgorithm>; 4] = [
                    Box::new(IidEst::new(i)),
                    Box::new(IidEstLsr::new(i, params)),
                    Box::new(NonIidEst::new(i)),
                    Box::new(NonIidEstLsr::new(i, params)),
                ];
                for (e, alg) in estimators.iter().enumerate() {
                    let QueryPlan::SingleSilo(plan) = alg.plan_with(&fed, &q, noop) else {
                        continue;
                    };
                    let lsr = e % 2 == 1;
                    let sum0 = helpers::sum0(&fed, &q.range);
                    for &silo in &plan.order {
                        let reply = fed.call(silo, &plan.request).expect("silo answers");
                        let lazy = alg
                            .finish_with(&fed, &q, silo, reply.clone(), 1, noop)
                            .expect("finish");
                        let estimate = match reply {
                            Response::Agg(res_k) => {
                                let sum_k = *helpers::grid_sums(&fed, &q.range).sum_k(silo);
                                let fb = helpers::grid_estimate(fed.merged_grid(), &q.range);
                                if bits(&eager_ratio_scale(&sum0, &res_k, &sum_k, &Aggregate::ZERO))
                                    != bits(&eager_ratio_scale(&sum0, &res_k, &sum_k, &fb))
                                {
                                    fallbacks_read += 1;
                                }
                                eager_ratio_scale(&sum0, &res_k, &sum_k, &fb)
                            }
                            Response::AggVec(reply) => {
                                let cls = spec.classify(&q.range);
                                let silo_grid = fed.silo_grid(silo);
                                let scattered = helpers::scatter_reply(
                                    silo_grid,
                                    &cls.boundary,
                                    func.moments(),
                                    &reply,
                                )
                                .expect("one entry per contributing cell");
                                let mut estimate =
                                    grid.aggregate_cells(cls.covered.iter().copied());
                                for (cell, res) in cls.boundary.iter().zip(&scattered) {
                                    let rect = spec.cell_rect_of(*cell);
                                    let g0 = grid.cell(*cell);
                                    let fb =
                                        g0.scale(intersection_area(&q.range, &rect) / rect.area());
                                    let gk = silo_grid.cell(*cell);
                                    if [gk.count, gk.sum, gk.sum_sqr]
                                        .iter()
                                        .any(|&x| !fedra_index::ratio_reads(x))
                                    {
                                        fallbacks_read += 1;
                                    }
                                    estimate.merge_in(&eager_ratio_scale(g0, res, gk, &fb));
                                }
                                estimate
                            }
                            other => panic!("unexpected reply {other:?}"),
                        };
                        let mut eager = QueryResult::from_aggregate(estimate, func)
                            .with_silo(silo)
                            .with_rounds(1);
                        if lsr {
                            let rough = helpers::sum0(&fed, &q.range).count;
                            eager = eager.with_level(theory::select_level(
                                params.epsilon,
                                params.delta,
                                rough,
                            ));
                        }
                        let what = format!("{} {q} silo {silo}", alg.name());
                        assert_eq!(lazy.value.to_bits(), eager.value.to_bits(), "{what}");
                        assert_eq!(bits(&lazy.aggregate), bits(&eager.aggregate), "{what}");
                        assert_eq!(lazy, eager, "{what}");
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 400, "{compared} answers compared");
        assert!(
            fallbacks_read > 0,
            "no answer read its fallback: the test is vacuous"
        );
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

    /// `NonIidEst::pooled`: `k` sampled silos' answers pooled per cell.
    mod pooled {
        use super::super::*;
        use crate::exact::Exact;
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
            NonIidEst::pooled(0, 0);
        }

        #[test]
        fn k_equals_m_is_nearly_exact() {
            // Pooling every silo leaves only within-cell spatial variation —
            // boundary cells estimated from *all* the data in them.
            let fed = federation(4, 2000, 1);
            let alg = NonIidEst::pooled(2, 4);
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
                let alg = NonIidEst::pooled(seed, k);
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
        fn k_one_is_noniid_est_bit_for_bit() {
            // The same seeded stream through `pooled(s, 1)` and `new(s)`:
            // same value bits, silo and rounds, healthy and with one silo
            // failure-flagged (the walk resamples past it).
            let fed = federation(4, 1500, 8);
            for failed in [None, Some(2)] {
                if let Some(silo) = failed {
                    fed.set_silo_failed(silo, true);
                }
                let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Stdev];
                for (f, func) in funcs.into_iter().enumerate() {
                    let seed = 9 + f as u64;
                    let (one, walk) = (NonIidEst::pooled(seed, 1), NonIidEst::new(seed));
                    assert_eq!((one.name(), one.quorum()), (walk.name(), walk.quorum()));
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..200 {
                        let center =
                            Point::new(rng.random_range(5.0..95.0), rng.random_range(5.0..95.0));
                        let q = FraQuery::circle(center, rng.random_range(1.0..15.0), func);
                        let (a, b) = (one.try_execute(&fed, &q), walk.try_execute(&fed, &q));
                        let (a, b) = (a.expect("pooled(s, 1) answers"), b.expect("new(s) answers"));
                        assert_eq!(
                            a.value.to_bits(),
                            b.value.to_bits(),
                            "{q} failed {failed:?}"
                        );
                        assert_eq!(
                            (a.sampled_silo, a.rounds),
                            (b.sampled_silo, b.rounds),
                            "{q}"
                        );
                        assert_eq!(a, b, "{q} failed {failed:?}");
                    }
                }
                if let Some(silo) = failed {
                    fed.set_silo_failed(silo, false);
                }
            }
        }

        #[test]
        fn communication_scales_linearly_in_k() {
            let fed = federation(4, 1000, 11);
            let q = FraQuery::circle(Point::new(50.0, 50.0), 10.0, AggFunc::Count);
            let bytes = |k: usize| {
                fed.reset_query_comm();
                NonIidEst::pooled(12, k).execute(&fed, &q);
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
            let alg = NonIidEst::pooled(14, 2);
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
                    let masked = NonIidEst::pooled(100 + i, k).execute(&fed, &q);

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
                    let estimate = pooled_estimate(
                        &fed,
                        &q.range,
                        covered,
                        &cls.boundary,
                        &pooled,
                        &order[..k],
                    );
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
            let got = NonIidEst::pooled(41, 2).execute(&fed, &q);
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
            let alg = NonIidEst::pooled(16, 10);
            let r = alg.execute(&fed, &q);
            assert!(r.value >= 0.0);
            assert!(r.rounds <= 3);
        }
    }
}
