//! An adaptive per-query planner (extension beyond the paper).
//!
//! The paper fixes one algorithm per experiment; a production service
//! provider would rather pick per query, using information it already has
//! for free: the merged grid `g₀`, the per-silo grids `g_k`, and an
//! accuracy/communication policy. [`AdaptivePlanner`] does exactly that:
//!
//! 1. **no boundary cells** → the Non-IID path answers exactly from `g₀`
//!    with zero silo contact — always take it;
//! 2. **tight error target** (below what sampling can promise for this
//!    query's boundary share) → fall back to EXACT;
//! 3. **tight communication budget** (below the Non-IID per-cell
//!    transfer) → IID-est, the O(1)-bytes option;
//! 4. otherwise choose by measured *partition skew* over the query's
//!    cells: low skew → IID-est (cheapest), high skew → NonIID-est
//!    (unbiased under skew).
//!
//! The skew score is the maximum, over silos, of the total-variation
//! distance between the silo's COUNT distribution and the federation's
//! over the cells intersecting the range — a direct, data-driven proxy
//! for "how wrong would IID-est's single-scalar re-weighting be here".
//! Every decision is returned alongside the answer for observability.

use fedra_federation::wire::Wire;
use fedra_federation::{Federation, LocalMode, Request, Response};
use fedra_geo::intersection_area;
use fedra_index::Aggregate;
use fedra_obs::{labeled, ObsContext};

use crate::algorithm::FraAlgorithm;
use crate::exact::Exact;
use crate::helpers;
use crate::query::{FraError, FraQuery, QueryResult};
use crate::sampling::{IidEst, NonIidEst};

/// The planner's policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerPolicy {
    /// Expected-relative-error target. Queries whose boundary share makes
    /// sampling unlikely to meet it are escalated to EXACT.
    pub target_error: f64,
    /// Optional per-query communication budget in bytes (payload +
    /// envelope). `None` = unconstrained.
    pub comm_budget_bytes: Option<u64>,
    /// Skew threshold above which NonIID-est is preferred over IID-est.
    pub skew_threshold: f64,
}

impl Default for PlannerPolicy {
    fn default() -> Self {
        Self {
            target_error: 0.05,
            comm_budget_bytes: None,
            skew_threshold: 0.10,
        }
    }
}

/// Which algorithm the planner chose, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDecision {
    /// No boundary cells: answered exactly from `g₀`, zero silo contact.
    GridExact,
    /// Error target unreachable by sampling: escalated to EXACT fan-out.
    Exact {
        /// Boundary share that forced the escalation (0–1).
        boundary_share_percent: u32,
    },
    /// Communication budget ruled out per-cell transfer: IID-est.
    IidForBudget,
    /// Low measured skew: IID-est suffices.
    IidLowSkew,
    /// High measured skew: NonIID-est.
    NonIidHighSkew,
}

/// The adaptive planner. Wraps one instance of each strategy.
pub struct AdaptivePlanner {
    policy: PlannerPolicy,
    exact: Exact,
    iid: IidEst,
    noniid: NonIidEst,
}

impl AdaptivePlanner {
    /// Creates a planner with the given policy; `seed` drives the wrapped
    /// estimators' silo sampling.
    pub fn new(seed: u64, policy: PlannerPolicy) -> Self {
        Self {
            policy,
            exact: Exact::new(),
            iid: IidEst::new(seed),
            noniid: NonIidEst::new(seed ^ 0x00AD_A94E),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> PlannerPolicy {
        self.policy
    }

    /// Plans (without executing): the decision the planner would take.
    pub fn plan(&self, federation: &Federation, query: &FraQuery) -> PlanDecision {
        let grid = federation.merged_grid();
        let spec = grid.spec();
        let cls = spec.classify(&query.range);
        if cls.boundary.is_empty() {
            return PlanDecision::GridExact;
        }

        // Boundary share: the fraction of the expected in-range mass that
        // must be *estimated* rather than read exactly. Boundary cells are
        // weighted by their covered-area fraction so that degenerate
        // zero-width overlaps (a closed query edge grazing the next cell
        // column) contribute nothing.
        let covered: Aggregate = grid.aggregate_cells(cls.covered.iter().copied());
        let mut boundary_mass = 0.0f64;
        for &c in &cls.boundary {
            let rect = spec.cell_rect_of(c);
            let frac = intersection_area(&query.range, &rect) / rect.area();
            boundary_mass += grid.cell(c).count * frac;
        }
        let total_mass = covered.count + boundary_mass;
        if total_mass <= 0.0 || boundary_mass < 1e-9 {
            // Nothing to estimate: g₀ answers exactly.
            return PlanDecision::GridExact;
        }
        let boundary_share = boundary_mass / total_mass;
        // A sampled silo sees ~1/m of the boundary mass; estimating the
        // in-range proportion from s samples carries ~1/√s relative
        // noise, diluted by the boundary share of the answer.
        let m = federation.num_silos() as f64;
        let samples_per_silo = (boundary_mass / m).max(1.0);
        let plausible_error = boundary_share / samples_per_silo.sqrt();
        if plausible_error > self.policy.target_error {
            return PlanDecision::Exact {
                boundary_share_percent: (boundary_share * 100.0) as u32,
            };
        }

        // Communication budget: what NonIID-est would put on the wire for
        // this query — its per-cell request, one aggregate per boundary
        // cell back, and the federation's envelope each way.
        if let Some(budget) = self.policy.comm_budget_bytes {
            let request = Request::CellContributions {
                range: query.range,
                cells: cls.boundary.clone(),
                mode: LocalMode::Exact,
            };
            let reply = Response::AggVec(vec![Aggregate::ZERO; cls.boundary.len()]);
            let payload = (request.encoded_len() + reply.encoded_len()) as u64;
            if payload + 2 * federation.message_overhead() > budget {
                return PlanDecision::IidForBudget;
            }
        }

        // Skew over the relevant cells: TV distance between each silo's
        // per-cell distribution and the federation's, minus the TV a
        // *perfectly IID* silo of the same size would show from sampling
        // noise alone (E|p̂−p| ≈ √(2p(1−p)/(πn)) per cell). Without the
        // noise floor, large uniform federations would read as skewed.
        let cells: Vec<u32> = cls.iter().collect();
        let g0_total: f64 = cells.iter().map(|&c| grid.cell(c).count).sum();
        let mut max_excess = 0.0f64;
        for k in 0..federation.num_silos() {
            let silo_grid = federation.silo_grid(k);
            let k_total: f64 = cells.iter().map(|&c| silo_grid.cell(c).count).sum();
            if k_total <= 0.0 {
                // A silo with no data here is maximally skewed.
                max_excess = 1.0;
                break;
            }
            let mut tv = 0.0;
            let mut noise_floor = 0.0;
            for &c in &cells {
                let p = grid.cell(c).count / g0_total;
                let p_k = silo_grid.cell(c).count / k_total;
                tv += (p_k - p).abs();
                noise_floor += (2.0 * p * (1.0 - p) / (std::f64::consts::PI * k_total)).sqrt();
            }
            max_excess = max_excess.max((tv - noise_floor) / 2.0);
        }
        if max_excess > self.policy.skew_threshold {
            PlanDecision::NonIidHighSkew
        } else {
            PlanDecision::IidLowSkew
        }
    }

    /// Plans and executes, returning the decision with the result.
    pub fn execute_planned(
        &self,
        federation: &Federation,
        query: &FraQuery,
    ) -> Result<(PlanDecision, QueryResult), FraError> {
        self.execute_planned_with(federation, query, ObsContext::noop())
    }

    /// Plans and executes with instrumentation, counting each decision
    /// under `fedra_plan_decision_total{decision="..."}`.
    pub fn execute_planned_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<(PlanDecision, QueryResult), FraError> {
        let decision = self.plan(federation, query);
        if obs.is_enabled() {
            let tag = match decision {
                PlanDecision::GridExact => "grid_exact",
                PlanDecision::Exact { .. } => "exact",
                PlanDecision::IidForBudget => "iid_for_budget",
                PlanDecision::IidLowSkew => "iid_low_skew",
                PlanDecision::NonIidHighSkew => "noniid_high_skew",
            };
            obs.inc(&labeled("fedra_plan_decision_total", "decision", tag));
        }
        let result = match decision {
            // No estimable boundary mass: answer from the provider's own
            // grid state, zero silo contact. (grid_only_estimate adds the
            // area-weighted boundary term, which is ~0 by construction
            // whenever this branch is chosen.)
            PlanDecision::GridExact => QueryResult::from_aggregate(
                helpers::grid_only_estimate(federation, &query.range),
                query.func,
            ),
            PlanDecision::Exact { .. } => self.exact.try_execute_with(federation, query, obs)?,
            PlanDecision::IidForBudget | PlanDecision::IidLowSkew => {
                self.iid.try_execute_with(federation, query, obs)?
            }
            PlanDecision::NonIidHighSkew => self.noniid.try_execute_with(federation, query, obs)?,
        };
        Ok((decision, result))
    }
}

impl FraAlgorithm for AdaptivePlanner {
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        self.execute_planned_with(federation, query, obs)
            .map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_federation::FederationBuilder;
    use fedra_geo::{Point, Range, Rect, SpatialObject};
    use fedra_index::histogram::MinSkewConfig;
    use fedra_index::AggFunc;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(partitions: Vec<Vec<SpatialObject>>) -> Federation {
        FederationBuilder::new(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)))
            .grid_cell_len(5.0)
            .histogram_config(MinSkewConfig {
                resolution: 8,
                budget: 8,
            })
            .build(partitions)
    }

    fn uniform_partitions(m: usize, per_silo: usize, seed: u64) -> Vec<Vec<SpatialObject>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                (0..per_silo)
                    .map(|_| {
                        SpatialObject::at(
                            rng.random_range(0.0..100.0),
                            rng.random_range(0.0..100.0),
                            1.0,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn corner_partitions(per_silo: usize, seed: u64) -> Vec<Vec<SpatialObject>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let foci = [(25.0, 25.0), (75.0, 75.0)];
        foci.iter()
            .map(|&(fx, fy)| {
                (0..per_silo)
                    .map(|_| {
                        let x: f64 = fx + rng.random_range(-20.0..20.0);
                        let y: f64 = fy + rng.random_range(-20.0..20.0);
                        SpatialObject::at(x.clamp(0.0, 100.0), y.clamp(0.0, 100.0), 1.0)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cell_aligned_queries_choose_grid_exact() {
        let fed = build(uniform_partitions(3, 2000, 1));
        let planner = AdaptivePlanner::new(2, PlannerPolicy::default());
        let q = FraQuery::rect(
            Point::new(10.0, 10.0),
            Point::new(60.0, 60.0),
            AggFunc::Count,
        );
        assert_eq!(planner.plan(&fed, &q), PlanDecision::GridExact);
        fed.reset_query_comm();
        let (decision, result) = planner.execute_planned(&fed, &q).unwrap();
        assert_eq!(decision, PlanDecision::GridExact);
        assert!(result.value > 0.0);
        assert_eq!(fed.query_comm().rounds, 0);
    }

    #[test]
    fn uniform_data_chooses_iid() {
        let fed = build(uniform_partitions(4, 5000, 3));
        let planner = AdaptivePlanner::new(4, PlannerPolicy::default());
        let q = FraQuery::circle(Point::new(50.0, 50.0), 17.0, AggFunc::Count);
        assert_eq!(planner.plan(&fed, &q), PlanDecision::IidLowSkew);
    }

    #[test]
    fn skewed_data_chooses_noniid() {
        let fed = build(corner_partitions(4000, 5));
        let planner = AdaptivePlanner::new(6, PlannerPolicy::default());
        // A query near one focus: the two silos' local distributions
        // diverge hard over its cells.
        let q = FraQuery::circle(Point::new(30.0, 30.0), 17.0, AggFunc::Count);
        assert_eq!(planner.plan(&fed, &q), PlanDecision::NonIidHighSkew);
    }

    #[test]
    fn tight_error_targets_escalate_to_exact() {
        let fed = build(uniform_partitions(3, 300, 7));
        let policy = PlannerPolicy {
            target_error: 0.001,
            ..PlannerPolicy::default()
        };
        let planner = AdaptivePlanner::new(8, policy);
        // Small radius → almost all relevant mass is boundary mass, and a
        // 0.1 % target is not plausible from a sparse sample.
        let q = FraQuery::circle(Point::new(50.0, 50.0), 4.0, AggFunc::Count);
        match planner.plan(&fed, &q) {
            PlanDecision::Exact {
                boundary_share_percent,
            } => {
                assert!(boundary_share_percent > 30);
            }
            other => panic!("expected EXACT escalation, got {other:?}"),
        }
        let (_, result) = planner.execute_planned(&fed, &q).unwrap();
        // EXACT means zero error.
        let truth = Exact::new().execute(&fed, &q).value;
        assert_eq!(result.value, truth);
    }

    #[test]
    fn comm_budget_forces_iid() {
        let fed = build(corner_partitions(4000, 9));
        let policy = PlannerPolicy {
            target_error: 0.5,             // lax, so budget is the binding constraint
            comm_budget_bytes: Some(1100), // below envelope + per-cell cost
            skew_threshold: 0.0,           // would otherwise always pick NonIID
            ..PlannerPolicy::default()
        };
        let planner = AdaptivePlanner::new(10, policy);
        let q = FraQuery::circle(Point::new(30.0, 30.0), 17.0, AggFunc::Count);
        assert_eq!(planner.plan(&fed, &q), PlanDecision::IidForBudget);
    }

    #[test]
    fn the_comm_budget_is_what_noniid_est_puts_on_the_wire() {
        let ranges = [
            Range::circle(Point::new(30.0, 30.0), 17.0),
            Range::rect(Point::new(12.5, 17.5), Point::new(41.0, 38.0)),
        ];
        for overhead in [0, fedra_obs::DEFAULT_MESSAGE_OVERHEAD] {
            let fed =
                FederationBuilder::new(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)))
                    .grid_cell_len(5.0)
                    .message_overhead(overhead)
                    .build(corner_partitions(4000, 21));
            for range in ranges {
                let q = FraQuery::new(range, AggFunc::Count);
                fed.reset_query_comm();
                NonIidEst::new(22).execute(&fed, &q);
                let cost = fed.query_comm().total_bytes();
                let planner = |budget| {
                    let policy = PlannerPolicy {
                        target_error: 0.5,
                        comm_budget_bytes: Some(budget),
                        skew_threshold: 0.0,
                    };
                    AdaptivePlanner::new(23, policy).plan(&fed, &q)
                };
                assert_eq!(planner(cost), PlanDecision::NonIidHighSkew, "{range:?}");
                assert_eq!(planner(cost - 1), PlanDecision::IidForBudget, "{range:?}");
            }
        }
    }

    #[test]
    fn planner_is_a_drop_in_algorithm() {
        let fed = build(uniform_partitions(3, 3000, 11));
        let planner = AdaptivePlanner::new(12, PlannerPolicy::default());
        let q = FraQuery::circle(Point::new(50.0, 50.0), 15.0, AggFunc::Count);
        let truth = Exact::new().execute(&fed, &q).value;
        let r = planner.execute(&fed, &q);
        assert_eq!(planner.name(), "Adaptive");
        assert!(r.relative_error(truth) < 0.3);
    }

    #[test]
    fn empty_region_answers_zero_without_contact() {
        let fed = build(uniform_partitions(2, 500, 13));
        let planner = AdaptivePlanner::new(14, PlannerPolicy::default());
        let q = FraQuery::circle(Point::new(-400.0, -400.0), 3.0, AggFunc::Count);
        fed.reset_query_comm();
        let (decision, result) = planner.execute_planned(&fed, &q).unwrap();
        assert_eq!(decision, PlanDecision::GridExact);
        assert_eq!(result.value, 0.0);
        assert_eq!(fed.query_comm().rounds, 0);
    }
}
