//! The [`FraAlgorithm`] trait every query algorithm implements.

use fedra_federation::{Federation, Request, Response, SiloId, TransportError};
use fedra_index::Aggregate;
use fedra_obs::{ObsContext, Span, TraceHandle};

use crate::framework::drive_rounds;
use crate::helpers;
use crate::query::{Coverage, FraError, FraQuery, QueryResult};
use crate::run::{Budget, End};
use crate::theory;

/// Accuracy parameters `(ε, δ)` for the LSR-accelerated variants
/// (Tab. 2 defaults: ε = 0.10, δ = 0.01).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyParams {
    /// Target approximation ratio ε (Definition 3).
    pub epsilon: f64,
    /// Failure-probability upper bound δ (Lemma 1).
    pub delta: f64,
}

impl Default for AccuracyParams {
    fn default() -> Self {
        Self {
            epsilon: 0.10,
            delta: 0.01,
        }
    }
}

impl AccuracyParams {
    /// Creates accuracy parameters.
    ///
    /// # Panics
    /// Panics on out-of-domain values.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive"
        );
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
        Self { epsilon, delta }
    }
}

/// The remote step a planning algorithm wants executed for one query.
///
/// Produced by [`FraAlgorithm::plan_with`] when the query needs exactly one
/// silo's answer (the single-silo sampling pattern of Algs. 2 and 3).
#[derive(Debug, Clone)]
pub struct RemotePlan {
    /// Candidate silos in visiting order: the head is the sampled silo,
    /// the tail is the resample-on-failure fallback order.
    pub order: Vec<SiloId>,
    /// The request to send to whichever candidate is visited.
    pub request: Request,
}

/// The outcome of planning one query ([`FraAlgorithm::plan_with`]).
#[derive(Debug)]
pub enum QueryPlan {
    /// The query resolved provider-side — no silo contact needed (or the
    /// algorithm does not split planning from execution).
    Ready(Result<QueryResult, FraError>),
    /// One single-silo request remains; execute it (resampling down
    /// [`RemotePlan::order`] on failure) and hand the response to
    /// [`FraAlgorithm::finish_with`].
    SingleSilo(RemotePlan),
}

/// A federated range aggregation algorithm.
///
/// Implementations are `Send + Sync` so the multi-query framework
/// (Alg. 4) can drive one instance from many worker threads; internal
/// randomness therefore lives behind locks.
///
/// # One fallible core
///
/// [`try_execute_with`](Self::try_execute_with) is the single required
/// execution method; everything else layers on it. `try_execute` is the
/// uninstrumented convenience (a no-op [`ObsContext`]), and `execute` the
/// panicking convenience over that — so instrumentation and error
/// handling are threaded through exactly one place per algorithm.
///
/// # Planning split
///
/// Single-silo estimators additionally implement the
/// [`plan_with`](Self::plan_with) / [`finish_with`](Self::finish_with)
/// split (and return `true` from
/// [`supports_planning`](Self::supports_planning)): `plan_with` does the
/// provider-side work and names the one remote request, the engine
/// coalesces all same-silo requests of a batch into one wire frame, and
/// `finish_with` re-weights the response. The split changes *where*
/// requests are sent from, not *what* is sent — a planned query consumes
/// the same RNG draws and produces the same result as `try_execute`.
/// Such algorithms get their sequential execution for free from
/// [`drive_planned`].
pub trait FraAlgorithm: Send + Sync {
    /// The algorithm's display name (matches the paper's legends:
    /// `EXACT`, `OPTA`, `IID-est`, `IID-est+LSR`, `NonIID-est`,
    /// `NonIID-est+LSR`).
    fn name(&self) -> &'static str;

    /// Executes one query, recording telemetry into `obs`, returning the
    /// result or a federation error.
    ///
    /// This is the one fallible core every other execution entry point
    /// wraps. Passing [`ObsContext::noop`] makes every recording a single
    /// branch, so uninstrumented callers pay nothing measurable.
    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError>;

    /// Executes one query without instrumentation.
    fn try_execute(
        &self,
        federation: &Federation,
        query: &FraQuery,
    ) -> Result<QueryResult, FraError> {
        self.try_execute_with(federation, query, ObsContext::noop())
    }

    /// Executes one query, panicking on federation errors (convenience
    /// for examples and healthy-path code).
    ///
    /// # Panics
    /// Panics when `try_execute` fails; fallible callers should use
    /// `try_execute` directly.
    fn execute(&self, federation: &Federation, query: &FraQuery) -> QueryResult {
        match self.try_execute(federation, query) {
            Ok(result) => result,
            Err(e) => panic!("{} failed: {e}", self.name()), // fedra-lint: allow(panic-discipline)
        }
    }

    /// Whether this algorithm implements the plan/finish split.
    ///
    /// `false` (the default) means [`plan_with`](Self::plan_with) simply
    /// runs [`try_execute_with`](Self::try_execute_with) — correct, but
    /// it gives the batch engine nothing to coalesce.
    fn supports_planning(&self) -> bool {
        false
    }

    /// The request this algorithm sends to **every** silo for `query`, when
    /// it is a fan-out (EXACT, OPTA): the query then rides the rounds as
    /// `m` single-silo legs whose `Agg` partials are summed in silo-id
    /// order — alone, in the batch engine and in the scheduler. `None`
    /// (the default) for everything else.
    fn fan_out(&self, _query: &FraQuery) -> Option<Request> {
        None
    }

    /// Performs the provider-side part of one query, recording telemetry
    /// into `obs`.
    ///
    /// Must consume exactly the same internal randomness as
    /// [`try_execute`](Self::try_execute) would, so batched and
    /// sequential execution of the same query stream stay
    /// fixed-seed-equivalent.
    fn plan_with(&self, federation: &Federation, query: &FraQuery, obs: &ObsContext) -> QueryPlan {
        QueryPlan::Ready(self.try_execute_with(federation, query, obs))
    }

    /// Completes a planned query from the sampled silo's response,
    /// recording telemetry into `obs`.
    ///
    /// `rounds` is the number of silo attempts spent on this query
    /// (1 unless earlier candidates failed and the engine resampled).
    fn finish_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        silo: SiloId,
        response: Response,
        rounds: u64,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let _ = (federation, query, silo, response, rounds, obs);
        unimplemented!(
            "{}: plan_with() returned SingleSilo but finish_with() is not implemented",
            self.name()
        )
    }

    /// Completes a planned query after *every* candidate silo failed.
    ///
    /// The default degrades to the provider-only grid estimate —
    /// availability over precision, matching the estimators' sequential
    /// behaviour. Under [`fedra_federation::DegradePolicy::Partial`] the
    /// answer carries an
    /// honest [`Coverage`] record (zero responding silos; the certain
    /// fraction of `g₀` as the mass backing) with the inflated bound of
    /// [`theory::degraded_epsilon`] — or fails outright when the policy's
    /// floors are not met.
    fn finish_degraded(
        &self,
        federation: &Federation,
        query: &FraQuery,
        rounds: u64,
    ) -> Result<QueryResult, FraError> {
        let fallback = helpers::grid_estimate(federation.merged_grid(), &query.range);
        let result = QueryResult::from_aggregate(fallback, query.func).with_rounds(rounds);
        let policy = federation.degrade_policy();
        if !policy.allows_partial() {
            return Ok(result);
        }
        let certain = helpers::grid_certain_fraction(federation, &query.range);
        if !policy.accepts(0, certain) {
            // The trail is backfilled by finish_run, which holds the
            // run's per-candidate errors.
            return Err(FraError::AllSilosUnavailable { errors: vec![] });
        }
        Ok(result.with_coverage(Coverage {
            responding: 0,
            total: federation.num_silos(),
            mass_fraction: certain,
            epsilon: theory::degraded_epsilon(0.0, certain),
        }))
    }
}

/// Surfaces a coverage-annotated (degraded-mode) answer as metrics:
/// `fedra_degraded_answers_total` plus the `fedra_coverage_ppm` gauge
/// (mass fraction in parts-per-million). No-op for full answers.
pub(crate) fn note_coverage(obs: &ObsContext, result: &QueryResult) {
    if let Some(coverage) = &result.coverage {
        let metrics = obs.metrics();
        metrics.degraded_answers.inc();
        metrics
            .coverage_ppm
            .set((coverage.mass_fraction * 1_000_000.0).round());
    }
}

/// The driver's finish step for a planned walk: turns the [`End`] of a
/// run's walk into the query's result — `finish_with` on the winning reply
/// (under a `finish` span on `trace`), or `finish_degraded` with the
/// run's error trail backfilled — and records the sampled/degraded
/// counters and the coverage metrics.
pub(crate) fn finish_run<A: FraAlgorithm + ?Sized>(
    algorithm: &A,
    federation: &Federation,
    query: &FraQuery,
    end: End,
    trace: &TraceHandle,
    obs: &ObsContext,
) -> Result<QueryResult, FraError> {
    let outcome = match end {
        End::Answer {
            silo,
            response,
            rounds,
        } => {
            obs.metrics().sampled_silo.inc(silo);
            trace.attr("silo", silo);
            let _finish_span = Span::enter(trace, "finish");
            algorithm.finish_with(federation, query, silo, response, rounds, obs)
        }
        End::Degrade { rounds, trail } => {
            obs.metrics().degraded.inc();
            match algorithm.finish_degraded(federation, query, rounds) {
                // finish_degraded never saw the per-candidate errors —
                // backfill the trail it stands for.
                Err(FraError::AllSilosUnavailable { errors }) if errors.is_empty() => {
                    Err(FraError::AllSilosUnavailable { errors: trail })
                }
                other => other,
            }
        }
        // Shedding names an admission class only the serving layer knows;
        // the driver answers it before the finish step.
        End::Shed => Err(FraError::Internal {
            message: "a shed run reached the finish step".into(),
        }),
    };
    if let Ok(result) = &outcome {
        trace.attr("rounds", result.rounds);
        if let Some(level) = result.lsr_level {
            trace.attr("level", level);
        }
        note_coverage(obs, result);
    }
    outcome
}

/// The finish step of a fan-out (EXACT/OPTA): `legs` holds the [`End`] of
/// every leg, one per silo in silo-id order (the driver's leg table,
/// filled in whatever order the frames resolved). Sums the legs' `Agg`
/// partials **in silo-id order** — the same bits whichever frame resolved
/// first — with `rounds` the legs' attempts summed. A leg that ended
/// without an answer is a missing silo (one the breaker refused has an
/// empty trail): fail-fast, the first in silo-id order fails the query;
/// under `DegradePolicy::Partial` its share is a grid estimate and the
/// answer carries an honest [`Coverage`] (the partials' own guarantee
/// taken as 0: OPTA's histogram error is unbounded and rides on top as it
/// does undegraded) — or [`FraError::AllSilosUnavailable`], per-silo
/// errors included, below the policy's floors.
pub(crate) fn join_fanout(
    federation: &Federation,
    query: &FraQuery,
    legs: impl IntoIterator<Item = End>,
    obs: &ObsContext,
) -> Result<QueryResult, FraError> {
    let policy = federation.degrade_policy();
    let (mut total, mut rounds) = (Aggregate::ZERO, 0);
    let (mut responding, mut missing) = (Vec::new(), Vec::new());
    for (silo, leg) in legs.into_iter().enumerate() {
        match leg {
            End::Answer {
                response: Response::Agg(partial),
                rounds: attempts,
                ..
            } => {
                total.merge_in(&partial);
                responding.push(silo);
                rounds += attempts;
            }
            End::Answer { .. } => {
                let expected = "Agg";
                return Err(FraError::ProtocolViolation { silo, expected });
            }
            End::Degrade {
                rounds: attempts,
                mut trail,
            } => {
                let message = "circuit breaker open: not called".into();
                let refused = TransportError::Transient { silo, message };
                let error = trail.pop().map_or(refused, |(_, error)| error);
                if !policy.allows_partial() {
                    return Err(FraError::SiloFailed(error));
                }
                missing.push((silo, error));
                rounds += attempts;
            }
            End::Shed => {
                let message = "a shed fan-out reached the join".into();
                return Err(FraError::Internal { message });
            }
        }
    }
    let mut coverage = None;
    if !missing.is_empty() {
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
    note_coverage(obs, &result);
    Ok(result)
}

/// Sequentially executes one query through the rounds — its plan/finish
/// split, or its fan-out legs — recording the full lifecycle into `obs`:
/// the shared fallible core of every planning and fan-out algorithm's
/// [`FraAlgorithm::try_execute_with`]. A lone query is a one-query batch:
/// admitted to the same driver as a [`QueryEngine`](crate::QueryEngine)
/// batch and a scheduler tick, and pumped until it resolves, so the three
/// cannot drift. A plan or finish step that panics answers
/// [`FraError::Internal`]. A one-rider frame travels as the bare request,
/// so its wire bytes are its own. Generic over `?Sized` to serve
/// `dyn FraAlgorithm`.
pub fn drive_planned<A: FraAlgorithm + ?Sized>(
    algorithm: &A,
    federation: &Federation,
    query: &FraQuery,
    obs: &ObsContext,
) -> Result<QueryResult, FraError> {
    let budget = Budget::PerAttempt(federation.call_policy().deadline);
    let queries = std::slice::from_ref(query);
    let mut results = drive_rounds(algorithm, federation, queries, budget, obs);
    results.pop().unwrap_or_else(|| {
        Err(FraError::Internal {
            message: "a lone query's batch came back empty".into(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_federation::{DegradePolicy, FederationBuilder};
    use fedra_geo::{Point, Rect, SpatialObject};
    use fedra_index::AggFunc;

    #[test]
    fn defaults_match_table2() {
        let p = AccuracyParams::default();
        assert_eq!(p.epsilon, 0.10);
        assert_eq!(p.delta, 0.01);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_zero_epsilon() {
        AccuracyParams::new(0.0, 0.01);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_delta_of_one() {
        AccuracyParams::new(0.1, 1.0);
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

    fn answered(silo: SiloId, response: Response) -> End {
        End::Answer {
            silo,
            response,
            rounds: 1,
        }
    }

    fn partial(sum: f64) -> Response {
        Response::Agg(Aggregate {
            count: 1.0,
            sum,
            sum_sqr: sum * sum,
        })
    }

    /// Lands `legs` in a leg table in the given landing order and joins
    /// them.
    fn join(
        federation: &Federation,
        legs: &[End],
        landing: &[SiloId],
    ) -> Result<QueryResult, FraError> {
        let query = FraQuery::circle(Point::new(5.0, 5.0), 20.0, AggFunc::Sum);
        let mut table: Vec<Option<End>> = vec![None; legs.len()];
        for &silo in landing {
            table[silo] = Some(legs[silo].clone());
        }
        let landed = table.into_iter().map(|leg| leg.expect("every leg landed"));
        join_fanout(federation, &query, landed, ObsContext::noop())
    }

    #[test]
    fn the_join_sums_in_silo_id_order_whatever_order_the_legs_land_in() {
        let fed = federation(DegradePolicy::FailFast);
        // Partials whose float sum depends on the order of addition.
        let sums = [1e16, 1.0, -1e16, 1.0];
        let legs: Vec<End> = (0..4).map(|k| answered(k, partial(sums[k]))).collect();
        let in_order = join(&fed, &legs, &[0, 1, 2, 3]).expect("healthy join");
        assert_eq!(in_order.value, ((1e16 + 1.0) + -1e16) + 1.0);
        assert_ne!(in_order.value, ((1.0 + -1e16) + 1.0) + 1e16);
        assert_eq!(in_order.rounds, 4);
        assert!(in_order.coverage.is_none());
        for landing in [[3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]] {
            let got = join(&fed, &legs, &landing).expect("healthy join");
            assert_eq!(got.value.to_bits(), in_order.value.to_bits(), "{landing:?}");
            assert_eq!(got, in_order, "{landing:?}");
        }
    }

    #[test]
    fn the_join_names_the_silo_that_broke_protocol_or_went_missing() {
        let gone = TransportError::Disconnected { silo: 2 };
        let failed = End::Degrade {
            rounds: 1,
            trail: vec![(2, gone.clone())],
        };
        // What a leg the breaker refused ends as: no attempt, no trail.
        let skipped = End::Degrade {
            rounds: 0,
            trail: vec![],
        };
        let healthy = |k| answered(k, partial(1.0));
        let fed = federation(DegradePolicy::FailFast);

        let legs = [
            healthy(0),
            answered(1, Response::Pong),
            healthy(2),
            healthy(3),
        ];
        assert_eq!(
            join(&fed, &legs, &[3, 2, 1, 0]),
            Err(FraError::ProtocolViolation {
                silo: 1,
                expected: "Agg"
            })
        );
        // Fail-fast: the first missing silo in silo-id order, whichever
        // landed first.
        let legs = [healthy(0), skipped.clone(), failed.clone(), healthy(3)];
        match join(&fed, &legs, &[2, 3, 0, 1]) {
            Err(FraError::SiloFailed(TransportError::Transient { silo: 1, .. })) => {}
            other => panic!("expected silo 1's breaker refusal, got {other:?}"),
        }
        let legs = [healthy(0), healthy(1), failed.clone(), skipped.clone()];
        assert_eq!(
            join(&fed, &legs, &[3, 2, 1, 0]),
            Err(FraError::SiloFailed(gone))
        );

        // Partial: both count as missing; rounds are the attempts made.
        let fed = federation(DegradePolicy::Partial {
            min_silos: 1,
            min_coverage: 0.0,
        });
        let legs = [healthy(0), skipped, failed, healthy(3)];
        let degraded = join(&fed, &legs, &[1, 0, 3, 2]).expect("two silos answered");
        let coverage = degraded.coverage.expect("a degraded answer says so");
        assert_eq!((coverage.responding, coverage.total), (2, 4));
        assert_eq!(coverage.mass_fraction, 0.5);
        assert_eq!(degraded.rounds, 3);
    }
}
