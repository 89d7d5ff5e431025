//! The [`FraAlgorithm`] trait every query algorithm implements.

use fedra_federation::{Federation, Request, Response, SiloId, TransportError};
use fedra_index::Aggregate;
use fedra_obs::{labeled, ObsContext, Span, TraceHandle};

use crate::framework::{round, RoundState, Runs};
use crate::helpers;
use crate::query::{Coverage, FraError, FraQuery, QueryResult};
use crate::run::{Budget, End, QueryRun};
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
        let fallback = helpers::grid_only_estimate(federation, &query.range);
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

/// Assembles a degraded fan-out answer (EXACT/OPTA under
/// `DegradePolicy::Partial`): the reachable partials' sum plus a grid
/// estimate of every missing silo's contribution, annotated with an
/// honest [`Coverage`] — or [`FraError::AllSilosUnavailable`] (carrying
/// the per-silo error trail) when the policy's floors are not met.
///
/// `base_epsilon` is the guarantee the reachable share itself carries
/// (0 for exact partials; OPTA's histogram error is unbounded and rides
/// on top exactly as it does undegraded).
pub(crate) fn degrade_fanout(
    federation: &Federation,
    query: &FraQuery,
    reachable_total: Aggregate,
    responding: &[SiloId],
    missing: Vec<(SiloId, TransportError)>,
    base_epsilon: f64,
) -> Result<QueryResult, FraError> {
    let policy = federation.degrade_policy();
    let fraction = helpers::reachable_mass_fraction(federation, &query.range, responding);
    if !policy.accepts(responding.len(), fraction) {
        return Err(FraError::AllSilosUnavailable { errors: missing });
    }
    let mut total = reachable_total;
    for (k, _) in &missing {
        total.merge_in(&helpers::silo_grid_estimate(federation, *k, &query.range));
    }
    Ok(
        QueryResult::from_aggregate(total, query.func).with_coverage(Coverage {
            responding: responding.len(),
            total: federation.num_silos(),
            mass_fraction: fraction,
            epsilon: theory::degraded_epsilon(base_epsilon, fraction),
        }),
    )
}

/// Surfaces a coverage-annotated (degraded-mode) answer as metrics:
/// `fedra_degraded_answers_total` plus the `fedra_coverage_ppm` gauge
/// (mass fraction in parts-per-million). No-op for full answers.
pub(crate) fn note_coverage(obs: &ObsContext, result: &QueryResult) {
    if let Some(coverage) = &result.coverage {
        obs.inc("fedra_degraded_answers_total");
        obs.set_gauge(
            "fedra_coverage_ppm",
            (coverage.mass_fraction * 1_000_000.0).round(),
        );
    }
}

/// The one finish step the pump's callers share: turns the [`End`] of a
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
            if obs.is_enabled() {
                obs.inc(&labeled("fedra_sampled_silo_total", "silo", silo));
            }
            trace.attr("silo", silo);
            let _finish_span = Span::enter(trace, "finish");
            algorithm.finish_with(federation, query, silo, response, rounds, obs)
        }
        End::Degrade { rounds, trail } => {
            obs.inc("fedra_degraded_total");
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
        // the scheduler answers it before the finish step.
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

/// Sequentially executes one query through an algorithm's plan/finish
/// split: plan, walk the candidate order, finish — recording the full
/// lifecycle into `obs`.
///
/// This is the shared fallible core for every planning algorithm's
/// [`FraAlgorithm::try_execute_with`]. A lone query is a one-rider round:
/// its run is pumped by the same [`round`] the batched engine and the
/// scheduler pump, until its walk ends — so the three cannot drift, and a
/// one-rider frame travels as the bare request, so a lone query's wire
/// bytes are its own. Generic over `?Sized` so it also serves
/// `dyn FraAlgorithm`.
pub fn drive_planned<A: FraAlgorithm + ?Sized>(
    algorithm: &A,
    federation: &Federation,
    query: &FraQuery,
    obs: &ObsContext,
) -> Result<QueryResult, FraError> {
    let trace = obs.start_trace("query", algorithm.name());
    let outcome = match plan_counted(algorithm, federation, query, &trace, obs) {
        QueryPlan::Ready(result) => result,
        QueryPlan::SingleSilo(remote) => {
            let policy = federation.call_policy();
            let budget = Budget::PerAttempt(policy.deadline);
            let mut runs = Runs::from([(0, QueryRun::new(remote, policy.retries, budget))]);
            let mut state = RoundState::default();
            let end = {
                let _remote_span = Span::enter(&trace, "remote");
                loop {
                    let mut ended = None;
                    round(federation, obs, &mut state, &mut runs, &mut |_, end| {
                        ended = Some(end)
                    });
                    if let Some(end) = ended {
                        break end;
                    }
                }
            };
            finish_run(algorithm, federation, query, end, &trace, obs)
        }
    };
    obs.finish_trace(&trace);
    outcome
}

/// Plans one query under a `plan` span on `trace`, counting whether it
/// resolved provider-side or needs its remote walk pumped.
pub(crate) fn plan_counted<A: FraAlgorithm + ?Sized>(
    algorithm: &A,
    federation: &Federation,
    query: &FraQuery,
    trace: &TraceHandle,
    obs: &ObsContext,
) -> QueryPlan {
    let _plan_span = Span::enter(trace, "plan");
    let plan = algorithm.plan_with(federation, query, obs);
    obs.inc(match plan {
        QueryPlan::Ready(_) => "fedra_plan_ready_total",
        QueryPlan::SingleSilo(_) => "fedra_plan_remote_total",
    });
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
