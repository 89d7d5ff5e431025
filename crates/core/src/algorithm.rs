//! The [`FraAlgorithm`] trait every query algorithm implements.

use fedra_federation::{Federation, Request, Response, SiloId, TransportError};
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
/// Produced by [`FraAlgorithm::plan_with`] when the query needs one silo's
/// answer (the single-silo sampling pattern of Algs. 2 and 3), the answers
/// of `k` pooled silos, or every silo's (EXACT, OPTA).
#[derive(Debug, Clone)]
pub struct RemotePlan {
    /// Candidate silos in visiting order: the head is the sampled silo (a
    /// pooled plan's first `k` are its sampled silos), the tail is the
    /// resample-on-failure fallback order.
    pub order: Vec<SiloId>,
    /// The request to send to whichever candidate is visited.
    pub request: Request,
}

/// The outcome of planning one query ([`FraAlgorithm::plan_with`]).
#[derive(Debug)]
pub enum QueryPlan {
    /// The query resolved provider-side — no silo contact needed.
    Ready(Result<QueryResult, FraError>),
    /// A remote request remains; execute it (resampling down
    /// [`RemotePlan::order`] on failure, or on `k` candidates at once
    /// when [`FraAlgorithm::quorum`] pools them) and hand the outcomes to
    /// [`FraAlgorithm::finish_pooled`].
    SingleSilo(RemotePlan),
}

/// How one run of a planned query ended, as the finish step reads it: the
/// silo that answered and its response, or the final error of every
/// candidate the run tried, in order — empty when the breaker refused
/// them all at dispatch.
pub type RunEnd = Result<(SiloId, Response), Vec<(SiloId, TransportError)>>;

/// A federated range aggregation algorithm.
///
/// Implementations are `Send + Sync` so one instance can serve many
/// threads (a shared [`AnswerCache`](crate::AnswerCache), a scheduler's
/// clients); internal randomness therefore lives behind locks.
///
/// # One fallible core
///
/// Every query is planned: [`plan_with`](Self::plan_with) is the one
/// required method besides [`name`](Self::name), and
/// [`try_execute_with`](Self::try_execute_with) is provided — it admits
/// the query alone to the driver a [`QueryEngine`](crate::QueryEngine)
/// batch and a [`QueryScheduler`](crate::QueryScheduler) tick use, and
/// pumps it until it resolves. `try_execute` is the uninstrumented
/// convenience (a no-op [`ObsContext`]), and `execute` the panicking
/// convenience over that — so instrumentation and error handling are
/// threaded through exactly one place.
///
/// # Planning split
///
/// `plan_with` does the provider-side work and names the remote request
/// and its candidate silos; the driver coalesces every same-silo request
/// of a batch into one wire frame, and
/// [`finish_pooled`](Self::finish_pooled) turns the runs' outcomes into
/// the answer. A single-silo estimator walks its order until one silo
/// answers and finishes that reply in [`finish_with`](Self::finish_with);
/// a pooled plan ([`quorum`](Self::quorum)) rides `k` candidates at once —
/// EXACT and OPTA pool every silo. The split changes *where* requests are
/// sent from, not *what* is sent — a batched query consumes the same RNG
/// draws and produces the same result as `try_execute`.
pub trait FraAlgorithm: Send + Sync {
    /// The algorithm's display name (matches the paper's legends:
    /// `EXACT`, `OPTA`, `IID-est`, `IID-est+LSR`, `NonIID-est`,
    /// `NonIID-est+LSR`).
    fn name(&self) -> &'static str;

    /// Executes one query, recording telemetry into `obs`, returning the
    /// result or a federation error.
    ///
    /// This is the one fallible core every other execution entry point
    /// wraps: a lone query is a one-query batch, planned and pumped
    /// through the rounds until it resolves. A plan or finish step that
    /// panics answers [`FraError::Internal`]. A one-rider frame travels as
    /// the bare request, so its wire bytes are its own. Passing
    /// [`ObsContext::noop`] makes every recording a single branch, so
    /// uninstrumented callers pay nothing measurable.
    fn try_execute_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let budget = Budget::PerAttempt(federation.call_policy().deadline);
        let queries = std::slice::from_ref(query);
        let mut results = drive_rounds(self, federation, queries, budget, obs);
        results.pop().unwrap_or_else(|| {
            Err(FraError::Internal {
                message: "a lone query's batch came back empty".into(),
            })
        })
    }

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

    /// Whether this algorithm's remote plans are single-silo walks,
    /// finished by [`finish_with`](Self::finish_with) on one reply —
    /// worked out from the plan shape: `true` exactly when
    /// [`quorum`](Self::quorum) pools nothing. No execution path reads it.
    fn supports_planning(&self) -> bool {
        self.quorum().is_none()
    }

    /// `Some(k)` when a planned query pools `k` silos' answers: it rides
    /// `k` legs over [`RemotePlan::order`] at once, and a leg whose
    /// candidate fails for good moves on to the next one no leg has tried.
    /// `k` is clamped to the order's length, so `usize::MAX` pools every
    /// candidate (EXACT and OPTA, whose order is every silo). `None` (the
    /// default) walks the order until one silo answers.
    fn quorum(&self) -> Option<usize> {
        None
    }

    /// Performs the provider-side part of one query, recording telemetry
    /// into `obs`: answers it ([`QueryPlan::Ready`]) or names its remote
    /// request and candidates.
    ///
    /// Must consume exactly the same internal randomness whichever driver
    /// admits the query, so batched and sequential execution of the same
    /// query stream stay fixed-seed-equivalent. Only
    /// [`AnswerCache`](crate::AnswerCache) answers a query here by running
    /// one.
    fn plan_with(&self, federation: &Federation, query: &FraQuery, obs: &ObsContext) -> QueryPlan;

    /// Completes a walked query from the one silo's response, recording
    /// telemetry into `obs`.
    ///
    /// `rounds` is the number of silo attempts spent on this query
    /// (1 unless earlier candidates failed and the driver resampled).
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

    /// The finish step of every remote plan: `runs` holds how each run
    /// ended, **in candidate order** (not arrival order) — a walk's one,
    /// or a pool's legs' ([`quorum`](Self::quorum)), a candidate that
    /// failed before its replacement. `rounds` is the silo attempts of
    /// every run.
    ///
    /// The default finishes the first answer with
    /// [`finish_with`](Self::finish_with); when no run answered it
    /// degrades to the provider-only grid estimate — availability over
    /// precision. Under [`fedra_federation::DegradePolicy::Partial`] that
    /// answer carries an honest [`Coverage`] record (zero responding
    /// silos; the certain fraction of `g₀` as the mass backing) with the
    /// inflated bound of [`theory::degraded_epsilon`] — or fails with
    /// every run's error trail when the policy's floors are not met.
    fn finish_pooled(
        &self,
        federation: &Federation,
        query: &FraQuery,
        runs: Vec<RunEnd>,
        rounds: u64,
        obs: &ObsContext,
    ) -> Result<QueryResult, FraError> {
        let mut trail = Vec::new();
        for run in runs {
            match run {
                Ok((silo, response)) => {
                    return self.finish_with(federation, query, silo, response, rounds, obs)
                }
                Err(errors) => trail.extend(errors),
            }
        }
        grid_only(federation, query, rounds, trail)
    }
}

/// The answer of a planned query no silo answered: the provider-only grid
/// estimate, under the federation's `DegradePolicy` (see
/// [`FraAlgorithm::finish_pooled`]); `trail` is every run's error trail.
pub(crate) fn grid_only(
    federation: &Federation,
    query: &FraQuery,
    rounds: u64,
    trail: Vec<(SiloId, TransportError)>,
) -> Result<QueryResult, FraError> {
    let fallback = helpers::grid_estimate(federation.merged_grid(), &query.range);
    let result = QueryResult::from_aggregate(fallback, query.func).with_rounds(rounds);
    let policy = federation.degrade_policy();
    if !policy.allows_partial() {
        return Ok(result);
    }
    let certain = helpers::grid_certain_fraction(federation, &query.range);
    if !policy.accepts(0, certain) {
        return Err(FraError::AllSilosUnavailable { errors: trail });
    }
    Ok(result.with_coverage(Coverage {
        responding: 0,
        total: federation.num_silos(),
        mass_fraction: certain,
        epsilon: theory::degraded_epsilon(0.0, certain),
    }))
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

/// The driver's finish step for a planned query: `ends` holds how its
/// runs ended, in candidate order — a walk's one, or a pool's legs'. They
/// go to `finish_pooled`, under a `finish` span on `trace` when some silo
/// answered. Records the sampled/degraded counters and the coverage
/// metrics.
pub(crate) fn finish_run<A: FraAlgorithm + ?Sized>(
    algorithm: &A,
    federation: &Federation,
    query: &FraQuery,
    ends: impl IntoIterator<Item = End>,
    trace: &TraceHandle,
    obs: &ObsContext,
) -> Result<QueryResult, FraError> {
    let ends = ends.into_iter();
    let mut runs = Vec::with_capacity(ends.size_hint().1.unwrap_or(0));
    let mut rounds = 0;
    for end in ends {
        match end {
            End::Answer {
                silo,
                response,
                rounds: attempts,
            } => {
                runs.push(Ok((silo, response)));
                rounds += attempts;
            }
            End::Degrade {
                rounds: attempts,
                trail,
            } => {
                runs.push(Err(trail));
                rounds += attempts;
            }
            // Shedding names an admission class only the serving layer
            // knows; the driver answers it before the finish step.
            End::Shed => {
                let message = "a shed run reached the finish step".into();
                return Err(FraError::Internal { message });
            }
        }
    }
    let mut first = None;
    for (silo, _) in runs.iter().flatten() {
        obs.metrics().sampled_silo.inc(*silo);
        first.get_or_insert(*silo);
    }
    let finish_span = match first {
        Some(silo) => {
            trace.attr("silo", silo);
            Some(Span::enter(trace, "finish"))
        }
        None => {
            obs.metrics().degraded.inc();
            None
        }
    };
    let outcome = algorithm.finish_pooled(federation, query, runs, rounds, obs);
    drop(finish_span);
    if let Ok(result) = &outcome {
        trace.attr("rounds", result.rounds);
        if let Some(level) = result.lsr_level {
            trace.attr("level", level);
        }
        note_coverage(obs, result);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exact, IidEst, IidEstLsr, NonIidEst, NonIidEstLsr, Opta};

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

    /// The walks report the single-silo split; the pools (EXACT and OPTA
    /// over every silo, NonIID-est pooling `k > 1`) do not.
    #[test]
    fn only_the_walks_support_planning() {
        let params = AccuracyParams::default();
        let walks: [Box<dyn FraAlgorithm>; 4] = [
            Box::new(IidEst::new(1)),
            Box::new(IidEstLsr::new(1, params)),
            Box::new(NonIidEst::new(1)),
            Box::new(NonIidEstLsr::new(1, params)),
        ];
        for algorithm in &walks {
            assert!(algorithm.supports_planning(), "{}", algorithm.name());
        }
        let pools: [Box<dyn FraAlgorithm>; 3] = [
            Box::new(Exact::new()),
            Box::new(Opta::new()),
            Box::new(NonIidEst::pooled(1, 2)),
        ];
        for algorithm in &pools {
            assert!(!algorithm.supports_planning(), "{}", algorithm.name());
        }
    }
}
