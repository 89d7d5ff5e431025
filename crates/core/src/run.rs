// fedra-lint: deterministic-region
//! The per-query candidate walk (Alg. 2/3: sample a silo, ask it, rescale)
//! as one resumable, I/O-free state machine.
//!
//! [`QueryRun`] owns everything one planned query needs between "the plan
//! named its candidates" and "a reply won or none could": its place in the
//! candidate order (which the driver lends it with every event), the
//! transient-retry budget, the hedge/stranded flags, the round count and
//! the per-candidate error trail. It never reads a clock,
//! sleeps, or touches a channel — the *pump* does the I/O and reports what
//! happened as [`Event`]s; deadlines and "now" arrive as inputs. There is
//! one pump, the scatter–gather [`round`](crate::framework::round), and
//! one driver that calls it, with three entry points:
//! [`try_execute_with`](crate::FraAlgorithm::try_execute_with) (a lone
//! query is a one-rider round), [`QueryEngine`](crate::QueryEngine)
//! batches and [`QueryScheduler`](crate::QueryScheduler) ticks. Every rule
//! of the walk is decided here, once, for all of them — a pooled query's
//! legs included (EXACT's and OPTA's `m`), each a run with one candidate,
//! which walks one candidate at a time and so never hedges.

use std::time::{Duration, Instant};

use fedra_federation::{Response, SiloId, TransportError};
use fedra_obs::ObsContext;

/// How long a run may wait — the one genuine difference between the
/// pump's callers, carried as data.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Budget {
    /// Every attempt gets the same allowance, measured from its own send
    /// (`CallPolicy::deadline`, or the engine's query budget).
    PerAttempt(Option<Duration>),
    /// One absolute deadline for the whole run, fixed at submission
    /// (the scheduler's admission classes): queue wait spends it.
    Until(Option<Instant>),
}

impl Budget {
    /// The deadline of an attempt begun at `begun` (`None`: unbounded).
    pub(crate) fn deadline(&self, begun: Instant) -> Option<Instant> {
        match *self {
            Budget::PerAttempt(allowance) => allowance.map(|a| begun + a),
            Budget::Until(deadline) => deadline,
        }
    }

    /// Whether the budget is already spent at `now`, before the attempt
    /// even begins — only an absolute deadline can be.
    pub(crate) fn spent(&self, now: Instant) -> bool {
        matches!(*self, Budget::Until(Some(deadline)) if deadline <= now)
    }
}

/// What the pump observed on a run's behalf.
pub(crate) enum Event<'a> {
    /// The pump is about to build frames: where does this run ride?
    /// `may_call` is the breaker's call-time verdict on a silo.
    Dispatch {
        may_call: &'a dyn Fn(SiloId) -> bool,
    },
    /// The request in flight to the current candidate is still silent
    /// past the hedge threshold; the pump keeps it in flight.
    HedgeDue,
    /// `silo` answered or failed — per item, or as its whole frame.
    Reply {
        silo: SiloId,
        result: Result<Response, TransportError>,
    },
}

/// What the pump does next.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Put the request on a frame to `silo`. `retry > 0` is the n-th
    /// transient retry of the same candidate (a round whose sends are all
    /// retries backs off first; otherwise the round cadence is the
    /// backoff).
    Send { silo: SiloId, retry: u32 },
    /// Nothing to send: keep pumping what is in flight.
    Wait,
    /// The walk is over.
    End(End),
}

/// How a run's walk ended; [`finish_run`](crate::algorithm::finish_run)
/// turns it into the query's result. `rounds` is the silo attempts spent.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum End {
    /// `silo` answered first.
    Answer {
        silo: SiloId,
        response: Response,
        rounds: u64,
    },
    /// No candidate could serve the query: degrade under the federation's
    /// `DegradePolicy`. `trail` is the final error of every candidate
    /// that failed, in order.
    Degrade {
        rounds: u64,
        trail: Vec<(SiloId, TransportError)>,
    },
    /// The run's absolute deadline passed: the serving layer sheds it.
    Shed,
}

/// One planned single-silo query walking its candidate order. The order
/// and the request are the query's, held by the driver and lent to every
/// event: a pooled query's legs share one request, each walking the
/// one-silo order of its own leg.
#[derive(Debug)]
pub(crate) struct QueryRun {
    /// Same-candidate retries allowed after a transient refusal.
    retries: u32,
    budget: Budget,
    /// Index of the current candidate in the order.
    attempt: usize,
    /// Transient retries already burned on the current candidate.
    retried: u32,
    rounds: u64,
    /// A hedge is (or was) in flight: an earlier candidate's request is
    /// still out while the run moved on.
    hedged: bool,
    /// Out of candidates to hedge to: the run waits on the request
    /// already in flight to its current candidate and sends nothing.
    stranded: bool,
    /// First answer wins: later events are ignored.
    finished: bool,
    trail: Vec<(SiloId, TransportError)>,
}

impl QueryRun {
    /// Starts a walk at the head of its order.
    pub(crate) fn new(retries: u32, budget: Budget) -> Self {
        QueryRun {
            retries,
            budget,
            attempt: 0,
            retried: 0,
            rounds: 0,
            hedged: false,
            stranded: false,
            finished: false,
            trail: Vec::new(),
        }
    }

    #[cfg(test)]
    fn is_finished(&self) -> bool {
        self.finished
    }
    fn current(&self, order: &[SiloId]) -> Option<SiloId> {
        order.get(self.attempt).copied()
    }

    /// Moves to the next candidate.
    fn advance(&mut self) {
        self.attempt += 1;
        self.retried = 0;
    }

    /// `Wait` while a candidate remains; otherwise the walk ends degraded.
    fn wait_or_degrade(&mut self, order: &[SiloId]) -> Action {
        if self.current(order).is_some() {
            return Action::Wait;
        }
        self.finished = true;
        Action::End(End::Degrade {
            rounds: self.rounds,
            trail: std::mem::take(&mut self.trail),
        })
    }

    /// Feeds one event to the walk down `order` (the same order on every
    /// call), counting what it decides into `obs`.
    pub(crate) fn on(&mut self, order: &[SiloId], event: Event<'_>, obs: &ObsContext) -> Action {
        if self.finished {
            return Action::Wait;
        }
        match event {
            Event::Dispatch { may_call } => {
                if self.stranded {
                    return Action::Wait;
                }
                while let Some(silo) = self.current(order) {
                    // A may_call check, not allows(): a half-open silo is
                    // the probe the plan already admitted, and refusing it
                    // here would strand the breaker in HalfOpen.
                    if may_call(silo) {
                        self.rounds += 1;
                        return Action::Send {
                            silo,
                            retry: self.retried,
                        };
                    }
                    // The breaker opened since the plan picked its
                    // candidates. Skipped, not failed: no trail entry and
                    // no resample.
                    obs.metrics().breaker_skipped.inc();
                    self.advance();
                }
                self.wait_or_degrade(order)
            }
            Event::HedgeDue => {
                match order.get(self.attempt + 1) {
                    Some(&next) if Some(next) != self.current(order) => {
                        self.advance();
                        self.hedged = true;
                        obs.metrics().hedges_fired.inc();
                    }
                    _ => self.stranded = true,
                }
                Action::Wait
            }
            Event::Reply { silo, result } => {
                let from_current = self.current(order) == Some(silo);
                match result {
                    Ok(response) => {
                        // A hedge win is only counted when the hedge, not
                        // the still-in-flight primary, answered first.
                        if self.hedged && from_current {
                            obs.metrics().hedges_won.inc();
                        }
                        self.finished = true;
                        Action::End(End::Answer {
                            silo,
                            response,
                            rounds: self.rounds,
                        })
                    }
                    // Frame deadlines are the max over riders, so a miss
                    // means an absolute budget is spent wherever the run
                    // stands in its walk.
                    Err(error)
                        if error.is_deadline() && matches!(self.budget, Budget::Until(_)) =>
                    {
                        self.finished = true;
                        Action::End(End::Shed)
                    }
                    Err(error) if !from_current => {
                        // An earlier candidate failed after the run hedged
                        // past it; the hedge stands for the resample.
                        self.trail.push((silo, error));
                        Action::Wait
                    }
                    Err(error) => {
                        self.stranded = false;
                        if error.is_retryable() && self.retried < self.retries {
                            self.retried += 1;
                            obs.metrics().retries.inc();
                            return Action::Wait;
                        }
                        self.trail.push((silo, error));
                        obs.metrics().resamples.inc();
                        self.advance();
                        self.wait_or_degrade(order)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANY: &dyn Fn(SiloId) -> bool = &|_| true;

    /// A run and the order it walks, held together as the driver holds
    /// them.
    struct Walk {
        order: Vec<SiloId>,
        run: QueryRun,
    }

    impl Walk {
        fn on(&mut self, event: Event<'_>, obs: &ObsContext) -> Action {
            self.run.on(&self.order, event, obs)
        }

        fn is_finished(&self) -> bool {
            self.run.is_finished()
        }
    }

    fn run(order: &[SiloId], retries: u32, budget: Budget) -> Walk {
        Walk {
            order: order.to_vec(),
            run: QueryRun::new(retries, budget),
        }
    }

    fn transient(silo: SiloId) -> TransportError {
        TransportError::Transient {
            silo,
            message: "flap".into(),
        }
    }

    fn gone(silo: SiloId) -> TransportError {
        TransportError::Disconnected { silo }
    }

    fn ok(silo: SiloId) -> Event<'static> {
        Event::Reply {
            silo,
            result: Ok(Response::Pong),
        }
    }

    fn err(error: TransportError) -> Event<'static> {
        Event::Reply {
            silo: error.silo(),
            result: Err(error),
        }
    }

    fn dispatch() -> Event<'static> {
        Event::Dispatch { may_call: ANY }
    }

    fn send(silo: SiloId, retry: u32) -> Action {
        Action::Send { silo, retry }
    }

    fn answer(silo: SiloId, rounds: u64) -> Action {
        Action::End(End::Answer {
            silo,
            response: Response::Pong,
            rounds,
        })
    }

    fn degrade(rounds: u64, trail: Vec<TransportError>) -> Action {
        Action::End(End::Degrade {
            rounds,
            trail: trail.into_iter().map(|e| (e.silo(), e)).collect(),
        })
    }

    /// One table row: events in, the exact action sequence and counter
    /// deltas out.
    struct Case {
        name: &'static str,
        order: &'static [SiloId],
        retries: u32,
        events: Vec<Event<'static>>,
        actions: Vec<Action>,
        counters: &'static [(&'static str, u64)],
    }

    #[test]
    fn event_sequences_yield_the_expected_actions() {
        let cases = vec![
            Case {
                name: "reply ok",
                order: &[3, 1],
                retries: 2,
                events: vec![dispatch(), ok(3)],
                actions: vec![send(3, 0), answer(3, 1)],
                counters: &[],
            },
            Case {
                name: "transient within the retry budget, then ok",
                order: &[0, 1],
                retries: 2,
                events: vec![
                    dispatch(),
                    err(transient(0)),
                    dispatch(),
                    err(transient(0)),
                    dispatch(),
                    ok(0),
                ],
                actions: vec![
                    send(0, 0),
                    Action::Wait,
                    send(0, 1),
                    Action::Wait,
                    send(0, 2),
                    answer(0, 3),
                ],
                counters: &[("fedra_retries_total", 2)],
            },
            Case {
                name: "transient past the retry budget resamples",
                order: &[0, 1],
                retries: 1,
                events: vec![
                    dispatch(),
                    err(transient(0)),
                    dispatch(),
                    err(transient(0)),
                    dispatch(),
                    ok(1),
                ],
                actions: vec![
                    send(0, 0),
                    Action::Wait,
                    send(0, 1),
                    Action::Wait,
                    send(1, 0),
                    answer(1, 3),
                ],
                counters: &[("fedra_retries_total", 1), ("fedra_resamples_total", 1)],
            },
            Case {
                name: "non-retryable errors walk the order, then degrade with the trail",
                order: &[2, 0],
                retries: 2,
                events: vec![dispatch(), err(gone(2)), dispatch(), err(gone(0))],
                actions: vec![
                    send(2, 0),
                    Action::Wait,
                    send(0, 0),
                    degrade(2, vec![gone(2), gone(0)]),
                ],
                counters: &[("fedra_resamples_total", 2)],
            },
            Case {
                name: "hedge fired, primary wins",
                order: &[0, 1],
                retries: 2,
                events: vec![dispatch(), Event::HedgeDue, dispatch(), ok(0)],
                actions: vec![send(0, 0), Action::Wait, send(1, 0), answer(0, 2)],
                counters: &[("fedra_hedges_fired_total", 1)],
            },
            Case {
                name: "hedge wins; the late primary goes nowhere",
                order: &[0, 1],
                retries: 2,
                events: vec![dispatch(), Event::HedgeDue, dispatch(), ok(1), ok(0)],
                actions: vec![
                    send(0, 0),
                    Action::Wait,
                    send(1, 0),
                    answer(1, 2),
                    Action::Wait,
                ],
                counters: &[
                    ("fedra_hedges_fired_total", 1),
                    ("fedra_hedges_won_total", 1),
                ],
            },
            Case {
                name: "primary fails under a live hedge: trail only",
                order: &[0, 1],
                retries: 2,
                events: vec![
                    dispatch(),
                    Event::HedgeDue,
                    dispatch(),
                    err(gone(0)),
                    err(gone(1)),
                ],
                actions: vec![
                    send(0, 0),
                    Action::Wait,
                    send(1, 0),
                    Action::Wait,
                    degrade(2, vec![gone(0), gone(1)]),
                ],
                counters: &[
                    ("fedra_hedges_fired_total", 1),
                    ("fedra_resamples_total", 1),
                ],
            },
            Case {
                name: "stranded on the last candidate, then its frame expires",
                order: &[4],
                retries: 2,
                events: vec![
                    dispatch(),
                    Event::HedgeDue,
                    dispatch(),
                    err(TransportError::DeadlineExceeded { silo: 4 }),
                ],
                actions: vec![
                    send(4, 0),
                    Action::Wait,
                    Action::Wait,
                    degrade(1, vec![TransportError::DeadlineExceeded { silo: 4 }]),
                ],
                counters: &[("fedra_resamples_total", 1)],
            },
            Case {
                name: "stranded, transient refusal: retry the last candidate",
                order: &[4],
                retries: 1,
                events: vec![
                    dispatch(),
                    Event::HedgeDue,
                    err(transient(4)),
                    dispatch(),
                    ok(4),
                ],
                actions: vec![
                    send(4, 0),
                    Action::Wait,
                    Action::Wait,
                    send(4, 1),
                    answer(4, 2),
                ],
                counters: &[("fedra_retries_total", 1)],
            },
            Case {
                name: "an empty plan degrades at once",
                order: &[],
                retries: 2,
                events: vec![dispatch()],
                actions: vec![degrade(0, vec![])],
                counters: &[],
            },
        ];
        for case in cases {
            let obs = ObsContext::new();
            let mut run = run(case.order, case.retries, Budget::PerAttempt(None));
            let actions: Vec<Action> = case.events.into_iter().map(|e| run.on(e, &obs)).collect();
            assert_eq!(actions, case.actions, "{}", case.name);
            let counters = obs.snapshot().counters;
            let expected: std::collections::BTreeMap<String, u64> = case
                .counters
                .iter()
                .map(|(name, n)| (name.to_string(), *n))
                .collect();
            assert_eq!(counters, expected, "{}: counters", case.name);
        }
    }

    #[test]
    fn breaker_refusals_skip_without_trail_or_resample() {
        let obs = ObsContext::new();
        // Refuses the head only: the run rides its second candidate.
        let mut r = run(&[0, 1, 2], 2, Budget::PerAttempt(None));
        let open_head = |k: SiloId| k != 0;
        assert_eq!(
            r.on(
                Event::Dispatch {
                    may_call: &open_head
                },
                &obs
            ),
            send(1, 0)
        );
        // Refuses every candidate: degrade, zero rounds, empty trail.
        let mut r = run(&[0, 1, 2], 2, Budget::PerAttempt(None));
        assert_eq!(
            r.on(
                Event::Dispatch {
                    may_call: &|_| false
                },
                &obs
            ),
            degrade(0, vec![])
        );
        assert!(r.is_finished());
        // A retry is refused too: the breaker opened between attempts.
        let mut r = run(&[0, 1], 2, Budget::PerAttempt(None));
        r.on(dispatch(), &obs);
        r.on(err(transient(0)), &obs);
        assert_eq!(
            r.on(
                Event::Dispatch {
                    may_call: &open_head
                },
                &obs
            ),
            send(1, 0)
        );
        let counters = obs.snapshot().counters;
        assert_eq!(counters["fedra_breaker_skipped_total"], 5);
        assert_eq!(counters["fedra_retries_total"], 1);
        assert!(!counters.contains_key("fedra_resamples_total"));
    }

    #[test]
    fn a_deadline_miss_fails_an_attempt_or_sheds_the_run() {
        let obs = ObsContext::new();
        let expired = TransportError::DeadlineExceeded { silo: 0 };
        // Per-attempt allowance: the miss costs one candidate.
        let mut r = run(&[0, 1], 2, Budget::PerAttempt(None));
        r.on(dispatch(), &obs);
        assert_eq!(r.on(err(expired.clone()), &obs), Action::Wait);
        assert_eq!(r.on(dispatch(), &obs), send(1, 0));
        // Absolute deadline: the miss spends the run, even one that
        // hedged past the silo that missed; later replies go nowhere.
        let mut r = run(&[0, 1], 2, Budget::Until(None));
        r.on(dispatch(), &obs);
        r.on(Event::HedgeDue, &obs);
        assert_eq!(r.on(err(expired), &obs), Action::End(End::Shed));
        assert_eq!(r.on(ok(1), &obs), Action::Wait);
    }
}
