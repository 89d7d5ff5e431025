//! Deterministic, seeded fault injection for the silo transport — the
//! crate's only seeded fault source.
//!
//! A [`FaultPlan`] describes, per silo, the misbehaviour to inject at the
//! transport boundary: extra latency, dropped messages, transient
//! refusals, a hard crash after N requests, and counter-based flap
//! schedules. The plan compiles to one
//! [`SiloFaultInjector`] per silo worker; every random draw comes from a
//! per-silo `StdRng` seeded from `plan.seed ^ silo`, and every schedule is
//! keyed on the worker's *request counter*, never the wall clock — so a
//! chaos run is bit-stable: the same plan and the same request sequence
//! produce the same faults, regardless of timing or thread interleaving.
//!
//! Injection sits in the one serve step both transport backends run per
//! frame (`SiloServer::serve` in `transport/mod.rs`), *after* the frame
//! is received and *before* the request is decoded:
//! a faulted request still pays its upload bytes (the frame travelled),
//! which keeps the communication-cost metric honest under chaos.
//!
//! A plan names only silos the federation builds from its own partitions
//! ([`crate::SetupError::FaultPlanNamesNoLocalSilo`] otherwise); a remote
//! silo takes the same spec from `fedra-silo --fault-*`. The socket-path
//! [`crate::ChaosProxy`] draws nothing — its partitions, client drops and
//! corrupted replies are drills a test arms one at a time.
//!
//! Faults are disarmed until the federation finishes Alg. 1 setup (the
//! plan describes a degraded *query* phase, not a broken bootstrap); see
//! [`crate::Federation::set_faults_armed`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::silo::SiloId;

/// A counter-based availability schedule: the silo serves `period - down`
/// requests, then answers the next `down` requests with
/// [`crate::Response::Transient`], repeating.
///
/// The schedule is driven by the silo's armed-request counter, so it is
/// deterministic and independent of wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSchedule {
    /// Cycle length in requests (must be > 0).
    pub period: u64,
    /// How many requests at the end of each cycle are refused.
    pub down: u64,
    /// Offset into the cycle at which the schedule starts.
    pub phase: u64,
}

impl FlapSchedule {
    /// Whether the request with (0-based) sequence number `seq` falls in a
    /// down window.
    pub fn is_down(&self, seq: u64) -> bool {
        if self.period == 0 || self.down == 0 {
            return false;
        }
        let pos = (seq + self.phase) % self.period;
        pos >= self.period.saturating_sub(self.down)
    }
}

/// Per-silo fault specification. The default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SiloFaultSpec {
    /// Fixed extra latency added to every served request.
    pub latency: Option<Duration>,
    /// Probability a request is dropped outright (no reply ever). Callers
    /// must pair drops with a deadline, or the pending call blocks
    /// forever.
    pub drop_prob: f64,
    /// Probability a request is refused with a retryable
    /// [`crate::Response::Transient`].
    pub transient_prob: f64,
    /// After this many armed requests, the worker thread exits: every
    /// later call observes
    /// [`crate::transport::TransportError::Disconnected`].
    pub crash_after: Option<u64>,
    /// Counter-based up/down schedule (down windows answer
    /// [`crate::Response::Transient`]).
    pub flap: Option<FlapSchedule>,
}

impl SiloFaultSpec {
    /// A spec that only slows the silo down.
    pub fn slow(latency: Duration) -> Self {
        SiloFaultSpec {
            latency: Some(latency),
            ..Default::default()
        }
    }

    /// A spec that only flaps on the given schedule.
    pub fn flapping(period: u64, down: u64) -> Self {
        SiloFaultSpec {
            flap: Some(FlapSchedule {
                period,
                down,
                phase: 0,
            }),
            ..Default::default()
        }
    }
}

/// A seeded, per-silo fault schedule for the whole federation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<(SiloId, SiloFaultSpec)>,
}

impl FaultPlan {
    /// An empty plan drawing from `seed` (per-silo RNGs are derived as
    /// `seed ^ silo`).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Sets (or replaces) the spec for one silo.
    pub fn with_spec(mut self, silo: SiloId, spec: SiloFaultSpec) -> Self {
        match self.specs.iter_mut().find(|(k, _)| *k == silo) {
            Some(slot) => slot.1 = spec,
            None => self.specs.push((silo, spec)),
        }
        self
    }

    /// Adds fixed latency injection for one silo.
    pub fn slow_silo(self, silo: SiloId, latency: Duration) -> Self {
        self.with_spec(silo, SiloFaultSpec::slow(latency))
    }

    /// Adds a counter-based flap schedule for one silo.
    pub fn flapping_silo(self, silo: SiloId, period: u64, down: u64) -> Self {
        self.with_spec(silo, SiloFaultSpec::flapping(period, down))
    }

    /// The plan's base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The silos the plan has a spec for, in the order they were added.
    pub(crate) fn silos(&self) -> impl Iterator<Item = SiloId> + '_ {
        self.specs.iter().map(|(silo, _)| *silo)
    }

    /// The spec configured for `silo`, if any.
    pub fn spec(&self, silo: SiloId) -> Option<&SiloFaultSpec> {
        self.specs
            .iter()
            .find(|(k, _)| *k == silo)
            .map(|(_, spec)| spec)
    }

    /// Compiles the per-silo injector handed to the worker thread.
    /// Returns `None` when the plan says nothing about `silo` (the worker
    /// then skips injection entirely).
    pub fn injector_for(&self, silo: SiloId, armed: Arc<AtomicBool>) -> Option<SiloFaultInjector> {
        self.spec(silo).map(|spec| SiloFaultInjector {
            spec: *spec,
            rng: StdRng::seed_from_u64(self.seed ^ silo as u64),
            seq: 0,
            crashed: false,
            armed,
        })
    }
}

/// What the worker should do with the current request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Serve the request normally, after sleeping `delay` (if any).
    Proceed {
        /// Injected latency for this request.
        delay: Option<Duration>,
    },
    /// Refuse with a retryable [`crate::Response::Transient`], after
    /// sleeping `delay` (if any).
    Transient {
        /// Error message for the refusal.
        message: String,
        /// Injected latency for this request.
        delay: Option<Duration>,
    },
    /// Never reply (the caller's deadline must reap the call).
    Drop,
    /// The worker thread exits; every later call sees a disconnect.
    Crash,
}

/// The compiled per-silo injector owned by one worker thread.
///
/// All state is local to the worker (the RNG, the request counter), so
/// applying faults is free of cross-thread coordination and the draw
/// sequence depends only on the order requests arrive on this silo's
/// channel.
#[derive(Debug)]
pub struct SiloFaultInjector {
    spec: SiloFaultSpec,
    rng: StdRng,
    seq: u64,
    crashed: bool,
    armed: Arc<AtomicBool>,
}

impl SiloFaultInjector {
    /// Decides the fate of the next request. While the armed flag is
    /// unset (setup phase), every request proceeds untouched and consumes
    /// neither the counter nor the RNG.
    pub fn next_action(&mut self) -> FaultAction {
        if !self.armed.load(Ordering::Acquire) {
            return FaultAction::Proceed { delay: None };
        }
        if self.crashed {
            return FaultAction::Crash;
        }
        let seq = self.seq;
        self.seq += 1;
        if let Some(limit) = self.spec.crash_after {
            if seq >= limit {
                self.crashed = true;
                return FaultAction::Crash;
            }
        }
        if let Some(flap) = self.spec.flap {
            if flap.is_down(seq) {
                return FaultAction::Transient {
                    message: format!("flap window (request {seq})"),
                    delay: None,
                };
            }
        }
        if self.spec.transient_prob > 0.0 && self.rng.random::<f64>() < self.spec.transient_prob {
            return FaultAction::Transient {
                message: format!("transient fault (request {seq})"),
                delay: self.delay(),
            };
        }
        if self.spec.drop_prob > 0.0 && self.rng.random::<f64>() < self.spec.drop_prob {
            return FaultAction::Drop;
        }
        FaultAction::Proceed {
            delay: self.delay(),
        }
    }

    fn delay(&self) -> Option<Duration> {
        self.spec.latency.filter(|latency| !latency.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(true))
    }

    fn actions(plan: &FaultPlan, silo: SiloId, n: usize) -> Vec<FaultAction> {
        let mut injector = plan.injector_for(silo, armed()).expect("spec for silo");
        (0..n).map(|_| injector.next_action()).collect()
    }

    #[test]
    fn flap_schedule_windows() {
        let flap = FlapSchedule {
            period: 4,
            down: 2,
            phase: 0,
        };
        let pattern: Vec<bool> = (0..8).map(|s| flap.is_down(s)).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, true, false, false, true, true]
        );
        let shifted = FlapSchedule {
            period: 4,
            down: 2,
            phase: 2,
        };
        assert!(shifted.is_down(0));
        assert!(!shifted.is_down(2));
    }

    #[test]
    fn same_seed_same_actions() {
        let plan = FaultPlan::seeded(99).with_spec(
            1,
            SiloFaultSpec {
                transient_prob: 0.3,
                drop_prob: 0.1,
                latency: Some(Duration::from_millis(1)),
                ..Default::default()
            },
        );
        assert_eq!(actions(&plan, 1, 200), actions(&plan, 1, 200));
        // A different seed must eventually diverge.
        let other = FaultPlan::seeded(100).with_spec(1, *plan.spec(1).unwrap());
        assert_ne!(actions(&plan, 1, 200), actions(&other, 1, 200));
    }

    #[test]
    fn crash_after_n_is_sticky() {
        let plan = FaultPlan::seeded(7).with_spec(
            2,
            SiloFaultSpec {
                crash_after: Some(3),
                ..Default::default()
            },
        );
        let got = actions(&plan, 2, 5);
        assert_eq!(got[0], FaultAction::Proceed { delay: None });
        assert_eq!(got[2], FaultAction::Proceed { delay: None });
        assert_eq!(got[3], FaultAction::Crash);
        assert_eq!(got[4], FaultAction::Crash);
    }

    #[test]
    fn disarmed_injector_is_inert() {
        let plan = FaultPlan::seeded(7).flapping_silo(0, 2, 1);
        let flag = Arc::new(AtomicBool::new(false));
        let mut injector = plan.injector_for(0, Arc::clone(&flag)).unwrap();
        for _ in 0..10 {
            assert_eq!(injector.next_action(), FaultAction::Proceed { delay: None });
        }
        // Arming starts the schedule from request 0, regardless of how
        // much setup traffic went by.
        flag.store(true, Ordering::Release);
        assert_eq!(injector.next_action(), FaultAction::Proceed { delay: None });
        assert!(matches!(
            injector.next_action(),
            FaultAction::Transient { .. }
        ));
    }

    #[test]
    fn plan_spec_replacement_and_lookup() {
        let plan = FaultPlan::seeded(1)
            .slow_silo(3, Duration::from_millis(10))
            .with_spec(3, SiloFaultSpec::flapping(5, 1));
        assert_eq!(plan.spec(3).unwrap().flap.unwrap().period, 5);
        assert!(plan.spec(3).unwrap().latency.is_none());
        assert!(plan.spec(0).is_none());
        assert!(plan.injector_for(0, armed()).is_none());
    }

    #[test]
    fn slow_spec_delays_every_request() {
        let plan = FaultPlan::seeded(1).slow_silo(0, Duration::from_millis(8));
        for action in actions(&plan, 0, 5) {
            assert_eq!(
                action,
                FaultAction::Proceed {
                    delay: Some(Duration::from_millis(8))
                }
            );
        }
    }
}
