//! Per-silo health tracking and circuit breaking.
//!
//! The planner samples silos; a silo that keeps timing out or crashing
//! should stop being sampled until it shows signs of life. The
//! [`HealthTracker`] keeps, per silo, a consecutive-failure count and a
//! latency EWMA, and runs a three-state breaker:
//!
//! ```text
//!        FAILURE_THRESHOLD (3) consecutive failures
//! Closed ────────────────────────────────────────▶ Open
//!   ▲                                               │ probe admitted
//!   │ probe succeeds                                ▼ (seeded draw)
//!   └──────────────────────────────────────────  HalfOpen
//!                 probe fails: back to Open
//! ```
//!
//! * **Closed**: the silo is in the candidate set; successes keep it
//!   there and update the EWMA.
//! * **Open**: the silo is excluded. Each eligibility check draws from a
//!   seeded RNG; with [`HealthConfig::probe_probability`] the breaker
//!   half-opens and admits that one caller as a probe.
//! * **HalfOpen**: exactly one probe is admitted; other checks are
//!   refused. The probe's outcome closes the breaker or re-opens it.
//!   An admitted probe the planner never actually samples would refuse
//!   checks forever, so the lease expires after `PROBE_PATIENCE` (4)
//!   idle checks (back to Open, where a new probe can be drawn). Call
//!   sites use [`HealthTracker::may_call`] — not `allows` — to re-check a
//!   planned candidate, so an admitted probe is never refused by its own
//!   caller.
//!
//! The draw comes from one `StdRng` with a fixed seed, so a fixed call
//! sequence half-opens at the same points every run — chaos tests stay
//! bit-stable.
//!
//! By default the tracker is **passive**: it records failures and
//! latencies (visible in [`HealthTracker::snapshot`]) but
//! [`HealthTracker::allows`] admits everything, so the planner's
//! candidate set — and therefore every seeded sampling decision — is
//! unchanged from the pre-breaker behaviour. Enable the breaker with
//! [`HealthConfig::breaker_enabled`] via
//! [`crate::FederationBuilder::health_config`].

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::silo::SiloId;

/// Breaker position for one silo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: in the candidate set.
    Closed,
    /// Excluded after repeated failures.
    Open,
    /// One probe in flight; everyone else still excluded.
    HalfOpen,
}

impl BreakerState {
    /// A short stable label for metrics and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// State-machine transition reported back to the caller, so the engine
/// can mirror breaker movement into its `ObsContext`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTransition {
    /// No state change.
    None,
    /// The breaker opened.
    Opened,
    /// The breaker half-opened (a probe was admitted).
    HalfOpened,
    /// The breaker closed (the silo recovered).
    Closed,
}

/// EWMA smoothing factor for the success-latency estimate, in `(0, 1]`.
const EWMA_ALPHA: f64 = 0.2;

/// Consecutive failures that open a closed breaker.
const FAILURE_THRESHOLD: u32 = 3;

/// Seed of the probe-admission draws (`"HEAL"`).
const PROBE_SEED: u64 = 0x4845_414C;

/// Eligibility checks a half-open breaker tolerates with no probe outcome
/// before the lease expires and it reverts to `Open`.
///
/// An admitted probe is just a *candidate*: the planner may end up
/// sampling a different silo, in which case no call ever resolves the
/// probe and — without this lease — the breaker would be stuck half-open
/// forever (refusing every future check, so the silo never rejoins).
/// Reverting to `Open` puts the silo back under the admission draw.
const PROBE_PATIENCE: u32 = 4;

/// Tuning for the [`HealthTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Whether the breaker actually gates the candidate set. Off by
    /// default: the tracker then only records.
    pub breaker_enabled: bool,
    /// Probability an eligibility check against an open breaker admits a
    /// half-open probe (0 keeps an open breaker open).
    pub probe_probability: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            breaker_enabled: false,
            probe_probability: 0.2,
        }
    }
}

impl HealthConfig {
    /// The default tuning with the breaker switched on.
    pub fn enabled() -> Self {
        HealthConfig {
            breaker_enabled: true,
            ..Default::default()
        }
    }
}

#[derive(Debug)]
struct SiloHealthState {
    state: BreakerState,
    consecutive_failures: u32,
    ewma_us: Option<f64>,
    /// Eligibility checks refused since the current probe was admitted;
    /// reaching `PROBE_PATIENCE` expires the lease (HalfOpen → Open).
    probe_idle_checks: u32,
    failures_total: u64,
    successes_total: u64,
    opened_total: u64,
    half_opened_total: u64,
    closed_total: u64,
}

impl SiloHealthState {
    fn new() -> Self {
        SiloHealthState {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            ewma_us: None,
            probe_idle_checks: 0,
            failures_total: 0,
            successes_total: 0,
            opened_total: 0,
            half_opened_total: 0,
            closed_total: 0,
        }
    }
}

/// Point-in-time health of one silo, for CLI/diagnostic output.
#[derive(Debug, Clone, PartialEq)]
pub struct SiloHealthSnapshot {
    /// Which silo.
    pub silo: SiloId,
    /// Current breaker position.
    pub state: BreakerState,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Smoothed success latency in microseconds (`None` until the first
    /// success).
    pub latency_ewma_us: Option<f64>,
    /// Lifetime failure count.
    pub failures_total: u64,
    /// Lifetime success count.
    pub successes_total: u64,
    /// Closed→Open (and HalfOpen→Open) transitions.
    pub opened_total: u64,
    /// Open→HalfOpen transitions (probes admitted).
    pub half_opened_total: u64,
    /// →Closed transitions (recoveries).
    pub closed_total: u64,
}

/// Tracks per-silo health and runs the circuit breaker.
#[derive(Debug)]
pub struct HealthTracker {
    config: HealthConfig,
    silos: Vec<Mutex<SiloHealthState>>,
    rng: Mutex<StdRng>,
}

impl HealthTracker {
    /// A tracker for `m` silos.
    pub fn new(m: usize, config: HealthConfig) -> Self {
        HealthTracker {
            config,
            silos: (0..m).map(|_| Mutex::new(SiloHealthState::new())).collect(),
            rng: Mutex::new(StdRng::seed_from_u64(PROBE_SEED)),
        }
    }

    /// Records a successful call and its latency. Closes an open or
    /// half-open breaker (the silo demonstrably answers again).
    pub fn record_success(&self, silo: SiloId, latency: Duration) -> HealthTransition {
        let Some(slot) = self.silos.get(silo) else {
            return HealthTransition::None;
        };
        let mut state = slot.lock().unwrap_or_else(PoisonError::into_inner);
        state.successes_total += 1;
        state.consecutive_failures = 0;
        let us = latency.as_secs_f64() * 1e6;
        state.ewma_us = Some(match state.ewma_us {
            None => us,
            Some(prev) => prev + EWMA_ALPHA * (us - prev),
        });
        if state.state != BreakerState::Closed {
            state.state = BreakerState::Closed;
            state.closed_total += 1;
            HealthTransition::Closed
        } else {
            HealthTransition::None
        }
    }

    /// Records a failed call. Opens the breaker after
    /// `FAILURE_THRESHOLD` consecutive failures, and re-opens a
    /// half-open breaker whose probe failed.
    pub fn record_failure(&self, silo: SiloId) -> HealthTransition {
        let Some(slot) = self.silos.get(silo) else {
            return HealthTransition::None;
        };
        let mut state = slot.lock().unwrap_or_else(PoisonError::into_inner);
        state.failures_total += 1;
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        if !self.config.breaker_enabled {
            // Passive tracker: record, but never move the state machine —
            // the candidate set must stay exactly the pre-breaker one.
            return HealthTransition::None;
        }
        match state.state {
            BreakerState::HalfOpen => {
                state.state = BreakerState::Open;
                state.opened_total += 1;
                HealthTransition::Opened
            }
            BreakerState::Closed if state.consecutive_failures >= FAILURE_THRESHOLD => {
                state.state = BreakerState::Open;
                state.opened_total += 1;
                HealthTransition::Opened
            }
            _ => HealthTransition::None,
        }
    }

    /// Whether the planner may offer `silo` as a candidate right now.
    ///
    /// Against an open breaker this draws probe admission; admission
    /// moves the breaker to half-open and lets *this* caller through as
    /// the probe. With the breaker disabled, always true.
    pub fn allows(&self, silo: SiloId) -> bool {
        if !self.config.breaker_enabled {
            return true;
        }
        let Some(slot) = self.silos.get(silo) else {
            return true;
        };
        let mut state = slot.lock().unwrap_or_else(PoisonError::into_inner);
        match state.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                // The admitted probe may never have been sampled by its
                // plan; once the lease expires, revert to Open so a new
                // probe can be drawn instead of refusing forever.
                state.probe_idle_checks += 1;
                if state.probe_idle_checks >= PROBE_PATIENCE {
                    state.state = BreakerState::Open;
                }
                false
            }
            BreakerState::Open => {
                let admit = self
                    .rng
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .random::<f64>()
                    < self.config.probe_probability;
                if admit {
                    state.state = BreakerState::HalfOpen;
                    state.probe_idle_checks = 0;
                    state.half_opened_total += 1;
                }
                admit
            }
        }
    }

    /// Whether a call to `silo` may be *sent* right now.
    ///
    /// The call-time companion of [`HealthTracker::allows`]: a silo whose
    /// breaker is half-open was already admitted as a probe at plan time,
    /// so the call that carries the probe must go through — refusing it
    /// here (as `allows` would) strands the breaker in `HalfOpen` forever,
    /// because only the probe's outcome can move it. Open breakers are
    /// still refused without consuming a probe-admission draw.
    pub fn may_call(&self, silo: SiloId) -> bool {
        if !self.config.breaker_enabled {
            return true;
        }
        self.state(silo) != BreakerState::Open
    }

    /// Current breaker position for `silo`.
    pub fn state(&self, silo: SiloId) -> BreakerState {
        self.silos
            .get(silo)
            .map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Silos whose breaker is not closed (open or probing). A non-empty
    /// answer after a recovery phase means a breaker "leaked".
    pub fn non_closed(&self) -> Vec<SiloId> {
        (0..self.silos.len())
            .filter(|&k| self.state(k) != BreakerState::Closed)
            .collect()
    }

    /// Point-in-time copy of every silo's health.
    pub fn snapshot(&self) -> Vec<SiloHealthSnapshot> {
        self.silos
            .iter()
            .enumerate()
            .map(|(silo, slot)| {
                let state = slot.lock().unwrap_or_else(PoisonError::into_inner);
                SiloHealthSnapshot {
                    silo,
                    state: state.state,
                    consecutive_failures: state.consecutive_failures,
                    latency_ewma_us: state.ewma_us,
                    failures_total: state.failures_total,
                    successes_total: state.successes_total,
                    opened_total: state.opened_total,
                    half_opened_total: state.half_opened_total,
                    closed_total: state.closed_total,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_tracker(m: usize) -> HealthTracker {
        HealthTracker::new(m, HealthConfig::enabled())
    }

    #[test]
    fn passive_tracker_never_blocks_candidates() {
        let tracker = HealthTracker::new(3, HealthConfig::default());
        for _ in 0..10 {
            tracker.record_failure(1);
        }
        assert!(tracker.allows(1));
        assert_eq!(tracker.state(1), BreakerState::Closed);
        let snap = tracker.snapshot();
        assert_eq!(snap[1].failures_total, 10);
        assert_eq!(snap[1].consecutive_failures, 10);
    }

    #[test]
    fn breaker_opens_after_threshold() {
        let tracker = enabled_tracker(2);
        assert_eq!(tracker.record_failure(0), HealthTransition::None);
        assert_eq!(tracker.record_failure(0), HealthTransition::None);
        assert_eq!(tracker.record_failure(0), HealthTransition::Opened);
        assert_eq!(tracker.state(0), BreakerState::Open);
        assert_eq!(tracker.non_closed(), vec![0]);
        // The other silo is untouched.
        assert!(tracker.allows(1));
    }

    #[test]
    fn open_breaker_admits_probes_and_success_closes() {
        let tracker = enabled_tracker(1);
        for _ in 0..3 {
            tracker.record_failure(0);
        }
        // Eventually a check half-opens (probe_probability 0.2); while
        // half-open, further checks are refused.
        let mut admitted = false;
        for _ in 0..200 {
            if tracker.allows(0) {
                admitted = true;
                break;
            }
        }
        assert!(admitted, "probe never admitted in 200 draws");
        assert_eq!(tracker.state(0), BreakerState::HalfOpen);
        assert!(!tracker.allows(0), "only one probe at a time");
        assert_eq!(
            tracker.record_success(0, Duration::from_millis(1)),
            HealthTransition::Closed
        );
        assert_eq!(tracker.state(0), BreakerState::Closed);
        assert!(tracker.allows(0));
        let snap = &tracker.snapshot()[0];
        assert_eq!(snap.opened_total, 1);
        assert_eq!(snap.half_opened_total, 1);
        assert_eq!(snap.closed_total, 1);
    }

    #[test]
    fn an_admitted_probe_may_still_be_called() {
        let tracker = enabled_tracker(1);
        for _ in 0..3 {
            tracker.record_failure(0);
        }
        // Open: callers that were not admitted must not send.
        assert!(!tracker.may_call(0));
        while !tracker.allows(0) {}
        // Half-open: the admitted plan's call-time check must pass, or
        // the probe never fires and the breaker is stuck half-open.
        assert_eq!(tracker.state(0), BreakerState::HalfOpen);
        assert!(!tracker.allows(0), "no second probe");
        assert!(tracker.may_call(0), "the admitted probe must be sendable");
        tracker.record_success(0, Duration::from_millis(1));
        assert_eq!(tracker.state(0), BreakerState::Closed);
        assert!(tracker.may_call(0));
    }

    #[test]
    fn unsampled_probe_lease_expires_back_to_open() {
        let tracker = enabled_tracker(1);
        for _ in 0..3 {
            tracker.record_failure(0);
        }
        while !tracker.allows(0) {}
        assert_eq!(tracker.state(0), BreakerState::HalfOpen);
        // A plan admitted the probe but never sampled the silo: each
        // later check is refused, and after `PROBE_PATIENCE` of them the
        // lease lapses so a fresh probe can be drawn.
        for _ in 0..PROBE_PATIENCE {
            assert!(!tracker.allows(0));
        }
        assert_eq!(
            tracker.state(0),
            BreakerState::Open,
            "idle half-open lease must lapse"
        );
        // Recovery is still possible: a new probe can close the breaker.
        while !tracker.allows(0) {}
        assert_eq!(tracker.state(0), BreakerState::HalfOpen);
        tracker.record_success(0, Duration::from_millis(1));
        assert_eq!(tracker.state(0), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let tracker = enabled_tracker(1);
        for _ in 0..3 {
            tracker.record_failure(0);
        }
        while !tracker.allows(0) {}
        assert_eq!(tracker.state(0), BreakerState::HalfOpen);
        assert_eq!(tracker.record_failure(0), HealthTransition::Opened);
        assert_eq!(tracker.state(0), BreakerState::Open);
        assert_eq!(tracker.snapshot()[0].opened_total, 2);
    }

    #[test]
    fn probe_admission_is_seed_deterministic() {
        let draws = || -> Vec<bool> {
            let tracker = enabled_tracker(1);
            for _ in 0..3 {
                tracker.record_failure(0);
            }
            (0..50)
                .map(|_| {
                    let admitted = tracker.allows(0);
                    if admitted {
                        // Fail the probe so the sequence keeps drawing.
                        tracker.record_failure(0);
                    }
                    admitted
                })
                .collect()
        };
        assert_eq!(draws(), draws());
    }

    #[test]
    fn ewma_tracks_latency() {
        let tracker = enabled_tracker(1);
        tracker.record_success(0, Duration::from_micros(100));
        assert_eq!(tracker.snapshot()[0].latency_ewma_us, Some(100.0));
        tracker.record_success(0, Duration::from_micros(200));
        // 100 + 0.2 * (200 - 100) = 120.
        let ewma = tracker.snapshot()[0].latency_ewma_us.unwrap();
        assert!((ewma - 120.0).abs() < 1e-9);
        // A success resets the consecutive-failure streak.
        tracker.record_failure(0);
        tracker.record_success(0, Duration::from_micros(100));
        assert_eq!(tracker.snapshot()[0].consecutive_failures, 0);
    }

    #[test]
    fn out_of_range_silos_are_harmless() {
        let tracker = enabled_tracker(1);
        assert_eq!(tracker.record_failure(9), HealthTransition::None);
        assert_eq!(
            tracker.record_success(9, Duration::ZERO),
            HealthTransition::None
        );
        assert!(tracker.allows(9));
        assert_eq!(tracker.state(9), BreakerState::Closed);
    }
}
