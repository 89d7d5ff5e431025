//! Byte-counted communication accounting.
//!
//! [`CommCounters`] and [`CommSnapshot`] are owned by the observability
//! crate so the transport, the engine and the exporters all share one
//! definition; `fedra_federation::transport` re-exports them under the
//! same names.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-message envelope overhead, in bytes, charged on top of the payload
/// in each direction.
///
/// Real federations speak RPC over TLS: every request and response pays
/// for TCP/IP + TLS record + HTTP/2 (or gRPC) framing before the first
/// payload byte — roughly half a kilobyte per message in practice. This
/// constant is what makes the fan-out algorithms' O(m) *message* count
/// visible in the byte totals, exactly as in the paper's measured setup;
/// set it to 0 via [`CommCounters::with_overhead`] to count pure payload.
pub const DEFAULT_MESSAGE_OVERHEAD: u64 = 512;

/// Communication counters, shared across threads.
///
/// "Up" is provider → silo (requests), "down" is silo → provider
/// (responses). `rounds` counts request/response pairs — the paper's
/// "rounds of interaction". Each recorded message is charged the
/// configured per-message envelope overhead in addition to its payload.
#[derive(Debug)]
pub struct CommCounters {
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
    rounds: AtomicU64,
    overhead: u64,
}

impl Default for CommCounters {
    fn default() -> Self {
        Self::with_overhead(DEFAULT_MESSAGE_OVERHEAD)
    }
}

/// A point-in-time copy of [`CommCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommSnapshot {
    /// Total provider → silo bytes.
    pub bytes_up: u64,
    /// Total silo → provider bytes.
    pub bytes_down: u64,
    /// Total request/response rounds.
    pub rounds: u64,
}

impl CommSnapshot {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }

    /// Difference since an earlier snapshot (for per-query accounting).
    pub fn since(&self, earlier: &CommSnapshot) -> CommSnapshot {
        CommSnapshot {
            bytes_up: self.bytes_up - earlier.bytes_up,
            bytes_down: self.bytes_down - earlier.bytes_down,
            rounds: self.rounds - earlier.rounds,
        }
    }
}

impl CommCounters {
    /// Creates counters with an explicit per-message envelope overhead.
    pub fn with_overhead(overhead: u64) -> Self {
        Self {
            bytes_up: AtomicU64::new(0),
            bytes_down: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            overhead,
        }
    }

    /// The configured per-message envelope overhead.
    pub fn overhead(&self) -> u64 {
        self.overhead
    }

    /// Records one round (payload sizes; the envelope overhead is added
    /// per direction).
    pub fn record(&self, up: usize, down: usize) {
        self.bytes_up
            .fetch_add(up as u64 + self.overhead, Ordering::Relaxed);
        self.bytes_down
            .fetch_add(down as u64 + self.overhead, Ordering::Relaxed);
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Mirrors an already-accounted delta verbatim (no overhead applied).
    ///
    /// Used by the engine to fold the transport's own byte totals into an
    /// [`crate::ObsContext`] bit-for-bit: the transport has already
    /// charged the envelope overhead, so the mirror must not charge it
    /// again.
    pub fn add_delta(&self, delta: &CommSnapshot) {
        self.bytes_up.fetch_add(delta.bytes_up, Ordering::Relaxed);
        self.bytes_down
            .fetch_add(delta.bytes_down, Ordering::Relaxed);
        self.rounds.fetch_add(delta.rounds, Ordering::Relaxed);
    }

    /// Reads the counters.
    pub fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            bytes_up: self.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.bytes_down.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters.
    pub fn reset(&self) {
        self.bytes_up.store(0, Ordering::Relaxed);
        self.bytes_down.store(0, Ordering::Relaxed);
        self.rounds.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_charges_overhead_per_direction() {
        let c = CommCounters::with_overhead(10);
        c.record(100, 50);
        let s = c.snapshot();
        assert_eq!(s.bytes_up, 110);
        assert_eq!(s.bytes_down, 60);
        assert_eq!(s.rounds, 1);
    }

    #[test]
    fn add_delta_is_verbatim() {
        let c = CommCounters::with_overhead(512);
        c.add_delta(&CommSnapshot {
            bytes_up: 7,
            bytes_down: 3,
            rounds: 2,
        });
        assert_eq!(
            c.snapshot(),
            CommSnapshot {
                bytes_up: 7,
                bytes_down: 3,
                rounds: 2
            }
        );
    }

    #[test]
    fn since_subtracts() {
        let a = CommSnapshot {
            bytes_up: 10,
            bytes_down: 20,
            rounds: 3,
        };
        let b = CommSnapshot {
            bytes_up: 4,
            bytes_down: 5,
            rounds: 1,
        };
        let d = a.since(&b);
        assert_eq!(d.bytes_up, 6);
        assert_eq!(d.bytes_down, 15);
        assert_eq!(d.rounds, 2);
        assert_eq!(d.total_bytes(), 21);
    }
}
