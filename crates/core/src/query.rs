//! FRA queries and their results.

use fedra_federation::SiloId;
use fedra_geo::{Point, Range};
use fedra_index::{AggFunc, Aggregate};

/// A Federated Range Aggregation query (Definition 2): a range `R` plus an
/// aggregation function `F`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FraQuery {
    /// The spatial range (circular or rectangular).
    pub range: Range,
    /// The aggregation function.
    pub func: AggFunc,
}

impl FraQuery {
    /// Creates a query over an arbitrary range.
    pub fn new(range: Range, func: AggFunc) -> Self {
        Self { range, func }
    }

    /// A circular query: "aggregate within `radius` of `center`".
    pub fn circle(center: Point, radius: f64, func: AggFunc) -> Self {
        Self::new(Range::circle(center, radius), func)
    }

    /// A rectangular query.
    pub fn rect(a: Point, b: Point, func: AggFunc) -> Self {
        Self::new(Range::rect(a, b), func)
    }
}

impl std::fmt::Display for FraQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.func, self.range)
    }
}

/// How much of the federation actually backed a degraded-mode answer
/// (DESIGN.md §5i).
///
/// Attached to a [`QueryResult`] only when the federation runs under
/// `DegradePolicy::Partial` and the answer was assembled without the full
/// silo complement — the coverage-honest alternative to failing the query
/// outright. `epsilon` is the inflated bound of
/// [`crate::theory::degraded_epsilon`], anchored to the `sum₀` grid
/// envelope like every Sec. 6 guarantee: the degraded answer's absolute
/// error against the true (all-silo) answer is at most `epsilon · sum₀(R)`
/// (deterministically for exact fan-outs; up to the base guarantee's own
/// δ when the backed share is sampled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Silos whose live answers back this result.
    pub responding: usize,
    /// Total silos in the federation.
    pub total: usize,
    /// Fraction of the in-range mass (from the per-silo grids) that is
    /// backed by live answers rather than grid fill-in, in `[0, 1]`.
    pub mass_fraction: f64,
    /// The inflated relative-error bound this answer honestly carries.
    pub epsilon: f64,
}

/// The answer to an FRA query, with execution metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryResult {
    /// The (possibly approximate) value of `F` over the range.
    pub value: f64,
    /// The moments the value was derived from — `F`'s, the rest 0.0
    /// (see [`QueryResult::from_aggregate`]). AVG/STDEV queries get the
    /// two or three they need in one round, per the Sec. 7 extension.
    pub aggregate: Aggregate,
    /// The silo that served the partial answer (`None` for algorithms
    /// that fan out to every silo or answer purely from provider state).
    pub sampled_silo: Option<SiloId>,
    /// The LSR level used for the local query (`None` without LSR).
    pub lsr_level: Option<usize>,
    /// Request/response rounds this query consumed.
    pub rounds: u64,
    /// Degraded-mode coverage (`None` for a full-federation answer).
    pub coverage: Option<Coverage>,
}

impl QueryResult {
    /// Builds a result from an aggregate triple for the requested function.
    ///
    /// The contract every finish step relies on: `aggregate` is masked to
    /// `func`'s moments ([`AggFunc::moments`]), so a result carries — and
    /// its value reads — exactly what a masked silo reply carries. The
    /// estimators' per-component arithmetic never mixes moments, so the
    /// zeroed ones a silo left off the wire cannot reach the answer.
    pub fn from_aggregate(aggregate: Aggregate, func: AggFunc) -> Self {
        let aggregate = aggregate.masked(func.moments());
        Self {
            value: aggregate.value(func),
            aggregate,
            sampled_silo: None,
            lsr_level: None,
            rounds: 0,
            coverage: None,
        }
    }

    /// Attaches the sampled silo.
    pub fn with_silo(mut self, silo: SiloId) -> Self {
        self.sampled_silo = Some(silo);
        self
    }

    /// Attaches the LSR level.
    pub fn with_level(mut self, level: usize) -> Self {
        self.lsr_level = Some(level);
        self
    }

    /// Attaches the round count.
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Attaches the degraded-mode coverage record.
    pub fn with_coverage(mut self, coverage: Coverage) -> Self {
        self.coverage = Some(coverage);
        self
    }

    /// Relative error against an exact reference value (the paper's RE,
    /// Eq. 2). Defined as 0 when both are zero and 1 when only the
    /// reference is zero.
    pub fn relative_error(&self, exact: f64) -> f64 {
        if exact == 0.0 {
            if self.value == 0.0 {
                0.0
            } else {
                1.0
            }
        } else {
            (self.value - exact).abs() / exact.abs()
        }
    }
}

/// Errors from FRA query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum FraError {
    /// Every candidate silo refused or was unreachable.
    ///
    /// Carries the full per-silo error trail (in the order attempts were
    /// made — the same silo may appear more than once across retries), so
    /// a timeout storm is distinguishable from a crash storm.
    AllSilosUnavailable {
        /// Every transport error seen while trying to serve the query.
        errors: Vec<(SiloId, fedra_federation::TransportError)>,
    },
    /// A fan-out algorithm (EXACT/OPTA) lost a required silo.
    SiloFailed(fedra_federation::TransportError),
    /// A silo answered with the wrong response shape.
    ProtocolViolation {
        /// Which silo.
        silo: SiloId,
        /// What was expected.
        expected: &'static str,
    },
    /// The engine itself failed (a panicked plan or finish step, a broken
    /// scheduling invariant) — the query was never answered.
    Internal {
        /// What went wrong.
        message: String,
    },
    /// The serving layer gave the query up before an answer: its admission
    /// class's deadline (measured from *submission*) expired in queue, in
    /// flight, or at the silo — which sheds expired frames for the cost of
    /// one byte-counted round trip (DESIGN.md §5g).
    Shed {
        /// The admission class the query was submitted under.
        class: String,
    },
}

impl std::fmt::Display for FraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FraError::AllSilosUnavailable { errors } => {
                if errors.is_empty() {
                    return write!(f, "no silo could serve the query");
                }
                // Summarize by failure kind so a timeout storm reads
                // differently from a crash storm at a glance.
                let mut kinds: Vec<(&'static str, usize)> = Vec::new();
                for (_, e) in errors {
                    match kinds.iter_mut().find(|(k, _)| *k == e.kind()) {
                        Some((_, n)) => *n += 1,
                        None => kinds.push((e.kind(), 1)),
                    }
                }
                write!(
                    f,
                    "no silo could serve the query ({} attempts: ",
                    errors.len()
                )?;
                for (i, (kind, n)) in kinds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n} {kind}")?;
                }
                let (silo, last) = &errors[errors.len() - 1];
                write!(f, "; last: silo {silo}: {last})")
            }
            FraError::SiloFailed(e) => write!(f, "required silo failed: {e}"),
            FraError::ProtocolViolation { silo, expected } => {
                write!(f, "silo {silo} violated the protocol (expected {expected})")
            }
            FraError::Internal { message } => write!(f, "internal engine error: {message}"),
            FraError::Shed { class } => {
                write!(f, "query shed by admission control (class `{class}`)")
            }
        }
    }
}

impl std::error::Error for FraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let q = FraQuery::circle(Point::new(4.0, 6.0), 3.0, AggFunc::Sum);
        assert!(matches!(q.range, Range::Circle(_)));
        assert_eq!(q.func, AggFunc::Sum);
        let q = FraQuery::rect(Point::new(0.0, 0.0), Point::new(1.0, 1.0), AggFunc::Count);
        assert!(matches!(q.range, Range::Rect(_)));
        assert_eq!(q.to_string(), "COUNT([(0, 0) .. (1, 1)])");
    }

    #[test]
    fn result_from_aggregate_derives_value() {
        let agg = Aggregate {
            count: 4.0,
            sum: 10.0,
            sum_sqr: 30.0,
        };
        assert_eq!(QueryResult::from_aggregate(agg, AggFunc::Count).value, 4.0);
        assert_eq!(QueryResult::from_aggregate(agg, AggFunc::Sum).value, 10.0);
        assert_eq!(QueryResult::from_aggregate(agg, AggFunc::Avg).value, 2.5);
        // The result keeps only the moments its function reads.
        let avg = QueryResult::from_aggregate(agg, AggFunc::Avg).aggregate;
        assert_eq!((avg.count, avg.sum, avg.sum_sqr), (4.0, 10.0, 0.0));
        let stdev = QueryResult::from_aggregate(agg, AggFunc::Stdev).aggregate;
        assert_eq!(stdev, agg);
    }

    #[test]
    fn relative_error_edge_cases() {
        let r = QueryResult::from_aggregate(Aggregate::ZERO, AggFunc::Count);
        assert_eq!(r.relative_error(0.0), 0.0);
        assert_eq!(r.relative_error(10.0), 1.0);
        let r = QueryResult::from_aggregate(
            Aggregate {
                count: 11.0,
                sum: 0.0,
                sum_sqr: 0.0,
            },
            AggFunc::Count,
        );
        assert!((r.relative_error(10.0) - 0.1).abs() < 1e-12);
        let r2 = QueryResult::from_aggregate(
            Aggregate {
                count: 5.0,
                sum: 0.0,
                sum_sqr: 0.0,
            },
            AggFunc::Count,
        );
        assert_eq!(r2.relative_error(0.0), 1.0);
    }

    #[test]
    fn builder_metadata() {
        let r = QueryResult::from_aggregate(Aggregate::ZERO, AggFunc::Count)
            .with_silo(3)
            .with_level(2)
            .with_rounds(1);
        assert_eq!(r.sampled_silo, Some(3));
        assert_eq!(r.lsr_level, Some(2));
        assert_eq!(r.rounds, 1);
        assert_eq!(r.coverage, None);
        let c = Coverage {
            responding: 2,
            total: 3,
            mass_fraction: 0.75,
            epsilon: 0.25,
        };
        assert_eq!(r.with_coverage(c).coverage, Some(c));
    }

    #[test]
    fn errors_display() {
        let e = FraError::AllSilosUnavailable { errors: vec![] };
        assert!(e.to_string().contains("no silo"));
        let e = FraError::ProtocolViolation {
            silo: 2,
            expected: "Agg",
        };
        assert!(e.to_string().contains("silo 2"));
    }

    #[test]
    fn all_silos_unavailable_summarizes_error_kinds() {
        use fedra_federation::TransportError;
        let e = FraError::AllSilosUnavailable {
            errors: vec![
                (0, TransportError::DeadlineExceeded { silo: 0 }),
                (1, TransportError::DeadlineExceeded { silo: 1 }),
                (2, TransportError::Disconnected { silo: 2 }),
            ],
        };
        let s = e.to_string();
        assert!(s.contains("3 attempts"), "{s}");
        assert!(s.contains("2 deadline"), "{s}");
        assert!(s.contains("1 disconnected"), "{s}");
        assert!(s.contains("last: silo 2"), "{s}");
    }
}
