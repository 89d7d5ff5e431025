//! The aggregate monoid carried by every index in `fedra`.
//!
//! The paper's FRA query supports COUNT and SUM natively and derives AVG
//! and STDEV from COUNT, SUM and the user-defined SUM_SQR (Sec. 7). Rather
//! than running three rounds of local queries as the paper describes, every
//! `fedra` index node carries the full `(count, sum, sum_sqr)` triple — the
//! triple is a commutative monoid, so one traversal answers all five
//! functions at once with the same accuracy guarantees (SUM_SQR "is
//! processed in the same way as SUM"). What crosses the wire is narrower:
//! a request names the [`Moments`] its function reads
//! ([`AggFunc::moments`]) and the silo zeroes the rest
//! ([`Aggregate::masked`]).

use fedra_geo::SpatialObject;

/// The aggregation function `F` of an FRA query (Definition 2 + Sec. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of objects within the range.
    Count,
    /// Sum of measure attributes within the range.
    Sum,
    /// Sum of squared measure attributes (substrate for STDEV, Sec. 7).
    SumSqr,
    /// Average measure: SUM / COUNT (Sec. 7).
    Avg,
    /// Standard deviation: √(SUM_SQR/COUNT − AVG²) (Sec. 7).
    Stdev,
}

impl AggFunc {
    /// All supported functions, handy for exhaustive tests and sweeps.
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::SumSqr,
        AggFunc::Avg,
        AggFunc::Stdev,
    ];

    /// Whether the function is a *primitive* (directly estimable) monoid
    /// component, as opposed to AVG/STDEV which are derived ratios.
    pub fn is_primitive(&self) -> bool {
        matches!(self, AggFunc::Count | AggFunc::Sum | AggFunc::SumSqr)
    }

    /// The moments [`Aggregate::value`] reads for this function — all a
    /// silo has to return to answer it (Alg. 2 and Alg. 3, line 3).
    pub fn moments(&self) -> Moments {
        match self {
            AggFunc::Count => Moments::COUNT,
            AggFunc::Sum => Moments::SUM,
            AggFunc::SumSqr => Moments::SUM_SQR,
            AggFunc::Avg => Moments::COUNT | Moments::SUM,
            AggFunc::Stdev => Moments::ALL,
        }
    }
}

/// A set of [`Aggregate`] components: bit 0 is COUNT, bit 1 SUM, bit 2
/// SUM_SQR — the same bit order the wire codec's presence byte uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Moments(u8);

impl Moments {
    /// No component.
    pub const NONE: Moments = Moments(0);
    /// The count component.
    pub const COUNT: Moments = Moments(0b001);
    /// The sum component.
    pub const SUM: Moments = Moments(0b010);
    /// The sum-of-squares component.
    pub const SUM_SQR: Moments = Moments(0b100);
    /// All three components.
    pub const ALL: Moments = Moments(0b111);

    /// The raw bitset.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// The set with these bits; `None` when a bit above `0b111` is set.
    pub fn from_bits(bits: u8) -> Option<Moments> {
        (bits & !Moments::ALL.0 == 0).then_some(Moments(bits))
    }

    /// Whether every component of `other` is in `self`.
    pub fn contains(self, other: Moments) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for Moments {
    type Output = Moments;
    fn bitor(self, rhs: Moments) -> Moments {
        Moments(self.0 | rhs.0)
    }
}

/// Whether a ratio estimate `sum₀ × res / denominator` reads its `res`
/// component: only when `|denominator| ≥ f64::EPSILON`. Below that the
/// estimators take their grid fallback instead (`ratio_scale` in
/// `fedra-core`), and a silo leaves out of a NonIID reply every cell
/// whose own mass fails this test (`GridIndex::contributes`), so both
/// sides share this one function.
#[inline]
pub fn ratio_reads(denominator: f64) -> bool {
    denominator.abs() >= f64::EPSILON
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::SumSqr => "SUM_SQR",
            AggFunc::Avg => "AVG",
            AggFunc::Stdev => "STDEV",
        };
        f.pad(s)
    }
}

/// A partial aggregation result: the `(COUNT, SUM, SUM_SQR)` triple.
///
/// Forms a commutative monoid under [`Aggregate::merge`] with
/// [`Aggregate::ZERO`] as identity. Every grid cell, R-tree node,
/// histogram bucket and wire message carries one of these.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    /// Number of objects.
    pub count: f64,
    /// Sum of measures.
    pub sum: f64,
    /// Sum of squared measures.
    pub sum_sqr: f64,
}

impl Aggregate {
    /// The empty aggregate (monoid identity).
    pub const ZERO: Aggregate = Aggregate {
        count: 0.0,
        sum: 0.0,
        sum_sqr: 0.0,
    };

    /// Aggregate of a single object.
    #[inline]
    pub fn of(object: &SpatialObject) -> Self {
        let m = object.measure;
        Aggregate {
            count: 1.0,
            sum: m,
            sum_sqr: m * m,
        }
    }

    /// Aggregate of a slice of objects.
    pub fn of_all(objects: &[SpatialObject]) -> Self {
        objects
            .iter()
            .fold(Aggregate::ZERO, |acc, o| acc.merge(&Aggregate::of(o)))
    }

    /// Monoid operation: component-wise addition.
    #[inline]
    #[must_use]
    pub fn merge(&self, other: &Aggregate) -> Aggregate {
        Aggregate {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            sum_sqr: self.sum_sqr + other.sum_sqr,
        }
    }

    /// In-place merge.
    #[inline]
    pub fn merge_in(&mut self, other: &Aggregate) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sqr += other.sum_sqr;
    }

    /// Component-wise subtraction (inclusion–exclusion over prefix sums).
    #[inline]
    #[must_use]
    pub fn sub(&self, other: &Aggregate) -> Aggregate {
        Aggregate {
            count: self.count - other.count,
            sum: self.sum - other.sum,
            sum_sqr: self.sum_sqr - other.sum_sqr,
        }
    }

    /// Scales every component by `factor` (used by the sampling
    /// estimators: `res' = res_l × 2^l` in Alg. 6, `sum₀ × res_k / sum_k`
    /// in Alg. 2, per-grid re-weighting in Alg. 3).
    #[inline]
    #[must_use]
    pub fn scale(&self, factor: f64) -> Aggregate {
        Aggregate {
            count: self.count * factor,
            sum: self.sum * factor,
            sum_sqr: self.sum_sqr * factor,
        }
    }

    /// The aggregate with every component outside `moments` set to 0.0.
    #[inline]
    #[must_use]
    pub fn masked(&self, moments: Moments) -> Aggregate {
        let keep = |moment: Moments, v: f64| if moments.contains(moment) { v } else { 0.0 };
        Aggregate {
            count: keep(Moments::COUNT, self.count),
            sum: keep(Moments::SUM, self.sum),
            sum_sqr: keep(Moments::SUM_SQR, self.sum_sqr),
        }
    }

    /// Whether the aggregate is exactly empty.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.count == 0.0 && self.sum == 0.0 && self.sum_sqr == 0.0
    }

    /// Value of a *primitive* aggregation function.
    ///
    /// # Panics
    /// Panics for derived functions (AVG, STDEV); use [`Aggregate::value`]
    /// for those.
    #[inline]
    pub fn primitive(&self, f: AggFunc) -> f64 {
        match f {
            AggFunc::Count => self.count,
            AggFunc::Sum => self.sum,
            AggFunc::SumSqr => self.sum_sqr,
            _ => panic!("{f} is a derived aggregation function; use Aggregate::value"),
        }
    }

    /// Value of any aggregation function over this aggregate.
    ///
    /// AVG and STDEV of an empty aggregate are defined as 0 — the same
    /// convention SQL's `COALESCE(AVG(..), 0)` would give a service
    /// provider, and the convention the estimators rely on.
    pub fn value(&self, f: AggFunc) -> f64 {
        match f {
            AggFunc::Count => self.count,
            AggFunc::Sum => self.sum,
            AggFunc::SumSqr => self.sum_sqr,
            AggFunc::Avg => {
                if self.count <= 0.0 {
                    0.0
                } else {
                    self.sum / self.count
                }
            }
            AggFunc::Stdev => {
                if self.count <= 0.0 {
                    0.0
                } else {
                    let avg = self.sum / self.count;
                    (self.sum_sqr / self.count - avg * avg).max(0.0).sqrt()
                }
            }
        }
    }
}

impl std::ops::Add for Aggregate {
    type Output = Aggregate;
    fn add(self, rhs: Aggregate) -> Aggregate {
        self.merge(&rhs)
    }
}

impl std::ops::AddAssign for Aggregate {
    fn add_assign(&mut self, rhs: Aggregate) {
        self.merge_in(&rhs);
    }
}

impl std::iter::Sum for Aggregate {
    fn sum<I: Iterator<Item = Aggregate>>(iter: I) -> Aggregate {
        iter.fold(Aggregate::ZERO, |a, b| a.merge(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_geo::SpatialObject;

    fn obj(m: f64) -> SpatialObject {
        SpatialObject::at(0.0, 0.0, m)
    }

    #[test]
    fn zero_is_identity() {
        let a = Aggregate::of(&obj(3.0));
        assert_eq!(a.merge(&Aggregate::ZERO), a);
        assert_eq!(Aggregate::ZERO.merge(&a), a);
        assert!(Aggregate::ZERO.is_zero());
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let a = Aggregate::of(&obj(1.0));
        let b = Aggregate::of(&obj(2.0));
        let c = Aggregate::of(&obj(3.0));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    }

    #[test]
    fn of_all_matches_fold() {
        let objs = [obj(1.0), obj(2.0), obj(3.0)];
        let a = Aggregate::of_all(&objs);
        assert_eq!(a.count, 3.0);
        assert_eq!(a.sum, 6.0);
        assert_eq!(a.sum_sqr, 14.0);
    }

    #[test]
    fn sub_inverts_merge() {
        let a = Aggregate::of_all(&[obj(1.0), obj(2.0)]);
        let b = Aggregate::of(&obj(2.0));
        let d = a.sub(&b);
        assert_eq!(d.count, 1.0);
        assert_eq!(d.sum, 1.0);
        assert_eq!(d.sum_sqr, 1.0);
    }

    #[test]
    fn scale_multiplies_components() {
        let a = Aggregate::of_all(&[obj(1.0), obj(3.0)]).scale(2.0);
        assert_eq!(a.count, 4.0);
        assert_eq!(a.sum, 8.0);
        assert_eq!(a.sum_sqr, 20.0);
    }

    #[test]
    fn derived_values() {
        // measures 1, 2, 3: avg = 2, var = (14/3 - 4) = 2/3
        let a = Aggregate::of_all(&[obj(1.0), obj(2.0), obj(3.0)]);
        assert_eq!(a.value(AggFunc::Count), 3.0);
        assert_eq!(a.value(AggFunc::Sum), 6.0);
        assert_eq!(a.value(AggFunc::SumSqr), 14.0);
        assert_eq!(a.value(AggFunc::Avg), 2.0);
        assert!((a.value(AggFunc::Stdev) - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn derived_values_of_empty_aggregate_are_zero() {
        assert_eq!(Aggregate::ZERO.value(AggFunc::Avg), 0.0);
        assert_eq!(Aggregate::ZERO.value(AggFunc::Stdev), 0.0);
    }

    #[test]
    fn stdev_clamps_negative_variance_from_rounding() {
        // A single object: variance must be exactly 0 even with rounding.
        let a = Aggregate::of(&obj(0.1));
        assert_eq!(a.value(AggFunc::Stdev), 0.0);
    }

    #[test]
    #[should_panic(expected = "derived aggregation function")]
    fn primitive_rejects_avg() {
        Aggregate::ZERO.primitive(AggFunc::Avg);
    }

    #[test]
    fn operator_sugar() {
        let a = Aggregate::of(&obj(1.0));
        let b = Aggregate::of(&obj(2.0));
        let mut c = a;
        c += b;
        assert_eq!(a + b, c);
        let s: Aggregate = [a, b].into_iter().sum();
        assert_eq!(s, c);
    }

    #[test]
    fn all_funcs_listed_once() {
        assert_eq!(AggFunc::ALL.len(), 5);
        assert!(AggFunc::Count.is_primitive());
        assert!(AggFunc::Sum.is_primitive());
        assert!(AggFunc::SumSqr.is_primitive());
        assert!(!AggFunc::Avg.is_primitive());
        assert!(!AggFunc::Stdev.is_primitive());
    }

    #[test]
    fn a_mask_keeps_exactly_what_its_function_reads() {
        let a = Aggregate::of_all(&[obj(1.0), obj(2.0), obj(4.0)]);
        for f in AggFunc::ALL {
            let masked = a.masked(f.moments());
            assert_eq!(masked.value(f).to_bits(), a.value(f).to_bits(), "{f}");
        }
        let count = a.masked(AggFunc::Count.moments());
        assert_eq!((count.count, count.sum, count.sum_sqr), (3.0, 0.0, 0.0));
        assert_eq!(a.masked(Moments::ALL), a);
        assert_eq!(AggFunc::Avg.moments().bits(), 0b011);
        assert!(Moments::ALL.contains(Moments::SUM | Moments::SUM_SQR));
        assert!(!Moments::COUNT.contains(Moments::SUM));
        assert_eq!(
            Moments::from_bits(0b101),
            Some(Moments::COUNT | Moments::SUM_SQR)
        );
        assert_eq!(Moments::from_bits(0b1000), None);
    }

    #[test]
    fn a_ratio_reads_only_a_denominator_that_is_not_negligible() {
        assert!(ratio_reads(1.0) && ratio_reads(-f64::EPSILON));
        assert!(!ratio_reads(0.0) && !ratio_reads(-0.0) && !ratio_reads(f64::EPSILON / 2.0));
        assert!(!ratio_reads(f64::NAN));
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = AggFunc::ALL.iter().map(|f| f.to_string()).collect();
        assert_eq!(names, ["COUNT", "SUM", "SUM_SQR", "AVG", "STDEV"]);
    }
}
