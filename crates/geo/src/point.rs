//! Points in the two-dimensional Euclidean plane.

/// A location in the plane.
///
/// Coordinates are interpreted as kilometres throughout `fedra` (the
/// workload generator projects lat/lon onto a local tangent plane before
/// constructing objects), but nothing in this crate depends on the unit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (east, km).
    pub x: f64,
    /// Vertical coordinate (north, km).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Preferred in hot paths (containment tests) because it avoids the
    /// square root; compare against a squared radius instead.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(&self, other: &Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(&self, other: &Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::new(-3.5, 7.25);
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.distance_sq(&a), 0.0);
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(a.distance(&b).powi(2), a.distance_sq(&b));
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point::new(1.0, 9.0);
        let b = Point::new(5.0, 2.0);
        assert_eq!(a.min(&b), Point::new(1.0, 2.0));
        assert_eq!(a.max(&b), Point::new(5.0, 9.0));
    }

    #[test]
    fn from_tuple_round_trips() {
        let p: Point = (2.5, -1.0).into();
        assert_eq!(p, Point::new(2.5, -1.0));
    }

    #[test]
    fn finiteness_detects_nan_and_inf() {
        assert!(Point::new(0.0, 0.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn display_formats_coordinates() {
        assert_eq!(Point::new(4.0, 6.0).to_string(), "(4, 6)");
    }
}
