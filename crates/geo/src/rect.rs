//! Axis-aligned rectangles.

use crate::Point;

/// An axis-aligned rectangle, closed on all sides.
///
/// Rectangles serve three roles in `fedra`:
///
/// * rectangular FRA query ranges (Definition 2 allows rectangles),
/// * grid-index cells,
/// * R-tree minimum bounding rectangles (MBRs).
///
/// An "empty" rectangle (used as the identity for [`Rect::union`]) has
/// `min > max`; [`Rect::is_empty`] reports it and every predicate treats it
/// as containing nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corners, normalizing their order.
    pub fn new(a: Point, b: Point) -> Self {
        Self {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// Creates a rectangle from raw corner coordinates without reordering.
    ///
    /// Callers must guarantee `min <= max` component-wise, or intend an
    /// empty rectangle.
    #[inline]
    pub const fn from_corners(min: Point, max: Point) -> Self {
        Self { min, max }
    }

    /// The empty rectangle: identity element for [`Rect::union`].
    pub const EMPTY: Rect = Rect {
        min: Point::new(f64::INFINITY, f64::INFINITY),
        max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// A degenerate rectangle covering exactly one point.
    #[inline]
    pub const fn from_point(p: Point) -> Self {
        Self { min: p, max: p }
    }

    /// Whether this rectangle contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width along the x axis (zero for empty rectangles).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height along the y axis (zero for empty rectangles).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area (zero for empty rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point. Meaningless for empty rectangles.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Whether `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether `other` lies entirely inside `self` (closed containment).
    ///
    /// Every rectangle contains the empty rectangle.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (self.min.x <= other.min.x
                && self.min.y <= other.min.y
                && self.max.x >= other.max.x
                && self.max.y >= other.max.y)
    }

    /// Whether the two closed rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Smallest rectangle covering both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Intersection of the two rectangles ([`Rect::EMPTY`]-like when disjoint).
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.max(&other.min),
            max: self.max.min(&other.max),
        }
    }

    /// Squared distance from `p` to the closest point of the rectangle
    /// (zero when `p` is inside).
    ///
    /// This is the standard MINDIST used for circle/rectangle intersection
    /// tests and R-tree pruning.
    #[inline]
    pub fn min_distance_sq(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Squared distance from `p` to the farthest corner of the rectangle.
    ///
    /// Used to decide whether a circle fully covers a rectangle.
    #[inline]
    pub fn max_distance_sq(&self, p: &Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        dx * dx + dy * dy
    }

    /// Grows the rectangle by `margin` on every side.
    #[inline]
    pub fn inflate(&self, margin: f64) -> Rect {
        Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn new_normalizes_corner_order() {
        let a = Rect::new(Point::new(5.0, 1.0), Point::new(2.0, 4.0));
        assert_eq!(a.min, Point::new(2.0, 1.0));
        assert_eq!(a.max, Point::new(5.0, 4.0));
    }

    #[test]
    fn empty_rect_behaves_as_identity() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(Rect::EMPTY.is_empty());
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert_eq!(a.union(&Rect::EMPTY), a);
        assert_eq!(Rect::EMPTY.area(), 0.0);
        assert!(!Rect::EMPTY.intersects(&a));
        assert!(!Rect::EMPTY.contains_point(&Point::new(0.0, 0.0)));
    }

    #[test]
    fn contains_point_is_closed() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(a.contains_point(&Point::new(0.0, 0.0)));
        assert!(a.contains_point(&Point::new(2.0, 2.0)));
        assert!(a.contains_point(&Point::new(1.0, 1.0)));
        assert!(!a.contains_point(&Point::new(2.0001, 1.0)));
    }

    #[test]
    fn rect_containment_and_intersection() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 3.0, 3.0);
        let overlapping = r(9.0, 9.0, 12.0, 12.0);
        let disjoint = r(20.0, 20.0, 21.0, 21.0);

        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.intersects(&inner));
        assert!(outer.intersects(&overlapping));
        assert!(!outer.contains_rect(&overlapping));
        assert!(!outer.intersects(&disjoint));
        assert!(outer.contains_rect(&Rect::EMPTY));
    }

    #[test]
    fn touching_edges_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(3.0, -1.0, 4.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, -1.0, 4.0, 1.0));
    }

    #[test]
    fn intersection_of_disjoint_is_empty() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(a.intersection(&b).is_empty());
        let c = r(0.5, 0.5, 2.5, 2.5);
        assert_eq!(a.intersection(&c), r(0.5, 0.5, 1.0, 1.0));
    }

    #[test]
    fn min_distance_sq_zero_inside() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_distance_sq(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.min_distance_sq(&Point::new(3.0, 1.0)), 1.0);
        assert_eq!(a.min_distance_sq(&Point::new(3.0, 3.0)), 2.0);
    }

    #[test]
    fn max_distance_sq_reaches_far_corner() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        // farthest corner from (0,0) is (2,2)
        assert_eq!(a.max_distance_sq(&Point::new(0.0, 0.0)), 8.0);
        // from center, all corners equidistant
        assert_eq!(a.max_distance_sq(&Point::new(1.0, 1.0)), 2.0);
    }

    #[test]
    fn geometry_accessors() {
        let a = r(1.0, 2.0, 4.0, 6.0);
        assert_eq!(a.width(), 3.0);
        assert_eq!(a.height(), 4.0);
        assert_eq!(a.area(), 12.0);
        assert_eq!(a.center(), Point::new(2.5, 4.0));
    }

    #[test]
    fn inflate_grows_every_side() {
        let a = r(0.0, 0.0, 1.0, 1.0).inflate(0.5);
        assert_eq!(a, r(-0.5, -0.5, 1.5, 1.5));
    }
}
