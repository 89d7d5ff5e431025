//! The FRA query range: a circle or a rectangle with a uniform API.

use crate::{Circle, Point, Rect};

/// Spatial relation between a query range and a rectangle (grid cell or
/// R-tree node MBR).
///
/// Index traversals use this three-way answer for pruning:
/// * [`RectRelation::Disjoint`] — skip the subtree / cell entirely;
/// * [`RectRelation::Contained`] — take the pre-aggregated value without
///   visiting children (the aggregate R-tree fast path, and the
///   "grids covered in R" fast path of the Sec. 4.2.2 remark);
/// * [`RectRelation::Intersecting`] — descend / inspect objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RectRelation {
    /// The range and the rectangle share no point.
    Disjoint,
    /// The range fully covers the rectangle.
    Contained,
    /// The range and the rectangle overlap partially.
    Intersecting,
}

/// An FRA query range, `R` in Definition 2: "R can be either circular or
/// rectangular".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Range {
    /// A circular range.
    Circle(Circle),
    /// A rectangular range.
    Rect(Rect),
}

impl Range {
    /// Convenience constructor for a circular range.
    pub fn circle(center: Point, radius: f64) -> Self {
        Range::Circle(Circle::new(center, radius))
    }

    /// Convenience constructor for a rectangular range.
    pub fn rect(a: Point, b: Point) -> Self {
        Range::Rect(Rect::new(a, b))
    }

    /// Whether the range contains the point (closed).
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        match self {
            Range::Circle(c) => c.contains_point(p),
            Range::Rect(r) => r.contains_point(p),
        }
    }

    /// The tightest axis-aligned bounding rectangle of the range.
    #[inline]
    pub fn bounding_rect(&self) -> Rect {
        match self {
            Range::Circle(c) => c.bounding_rect(),
            Range::Rect(r) => *r,
        }
    }

    /// Whether the range and the rectangle share at least one point.
    #[inline]
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        match self {
            Range::Circle(c) => c.intersects_rect(rect),
            Range::Rect(r) => r.intersects(rect),
        }
    }

    /// Whether the range fully covers the rectangle.
    #[inline]
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        match self {
            Range::Circle(c) => c.contains_rect(rect),
            Range::Rect(r) => r.contains_rect(rect),
        }
    }

    /// Three-way relation used for index pruning.
    #[inline]
    pub fn relation(&self, rect: &Rect) -> RectRelation {
        if !self.intersects_rect(rect) {
            RectRelation::Disjoint
        } else if self.contains_rect(rect) {
            RectRelation::Contained
        } else {
            RectRelation::Intersecting
        }
    }

    /// Area of the range.
    #[inline]
    pub fn area(&self) -> f64 {
        match self {
            Range::Circle(c) => c.area(),
            Range::Rect(r) => r.area(),
        }
    }
}

impl From<Circle> for Range {
    fn from(c: Circle) -> Self {
        Range::Circle(c)
    }
}

impl From<Rect> for Range {
    fn from(r: Rect) -> Self {
        Range::Rect(r)
    }
}

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Range::Circle(c) => c.fmt(f),
            Range::Rect(r) => r.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_range_delegates() {
        let q = Range::circle(Point::new(4.0, 6.0), 3.0);
        assert!(q.contains_point(&Point::new(4.0, 6.0)));
        assert!(!q.contains_point(&Point::new(9.0, 9.0)));
        assert_eq!(
            q.bounding_rect(),
            Rect::new(Point::new(1.0, 3.0), Point::new(7.0, 9.0))
        );
    }

    #[test]
    fn rect_range_delegates() {
        let q = Range::rect(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert!(q.contains_point(&Point::new(2.0, 2.0)));
        assert!(!q.contains_point(&Point::new(2.1, 2.0)));
        assert_eq!(
            q.bounding_rect(),
            Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0))
        );
        assert_eq!(q.area(), 4.0);
    }

    #[test]
    fn relation_three_way_for_circle() {
        let q = Range::circle(Point::new(0.0, 0.0), 2.0);
        let inside = Rect::new(Point::new(-0.5, -0.5), Point::new(0.5, 0.5));
        let partial = Rect::new(Point::new(1.0, -0.5), Point::new(3.0, 0.5));
        let outside = Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert_eq!(q.relation(&inside), RectRelation::Contained);
        assert_eq!(q.relation(&partial), RectRelation::Intersecting);
        assert_eq!(q.relation(&outside), RectRelation::Disjoint);
    }

    #[test]
    fn relation_three_way_for_rect() {
        let q = Range::rect(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        let inside = Rect::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0));
        let partial = Rect::new(Point::new(3.0, 3.0), Point::new(5.0, 5.0));
        let outside = Rect::new(Point::new(9.0, 9.0), Point::new(10.0, 10.0));
        assert_eq!(q.relation(&inside), RectRelation::Contained);
        assert_eq!(q.relation(&partial), RectRelation::Intersecting);
        assert_eq!(q.relation(&outside), RectRelation::Disjoint);
    }

    #[test]
    fn conversions_from_shapes() {
        let c: Range = Circle::new(Point::new(0.0, 0.0), 1.0).into();
        let r: Range = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).into();
        assert!(matches!(c, Range::Circle(_)));
        assert!(matches!(r, Range::Rect(_)));
    }
}
