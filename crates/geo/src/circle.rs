//! Circular query ranges.

use crate::{Point, Rect};

/// A circular range: all points within `radius` of `center` (closed disk).
///
/// The paper's running example — "how many shared bikes are there within
/// 2 kilometres of a subway station" — is a circular FRA range; the
/// experiment section sweeps the radius from 1 km to 3 km (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the disk.
    pub center: Point,
    /// Radius (same unit as the coordinates; kilometres in `fedra`).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle. Negative radii are clamped to zero.
    pub fn new(center: Point, radius: f64) -> Self {
        Self {
            center,
            radius: radius.max(0.0),
        }
    }

    /// Whether `p` lies inside or on the circle.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// The tightest axis-aligned rectangle covering the circle.
    #[inline]
    pub fn bounding_rect(&self) -> Rect {
        Rect::from_corners(
            Point::new(self.center.x - self.radius, self.center.y - self.radius),
            Point::new(self.center.x + self.radius, self.center.y + self.radius),
        )
    }

    /// Whether the circle and the closed rectangle share at least one point.
    #[inline]
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        !rect.is_empty() && rect.min_distance_sq(&self.center) <= self.radius * self.radius
    }

    /// Whether the circle fully covers the rectangle.
    ///
    /// True iff the farthest corner of the rectangle is within the radius.
    /// Every circle covers the empty rectangle.
    #[inline]
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        rect.is_empty() || rect.max_distance_sq(&self.center) <= self.radius * self.radius
    }

    /// Area of the disk.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }
}

impl std::fmt::Display for Circle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "circle(center={}, r={})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_point_is_closed() {
        // The paper's Example 1: circle centered at (4, 6) with radius 3.
        let c = Circle::new(Point::new(4.0, 6.0), 3.0);
        assert!(c.contains_point(&Point::new(4.0, 6.0)));
        assert!(c.contains_point(&Point::new(7.0, 6.0))); // on the boundary
        assert!(c.contains_point(&Point::new(5.0, 7.0)));
        assert!(!c.contains_point(&Point::new(7.1, 6.0)));
    }

    #[test]
    fn negative_radius_clamps_to_zero() {
        let c = Circle::new(Point::new(0.0, 0.0), -1.0);
        assert_eq!(c.radius, 0.0);
        assert!(c.contains_point(&Point::new(0.0, 0.0)));
        assert!(!c.contains_point(&Point::new(0.1, 0.0)));
    }

    #[test]
    fn bounding_rect_is_tight() {
        let c = Circle::new(Point::new(1.0, 2.0), 3.0);
        let b = c.bounding_rect();
        assert_eq!(b, Rect::new(Point::new(-2.0, -1.0), Point::new(4.0, 5.0)));
    }

    #[test]
    fn rect_intersection_cases() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        // rectangle containing the center
        assert!(c.intersects_rect(&Rect::new(Point::new(-0.5, -0.5), Point::new(0.5, 0.5))));
        // rectangle overlapping the rim
        assert!(c.intersects_rect(&Rect::new(Point::new(0.9, -0.1), Point::new(2.0, 0.1))));
        // rectangle in the bounding box corner but outside the disk
        assert!(!c.intersects_rect(&Rect::new(Point::new(0.9, 0.9), Point::new(1.0, 1.0))));
        // far away
        assert!(!c.intersects_rect(&Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0))));
        // empty rect
        assert!(!c.intersects_rect(&Rect::EMPTY));
    }

    #[test]
    fn rect_containment_cases() {
        let c = Circle::new(Point::new(0.0, 0.0), 2.0);
        // small rect near the center: covered
        assert!(c.contains_rect(&Rect::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0))));
        // rect with one corner outside
        assert!(!c.contains_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(1.9, 1.9))));
        // empty rect is covered by convention
        assert!(c.contains_rect(&Rect::EMPTY));
    }

    #[test]
    fn area_is_pi_r_squared() {
        let c = Circle::new(Point::new(0.0, 0.0), 2.0);
        assert!((c.area() - 4.0 * std::f64::consts::PI).abs() < 1e-12);
    }
}
