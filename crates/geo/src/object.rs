//! Spatial objects: `(location, measure)` pairs (Definition 1).

use crate::Point;

/// The measure attribute of a spatial object.
///
/// Application-specific per the paper: taxi speed, carried passengers, etc.
/// `fedra` keeps it a plain `f64`; SUM/AVG/STDEV aggregate over it while
/// COUNT ignores it.
pub type Measure = f64;

/// A spatial object `o = (l_o, a_o)` — Definition 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialObject {
    /// Location `l_o` in the plane.
    pub location: Point,
    /// Measure attribute `a_o`.
    pub measure: Measure,
}

impl SpatialObject {
    /// Creates a spatial object.
    #[inline]
    pub const fn new(location: Point, measure: Measure) -> Self {
        Self { location, measure }
    }

    /// Creates an object at `(x, y)` with the given measure.
    #[inline]
    pub const fn at(x: f64, y: f64, measure: Measure) -> Self {
        Self {
            location: Point::new(x, y),
            measure,
        }
    }
}

impl From<(Point, Measure)> for SpatialObject {
    fn from((location, measure): (Point, Measure)) -> Self {
        Self { location, measure }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        let a = SpatialObject::new(Point::new(2.0, 2.0), 7.0);
        let b = SpatialObject::at(2.0, 2.0, 7.0);
        let c: SpatialObject = (Point::new(2.0, 2.0), 7.0).into();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.measure, 7.0);
    }
}
