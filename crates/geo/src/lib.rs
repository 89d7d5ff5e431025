//! Planar geometry substrate for the `fedra` spatial data federation.
//!
//! The paper defines spatial objects in the two-dimensional Euclidean plane
//! and queries over circular or rectangular ranges. This crate provides the
//! minimal, well-tested geometric vocabulary used by every other crate:
//!
//! * [`Point`] — a location in the plane (kilometres after projection);
//! * [`Rect`] — an axis-aligned rectangle (used for query ranges, grid
//!   cells and R-tree bounding boxes);
//! * [`Circle`] — a circular query range;
//! * [`Range`] — either of the two query-range shapes with a uniform API;
//! * [`SpatialObject`] — `(location, measure)` pairs as in Definition 1;
//! * [`GeoPoint`] / [`Projection`] — lat/lon support via an equirectangular
//!   projection so real-world datasets (the paper uses Beijing GPS records)
//!   can be mapped onto the plane with kilometre units.
//!
//! All geometry is `f64`; the crate is `#![forbid(unsafe_code)]` and has no
//! dependencies. The wire and persistence formats are the federation
//! crate's `Wire` codec.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod area;
mod circle;
mod object;
mod point;
mod projection;
mod range;
mod rect;

pub use area::{circle_rect_intersection_area, intersection_area};
pub use circle::Circle;
pub use object::{Measure, SpatialObject};
pub use point::Point;
pub use projection::{GeoPoint, Projection};
pub use range::{Range, RectRelation};
pub use rect::Rect;

/// Numeric tolerance used by approximate geometric comparisons in tests.
pub const EPSILON: f64 = 1e-9;
