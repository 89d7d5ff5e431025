//! Equirectangular projection between geographic and planar coordinates.
//!
//! The paper's dataset covers Beijing (39.5–42.0° N, 115.5–117.2° E) with
//! query radii of 1–3 km. Over such a city-scale extent an equirectangular
//! projection anchored at the region center is accurate to well under 1 %,
//! which is far below the approximation errors the algorithms themselves
//! introduce, so it is the right tool: cheap, invertible, and unit-true
//! (outputs kilometres).

use crate::Point;

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A geographic coordinate in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a geographic coordinate.
    pub const fn new(lat: f64, lon: f64) -> Self {
        Self { lat, lon }
    }

    /// Great-circle (haversine) distance to `other`, in kilometres.
    pub fn haversine_distance(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

/// An equirectangular projection anchored at a reference point.
///
/// Forward: `x = R·Δlon·cos(lat₀)`, `y = R·Δlat` (radians), yielding planar
/// kilometres; the inverse recovers degrees exactly (the projection is
/// affine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    origin: GeoPoint,
    cos_lat0: f64,
}

impl Projection {
    /// Creates a projection anchored at `origin` (typically the centroid of
    /// the region of interest).
    pub fn new(origin: GeoPoint) -> Self {
        Self {
            origin,
            cos_lat0: origin.lat.to_radians().cos(),
        }
    }

    /// The projection anchored at the center of the paper's Beijing
    /// bounding box (39.5–42.0° N, 115.5–117.2° E).
    pub fn beijing() -> Self {
        Self::new(GeoPoint::new(40.75, 116.35))
    }

    /// Reference point of the projection.
    pub fn origin(&self) -> GeoPoint {
        self.origin
    }

    /// Projects a geographic coordinate onto the plane (kilometres).
    pub fn project(&self, g: &GeoPoint) -> Point {
        let dlat = (g.lat - self.origin.lat).to_radians();
        let dlon = (g.lon - self.origin.lon).to_radians();
        Point::new(
            EARTH_RADIUS_KM * dlon * self.cos_lat0,
            EARTH_RADIUS_KM * dlat,
        )
    }

    /// Maps a planar point (kilometres) back to geographic degrees.
    pub fn unproject(&self, p: &Point) -> GeoPoint {
        let dlat = (p.y / EARTH_RADIUS_KM).to_degrees();
        let dlon = (p.x / (EARTH_RADIUS_KM * self.cos_lat0)).to_degrees();
        GeoPoint::new(self.origin.lat + dlat, self.origin.lon + dlon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_round_trips() {
        let proj = Projection::beijing();
        let g = GeoPoint::new(39.9042, 116.4074); // central Beijing
        let p = proj.project(&g);
        let back = proj.unproject(&p);
        assert!((back.lat - g.lat).abs() < 1e-12);
        assert!((back.lon - g.lon).abs() < 1e-12);
    }

    #[test]
    fn origin_projects_to_zero() {
        let proj = Projection::beijing();
        let p = proj.project(&proj.origin());
        assert_eq!(p, Point::new(0.0, 0.0));
    }

    #[test]
    fn projected_distance_matches_haversine_at_city_scale() {
        let proj = Projection::beijing();
        // Two points ~5 km apart near the projection origin.
        let a = GeoPoint::new(40.73, 116.33);
        let b = GeoPoint::new(40.77, 116.37);
        let planar = proj.project(&a).distance(&proj.project(&b));
        let sphere = a.haversine_distance(&b);
        let rel_err = (planar - sphere).abs() / sphere;
        assert!(rel_err < 0.005, "relative error {rel_err} too large");
    }

    #[test]
    fn haversine_known_value() {
        // One degree of latitude is ~111.2 km.
        let a = GeoPoint::new(40.0, 116.0);
        let b = GeoPoint::new(41.0, 116.0);
        let d = a.haversine_distance(&b);
        assert!((d - 111.19).abs() < 0.1, "got {d}");
    }

    #[test]
    fn haversine_is_symmetric_and_zero_on_self() {
        let a = GeoPoint::new(40.0, 116.0);
        let b = GeoPoint::new(39.5, 117.0);
        assert!((a.haversine_distance(&b) - b.haversine_distance(&a)).abs() < 1e-12);
        assert_eq!(a.haversine_distance(&a), 0.0);
    }
}
