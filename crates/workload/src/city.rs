//! The synthetic city model standing in for the paper's Beijing dataset.
//!
//! The paper evaluates on >1 TB of proprietary shared-mobility records
//! from three Beijing companies (ratio 1:1:2, bounding box 39.5–42.0° N ×
//! 115.5–117.2° E, measure = carried passengers). That data is not
//! publicly available, so this module generates the closest synthetic
//! equivalent: a Gaussian-mixture city — a handful of hotspot clusters of
//! varying spread plus a uniform urban background — over the *same*
//! bounding box projected to kilometres. Company skew (each company's
//! "strategical focus", Sec. 4.2.2) is modeled by company-specific mixture
//! weights. The estimators only care about spatial skew, cross-silo
//! divergence, and volume, all of which are reproduced and parameterized.

use rand::Rng;

use fedra_geo::{GeoPoint, Point, Projection, Rect, SpatialObject};

/// The paper's Beijing bounding box, projected to planar kilometres.
pub fn beijing_bounds() -> Rect {
    let proj = Projection::beijing();
    Rect::new(
        proj.project(&GeoPoint::new(39.5, 115.5)),
        proj.project(&GeoPoint::new(42.0, 117.2)),
    )
}

/// One Gaussian hotspot of the city mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Cluster center (km).
    pub center: Point,
    /// Isotropic standard deviation (km).
    pub sigma: f64,
    /// Base mixture weight (before company skew).
    pub weight: f64,
}

/// How measure attributes are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeasureModel {
    /// Carried passengers: uniform integer 0..=4 (the paper's measure).
    #[default]
    Passengers,
    /// Vehicle speed in km/h: Normal(40, 12) clamped to ≥ 0 (the paper's
    /// motivating alternative measure).
    Speed,
}

/// The Gaussian-mixture city model.
#[derive(Debug, Clone)]
pub struct CityModel {
    bounds: Rect,
    hotspots: Vec<Hotspot>,
    /// Probability mass of the uniform urban background.
    background_weight: f64,
    /// The background is confined to the urban core, not the whole
    /// administrative bounding box (Beijing's box is mostly mountains).
    urban_core: Rect,
    measure: MeasureModel,
}

impl CityModel {
    /// The default Beijing-like model: six hotspots of varied density
    /// plus a 20 % uniform urban background.
    pub fn beijing() -> Self {
        let bounds = beijing_bounds();
        let hotspots = vec![
            // A dense CBD, two business districts, two residential belts,
            // one suburban hub — spreads chosen to span 1.5–9 km so the
            // 1–3 km query radii of Fig. 3 see varied local densities.
            Hotspot {
                center: Point::new(0.0, -95.0),
                sigma: 3.0,
                weight: 0.25,
            },
            Hotspot {
                center: Point::new(8.0, -88.0),
                sigma: 1.5,
                weight: 0.15,
            },
            Hotspot {
                center: Point::new(-12.0, -100.0),
                sigma: 4.0,
                weight: 0.15,
            },
            Hotspot {
                center: Point::new(20.0, -110.0),
                sigma: 6.0,
                weight: 0.10,
            },
            Hotspot {
                center: Point::new(-25.0, -80.0),
                sigma: 7.0,
                weight: 0.10,
            },
            Hotspot {
                center: Point::new(35.0, -60.0),
                sigma: 9.0,
                weight: 0.05,
            },
        ];
        let urban_core = Rect::new(Point::new(-45.0, -125.0), Point::new(55.0, -45.0));
        Self {
            bounds,
            hotspots,
            background_weight: 0.20,
            urban_core,
            measure: MeasureModel::Passengers,
        }
    }

    /// Overrides the measure model.
    pub fn with_measure(mut self, measure: MeasureModel) -> Self {
        self.measure = measure;
        self
    }

    /// The model's bounding box (the federation's shared grid bounds).
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The hotspot list.
    pub fn hotspots(&self) -> &[Hotspot] {
        &self.hotspots
    }

    /// Company-specific mixture weights: company `c` of `num_companies`
    /// over-weights a contiguous run of hotspots (its "strategical
    /// focus") by `skew ≥ 1`, modelling the Non-IID case. `skew = 1`
    /// yields identical distributions (the IID case).
    pub fn company_weights(&self, company: usize, num_companies: usize, skew: f64) -> Vec<f64> {
        assert!(skew >= 1.0, "skew must be ≥ 1 (1 = IID)");
        assert!(num_companies > 0);
        let h = self.hotspots.len();
        let per = h.div_ceil(num_companies);
        let focus_start = (company % num_companies) * per;
        self.hotspots
            .iter()
            .enumerate()
            .map(|(i, spot)| {
                if i >= focus_start && i < focus_start + per {
                    spot.weight * skew
                } else {
                    spot.weight
                }
            })
            .collect()
    }

    /// Draws one spatial object using the given hotspot weights.
    pub fn sample<R: Rng + ?Sized>(&self, weights: &[f64], rng: &mut R) -> SpatialObject {
        debug_assert_eq!(weights.len(), self.hotspots.len());
        let location = loop {
            let p = self.sample_location(weights, rng);
            if self.bounds.contains_point(&p) {
                break p;
            }
        };
        SpatialObject::new(location, self.sample_measure(rng))
    }

    fn sample_location<R: Rng + ?Sized>(&self, weights: &[f64], rng: &mut R) -> Point {
        let hotspot_mass: f64 = weights.iter().sum();
        let total = hotspot_mass / (1.0 - self.background_weight) * 1.0;
        let background_mass = total * self.background_weight;
        let mut pick = rng.random_range(0.0..hotspot_mass + background_mass);
        if pick < background_mass {
            return Point::new(
                rng.random_range(self.urban_core.min.x..self.urban_core.max.x),
                rng.random_range(self.urban_core.min.y..self.urban_core.max.y),
            );
        }
        pick -= background_mass;
        for (spot, w) in self.hotspots.iter().zip(weights) {
            if pick < *w {
                return Point::new(
                    normal(rng, spot.center.x, spot.sigma),
                    normal(rng, spot.center.y, spot.sigma),
                );
            }
            pick -= w;
        }
        // Floating-point tail: fall back to the last hotspot.
        let spot = self.hotspots.last().expect("at least one hotspot");
        Point::new(
            normal(rng, spot.center.x, spot.sigma),
            normal(rng, spot.center.y, spot.sigma),
        )
    }

    fn sample_measure<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.measure {
            MeasureModel::Passengers => rng.random_range(0..=4) as f64,
            MeasureModel::Speed => normal(rng, 40.0, 12.0).max(0.0),
        }
    }
}

/// One draw from `N(mean, sigma²)` by Box–Muller: two uniforms per draw,
/// the second output discarded so a draw carries no state. `1 - u` lies
/// in (0, 1], and the floor keeps the logarithm finite.
fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    let u1 = (1.0 - rng.random::<f64>()).max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + sigma * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sample_moments_are_close() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 40.0, 12.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 40.0).abs() < 0.5, "mean {mean}");
        assert!((var.sqrt() - 12.0).abs() < 0.5, "std {}", var.sqrt());
    }

    #[test]
    fn beijing_bounds_match_the_paper_box() {
        let b = beijing_bounds();
        // ~2.5° of latitude ≈ 278 km; ~1.7° of longitude at 40.75° N ≈ 143 km.
        assert!((b.height() - 278.0).abs() < 3.0, "height {}", b.height());
        assert!((b.width() - 143.0).abs() < 3.0, "width {}", b.width());
    }

    #[test]
    fn samples_stay_in_bounds() {
        let model = CityModel::beijing();
        let weights = model.company_weights(0, 3, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            let o = model.sample(&weights, &mut rng);
            assert!(model.bounds().contains_point(&o.location));
        }
    }

    #[test]
    fn passengers_measure_is_discrete_0_to_4() {
        let model = CityModel::beijing();
        let weights = model.company_weights(0, 3, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..2000 {
            let m = model.sample(&weights, &mut rng).measure;
            assert_eq!(m, m.floor());
            assert!((0.0..=4.0).contains(&m));
            seen[m as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all passenger counts appear");
    }

    #[test]
    fn speed_measure_is_continuous_nonnegative() {
        let model = CityModel::beijing().with_measure(MeasureModel::Speed);
        let weights = model.company_weights(0, 3, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let speeds: Vec<f64> = (0..2000)
            .map(|_| model.sample(&weights, &mut rng).measure)
            .collect();
        assert!(speeds.iter().all(|s| *s >= 0.0));
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        assert!((mean - 40.0).abs() < 2.0, "mean speed {mean}");
    }

    #[test]
    fn company_weights_skew_their_focus() {
        let model = CityModel::beijing();
        let base = model.company_weights(0, 3, 1.0);
        let skewed = model.company_weights(0, 3, 4.0);
        // The focus hotspots quadruple; the rest stay put.
        assert_eq!(base.len(), skewed.len());
        let boosted = skewed
            .iter()
            .zip(&base)
            .filter(|(s, b)| (**s - **b * 4.0).abs() < 1e-12)
            .count();
        assert_eq!(boosted, 2); // 6 hotspots / 3 companies
                                // Different companies focus different hotspots.
        let c0 = model.company_weights(0, 3, 4.0);
        let c1 = model.company_weights(1, 3, 4.0);
        assert_ne!(c0, c1);
    }

    #[test]
    fn skew_one_is_iid() {
        let model = CityModel::beijing();
        let c0 = model.company_weights(0, 3, 1.0);
        let c1 = model.company_weights(1, 3, 1.0);
        assert_eq!(c0, c1);
    }

    #[test]
    #[should_panic(expected = "skew")]
    fn skew_below_one_is_rejected() {
        CityModel::beijing().company_weights(0, 3, 0.5);
    }

    #[test]
    fn hotspots_concentrate_density() {
        // The CBD disk (r = 6 km around the first hotspot) must be far
        // denser than an equal-area disk in the background.
        let model = CityModel::beijing();
        let weights = model.company_weights(0, 3, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<SpatialObject> = (0..20_000)
            .map(|_| model.sample(&weights, &mut rng))
            .collect();
        let cbd = fedra_geo::Circle::new(Point::new(0.0, -95.0), 6.0);
        let sticks = fedra_geo::Circle::new(Point::new(-40.0, -50.0), 6.0);
        let in_cbd = samples
            .iter()
            .filter(|o| cbd.contains_point(&o.location))
            .count();
        let in_sticks = samples
            .iter()
            .filter(|o| sticks.contains_point(&o.location))
            .count();
        assert!(
            in_cbd > 10 * in_sticks.max(1),
            "cbd {in_cbd} vs background {in_sticks}"
        );
    }
}
