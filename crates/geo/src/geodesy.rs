//! Geodetic helpers: haversine distance and a local tangent-plane projection.
//!
//! The rest of the workspace computes in planar metres. Real GPS feeds
//! (latitude/longitude) are converted once at the boundary using an
//! equirectangular projection around a reference latitude — accurate to well
//! under GPS noise (≈10 m) for city-scale extents (≲100 km).

use crate::point::Point;

/// Mean Earth radius in metres (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 latitude/longitude pair in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLon {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl LatLon {
    /// Creates a latitude/longitude pair (degrees).
    #[must_use]
    pub const fn new(lat: f64, lon: f64) -> Self {
        LatLon { lat, lon }
    }
}

/// Great-circle distance between two lat/lon positions in metres (haversine).
#[must_use]
pub fn haversine_m(a: LatLon, b: LatLon) -> f64 {
    let (lat1, lon1) = (a.lat.to_radians(), a.lon.to_radians());
    let (lat2, lon2) = (b.lat.to_radians(), b.lon.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * h.sqrt().asin()
}

/// Equirectangular projection centred on an origin position.
///
/// `to_local` maps lat/lon to planar metres relative to the origin, with x
/// pointing east and y pointing north; `to_latlon` inverts it.
#[derive(Debug, Clone, Copy)]
pub struct LocalProjection {
    origin: LatLon,
    /// Metres per degree of longitude at the origin latitude.
    m_per_deg_lon: f64,
    /// Metres per degree of latitude.
    m_per_deg_lat: f64,
}

impl LocalProjection {
    /// Builds a projection centred at `origin`.
    #[must_use]
    pub fn new(origin: LatLon) -> Self {
        let m_per_deg_lat = EARTH_RADIUS_M * std::f64::consts::PI / 180.0;
        let m_per_deg_lon = m_per_deg_lat * origin.lat.to_radians().cos();
        LocalProjection {
            origin,
            m_per_deg_lon,
            m_per_deg_lat,
        }
    }

    /// The projection origin.
    #[must_use]
    pub fn origin(&self) -> LatLon {
        self.origin
    }

    /// Projects `pos` into the local planar frame (metres).
    #[must_use]
    pub fn to_local(&self, pos: LatLon) -> Point {
        Point::new(
            (pos.lon - self.origin.lon) * self.m_per_deg_lon,
            (pos.lat - self.origin.lat) * self.m_per_deg_lat,
        )
    }

    /// Inverse projection back to lat/lon degrees.
    #[must_use]
    pub fn to_latlon(&self, p: Point) -> LatLon {
        LatLon {
            lat: self.origin.lat + p.y / self.m_per_deg_lat,
            lon: self.origin.lon + p.x / self.m_per_deg_lon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEIJING: LatLon = LatLon::new(39.9042, 116.4074);

    #[test]
    fn haversine_known_distance() {
        // Beijing → Shanghai ≈ 1068 km.
        let shanghai = LatLon::new(31.2304, 121.4737);
        let d = haversine_m(BEIJING, shanghai);
        assert!((d - 1_068_000.0).abs() < 10_000.0, "got {d}");
    }

    #[test]
    fn haversine_zero_and_symmetry() {
        assert_eq!(haversine_m(BEIJING, BEIJING), 0.0);
        let other = LatLon::new(40.0, 116.5);
        assert!((haversine_m(BEIJING, other) - haversine_m(other, BEIJING)).abs() < 1e-9);
    }

    #[test]
    fn projection_roundtrip() {
        let proj = LocalProjection::new(BEIJING);
        let pos = LatLon::new(39.95, 116.50);
        let p = proj.to_local(pos);
        let back = proj.to_latlon(p);
        assert!((back.lat - pos.lat).abs() < 1e-12);
        assert!((back.lon - pos.lon).abs() < 1e-12);
    }

    #[test]
    fn projection_matches_haversine_at_city_scale() {
        let proj = LocalProjection::new(BEIJING);
        let pos = LatLon::new(39.98, 116.32); // ~11 km away
        let planar = proj.to_local(pos).norm();
        let true_d = haversine_m(BEIJING, pos);
        let rel_err = (planar - true_d).abs() / true_d;
        assert!(rel_err < 2e-3, "relative error {rel_err}");
    }

    #[test]
    fn origin_maps_to_zero() {
        let proj = LocalProjection::new(BEIJING);
        let p = proj.to_local(BEIJING);
        assert!(p.norm() < 1e-9);
    }
}
