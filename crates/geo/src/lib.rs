//! Planar and geodetic geometry kernels used throughout the HRIS workspace.
//!
//! All online computation happens in a **local planar frame** measured in
//! metres: road networks, trajectories and queries all carry [`Point`]
//! coordinates. Real-world GPS input expressed in latitude/longitude can be
//! brought into (and out of) this frame with a [`geodesy::LocalProjection`].
//!
//! The crate is intentionally dependency-light and allocation-averse: the hot
//! kernels (`point ↔ segment` projection, polyline offsets) are called once
//! per GPS point per candidate edge in the map-matching and inference layers.

#![warn(missing_docs)]

pub mod bbox;
pub mod frechet;
pub mod geodesy;
pub mod point;
pub mod polyline;
pub mod segment;

pub use bbox::BBox;
pub use frechet::mean_deviation;
pub use geodesy::{haversine_m, LatLon, LocalProjection, EARTH_RADIUS_M};
pub use point::Point;
pub use polyline::{Polyline, PolylineProjection};
pub use segment::SegmentGeom;

/// Square-kilometre area of a bounding box given in metres.
///
/// Convenience for the reference-point density `ρ = |P| / area(MBB(P))`
/// used by the hybrid local-inference switch (Section III-B.3 of the paper).
#[must_use]
pub fn area_km2(bbox: &BBox) -> f64 {
    bbox.area_m2() / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_km2_converts_square_metres() {
        let b = BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 500.0));
        assert!((area_km2(&b) - 1.0).abs() < 1e-12);
    }
}
