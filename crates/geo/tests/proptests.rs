//! Property-based tests for the geometry kernels.

use hris_geo::{BBox, Point, Polyline, SegmentGeom};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    -50_000.0..50_000.0f64
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn dist_triangle_inequality(a in point(), b in point(), c in point()) {
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-6);
    }

    #[test]
    fn dist_symmetry_and_identity(a in point(), b in point()) {
        prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-9);
        prop_assert_eq!(a.dist(a), 0.0);
    }

    #[test]
    fn segment_projection_is_nearest(a in point(), b in point(), p in point(), t in 0.0..1.0f64) {
        let s = SegmentGeom::new(a, b);
        let d = s.dist_to_point(p);
        // No point on the segment is closer than the projection.
        let q = a.lerp(b, t);
        prop_assert!(d <= p.dist(q) + 1e-6);
    }

    #[test]
    fn segment_projection_within_endpoint_distance(a in point(), b in point(), p in point()) {
        let s = SegmentGeom::new(a, b);
        let d = s.dist_to_point(p);
        prop_assert!(d <= p.dist(a) + 1e-9);
        prop_assert!(d <= p.dist(b) + 1e-9);
    }

    #[test]
    fn bbox_union_contains_both(a in point(), b in point(), c in point(), d in point()) {
        let b1 = BBox::new(a, b);
        let b2 = BBox::new(c, d);
        let u = b1.union(&b2);
        prop_assert!(u.contains(&b1));
        prop_assert!(u.contains(&b2));
    }

    #[test]
    fn bbox_min_dist_lower_bounds_contents(a in point(), b in point(), p in point(), t in 0.0..1.0f64, u in 0.0..1.0f64) {
        let bb = BBox::new(a, b);
        // Any point inside the box is at least min_dist away from p.
        let inside = Point::new(
            bb.min.x + (bb.max.x - bb.min.x) * t,
            bb.min.y + (bb.max.y - bb.min.y) * u,
        );
        prop_assert!(bb.min_dist(p) <= p.dist(inside) + 1e-6);
    }

    #[test]
    fn polyline_point_at_roundtrips_offset(pts in prop::collection::vec(point(), 2..10), f in 0.0..1.0f64) {
        let pl = Polyline::new(pts);
        let len = pl.length();
        prop_assume!(len > 1.0);
        let offset = len * f;
        let p = pl.point_at(offset);
        let proj = pl.project(p);
        // Projecting a point that lies on the line gives ~zero distance.
        prop_assert!(proj.dist < 1e-6);
    }

    #[test]
    fn polyline_projection_beats_vertices(pts in prop::collection::vec(point(), 2..10), p in point()) {
        let pl = Polyline::new(pts.clone());
        let proj = pl.project(p);
        for v in &pts {
            prop_assert!(proj.dist <= p.dist(*v) + 1e-6);
        }
    }

    #[test]
    fn polyline_length_at_least_endpoint_distance(pts in prop::collection::vec(point(), 2..10)) {
        let pl = Polyline::new(pts);
        prop_assert!(pl.length() + 1e-6 >= pl.start().dist(pl.end()));
    }

    #[test]
    fn projection_roundtrip_is_exact(
        origin_lat in -60.0..60.0f64,
        origin_lon in -179.0..179.0f64,
        dlat in -0.3..0.3f64,
        dlon in -0.3..0.3f64,
    ) {
        use hris_geo::{LatLon, LocalProjection};
        let proj = LocalProjection::new(LatLon::new(origin_lat, origin_lon));
        let pos = LatLon::new(origin_lat + dlat, origin_lon + dlon);
        let back = proj.to_latlon(proj.to_local(pos));
        prop_assert!((back.lat - pos.lat).abs() < 1e-9);
        prop_assert!((back.lon - pos.lon).abs() < 1e-9);
    }

    #[test]
    fn haversine_metric_properties(
        lat1 in -80.0..80.0f64, lon1 in -179.0..179.0f64,
        lat2 in -80.0..80.0f64, lon2 in -179.0..179.0f64,
    ) {
        use hris_geo::{haversine_m, LatLon};
        let a = LatLon::new(lat1, lon1);
        let b = LatLon::new(lat2, lon2);
        let d = haversine_m(a, b);
        prop_assert!(d >= 0.0);
        prop_assert!((d - haversine_m(b, a)).abs() < 1e-6);
        // Bounded by half the Earth's circumference.
        prop_assert!(d <= std::f64::consts::PI * hris_geo::EARTH_RADIUS_M + 1.0);
        prop_assert!(haversine_m(a, a) < 1e-9);
    }

    #[test]
    fn resample_preserves_endpoints(pts in prop::collection::vec(point(), 2..8), n in 2usize..20) {
        let pl = Polyline::new(pts);
        let rs = pl.resample(n);
        prop_assert_eq!(rs.len(), n);
        prop_assert!(rs[0].dist(pl.start()) < 1e-9);
        prop_assert!(rs[n - 1].dist(pl.end()) < 1e-9);
    }
}
