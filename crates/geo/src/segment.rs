//! Line-segment geometry: projection, distance and interpolation kernels.

use crate::bbox::BBox;
use crate::point::Point;

/// The geometry of a straight segment between two points.
///
/// This is the inner-loop primitive of map matching: `dist(p, r)` from
/// Definition 5 of the paper reduces to point–segment distances over the
/// polyline pieces of a road segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentGeom {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl SegmentGeom {
    /// Creates a segment from `a` to `b`.
    #[inline]
    #[must_use]
    pub const fn new(a: Point, b: Point) -> Self {
        SegmentGeom { a, b }
    }

    /// Segment length in metres.
    #[inline]
    #[must_use]
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Axis-aligned bounding box.
    #[inline]
    #[must_use]
    pub fn bbox(&self) -> BBox {
        BBox::new(self.a, self.b)
    }

    /// Clamped projection parameter `t ∈ [0, 1]` of `p` onto the segment.
    ///
    /// `t = 0` maps to `a`, `t = 1` to `b`. Degenerate (zero-length)
    /// segments return `t = 0`.
    #[must_use]
    pub fn project_t(&self, p: Point) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq <= f64::EPSILON {
            return 0.0;
        }
        ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// Closest point on the segment to `p`.
    #[inline]
    #[must_use]
    pub fn closest_point(&self, p: Point) -> Point {
        self.a.lerp(self.b, self.project_t(p))
    }

    /// Distance from `p` to the segment in metres.
    #[inline]
    #[must_use]
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).dist(p)
    }

    /// Point at arc-length `offset` metres from `a`, clamped to the segment.
    #[must_use]
    pub fn point_at(&self, offset: f64) -> Point {
        let len = self.length();
        if len <= f64::EPSILON {
            return self.a;
        }
        self.a.lerp(self.b, (offset / len).clamp(0.0, 1.0))
    }

    /// Unit direction from `a` to `b`, or `None` for degenerate segments.
    #[inline]
    #[must_use]
    pub fn direction(&self) -> Option<Point> {
        (self.b - self.a).normalized()
    }

    /// Heading in radians of the direction `a → b` (0 for degenerate segments).
    #[must_use]
    pub fn heading(&self) -> f64 {
        (self.b - self.a).heading()
    }

    /// Reversed segment (`b → a`).
    #[inline]
    #[must_use]
    pub fn reversed(&self) -> SegmentGeom {
        SegmentGeom::new(self.b, self.a)
    }

    /// `true` if the two closed segments intersect.
    ///
    /// Robust orientation-based test; collinear overlaps count as
    /// intersections. Used by the spliced-reference spatial join and
    /// by network-generator sanity checks.
    #[must_use]
    pub fn intersects(&self, other: &SegmentGeom) -> bool {
        fn orient(a: Point, b: Point, c: Point) -> f64 {
            (b - a).cross(c - a)
        }
        fn on_segment(a: Point, b: Point, c: Point) -> bool {
            c.x >= a.x.min(b.x) && c.x <= a.x.max(b.x) && c.y >= a.y.min(b.y) && c.y <= a.y.max(b.y)
        }
        let (p1, p2, p3, p4) = (self.a, self.b, other.a, other.b);
        let d1 = orient(p3, p4, p1);
        let d2 = orient(p3, p4, p2);
        let d3 = orient(p1, p2, p3);
        let d4 = orient(p1, p2, p4);
        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1 == 0.0 && on_segment(p3, p4, p1))
            || (d2 == 0.0 && on_segment(p3, p4, p2))
            || (d3 == 0.0 && on_segment(p1, p2, p3))
            || (d4 == 0.0 && on_segment(p1, p2, p4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> SegmentGeom {
        SegmentGeom::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn projection_clamps_to_endpoints() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.project_t(Point::new(-5.0, 3.0)), 0.0);
        assert_eq!(s.project_t(Point::new(15.0, -2.0)), 1.0);
        assert!((s.project_t(Point::new(4.0, 7.0)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn closest_point_and_distance() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.closest_point(Point::new(4.0, 3.0)), Point::new(4.0, 0.0));
        assert!((s.dist_to_point(Point::new(4.0, 3.0)) - 3.0).abs() < 1e-12);
        // Beyond the end: distance to the endpoint.
        assert!((s.dist_to_point(Point::new(13.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment() {
        let s = seg(2.0, 2.0, 2.0, 2.0);
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.project_t(Point::new(9.0, 9.0)), 0.0);
        assert_eq!(s.closest_point(Point::new(9.0, 9.0)), Point::new(2.0, 2.0));
        assert!(s.direction().is_none());
        assert_eq!(s.point_at(5.0), Point::new(2.0, 2.0));
    }

    #[test]
    fn point_at_offsets() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(s.point_at(4.0), Point::new(4.0, 0.0));
        // Clamped beyond the end.
        assert_eq!(s.point_at(25.0), Point::new(10.0, 0.0));
        assert_eq!(s.point_at(-3.0), Point::new(0.0, 0.0));
    }

    #[test]
    fn intersection_crossing() {
        let a = seg(0.0, 0.0, 10.0, 10.0);
        let b = seg(0.0, 10.0, 10.0, 0.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn intersection_touching_endpoint() {
        let a = seg(0.0, 0.0, 5.0, 5.0);
        let b = seg(5.0, 5.0, 9.0, 1.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn intersection_disjoint_and_parallel() {
        let a = seg(0.0, 0.0, 5.0, 0.0);
        let b = seg(0.0, 1.0, 5.0, 1.0);
        assert!(!a.intersects(&b));
        let c = seg(6.0, 0.0, 9.0, 0.0);
        assert!(!a.intersects(&c));
        // Collinear overlapping.
        let d = seg(3.0, 0.0, 8.0, 0.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let s = seg(1.0, 2.0, 3.0, 4.0);
        let r = s.reversed();
        assert_eq!(r.a, s.b);
        assert_eq!(r.b, s.a);
        assert_eq!(s.length(), r.length());
    }
}
