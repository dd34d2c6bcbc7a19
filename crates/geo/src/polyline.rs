//! Polylines: the shape of road segments and of inferred routes.

use crate::bbox::BBox;
use crate::point::Point;
use crate::segment::SegmentGeom;

/// Result of projecting a point onto a [`Polyline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolylineProjection {
    /// The closest point on the polyline.
    pub point: Point,
    /// Distance from the query point to `point`, metres.
    pub dist: f64,
    /// Arc-length offset of `point` from the start of the polyline, metres.
    pub offset: f64,
    /// Index of the polyline piece (`vertices[i] → vertices[i+1]`) containing `point`.
    pub piece: usize,
}

/// A piecewise-linear curve through two or more vertices.
///
/// Road segments in the network carry a `Polyline` shape (Definition 2 of the
/// paper: terminal points plus intermediate points). Routes are rendered as
/// concatenated polylines.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    vertices: Vec<Point>,
    /// Cumulative arc length at each vertex; `cum[0] = 0`, `cum.last() = length`.
    cum: Vec<f64>,
}

impl Polyline {
    /// Builds a polyline from at least two vertices.
    ///
    /// # Panics
    /// Panics if fewer than two vertices are supplied — a polyline with no
    /// extent has no meaningful projection or offset semantics.
    #[must_use]
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(
            vertices.len() >= 2,
            "polyline needs at least 2 vertices, got {}",
            vertices.len()
        );
        let cum = Self::cumulative(&vertices);
        Polyline { vertices, cum }
    }

    /// Straight polyline between two points.
    #[must_use]
    pub fn straight(a: Point, b: Point) -> Self {
        Polyline::new(vec![a, b])
    }

    fn cumulative(vertices: &[Point]) -> Vec<f64> {
        let mut cum = Vec::with_capacity(vertices.len());
        let mut acc = 0.0;
        cum.push(0.0);
        for w in vertices.windows(2) {
            acc += w[0].dist(w[1]);
            cum.push(acc);
        }
        cum
    }

    /// The vertices of the polyline.
    #[inline]
    #[must_use]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// First vertex.
    #[inline]
    #[must_use]
    pub fn start(&self) -> Point {
        self.vertices[0]
    }

    /// Last vertex.
    #[inline]
    #[must_use]
    pub fn end(&self) -> Point {
        *self.vertices.last().expect("non-empty by construction")
    }

    /// Total arc length in metres.
    #[inline]
    #[must_use]
    pub fn length(&self) -> f64 {
        *self.cum.last().expect("non-empty by construction")
    }

    /// Number of straight pieces (`vertices - 1`).
    #[inline]
    #[must_use]
    pub fn num_pieces(&self) -> usize {
        self.vertices.len() - 1
    }

    /// The `i`-th straight piece.
    #[inline]
    #[must_use]
    pub fn piece(&self, i: usize) -> SegmentGeom {
        SegmentGeom::new(self.vertices[i], self.vertices[i + 1])
    }

    /// Bounding box of all vertices.
    #[must_use]
    pub fn bbox(&self) -> BBox {
        BBox::covering(self.vertices.iter().copied())
    }

    /// Projects `p` onto the polyline, returning the closest point, its
    /// distance, arc-length offset and piece index.
    #[must_use]
    pub fn project(&self, p: Point) -> PolylineProjection {
        let mut best = PolylineProjection {
            point: self.vertices[0],
            dist: f64::INFINITY,
            offset: 0.0,
            piece: 0,
        };
        for i in 0..self.num_pieces() {
            let seg = self.piece(i);
            let t = seg.project_t(p);
            let q = seg.a.lerp(seg.b, t);
            let d = q.dist(p);
            if d < best.dist {
                best = PolylineProjection {
                    point: q,
                    dist: d,
                    offset: self.cum[i] + seg.length() * t,
                    piece: i,
                };
            }
        }
        best
    }

    /// Distance from `p` to the polyline (Definition 5's `dist(p, r)`).
    #[inline]
    #[must_use]
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.project(p).dist
    }

    /// Point at arc-length `offset` from the start, clamped to `[0, length]`.
    #[must_use]
    pub fn point_at(&self, offset: f64) -> Point {
        let offset = offset.clamp(0.0, self.length());
        // Binary search for the piece containing `offset`.
        let i = match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&offset).expect("finite lengths"))
        {
            Ok(i) => i.min(self.num_pieces()),
            Err(i) => i - 1,
        };
        if i >= self.num_pieces() {
            return self.end();
        }
        self.piece(i).point_at(offset - self.cum[i])
    }

    /// Evenly resamples the polyline into `n >= 2` points including both ends.
    #[must_use]
    pub fn resample(&self, n: usize) -> Vec<Point> {
        assert!(n >= 2, "resample needs at least 2 output points");
        let len = self.length();
        (0..n)
            .map(|i| self.point_at(len * i as f64 / (n - 1) as f64))
            .collect()
    }

    /// Concatenates polylines, dropping duplicated join vertices.
    ///
    /// Returns `None` if `lines` is empty.
    #[must_use]
    pub fn concat<'a, I: IntoIterator<Item = &'a Polyline>>(lines: I) -> Option<Polyline> {
        let mut vertices: Vec<Point> = Vec::new();
        for line in lines {
            for &v in line.vertices() {
                if vertices.last().is_some_and(|&last| last.dist(v) < 1e-9) {
                    continue;
                }
                vertices.push(v);
            }
        }
        if vertices.len() == 1 {
            // A chain of coincident points still needs 2 vertices to be a polyline.
            let v = vertices[0];
            vertices.push(v);
        }
        (vertices.len() >= 2).then(|| Polyline::new(vertices))
    }

    /// Reversed copy of the polyline.
    #[must_use]
    pub fn reversed(&self) -> Polyline {
        let mut v = self.vertices.clone();
        v.reverse();
        Polyline::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        // (0,0) → (10,0) → (10,10): length 20.
        Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ])
    }

    #[test]
    #[should_panic(expected = "at least 2 vertices")]
    fn rejects_single_vertex() {
        let _ = Polyline::new(vec![Point::ORIGIN]);
    }

    #[test]
    fn length_accumulates() {
        assert!((l_shape().length() - 20.0).abs() < 1e-12);
        assert_eq!(l_shape().num_pieces(), 2);
    }

    #[test]
    fn projection_picks_correct_piece() {
        let pl = l_shape();
        let pr = pl.project(Point::new(5.0, 2.0));
        assert_eq!(pr.piece, 0);
        assert!((pr.dist - 2.0).abs() < 1e-12);
        assert!((pr.offset - 5.0).abs() < 1e-12);
        let pr2 = pl.project(Point::new(12.0, 7.0));
        assert_eq!(pr2.piece, 1);
        assert!((pr2.dist - 2.0).abs() < 1e-12);
        assert!((pr2.offset - 17.0).abs() < 1e-12);
    }

    #[test]
    fn projection_at_corner() {
        let pr = l_shape().project(Point::new(12.0, -2.0));
        assert_eq!(pr.point, Point::new(10.0, 0.0));
        assert!((pr.offset - 10.0).abs() < 1e-12);
    }

    #[test]
    fn point_at_walks_arclength() {
        let pl = l_shape();
        assert_eq!(pl.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(pl.point_at(5.0), Point::new(5.0, 0.0));
        assert_eq!(pl.point_at(10.0), Point::new(10.0, 0.0));
        assert_eq!(pl.point_at(15.0), Point::new(10.0, 5.0));
        assert_eq!(pl.point_at(20.0), Point::new(10.0, 10.0));
        // Clamping.
        assert_eq!(pl.point_at(-5.0), Point::new(0.0, 0.0));
        assert_eq!(pl.point_at(99.0), Point::new(10.0, 10.0));
    }

    #[test]
    fn resample_endpoints_and_spacing() {
        let pl = l_shape();
        let pts = pl.resample(5);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], pl.start());
        assert_eq!(pts[4], pl.end());
        assert_eq!(pts[2], Point::new(10.0, 0.0));
    }

    #[test]
    fn concat_drops_duplicate_joins() {
        let a = Polyline::straight(Point::new(0.0, 0.0), Point::new(5.0, 0.0));
        let b = Polyline::straight(Point::new(5.0, 0.0), Point::new(5.0, 5.0));
        let c = Polyline::concat([&a, &b]).unwrap();
        assert_eq!(c.vertices().len(), 3);
        assert!((c.length() - 10.0).abs() < 1e-12);
        assert!(Polyline::concat(std::iter::empty()).is_none());
    }

    #[test]
    fn reversal_preserves_length() {
        let pl = l_shape();
        let rv = pl.reversed();
        assert_eq!(rv.start(), pl.end());
        assert_eq!(rv.end(), pl.start());
        assert!((rv.length() - pl.length()).abs() < 1e-12);
    }

    #[test]
    fn bbox_covers_all_vertices() {
        let b = l_shape().bbox();
        assert_eq!(b.min, Point::new(0.0, 0.0));
        assert_eq!(b.max, Point::new(10.0, 10.0));
    }
}
