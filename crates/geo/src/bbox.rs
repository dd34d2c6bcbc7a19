//! Axis-aligned bounding boxes.

use crate::point::Point;

/// An axis-aligned bounding rectangle in the local planar frame (metres).
///
/// The canonical form has `min.x <= max.x` and `min.y <= max.y`; constructors
/// normalise their inputs. An *empty* box (see [`BBox::empty`]) is the
/// identity element of [`BBox::union`] and contains nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl BBox {
    /// Builds a box from two opposite corners (in any order).
    #[must_use]
    pub fn new(a: Point, b: Point) -> Self {
        BBox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A degenerate box covering exactly one point.
    #[inline]
    #[must_use]
    pub fn from_point(p: Point) -> Self {
        BBox { min: p, max: p }
    }

    /// The empty box: union identity, intersects nothing, contains nothing.
    #[must_use]
    pub fn empty() -> Self {
        BBox {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// `true` if the box covers no area and no point.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Smallest box covering a set of points; empty for an empty iterator.
    #[must_use]
    pub fn covering<I: IntoIterator<Item = Point>>(points: I) -> Self {
        let mut b = BBox::empty();
        for p in points {
            b.expand_point(p);
        }
        b
    }

    /// Width (x-extent) in metres; zero for empty boxes.
    #[inline]
    #[must_use]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (y-extent) in metres; zero for empty boxes.
    #[inline]
    #[must_use]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area in square metres.
    #[inline]
    #[must_use]
    pub fn area_m2(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter (`width + height`), the classic R-tree "margin" measure.
    #[inline]
    #[must_use]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Centre of the box; meaningless for empty boxes.
    #[inline]
    #[must_use]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Grows the box in place to cover `p`.
    #[inline]
    pub fn expand_point(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Grows the box in place to cover `other`.
    #[inline]
    pub fn expand(&mut self, other: &BBox) {
        self.min.x = self.min.x.min(other.min.x);
        self.min.y = self.min.y.min(other.min.y);
        self.max.x = self.max.x.max(other.max.x);
        self.max.y = self.max.y.max(other.max.y);
    }

    /// Union of two boxes.
    #[inline]
    #[must_use]
    pub fn union(&self, other: &BBox) -> BBox {
        let mut b = *self;
        b.expand(other);
        b
    }

    /// Box inflated by `r` metres on every side.
    #[must_use]
    pub fn inflated(&self, r: f64) -> BBox {
        BBox {
            min: Point::new(self.min.x - r, self.min.y - r),
            max: Point::new(self.max.x + r, self.max.y + r),
        }
    }

    /// `true` if the boxes overlap (closed boxes: shared edges count).
    #[inline]
    #[must_use]
    pub fn intersects(&self, other: &BBox) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// `true` if `p` lies inside or on the boundary.
    #[inline]
    #[must_use]
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// `true` if `other` lies entirely inside `self`.
    #[inline]
    #[must_use]
    pub fn contains(&self, other: &BBox) -> bool {
        other.min.x >= self.min.x
            && other.max.x <= self.max.x
            && other.min.y >= self.min.y
            && other.max.y <= self.max.y
    }

    /// Minimum distance from `p` to the box (zero when inside).
    ///
    /// This is the `MINDIST` bound used by best-first kNN search on R-trees.
    #[must_use]
    pub fn min_dist(&self, p: Point) -> f64 {
        self.min_dist_sq(p).sqrt()
    }

    /// Squared minimum distance from `p` to the box.
    #[must_use]
    pub fn min_dist_sq(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }
}

impl Default for BBox {
    fn default() -> Self {
        BBox::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    #[test]
    fn constructor_normalises_corners() {
        let b = BBox::new(Point::new(5.0, -1.0), Point::new(-2.0, 3.0));
        assert_eq!(b.min, Point::new(-2.0, -1.0));
        assert_eq!(b.max, Point::new(5.0, 3.0));
    }

    #[test]
    fn empty_box_behaviour() {
        let e = BBox::empty();
        assert!(e.is_empty());
        assert_eq!(e.area_m2(), 0.0);
        assert!(!e.contains_point(Point::ORIGIN));
        assert!(!e.intersects(&unit()));
        // Union identity.
        assert_eq!(e.union(&unit()), unit());
    }

    #[test]
    fn covering_points() {
        let b = BBox::covering([
            Point::new(1.0, 5.0),
            Point::new(-3.0, 2.0),
            Point::new(0.0, 7.0),
        ]);
        assert_eq!(b.min, Point::new(-3.0, 2.0));
        assert_eq!(b.max, Point::new(1.0, 7.0));
    }

    #[test]
    fn intersects_shares_edge() {
        let a = unit();
        let b = BBox::new(Point::new(1.0, 0.0), Point::new(2.0, 1.0));
        assert!(a.intersects(&b));
        let c = BBox::new(Point::new(1.01, 0.0), Point::new(2.0, 1.0));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn containment() {
        let big = BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let small = BBox::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains_point(Point::new(10.0, 10.0)));
        assert!(!big.contains_point(Point::new(10.0, 10.01)));
    }

    #[test]
    fn min_dist_regions() {
        let b = unit();
        // Inside.
        assert_eq!(b.min_dist(Point::new(0.5, 0.5)), 0.0);
        // Beside (closest point is an edge).
        assert!((b.min_dist(Point::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
        // Diagonal (closest point is a corner).
        assert!((b.min_dist(Point::new(2.0, 2.0)) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn inflate_grows_all_sides() {
        let b = unit().inflated(2.0);
        assert_eq!(b.min, Point::new(-2.0, -2.0));
        assert_eq!(b.max, Point::new(3.0, 3.0));
    }

    #[test]
    fn margin_is_half_perimeter() {
        let b = BBox::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0));
        assert!((b.margin() - 7.0).abs() < 1e-12);
    }
}
