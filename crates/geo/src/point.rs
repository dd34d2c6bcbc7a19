//! Planar points in a local metric frame.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or free vector) in the local planar frame, in metres.
///
/// `Point` doubles as a 2-D vector type: subtraction of two points yields the
/// displacement vector, and the usual scalar operations are provided. This
/// mirrors how small geometry libraries (e.g. `geo-types`) treat coordinates
/// and keeps the hot kernels free of conversions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Point {
    /// Origin of the local frame.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from easting/northing metres.
    #[inline]
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` in metres.
    #[inline]
    #[must_use]
    pub fn dist(&self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance; cheaper when only comparisons are needed.
    #[inline]
    #[must_use]
    pub fn dist_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector length (distance from the origin).
    #[inline]
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared vector length.
    #[inline]
    #[must_use]
    pub fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other` interpreted as vectors.
    #[inline]
    #[must_use]
    pub fn dot(&self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product with `other` (signed parallelogram area).
    #[inline]
    #[must_use]
    pub fn cross(&self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    #[must_use]
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    #[must_use]
    pub fn midpoint(&self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// Unit vector pointing in the same direction, or `None` for the zero vector.
    #[must_use]
    pub fn normalized(&self) -> Option<Point> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(Point::new(self.x / n, self.y / n))
        }
    }

    /// Heading in radians in `(-π, π]`, measured counter-clockwise from +x.
    #[inline]
    #[must_use]
    pub fn heading(&self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.dist(b) - 5.0).abs() < 1e-12);
        assert!((a.dist_sq(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-7.5, 2.0);
        let b = Point::new(11.0, -3.25);
        assert_eq!(a.dist(b), b.dist(a));
    }

    #[test]
    fn vector_algebra() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(b - a, Point::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point::new(0.5, 1.0));
        assert_eq!(-a, Point::new(-1.0, -2.0));
        assert!((a.dot(b) - 1.0).abs() < 1e-12);
        assert!((a.cross(b) + 7.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point::new(5.0, 10.0));
    }

    #[test]
    fn normalized_zero_vector_is_none() {
        assert!(Point::ORIGIN.normalized().is_none());
        let u = Point::new(0.0, 5.0).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!((u.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heading_quadrants() {
        assert!((Point::new(1.0, 0.0).heading() - 0.0).abs() < 1e-12);
        assert!((Point::new(0.0, 1.0).heading() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((Point::new(-1.0, 0.0).heading() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn non_finite_detected() {
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
        assert!(Point::new(1.0, 2.0).is_finite());
    }
}
