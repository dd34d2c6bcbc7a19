//! Curve similarity: the mean symmetric deviation between two polylines.
//! Used to evaluate the *network-free* route inference extension, where
//! inferred routes are free-space polylines that cannot be compared
//! segment-by-segment.

use crate::polyline::Polyline;

/// Mean symmetric deviation between two polylines: the average over both
/// directions of each curve's sampled points' distance to the other curve.
///
/// No single worst point dominates, unlike a Fréchet leash; `n` sample
/// points per curve.
#[must_use]
pub fn mean_deviation(a: &Polyline, b: &Polyline, n: usize) -> f64 {
    let n = n.max(2);
    let sa = a.resample(n);
    let sb = b.resample(n);
    let d_ab: f64 = sa.iter().map(|&p| b.dist_to_point(p)).sum::<f64>() / n as f64;
    let d_ba: f64 = sb.iter().map(|&p| a.dist_to_point(p)).sum::<f64>() / n as f64;
    (d_ab + d_ba) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn line(points: &[(f64, f64)]) -> Vec<Point> {
        points.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn mean_deviation_zero_for_identical() {
        let p = Polyline::new(line(&[(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)]));
        assert!(mean_deviation(&p, &p, 50) < 1e-9);
    }

    #[test]
    fn mean_deviation_parallel() {
        let a = Polyline::new(line(&[(0.0, 0.0), (100.0, 0.0)]));
        let b = Polyline::new(line(&[(0.0, 10.0), (100.0, 10.0)]));
        let d = mean_deviation(&a, &b, 20);
        assert!((d - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mean_deviation_is_symmetric() {
        let a = Polyline::new(line(&[(0.0, 0.0), (50.0, 30.0), (100.0, 0.0)]));
        let b = Polyline::new(line(&[(0.0, 5.0), (100.0, 5.0)]));
        assert!((mean_deviation(&a, &b, 40) - mean_deviation(&b, &a, 40)).abs() < 1e-9);
    }
}
