//! Resampling and noise injection.
//!
//! The paper's queries are built by *re-sampling high-rate trajectories down
//! to the desired sampling interval* (Section IV-B). We follow the same
//! protocol: keep the first point, then greedily keep the next observation
//! whose timestamp is at least `interval_s` after the last kept one, and
//! always keep the final point so the query spans the full trip.

use crate::types::{GpsPoint, Trajectory};
use hris_geo::Point;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Downsamples `traj` to a target sampling interval (seconds).
///
/// The identity of retained points is preserved (no interpolation), exactly
/// like dropping reports from a taxi's GPS log. Intervals ≤ the source's
/// native interval return a clone.
#[must_use]
pub fn resample_to_interval(traj: &Trajectory, interval_s: f64) -> Trajectory {
    if traj.points.len() <= 2 || interval_s <= 0.0 {
        return traj.clone();
    }
    let mut kept: Vec<GpsPoint> = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    for p in &traj.points {
        if kept.is_empty() || p.t - last_t >= interval_s {
            kept.push(*p);
            last_t = p.t;
        }
    }
    // Ensure the final observation survives so the query reaches the
    // destination. Compare the whole point, not just the timestamp: with a
    // duplicated final timestamp at a different position the destination
    // would otherwise be silently dropped.
    let last = *traj.points.last().expect("len > 2");
    if kept.last() != Some(&last) {
        kept.push(last);
    }
    Trajectory::new(traj.id, kept)
}

/// Adds isotropic Gaussian GPS noise (`sigma_m` per axis) to every point.
///
/// Uses Box–Muller so we stay within the workspace's approved `rand`
/// surface (no `rand_distr` dependency).
#[must_use]
pub fn add_gps_noise(traj: &Trajectory, sigma_m: f64, rng: &mut ChaCha8Rng) -> Trajectory {
    if sigma_m <= 0.0 {
        return traj.clone();
    }
    let points = traj
        .points
        .iter()
        .map(|p| {
            let (dx, dy) = gaussian_pair(rng, sigma_m);
            GpsPoint::new(Point::new(p.pos.x + dx, p.pos.y + dy), p.t)
        })
        .collect();
    Trajectory::new(traj.id, points)
}

/// One pair of independent N(0, sigma²) samples via Box–Muller.
pub(crate) fn gaussian_pair(rng: &mut ChaCha8Rng, sigma: f64) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt() * sigma;
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TrajId;
    use rand::SeedableRng;

    fn dense_traj() -> Trajectory {
        // 20 s native interval for 10 minutes (31 points), like GeoLife.
        let pts: Vec<GpsPoint> = (0..=30)
            .map(|k| GpsPoint::new(Point::new(k as f64 * 150.0, 0.0), k as f64 * 20.0))
            .collect();
        Trajectory::new(TrajId(3), pts)
    }

    #[test]
    fn resample_to_3min() {
        let t = dense_traj();
        let r = resample_to_interval(&t, 180.0);
        // 600 s span / 180 s → points at t = 0, 180, 360, 540, then final 600.
        assert_eq!(r.len(), 5);
        assert!(r.mean_interval() >= 149.0);
        // Endpoints preserved.
        assert_eq!(r.points.first().unwrap().t, 0.0);
        assert_eq!(r.points.last().unwrap().t, 600.0);
        // Every retained point is one of the originals.
        for p in &r.points {
            assert!(t.points.contains(p));
        }
    }

    #[test]
    fn resample_identity_for_fast_interval() {
        let t = dense_traj();
        let r = resample_to_interval(&t, 10.0);
        assert_eq!(r.len(), t.len());
    }

    #[test]
    fn resample_degenerate_inputs() {
        let t = Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::ORIGIN, 0.0),
                GpsPoint::new(Point::new(1.0, 0.0), 10.0),
            ],
        );
        assert_eq!(resample_to_interval(&t, 300.0).len(), 2);
        assert_eq!(resample_to_interval(&dense_traj(), -5.0).len(), 31);
    }

    #[test]
    fn noise_perturbs_positions_not_times() {
        let t = dense_traj();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = add_gps_noise(&t, 20.0, &mut rng);
        assert_eq!(n.len(), t.len());
        let mut moved = 0;
        for (a, b) in t.points.iter().zip(n.points.iter()) {
            assert_eq!(a.t, b.t);
            if a.pos.dist(b.pos) > 1e-9 {
                moved += 1;
            }
        }
        assert_eq!(moved, t.len());
    }

    #[test]
    fn noise_magnitude_is_plausible() {
        let t = dense_traj();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sigma = 15.0;
        let n = add_gps_noise(&t, sigma, &mut rng);
        let mean_off: f64 = t
            .points
            .iter()
            .zip(n.points.iter())
            .map(|(a, b)| a.pos.dist(b.pos))
            .sum::<f64>()
            / t.len() as f64;
        // Rayleigh mean = sigma * sqrt(pi/2) ≈ 18.8; accept a generous band.
        assert!(mean_off > 5.0 && mean_off < 50.0, "mean offset {mean_off}");
    }

    #[test]
    fn zero_sigma_is_identity() {
        let t = dense_traj();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(add_gps_noise(&t, 0.0, &mut rng), t);
    }

    #[test]
    fn gaussian_pair_is_centered() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 4000;
        let (mut sx, mut sy) = (0.0, 0.0);
        for _ in 0..n {
            let (x, y) = gaussian_pair(&mut rng, 1.0);
            sx += x;
            sy += y;
        }
        assert!((sx / n as f64).abs() < 0.1);
        assert!((sy / n as f64).abs() < 0.1);
    }

    #[test]
    fn empty_and_single_point_are_cloned() {
        let e = Trajectory::new(TrajId(0), vec![]);
        assert!(resample_to_interval(&e, 60.0).is_empty());
        let s = Trajectory::new(TrajId(0), vec![GpsPoint::new(Point::ORIGIN, 7.0)]);
        let r = resample_to_interval(&s, 60.0);
        assert_eq!(r.points, s.points);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(add_gps_noise(&e, 5.0, &mut rng).is_empty());
        assert_eq!(add_gps_noise(&s, 5.0, &mut rng).len(), 1);
    }

    #[test]
    fn duplicate_timestamps_survive_resampling_in_order() {
        // Equal timestamps are valid (non-decreasing); resampling must not
        // panic in `Trajectory::new` and must keep the final observation.
        let t = Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                GpsPoint::new(Point::new(10.0, 0.0), 0.0),
                GpsPoint::new(Point::new(20.0, 0.0), 120.0),
                GpsPoint::new(Point::new(30.0, 0.0), 120.0),
            ],
        );
        let r = resample_to_interval(&t, 60.0);
        assert!(r.points.windows(2).all(|w| w[0].t <= w[1].t));
        assert_eq!(r.points.last().unwrap().pos.x, 30.0);
    }
}
