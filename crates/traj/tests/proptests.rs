//! Property-based tests for trajectory preprocessing and the simulator.

use hris_geo::Point;
use hris_traj::{
    partition_trips, resample_to_interval, GpsPoint, StayPointConfig, TrajId, Trajectory,
    TrajectoryArchive,
};
use proptest::prelude::*;

/// Random time-ordered trajectory.
fn trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec(
        (
            -5_000.0..5_000.0f64,
            -5_000.0..5_000.0f64,
            0.1..120.0f64, // per-step time increments
        ),
        0..80,
    )
    .prop_map(|steps| {
        let mut t = 0.0;
        let points = steps
            .into_iter()
            .map(|(x, y, dt)| {
                t += dt;
                GpsPoint::new(Point::new(x, y), t)
            })
            .collect();
        Trajectory::new(TrajId(0), points)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_output_points_come_from_input(traj in trajectory()) {
        let cfg = StayPointConfig::default();
        let trips = partition_trips(&traj, &cfg);
        for trip in &trips {
            prop_assert!(trip.len() >= cfg.min_trip_points);
            for p in &trip.points {
                prop_assert!(traj.points.contains(p));
            }
            // Time-ordered within each trip (Trajectory::new asserts, but
            // double-check the invariant end to end).
            prop_assert!(trip.points.windows(2).all(|w| w[0].t <= w[1].t));
            // No gap inside a trip exceeds the ceiling.
            prop_assert!(trip.points.windows(2).all(|w| w[1].t - w[0].t <= cfg.max_gap_s + 1e-9));
        }
    }

    #[test]
    fn partition_never_duplicates_points(traj in trajectory()) {
        let cfg = StayPointConfig::default();
        let trips = partition_trips(&traj, &cfg);
        let total: usize = trips.iter().map(Trajectory::len).sum();
        prop_assert!(total <= traj.len());
    }

    #[test]
    fn resample_respects_interval(traj in trajectory(), interval in 10.0..900.0f64) {
        let r = resample_to_interval(&traj, interval);
        if traj.len() > 2 {
            // All but the final appended point respect the spacing.
            let body = &r.points[..r.points.len().saturating_sub(1)];
            for w in body.windows(2) {
                prop_assert!(w[1].t - w[0].t >= interval - 1e-9);
            }
            // Endpoints preserved.
            prop_assert_eq!(r.points.first().unwrap().t, traj.points.first().unwrap().t);
            prop_assert_eq!(r.points.last().unwrap().t, traj.points.last().unwrap().t);
        }
        // Subset of the original points.
        for p in &r.points {
            prop_assert!(traj.points.contains(p));
        }
    }

    #[test]
    fn archive_binary_roundtrip(trajs in prop::collection::vec(trajectory(), 0..8)) {
        let a = TrajectoryArchive::new(trajs);
        let b = TrajectoryArchive::from_bytes(a.to_bytes()).unwrap();
        prop_assert_eq!(a.num_trajectories(), b.num_trajectories());
        prop_assert_eq!(a.num_points(), b.num_points());
        for (x, y) in a.trajectories().iter().zip(b.trajectories().iter()) {
            prop_assert_eq!(&x.points, &y.points);
        }
    }

    #[test]
    fn archive_range_query_equals_scan(
        trajs in prop::collection::vec(trajectory(), 0..6),
        cx in -5_000.0..5_000.0f64,
        cy in -5_000.0..5_000.0f64,
        r in 0.0..3_000.0f64,
    ) {
        let a = TrajectoryArchive::new(trajs);
        let center = Point::new(cx, cy);
        let got = a.points_within(center, r).len();
        let want = a
            .trajectories()
            .iter()
            .flat_map(|t| &t.points)
            .filter(|p| p.pos.dist(center) <= r)
            .count();
        prop_assert_eq!(got, want);
    }
}
