//! Stay-point detection and trip partition (preprocessing, Section II-B.1).
//!
//! A *stay point* is a region where the object lingers — the classic
//! detector of Li/Zheng et al.: a maximal run of points that stays within
//! `dist_threshold_m` of its anchor for at least `time_threshold_s`. Raw
//! taxi logs are split into *trips* by removing stay points (pick-up /
//! drop-off idling) and cutting at long observation gaps.

use crate::types::{GpsPoint, TrajId, Trajectory};
use hris_geo::Point;

/// Parameters of stay-point detection and trip partition.
#[derive(Debug, Clone, Copy)]
pub struct StayPointConfig {
    /// Maximum roaming radius of a stay, metres.
    pub dist_threshold_m: f64,
    /// Minimum lingering time to count as a stay, seconds.
    pub time_threshold_s: f64,
    /// Observation gaps longer than this split a log into separate trips
    /// (Definition 1's `ΔT` ceiling), seconds.
    pub max_gap_s: f64,
    /// Trips with fewer points than this are discarded.
    pub min_trip_points: usize,
}

impl Default for StayPointConfig {
    fn default() -> Self {
        StayPointConfig {
            dist_threshold_m: 100.0,
            time_threshold_s: 300.0,
            max_gap_s: 1800.0,
            min_trip_points: 2,
        }
    }
}

/// A detected stay point: the index range and its mean location/time span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StayPoint {
    /// First point index of the stay (inclusive).
    pub start: usize,
    /// Last point index of the stay (inclusive).
    pub end: usize,
    /// Mean position of the stay.
    pub centroid: Point,
    /// Arrival time (timestamp of the first point), seconds.
    pub arrive_t: f64,
    /// Departure time (timestamp of the last point), seconds.
    pub depart_t: f64,
}

/// Detects stay points in a raw GPS log.
///
/// Classic greedy scan: anchor at `i`, extend `j` while every point stays
/// within `dist_threshold_m` of the anchor; if the dwell exceeds
/// `time_threshold_s`, emit a stay point and restart after it.
#[must_use]
pub fn detect_stay_points(traj: &Trajectory, cfg: &StayPointConfig) -> Vec<StayPoint> {
    let pts = &traj.points;
    let mut out = Vec::new();
    let mut i = 0;
    while i < pts.len() {
        let mut j = i;
        while j + 1 < pts.len() && pts[j + 1].pos.dist(pts[i].pos) <= cfg.dist_threshold_m {
            j += 1;
        }
        if j > i && pts[j].t - pts[i].t >= cfg.time_threshold_s {
            let n = (j - i + 1) as f64;
            let centroid = pts[i..=j].iter().fold(Point::ORIGIN, |acc, p| acc + p.pos) / n;
            out.push(StayPoint {
                start: i,
                end: j,
                centroid,
                arrive_t: pts[i].t,
                depart_t: pts[j].t,
            });
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Splits a raw GPS log into effective trips.
///
/// Stay-point runs are removed, and the log is additionally cut wherever the
/// observation gap exceeds `max_gap_s`. Trips shorter than
/// `min_trip_points` are dropped. Trip ids restart from 0; the archive
/// reassigns them on insertion.
#[must_use]
pub fn partition_trips(traj: &Trajectory, cfg: &StayPointConfig) -> Vec<Trajectory> {
    let stays = detect_stay_points(traj, cfg);
    let mut cut_after = vec![false; traj.points.len()];
    let mut in_stay = vec![false; traj.points.len()];
    for s in &stays {
        for flag in &mut in_stay[s.start..=s.end] {
            *flag = true;
        }
    }
    for (k, w) in traj.points.windows(2).enumerate() {
        if w[1].t - w[0].t > cfg.max_gap_s {
            cut_after[k] = true;
        }
    }

    let mut trips: Vec<Trajectory> = Vec::new();
    let mut current: Vec<GpsPoint> = Vec::new();
    let flush = |current: &mut Vec<GpsPoint>, trips: &mut Vec<Trajectory>| {
        if current.len() >= cfg.min_trip_points {
            trips.push(Trajectory::new(
                TrajId(trips.len() as u32),
                std::mem::take(current),
            ));
        } else {
            current.clear();
        }
    };

    for (k, p) in traj.points.iter().enumerate() {
        if in_stay[k] {
            flush(&mut current, &mut trips);
            continue;
        }
        current.push(*p);
        if cut_after[k] {
            flush(&mut current, &mut trips);
        }
    }
    flush(&mut current, &mut trips);
    trips
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StayPointConfig {
        StayPointConfig {
            dist_threshold_m: 50.0,
            time_threshold_s: 120.0,
            max_gap_s: 600.0,
            min_trip_points: 2,
        }
    }

    fn moving_then_staying() -> Trajectory {
        let mut pts = Vec::new();
        // Move east at 10 m/s for 100 s, sampling every 10 s.
        for k in 0..=10 {
            pts.push(GpsPoint::new(
                Point::new(k as f64 * 100.0, 0.0),
                k as f64 * 10.0,
            ));
        }
        // Stay near (1000, 0) for 300 s.
        for k in 1..=10 {
            pts.push(GpsPoint::new(
                Point::new(1000.0 + (k % 3) as f64 * 5.0, 2.0),
                100.0 + k as f64 * 30.0,
            ));
        }
        // Move north again.
        for k in 1..=10 {
            pts.push(GpsPoint::new(
                Point::new(1000.0, k as f64 * 100.0),
                400.0 + k as f64 * 10.0,
            ));
        }
        Trajectory::new(TrajId(0), pts)
    }

    #[test]
    fn detects_single_stay() {
        let t = moving_then_staying();
        let stays = detect_stay_points(&t, &cfg());
        assert_eq!(stays.len(), 1);
        let s = &stays[0];
        assert!(s.depart_t - s.arrive_t >= 120.0);
        assert!(s.centroid.dist(Point::new(1000.0, 0.0)) < 60.0);
    }

    #[test]
    fn no_stay_when_moving() {
        let pts: Vec<GpsPoint> = (0..20)
            .map(|k| GpsPoint::new(Point::new(k as f64 * 200.0, 0.0), k as f64 * 10.0))
            .collect();
        let t = Trajectory::new(TrajId(0), pts);
        assert!(detect_stay_points(&t, &cfg()).is_empty());
    }

    #[test]
    fn short_lingering_is_not_a_stay() {
        // Within radius but only 60 s < 120 s threshold.
        let pts: Vec<GpsPoint> = (0..7)
            .map(|k| GpsPoint::new(Point::new((k % 2) as f64 * 10.0, 0.0), k as f64 * 10.0))
            .collect();
        let t = Trajectory::new(TrajId(0), pts);
        assert!(detect_stay_points(&t, &cfg()).is_empty());
    }

    #[test]
    fn partition_splits_at_stay() {
        let t = moving_then_staying();
        let trips = partition_trips(&t, &cfg());
        assert_eq!(trips.len(), 2, "stay splits the log into two trips");
        // First trip heads east, second heads north.
        assert!(trips[0].points.iter().all(|p| p.pos.y < 50.0));
        assert!(trips[1].points.iter().all(|p| p.pos.x > 900.0));
    }

    #[test]
    fn partition_splits_at_long_gap() {
        let mut pts = Vec::new();
        for k in 0..5 {
            pts.push(GpsPoint::new(
                Point::new(k as f64 * 100.0, 0.0),
                k as f64 * 10.0,
            ));
        }
        // 1-hour gap.
        for k in 0..5 {
            pts.push(GpsPoint::new(
                Point::new(5000.0 + k as f64 * 100.0, 0.0),
                3650.0 + k as f64 * 10.0,
            ));
        }
        let t = Trajectory::new(TrajId(0), pts);
        let trips = partition_trips(&t, &cfg());
        assert_eq!(trips.len(), 2);
        assert_eq!(trips[0].len(), 5);
        assert_eq!(trips[1].len(), 5);
    }

    #[test]
    fn tiny_fragments_are_dropped() {
        let cfg = StayPointConfig {
            min_trip_points: 3,
            ..cfg()
        };
        let pts = vec![
            GpsPoint::new(Point::new(0.0, 0.0), 0.0),
            GpsPoint::new(Point::new(100.0, 0.0), 10.0),
            // gap
            GpsPoint::new(Point::new(5000.0, 0.0), 5000.0),
        ];
        let t = Trajectory::new(TrajId(0), pts);
        let trips = partition_trips(&t, &cfg);
        assert!(trips.is_empty(), "2-point and 1-point fragments dropped");
    }

    #[test]
    fn empty_input() {
        let t = Trajectory::new(TrajId(0), vec![]);
        assert!(detect_stay_points(&t, &cfg()).is_empty());
        assert!(partition_trips(&t, &cfg()).is_empty());
    }

    #[test]
    fn single_point_input() {
        let t = Trajectory::new(TrajId(0), vec![GpsPoint::new(Point::ORIGIN, 5.0)]);
        assert!(detect_stay_points(&t, &cfg()).is_empty());
        // One point can never satisfy min_trip_points ≥ 2.
        assert!(partition_trips(&t, &cfg()).is_empty());
    }

    #[test]
    fn duplicate_timestamps_do_not_break_detection() {
        // A dwell whose observations all share one timestamp: the greedy
        // scan must terminate, and dwell duration 0 must not emit a stay.
        let p = Point::new(10.0, 10.0);
        let t = Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(p, 100.0),
                GpsPoint::new(p, 100.0),
                GpsPoint::new(p, 100.0),
            ],
        );
        assert!(detect_stay_points(&t, &cfg()).is_empty());
        let trips = partition_trips(&t, &cfg());
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].len(), 3);
    }
}
