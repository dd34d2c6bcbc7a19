//! Core trajectory types (Definition 1 of the paper).

use hris_geo::{BBox, Point};
use std::fmt;

/// Identifier of a trajectory within an archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TrajId(pub u32);

impl TrajId {
    /// The id as a `usize` index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TrajId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A time-stamped GPS observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsPoint {
    /// Observed position (local planar frame, metres).
    pub pos: Point,
    /// Timestamp in seconds since the scenario epoch.
    pub t: f64,
}

impl GpsPoint {
    /// Creates a GPS point.
    #[inline]
    #[must_use]
    pub const fn new(pos: Point, t: f64) -> Self {
        GpsPoint { pos, t }
    }

    /// Planar distance to another observation, metres.
    #[inline]
    #[must_use]
    pub fn dist(&self, other: &GpsPoint) -> f64 {
        self.pos.dist(other.pos)
    }
}

/// Why a trajectory failed validation ([`Trajectory::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryError {
    /// A coordinate or timestamp is NaN or infinite.
    NonFinite {
        /// Index of the first offending observation.
        index: usize,
    },
    /// Timestamps are not in non-decreasing order.
    TimeDisorder {
        /// Index of the first observation earlier than its predecessor.
        index: usize,
    },
}

impl fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajectoryError::NonFinite { index } => {
                write!(f, "non-finite coordinate or timestamp at point {index}")
            }
            TrajectoryError::TimeDisorder { index } => {
                write!(f, "timestamp at point {index} precedes its predecessor")
            }
        }
    }
}

impl std::error::Error for TrajectoryError {}

/// A GPS trajectory: a time-ordered sequence of observations
/// (`p₁ → p₂ → … → pₙ`, Definition 1).
///
/// The fields are public for read access across the workspace, but every
/// ingest path (constructors, archive loaders, deserialised data) is expected
/// to go through [`Trajectory::new`] / [`Trajectory::try_new`] or to re-check
/// with [`Trajectory::validate`]. Deliberately malformed instances — fault
/// injection, tolerant loading — use [`Trajectory::from_unchecked`] so the
/// bypass is explicit at the call site.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    /// Identifier (assigned when stored in an archive; 0 for ad-hoc data).
    pub id: TrajId,
    /// Observations in non-decreasing time order.
    pub points: Vec<GpsPoint>,
}

impl Trajectory {
    /// A trajectory from raw points.
    ///
    /// # Panics
    /// Panics if the points are not in non-decreasing time order.
    #[must_use]
    pub fn new(id: TrajId, points: Vec<GpsPoint>) -> Self {
        assert!(
            points.windows(2).all(|w| w[0].t <= w[1].t),
            "trajectory points must be time-ordered"
        );
        Trajectory { id, points }
    }

    /// Fallible construction: rejects non-finite values and time disorder
    /// instead of panicking. Empty and single-point trajectories are valid.
    pub fn try_new(id: TrajId, points: Vec<GpsPoint>) -> Result<Self, TrajectoryError> {
        let t = Trajectory { id, points };
        t.validate()?;
        Ok(t)
    }

    /// A trajectory from raw points with **no** validation.
    ///
    /// For fault injectors and tolerant loaders that must represent dirty
    /// data as it arrived. Anything built this way must not be fed to the
    /// clean-input pipeline without a [`Trajectory::validate`] /
    /// sanitization pass.
    #[must_use]
    pub fn from_unchecked(id: TrajId, points: Vec<GpsPoint>) -> Self {
        Trajectory { id, points }
    }

    /// Checks the invariants [`Trajectory::new`] asserts plus finiteness
    /// (direct struct literals and [`Trajectory::from_unchecked`] bypass
    /// `new`, so ingest paths re-validate with this).
    pub fn validate(&self) -> Result<(), TrajectoryError> {
        for (i, p) in self.points.iter().enumerate() {
            if !(p.pos.x.is_finite() && p.pos.y.is_finite() && p.t.is_finite()) {
                return Err(TrajectoryError::NonFinite { index: i });
            }
        }
        if let Some(i) = (1..self.points.len()).find(|&i| self.points[i].t < self.points[i - 1].t) {
            return Err(TrajectoryError::TimeDisorder { index: i });
        }
        Ok(())
    }

    /// Number of observations.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the trajectory has no observations.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Duration from first to last observation, seconds (0 for < 2 points).
    #[must_use]
    pub fn duration(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0.0,
        }
    }

    /// Mean time interval between consecutive observations, seconds
    /// (`ΔT` of Definition 1); 0 for < 2 points.
    #[must_use]
    pub fn mean_interval(&self) -> f64 {
        if self.points.len() < 2 {
            0.0
        } else {
            self.duration() / (self.points.len() - 1) as f64
        }
    }

    /// Bounding box of the observations (empty box for an empty trajectory).
    #[must_use]
    pub fn bbox(&self) -> BBox {
        BBox::covering(self.points.iter().map(|p| p.pos))
    }

    /// The observation of this trajectory nearest to `q`
    /// (`nn(q, T)` of Definition 6), with its index. `None` when empty.
    #[must_use]
    pub fn nearest_point(&self, q: Point) -> Option<(usize, &GpsPoint)> {
        self.points
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.pos.dist_sq(q).total_cmp(&b.1.pos.dist_sq(q)))
    }

    /// Sub-trajectory over the inclusive index range, preserving order even
    /// when `a > b` (the reference may travel "backwards" relative to the
    /// query's direction — such references are rejected later by the speed
    /// filter, but extraction itself must not panic).
    #[must_use]
    pub fn slice(&self, a: usize, b: usize) -> &[GpsPoint] {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        &self.points[lo..=hi]
    }
}

/// What [`sanitize_points`] did to a point sequence. All-zero/false means the
/// input was already clean under the given limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointRepairs {
    /// Points dropped for NaN/infinite coordinates or timestamps.
    pub dropped_non_finite: usize,
    /// Points dropped for exceeding the coordinate/time magnitude limits.
    pub dropped_out_of_range: usize,
    /// Whether the surviving points had to be re-sorted by time.
    pub sorted: bool,
    /// Points dropped as exact duplicate timestamps of their predecessor
    /// at the same position (keep-first).
    pub deduped: usize,
}

impl PointRepairs {
    /// `true` when any repair fired.
    #[must_use]
    pub fn any(&self) -> bool {
        self.dropped_non_finite > 0
            || self.dropped_out_of_range > 0
            || self.sorted
            || self.deduped > 0
    }

    /// Total points removed (drops + dedupes).
    #[must_use]
    pub fn points_dropped(&self) -> usize {
        self.dropped_non_finite + self.dropped_out_of_range + self.deduped
    }

    /// Accumulates another report (for per-archive totals).
    pub fn merge(&mut self, other: &PointRepairs) {
        self.dropped_non_finite += other.dropped_non_finite;
        self.dropped_out_of_range += other.dropped_out_of_range;
        self.sorted |= other.sorted;
        self.deduped += other.deduped;
    }
}

/// Magnitude limits for [`sanitize_points`]. Coordinates live in a local
/// planar frame (metres), so anything beyond a few thousand kilometres is a
/// corrupt record, not a far-away trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizeLimits {
    /// Maximum |x| / |y| in metres.
    pub max_abs_coord_m: f64,
    /// Maximum |t| in seconds.
    pub max_abs_time_s: f64,
}

impl Default for SanitizeLimits {
    fn default() -> Self {
        SanitizeLimits {
            max_abs_coord_m: 1.0e7,
            max_abs_time_s: 1.0e12,
        }
    }
}

/// Repairs a raw point sequence in place: drops non-finite and out-of-range
/// observations, stable-sorts the rest by time, and removes exact duplicates
/// (same timestamp *and* position as the kept predecessor — duplicated
/// records, not genuine same-second observations from a different spot).
///
/// Deterministic: the same input always yields the same output and report.
/// Clean inputs are returned untouched (the sort is skipped entirely unless
/// order was violated), so callers can gate on [`PointRepairs::any`].
pub fn sanitize_points(points: &mut Vec<GpsPoint>, limits: &SanitizeLimits) -> PointRepairs {
    let mut repairs = PointRepairs::default();
    let before = points.len();
    points.retain(|p| p.pos.x.is_finite() && p.pos.y.is_finite() && p.t.is_finite());
    repairs.dropped_non_finite = before - points.len();

    let before = points.len();
    points.retain(|p| {
        p.pos.x.abs() <= limits.max_abs_coord_m
            && p.pos.y.abs() <= limits.max_abs_coord_m
            && p.t.abs() <= limits.max_abs_time_s
    });
    repairs.dropped_out_of_range = before - points.len();

    if !points.windows(2).all(|w| w[0].t <= w[1].t) {
        // All values finite by now, so total_cmp == partial order on reals;
        // stable sort keeps arrival order among equal timestamps.
        points.sort_by(|a, b| a.t.total_cmp(&b.t));
        repairs.sorted = true;
    }

    let before = points.len();
    points.dedup_by(|next, kept| next.t == kept.t && next.pos == kept.pos);
    repairs.deduped = before - points.len();
    repairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj() -> Trajectory {
        Trajectory::new(
            TrajId(1),
            vec![
                GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                GpsPoint::new(Point::new(100.0, 0.0), 10.0),
                GpsPoint::new(Point::new(100.0, 100.0), 30.0),
            ],
        )
    }

    #[test]
    fn basic_stats() {
        let t = traj();
        assert_eq!(t.len(), 3);
        assert!((t.duration() - 30.0).abs() < 1e-12);
        assert!((t.mean_interval() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let e = Trajectory::new(TrajId(0), vec![]);
        assert!(e.is_empty());
        assert_eq!(e.duration(), 0.0);
        assert_eq!(e.mean_interval(), 0.0);
        assert!(e.nearest_point(Point::ORIGIN).is_none());
        let s = Trajectory::new(TrajId(0), vec![GpsPoint::new(Point::ORIGIN, 5.0)]);
        assert_eq!(s.duration(), 0.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_unordered_times() {
        let _ = Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::ORIGIN, 10.0),
                GpsPoint::new(Point::ORIGIN, 5.0),
            ],
        );
    }

    #[test]
    fn nearest_point_finds_minimum() {
        let t = traj();
        let (idx, p) = t.nearest_point(Point::new(95.0, 90.0)).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(p.pos, Point::new(100.0, 100.0));
    }

    #[test]
    fn slice_handles_reversed_indices() {
        let t = traj();
        assert_eq!(t.slice(0, 2).len(), 3);
        assert_eq!(t.slice(2, 0).len(), 3);
        assert_eq!(t.slice(1, 1).len(), 1);
    }

    #[test]
    fn bbox_covers_points() {
        let b = traj().bbox();
        assert_eq!(b.min, Point::new(0.0, 0.0));
        assert_eq!(b.max, Point::new(100.0, 100.0));
    }

    #[test]
    fn try_new_rejects_what_new_panics_on() {
        let bad = vec![
            GpsPoint::new(Point::ORIGIN, 10.0),
            GpsPoint::new(Point::ORIGIN, 5.0),
        ];
        assert_eq!(
            Trajectory::try_new(TrajId(0), bad.clone()),
            Err(TrajectoryError::TimeDisorder { index: 1 })
        );
        // from_unchecked represents the same data without panicking…
        let dirty = Trajectory::from_unchecked(TrajId(0), bad);
        assert!(!dirty.points.windows(2).all(|w| w[0].t <= w[1].t));
        // …and validate reports the disorder.
        assert!(dirty.validate().is_err());
    }

    #[test]
    fn try_new_rejects_non_finite() {
        let nan = vec![GpsPoint::new(Point::new(f64::NAN, 0.0), 0.0)];
        assert_eq!(
            Trajectory::try_new(TrajId(0), nan),
            Err(TrajectoryError::NonFinite { index: 0 })
        );
        let inf_t = vec![GpsPoint::new(Point::ORIGIN, f64::INFINITY)];
        assert!(Trajectory::try_new(TrajId(0), inf_t).is_err());
    }

    #[test]
    fn try_new_accepts_degenerate_and_duplicate_timestamps() {
        assert!(Trajectory::try_new(TrajId(0), vec![]).is_ok());
        assert!(Trajectory::try_new(TrajId(0), vec![GpsPoint::new(Point::ORIGIN, 1.0)]).is_ok());
        // Non-decreasing allows equal timestamps — the existing contract.
        let dup = vec![
            GpsPoint::new(Point::new(0.0, 0.0), 5.0),
            GpsPoint::new(Point::new(10.0, 0.0), 5.0),
        ];
        assert!(Trajectory::try_new(TrajId(0), dup).is_ok());
    }

    #[test]
    fn deserialised_disorder_is_caught_by_validate() {
        // A struct literal bypasses `new`, as a decoded record would;
        // ingest must re-validate.
        let t = Trajectory {
            id: TrajId(0),
            points: vec![
                GpsPoint::new(Point::new(0.0, 0.0), 9.0),
                GpsPoint::new(Point::new(1.0, 0.0), 3.0),
            ],
        };
        assert_eq!(
            t.validate(),
            Err(TrajectoryError::TimeDisorder { index: 1 })
        );
    }

    #[test]
    fn sanitize_clean_input_is_untouched() {
        let mut pts = traj().points;
        let orig = pts.clone();
        let r = sanitize_points(&mut pts, &SanitizeLimits::default());
        assert!(!r.any());
        assert_eq!(r.points_dropped(), 0);
        assert_eq!(pts, orig);
    }

    #[test]
    fn sanitize_drops_sorts_and_dedupes() {
        let mut pts = vec![
            GpsPoint::new(Point::new(0.0, 0.0), 10.0),
            GpsPoint::new(Point::new(f64::NAN, 0.0), 11.0), // non-finite coord
            GpsPoint::new(Point::new(50.0, 0.0), 5.0),      // out of order
            GpsPoint::new(Point::new(50.0, 0.0), 5.0),      // exact duplicate
            GpsPoint::new(Point::new(1.0e9, 0.0), 12.0),    // off the planet
            GpsPoint::new(Point::new(60.0, 0.0), f64::INFINITY), // non-finite t
        ];
        let r = sanitize_points(&mut pts, &SanitizeLimits::default());
        assert_eq!(r.dropped_non_finite, 2);
        assert_eq!(r.dropped_out_of_range, 1);
        assert!(r.sorted);
        assert_eq!(r.deduped, 1);
        assert_eq!(r.points_dropped(), 4);
        let times: Vec<f64> = pts.iter().map(|p| p.t).collect();
        assert_eq!(times, vec![5.0, 10.0]);
    }

    #[test]
    fn sanitize_keeps_same_time_different_position() {
        // Equal timestamps at distinct positions are valid data, not
        // duplicates — they must survive (keep both, stable order).
        let mut pts = vec![
            GpsPoint::new(Point::new(0.0, 0.0), 5.0),
            GpsPoint::new(Point::new(10.0, 0.0), 5.0),
        ];
        let r = sanitize_points(&mut pts, &SanitizeLimits::default());
        assert!(!r.any());
        assert_eq!(pts.len(), 2);
    }
}
