//! The historical trajectory archive with its R-tree point index.
//!
//! The paper's preprocessing indexes *all* archived GPS points in an R-tree
//! so that reference search can issue two `φ`-range queries per query-point
//! pair (Section III-A). [`TrajectoryArchive`] owns the trips and the index,
//! and offers the flat binary codec (the dirty-feed format: see
//! [`TrajectoryArchive::from_bytes_tolerant`] and DESIGN §5e).

use crate::types::{sanitize_points, GpsPoint, PointRepairs, SanitizeLimits, TrajId, Trajectory};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hris_geo::{BBox, Point};
use hris_obs::MetricsRegistry;
use hris_rtree::{RTree, Spatial};
use serde::{Deserialize, Serialize};

/// One archived observation: position + time + provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchivePoint {
    /// Observed position.
    pub pos: Point,
    /// Timestamp, seconds.
    pub t: f64,
    /// Which trajectory this observation belongs to.
    pub traj: TrajId,
    /// Index of the observation within its trajectory.
    pub point_idx: u32,
}

impl Spatial for ArchivePoint {
    fn bbox(&self) -> BBox {
        BBox::from_point(self.pos)
    }
}

/// The archive `A` of the problem statement: historical trips plus a
/// point-level spatial index.
#[derive(Debug, Clone)]
pub struct TrajectoryArchive {
    trajectories: Vec<Trajectory>,
    index: RTree<ArchivePoint>,
    num_points: usize,
}

impl TrajectoryArchive {
    /// Builds an archive from trips, reassigning contiguous [`TrajId`]s.
    #[must_use]
    pub fn new(mut trips: Vec<Trajectory>) -> Self {
        let mut points = Vec::new();
        for (i, t) in trips.iter_mut().enumerate() {
            t.id = TrajId(i as u32);
            for (k, p) in t.points.iter().enumerate() {
                points.push(ArchivePoint {
                    pos: p.pos,
                    t: p.t,
                    traj: t.id,
                    point_idx: k as u32,
                });
            }
        }
        let num_points = points.len();
        TrajectoryArchive {
            trajectories: trips,
            index: RTree::bulk_load(points),
            num_points,
        }
    }

    /// An empty archive.
    #[must_use]
    pub fn empty() -> Self {
        TrajectoryArchive::new(Vec::new())
    }

    /// Number of stored trajectories.
    #[inline]
    #[must_use]
    pub fn num_trajectories(&self) -> usize {
        self.trajectories.len()
    }

    /// Number of indexed GPS points across all trajectories.
    #[inline]
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// A trajectory by id.
    #[inline]
    #[must_use]
    pub fn trajectory(&self, id: TrajId) -> &Trajectory {
        &self.trajectories[id.index()]
    }

    /// All stored trajectories.
    #[inline]
    #[must_use]
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// All archived points within `radius` of `center` — the `φ`-range query
    /// of reference-trajectory search.
    #[must_use]
    pub fn points_within(&self, center: Point, radius: f64) -> Vec<&ArchivePoint> {
        self.index
            .query_circle(center, radius, |ap, q| ap.pos.dist(q))
    }

    /// Bounding box of all archived points.
    #[must_use]
    pub fn bbox(&self) -> BBox {
        self.index.bbox()
    }

    // ------------------------------------------------ incremental maintenance

    /// Appends one (already repaired) trajectory, assigning it the next
    /// contiguous [`TrajId`] and inserting its points into the existing
    /// R-tree one by one instead of re-bulk-loading the whole index. This is
    /// the maintenance path behind [`crate::ingest::ArchiveWriter`]; batch
    /// rebuilds should keep using [`TrajectoryArchive::new`].
    pub fn append_trajectory(&mut self, mut trip: Trajectory) -> TrajId {
        let id = TrajId(self.trajectories.len() as u32);
        trip.id = id;
        for (k, p) in trip.points.iter().enumerate() {
            self.index.insert(ArchivePoint {
                pos: p.pos,
                t: p.t,
                traj: id,
                point_idx: k as u32,
            });
        }
        self.num_points += trip.points.len();
        self.trajectories.push(trip);
        id
    }

    /// Evicts the `n` oldest trajectories (lowest ids): batch-deletes their
    /// points from the index with `remove_where`, then remaps the surviving
    /// points' [`TrajId`]s in place so ids stay contiguous from zero.
    /// Returns the number of points removed.
    pub fn evict_front(&mut self, n: usize) -> usize {
        let n = n.min(self.trajectories.len());
        if n == 0 {
            return 0;
        }
        let region = self.index.bbox();
        let removed = self
            .index
            .remove_where(&region, |ap| ap.traj.index() < n)
            .len();
        let shift = n as u32;
        for ap in self.index.items_mut() {
            ap.traj = TrajId(ap.traj.0 - shift);
        }
        self.trajectories.drain(..n);
        for (i, t) in self.trajectories.iter_mut().enumerate() {
            t.id = TrajId(i as u32);
        }
        self.num_points -= removed;
        removed
    }

    // ---------------------------------------------------------- persistence

    /// Serialises the archive's trajectories to a compact binary blob.
    ///
    /// Layout: `u32 trip_count`, then per trip `u32 point_count` followed by
    /// `point_count × (f64 x, f64 y, f64 t)` little-endian records. The
    /// R-tree is rebuilt on load (bulk load is cheap relative to I/O).
    #[must_use]
    pub fn to_bytes(&self) -> Bytes {
        encode_trips(&self.trajectories)
    }

    /// Restores an archive from [`TrajectoryArchive::to_bytes`] output.
    ///
    /// Returns `None` on truncated or malformed input.
    #[must_use]
    pub fn from_bytes(mut data: Bytes) -> Option<Self> {
        if data.remaining() < 4 {
            return None;
        }
        let trips = data.get_u32_le() as usize;
        // Every trip takes at least its 4-byte point count, so a count the
        // remaining bytes cannot hold is malformed; checking it first keeps
        // a hostile count from sizing the allocation.
        if trips > data.remaining() / 4 {
            return None;
        }
        let mut out = Vec::with_capacity(trips);
        for i in 0..trips {
            if data.remaining() < 4 {
                return None;
            }
            let n = data.get_u32_le() as usize;
            if data.remaining() < n * 24 {
                return None;
            }
            let mut pts = Vec::with_capacity(n);
            for _ in 0..n {
                let x = data.get_f64_le();
                let y = data.get_f64_le();
                let t = data.get_f64_le();
                pts.push(GpsPoint::new(Point::new(x, y), t));
            }
            // Guard against corrupted time ordering.
            if !pts.windows(2).all(|w| w[0].t <= w[1].t) {
                return None;
            }
            out.push(Trajectory::new(TrajId(i as u32), pts));
        }
        Some(TrajectoryArchive::new(out))
    }

    // ------------------------------------------------------ tolerant loading

    /// Restores an archive from [`TrajectoryArchive::to_bytes`] output,
    /// repairing what it can and quarantining what it cannot — this loader
    /// never fails. A truncated blob yields every record that parsed before
    /// the cut (`report.truncated` set); dirty records are repaired or
    /// quarantined per [`TolerantLoadOptions`].
    #[must_use]
    pub fn from_bytes_tolerant(mut data: Bytes, opts: &TolerantLoadOptions) -> (Self, LoadReport) {
        let mut report = LoadReport::default();
        let mut raw = Vec::new();
        if data.remaining() < 4 {
            report.truncated = true;
            return Self::build_tolerant(raw, opts, report);
        }
        let trips = data.get_u32_le() as usize;
        for _ in 0..trips {
            if data.remaining() < 4 {
                report.truncated = true;
                break;
            }
            let n = data.get_u32_le() as usize;
            if data.remaining() < n * 24 {
                // Salvage the whole records that did arrive.
                let whole = data.remaining() / 24;
                let mut pts = Vec::with_capacity(whole);
                for _ in 0..whole {
                    let x = data.get_f64_le();
                    let y = data.get_f64_le();
                    let t = data.get_f64_le();
                    pts.push(GpsPoint::new(Point::new(x, y), t));
                }
                raw.push(pts);
                report.truncated = true;
                break;
            }
            let mut pts = Vec::with_capacity(n);
            for _ in 0..n {
                let x = data.get_f64_le();
                let y = data.get_f64_le();
                let t = data.get_f64_le();
                pts.push(GpsPoint::new(Point::new(x, y), t));
            }
            raw.push(pts);
        }
        Self::build_tolerant(raw, opts, report)
    }

    /// Shared repair/quarantine pass over raw per-trip point sequences.
    fn build_tolerant(
        raw: Vec<Vec<GpsPoint>>,
        opts: &TolerantLoadOptions,
        mut report: LoadReport,
    ) -> (TrajectoryArchive, LoadReport) {
        let mut kept = Vec::new();
        for mut pts in raw {
            let r = sanitize_points(&mut pts, &opts.limits);
            let teleports = strip_teleports(&mut pts, opts.max_speed_mps);
            if r.sorted {
                report.trajectories_resorted += 1;
            }
            report.repairs.merge(&r);
            report.teleports_removed += teleports;
            report.points_quarantined += r.points_dropped() + teleports;
            if pts.is_empty() {
                report.trajectories_quarantined += 1;
                continue;
            }
            report.points_loaded += pts.len();
            // Sanitization restored time order, so the checked constructor
            // cannot panic here.
            kept.push(Trajectory::new(TrajId(kept.len() as u32), pts));
        }
        report.trajectories_loaded = kept.len();
        (TrajectoryArchive::new(kept), report)
    }
}

/// Serialises trips in the [`TrajectoryArchive::to_bytes`] layout without
/// building an archive (and thus without indexing — corrupted trips with
/// NaN coordinates must be encodable for fault-injection tests).
#[must_use]
pub fn encode_trips(trips: &[Trajectory]) -> Bytes {
    let n: usize = trips.iter().map(Trajectory::len).sum();
    let mut buf = BytesMut::with_capacity(8 + n * 24);
    buf.put_u32_le(trips.len() as u32);
    for t in trips {
        buf.put_u32_le(t.points.len() as u32);
        for p in &t.points {
            buf.put_f64_le(p.pos.x);
            buf.put_f64_le(p.pos.y);
            buf.put_f64_le(p.t);
        }
    }
    buf.freeze()
}

/// Repair limits for tolerant archive loading.
#[derive(Debug, Clone, PartialEq)]
pub struct TolerantLoadOptions {
    /// Magnitude limits for coordinates/timestamps.
    pub limits: SanitizeLimits,
    /// Maximum plausible speed between consecutive observations, m/s.
    /// Hops implying more are GPS teleports; the offending point is dropped.
    /// 150 m/s (540 km/h) clears any road vehicle by a wide margin.
    pub max_speed_mps: f64,
}

impl Default for TolerantLoadOptions {
    fn default() -> Self {
        TolerantLoadOptions {
            limits: SanitizeLimits::default(),
            max_speed_mps: 150.0,
        }
    }
}

/// What tolerant loading did: per-archive repair/quarantine accounting.
/// Serialises to JSON for operator visibility (golden-pinned schema).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// Trajectories stored after repair.
    pub trajectories_loaded: usize,
    /// Trajectories dropped entirely (no usable points remained).
    pub trajectories_quarantined: usize,
    /// Points stored after repair.
    pub points_loaded: usize,
    /// Points dropped across all repair rules (non-finite, out-of-range,
    /// duplicate records, teleports).
    pub points_quarantined: usize,
    /// Points dropped by the speed filter specifically.
    pub teleports_removed: usize,
    /// Trajectories whose timestamps had to be re-sorted.
    pub trajectories_resorted: usize,
    /// Archive-wide [`sanitize_points`] totals.
    pub repairs: PointRepairs,
    /// Binary stream ended mid-record; everything before the cut was kept.
    pub truncated: bool,
    /// Input did not parse at all; nothing was loaded. The flat binary
    /// loader salvages any prefix and reports a bad blob as `truncated`, so
    /// it never sets this; the field stays in the golden-pinned schema.
    pub malformed: bool,
}

impl LoadReport {
    /// `true` when the load needed no repairs or quarantine at all.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.trajectories_quarantined == 0
            && self.points_quarantined == 0
            && self.trajectories_resorted == 0
            && !self.truncated
            && !self.malformed
    }

    /// The report as pretty JSON (schema pinned by a golden test).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("LoadReport serialises")
    }

    /// Publishes the quarantine counters onto a metrics registry
    /// (`hris_records_quarantined_total` and friends; counters are
    /// registered even when zero so dashboards always see the family).
    pub fn record_on(&self, registry: &MetricsRegistry) {
        registry
            .counter(
                "hris_records_quarantined_total",
                "Archive trajectories dropped entirely by tolerant loading.",
            )
            .add(self.trajectories_quarantined as u64);
        registry
            .counter(
                "hris_points_quarantined_total",
                "Archive points dropped by tolerant-loading repair rules.",
            )
            .add(self.points_quarantined as u64);
        registry
            .counter(
                "hris_archive_trajectories_loaded_total",
                "Archive trajectories stored after tolerant loading.",
            )
            .add(self.trajectories_loaded as u64);
        registry
            .counter(
                "hris_archive_loads_truncated_total",
                "Tolerant loads that hit a truncated input stream.",
            )
            .add(u64::from(self.truncated));
    }
}

/// Drops observations whose implied speed from the previously kept point
/// exceeds `max_speed_mps` (teleport spikes). Anchored greedily at the first
/// point; if that anchor itself is the outlier (more than half the trip
/// would be dropped), the scan retries anchored at the second point and
/// keeps the better outcome. Duplicate timestamps use the same `dt ≥ 1 s`
/// floor as local inference, so same-second observations a few metres apart
/// survive. Returns the number of points removed.
pub(crate) fn strip_teleports(pts: &mut Vec<GpsPoint>, max_speed_mps: f64) -> usize {
    fn greedy(pts: &[GpsPoint], max_speed_mps: f64) -> Vec<GpsPoint> {
        let mut kept: Vec<GpsPoint> = Vec::with_capacity(pts.len());
        for p in pts {
            match kept.last() {
                Some(prev) => {
                    let dt = (p.t - prev.t).max(1.0);
                    if prev.dist(p) / dt <= max_speed_mps {
                        kept.push(*p);
                    }
                }
                None => kept.push(*p),
            }
        }
        kept
    }
    if pts.len() < 2 {
        return 0;
    }
    let first = greedy(pts, max_speed_mps);
    let kept = if first.len() * 2 < pts.len() {
        let retry = greedy(&pts[1..], max_speed_mps);
        if retry.len() > first.len() {
            retry
        } else {
            first
        }
    } else {
        first
    };
    let removed = pts.len() - kept.len();
    *pts = kept;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn archive() -> TrajectoryArchive {
        let t1 = Trajectory::new(
            TrajId(99), // id is reassigned by the archive
            vec![
                GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                GpsPoint::new(Point::new(100.0, 0.0), 10.0),
            ],
        );
        let t2 = Trajectory::new(
            TrajId(7),
            vec![
                GpsPoint::new(Point::new(0.0, 100.0), 5.0),
                GpsPoint::new(Point::new(100.0, 100.0), 15.0),
                GpsPoint::new(Point::new(200.0, 100.0), 25.0),
            ],
        );
        TrajectoryArchive::new(vec![t1, t2])
    }

    #[test]
    fn ids_are_reassigned_contiguously() {
        let a = archive();
        assert_eq!(a.num_trajectories(), 2);
        assert_eq!(a.trajectory(TrajId(0)).id, TrajId(0));
        assert_eq!(a.trajectory(TrajId(1)).id, TrajId(1));
        assert_eq!(a.num_points(), 5);
    }

    #[test]
    fn range_query_returns_provenance() {
        let a = archive();
        let hits = a.points_within(Point::new(0.0, 50.0), 60.0);
        assert_eq!(hits.len(), 2);
        let mut trajs: Vec<TrajId> = hits.iter().map(|h| h.traj).collect();
        trajs.sort();
        assert_eq!(trajs, vec![TrajId(0), TrajId(1)]);
        for h in hits {
            // Back-reference resolves to the same coordinates.
            let orig = a.trajectory(h.traj).points[h.point_idx as usize];
            assert_eq!(orig.pos, h.pos);
            assert_eq!(orig.t, h.t);
        }
    }

    #[test]
    fn empty_archive() {
        let a = TrajectoryArchive::empty();
        assert_eq!(a.num_trajectories(), 0);
        assert_eq!(a.num_points(), 0);
        assert!(a.points_within(Point::ORIGIN, 1000.0).is_empty());
    }

    #[test]
    fn binary_roundtrip() {
        let a = archive();
        let blob = a.to_bytes();
        let b = TrajectoryArchive::from_bytes(blob).unwrap();
        assert_eq!(b.num_trajectories(), a.num_trajectories());
        assert_eq!(b.num_points(), a.num_points());
        for (x, y) in a.trajectories().iter().zip(b.trajectories().iter()) {
            assert_eq!(x.points, y.points);
        }
    }

    #[test]
    fn truncated_blob_rejected() {
        let a = archive();
        let blob = a.to_bytes();
        let cut = blob.slice(0..blob.len() - 7);
        assert!(TrajectoryArchive::from_bytes(cut).is_none());
        assert!(TrajectoryArchive::from_bytes(Bytes::new()).is_none());
    }

    #[test]
    fn oversized_trip_count_is_rejected_not_allocated() {
        // A 4-byte blob claiming u32::MAX trips must not size a vector of
        // u32::MAX trajectories before noticing there is no data.
        let hostile = Bytes::from_vec(vec![0xff; 4]);
        assert!(TrajectoryArchive::from_bytes(hostile.clone()).is_none());
        let (a, report) = TrajectoryArchive::from_bytes_tolerant(hostile, &opts());
        assert!(report.truncated);
        assert_eq!(a.num_trajectories(), 0);
    }

    // -------------------------------------------- incremental maintenance

    #[test]
    fn append_trajectory_maintains_index_incrementally() {
        let mut a = archive();
        let id = a.append_trajectory(Trajectory::new(
            TrajId(42), // reassigned
            vec![
                GpsPoint::new(Point::new(500.0, 500.0), 0.0),
                GpsPoint::new(Point::new(600.0, 500.0), 10.0),
            ],
        ));
        assert_eq!(id, TrajId(2));
        assert_eq!(a.num_trajectories(), 3);
        assert_eq!(a.num_points(), 7);
        assert_eq!(a.trajectory(id).id, id);
        // The new points are query-visible with correct provenance.
        let hits = a.points_within(Point::new(550.0, 500.0), 60.0);
        assert_eq!(hits.len(), 2);
        for h in hits {
            assert_eq!(h.traj, id);
            let orig = a.trajectory(h.traj).points[h.point_idx as usize];
            assert_eq!(orig.pos, h.pos);
        }
    }

    #[test]
    fn evict_front_remaps_ids_contiguously() {
        let mut a = archive();
        a.append_trajectory(Trajectory::new(
            TrajId(0),
            vec![GpsPoint::new(Point::new(500.0, 500.0), 0.0)],
        ));
        let removed = a.evict_front(1); // drops the 2-point trip
        assert_eq!(removed, 2);
        assert_eq!(a.num_trajectories(), 2);
        assert_eq!(a.num_points(), 4);
        for (i, t) in a.trajectories().iter().enumerate() {
            assert_eq!(t.id, TrajId(i as u32));
        }
        // Index provenance was remapped along with the trips.
        for h in a.points_within(Point::new(100.0, 100.0), 1e6) {
            let orig = a.trajectory(h.traj).points[h.point_idx as usize];
            assert_eq!(orig.pos, h.pos);
            assert_eq!(orig.t, h.t);
        }
        // Evicting more than remains empties the archive without panicking.
        assert_eq!(a.evict_front(10), 4);
        assert_eq!(a.num_trajectories(), 0);
        assert_eq!(a.num_points(), 0);
        assert_eq!(a.evict_front(1), 0);
    }

    #[test]
    fn incremental_build_matches_bulk_build() {
        let bulk = archive();
        let mut inc = TrajectoryArchive::empty();
        for t in bulk.trajectories() {
            inc.append_trajectory(t.clone());
        }
        assert_eq!(inc.num_trajectories(), bulk.num_trajectories());
        assert_eq!(inc.num_points(), bulk.num_points());
        // Same range-query result *sets* (order may differ between a
        // bulk-loaded and an insert-built tree).
        for (c, r) in [
            (Point::new(0.0, 50.0), 60.0),
            (Point::new(100.0, 100.0), 250.0),
            (Point::ORIGIN, 1e6),
        ] {
            let key = |ap: &&ArchivePoint| (ap.traj, ap.point_idx);
            let mut a: Vec<_> = bulk.points_within(c, r);
            let mut b: Vec<_> = inc.points_within(c, r);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(
                a.iter().map(key).collect::<Vec<_>>(),
                b.iter().map(key).collect::<Vec<_>>()
            );
        }
    }

    // ------------------------------------------------- tolerant loading

    fn opts() -> TolerantLoadOptions {
        TolerantLoadOptions::default()
    }

    #[test]
    fn tolerant_load_of_clean_blob_is_lossless() {
        let a = archive();
        let (b, report) = TrajectoryArchive::from_bytes_tolerant(a.to_bytes(), &opts());
        assert!(report.clean(), "clean blob produced repairs: {report:?}");
        assert_eq!(report.trajectories_loaded, a.num_trajectories());
        assert_eq!(report.points_loaded, a.num_points());
        for (x, y) in a.trajectories().iter().zip(b.trajectories()) {
            assert_eq!(x.points, y.points);
        }
    }

    #[test]
    fn out_of_order_timestamps_are_repaired_not_rejected() {
        let dirty = Trajectory::from_unchecked(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(0.0, 0.0), 20.0),
                GpsPoint::new(Point::new(100.0, 0.0), 10.0),
            ],
        );
        let blob = encode_trips(&[dirty]);
        assert!(TrajectoryArchive::from_bytes(blob.clone()).is_none());
        let (a, report) = TrajectoryArchive::from_bytes_tolerant(blob, &opts());
        assert_eq!(report.trajectories_resorted, 1);
        assert_eq!(report.trajectories_loaded, 1);
        assert_eq!(report.trajectories_quarantined, 0);
        let times: Vec<f64> = a.trajectories()[0].points.iter().map(|p| p.t).collect();
        assert_eq!(times, vec![10.0, 20.0]);
    }

    #[test]
    fn nan_and_out_of_range_points_are_quarantined() {
        let dirty = Trajectory::from_unchecked(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                GpsPoint::new(Point::new(f64::NAN, 0.0), 10.0),
                GpsPoint::new(Point::new(5.0e8, 0.0), 20.0),
                GpsPoint::new(Point::new(100.0, 0.0), 30.0),
            ],
        );
        let (a, report) = TrajectoryArchive::from_bytes_tolerant(encode_trips(&[dirty]), &opts());
        assert_eq!(report.repairs.dropped_non_finite, 1);
        assert_eq!(report.repairs.dropped_out_of_range, 1);
        assert_eq!(report.points_quarantined, 2);
        assert_eq!(report.points_loaded, 2);
        assert_eq!(a.trajectories()[0].points.len(), 2);
    }

    #[test]
    fn duplicate_records_are_deduped() {
        let p = GpsPoint::new(Point::new(0.0, 0.0), 5.0);
        let dirty = Trajectory::from_unchecked(
            TrajId(0),
            vec![p, p, GpsPoint::new(Point::new(50.0, 0.0), 10.0)],
        );
        let (a, report) = TrajectoryArchive::from_bytes_tolerant(encode_trips(&[dirty]), &opts());
        assert_eq!(report.repairs.deduped, 1);
        assert_eq!(a.trajectories()[0].points.len(), 2);
    }

    #[test]
    fn teleport_spike_is_removed() {
        let dirty = Trajectory::from_unchecked(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                GpsPoint::new(Point::new(200_000.0, 0.0), 30.0), // 6.6 km/s spike
                GpsPoint::new(Point::new(200.0, 0.0), 60.0),
            ],
        );
        let (a, report) = TrajectoryArchive::from_bytes_tolerant(encode_trips(&[dirty]), &opts());
        assert_eq!(report.teleports_removed, 1);
        assert_eq!(a.trajectories()[0].points.len(), 2);
        // A teleported *first* point is the outlier, not the anchor: the
        // retry pass keeps the rest of the trip.
        let head_bad = Trajectory::from_unchecked(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(300_000.0, 0.0), 0.0),
                GpsPoint::new(Point::new(0.0, 0.0), 30.0),
                GpsPoint::new(Point::new(100.0, 0.0), 60.0),
                GpsPoint::new(Point::new(200.0, 0.0), 90.0),
            ],
        );
        let (a, report) =
            TrajectoryArchive::from_bytes_tolerant(encode_trips(&[head_bad]), &opts());
        assert_eq!(report.teleports_removed, 1);
        assert_eq!(a.trajectories()[0].points.len(), 3);
        assert_eq!(a.trajectories()[0].points[0].pos.x, 0.0);
    }

    #[test]
    fn empty_trip_is_quarantined_single_point_kept() {
        let empty = Trajectory::from_unchecked(TrajId(0), vec![]);
        let single = Trajectory::from_unchecked(TrajId(1), vec![GpsPoint::new(Point::ORIGIN, 0.0)]);
        let (a, report) =
            TrajectoryArchive::from_bytes_tolerant(encode_trips(&[empty, single]), &opts());
        assert_eq!(report.trajectories_quarantined, 1);
        assert_eq!(report.trajectories_loaded, 1);
        assert_eq!(a.num_trajectories(), 1);
        assert_eq!(a.trajectories()[0].points.len(), 1);
    }

    #[test]
    fn all_nan_trip_is_quarantined_entirely() {
        let garbage = Trajectory::from_unchecked(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(f64::NAN, f64::NAN), f64::NAN),
                GpsPoint::new(Point::new(f64::NAN, 0.0), 1.0),
            ],
        );
        let (a, report) = TrajectoryArchive::from_bytes_tolerant(encode_trips(&[garbage]), &opts());
        assert_eq!(report.trajectories_quarantined, 1);
        assert_eq!(a.num_trajectories(), 0);
    }

    #[test]
    fn truncated_blob_salvages_prefix() {
        let a = archive();
        let blob = a.to_bytes();
        // Cut mid-record of the second trip: trip 0 (2 points) survives,
        // trip 1 keeps only its whole records before the cut.
        let cut = blob.slice(0..blob.len() - 7);
        assert!(TrajectoryArchive::from_bytes(cut.clone()).is_none());
        let (b, report) = TrajectoryArchive::from_bytes_tolerant(cut, &opts());
        assert!(report.truncated);
        assert_eq!(b.num_trajectories(), 2);
        assert_eq!(b.trajectories()[0].points, a.trajectories()[0].points);
        assert_eq!(b.trajectories()[1].points.len(), 2); // third record lost
        let (c, report) = TrajectoryArchive::from_bytes_tolerant(Bytes::new(), &opts());
        assert!(report.truncated);
        assert_eq!(c.num_trajectories(), 0);
    }

    #[test]
    fn load_report_records_counters_even_at_zero() {
        let registry = MetricsRegistry::new();
        LoadReport::default().record_on(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("hris_records_quarantined_total"), Some(0));
        assert_eq!(snap.counter("hris_points_quarantined_total"), Some(0));
        let report = LoadReport {
            trajectories_quarantined: 3,
            points_quarantined: 17,
            truncated: true,
            ..LoadReport::default()
        };
        report.record_on(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("hris_records_quarantined_total"), Some(3));
        assert_eq!(snap.counter("hris_points_quarantined_total"), Some(17));
        assert_eq!(snap.counter("hris_archive_loads_truncated_total"), Some(1));
    }
}
