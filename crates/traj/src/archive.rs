//! The historical trajectory archive with its R-tree point index.
//!
//! The paper's preprocessing indexes *all* archived GPS points in an R-tree
//! so that reference search can issue two `φ`-range queries per query-point
//! pair (Section III-A). [`TrajectoryArchive`] owns the trips and the index,
//! and offers the flat binary codec (the dirty-feed format: see
//! [`TrajectoryArchive::from_bytes_tolerant`] and DESIGN §5e).

use crate::snapshot::{put_u32, put_u64, read_u32, read_u64};
use crate::types::{sanitize_points, GpsPoint, PointRepairs, SanitizeLimits, TrajId, Trajectory};
use hris_geo::{BBox, Point};
use hris_obs::MetricsRegistry;
use hris_roadnet::{SlotPool, SparseSlots};
use hris_rtree::{RTree, Spatial};
use serde_json::{json, Value};
use std::sync::Arc;

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
    /// Trip-indexed per-call tables ([`TrajectoryArchive::with_trip_slots`]).
    trip_slots: SlotPool<(f64, u32)>,
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
        TrajectoryArchive {
            trajectories: trips,
            index: RTree::bulk_load(points),
            trip_slots: SlotPool::default(),
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
        self.index.len()
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

    /// Runs `f` on a pooled trip-indexed table (vacant slots read
    /// `(f64::INFINITY, u32::MAX)`) with no trip touched: a per-pair table
    /// costs the trips the pair touches, not the whole archive.
    pub fn with_trip_slots<R>(&self, f: impl FnOnce(&mut SparseSlots<(f64, u32)>) -> R) -> R {
        self.trip_slots
            .with(self.trajectories.len(), (f64::INFINITY, u32::MAX), f)
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

    // ---------------------------------------------------------- persistence

    /// Serialises the archive's trajectories to a compact binary blob.
    ///
    /// Layout: `u32 trip_count`, then per trip `u32 point_count` followed by
    /// `point_count × (f64 x, f64 y, f64 t)` little-endian records. The
    /// R-tree is rebuilt on load (bulk load is cheap relative to I/O).
    #[must_use]
    pub fn to_bytes(&self) -> Arc<[u8]> {
        encode_trips(&self.trajectories)
    }

    /// Restores an archive from [`TrajectoryArchive::to_bytes`] output.
    ///
    /// Returns `None` on truncated or malformed input.
    #[must_use]
    pub fn from_bytes(data: Arc<[u8]>) -> Option<Self> {
        let data = &data[..];
        if data.len() < 4 {
            return None;
        }
        let trips = read_u32(data, 0) as usize;
        let mut pos = 4;
        // Every trip takes at least its 4-byte point count, so a count the
        // remaining bytes cannot hold is malformed; checking it first keeps
        // a hostile count from sizing the allocation.
        if trips > (data.len() - pos) / 4 {
            return None;
        }
        let mut out = Vec::with_capacity(trips);
        for i in 0..trips {
            if data.len() - pos < 4 {
                return None;
            }
            let n = read_u32(data, pos) as usize;
            pos += 4;
            if data.len() - pos < n * 24 {
                return None;
            }
            let pts = read_records(data, &mut pos, n);
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
    pub fn from_bytes_tolerant(data: Arc<[u8]>, opts: &TolerantLoadOptions) -> (Self, LoadReport) {
        let data = &data[..];
        let mut report = LoadReport::default();
        let mut raw = Vec::new();
        if data.len() < 4 {
            report.truncated = true;
            return Self::build_tolerant(raw, opts, report);
        }
        let trips = read_u32(data, 0) as usize;
        let mut pos = 4;
        for _ in 0..trips {
            if data.len() - pos < 4 {
                report.truncated = true;
                break;
            }
            let n = read_u32(data, pos) as usize;
            pos += 4;
            if data.len() - pos < n * 24 {
                // Salvage the whole records that did arrive.
                let whole = (data.len() - pos) / 24;
                raw.push(read_records(data, &mut pos, whole));
                report.truncated = true;
                break;
            }
            raw.push(read_records(data, &mut pos, n));
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
pub fn encode_trips(trips: &[Trajectory]) -> Arc<[u8]> {
    let n: usize = trips.iter().map(Trajectory::len).sum();
    let mut buf = Vec::with_capacity(8 + n * 24);
    put_u32(&mut buf, trips.len() as u32);
    for t in trips {
        put_u32(&mut buf, t.points.len() as u32);
        for p in &t.points {
            put_u64(&mut buf, p.pos.x.to_bits());
            put_u64(&mut buf, p.pos.y.to_bits());
            put_u64(&mut buf, p.t.to_bits());
        }
    }
    Arc::from(buf)
}

/// Reads `n` `(x, y, t)` records at `*pos`, advancing it; the caller has
/// checked that they fit.
fn read_records(data: &[u8], pos: &mut usize, n: usize) -> Vec<GpsPoint> {
    let mut pts = Vec::with_capacity(n);
    for _ in 0..n {
        let [x, y, t] = [0, 8, 16].map(|off| f64::from_bits(read_u64(data, *pos + off)));
        pts.push(GpsPoint::new(Point::new(x, y), t));
        *pos += 24;
    }
    pts
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
/// Renders to JSON for operator visibility (golden-pinned schema).
#[derive(Debug, Clone, PartialEq, Default)]
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

    /// The report as one JSON object, keys in field order.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let r = &self.repairs;
        json!({
            "trajectories_loaded": self.trajectories_loaded,
            "trajectories_quarantined": self.trajectories_quarantined,
            "points_loaded": self.points_loaded,
            "points_quarantined": self.points_quarantined,
            "teleports_removed": self.teleports_removed,
            "trajectories_resorted": self.trajectories_resorted,
            "repairs": {
                "dropped_non_finite": r.dropped_non_finite,
                "dropped_out_of_range": r.dropped_out_of_range,
                "sorted": r.sorted,
                "deduped": r.deduped,
            },
            "truncated": self.truncated,
            "malformed": self.malformed,
        })
    }

    /// The report as pretty JSON (schema pinned by a golden test).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().render_pretty()
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
        let cut = Arc::from(&blob[..blob.len() - 7]);
        assert!(TrajectoryArchive::from_bytes(cut).is_none());
        assert!(TrajectoryArchive::from_bytes(Arc::from([])).is_none());
    }

    #[test]
    fn oversized_trip_count_is_rejected_not_allocated() {
        // A 4-byte blob claiming u32::MAX trips must not size a vector of
        // u32::MAX trajectories before noticing there is no data.
        let hostile: Arc<[u8]> = Arc::from([0xff; 4]);
        assert!(TrajectoryArchive::from_bytes(hostile.clone()).is_none());
        let (a, report) = TrajectoryArchive::from_bytes_tolerant(hostile, &opts());
        assert!(report.truncated);
        assert_eq!(a.num_trajectories(), 0);
    }

    #[test]
    fn incremental_build_matches_bulk_build() {
        // An archive grown trip by trip through the live writer answers
        // range queries exactly like one bulk-loaded from the same trips:
        // same hits, in the same order.
        let bulk = archive();
        let mut writer = crate::ingest::ArchiveWriter::new(TrajectoryArchive::empty());
        for t in bulk.trajectories() {
            writer.append(t.clone()).unwrap();
            writer.publish();
        }
        let inc = writer.snapshot();
        assert_eq!(inc.num_trajectories(), bulk.num_trajectories());
        assert_eq!(inc.num_points(), bulk.num_points());
        for (c, r) in [
            (Point::new(0.0, 50.0), 60.0),
            (Point::new(100.0, 100.0), 250.0),
            (Point::ORIGIN, 1e6),
        ] {
            assert_eq!(bulk.points_within(c, r), inc.points_within(c, r));
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
        let cut: Arc<[u8]> = Arc::from(&blob[..blob.len() - 7]);
        assert!(TrajectoryArchive::from_bytes(cut.clone()).is_none());
        let (b, report) = TrajectoryArchive::from_bytes_tolerant(cut, &opts());
        assert!(report.truncated);
        assert_eq!(b.num_trajectories(), 2);
        assert_eq!(b.trajectories()[0].points, a.trajectories()[0].points);
        assert_eq!(b.trajectories()[1].points.len(), 2); // third record lost
        let (c, report) = TrajectoryArchive::from_bytes_tolerant(Arc::from([]), &opts());
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
