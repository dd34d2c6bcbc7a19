//! Live archive ingestion with epoch-versioned snapshots.
//!
//! The paper's archive is *historical*, but the corpus it models keeps
//! growing: new taxi traces arrive continuously, and a serving system
//! cannot stop the world while the archive is re-indexed. This module
//! provides the write side of that story:
//!
//! * [`ArchiveWriter`] — single-owner writer that appends new trajectories
//!   through the same repair/quarantine rules as tolerant loading
//!   ([`sanitize_points`] + teleport stripping) and publishes immutable
//!   epoch-numbered snapshots. Each published epoch is built once, the way
//!   a cold load builds one ([`TrajectoryArchive::new`]), and never edited.
//! * [`ArchiveSnapshot`] — one frozen epoch: an archive plus its epoch
//!   number. Readers that hold an `Arc<ArchiveSnapshot>` keep that exact
//!   archive alive for as long as they need it, regardless of later
//!   publishes.
//! * [`SnapshotReader`] — a cheap, cloneable, `Send + Sync` handle that
//!   always yields the latest published snapshot. The hand-off is a single
//!   `Arc` clone under a read lock; in-flight queries are never blocked by
//!   an ingest batch, only by the pointer swap itself.
//!
//! # Epoch semantics
//!
//! Epochs are dense and monotonic: the initial archive is epoch 0 and every
//! [`ArchiveWriter::publish`] that actually changed the archive bumps the
//! epoch by one. Appends are invisible until published — a reader observes
//! either all of an epoch's appends or none of them, never a half-applied
//! batch. Consumers key caches by epoch: same epoch ⇒ identical archive.

use crate::archive::{strip_teleports, TolerantLoadOptions, TrajectoryArchive};
use crate::types::{sanitize_points, PointRepairs, TrajId, Trajectory};
use hris_obs::{Counter, Gauge, Histogram, MetricsRegistry, FINE_TIME_BOUNDS};
use std::ops::Deref;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// One immutable published epoch of the trajectory archive.
///
/// Derefs to [`TrajectoryArchive`], so every read-side archive API works on
/// a snapshot directly.
#[derive(Debug)]
pub struct ArchiveSnapshot {
    epoch: u64,
    archive: TrajectoryArchive,
    published_at: Instant,
}

impl ArchiveSnapshot {
    /// Wraps an archive as a snapshot with the given epoch number,
    /// stamped as published *now*.
    #[must_use]
    pub fn new(epoch: u64, archive: TrajectoryArchive) -> Self {
        ArchiveSnapshot {
            epoch,
            archive,
            published_at: Instant::now(),
        }
    }

    /// Seconds since this snapshot was published. The staleness signal
    /// behind the `hris_snapshot_age_seconds` watchdog gauge: on a healthy
    /// live pipeline it saw-tooths under the publish interval; a growing
    /// value means the ingest thread stopped publishing.
    #[must_use]
    pub fn age_seconds(&self) -> f64 {
        self.published_at.elapsed().as_secs_f64()
    }

    /// The epoch number: dense, monotonic, 0 for the writer's initial
    /// archive. Equal epochs from one writer ⇒ identical archives.
    #[inline]
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen archive.
    #[inline]
    #[must_use]
    pub fn archive(&self) -> &TrajectoryArchive {
        &self.archive
    }

    /// Encodes this epoch into the columnar snapshot format
    /// ([`crate::snapshot`]). The epoch number travels in the header, so
    /// a reader on the other side of an mmap sees exactly this epoch.
    #[must_use]
    pub fn to_columnar(&self) -> Arc<[u8]> {
        crate::snapshot::encode_snapshot(&self.archive, self.epoch)
    }
}

impl Deref for ArchiveSnapshot {
    type Target = TrajectoryArchive;

    fn deref(&self) -> &TrajectoryArchive {
        &self.archive
    }
}

type Slot = Arc<RwLock<Arc<ArchiveSnapshot>>>;

/// Read-side handle onto a writer's published snapshots.
///
/// Cloning is cheap (one `Arc`); clones observe the same slot. The reader
/// outlives the writer: if the writer is dropped, [`SnapshotReader::latest`]
/// keeps returning the last published epoch.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    slot: Slot,
}

impl SnapshotReader {
    /// The most recently published snapshot.
    #[must_use]
    pub fn latest(&self) -> Arc<ArchiveSnapshot> {
        Arc::clone(&self.slot.read().expect("snapshot slot"))
    }

    /// The current published epoch number (shorthand for
    /// `self.latest().epoch()`).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.slot.read().expect("snapshot slot").epoch
    }
}

/// Ingest policy for an [`ArchiveWriter`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestOptions {
    /// Repair/quarantine rules applied to every appended trip — the same
    /// rules as [`TrajectoryArchive::from_bytes_tolerant`].
    pub tolerant: TolerantLoadOptions,
    /// When set, [`ArchiveWriter::publish`] evicts the oldest trajectories
    /// so at most this many remain (a sliding-window archive). `None`
    /// retains everything.
    pub retain_max_trajectories: Option<usize>,
}

/// Cumulative accounting of everything a writer ingested, quarantined,
/// evicted and published. Serialises to JSON for operator visibility.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestReport {
    /// Trips appended to the working archive after repair.
    pub trajectories_appended: usize,
    /// Trips rejected entirely (no usable points remained after repair).
    pub trajectories_quarantined: usize,
    /// Points appended after repair.
    pub points_appended: usize,
    /// Points dropped across all repair rules.
    pub points_quarantined: usize,
    /// Points dropped by the speed filter specifically.
    pub teleports_removed: usize,
    /// Trips whose timestamps had to be re-sorted on ingest.
    pub trajectories_resorted: usize,
    /// Writer-wide [`sanitize_points`] totals.
    pub repairs: PointRepairs,
    /// Trips evicted by the retention policy.
    pub trajectories_evicted: usize,
    /// Points evicted by the retention policy.
    pub points_evicted: usize,
    /// Snapshots published (excluding the initial epoch 0).
    pub epochs_published: usize,
}

/// Ingest metric handles, registered once on [`ArchiveWriter::observe`].
#[derive(Debug)]
struct IngestObs {
    appended: Counter,
    quarantined: Counter,
    points_appended: Counter,
    points_quarantined: Counter,
    evicted: Counter,
    epoch: Gauge,
    swap_seconds: Histogram,
}

impl IngestObs {
    fn new(registry: &MetricsRegistry) -> Self {
        IngestObs {
            appended: registry.counter(
                "hris_ingest_appended_total",
                "Trajectories appended to the live archive after repair.",
            ),
            quarantined: registry.counter(
                "hris_ingest_quarantined_total",
                "Trajectories rejected on ingest (no usable points after repair).",
            ),
            points_appended: registry.counter(
                "hris_ingest_points_appended_total",
                "GPS points appended to the live archive after repair.",
            ),
            points_quarantined: registry.counter(
                "hris_ingest_points_quarantined_total",
                "GPS points dropped by ingest repair rules.",
            ),
            evicted: registry.counter(
                "hris_ingest_evicted_total",
                "Trajectories evicted by the retention policy.",
            ),
            epoch: registry.gauge(
                "hris_archive_epoch",
                "Epoch number of the latest published archive snapshot.",
            ),
            swap_seconds: registry.histogram(
                "hris_snapshot_swap_seconds",
                "Wall time to publish a snapshot (archive build + slot swap).",
                &FINE_TIME_BOUNDS,
            ),
        }
    }
}

/// The single-owner write side of a live archive.
///
/// The writer owns the retained trips, oldest first, and a shared *slot*
/// holding the latest published [`ArchiveSnapshot`]. Appends stay private
/// to the writer until [`ArchiveWriter::publish`] bulk-loads the retained
/// trips into a fresh immutable snapshot and swaps it into the slot — an
/// `O(n log n)` index build, paid by the ingest thread, so the read side
/// never pays more than an `Arc` exchange.
#[derive(Debug)]
pub struct ArchiveWriter {
    trips: Vec<Trajectory>,
    slot: Slot,
    epoch: u64,
    dirty: bool,
    opts: IngestOptions,
    report: IngestReport,
    obs: Option<IngestObs>,
}

impl ArchiveWriter {
    /// A writer over `initial`, published immediately as epoch 0 with
    /// default [`IngestOptions`].
    #[must_use]
    pub fn new(initial: TrajectoryArchive) -> Self {
        ArchiveWriter::with_options(initial, IngestOptions::default())
    }

    /// A writer over `initial` (published as epoch 0) with explicit policy.
    #[must_use]
    pub fn with_options(initial: TrajectoryArchive, opts: IngestOptions) -> Self {
        let trips = initial.trajectories().to_vec();
        let snapshot = Arc::new(ArchiveSnapshot::new(0, initial));
        ArchiveWriter {
            trips,
            slot: Arc::new(RwLock::new(snapshot)),
            epoch: 0,
            dirty: false,
            opts,
            report: IngestReport::default(),
            obs: None,
        }
    }

    /// Registers the ingest metric family on `registry` and starts
    /// recording into it (`hris_ingest_*`, `hris_archive_epoch`,
    /// `hris_snapshot_swap_seconds`). Counters appear immediately, even at
    /// zero, so dashboards always see the family.
    pub fn observe(&mut self, registry: &MetricsRegistry) {
        let obs = IngestObs::new(registry);
        obs.epoch.set(self.epoch as i64);
        self.obs = Some(obs);
    }

    /// A read-side handle onto this writer's published snapshots.
    #[must_use]
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            slot: Arc::clone(&self.slot),
        }
    }

    /// The latest *published* snapshot (appends since the last
    /// [`ArchiveWriter::publish`] are not in it).
    #[must_use]
    pub fn snapshot(&self) -> Arc<ArchiveSnapshot> {
        Arc::clone(&self.slot.read().expect("snapshot slot"))
    }

    /// The latest published epoch number.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative ingest accounting since construction.
    #[must_use]
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// Appends one trip through the repair/quarantine path. Returns the id
    /// it will carry in the next published epoch if retention evicts
    /// nothing first, or `None` if the whole trip was quarantined. The
    /// append is invisible to readers until the next
    /// [`ArchiveWriter::publish`].
    pub fn append(&mut self, trip: Trajectory) -> Option<TrajId> {
        let mut pts = trip.points;
        let r = sanitize_points(&mut pts, &self.opts.tolerant.limits);
        let teleports = strip_teleports(&mut pts, self.opts.tolerant.max_speed_mps);
        if r.sorted {
            self.report.trajectories_resorted += 1;
        }
        self.report.repairs.merge(&r);
        self.report.teleports_removed += teleports;
        let quarantined_pts = r.points_dropped() + teleports;
        self.report.points_quarantined += quarantined_pts;
        if let Some(obs) = &self.obs {
            obs.points_quarantined.add(quarantined_pts as u64);
        }
        if pts.is_empty() {
            self.report.trajectories_quarantined += 1;
            if let Some(obs) = &self.obs {
                obs.quarantined.inc();
            }
            return None;
        }
        self.report.trajectories_appended += 1;
        self.report.points_appended += pts.len();
        if let Some(obs) = &self.obs {
            obs.appended.inc();
            obs.points_appended.add(pts.len() as u64);
        }
        // Sanitization restored time order, so the checked constructor
        // cannot panic here.
        let id = TrajId(self.trips.len() as u32);
        self.trips.push(Trajectory::new(id, pts));
        self.dirty = true;
        Some(id)
    }

    /// Appends many trips; returns how many survived quarantine.
    pub fn append_batch(&mut self, trips: impl IntoIterator<Item = Trajectory>) -> usize {
        trips.into_iter().filter_map(|t| self.append(t)).count()
    }

    /// Publishes the retained trips as a new epoch: applies the retention
    /// policy, bulk-loads the trips into an immutable snapshot exactly as
    /// [`TrajectoryArchive::new`] would on a cold load (contiguous ids from
    /// zero, the same R-tree), and swaps it into the slot. Readers that
    /// already hold the previous snapshot keep it; new
    /// [`SnapshotReader::latest`] calls see the new epoch. A publish with
    /// nothing appended or evicted is a no-op that returns the current
    /// snapshot without bumping the epoch.
    pub fn publish(&mut self) -> Arc<ArchiveSnapshot> {
        if let Some(max) = self.opts.retain_max_trajectories {
            let excess = self.trips.len().saturating_sub(max);
            if excess > 0 {
                let points: usize = self.trips.drain(..excess).map(|t| t.len()).sum();
                self.report.trajectories_evicted += excess;
                self.report.points_evicted += points;
                if let Some(obs) = &self.obs {
                    obs.evicted.add(excess as u64);
                }
                self.dirty = true;
            }
        }
        if !self.dirty {
            return self.snapshot();
        }
        let start = Instant::now();
        self.epoch += 1;
        let archive = TrajectoryArchive::new(self.trips.clone());
        let snapshot = Arc::new(ArchiveSnapshot::new(self.epoch, archive));
        *self.slot.write().expect("snapshot slot") = Arc::clone(&snapshot);
        let elapsed = start.elapsed().as_secs_f64();
        self.report.epochs_published += 1;
        self.dirty = false;
        if let Some(obs) = &self.obs {
            obs.epoch.set(self.epoch as i64);
            obs.swap_seconds.observe(elapsed);
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchivePoint;
    use crate::types::GpsPoint;
    use hris_geo::Point;

    fn trip(x0: f64, n: usize) -> Trajectory {
        let pts = (0..n)
            .map(|k| GpsPoint::new(Point::new(x0 + 100.0 * k as f64, 0.0), 10.0 * k as f64))
            .collect();
        Trajectory::new(TrajId(0), pts)
    }

    #[test]
    fn appends_are_invisible_until_publish() {
        let mut w = ArchiveWriter::new(TrajectoryArchive::new(vec![trip(0.0, 2)]));
        let reader = w.reader();
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.latest().num_trajectories(), 1);

        w.append(trip(1000.0, 3)).unwrap();
        // Still epoch 0 with one trip.
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.latest().num_trajectories(), 1);

        let snap = w.publish();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(reader.epoch(), 1);
        assert_eq!(reader.latest().num_trajectories(), 2);
    }

    #[test]
    fn held_snapshot_survives_later_publishes() {
        let mut w = ArchiveWriter::new(TrajectoryArchive::new(vec![trip(0.0, 2)]));
        let old = w.reader().latest();
        w.append(trip(1000.0, 2)).unwrap();
        w.publish();
        // The frozen epoch-0 snapshot is untouched by the publish.
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.num_trajectories(), 1);
        assert_eq!(w.reader().latest().num_trajectories(), 2);
    }

    #[test]
    fn publish_without_changes_is_a_noop() {
        let mut w = ArchiveWriter::new(TrajectoryArchive::empty());
        let first = w.publish();
        assert_eq!(first.epoch(), 0);
        w.append(trip(0.0, 2)).unwrap();
        assert_eq!(w.publish().epoch(), 1);
        assert_eq!(w.publish().epoch(), 1);
        assert_eq!(w.report().epochs_published, 1);
    }

    #[test]
    fn snapshot_age_and_swap_histogram_track_publishes() {
        let mut w = ArchiveWriter::new(TrajectoryArchive::empty());
        let registry = MetricsRegistry::new();
        w.observe(&registry);
        w.append(trip(0.0, 2)).unwrap();
        let snap = w.publish();
        // A just-published snapshot is fresh (well under a second old).
        assert!(snap.age_seconds() < 1.0);
        let swaps = registry.snapshot();
        let swaps = swaps.histogram("hris_snapshot_swap_seconds", &[]).unwrap();
        assert_eq!(swaps.count, 1, "one publish, one swap timing");
    }

    #[test]
    fn ingest_runs_the_quarantine_path() {
        let mut w = ArchiveWriter::new(TrajectoryArchive::empty());
        // A trip of nothing but NaNs is quarantined entirely…
        let garbage = Trajectory::from_unchecked(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(f64::NAN, f64::NAN), 0.0),
                GpsPoint::new(Point::new(f64::NAN, 0.0), 1.0),
            ],
        );
        assert!(w.append(garbage).is_none());
        // …a teleport spike inside an otherwise good trip is stripped.
        let spiky = Trajectory::from_unchecked(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                GpsPoint::new(Point::new(200_000.0, 0.0), 30.0),
                GpsPoint::new(Point::new(200.0, 0.0), 60.0),
            ],
        );
        let id = w.append(spiky).unwrap();
        let r = w.report();
        assert_eq!(r.trajectories_quarantined, 1);
        assert_eq!(r.trajectories_appended, 1);
        assert_eq!(r.teleports_removed, 1);
        assert_eq!(r.points_quarantined, 3);
        let snap = w.publish();
        assert_eq!(snap.trajectory(id).points.len(), 2);
    }

    #[test]
    fn retention_policy_evicts_oldest_on_publish() {
        let opts = IngestOptions {
            retain_max_trajectories: Some(2),
            ..IngestOptions::default()
        };
        let mut w = ArchiveWriter::with_options(TrajectoryArchive::empty(), opts);
        for i in 0..5 {
            w.append(trip(10_000.0 * i as f64, 2)).unwrap();
        }
        let snap = w.publish();
        assert_eq!(snap.num_trajectories(), 2);
        // The two *newest* trips survived, re-idd from zero.
        assert_eq!(snap.trajectory(TrajId(0)).points[0].pos.x, 30_000.0);
        assert_eq!(snap.trajectory(TrajId(1)).points[0].pos.x, 40_000.0);
        assert_eq!(w.report().trajectories_evicted, 3);
        assert_eq!(w.report().points_evicted, 6);
        // Index and trips agree after eviction.
        for h in snap.points_within(Point::new(35_000.0, 0.0), 1e6) {
            let orig = snap.trajectory(h.traj).points[h.point_idx as usize];
            assert_eq!(orig.pos, h.pos);
        }
    }

    #[test]
    fn writer_archive_matches_cold_rebuild() {
        // Every published epoch, with retention on or off, answers range
        // queries exactly like a cold bulk load of its own trips: the same
        // `(traj, point_idx)` hits in the same order.
        let probes: Vec<Point> = (0..12)
            .flat_map(|i| {
                (0..3).map(move |j| Point::new(2_500.0 * f64::from(i), 40.0 * f64::from(j)))
            })
            .collect();
        for retain in [None, Some(7)] {
            let opts = IngestOptions {
                retain_max_trajectories: retain,
                ..IngestOptions::default()
            };
            let mut sent: Vec<Trajectory> = (0..3).map(|i| trip(900.0 * f64::from(i), 4)).collect();
            let mut w = ArchiveWriter::with_options(TrajectoryArchive::new(sent.clone()), opts);
            for chunk in 0..6 {
                let trips: Vec<Trajectory> = (0..4)
                    .map(|i| {
                        let k = f64::from(4 * chunk + i);
                        let mut t = trip(1_100.0 * k, 3 + (4 * chunk + i) as usize % 5);
                        for p in &mut t.points {
                            p.pos.y = 7.0 * (k % 6.0);
                        }
                        t
                    })
                    .collect();
                sent.extend(trips.iter().cloned());
                assert_eq!(w.append_batch(trips), 4);
                let snap = w.publish();
                let cold = TrajectoryArchive::new(snap.trajectories().to_vec());
                assert_eq!(snap.num_points(), cold.num_points());
                for (i, t) in snap.trajectories().iter().enumerate() {
                    assert_eq!(t.id, TrajId(i as u32), "ids stay contiguous from zero");
                }
                let key = |ap: &&ArchivePoint| (ap.traj, ap.point_idx);
                for &c in &probes {
                    for r in [150.0, 1_200.0] {
                        let live: Vec<_> = snap.points_within(c, r).iter().map(key).collect();
                        let want: Vec<_> = cold.points_within(c, r).iter().map(key).collect();
                        assert_eq!(
                            live, want,
                            "retain {retain:?}, chunk {chunk}, probe {c:?} r {r}"
                        );
                    }
                }
            }
            // The final epoch holds the newest trips, in arrival order.
            let snap = w.snapshot();
            let kept = &sent[sent.len() - retain.unwrap_or(sent.len())..];
            assert_eq!(snap.num_trajectories(), kept.len());
            for (a, b) in snap.trajectories().iter().zip(kept) {
                assert_eq!(a.points, b.points);
            }
        }
    }

    #[test]
    fn eviction_keeps_ids_contiguous_and_counts_points() {
        let opts = IngestOptions {
            retain_max_trajectories: Some(2),
            ..IngestOptions::default()
        };
        let initial = vec![trip(0.0, 2), trip(500.0, 3)];
        let mut w = ArchiveWriter::with_options(TrajectoryArchive::new(initial), opts);
        w.append(trip(5_000.0, 1)).unwrap();
        let snap = w.publish();
        // The 2-point trip went; the survivors are re-idd from zero and the
        // index resolves to their points.
        assert_eq!(w.report().points_evicted, 2);
        assert_eq!(snap.num_trajectories(), 2);
        assert_eq!(snap.num_points(), 4);
        for (i, t) in snap.trajectories().iter().enumerate() {
            assert_eq!(t.id, TrajId(i as u32));
        }
        for h in snap.points_within(Point::new(500.0, 0.0), 1e6) {
            let orig = snap.trajectory(h.traj).points[h.point_idx as usize];
            assert_eq!((orig.pos, orig.t), (h.pos, h.t));
        }
        // A retention cap of zero evicts more trips than exist without
        // panicking and publishes an empty epoch.
        let mut w = ArchiveWriter::with_options(
            TrajectoryArchive::new(vec![trip(0.0, 2)]),
            IngestOptions {
                retain_max_trajectories: Some(0),
                ..IngestOptions::default()
            },
        );
        w.append(trip(100.0, 2)).unwrap();
        let snap = w.publish();
        assert_eq!(snap.num_trajectories(), 0);
        assert_eq!(snap.num_points(), 0);
        assert_eq!(w.report().trajectories_evicted, 2);
        assert_eq!(w.report().points_evicted, 4);
        assert_eq!(
            w.publish().epoch(),
            1,
            "nothing left to evict: no new epoch"
        );
    }

    #[test]
    fn ingest_metrics_are_registered_and_updated() {
        let registry = MetricsRegistry::new();
        let mut w = ArchiveWriter::with_options(
            TrajectoryArchive::empty(),
            IngestOptions {
                retain_max_trajectories: Some(1),
                ..IngestOptions::default()
            },
        );
        w.observe(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("hris_ingest_appended_total"), Some(0));
        assert_eq!(snap.gauge("hris_archive_epoch"), Some(0));

        w.append(trip(0.0, 2)).unwrap();
        w.append(trip(10_000.0, 2)).unwrap();
        w.append(Trajectory::from_unchecked(
            TrajId(0),
            vec![GpsPoint::new(Point::new(f64::NAN, 0.0), 0.0)],
        ));
        w.publish();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("hris_ingest_appended_total"), Some(2));
        assert_eq!(snap.counter("hris_ingest_quarantined_total"), Some(1));
        assert_eq!(snap.counter("hris_ingest_points_appended_total"), Some(4));
        assert_eq!(
            snap.counter("hris_ingest_points_quarantined_total"),
            Some(1)
        );
        assert_eq!(snap.counter("hris_ingest_evicted_total"), Some(1));
        assert_eq!(snap.gauge("hris_archive_epoch"), Some(1));
    }
}
