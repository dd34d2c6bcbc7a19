//! Live archive ingestion with epoch-versioned snapshots.
//!
//! The paper's archive is *historical*, but the corpus it models keeps
//! growing: new taxi traces arrive continuously, and a serving system
//! cannot stop the world to re-bulk-load the R-tree per update. This module
//! provides the write side of that story:
//!
//! * [`ArchiveWriter`] — single-owner writer that appends new trajectories
//!   through the same repair/quarantine rules as tolerant loading
//!   ([`sanitize_points`] + teleport stripping), maintains the GPS-point
//!   R-tree incrementally (per-point insert, batch deletion on retention
//!   eviction), and publishes immutable epoch-numbered snapshots.
//! * [`ArchiveSnapshot`] — one frozen epoch: an archive plus its epoch
//!   number. Readers that hold an `Arc<ArchiveSnapshot>` keep that exact
//!   archive alive for as long as they need it, regardless of later
//!   publishes.
//! * [`SnapshotReader`] — a cheap, cloneable, `Send + Sync` handle that
//!   always yields the latest published snapshot. The hand-off is a single
//!   `Arc` clone under a read lock; in-flight queries are never blocked by
//!   an ingest batch, only by the pointer swap itself.
//! * [`IngestQueue`] — a thread-safe mailbox so many producers can feed one
//!   writer.
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
use serde::{Deserialize, Serialize};
use std::ops::Deref;
use std::sync::{Arc, Mutex, RwLock};
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

    /// Serializes this epoch into the columnar snapshot format
    /// ([`crate::snapshot`]). The epoch number travels in the header, so
    /// a reader on the other side of an mmap sees exactly this epoch.
    #[must_use]
    pub fn to_columnar(&self) -> bytes::Bytes {
        crate::snapshot::encode_snapshot(&self.archive, self.epoch)
    }

    /// Rehydrates a snapshot from a columnar blob, restoring the epoch
    /// recorded in the header. `published_at` is stamped *now* — age is a
    /// liveness signal of this process, not of the blob's origin.
    pub fn from_columnar(data: bytes::Bytes) -> Result<Self, crate::snapshot::SnapshotError> {
        let snap = crate::snapshot::ColumnarSnapshot::open(data)?;
        let archive = snap.decode_archive()?;
        Ok(ArchiveSnapshot::new(snap.epoch(), archive))
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
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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
                "Wall time to publish a snapshot (archive clone + slot swap).",
                &FINE_TIME_BOUNDS,
            ),
        }
    }
}

/// The single-owner write side of a live archive.
///
/// The writer owns a *working* archive that it mutates in place
/// (incremental R-tree insert on append, batch deletion on eviction) and a
/// shared *slot* holding the latest published [`ArchiveSnapshot`]. Appends
/// stay private to the writer until [`ArchiveWriter::publish`] clones the
/// working archive into a fresh immutable snapshot and swaps it into the
/// slot — an `O(archive)` structural clone, paid by the ingest thread, so
/// the read side never pays more than an `Arc` exchange.
#[derive(Debug)]
pub struct ArchiveWriter {
    working: TrajectoryArchive,
    slot: Slot,
    epoch: u64,
    dirty: bool,
    pending: usize,
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
        let snapshot = Arc::new(ArchiveSnapshot::new(0, initial.clone()));
        ArchiveWriter {
            working: initial,
            slot: Arc::new(RwLock::new(snapshot)),
            epoch: 0,
            dirty: false,
            pending: 0,
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

    /// Serializes the latest *published* snapshot into the columnar
    /// format without republishing or rebuilding anything — the epoch in
    /// the blob header is the epoch readers currently see. Pending
    /// appends are not included (publish first if you want them).
    #[must_use]
    pub fn export_columnar(&self) -> bytes::Bytes {
        self.snapshot().to_columnar()
    }

    /// The latest published epoch number.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Trips appended since the last publish.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Cumulative ingest accounting since construction.
    #[must_use]
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// The ingest policy this writer was built with.
    #[must_use]
    pub fn options(&self) -> &IngestOptions {
        &self.opts
    }

    /// Appends one trip through the repair/quarantine path. Returns the id
    /// it received in the working archive, or `None` if the whole trip was
    /// quarantined. The append is invisible to readers until the next
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
        // cannot panic here; the id is reassigned by the archive.
        let n = pts.len();
        let id = self
            .working
            .append_trajectory(Trajectory::new(TrajId(0), pts));
        debug_assert_eq!(self.working.trajectory(id).points.len(), n);
        self.pending += 1;
        self.dirty = true;
        Some(id)
    }

    /// Appends many trips; returns how many survived quarantine.
    pub fn append_batch(&mut self, trips: impl IntoIterator<Item = Trajectory>) -> usize {
        trips.into_iter().filter_map(|t| self.append(t)).count()
    }

    /// Publishes the working archive as a new epoch: applies the retention
    /// policy, clones the working archive into an immutable snapshot, and
    /// swaps it into the slot. Readers that already hold the previous
    /// snapshot keep it; new [`SnapshotReader::latest`] calls see the new
    /// epoch. A publish with nothing appended or evicted is a no-op that
    /// returns the current snapshot without bumping the epoch.
    pub fn publish(&mut self) -> Arc<ArchiveSnapshot> {
        if let Some(max) = self.opts.retain_max_trajectories {
            let n = self.working.num_trajectories();
            if n > max {
                let excess = n - max;
                let points = self.working.evict_front(excess);
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
        let snapshot = Arc::new(ArchiveSnapshot::new(self.epoch, self.working.clone()));
        *self.slot.write().expect("snapshot slot") = Arc::clone(&snapshot);
        let elapsed = start.elapsed().as_secs_f64();
        self.report.epochs_published += 1;
        self.dirty = false;
        self.pending = 0;
        if let Some(obs) = &self.obs {
            obs.epoch.set(self.epoch as i64);
            obs.swap_seconds.observe(elapsed);
        }
        snapshot
    }

    /// Drains `queue`, appends everything, and publishes one new epoch if
    /// anything changed. Returns how many trips survived quarantine. This is
    /// the maintenance-loop body: producers push into the queue from any
    /// thread; one owner calls `ingest_from` periodically.
    pub fn ingest_from(&mut self, queue: &IngestQueue) -> usize {
        let appended = self.append_batch(queue.drain());
        self.publish();
        appended
    }
}

/// A thread-safe mailbox between trajectory producers and the single
/// [`ArchiveWriter`] owner. Producers [`IngestQueue::push`] from any
/// thread; the writer [`IngestQueue::drain`]s in FIFO order.
#[derive(Debug, Default)]
pub struct IngestQueue {
    pending: Mutex<Vec<Trajectory>>,
}

impl IngestQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        IngestQueue::default()
    }

    /// Enqueues one trip.
    pub fn push(&self, trip: Trajectory) {
        self.pending.lock().expect("ingest queue").push(trip);
    }

    /// Trips currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.lock().expect("ingest queue").len()
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes everything queued so far, in arrival order.
    #[must_use]
    pub fn drain(&self) -> Vec<Trajectory> {
        std::mem::take(&mut *self.pending.lock().expect("ingest queue"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(w.pending(), 1);
        // Still epoch 0 with one trip.
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.latest().num_trajectories(), 1);

        let snap = w.publish();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(reader.epoch(), 1);
        assert_eq!(reader.latest().num_trajectories(), 2);
        assert_eq!(w.pending(), 0);
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
        let trips: Vec<Trajectory> = (0..4).map(|i| trip(5_000.0 * i as f64, 3)).collect();
        let mut w = ArchiveWriter::new(TrajectoryArchive::empty());
        w.append_batch(trips.clone());
        let live = w.publish();
        let cold = TrajectoryArchive::new(trips);
        assert_eq!(live.num_trajectories(), cold.num_trajectories());
        assert_eq!(live.num_points(), cold.num_points());
        for (a, b) in live.trajectories().iter().zip(cold.trajectories()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.points, b.points);
        }
    }

    #[test]
    fn queue_feeds_writer_across_threads() {
        let queue = Arc::new(IngestQueue::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let q = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for j in 0..5 {
                        q.push(trip(1_000.0 * (5 * i + j) as f64, 2));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(queue.len(), 20);
        let mut w = ArchiveWriter::new(TrajectoryArchive::empty());
        assert_eq!(w.ingest_from(&queue), 20);
        assert!(queue.is_empty());
        assert_eq!(w.epoch(), 1);
        assert_eq!(w.reader().latest().num_trajectories(), 20);
        // Draining an empty queue publishes nothing.
        assert_eq!(w.ingest_from(&queue), 0);
        assert_eq!(w.epoch(), 1);
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

    #[test]
    fn report_serialises_to_json() {
        let mut w = ArchiveWriter::new(TrajectoryArchive::empty());
        w.append(trip(0.0, 3)).unwrap();
        let text = serde_json::to_string_pretty(w.report()).expect("report serialises");
        let back: IngestReport = serde_json::from_str(&text).expect("report parses");
        assert_eq!(&back, w.report());
    }
}
