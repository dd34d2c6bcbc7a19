//! Snapshot-isolation stress tests for live ingestion (DESIGN.md §5f).
//!
//! Reader threads hammer the snapshot slot (directly and through a live
//! [`EngineHandle`]) while a writer appends and publishes epochs. The tests
//! assert the two contracts the ingest subsystem sells:
//!
//! 1. **No half-applied epochs.** Every snapshot any reader ever observes is
//!    internally consistent, epochs advance monotonically per reader, and an
//!    epoch's contents are identical no matter when it is observed — all of
//!    which match what the writer actually published.
//! 2. **Frozen epochs are byte-identical to cold rebuilds.** A handle pinned
//!    to epoch *e* returns bit-for-bit the same routes and scores as a
//!    from-scratch bulk-loaded archive of the same trajectories, before,
//!    during, and after later publishes.

use hris::prelude::*;
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_traj::{resample_to_interval, SimConfig, Simulator, TrajId, Trajectory};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Network, an initial archive, a stream of trajectories still to ingest,
/// and a handful of low-sampling-rate queries.
fn scenario() -> (
    Arc<RoadNetwork>,
    Vec<Trajectory>,
    Vec<Trajectory>,
    Vec<Trajectory>,
) {
    let net = Arc::new(generator::generate(&NetworkConfig::small(8)));
    let mut sim = Simulator::new(
        &net,
        SimConfig {
            num_trips: 160,
            num_od_patterns: 8,
            min_trip_dist_m: 800.0,
            seed: 29,
            ..SimConfig::default()
        },
    );
    let (archive, routes) = sim.generate_archive();
    let mut queries = Vec::new();
    for (i, r) in routes.iter().step_by(routes.len() / 4).take(4).enumerate() {
        let pts = hris_traj::simulator::drive_route(&net, r, 0.0, 20.0, 0.8).unwrap();
        queries.push(resample_to_interval(
            &Trajectory::new(TrajId(i as u32), pts),
            240.0,
        ));
    }
    let mut trips = archive.trajectories().to_vec();
    let stream = trips.split_off(trips.len() / 2);
    (net, trips, stream, queries)
}

/// What the writer published at one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EpochFacts {
    num_trajectories: usize,
    num_points: usize,
}

fn facts_of(snap: &ArchiveSnapshot) -> EpochFacts {
    EpochFacts {
        num_trajectories: snap.num_trajectories(),
        num_points: snap.num_points(),
    }
}

/// A snapshot is half-applied if its counters disagree with its contents.
fn assert_self_consistent(snap: &ArchiveSnapshot) {
    let traj_points: usize = snap.trajectories().iter().map(|t| t.len()).sum();
    assert_eq!(
        snap.num_points(),
        traj_points,
        "epoch {}: point counter disagrees with stored trajectories",
        snap.epoch()
    );
    for (i, t) in snap.trajectories().iter().enumerate() {
        assert_eq!(
            t.id.index(),
            i,
            "epoch {}: trajectory ids not contiguous",
            snap.epoch()
        );
    }
}

#[test]
fn concurrent_readers_never_observe_half_applied_epochs() {
    let (net, initial, stream, queries) = scenario();
    let mut writer = ArchiveWriter::new(hris_traj::TrajectoryArchive::new(initial));
    let reader = writer.reader();
    let handle = Arc::new(EngineHandle::live(
        Arc::clone(&net),
        writer.reader(),
        HrisParams::default(),
        EngineConfig::default(),
    ));

    let done = Arc::new(AtomicBool::new(false));
    // Every (epoch -> facts) observation from any reader thread.
    let observed: Arc<Mutex<HashMap<u64, EpochFacts>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let snap = reader.latest();
        observed
            .lock()
            .unwrap()
            .insert(snap.epoch(), facts_of(&snap));
    }

    // Raw snapshot readers: check isolation invariants as fast as possible.
    let mut threads = Vec::new();
    for _ in 0..2 {
        let reader = reader.clone();
        let done = Arc::clone(&done);
        let observed = Arc::clone(&observed);
        threads.push(thread::spawn(move || {
            let mut last_epoch = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = reader.latest();
                assert_self_consistent(&snap);
                assert!(
                    snap.epoch() >= last_epoch,
                    "epoch went backwards: {} after {last_epoch}",
                    snap.epoch()
                );
                last_epoch = snap.epoch();
                let facts = facts_of(&snap);
                let mut seen = observed.lock().unwrap();
                if let Some(prev) = seen.insert(snap.epoch(), facts) {
                    assert_eq!(
                        prev,
                        facts,
                        "epoch {} changed contents between observations",
                        snap.epoch()
                    );
                }
                thread::yield_now();
            }
        }));
    }

    // Query thread: full inference through the live handle while epochs roll.
    {
        let handle = Arc::clone(&handle);
        let done = Arc::clone(&done);
        let queries = queries.clone();
        threads.push(thread::spawn(move || {
            let mut rounds = 0usize;
            while !done.load(Ordering::Acquire) || rounds == 0 {
                for q in &queries {
                    let r = handle.infer_query(q, 2);
                    assert!(
                        matches!(
                            r.outcome,
                            QueryOutcome::Ok
                                | QueryOutcome::Repaired { .. }
                                | QueryOutcome::Degraded { .. }
                        ),
                        "live query failed mid-ingest: {:?}",
                        r.outcome
                    );
                    assert!(!r.globals.is_empty(), "live query lost all routes");
                }
                rounds += 1;
            }
            // Batch path: one epoch per batch, exercised at least once.
            let results = handle.infer_batch_detailed(&queries, 2);
            assert_eq!(results.len(), queries.len());
        }));
    }

    // Writer: append in small batches, publish each, remember the facts.
    let mut published: Vec<(u64, EpochFacts)> =
        vec![(writer.epoch(), facts_of(&writer.snapshot()))];
    for chunk in stream.chunks(5) {
        writer.append_batch(chunk.to_vec());
        let snap = writer.publish();
        published.push((snap.epoch(), facts_of(&snap)));
        thread::yield_now();
    }
    done.store(true, Ordering::Release);
    for t in threads {
        t.join().expect("stress thread panicked");
    }

    // Every epoch any reader observed must be one the writer published,
    // with exactly the published contents.
    let published: HashMap<u64, EpochFacts> = published.into_iter().collect();
    let observed = observed.lock().unwrap();
    assert!(!observed.is_empty());
    for (epoch, facts) in observed.iter() {
        let want = published
            .get(epoch)
            .unwrap_or_else(|| panic!("readers observed unpublished epoch {epoch}"));
        assert_eq!(
            facts, want,
            "epoch {epoch}: observed contents differ from published"
        );
    }
    assert_eq!(
        writer.report().epochs_published,
        published.len() - 1,
        "writer report disagrees with publish count"
    );
}

#[test]
fn columnar_export_under_concurrent_ingest_is_never_torn() {
    use hris_traj::ColumnarSnapshot;

    let (_net, initial, stream, _queries) = scenario();
    let mut writer = ArchiveWriter::new(hris_traj::TrajectoryArchive::new(initial));
    let reader = writer.reader();
    let done = Arc::new(AtomicBool::new(false));

    // Exporter threads: snapshot -> columnar blob -> decode, continuously,
    // while the writer publishes. Each decode must reproduce exactly the
    // trajectories of the epoch it was exported from — a torn export would
    // mix trips from two epochs or disagree on counts.
    let mut threads = Vec::new();
    let observed: Arc<Mutex<HashMap<u64, EpochFacts>>> = Arc::new(Mutex::new(HashMap::new()));
    for _ in 0..2 {
        let reader = reader.clone();
        let done = Arc::clone(&done);
        let observed = Arc::clone(&observed);
        threads.push(thread::spawn(move || {
            while !done.load(Ordering::Acquire) {
                let snap = reader.latest();
                let blob = snap.to_columnar();
                let col = ColumnarSnapshot::open(blob).expect("open mid-ingest");
                assert_eq!(col.epoch(), snap.epoch(), "embedded epoch drifted");
                let decoded = col.decode_archive().expect("decode mid-ingest");
                assert_eq!(decoded.num_trajectories(), snap.num_trajectories());
                assert_eq!(decoded.num_points(), snap.num_points());
                for (a, b) in decoded.trajectories().iter().zip(snap.trajectories()) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.points.len(), b.points.len());
                    for (pa, pb) in a.points.iter().zip(&b.points) {
                        assert_eq!(pa.t.to_bits(), pb.t.to_bits());
                        assert_eq!(pa.pos.x.to_bits(), pb.pos.x.to_bits());
                        assert_eq!(pa.pos.y.to_bits(), pb.pos.y.to_bits());
                    }
                }
                let facts = EpochFacts {
                    num_trajectories: decoded.num_trajectories(),
                    num_points: decoded.num_points(),
                };
                let mut seen = observed.lock().unwrap();
                if let Some(prev) = seen.insert(col.epoch(), facts) {
                    assert_eq!(
                        prev,
                        facts,
                        "epoch {} exported different contents twice",
                        col.epoch()
                    );
                }
                thread::yield_now();
            }
        }));
    }

    let mut published: Vec<(u64, EpochFacts)> =
        vec![(writer.epoch(), facts_of(&writer.snapshot()))];
    for chunk in stream.chunks(5) {
        writer.append_batch(chunk.to_vec());
        let snap = writer.publish();
        published.push((snap.epoch(), facts_of(&snap)));
        // Writer-side export must also see its own just-published epoch.
        let col = ColumnarSnapshot::open(writer.snapshot().to_columnar()).unwrap();
        assert_eq!(col.epoch(), snap.epoch());
        assert_eq!(col.num_points(), snap.num_points());
        thread::yield_now();
    }
    done.store(true, Ordering::Release);
    for t in threads {
        t.join().expect("exporter thread panicked");
    }

    // Every epoch any exporter decoded must be one the writer published,
    // with exactly the published contents.
    let published: HashMap<u64, EpochFacts> = published.into_iter().collect();
    let observed = observed.lock().unwrap();
    assert!(!observed.is_empty());
    for (epoch, facts) in observed.iter() {
        let want = published
            .get(epoch)
            .unwrap_or_else(|| panic!("exported unpublished epoch {epoch}"));
        assert_eq!(
            facts, want,
            "epoch {epoch}: exported contents differ from published"
        );
    }
}

#[test]
fn frozen_epoch_results_are_byte_identical_to_cold_rebuild() {
    let (net, initial, stream, queries) = scenario();
    let mut writer = ArchiveWriter::new(hris_traj::TrajectoryArchive::new(initial));
    let mut chunks = stream.chunks(20);

    // Ingest a first wave, then freeze that epoch.
    writer.append_batch(chunks.next().unwrap().to_vec());
    writer.publish();
    let frozen = writer.snapshot();
    let frozen_epoch = frozen.epoch();
    let frozen_handle = EngineHandle::from_snapshot(
        Arc::clone(&net),
        Arc::clone(&frozen),
        HrisParams::default(),
        EngineConfig::default(),
    );
    let before: Vec<QueryResult> = queries
        .iter()
        .map(|q| frozen_handle.infer_query(q, 3))
        .collect();

    // Cold rebuild: bulk-load a brand-new archive from the same trajectories.
    let cold = hris_traj::TrajectoryArchive::new(frozen.trajectories().to_vec());
    assert_eq!(cold.num_points(), frozen.num_points());
    let cold_handle = EngineHandle::new(Arc::clone(&net), cold, HrisParams::default());

    // Keep ingesting: the frozen epoch must not move.
    for chunk in chunks {
        writer.append_batch(chunk.to_vec());
        writer.publish();
    }
    assert!(writer.epoch() > frozen_epoch);
    assert_eq!(frozen_handle.epoch(), frozen_epoch);

    for (q, want) in queries.iter().zip(&before) {
        for (label, got) in [
            (
                "frozen after later publishes",
                frozen_handle.infer_query(q, 3),
            ),
            ("cold rebuild", cold_handle.infer_query(q, 3)),
        ] {
            assert_eq!(got.outcome, want.outcome, "{label}: outcome differs");
            assert_eq!(
                got.globals.len(),
                want.globals.len(),
                "{label}: route count differs"
            );
            for (a, b) in got.globals.iter().zip(&want.globals) {
                assert_eq!(a.route, b.route, "{label}: route differs");
                assert_eq!(
                    a.log_score.to_bits(),
                    b.log_score.to_bits(),
                    "{label}: score bits differ"
                );
            }
        }
    }
}
