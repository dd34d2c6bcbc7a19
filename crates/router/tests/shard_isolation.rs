//! Snapshot isolation across shards (extends the single-engine guarantees
//! of `crates/core/tests/ingest_isolation.rs` to the scatter-gather
//! router): while every shard ingests and publishes concurrently, a
//! cross-shard query observes **one whole published epoch per touched
//! shard** — never a torn read, never an epoch the shard's writer did not
//! publish, and per-shard epochs never go backwards between queries.

use hris::{EngineConfig, HrisParams, QueryOutcome};
use hris_geo::Point;
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_router::{RouteKind, ShardPlan, ShardedEngine};
use hris_traj::{ArchiveWriter, GpsPoint, TrajId, Trajectory, TrajectoryArchive};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::thread;

fn net() -> Arc<RoadNetwork> {
    Arc::new(generator::generate(&NetworkConfig {
        blocks_x: 16,
        blocks_y: 16,
        block_m: 300.0,
        seed: 31,
        ..NetworkConfig::default()
    }))
}

/// A short trip random-walking near `(x, y)` (deterministic per seed).
fn trip(x: f64, y: f64, seed: u64) -> Trajectory {
    let n = 3 + (seed % 4) as usize;
    Trajectory::new(
        TrajId(0),
        (0..n)
            .map(|i| {
                let k = (seed.wrapping_mul(2_654_435_761).wrapping_add(i as u64 * 97)) % 1000;
                GpsPoint::new(
                    Point::new(x + (k as f64 - 500.0), y + ((k / 7) as f64 - 70.0)),
                    i as f64 * 45.0,
                )
            })
            .collect(),
    )
}

#[test]
fn cross_shard_queries_observe_whole_epochs_per_shard() {
    let net = net();
    let params = HrisParams::default();
    // Margin φ + 900: seam-straddling pairs are partition-respecting, so
    // the seam query below reliably scatters across both shards.
    let plan = ShardPlan::grid(&net, 2, 1, params.phi_m + 900.0);
    let seam_x = plan.core(0).max.x;
    let cy = plan.bounds().center().y;

    let mut writers: Vec<ArchiveWriter> = (0..2)
        .map(|_| ArchiveWriter::new(TrajectoryArchive::empty()))
        .collect();
    let readers = writers.iter().map(ArchiveWriter::reader).collect();
    let engine = Arc::new(ShardedEngine::live(
        Arc::clone(&net),
        readers,
        params,
        EngineConfig::default(),
        plan,
    ));

    // Every epoch each shard's writer actually publishes, with its size
    // (epoch 0 is the initial empty archive).
    let published: Arc<Vec<Mutex<HashMap<u64, usize>>>> = Arc::new(
        (0..2)
            .map(|_| Mutex::new(HashMap::from([(0u64, 0usize)])))
            .collect(),
    );
    // One ingest thread per shard: append near the shard's side of the
    // seam, publish, record the published epoch.
    let mut threads = Vec::new();
    for (s, mut writer) in writers.drain(..).enumerate() {
        let published = Arc::clone(&published);
        let x = if s == 0 {
            seam_x - 2_000.0
        } else {
            seam_x + 2_000.0
        };
        threads.push(thread::spawn(move || {
            for round in 0..60u64 {
                writer
                    .append(trip(x, cy, s as u64 * 1_000 + round))
                    .unwrap();
                let snap = writer.publish();
                published[s]
                    .lock()
                    .unwrap()
                    .insert(snap.epoch(), snap.num_trajectories());
                thread::yield_now();
            }
        }));
    }

    // Seam query: pairs straddle the seam within the margin slack, so the
    // router scatters it across both shards every time.
    let q = Trajectory::new(
        TrajId(99),
        [
            seam_x - 1_200.0,
            seam_x - 500.0,
            seam_x + 500.0,
            seam_x + 1_200.0,
        ]
        .iter()
        .enumerate()
        .map(|(i, &x)| GpsPoint::new(Point::new(x, cy), i as f64 * 130.0))
        .collect(),
    );

    // Observations: (shard, epoch) per query, checked after the writers
    // finish (the published maps only grow, so membership is stable).
    // Query at least 50 times and until both writers have finished, so the
    // last queries observe their final epochs however the threads start.
    let mut observations: Vec<Vec<(usize, u64)>> = Vec::new();
    let mut last_epoch = [0u64; 2];
    loop {
        let writers_done = threads.iter().all(thread::JoinHandle::is_finished);
        let (r, trace) = engine.infer_query_traced(&q, 2);
        assert!(
            matches!(
                r.outcome,
                QueryOutcome::Ok | QueryOutcome::Repaired { .. } | QueryOutcome::Degraded { .. }
            ),
            "live sharded query failed mid-ingest: {:?}",
            r.outcome
        );
        assert_eq!(trace.kind, RouteKind::Scatter, "seam query must scatter");

        // Exactly one epoch per touched shard — the no-torn-read contract.
        let touched: HashSet<usize> = trace.pair_shards.iter().copied().collect();
        assert_eq!(trace.epochs.len(), touched.len(), "one epoch per shard");
        for &(s, e) in &trace.epochs {
            assert!(touched.contains(&s));
            assert!(
                e >= last_epoch[s],
                "shard {s}: epoch went backwards ({e} after {})",
                last_epoch[s]
            );
            last_epoch[s] = e;
        }
        observations.push(trace.epochs);
        if writers_done && observations.len() >= 50 {
            break;
        }
        thread::yield_now();
    }
    for t in threads {
        t.join().expect("ingest thread panicked");
    }

    // Every epoch any query observed is one its shard's writer published.
    assert!(!observations.is_empty());
    for epochs in &observations {
        for &(s, e) in epochs {
            assert!(
                published[s].lock().unwrap().contains_key(&e),
                "shard {s}: query observed unpublished epoch {e}"
            );
        }
    }
    // Both shards were exercised beyond their initial epoch.
    assert!(
        last_epoch.iter().all(|&e| e > 0),
        "ingest advanced both shards"
    );
}
