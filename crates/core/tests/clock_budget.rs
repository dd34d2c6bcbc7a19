//! What one observed query costs, enforced at the clock.
//!
//! A served query is timed once: one span guard around the query and one
//! per phase (`candidates`, `local`, `global`, `refine`) are the only
//! stopwatches, and the phase histograms, the trace record's `*_s` fields
//! and its span tree all read those guards. That is ten reads of the
//! counted clock [`hris_obs::clock`] whether the trace ring keeps the tree
//! or not; only a sampled query's per-pair detail adds two per pair.
//! `zero_clock.rs` pins the other end (observability off: zero reads).
//!
//! The read counter is process-global, so this file is its own test binary
//! with a single test, and every engine here runs `ExecMode::Sequential`.

use hris::{EngineConfig, EngineHandle, ExecMode, HrisParams};
use hris_geo::Point;
use hris_obs::clock;
use hris_roadnet::{generator, NetworkConfig};
use hris_traj::{GpsPoint, SimConfig, Simulator, TrajId, Trajectory};
use std::sync::Arc;

const PAIRS: u64 = 4;

fn query() -> Trajectory {
    Trajectory::new(
        TrajId(1),
        (0..=PAIRS)
            .map(|i| {
                GpsPoint::new(
                    Point::new(200.0 + i as f64 * 400.0, 150.0 + i as f64 * 60.0),
                    i as f64 * 120.0,
                )
            })
            .collect(),
    )
}

/// Clock reads of one `infer_query` call.
fn reads_of(handle: &EngineHandle, q: &Trajectory) -> u64 {
    let before = clock::reads();
    let _ = handle.infer_query(q, 2);
    clock::reads() - before
}

#[test]
fn an_observed_query_reads_the_clock_once_per_guard() {
    let net = Arc::new(generator::generate(&NetworkConfig::small(5)));
    let archive = Simulator::new(
        &net,
        SimConfig {
            num_trips: 60,
            num_od_patterns: 5,
            min_trip_dist_m: 400.0,
            seed: 7,
            ..SimConfig::default()
        },
    )
    .generate_archive()
    .0;
    let handle = |cfg: EngineConfig| {
        assert_eq!(cfg.mode, ExecMode::Sequential);
        EngineHandle::with_config(
            Arc::clone(&net),
            archive.clone(),
            HrisParams::default(),
            cfg,
        )
    };
    let observed = || {
        EngineConfig::builder()
            .mode(ExecMode::Sequential)
            .observability(true)
    };
    let q = query();
    let mut repaired = q.clone();
    repaired.points[2].pos = Point::new(f64::NAN, 0.0);
    let rejected = Trajectory::new(TrajId(2), Vec::new());

    // Default options: ring on, per-pair detail on 1 query in 16.
    let traced = handle(observed().build().unwrap());
    let reads: Vec<u64> = (0..32).map(|_| reads_of(&traced, &q)).collect();
    let sampled: Vec<usize> = (0..32).filter(|&i| reads[i] > 11).collect();
    assert_eq!(sampled.len(), 2, "1-in-16 of 32 queries: {reads:?}");
    for (i, &n) in reads.iter().enumerate() {
        let bound = if sampled.contains(&i) {
            11 + 2 * PAIRS
        } else {
            11
        };
        assert!(n <= bound, "query {i} read the clock {n} times: {reads:?}");
    }
    for dirty in [&repaired, &rejected] {
        let n = reads_of(&traced, dirty);
        assert!(n <= 11 + 2 * PAIRS, "dirty query read the clock {n} times");
    }

    // Ring off: the same guards, timed only — exactly two reads each.
    let untraced = handle(observed().trace_capacity(0).build().unwrap());
    for i in 0..32 {
        assert_eq!(reads_of(&untraced, &q), 10, "query {i}, ring off");
    }
    assert_eq!(reads_of(&untraced, &repaired), 10, "repaired, ring off");
    // A rejected query runs no `candidates` / `local` phase.
    assert_eq!(reads_of(&untraced, &rejected), 6, "rejected, ring off");

    // Observability off: every guard is off.
    let plain = handle(EngineConfig::sequential());
    for dirty in [&q, &repaired, &rejected] {
        assert_eq!(reads_of(&plain, dirty), 0, "observability off");
    }
}
