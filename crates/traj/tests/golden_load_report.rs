//! Golden snapshot of the quarantine [`LoadReport`] JSON.
//!
//! The corrupted archive below is produced by the seeded fault injector, so
//! the tolerant loader's repair/quarantine accounting — and the report's
//! JSON schema — are byte-deterministic. Any change to a repair rule or to
//! the report's serialisation shows up as a one-line diff here.
//!
//! To regenerate after an *intentional* change:
//! `BLESS=1 cargo test -p hris-traj --test golden_load_report` and commit
//! the rewritten `golden_load_report.json`.

use hris_geo::Point;
use hris_traj::{
    encode_trips, fault_corpus, FaultInjector, GpsPoint, LoadReport, PointRepairs,
    TolerantLoadOptions, TrajId, Trajectory, TrajectoryArchive,
};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_load_report.json");

/// A fixed fleet of clean trips for the injector to corrupt.
fn base_trips() -> Vec<Trajectory> {
    (0..4)
        .map(|k| {
            Trajectory::new(
                TrajId(k),
                (0..10)
                    .map(|i| {
                        GpsPoint::new(
                            Point::new(i as f64 * 250.0, k as f64 * 400.0),
                            i as f64 * 30.0,
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The scripted dirty load: every fault kind, plus blob truncation.
fn dirty_load() -> LoadReport {
    let corrupted: Vec<Trajectory> = fault_corpus(2024, &base_trips(), 16)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let blob = encode_trips(&corrupted);
    let cut = FaultInjector::new(77).truncate_blob(&blob);
    let (_, report) = TrajectoryArchive::from_bytes_tolerant(cut, &TolerantLoadOptions::default());
    report
}

#[test]
fn load_report_json_matches_golden() {
    let got = dirty_load().to_json();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with BLESS=1 to generate it");
    assert!(
        got == want,
        "LoadReport JSON drifted from golden.\n--- got ---\n{got}\n--- want ---\n{want}"
    );
}

#[test]
fn dirty_load_is_deterministic() {
    // The golden test is only meaningful if two runs of the script agree.
    assert_eq!(dirty_load(), dirty_load());
}

#[test]
fn report_json_round_trips() {
    // Every field reads back from the rendered text through the parser.
    let report = dirty_load();
    let v = serde_json::from_str(&report.to_json()).unwrap();
    let back = LoadReport {
        trajectories_loaded: v["trajectories_loaded"].as_u64().unwrap() as usize,
        trajectories_quarantined: v["trajectories_quarantined"].as_u64().unwrap() as usize,
        points_loaded: v["points_loaded"].as_u64().unwrap() as usize,
        points_quarantined: v["points_quarantined"].as_u64().unwrap() as usize,
        teleports_removed: v["teleports_removed"].as_u64().unwrap() as usize,
        trajectories_resorted: v["trajectories_resorted"].as_u64().unwrap() as usize,
        repairs: PointRepairs {
            dropped_non_finite: v["repairs"]["dropped_non_finite"].as_u64().unwrap() as usize,
            dropped_out_of_range: v["repairs"]["dropped_out_of_range"].as_u64().unwrap() as usize,
            sorted: v["repairs"]["sorted"].as_bool().unwrap(),
            deduped: v["repairs"]["deduped"].as_u64().unwrap() as usize,
        },
        truncated: v["truncated"].as_bool().unwrap(),
        malformed: v["malformed"].as_bool().unwrap(),
    };
    assert_eq!(back, report);
}
