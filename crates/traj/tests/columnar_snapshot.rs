//! Differential, property and golden tests for the columnar snapshot
//! format (`hris_traj::snapshot`).
//!
//! The format's contract is byte-identity: decoding a snapshot reproduces
//! every `f64` bit pattern of the source archive, for *any* archive —
//! clean simulator output, PR-3 repaired non-monotone inputs, empty
//! trajectories, NaN-bearing garbage that only `from_unchecked` can hold.
//! The golden test pins the on-disk header layout; the fault-corpus test
//! proves corrupted blobs are rejected, never mis-decoded into a
//! different archive or a panic.

use hris_geo::Point;
use hris_traj::snapshot::SNAPSHOT_HEADER_LEN;
use hris_traj::{
    encode_snapshot, fault_corpus, ColumnarSnapshot, GpsPoint, SnapshotError, TrajId, Trajectory,
    TrajectoryArchive,
};
use proptest::prelude::*;
use std::sync::Arc;

fn assert_bit_identical(a: &TrajectoryArchive, b: &TrajectoryArchive) {
    assert_eq!(a.num_trajectories(), b.num_trajectories());
    assert_eq!(a.num_points(), b.num_points());
    for (ta, tb) in a.trajectories().iter().zip(b.trajectories()) {
        assert_eq!(ta.id, tb.id);
        assert_eq!(ta.points.len(), tb.points.len());
        for (pa, pb) in ta.points.iter().zip(&tb.points) {
            assert_eq!(pa.t.to_bits(), pb.t.to_bits());
            assert_eq!(pa.pos.x.to_bits(), pb.pos.x.to_bits());
            assert_eq!(pa.pos.y.to_bits(), pb.pos.y.to_bits());
        }
    }
}

/// Time-ordered trajectory with mm/ms-clean values (the FIXED path).
fn clean_trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec(
        (
            -5_000_000i64..5_000_000i64, // mm
            -5_000_000i64..5_000_000i64,
            100i64..120_000i64, // ms per step
        ),
        0..40,
    )
    .prop_map(|steps| {
        let mut t = 0i64;
        let points = steps
            .into_iter()
            .map(|(x, y, dt)| {
                t += dt;
                GpsPoint::new(
                    Point::new(x as f64 / 1000.0, y as f64 / 1000.0),
                    t as f64 / 1000.0,
                )
            })
            .collect();
        Trajectory::new(TrajId(0), points)
    })
}

/// Arbitrary-bits trajectory: unordered times, subnormals, NaN payloads —
/// everything `from_unchecked` admits. Forces the RAW column path.
fn hostile_trajectory() -> impl Strategy<Value = Trajectory> {
    // Raw u64 bit patterns reinterpreted as f64 cover NaNs, infinities and
    // subnormals, none of which `Trajectory::new` would admit.
    let bits = || 0u64..u64::MAX;
    prop::collection::vec((bits(), bits(), bits()), 0..20).prop_map(|pts| {
        let points = pts
            .into_iter()
            .map(|(x, y, t)| {
                GpsPoint::new(
                    Point::new(f64::from_bits(x), f64::from_bits(y)),
                    f64::from_bits(t),
                )
            })
            .collect();
        Trajectory::from_unchecked(TrajId(0), points)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clean_archives_roundtrip_bit_identically(
        trips in prop::collection::vec(clean_trajectory(), 0..6),
        epoch in 0u64..u64::MAX,
    ) {
        let archive = TrajectoryArchive::new(trips);
        let blob = encode_snapshot(&archive, epoch);
        let snap = ColumnarSnapshot::open(blob).expect("open");
        prop_assert_eq!(snap.epoch(), epoch);
        let decoded = snap.decode_archive().expect("decode");
        assert_bit_identical(&archive, &decoded);
    }

    #[test]
    fn hostile_archives_roundtrip_bit_identically(
        trips in prop::collection::vec(hostile_trajectory(), 0..6),
    ) {
        let archive = TrajectoryArchive::new(trips);
        let blob = encode_snapshot(&archive, 0);
        let snap = ColumnarSnapshot::open(blob).expect("open");
        let decoded = snap.decode_archive().expect("decode");
        assert_bit_identical(&archive, &decoded);
    }

    #[test]
    fn columnar_decode_matches_flat_binary_path(
        trips in prop::collection::vec(clean_trajectory(), 0..6),
    ) {
        // Differential: the new path must agree with the PR-0 flat
        // binary path wherever the latter is defined.
        let archive = TrajectoryArchive::new(trips);
        let flat = TrajectoryArchive::from_bytes(archive.to_bytes())
            .expect("flat path roundtrips clean data");
        let snap = ColumnarSnapshot::open(encode_snapshot(&archive, 0)).expect("open");
        let columnar = snap.decode_archive().expect("decode");
        assert_bit_identical(&flat, &columnar);
    }

    #[test]
    fn any_single_header_byte_flip_is_rejected(
        trips in prop::collection::vec(clean_trajectory(), 1..4),
        byte in 0usize..SNAPSHOT_HEADER_LEN,
        bit in 0u8..8,
    ) {
        let archive = TrajectoryArchive::new(trips);
        let mut raw = encode_snapshot(&archive, 9).to_vec();
        raw[byte] ^= 1 << bit;
        prop_assert!(ColumnarSnapshot::open(Arc::from(raw)).is_err());
    }
}

#[test]
fn repaired_fault_corpus_roundtrips_bit_identically() {
    // PR-3 wiring: archive the raw fault-corpus trajectories (non-monotone
    // timestamps, NaN injections, teleports, duplicates — held via
    // `from_unchecked`) and prove the columnar format carries them
    // losslessly, exactly as the tolerant loader would receive them.
    let base = vec![Trajectory::new(
        TrajId(0),
        (0..12)
            .map(|i| {
                GpsPoint::new(
                    Point::new(f64::from(i) * 250.0, f64::from(i % 3) * 100.0),
                    f64::from(i) * 30.0,
                )
            })
            .collect(),
    )];
    let corpus = fault_corpus(0xC0FFEE, &base, 32);
    let trips: Vec<Trajectory> = corpus.into_iter().map(|(_, t)| t).collect();
    let archive = TrajectoryArchive::new(trips);
    let snap = ColumnarSnapshot::open(encode_snapshot(&archive, 1)).expect("open");
    let decoded = snap.decode_archive().expect("decode");
    assert_bit_identical(&archive, &decoded);
}

#[test]
fn corrupt_blobs_never_panic_and_never_mis_open() {
    // Seeded sweep wired onto the fault-corpus archive: flip every byte of
    // the whole blob in turn. Header flips must be rejected
    // at open; payload flips may open but must either decode (bounds are
    // validated) or return a structured error — never panic.
    let base = vec![Trajectory::new(
        TrajId(0),
        (0..8)
            .map(|i| GpsPoint::new(Point::new(f64::from(i) * 100.0, 50.0), f64::from(i) * 15.0))
            .collect(),
    )];
    let corpus = fault_corpus(42, &base, 8);
    let archive = TrajectoryArchive::new(corpus.into_iter().map(|(_, t)| t).collect());
    let raw = encode_snapshot(&archive, 3).to_vec();
    for at in 0..raw.len() {
        let mut bad = raw.clone();
        bad[at] ^= 0x55;
        match ColumnarSnapshot::open(Arc::from(bad)) {
            Ok(snap) => {
                assert!(
                    at >= SNAPSHOT_HEADER_LEN,
                    "header flip at byte {at} must not open"
                );
                // Structure validated at open; payload decode must not
                // panic whatever the flip did.
                let _ = snap.decode_archive();
            }
            Err(e) => {
                let _ = e.to_string(); // Display must not panic either.
            }
        }
    }
}

#[test]
fn truncations_are_rejected_at_every_length() {
    let base = vec![Trajectory::new(
        TrajId(0),
        (0..6)
            .map(|i| GpsPoint::new(Point::new(f64::from(i) * 90.0, 0.0), f64::from(i) * 10.0))
            .collect(),
    )];
    let archive = TrajectoryArchive::new(base);
    let raw = encode_snapshot(&archive, 0).to_vec();
    for cut in 0..raw.len() {
        let err = ColumnarSnapshot::open(Arc::from(raw[..cut].to_vec()))
            .expect_err("every strict prefix must be rejected");
        assert!(
            matches!(
                err,
                SnapshotError::TooShort | SnapshotError::Truncated | SnapshotError::Malformed(_)
            ),
            "cut {cut}: unexpected {err:?}"
        );
    }
}

/// Deterministic fixture for the golden header test: same archive, same
/// epoch, every run.
fn golden_archive() -> TrajectoryArchive {
    let trips = vec![
        Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(120.5, -40.25), 0.0),
                GpsPoint::new(Point::new(180.0, -10.75), 30.0),
                GpsPoint::new(Point::new(260.125, 15.0), 62.5),
            ],
        ),
        Trajectory::new(
            TrajId(1),
            vec![
                GpsPoint::new(Point::new(-1000.0, 2000.001), 5.0),
                GpsPoint::new(Point::new(-990.0, 2000.002), 9.0),
            ],
        ),
    ];
    TrajectoryArchive::new(trips)
}

#[test]
fn snapshot_format_matches_golden_file() {
    // Pins the on-disk layout: header field values *and* the exact header
    // bytes. A diff here means the format changed — bump
    // SNAPSHOT_VERSION and re-bless with:
    //   BLESS=1 cargo test -p hris-traj --test columnar_snapshot
    let blob = encode_snapshot(&golden_archive(), 5);
    let snap = ColumnarSnapshot::open(blob.clone()).expect("open");
    let mut actual = snap.header().describe();
    actual.push_str("header_bytes    ");
    for b in &blob[..SNAPSHOT_HEADER_LEN] {
        actual.push_str(&format!(" {b:02x}"));
    }
    actual.push('\n');

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("snapshot_format.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file missing at {}; regenerate with BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "snapshot format drifted from the golden layout; if intentional, \
         bump SNAPSHOT_VERSION and re-bless with BLESS=1"
    );
}
