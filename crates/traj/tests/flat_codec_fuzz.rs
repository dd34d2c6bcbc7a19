//! Seeded, time-boxed fuzzing of the flat archive codec
//! ([`TrajectoryArchive::from_bytes`] and
//! [`TrajectoryArchive::from_bytes_tolerant`]), the decoders that read
//! untrusted bytes.
//!
//! Each case derives a blob from the seeded fault corpus — clean or
//! corrupted trips, encoded — and then leaves it whole, flips bits in it,
//! truncates it, appends random bytes, or replaces it with random bytes.
//! Properties:
//! * neither decoder panics;
//! * a blob `from_bytes` accepts re-encodes to the bytes it consumed: the
//!   whole blob for an unmutated encoding (the decoder ignores bytes after
//!   the last announced trip);
//! * where the tolerant loader repairs nothing, `from_bytes` accepts the
//!   blob and loads the same trips; every encoded clean archive is such a
//!   blob.
//!
//! The run stops after `MAX_CASES` cases or `BUDGET`, whichever is first.
//! A failure names the case seed; `case(seed)` replays it.

use hris_geo::Point;
use hris_traj::{
    encode_trips, fault_corpus, GpsPoint, TolerantLoadOptions, TrajId, Trajectory,
    TrajectoryArchive,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x5eed_f1a7;
const MAX_CASES: u64 = 2_000;
const BUDGET: Duration = Duration::from_millis(400);

/// A few short clean trips for the fault corpus to corrupt.
fn base_trips() -> Vec<Trajectory> {
    (0..3)
        .map(|k| {
            Trajectory::new(
                TrajId(k),
                (0..6)
                    .map(|i| {
                        GpsPoint::new(
                            Point::new(i as f64 * 120.0, k as f64 * 300.0),
                            i as f64 * 20.0,
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// How a case's blob was made from its encoded trips.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    None,
    BitFlips,
    Truncate,
    AppendRandom,
    Random,
}

/// One case: its blob, whether the trips were clean, and the mutation.
fn case(seed: u64) -> (Vec<u8>, bool, Mutation) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let base = base_trips();
    let clean = rng.gen_bool(0.3);
    let trips: Vec<Trajectory> = if clean {
        base.iter()
            .take(rng.gen_range(0..=base.len()))
            .cloned()
            .collect()
    } else {
        let n = rng.gen_range(1..=6);
        fault_corpus(rng.gen(), &base, n)
            .into_iter()
            .map(|(_, t)| t)
            .collect()
    };
    let mut blob = encode_trips(&trips).to_vec();
    let mutation = match rng.gen_range(0..5) {
        0 => Mutation::None,
        1 => Mutation::BitFlips,
        2 => Mutation::Truncate,
        3 => Mutation::AppendRandom,
        _ => Mutation::Random,
    };
    match mutation {
        Mutation::None => {}
        Mutation::BitFlips => {
            for _ in 0..rng.gen_range(1..=4) {
                let bit = rng.gen_range(0..blob.len() * 8);
                blob[bit / 8] ^= 1 << (bit % 8);
            }
        }
        Mutation::Truncate => blob.truncate(rng.gen_range(0..blob.len())),
        Mutation::AppendRandom => {
            let extra = rng.gen_range(1..=40);
            blob.extend((0..extra).map(|_| rng.gen::<u32>() as u8));
        }
        Mutation::Random => {
            let len = rng.gen_range(0..=64);
            blob = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
            // Keep the trip count small half the time, so the loop runs.
            if blob.len() >= 4 && rng.gen_bool(0.5) {
                blob[..4].copy_from_slice(&rng.gen_range(0u32..4).to_le_bytes());
            }
        }
    }
    (blob, clean, mutation)
}

/// The flat encoding of an archive's trips: equal bytes are bit-identical
/// points (NaN payloads and signed zeros included).
fn encoding(a: &TrajectoryArchive) -> Vec<u8> {
    encode_trips(a.trajectories()).to_vec()
}

fn check(seed: u64) -> Result<(), String> {
    let (blob, clean, mutation) = case(seed);
    let shared: Arc<[u8]> = Arc::from(blob.as_slice());
    let strict = catch_unwind(AssertUnwindSafe(|| {
        TrajectoryArchive::from_bytes(shared.clone())
    }))
    .map_err(|_| "from_bytes panicked".to_string())?;
    let (tolerant, report) = catch_unwind(AssertUnwindSafe(|| {
        TrajectoryArchive::from_bytes_tolerant(shared.clone(), &TolerantLoadOptions::default())
    }))
    .map_err(|_| "from_bytes_tolerant panicked".to_string())?;

    let whole = mutation == Mutation::None;
    match &strict {
        // `from_bytes` reads the trips its count announces and ignores any
        // bytes after them, so an accepted blob starts with its encoding.
        Some(strict) => {
            let re = encoding(strict);
            if !blob.starts_with(&re) || (whole && re != blob) {
                return Err(format!(
                    "accepted blob of {} bytes re-encodes to {} other bytes",
                    blob.len(),
                    re.len()
                ));
            }
            if report.clean() && encoding(&tolerant) != re {
                return Err("clean tolerant load differs from from_bytes".to_string());
            }
        }
        None if report.clean() => {
            return Err("tolerant loader found nothing to repair in a rejected blob".to_string());
        }
        None if clean && whole => {
            return Err("from_bytes rejected an encoded clean archive".to_string());
        }
        None => {}
    }
    if clean && whole && !report.clean() {
        return Err(format!(
            "tolerant loader repaired a clean archive: {report:?}"
        ));
    }
    Ok(())
}

#[test]
fn flat_codec_survives_seeded_fuzzing() {
    let start = Instant::now();
    let mut cases = 0;
    while cases < MAX_CASES && start.elapsed() < BUDGET {
        let seed = SEED ^ cases;
        if let Err(e) = check(seed) {
            panic!("case seed {seed:#x} ({:?}): {e}", case(seed).2);
        }
        cases += 1;
    }
    assert!(cases >= 50, "only {cases} cases ran inside {BUDGET:?}");
}
