//! Deterministic fault injection for dirty-data robustness testing.
//!
//! Real low-sampling-rate feeds (the paper's setting) arrive with dropped
//! points, duplicated and out-of-order timestamps, GPS teleports and outright
//! garbage coordinates. This module produces such corruption *reproducibly*:
//! a [`FaultInjector`] is seeded, every corruption is a pure function of the
//! seed and call sequence, so a failing case can be replayed exactly.
//!
//! Corrupted trajectories are built with [`Trajectory::from_unchecked`] —
//! they deliberately violate the invariants [`Trajectory::new`] asserts, and
//! exist to prove the engine and the tolerant archive loader survive them.

use crate::types::{TrajId, Trajectory};
use bytes::Bytes;
use hris_geo::Point;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One class of data corruption seen in real GPS feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Observations randomly removed (sparse/patchy feed).
    DropPoints,
    /// A record duplicated verbatim (repeated upload).
    DuplicatePoint,
    /// Timestamps of two observations swapped (out-of-order delivery).
    OutOfOrderTimestamps,
    /// One observation displaced tens–hundreds of km (GPS teleport).
    TeleportJump,
    /// A coordinate or timestamp replaced by NaN.
    NanValue,
    /// A coordinate far outside any plausible planar frame.
    OutOfRangeCoordinate,
    /// All observations lost.
    Empty,
    /// All but one observation lost.
    SinglePoint,
}

impl FaultKind {
    /// Every fault kind, in a fixed order (corpus generation cycles this).
    pub const ALL: [FaultKind; 8] = [
        FaultKind::DropPoints,
        FaultKind::DuplicatePoint,
        FaultKind::OutOfOrderTimestamps,
        FaultKind::TeleportJump,
        FaultKind::NanValue,
        FaultKind::OutOfRangeCoordinate,
        FaultKind::Empty,
        FaultKind::SinglePoint,
    ];

    /// Stable lower-snake name (metric labels, reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DropPoints => "drop_points",
            FaultKind::DuplicatePoint => "duplicate_point",
            FaultKind::OutOfOrderTimestamps => "out_of_order_timestamps",
            FaultKind::TeleportJump => "teleport_jump",
            FaultKind::NanValue => "nan_value",
            FaultKind::OutOfRangeCoordinate => "out_of_range_coordinate",
            FaultKind::Empty => "empty",
            FaultKind::SinglePoint => "single_point",
        }
    }
}

/// Seeded source of corrupted trajectory variants.
///
/// All randomness comes from one ChaCha8 stream, so a fixed seed and call
/// order reproduce the same corruption byte for byte.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: ChaCha8Rng,
}

impl FaultInjector {
    /// An injector with a fixed seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// A corrupted variant of `traj` exhibiting `kind`.
    ///
    /// Kinds needing structure the input lacks degrade gracefully: swapping
    /// timestamps of a single-point trajectory returns it unchanged rather
    /// than failing, so corpus generation never aborts.
    pub fn corrupt(&mut self, traj: &Trajectory, kind: FaultKind) -> Trajectory {
        let mut pts = traj.points.clone();
        match kind {
            FaultKind::DropPoints => {
                let keep: Vec<bool> = (0..pts.len()).map(|_| !self.rng.gen_bool(0.4)).collect();
                let mut it = keep.iter();
                pts.retain(|_| *it.next().unwrap());
            }
            FaultKind::DuplicatePoint => {
                if !pts.is_empty() {
                    let i = self.rng.gen_range(0..pts.len());
                    let p = pts[i];
                    pts.insert(i, p);
                }
            }
            FaultKind::OutOfOrderTimestamps => {
                if pts.len() >= 2 {
                    let i = self.rng.gen_range(0..pts.len() - 1);
                    let j = self.rng.gen_range(i + 1..pts.len());
                    let (ti, tj) = (pts[i].t, pts[j].t);
                    pts[i].t = tj;
                    pts[j].t = ti;
                }
            }
            FaultKind::TeleportJump => {
                if !pts.is_empty() {
                    let i = self.rng.gen_range(0..pts.len());
                    let d = self.rng.gen_range(50_000.0..500_000.0);
                    let angle = self.rng.gen_range(0.0..std::f64::consts::TAU);
                    pts[i].pos = Point::new(
                        pts[i].pos.x + d * angle.cos(),
                        pts[i].pos.y + d * angle.sin(),
                    );
                }
            }
            FaultKind::NanValue => {
                if !pts.is_empty() {
                    let i = self.rng.gen_range(0..pts.len());
                    match self.rng.gen_range(0u32..3) {
                        0 => pts[i].pos.x = f64::NAN,
                        1 => pts[i].pos.y = f64::NAN,
                        _ => pts[i].t = f64::NAN,
                    }
                }
            }
            FaultKind::OutOfRangeCoordinate => {
                if !pts.is_empty() {
                    let i = self.rng.gen_range(0..pts.len());
                    let sign = if self.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    pts[i].pos.x = sign * self.rng.gen_range(1.0e8..1.0e9);
                }
            }
            FaultKind::Empty => pts.clear(),
            FaultKind::SinglePoint => {
                if pts.len() > 1 {
                    let i = self.rng.gen_range(0..pts.len());
                    let p = pts[i];
                    pts.clear();
                    pts.push(p);
                }
            }
        }
        Trajectory::from_unchecked(traj.id, pts)
    }

    /// Cuts a serialized archive blob at a random interior byte — the
    /// truncated-upload fault the tolerant loader must survive.
    pub fn truncate_blob(&mut self, blob: &Bytes) -> Bytes {
        if blob.len() < 2 {
            return blob.clone();
        }
        let cut = self.rng.gen_range(1..blob.len());
        blob.slice(0..cut)
    }
}

/// A seeded corpus of corrupted queries: `cases` trajectories cycling
/// through every [`FaultKind`] (all kinds represented once
/// `cases >= FaultKind::ALL.len()`), derived from `base` round-robin.
///
/// This is the reusable corpus behind the never-panic property test —
/// downstream crates feed it straight into `QueryEngine::infer_batch`.
///
/// # Panics
/// Panics if `base` is empty.
#[must_use]
pub fn fault_corpus(seed: u64, base: &[Trajectory], cases: usize) -> Vec<(FaultKind, Trajectory)> {
    assert!(
        !base.is_empty(),
        "fault_corpus needs at least one base trajectory"
    );
    let mut inj = FaultInjector::new(seed);
    (0..cases)
        .map(|c| {
            let kind = FaultKind::ALL[c % FaultKind::ALL.len()];
            let mut t = inj.corrupt(&base[c % base.len()], kind);
            t.id = TrajId(c as u32);
            (kind, t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::GpsPoint;

    fn base() -> Trajectory {
        Trajectory::new(
            TrajId(3),
            (0..8)
                .map(|i| GpsPoint::new(Point::new(i as f64 * 100.0, 0.0), i as f64 * 30.0))
                .collect(),
        )
    }

    #[test]
    fn corpus_is_deterministic_and_covers_all_kinds() {
        let b = vec![base()];
        let a = fault_corpus(42, &b, 100);
        let c = fault_corpus(42, &b, 100);
        assert_eq!(a.len(), 100);
        for ((ka, ta), (kc, tc)) in a.iter().zip(&c) {
            assert_eq!(ka, kc);
            assert_eq!(ta.id, tc.id);
            assert_eq!(ta.points.len(), tc.points.len());
            for (pa, pc) in ta.points.iter().zip(&tc.points) {
                // Bit-level equality so NaNs compare equal too.
                assert_eq!(pa.pos.x.to_bits(), pc.pos.x.to_bits());
                assert_eq!(pa.pos.y.to_bits(), pc.pos.y.to_bits());
                assert_eq!(pa.t.to_bits(), pc.t.to_bits());
            }
        }
        for kind in FaultKind::ALL {
            assert!(a.iter().any(|(k, _)| *k == kind), "missing {kind:?}");
        }
        // A different seed must actually change the corruption.
        let d = fault_corpus(43, &b, 100);
        assert!(a.iter().zip(&d).any(|((_, ta), (_, td))| ta != td));
    }

    #[test]
    fn each_kind_exhibits_its_fault() {
        let mut inj = FaultInjector::new(7);
        let t = base();

        let dup = inj.corrupt(&t, FaultKind::DuplicatePoint);
        assert_eq!(dup.points.len(), t.points.len() + 1);
        assert!(dup.points.windows(2).any(|w| w[0] == w[1]));

        let ooo = inj.corrupt(&t, FaultKind::OutOfOrderTimestamps);
        assert!(!ooo.points.windows(2).all(|w| w[0].t <= w[1].t));

        let tele = inj.corrupt(&t, FaultKind::TeleportJump);
        let max_hop = tele
            .points
            .windows(2)
            .map(|w| w[0].dist(&w[1]))
            .fold(0.0, f64::max);
        assert!(max_hop >= 50_000.0, "teleport hop was only {max_hop}");

        let nan = inj.corrupt(&t, FaultKind::NanValue);
        assert!(nan
            .points
            .iter()
            .any(|p| p.pos.x.is_nan() || p.pos.y.is_nan() || p.t.is_nan()));

        let far = inj.corrupt(&t, FaultKind::OutOfRangeCoordinate);
        assert!(far.points.iter().any(|p| p.pos.x.abs() >= 1.0e8));

        assert!(inj.corrupt(&t, FaultKind::Empty).is_empty());
        assert_eq!(inj.corrupt(&t, FaultKind::SinglePoint).len(), 1);
    }

    #[test]
    fn degenerate_inputs_never_panic_the_injector() {
        let mut inj = FaultInjector::new(1);
        let empty = Trajectory::new(TrajId(0), vec![]);
        let single = Trajectory::new(TrajId(0), vec![GpsPoint::new(Point::ORIGIN, 0.0)]);
        for kind in FaultKind::ALL {
            let _ = inj.corrupt(&empty, kind);
            let _ = inj.corrupt(&single, kind);
        }
    }

    #[test]
    fn truncate_blob_shortens() {
        let mut inj = FaultInjector::new(5);
        let blob = Bytes::from(vec![0u8; 64]);
        let cut = inj.truncate_blob(&blob);
        assert!(!cut.is_empty() && cut.len() < blob.len());
        // Deterministic for the same seed/sequence.
        let cut2 = FaultInjector::new(5).truncate_blob(&blob);
        assert_eq!(cut.as_ref(), cut2.as_ref());
    }
}
