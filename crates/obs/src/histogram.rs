//! Fixed-bucket histograms over `f64` observations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default bucket upper bounds for wall-clock phase timings, in seconds:
/// a 1–2.5–5 ladder from 10 µs to 10 s. Chosen so both a sub-millisecond
/// candidate lookup and a multi-second full-city query land in an interior
/// bucket.
pub const DEFAULT_TIME_BOUNDS: [f64; 19] = [
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
];

/// Bucket upper bounds for fine-grained control-plane latencies, in
/// seconds: a 1–2.5–5 ladder from 100 ns to 100 ms. Made for operations
/// that are usually sub-microsecond but occasionally pay a structural cost
/// — e.g. an epoch snapshot swap, which is an `Arc` pointer exchange in
/// the common case but follows an `O(n)` archive clone on publish.
pub const FINE_TIME_BOUNDS: [f64; 19] = [
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
    5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
];

/// A fixed-bucket histogram: `bounds.len() + 1` counters (one per upper
/// bound, plus the implicit `+Inf` overflow bucket), a running sum and a
/// total count, all updated with relaxed atomics.
///
/// Cloning shares the underlying storage, so a `Histogram` handle can be
/// held by many threads; observations are lock-free.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    /// Strictly increasing, finite upper bounds (Prometheus `le` semantics:
    /// a value `v` lands in the first bucket with `v <= bound`).
    bounds: Vec<f64>,
    /// One counter per bound, plus the trailing `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    /// Bit pattern of the running `f64` sum of finite observations.
    sum_bits: AtomicU64,
    /// Total observations (including non-finite ones).
    count: AtomicU64,
}

/// A point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The upper bounds the histogram was created with.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// overflow bucket, so `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all finite observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    /// A histogram with the given upper bounds.
    ///
    /// # Panics
    /// Panics when a bound is non-finite or the bounds are not strictly
    /// increasing (an empty list is allowed: everything lands in `+Inf`).
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly increasing");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Histogram {
            core: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation. A non-finite value counts toward `count`
    /// and the `+Inf` bucket but is excluded from `sum` (mirroring what a
    /// JSON export could represent).
    pub fn observe(&self, v: f64) {
        let idx = if v.is_finite() {
            self.core.bounds.partition_point(|&b| b < v)
        } else {
            self.core.bounds.len()
        };
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            // CAS loop: `AtomicF64` without leaving std.
            let mut cur = self.core.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match self.core.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        self.core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite observations so far.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// The configured upper bounds (without the implicit `+Inf`).
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.core.bounds
    }

    /// A point-in-time copy. Buckets and sum are read before `count`, so a
    /// concurrent snapshot can observe `count >= counts.iter().sum()` but
    /// never the reverse.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let sum = self.sum();
        let count = self.count();
        HistogramSnapshot {
            bounds: self.core.bounds.clone(),
            counts,
            sum,
            count,
        }
    }
}

impl HistogramSnapshot {
    /// Cumulative bucket counts in Prometheus `le` order, ending with the
    /// `+Inf` bucket (which equals `counts.iter().sum()`).
    #[must_use]
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) with Prometheus
    /// `histogram_quantile` semantics: linear interpolation inside the
    /// target bucket, the first bucket interpolated from 0 when its bound
    /// is positive, and ranks landing in `+Inf` clamped to the largest
    /// finite bound. `None` when the snapshot is empty, the quantile is
    /// out of range, or the histogram has no finite bounds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) || self.counts.iter().sum::<u64>() == 0 {
            return None;
        }
        let total: u64 = self.counts.iter().sum();
        let rank = q * total as f64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = acc;
            acc += c;
            if (acc as f64) < rank || c == 0 {
                continue;
            }
            let Some(&upper) = self.bounds.get(i) else {
                // Rank fell in +Inf: clamp to the largest finite bound.
                return self.bounds.last().copied();
            };
            let lower = if i == 0 {
                if upper > 0.0 {
                    0.0
                } else {
                    upper
                }
            } else {
                self.bounds[i - 1]
            };
            let frac = (rank - prev as f64) / c as f64;
            return Some(lower + (upper - lower) * frac.clamp(0.0, 1.0));
        }
        self.bounds.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_le_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        // le=1: {0.5, 1.0}; le=2: {1.5, 2.0}; le=4: {3.0, 4.0}; +Inf: {9.0}.
        assert_eq!(s.counts, vec![2, 2, 2, 1]);
        assert_eq!(s.count, 7);
        assert!((s.sum - 21.0).abs() < 1e-12);
        assert_eq!(s.cumulative(), vec![2, 4, 6, 7]);
    }

    #[test]
    fn empty_bounds_all_inf() {
        let h = Histogram::new(&[]);
        h.observe(3.0);
        h.observe(-1.0);
        assert_eq!(h.snapshot().counts, vec![2]);
    }

    #[test]
    fn non_finite_counts_but_does_not_poison_sum() {
        let h = Histogram::new(&[1.0]);
        h.observe(0.5);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.counts, vec![1, 2]);
        assert!((s.sum - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        // Rank 2 of 4 lands at the top of the (1, 2] bucket's first half.
        let p50 = s.quantile(0.5).unwrap();
        assert!((1.0..=2.0).contains(&p50), "p50 = {p50}");
        // Everything is ≤ 4, so high quantiles stay in the last bucket.
        let p99 = s.quantile(0.99).unwrap();
        assert!((2.0..=4.0).contains(&p99), "p99 = {p99}");
        // Empty snapshot has no quantiles.
        assert_eq!(Histogram::new(&[1.0]).snapshot().quantile(0.5), None);
        // Ranks in +Inf clamp to the largest finite bound.
        let inf = Histogram::new(&[1.0]);
        inf.observe(9.0);
        assert_eq!(inf.snapshot().quantile(0.9), Some(1.0));
    }

    #[test]
    fn clones_share_storage() {
        let h = Histogram::new(&[1.0]);
        let h2 = h.clone();
        h2.observe(0.5);
        assert_eq!(h.count(), 1);
    }
}
