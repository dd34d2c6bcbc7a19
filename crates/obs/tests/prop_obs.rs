//! Property tests of `hris-obs`: histogram bucket algebra and counter
//! monotonicity under concurrent increments.

use hris_obs::{Histogram, MetricsRegistry, PairedCounter, QueryRecord, TraceRing};
use proptest::prelude::*;
use rayon::prelude::*;

/// Strictly increasing finite bounds, 0–6 of them.
fn bounds() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1_000.0..1_000.0f64, 0..6).prop_map(|mut v| {
        v.sort_by(f64::total_cmp);
        v.dedup();
        v
    })
}

/// Observation values, including edge magnitudes the buckets must classify.
fn values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-2_000.0..2_000.0f64, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket totals, `le` placement, sum and cumulative form all follow
    /// from first principles for any bounds and any finite workload.
    #[test]
    fn histogram_bucket_invariants(bounds in bounds(), values in values()) {
        let h = Histogram::new(&bounds);
        for &v in &values {
            h.observe(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.counts.len(), bounds.len() + 1);
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.counts.iter().sum::<u64>(), values.len() as u64);

        // Each bucket's count equals the oracle: values in (prev, bound].
        for (i, b) in bounds.iter().enumerate() {
            let lo = if i == 0 { f64::NEG_INFINITY } else { bounds[i - 1] };
            let want = values.iter().filter(|&&v| v > lo && v <= *b).count() as u64;
            prop_assert_eq!(s.counts[i], want, "bucket le={}", b);
        }
        let overflow = values
            .iter()
            .filter(|&&v| bounds.last().is_none_or(|&b| v > b))
            .count() as u64;
        prop_assert_eq!(s.counts[bounds.len()], overflow);

        // Sum matches within float tolerance (CAS-accumulated vs ordered).
        let want_sum: f64 = values.iter().sum();
        prop_assert!(
            (s.sum - want_sum).abs() <= 1e-9 * (1.0 + want_sum.abs()),
            "sum {} vs {}", s.sum, want_sum
        );

        // Cumulative form is monotone and ends at the total count.
        let cum = s.cumulative();
        prop_assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*cum.last().unwrap(), s.count);
    }

    /// Counters never lose increments under parallel contention, and a
    /// paired counter's single-load snapshot is exact afterwards.
    #[test]
    fn counters_are_exact_under_parallel_increments(
        adds in prop::collection::vec(0u64..100, 1..50),
        hits in 0usize..500,
        misses in 0usize..500,
    ) {
        let r = MetricsRegistry::new();
        let c = r.counter("par_total", "Parallel adds.");
        let _: Vec<()> = adds.par_iter().map(|&n| c.add(n)).collect();
        prop_assert_eq!(c.get(), adds.iter().sum::<u64>());

        let p = PairedCounter::new();
        let events: Vec<bool> = (0..hits)
            .map(|_| true)
            .chain((0..misses).map(|_| false))
            .collect();
        let _: Vec<()> = events
            .par_iter()
            .map(|&is_hit| if is_hit { p.hit() } else { p.miss() })
            .collect();
        prop_assert_eq!(p.get(), (hits as u64, misses as u64));
    }

    /// A histogram observed from many threads at once drops nothing.
    #[test]
    fn histogram_is_exact_under_parallel_observation(
        values in prop::collection::vec(-100.0..100.0f64, 1..300),
    ) {
        let h = Histogram::new(&[-50.0, 0.0, 50.0]);
        let _: Vec<()> = values.par_iter().map(|&v| h.observe(v)).collect();
        let s = h.snapshot();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.counts.iter().sum::<u64>(), s.count);
        let want_sum: f64 = values.iter().sum();
        prop_assert!((s.sum - want_sum).abs() <= 1e-6 * (1.0 + want_sum.abs()));
    }

    /// The Prometheus text export is structurally sound for arbitrary
    /// histogram content: one header per family, cumulative buckets, and a
    /// final `+Inf` bucket equal to `_count`.
    #[test]
    fn prometheus_export_is_structurally_sound(values in values()) {
        let r = MetricsRegistry::new();
        let h = r.histogram("hist", "H.", &[-1.0, 1.0]);
        for &v in &values {
            h.observe(v);
        }
        let text = r.snapshot().to_prometheus();
        prop_assert_eq!(text.matches("# TYPE hist histogram").count(), 1);
        let bucket_of = |le: &str| -> u64 {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("hist_bucket{{le=\"{le}\"}}")))
                .unwrap_or_else(|| panic!("missing le={le} bucket"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        let (b1, b2, binf) = (bucket_of("-1"), bucket_of("1"), bucket_of("+Inf"));
        prop_assert!(b1 <= b2 && b2 <= binf, "buckets not cumulative: {b1} {b2} {binf}");
        let count_line = text
            .lines()
            .find(|l| l.starts_with("hist_count"))
            .unwrap();
        let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        prop_assert_eq!(binf, count);
        prop_assert_eq!(count, values.len() as u64);
    }

    /// Observations landing *exactly on* a bucket bound classify into that
    /// bound's bucket (le-semantics), never the one above — for any bounds.
    #[test]
    fn histogram_boundary_observations_use_le_semantics(
        bounds in prop::collection::vec(-1_000.0..1_000.0f64, 1..6).prop_map(|mut v| {
            v.sort_by(f64::total_cmp);
            v.dedup();
            v
        }),
        repeats in 1usize..5,
    ) {
        let h = Histogram::new(&bounds);
        for &b in &bounds {
            for _ in 0..repeats {
                h.observe(b);
            }
        }
        let s = h.snapshot();
        // One bucket per bound, each holding exactly its own boundary hits;
        // nothing overflows to +Inf.
        for (i, _) in bounds.iter().enumerate() {
            prop_assert_eq!(s.counts[i], repeats as u64, "bucket {}", i);
        }
        prop_assert_eq!(s.counts[bounds.len()], 0, "+Inf must stay empty");
        // The next representable value above the last bound *does* overflow.
        h.observe(bounds.last().unwrap().next_up());
        prop_assert_eq!(h.snapshot().counts[bounds.len()], 1);
    }
}

/// A bounded ring hammered by concurrent writers keeps exactly `capacity`
/// records, counts every eviction, and never tears a record.
#[test]
fn trace_ring_wraparound_under_concurrent_writers() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 100;
    const CAP: usize = 8;
    let ring = TraceRing::new(CAP);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let ring = ring.clone();
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    let _ = ring.push(QueryRecord {
                        query_id: w * PER_WRITER + i,
                        points: w as usize,
                        ..QueryRecord::default()
                    });
                }
            });
        }
    });
    let kept = ring.snapshot();
    assert_eq!(kept.len(), CAP);
    assert_eq!(ring.dropped(), WRITERS * PER_WRITER - CAP as u64);
    for r in &kept {
        // No torn records: each retained record is exactly as one writer
        // pushed it.
        assert_eq!(r.points as u64, r.query_id / PER_WRITER);
        assert!(r.query_id < WRITERS * PER_WRITER);
    }
    // Ids are unique — eviction drops whole records, never duplicates.
    let mut ids: Vec<u64> = kept.iter().map(|r| r.query_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CAP);
}
