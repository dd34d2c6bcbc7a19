//! The benchmark's own statistics: medians, quartiles, tail percentiles
//! with the "enough samples beyond" rule, and the spread used to decide
//! whether two sets of runs can be told apart.

/// Samples that must lie beyond a percentile for it to be reported as
/// resolved (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method) so the numbers
/// agree with the driver's. Needs at least two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the driver holds against a metric's bound.
#[must_use]
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A nearest-rank percentile and how well the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The `p`-th percentile (the smallest sample with at least `p` % of
    /// the samples at or below it).
    pub value: f64,
    /// Samples strictly above that rank.
    pub beyond: usize,
}

impl Percentile {
    /// `true` when at least [`MIN_BEYOND`] samples lie beyond the
    /// percentile, so the tail estimate is not a single outlier.
    #[must_use]
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank `p`-th percentile (`0 < p ≤ 100`); `None` when empty.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: v[rank - 1],
        beyond: n - rank,
    })
}

/// Throughput of a closed-loop run split into equal rounds: round size over
/// the *median* round wall, so one disturbed round does not move it.
#[must_use]
pub fn median_round_qps(round_size: usize, round_walls_s: &[f64]) -> f64 {
    round_size as f64 / median(round_walls_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), Some([2.0, 7.0, 10.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&xs), Some(1.0));
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.resolved());
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let p99 = percentile(&short, 99.0).unwrap();
        assert_eq!(p99.beyond, 9);
        assert!(!p99.resolved());
        assert_eq!(percentile(&xs, 50.0).unwrap().value, 500.0);
        assert_eq!(percentile(&[7.0], 99.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn qps_ignores_one_slow_round() {
        let steady = median_round_qps(100, &[1.0, 1.0, 1.0, 1.0, 1.0]);
        let disturbed = median_round_qps(100, &[1.0, 1.0, 9.0, 1.0, 1.0]);
        assert_eq!(steady, 100.0);
        assert_eq!(disturbed, 100.0);
    }
}
