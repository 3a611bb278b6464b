//! Order statistics for timing samples.

/// Sorted copy with NaNs ordered last (a NaN timing is a bug upstream, not
/// something to hide by dropping it).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spreads printed here are the ones the acceptance check computes.
/// Fewer than two values give that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank position (1-based) of the `per_mille`/1000 quantile among
/// `n` samples; whole-number arithmetic, so 90 % of 100 is exactly 90.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of the samples; `per_mille` is 950 for p95.
pub fn percentile(values: &[f64], per_mille: usize) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), per_mille) - 1]
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// True when at least [`TAIL_SUPPORT`] of `n` samples lie beyond the
/// percentile.
pub fn supports(n: usize, per_mille: usize) -> bool {
    n > 0 && n - rank(n, per_mille) >= TAIL_SUPPORT
}

/// The highest of p90/p95/p99/p99.9 that `n` samples support, else the
/// median, in thousandths.
pub fn highest_supported(n: usize) -> usize {
    [999, 990, 950, 900]
        .into_iter()
        .find(|&p| supports(n, p))
        .unwrap_or(500)
}

/// What is reported for every timing: count, quartiles and extremes.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let [q1, median, q3] = quartiles(&v);
        Summary {
            n: v.len(),
            min: v.first().copied().unwrap_or(0.0),
            q1,
            median,
            q3,
            max: v.last().copied().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]),
            [15.0, 30.0, 45.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 950), 95.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&v, 1), 1.0);
        assert_eq!(percentile(&[5.0], 990), 5.0);
        assert_eq!(percentile(&[], 500), 0.0);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert!(!supports(199, 950));
        assert!(supports(200, 950));
        assert!(!supports(999, 990));
        assert!(supports(1000, 990));
        assert!(!supports(0, 500));
        assert_eq!(highest_supported(50), 500);
        assert_eq!(highest_supported(100), 900);
        assert_eq!(highest_supported(250), 950);
        assert_eq!(highest_supported(1000), 990);
        assert_eq!(highest_supported(10_000), 999);
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.n, 5);
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!((s.min, s.median, s.max), (1.0, 3.0, 5.0));
    }
}
