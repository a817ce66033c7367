//! Order statistics used by every estimate the benchmark reports.
//!
//! Two conventions coexist on purpose. Latency percentiles and the
//! lower-quartile round wall use **nearest rank** (an observed sample, never
//! an interpolated one). Run-to-run spreads use the same quartiles as
//! Python's `statistics.quantiles(values, n=4)` (the *exclusive* method),
//! because that is what the pipeline that accepts or rejects a change
//! computes, and `agree` must predict its verdict.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it.
///
/// # Panics
/// If `sorted` is empty or `pct` is outside `1..=100`.
pub fn percentile<T: Copy>(sorted: &[T], pct: u32) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let rank = (sorted.len() as u64 * u64::from(pct)).div_ceil(100);
    sorted[rank as usize - 1]
}

/// Median of an unordered slice (mean of the two middle samples when the
/// count is even).
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as `statistics.quantiles(values, n=4)` returns
/// them (exclusive method: positions `i·(n+1)/4`, linear interpolation,
/// clamped to the sample range).
///
/// # Panics
/// If fewer than two values are given (Python raises there too).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the spread figure the
/// acceptance pipeline compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v: Vec<u64> = (1..=9).collect();
        // ceil(0.25 * 9) = 3: the third fastest of nine rounds.
        assert_eq!(percentile(&v, 25), 3);
        assert_eq!(percentile(&v, 50), 5);
        assert_eq!(percentile(&v, 99), 9);
        assert_eq!(percentile(&v, 100), 9);
        assert_eq!(percentile(&[7u32], 1), 7);
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 25), 3);
        assert_eq!(percentile(&ten, 50), 5);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 4.0, 2.0, 5.0, 4.0]), (3.0, 4.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
