//! Order statistics for the benchmark's reported figures.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
///
/// # Panics
///
/// Panics if `values` is empty, holds a NaN, or `p` is outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    v[nearest_rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The rank is computed in integer hundredths of a percent so that
    // p99 of 1000 samples is rank 990 exactly, not 990.0000000000001.
    let hundredths = (p * 100.0).round() as u64;
    let rank = (n as u64 * hundredths).div_ceil(10_000);
    rank.max(1) as usize
}

/// Samples strictly above the nearest-rank `p` percentile of `n` samples —
/// the tail a reported percentile stands on.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Fewest samples for which the `p` percentile has at least `tail` samples
/// beyond it (e.g. 1000 for p99 with a tail of 10).
pub fn samples_needed(p: f64, tail: usize) -> usize {
    let mut n = tail.max(1);
    while samples_beyond(n, p) < tail {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 99.0), 990.0);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(samples_beyond(1, 99.0), 0);
        assert_eq!(samples_needed(99.0, 10), 1000);
        assert_eq!(samples_needed(50.0, 10), 20);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_zero() {
        percentile(&[1.0], 0.0);
    }
}
