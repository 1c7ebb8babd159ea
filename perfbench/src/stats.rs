//! Order statistics for the benchmark's reports.

/// Median of `values` (mean of the middle two for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank `per_mille`/1000 quantile of ascending `sorted`
/// samples (500 = p50, 990 = p99, 999 = p99.9), or `None` unless at least
/// [`MIN_SAMPLES_BEYOND`] samples lie above its rank.
pub fn percentile(sorted: &[u64], per_mille: u64) -> Option<u64> {
    assert!(per_mille <= 1000, "per-mille quantile out of range");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted samples");
    let n = sorted.len();
    // Integer arithmetic: a float `0.999 * n` can round one rank off.
    let rank = (per_mille as usize * n).div_ceil(1000).max(1);
    if n < rank + MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let samples = |n: u64| (1..=n).collect::<Vec<u64>>();
        // p50: rank ceil(n/2) leaves floor(n/2) samples above it.
        assert_eq!(percentile(&samples(20), 500), Some(10));
        assert_eq!(percentile(&samples(19), 500), None);
        // p99 needs 1 000 samples, p99.9 needs 10 000.
        assert_eq!(percentile(&samples(1_000), 990), Some(990));
        assert_eq!(percentile(&samples(999), 990), None);
        assert_eq!(percentile(&samples(10_000), 999), Some(9_990));
        assert_eq!(percentile(&samples(9_999), 999), None);
        // The maximum never has samples beyond it.
        assert_eq!(percentile(&samples(100_000), 1000), None);
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
