//! The arithmetic behind every reported number: medians of rounds,
//! pooled percentiles, and the spread printed beside each metric.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of `n` samples that leaves at least ten samples
/// beyond it, among 99, 95, 90 and 50.
pub fn highest_supported_percentile(n: usize) -> f64 {
    for p in [99.0, 95.0, 90.0] {
        if (n as f64 * (1.0 - p / 100.0)).floor() >= 10.0 {
            return p;
        }
    }
    50.0
}

/// `(max − min) / median` of the per-round values: how far the rounds of
/// one run disagree. 0 for a median of 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
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
    fn median_of_rounds_ignores_one_slow_round() {
        // Four rounds at ~20 ms and one at 27 ms: the slow process does
        // not move the reported value.
        assert_eq!(median(&[20.1, 19.9, 27.1, 20.0, 20.2]), 20.1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[5], 95.0), 5);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(125), 90.0);
        assert_eq!(highest_supported_percentile(40), 50.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
