//! Order statistics the benchmark reports: medians, and nearest-rank tail
//! percentiles that refuse to be read off too few samples.

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the value is one or two outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending. Panics on NaN: a NaN latency is a bug in the
/// harness, not a measurement.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    values
}

/// Median of `values` (mean of the two middle samples for even counts).
/// `None` for an empty set. The median is always reportable — the
/// ten-beyond rule is for tails.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values.to_vec());
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`:
/// the smallest sample with at least `p` percent of the set at or below
/// it. `None` when the set is empty or fewer than [`MIN_BEYOND`] samples
/// lie beyond the rank.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_is_nearest_rank() {
        let samples = ramp(1000);
        assert_eq!(tail_percentile(&samples, 90.0), Some(900.0));
        assert_eq!(tail_percentile(&samples, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&samples, 50.0), Some(500.0));
    }

    #[test]
    fn tail_percentile_refuses_fewer_than_ten_beyond() {
        // p90 of 100 samples has exactly ten beyond it: allowed.
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        // p90 of 99 samples has rank 90 and only nine beyond: refused.
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
        // p99 needs a thousand.
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        // The maximum is never a percentile.
        assert_eq!(tail_percentile(&ramp(5000), 100.0), None);
        assert_eq!(tail_percentile(&[], 90.0), None);
    }
}
