//! Order statistics of measured samples.

/// The nearest-rank `q` quantile (`0 < q ≤ 1`) of `samples`: the
/// smallest sample with at least a `q` share of samples at or below
/// it. With 1,005 samples the 0.99 quantile has ten samples beyond it.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} out of (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (the mean of the middle two for an even
/// count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_beyond_p99_of_1005() {
        let samples: Vec<f64> = (1..=1005).map(f64::from).collect();
        let p99 = quantile(&samples, 0.99);
        assert_eq!(samples.iter().filter(|&&s| s > p99).count(), 10);
        assert_eq!(quantile(&samples, 0.5), 503.0);
        assert_eq!(quantile(&samples, 1.0), 1005.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
