//! Order statistics shared by every metric the benchmark reports.

/// The 1-based nearest rank of quantile `p` in `n` samples: ⌈p·n⌉,
/// clamped to `1..=n`.
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples that lie strictly beyond the nearest-rank quantile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Nearest-rank quantile `p` of ascending `sorted` samples: the ⌈p·n⌉-th
/// smallest, an observed sample rather than an interpolation.
///
/// # Panics
/// On an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts `values` ascending (they must be finite).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Nearest-rank median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    nearest_rank(values, 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.5), 5.0);
        assert_eq!(nearest_rank(&samples, 0.9), 9.0);
        assert_eq!(nearest_rank(&samples, 0.91), 10.0);
        assert_eq!(nearest_rank(&samples, 1.0), 10.0);
        assert_eq!(nearest_rank(&samples, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        assert_eq!(rank(1000, 0.99), 990);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn median_sorts_and_takes_the_lower_middle() {
        let mut v = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 2.0);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(median(&mut [5.0, 9.0, 1.0]), 5.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
