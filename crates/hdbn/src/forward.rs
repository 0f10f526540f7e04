//! Log-space numerical utilities for the forward–backward algorithm.

/// Numerically stable `log Σ exp(xᵢ)`.
///
/// Returns `-∞` for an empty slice.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f64 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// In-place normalization of log-weights into probabilities.
///
/// Returns the normalizer `log Σ exp`. All-`-∞` input becomes uniform.
pub fn normalize_log(xs: &mut [f64]) -> f64 {
    let z = log_sum_exp(xs);
    if z.is_finite() {
        for x in xs.iter_mut() {
            *x = (*x - z).exp();
        }
    } else if !xs.is_empty() {
        let u = 1.0 / xs.len() as f64;
        for x in xs.iter_mut() {
            *x = u;
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_direct_computation() {
        let xs = [0.0, (2.0f64).ln(), (3.0f64).ln()];
        assert!((log_sum_exp(&xs) - (6.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn is_stable_for_large_magnitudes() {
        let xs = [1000.0, 1000.0];
        assert!((log_sum_exp(&xs) - (1000.0 + (2.0f64).ln())).abs() < 1e-9);
        let xs = [-1000.0, -1000.0];
        assert!((log_sum_exp(&xs) - (-1000.0 + (2.0f64).ln())).abs() < 1e-9);
    }

    #[test]
    fn empty_is_neg_infinity() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn normalize_produces_distribution() {
        let mut xs = [0.0, (3.0f64).ln()];
        let z = normalize_log(&mut xs);
        assert!((xs[0] - 0.25).abs() < 1e-12);
        assert!((xs[1] - 0.75).abs() < 1e-12);
        assert!((z - (4.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn normalize_handles_all_neg_infinity() {
        let mut xs = [f64::NEG_INFINITY, f64::NEG_INFINITY];
        normalize_log(&mut xs);
        assert_eq!(xs, [0.5, 0.5]);
    }
}
