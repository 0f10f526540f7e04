//! Goertzel algorithm: single-bin DFT power estimation.
//!
//! The paper's 32 frame features include "Goertzel coefficients of 1–5 Hz" —
//! the spectral energy of the acceleration trajectory at each integer
//! frequency from 1 to 5 Hz, which separates periodic motions (walking,
//! cycling, chewing) from static postures.

/// Power of the signal at `target_hz`, computed by the Goertzel recurrence.
///
/// Returns `0.0` for an empty signal. `sample_rate_hz` must be positive and
/// `target_hz` must be below the Nyquist rate.
///
/// # Panics
/// Panics if `sample_rate_hz <= 0` or `target_hz < 0` or
/// `target_hz > sample_rate_hz / 2`.
///
/// # Examples
/// ```
/// use cace_signal::goertzel_power;
/// let fs = 50.0;
/// let tone: Vec<f64> = (0..150)
///     .map(|n| (2.0 * std::f64::consts::PI * 3.0 * n as f64 / fs).sin())
///     .collect();
/// assert!(goertzel_power(&tone, 3.0, fs) > goertzel_power(&tone, 1.0, fs));
/// ```
pub fn goertzel_power(signal: &[f64], target_hz: f64, sample_rate_hz: f64) -> f64 {
    assert!(sample_rate_hz > 0.0, "sample rate must be positive");
    assert!(
        (0.0..=sample_rate_hz / 2.0).contains(&target_hz),
        "target frequency {target_hz} outside [0, Nyquist]"
    );
    if signal.is_empty() {
        return 0.0;
    }
    let n = signal.len() as f64;
    // Normalized frequency; the classic integer-bin k = round(N f / fs).
    let k = (n * target_hz / sample_rate_hz).round();
    let omega = 2.0 * std::f64::consts::PI * k / n;
    let coeff = 2.0 * omega.cos();
    let (mut s_prev, mut s_prev2) = (0.0_f64, 0.0_f64);
    for &x in signal {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power = s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
    // Normalize by window length so frame sizes don't change the scale.
    power / (n * n)
}

/// Goertzel powers at 1–5 Hz, the paper's five spectral features per axis.
///
/// Runs all five recurrences in one pass over the signal (the naive form
/// reads the frame five times). Each bin's floating-point sequence is the
/// recurrence [`goertzel_power`] would run for it, so the result is
/// bit-identical to five independent calls.
///
/// # Panics
/// As [`goertzel_power`], for each bin in ascending order.
pub fn goertzel_band(signal: &[f64], sample_rate_hz: f64) -> [f64; 5] {
    let mut bank = GoertzelBank::new(signal.len(), sample_rate_hz);
    for &x in signal {
        bank.push(x);
    }
    bank.powers()
}

/// The 1–5 Hz recurrences of [`goertzel_band`], fed one sample at a time
/// so a caller can run them inside its own pass over a frame instead of
/// materializing the signal first.
///
/// Pushing a signal's samples in order and reading [`powers`](Self::powers)
/// is bit-identical to [`goertzel_band`] on that signal.
#[derive(Debug, Clone)]
pub struct GoertzelBank {
    n: f64,
    coeff: [f64; 5],
    s_prev: [f64; 5],
    s_prev2: [f64; 5],
}

impl GoertzelBank {
    /// A bank for a signal of `len` samples at `sample_rate_hz`.
    ///
    /// # Panics
    /// As [`goertzel_power`], for each bin in ascending order.
    pub fn new(len: usize, sample_rate_hz: f64) -> Self {
        Self::with_coefficients(len, Self::coefficients(len, sample_rate_hz))
    }

    /// The five recurrence coefficients a bank for `len` samples at
    /// `sample_rate_hz` runs (one `cos` each), for callers that compute
    /// them once per signal length.
    ///
    /// # Panics
    /// As [`goertzel_power`], for each bin in ascending order.
    pub fn coefficients(len: usize, sample_rate_hz: f64) -> [f64; 5] {
        for i in 0..5 {
            let target_hz = (i + 1) as f64;
            assert!(sample_rate_hz > 0.0, "sample rate must be positive");
            assert!(
                (0.0..=sample_rate_hz / 2.0).contains(&target_hz),
                "target frequency {target_hz} outside [0, Nyquist]"
            );
        }
        let n = len as f64;
        let mut coeff = [0.0_f64; 5];
        for (i, c) in coeff.iter_mut().enumerate() {
            let k = (n * (i + 1) as f64 / sample_rate_hz).round();
            let omega = 2.0 * std::f64::consts::PI * k / n;
            *c = 2.0 * omega.cos();
        }
        coeff
    }

    /// A bank for a signal of `len` samples running `coeff`, as returned by
    /// [`coefficients`](Self::coefficients) for `len` samples: bit-identical
    /// to [`new`](Self::new) at the same rate.
    pub fn with_coefficients(len: usize, coeff: [f64; 5]) -> Self {
        Self {
            n: len as f64,
            coeff,
            s_prev: [0.0; 5],
            s_prev2: [0.0; 5],
        }
    }

    /// Advances every recurrence by one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        for i in 0..5 {
            let s = x + self.coeff[i] * self.s_prev[i] - self.s_prev2[i];
            self.s_prev2[i] = self.s_prev[i];
            self.s_prev[i] = s;
        }
    }

    /// The five normalized bin powers (all zero for an empty signal).
    pub fn powers(&self) -> [f64; 5] {
        if self.n == 0.0 {
            return [0.0; 5];
        }
        let n = self.n;
        let mut out = [0.0; 5];
        for i in 0..5 {
            let (s1, s2, c) = (self.s_prev[i], self.s_prev2[i], self.coeff[i]);
            let power = s1 * s1 + s2 * s2 - c * s1 * s2;
            out[i] = power / (n * n);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn detects_the_right_bin() {
        let fs = 50.0;
        let sig = tone(2.0, fs, 200);
        let p2 = goertzel_power(&sig, 2.0, fs);
        for f in [1.0, 3.0, 4.0, 5.0] {
            let p = goertzel_power(&sig, f, fs);
            assert!(p2 > 10.0 * p, "2 Hz tone: bin {f} Hz has power {p} vs {p2}");
        }
    }

    #[test]
    fn empty_signal_is_zero() {
        assert_eq!(goertzel_power(&[], 2.0, 50.0), 0.0);
    }

    #[test]
    fn constant_signal_has_no_ac_power() {
        let sig = vec![5.0; 150];
        let p = goertzel_power(&sig, 3.0, 50.0);
        assert!(p < 1e-20, "DC should contribute nothing at 3 Hz, got {p}");
    }

    #[test]
    fn band_orders_match_frequencies() {
        let fs = 50.0;
        let sig = tone(4.0, fs, 300);
        let band = goertzel_band(&sig, fs);
        let best = band
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best + 1, 4, "strongest bin should be 4 Hz: {band:?}");
    }

    #[test]
    fn power_scales_with_amplitude() {
        let fs = 50.0;
        let s1 = tone(3.0, fs, 150);
        let s2: Vec<f64> = s1.iter().map(|x| 2.0 * x).collect();
        let p1 = goertzel_power(&s1, 3.0, fs);
        let p2 = goertzel_power(&s2, 3.0, fs);
        assert!(
            (p2 / p1 - 4.0).abs() < 1e-6,
            "doubling amplitude quadruples power"
        );
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn rejects_above_nyquist() {
        goertzel_power(&[1.0, 2.0], 30.0, 50.0);
    }

    #[test]
    fn fused_band_is_bit_identical_to_per_bin_calls() {
        let fs = 50.0;
        for (freq, len) in [(1.0, 75), (2.7, 150), (4.0, 300)] {
            let sig = tone(freq, fs, len);
            let band = goertzel_band(&sig, fs);
            for (i, &p) in band.iter().enumerate() {
                let solo = goertzel_power(&sig, (i + 1) as f64, fs);
                assert_eq!(
                    p.to_bits(),
                    solo.to_bits(),
                    "bin {} of {freq} Hz tone",
                    i + 1
                );
            }
        }
        assert_eq!(goertzel_band(&[], fs), [0.0; 5]);
    }
}
