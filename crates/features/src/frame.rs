//! Frame-level feature extraction.

use cace_sensing::IMU_RATE_HZ;
use cace_signal::goertzel::GoertzelBank;
use cace_signal::trajectory::ImuSample;

use crate::schema::FEATURE_COUNT;

/// Frames up to this many samples keep their per-sample magnitudes and
/// tilts in a stack array; longer ones put the same buffer on the heap.
/// Frames are 1.5 s at 50 Hz (75 samples), so serving never takes the heap.
const STACK_SAMPLES: usize = 128;

/// The 32-dimensional feature vector of one frame (see
/// [`crate::schema::feature_names`] for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: [f64; FEATURE_COUNT],
}

impl FeatureVector {
    /// Extracts the features of one IMU frame.
    ///
    /// An empty frame yields the all-zero vector (the classifier treats it
    /// as a missing observation). Non-finite samples yield non-finite
    /// features, never a panic.
    ///
    /// Three fused passes over the frame: the first takes each sample's
    /// magnitude and every sum and extremum, the second each sample's tilt
    /// (so `acos` runs once per sample), the third every centered moment,
    /// covariance, mean crossing and Goertzel recurrence. Each accumulator
    /// keeps the operation order of the per-feature definitions in
    /// [`cace_signal::stats`] — sums start at `-0.0` as `Iterator::sum`
    /// does, the Pearson accumulators at `0.0` as `pearson` does — so the
    /// result is bit-identical to computing each feature on its own.
    pub fn from_frame(frame: &[ImuSample]) -> Self {
        if frame.is_empty() {
            return Self {
                values: [0.0; FEATURE_COUNT],
            };
        }
        let len = frame.len();
        let n = len as f64;
        let mut stack = [[0.0_f64; 2]; STACK_SAMPLES];
        let mut heap = Vec::new();
        let mag_tilt: &mut [[f64; 2]] = if len <= STACK_SAMPLES {
            &mut stack[..len]
        } else {
            heap.resize(len, [0.0; 2]);
            &mut heap
        };

        // Pass 1: magnitudes, sums and extrema.
        let (mut sum_mag, mut sum_mag_sq, mut sma) = (-0.0, -0.0, -0.0);
        let (mut sum_x, mut sum_y, mut sum_z) = (-0.0, -0.0, -0.0);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (s, slot) in frame.iter().zip(mag_tilt.iter_mut()) {
            let a = s.accel;
            let m = a.norm();
            slot[0] = m;
            sum_mag += m;
            sum_mag_sq += m * m;
            min = f64::min(min, m);
            max = f64::max(max, m);
            sum_x += a.x;
            sum_y += a.y;
            sum_z += a.z;
            sma += a.x.abs() + a.y.abs() + a.z.abs();
        }
        // Pass 2: tilts, the angle between the acceleration and ẑ. `acos`
        // is a library call that spills every live register, so it gets a
        // loop of its own.
        let mut sum_tilt = -0.0;
        for (s, slot) in frame.iter().zip(mag_tilt.iter_mut()) {
            let m = slot[0];
            slot[1] = if m == 0.0 {
                0.0
            } else {
                (s.accel.z / m).clamp(-1.0, 1.0).acos()
            };
            sum_tilt += slot[1];
        }
        let mean = sum_mag / n;
        let (mx, my, mz) = (sum_x / n, sum_y / n, sum_z / n);
        let tilt_mean = sum_tilt / n;

        // Pass 3: centered moments, covariances, mean crossings and the
        // spectrum of the de-meaned magnitude (gravity DC removed).
        let mut bank = GoertzelBank::new(len, IMU_RATE_HZ);
        let (mut m2, mut m3, mut m4, mut abs_dev) = (-0.0, -0.0, -0.0, -0.0);
        let (mut ss_x, mut ss_y, mut ss_z, mut ss_tilt) = (-0.0, -0.0, -0.0, -0.0);
        let (mut cov_xy, mut cov_xz, mut cov_yz) = (0.0, 0.0, 0.0);
        let mut crossings = 0usize;
        let mut prev: Option<(f64, f64)> = None;
        for (s, &[m, tilt]) in frame.iter().zip(mag_tilt.iter()) {
            let d = m - mean;
            bank.push(d);
            m2 += d.powi(2);
            m3 += d.powi(3);
            m4 += d.powi(4);
            abs_dev += d.abs();
            if let Some((prev_m, prev_d)) = prev {
                if prev_d.signum() != d.signum() && prev_m != m {
                    crossings += 1;
                }
            }
            prev = Some((m, d));
            let a = s.accel;
            let (dx, dy, dz) = (a.x - mx, a.y - my, a.z - mz);
            ss_x += dx.powi(2);
            ss_y += dy.powi(2);
            ss_z += dz.powi(2);
            cov_xy += dx * dy;
            cov_xz += dx * dz;
            cov_yz += dy * dz;
            ss_tilt += (tilt - tilt_mean).powi(2);
        }
        let variance = m2 / n;
        let (var_x, var_y, var_z) = (ss_x / n, ss_y / n, ss_z / n);
        // A sum of squares is the same whether it starts at `-0.0` or
        // `0.0`, so the axis sums double as `pearson`'s variance terms.
        let pearson = |cov: f64, va: f64, vb: f64| {
            if va == 0.0 || vb == 0.0 {
                0.0
            } else {
                cov / (va.sqrt() * vb.sqrt())
            }
        };
        let band = bank.powers();
        // `total_cmp` keeps the last maximum like `max_by` did; it agrees
        // with `partial_cmp` on every finite power except ±0, where the
        // bin is unused (zero power maps to bin 0).
        let mut dominant = 0;
        for i in 1..band.len() {
            if band[i].total_cmp(&band[dominant]).is_ge() {
                dominant = i;
            }
        }

        let mut v = [0.0; FEATURE_COUNT];
        v[0] = mean;
        v[1] = variance;
        v[2] = variance.sqrt();
        v[3] = min;
        v[4] = max;
        v[5] = max - min;
        v[6] = (sum_mag_sq / n).sqrt();
        v[7] = abs_dev / n;
        v[8] = crossings as f64;
        v[9] = if variance == 0.0 {
            0.0
        } else {
            (m3 / n) / variance.powf(1.5)
        };
        v[10] = if variance == 0.0 {
            0.0
        } else {
            (m4 / n) / (variance * variance) - 3.0
        };
        v[11..16].copy_from_slice(&band);
        v[16] = mx;
        v[17] = var_x.sqrt();
        v[18] = var_x;
        v[19] = my;
        v[20] = var_y.sqrt();
        v[21] = var_y;
        v[22] = mz;
        v[23] = var_z.sqrt();
        v[24] = var_z;
        v[25] = pearson(cov_xy, ss_x, ss_y);
        v[26] = pearson(cov_xz, ss_x, ss_z);
        v[27] = pearson(cov_yz, ss_y, ss_z);
        v[28] = sma / n;
        v[29] = tilt_mean;
        v[30] = (ss_tilt / n).sqrt();
        v[31] = if band[dominant] > 1e-12 {
            (dominant + 1) as f64
        } else {
            0.0
        };
        Self { values: v }
    }

    /// The feature values as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// The feature values as an owned `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.values.to_vec()
    }

    /// Whether every component is finite (guards classifier training).
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

impl From<FeatureVector> for Vec<f64> {
    fn from(f: FeatureVector) -> Vec<f64> {
        f.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cace_model::{Gestural, Postural};
    use cace_sensing::{ImuSynthesizer, NoiseConfig};
    use cace_signal::GaussianSampler;

    fn synth_frame(p: Postural, seed: u64) -> Vec<ImuSample> {
        let synth = ImuSynthesizer::new(NoiseConfig::default());
        let mut rng = GaussianSampler::seed_from_u64(seed);
        synth.phone_frame(p, 75, &mut rng)
    }

    #[test]
    fn vector_has_32_finite_components() {
        let f = FeatureVector::from_frame(&synth_frame(Postural::Walking, 1));
        assert_eq!(f.as_slice().len(), FEATURE_COUNT);
        assert!(f.is_finite());
    }

    #[test]
    fn empty_frame_yields_zero_vector() {
        let f = FeatureVector::from_frame(&[]);
        assert!(f.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn walking_and_lying_are_separable() {
        // Key separability sanity check: the std of the magnitude stream
        // must be far larger when walking.
        let walk = FeatureVector::from_frame(&synth_frame(Postural::Walking, 2));
        let lie = FeatureVector::from_frame(&synth_frame(Postural::Lying, 3));
        assert!(
            walk.as_slice()[2] > 3.0 * lie.as_slice()[2],
            "walking std {} vs lying std {}",
            walk.as_slice()[2],
            lie.as_slice()[2]
        );
    }

    #[test]
    fn tilt_separates_sitting_from_standing() {
        // Sitting tilts the pocket phone (profile tilt 0.9 rad) while
        // standing keeps it upright.
        let sit = FeatureVector::from_frame(&synth_frame(Postural::Sitting, 4));
        let stand = FeatureVector::from_frame(&synth_frame(Postural::Standing, 5));
        assert!(
            sit.as_slice()[29] > stand.as_slice()[29] + 0.3,
            "sit tilt {} vs stand tilt {}",
            sit.as_slice()[29],
            stand.as_slice()[29]
        );
    }

    #[test]
    fn dominant_bin_tracks_cadence() {
        // Running (≈2.9 Hz) should have a higher dominant bin than cycling
        // (≈1.4 Hz) in most draws.
        let mut run_higher = 0;
        for seed in 0..10 {
            let run = FeatureVector::from_frame(&synth_frame(Postural::Running, 100 + seed));
            let cyc = FeatureVector::from_frame(&synth_frame(Postural::Cycling, 200 + seed));
            if run.as_slice()[31] >= cyc.as_slice()[31] {
                run_higher += 1;
            }
        }
        assert!(
            run_higher >= 7,
            "running bin should usually dominate: {run_higher}/10"
        );
    }

    #[test]
    fn gestural_frames_extract_too() {
        let synth = ImuSynthesizer::new(NoiseConfig::default());
        let mut rng = GaussianSampler::seed_from_u64(9);
        let frame = synth.tag_frame(Gestural::Laughing, Postural::Sitting, 75, &mut rng);
        let f = FeatureVector::from_frame(&frame);
        assert!(f.is_finite());
        // Laughing is a 5 Hz gesture; spectral energy should concentrate in
        // the upper bins.
        let low = f.as_slice()[11];
        let high = f.as_slice()[15];
        assert!(high > 0.0 && high + low > 0.0);
    }
}
