//! Beam pruning of decoder frontiers.
//!
//! Every decoder in this crate — the batch Viterbi in [`crate::viterbi`]
//! and [`crate::single`], the online fixed-lag frontiers in
//! [`crate::online`], and the forward filtering behind
//! [`crate::SingleHdbn::forward_backward`] — advances a *frontier*: one
//! score per reachable state at the current tick. The exact recursion
//! carries the whole frontier into the next DP step; a [`Beam`] carries
//! only its best part. The next step then evaluates transitions out of the
//! surviving states alone, which is where the per-tick speedup comes from
//! (the coupled joint step drops from `O(|S1||S2|(|S1|+|S2|))` to
//! `O(B(|S1|+|S2|) + G|S1||S2|)` for `B` survivors over `G` distinct
//! chain-1 states).
//!
//! Pruning is a *frontier* restriction, not a rescoring: the scores of the
//! surviving states are untouched, every current-tick state is still
//! instantiated, and backpointers keep their exact-frontier coordinates —
//! so the decoded path of a pruned run is always a legal path of the exact
//! model, and its log-likelihood is a lower bound on the exact one.
//!
//! When a beam keeps the entire frontier (e.g. [`Beam::TopK`] with
//! `k >= |frontier|`), selection reports "no pruning" and the decoders run
//! the exact dense kernel, making the output — accounting included —
//! bit-identical to [`Beam::Exact`]. `tests/beam_differential.rs` holds
//! the decoders to that contract.

use serde::{Deserialize, Serialize};

use crate::park::RETIRED_LANE;

/// Frontier-pruning policy of a decoder.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Beam {
    /// No pruning: the full frontier survives every tick. Bit-identical to
    /// the historical (pre-beam) decoders, and the default everywhere.
    #[default]
    Exact,
    /// Keep the `k` best-scoring frontier states each tick (ties broken
    /// toward the lower state index, so survivor sets are reproducible).
    /// `TopK(0)` is clamped to 1; `k >= |frontier|` degrades to `Exact`.
    TopK(usize),
    /// Keep every state within `d` log-units of the per-tick best score
    /// (`d < 0` is clamped to 0, which keeps the argmax alone plus exact
    /// ties). The survivor count adapts to how peaked the frontier is.
    LogThreshold(f64),
}

impl Beam {
    /// Whether this beam never prunes.
    pub fn is_exact(&self) -> bool {
        matches!(self, Beam::Exact)
    }

    /// Whether this beam can never prune a frontier of at most
    /// `frontier_bound` states — true for [`Beam::Exact`], a
    /// [`Beam::TopK`] at or above the bound, and an infinite
    /// [`Beam::LogThreshold`]. Degenerate beams run the exact kernels on
    /// every tick, so callers may treat them as exact wholesale (e.g. for
    /// accounting conventions).
    pub fn never_prunes(&self, frontier_bound: usize) -> bool {
        match *self {
            Beam::Exact => true,
            Beam::TopK(k) => k.max(1) >= frontier_bound,
            Beam::LogThreshold(d) => d == f64::INFINITY,
        }
    }

    /// Selects the surviving indices of a log-domain frontier into
    /// `scratch`. Returns `true` when pruning is active — `scratch.keep()`
    /// then holds a *strict* subset of indices, sorted ascending — and
    /// `false` when the whole frontier survives (the caller should run its
    /// exact kernel, which is both faster and bit-identical).
    pub fn select_log(&self, scores: &[f64], scratch: &mut BeamScratch) -> bool {
        match *self {
            Beam::Exact => false,
            Beam::TopK(k) => scratch.top_k(scores, k),
            Beam::LogThreshold(d) => {
                let best = max_score(scores);
                scratch.threshold(scores, best - d.max(0.0))
            }
        }
    }

    /// [`select_log`](Self::select_log) for a linear-domain frontier
    /// (normalized filtering weights): [`Beam::LogThreshold`] keeps weights
    /// within a factor `e^-d` of the best; [`Beam::TopK`] is unchanged
    /// (rank order is domain-independent).
    pub fn select_linear(&self, weights: &[f64], scratch: &mut BeamScratch) -> bool {
        match *self {
            Beam::Exact => false,
            Beam::TopK(k) => scratch.top_k(weights, k),
            Beam::LogThreshold(d) => {
                let best = max_score(weights);
                scratch.threshold(weights, best * (-d.max(0.0)).exp())
            }
        }
    }
}

/// Decoding-time configuration shared by every decoder in the crate.
///
/// The default is [`Beam::Exact`]; pruned modes trade a bounded amount of
/// path quality for per-tick work proportional to the beam width instead
/// of the full frontier:
///
/// ```
/// use cace_hdbn::{Beam, CoupledHdbn, DecoderConfig, HdbnConfig, HdbnParams};
/// use cace_hdbn::{MicroCandidate, TickInput};
/// # use cace_mining::constraint::{ConstraintMiner, LabeledSequence};
/// # let macros: Vec<usize> = (0..400).map(|i| (i / 10) % 2).collect();
/// # let n = macros.len();
/// # let seq = LabeledSequence {
/// #     macros: [macros.clone(), macros.clone()],
/// #     posturals: [macros.clone(), macros.clone()],
/// #     gesturals: [vec![0; n], vec![0; n]],
/// #     locations: [macros.clone(), macros],
/// # };
/// # let stats = ConstraintMiner {
/// #     laplace: 0.1, n_macro: 2, n_postural: 2, n_gestural: 2, n_location: 2,
/// # }.mine(&[seq]).unwrap();
/// # let params = HdbnParams::new(stats, HdbnConfig::default()).unwrap();
/// # let tick = |m: usize| {
/// #     let cands: Vec<MicroCandidate> = (0..2).map(|p| MicroCandidate {
/// #         postural: p, gestural: Some(0), location: p,
/// #         obs_loglik: if p == m { 0.0 } else { -3.0 },
/// #     }).collect();
/// #     TickInput { candidates: [cands.clone(), cands], macro_candidates: [None, None],
/// #                 macro_bonus: Vec::new() }
/// # };
/// let ticks: Vec<TickInput> = (0..30).map(|t| tick((t / 10) % 2)).collect();
///
/// let exact = CoupledHdbn::new(params.clone()).viterbi(&ticks).unwrap();
/// let pruned = CoupledHdbn::new(params)
///     .with_decoder(DecoderConfig::top_k(4))
///     .viterbi(&ticks)
///     .unwrap();
///
/// // A pruned decode is a legal path of the exact model: never better,
/// // and much cheaper per tick...
/// assert!(pruned.log_prob <= exact.log_prob);
/// assert!(pruned.transition_ops < exact.transition_ops);
/// // ...and on well-separated data it recovers the same activities.
/// assert_eq!(pruned.macros, exact.macros);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecoderConfig {
    /// Frontier pruning policy.
    pub beam: Beam,
}

impl DecoderConfig {
    /// The exact (unpruned) configuration — same as `Default`.
    pub fn exact() -> Self {
        Self { beam: Beam::Exact }
    }

    /// A top-`k` beam.
    pub fn top_k(k: usize) -> Self {
        Self {
            beam: Beam::TopK(k),
        }
    }

    /// A log-threshold beam of width `d`.
    pub fn log_threshold(d: f64) -> Self {
        Self {
            beam: Beam::LogThreshold(d),
        }
    }
}

/// The persisted form keeps the `"precision"` field of the layout that
/// had a second (`f32`) scoring lane, always `"Exact64"`, so snapshots
/// are byte-identical to before. A snapshot recording `"Fast32"` was
/// decoded in that lane and is rejected rather than served in `f64`.
const EXACT_LANE: &str = "Exact64";

impl Serialize for DecoderConfig {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("beam".to_string(), self.beam.serialize()),
            (
                "precision".to_string(),
                serde::Value::Str(EXACT_LANE.to_string()),
            ),
        ])
    }
}

impl Deserialize for DecoderConfig {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let beam = Beam::deserialize(value.expect_field("beam", "DecoderConfig")?)?;
        match value.expect_field("precision", "DecoderConfig")?.as_str()? {
            EXACT_LANE => Ok(Self { beam }),
            "Fast32" => Err(serde::Error::msg(RETIRED_LANE)),
            other => Err(serde::Error::msg(format!(
                "unknown variant `{other}` for DecoderConfig precision"
            ))),
        }
    }
}

/// Reusable survivor-selection scratch: one allocation for the lifetime of
/// a decode (batch) or a stream (online), reused across ticks.
#[derive(Debug, Clone, Default)]
pub struct BeamScratch {
    /// Work buffer for the partial selection.
    order: Vec<u32>,
    /// Surviving frontier indices of the most recent selection, sorted
    /// ascending.
    keep: Vec<u32>,
}

impl BeamScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The survivors of the most recent successful selection, sorted
    /// ascending.
    pub fn keep(&self) -> &[u32] {
        &self.keep
    }

    /// Overwrites the survivor list — the park/resume state transfer of
    /// the online decoders, which must restore the pending survivor set a
    /// pruned next step will consume. `keep` must be sorted ascending, as
    /// [`Beam::select_log`] leaves it.
    pub fn set_keep(&mut self, keep: &[u32]) {
        self.keep.clear();
        self.keep.extend_from_slice(keep);
    }

    /// Top-`k` selection; returns `false` (nothing pruned) when `k` covers
    /// the whole frontier.
    fn top_k(&mut self, scores: &[f64], k: usize) -> bool {
        let n = scores.len();
        let k = k.max(1);
        if k >= n {
            return false;
        }
        self.order.clear();
        self.order.extend(0..n as u32);
        // Total order (score desc, index asc): deterministic survivor sets,
        // and nested sets across k for tied scores. A NaN score (degenerate
        // input that slipped past upstream clamps) ranks as -inf — the
        // ingestion clamp of `TickInput` building applied at selection — so
        // it can never displace a finite survivor and the comparator stays
        // total instead of panicking a serving shard.
        let demote = |s: f64| if s.is_nan() { f64::NEG_INFINITY } else { s };
        let cmp = |a: &u32, b: &u32| {
            demote(scores[*b as usize])
                .partial_cmp(&demote(scores[*a as usize]))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        };
        self.order.select_nth_unstable_by(k - 1, cmp);
        self.keep.clear();
        self.keep.extend_from_slice(&self.order[..k]);
        self.keep.sort_unstable();
        true
    }

    /// Keep every index scoring at least `cut`; returns `false` when all
    /// survive.
    fn threshold(&mut self, scores: &[f64], cut: f64) -> bool {
        self.keep.clear();
        self.keep
            .extend(scores.iter().enumerate().filter_map(|(i, &s)| {
                if s >= cut {
                    Some(i as u32)
                } else {
                    None
                }
            }));
        self.keep.len() < scores.len()
    }
}

fn max_score(scores: &[f64]) -> f64 {
    scores
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, |acc, s| if s > acc { s } else { acc })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_never_prunes() {
        let mut scratch = BeamScratch::new();
        assert!(!Beam::Exact.select_log(&[1.0, 2.0, 3.0], &mut scratch));
        assert!(!Beam::Exact.select_linear(&[0.1, 0.9], &mut scratch));
    }

    #[test]
    fn top_k_keeps_best_sorted_ascending() {
        let mut scratch = BeamScratch::new();
        let scores = [0.5, -1.0, 3.0, 2.0, -7.0];
        assert!(Beam::TopK(2).select_log(&scores, &mut scratch));
        assert_eq!(scratch.keep(), &[2, 3]);
        assert!(Beam::TopK(3).select_log(&scores, &mut scratch));
        assert_eq!(scratch.keep(), &[0, 2, 3]);
    }

    #[test]
    fn top_k_demotes_nan_scores_instead_of_panicking() {
        let mut scratch = BeamScratch::new();
        // NaN at a high index must never displace a finite survivor.
        let scores = [f64::NAN, 1.0, f64::NAN, 3.0, 2.0];
        assert!(Beam::TopK(2).select_log(&scores, &mut scratch));
        assert_eq!(scratch.keep(), &[3, 4]);
        // NaN ties break like -inf ties: ascending index, deterministic.
        let all_nan = [f64::NAN; 5];
        assert!(Beam::TopK(3).select_log(&all_nan, &mut scratch));
        assert_eq!(scratch.keep(), &[0, 1, 2]);
    }

    #[test]
    fn top_k_covering_the_frontier_degrades_to_exact() {
        let mut scratch = BeamScratch::new();
        assert!(!Beam::TopK(3).select_log(&[1.0, 2.0, 3.0], &mut scratch));
        assert!(!Beam::TopK(100).select_log(&[1.0, 2.0], &mut scratch));
    }

    #[test]
    fn top_k_zero_is_clamped_to_one() {
        let mut scratch = BeamScratch::new();
        assert!(Beam::TopK(0).select_log(&[1.0, 5.0, 2.0], &mut scratch));
        assert_eq!(scratch.keep(), &[1]);
    }

    #[test]
    fn top_k_ties_break_toward_low_indices_and_nest() {
        let mut scratch = BeamScratch::new();
        let scores = [2.0, 2.0, 2.0, 1.0];
        assert!(Beam::TopK(1).select_log(&scores, &mut scratch));
        assert_eq!(scratch.keep(), &[0]);
        assert!(Beam::TopK(2).select_log(&scores, &mut scratch));
        assert_eq!(scratch.keep(), &[0, 1]);
    }

    #[test]
    fn log_threshold_keeps_states_near_the_best() {
        let mut scratch = BeamScratch::new();
        let scores = [0.0, -1.5, -0.5, -10.0];
        assert!(Beam::LogThreshold(1.0).select_log(&scores, &mut scratch));
        assert_eq!(scratch.keep(), &[0, 2]);
        // Wide enough threshold keeps everything → no pruning.
        assert!(!Beam::LogThreshold(100.0).select_log(&scores, &mut scratch));
        // Negative width clamps to 0: argmax (plus exact ties) only.
        assert!(Beam::LogThreshold(-5.0).select_log(&scores, &mut scratch));
        assert_eq!(scratch.keep(), &[0]);
    }

    #[test]
    fn linear_threshold_matches_log_ratio() {
        let mut scratch = BeamScratch::new();
        // Weights e^0, e^-1.5, e^-0.5, e^-10 — same survivors as the
        // log-domain case above under the same width.
        let weights: Vec<f64> = [0.0f64, -1.5, -0.5, -10.0]
            .iter()
            .map(|x| x.exp())
            .collect();
        assert!(Beam::LogThreshold(1.0).select_linear(&weights, &mut scratch));
        assert_eq!(scratch.keep(), &[0, 2]);
    }

    #[test]
    fn all_neg_infinity_frontier_survives_whole() {
        let mut scratch = BeamScratch::new();
        let scores = [f64::NEG_INFINITY, f64::NEG_INFINITY];
        assert!(!Beam::LogThreshold(1.0).select_log(&scores, &mut scratch));
    }

    #[test]
    fn never_prunes_matches_degeneracy() {
        assert!(Beam::Exact.never_prunes(0));
        assert!(Beam::TopK(16).never_prunes(16));
        assert!(Beam::TopK(0).never_prunes(1), "TopK(0) clamps to 1");
        assert!(!Beam::TopK(15).never_prunes(16));
        assert!(Beam::LogThreshold(f64::INFINITY).never_prunes(16));
        assert!(!Beam::LogThreshold(1e6).never_prunes(16));
    }

    #[test]
    fn config_constructors() {
        assert_eq!(DecoderConfig::default(), DecoderConfig::exact());
        assert_eq!(DecoderConfig::top_k(7).beam, Beam::TopK(7));
        assert!(matches!(
            DecoderConfig::log_threshold(2.5).beam,
            Beam::LogThreshold(d) if d == 2.5
        ));
        assert!(Beam::Exact.is_exact());
        assert!(!Beam::TopK(4).is_exact());
    }

    #[test]
    fn persisted_form_keeps_the_exact_precision_tag_and_rejects_fast32() {
        for config in [DecoderConfig::exact(), DecoderConfig::top_k(7)] {
            let value = config.serialize();
            let text = serde::json::value_to_string(&value);
            assert!(text.ends_with(",\"precision\":\"Exact64\"}"), "{text}");
            assert_eq!(DecoderConfig::deserialize(&value).unwrap(), config);
            let fast = serde::json::value_from_str(&text.replace("Exact64", "Fast32")).unwrap();
            let err = DecoderConfig::deserialize(&fast).unwrap_err();
            assert!(err.to_string().contains("f32"), "{err}");
            let unknown = serde::json::value_from_str(&text.replace("Exact64", "Half")).unwrap();
            assert!(DecoderConfig::deserialize(&unknown).is_err());
        }
    }
}
