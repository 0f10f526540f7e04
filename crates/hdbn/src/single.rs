//! Single-inhabitant HDBN (paper Eqn 1): one hierarchical chain.
//!
//! Used (a) as the building block EM trains on, and (b) for uncoupled
//! comparisons. States are (macro, micro-candidate) pairs exactly as in the
//! coupled decoder, minus the partner coupling. [`SingleHdbn::viterbi`]
//! decodes a whole session through an [`OnlineSingleViterbi`] under
//! [`Lag::Unbounded`].

use cace_model::ModelError;

use crate::arena::{fill_slice, Slice, TrellisArena};
use crate::beam::DecoderConfig;
use crate::input::{MicroCandidate, TickInput};
use crate::online::{Lag, OnlineSingleViterbi};
use crate::params::HdbnParams;
use crate::trellis::{self, HierModel};

/// A decoded single-chain trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SinglePath {
    /// Macro activity per tick.
    pub macros: Vec<usize>,
    /// Micro tuple per tick.
    pub micros: Vec<MicroCandidate>,
    /// Log-score of the decoded path.
    pub log_prob: f64,
    /// Σ_t |S(t)| states instantiated.
    pub states_explored: u64,
    /// Σ_t |S(t−1)| · |S(t)| — the dense transition-evaluation charge
    /// (dominance pruning skips most of that work without changing the
    /// charge).
    pub transition_ops: u64,
}

/// Posterior marginals from forward–backward.
#[derive(Debug, Clone, PartialEq)]
pub struct Posteriors {
    /// `gamma[t][j]` — posterior of per-tick state `j` (aligned with the
    /// tick's state enumeration).
    pub gamma: Vec<Vec<f64>>,
    /// Sequence log-likelihood.
    pub log_likelihood: f64,
}

/// Expected sufficient statistics for one EM E-step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExpectedCounts {
    /// Expected macro-prior counts.
    pub prior: Vec<f64>,
    /// Expected macro transition counts (including the diagonal).
    pub trans: Vec<Vec<f64>>,
    /// Expected continue events per activity.
    pub cont: Vec<f64>,
    /// Expected end events per activity.
    pub end: Vec<f64>,
    /// Expected postural-given-macro counts.
    pub post: Vec<Vec<f64>>,
    /// Expected gestural-given-macro counts.
    pub gest: Vec<Vec<f64>>,
    /// Expected location-given-macro counts.
    pub loc: Vec<Vec<f64>>,
    /// Expected postural-transition counts.
    pub post_trans: Vec<Vec<f64>>,
    /// Total log-likelihood of the processed sequences.
    pub log_likelihood: f64,
}

impl ExpectedCounts {
    /// Zeroed counts for the given vocabulary sizes.
    pub fn zeros(n_macro: usize, n_post: usize, n_gest: usize, n_loc: usize) -> Self {
        Self {
            prior: vec![0.0; n_macro],
            trans: vec![vec![0.0; n_macro]; n_macro],
            cont: vec![0.0; n_macro],
            end: vec![0.0; n_macro],
            post: vec![vec![0.0; n_post]; n_macro],
            gest: vec![vec![0.0; n_gest]; n_macro],
            loc: vec![vec![0.0; n_loc]; n_macro],
            post_trans: vec![vec![0.0; n_post]; n_post],
            log_likelihood: 0.0,
        }
    }

    /// Adds another accumulator element-wise (the reduce half of the
    /// parallel E-step's map-reduce: per-sequence counts are computed
    /// independently, then merged in input order so the result does not
    /// depend on how many workers ran the map).
    ///
    /// # Panics
    /// Panics if the two accumulators were built for different vocabulary
    /// sizes.
    pub fn merge(&mut self, other: &ExpectedCounts) {
        fn add_vec(acc: &mut [f64], inc: &[f64]) {
            assert_eq!(acc.len(), inc.len(), "expected-count shapes must match");
            for (a, b) in acc.iter_mut().zip(inc) {
                *a += b;
            }
        }
        fn add_rows(acc: &mut [Vec<f64>], inc: &[Vec<f64>]) {
            assert_eq!(acc.len(), inc.len(), "expected-count shapes must match");
            for (a, b) in acc.iter_mut().zip(inc) {
                add_vec(a, b);
            }
        }
        add_vec(&mut self.prior, &other.prior);
        add_rows(&mut self.trans, &other.trans);
        add_vec(&mut self.cont, &other.cont);
        add_vec(&mut self.end, &other.end);
        add_rows(&mut self.post, &other.post);
        add_rows(&mut self.gest, &other.gest);
        add_rows(&mut self.loc, &other.loc);
        add_rows(&mut self.post_trans, &other.post_trans);
        self.log_likelihood += other.log_likelihood;
    }
}

/// The single-chain hierarchical model.
///
/// Parameters are [`Arc`](std::sync::Arc)-shared for the same reason as
/// [`crate::CoupledHdbn`]: many streams decode against one read-only
/// trained model, each with its own trellis scratch. Decoding and
/// filtering are exact.
#[derive(Debug, Clone)]
pub struct SingleHdbn {
    params: std::sync::Arc<HdbnParams>,
}

/// Rejects a tick that would empty one user's chain trellis.
pub(crate) fn validate_tick_user(
    tick: &TickInput,
    t: usize,
    user: usize,
) -> Result<(), ModelError> {
    if tick.candidates[user].is_empty()
        || tick.macro_candidates[user]
            .as_ref()
            .is_some_and(|v| v.is_empty())
    {
        return Err(ModelError::EmptyStateSpace { tick: t });
    }
    Ok(())
}

impl SingleHdbn {
    /// Wraps parameters.
    pub fn new(params: HdbnParams) -> Self {
        Self {
            params: std::sync::Arc::new(params),
        }
    }

    /// Wraps an already-shared parameter set without copying it.
    pub fn from_shared(params: std::sync::Arc<HdbnParams>) -> Self {
        Self { params }
    }

    /// Installs a decoding configuration. There is only the exact one
    /// ([`DecoderConfig`] has no settings), so this returns `self`.
    pub fn with_decoder(self, _decoder: DecoderConfig) -> Self {
        self
    }

    /// The parameters in use.
    pub fn params(&self) -> &HdbnParams {
        &self.params
    }

    /// The shared parameter handle (for decoder frontiers that outlive a
    /// borrow of `self`).
    pub(crate) fn shared_params(&self) -> std::sync::Arc<HdbnParams> {
        std::sync::Arc::clone(&self.params)
    }

    /// Every tick's slice of `user`'s chain (see
    /// [`crate::arena::fill_slice`]).
    fn slices_of(&self, ticks: &[TickInput], user: usize) -> Vec<Slice> {
        let mut arena = TrellisArena::new();
        ticks
            .iter()
            .map(|t| {
                let mut s = Slice::default();
                fill_slice(&self.params, t, user, &mut arena, &mut s);
                s
            })
            .collect()
    }

    fn validate(&self, ticks: &[TickInput], user: usize) -> Result<(), ModelError> {
        if ticks.is_empty() {
            return Err(ModelError::InsufficientData {
                what: "single-chain inference".into(),
                available: 0,
                required: 1,
            });
        }
        for (t, tick) in ticks.iter().enumerate() {
            validate_tick_user(tick, t, user)?;
        }
        Ok(())
    }

    /// Viterbi decoding of one user's chain: every tick is pushed through
    /// an [`OnlineSingleViterbi`] under [`Lag::Unbounded`], and
    /// [`finalize`](OnlineSingleViterbi::finalize) backtracks the whole
    /// session.
    ///
    /// # Errors
    /// Same conditions as [`crate::CoupledHdbn::viterbi`].
    pub fn viterbi(&self, ticks: &[TickInput], user: usize) -> Result<SinglePath, ModelError> {
        let mut online = OnlineSingleViterbi::new(self.clone(), user, Lag::Unbounded);
        for tick in ticks {
            online.push(tick)?;
        }
        online.finalize()
    }

    /// Forward–backward posteriors of one user's chain.
    ///
    /// # Errors
    /// Same conditions as [`viterbi`](Self::viterbi).
    pub fn forward_backward(
        &self,
        ticks: &[TickInput],
        user: usize,
    ) -> Result<Posteriors, ModelError> {
        self.validate(ticks, user)?;
        Ok(self.forward_backward_slices(ticks, user).0)
    }

    /// [`forward_backward`](Self::forward_backward) plus the per-tick
    /// slices it scored — the E-step reuses them instead of re-deriving
    /// every emission. Assumes `validate` already passed.
    fn forward_backward_slices(
        &self,
        ticks: &[TickInput],
        user: usize,
    ) -> (Posteriors, Vec<Slice>) {
        let slices = self.slices_of(ticks, user);
        let (gamma, log_z) = trellis::forward_backward(&HierModel::new(&self.params), &slices);
        (
            Posteriors {
                gamma,
                log_likelihood: log_z,
            },
            slices,
        )
    }

    /// E-step: accumulates expected sufficient statistics of one sequence
    /// into `counts`.
    ///
    /// # Errors
    /// Same conditions as [`viterbi`](Self::viterbi).
    pub fn accumulate_counts(
        &self,
        ticks: &[TickInput],
        user: usize,
        counts: &mut ExpectedCounts,
    ) -> Result<(), ModelError> {
        self.validate(ticks, user)?;
        // One slice pass serves both the posteriors and the count
        // accumulation below (the batch path used to score every emission
        // twice).
        let (posteriors, slices) = self.forward_backward_slices(ticks, user);
        counts.log_likelihood += posteriors.log_likelihood;
        let t_tables = &self.params.tables;

        // Unary counts.
        for (t, slice) in slices.iter().enumerate() {
            for (j, &a) in slice.activities.iter().enumerate() {
                let g = posteriors.gamma[t][j];
                if g <= 0.0 {
                    continue;
                }
                let cand = ticks[t].candidates[user][slice.cands[j]];
                if t == 0 {
                    counts.prior[a] += g;
                }
                counts.post[a][cand.postural] += g;
                counts.loc[a][cand.location] += g;
                if let Some(gest) = cand.gestural {
                    counts.gest[a][gest] += g;
                }
            }
        }

        // Pairwise counts via per-tick xi (exact, using scaled alpha/beta).
        // Recompute alpha/beta locally to keep the public Posteriors small.
        let fb = posteriors; // gamma only; xi below approximated from
                             // gamma-consistent local renormalization.
        let mut xi: Vec<f64> = Vec::new(); // reused across ticks
        let mut exp_cache: Vec<f64> = Vec::new(); // likewise
        for t in 1..ticks.len() {
            let prev = &slices[t - 1];
            let cur = &slices[t];
            // exp(transition) depends only on the (src, dst) pair ids:
            // one exp per distinct pair of pairs instead of per edge.
            let (dp, dc) = (prev.n_slots(), cur.n_slots());
            exp_cache.clear();
            exp_cache.resize(dp * dc, 0.0);
            for (sp, &src) in prev.uniq_pairs.iter().enumerate() {
                for (sc, &dst) in cur.uniq_pairs.iter().enumerate() {
                    exp_cache[sp * dc + sc] = t_tables.transition(src, dst).exp().max(1e-300);
                }
            }
            // xi[jp][j] ∝ gamma_prev[jp] · trans · emission · gamma-consistency.
            xi.clear();
            xi.resize(prev.len() * cur.len(), 0.0);
            let mut total = 0.0;
            for jp in 0..prev.len() {
                let gp = fb.gamma[t - 1][jp];
                if gp <= 0.0 {
                    continue;
                }
                let erow = &exp_cache[prev.slots[jp] as usize * dc..][..dc];
                for j in 0..cur.len() {
                    let gc = fb.gamma[t][j];
                    if gc <= 0.0 {
                        continue;
                    }
                    let w = gp * gc * erow[cur.slots[j] as usize];
                    xi[jp * cur.len() + j] = w;
                    total += w;
                }
            }
            if total <= 0.0 {
                continue;
            }
            for (jp, &ap) in prev.activities.iter().enumerate() {
                let p_prev = ticks[t - 1].candidates[user][prev.cands[jp]].postural;
                for (j, &a) in cur.activities.iter().enumerate() {
                    let w = xi[jp * cur.len() + j] / total;
                    if w <= 0.0 {
                        continue;
                    }
                    let p_new = ticks[t].candidates[user][cur.cands[j]].postural;
                    counts.trans[ap][a] += w;
                    if ap == a {
                        counts.cont[a] += w;
                        counts.post_trans[p_prev][p_new] += w;
                    } else {
                        counts.end[ap] += w;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{HdbnConfig, HdbnParams};
    use cace_mining::constraint::{ConstraintMiner, LabeledSequence};

    fn toy_params() -> HdbnParams {
        let mut macros = Vec::new();
        for r in 0..40 {
            for _ in 0..10 {
                macros.push(r % 2);
            }
        }
        let n = macros.len();
        let seq = LabeledSequence {
            macros: [macros.clone(), macros.clone()],
            posturals: [macros.clone(), macros.clone()],
            gesturals: [vec![0; n], vec![0; n]],
            locations: [macros.clone(), macros],
        };
        let stats = ConstraintMiner {
            laplace: 0.1,
            n_macro: 2,
            n_postural: 2,
            n_gestural: 2,
            n_location: 2,
        }
        .mine(&[seq])
        .unwrap();
        HdbnParams::new(stats, HdbnConfig::uncoupled()).unwrap()
    }

    fn obs_tick(m: usize, strength: f64) -> TickInput {
        let cands = |fav: usize| -> Vec<MicroCandidate> {
            (0..2)
                .map(|p| MicroCandidate {
                    postural: p,
                    gestural: Some(0),
                    location: p,
                    obs_loglik: if p == fav { 0.0 } else { -strength },
                })
                .collect()
        };
        TickInput {
            candidates: [cands(m), cands(m)],
            macro_candidates: [None, None],
            macro_bonus: Vec::new(),
        }
    }

    #[test]
    fn viterbi_decodes_switches() {
        let model = SingleHdbn::new(toy_params());
        let ticks: Vec<TickInput> = (0..20)
            .map(|t| obs_tick(usize::from(t >= 10), 5.0))
            .collect();
        let path = model.viterbi(&ticks, 0).unwrap();
        assert_eq!(&path.macros[..8], &[0; 8]);
        assert_eq!(&path.macros[12..], &[1; 8]);
        assert!(path.log_prob.is_finite());
    }

    #[test]
    fn forward_backward_is_confident_on_clear_data() {
        let model = SingleHdbn::new(toy_params());
        let ticks: Vec<TickInput> = (0..10).map(|_| obs_tick(0, 6.0)).collect();
        let post = model.forward_backward(&ticks, 0).unwrap();
        // At mid-sequence, posterior mass on (activity 0) states should be
        // near 1. States are enumerated macro-major: activity 0 = first two.
        let mid = &post.gamma[5];
        let mass0: f64 = mid[..2].iter().sum();
        assert!(mass0 > 0.95, "activity-0 mass {mass0}");
        assert!(post.log_likelihood.is_finite());
        // Each gamma row is a distribution.
        for row in &post.gamma {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn viterbi_and_posterior_agree_on_easy_input() {
        let model = SingleHdbn::new(toy_params());
        let ticks: Vec<TickInput> = (0..12)
            .map(|t| obs_tick(usize::from(t >= 6), 6.0))
            .collect();
        let path = model.viterbi(&ticks, 0).unwrap();
        let post = model.forward_backward(&ticks, 0).unwrap();
        for t in [1, 2, 3, 8, 9, 10] {
            let best_state = post.gamma[t]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            // State enumeration is macro-major with 2 candidates each.
            assert_eq!(best_state / 2, path.macros[t], "tick {t}");
        }
    }

    #[test]
    fn counts_accumulate_plausibly() {
        let model = SingleHdbn::new(toy_params());
        let ticks: Vec<TickInput> = (0..30)
            .map(|t| obs_tick(usize::from((t / 10) % 2 == 1), 5.0))
            .collect();
        let mut counts = ExpectedCounts::zeros(2, 2, 2, 2);
        model.accumulate_counts(&ticks, 0, &mut counts).unwrap();
        // Unary mass ≈ number of ticks.
        let unary: f64 = counts.post.iter().flatten().sum();
        assert!((unary - 30.0).abs() < 1e-6, "unary mass {unary}");
        // Posture 0 dominates under activity 0.
        assert!(counts.post[0][0] > 5.0 * counts.post[0][1]);
        // Mostly self-transitions.
        assert!(counts.trans[0][0] > counts.trans[0][1]);
        assert!(counts.log_likelihood.is_finite());
    }

    #[test]
    fn errors_on_empty() {
        let model = SingleHdbn::new(toy_params());
        assert!(model.viterbi(&[], 0).is_err());
        let mut tick = obs_tick(0, 1.0);
        tick.candidates[0].clear();
        assert!(matches!(
            model.forward_backward(&[tick], 0),
            Err(ModelError::EmptyStateSpace { tick: 0 })
        ));
    }
}
