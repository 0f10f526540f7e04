//! Inference inputs: per-tick candidate micro states with observation
//! log-likelihoods.

use cace_mining::{AtomSpace, UserCandidates};

/// One candidate micro tuple for one user at one tick, with the total
//  observation log-likelihood of the wearable/ambient evidence given the
/// tuple (Augmentation 4's `log N(o; μ, Γ)` or classifier log-probabilities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroCandidate {
    /// Postural id.
    pub postural: usize,
    /// Gestural id (`None` when the modality is absent).
    pub gestural: Option<usize>,
    /// Sub-location id.
    pub location: usize,
    /// `log P(observations | this micro tuple)`.
    pub obs_loglik: f64,
}

/// The per-tick inference input for both users.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TickInput {
    /// Candidate micro tuples per user (nonempty for valid inference).
    pub candidates: [Vec<MicroCandidate>; 2],
    /// Allowed macro activities per user (`None` = all allowed).
    pub macro_candidates: [Option<Vec<usize>>; 2],
    /// Optional per-macro observation log-bonus shared by both users
    /// (e.g. CASAS item-sensor evidence). Empty = no bonus.
    pub macro_bonus: Vec<f64>,
}

impl TickInput {
    /// Builds a tick input from pruned factorized candidates plus a scoring
    /// function `score(user, postural, gestural, location) -> log-lik`.
    ///
    /// `use_gestural` controls whether the gestural dimension is expanded
    /// (CACE) or collapsed (CASAS / ablation).
    ///
    /// Candidates are capped at `max_candidates` per user, keeping the
    /// highest-scoring tuples — the beam that keeps the *unpruned* strategies
    /// finite (the paper's NH strategy similarly bounds its state space by
    /// classifier hypotheses).
    pub fn from_candidates<F>(
        space: &AtomSpace,
        pruned: &[UserCandidates; 2],
        use_gestural: bool,
        max_candidates: usize,
        mut score: F,
    ) -> Self
    where
        F: FnMut(usize, usize, Option<usize>, usize) -> f64,
    {
        let allowed = UserCandidates::allowed_iter;
        let mut out = TickInput::default();
        for u in 0..2 {
            let cand = &pruned[u];
            let count = |mask: &[bool]| allowed(mask).count();
            let n_gestural = if use_gestural {
                count(&cand.gesturals)
            } else {
                1
            };
            let mut tuples =
                Vec::with_capacity(count(&cand.posturals) * n_gestural * count(&cand.locations));
            for p in allowed(&cand.posturals) {
                // `None` alone when the gestural dimension is collapsed.
                let gesturals = allowed(if use_gestural { &cand.gesturals } else { &[] })
                    .map(Some)
                    .chain((!use_gestural).then_some(None));
                for g in gesturals {
                    for l in allowed(&cand.locations) {
                        // A NaN log-lik (degenerate classifier, adversarial
                        // feature vector) is clamped to -inf at ingestion,
                        // so it ranks below every finite candidate instead
                        // of poisoning the sort or the decode kernels.
                        let raw = score(u, p, g, l);
                        let obs_loglik = if raw.is_nan() { f64::NEG_INFINITY } else { raw };
                        tuples.push(MicroCandidate {
                            postural: p,
                            gestural: g,
                            location: l,
                            obs_loglik,
                        });
                    }
                }
            }
            // Best first; ties keep generation order, which is ascending
            // `(postural, gestural, location)`. That makes the order total,
            // so selecting the top tuples and sorting only those gives the
            // stable sort's prefix.
            let order = |a: &MicroCandidate, b: &MicroCandidate| {
                b.obs_loglik.total_cmp(&a.obs_loglik).then_with(|| {
                    (a.postural, a.gestural, a.location).cmp(&(b.postural, b.gestural, b.location))
                })
            };
            let keep = max_candidates.max(1);
            if tuples.len() > keep {
                tuples.select_nth_unstable_by(keep - 1, order);
                tuples.truncate(keep);
            }
            tuples.sort_unstable_by(order);
            out.candidates[u] = tuples;

            out.macro_candidates[u] = if count(&cand.macros) == space.n_macro {
                None
            } else {
                Some(allowed(&cand.macros).collect())
            };
        }
        out
    }

    /// Macro-level observation bonus for activity `a` (0 when absent).
    pub fn bonus(&self, a: usize) -> f64 {
        self.macro_bonus.get(a).copied().unwrap_or(0.0)
    }

    /// The allowed macro ids for a user (all of `0..n_macro` when
    /// unrestricted).
    pub fn macros_for(&self, user: usize, n_macro: usize) -> Vec<usize> {
        match &self.macro_candidates[user] {
            Some(m) => m.clone(),
            None => (0..n_macro).collect(),
        }
    }

    /// Joint per-tick state count: `∏_u |macros_u| · |micro candidates_u|`
    /// — the quantity the overhead experiments report.
    pub fn joint_states(&self, n_macro: usize) -> u64 {
        (0..2)
            .map(|u| {
                let nm = self.macro_candidates[u]
                    .as_ref()
                    .map(|m| m.len())
                    .unwrap_or(n_macro) as u64;
                nm * self.candidates[u].len().max(1) as u64
            })
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_and_cap() {
        let space = AtomSpace::cace();
        let pruned = [UserCandidates::full(&space), UserCandidates::full(&space)];
        let input = TickInput::from_candidates(&space, &pruned, true, 10, |_, p, _, _| {
            -(p as f64) // prefer low postural ids
        });
        assert_eq!(input.candidates[0].len(), 10);
        // Best candidates have postural 0.
        assert_eq!(input.candidates[0][0].postural, 0);
        assert!(input.macro_candidates[0].is_none());
        assert_eq!(input.joint_states(11), (11 * 10) * (11 * 10));
    }

    #[test]
    fn pruned_macro_candidates_are_recorded() {
        let space = AtomSpace::cace();
        let mut cand = UserCandidates::full(&space);
        for a in 1..space.n_macro {
            cand.macros[a] = false;
        }
        let pruned = [cand, UserCandidates::full(&space)];
        let input = TickInput::from_candidates(&space, &pruned, true, 5, |_, _, _, _| 0.0);
        assert_eq!(input.macro_candidates[0], Some(vec![0]));
        assert_eq!(input.macros_for(0, 11), vec![0]);
        assert_eq!(input.macros_for(1, 11).len(), 11);
        assert_eq!(input.joint_states(11), 5 * (11 * 5));
    }

    #[test]
    fn nan_log_liks_are_clamped_instead_of_panicking() {
        let space = AtomSpace::cace();
        let pruned = [UserCandidates::full(&space), UserCandidates::full(&space)];
        // Poison a subset of the scores with NaN; the build must not panic
        // and the NaN tuples must rank strictly below every finite one.
        let input = TickInput::from_candidates(&space, &pruned, true, 10, |_, p, _, l| {
            if (p + l) % 3 == 0 {
                f64::NAN
            } else {
                -(p as f64)
            }
        });
        assert_eq!(input.candidates[0].len(), 10);
        for c in &input.candidates[0] {
            assert!(c.obs_loglik.is_finite(), "NaN survived the cap");
        }
        // All-NaN ticks degrade to -inf candidates rather than a crash.
        let all_nan = TickInput::from_candidates(&space, &pruned, true, 4, |_, _, _, _| f64::NAN);
        assert_eq!(all_nan.candidates[1].len(), 4);
        for c in &all_nan.candidates[1] {
            assert_eq!(c.obs_loglik, f64::NEG_INFINITY);
        }
    }

    #[test]
    fn casas_mode_collapses_gesturals() {
        let space = AtomSpace::casas();
        let pruned = [UserCandidates::full(&space), UserCandidates::full(&space)];
        let input = TickInput::from_candidates(&space, &pruned, false, 1000, |_, _, _, _| 0.0);
        // 6 posturals × 14 locations, no gestural expansion.
        assert_eq!(input.candidates[0].len(), 84);
        assert!(input.candidates[0].iter().all(|c| c.gestural.is_none()));
    }
}
