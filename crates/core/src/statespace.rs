//! State-space creation (Fig 2, step 3): per-tick candidate sets scored
//! against the observations, plus the shared per-tick preparation pipeline
//! ([`TickPreparer`]) that the batch, EM, and streaming paths all run.
//!
//! Downstream of the preparation here, the decoders map every prepared
//! candidate state to a compact `(activity, postural)` pair id exactly
//! once per tick (`cace_hdbn::arena::fill_slice`) and score it through
//! the dense [`cace_hdbn::ScoreTables`] — so the per-tick cost of a
//! candidate is one id mapping plus flat-array loads, regardless of how
//! many DP edges touch it.
//!
//! The *candidate* beam here ([`TickPreparer`]'s `beam` field, from
//! [`CaceConfig::beam`](crate::CaceConfig)) caps how many scored micro
//! tuples per user enter the decoder at all — it shapes the state space
//! before inference, and with it the frontier's width ceiling (see
//! [`Strategy::frontier_bound`](crate::Strategy::frontier_bound)). Inside
//! the decoders, dominance pruning then skips the states of that frontier
//! that provably cannot win (`cace_hdbn::dominance`), without changing
//! any decision.

use cace_behavior::ObservedTick;
use cace_features::TickFeatures;
use cace_mining::{AtomSpace, CandidateTick, PruningEngine, UserCandidates};
use cace_model::{Gestural, Postural, StateMask, SubLocation};

use cace_hdbn::TickInput;

use crate::classifiers::MicroClassifiers;
use crate::evidence::{build_evidence, EvidenceConfig, PrevState};

/// Gaussian-ish width (meters) of the beacon location score.
const BEACON_SIGMA: f64 = 1.2;

/// Per-tick observation scores used to rank candidate micro tuples.
#[derive(Debug, Clone)]
pub struct TickScores {
    /// Postural classifier log-probabilities per user.
    pub postural_lp: [[f64; Postural::COUNT]; 2],
    /// Gestural classifier log-probabilities per user (`None` = absent).
    pub gestural_lp: [Option<[f64; Gestural::COUNT]>; 2],
}

/// Location log-score of sub-location `l` for `user`, combining beacon
/// distance, CASAS sub-location motion, and PIR/motion consistency.
pub fn location_score(
    observed: &ObservedTick,
    user: usize,
    postural: Postural,
    location: SubLocation,
    mask: StateMask,
) -> f64 {
    if !mask.location {
        return 0.0; // modality ablated: uninformative
    }
    let mut score = 0.0;
    let mut informed = false;
    if let Some(beacon) = &observed.per_user[user].beacon {
        let (bx, by) = beacon.position;
        let (cx, cy) = location.centroid();
        let d2 = (bx - cx).powi(2) + (by - cy).powi(2);
        score += -0.5 * d2 / (BEACON_SIGMA * BEACON_SIGMA);
        informed = true;
    }
    if let Some(fired) = &observed.subloc_motion {
        score += if fired[location.index()] { -0.2 } else { -2.5 };
        informed = true;
    }
    // PIR consistency: a *moving* resident in a room whose PIR stayed silent
    // is unlikely (PIRs are motion-gated); a firing PIR mildly supports
    // co-located moving candidates.
    let room = location.room().index();
    if postural.is_moving() {
        score += if observed.room_motion[room] {
            0.3
        } else {
            -1.0
        };
    }
    if informed {
        score
    } else {
        0.0
    }
}

/// Total observation log-likelihood of one candidate micro tuple.
pub fn micro_score(
    observed: &ObservedTick,
    scores: &TickScores,
    user: usize,
    postural: usize,
    gestural: Option<usize>,
    location: usize,
    mask: StateMask,
) -> f64 {
    let p = Postural::from_index(postural).expect("postural in range");
    let l = SubLocation::from_index(location).expect("location in range");
    classifier_score(scores, user, postural, gestural, mask)
        + location_score(observed, user, p, l, mask)
}

/// The classifier half of [`micro_score`].
fn classifier_score(
    scores: &TickScores,
    user: usize,
    postural: usize,
    gestural: Option<usize>,
    mask: StateMask,
) -> f64 {
    let mut total = scores.postural_lp[user][postural];
    if mask.gestural {
        if let (Some(g), Some(glp)) = (gestural, &scores.gestural_lp[user]) {
            total += glp[g];
        }
    }
    total
}

/// Builds the tick's inference input from (possibly pruned) candidates.
///
/// Scores every tuple as [`micro_score`] does, bit for bit, but takes the
/// location term — which depends on the postural state only through
/// whether it is moving — once per `(user, location, moving)` instead of
/// once per tuple.
pub fn build_tick_input(
    space: &AtomSpace,
    observed: &ObservedTick,
    scores: &TickScores,
    pruned: &[UserCandidates; 2],
    mask: StateMask,
    use_gestural: bool,
    beam: usize,
) -> TickInput {
    // Filled on first use: after pruning, most locations never come up.
    let mut location_terms = [[[None; SubLocation::COUNT]; 2]; 2];
    TickInput::from_candidates(
        space,
        pruned,
        use_gestural && mask.gestural,
        beam,
        |u, p, g, l| {
            let postural = Postural::ALL[p];
            let term =
                location_terms[u][usize::from(postural.is_moving())][l].get_or_insert_with(|| {
                    location_score(observed, u, postural, SubLocation::ALL[l], mask)
                });
            classifier_score(scores, u, p, g, mask) + *term
        },
    )
}

/// A fully prepared inference tick: the decoder input plus the pruning
/// accounting the overhead experiments report.
#[derive(Debug, Clone)]
pub struct PreparedTick {
    /// The decoder-ready tick input (scored, beamed candidates plus macro
    /// restrictions and item-sensor bonus).
    pub input: TickInput,
    /// Post-pruning factorized candidate-space size
    /// ([`CandidateTick::joint_size`]) — what the correlation-pruning
    /// strategies report as per-tick joint size.
    pub joint_size: u128,
    /// Rules fired while pruning this tick (0 on the unpruned paths).
    pub rules_fired: u64,
}

/// The per-tick preparation pipeline shared by every recognition path.
///
/// One tick's journey from raw observation to decoder input — masking the
/// ablated modalities, scoring the micro classifiers, restricting to fired
/// sub-locations, firing the correlation pruner, beaming candidates, and
/// attaching the CASAS item bonus — used to live inline in
/// `CaceEngine::recognize`. It is now a standalone unit so that
/// [`CaceEngine::recognize`](crate::CaceEngine::recognize) (and through it
/// `recognize_batch`), EM training, and the streaming
/// [`StreamingRecognizer`](crate::stream::StreamingRecognizer) run the
/// *same* code on each tick: batch recognition is `prepare` mapped over a
/// recorded session, streaming is `prepare` applied as ticks arrive.
///
/// Construction goes through `CaceEngine` (the trained model owns the
/// classifiers and pruner this borrows).
#[derive(Debug, Clone)]
pub struct TickPreparer<'a> {
    pub(crate) space: &'a AtomSpace,
    pub(crate) classifiers: &'a MicroClassifiers,
    /// `Some` on the correlation-pruning strategies (NCR, C2).
    pub(crate) pruner: Option<&'a PruningEngine>,
    pub(crate) mask: StateMask,
    pub(crate) has_gestural: bool,
    pub(crate) beam: usize,
    pub(crate) evidence: EvidenceConfig,
}

impl TickPreparer<'_> {
    /// Applies the modality mask (Fig 8a ablations) to an observation.
    ///
    /// The full-modality configuration (the production default) borrows
    /// the observation untouched — no per-tick clone on the serving hot
    /// path; only an ablated mask pays for an owned, stripped copy.
    fn masked_observation<'o>(
        &self,
        observed: &'o ObservedTick,
    ) -> std::borrow::Cow<'o, ObservedTick> {
        if self.mask.location && self.mask.gestural {
            return std::borrow::Cow::Borrowed(observed);
        }
        let mut out = observed.clone();
        if !self.mask.location {
            out.subloc_motion = None;
            for user in &mut out.per_user {
                user.beacon = None;
            }
            out.room_motion = [false; 6];
        }
        if !self.mask.gestural {
            for user in &mut out.per_user {
                user.tag = None;
            }
        }
        std::borrow::Cow::Owned(out)
    }

    /// CASAS item-sensor evidence as a per-activity log-bonus (log-odds of
    /// the fire/idle likelihoods; unattributed, so shared by both users).
    fn item_bonus(&self, observed: &ObservedTick) -> Vec<f64> {
        match &observed.items {
            None => Vec::new(),
            Some(items) => items
                .iter()
                .map(|&fired| if fired { 4.0 } else { -0.8 })
                .collect(),
        }
    }

    /// Sub-location motion restriction (CASAS state-space creation): "each
    /// motion sensor firing means the sub-location is occupied" — so an
    /// occupied resident must be at a fired sub-location. Applied only when
    /// at least one sensor fired (otherwise no information).
    fn restrict_to_fired(&self, observed: &ObservedTick, tick: &mut CandidateTick) {
        let Some(fired) = &observed.subloc_motion else {
            return;
        };
        if !fired.iter().any(|&f| f) {
            return;
        }
        for user in &mut tick.users {
            for (l, slot) in user.locations.iter_mut().enumerate() {
                if !fired[l] {
                    *slot = false;
                }
            }
            if user.locations.iter().all(|&b| !b) {
                // Relax rather than empty the space (all-sensor dropout).
                user.locations.iter_mut().for_each(|b| *b = true);
            }
        }
    }

    /// Micro-classifier log-probabilities for one tick's features.
    pub fn scores(&self, features: &[TickFeatures; 2]) -> TickScores {
        let score_of = |u: usize| {
            let f = &features[u];
            let postural = self
                .classifiers
                .postural_log_proba(f.phone.as_ref().map(|v| v.as_slice()));
            let gestural = if self.has_gestural && self.mask.gestural {
                Some(
                    self.classifiers
                        .gestural_log_proba(f.tag.as_ref().map(|v| v.as_slice())),
                )
            } else {
                None
            };
            (postural, gestural)
        };
        let (p0, g0) = score_of(0);
        let (p1, g1) = score_of(1);
        TickScores {
            postural_lp: [p0, p1],
            gestural_lp: [g0, g1],
        }
    }

    /// Per-user *macro* emission log-probabilities — the flat NH decoder's
    /// direct classification of the macro activity from frame features.
    pub fn nh_macro_emissions(&self, features: &[TickFeatures; 2]) -> [Vec<f64>; 2] {
        let emit = |u: usize| {
            let f = &features[u];
            self.classifiers.macro_log_proba(
                f.phone.as_ref().map(|v| v.as_slice()),
                f.tag
                    .as_ref()
                    .filter(|_| self.mask.gestural)
                    .map(|v| v.as_slice()),
            )
        };
        [emit(0), emit(1)]
    }

    /// Prepares one tick end to end.
    ///
    /// `prev` is the lag-1 evidence scratch: the committed state of the
    /// previous tick, which the pruner's lag-1 rules fire on. It is
    /// updated in place with this tick's committed observation, so driving
    /// `prepare` tick by tick (streaming) threads exactly the state the
    /// batch loop threads.
    pub fn prepare(
        &self,
        observed: &ObservedTick,
        features: &[TickFeatures; 2],
        prev: &mut [PrevState; 2],
    ) -> PreparedTick {
        let observed = self.masked_observation(observed);
        let scores = self.scores(features);
        let mut tick = CandidateTick::full(self.space);
        if self.mask.location {
            self.restrict_to_fired(&observed, &mut tick);
        }
        let rules_fired = match self.pruner {
            Some(pruner) => {
                let evidence = build_evidence(
                    self.space,
                    &observed,
                    [&scores.postural_lp[0], &scores.postural_lp[1]],
                    [
                        scores.gestural_lp[0].as_ref().map(|g| &g[..]),
                        scores.gestural_lp[1].as_ref().map(|g| &g[..]),
                    ],
                    prev,
                    &self.evidence,
                );
                let report = pruner.prune(&evidence, &mut tick);
                (report.positive_fired + report.negative_fired) as u64
            }
            None => 0,
        };
        let joint_size = tick.joint_size();
        let mut input = build_tick_input(
            self.space,
            &observed,
            &scores,
            &tick.users,
            self.mask,
            self.has_gestural,
            self.beam,
        );
        input.macro_bonus = self.item_bonus(&observed);
        // Commit observed location as lag-1 evidence for the next tick.
        for u in 0..2 {
            prev[u] = PrevState {
                macro_id: None,
                location: observed.per_user[u]
                    .beacon
                    .as_ref()
                    .filter(|b| b.in_home)
                    .map(|b| b.nearest.index()),
            };
        }
        PreparedTick {
            input,
            joint_size,
            rules_fired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cace_behavior::{cace_grammar, simulate_session, SessionConfig};
    use cace_sensing::NoiseConfig;

    fn uniform_scores() -> TickScores {
        TickScores {
            postural_lp: [[0.0; 6], [0.0; 6]],
            gestural_lp: [Some([0.0; 5]), Some([0.0; 5])],
        }
    }

    #[test]
    fn beacon_favors_true_location() {
        let g = cace_grammar();
        let cfg = SessionConfig::tiny().with_noise(NoiseConfig::noiseless());
        let session = simulate_session(&g, &cfg, 1);
        let tick = &session.ticks[30];
        let truth = tick.truth[0].micro;
        let scores = uniform_scores();
        let true_score = micro_score(
            &tick.observed,
            &scores,
            0,
            truth.postural.index(),
            Some(truth.gestural.index()),
            truth.location.index(),
            StateMask::FULL,
        );
        // The true location should be among the best-scoring ones.
        let better = SubLocation::ALL
            .iter()
            .filter(|l| {
                micro_score(
                    &tick.observed,
                    &scores,
                    0,
                    truth.postural.index(),
                    Some(truth.gestural.index()),
                    l.index(),
                    StateMask::FULL,
                ) > true_score + 1e-9
            })
            .count();
        assert!(
            better <= 2,
            "true location should rank near the top ({better} better)"
        );
    }

    #[test]
    fn ablating_location_flattens_the_score() {
        let g = cace_grammar();
        let session = simulate_session(&g, &SessionConfig::tiny(), 2);
        let tick = &session.ticks[10];
        let scores = uniform_scores();
        let s1 = micro_score(
            &tick.observed,
            &scores,
            0,
            1,
            Some(0),
            0,
            StateMask::NO_LOCATION,
        );
        let s2 = micro_score(
            &tick.observed,
            &scores,
            0,
            1,
            Some(0),
            9,
            StateMask::NO_LOCATION,
        );
        assert_eq!(s1, s2, "without location the sub-location must not matter");
    }

    #[test]
    fn build_input_respects_beam_and_mask() {
        let g = cace_grammar();
        let session = simulate_session(&g, &SessionConfig::tiny(), 3);
        let tick = &session.ticks[5];
        let space = AtomSpace::cace();
        let pruned = [UserCandidates::full(&space), UserCandidates::full(&space)];
        let scores = uniform_scores();
        let input = build_tick_input(
            &space,
            &tick.observed,
            &scores,
            &pruned,
            StateMask::FULL,
            true,
            7,
        );
        assert_eq!(input.candidates[0].len(), 7);
        let no_gest = build_tick_input(
            &space,
            &tick.observed,
            &scores,
            &pruned,
            StateMask::NO_GESTURAL,
            true,
            7,
        );
        assert!(no_gest.candidates[0].iter().all(|c| c.gestural.is_none()));
    }
}
