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
//! [`TickPreparer::prepare`] works on fixed-width masks: each user's
//! candidate dimensions are `u64` bitsets ([`cace_mining::Mask`]), the
//! pruner tests a rule with one mask compare against the tick's evidence
//! bitset, and the scored tuples are kept in a bounded, sorted beam
//! ([`TickInput::fill_candidates`]). It fills a [`PreparedTick`] the caller
//! keeps, so a stream that reuses one prepares a tick without allocating.
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
use cace_mining::{AtomSpace, CandidateTick, Mask, PruningEngine, UserCandidates};
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
    location_scores(observed, user, location, mask)[usize::from(postural.is_moving())]
}

/// [`location_score`] of a still and of a moving postural state, in that
/// order: the PIR term is the only one that depends on the postural
/// state, and it is the last one added.
fn location_scores(
    observed: &ObservedTick,
    user: usize,
    location: SubLocation,
    mask: StateMask,
) -> [f64; 2] {
    if !mask.location {
        return [0.0; 2]; // modality ablated: uninformative
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
    if !informed {
        return [0.0; 2];
    }
    // PIR consistency: a *moving* resident in a room whose PIR stayed silent
    // is unlikely (PIRs are motion-gated); a firing PIR mildly supports
    // co-located moving candidates.
    let room = location.room().index();
    let pir = if observed.room_motion[room] {
        0.3
    } else {
        -1.0
    };
    [score, score + pir]
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

/// Builds the tick's inference input from (possibly pruned) candidates:
/// [`TickPreparer::prepare`]'s candidate scoring and beam on a fresh
/// input.
///
/// Scores every tuple as [`micro_score`] does, bit for bit, but takes the
/// location term — which depends on the postural state only through
/// whether it is moving — for both kinds at once, once per
/// `(user, location)` instead of once per tuple.
pub fn build_tick_input(
    space: &AtomSpace,
    observed: &ObservedTick,
    scores: &TickScores,
    pruned: &[UserCandidates; 2],
    mask: StateMask,
    use_gestural: bool,
    beam: usize,
) -> TickInput {
    let mut input = TickInput::default();
    fill_candidates(
        &mut input,
        observed,
        scores,
        pruned,
        mask,
        use_gestural,
        beam,
    );
    input.restrict_macros(space, pruned, &mut Default::default());
    input
}

/// The candidate half of [`build_tick_input`], into a reused input.
fn fill_candidates(
    input: &mut TickInput,
    observed: &ObservedTick,
    scores: &TickScores,
    pruned: &[UserCandidates; 2],
    mask: StateMask,
    use_gestural: bool,
    beam: usize,
) {
    // Each `(user, location)` pair's still and moving terms, once.
    let moving = Postural::ALL.map(Postural::is_moving);
    let mut location_terms = [[[0.0; 2]; SubLocation::COUNT]; 2];
    for (u, cand) in pruned.iter().enumerate() {
        for l in cand.locations {
            location_terms[u][l] = location_scores(observed, u, SubLocation::ALL[l], mask);
        }
    }
    input.fill_candidates(pruned, use_gestural && mask.gestural, beam, |u, p, g, l| {
        classifier_score(scores, u, p, g, mask) + location_terms[u][l][usize::from(moving[p])]
    });
}

/// A fully prepared inference tick: the decoder input plus the pruning
/// accounting the overhead experiments report.
///
/// [`TickPreparer::prepare`] refills one in place; a stream keeps one and
/// reuses its buffers on every push.
#[derive(Debug, Clone, Default)]
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
    /// Macro-restriction lists parked while their user is unrestricted
    /// (see [`TickInput::restrict_macros`]).
    spare_macros: [Vec<usize>; 2],
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

/// What a reference preparation needs to know of a preparer.
#[cfg(feature = "testkit")]
impl<'a> TickPreparer<'a> {
    /// The atom space the candidate sets range over.
    pub fn space(&self) -> &'a AtomSpace {
        self.space
    }

    /// The rules the pruner applies, `None` on the unpruned paths.
    pub fn rules(&self) -> Option<&'a cace_mining::RuleSet> {
        self.pruner.map(PruningEngine::rules)
    }

    /// The modality mask.
    pub fn mask(&self) -> StateMask {
        self.mask
    }

    /// Whether the engine was trained with a gestural stream.
    pub fn has_gestural(&self) -> bool {
        self.has_gestural
    }

    /// The per-user candidate beam.
    pub fn beam(&self) -> usize {
        self.beam
    }

    /// The evidence thresholds.
    pub fn evidence_config(&self) -> &EvidenceConfig {
        &self.evidence
    }
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
    /// the fire/idle likelihoods; unattributed, so shared by both users),
    /// written into `bonus`; empty when the tick has no item sensors.
    fn item_bonus(&self, observed: &ObservedTick, bonus: &mut Vec<f64>) {
        bonus.clear();
        if let Some(items) = &observed.items {
            bonus.extend(items.iter().map(|&fired| if fired { 4.0 } else { -0.8 }));
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
        let fired: Mask = (0..fired.len()).filter(|&l| fired[l]).collect();
        if fired.is_empty() {
            return;
        }
        for user in &mut tick.users {
            user.locations = user.locations & fired;
            if user.locations.is_empty() {
                // Relax rather than empty the space (all-sensor dropout).
                user.locations = Mask::full(self.space.n_location);
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

    /// Prepares one tick end to end, into `out`.
    ///
    /// `prev` is the lag-1 evidence scratch: the committed state of the
    /// previous tick, which the pruner's lag-1 rules fire on. It is
    /// updated in place with this tick's committed observation, so driving
    /// `prepare` tick by tick (streaming) threads exactly the state the
    /// batch loop threads.
    ///
    /// Every field of `out` is overwritten; only its buffers carry over,
    /// so a warmed `out` is refilled without allocating.
    pub fn prepare(
        &self,
        observed: &ObservedTick,
        features: &[TickFeatures; 2],
        prev: &mut [PrevState; 2],
        out: &mut PreparedTick,
    ) {
        let observed = self.masked_observation(observed);
        let scores = self.scores(features);
        let mut tick = CandidateTick::full(self.space);
        if self.mask.location {
            self.restrict_to_fired(&observed, &mut tick);
        }
        out.rules_fired = match self.pruner {
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
        out.joint_size = tick.joint_size();
        let input = &mut out.input;
        fill_candidates(
            input,
            &observed,
            &scores,
            &tick.users,
            self.mask,
            self.has_gestural,
            self.beam,
        );
        input.restrict_macros(self.space, &tick.users, &mut out.spare_macros);
        self.item_bonus(&observed, &mut input.macro_bonus);
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
