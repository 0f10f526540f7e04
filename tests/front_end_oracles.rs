//! Differential oracles for the serving front end.
//!
//! Each rewritten kernel is held to the implementation it replaced, kept
//! in `cace_testkit::naive`:
//!
//! * `FeatureVector::from_frame` (two fused passes, no heap) against the
//!   one-pass-per-feature reference, bit for bit (`to_bits`), over random
//!   frames of 0–300 samples — past the 128-sample stack buffer — plus
//!   constant frames, all-zero and `-0.0` components, and simulated
//!   wearable frames;
//! * `RandomForest::predict_proba` (borrowed leaf distributions) against
//!   the per-tree-clone reference;
//! * `PruningEngine::prune` (rules indexed by first antecedent) against a
//!   linear scan of the rule set, on random rule sets and evidence;
//! * `build_tick_input` (location terms taken once per `(user,
//!   location)`, bounded beam) against per-tuple `micro_score` and a full
//!   stable sort, on random scores with ties and NaNs and random masks;
//! * `TickPreparer::prepare` (bitset candidate sets and rule antecedents,
//!   one reused `PreparedTick`) against the `Vec<bool>` preparation, tick
//!   by tick over both corpora, both beams, pruner on and off, every
//!   modality mask, with hostile ticks mixed in: every `TickInput` bit,
//!   the joint size and the rules fired.

use proptest::prelude::*;

use std::sync::OnceLock;

use cace::behavior::session::train_test_split;
use cace::behavior::{generate_casas_dataset, CasasConfig, ObservedTick, Session};
use cace::core::statespace::{
    build_tick_input, micro_score, PreparedTick, TickPreparer, TickScores,
};
use cace::core::{CaceConfig, CaceEngine, Strategy};
use cace::features::{extract_session, extract_tick, FeatureVector};
use cace::hdbn::{MicroCandidate, TickInput};
use cace::learn::{ForestConfig, RandomForest};
use cace::mining::{
    AtomSpace, CandidateTick, ItemId, Mask, NegativeRule, PruningEngine, Rule, RuleSet,
    UserCandidates,
};
use cace::model::{Gestural, Postural, Room, StateMask};
use cace::sensing::{ImuSynthesizer, NoiseConfig, ObjectKind};
use cace::signal::trajectory::ImuSample;
use cace::signal::{GaussianSampler, Vec3};
use cace_testkit::naive::{self, forest_proba, frame_features, prune_linear, BoolTick};
use cace_testkit::{engine_with, tiny_corpus};

// ---------- frame features ----------

/// A frame of `len` samples of one of five shapes, drawn from `seed`.
fn frame(len: usize, shape: u8, seed: u64) -> Vec<ImuSample> {
    let mut rng = GaussianSampler::seed_from_u64(seed);
    let sample = |accel: Vec3| ImuSample {
        accel,
        gyro: Vec3::ZERO,
        mag: Vec3::X,
    };
    match shape {
        // Realistic: a simulated phone or neck-tag frame.
        0 => {
            let synth = ImuSynthesizer::new(NoiseConfig::default());
            let p = Postural::ALL[rng.below(Postural::COUNT)];
            if rng.uniform() < 0.5 {
                synth.phone_frame(p, len, &mut rng)
            } else {
                let g = Gestural::ALL[rng.below(Gestural::COUNT)];
                synth.tag_frame(g, p, len, &mut rng)
            }
        }
        // Constant: every sample identical (zero variance everywhere).
        1 => {
            let a = rng.normal_vec3(Vec3::new(0.0, 0.0, 9.81), 3.0);
            vec![sample(a); len]
        }
        // Signed zeros: every component `0.0` or `-0.0`.
        2 => (0..len)
            .map(|_| {
                let mut zero = || if rng.uniform() < 0.5 { 0.0 } else { -0.0 };
                sample(Vec3::new(zero(), zero(), zero()))
            })
            .collect(),
        // Sparse: random components with zeros of both signs mixed in.
        3 => (0..len)
            .map(|_| {
                let mut c = || match rng.below(4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.normal(0.0, 5.0),
                };
                sample(Vec3::new(c(), c(), c()))
            })
            .collect(),
        // Wide: large, heavy-tailed components.
        _ => (0..len)
            .map(|_| sample(rng.normal_vec3(Vec3::ZERO, 40.0) * rng.uniform_in(0.0, 4.0)))
            .collect(),
    }
}

fn assert_features_match(frame: &[ImuSample], label: &str) {
    let fused = FeatureVector::from_frame(frame);
    let reference = frame_features(frame);
    for (i, (a, b)) in fused.as_slice().iter().zip(&reference).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: feature {i} of a {}-sample frame: fused {a:e} vs reference {b:e}",
            frame.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn fused_frame_features_are_bit_identical(
        len in 0usize..301,
        shape in 0u8..5,
        seed in 0u64..u64::MAX,
    ) {
        assert_features_match(&frame(len, shape, seed), &format!("shape {shape} seed {seed}"));
    }
}

#[test]
fn fused_frame_features_match_on_simulated_sessions() {
    use cace::behavior::{cace_grammar, simulate_session, SessionConfig};
    let session = simulate_session(&cace_grammar(), &SessionConfig::tiny(), 11);
    let mut frames = 0;
    for (t, tick) in session.ticks.iter().enumerate() {
        for user in &tick.observed.per_user {
            for f in [&user.phone, &user.tag].into_iter().flatten() {
                assert_features_match(f, &format!("session tick {t}"));
                frames += 1;
            }
        }
    }
    assert!(frames > 100, "only {frames} frames");
    // And the session path still extracts exactly these vectors.
    let extracted = extract_session(&session);
    assert_eq!(extracted.len(), session.len());
}

// ---------- forest scoring ----------

fn blobs(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = GaussianSampler::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 4;
        xs.push(
            (0..6)
                .map(|d| rng.normal(((class + d) % 3) as f64 * 2.0, 1.5))
                .collect(),
        );
        ys.push(class);
    }
    (xs, ys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn borrowed_leaf_forest_matches_per_tree_clones(seed in 0u64..1_000_000, trees in 1usize..16) {
        let (xs, ys) = blobs(seed, 160);
        let config = ForestConfig { n_trees: trees, ..ForestConfig::default() };
        let forest = RandomForest::fit(&xs, &ys, 5, &config, seed ^ 0x5eed).unwrap();
        let (probes, _) = blobs(seed + 1, 40);
        for x in &probes {
            let reference = forest_proba(&forest, x);
            let proba = forest.predict_proba(x);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&proba), bits(&reference));
            let log: Vec<f64> = reference.iter().map(|p| p.max(1e-6).ln()).collect();
            prop_assert_eq!(bits(&forest.predict_log_proba(x)), bits(&log));
            let mut into = vec![f64::NAN; forest.n_classes()];
            forest.predict_log_proba_into(x, &mut into);
            prop_assert_eq!(bits(&into), bits(&log));
        }
    }
}

// ---------- rule pruning ----------

/// A random rule set over a small pool of items (so rules fire often),
/// with some lag-1 and undecodable consequents, plus random evidence.
fn rules_and_evidence(seed: u64) -> (RuleSet, Vec<ItemId>) {
    let space = AtomSpace::cace();
    let mut rng = GaussianSampler::seed_from_u64(seed);
    let n_items = space.n_items();
    let pool: Vec<ItemId> = (0..24).map(|_| ItemId(rng.below(n_items) as u32)).collect();
    let pick = |rng: &mut GaussianSampler| pool[rng.below(pool.len())];
    // Up to 200 rules, so the fired-rule buffer overflows its stack
    // array on some ticks and not on others.
    let rules = (0..rng.below(200))
        .map(|_| {
            let mut antecedent: Vec<ItemId> = (0..rng.below(4)).map(|_| pick(&mut rng)).collect();
            antecedent.sort_unstable();
            antecedent.dedup();
            let consequent = if rng.below(20) == 0 {
                ItemId((n_items + rng.below(8)) as u32)
            } else {
                ItemId(rng.below(n_items) as u32)
            };
            Rule {
                antecedent,
                consequent,
                support: 0.1,
                confidence: 1.0,
            }
        })
        .collect();
    let negatives = (0..rng.below(12))
        .map(|_| NegativeRule {
            if_item: pick(&mut rng),
            then_not: ItemId(rng.below(n_items) as u32),
            support: 0.1,
        })
        .collect();
    let mut set = RuleSet::new(space, rules);
    set.set_negatives(negatives);
    let mut evidence: Vec<ItemId> = (0..rng.below(14)).map(|_| pick(&mut rng)).collect();
    evidence.sort_unstable();
    evidence.dedup();
    (set, evidence)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn indexed_pruner_matches_linear_scan(seed in 0u64..u64::MAX) {
        let (rules, evidence) = rules_and_evidence(seed);
        let space = rules.space().clone();
        let engine = PruningEngine::new(rules.clone());
        let mut indexed = CandidateTick::full(&space);
        let mut linear = BoolTick::full(&space);
        let report = engine.prune(&evidence, &mut indexed);
        let reference = prune_linear(&rules, &evidence, &mut linear);
        prop_assert_eq!(report, reference);
        prop_assert_eq!(indexed, linear.to_masks());
    }
}

#[test]
fn indexed_pruner_matches_linear_scan_on_the_initial_rules() {
    let rules = cace::mining::initial_cace_rules();
    let space = rules.space().clone();
    let engine = PruningEngine::new(rules.clone());
    let mut rng = GaussianSampler::seed_from_u64(3);
    let mut fired = 0;
    for _ in 0..500 {
        let mut evidence: Vec<ItemId> = (0..rng.below(10))
            .map(|_| ItemId(rng.below(space.n_items()) as u32))
            .collect();
        evidence.sort_unstable();
        evidence.dedup();
        let (mut a, mut b) = (CandidateTick::full(&space), BoolTick::full(&space));
        let report = engine.prune(&evidence, &mut a);
        assert_eq!(report, prune_linear(&rules, &evidence, &mut b));
        assert_eq!(a, b.to_masks());
        fired += report.positive_fired + report.negative_fired;
    }
    assert!(fired > 0, "no rule ever fired: the check proved nothing");
}

// ---------- candidate scoring and selection ----------

/// `TickInput::from_candidates` as it was: every tuple scored by
/// `micro_score`, stably sorted best first, truncated to the beam.
fn reference_candidates(
    observed: &cace::behavior::ObservedTick,
    scores: &TickScores,
    pruned: &[UserCandidates; 2],
    mask: StateMask,
    use_gestural: bool,
    beam: usize,
) -> [Vec<MicroCandidate>; 2] {
    let use_gestural = use_gestural && mask.gestural;
    [0, 1].map(|u| {
        let cand = &pruned[u];
        let gesturals: Vec<Option<usize>> = if use_gestural {
            cand.gesturals.iter().map(Some).collect()
        } else {
            vec![None]
        };
        let mut tuples = Vec::new();
        for p in cand.posturals {
            for &g in &gesturals {
                for l in cand.locations {
                    let raw = micro_score(observed, scores, u, p, g, l, mask);
                    tuples.push(MicroCandidate {
                        postural: p,
                        gestural: g,
                        location: l,
                        obs_loglik: if raw.is_nan() { f64::NEG_INFINITY } else { raw },
                    });
                }
            }
        }
        tuples.sort_by(|a, b| b.obs_loglik.total_cmp(&a.obs_loglik));
        tuples.truncate(beam.max(1));
        tuples
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn cached_location_terms_and_top_k_match_per_tuple_scoring(seed in 0u64..u64::MAX) {
        use cace::behavior::{cace_grammar, simulate_session, SessionConfig};
        let mut rng = GaussianSampler::seed_from_u64(seed);
        let session = simulate_session(&cace_grammar(), &SessionConfig::tiny().with_ticks(8), seed);
        let observed = &session.ticks[rng.below(session.len())].observed;
        let space = AtomSpace::cace();
        // Coarse scores, so ties are common; a few NaNs.
        let score = |rng: &mut GaussianSampler| match rng.below(12) {
            0 => f64::NAN,
            _ => -(rng.below(4) as f64),
        };
        let scores = TickScores {
            postural_lp: [0, 1].map(|_| std::array::from_fn(|_| score(&mut rng))),
            gestural_lp: [0, 1].map(|_| {
                (rng.below(4) > 0).then(|| std::array::from_fn(|_| score(&mut rng)))
            }),
        };
        let pruned = [0, 1].map(|_| {
            let mut cand = UserCandidates::full(&space);
            let mut draw = |n: usize| (0..n).filter(|_| rng.below(3) > 0).collect::<Mask>();
            cand.posturals = draw(space.n_postural);
            cand.gesturals = draw(space.n_gestural);
            cand.locations = draw(space.n_location);
            cand
        });
        let mask = [StateMask::FULL, StateMask::NO_LOCATION, StateMask::NO_GESTURAL][rng.below(3)];
        let use_gestural = rng.below(4) > 0;
        let beam = 1 + rng.below(40);
        let input = build_tick_input(&space, observed, &scores, &pruned, mask, use_gestural, beam);
        let reference =
            reference_candidates(observed, &scores, &pruned, mask, use_gestural, beam);
        for u in 0..2 {
            let bits = |c: &[MicroCandidate]| {
                c.iter()
                    .map(|t| (t.postural, t.gestural, t.location, t.obs_loglik.to_bits()))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(&input.candidates[u]), bits(&reference[u]));
        }
    }
}

// ---------- whole-tick preparation ----------

/// A C2 engine (so a pruner exists) and its test sessions, for the CACE
/// and the CASAS corpus, trained once per test binary.
fn prepare_fixtures() -> &'static [(CaceEngine, Vec<Session>); 2] {
    static FIXTURES: OnceLock<[(CaceEngine, Vec<Session>); 2]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let config = CaceConfig::default().with_strategy(Strategy::CorrelationConstraint);
        let (train, test) = tiny_corpus(4, 60, 41);
        let casas = CasasConfig {
            pairs: 2,
            sessions_per_pair: 2,
            ticks: 40,
            ..CasasConfig::default()
        };
        let (casas_train, casas_test) = train_test_split(generate_casas_dataset(&casas, 5), 0.75);
        [
            (engine_with(&train, &config), test),
            (engine_with(&casas_train, &config), casas_test),
        ]
    })
}

const MASKS: [StateMask; 4] = [
    StateMask::FULL,
    StateMask::NO_GESTURAL,
    StateMask::NO_LOCATION,
    StateMask {
        gestural: false,
        location: false,
    },
];

/// `observed` damaged in the way `kind` selects: NaN or infinite IMU
/// samples, emptied frames, a dropped wearable or location modality, or
/// no sensor data at all.
fn hostile(observed: &ObservedTick, kind: usize) -> ObservedTick {
    fn frames(out: &mut ObservedTick) -> impl Iterator<Item = &mut Vec<ImuSample>> {
        let users = out.per_user.iter_mut();
        users.flat_map(|u| [&mut u.phone, &mut u.tag]).flatten()
    }
    let mut out = observed.clone();
    match kind % 6 {
        0 => frames(&mut out).for_each(|f| {
            let mid = f.len() / 2;
            if let Some(s) = f.get_mut(mid) {
                s.accel.x = f64::NAN;
            }
        }),
        1 => frames(&mut out).for_each(|f| f.iter_mut().for_each(|s| s.accel.y = f64::INFINITY)),
        2 => frames(&mut out).for_each(Vec::clear),
        3 => out
            .per_user
            .iter_mut()
            .for_each(|u| (u.phone, u.tag) = (None, None)),
        4 => {
            out.subloc_motion = None;
            out.per_user.iter_mut().for_each(|u| u.beacon = None);
        }
        _ => {
            out.room_motion = [false; Room::COUNT];
            out.subloc_motion = None;
            out.items = None;
            out.objects = [false; ObjectKind::COUNT];
            out.per_user = Default::default();
        }
    }
    out
}

/// Every bit of a tick input.
fn input_bits(input: &TickInput) -> impl PartialEq + std::fmt::Debug {
    let candidates = input.candidates.each_ref().map(|c| {
        c.iter()
            .map(|t| (t.postural, t.gestural, t.location, t.obs_loglik.to_bits()))
            .collect::<Vec<_>>()
    });
    let bonus: Vec<u64> = input.macro_bonus.iter().map(|b| b.to_bits()).collect();
    (candidates, input.macro_candidates.clone(), bonus)
}

/// Prepares `session` tick by tick through `preparer` — one reused
/// `PreparedTick`, as a stream keeps — and through the `Vec<bool>`
/// reference, replacing the ticks `hostile_at` picks with
/// [`hostile`] ones, and asserts every tick agrees. Returns the rules
/// fired and the macro restrictions made over the session.
fn assert_prepare_matches(
    preparer: &TickPreparer<'_>,
    session: &Session,
    mut hostile_at: impl FnMut(usize) -> Option<usize>,
    label: &str,
) -> (u64, usize) {
    let mut prepared = PreparedTick::default();
    let (mut prev, mut prev_ref) = Default::default();
    let (mut fired, mut restricted) = (0, 0);
    for (t, tick) in session.ticks.iter().enumerate() {
        let observed = match hostile_at(t) {
            Some(kind) => hostile(&tick.observed, kind),
            None => tick.observed.clone(),
        };
        let features = extract_tick(&observed);
        preparer.prepare(&observed, &features, &mut prev, &mut prepared);
        let (input, joint_size, rules_fired) =
            naive::prepare(preparer, &observed, &features, &mut prev_ref);
        assert_eq!(
            input_bits(&prepared.input),
            input_bits(&input),
            "{label}: tick {t} input"
        );
        assert_eq!(
            prepared.joint_size, joint_size,
            "{label}: tick {t} joint size"
        );
        assert_eq!(
            prepared.rules_fired, rules_fired,
            "{label}: tick {t} rules fired"
        );
        assert_eq!(prev, prev_ref, "{label}: tick {t} lag-1 state");
        fired += rules_fired;
        restricted += input.macro_candidates.iter().flatten().count();
    }
    (fired, restricted)
}

/// Every corpus, beam, pruner setting and modality mask, over a whole test
/// session with every third tick hostile.
#[test]
fn prepare_matches_the_bool_mask_reference_in_every_configuration() {
    let (mut fired, mut restricted) = (0, 0);
    for (corpus, (engine, test)) in prepare_fixtures().iter().enumerate() {
        for beam in [8, 64] {
            for prune in [false, true] {
                for mask in MASKS {
                    let preparer = engine.preparer(beam, prune, mask);
                    let label = format!("corpus {corpus} beam {beam} prune {prune} {mask:?}");
                    let hostile_at = |t: usize| (t % 3 == 2).then_some(t / 3);
                    let (f, r) = assert_prepare_matches(&preparer, &test[0], hostile_at, &label);
                    assert!(prune || f == 0, "{label}: rules fired without a pruner");
                    fired += f;
                    restricted += r;
                }
            }
        }
    }
    assert!(fired > 0, "no rule ever fired: the check proved nothing");
    assert!(restricted > 0, "no macro set was ever narrowed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prepare_matches_the_bool_mask_reference(
        corpus in 0usize..2,
        wide in 0u8..2,
        prune in 0u8..2,
        mask in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let (engine, test) = &prepare_fixtures()[corpus];
        let beam = if wide == 1 { 64 } else { 8 };
        let preparer = engine.preparer(beam, prune == 1, MASKS[mask]);
        let mut rng = GaussianSampler::seed_from_u64(seed);
        let session = &test[rng.below(test.len())];
        let hostile_at = |_| (rng.below(4) == 0).then(|| rng.below(6));
        assert_prepare_matches(&preparer, session, hostile_at, &format!("seed {seed}"));
    }
}
