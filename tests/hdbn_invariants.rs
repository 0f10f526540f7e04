//! Inference-layer invariants that span crates: decoder consistency,
//! pruning soundness, and coupling semantics.

use cace::hdbn::{CoupledHdbn, HdbnConfig, HdbnParams, MicroCandidate, SingleHdbn, TickInput};
use cace::mining::constraint::{ConstraintMiner, LabeledSequence};
use cace::mining::{AtomSpace, CandidateTick, Mask, PruningEngine, RuleSet, UserCandidates};
use cace::signal::GaussianSampler;

fn toy_params(coupled: bool) -> HdbnParams {
    let mut macros = Vec::new();
    for r in 0..30 {
        for _ in 0..8 {
            macros.push(r % 3);
        }
    }
    let n = macros.len();
    let seq = LabeledSequence {
        macros: [macros.clone(), macros.clone()],
        posturals: [
            macros.iter().map(|&m| m % 2).collect(),
            macros.iter().map(|&m| m % 2).collect(),
        ],
        gesturals: [vec![0; n], vec![0; n]],
        locations: [macros.clone(), macros],
    };
    let stats = ConstraintMiner {
        laplace: 0.3,
        n_macro: 3,
        n_postural: 2,
        n_gestural: 2,
        n_location: 3,
    }
    .mine(&[seq])
    .unwrap();
    let config = if coupled {
        HdbnConfig::default()
    } else {
        HdbnConfig::uncoupled()
    };
    HdbnParams::new(stats, config).unwrap()
}

fn random_ticks(seed: u64, t: usize) -> Vec<TickInput> {
    let mut rng = GaussianSampler::seed_from_u64(seed);
    (0..t)
        .map(|_| {
            let cands = |rng: &mut GaussianSampler| -> Vec<MicroCandidate> {
                (0..2)
                    .map(|p| MicroCandidate {
                        postural: p,
                        gestural: Some(0),
                        location: rng.below(3),
                        obs_loglik: -3.0 * rng.uniform(),
                    })
                    .collect()
            };
            TickInput {
                candidates: [cands(&mut rng), cands(&mut rng)],
                macro_candidates: [None, None],
                macro_bonus: Vec::new(),
            }
        })
        .collect()
}

#[test]
fn uncoupled_joint_decode_equals_two_single_decodes() {
    // With the coupling factor zeroed, the joint decoder must find exactly
    // the two independent chains' optima.
    let params = toy_params(false);
    let coupled = CoupledHdbn::new(params.clone());
    let single = SingleHdbn::new(params);
    for seed in 0..10u64 {
        let ticks = random_ticks(seed, 12);
        let joint = coupled.viterbi(&ticks).unwrap();
        let s0 = single.viterbi(&ticks, 0).unwrap();
        let s1 = single.viterbi(&ticks, 1).unwrap();
        assert!(
            (joint.log_prob - (s0.log_prob + s1.log_prob)).abs() < 1e-9,
            "seed {seed}: joint {} vs {} + {}",
            joint.log_prob,
            s0.log_prob,
            s1.log_prob
        );
    }
}

#[test]
fn macro_bonus_shifts_the_decode() {
    let params = toy_params(true);
    let decoder = CoupledHdbn::new(params);
    let mut ticks = random_ticks(3, 10);
    let neutral = decoder.viterbi(&ticks).unwrap();
    // A huge bonus for activity 2 must pull (at least many) ticks to it.
    for tick in &mut ticks {
        tick.macro_bonus = vec![0.0, 0.0, 50.0];
    }
    let boosted = decoder.viterbi(&ticks).unwrap();
    let count2 = boosted.macros[0].iter().filter(|&&a| a == 2).count();
    assert_eq!(count2, 10, "bonus should dominate: {:?}", boosted.macros[0]);
    assert_ne!(neutral.macros, boosted.macros);
}

#[test]
fn pruning_a_known_true_state_is_never_done_by_sound_rules() {
    // A rule set whose rules reflect genuine invariants of the generating
    // process can never remove the true state. Construct evidence matching
    // the truth, prune, and verify the truth survives.
    let space = AtomSpace::cace();
    let rules = cace::mining::initial_cace_rules();
    let engine = PruningEngine::new(rules);
    // True state: user 1 cycling at SR1 (exercising), user 2 lying in bed
    // (sleeping).
    use cace::mining::item::{Atom, Item};
    let mut evidence = vec![
        space.encode(Item {
            user: 0,
            lag: 0,
            atom: Atom::Postural(3),
        }),
        space.encode(Item {
            user: 0,
            lag: 0,
            atom: Atom::Location(0),
        }),
        space.encode(Item {
            user: 1,
            lag: 0,
            atom: Atom::Postural(4),
        }),
        space.encode(Item {
            user: 1,
            lag: 0,
            atom: Atom::Location(4),
        }),
    ];
    evidence.sort_unstable();
    let mut tick = CandidateTick::full(&space);
    engine.prune(&evidence, &mut tick);
    // Exercising (0) for user 1, Sleeping (6) for user 2 must survive.
    assert!(
        tick.users[0].macros.contains(0),
        "true macro pruned for user 1"
    );
    assert!(
        tick.users[1].macros.contains(6),
        "true macro pruned for user 2"
    );
    assert!(tick.users[0].posturals.contains(3));
    assert!(tick.users[1].locations.contains(4));
    assert!(!tick.users[0].any_empty() && !tick.users[1].any_empty());
}

#[test]
fn pruned_decode_agrees_with_full_decode_when_truth_survives() {
    // Restricting candidates to a superset of the decoded path must not
    // change the decoded path.
    let params = toy_params(true);
    let decoder = CoupledHdbn::new(params);
    let ticks = random_ticks(8, 15);
    let full = decoder.viterbi(&ticks).unwrap();
    let mut pruned = ticks.clone();
    for (t, tick) in pruned.iter_mut().enumerate() {
        for u in 0..2 {
            // Keep only the decoded activity plus one alternative.
            let keep = full.macros[u][t];
            tick.macro_candidates[u] = Some(vec![keep, (keep + 1) % 3]);
        }
    }
    let restricted = decoder.viterbi(&pruned).unwrap();
    assert_eq!(restricted.macros, full.macros);
    assert!(restricted.states_explored < full.states_explored);
}

#[test]
fn rule_engine_is_idempotent() {
    let space = AtomSpace::cace();
    let rules = cace::mining::initial_cace_rules();
    let engine = PruningEngine::new(rules);
    use cace::mining::item::{Atom, Item};
    let mut evidence = vec![
        space.encode(Item {
            user: 0,
            lag: 0,
            atom: Atom::Postural(3),
        }),
        space.encode(Item {
            user: 0,
            lag: 0,
            atom: Atom::Location(0),
        }),
    ];
    evidence.sort_unstable();
    let mut once = CandidateTick::full(&space);
    engine.prune(&evidence, &mut once);
    let mut twice = once;
    let report = engine.prune(&evidence, &mut twice);
    assert_eq!(once, twice, "second prune must be a no-op");
    assert_eq!(report.removed, 0);
}

#[test]
fn empty_rule_set_prunes_nothing() {
    let space = AtomSpace::cace();
    let engine = PruningEngine::new(RuleSet::new(space.clone(), Vec::new()));
    let mut tick = CandidateTick::full(&space);
    let before = tick.joint_size();
    let report = engine.prune(&[], &mut tick);
    assert_eq!(tick.joint_size(), before);
    assert_eq!(report.removed, 0);
}

#[test]
fn candidate_arithmetic_matches_dimension_products() {
    let space = AtomSpace::cace();
    let mut cand = UserCandidates::full(&space);
    assert_eq!(cand.micro_size(), 6 * 5 * 14);
    assert_eq!(cand.joint_size(), 11 * 6 * 5 * 14);
    cand.posturals = Mask::single(0);
    assert_eq!(cand.micro_size(), 5 * 14);
}
