//! Differential suite for dominance pruning: the exact step every decoder
//! runs — a dominance survivor selection, then the survivor-list kernel —
//! against a naive dense reference on the same inputs, for the joint,
//! chain and NH (switch-free) kernels. The references
//! (`cace_testkit::toy::{naive_step, naive_joint_step}`) scan every
//! source with the kernels' run collapse and no pruning. Every state's new
//! frontier score must match bit for bit, and so must its backpointer.
//!
//! Random cases draw their scores from a palette built to break a sloppy
//! bound: dyadic values (exact ties across sources), values a few ulps
//! below the frontier maximum (the selection slack's rounding cases),
//! `−∞` entries and whole `−∞` frontier rows, subnormal and very large
//! finite magnitudes, `−∞` transition scores (including a source pair
//! with no finite outgoing transition, and destinations no source
//! reaches), and single-state slices. Some cases fold the whole frontier —
//! no finite maximum, or every state survives — and the suite counts them,
//! so the full-list path stays covered. Hand-built cases pin the rounding,
//! run-collapse and unreachable-destination rules on their own.
//!
//! The suite ends with the efficacy gauge: on a small CASAS corpus the
//! steps fold a small fraction of the frontier. The last cases hold the
//! coupled decoders' slot-factored frontier to the dense references: its
//! survivors to `cace_testkit::toy::reference_select_joint`, its first
//! and last maximum to plain scans of its materialization, on random
//! worlds, hand-shaped edge frontiers and CASAS step outputs.

use proptest::prelude::*;

use cace::behavior::session::train_test_split;
use cace::behavior::{generate_casas_dataset, CasasConfig};
use cace::core::{CaceConfig, CaceEngine, Lag};
use cace::hdbn::trellis::{argmax, step_into};
use cace::hdbn::{
    joint_step, joint_step_from, serve_joint_steps, Dominance, Frontier, HdbnConfig, HdbnParams,
    JointFrontier, JointStep, MicroCandidate, ScoreModel, ServedStep, StateSpace, TickInput,
    TrellisArena,
};
use cace::hdbn::{CoupledHdbn, Lag as HdbnLag, OnlineCoupledViterbi};
use cace::mining::HierarchicalStats;
use cace_testkit::naive::naive_coupled_viterbi;
use cace_testkit::toy::{
    naive_joint_step, naive_step, reference_first_max, reference_select_joint, ToyFlatModel,
    ToyModel, ToySpace,
};

/// xorshift64*, seeded per case.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One score-magnitude regime, fixed per case so that values of one case
/// are comparable (ties and near-ties need a shared scale).
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// Multiples of ⅛ in [−8, 0]: every sum exact, many true ties.
    Dyadic,
    /// Arbitrary log-probability-like values in [−60, 0].
    Ordinary,
    /// Subnormal magnitudes.
    Subnormal,
    /// Finite magnitudes near 1e300.
    Huge,
    /// Finite magnitudes within 8× of `f64::MAX`: the selection cut is
    /// undefined, so the step folds the whole frontier. Never drawn at
    /// random; `near_max_frontiers_fold_every_state` runs it.
    NearMax,
}

impl Regime {
    fn draw(rng: &mut Rng) -> Self {
        match rng.below(4) {
            0 => Regime::Dyadic,
            1 => Regime::Ordinary,
            2 => Regime::Subnormal,
            _ => Regime::Huge,
        }
    }

    fn value(self, rng: &mut Rng) -> f64 {
        match self {
            Regime::Dyadic => -(rng.below(65) as f64) / 8.0,
            Regime::Ordinary => -60.0 * rng.unit(),
            Regime::Subnormal => -(rng.below(64) as f64) * 5e-324,
            Regime::Huge => -1e300 * (1.0 + rng.unit()),
            Regime::NearMax => -(f64::MAX / 8.0) * (1.0 + rng.unit()),
        }
    }
}

/// A frontier over `n` states: regime values with ties, near-ties below
/// the maximum, `−∞` entries and (`row`-wide) `−∞` rows.
fn frontier(rng: &mut Rng, regime: Regime, n: usize, row: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| regime.value(rng)).collect();
    for j in 0..n {
        match rng.below(10) {
            0 => v[j] = f64::NEG_INFINITY,
            1 => v[j] = v[rng.below(n)],
            _ => {}
        }
    }
    if rng.chance(3) {
        let r = rng.below(n.div_ceil(row));
        for x in v.iter_mut().skip(r * row).take(row) {
            *x = f64::NEG_INFINITY;
        }
    }
    // Near-ties: a few states a handful of ulps below the maximum.
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max.is_finite() {
        for _ in 0..rng.below(4) {
            let j = rng.below(n);
            let ulps = rng.below(8) as u64;
            v[j] = if max > 0.0 {
                f64::from_bits(max.to_bits().saturating_sub(ulps))
            } else if max == 0.0 {
                -(ulps as f64) * 5e-324
            } else {
                f64::from_bits(max.to_bits() + ulps)
            };
        }
    }
    v
}

fn assert_same_step(what: &str, naive: (&[f64], &[u32]), exact: (&[f64], &[u32])) {
    assert_eq!(naive.0.len(), exact.0.len(), "{what}: frontier length");
    for (j, (d, e)) in naive.0.iter().zip(exact.0).enumerate() {
        assert_eq!(
            d.to_bits(),
            e.to_bits(),
            "{what}: frontier bits of state {j}"
        );
    }
    assert_eq!(naive.1, exact.1, "{what}: backpointers");
}

// ---------------------------------------------------------------------
// Chain and NH kernels, through the toy models.
// ---------------------------------------------------------------------

/// A toy world: `n_groups` groups of 1–3 pair ids each.
fn toy_pairs(rng: &mut Rng) -> Vec<u32> {
    let n_groups = 1 + rng.below(4);
    let mut pair_group = Vec::new();
    for g in 0..n_groups {
        for _ in 0..1 + rng.below(3) {
            pair_group.push(g as u32);
        }
    }
    pair_group
}

/// A random group-major tick over the pairs (a single state one time in
/// six); duplicate pair ids exercise the slot fan-out.
fn toy_tick(rng: &mut Rng, pair_group: &[u32], regime: Regime) -> ToySpace {
    let n = if rng.chance(6) { 1 } else { 1 + rng.below(9) };
    let mut states: Vec<(u32, u32, f64)> = (0..n)
        .map(|_| {
            let pair = rng.below(pair_group.len()) as u32;
            let emission = if rng.chance(12) {
                f64::NEG_INFINITY
            } else {
                regime.value(rng)
            };
            (pair_group[pair as usize], pair, emission)
        })
        .collect();
    states.sort_by_key(|s| s.0);
    ToySpace::new(&states)
}

/// A transition score: mostly regime values, sometimes `−∞`.
fn toy_score(rng: &mut Rng, regime: Regime) -> f64 {
    if rng.chance(7) {
        f64::NEG_INFINITY
    } else {
        regime.value(rng)
    }
}

fn toy_model(rng: &mut Rng, pair_group: &[u32], regime: Regime) -> ToyModel {
    let n = pair_group.len();
    let n_groups = *pair_group.last().unwrap() as usize + 1;
    let mut model = ToyModel {
        prior: vec![0.0; n_groups],
        pair_group: pair_group.to_vec(),
        cont: (0..n)
            .map(|_| (0..n).map(|_| toy_score(rng, regime)).collect())
            .collect(),
        switch: (0..n)
            .map(|_| (0..n_groups).map(|_| toy_score(rng, regime)).collect())
            .collect(),
    };
    if rng.chance(3) {
        // A source pair with no finite outgoing transition.
        let q = rng.below(n);
        let g = pair_group[q] as usize;
        for d in 0..n {
            model.cont[d][q] = f64::NEG_INFINITY;
            if pair_group[d] as usize != g {
                model.switch[d][g] = f64::NEG_INFINITY;
            }
        }
    }
    model
}

/// The naive reference and the dominance-pruned exact step on one input;
/// returns the survivor count.
fn chain_case<M: ScoreModel>(
    what: &str,
    model: &M,
    dom: &Dominance,
    prev: &ToySpace,
    v: &[f64],
    cur: &ToySpace,
) -> usize {
    let (naive_v, naive_back) = naive_step(model, prev, v, None, cur);
    let mut arena = TrellisArena::new();
    let mut back = Vec::new();
    let survivors = step_into(model, dom, prev, v, cur, &mut arena, &mut back);
    let mut exact_v = Vec::new();
    arena.swap_frontier(&mut exact_v);
    assert_same_step(what, (&naive_v, &naive_back), (&exact_v, &back));
    survivors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The hierarchical chain kernel (continue rows plus group-level
    /// switch scores, the single-chain decoder's shape) and the
    /// switch-free NH shape, on the same random worlds, against the naive
    /// dense reference.
    #[test]
    fn chain_and_nh_steps_match_the_dense_kernel(seed in 0u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let regime = Regime::draw(&mut rng);
        let pair_group = toy_pairs(&mut rng);
        let model = toy_model(&mut rng, &pair_group, regime);
        let flat = ToyFlatModel { cont: model.cont.clone() };
        let prev = toy_tick(&mut rng, &pair_group, regime);
        let cur = toy_tick(&mut rng, &pair_group, regime);
        let row = 1 + rng.below(3);
        let v = frontier(&mut rng, regime, prev.len(), row);
        let what = format!("seed {seed} {regime:?}");
        chain_case(&format!("chain {what}"), &model, &model.dominance(), &prev, &v, &cur);
        chain_case(&format!("NH {what}"), &flat, &flat.dominance(), &prev, &v, &cur);
    }
}

/// The random worlds above exercise both sides of the selection: most
/// cases prune some states, and some fold the whole frontier (no finite
/// maximum, magnitudes near `f64::MAX`, or every state survives).
#[test]
fn random_cases_mostly_prune() {
    let (mut chain, mut joint) = (0, 0);
    let (mut chain_full, mut joint_full) = (0, 0);
    for seed in 0..400u64 {
        let mut rng = Rng::new(seed);
        let regime = Regime::draw(&mut rng);
        let pair_group = toy_pairs(&mut rng);
        let model = toy_model(&mut rng, &pair_group, regime);
        let prev = toy_tick(&mut rng, &pair_group, regime);
        let cur = toy_tick(&mut rng, &pair_group, regime);
        let row = 1 + rng.below(3);
        let v = frontier(&mut rng, regime, prev.len(), row);
        let survivors = chain_case("coverage", &model, &model.dominance(), &prev, &v, &cur);
        chain += usize::from(survivors < prev.len());
        chain_full += usize::from(survivors == prev.len());

        let mut rng = Rng::new(seed);
        let regime = Regime::draw(&mut rng);
        let p = joint_params(&mut rng);
        let prev = joint_tick(&mut rng, &p, regime);
        let cur = joint_tick(&mut rng, &p, regime);
        let k2 = slice_len(&p, &prev, 1);
        let v = frontier(&mut rng, regime, slice_len(&p, &prev, 0) * k2, k2);
        let step = joint_step(&p, &prev, &cur, &v).expect("valid ticks");
        let naive = naive_joint_step(&p, &prev, &cur, &v);
        assert_same_step(
            "coverage",
            (&naive.0, &naive.1),
            (&step.frontier, &step.back),
        );
        joint += usize::from(step.survivors < v.len());
        joint_full += usize::from(step.survivors == v.len());
    }
    assert!(
        chain >= 200 && joint >= 200,
        "pruned cases: chain {chain}, joint {joint} of 400"
    );
    assert!(
        chain_full > 0 && joint_full > 0,
        "whole-frontier cases: chain {chain_full}, joint {joint_full} of 400"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Magnitudes so close to `f64::MAX` that a kernel sum could overflow
    /// leave the selection cut undefined: the exact step keeps every state
    /// and still matches the naive reference, for every kernel.
    #[test]
    fn near_max_frontiers_fold_every_state(seed in 0u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let regime = Regime::NearMax;
        let pair_group = toy_pairs(&mut rng);
        let model = toy_model(&mut rng, &pair_group, regime);
        let flat = ToyFlatModel { cont: model.cont.clone() };
        let prev = toy_tick(&mut rng, &pair_group, regime);
        let cur = toy_tick(&mut rng, &pair_group, regime);
        let row = 1 + rng.below(3);
        let v = frontier(&mut rng, regime, prev.len(), row);
        for (what, survivors) in [
            ("chain", chain_case("chain", &model, &model.dominance(), &prev, &v, &cur)),
            ("NH", chain_case("NH", &flat, &flat.dominance(), &prev, &v, &cur)),
        ] {
            assert_eq!(survivors, prev.len(), "{what} seed {seed}");
        }

        let p = joint_params(&mut rng);
        let prev = joint_tick(&mut rng, &p, regime);
        let cur = joint_tick(&mut rng, &p, regime);
        let k2 = slice_len(&p, &prev, 1);
        let v = frontier(&mut rng, regime, slice_len(&p, &prev, 0) * k2, k2);
        let step = joint_step(&p, &prev, &cur, &v).expect("valid ticks");
        let naive = naive_joint_step(&p, &prev, &cur, &v);
        assert_same_step(
            &format!("joint seed {seed}"),
            (&naive.0, &naive.1),
            (&step.frontier, &step.back),
        );
        assert_eq!(step.survivors, v.len(), "joint seed {seed}");
    }
}

/// The slack covers the kernels' rounding: `1 − 2⁻⁵³` plus `1.0` rounds
/// to exactly `b`'s `1.0 + 1.0`, so the lower-index state ties `b` and
/// wins the first-argmax — though its exact bound `v + D` falls short of
/// `v(b)` by one ulp.
#[test]
fn rounding_ties_within_the_slack_keep_their_state() {
    let model = ToyFlatModel {
        cont: vec![vec![1.0]],
    };
    let prev = ToySpace::new(&[(0, 0, 0.0), (0, 0, 0.0)]);
    let cur = ToySpace::new(&[(0, 0, 0.0)]);
    let v = [1.0 - f64::EPSILON / 2.0, 1.0];
    let mut arena = TrellisArena::new();
    let mut back = Vec::new();
    step_into(
        &model,
        &model.dominance(),
        &prev,
        &v,
        &cur,
        &mut arena,
        &mut back,
    );
    assert_eq!(back, [0], "the rounded tie goes to the first source");
    assert_eq!(naive_step(&model, &prev, &v, None, &cur).1, back);
}

/// The run collapse is not a per-state scan: two sources of one switch run
/// one ulp apart round to the same sum with the switch constant, a tie
/// that a per-state scan would give to the first source. The run collapses
/// to its maximum first, so the backpointer names the later source.
#[test]
fn switch_run_rounding_ties_name_the_run_maximum() {
    // Pair 0 in group 0, pair 1 in group 1; group 0 → pair 1 scores 1.0.
    let model = ToyModel {
        prior: vec![0.0, 0.0],
        pair_group: vec![0, 1],
        cont: vec![vec![0.0, 0.0], vec![0.0, 0.0]],
        switch: vec![vec![0.0, 0.0], vec![1.0, 0.0]],
    };
    let prev = ToySpace::new(&[(0, 0, 0.0), (0, 0, 0.0)]);
    let cur = ToySpace::new(&[(1, 1, 0.0)]);
    let v = [1.0 - f64::EPSILON / 2.0, 1.0];
    assert_eq!(v[0] + 1.0, v[1] + 1.0, "the sums round equal");
    let mut arena = TrellisArena::new();
    let mut back = Vec::new();
    let survivors = step_into(
        &model,
        &model.dominance(),
        &prev,
        &v,
        &cur,
        &mut arena,
        &mut back,
    );
    assert_eq!(survivors, 2, "both sources are within the slack");
    assert_eq!(back, [1], "the run's maximum, not its first tie");
    assert_eq!(naive_step(&model, &prev, &v, None, &cur).1, back);
}

/// An all-zero model at a zero maximum has no slack: the exact ties at the
/// cut itself must survive (`≥`, not `>`).
#[test]
fn exact_ties_at_a_zero_cut_survive() {
    let model = ToyFlatModel {
        cont: vec![vec![0.0, 0.0], vec![0.0, 0.0]],
    };
    let prev = ToySpace::new(&[(0, 0, 0.0), (1, 1, 0.0), (1, 1, 0.0)]);
    let cur = ToySpace::new(&[(0, 0, 0.0), (1, 1, 0.0)]);
    let v = [-1.0, 0.0, 0.0];
    let mut arena = TrellisArena::new();
    let mut back = Vec::new();
    let survivors = step_into(
        &model,
        &model.dominance(),
        &prev,
        &v,
        &cur,
        &mut arena,
        &mut back,
    );
    assert_eq!(survivors, 2, "state 0 is dominated, the tied pair is not");
    assert_eq!(back, [1, 1]);
}

// ---------------------------------------------------------------------
// The joint kernel, through real parameter tables.
// ---------------------------------------------------------------------

/// A random normalized row of `n` entries (zeros allowed).
fn dist(rng: &mut Rng, n: usize, zeros: bool) -> Vec<f64> {
    let mut row: Vec<f64> = (0..n)
        .map(|_| {
            if zeros && rng.chance(3) {
                0.0
            } else {
                0.05 + rng.unit()
            }
        })
        .collect();
    if row.iter().all(|&x| x == 0.0) {
        row[0] = 1.0;
    }
    let total: f64 = row.iter().sum();
    row.iter_mut().for_each(|x| *x /= total);
    row
}

/// Random mined statistics: some activities end episodes never or always,
/// and some never switch to another activity — a `−∞` switch score, so
/// their pairs reach nothing outside their activity.
fn joint_params(rng: &mut Rng) -> HdbnParams {
    let n_macro = 1 + rng.below(4);
    let n_postural = 1 + rng.below(3);
    let (n_gestural, n_location) = (2, 1 + rng.below(3));
    let rows = |rng: &mut Rng, n: usize, m: usize, zeros: bool| -> Vec<Vec<f64>> {
        (0..n).map(|_| dist(rng, m, zeros)).collect()
    };
    let mut intra_trans = rows(rng, n_macro, n_macro, false);
    for (i, row) in intra_trans.iter_mut().enumerate() {
        if rng.chance(3) {
            row.iter_mut().for_each(|x| *x = 0.0);
            row[i] = 1.0;
        }
    }
    let stats = HierarchicalStats {
        n_macro,
        n_postural,
        n_gestural,
        n_location,
        macro_prior: dist(rng, n_macro, false),
        intra_trans,
        inter_cooc: rows(rng, n_macro, n_macro, true),
        end_prob: (0..n_macro)
            .map(|_| [0.0, 1.0, rng.unit()][rng.below(3)])
            .collect(),
        postural_given_macro: rows(rng, n_macro, n_postural, true),
        gestural_given_macro: rows(rng, n_macro, n_gestural, false),
        location_given_macro: rows(rng, n_macro, n_location, true),
        postural_trans: rows(rng, n_postural, n_postural, true),
    };
    let config = HdbnConfig {
        coupling_weight: [0.0, 1.0, 3.5][rng.below(3)],
        hierarchy_weight: [0.0, 1.0, 0.25][rng.below(3)],
        persistence_bonus: [0.0, 0.7, -2.0, 1e300, f64::NEG_INFINITY][rng.below(5)],
    };
    HdbnParams::new(stats, config).expect("random stats are normalized")
}

/// A random tick of the joint model: 1–3 candidates per user, macro
/// restrictions (a single macro one time in three, so slices of one
/// state occur), and observation scores from the case's regime.
fn joint_tick(rng: &mut Rng, p: &HdbnParams, regime: Regime) -> TickInput {
    let stats = &p.stats;
    let mut user = || {
        let cands: Vec<MicroCandidate> = (0..1 + rng.below(3))
            .map(|_| MicroCandidate {
                postural: rng.below(stats.n_postural),
                gestural: rng.chance(2).then(|| rng.below(stats.n_gestural)),
                location: rng.below(stats.n_location),
                obs_loglik: if rng.chance(10) {
                    f64::NEG_INFINITY
                } else {
                    regime.value(rng)
                },
            })
            .collect();
        let macros = match rng.below(3) {
            0 => None,
            1 => Some(vec![rng.below(stats.n_macro)]),
            _ => {
                let mut m: Vec<usize> = (0..stats.n_macro).filter(|_| rng.chance(2)).collect();
                if m.is_empty() {
                    m.push(0);
                }
                Some(m)
            }
        };
        (cands, macros)
    };
    let (c0, m0) = user();
    let (c1, m1) = user();
    TickInput {
        candidates: [c0, c1],
        macro_candidates: [m0, m1],
        macro_bonus: Vec::new(),
    }
}

/// Joint states of one user's slice for `tick`.
fn slice_len(p: &HdbnParams, tick: &TickInput, user: usize) -> usize {
    let macros = tick.macro_candidates[user]
        .as_ref()
        .map_or(p.n_macro(), Vec::len);
    macros * tick.candidates[user].len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The coupled joint kernel: two chains, `(v + f2) + f1`, with the
    /// per-run switch collapse in both passes, against the naive dense
    /// reference.
    #[test]
    fn joint_steps_match_the_dense_kernel(seed in 0u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let regime = Regime::draw(&mut rng);
        let p = joint_params(&mut rng);
        let prev = joint_tick(&mut rng, &p, regime);
        let cur = joint_tick(&mut rng, &p, regime);
        let k2 = slice_len(&p, &prev, 1);
        let v = frontier(&mut rng, regime, slice_len(&p, &prev, 0) * k2, k2);
        let step = joint_step(&p, &prev, &cur, &v).expect("valid ticks");
        let (naive_v, naive_back) = naive_joint_step(&p, &prev, &cur, &v);
        assert_same_step(
            &format!("joint seed {seed} {regime:?}"),
            (&naive_v, &naive_back),
            (&step.frontier, &step.back),
        );
    }
}

/// A destination no source reaches gets backpointer 0, even when dominance
/// prunes the frontier's first row away.
#[test]
fn unreachable_destinations_point_at_state_zero() {
    // Activity 0 never switches, so nothing in it reaches activity 1.
    let stats = HierarchicalStats {
        n_macro: 2,
        n_postural: 1,
        n_gestural: 1,
        n_location: 1,
        macro_prior: vec![0.5, 0.5],
        intra_trans: vec![vec![1.0, 0.0], vec![0.5, 0.5]],
        inter_cooc: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        end_prob: vec![0.1, 0.1],
        postural_given_macro: vec![vec![1.0], vec![1.0]],
        gestural_given_macro: vec![vec![1.0], vec![1.0]],
        location_given_macro: vec![vec![1.0], vec![1.0]],
        postural_trans: vec![vec![1.0]],
    };
    let p = HdbnParams::new(stats, HdbnConfig::default()).unwrap();
    let cand = |obs_loglik| MicroCandidate {
        postural: 0,
        gestural: None,
        location: 0,
        obs_loglik,
    };
    // Previous tick: chain 2 confined to activity 0; chain 1 has both.
    let prev = TickInput {
        candidates: [vec![cand(0.0)], vec![cand(0.0), cand(0.0)]],
        macro_candidates: [None, Some(vec![0])],
        macro_bonus: Vec::new(),
    };
    let cur = TickInput {
        candidates: [vec![cand(0.0)], vec![cand(0.0)]],
        macro_candidates: [None, None],
        macro_bonus: Vec::new(),
    };
    // Frontier rows j1 = 0 (activity 0) and 1 (activity 1); row 0 is −∞.
    let v = [f64::NEG_INFINITY, f64::NEG_INFINITY, -1.0, -30.0];
    let step = joint_step(&p, &prev, &cur, &v).unwrap();
    assert!(step.survivors < v.len(), "dominance prunes this frontier");
    let naive = naive_joint_step(&p, &prev, &cur, &v);
    assert_same_step(
        "unreachable",
        (&naive.0, &naive.1),
        (&step.frontier, &step.back),
    );
    // Joint destinations (a1, a2) in order; chain 2 cannot reach a2 = 1.
    for j in [1, 3] {
        assert_eq!(step.frontier[j], f64::NEG_INFINITY, "destination {j}");
        assert_eq!(step.back[j], 0, "destination {j}");
    }
}

// ---------------------------------------------------------------------
// The survivor-compacted window: after each step a stream keeps of the
// previous tick only the step's survivors, plus state 0 when a
// destination is unreachable, or every state when nothing was pruned.
// ---------------------------------------------------------------------

/// A two-activity world in which nothing ever switches activity, so an
/// activity a tick rules out is unreachable from every state of another.
fn frozen_activity_params() -> HdbnParams {
    let one = || vec![vec![1.0], vec![1.0]];
    let stats = HierarchicalStats {
        n_macro: 2,
        n_postural: 1,
        n_gestural: 1,
        n_location: 1,
        macro_prior: vec![0.5, 0.5],
        intra_trans: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        inter_cooc: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        end_prob: vec![0.1, 0.1],
        postural_given_macro: one(),
        gestural_given_macro: one(),
        location_given_macro: one(),
        postural_trans: vec![vec![1.0]],
    };
    HdbnParams::new(stats, HdbnConfig::default()).unwrap()
}

/// A one-candidate tick whose users may take the given activities.
fn frozen_tick(macros: [&[usize]; 2]) -> TickInput {
    let cand = MicroCandidate {
        postural: 0,
        gestural: None,
        location: 0,
        obs_loglik: -1.0,
    };
    TickInput {
        candidates: [vec![cand], vec![cand]],
        macro_candidates: macros.map(|m| Some(m.to_vec())),
        macro_bonus: Vec::new(),
    }
}

/// Tick 1's joint state 0, `(0, 0)`, scores `−∞` (user 1 came from
/// activity 1), so the step into tick 2 prunes it; but tick 2 confines
/// user 2 to activity 1, which nothing reaches, so every destination
/// points at state 0. From there the whole frontier is `−∞`, the final
/// argmax is the last state, and the path runs through the pruned state
/// 0 of tick 1: the compacted entry must keep it, and, holding only the
/// live tree, keeps nothing else. Tick 3's step folds the whole `−∞`
/// frontier, so its entry keeps every state, and every one of them points
/// at tick 2's state 0, the one state tick 2 keeps.
#[test]
fn compacted_window_keeps_state_zero_and_whole_frontier_steps() {
    let params = frozen_activity_params();
    let ticks = [
        frozen_tick([&[1], &[0]]),
        frozen_tick([&[0, 1], &[0]]),
        frozen_tick([&[0, 1], &[1]]),
        frozen_tick([&[0, 1], &[0, 1]]),
        frozen_tick([&[0, 1], &[0, 1]]),
    ];
    let model = CoupledHdbn::new(params.clone());
    let mut online = OnlineCoupledViterbi::new(model.clone(), HdbnLag::Unbounded);
    online.push(&ticks[0]).unwrap();
    online.push(&ticks[1]).unwrap();
    online.push(&ticks[2]).unwrap();
    assert_eq!(
        online.last_survivors(),
        Some(1),
        "state 0 of tick 1 is pruned"
    );
    assert_eq!(
        online.window_states()[1],
        [0],
        "tick 1 keeps state 0, which tick 2's backpointers name, and not its dead survivor"
    );
    online.push(&ticks[3]).unwrap();
    assert_eq!(
        online.last_survivors(),
        Some(2),
        "a −∞ frontier is folded whole"
    );
    assert_eq!(
        online.window_states()[2..],
        [vec![0], vec![0, 1, 2, 3]],
        "tick 3 keeps every state, and tick 2 the state they all name"
    );
    online.push(&ticks[4]).unwrap();
    let path = online.finalize().unwrap();
    let (macros, log_prob) = naive_coupled_viterbi(&params, &ticks);
    assert_eq!(path.macros, macros);
    assert_eq!(
        path.macros[0][1], 0,
        "the path runs through tick 1's state 0"
    );
    assert_eq!(path.log_prob.to_bits(), log_prob.to_bits());

    // Fixed lags emit through the same compacted entries, and a park at
    // every tick carries them.
    for lag in [0, 1, 2] {
        let mut online = OnlineCoupledViterbi::new(model.clone(), HdbnLag::Fixed(lag));
        let mut decisions = Vec::new();
        for tick in &ticks {
            let parked = online.park();
            online = OnlineCoupledViterbi::resume(model.clone(), HdbnLag::Fixed(lag), &parked)
                .expect("own park resumes");
            decisions.extend(online.push(tick).unwrap());
        }
        for d in &decisions {
            let (prefix, _) = naive_coupled_viterbi(&params, &ticks[..=d.tick + lag]);
            assert_eq!(
                d.macros,
                [prefix[0][d.tick], prefix[1][d.tick]],
                "lag {lag}"
            );
        }
        let committed = decisions.len();
        let tail = online.finalize().unwrap();
        let want = [0, 1].map(|u| macros[u][committed..].to_vec());
        assert_eq!(tail.macros, want, "lag {lag}");
    }
}

// ---------------------------------------------------------------------
// Efficacy: the decode-health gauge on CASAS-sized frontiers.
// ---------------------------------------------------------------------

/// On a small CASAS corpus the C2 steps fold at most 5% of the frontier —
/// a silent fall back to whole-frontier steps (say, a dominance table gone
/// all `+∞`) fails here. The gauge repeats exactly on a second stream.
#[test]
fn casas_steps_fold_a_small_fraction_of_the_frontier() {
    let cfg = CasasConfig {
        pairs: 2,
        sessions_per_pair: 2,
        ticks: 120,
        ..CasasConfig::default()
    };
    let (train, test) = train_test_split(generate_casas_dataset(&cfg, 5), 0.75);
    let engine = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
    let session = &test[0];
    let inputs = engine.tick_inputs(session);
    let gauge = |engine: &CaceEngine| {
        let mut stream = engine.stream(Lag::Fixed(10));
        let mut survivors = Vec::new();
        for tick in &session.ticks {
            stream.push(&tick.observed).unwrap();
            survivors.extend(stream.last_survivors());
        }
        let resumed = engine.resume(&stream.park()).unwrap();
        assert_eq!(resumed.last_survivors(), None, "the gauge is not parked");
        survivors
    };
    let survivors = gauge(&engine);
    assert_eq!(
        survivors.len(),
        session.len() - 1,
        "one step per push after the first"
    );
    let frontier: u64 = inputs[..inputs.len() - 1]
        .iter()
        .map(|i| i.joint_states(engine.n_macro()))
        .sum();
    let folded: u64 = survivors.iter().map(|&s| s as u64).sum();
    assert!(
        folded * 20 <= frontier,
        "steps folded {folded} of {frontier} frontier states (> 5%)"
    );
    assert_eq!(gauge(&engine), survivors, "the gauge repeats exactly");
}

// ---------------------------------------------------------------------
// The slot-factored joint frontier: its selection and maxima against the
// dense reference selection and scans.
// ---------------------------------------------------------------------

/// The factored frontier's first and last maximum against the dense
/// scans over its materialization: state index and score bits.
fn assert_same_maxima(what: &str, f: &JointFrontier) {
    let dense = f.to_dense();
    let bits = |(j, x): (usize, f64)| (j, x.to_bits());
    assert_eq!(
        bits(f.first_max()),
        bits(reference_first_max(&dense)),
        "{what}: first max"
    );
    assert_eq!(
        bits(Frontier::argmax(f)),
        bits(argmax(&dense)),
        "{what}: last max"
    );
}

/// One exact step out of the factored frontier `v`, held to the
/// references: the survivors to the dense reference selection over `v`'s
/// materialization, the new frontier and backpointers to the naive step,
/// and the new frontier's maxima to the dense scans.
fn factored_case(
    what: &str,
    p: &HdbnParams,
    prev: &TickInput,
    cur: &TickInput,
    v: &JointFrontier,
) -> JointStep {
    let dense = v.to_dense();
    let step = joint_step_from(p, prev, cur, v).expect("valid ticks");
    assert_eq!(
        step.kept,
        reference_select_joint(p, prev, &dense),
        "{what}: survivors"
    );
    assert_eq!(step.survivors, step.kept.len(), "{what}: survivor count");
    let (naive_v, naive_back) = naive_joint_step(p, prev, cur, &dense);
    assert_same_step(what, (&naive_v, &naive_back), (&step.frontier, &step.back));
    assert_same_maxima(&format!("{what}, next frontier"), &step.factored);
    step
}

/// Two chained steps of `ticks[0] → ticks[1] → ticks[2]` from the dense
/// frontier `v`: the first out of its trivial factorization (one slot per
/// state), the second out of the factored frontier the first wrote.
fn chained_case(what: &str, p: &HdbnParams, ticks: [&TickInput; 3], v: &[f64]) {
    let k = |u: usize| slice_len(p, ticks[0], u);
    let trivial = JointFrontier::from_dense(v, k(0), k(1)).expect("frontier fits the tick");
    assert_eq!(trivial.to_dense(), v, "{what}: trivial factorization");
    assert_same_maxima(&format!("{what}, trivial"), &trivial);
    let first = factored_case(&format!("{what}, step 1"), p, ticks[0], ticks[1], &trivial);
    factored_case(
        &format!("{what}, step 2"),
        p,
        ticks[1],
        ticks[2],
        &first.factored,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random joint worlds (duplicate posturals put several states in one
    /// slot pair), adversarial dense frontiers, then a second step out of
    /// the factored frontier the first step wrote.
    #[test]
    fn factored_selection_and_maxima_match_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let regime = Regime::draw(&mut rng);
        let p = joint_params(&mut rng);
        let ticks = [0; 3].map(|_| joint_tick(&mut rng, &p, regime));
        let k2 = slice_len(&p, &ticks[0], 1);
        let v = frontier(&mut rng, regime, slice_len(&p, &ticks[0], 0) * k2, k2);
        chained_case(
            &format!("seed {seed} {regime:?}"),
            &p,
            [&ticks[0], &ticks[1], &ticks[2]],
            &v,
        );
    }
}

/// Hand-shaped trivial-factorization inputs: exact ties across states,
/// `−∞` rows and whole `−∞` frontiers, signed zeros, magnitudes near
/// `f64::MAX`, and states whose bound lands on, just above and just below
/// the cut.
#[test]
fn factored_edge_frontiers_match_the_reference() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let p = joint_params(&mut rng);
        let ticks = [0; 3].map(|_| joint_tick(&mut rng, &p, Regime::Dyadic));
        let ticks = [&ticks[0], &ticks[1], &ticks[2]];
        let (k1, k2) = (slice_len(&p, ticks[0], 0), slice_len(&p, ticks[0], 1));
        let n = k1 * k2;
        let case =
            |name: &str, v: Vec<f64>| chained_case(&format!("seed {seed} {name}"), &p, ticks, &v);

        case("all tied", vec![-1.5; n]);
        case("all −∞", vec![f64::NEG_INFINITY; n]);
        let mut one = vec![f64::NEG_INFINITY; n];
        one[rng.below(n)] = -2.0;
        case("one finite state", one);
        let mut rows = vec![-0.5; n];
        rows[..k2].fill(f64::NEG_INFINITY);
        case("−∞ first row", rows);
        let zeros: Vec<f64> = (0..n).map(|_| [0.0, -0.0, -1.0][rng.below(3)]).collect();
        case("signed zeros", zeros);
        let near_max: Vec<f64> = (0..n).map(|_| Regime::NearMax.value(&mut rng)).collect();
        let step = joint_step(&p, ticks[0], ticks[1], &near_max).expect("valid ticks");
        assert_eq!(step.survivors, n, "seed {seed}: near-max keeps every state");
        case("near f64::MAX", near_max);

        // Bounds at the cut: state 0 holds the maximum, and every state of
        // its pair (same chain-1 and chain-2 pair ids, so `D₁ = D₂ = 0`)
        // scores on the cut, one ulp above or one ulp below it.
        let best = -3.0;
        let Some(cut) = p.tables.dominance().cut(best) else {
            continue;
        };
        let mut at_cut = vec![f64::NEG_INFINITY; n];
        at_cut[0] = best;
        for (j, x) in at_cut.iter_mut().enumerate().skip(1) {
            *x = match j % 3 {
                0 => cut,
                1 => f64::from_bits(cut.to_bits() - 1),
                _ => f64::from_bits(cut.to_bits() + 1),
            };
        }
        case("bounds at the cut", at_cut);
    }
}

/// CASAS step outputs: frontiers in the thousands of states over real
/// slot structure, stepped through the factored selection and held to
/// the dense references at every tick.
#[test]
fn casas_factored_steps_match_the_reference() {
    let cfg = CasasConfig {
        pairs: 2,
        sessions_per_pair: 2,
        ticks: 40,
        ..CasasConfig::default()
    };
    let (train, test) = train_test_split(generate_casas_dataset(&cfg, 5), 0.75);
    let engine = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
    let p = engine.hdbn_params();
    let inputs = engine.tick_inputs(&test[0]);
    let k = |u: usize| slice_len(p, &inputs[0], u);
    let start = vec![0.0; k(0) * k(1)];
    let mut v = JointFrontier::from_dense(&start, k(0), k(1)).unwrap();
    let mut largest = 0;
    for t in 1..inputs.len() {
        let step = factored_case(&format!("tick {t}"), p, &inputs[t - 1], &inputs[t], &v);
        largest = largest.max(step.frontier.len());
        v = step.factored;
    }
    assert!(largest >= 1000, "largest frontier {largest} states");
}

// ---------------------------------------------------------------------
// The row-bounded fold: a stream's step folds only the chain-1 rows of
// slot pairs its row bound cannot rule out.
// ---------------------------------------------------------------------

/// Four chained steps a stream serves out of an adversarial dense
/// frontier, row-bounded and over every row; returns both, after
/// checking the rows each folded.
fn served_and_full(seed: u64) -> (Vec<ServedStep>, Vec<ServedStep>) {
    let mut rng = Rng::new(seed);
    let regime = if rng.chance(8) {
        Regime::NearMax
    } else {
        Regime::draw(&mut rng)
    };
    let p = joint_params(&mut rng);
    let ticks: Vec<TickInput> = (0..5).map(|_| joint_tick(&mut rng, &p, regime)).collect();
    let (k1, k2) = (slice_len(&p, &ticks[0], 0), slice_len(&p, &ticks[0], 1));
    let v = frontier(&mut rng, regime, k1 * k2, k2);
    let start = JointFrontier::from_dense(&v, k1, k2).expect("frontier fits the tick");
    let served = serve_joint_steps(&p, &ticks, &start, false).expect("valid ticks");
    let full = serve_joint_steps(&p, &ticks, &start, true).expect("valid ticks");
    assert_eq!(served.len(), 4, "seed {seed}");
    for (t, (s, f)) in served.iter().zip(&full).enumerate() {
        assert_eq!(f.rows[0], f.rows[1], "seed {seed} step {t}: the full grid");
        assert!(
            s.rows[0] >= 1 && s.rows[0] <= s.rows[1] && s.rows[1] == f.rows[1],
            "seed {seed} step {t}: {:?} rows",
            s.rows
        );
    }
    (served, full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The row-bounded step decides what the step over every row decides,
    /// over chained steps out of adversarial frontiers (`−∞` rows, rounding
    /// ties inside the slack, near-`f64::MAX` frontiers where every row
    /// passes): the survivors and their score bits, the first maximum and
    /// the argmax, the backpointers of the survivors, the argmax and state
    /// 0, and the transition-op charge.
    #[test]
    fn row_bounded_steps_match_the_full_grid(seed in 0u64..u64::MAX) {
        let (served, full) = served_and_full(seed);
        for (t, (s, f)) in served.into_iter().zip(full).enumerate() {
            let s = ServedStep { rows: f.rows, ..s };
            prop_assert_eq!(s, f, "seed {} step {}", seed, t);
        }
    }
}

/// The random worlds above exercise the bound: at least one step in ten
/// leaves chain-1 rows out (110 of 800 when this was written; their
/// slices hold a few slots, so most rows can matter).
#[test]
fn row_bounded_steps_leave_rows_out() {
    let (mut steps, mut bounded) = (0, 0);
    for seed in 0..200u64 {
        let (served, _) = served_and_full(seed);
        steps += served.len();
        bounded += served.iter().filter(|s| s.rows[0] < s.rows[1]).count();
    }
    assert!(
        bounded * 10 >= steps,
        "{bounded} of {steps} steps left a row out"
    );
}
