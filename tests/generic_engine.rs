//! Property tests pinning the generic trellis engine to a hand-rolled
//! naive reference ([`cace_testkit::toy`]).
//!
//! Scenarios draw every score from the dyadic lattice (multiples of ⅛ in
//! `[-32, 32]`), so all sums along a path are exactly representable in
//! `f64`: agreement is asserted *bitwise*, and equal-score collisions are
//! true ties exercising the strict-`>` first-argmax and run-max
//! memoization contracts rather than float noise.

use proptest::prelude::*;

use cace::hdbn::trellis::{init_into, step_pruned_into};
use cace::hdbn::{ScoreModel, StateSpace, TrellisArena};
use cace_testkit::toy::{
    engine_decode, naive_decode, naive_init, naive_step, ToyFlatModel, ToyModel, ToySpace,
};

/// A generated model + tick sequence + per-tick survivor masks.
#[derive(Debug, Clone)]
struct Scenario {
    pair_group: Vec<u32>,
    prior: Vec<f64>,
    cont: Vec<Vec<f64>>,
    switch: Vec<Vec<f64>>,
    ticks: Vec<Vec<(u32, u32, f64)>>,
    masks: Vec<u64>,
}

fn dyadic() -> impl Strategy<Value = f64> {
    (-256i32..257).prop_map(|k| f64::from(k) / 8.0)
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (1usize..4, 1usize..5, 2usize..6).prop_flat_map(|(n_groups, n_pairs, n_ticks)| {
        (
            proptest::collection::vec(0..n_groups as u32, n_pairs),
            proptest::collection::vec(dyadic(), n_groups),
            proptest::collection::vec(proptest::collection::vec(dyadic(), n_pairs), n_pairs),
            proptest::collection::vec(proptest::collection::vec(dyadic(), n_groups), n_pairs),
            proptest::collection::vec(
                proptest::collection::vec((0usize..3, dyadic(), dyadic()), n_pairs),
                n_ticks,
            ),
            proptest::collection::vec(0u64..u64::MAX, n_ticks),
        )
            .prop_map(move |(pair_group, prior, cont, switch, mults, masks)| {
                // Group-major by construction: groups ascending, each
                // pair contributing 0..=2 states to its own group.
                let ticks: Vec<Vec<(u32, u32, f64)>> = mults
                    .iter()
                    .map(|tick| {
                        let mut states = Vec::new();
                        for g in 0..n_groups as u32 {
                            for (p, &(mult, e1, e2)) in tick.iter().enumerate() {
                                if pair_group[p] != g {
                                    continue;
                                }
                                for &e in [e1, e2].iter().take(mult) {
                                    states.push((g, p as u32, e));
                                }
                            }
                        }
                        if states.is_empty() {
                            states.push((pair_group[0], 0, 0.0));
                        }
                        states
                    })
                    .collect();
                Scenario {
                    pair_group,
                    prior,
                    cont,
                    switch,
                    ticks,
                    masks,
                }
            })
    })
}

fn build(sc: &Scenario) -> (ToyModel, ToyFlatModel, Vec<ToySpace>, Vec<Vec<u32>>) {
    let model = ToyModel {
        prior: sc.prior.clone(),
        pair_group: sc.pair_group.clone(),
        cont: sc.cont.clone(),
        switch: sc.switch.clone(),
    };
    let flat = ToyFlatModel {
        cont: sc.cont.clone(),
    };
    let spaces: Vec<ToySpace> = sc.ticks.iter().map(|t| ToySpace::new(t)).collect();
    // Ascending nonempty survivor sets, one per tick, drawn from the mask
    // bits (state counts never exceed 64 here).
    let keeps: Vec<Vec<u32>> = spaces
        .iter()
        .zip(&sc.masks)
        .map(|(sp, &m)| {
            let mut keep: Vec<u32> = (0..sp.len() as u32)
                .filter(|&j| (m >> j) & 1 == 1)
                .collect();
            if keep.is_empty() {
                keep.push(0);
            }
            keep
        })
        .collect();
    (model, flat, spaces, keeps)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Drives the generic kernel tick by tick against [`naive_step`],
/// asserting bitwise-equal frontiers and equal backpointers. `keeps`
/// gives each step's survivor list; `None` folds the whole frontier.
fn check_steps<M: ScoreModel>(model: &M, spaces: &[ToySpace], keeps: Option<&[Vec<u32>]>) {
    let mut v = Vec::new();
    init_into(model, &spaces[0], &mut v);
    assert_eq!(bits(&v), bits(&naive_init(model, &spaces[0])));
    let mut step = TrellisArena::new();
    for t in 1..spaces.len() {
        let keep = keeps.map(|k| k[t - 1].as_slice());
        let every: Vec<u32> = (0..spaces[t - 1].len() as u32).collect();
        let mut back = Vec::new();
        step_pruned_into(
            model,
            &spaces[t - 1],
            &v,
            keep.unwrap_or(&every),
            &spaces[t],
            &mut step,
            &mut back,
        );
        let mut next = Vec::new();
        step.swap_frontier(&mut next);
        let (want_v, want_back) = naive_step(model, &spaces[t - 1], &v, keep, &spaces[t]);
        assert_eq!(bits(&next), bits(&want_v), "frontier diverged at tick {t}");
        assert_eq!(back, want_back, "backpointers diverged at tick {t}");
        v = next;
    }
}

proptest! {
    #[test]
    fn dense_step_matches_naive_reference(sc in arb_scenario()) {
        let (model, flat, spaces, _) = build(&sc);
        check_steps(&model, &spaces, None);
        check_steps(&flat, &spaces, None);
    }

    #[test]
    fn pruned_step_matches_naive_reference(sc in arb_scenario()) {
        let (model, flat, spaces, keeps) = build(&sc);
        check_steps(&model, &spaces, Some(&keeps));
        check_steps(&flat, &spaces, Some(&keeps));
    }

    #[test]
    fn multi_tick_decode_matches_naive_reference(sc in arb_scenario()) {
        let (model, flat, spaces, _) = build(&sc);
        prop_assert_eq!(engine_decode(&model, &spaces), naive_decode(&model, &spaces));
        prop_assert_eq!(engine_decode(&flat, &spaces), naive_decode(&flat, &spaces));
    }
}
