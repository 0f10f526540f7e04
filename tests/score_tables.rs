//! Differential suite for the dense precomputed score tables and the
//! arena-based step kernels (PR 5).
//!
//! Contract: every decode path that now scores through
//! [`ScoreTables`](cace::hdbn::ScoreTables) — batch coupled, batch single,
//! streaming, forward–backward, and the EM expected counts — is
//! **bit-identical** to the naive reference implementations in
//! `cace_testkit::naive`, which score every edge directly through
//! `HdbnParams::transition_score` / `hierarchy_score` exactly as the
//! pre-table decoders did. The properties run over random mined
//! statistics, random tick streams (candidate restrictions, macro bonuses,
//! missing gesturals), and configuration extremes (`coupling_weight` /
//! `hierarchy_weight` at 0 and far above 1, persistence bonuses), plus an
//! engine-level sweep across the four strategies.

use proptest::prelude::*;

use cace::core::{CaceConfig, Strategy};
use cace::hdbn::{
    CoupledHdbn, HdbnConfig, HdbnParams, Lag, MicroCandidate, OnlineCoupledViterbi, SingleHdbn,
    TickInput,
};
use cace::mining::constraint::{ConstraintMiner, LabeledSequence};
use cace_testkit::naive::{
    naive_accumulate_counts, naive_coupled_viterbi, naive_forward_backward, naive_single_viterbi,
};
use cace_testkit::{engine_with, tiny_corpus};

/// Deterministic xorshift for data generation inside a property.
struct Rng(u64);
impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn f64(&mut self) -> f64 {
        (self.next() % 10_000) as f64 / 10_000.0
    }
}

/// Random mined statistics over a small random vocabulary.
fn random_params(rng: &mut Rng, config: HdbnConfig) -> HdbnParams {
    let n_macro = 2 + rng.below(2); // 2..=3
    let n_postural = 2 + rng.below(2);
    let n_gestural = 2;
    let n_location = 2 + rng.below(2);
    let len = 60 + rng.below(60);
    let mut seq = LabeledSequence::default();
    for u in 0..2 {
        let mut run = rng.below(n_macro);
        for t in 0..len {
            if t % (5 + rng.below(10)) == 0 {
                run = rng.below(n_macro);
            }
            seq.macros[u].push(run);
            seq.posturals[u].push(rng.below(n_postural));
            seq.gesturals[u].push(rng.below(n_gestural));
            seq.locations[u].push(rng.below(n_location));
        }
    }
    let stats = ConstraintMiner {
        laplace: 0.05 + rng.f64(),
        n_macro,
        n_postural,
        n_gestural,
        n_location,
    }
    .mine(&[seq])
    .expect("random stats mine");
    HdbnParams::new(stats, config).expect("random params build")
}

/// Random tick stream over the params' vocabulary: per-tick candidate
/// counts, observation scores, occasional macro restrictions and bonuses,
/// occasional missing gestural modality.
fn random_ticks(rng: &mut Rng, p: &HdbnParams, len: usize) -> Vec<TickInput> {
    let stats = &p.stats;
    let use_gestural = rng.below(2) == 0;
    (0..len)
        .map(|_| {
            let mut tick = TickInput::default();
            for u in 0..2 {
                let n_cand = 1 + rng.below(3);
                tick.candidates[u] = (0..n_cand)
                    .map(|_| MicroCandidate {
                        postural: rng.below(stats.n_postural),
                        gestural: if use_gestural {
                            Some(rng.below(stats.n_gestural))
                        } else {
                            None
                        },
                        location: rng.below(stats.n_location),
                        obs_loglik: -6.0 * rng.f64(),
                    })
                    .collect();
                if rng.below(4) == 0 {
                    // Random nonempty macro restriction.
                    let keep: Vec<usize> =
                        (0..stats.n_macro).filter(|_| rng.below(2) == 0).collect();
                    if !keep.is_empty() && keep.len() < stats.n_macro {
                        tick.macro_candidates[u] = Some(keep);
                    }
                }
            }
            if rng.below(3) == 0 {
                tick.macro_bonus = (0..stats.n_macro).map(|_| 2.0 * rng.f64() - 1.0).collect();
            }
            tick
        })
        .collect()
}

/// [`random_params`] with the Laplace mass injected instead of drawn, so
/// the degenerate-boundary properties can drive it toward zero.
fn random_params_with_laplace(rng: &mut Rng, config: HdbnConfig, laplace: f64) -> HdbnParams {
    let n_macro = 2 + rng.below(2); // 2..=3
    let n_postural = 2 + rng.below(2);
    let n_gestural = 2;
    let n_location = 2 + rng.below(2);
    let len = 60 + rng.below(60);
    let mut seq = LabeledSequence::default();
    for u in 0..2 {
        let mut run = rng.below(n_macro);
        for t in 0..len {
            if t % (5 + rng.below(10)) == 0 {
                run = rng.below(n_macro);
            }
            seq.macros[u].push(run);
            seq.posturals[u].push(rng.below(n_postural));
            seq.gesturals[u].push(rng.below(n_gestural));
            seq.locations[u].push(rng.below(n_location));
        }
    }
    let stats = ConstraintMiner {
        laplace,
        n_macro,
        n_postural,
        n_gestural,
        n_location,
    }
    .mine(&[seq])
    .expect("random stats mine");
    HdbnParams::new(stats, config).expect("random params build")
}

/// [`random_ticks`] without macro restrictions or bonuses.
fn random_unrestricted_ticks(rng: &mut Rng, p: &HdbnParams, len: usize) -> Vec<TickInput> {
    let stats = &p.stats;
    let use_gestural = rng.below(2) == 0;
    (0..len)
        .map(|_| {
            let mut tick = TickInput::default();
            for u in 0..2 {
                let n_cand = 1 + rng.below(3);
                tick.candidates[u] = (0..n_cand)
                    .map(|_| MicroCandidate {
                        postural: rng.below(stats.n_postural),
                        gestural: if use_gestural {
                            Some(rng.below(stats.n_gestural))
                        } else {
                            None
                        },
                        location: rng.below(stats.n_location),
                        obs_loglik: -6.0 * rng.f64(),
                    })
                    .collect();
            }
            tick
        })
        .collect()
}

/// The configuration extremes the tables must be built correctly under.
fn configs() -> Vec<HdbnConfig> {
    vec![
        HdbnConfig::default(),
        HdbnConfig::uncoupled(),
        HdbnConfig {
            coupling_weight: 4.0,
            hierarchy_weight: 0.0,
            persistence_bonus: 0.0,
        },
        HdbnConfig {
            coupling_weight: 0.0,
            hierarchy_weight: 3.0,
            persistence_bonus: 0.9,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Primitive contract: every dense-table entry is a bitwise copy of
    /// the naive scorer it was built from, across config extremes.
    #[test]
    fn table_entries_are_bitwise_copies_of_direct_scoring(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        for config in configs() {
            let p = random_params(&mut rng, config);
            let t = &p.tables;
            let stats = &p.stats;
            for ap in 0..stats.n_macro {
                for pp in 0..stats.n_postural {
                    for a in 0..stats.n_macro {
                        for pn in 0..stats.n_postural {
                            let naive = p.transition_score(ap, pp, a, pn);
                            let fast = t.transition(t.pair(ap, pp), t.pair(a, pn));
                            prop_assert_eq!(fast.to_bits(), naive.to_bits());
                        }
                    }
                }
            }
            for a1 in 0..stats.n_macro {
                for a2 in 0..stats.n_macro {
                    prop_assert_eq!(
                        t.coupling(a1, a2).to_bits(),
                        p.coupling_score(a1, a2).to_bits()
                    );
                }
            }
            for a in 0..stats.n_macro {
                for post in 0..stats.n_postural {
                    for loc in 0..stats.n_location {
                        prop_assert_eq!(
                            t.hierarchy(a, post, None, loc).to_bits(),
                            p.hierarchy_score(a, post, None, loc).to_bits()
                        );
                        for g in 0..stats.n_gestural {
                            prop_assert_eq!(
                                t.hierarchy(a, post, Some(g), loc).to_bits(),
                                p.hierarchy_score(a, post, Some(g), loc).to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Decode contract, batch: the table-scored exact decoders reproduce
    /// the naive references float for float — coupled and single chains.
    #[test]
    fn batch_decodes_match_naive_scoring_bit_for_bit(
        seed in 0u64..10_000,
        len in 8usize..40,
    ) {
        let mut rng = Rng::new(seed);
        for config in configs() {
            let p = random_params(&mut rng, config);
            let ticks = random_ticks(&mut rng, &p, len);

            let (naive_macros, naive_lp) = naive_coupled_viterbi(&p, &ticks);
            let fast = CoupledHdbn::new(p.clone()).viterbi(&ticks).expect("decode");
            prop_assert_eq!(&fast.macros, &naive_macros, "coupled macros");
            prop_assert_eq!(fast.log_prob.to_bits(), naive_lp.to_bits(), "coupled log_prob");

            let single = SingleHdbn::new(p.clone());
            for user in 0..2 {
                let (nm, nlp) = naive_single_viterbi(&p, &ticks, user);
                let sp = single.viterbi(&ticks, user).expect("single decode");
                prop_assert_eq!(&sp.macros, &nm, "single macros user {}", user);
                prop_assert_eq!(sp.log_prob.to_bits(), nlp.to_bits(), "single log_prob");
            }
        }
    }

    /// Decode contract, streaming: the arena-pooled online coupled decoder
    /// at unbounded lag reproduces the naive reference too (so pooling the
    /// window entries changed no arithmetic).
    #[test]
    fn streaming_decode_matches_naive_scoring(
        seed in 0u64..10_000,
        len in 8usize..30,
    ) {
        let mut rng = Rng::new(seed);
        for config in configs() {
            let p = random_params(&mut rng, config);
            let ticks = random_ticks(&mut rng, &p, len);
            let (naive_macros, naive_lp) = naive_coupled_viterbi(&p, &ticks);
            let mut online = OnlineCoupledViterbi::new(CoupledHdbn::new(p), Lag::Unbounded);
            for tick in &ticks {
                online.push(tick).expect("push");
            }
            let path = online.finalize().expect("finalize");
            prop_assert_eq!(&path.macros, &naive_macros);
            prop_assert_eq!(path.log_prob.to_bits(), naive_lp.to_bits());
        }
    }

    /// Inference contract: forward–backward posteriors and the EM expected
    /// counts — the sum-based paths — are bitwise unchanged by table
    /// scoring and the hoisted term buffers.
    #[test]
    fn posteriors_and_em_counts_match_naive_scoring(
        seed in 0u64..10_000,
        len in 6usize..25,
    ) {
        let mut rng = Rng::new(seed);
        for config in configs() {
            let p = random_params(&mut rng, config);
            let ticks = random_ticks(&mut rng, &p, len);
            let stats = &p.stats;
            let model = SingleHdbn::new(p.clone());
            for user in 0..2 {
                let (naive_gamma, naive_ll) = naive_forward_backward(&p, &ticks, user);
                let post = model.forward_backward(&ticks, user).expect("fb");
                prop_assert_eq!(post.log_likelihood.to_bits(), naive_ll.to_bits());
                prop_assert_eq!(post.gamma.len(), naive_gamma.len());
                for (g_fast, g_naive) in post.gamma.iter().zip(&naive_gamma) {
                    for (a, b) in g_fast.iter().zip(g_naive) {
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "gamma entry");
                    }
                }

                let zeros = || cace::hdbn::single::ExpectedCounts::zeros(
                    stats.n_macro,
                    stats.n_postural,
                    stats.n_gestural,
                    stats.n_location,
                );
                let mut fast_counts = zeros();
                model
                    .accumulate_counts(&ticks, user, &mut fast_counts)
                    .expect("counts");
                let mut naive_counts = zeros();
                naive_accumulate_counts(&p, &ticks, user, &mut naive_counts);
                prop_assert_eq!(&fast_counts, &naive_counts, "expected counts user {}", user);
            }
        }
    }

    /// Engine-level contract across strategies: the engine's decode over
    /// its own prepared state spaces equals the naive reference on the
    /// same inputs (C2/NCS coupled, NCR per-chain); NH's flat table is
    /// covered by its own unit differential in `cace-core`. All four
    /// strategies run end to end.
    #[test]
    fn engine_recognition_matches_naive_reference_decoders(
        seed in 0u64..1_000,
        ticks in 45usize..60,
    ) {
        let (train, test) = tiny_corpus(3, ticks, seed);
        for strategy in Strategy::ALL {
            let engine = engine_with(&train, &CaceConfig::default().with_strategy(strategy));
            let session = &test[0];
            let rec = engine.recognize(session).expect("recognize");
            prop_assert_eq!(rec.macros[0].len(), session.len());
            let inputs = engine.tick_inputs(session);
            let params = engine.hdbn_params().as_ref();
            match strategy {
                Strategy::NaiveConstraint | Strategy::CorrelationConstraint => {
                    let (naive_macros, _) = naive_coupled_viterbi(params, &inputs);
                    prop_assert_eq!(&rec.macros, &naive_macros, "{} macros", strategy);
                }
                Strategy::NaiveCorrelation => {
                    for user in 0..2 {
                        let (naive_macros, _) = naive_single_viterbi(params, &inputs, user);
                        prop_assert_eq!(&rec.macros[user], &naive_macros, "{} macros", strategy);
                    }
                }
                Strategy::NaiveHmm => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The two properties below keep the names they had when they also
    // checked a reduced-precision `f32` lane: the proptest runner seeds
    // each property from its name, so the names pin their inputs.

    /// Degenerate-boundary contract: with the Laplace mass driven down to
    /// the `f64` subnormal regime, rarely-taken `log_end` / `log_switch`
    /// boundaries bottom out near `ln(5e-324) ≈ −744.4`. The decode must
    /// still end in a finite log-probability.
    #[test]
    fn clamped_end_boundaries_stay_finite_in_both_lanes(
        seed in 0u64..10_000,
        len in 8usize..24,
    ) {
        let mut rng = Rng::new(seed);
        for laplace in [1e-9, 1e-30, 1e-300, 5e-324] {
            let p = random_params_with_laplace(&mut rng, HdbnConfig::default(), laplace);
            let ticks = random_unrestricted_ticks(&mut rng, &p, len);
            let exact = CoupledHdbn::new(p)
                .viterbi(&ticks)
                .expect("exact decode");
            prop_assert!(
                exact.log_prob.is_finite(),
                "f64 log_prob {} at laplace {laplace:e}", exact.log_prob
            );
        }
    }

    /// The log of every probability down to the smallest positive `f64`
    /// subnormal is a finite score.
    #[test]
    fn subnormal_probabilities_round_trip_without_flushing(
        exp in 1u32..1074, // 2^-1074 is the smallest positive subnormal
    ) {
        // Split the exponent so neither factor leaves normal f64 range
        // (2^-1073 computed in one powi goes through 2^1073 = inf → 0);
        // the product is a power of two, hence exact down to 2^-1074.
        let half = (exp / 2) as i32;
        let prob = 2f64.powi(-half) * 2f64.powi(half - exp as i32);
        prop_assert!(prob > 0.0);
        let log64 = prob.ln();
        prop_assert!(log64.is_finite());
    }
}

/// Engine-level accounting contract, recomputed from the engine's own
/// prepared inputs with no decoder: `states_explored` sums each tick's
/// state count, `transition_ops` charges each step by the input sizes
/// (`k1·k2·(m1+m2)` for the coupled strategies, `|S(t−1)|·|S(t)|` per
/// chain for NH, `⌊√J(t−1)⌋·⌊√J(t)⌋` per user for NCR, where `J` is the
/// tick's joint state count), and the strategies without correlation
/// pruning report the mean joint state count as their joint size. The
/// decoded macros match the naive references, as above.
#[test]
fn engine_accounting_matches_the_input_sizes() {
    for seed in [3, 4] {
        let (train, test) = tiny_corpus(3, 50, seed);
        for strategy in Strategy::ALL {
            let engine = engine_with(&train, &CaceConfig::default().with_strategy(strategy));
            let session = &test[0];
            let rec = engine.recognize(session).expect("recognize");
            let inputs = engine.tick_inputs(session);
            let params = engine.hdbn_params().as_ref();
            let n_macro = engine.n_macro();
            let label = format!("{strategy} seed {seed}");
            // Per tick and user: (allowed macros, candidates).
            let dims = |t: &TickInput, u: usize| -> (u64, u64) {
                let macros = t.macro_candidates[u].as_ref().map_or(n_macro, |m| m.len());
                (macros as u64, t.candidates[u].len() as u64)
            };
            let chain = |t: &TickInput, u: usize| {
                let (m, c) = dims(t, u);
                m * c
            };
            let (states, ops): (u64, u64) = match strategy {
                Strategy::NaiveConstraint | Strategy::CorrelationConstraint => {
                    let (naive_macros, _) = naive_coupled_viterbi(params, &inputs);
                    assert_eq!(rec.macros, naive_macros, "{label}");
                    let joint = |t: &TickInput| (chain(t, 0), chain(t, 1));
                    let states = inputs.iter().map(|t| chain(t, 0) * chain(t, 1)).sum();
                    let ops = inputs
                        .windows(2)
                        .map(|w| {
                            let ((k1, k2), (m1, m2)) = (joint(&w[0]), joint(&w[1]));
                            k1 * k2 * (m1 + m2)
                        })
                        .sum();
                    (states, ops)
                }
                Strategy::NaiveCorrelation => {
                    for user in 0..2 {
                        let (naive_macros, _) = naive_single_viterbi(params, &inputs, user);
                        assert_eq!(rec.macros[user], naive_macros, "{label}");
                    }
                    let root = |t: &TickInput| (t.joint_states(n_macro) as f64).sqrt() as u64;
                    let states = inputs.iter().map(|t| chain(t, 0) + chain(t, 1)).sum();
                    let ops: u64 = inputs.windows(2).map(|w| root(&w[0]) * root(&w[1])).sum();
                    (states, 2 * ops)
                }
                Strategy::NaiveHmm => {
                    // NH ignores macro restrictions: every macro × candidate.
                    let flat = |t: &TickInput, u: usize| n_macro as u64 * dims(t, u).1;
                    let states = inputs.iter().map(|t| flat(t, 0) + flat(t, 1)).sum();
                    let ops = inputs
                        .windows(2)
                        .map(|w| (0..2).map(|u| flat(&w[0], u) * flat(&w[1], u)).sum::<u64>())
                        .sum();
                    (states, ops)
                }
            };
            assert_eq!(rec.states_explored, states, "{label}");
            assert_eq!(rec.transition_ops, ops, "{label}");
            if !strategy.uses_correlation_pruning() {
                let sizes: f64 = inputs.iter().map(|t| t.joint_states(n_macro) as f64).sum();
                assert_eq!(rec.mean_joint_size, sizes / inputs.len() as f64, "{label}");
            }
        }
    }
}
