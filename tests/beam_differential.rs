//! Differential suite for beam-pruned decoding: every pruned mode is held
//! against the exact decoder it approximates.
//!
//! The contracts, from strongest to loosest:
//!
//! 1. **Degenerate beams are bit-identical to `Beam::Exact`.** A `TopK(k)`
//!    with `k >=` the strategy's frontier bound, or a `LogThreshold` wide
//!    enough to keep everything, must reproduce the exact engine output
//!    *exactly* — macros, overhead accounting, every float — on all four
//!    strategies. (Exact itself being bit-identical to the pre-beam
//!    decoders is pinned by the unchanged equivalence suites and unit
//!    tests, which ran against the pre-beam decoders before this suite
//!    existed.)
//! 2. **`TopK` path log-likelihood is monotone non-decreasing in `k`**, and
//!    reaches the exact optimum at `k = |joint states|`.
//! 3. **Pruning never invents a better path**: every pruned decode scores
//!    at most the exact optimum (its path is a legal path of the exact
//!    model).
//! 4. **Macro accuracy under a production-sized beam stays within a
//!    stated bound of exact** on simulated sessions: ≤ 2 percentage points
//!    at 1/16th of the C2 frontier, ≤ 5 at 1/64th.

use proptest::prelude::*;

use cace::core::{CaceConfig, DecoderConfig, Strategy};
use cace::hdbn::{Beam, CoupledHdbn, SingleHdbn, TickInput};
use cace_testkit::{
    assert_recognitions_identical, engine_with, tiny_corpus, toy_glitchy_ticks, toy_obs_tick,
    toy_two_activity_params,
};

/// Toy tick stream with seed-controlled glitches — enough structure for
/// the decoder to smooth, enough noise that pruning decisions matter.
fn seeded_ticks(len: usize, seed: u64) -> Vec<TickInput> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|t| {
            let base = (t / 8) % 2;
            let flip = next() % 5 == 0;
            let strength = 0.25 + (next() % 100) as f64 / 25.0;
            toy_obs_tick(if flip { 1 - base } else { base }, strength)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Contract 1: degenerate beams == exact, bit for bit, on all four
    /// strategies, batch recognition end to end.
    #[test]
    fn degenerate_beams_are_bit_identical_to_exact(
        ticks in 45usize..70,
        seed in 0u64..1_000,
    ) {
        let (train, test) = tiny_corpus(4, ticks, seed);
        for strategy in Strategy::ALL {
            let exact_engine =
                engine_with(&train, &CaceConfig::default().with_strategy(strategy));
            let bound = exact_engine.frontier_bound();
            for decoder in [
                DecoderConfig::top_k(bound),
                DecoderConfig::top_k(usize::MAX),
                DecoderConfig::log_threshold(f64::INFINITY),
            ] {
                // Re-beam the trained engine: the decoder is decode-time
                // state, so no retraining (and the round-trip through
                // training with a decoder set is covered by
                // persistence_roundtrip.rs).
                let wide_engine = exact_engine.with_decoder(decoder);
                for (i, session) in test.iter().enumerate() {
                    let exact = exact_engine.recognize(session).expect("exact");
                    let wide = wide_engine.recognize(session).expect("degenerate beam");
                    assert_recognitions_identical(
                        &wide,
                        &exact,
                        &format!("{strategy} {decoder:?} session {i}"),
                    );
                }
            }
        }
    }

    /// Contracts 2 + 3 on the coupled decoder: log-likelihood is monotone
    /// non-decreasing along the full TopK ladder, never exceeds exact, and
    /// the full-width beam *is* exact (JointPath equality, floats and
    /// accounting included).
    #[test]
    fn top_k_log_likelihood_is_monotone_in_k(
        len in 24usize..60,
        seed in 0u64..10_000,
    ) {
        let ticks = seeded_ticks(len, seed);
        let exact = CoupledHdbn::new(toy_two_activity_params(true))
            .viterbi(&ticks)
            .expect("exact decode");
        // 2 macros × 2 candidates per chain → 16 joint states.
        let full_width = 16usize;
        let mut prev_lp = f64::NEG_INFINITY;
        for k in 1..=full_width {
            let pruned = CoupledHdbn::new(toy_two_activity_params(true))
                .with_decoder(DecoderConfig::top_k(k))
                .viterbi(&ticks)
                .expect("pruned decode");
            prop_assert!(
                pruned.log_prob >= prev_lp,
                "k={}: log_prob {} dropped below k-1's {}",
                k, pruned.log_prob, prev_lp
            );
            prop_assert!(
                pruned.log_prob <= exact.log_prob,
                "k={}: pruned {} beat exact {}",
                k, pruned.log_prob, exact.log_prob
            );
            if k == full_width {
                prop_assert_eq!(&pruned, &exact, "full-width TopK must equal exact");
            }
            prev_lp = pruned.log_prob;
        }
    }

    /// Contracts 2 + 3 on the single-chain decoder.
    #[test]
    fn single_chain_top_k_is_monotone_and_bounded_by_exact(
        len in 24usize..60,
        seed in 0u64..10_000,
    ) {
        let ticks = seeded_ticks(len, seed);
        for user in 0..2 {
            let exact = SingleHdbn::new(toy_two_activity_params(false))
                .viterbi(&ticks, user)
                .expect("exact decode");
            let mut prev_lp = f64::NEG_INFINITY;
            for k in 1..=4 {
                let pruned = SingleHdbn::new(toy_two_activity_params(false))
                    .with_decoder(DecoderConfig::top_k(k))
                    .viterbi(&ticks, user)
                    .expect("pruned decode");
                prop_assert!(pruned.log_prob >= prev_lp, "user {} k={}", user, k);
                prop_assert!(pruned.log_prob <= exact.log_prob, "user {} k={}", user, k);
                if k == 4 {
                    prop_assert_eq!(&pruned, &exact, "user {}: full width == exact", user);
                }
                prev_lp = pruned.log_prob;
            }
        }
    }

    /// A widening LogThreshold also never exceeds exact and reaches it
    /// once wide enough.
    #[test]
    fn log_threshold_converges_to_exact(
        len in 24usize..48,
        seed in 0u64..10_000,
    ) {
        let ticks = seeded_ticks(len, seed);
        let exact = CoupledHdbn::new(toy_two_activity_params(true))
            .viterbi(&ticks)
            .expect("exact decode");
        for d in [0.0, 1.0, 4.0, 16.0] {
            let pruned = CoupledHdbn::new(toy_two_activity_params(true))
                .with_decoder(DecoderConfig::log_threshold(d))
                .viterbi(&ticks)
                .expect("pruned decode");
            prop_assert!(pruned.log_prob <= exact.log_prob, "d={}", d);
        }
        let wide = CoupledHdbn::new(toy_two_activity_params(true))
            .with_decoder(DecoderConfig::log_threshold(1e6))
            .viterbi(&ticks)
            .expect("wide decode");
        prop_assert_eq!(&wide, &exact, "unbounded threshold == exact");
    }
}

/// Contract 4: pruned macro accuracy on full simulated sessions stays
/// within a stated bound of exact, while transition work drops by at least
/// the beam's share. Bounds: ≤ 2 pp at TopK(484) (1/16 of the 7744-state
/// C2 frontier), ≤ 5 pp at TopK(121) (1/64).
#[test]
fn pruned_macro_accuracy_stays_within_stated_bounds_of_exact() {
    let (train, test) = tiny_corpus(5, 120, 4242);
    let exact_engine = engine_with(&train, &CaceConfig::default());
    let bound = exact_engine.frontier_bound();
    for (divisor, max_loss) in [(16usize, 0.02f64), (64, 0.05)] {
        let k = (bound / divisor).max(1);
        let pruned_engine = exact_engine.with_decoder(DecoderConfig::top_k(k));
        for (i, session) in test.iter().enumerate() {
            let exact = exact_engine.recognize(session).expect("exact");
            let pruned = pruned_engine.recognize(session).expect("pruned");
            let (acc_e, acc_p) = (exact.accuracy(session), pruned.accuracy(session));
            assert!(
                acc_p >= acc_e - max_loss,
                "TopK({k}) session {i}: accuracy {acc_p} fell more than {max_loss} below exact {acc_e}"
            );
            assert!(
                pruned.transition_ops < exact.transition_ops,
                "TopK({k}) session {i}: pruning must cut transition work"
            );
        }
    }
}

/// The beam composes with macro-candidate restrictions (the correlation
/// pruner's output): a restricted + beamed decode still respects the
/// restriction.
#[test]
fn beam_respects_macro_candidate_restrictions() {
    let mut ticks = toy_glitchy_ticks(20);
    for tick in &mut ticks {
        tick.macro_candidates[0] = Some(vec![1]);
    }
    let path = CoupledHdbn::new(toy_two_activity_params(true))
        .with_decoder(DecoderConfig::top_k(2))
        .viterbi(&ticks)
        .expect("restricted + beamed decode");
    assert!(path.macros[0].iter().all(|&a| a == 1));
}

/// Beam selection edge cases at the decoder level: TopK(0) clamps to 1
/// and still decodes; a zero-width threshold is greedy filtering.
#[test]
fn extreme_beams_still_decode_whole_sessions() {
    let ticks = toy_glitchy_ticks(30);
    for beam in [Beam::TopK(0), Beam::TopK(1), Beam::LogThreshold(0.0)] {
        let path = CoupledHdbn::new(toy_two_activity_params(true))
            .with_decoder(DecoderConfig { beam })
            .viterbi(&ticks)
            .expect("extreme beam decode");
        assert_eq!(path.macros[0].len(), ticks.len(), "{beam:?}");
        assert!(path.log_prob.is_finite(), "{beam:?}");
    }
}
