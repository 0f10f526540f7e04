//! Streaming recognition must be a faithful online rendition of the batch
//! engine: with a lag covering the whole session, `StreamingRecognizer` is
//! bit-identical to `CaceEngine::recognize` — decoded macros *and* the
//! deterministic overhead accounting — for every pruning strategy (both
//! paths advance the frontier through the same shared step kernels).

use proptest::prelude::*;

use cace::behavior::Session;
use cace::core::{stream_session, CaceConfig, Lag, Strategy};
use cace_testkit::{
    assert_recognitions_identical, dominance_pruned_steps, engine, engine_with,
    stream_session_with_parks, tiny_corpus,
};

fn corpus(ticks: usize, seed: u64) -> (Vec<Session>, Vec<Session>) {
    tiny_corpus(4, ticks, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random session shapes × all four strategies: an unbounded-lag
    /// stream reproduces batch recognition bit for bit.
    #[test]
    fn streamed_equals_batch_across_strategies(
        ticks in 45usize..80,
        seed in 0u64..1_000,
    ) {
        let (train, test) = corpus(ticks, seed);
        for strategy in Strategy::ALL {
            let engine = engine(&train, strategy);
            for session in &test {
                let batch = engine.recognize(session).expect("batch recognition");
                let (decisions, streamed) =
                    stream_session(&engine, session, Lag::Unbounded).expect("streamed recognition");
                prop_assert!(decisions.is_empty(), "{strategy}: unbounded lag never emits");
                assert_recognitions_identical(&streamed, &batch, strategy.label());
            }
        }
    }

    /// The same equivalence with dominance pruning witnessed: across
    /// candidate-beam widths, every strategy's stream folds a strict subset
    /// of some frontier, and still reproduces batch bit for bit.
    #[test]
    fn pruned_streamed_equals_pruned_batch_across_strategies(
        ticks in 45usize..70,
        seed in 0u64..1_000,
        beam_case in 0u8..3,
    ) {
        let beam = match beam_case {
            0 => 2,
            1 => 6,
            _ => 12,
        };
        let (train, test) = corpus(ticks, seed);
        for strategy in Strategy::ALL {
            let config = CaceConfig {
                beam,
                ..CaceConfig::default()
            }
            .with_strategy(strategy);
            let engine = engine_with(&train, &config);
            let mut pruned = 0;
            for session in &test {
                pruned += dominance_pruned_steps(&engine, session).0;
                let batch = engine.recognize(session).expect("pruned batch");
                let (decisions, streamed) =
                    stream_session(&engine, session, Lag::Unbounded).expect("pruned stream");
                prop_assert!(decisions.is_empty());
                assert_recognitions_identical(
                    &streamed,
                    &batch,
                    &format!("{strategy} beam {beam}"),
                );
            }
            prop_assert!(pruned > 0, "{} beam {}: no step pruned", strategy, beam);
        }
    }

    /// Park/resume differential: interrupting the stream with a
    /// park → serialize → rehydrate cycle before *every single* tick (and
    /// once more before finalization) changes nothing — the decision
    /// schedule and the final recognition, overhead counters included, are
    /// bit-identical to the uninterrupted stream. Covers all four
    /// strategies.
    #[test]
    fn park_resume_at_every_tick_is_bit_identical(
        ticks in 40usize..60,
        seed in 0u64..1_000,
    ) {
        let (train, test) = corpus(ticks, seed);
        let lag = Lag::Fixed(7);
        for strategy in Strategy::ALL {
            let config = CaceConfig::default().with_strategy(strategy);
            let engine = engine_with(&train, &config);
            for session in &test {
                let (want_decisions, want) =
                    stream_session(&engine, session, lag).expect("uninterrupted stream");
                let every_tick: Vec<usize> = (0..=session.len()).collect();
                let (got_decisions, got) =
                    stream_session_with_parks(&engine, session, lag, &every_tick);
                prop_assert_eq!(
                    &got_decisions,
                    &want_decisions,
                    "{}: parked decision schedule diverged",
                    strategy
                );
                assert_recognitions_identical(
                    &got,
                    &want,
                    &format!("{strategy} parked at every tick"),
                );
            }
        }
    }
}

#[test]
fn single_park_at_each_position_matches_the_uninterrupted_stream() {
    // The proptest above chains a park cycle before every tick; this test
    // isolates each position instead — one park per run — so a defect that
    // only corrupts state several ticks *after* a resume still pins the
    // exact park position that planted it.
    let (train, test) = corpus(40, 3);
    let lag = Lag::Fixed(7);
    for strategy in Strategy::ALL {
        let engine = engine(&train, strategy);
        let session = &test[0];
        let (want_decisions, want) =
            stream_session(&engine, session, lag).expect("uninterrupted stream");
        for park_at in 0..=session.len() {
            let (got_decisions, got) = stream_session_with_parks(&engine, session, lag, &[park_at]);
            assert_eq!(
                got_decisions, want_decisions,
                "{strategy}: decisions diverged after a park at tick {park_at}"
            );
            assert_recognitions_identical(
                &got,
                &want,
                &format!("{strategy} single park at {park_at}"),
            );
        }
    }
}

#[test]
fn park_resume_composes_with_unbounded_lag_and_batch() {
    // Unbounded lag defers every decision to finalization, so the whole
    // trellis survives the park cycles; the resumed stream must still land
    // exactly on the batch answer.
    let (train, test) = corpus(50, 21);
    for strategy in Strategy::ALL {
        let engine = engine(&train, strategy);
        let session = &test[0];
        let batch = engine.recognize(session).expect("batch recognition");
        let every_tick: Vec<usize> = (0..=session.len()).collect();
        let (decisions, streamed) =
            stream_session_with_parks(&engine, session, Lag::Unbounded, &every_tick);
        assert!(
            decisions.is_empty(),
            "{strategy}: unbounded lag never emits"
        );
        assert_recognitions_identical(&streamed, &batch, strategy.label());
    }
}

#[test]
fn finite_lag_covering_the_session_is_also_bit_identical() {
    let (train, test) = corpus(70, 42);
    for strategy in Strategy::ALL {
        let engine = engine(&train, strategy);
        let session = &test[0];
        let batch = engine.recognize(session).expect("batch recognition");
        // lag == session length: no decision ever ripens mid-stream, so the
        // decode is the full-trellis backtrack — identical to batch.
        let (decisions, streamed) = stream_session(&engine, session, Lag::Fixed(session.len()))
            .expect("streamed recognition");
        assert!(decisions.is_empty(), "{strategy}: lag >= len never emits");
        assert_recognitions_identical(&streamed, &batch, strategy.label());
    }
}

#[test]
fn short_lag_emits_a_decision_per_ripened_tick_for_every_strategy() {
    let (train, test) = corpus(60, 7);
    let lag = 5;
    for strategy in Strategy::ALL {
        let engine = engine(&train, strategy);
        let session = &test[0];
        let (decisions, streamed) =
            stream_session(&engine, session, Lag::Fixed(lag)).expect("streamed recognition");
        assert_eq!(
            decisions.len(),
            session.len() - lag,
            "{strategy}: one decision per tick past the lag horizon"
        );
        for (i, d) in decisions.iter().enumerate() {
            assert_eq!(d.tick, i, "{strategy}: decisions arrive in tick order");
        }
        // The final path embeds every already-emitted decision unchanged.
        for d in &decisions {
            assert_eq!(streamed.macros[0][d.tick], d.macros[0], "{strategy}");
            assert_eq!(streamed.macros[1][d.tick], d.macros[1], "{strategy}");
        }
        assert_eq!(streamed.macros[0].len(), session.len(), "{strategy}");
    }
}

#[test]
fn short_lag_emits_on_schedule_under_a_pruned_beam_too() {
    // A narrow candidate beam, with dominance pruning inside each step.
    let (train, test) = corpus(60, 8);
    let lag = 5;
    let config = CaceConfig {
        beam: 2,
        ..CaceConfig::default()
    };
    let engine = engine_with(&train, &config);
    let session = &test[0];
    let (pruned, steps) = dominance_pruned_steps(&engine, session);
    assert!(pruned > 0, "no step pruned ({steps} steps)");
    let (decisions, streamed) =
        stream_session(&engine, session, Lag::Fixed(lag)).expect("pruned fixed-lag stream");
    assert_eq!(decisions.len(), session.len() - lag);
    for d in &decisions {
        assert_eq!(streamed.macros[0][d.tick], d.macros[0]);
        assert_eq!(streamed.macros[1][d.tick], d.macros[1]);
    }
}

#[test]
fn short_lag_accuracy_stays_close_to_batch() {
    let (train, test) = corpus(80, 99);
    let engine = engine(&train, Strategy::CorrelationConstraint);
    let session = &test[0];
    let batch = engine.recognize(session).expect("batch recognition");
    let batch_acc = batch.accuracy(session);
    let (_, streamed) =
        stream_session(&engine, session, Lag::Fixed(10)).expect("streamed recognition");
    let stream_acc = streamed.accuracy(session);
    // Fixed-lag smoothing trades a bounded amount of accuracy for bounded
    // latency; with a 10-tick lag the delta should be small.
    assert!(
        batch_acc - stream_acc <= 0.10,
        "lag-10 accuracy {stream_acc} fell too far below batch {batch_acc}"
    );
}
