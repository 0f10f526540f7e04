//! `recognize_batch` must be a drop-in replacement for a sequential
//! `recognize` loop: same predictions, same overhead accounting, same
//! ordering — for every pruning strategy.

use cace::behavior::Session;
use cace::core::{CaceConfig, CaceEngine, Strategy};
use cace_testkit::{
    assert_recognitions_identical, dominance_pruned_steps, engine, engine_with, tiny_corpus_split,
};

fn corpus() -> (Vec<Session>, Vec<Session>) {
    tiny_corpus_split(6, 90, 20260727, 0.5)
}

#[test]
fn batch_matches_sequential_for_every_strategy() {
    let (train, test) = corpus();
    assert!(test.len() >= 2, "need a real batch");
    for strategy in Strategy::ALL {
        let engine = engine(&train, strategy);
        let batch = engine
            .recognize_batch(&test)
            .expect("batch recognition succeeds");
        assert_eq!(
            batch.len(),
            test.len(),
            "{strategy}: one result per session"
        );
        for (i, session) in test.iter().enumerate() {
            let sequential = engine
                .recognize(session)
                .expect("sequential recognition succeeds");
            // Bit-for-bit identical predicted macro sequences, and identical
            // deterministic overhead accounting; only wall-clock may differ.
            assert_recognitions_identical(
                &batch[i],
                &sequential,
                &format!("{strategy}: session {i}"),
            );
        }
    }
}

#[test]
fn batch_matches_sequential_under_a_pruned_decoder() {
    // Every exact decoder prunes by dominance; a wide candidate beam makes
    // the frontiers large enough that the selection drops most of them.
    let (train, test) = corpus();
    for strategy in Strategy::ALL {
        let config = CaceConfig {
            beam: 12,
            ..CaceConfig::default()
        }
        .with_strategy(strategy);
        let engine = engine_with(&train, &config);
        let batch = engine.recognize_batch(&test).expect("pruned batch");
        for (i, session) in test.iter().enumerate() {
            let (pruned, steps) = dominance_pruned_steps(&engine, session);
            assert!(
                pruned > 0,
                "{strategy}: session {i} never pruned ({steps} steps)"
            );
            let sequential = engine.recognize(session).expect("pruned sequential");
            assert_recognitions_identical(
                &batch[i],
                &sequential,
                &format!("{strategy} beam 12: session {i}"),
            );
        }
    }
}

#[test]
fn batch_is_deterministic_across_runs() {
    let (train, test) = corpus();
    let engine = engine(&train, Strategy::CorrelationConstraint);
    let a = engine.recognize_batch(&test).expect("first run");
    let b = engine.recognize_batch(&test).expect("second run");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.macros, y.macros);
    }
}

#[test]
fn batch_report_accounts_for_the_whole_run() {
    let (train, test) = corpus();
    let engine = engine(&train, Strategy::CorrelationConstraint);
    let report = engine
        .recognize_batch_report(&test)
        .expect("report succeeds");
    assert_eq!(report.recognitions.len(), test.len());
    assert!(report.workers >= 1);
    assert!(report.wall_seconds > 0.0);
    assert!(report.sessions_per_second() > 0.0);
    assert!(report.sequential_seconds() > 0.0);
}

#[test]
fn empty_batch_is_fine() {
    let (train, _) = corpus();
    let engine = CaceEngine::train(&train, &CaceConfig::default()).expect("training succeeds");
    assert!(engine.recognize_batch(&[]).expect("empty batch").is_empty());
}
