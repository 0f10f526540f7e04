//! Hot model swap handoff guarantee, stated as executable properties.
//!
//! A live stream that swaps models at a decision boundary must satisfy
//! two equalities, for every strategy:
//!
//! 1. **Pre-swap identity** — every decision emitted before the swap is
//!    bit-identical to an unswapped stream's (adaptation is invisible
//!    until the moment it lands);
//! 2. **Post-swap continuation** — everything after the swap equals a
//!    fresh stream resumed under the new model from the old stream's
//!    parked frontier (the swap is exactly park → migrate → resume,
//!    never a secret third state).
//!
//! The suite also pins the migration gate the guarantee rests on: a
//! frontier parked under model v1 must not resume under v2 unless it is
//! explicitly migrated, and a swap composes with park/resume cycles on
//! either side.

use std::sync::Arc;

use proptest::prelude::*;

use cace::behavior::Session;
use cace::core::{
    resume_shared, stream_shared, CaceConfig, CaceEngine, Lag, Strategy, StreamDecision,
    StreamingRecognizer,
};
use cace::model::ModelError;
use cace_testkit::{assert_recognitions_identical, engine_with, tiny_corpus};

const LAG: Lag = Lag::Fixed(7);

fn corpora(ticks: usize, seed: u64) -> (Vec<Session>, Vec<Session>, Vec<Session>) {
    let (train_v1, test) = tiny_corpus(4, ticks, seed);
    // A second corpus from the same grammar: same vocabulary and config,
    // different statistics — so v2 is a genuinely different model with a
    // different fingerprint, as an adapted generation would be.
    let (train_v2, _) = tiny_corpus(4, ticks, seed.wrapping_add(1000) | 1);
    (train_v1, train_v2, test)
}

fn push_all(
    stream: &mut StreamingRecognizer<'static>,
    session: &Session,
    range: std::ops::Range<usize>,
) -> Vec<StreamDecision> {
    let mut decisions = Vec::new();
    for tick in &session.ticks[range] {
        if let Some(d) = stream.push(&tick.observed).expect("stream advances") {
            decisions.push(d);
        }
    }
    decisions
}

/// Runs the handoff differential for one engine pair on one session:
/// control stream under `v1` (parked at every boundary along the way),
/// then for each boundary `t` a swapped run and its park→migrate→resume
/// reference.
fn assert_handoff_at_every_boundary(
    v1: &Arc<CaceEngine>,
    v2: &Arc<CaceEngine>,
    session: &Session,
    label: &str,
) {
    // Control: the unswapped stream. Its decision stream is the pre-swap
    // oracle, its park at tick t is the frontier the swap must hand off.
    let mut control = stream_shared(v1, LAG);
    let mut control_decisions: Vec<StreamDecision> = Vec::new();
    let mut parks = Vec::with_capacity(session.len() + 1);
    let mut decided_by = Vec::with_capacity(session.len() + 1);
    for tick in &session.ticks {
        parks.push(control.park());
        decided_by.push(control_decisions.len());
        if let Some(d) = control.push(&tick.observed).expect("control advances") {
            control_decisions.push(d);
        }
    }
    parks.push(control.park());
    decided_by.push(control_decisions.len());

    for t in 0..=session.len() {
        // Swapped run: live under v1 for ticks < t, hot swap, then v2.
        let mut swapped = stream_shared(v1, LAG);
        let pre = push_all(&mut swapped, session, 0..t);
        assert_eq!(
            pre,
            control_decisions[..decided_by[t]],
            "{label}: pre-swap decisions diverged for a swap at tick {t}"
        );
        swapped.swap_model(v2).expect("same config swaps");
        let post = push_all(&mut swapped, session, t..session.len());
        let swapped_rec = swapped
            .finish()
            .expect("swapped stream finishes")
            .into_recognition(&[pre, post.clone()].concat());

        // Reference: the same frontier explicitly migrated and resumed
        // under v2 — the continuation the handoff guarantee promises.
        let mut reference =
            resume_shared(v2, &parks[t].migrated_to(v2)).expect("migrated frontier resumes");
        let ref_post = push_all(&mut reference, session, t..session.len());
        let reference_rec = reference
            .finish()
            .expect("reference stream finishes")
            .into_recognition(&[&control_decisions[..decided_by[t]], &ref_post].concat());

        assert_eq!(
            post, ref_post,
            "{label}: post-swap decisions diverged from the resumed reference at tick {t}"
        );
        assert_recognitions_identical(
            &swapped_rec,
            &reference_rec,
            &format!("{label} swap at {t}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random session shapes × all four strategies: the handoff
    /// guarantee holds at *every* decision boundary.
    #[test]
    fn hot_swap_handoff_holds_at_every_boundary(
        ticks in 40usize..52,
        seed in 0u64..1_000,
    ) {
        let (train_v1, train_v2, test) = corpora(ticks, seed);
        for strategy in Strategy::ALL {
            let config = CaceConfig::default().with_strategy(strategy);
            let v1 = Arc::new(engine_with(&train_v1, &config));
            let v2 = Arc::new(engine_with(&train_v2, &config));
            prop_assert_ne!(
                v1.hdbn_params().fingerprint(),
                v2.hdbn_params().fingerprint(),
                "the two corpora must train distinguishable models"
            );
            assert_handoff_at_every_boundary(&v1, &v2, &test[0], &format!("{strategy}"));
        }
    }

    /// Swapping to a model with *identical* parameters (a twin trained on
    /// the same corpus) is a no-op at the bit level: decisions, final
    /// recognition, and overhead counters all match the unswapped stream.
    #[test]
    fn swap_to_identical_params_is_invisible(
        ticks in 40usize..52,
        seed in 0u64..1_000,
        swap_frac in 0.0f64..1.0,
    ) {
        let (train, _, test) = corpora(ticks, seed);
        let session = &test[0];
        let t = (swap_frac * session.len() as f64) as usize;
        for strategy in Strategy::ALL {
            let config = CaceConfig::default().with_strategy(strategy);
            let v1 = Arc::new(engine_with(&train, &config));
            let twin = Arc::new(engine_with(&train, &config));
            prop_assert_eq!(
                v1.hdbn_params().fingerprint(),
                twin.hdbn_params().fingerprint()
            );

            let mut plain = stream_shared(&v1, LAG);
            let want = push_all(&mut plain, session, 0..session.len());

            let mut swapped = stream_shared(&v1, LAG);
            let mut got = push_all(&mut swapped, session, 0..t);
            swapped.swap_model(&twin).expect("twin swaps");
            got.extend(push_all(&mut swapped, session, t..session.len()));

            prop_assert_eq!(&got, &want, "{}: twin swap at {} changed decisions",
                strategy, t);
            assert_recognitions_identical(
                &swapped.finish().expect("swapped finishes").into_recognition(&got),
                &plain.finish().expect("plain finishes").into_recognition(&want),
                &format!("{strategy} twin swap at {t}"),
            );
        }
    }
}

#[test]
fn parked_frontier_resumes_only_under_its_own_model_unless_migrated() {
    let (train_v1, train_v2, test) = corpora(48, 11);
    let config = CaceConfig::default();
    let v1 = Arc::new(engine_with(&train_v1, &config));
    let v2 = Arc::new(engine_with(&train_v2, &config));
    let session = &test[0];

    let mut stream = stream_shared(&v1, LAG);
    push_all(&mut stream, session, 0..session.len() / 2);
    let parked = stream.park();
    assert_eq!(parked.model_fingerprint(), v1.hdbn_params().fingerprint());

    // Park under v1 → resume under v2: rejected, and the error says how
    // to proceed deliberately.
    match resume_shared(&v2, &parked) {
        Err(ModelError::Persistence { what }) => {
            assert!(
                what.contains("migrate"),
                "rejection must point at explicit migration, got: {what}"
            );
        }
        Err(other) => panic!("expected a persistence rejection, got {other:?}"),
        Ok(_) => panic!("a v1 frontier must not silently resume under v2"),
    }
    // Explicit migration is the sanctioned path…
    let migrated = parked.migrated_to(&v2);
    assert_eq!(migrated.model_fingerprint(), v2.hdbn_params().fingerprint());
    resume_shared(&v2, &migrated).expect("migrated frontier resumes under v2");
    // …and the original frontier still resumes under its own model.
    resume_shared(&v1, &parked).expect("unmigrated frontier still resumes under v1");
}

#[test]
fn swap_composes_with_park_resume_cycles() {
    // Park/resume the stream around and after the swap: the interruptions
    // must change nothing relative to an uninterrupted swapped stream.
    let (train_v1, train_v2, test) = corpora(50, 23);
    let config = CaceConfig::default();
    let v1 = Arc::new(engine_with(&train_v1, &config));
    let v2 = Arc::new(engine_with(&train_v2, &config));
    let session = &test[0];
    let t = session.len() / 2;

    let mut plain = stream_shared(&v1, LAG);
    let mut want = push_all(&mut plain, session, 0..t);
    plain.swap_model(&v2).expect("plain swap");
    want.extend(push_all(&mut plain, session, t..session.len()));
    let want_rec = plain
        .finish()
        .expect("plain swapped stream finishes")
        .into_recognition(&want);

    let mut cycled = stream_shared(&v1, LAG);
    let mut got = Vec::new();
    for (i, tick) in session.ticks.iter().enumerate() {
        if i == t {
            // Park/resume immediately before and after the swap itself.
            cycled = resume_shared(&v1, &cycled.park()).expect("pre-swap cycle");
            cycled.swap_model(&v2).expect("cycled swap");
            cycled = resume_shared(&v2, &cycled.park()).expect("post-swap cycle");
        } else if i > t {
            // And before every subsequent tick: the post-swap stream is an
            // ordinary v2 stream, park/resume cannot tell the difference.
            cycled = resume_shared(&v2, &cycled.park()).expect("steady-state cycle");
        }
        if let Some(d) = cycled.push(&tick.observed).expect("cycled stream advances") {
            got.push(d);
        }
    }
    assert_eq!(
        got, want,
        "park/resume cycles around the swap changed decisions"
    );
    assert_recognitions_identical(
        &cycled
            .finish()
            .expect("cycled stream finishes")
            .into_recognition(&got),
        &want_rec,
        "swap composed with park/resume",
    );
}

#[test]
fn swap_rejects_incompatible_configurations_atomically() {
    let (train_v1, _, test) = corpora(44, 5);
    let v1 = Arc::new(engine_with(&train_v1, &CaceConfig::default()));
    // Same data, different strategy → different swap target class.
    let other = Arc::new(engine_with(
        &train_v1,
        &CaceConfig::default().with_strategy(Strategy::NaiveCorrelation),
    ));
    let session = &test[0];

    let mut stream = stream_shared(&v1, LAG);
    let pre = push_all(&mut stream, session, 0..session.len() / 2);
    assert!(
        stream.swap_model(&other).is_err(),
        "a swap across strategies must be refused"
    );
    // The refusal is atomic: the stream keeps serving under v1 exactly as
    // if the swap was never attempted.
    let mut control = stream_shared(&v1, LAG);
    let want = push_all(&mut control, session, 0..session.len());
    let post = push_all(&mut stream, session, session.len() / 2..session.len());
    let mut got = pre;
    got.extend(post);
    assert_eq!(got, want);
    assert_recognitions_identical(
        &stream
            .finish()
            .expect("stream finishes")
            .into_recognition(&got),
        &control
            .finish()
            .expect("control finishes")
            .into_recognition(&want),
        "rejected swap left state untouched",
    );
}
