//! # cace-testkit
//!
//! Shared fixtures for the workspace's integration-test suites (and the
//! differential/bench harnesses): the simulated-corpus builders and
//! trained-engine constructors that used to be copy-pasted across the
//! files under `tests/`, plus the strict bit-identity assertion the
//! equivalence suites (`batch == sequential`, `streamed == batch`,
//! `reloaded == trained`) all share.
//!
//! Two modules hold executable references: [`toy`] has the naive DP steps
//! (`naive_step` for the chain and NH kernels, `naive_joint_step` for the
//! coupled joint kernel) that the differential suites hold every step
//! kernel to, and [`naive`] has the historical scoring paths the
//! dense-table decoders and the fused front end are checked against.
//!
//! Nothing here is clever — that is the point. A fixture duplicated per
//! test file drifts (each copy picks its own seeds, split ratios, and
//! assertion strictness); a fixture imported from one crate cannot.
//!
//! ```
//! use cace_core::Strategy;
//! use cace_testkit::{engine, tiny_corpus};
//!
//! let (train, test) = tiny_corpus(4, 60, 7);
//! let trained = engine(&train, Strategy::CorrelationConstraint);
//! let rec = trained.recognize(&test[0]).unwrap();
//! assert_eq!(rec.macros[0].len(), test[0].len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive;
pub mod toy;

use cace_behavior::session::train_test_split;
use cace_behavior::{cace_grammar, generate_cace_dataset, Session, SessionConfig};
use cace_core::{CaceConfig, CaceEngine, Lag, ParkedStream, Recognition, Strategy, StreamDecision};
use cace_hdbn::{HdbnConfig, HdbnParams, MicroCandidate, TickInput};
use cace_mining::constraint::{ConstraintMiner, LabeledSequence};

/// The standard integration-test corpus: `sessions` recordings of `ticks`
/// ticks under [`SessionConfig::tiny`], split 75/25 into (train, test).
///
/// Deterministic in `seed`; both halves are guaranteed non-empty by the
/// underlying split.
pub fn tiny_corpus(sessions: usize, ticks: usize, seed: u64) -> (Vec<Session>, Vec<Session>) {
    tiny_corpus_split(sessions, ticks, seed, 0.75)
}

/// [`tiny_corpus`] with an explicit train fraction.
pub fn tiny_corpus_split(
    sessions: usize,
    ticks: usize,
    seed: u64,
    train_fraction: f64,
) -> (Vec<Session>, Vec<Session>) {
    let data = generate_cace_dataset(
        &cace_grammar(),
        1,
        sessions,
        &SessionConfig::tiny().with_ticks(ticks),
        seed,
    );
    train_test_split(data, train_fraction)
}

/// Trains an engine with the default configuration under `strategy`.
///
/// # Panics
/// Panics if training fails — the simulated corpora are constructed so it
/// cannot, and a fixture that fails to build should abort the test loudly.
pub fn engine(train: &[Session], strategy: Strategy) -> CaceEngine {
    engine_with(train, &CaceConfig::default().with_strategy(strategy))
}

/// Trains an engine with an explicit configuration.
///
/// # Panics
/// Panics if training fails (see [`engine`]).
pub fn engine_with(train: &[Session], config: &CaceConfig) -> CaceEngine {
    CaceEngine::train(train, config).expect("testkit: training succeeds on simulated data")
}

/// Asserts two recognitions are bit-identical in every deterministic
/// field: decoded macros, both overhead counters, rule firings, and the
/// exact bits of `mean_joint_size` (only wall-clock may differ).
///
/// This is the shared contract of the equivalence suites; `label` names
/// the failing configuration in the panic message.
///
/// # Panics
/// Panics with `label` on the first differing field.
pub fn assert_recognitions_identical(actual: &Recognition, expected: &Recognition, label: &str) {
    assert_eq!(actual.macros, expected.macros, "{label}: macros");
    assert_eq!(
        actual.states_explored, expected.states_explored,
        "{label}: states_explored"
    );
    assert_eq!(
        actual.transition_ops, expected.transition_ops,
        "{label}: transition_ops"
    );
    assert_eq!(
        actual.rules_fired, expected.rules_fired,
        "{label}: rules_fired"
    );
    assert_eq!(
        actual.mean_joint_size.to_bits(),
        expected.mean_joint_size.to_bits(),
        "{label}: mean_joint_size"
    );
}

/// Drives a session through a streaming recognizer, interrupting it with
/// a full park → serialize → reload → resume cycle *before pushing* every
/// tick index listed in `park_at` (an index equal to the session length
/// parks once more right before `finish`). An empty `park_at` behaves
/// exactly like [`cace_core::stream_session`].
///
/// The parked state travels through its versioned snapshot **bytes** —
/// the binary form the serving tier stores for an evicted home, read back
/// through the router's sniffing reader — not just the in-memory struct,
/// so every listed position also exercises the serialization layer.
///
/// # Panics
/// Panics if any push, park round-trip, resume, or finalization fails —
/// the park/resume equivalence suites want those failures loud.
pub fn stream_session_with_parks(
    engine: &CaceEngine,
    session: &Session,
    lag: Lag,
    park_at: &[usize],
) -> (Vec<StreamDecision>, Recognition) {
    let park_cycle = |stream: &cace_core::StreamingRecognizer<'_>| {
        let bytes = stream.park().to_snapshot_bytes();
        let parked =
            ParkedStream::from_snapshot_bytes(&bytes).expect("testkit: parked bytes reload");
        engine
            .resume(&parked)
            .expect("testkit: parked stream resumes")
    };
    let mut stream = engine.stream(lag);
    let mut decisions = Vec::new();
    for (t, tick) in session.ticks.iter().enumerate() {
        if park_at.contains(&t) {
            stream = park_cycle(&stream);
        }
        if let Some(d) = stream.push(&tick.observed).expect("testkit: stream push") {
            decisions.push(d);
        }
    }
    if park_at.contains(&session.len()) {
        stream = park_cycle(&stream);
    }
    let recognition = stream
        .finish()
        .expect("testkit: stream finish")
        .into_recognition(&decisions);
    (decisions, recognition)
}

/// Streams `session` through `engine` and counts the DP steps whose
/// dominance selection folded a strict subset of the previous tick's
/// frontier: `(pruned steps, steps)`. Equivalence suites use it as a
/// witness that the decode they compare really ran pruned.
///
/// The frontier is the strategy's: the joint product for NCS/C2, the two
/// per-user chains for NCR, and the two unrestricted flat HMMs for NH.
///
/// # Panics
/// Panics if a push fails, if the gauge is missing after the first push,
/// or if a step reports more survivors than its frontier holds.
pub fn dominance_pruned_steps(engine: &CaceEngine, session: &Session) -> (usize, usize) {
    let n_macro = engine.n_macro();
    let strategy = engine.config().strategy;
    let frontier = |input: &TickInput| -> u64 {
        if strategy.coupled() {
            return input.joint_states(n_macro);
        }
        (0..2)
            .map(|u| {
                let macros = match (strategy, &input.macro_candidates[u]) {
                    (Strategy::NaiveCorrelation, Some(m)) => m.len(),
                    _ => n_macro,
                };
                (macros * input.candidates[u].len().max(1)) as u64
            })
            .sum()
    };
    let inputs = engine.tick_inputs(session);
    let mut stream = engine.stream(Lag::Unbounded);
    let (mut pruned, mut steps) = (0, 0);
    for (t, tick) in session.ticks.iter().enumerate() {
        stream.push(&tick.observed).expect("testkit: stream push");
        if t == 0 {
            assert_eq!(
                stream.last_survivors(),
                None,
                "no step before the second push"
            );
            continue;
        }
        let survivors = stream.last_survivors().expect("testkit: a step ran") as u64;
        let states = frontier(&inputs[t - 1]);
        assert!(
            survivors <= states,
            "{strategy}: tick {t} folded {survivors} of {states} frontier states"
        );
        steps += 1;
        pruned += usize::from(survivors < states);
    }
    (pruned, steps)
}

/// Toy HDBN parameters over a two-activity world where activity `k` pairs
/// with posture `k` and location `k`, both residents synchronized in runs
/// of 10 ticks — the standard decoder-level fixture (mirrors the in-crate
/// fixtures of `cace-hdbn`'s unit tests, exported here for the
/// cross-crate differential suites).
pub fn toy_two_activity_params(coupled: bool) -> HdbnParams {
    let mut macros = Vec::new();
    for run in 0..40 {
        for _ in 0..10 {
            macros.push(run % 2);
        }
    }
    let n = macros.len();
    let seq = LabeledSequence {
        macros: [macros.clone(), macros.clone()],
        posturals: [macros.clone(), macros.clone()],
        gesturals: [vec![0; n], vec![0; n]],
        locations: [macros.clone(), macros],
    };
    let stats = ConstraintMiner {
        laplace: 0.1,
        n_macro: 2,
        n_postural: 2,
        n_gestural: 2,
        n_location: 2,
    }
    .mine(&[seq])
    .expect("testkit: toy stats mine");
    let config = if coupled {
        HdbnConfig::default()
    } else {
        HdbnConfig::uncoupled()
    };
    HdbnParams::new(stats, config).expect("testkit: toy params build")
}

/// A decoder tick whose observations favor micro state `fav` for both
/// users by `strength` log-odds (companion of
/// [`toy_two_activity_params`]).
pub fn toy_obs_tick(fav: usize, strength: f64) -> TickInput {
    let cands = |fav: usize| -> Vec<MicroCandidate> {
        (0..2)
            .map(|p| MicroCandidate {
                postural: p,
                gestural: Some(0),
                location: p,
                obs_loglik: if p == fav { 0.0 } else { -strength },
            })
            .collect()
    };
    TickInput {
        candidates: [cands(fav), cands(fav)],
        macro_candidates: [None, None],
        macro_bonus: Vec::new(),
    }
}

/// A mildly adversarial tick stream over the toy world: activity switches
/// at the midpoint, with periodic weak and contradictory observations so
/// decoders must actually smooth.
pub fn toy_glitchy_ticks(len: usize) -> Vec<TickInput> {
    (0..len)
        .map(|t| {
            let m = usize::from(t >= len / 2);
            let strength = if t % 7 == 3 { 0.4 } else { 3.0 };
            toy_obs_tick(if t % 11 == 5 { 1 - m } else { m }, strength)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_split() {
        let (train_a, test_a) = tiny_corpus(4, 40, 9);
        let (train_b, test_b) = tiny_corpus(4, 40, 9);
        assert_eq!(train_a.len(), train_b.len());
        assert_eq!(test_a.len(), test_b.len());
        assert!(!train_a.is_empty() && !test_a.is_empty());
        assert_eq!(train_a[0].len(), 40);
    }

    #[test]
    fn identical_recognitions_pass_the_assertion() {
        let (train, test) = tiny_corpus(3, 50, 10);
        let e = engine(&train, Strategy::CorrelationConstraint);
        let a = e.recognize(&test[0]).unwrap();
        let b = e.recognize(&test[0]).unwrap();
        assert_recognitions_identical(&a, &b, "self");
    }

    #[test]
    #[should_panic(expected = "differs: macros")]
    fn differing_recognitions_fail_the_assertion() {
        let (train, test) = tiny_corpus(3, 50, 10);
        let e = engine(&train, Strategy::CorrelationConstraint);
        let a = e.recognize(&test[0]).unwrap();
        let mut b = a.clone();
        b.macros[0][0] = (b.macros[0][0] + 1) % e.n_macro();
        assert_recognitions_identical(&a, &b, "differs");
    }

    #[test]
    fn toy_world_decodes() {
        use cace_hdbn::CoupledHdbn;
        let model = CoupledHdbn::new(toy_two_activity_params(true));
        let path = model.viterbi(&toy_glitchy_ticks(30)).unwrap();
        assert_eq!(path.macros[0].len(), 30);
    }
}
