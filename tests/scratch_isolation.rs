//! Push-only trellis buffers belong to the thread, not the stream.
//!
//! Every online decoder runs its step on the calling thread's
//! `TrellisScratch` (the arena, the frontier the step writes and the window
//! entry a push fills), shared by every stream of that family the thread
//! pushes. Whatever an earlier push left there — buffers sized for a much
//! larger frontier, another stream's entry, another strategy's fold — must
//! never reach a result.
//!
//! Each case here is one stream: a strategy (NH, NCR, NCS, C2), a corpus
//! (the tiny CACE corpus and a small CASAS one), a lag and, for half of
//! them, a park → bytes → resume in mid-stream. Its reference is the same
//! stream pushed alone on a thread of its own. Against it:
//!
//! * [`interleaved_streams_on_one_thread_match_streams_pushed_alone`]
//!   first pushes whole ambiguous CASAS sessions (frontiers of thousands
//!   of joint states), so the thread's scratch is large and stale, then
//!   pushes every case one tick at a time, round robin, on that thread.
//! * [`routed_streams_match_streams_pushed_alone`] serves every case as a
//!   home of one router, so the pushes land on the rayon pool's persistent
//!   workers. CI runs the suites under `RAYON_NUM_THREADS=1` and `=4`.
//!
//! Every decision, and every bit of the `finish` tail's recognition, must
//! be identical.

use std::sync::Arc;
use std::thread;

use cace::behavior::session::train_test_split;
use cace::behavior::{generate_casas_dataset, CasasConfig, Session};
use cace::core::{
    CaceConfig, CaceEngine, HomeRound, Lag, ParkedStream, Recognition, ShardedRouter, Strategy,
    StreamDecision,
};
use cace_testkit::{assert_recognitions_identical, engine, stream_session_with_parks, tiny_corpus};

const STRATEGIES: [Strategy; 4] = [
    Strategy::NaiveHmm,
    Strategy::NaiveCorrelation,
    Strategy::NaiveConstraint,
    Strategy::CorrelationConstraint,
];

/// One stream under test.
struct Case {
    label: String,
    engine: Arc<CaceEngine>,
    session: Session,
    lag: Lag,
    /// The tick before which the stream is parked and resumed, if any.
    park_at: Option<usize>,
}

/// A small CASAS corpus (train, test).
fn casas_corpus() -> (Vec<Session>, Vec<Session>) {
    let cfg = CasasConfig {
        pairs: 2,
        sessions_per_pair: 2,
        ticks: 40,
        ..CasasConfig::default()
    };
    train_test_split(generate_casas_dataset(&cfg, 3), 0.75)
}

/// Every strategy over both corpora, alternating lags, half of them parked
/// and resumed in mid-stream.
fn cases() -> Vec<Case> {
    let corpora = [("cace", tiny_corpus(4, 40, 29)), ("casas", casas_corpus())];
    let mut cases = Vec::new();
    for (name, (train, test)) in &corpora {
        for (k, strategy) in STRATEGIES.into_iter().enumerate() {
            let engine = match *name {
                "casas" => CaceEngine::train(train, &CaceConfig::default().with_strategy(strategy))
                    .expect("CASAS trains"),
                _ => engine(train, strategy),
            };
            let session = test[k % test.len()].clone();
            let lag = if k % 2 == 0 {
                Lag::Fixed(4)
            } else {
                Lag::Unbounded
            };
            let park_at = (k % 2 == 1 || *name == "casas").then_some(session.len() / 2);
            cases.push(Case {
                label: format!("{name} {strategy:?} {lag:?} park {park_at:?}"),
                engine: Arc::new(engine),
                session,
                lag,
                park_at,
            });
        }
    }
    cases
}

/// The reference: the case's stream pushed alone, on a fresh thread.
fn alone(case: &Case) -> (Vec<StreamDecision>, Recognition) {
    let park_at: Vec<usize> = case.park_at.into_iter().collect();
    thread::scope(|s| {
        s.spawn(|| stream_session_with_parks(&case.engine, &case.session, case.lag, &park_at))
            .join()
            .expect("the reference stream runs")
    })
}

/// Leaves the calling thread's scratch of every family sized for whole
/// CASAS sessions: frontiers far larger than most cases' next tick.
fn stain_scratch() {
    let (train, test) = casas_corpus();
    for strategy in [
        Strategy::CorrelationConstraint,
        Strategy::NaiveConstraint,
        Strategy::NaiveCorrelation,
        Strategy::NaiveHmm,
    ] {
        let engine = CaceEngine::train(&train, &CaceConfig::default().with_strategy(strategy))
            .expect("CASAS trains");
        if strategy == Strategy::CorrelationConstraint {
            let largest = engine
                .tick_inputs(&test[0])
                .iter()
                .map(|i| i.joint_states(engine.n_macro()))
                .max();
            assert!(largest >= Some(1000), "largest C2 frontier {largest:?}");
        }
        let mut stream = engine.stream(Lag::Unbounded);
        for tick in &test[0].ticks {
            stream.push(&tick.observed).expect("stain push");
        }
        stream.finish().expect("stain finish");
    }
}

#[test]
fn interleaved_streams_on_one_thread_match_streams_pushed_alone() {
    let cases = cases();
    let expected: Vec<_> = cases.iter().map(alone).collect();
    stain_scratch();

    let mut streams: Vec<_> = cases.iter().map(|c| c.engine.stream(c.lag)).collect();
    let mut decisions: Vec<Vec<StreamDecision>> = vec![Vec::new(); cases.len()];
    let longest = cases.iter().map(|c| c.session.len()).max().unwrap_or(0);
    for t in 0..longest {
        for (i, case) in cases.iter().enumerate() {
            let Some(tick) = case.session.ticks.get(t) else {
                continue;
            };
            if case.park_at == Some(t) {
                let bytes = streams[i].park().to_snapshot_bytes();
                let parked = ParkedStream::from_snapshot_bytes(&bytes).expect("parked bytes read");
                streams[i] = case.engine.resume(&parked).expect("parked stream resumes");
            }
            if let Some(d) = streams[i].push(&tick.observed).expect("push") {
                decisions[i].push(d);
            }
        }
    }
    for (((case, stream), decisions), (want, want_recognition)) in
        cases.iter().zip(streams).zip(decisions).zip(&expected)
    {
        assert_eq!(&decisions, want, "{}: decisions", case.label);
        let recognition = stream
            .finish()
            .expect("finish")
            .into_recognition(&decisions);
        assert_recognitions_identical(&recognition, want_recognition, &case.label);
    }
}

#[test]
fn routed_streams_match_streams_pushed_alone() {
    let cases = cases();
    let expected: Vec<_> = cases.iter().map(alone).collect();
    let mut router = ShardedRouter::with_shards(4);
    for (i, case) in cases.iter().enumerate() {
        let model = format!("model {i}");
        router
            .register_model(model.clone(), Arc::clone(&case.engine))
            .expect("register");
        router
            .add_home(i as u64, &model, case.lag)
            .expect("add home");
    }
    let mut decisions: Vec<Vec<StreamDecision>> = vec![Vec::new(); cases.len()];
    let longest = cases.iter().map(|c| c.session.len()).max().unwrap_or(0);
    for t in 0..longest {
        let round: Vec<_> = cases
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                c.session
                    .ticks
                    .get(t)
                    .map(|tick| (i as u64, &tick.observed))
            })
            .collect();
        for (i, case) in cases.iter().enumerate() {
            if case.park_at == Some(t) {
                router.park_home(i as u64).expect("park");
            }
        }
        let outcomes = router.push_round(&round).expect("round");
        for (&(id, _), outcome) in round.iter().zip(outcomes) {
            match outcome {
                HomeRound::Advanced(Some(d)) => decisions[id as usize].push(d),
                HomeRound::Advanced(None) => {}
                other => panic!("{}: {other:?}", cases[id as usize].label),
            }
        }
    }
    for (id, tail) in router.finish() {
        let case = &cases[id as usize];
        let (want, want_recognition) = &expected[id as usize];
        assert_eq!(&decisions[id as usize], want, "{}: decisions", case.label);
        let recognition = tail
            .expect("finish")
            .into_recognition(&decisions[id as usize]);
        assert_recognitions_identical(&recognition, want_recognition, &case.label);
    }
}
