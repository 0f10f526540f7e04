//! The coupled decoder at CASAS scale, where its slot-factored frontier
//! matters: frontiers of thousands of joint states over a few thousand
//! slot pairs, against references that never factor anything.
//!
//! * Whole sessions decode like the naive dense Viterbi of
//!   `cace_testkit::naive::naive_coupled_viterbi`: the same macros and the
//!   same `log_prob` bits, for sessions of two generated corpora.
//! * The park/resume boundary: a parked stream holds its frontier
//!   materialized and its backpointer rows per state, and resumes as the
//!   trivial factorization. Parking at every early tick — right after the
//!   first push, and right after a resume — must round-trip to identical
//!   bytes and leave the decisions of the uninterrupted stream unchanged.

use std::sync::Arc;

use cace::behavior::session::train_test_split;
use cace::behavior::{generate_casas_dataset, CasasConfig, Session};
use cace::core::{CaceConfig, CaceEngine, Lag as StreamLag, ParkedStream};
use cace::hdbn::{
    CoupledHdbn, HdbnConfig, HdbnParams, Lag, MicroCandidate, OnlineCoupledViterbi, TickInput,
};
use cace::mining::HierarchicalStats;
use cace_testkit::naive::naive_coupled_viterbi;

/// A small CASAS corpus: an engine trained on three quarters of it, and
/// the held-out sessions.
fn casas(seed: u64, ticks: usize) -> (CaceEngine, Vec<Session>) {
    let cfg = CasasConfig {
        pairs: 2,
        sessions_per_pair: 2,
        ticks,
        ..CasasConfig::default()
    };
    let (train, test) = train_test_split(generate_casas_dataset(&cfg, seed), 0.75);
    let engine = CaceEngine::train(&train, &CaceConfig::default()).expect("CASAS trains");
    (engine, test)
}

#[test]
fn whole_casas_sessions_decode_like_the_naive_reference() {
    for seed in [3, 11] {
        let (engine, test) = casas(seed, 40);
        let params = engine.hdbn_params();
        let session = &test[0];
        let inputs = engine.tick_inputs(session);
        let n_macro = engine.n_macro();
        let largest = inputs.iter().map(|i| i.joint_states(n_macro)).max();
        assert!(
            largest >= Some(1000),
            "seed {seed}: largest frontier {largest:?} states"
        );

        let mut online =
            OnlineCoupledViterbi::new(CoupledHdbn::from_shared(Arc::clone(params)), Lag::Unbounded);
        for input in &inputs {
            assert_eq!(online.push(input).expect("valid tick"), None);
        }
        let path = online.finalize().expect("a pushed stream finalizes");
        let (macros, log_prob) = naive_coupled_viterbi(params, &inputs);
        assert_eq!(path.macros, macros, "seed {seed}: macros");
        assert_eq!(
            path.log_prob.to_bits(),
            log_prob.to_bits(),
            "seed {seed}: log_prob {} vs {log_prob}",
            path.log_prob
        );
    }
}

#[test]
fn casas_parks_round_trip_to_identical_bytes_at_every_early_tick() {
    let lag = StreamLag::Fixed(10);
    let (engine, test) = casas(5, 60);
    let session = &test[0];

    let mut unbroken = engine.stream(lag);
    let mut want = Vec::new();
    for tick in &session.ticks {
        want.extend(unbroken.push(&tick.observed).expect("valid tick"));
    }
    let want_tail = unbroken.finish().expect("stream finishes");

    let mut stream = engine.stream(lag);
    let mut got = Vec::new();
    for (t, tick) in session.ticks.iter().enumerate() {
        if (1..=30).contains(&t) {
            let bytes = stream.park().to_snapshot_bytes();
            let parked = ParkedStream::from_snapshot_any(&bytes).expect("own park reads");
            stream = engine.resume(&parked).expect("own park resumes");
            assert_eq!(
                stream.park().to_snapshot_bytes(),
                bytes,
                "park → resume → park at tick {t}"
            );
        }
        got.extend(stream.push(&tick.observed).expect("valid tick"));
    }
    assert_eq!(got, want, "decisions");
    let tail = stream.finish().expect("stream finishes");
    assert_eq!(tail.decisions, want_tail.decisions, "finalized tail");
    assert_eq!(
        tail.transition_ops, want_tail.transition_ops,
        "transition ops"
    );
}

/// Exact ties in the final frontier: a model symmetric in its two
/// activities and evidence that favors neither leave every joint state on
/// the same score. The decode terminates at the last of them, as the
/// naive reference's `max_by` does, so both residents end in activity 1.
#[test]
fn tied_final_frontiers_terminate_at_the_last_maximum() {
    let one = || vec![vec![1.0], vec![1.0]];
    let stats = HierarchicalStats {
        n_macro: 2,
        n_postural: 1,
        n_gestural: 1,
        n_location: 1,
        macro_prior: vec![0.5, 0.5],
        intra_trans: vec![vec![0.9, 0.1], vec![0.1, 0.9]],
        inter_cooc: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        end_prob: vec![0.1, 0.1],
        postural_given_macro: one(),
        gestural_given_macro: one(),
        location_given_macro: one(),
        postural_trans: vec![vec![1.0]],
    };
    let params = HdbnParams::new(stats, HdbnConfig::default()).expect("valid stats");
    let cand = MicroCandidate {
        postural: 0,
        gestural: Some(0),
        location: 0,
        obs_loglik: -1.0,
    };
    let tick = TickInput {
        candidates: [vec![cand], vec![cand]],
        macro_candidates: [None, None],
        macro_bonus: Vec::new(),
    };
    let ticks = vec![tick; 6];
    let mut online = OnlineCoupledViterbi::new(CoupledHdbn::new(params.clone()), Lag::Unbounded);
    for tick in &ticks {
        online.push(tick).expect("valid tick");
    }
    let path = online.finalize().expect("a pushed stream finalizes");
    let (macros, log_prob) = naive_coupled_viterbi(&params, &ticks);
    assert_eq!(path.macros, macros);
    assert_eq!(path.macros, [vec![1; 6], vec![1; 6]]);
    assert_eq!(path.log_prob.to_bits(), log_prob.to_bits());
}
