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
use cace::hdbn::wire::{ByteReader, ByteWriter};
use cace::hdbn::{
    CoupledHdbn, HdbnConfig, HdbnParams, Lag, MicroCandidate, OnlineCoupledViterbi, ParkedCoupled,
    TickInput,
};
use cace::mining::HierarchicalStats;
use cace_testkit::naive::naive_coupled_viterbi;
use cace_testkit::{toy_glitchy_ticks, toy_two_activity_params};

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
            let parked = ParkedStream::from_snapshot_bytes(&bytes).expect("own park reads");
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

/// Streams `ticks` under each lag in `{0, 1, 3, 10}`, parking (through
/// the binary codec) and resuming before every push, and checks each
/// emitted decision for tick `t` against tick `t` of the naive Viterbi
/// path over ticks `..=t + L`, and the finalized tail against the naive
/// path over every tick.
fn assert_fixed_lags_match_the_prefix_oracle(
    label: &str,
    params: &Arc<HdbnParams>,
    ticks: &[TickInput],
) {
    // One naive decode per prefix serves every lag.
    let prefix_paths: Vec<[Vec<usize>; 2]> = (0..ticks.len())
        .map(|end| naive_coupled_viterbi(params, &ticks[..=end]).0)
        .collect();
    let model = CoupledHdbn::from_shared(Arc::clone(params));
    for l in [0, 1, 3, 10] {
        let lag = Lag::Fixed(l);
        let mut online = OnlineCoupledViterbi::new(model.clone(), lag);
        let mut emitted = 0;
        for tick in ticks {
            let mut w = ByteWriter::new();
            online.park().encode_into(&mut w);
            let bytes = w.into_bytes();
            let parked =
                ParkedCoupled::decode_from(&mut ByteReader::new(&bytes)).expect("own park reads");
            online = OnlineCoupledViterbi::resume(model.clone(), lag, &parked)
                .expect("own park resumes");
            if let Some(d) = online.push(tick).expect("valid tick") {
                let oracle = &prefix_paths[d.tick + l];
                assert_eq!(d.tick, emitted, "{label} lag {l}");
                assert_eq!(
                    d.macros,
                    [oracle[0][d.tick], oracle[1][d.tick]],
                    "{label} lag {l} tick {}",
                    d.tick
                );
                emitted += 1;
            }
        }
        assert_eq!(emitted, ticks.len().saturating_sub(l), "{label} lag {l}");
        let tail = online.finalize().expect("a pushed stream finalizes");
        let whole = &prefix_paths[ticks.len() - 1];
        assert_eq!(
            tail.macros,
            [0, 1].map(|u| whole[u][emitted..].to_vec()),
            "{label} lag {l} tail"
        );
    }
}

#[test]
fn fixed_lag_decisions_match_the_naive_prefix_oracle() {
    let toy = Arc::new(toy_two_activity_params(true));
    assert_fixed_lags_match_the_prefix_oracle("toy", &toy, &toy_glitchy_ticks(30));
    let (engine, test) = casas(7, 30);
    let inputs = engine.tick_inputs(&test[0]);
    assert_fixed_lags_match_the_prefix_oracle("CASAS", engine.hdbn_params(), &inputs);
}
