//! A fixed-lag stream holds `O(lag)` state: its live decoder and its
//! parked bytes do not grow with the number of ticks it has consumed.
//!
//! A stream keeps only the newest frontier's dominance survivors and
//! argmax, the backpointer window of at most `lag + 1` entries (each
//! compacted to the records a backtrack can still read), the decision
//! cursor and a few counters; decisions it has emitted belong to the
//! caller. These tests park a stream after a short
//! and a long run and require the `stream-bin` encoding after the long
//! run to stay within [`SLACK`] of the short one — a per-push
//! `Vec::push` into anything a park carries breaks that at once.
//!
//! The decoder-level checks (coupled and single-chain here, NH in
//! `cace-core`'s snapshot unit tests) run 20 000 toy ticks, which stays
//! fast in a debug build. The recognizer-level check covers all four
//! strategies over the tiny corpus, cycled, for 2 000 ticks; parks of up
//! to 170 KB make a 10% bound blind to a byte per push there, so it bounds
//! the growth in bytes instead ([`COUNTER_BYTES`]).

use cace::core::{CaceConfig, Lag as StreamLag, Strategy};
use cace::hdbn::wire::ByteWriter;
use cace::hdbn::{CoupledHdbn, Lag, OnlineCoupledViterbi, OnlineSingleViterbi, SingleHdbn};
use cace_testkit::{engine_with, tiny_corpus, toy_glitchy_ticks, toy_two_activity_params};

/// Largest allowed relative growth of a park between the short and the
/// long run.
const SLACK: f64 = 0.10;
const LAG: usize = 6;
const SHORT: usize = 200;
const LONG: usize = 20_000;
/// Bytes a recognizer's park may gain between 200 and 2 000 pushes at the
/// same position of a cycled session: a few varint counters gain a byte.
/// One byte per push would add 1 800.
const COUNTER_BYTES: usize = 32;

/// Asserts `long` is within [`SLACK`] of `short`.
fn assert_bounded(short: usize, long: usize, label: &str) {
    let growth = long as f64 / short as f64 - 1.0;
    assert!(
        growth.abs() <= SLACK,
        "{label}: a park is {short} B after the short run and {long} B after the \
         long one ({:+.1}%)",
        100.0 * growth
    );
}

/// Parked `stream-bin` sizes of a decoder after [`SHORT`] and [`LONG`]
/// toy pushes: `push` feeds one tick, `park_len` encodes a park.
fn park_sizes<D>(
    mut decoder: D,
    mut push: impl FnMut(&mut D, &cace::hdbn::TickInput),
    park_len: impl Fn(&D) -> usize,
) -> (usize, usize) {
    let ticks = toy_glitchy_ticks(SHORT);
    let mut short = 0;
    for t in 0..LONG {
        push(&mut decoder, &ticks[t % ticks.len()]);
        if t + 1 == SHORT {
            short = park_len(&decoder);
        }
    }
    (short, park_len(&decoder))
}

#[test]
fn coupled_park_size_does_not_grow_with_stream_age() {
    let model = CoupledHdbn::new(toy_two_activity_params(true));
    let (short, long) = park_sizes(
        OnlineCoupledViterbi::new(model, Lag::Fixed(LAG)),
        |d, tick| {
            d.push(tick).expect("push");
        },
        |d| {
            let mut w = ByteWriter::new();
            d.park().encode_into(&mut w);
            w.into_bytes().len()
        },
    );
    assert_bounded(short, long, "coupled");
}

#[test]
fn chain_park_size_does_not_grow_with_stream_age() {
    let model = SingleHdbn::new(toy_two_activity_params(false));
    let (short, long) = park_sizes(
        OnlineSingleViterbi::new(model, 1, Lag::Fixed(LAG)),
        |d, tick| {
            d.push(tick).expect("push");
        },
        |d| {
            let mut w = ByteWriter::new();
            d.park().encode_into(&mut w);
            w.into_bytes().len()
        },
    );
    assert_bounded(short, long, "chain");
}

/// Every strategy's recognizer, over a tiny session replayed in a loop:
/// a park after 2 000 pushes is as large as one after 200, give or take
/// its counters.
#[test]
fn recognizer_park_size_does_not_grow_with_stream_age() {
    let (train, test) = tiny_corpus(4, 50, 29);
    let session = &test[0];
    let (short_ticks, long_ticks) = (SHORT, 10 * SHORT);
    for strategy in Strategy::ALL {
        let engine = engine_with(&train, &CaceConfig::default().with_strategy(strategy));
        let mut stream = engine.stream(StreamLag::Fixed(LAG));
        let mut short = 0;
        for t in 0..long_ticks {
            let tick = &session.ticks[t % session.len()];
            stream.push(&tick.observed).expect("push");
            if t + 1 == short_ticks {
                short = stream.park().to_snapshot_bytes().len();
            }
        }
        let long = stream.park().to_snapshot_bytes().len();
        assert!(
            long <= short + COUNTER_BYTES,
            "{strategy}: a park is {short} B after {short_ticks} pushes and {long} B after \
             {long_ticks}"
        );
    }
}

/// An NH recognizer parks each window entry's state list as two counts
/// and its older entries as survivor records, like every other strategy:
/// on the tiny corpus its park is within twice a C2 park of the same
/// session and lag (its whole state lists made it 13 times larger).
#[test]
fn nh_recognizer_parks_within_twice_c2() {
    let (train, test) = tiny_corpus(4, 50, 29);
    let session = &test[0];
    let park_len = |strategy: Strategy| {
        let engine = engine_with(&train, &CaceConfig::default().with_strategy(strategy));
        let mut stream = engine.stream(StreamLag::Fixed(LAG));
        for t in 0..SHORT {
            stream
                .push(&session.ticks[t % session.len()].observed)
                .expect("push");
        }
        stream.park().to_snapshot_bytes().len()
    };
    let (nh, c2) = (
        park_len(Strategy::NaiveHmm),
        park_len(Strategy::CorrelationConstraint),
    );
    assert!(nh <= 2 * c2, "an NH park is {nh} B against {c2} B for C2");
}

/// Bytes a coupled park may hold beyond [`RECORD_BYTES`] per record and
/// survivor: the candidate tuples of its window, its cursor and counters
/// (at most 1.7 KB on the CASAS session below).
const PARK_BASE: usize = 4096;
/// Largest encoding of one joint record or survivor, in bytes: a few
/// varint ids, plus a survivor's raw 8-byte score.
const RECORD_BYTES: usize = 24;

/// A C2 model trained on a small CASAS corpus, and the tick inputs of
/// one of its test sessions: 120 ticks with an ambiguous stretch.
fn casas_session() -> (CoupledHdbn, Vec<cace::hdbn::TickInput>) {
    use cace::behavior::session::train_test_split;
    use cace::behavior::{generate_casas_dataset, CasasConfig};
    use cace::core::CaceEngine;
    use std::sync::Arc;

    let cfg = CasasConfig {
        pairs: 2,
        sessions_per_pair: 2,
        ticks: 120,
        ..CasasConfig::default()
    };
    let (train, test) = train_test_split(generate_casas_dataset(&cfg, 5), 0.75);
    let engine = CaceEngine::train(&train, &CaceConfig::default()).expect("training");
    let inputs = engine.tick_inputs(&test[0]);
    let model = CoupledHdbn::from_shared(Arc::clone(engine.hdbn_params()));
    (model, inputs)
}

/// After an ambiguous CASAS stretch a coupled stream's head — its newest
/// window entry — holds exactly its last selection's survivors, plus the
/// frontier argmax and state 0, and its park grows with the records and
/// survivors it holds, not with the frontier they were selected from: a
/// park that held the frontier's fold (8 bytes per slot pair) breaks the
/// bound at the first calm tick after a wide one.
#[test]
fn coupled_head_holds_its_survivors_not_its_frontier() {
    use cace::hdbn::SurvivorSet;

    let (model, inputs) = casas_session();
    let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(10));
    let (mut widest, mut frontier) = (0, 0);
    for (t, input) in inputs.iter().enumerate() {
        online.push(input).expect("push");
        let survivors = online.survivors();
        let mut head: Vec<usize> = survivors.states().iter().map(|&j| j as usize).collect();
        head.extend([0, online.frontier_argmax().0]);
        head.sort_unstable();
        head.dedup();
        let window = online.window_states();
        assert_eq!(window.last(), Some(&head), "tick {t}: the head");
        let records: usize = window.iter().map(Vec::len).sum();
        let mut w = ByteWriter::new();
        online.park().encode_into(&mut w);
        let park = w.into_bytes().len();
        let bound = PARK_BASE + RECORD_BYTES * (records + survivors.len());
        assert!(
            park <= bound,
            "tick {t}: a {park} B park holds {records} records and {} survivors \
             of a {}-state frontier (bound {bound} B)",
            survivors.len(),
            survivors.n_states()
        );
        widest = widest.max(survivors.len());
        frontier = frontier.max(survivors.n_states());
    }
    assert!(
        widest >= 100 && frontier >= 10_000,
        "an ambiguous stretch: {widest} survivors, frontiers up to {frontier} states"
    );
}

/// The window holds only the live tree. After every push of a CASAS
/// session, at lag 10 and unbounded, every older entry holds exactly the
/// states the records of the entry after it name — so each of its
/// records lies on a backpointer chain out of the newest entry — and
/// every entry holds exactly the candidate tuples its records name. A
/// window that kept each entry's survivors once the step after it had
/// run fails at the first survivor no later record names.
#[test]
fn window_holds_only_the_live_tree() {
    use std::collections::BTreeSet;

    let (model, inputs) = casas_session();
    for lag in [Lag::Fixed(10), Lag::Unbounded] {
        let mut online = OnlineCoupledViterbi::new(model.clone(), lag);
        for (t, input) in inputs.iter().enumerate() {
            online.push(input).expect("push");
            let window = online.window();
            for (i, pair) in window.windows(2).enumerate() {
                let states: BTreeSet<u32> = pair[0].records.iter().map(|r| r.state).collect();
                let named: BTreeSet<u32> = pair[1].records.iter().map(|r| r.back).collect();
                assert_eq!(
                    states, named,
                    "{lag:?} tick {t}: window entry {i} against the states the next one names"
                );
            }
            for (i, entry) in window.iter().enumerate() {
                let named: BTreeSet<u32> = entry.records.iter().flat_map(|r| r.payload.1).collect();
                assert_eq!(
                    named,
                    (0..entry.items.len() as u32).collect(),
                    "{lag:?} tick {t}: window entry {i} against the items its records name"
                );
            }
        }
    }
}

/// The coupled step folds only the chain-1 rows of slot pairs a row bound
/// cannot rule out: on an ambiguous CASAS session at lag 10, the mean
/// share of rows folded per step stays at most twice the measured
/// [`ROWS_FOLDED`]. A bound that rules nothing out (say, one forced to
/// `+∞`) folds every row and fails here.
#[test]
fn coupled_steps_fold_few_chain1_rows() {
    let (model, inputs) = casas_session();
    let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(10));
    let mut shares = Vec::new();
    for input in &inputs {
        online.push(input).expect("push");
        if let Some([folded, rows]) = online.last_rows_folded() {
            assert!(folded <= rows && folded > 0, "{folded} of {rows} rows");
            shares.push(folded as f64 / rows as f64);
        }
    }
    assert_eq!(
        shares.len(),
        inputs.len() - 1,
        "one step per push after the first"
    );
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    assert!(
        mean <= 2.0 * ROWS_FOLDED,
        "steps folded {:.1}% of their chain-1 rows on average (measured {:.1}%)",
        100.0 * mean,
        100.0 * ROWS_FOLDED
    );
}

/// Mean share of chain-1 rows folded per step on [`casas_session`] at lag
/// 10, as measured when the row bound was introduced (27.5%; a session's
/// narrow ticks have few rows, so their share runs higher than the 16% of
/// servebench's `casas-decode`).
const ROWS_FOLDED: f64 = 0.275;
