//! The traced layer replay: one pass of every home through its session,
//! with each layer's call timed on its own.
//!
//! A fresh router and one dedicated recognizer per home take the same
//! full rounds. After warm-up, each router round is a span on the
//! workload's worker threads, and each dedicated push of that round is a
//! child span on one thread, so the router's self time is what its rounds
//! cost beyond the pushes they carry. The layers under a push are then
//! replayed one by one on the same ticks, on one thread, with the
//! allocator counting:
//!
//! * `features`: `extract_tick`, a child of the push of the same tick;
//! * `prepare.tick_inputs` with child `prepare.extract_session`: the batch
//!   preparation of the session minus its feature extraction;
//! * `hdbn.step`: `OnlineCoupledViterbi::push` over those tick inputs,
//!   warmed, a child of the push of the same tick;
//! * `park.encode` / `park.decode`: a live stream's checkpoint to snapshot
//!   bytes and back to a live stream.

use std::hint::black_box;
use std::sync::Arc;

use cace_behavior::Session;
use cace_core::{resume_shared, stream_shared, CaceEngine, HomeRound, Lag, ParkedStream};
use cace_features::{extract_session, extract_tick};
use cace_hdbn::{CoupledHdbn, OnlineCoupledViterbi};

use crate::serve::{full_round, new_router};
use crate::trace::{SpanKey, Tracer, NO_TICK};
use crate::workload::Spec;

/// Counts the replay makes itself (the rest comes from spans).
pub struct Replay {
    pub pushes: u64,
    /// Pushes whose router decision differs from the dedicated one.
    pub mismatches: u64,
    /// Ticks whose preparation the `prepare.*` spans cover.
    pub prepared_ticks: u64,
    pub frontier_states_per_tick: f64,
    pub rules_fired_per_tick: f64,
    pub bytes_per_home: f64,
}

/// Parks every home at least this many times, so small fleets still give
/// the codec enough samples.
const MIN_PARKS: usize = 256;

pub fn replay(
    spec: &Spec,
    engine: &Arc<CaceEngine>,
    sessions: &[Session],
    workers: usize,
    tracer: &mut Tracer,
) -> Replay {
    let homes = spec.replay_homes.min(sessions.len());
    let sessions = &sessions[..homes];
    let len = spec.loop_ticks;
    let lag = Lag::Fixed(spec.lag);
    // Warm past one full pass, so every buffer has seen its largest tick.
    let warm = len + spec.lag + 2;
    let mut router = new_router(spec, engine, homes);
    let mut streams: Vec<_> = (0..homes).map(|_| stream_shared(engine, lag)).collect();
    let mut cursors = vec![0usize; homes];
    let mut mismatches = 0u64;
    let mut pushes = 0u64;
    let mut compare = |routed: &HomeRound, dedicated: Option<cace_core::StreamDecision>| {
        pushes += 1;
        let same = matches!(routed, HomeRound::Advanced(d) if *d == dedicated);
        mismatches += u64::from(!same);
    };

    for _ in 0..warm {
        let round = full_round(sessions, &mut cursors);
        let outcomes = router.push_round(&round).expect("every home is routed");
        for ((home, tick), routed) in round.iter().zip(&outcomes) {
            let dedicated = streams[*home as usize].push(tick).expect("dedicated push");
            compare(routed, dedicated);
        }
    }

    // push_span[home * len + r] = the dedicated push of tick `warm + r`.
    let mut push_span = vec![0u32; homes * len];
    for r in 0..len {
        let tick = (warm + r) as u32;
        let round = full_round(sessions, &mut cursors);
        let key = SpanKey::root(NO_TICK, tick).on_threads(workers);
        let (round_id, outcomes) =
            tracer.time("router.round", key, false, || router.push_round(&round));
        let outcomes = outcomes.expect("every home is routed");
        for ((home, obs), routed) in round.iter().zip(&outcomes) {
            let h = *home as usize;
            let key = SpanKey::child(round_id, h as u32, tick);
            let (id, dedicated) = tracer.time("stream.push", key, true, || streams[h].push(obs));
            push_span[h * len + r] = id;
            compare(routed, dedicated.expect("dedicated push"));
        }
    }

    for (h, session) in sessions.iter().enumerate() {
        for r in 0..len {
            let obs = &session.ticks[(warm + r) % len].observed;
            let key = SpanKey::child(push_span[h * len + r], h as u32, (warm + r) as u32);
            tracer.time("features", key, true, || {
                black_box(extract_tick(black_box(obs)))
            });
        }
    }

    let decoder = CoupledHdbn::from_shared(Arc::clone(engine.hdbn_params()))
        .with_decoder(engine.config().decoder);
    let n_macro = engine.n_macro();
    let (mut frontier, mut prepared_ticks) = (0u64, 0u64);
    for (h, session) in sessions.iter().enumerate() {
        let key = SpanKey::root(h as u32, NO_TICK);
        let (prep_id, inputs) = tracer.time("prepare.tick_inputs", key, true, || {
            engine.tick_inputs(session)
        });
        let key = SpanKey::child(prep_id, h as u32, NO_TICK);
        tracer.time("prepare.extract_session", key, true, || {
            black_box(extract_session(session))
        });
        prepared_ticks += inputs.len() as u64;

        let mut online = OnlineCoupledViterbi::new(decoder.clone(), lag);
        online.reserve_ticks(warm + len + 1);
        for t in 0..warm {
            online.push(&inputs[t % len]).expect("warm-up step");
        }
        for r in 0..len {
            let input = &inputs[(warm + r) % len];
            frontier += input.joint_states(n_macro);
            let key = SpanKey::child(push_span[h * len + r], h as u32, (warm + r) as u32);
            let (_, step) = tracer.time("hdbn.step", key, true, || online.push(black_box(input)));
            black_box(step.expect("trellis step"));
        }
    }

    let reps = MIN_PARKS.div_ceil(homes);
    let mut bytes = 0usize;
    for _ in 0..reps {
        for (h, stream) in streams.iter().enumerate() {
            let key = SpanKey::root(h as u32, stream.ticks_pushed() as u32);
            let (_, parked) = tracer.time("park.encode", key, true, || {
                stream.park().to_snapshot_bytes()
            });
            bytes += parked.len();
            let (_, resumed) = tracer.time("park.decode", key, true, || {
                ParkedStream::from_snapshot_any(&parked).and_then(|p| resume_shared(engine, &p))
            });
            assert_eq!(
                resumed.expect("a fresh checkpoint resumes").ticks_pushed(),
                stream.ticks_pushed()
            );
        }
    }

    let total_pushed: usize = streams.iter().map(|s| s.ticks_pushed()).sum();
    let rules_fired: u64 = streams
        .into_iter()
        .map(|s| s.finish().expect("a pushed stream finishes").rules_fired)
        .sum();
    let homes_ticks = (homes * len) as f64;
    Replay {
        pushes,
        mismatches,
        prepared_ticks,
        frontier_states_per_tick: frontier as f64 / homes_ticks,
        rules_fired_per_tick: rules_fired as f64 / total_pushed as f64,
        bytes_per_home: bytes as f64 / (reps * homes) as f64,
    }
}
