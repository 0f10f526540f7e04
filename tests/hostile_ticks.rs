//! Hostile sensor ticks on the serving path.
//!
//! A wearable can deliver garbage: NaN or ±inf IMU samples, empty frames,
//! a missing modality — or a tick can carry no sensor data at all.
//! `StreamingRecognizer::push` must answer every such tick with `Ok` or a
//! defined `Err`, never a panic, under every strategy, and the stream must
//! still finish.
//!
//! After every hostile push the stream is also parked and resumed. Resume
//! validates the parked frontier and rejects a NaN score, so a passing
//! round trip shows the frontier stayed NaN-free — the invariant the
//! decoders' frontier argmax relies on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cace::behavior::{ObservedTick, UserObservation};
use cace::core::{CaceEngine, Lag, ParkedStream, Strategy, StreamingRecognizer};
use cace::model::Room;
use cace::sensing::ObjectKind;
use cace::signal::trajectory::ImuSample;
use cace_testkit::{engine, tiny_corpus};

/// Damages one IMU frame in the way selected by `kind`.
fn poison(frame: &mut Vec<ImuSample>, kind: usize) {
    let mid = frame.len() / 2;
    match kind {
        0 if !frame.is_empty() => frame[mid].accel.x = f64::NAN,
        1 if !frame.is_empty() => frame[mid].accel.z = f64::INFINITY,
        2 if !frame.is_empty() => frame[mid].accel.y = f64::NEG_INFINITY,
        3 => frame.iter_mut().for_each(|s| s.accel.x = f64::NAN),
        4 => frame.iter_mut().for_each(|s| {
            s.accel.x = f64::INFINITY;
            s.accel.y = f64::NEG_INFINITY;
        }),
        _ => frame.clear(),
    }
}

/// The tick with every present IMU frame damaged by `kind`.
fn hostile(observed: &ObservedTick, kind: usize) -> ObservedTick {
    let mut out = observed.clone();
    for user in &mut out.per_user {
        for frame in [&mut user.phone, &mut user.tag].into_iter().flatten() {
            poison(frame, kind % 6);
        }
    }
    out
}

/// A tick with every modality missing: no PIR or sub-location motion,
/// no item or object firings, no beacons, no IMU frames.
fn blank() -> ObservedTick {
    ObservedTick {
        room_motion: [false; Room::COUNT],
        subloc_motion: None,
        items: None,
        objects: [false; ObjectKind::COUNT],
        per_user: [UserObservation::default(), UserObservation::default()],
    }
}

/// Parks `stream` in the binary kind the router uses and resumes it.
///
/// # Panics
/// Panics with `what` if the snapshot does not reload or resume — which
/// is how a NaN frontier would show.
fn park_cycle<'e>(
    engine: &'e CaceEngine,
    stream: &StreamingRecognizer<'e>,
    what: &str,
) -> StreamingRecognizer<'e> {
    let bytes = stream.park().to_snapshot_bytes();
    let parked = ParkedStream::from_snapshot_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{what}: parked bytes do not reload: {e}"));
    engine
        .resume(&parked)
        .unwrap_or_else(|e| panic!("{what}: parked stream does not resume: {e}"))
}

/// Streams `ticks` through a fresh stream of `engine`, replacing tick `t`
/// by `damage(t, tick)` when it returns `Some`. Every push and the finish
/// must not panic, and the stream must park and resume after every
/// damaged push.
fn drive(
    engine: &CaceEngine,
    ticks: &[ObservedTick],
    label: &str,
    damage: impl Fn(usize, &ObservedTick) -> Option<ObservedTick>,
) {
    let mut stream = engine.stream(Lag::Fixed(3));
    for (t, tick) in ticks.iter().enumerate() {
        let damaged = damage(t, tick);
        let observed = damaged.as_ref().unwrap_or(tick);
        let outcome = catch_unwind(AssertUnwindSafe(|| stream.push(observed)));
        assert!(outcome.is_ok(), "{label}: push of tick {t} panicked");
        if damaged.is_some() {
            stream = park_cycle(engine, &stream, &format!("{label}: after tick {t}"));
        }
    }
    let finished = catch_unwind(AssertUnwindSafe(|| stream.finish()));
    assert!(finished.is_ok(), "{label}: finish panicked");
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::CorrelationConstraint,
    Strategy::NaiveConstraint,
    Strategy::NaiveCorrelation,
    Strategy::NaiveHmm,
];

#[test]
fn hostile_imu_frames_never_panic_a_push() {
    let (train, test) = tiny_corpus(4, 40, 23);
    let ticks: Vec<ObservedTick> = test[0].ticks.iter().map(|t| t.observed.clone()).collect();
    for strategy in STRATEGIES {
        let engine = engine(&train, strategy);
        // Every other tick is clean, so hostile ticks land on warm
        // frontiers as well as on each other.
        drive(&engine, &ticks, &format!("{strategy:?}"), |t, tick| {
            (t % 2 == 0).then(|| hostile(tick, t / 2))
        });
    }
}

#[test]
fn ticks_with_every_modality_missing_never_panic_a_push() {
    let (train, test) = tiny_corpus(4, 40, 29);
    let ticks: Vec<ObservedTick> = test[0].ticks.iter().map(|t| t.observed.clone()).collect();
    for strategy in STRATEGIES {
        let engine = engine(&train, strategy);
        // A blank first tick initializes the frontier from no evidence; a
        // run of blanks follows it, then blanks interleave with clean
        // ticks so they also land on warm frontiers.
        drive(&engine, &ticks, &format!("{strategy:?} blank"), |t, _| {
            (t < 3 || t % 3 == 0).then(blank)
        });
        // A stream of nothing but blank ticks.
        drive(
            &engine,
            &ticks,
            &format!("{strategy:?} all blank"),
            |_, _| Some(blank()),
        );
    }
}
