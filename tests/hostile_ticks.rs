//! Hostile sensor ticks on the serving path.
//!
//! A wearable can deliver garbage: NaN or ±inf IMU samples, empty frames,
//! a missing modality. `StreamingRecognizer::push` must answer every such
//! tick with `Ok` or a defined `Err`, never a panic, under every strategy,
//! and the stream must still finish.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cace::behavior::ObservedTick;
use cace::core::{Lag, Strategy};
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

#[test]
fn hostile_imu_frames_never_panic_a_push() {
    let (train, test) = tiny_corpus(4, 40, 23);
    for strategy in [
        Strategy::CorrelationConstraint,
        Strategy::NaiveConstraint,
        Strategy::NaiveCorrelation,
        Strategy::NaiveHmm,
    ] {
        let engine = engine(&train, strategy);
        let mut stream = engine.stream(Lag::Fixed(3));
        for (t, tick) in test[0].ticks.iter().enumerate() {
            // Every other tick is clean, so hostile ticks land on warm
            // frontiers as well as on each other.
            let observed = if t % 2 == 0 {
                hostile(&tick.observed, t / 2)
            } else {
                tick.observed.clone()
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| stream.push(&observed)));
            assert!(
                outcome.is_ok(),
                "{strategy:?}: push of tick {t} (poison {}) panicked",
                (t / 2) % 6
            );
        }
        let finished = catch_unwind(AssertUnwindSafe(|| stream.finish()));
        assert!(finished.is_ok(), "{strategy:?}: finish panicked");
    }
}
