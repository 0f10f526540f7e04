//! The workloads and the inputs each is generated from.
//!
//! Every home gets its own session, generated from the workload seed and
//! the home id, so no two homes in a round share an observation. Sessions
//! are short and a home replays its own session cyclically: a tick carries
//! four 75-sample IMU frames (about 22 KB), and a session per home long
//! enough for a whole run would not fit in memory at fleet size.
//!
//! The served models are trained on fixed corpora (a deployed model does
//! not change with the traffic); only the homes' traffic follows the seed.

use std::sync::Arc;

use cace_behavior::session::train_test_split;
use cace_behavior::{
    cace_grammar, generate_cace_dataset, generate_casas_dataset, simulate_session, CasasConfig,
    Session, SessionConfig,
};
use cace_core::{CaceConfig, CaceEngine, DecoderConfig, Strategy};

/// Shards of every router: the serving tier's default grid.
pub const SHARDS: usize = 8;
/// The model id every home is served under.
pub const MODEL: &str = "cace";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// The tiny CACE-sim vocabulary: 11 activities, phone and neck tag.
    Cace,
    /// The CASAS-style vocabulary of the fig9 corpus: 15 activities, phone
    /// only, sub-location and item sensors.
    Casas,
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub corpus: Corpus,
    pub homes: usize,
    /// Length of each home's own session, replayed cyclically.
    pub loop_ticks: usize,
    /// Fixed smoothing lag of every home's stream.
    pub lag: usize,
    /// Homes the traced layer replay drives (the first ones by id).
    pub replay_homes: usize,
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "fleet-live",
        corpus: Corpus::Cace,
        homes: 1000,
        loop_ticks: 20,
        lag: 6,
        replay_homes: 1000,
    },
    Spec {
        name: "casas-decode",
        corpus: Corpus::Casas,
        // Many short sessions rather than a few long ones: a CASAS tick's
        // trellis cost is heavy-tailed, and with few homes a single home
        // whose session sits in a wide joint activity holds more than 1%
        // of all ticks and decides the p99 on its own.
        homes: 256,
        loop_ticks: 100,
        lag: 10,
        replay_homes: 32,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// SplitMix64 of `a` combined with `b`: decorrelated per-home seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The serving configuration: C2 with the exact f64 decoder.
pub fn engine_config() -> CaceConfig {
    CaceConfig::default()
        .with_strategy(Strategy::CorrelationConstraint)
        .with_decoder(DecoderConfig::exact())
}

/// The fixed training corpus of a workload's model.
pub fn training_corpus(corpus: Corpus) -> Vec<Session> {
    match corpus {
        Corpus::Cace => {
            let data = generate_cace_dataset(
                &cace_grammar(),
                1,
                6,
                &SessionConfig::tiny().with_ticks(60),
                4117,
            );
            train_test_split(data, 0.75).0
        }
        Corpus::Casas => {
            let cfg = CasasConfig {
                pairs: 4,
                sessions_per_pair: 2,
                ticks: 200,
                ..CasasConfig::default()
            };
            train_test_split(generate_casas_dataset(&cfg, 9002), 0.8).0
        }
    }
}

/// Trains a workload's model.
pub fn train(train: &[Session]) -> Arc<CaceEngine> {
    Arc::new(CaceEngine::train(train, &engine_config()).expect("training on simulated data"))
}

/// Home `home`'s own session under workload seed `seed`, rotated to start
/// at tick `home % loop_ticks`.
///
/// Every home is driven the same number of ticks, so without the rotation
/// all homes would sit at the same position of their sessions at once.
/// Generated sessions share their shape (every CASAS session has a stretch
/// of ticks that cost a third of the usual), so every round and every
/// latency slice would carry one position's cost, and a run's figures
/// would depend on which positions its timed phases covered.
pub fn home_session(spec: &Spec, seed: u64, home: usize) -> Session {
    let session_seed = mix(seed, home as u64);
    let mut session = match spec.corpus {
        Corpus::Cace => simulate_session(
            &cace_grammar(),
            &SessionConfig::tiny()
                .with_ticks(spec.loop_ticks)
                .with_home(home as u32 + 1),
            session_seed,
        ),
        Corpus::Casas => {
            let cfg = CasasConfig {
                pairs: 1,
                sessions_per_pair: 1,
                ticks: spec.loop_ticks,
                ..CasasConfig::default()
            };
            generate_casas_dataset(&cfg, session_seed)
                .pop()
                .expect("one CASAS session per home")
        }
    };
    let start = home % session.len();
    session.ticks.rotate_left(start);
    session
}

/// Every home's session, generated on `threads` threads.
pub fn home_sessions(spec: &Spec, seed: u64, threads: usize) -> Vec<Session> {
    let chunk = spec.homes.div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..spec.homes)
            .step_by(chunk)
            .map(|lo| {
                let hi = (lo + chunk).min(spec.homes);
                scope.spawn(move || {
                    (lo..hi)
                        .map(|h| home_session(spec, seed, h))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("session generator panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_follow_the_seed_and_differ_between_homes() {
        let spec = &WORKLOADS[0];
        let a = home_session(spec, 3, 0);
        assert_eq!(a.len(), spec.loop_ticks);
        assert_eq!(a, home_session(spec, 3, 0));
        assert_ne!(
            a.ticks[0].observed,
            home_session(spec, 3, 1).ticks[0].observed
        );
        assert_ne!(
            a.ticks[0].observed,
            home_session(spec, 4, 0).ticks[0].observed
        );
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, s) in WORKLOADS.iter().enumerate() {
            assert_eq!(spec(s.name).map(|f| f.name), Some(s.name));
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != s.name));
        }
        assert!(spec("router-scale").is_none());
    }
}
