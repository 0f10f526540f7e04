//! # cace-core
//!
//! The CACE engine: the end-to-end context-processing pipeline of the
//! paper's Fig 2.
//!
//! 1. **Sensing planar** — simulated by [`cace_sensing`] /
//!    [`cace_behavior`].
//! 2. **Context planar** — frame features via [`cace_features`], micro
//!    classifiers (random forests) trained here ([`classifiers`]).
//! 3. **State-space creation** — per-tick candidate sets plus observation
//!    scores ([`statespace`]).
//! 4. **State-space reduction** — the pruning engine driven by mined (or
//!    initial) rules ([`cace_mining`], wired in [`engine`]).
//! 5. **Loosely-coupled HDBN** — [`cace_hdbn`] parameters from the
//!    constraint miner, optionally refined by EM.
//! 6. **Inference engine** — online Viterbi decoding with overhead
//!    accounting ([`stream`]), which consumes ticks as they arrive under a
//!    fixed lag and decodes whole sessions under an unbounded one, plus a
//!    rayon-parallel multi-session fan-out ([`batch`]) that shares the
//!    trained model read-only across cores and a [`ShardedRouter`] that
//!    multiplexes many concurrent homes.
//!
//! The four pruning strategies of §VII-G (NH, NCR, NCS, C2) are expressed
//! as [`Strategy`] values; Fig 8(a)'s modality ablations as
//! [`cace_model::StateMask`]s.
//!
//! ```no_run
//! use cace_behavior::{cace_grammar, generate_cace_dataset, SessionConfig};
//! use cace_core::{CaceConfig, CaceEngine};
//!
//! let grammar = cace_grammar();
//! let sessions = generate_cace_dataset(&grammar, 1, 3, &SessionConfig::tiny(), 7);
//! let (train, test) = cace_behavior::session::train_test_split(sessions, 0.67);
//! let engine = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
//! let recognition = engine.recognize(&test[0]).unwrap();
//! assert_eq!(recognition.macros[0].len(), test[0].len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod classifiers;
pub mod engine;
pub mod evidence;
mod nh;
pub mod router;
pub mod snapshot;
pub mod statespace;
pub mod strategy;
pub mod stream;
pub mod transactions;

pub use batch::BatchReport;
pub use cace_hdbn::{DecoderConfig, Lag};
pub use classifiers::MicroClassifiers;
pub use engine::{CaceConfig, CaceEngine, Recognition};
pub use router::{
    AdaptationPolicy, HomeRound, HomeStatus, RouterStats, ShardStats, ShardedRouter, DEFAULT_SHARDS,
};
pub use snapshot::ModelRecord;
pub use strategy::Strategy;
pub use stream::{
    resume_shared, stream_session, stream_shared, ParkedStream, StreamDecision, StreamTail,
    StreamingRecognizer,
};
