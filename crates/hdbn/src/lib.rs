//! # cace-hdbn
//!
//! Hierarchical dynamic Bayesian networks: the paper's core inference
//! machinery.
//!
//! The model follows §IV–VI of the paper. Each resident has a two-level
//! chain — hidden macro activities over partially observed micro states —
//! with end-of-sequence markers `E` controlling the hierarchy (blocking and
//! termination constraints, Eqns 3–6) and four dependency *augmentations*:
//!
//! 1. `E` markers depend on the macro state and the micro-level marker
//!    (Eqn 7) — realized here through per-activity termination probabilities
//!    mined by the constraint miner.
//! 2. Macro states depend on their prior and the micro level below
//!    (Eqns 8–10) — the hierarchical `P(micro | macro)` CPTs.
//! 3. Transition CPTs switch between a continuation table and a restart
//!    prior according to the markers, and couple to the partner chain
//!    (Eqns 11–14) — the concurrent inter-user co-occurrence factor.
//! 4. Observations are Gaussian/classifier log-likelihoods attached to the
//!    micro level (Eqn 15) — supplied per candidate in [`TickInput`].
//!
//! Inference is exact joint Viterbi over the pruned candidate space, with
//! the coupled-chain transition factorized as
//! `max_{s1'} [f1 + max_{s2'} (V + f2)]`, which turns the naive
//! `O(|S|²)`-per-tick joint recursion into
//! `O(|S1||S2|(|S1|+|S2|))` — the implementation-level reason pruned
//! candidate sets translate into the paper's 16-fold overhead reduction.
//! The same recursion also runs *incrementally*: the [`online`] module
//! maintains the trellis frontier tick by tick with fixed-lag smoothing,
//! for run-time recognition on live sensor streams. On top of the
//! candidate-space pruning, every DP step is *dominance-pruned*: a
//! per-model bound proves most frontier states cannot win any destination,
//! and the step folds only the rest, with output bit-identical to the
//! full-frontier recursion — see [`dominance`]. The coupled decoders never
//! materialize their joint frontier: a step writes it per destination slot
//! pair ([`JointFrontier`]) and a state's score is evaluated when asked
//! for. Between pushes a stream keeps only the frontier's dominance
//! survivors ([`JointSurvivors`], [`Survivors`]) and its argmax.
//!
//! The hot path is memory-engineered on two axes. *Scoring*: every decoder
//! reads transition/emission factors from the dense precomputed
//! [`ScoreTables`] over compact `(activity, postural)` pair ids — flat
//! array loads, bit-identical to the naive [`HdbnParams`] scorers they are
//! built from ([`tables`]). *Allocation*: all step-kernel scratch lives in
//! a [`TrellisArena`] kept once per worker thread and shared by every
//! stream the thread pushes, so a warmed online push performs zero heap
//! allocations per tick ([`arena`]). The
//! kernels' inner loops are fixed-width folds the stable autovectorizer
//! turns into SIMD without reordering any arithmetic ([`scalar`]), so
//! every decode stays bit-identical to the naive scorers.
//!
//! The crate is deliberately index-based (runtime vocabulary sizes), so the
//! same machinery serves the 11-activity CACE and 15-activity CASAS
//! configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod beam;
pub mod dominance;
pub mod em;
pub mod forward;
pub mod input;
pub mod online;
pub mod params;
pub mod park;
pub mod scalar;
pub mod single;
pub mod tables;
pub mod trellis;
pub mod viterbi;
pub mod wire;

pub use arena::TrellisArena;
pub use beam::DecoderConfig;
pub use dominance::Dominance;
pub use em::{e_step, fit_em, fit_em_shared, DriftAccumulator, EmConfig, EmOutcome};
pub use forward::log_sum_exp;
pub use input::{MicroCandidate, TickInput};
pub use online::{Lag, OnlineCoupledViterbi, OnlineSingleViterbi, SmoothedChain, SmoothedJoint};
pub use params::{HdbnConfig, HdbnParams};
pub use park::{ParkedChain, ParkedCoupled, ParkedTrellis};
pub use single::SingleHdbn;
pub use tables::ScoreTables;
pub use trellis::{
    Dest, Frontier, HierModel, OnlineTrellis, PosteriorModel, Record, ScoreModel, StateSpace,
    SurvivorSet, Survivors, TrellisEntry, TrellisFamily,
};
#[cfg(feature = "testkit")]
pub use viterbi::{joint_step, joint_step_from, serve_joint_steps, JointStep, ServedStep};
pub use viterbi::{CoupledHdbn, JointFrontier, JointPath, JointSurvivors};
