//! Streaming (run-time) recognition: consume sensor ticks as they arrive.
//!
//! A [`StreamingRecognizer`] is the engine's one decoder. Each
//! [`push`](StreamingRecognizer::push) extracts the tick's wearable
//! features, runs the per-tick preparation pipeline
//! ([`TickPreparer`](crate::statespace::TickPreparer)), and advances an
//! online fixed-lag Viterbi frontier ([`cace_hdbn::online`]) by one DP
//! step — constant decoding work per tick, a backpointer window bounded at
//! `lag + 1` ticks, no re-decoding of the growing prefix. A fixed-lag
//! stream's state, live or parked, does not grow with its age: decisions
//! already emitted belong to the caller, and
//! [`finish`](StreamingRecognizer::finish) returns only the ticks still
//! unresolved, as a [`StreamTail`]. A caller that wants the session-level
//! [`Recognition`] keeps its emitted decisions and hands them to
//! [`StreamTail::into_recognition`] ([`stream_session`] does exactly that).
//!
//! The smoothing [`Lag`] trades latency for accuracy: `Lag::Fixed(0)` is
//! greedy filtering, larger lags converge on the whole-session answer, and
//! [`Lag::Unbounded`] (or any lag at least the stream length) emits
//! nothing mid-stream, so the tail is the whole session decoded by exact
//! Viterbi. [`CaceEngine::recognize`] is exactly that: the session pushed
//! through an unbounded stream. A fixed lag at least the session length
//! gives the same [`Recognition`] bit for bit — same macros, same
//! `states_explored`, same `transition_ops`, same `rules_fired`, same
//! `mean_joint_size` — for every strategy (NH, NCR, NCS, C2);
//! `tests/streaming_equivalence.rs` asserts this, and the engine-level
//! differentials check the decode against independent naive Viterbi
//! references.
//!
//! A live stream can also be **parked**: [`StreamingRecognizer::park`]
//! captures the trellis frontier's survivors, backpointer window, decision
//! cursor and overhead counters into a serializable [`ParkedStream`], and
//! [`CaceEngine::resume`] (or [`resume_shared`]) rehydrates it mid-stream
//! with a **bit-identical** continuation — same decisions, same overhead
//! accounting, same [`finish`](StreamingRecognizer::finish) result — for
//! every strategy. Resume is panic-free: a
//! tampered or mismatched checkpoint is rejected with
//! [`ModelError::Persistence`]. The sharded serving tier
//! ([`crate::router`]) is built on exactly this park/rehydrate cycle.
//!
//! Park/resume also powers **online adaptation**: a checkpoint records the
//! fingerprint of the model it was taken under, resume refuses a
//! different model unless the checkpoint is explicitly re-targeted
//! ([`ParkedStream::migrated_to`]), and
//! [`StreamingRecognizer::swap_model`] composes park → migrate → resume
//! into an atomic in-place hot swap at a decision boundary. Opt-in drift
//! capture ([`StreamingRecognizer::capture_drift`]) buffers decoded tick
//! inputs into windows for the incremental EM loop
//! ([`cace_hdbn::DriftAccumulator`]).
//!
//! The [`ShardedRouter`](crate::ShardedRouter) multiplexes many
//! concurrent homes over rayon: one recognizer per home, one parallel
//! fan-out per arriving round of ticks.
//!
//! ```no_run
//! use cace_behavior::{cace_grammar, generate_cace_dataset, SessionConfig};
//! use cace_core::{CaceConfig, CaceEngine, Lag};
//!
//! let sessions = generate_cace_dataset(&cace_grammar(), 1, 3, &SessionConfig::tiny(), 7);
//! let engine = CaceEngine::train(&sessions[..2], &CaceConfig::default()).unwrap();
//! let mut stream = engine.stream(Lag::Fixed(5));
//! let mut decisions = Vec::new();
//! for tick in &sessions[2].ticks {
//!     if let Some(decision) = stream.push(&tick.observed).unwrap() {
//!         println!("tick {}: users doing {:?}", decision.tick, decision.macros);
//!         decisions.push(decision);
//!     }
//! }
//! let tail = stream.finish().unwrap(); // the last 5 ticks
//! let recognition = tail.into_recognition(&decisions); // the whole session
//! # let _ = recognition;
//! ```

use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use cace_behavior::{ObservedTick, Session};
use cace_features::extract_tick;
use cace_hdbn::{
    CoupledHdbn, Lag, OnlineCoupledViterbi, OnlineSingleViterbi, ParkedChain, ParkedCoupled,
    SingleHdbn, TickInput,
};
use cace_model::ModelError;

use crate::engine::{CaceEngine, Recognition};
use crate::evidence::PrevState;
use crate::nh::{OnlineFlat, ParkedFlat};
use crate::statespace::PreparedTick;
use crate::strategy::Strategy;

fn park_err(what: impl Into<String>) -> ModelError {
    ModelError::Persistence { what: what.into() }
}

/// A smoothed per-tick decision emitted mid-stream (fixed lag only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDecision {
    /// The tick index this decision is for (`ticks pushed - 1 - lag`).
    pub tick: usize,
    /// Decoded macro activity per user.
    pub macros: [usize; 2],
}

/// What [`StreamingRecognizer::finish`] returns: the decisions for the
/// ticks the stream had not yet emitted, plus the session's counters. A
/// [`Recognition`] covers a whole session;
/// [`into_recognition`](Self::into_recognition) builds one.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTail {
    /// Decisions for the unemitted ticks, in order: none under
    /// `Lag::Fixed(0)`, the whole session under [`Lag::Unbounded`].
    pub decisions: Vec<StreamDecision>,
    /// Σ joint states instantiated over the session (overhead metric 1).
    pub states_explored: u64,
    /// Σ transition evaluations over the session (overhead metric 2).
    pub transition_ops: u64,
    /// Wall-clock seconds the stream spent in recognition.
    pub wall_seconds: f64,
    /// Mean per-tick joint candidate-space size after pruning.
    pub mean_joint_size: f64,
    /// Total rule firings during pruning.
    pub rules_fired: u64,
    /// Ticks the stream consumed.
    pushed: usize,
}

impl StreamTail {
    /// The session-level [`Recognition`]: `emitted`, the decisions the
    /// stream's pushes returned, followed by this tail.
    ///
    /// # Panics
    /// Panics unless `emitted` holds exactly the stream's decisions for
    /// ticks `0..committed`, in order — the ones this tail does not.
    pub fn into_recognition(self, emitted: &[StreamDecision]) -> Recognition {
        let path: Vec<&StreamDecision> = emitted.iter().chain(&self.decisions).collect();
        assert!(
            path.len() == self.pushed && path.iter().enumerate().all(|(t, d)| d.tick == t),
            "emitted decisions must be exactly ticks 0..committed, in order"
        );
        Recognition {
            macros: [0, 1].map(|u| path.iter().map(|d| d.macros[u]).collect()),
            states_explored: self.states_explored,
            transition_ops: self.transition_ops,
            wall_seconds: self.wall_seconds,
            mean_joint_size: self.mean_joint_size,
            rules_fired: self.rules_fired,
        }
    }
}

/// The per-strategy online decoder state.
// One value per stream, so the size spread between the arena-backed
// hierarchical decoders and the flat NH frontier costs nothing per tick.
#[allow(clippy::large_enum_variant)]
enum Decoder {
    /// NH: one flat product frontier per user.
    Nh([OnlineFlat; 2]),
    /// NCR: one hierarchical chain frontier per user.
    Single([OnlineSingleViterbi; 2]),
    /// NCS / C2: the coupled joint frontier.
    Coupled(OnlineCoupledViterbi),
}

/// How a stream holds its engine: borrowed for the single-owner case,
/// [`Arc`]-shared for the serving tier, where a rehydrated stream must not
/// borrow from any particular caller frame.
enum EngineRef<'a> {
    Borrowed(&'a CaceEngine),
    Shared(Arc<CaceEngine>),
}

impl Deref for EngineRef<'_> {
    type Target = CaceEngine;
    fn deref(&self) -> &CaceEngine {
        match self {
            EngineRef::Borrowed(e) => e,
            EngineRef::Shared(e) => e,
        }
    }
}

/// Opt-in side buffer for online adaptation: the prepared tick inputs of
/// a live stream, collected into fixed-size windows that a
/// [`DriftAccumulator`](cace_hdbn::DriftAccumulator) later folds into
/// expected counts. Strictly observational — capturing never changes a
/// decision, a counter, or the decode path's allocation profile when
/// disabled (the default).
struct DriftBuffer {
    window_ticks: usize,
    pending: Vec<TickInput>,
    completed: Vec<Vec<TickInput>>,
}

/// Incremental recognition over one home's tick stream.
///
/// Create with [`CaceEngine::stream`] (or [`stream_shared`] for a
/// `'static` stream over an [`Arc`]-held engine); see the
/// [module docs](self) for the equivalence guarantees and an example.
pub struct StreamingRecognizer<'a> {
    engine: EngineRef<'a>,
    lag: Lag,
    decoder: Decoder,
    prev: [PrevState; 2],
    /// The tick each push prepares into, reused so a warmed push
    /// allocates nothing.
    prepared: PreparedTick,
    pushed: usize,
    /// Drift-capture buffer; `None` (the default) costs nothing per push.
    drift: Option<Box<DriftBuffer>>,
    /// Running Σ per-tick joint sizes (as f64, in push order — the same
    /// accumulation `recognize` performs over its collected vector).
    joint_size_sum: f64,
    rules_fired: u64,
    /// √joint-states of the previous tick (NCR transition accounting).
    ncr_prev_sqrt: u64,
    ncr_ops: u64,
    wall_seconds: f64,
    /// Fault injection: fail the push of this tick index. The mining
    /// layer's never-empty-a-dimension guards make an organic decode
    /// failure unreachable from a well-formed engine, so the router's
    /// failure containment is exercised through this hook.
    #[cfg(test)]
    pub(crate) poison_tick: Option<usize>,
}

/// Builds the per-strategy decoder state for a fresh stream.
fn fresh_decoder(engine: &CaceEngine, lag: Lag) -> Decoder {
    match engine.config.strategy {
        Strategy::NaiveHmm => Decoder::Nh([OnlineFlat::new(lag), OnlineFlat::new(lag)]),
        Strategy::NaiveCorrelation => {
            let model = SingleHdbn::from_shared(Arc::clone(&engine.params));
            Decoder::Single([
                OnlineSingleViterbi::new(model.clone(), 0, lag),
                OnlineSingleViterbi::new(model, 1, lag),
            ])
        }
        Strategy::NaiveConstraint | Strategy::CorrelationConstraint => {
            let model = CoupledHdbn::from_shared(Arc::clone(&engine.params));
            Decoder::Coupled(OnlineCoupledViterbi::new(model, lag))
        }
    }
}

fn fresh_stream(engine: EngineRef<'_>, lag: Lag) -> StreamingRecognizer<'_> {
    let decoder = fresh_decoder(&engine, lag);
    StreamingRecognizer {
        engine,
        lag,
        decoder,
        prev: [PrevState::default(), PrevState::default()],
        prepared: PreparedTick::default(),
        pushed: 0,
        drift: None,
        joint_size_sum: 0.0,
        rules_fired: 0,
        ncr_prev_sqrt: 0,
        ncr_ops: 0,
        wall_seconds: 0.0,
        #[cfg(test)]
        poison_tick: None,
    }
}

/// Rehydrates a parked stream against `engine`, validating everything the
/// resumed decoder would read before touching any frontier.
fn resume_impl<'a>(
    engine: EngineRef<'a>,
    parked: &ParkedStream,
) -> Result<StreamingRecognizer<'a>, ModelError> {
    let e: &CaceEngine = &engine;
    if parked.strategy != e.config.strategy {
        return Err(park_err(format!(
            "parked stream was recorded under strategy {:?}, engine runs {:?}",
            parked.strategy, e.config.strategy
        )));
    }
    // Model identity gate: a checkpoint silently resumed under different
    // parameters would continue with a *valid-looking but wrong* frontier
    // (every structural check below could still pass). Version moves are
    // legal only through the explicit [`ParkedStream::migrated_to`]
    // hand-off, which is how the hot-swap layer states its intent.
    if parked.model_fp != e.params.fingerprint() {
        return Err(park_err(format!(
            "parked stream was checkpointed under model {:016x}, engine serves {:016x}; \
             resume it under the original model or migrate explicitly \
             (ParkedStream::migrated_to)",
            parked.model_fp,
            e.params.fingerprint()
        )));
    }
    for (u, p) in parked.prev.iter().enumerate() {
        if p.macro_id.is_some_and(|m| m >= e.space.n_macro) {
            return Err(park_err(format!(
                "parked stream: user {u} lag-1 macro out of range"
            )));
        }
        if p.location.is_some_and(|l| l >= e.space.n_location) {
            return Err(park_err(format!(
                "parked stream: user {u} lag-1 location out of range"
            )));
        }
    }
    let counter_ok = |x: f64| x.is_finite() && x >= 0.0;
    if !counter_ok(parked.joint_size_sum) || !counter_ok(parked.wall_seconds) {
        return Err(park_err(
            "parked stream: non-finite or negative overhead accounting",
        ));
    }
    // A tick's joint-state count is a `usize`, so its square root is at
    // most 2^32.
    if parked.ncr_prev_sqrt > 1 << 32 {
        return Err(park_err(
            "parked stream: NCR previous-tick state count out of range",
        ));
    }
    let cursor_err = || park_err("parked stream: decoder tick count disagrees with the cursor");
    let decoder = match (&parked.state, e.config.strategy) {
        (ParkedDecoder::Nh(flats), Strategy::NaiveHmm) => {
            if flats.iter().any(|f| f.ticks_pushed() != parked.pushed) {
                return Err(cursor_err());
            }
            Decoder::Nh([
                OnlineFlat::resume(&e.nh_log_trans, parked.lag, &flats[0])?,
                OnlineFlat::resume(&e.nh_log_trans, parked.lag, &flats[1])?,
            ])
        }
        (ParkedDecoder::Single(chains), Strategy::NaiveCorrelation) => {
            if chains.iter().any(|c| c.ticks_pushed() != parked.pushed) {
                return Err(cursor_err());
            }
            let model = SingleHdbn::from_shared(Arc::clone(&e.params));
            Decoder::Single([
                OnlineSingleViterbi::resume(model.clone(), 0, parked.lag, &chains[0])?,
                OnlineSingleViterbi::resume(model, 1, parked.lag, &chains[1])?,
            ])
        }
        (
            ParkedDecoder::Coupled(coupled),
            Strategy::NaiveConstraint | Strategy::CorrelationConstraint,
        ) => {
            if coupled.ticks_pushed() != parked.pushed {
                return Err(cursor_err());
            }
            let model = CoupledHdbn::from_shared(Arc::clone(&e.params));
            Decoder::Coupled(OnlineCoupledViterbi::resume(model, parked.lag, coupled)?)
        }
        _ => {
            return Err(park_err(
                "parked stream: decoder state does not match the recorded strategy",
            ))
        }
    };
    Ok(StreamingRecognizer {
        engine,
        lag: parked.lag,
        decoder,
        prev: parked.prev,
        prepared: PreparedTick::default(),
        pushed: parked.pushed,
        drift: None,
        joint_size_sum: parked.joint_size_sum,
        rules_fired: parked.rules_fired,
        ncr_prev_sqrt: parked.ncr_prev_sqrt,
        ncr_ops: parked.ncr_ops,
        wall_seconds: parked.wall_seconds,
        #[cfg(test)]
        poison_tick: None,
    })
}

impl CaceEngine {
    /// Opens a streaming recognizer against this trained engine.
    ///
    /// Many recognizers may stream concurrently against one engine: the
    /// engine is only read, and the HDBN parameters are `Arc`-shared into
    /// each decoder frontier.
    pub fn stream(&self, lag: Lag) -> StreamingRecognizer<'_> {
        fresh_stream(EngineRef::Borrowed(self), lag)
    }

    /// Rehydrates a [`ParkedStream`] into a live recognizer that continues
    /// **bit-identically** to the stream that was parked: the same
    /// decisions, the same overhead accounting, the same
    /// [`finish`](StreamingRecognizer::finish) result.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] when the parked state was recorded
    /// under a different strategy, or is structurally inconsistent
    /// (tampered) — resume never panics on bad bytes.
    pub fn resume(&self, parked: &ParkedStream) -> Result<StreamingRecognizer<'_>, ModelError> {
        resume_impl(EngineRef::Borrowed(self), parked)
    }
}

/// Opens a stream that shares ownership of an [`Arc`]-held engine, so the
/// recognizer is `'static` and can live inside long-running serving state
/// (the sharded router) without borrowing from any caller frame.
pub fn stream_shared(engine: &Arc<CaceEngine>, lag: Lag) -> StreamingRecognizer<'static> {
    fresh_stream(EngineRef::Shared(Arc::clone(engine)), lag)
}

/// [`CaceEngine::resume`] over an [`Arc`]-shared engine — the `'static`
/// counterpart used by the serving tier to rehydrate parked homes.
///
/// # Errors
/// Exactly those of [`CaceEngine::resume`].
pub fn resume_shared(
    engine: &Arc<CaceEngine>,
    parked: &ParkedStream,
) -> Result<StreamingRecognizer<'static>, ModelError> {
    resume_impl(EngineRef::Shared(Arc::clone(engine)), parked)
}

impl StreamingRecognizer<'_> {
    /// Ticks consumed so far.
    pub fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// Frontier states the last push's DP step folded after dominance
    /// selection, summed over the stream's frontiers (one joint frontier
    /// for NCS/C2, one per user for NH and NCR). A label-free gauge of how
    /// ambiguous the decode is; a value near the frontier size means the
    /// steps ran dense. `None` before the second push and right after a
    /// resume (it is not parked).
    pub fn last_survivors(&self) -> Option<usize> {
        match &self.decoder {
            Decoder::Coupled(online) => online.last_survivors(),
            Decoder::Single([c0, c1]) => Some(c0.last_survivors()? + c1.last_survivors()?),
            Decoder::Nh([f0, f1]) => Some(f0.last_survivors()? + f1.last_survivors()?),
        }
    }

    /// Consumes one observed tick; returns the newly ripened fixed-lag
    /// decision, if any.
    ///
    /// # Errors
    /// Propagates an emptied per-tick state space
    /// ([`ModelError::EmptyStateSpace`]).
    pub fn push(&mut self, observed: &ObservedTick) -> Result<Option<StreamDecision>, ModelError> {
        #[cfg(test)]
        if self.poison_tick == Some(self.pushed) {
            return Err(ModelError::EmptyStateSpace { tick: self.pushed });
        }
        let start = Instant::now();
        let features = extract_tick(observed);
        // Borrow the engine through the field so the decoder and cursor
        // fields stay independently borrowable (`advance_decoder` is a
        // free function for the same reason).
        let engine: &CaceEngine = &self.engine;
        let preparer = engine.runtime_preparer();
        let prepared = &mut self.prepared;
        preparer.prepare(observed, &features, &mut self.prev, prepared);
        self.rules_fired = self.rules_fired.saturating_add(prepared.rules_fired);

        let strategy = engine.config.strategy;
        let n_macro = engine.n_macro;
        // Per-tick joint size: the post-pruning candidate space under the
        // correlation-pruning strategies, the decoder's input size
        // otherwise.
        if strategy.uses_correlation_pruning() {
            self.joint_size_sum += prepared.joint_size as f64;
        } else {
            self.joint_size_sum += (prepared.input.joint_states(n_macro) as u128) as f64;
        }
        // NCR's transition accounting, the input-size convention
        // `|S(t−1)|·|S(t)|` with `|S| = ⌊√joint states⌋`, charged per
        // user at `finish`.
        if strategy == Strategy::NaiveCorrelation {
            let sqrt = (prepared.input.joint_states(n_macro) as f64).sqrt() as u64;
            if self.pushed > 0 {
                let ops = self.ncr_prev_sqrt.saturating_mul(sqrt);
                self.ncr_ops = self.ncr_ops.saturating_add(ops);
            }
            self.ncr_prev_sqrt = sqrt;
        }

        let decision = advance_decoder(
            &mut self.decoder,
            engine,
            &prepared.input,
            &features,
            &preparer,
        )?;
        // Drift capture happens only after the tick decoded cleanly: a
        // failing tick quarantines the home anyway, and feeding its inputs
        // to the adaptation loop would train on data nothing served.
        if let Some(buf) = self.drift.as_deref_mut() {
            buf.pending.push(prepared.input.clone());
            if buf.pending.len() >= buf.window_ticks {
                let window =
                    std::mem::replace(&mut buf.pending, Vec::with_capacity(buf.window_ticks));
                buf.completed.push(window);
            }
        }
        self.pushed += 1;
        self.wall_seconds += start.elapsed().as_secs_f64();
        Ok(decision)
    }

    /// Enables drift capture: from now on every cleanly decoded tick's
    /// prepared input is buffered, and each `window_ticks` consecutive
    /// ticks close one window for
    /// [`take_drift_windows`](Self::take_drift_windows). Purely
    /// observational — decisions, counters, and park/resume state are
    /// unchanged (captured windows are *not* parked; adaptation data is
    /// best-effort by design).
    pub fn capture_drift(&mut self, window_ticks: usize) {
        self.drift = Some(Box::new(DriftBuffer {
            window_ticks: window_ticks.max(1),
            pending: Vec::new(),
            completed: Vec::new(),
        }));
    }

    /// Whether drift capture is enabled on this stream.
    pub fn drift_capture_enabled(&self) -> bool {
        self.drift.is_some()
    }

    /// Drains the completed drift windows collected so far (the partial
    /// trailing window stays pending). Empty when capture is disabled.
    pub fn take_drift_windows(&mut self) -> Vec<Vec<TickInput>> {
        self.drift
            .as_deref_mut()
            .map(|b| std::mem::take(&mut b.completed))
            .unwrap_or_default()
    }

    /// Hot-swaps this live stream onto `engine` at the current decision
    /// boundary (between two pushes), in place.
    ///
    /// The handoff guarantee, by construction: the swap is exactly
    /// [`park`](Self::park) → explicit fingerprint migration
    /// ([`ParkedStream::migrated_to`]) → resume under `engine`. Every
    /// decision already emitted is untouched (pre-swap output is
    /// bit-identical to a stream that never swapped), and the
    /// continuation equals a fresh stream resumed from this exact parked
    /// frontier under the new model — `tests/adaptation.rs` proptests
    /// both halves. Swapping onto an engine with identical parameters is
    /// a bit-identical no-op end to end.
    ///
    /// What carries over is what a park holds: the newest tick's
    /// dominance survivors with their scores, and the compacted window.
    /// So the first step after a swap to different parameters folds the
    /// survivors the *old* model selected, with the scores it gave them;
    /// that step's transitions, emissions and every later selection are
    /// the new model's. The selection is exact for the old transitions
    /// only: a state the old dominance table pruned cannot come back,
    /// even where the new transitions would let it win.
    ///
    /// The swap is atomic: on error (strategy mismatch, incompatible
    /// dimensions) the stream is left exactly as it was.
    /// Drift-capture state carries across the swap, pending windows
    /// included.
    ///
    /// # Errors
    /// Those of [`CaceEngine::resume`], minus the fingerprint gate (the
    /// migration is explicit here).
    pub fn swap_model(&mut self, engine: &Arc<CaceEngine>) -> Result<(), ModelError> {
        let parked = self.park().migrated_to(engine);
        let mut resumed = resume_impl(EngineRef::Shared(Arc::clone(engine)), &parked)?;
        resumed.drift = self.drift.take();
        *self = resumed;
        Ok(())
    }

    /// Captures this stream's complete mid-stream state — trellis
    /// frontier, backpointer window, decision cursor, overhead counters —
    /// as a serializable checkpoint. The live stream is untouched;
    /// [`CaceEngine::resume`] / [`resume_shared`] continue from the
    /// checkpoint bit-identically.
    pub fn park(&self) -> ParkedStream {
        let engine: &CaceEngine = &self.engine;
        let state = match &self.decoder {
            Decoder::Nh(flats) => ParkedDecoder::Nh([flats[0].park(), flats[1].park()]),
            Decoder::Single(chains) => ParkedDecoder::Single([chains[0].park(), chains[1].park()]),
            Decoder::Coupled(online) => ParkedDecoder::Coupled(online.park()),
        };
        ParkedStream {
            strategy: engine.config.strategy,
            lag: self.lag,
            state,
            prev: self.prev,
            pushed: self.pushed,
            joint_size_sum: self.joint_size_sum,
            rules_fired: self.rules_fired,
            ncr_prev_sqrt: self.ncr_prev_sqrt,
            ncr_ops: self.ncr_ops,
            wall_seconds: self.wall_seconds,
            model_fp: engine.params.fingerprint(),
        }
    }

    /// Ends the stream: resolves every not-yet-committed tick and returns
    /// those decisions with the session counters, as a [`StreamTail`].
    ///
    /// With `lag >=` the stream length (or [`Lag::Unbounded`]) the tail is
    /// the whole session, and its [`Recognition`] is bit-identical to
    /// [`CaceEngine::recognize`] on the same ticks, except `wall_seconds`,
    /// the time each stream spent in its pushes and `finish`.
    ///
    /// # Errors
    /// [`ModelError::InsufficientData`] if no tick was ever pushed.
    pub fn finish(self) -> Result<StreamTail, ModelError> {
        let start = Instant::now();
        let pushed = self.pushed;
        let ([m0, m1], states_explored, transition_ops) = match self.decoder {
            Decoder::Coupled(online) => {
                let path = online.finalize()?;
                (path.macros, path.states_explored, path.transition_ops)
            }
            Decoder::Single(chains) => {
                let [c0, c1] = chains;
                let p0 = c0.finalize()?;
                let p1 = c1.finalize()?;
                // The input-size convention of `push`, charged once per
                // user.
                (
                    [p0.macros, p1.macros],
                    p0.states_explored.saturating_add(p1.states_explored),
                    self.ncr_ops.saturating_mul(2),
                )
            }
            Decoder::Nh(flats) => {
                let [f0, f1] = flats;
                let err = || ModelError::InsufficientData {
                    what: "NH decoding".into(),
                    available: 0,
                    required: 1,
                };
                let (m0, s0, o0) = f0.finalize().ok_or_else(err)?;
                let (m1, s1, o1) = f1.finalize().ok_or_else(err)?;
                ([m0, m1], s0.saturating_add(s1), o0.saturating_add(o1))
            }
        };
        let mean_joint_size = if pushed == 0 {
            0.0
        } else {
            self.joint_size_sum / pushed as f64
        };
        let decisions = (self.lag.committed(pushed)..)
            .zip(m0.into_iter().zip(m1))
            .map(|(tick, (a, b))| StreamDecision {
                tick,
                macros: [a, b],
            })
            .collect();
        Ok(StreamTail {
            decisions,
            states_explored,
            transition_ops,
            wall_seconds: self.wall_seconds + start.elapsed().as_secs_f64(),
            mean_joint_size,
            rules_fired: self.rules_fired,
            pushed,
        })
    }
}

/// One DP step of whichever decoder the stream runs. A free function (not
/// a method) so `push` can borrow the engine and the decoder as disjoint
/// fields.
fn advance_decoder(
    decoder: &mut Decoder,
    engine: &CaceEngine,
    input: &TickInput,
    features: &[cace_features::TickFeatures; 2],
    preparer: &crate::statespace::TickPreparer<'_>,
) -> Result<Option<StreamDecision>, ModelError> {
    match decoder {
        Decoder::Coupled(online) => Ok(online.push(input)?.map(|d| StreamDecision {
            tick: d.tick,
            macros: d.macros,
        })),
        Decoder::Single(chains) => {
            let d0 = chains[0].push(input)?;
            let d1 = chains[1].push(input)?;
            Ok(d0.zip(d1).map(|(a, b)| {
                debug_assert_eq!(a.tick, b.tick);
                StreamDecision {
                    tick: a.tick,
                    macros: [a.macro_id, b.macro_id],
                }
            }))
        }
        Decoder::Nh(flats) => {
            let macro_lp = preparer.nh_macro_emissions(features);
            let mut out = [None, None];
            for u in 0..2 {
                out[u] = flats[u].push(&engine.nh_log_trans, input, u, &macro_lp[u]);
            }
            Ok(out[0]
                .zip(out[1])
                .map(|((tick, m0), (_, m1))| StreamDecision {
                    tick,
                    macros: [m0, m1],
                }))
        }
    }
}

/// The parked per-strategy decoder state inside a [`ParkedStream`].
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum ParkedDecoder {
    /// NH: one flat product frontier per user.
    Nh([ParkedFlat; 2]),
    /// NCR: one hierarchical chain frontier per user.
    Single([ParkedChain; 2]),
    /// NCS / C2: the coupled joint frontier.
    Coupled(ParkedCoupled),
}

/// A complete mid-stream checkpoint of one home's [`StreamingRecognizer`]:
/// everything [`CaceEngine::resume`] needs for a bit-identical
/// continuation, and nothing engine-derived (the model itself is
/// re-attached at resume, `Arc`-shared fleet-wide).
///
/// Produced by [`StreamingRecognizer::park`]; serialized through the
/// versioned snapshot layer ([`ParkedStream::to_snapshot_bytes`]) so
/// parked bytes are readable by builds that write the same layout, and
/// validated structurally on every resume — tampering yields
/// [`ModelError::Persistence`], never a panic.
#[derive(Debug, Clone)]
pub struct ParkedStream {
    pub(crate) strategy: Strategy,
    pub(crate) lag: Lag,
    pub(crate) state: ParkedDecoder,
    pub(crate) prev: [PrevState; 2],
    pub(crate) pushed: usize,
    pub(crate) joint_size_sum: f64,
    pub(crate) rules_fired: u64,
    pub(crate) ncr_prev_sqrt: u64,
    pub(crate) ncr_ops: u64,
    pub(crate) wall_seconds: f64,
    pub(crate) model_fp: u64,
}

impl ParkedStream {
    /// Ticks the stream had consumed when it was parked.
    pub fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// The strategy the parked stream was recorded under.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Fingerprint of the model parameters the stream was checkpointed
    /// under ([`cace_hdbn::HdbnParams::fingerprint`]). Resume rejects an
    /// engine whose fingerprint differs — cross-model resumes must go
    /// through [`migrated_to`](Self::migrated_to).
    pub fn model_fingerprint(&self) -> u64 {
        self.model_fp
    }

    /// Explicitly re-targets this checkpoint at `engine`'s model: returns
    /// a copy whose model fingerprint matches `engine`, so resuming it
    /// there passes the fingerprint gate. This is the *hot-swap
    /// migration* — the newest tick's survivors carry over verbatim, with
    /// the scores the old model gave them, and all later ticks score under
    /// the new model (see [`StreamingRecognizer::swap_model`]). Resume still validates
    /// strategy and dimensions; migration only waives the same-model
    /// check.
    pub fn migrated_to(&self, engine: &CaceEngine) -> ParkedStream {
        let mut migrated = self.clone();
        migrated.model_fp = engine.params.fingerprint();
        migrated
    }
}

/// Drives a recorded session through a streaming recognizer tick by tick;
/// under [`Lag::Unbounded`] this is [`CaceEngine::recognize`].
///
/// Returns the mid-stream decisions and the session's [`Recognition`],
/// those decisions plus the [`finish`](StreamingRecognizer::finish) tail.
///
/// # Errors
/// Propagates any per-tick or finalization failure.
pub fn stream_session(
    engine: &CaceEngine,
    session: &Session,
    lag: Lag,
) -> Result<(Vec<StreamDecision>, Recognition), ModelError> {
    let mut stream = engine.stream(lag);
    let mut decisions = Vec::new();
    for tick in &session.ticks {
        if let Some(d) = stream.push(&tick.observed)? {
            decisions.push(d);
        }
    }
    let recognition = stream.finish()?.into_recognition(&decisions);
    Ok((decisions, recognition))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CaceConfig;
    use cace_behavior::{
        cace_grammar, generate_cace_dataset, session::train_test_split, SessionConfig,
    };

    fn corpus() -> (Vec<Session>, Vec<Session>) {
        let sessions = generate_cace_dataset(
            &cace_grammar(),
            1,
            4,
            &SessionConfig::tiny().with_ticks(80),
            31,
        );
        train_test_split(sessions, 0.75)
    }

    #[test]
    fn unbounded_stream_matches_batch_for_default_strategy() {
        let (train, test) = corpus();
        let engine = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
        let batch = engine.recognize(&test[0]).unwrap();
        let (decisions, streamed) = stream_session(&engine, &test[0], Lag::Unbounded).unwrap();
        assert!(decisions.is_empty(), "unbounded lag never emits mid-stream");
        assert_eq!(streamed.macros, batch.macros);
        assert_eq!(streamed.states_explored, batch.states_explored);
        assert_eq!(streamed.transition_ops, batch.transition_ops);
        assert_eq!(streamed.rules_fired, batch.rules_fired);
        assert_eq!(streamed.mean_joint_size, batch.mean_joint_size);
    }

    #[test]
    fn fixed_lag_emits_and_covers_the_whole_session() {
        let (train, test) = corpus();
        let engine = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
        let lag = 6;
        let (decisions, streamed) = stream_session(&engine, &test[0], Lag::Fixed(lag)).unwrap();
        assert_eq!(decisions.len(), test[0].len() - lag);
        for (i, d) in decisions.iter().enumerate() {
            assert_eq!(d.tick, i);
        }
        assert_eq!(streamed.macros[0].len(), test[0].len());
        // Emitted decisions are embedded unchanged in the final path.
        for d in &decisions {
            assert_eq!(streamed.macros[0][d.tick], d.macros[0]);
            assert_eq!(streamed.macros[1][d.tick], d.macros[1]);
        }
    }

    #[test]
    fn park_resume_mid_stream_is_bit_identical_for_every_strategy() {
        let (train, test) = corpus();
        let session = &test[0];
        for strategy in [
            Strategy::NaiveHmm,
            Strategy::NaiveCorrelation,
            Strategy::NaiveConstraint,
            Strategy::CorrelationConstraint,
        ] {
            let config = CaceConfig {
                strategy,
                ..CaceConfig::default()
            };
            let engine = CaceEngine::train(&train, &config).unwrap();
            let lag = Lag::Fixed(5);
            // Uninterrupted reference.
            let (want_decisions, want) = stream_session(&engine, session, lag).unwrap();
            // Interrupted run: park + rehydrate at a mid-stream tick.
            let mut stream = engine.stream(lag);
            let mut got_decisions = Vec::new();
            for tick in &session.ticks[..40] {
                if let Some(d) = stream.push(&tick.observed).unwrap() {
                    got_decisions.push(d);
                }
            }
            let parked = stream.park();
            drop(stream);
            assert_eq!(parked.ticks_pushed(), 40);
            assert_eq!(parked.strategy(), strategy);
            let mut resumed = engine.resume(&parked).unwrap();
            for tick in &session.ticks[40..] {
                if let Some(d) = resumed.push(&tick.observed).unwrap() {
                    got_decisions.push(d);
                }
            }
            let got = resumed.finish().unwrap().into_recognition(&got_decisions);
            assert_eq!(got_decisions, want_decisions, "{strategy:?}");
            assert_eq!(got.macros, want.macros, "{strategy:?}");
            assert_eq!(got.states_explored, want.states_explored, "{strategy:?}");
            assert_eq!(got.transition_ops, want.transition_ops, "{strategy:?}");
            assert_eq!(got.rules_fired, want.rules_fired, "{strategy:?}");
            assert_eq!(got.mean_joint_size, want.mean_joint_size, "{strategy:?}");
        }
    }

    #[test]
    fn resume_rejects_strategy_and_cursor_mismatches() {
        let (train, test) = corpus();
        let engine = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
        let mut stream = engine.stream(Lag::Fixed(4));
        for tick in &test[0].ticks[..10] {
            stream.push(&tick.observed).unwrap();
        }
        let parked = stream.park();

        // A different-strategy engine must refuse the checkpoint.
        let nh_engine = CaceEngine::train(
            &train,
            &CaceConfig {
                strategy: Strategy::NaiveHmm,
                ..CaceConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            nh_engine.resume(&parked),
            Err(ModelError::Persistence { .. })
        ));

        // A desynchronized cursor must be caught before any decode.
        let mut tampered = parked.clone();
        tampered.pushed += 1;
        assert!(matches!(
            engine.resume(&tampered),
            Err(ModelError::Persistence { .. })
        ));

        // Out-of-range lag-1 evidence would panic inside the atom encoder.
        let mut tampered = parked.clone();
        tampered.prev[1].macro_id = Some(usize::MAX);
        assert!(matches!(
            engine.resume(&tampered),
            Err(ModelError::Persistence { .. })
        ));

        // The untampered checkpoint still resumes.
        assert!(engine.resume(&parked).is_ok());
    }

    #[test]
    fn resumed_ncr_accounting_is_bounded_and_saturates() {
        let (train, test) = corpus();
        let config = CaceConfig::default().with_strategy(Strategy::NaiveCorrelation);
        let engine = CaceEngine::train(&train, &config).unwrap();
        let mut stream = engine.stream(Lag::Fixed(4));
        for tick in &test[0].ticks[..10] {
            stream.push(&tick.observed).unwrap();
        }
        let reseal = |p: &ParkedStream| {
            ParkedStream::from_snapshot_bytes(&p.to_snapshot_bytes()).expect("v6 park reads")
        };
        let mut parked = stream.park();

        // No tick has more than usize::MAX joint states, so a square root
        // above 2^32 is tampering.
        parked.ncr_prev_sqrt = u64::MAX;
        assert!(matches!(
            engine.resume(&reseal(&parked)),
            Err(ModelError::Persistence { .. })
        ));

        // The largest legal root, with the counters at their ceiling: the
        // pushes saturate instead of overflowing.
        parked.ncr_prev_sqrt = 1 << 32;
        parked.ncr_ops = u64::MAX - 1;
        parked.rules_fired = u64::MAX - 1;
        let mut resumed = engine.resume(&reseal(&parked)).unwrap();
        for tick in &test[0].ticks[10..] {
            resumed.push(&tick.observed).unwrap();
        }
        let tail = resumed.finish().unwrap();
        assert_eq!(tail.transition_ops, u64::MAX);
        assert_eq!(tail.rules_fired, u64::MAX);
    }

    #[test]
    fn shared_stream_outlives_the_borrow_scope() {
        let (train, test) = corpus();
        let engine =
            std::sync::Arc::new(CaceEngine::train(&train, &CaceConfig::default()).unwrap());
        let mut stream: StreamingRecognizer<'static> = stream_shared(&engine, Lag::Unbounded);
        for tick in &test[0].ticks {
            stream.push(&tick.observed).unwrap();
        }
        let parked = stream.park();
        let resumed = resume_shared(&engine, &parked).unwrap();
        let batch = engine.recognize(&test[0]).unwrap();
        let streamed = resumed.finish().unwrap().into_recognition(&[]);
        assert_eq!(streamed.macros, batch.macros);
    }

    #[test]
    fn swap_model_to_identical_params_is_bit_identical_for_every_strategy() {
        let (train, test) = corpus();
        let session = &test[0];
        for strategy in [
            Strategy::NaiveHmm,
            Strategy::NaiveCorrelation,
            Strategy::NaiveConstraint,
            Strategy::CorrelationConstraint,
        ] {
            let config = CaceConfig {
                strategy,
                ..CaceConfig::default()
            };
            let engine = Arc::new(CaceEngine::train(&train, &config).unwrap());
            // An independently trained engine over the same corpus: a
            // distinct Arc, the same parameters (and so the same
            // fingerprint) — the swap machinery runs in full, the
            // numbers must not move.
            let twin = Arc::new(CaceEngine::train(&train, &config).unwrap());
            assert_eq!(engine.params.fingerprint(), twin.params.fingerprint());

            let lag = Lag::Fixed(5);
            let (want_decisions, want) = stream_session(&engine, session, lag).unwrap();

            let mut stream = stream_shared(&engine, lag);
            let mut got_decisions = Vec::new();
            for tick in &session.ticks[..40] {
                if let Some(d) = stream.push(&tick.observed).unwrap() {
                    got_decisions.push(d);
                }
            }
            stream.swap_model(&twin).unwrap();
            for tick in &session.ticks[40..] {
                if let Some(d) = stream.push(&tick.observed).unwrap() {
                    got_decisions.push(d);
                }
            }
            let got = stream.finish().unwrap().into_recognition(&got_decisions);
            assert_eq!(got_decisions, want_decisions, "{strategy:?}");
            assert_eq!(got.macros, want.macros, "{strategy:?}");
            assert_eq!(got.states_explored, want.states_explored, "{strategy:?}");
            assert_eq!(got.transition_ops, want.transition_ops, "{strategy:?}");
            assert_eq!(got.rules_fired, want.rules_fired, "{strategy:?}");
        }
    }

    #[test]
    fn resume_rejects_model_fingerprint_mismatch_unless_migrated() {
        let (train, test) = corpus();
        let other_sessions = generate_cace_dataset(
            &cace_grammar(),
            1,
            4,
            &SessionConfig::tiny().with_ticks(80),
            99,
        );
        let (other_train, _) = train_test_split(other_sessions, 0.75);
        let engine = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
        let other = CaceEngine::train(&other_train, &CaceConfig::default()).unwrap();
        assert_ne!(engine.params.fingerprint(), other.params.fingerprint());

        let mut stream = engine.stream(Lag::Fixed(4));
        for tick in &test[0].ticks[..10] {
            stream.push(&tick.observed).unwrap();
        }
        let parked = stream.park();
        assert_eq!(parked.model_fingerprint(), engine.params.fingerprint());

        // Same strategy, same decoder config, different parameters: the
        // silent resume is refused...
        assert!(matches!(
            other.resume(&parked),
            Err(ModelError::Persistence { .. })
        ));
        // ...while the explicit migration is honoured and keeps serving.
        let migrated = parked.migrated_to(&other);
        assert_eq!(migrated.model_fingerprint(), other.params.fingerprint());
        let mut resumed = other.resume(&migrated).unwrap();
        for tick in &test[0].ticks[10..] {
            resumed.push(&tick.observed).unwrap();
        }
        assert!(resumed.finish().is_ok());
        // The original checkpoint still resumes where it was taken.
        assert!(engine.resume(&parked).is_ok());
    }

    #[test]
    fn drift_capture_is_observational_and_survives_a_swap() {
        let (train, test) = corpus();
        let session = &test[0];
        let engine = Arc::new(CaceEngine::train(&train, &CaceConfig::default()).unwrap());
        let lag = Lag::Fixed(5);
        let (want_decisions, want) = stream_session(&engine, session, lag).unwrap();

        let mut stream = stream_shared(&engine, lag);
        assert!(!stream.drift_capture_enabled());
        stream.capture_drift(8);
        assert!(stream.drift_capture_enabled());
        let mut got_decisions = Vec::new();
        for tick in &session.ticks[..30] {
            if let Some(d) = stream.push(&tick.observed).unwrap() {
                got_decisions.push(d);
            }
        }
        // The swap carries the capture state, pending ticks included:
        // 30 pushed = 3 complete windows + 6 pending.
        stream.swap_model(&engine).unwrap();
        assert!(stream.drift_capture_enabled());
        for tick in &session.ticks[30..] {
            if let Some(d) = stream.push(&tick.observed).unwrap() {
                got_decisions.push(d);
            }
        }
        let windows = stream.take_drift_windows();
        assert_eq!(windows.len(), session.len() / 8);
        assert!(windows.iter().all(|w| w.len() == 8));
        assert!(
            stream.take_drift_windows().is_empty(),
            "windows drain exactly once"
        );
        // Capture never moved a decision.
        let got = stream.finish().unwrap().into_recognition(&got_decisions);
        assert_eq!(got_decisions, want_decisions);
        assert_eq!(got.macros, want.macros);
    }

    #[test]
    fn empty_stream_errors_like_empty_session() {
        let (train, _) = corpus();
        let engine = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
        assert!(matches!(
            engine.stream(Lag::Unbounded).finish(),
            Err(ModelError::InsufficientData { .. })
        ));
    }
}
