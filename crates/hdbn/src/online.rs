//! Online (streaming) Viterbi decoding with fixed-lag smoothing — the
//! crate's one Viterbi decoder.
//!
//! A smart-home runtime gets one sensor tick at a time. The decoders here
//! maintain the *trellis frontier* — the best log-score of every current
//! joint state — plus a backpointer window, and advance it by one DP step
//! per pushed tick: `O(|S1||S2|(|S1|+|S2|))` for the coupled chain,
//! `O(|S|²)` for a single chain, *without* re-decoding the growing prefix.
//! A stream holds the newest tick's dominance survivors and frontier
//! argmax, and every tick of its window compacted to the states a
//! backtrack can still reach (see [`OnlineTrellis`]); a park writes
//! exactly that. The whole frontier — for the coupled decoder factored
//! per destination slot pair ([`JointFrontier`]) — lives only in the
//! thread's scratch while a push runs.
//!
//! Smoothing is controlled by a [`Lag`]:
//!
//! * [`Lag::Unbounded`] never commits mid-stream; `finalize` backtracks the
//!   full trellis. This is whole-session Viterbi: on-line Viterbi with an
//!   unbounded horizon is batch Viterbi (Šrámek, Brejová & Vinař, WABI
//!   2007), and [`crate::CoupledHdbn::viterbi`] /
//!   [`crate::SingleHdbn::viterbi`] are exactly this stream.
//! * [`Lag::Fixed(l)`](Lag::Fixed) emits the decision for tick `t - l`
//!   right after consuming tick `t` (classic fixed-lag smoothing), keeping
//!   the backpointer window at `l + 1` entries regardless of stream length.
//!   A `Lag::Fixed(l)` with `l >=` the eventual stream length behaves like
//!   `Unbounded` (no decision ever ripens mid-stream), so it is
//!   bit-identical to the whole-session decode — equality of every float,
//!   not just of the argmax.
//!
//! ```
//! use cace_hdbn::{Lag, MicroCandidate, TickInput};
//! # use cace_mining::constraint::{ConstraintMiner, LabeledSequence};
//! # use cace_hdbn::{CoupledHdbn, HdbnConfig, HdbnParams, OnlineCoupledViterbi};
//! # let macros: Vec<usize> = (0..400).map(|i| (i / 10) % 2).collect();
//! # let n = macros.len();
//! # let seq = LabeledSequence {
//! #     macros: [macros.clone(), macros.clone()],
//! #     posturals: [macros.clone(), macros.clone()],
//! #     gesturals: [vec![0; n], vec![0; n]],
//! #     locations: [macros.clone(), macros],
//! # };
//! # let stats = ConstraintMiner {
//! #     laplace: 0.1, n_macro: 2, n_postural: 2, n_gestural: 2, n_location: 2,
//! # }.mine(&[seq]).unwrap();
//! # let model = CoupledHdbn::new(HdbnParams::new(stats, HdbnConfig::default()).unwrap());
//! # let tick = |m: usize| {
//! #     let cands: Vec<MicroCandidate> = (0..2).map(|p| MicroCandidate {
//! #         postural: p, gestural: Some(0), location: p,
//! #         obs_loglik: if p == m { 0.0 } else { -4.0 },
//! #     }).collect();
//! #     TickInput { candidates: [cands.clone(), cands], macro_candidates: [None, None],
//! #                 macro_bonus: Vec::new() }
//! # };
//! let mut online = OnlineCoupledViterbi::new(model.clone(), Lag::Fixed(2));
//! for t in 0..10 {
//!     if let Some(decision) = online.push(&tick(0)).unwrap() {
//!         // Ticks ripen `lag` steps after arrival.
//!         assert_eq!(decision.tick, t - 2);
//!         assert_eq!(decision.macros, [0, 0]);
//!     }
//! }
//! // The tail (the last `lag` ticks) is resolved at finalization; the
//! // decisions already emitted are not repeated.
//! let tail = online.finalize().unwrap();
//! assert_eq!(tail.macros[0].len(), 2);
//! ```

use std::cell::Cell;
use std::sync::Arc;
use std::thread::LocalKey;

use cace_model::ModelError;

use crate::arena::{fill_slice, Slice, TrellisArena};
use crate::input::{MicroCandidate, TickInput};
use crate::params::HdbnParams;
use crate::park::{ChainPick, JointPick, ParkedChain, ParkedCoupled};
use crate::single::{self, SingleHdbn, SinglePath};
use crate::trellis::{
    self, Compacted, HierModel, OnlineTrellis, ScratchSlot, SurvivorSet, Survivors, TrellisEntry,
    TrellisFamily,
};
use crate::viterbi::{self, CoupledHdbn, JointFrontier, JointPath, JointSurvivors};

/// Fixed-lag smoothing horizon of an online decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lag {
    /// Never commit mid-stream; decode everything at finalization — the
    /// whole-session Viterbi decode.
    ///
    /// Cost: the window keeps every tick, as the live tree (see
    /// [`OnlineTrellis`]): below the point where every backpointer chain
    /// has met, one record and the items it names per tick, in pooled
    /// stores that only grow (by doubling), while the push's whole entry
    /// is the thread's scratch as under a fixed lag — so a warmed push
    /// allocates only when a store or the
    /// [`reserve_ticks`](OnlineCoupledViterbi::reserve_ticks)-sized window
    /// spine outgrows its capacity: one allocation over 64 warmed pushes
    /// on the toy coupled decoder (`tests/alloc_steady_state.rs` bounds it
    /// at one per push). Whole-session recognition runs here; served
    /// streams run under a fixed lag.
    Unbounded,
    /// Emit the decision for tick `t - lag` after consuming tick `t`,
    /// keeping the backpointer window bounded at `lag + 1` entries.
    Fixed(usize),
}

impl Lag {
    /// Whether this lag never emits mid-stream decisions.
    pub fn is_unbounded(&self) -> bool {
        matches!(self, Lag::Unbounded)
    }

    /// Decisions a stream under this lag has emitted after `pushed`
    /// ticks: every tick at least `lag` old, none under `Unbounded`.
    pub fn committed(self, pushed: usize) -> usize {
        match self {
            Lag::Unbounded => 0,
            Lag::Fixed(l) => pushed.saturating_sub(l),
        }
    }
}

/// A mid-stream decision of [`OnlineCoupledViterbi`]: the smoothed joint
/// state of one (now `lag`-old) tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothedJoint {
    /// The tick index this decision is for (`pushed - 1 - lag`).
    pub tick: usize,
    /// Decoded macro activity per user.
    pub macros: [usize; 2],
    /// Decoded micro tuple per user.
    pub micros: [MicroCandidate; 2],
}

/// A mid-stream decision of [`OnlineSingleViterbi`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothedChain {
    /// The tick index this decision is for.
    pub tick: usize,
    /// Decoded macro activity.
    pub macro_id: usize,
    /// Decoded micro tuple.
    pub micro: MicroCandidate,
}

/// One tick of the coupled backpointer window while a push runs (see
/// [`TrellisEntry`]).
#[derive(Debug, Default, Clone)]
struct JointEntry {
    s1: Slice,
    s2: Slice,
    /// Backpointers into the previous tick's flattened frontier, one per
    /// destination slot pair (`slot₁ * d2 + slot₂`) — every state of a
    /// slot pair shares its fold — and empty for the first tick of the
    /// stream.
    back: Vec<u32>,
    /// The tick's candidate tuples, which the compacted entry keeps so
    /// decisions can report micro states after the [`TickInput`] is gone.
    cands: [Vec<MicroCandidate>; 2],
}

impl TrellisEntry for JointEntry {
    type Payload = JointPick;
    type Item = MicroCandidate;
    type Decision = ([usize; 2], [MicroCandidate; 2]);

    fn back_row(&self) -> &[u32] {
        &self.back
    }

    fn back_of(&self, j: usize) -> usize {
        let m2 = self.s2.len();
        let (s1, s2) = (self.s1.slots[j / m2], self.s2.slots[j % m2]);
        self.back[s1 as usize * self.s2.n_slots() + s2 as usize] as usize
    }

    fn payload(&self, flat: usize) -> JointPick {
        let m2 = self.s2.len();
        let (j1, j2) = (flat / m2, flat % m2);
        (
            [self.s1.activities[j1] as u32, self.s2.activities[j2] as u32],
            [
                self.s1.cands[j1] as u32,
                (self.cands[0].len() + self.s2.cands[j2]) as u32,
            ],
        )
    }

    fn items(&self) -> impl Iterator<Item = MicroCandidate> + '_ {
        self.cands[0].iter().chain(&self.cands[1]).copied()
    }

    fn item_ids((_, micros): &mut JointPick) -> &mut [u32] {
        micros
    }

    fn decide((macros, micros): JointPick, item: impl Fn(u32) -> MicroCandidate) -> Self::Decision {
        (macros.map(|a| a as usize), micros.map(item))
    }
}

/// The coupled family's [`TrellisFamily`] instantiation: the generic
/// online core drives [`crate::viterbi`]'s bespoke two-pass joint kernels
/// over a slot-factored [`JointFrontier`] (see the [`crate::trellis`]
/// module docs for why the joint step stays specialized).
struct CoupledFamily<'a> {
    p: &'a HdbnParams,
    /// Chain-1 rows of slot pairs the fold folded, and all of them.
    rows: Cell<[usize; 2]>,
}

impl TrellisFamily for CoupledFamily<'_> {
    type Entry = JointEntry;
    type Frontier = JointFrontier;
    type Survivors = JointSurvivors;

    fn init(&self, entry: &mut JointEntry, v: &mut JointFrontier) {
        viterbi::joint_init_into(self.p, &entry.s1, &entry.s2, v);
        entry.back.clear();
    }

    fn fold(
        &self,
        src: &JointSurvivors,
        entry: &mut JointEntry,
        next: &mut JointFrontier,
        arena: &mut TrellisArena,
    ) -> u64 {
        let JointEntry { s1, s2, back, .. } = entry;
        let bounded = viterbi::Rows::Bounded;
        let folded = viterbi::joint_fold_into(self.p, src, s1, s2, arena, next, back, bounded);
        self.rows.set([folded, s1.n_slots()]);
        viterbi::joint_step_charge(src.k, s1, s2)
    }

    fn select(
        &self,
        entry: &JointEntry,
        v: &JointFrontier,
        arena: &mut TrellisArena,
        out: &mut JointSurvivors,
    ) {
        viterbi::joint_select_into(self.p, &entry.s1, &entry.s2, v, arena, out);
    }

    fn scratch() -> &'static LocalKey<ScratchSlot<JointEntry, JointFrontier>> {
        thread_local! {
            static SCRATCH: ScratchSlot<JointEntry, JointFrontier> = const { Cell::new(None) };
        }
        &SCRATCH
    }
}

/// The single-chain family's [`TrellisFamily`] instantiation: the generic
/// chain kernels over [`HierModel`].
struct ChainFamily<'a> {
    p: &'a HdbnParams,
}

impl TrellisFamily for ChainFamily<'_> {
    type Entry = ChainEntry;
    type Frontier = Vec<f64>;
    type Survivors = Survivors;

    fn init(&self, entry: &mut ChainEntry, v: &mut Vec<f64>) {
        trellis::init_into(&HierModel::new(self.p), &entry.slice, v);
        entry.back.clear();
    }

    fn fold(
        &self,
        src: &Survivors,
        entry: &mut ChainEntry,
        next: &mut Vec<f64>,
        arena: &mut TrellisArena,
    ) -> u64 {
        let ChainEntry { slice, back, .. } = entry;
        trellis::fold_into(&HierModel::new(self.p), src, slice, arena, back);
        arena.swap_frontier(next);
        (src.n_states() * slice.len()) as u64
    }

    fn select(&self, entry: &ChainEntry, v: &Vec<f64>, _: &mut TrellisArena, out: &mut Survivors) {
        out.select(self.p.tables.dominance(), &entry.slice, v);
    }

    fn scratch() -> &'static LocalKey<ScratchSlot<ChainEntry, Vec<f64>>> {
        thread_local! {
            static SCRATCH: ScratchSlot<ChainEntry, Vec<f64>> = const { Cell::new(None) };
        }
        &SCRATCH
    }
}

/// Incremental fixed-lag decoder for the loosely-coupled two-chain HDBN.
///
/// Feed ticks with [`push`](Self::push); finish with
/// [`finalize`](Self::finalize). See the [module docs](self) for the
/// equivalence guarantees. The window/cursor/counter machinery lives in
/// the family-independent [`OnlineTrellis`]; this wrapper adds the coupled
/// state enumeration and the two-user decision bookkeeping.
#[derive(Debug, Clone)]
pub struct OnlineCoupledViterbi {
    /// The model's shared parameters.
    params: Arc<HdbnParams>,
    core: OnlineTrellis<JointEntry, JointSurvivors>,
    /// Chain-1 rows the last step folded, and all of them (never parked).
    #[cfg(feature = "testkit")]
    last_rows: Option<[usize; 2]>,
}

impl OnlineCoupledViterbi {
    /// Starts an empty stream against a trained model.
    pub fn new(model: CoupledHdbn, lag: Lag) -> Self {
        let params = model.shared_params();
        Self {
            params,
            core: OnlineTrellis::new(lag),
            #[cfg(feature = "testkit")]
            last_rows: None,
        }
    }

    /// Ticks consumed so far.
    pub fn ticks_pushed(&self) -> usize {
        self.core.ticks_pushed()
    }

    /// Current backpointer-window length (at most `lag + 1` for
    /// [`Lag::Fixed`]).
    pub fn window_len(&self) -> usize {
        self.core.window_len()
    }

    /// Joint states the last push's DP step folded after dominance
    /// selection — a label-free gauge of how ambiguous the decode is.
    /// `None` before the second push and right after a resume (it is not
    /// parked).
    pub fn last_survivors(&self) -> Option<usize> {
        self.core.last_survivors()
    }

    /// `[folded, all]`: the chain-1 rows of slot pairs the last push's
    /// step folded, of all its rows (see [`JointFrontier`]). `None` when
    /// [`last_survivors`](Self::last_survivors) is.
    #[cfg(feature = "testkit")]
    pub fn last_rows_folded(&self) -> Option<[usize; 2]> {
        self.last_rows
    }

    /// The newest tick's dominance survivors: all the next step reads of
    /// its frontier.
    pub fn survivors(&self) -> &JointSurvivors {
        self.core.survivors()
    }

    /// `(state, score)` of the newest frontier's last maximum, where every
    /// backtrack starts.
    pub fn frontier_argmax(&self) -> (usize, f64) {
        self.core.frontier_argmax()
    }

    /// Pre-reserves the backpointer window for `additional` more ticks,
    /// capped at the `lag + 1` entries a [`Lag::Fixed`] window ever holds.
    /// The window is the only per-tick growth a stream has, and it grows
    /// only under [`Lag::Unbounded`]; a fixed-lag stream performs zero
    /// heap allocations per push once warmed without this call.
    pub fn reserve_ticks(&mut self, additional: usize) {
        self.core.reserve_ticks(additional);
    }

    /// The joint states each window entry still holds, oldest first: the
    /// states the records of the entry after it name. The newest entry
    /// holds its own selection's survivors, plus the frontier argmax and
    /// state 0 (see [`OnlineTrellis`]).
    pub fn window_states(&self) -> Vec<Vec<usize>> {
        let states = |entry: Compacted<JointPick, MicroCandidate>| {
            entry.records.iter().map(|r| r.state as usize).collect()
        };
        self.core.compacted().into_iter().map(states).collect()
    }

    /// The window's compacted entries, oldest first, the newest included:
    /// each entry's records and the candidate tuples their payloads name.
    #[cfg(feature = "testkit")]
    pub fn window(&self) -> Vec<Compacted<JointPick, MicroCandidate>> {
        self.core.compacted()
    }

    /// Consumes one tick, advancing the frontier by one DP step; returns
    /// the newly ripened fixed-lag decision, if any.
    ///
    /// Steady-state cost: one dominance-pruned exact DP step out of the
    /// kept survivors over the thread's reused arena buffers and window
    /// entry (see [`TrellisScratch`](crate::trellis::TrellisScratch)), the
    /// new frontier's selection, and the new entry compacted into the
    /// pooled record store — zero heap allocations once a [`Lag::Fixed`]
    /// stream is warmed (`tests/alloc_steady_state.rs`).
    ///
    /// # Errors
    /// [`ModelError::EmptyStateSpace`] if the tick has no candidates for
    /// some user.
    pub fn push(&mut self, tick: &TickInput) -> Result<Option<SmoothedJoint>, ModelError> {
        viterbi::validate_tick(tick, self.core.ticks_pushed())?;
        let family = CoupledFamily {
            p: &self.params,
            rows: Cell::default(),
        };
        let p = family.p;
        self.core.push_entry(&family, |entry, arena| {
            fill_slice(p, tick, 0, arena, &mut entry.s1);
            fill_slice(p, tick, 1, arena, &mut entry.s2);
            for u in 0..2 {
                entry.cands[u].clear();
                entry.cands[u].extend_from_slice(&tick.candidates[u]);
            }
            (entry.s1.len() * entry.s2.len()) as u64
        });
        #[cfg(feature = "testkit")]
        {
            self.last_rows = self.core.last_survivors().map(|_| family.rows.get());
        }
        Ok(self
            .core
            .emit_ready(|(macros, micros), tick| SmoothedJoint {
                tick,
                macros,
                micros,
            }))
    }

    /// Checkpoints the stream: everything the decode depends on — the
    /// newest tick's survivors and argmax, the compacted window, the
    /// decision cursor, and the overhead counters — in a serializable
    /// form. Emitted decisions are not kept, so a park's size does not
    /// grow with the stream's age. The model is *not* captured;
    /// [`resume`](Self::resume) re-attaches one, so a fleet of parked homes
    /// shares a single `Arc<HdbnParams>`.
    pub fn park(&self) -> ParkedCoupled {
        self.core.park()
    }

    /// Rehydrates a parked stream against `model`, continuing exactly
    /// where [`park`](Self::park) left off: subsequent pushes, emitted
    /// decisions, overhead accounting, and `finalize` are bit-identical
    /// to the uninterrupted stream. `model` and `lag` must match the ones
    /// the stream was opened with (the snapshot layer persists and
    /// re-checks both). Under another model of the same dimensions the
    /// first step folds the parked survivors, scored and selected under
    /// the model they were parked under.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] when the parked state is structurally
    /// inconsistent with the model — every index is bounds-checked before
    /// any kernel runs, so a tampered payload fails cleanly instead of
    /// panicking.
    pub fn resume(
        model: CoupledHdbn,
        lag: Lag,
        parked: &ParkedCoupled,
    ) -> Result<Self, ModelError> {
        let params = model.shared_params();
        let n_macro = params.n_macro();
        parked.validate(
            "parked coupled stream",
            lag,
            |s| s.validate("parked coupled stream", params.tables.n_pair()),
            |(macros, items), n_items| {
                macros.iter().all(|&a| (a as usize) < n_macro)
                    && items.iter().all(|&i| (i as usize) < n_items)
            },
        )?;
        Ok(Self {
            params,
            core: OnlineTrellis::resume(lag, parked),
            #[cfg(feature = "testkit")]
            last_rows: None,
        })
    }

    /// Ends the stream: resolves every not-yet-committed tick by
    /// backtracking from the final frontier and returns that tail — ticks
    /// [`Lag::committed`]`..pushed` — as a path. The decisions
    /// [`push`](Self::push) already returned are not repeated.
    ///
    /// Under [`Lag::Unbounded`] (or a fixed lag at least as long as the
    /// stream) nothing was emitted, so the tail is the whole path — what
    /// [`CoupledHdbn::viterbi`] returns for the same ticks.
    ///
    /// # Errors
    /// [`ModelError::InsufficientData`] if no tick was ever pushed.
    pub fn finalize(self) -> Result<JointPath, ModelError> {
        if self.core.ticks_pushed() == 0 {
            return Err(ModelError::InsufficientData {
                what: "viterbi decoding".into(),
                available: 0,
                required: 1,
            });
        }
        let (tail, log_prob) = self.core.resolve_tail();
        let (mut macros, mut micros) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
        for (m, c) in tail {
            for u in 0..2 {
                macros[u].push(m[u]);
                micros[u].push(c[u]);
            }
        }
        Ok(JointPath {
            macros,
            micros,
            log_prob,
            states_explored: self.core.states_explored(),
            transition_ops: self.core.transition_ops(),
        })
    }
}

/// One tick of a single-chain backpointer window while a push runs (like
/// [`JointEntry`]).
#[derive(Debug, Default)]
struct ChainEntry {
    slice: Slice,
    back: Vec<u32>,
    cands: Vec<MicroCandidate>,
}

impl TrellisEntry for ChainEntry {
    type Payload = ChainPick;
    type Item = MicroCandidate;
    type Decision = (usize, MicroCandidate);

    fn back_row(&self) -> &[u32] {
        &self.back
    }

    fn back_of(&self, j: usize) -> usize {
        self.back[j] as usize
    }

    fn payload(&self, j: usize) -> ChainPick {
        (self.slice.activities[j] as u32, self.slice.cands[j] as u32)
    }

    fn items(&self) -> impl Iterator<Item = MicroCandidate> + '_ {
        self.cands.iter().copied()
    }

    fn item_ids((_, micro): &mut ChainPick) -> &mut [u32] {
        std::slice::from_mut(micro)
    }

    fn decide((a, c): ChainPick, item: impl Fn(u32) -> MicroCandidate) -> Self::Decision {
        (a as usize, item(c))
    }
}

/// Incremental fixed-lag decoder for one user's hierarchical chain
/// ([`SingleHdbn::viterbi`] runs it under [`Lag::Unbounded`]), wrapping the
/// same [`OnlineTrellis`] core as the coupled decoder.
pub struct OnlineSingleViterbi {
    params: Arc<HdbnParams>,
    user: usize,
    core: OnlineTrellis<ChainEntry, Survivors>,
}

impl OnlineSingleViterbi {
    /// Starts an empty stream decoding `user`'s chain.
    pub fn new(model: SingleHdbn, user: usize, lag: Lag) -> Self {
        let params = model.shared_params();
        Self {
            params,
            user,
            core: OnlineTrellis::new(lag),
        }
    }

    /// Ticks consumed so far.
    pub fn ticks_pushed(&self) -> usize {
        self.core.ticks_pushed()
    }

    /// Current backpointer-window length.
    pub fn window_len(&self) -> usize {
        self.core.window_len()
    }

    /// Chain states the last push's DP step folded (see
    /// [`OnlineCoupledViterbi::last_survivors`]).
    pub fn last_survivors(&self) -> Option<usize> {
        self.core.last_survivors()
    }

    /// Consumes one tick; returns the newly ripened decision, if any.
    ///
    /// Zero heap allocations per push once warmed, like
    /// [`OnlineCoupledViterbi::push`].
    ///
    /// # Errors
    /// [`ModelError::EmptyStateSpace`] if the tick has no candidates for
    /// this user.
    pub fn push(&mut self, tick: &TickInput) -> Result<Option<SmoothedChain>, ModelError> {
        single::validate_tick_user(tick, self.core.ticks_pushed(), self.user)?;
        let (p, user) = (&self.params, self.user);
        self.core.push_entry(&ChainFamily { p }, |entry, arena| {
            fill_slice(p, tick, user, arena, &mut entry.slice);
            entry.cands.clear();
            entry.cands.extend_from_slice(&tick.candidates[user]);
            entry.slice.len() as u64
        });
        Ok(self
            .core
            .emit_ready(|(macro_id, micro), tick| SmoothedChain {
                tick,
                macro_id,
                micro,
            }))
    }

    /// Checkpoints the stream (see [`OnlineCoupledViterbi::park`]).
    pub fn park(&self) -> ParkedChain {
        self.core.park()
    }

    /// Rehydrates a parked stream against `model`, decoding `user`'s
    /// chain (see [`OnlineCoupledViterbi::resume`] for the continuation
    /// guarantee).
    ///
    /// # Errors
    /// [`ModelError::Persistence`] when the parked state is structurally
    /// inconsistent with the model.
    pub fn resume(
        model: SingleHdbn,
        user: usize,
        lag: Lag,
        parked: &ParkedChain,
    ) -> Result<Self, ModelError> {
        let params = model.shared_params();
        let (n_macro, n_pair) = (params.n_macro(), params.tables.n_pair());
        let what = "parked chain stream";
        parked.validate(
            what,
            lag,
            |s| s.validate(what, n_pair, n_macro),
            |&(a, i), n_items| (a as usize) < n_macro && (i as usize) < n_items,
        )?;
        Ok(Self {
            params,
            user,
            core: OnlineTrellis::resume(lag, parked),
        })
    }

    /// Ends the stream, returning the uncommitted tail as a path (see
    /// [`OnlineCoupledViterbi::finalize`]); the whole path, as
    /// [`SingleHdbn::viterbi`] returns it, when no mid-stream decision was
    /// emitted.
    ///
    /// # Errors
    /// [`ModelError::InsufficientData`] if no tick was ever pushed.
    pub fn finalize(self) -> Result<SinglePath, ModelError> {
        if self.core.ticks_pushed() == 0 {
            return Err(ModelError::InsufficientData {
                what: "single-chain inference".into(),
                available: 0,
                required: 1,
            });
        }
        let (tail, log_prob) = self.core.resolve_tail();
        let (macros, micros) = tail.into_iter().unzip();
        Ok(SinglePath {
            macros,
            micros,
            log_prob,
            states_explored: self.core.states_explored(),
            transition_ops: self.core.transition_ops(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::params::{HdbnConfig, HdbnParams};
    use crate::trellis::Record;
    use cace_mining::constraint::{ConstraintMiner, LabeledSequence};

    pub(crate) fn toy_params(coupled: bool) -> HdbnParams {
        let mut macros = Vec::new();
        for r in 0..40 {
            for _ in 0..10 {
                macros.push(r % 2);
            }
        }
        let n = macros.len();
        let seq = LabeledSequence {
            macros: [macros.clone(), macros.clone()],
            posturals: [macros.clone(), macros.clone()],
            gesturals: [vec![0; n], vec![0; n]],
            locations: [macros.clone(), macros],
        };
        let stats = ConstraintMiner {
            laplace: 0.1,
            n_macro: 2,
            n_postural: 2,
            n_gestural: 2,
            n_location: 2,
        }
        .mine(&[seq])
        .unwrap();
        let config = if coupled {
            HdbnConfig::default()
        } else {
            HdbnConfig::uncoupled()
        };
        HdbnParams::new(stats, config).unwrap()
    }

    fn obs_tick(m: usize, strength: f64) -> TickInput {
        let cands = |fav: usize| -> Vec<MicroCandidate> {
            (0..2)
                .map(|p| MicroCandidate {
                    postural: p,
                    gestural: Some(0),
                    location: p,
                    obs_loglik: if p == fav { 0.0 } else { -strength },
                })
                .collect()
        };
        TickInput {
            candidates: [cands(m), cands(m)],
            macro_candidates: [None, None],
            macro_bonus: Vec::new(),
        }
    }

    pub(crate) fn glitchy_ticks() -> Vec<TickInput> {
        (0..30)
            .map(|t| {
                let m = usize::from(t >= 15);
                let strength = if t % 7 == 3 { 0.4 } else { 3.0 };
                obs_tick(if t % 11 == 5 { 1 - m } else { m }, strength)
            })
            .collect()
    }

    #[test]
    fn finalize_returns_exactly_the_unemitted_tail() {
        let ticks = glitchy_ticks();
        let n = ticks.len();
        for lag in [0, 2, n - 1, n] {
            let mut coupled =
                OnlineCoupledViterbi::new(CoupledHdbn::new(toy_params(true)), Lag::Fixed(lag));
            let mut single =
                OnlineSingleViterbi::new(SingleHdbn::new(toy_params(false)), 1, Lag::Fixed(lag));
            let (mut joint_decisions, mut chain_decisions) = (Vec::new(), Vec::new());
            for tick in &ticks {
                joint_decisions.extend(coupled.push(tick).unwrap());
                chain_decisions.extend(single.push(tick).unwrap());
            }
            let committed = Lag::Fixed(lag).committed(n);
            assert_eq!(committed, n.saturating_sub(lag));
            let want: Vec<usize> = (0..committed).collect();
            let joint_ticks: Vec<usize> = joint_decisions.iter().map(|d| d.tick).collect();
            let chain_ticks: Vec<usize> = chain_decisions.iter().map(|d| d.tick).collect();
            assert_eq!(joint_ticks, want, "lag {lag}");
            assert_eq!(chain_ticks, want, "lag {lag}");
            let tail = coupled.finalize().unwrap();
            let chain = single.finalize().unwrap();
            for u in 0..2 {
                assert_eq!(tail.macros[u].len(), n - committed, "lag {lag}");
                assert_eq!(tail.micros[u].len(), n - committed, "lag {lag}");
            }
            assert_eq!(chain.macros.len(), n - committed, "lag {lag}");
            assert_eq!(chain.micros.len(), n - committed, "lag {lag}");
        }
    }

    #[test]
    fn unbounded_lag_is_bit_identical_to_batch_coupled() {
        let model = CoupledHdbn::new(toy_params(true));
        let ticks = glitchy_ticks();
        let batch = model.viterbi(&ticks).unwrap();
        let mut online = OnlineCoupledViterbi::new(model, Lag::Unbounded);
        for tick in &ticks {
            assert_eq!(online.push(tick).unwrap(), None, "unbounded never emits");
        }
        let streamed = online.finalize().unwrap();
        assert_eq!(streamed, batch, "full JointPath equality, floats included");
    }

    #[test]
    fn long_fixed_lag_is_bit_identical_to_batch_coupled() {
        let model = CoupledHdbn::new(toy_params(true));
        let ticks = glitchy_ticks();
        let batch = model.viterbi(&ticks).unwrap();
        let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(ticks.len()));
        for tick in &ticks {
            assert_eq!(online.push(tick).unwrap(), None);
        }
        assert_eq!(online.finalize().unwrap(), batch);
    }

    #[test]
    fn unbounded_lag_is_bit_identical_to_batch_single() {
        let model = SingleHdbn::new(toy_params(false));
        let ticks = glitchy_ticks();
        for user in 0..2 {
            let batch = model.viterbi(&ticks, user).unwrap();
            let mut online = OnlineSingleViterbi::new(model.clone(), user, Lag::Unbounded);
            for tick in &ticks {
                assert_eq!(online.push(tick).unwrap(), None);
            }
            assert_eq!(online.finalize().unwrap(), batch, "user {user}");
        }
    }

    #[test]
    fn fixed_lag_emits_on_schedule_and_bounds_the_window() {
        let lag = 4;
        let model = CoupledHdbn::new(toy_params(true));
        let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(lag));
        let ticks = glitchy_ticks();
        let mut decisions = Vec::new();
        for (t, tick) in ticks.iter().enumerate() {
            let emitted = online.push(tick).unwrap();
            if t < lag {
                assert!(emitted.is_none(), "tick {t} before the lag horizon");
            } else {
                let d = emitted.expect("ripened decision");
                assert_eq!(d.tick, t - lag);
                decisions.push(d);
            }
            assert!(
                online.window_len() <= lag + 2,
                "window {} at tick {t}",
                online.window_len()
            );
        }
        assert_eq!(decisions.len(), ticks.len() - lag);
        // Finalization resolves only the `lag` ticks never emitted.
        let tail = online.finalize().unwrap();
        assert_eq!(tail.macros[0].len(), lag);
        assert_eq!(tail.macros[1].len(), lag);
    }

    #[test]
    fn fixed_lag_decisions_recover_clear_activities() {
        // Zero lag = greedy filtering; still trivially correct on
        // unambiguous input.
        let model = CoupledHdbn::new(toy_params(true));
        let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(0));
        for t in 0..20 {
            let m = usize::from(t >= 10);
            let d = online.push(&obs_tick(m, 6.0)).unwrap().expect("lag 0");
            assert_eq!(d.tick, t);
            assert_eq!(d.macros, [m, m], "tick {t}");
        }
        assert_eq!(online.window_len(), 1, "lag-0 window stays minimal");
    }

    #[test]
    fn single_chain_fixed_lag_matches_schedule() {
        let model = SingleHdbn::new(toy_params(false));
        let mut online = OnlineSingleViterbi::new(model, 0, Lag::Fixed(3));
        let ticks = glitchy_ticks();
        for (t, tick) in ticks.iter().enumerate() {
            let emitted = online.push(tick).unwrap();
            assert_eq!(emitted.is_some(), t >= 3, "tick {t}");
            if let Some(d) = emitted {
                assert_eq!(d.tick, t - 3);
            }
            assert!(online.window_len() <= 5);
        }
        let tail = online.finalize().unwrap();
        assert_eq!(tail.macros.len(), 3);
    }

    /// Streams `ticks` through a coupled decoder, parking + resuming at
    /// tick `park_at`; returns (decisions, final path).
    fn coupled_with_park(
        model: &CoupledHdbn,
        ticks: &[TickInput],
        lag: Lag,
        park_at: usize,
    ) -> (Vec<SmoothedJoint>, JointPath) {
        let mut online = OnlineCoupledViterbi::new(model.clone(), lag);
        let mut decisions = Vec::new();
        for (t, tick) in ticks.iter().enumerate() {
            if t == park_at {
                let parked = online.park();
                online = OnlineCoupledViterbi::resume(model.clone(), lag, &parked)
                    .expect("own park output resumes");
            }
            decisions.extend(online.push(tick).unwrap());
        }
        (decisions, online.finalize().unwrap())
    }

    #[test]
    fn park_resume_at_every_tick_is_bit_identical_coupled() {
        let ticks = glitchy_ticks();
        for lag in [Lag::Unbounded, Lag::Fixed(4)] {
            let model = CoupledHdbn::new(toy_params(true));
            let mut unbroken = OnlineCoupledViterbi::new(model.clone(), lag);
            let mut straight = Vec::new();
            for tick in &ticks {
                straight.extend(unbroken.push(tick).unwrap());
            }
            let expected = unbroken.finalize().unwrap();
            for park_at in 0..=ticks.len() {
                let (decisions, path) = coupled_with_park(&model, &ticks, lag, park_at);
                assert_eq!(decisions, straight, "{lag:?} park@{park_at}");
                assert_eq!(path, expected, "{lag:?} park@{park_at}");
            }
        }
    }

    #[test]
    fn park_resume_at_every_tick_is_bit_identical_single() {
        let ticks = glitchy_ticks();
        let lag = Lag::Fixed(3);
        let model = SingleHdbn::new(toy_params(false));
        let mut unbroken = OnlineSingleViterbi::new(model.clone(), 1, lag);
        let mut straight = Vec::new();
        for tick in &ticks {
            straight.extend(unbroken.push(tick).unwrap());
        }
        let expected = unbroken.finalize().unwrap();
        for park_at in 0..=ticks.len() {
            let mut online = OnlineSingleViterbi::new(model.clone(), 1, lag);
            let mut decisions = Vec::new();
            for (t, tick) in ticks.iter().enumerate() {
                if t == park_at {
                    let parked = online.park();
                    online = OnlineSingleViterbi::resume(model.clone(), 1, lag, &parked)
                        .expect("own park output resumes");
                }
                decisions.extend(online.push(tick).unwrap());
            }
            assert_eq!(decisions, straight, "park@{park_at}");
            assert_eq!(online.finalize().unwrap(), expected, "park@{park_at}");
        }
    }

    #[test]
    fn tampered_parked_state_is_rejected_not_a_panic() {
        let model = CoupledHdbn::new(toy_params(true));
        let mut online = OnlineCoupledViterbi::new(model.clone(), Lag::Fixed(2));
        for tick in glitchy_ticks().iter().take(8) {
            online.push(tick).unwrap();
        }
        let parked = online.park();
        assert_eq!(parked.compact.len(), 2, "lag 2: two compacted entries");
        let resume =
            |p: &ParkedCoupled| OnlineCoupledViterbi::resume(model.clone(), Lag::Fixed(2), p);
        let rejected = |p: &ParkedCoupled| matches!(resume(p), Err(ModelError::Persistence { .. }));
        assert!(resume(&parked).is_ok());

        let mut bad = parked.clone();
        bad.pushed += 1; // cursor no longer covers the window
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        bad.base = usize::MAX; // cursor arithmetic must not overflow
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        bad.survivors.scores[0] = f64::NAN;
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        bad.survivors.scores.pop(); // survivor columns of different lengths
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        bad.survivors.states.clear(); // a pushed stream with no survivor
        bad.survivors.scores.clear();
        bad.survivors.pairs.clear();
        bad.survivors.runs.clear();
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        bad.survivors.k[1] = 0; // survivors outside their tick
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        bad.survivors.pairs[0][1] = u32::MAX; // pair id outside the tables
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        bad.top.0 = 16; // an argmax outside the 4 × 4 tick
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        bad.compact.clear(); // survivors with no window entry
        bad.base = bad.pushed;
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        bad.compact[0].records[0].payload.0[1] = 2; // a macro the model lacks
        assert!(rejected(&bad));

        let mut bad = parked.clone();
        let n_items = bad.compact[0].items.len() as u32;
        bad.compact[0].records[0].payload.1[1] = n_items; // a micro tuple the tick lacks
        assert!(rejected(&bad));
    }

    #[test]
    fn compacted_windows_that_a_backtrack_could_miss_are_rejected() {
        use crate::wire::{ByteReader, ByteWriter};
        let model = CoupledHdbn::new(toy_params(true));
        let lag = Lag::Fixed(4);
        let mut online = OnlineCoupledViterbi::new(model.clone(), lag);
        for tick in glitchy_ticks().iter().take(9) {
            online.push(tick).unwrap();
        }
        let reread = |p: &ParkedCoupled| {
            let mut w = ByteWriter::new();
            p.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let parked = ParkedCoupled::decode_from(&mut r).unwrap();
            r.expect_end().unwrap();
            parked
        };
        let resume = |p: &ParkedCoupled| OnlineCoupledViterbi::resume(model.clone(), lag, p);
        let rejected =
            |p: &ParkedCoupled| matches!(resume(&reread(p)), Err(ModelError::Persistence { .. }));
        let parked = online.park();
        assert!(resume(&reread(&parked)).is_ok());
        assert_eq!(parked.compact.len(), 4);
        let named = |p: &ParkedCoupled, i: usize| {
            p.compact[i]
                .records
                .iter()
                .map(|r| r.state)
                .collect::<Vec<_>>()
        };
        // Removes the record of `state` from entry `i`, keeping the entry
        // nonempty.
        let drop_record = |p: &mut ParkedCoupled, i: usize, state: u32| {
            let first = p.compact[i].records[0];
            p.compact[i].records.retain(|r| r.state != state);
            if p.compact[i].records.is_empty() {
                p.compact[i].records.push(Record {
                    state: state + 1,
                    ..first
                });
            }
        };

        // Every backpointer must name a record of the entry before it.
        let mut bad = parked.clone();
        let target = bad.compact[2].records[0].back;
        drop_record(&mut bad, 1, target);
        assert!(rejected(&bad), "a compacted backpointer names no record");

        // ... every survivor of the newest tick one of the newest entry,
        // which the next step's backpointers name ...
        let mut bad = parked.clone();
        let target = bad.survivors.states[0];
        drop_record(&mut bad, 3, target);
        assert!(rejected(&bad), "a survivor names no record");

        // ... and so must the argmax, where every backtrack starts, and
        // state 0, which a destination nothing reaches points at.
        for target in [parked.top.0 as u32, 0] {
            let mut bad = parked.clone();
            drop_record(&mut bad, 3, target);
            assert!(rejected(&bad), "state {target} names no record");
        }

        // Record states strictly ascend.
        let mut bad = parked.clone();
        let first = bad.compact[1].records[0];
        bad.compact[1].records.push(first);
        assert!(
            rejected(&bad),
            "a repeated record state: {:?}",
            named(&bad, 1)
        );
        let mut bad = parked.clone();
        bad.compact[0].records.reverse();
        if bad.compact[0].records.len() == 1 {
            let record = bad.compact[0].records[0];
            bad.compact[0].records.insert(
                0,
                Record {
                    state: record.state + 1,
                    ..record
                },
            );
        }
        assert!(rejected(&bad), "descending record states");

        // A compacted entry holds at least one record.
        let mut bad = parked.clone();
        bad.compact[0].records.clear();
        assert!(rejected(&bad), "an empty compacted entry");
    }

    #[test]
    fn resumed_counters_saturate_instead_of_overflowing() {
        let ticks = glitchy_ticks();
        let model = CoupledHdbn::new(toy_params(true));
        let mut online = OnlineCoupledViterbi::new(model.clone(), Lag::Fixed(2));
        for tick in &ticks[..8] {
            online.push(tick).unwrap();
        }
        let mut parked = online.park();
        parked.states_explored = u64::MAX - 1;
        parked.transition_ops = u64::MAX - 1;
        let mut resumed = OnlineCoupledViterbi::resume(model, Lag::Fixed(2), &parked).unwrap();
        for tick in &ticks[8..] {
            resumed.push(tick).unwrap();
        }
        let tail = resumed.finalize().unwrap();
        assert_eq!(tail.states_explored, u64::MAX);
        assert_eq!(tail.transition_ops, u64::MAX);
    }

    #[test]
    fn survivor_gauge_is_unparked_and_repeats_exactly() {
        let model = CoupledHdbn::new(toy_params(true));
        let ticks = glitchy_ticks();
        let mut online = OnlineCoupledViterbi::new(model.clone(), Lag::Fixed(2));
        assert_eq!(online.last_survivors(), None);
        online.push(&ticks[0]).unwrap();
        assert_eq!(
            online.last_survivors(),
            None,
            "no step before the second push"
        );
        let mut gauge = Vec::new();
        for tick in &ticks[1..] {
            online.push(tick).unwrap();
            let survivors = online.last_survivors().expect("a step ran");
            // 2 activities × 2 candidates per chain → 16 joint states.
            assert!((1..=16).contains(&survivors), "{survivors}");
            gauge.push(survivors);
        }
        assert!(
            gauge.iter().any(|&s| s < 16),
            "dominance prunes the toy frontier"
        );
        let resumed = OnlineCoupledViterbi::resume(model.clone(), Lag::Fixed(2), &online.park())
            .expect("own park output resumes");
        assert_eq!(resumed.last_survivors(), None, "the gauge is not parked");

        let mut again = OnlineCoupledViterbi::new(model, Lag::Fixed(2));
        let mut repeat = Vec::new();
        for tick in &ticks {
            again.push(tick).unwrap();
            repeat.extend(again.last_survivors());
        }
        assert_eq!(repeat, gauge, "the count repeats exactly");
    }

    #[test]
    fn a_stream_keeps_buffers_sized_by_its_own_ticks() {
        // 8 candidates per user: 16 states per chain, against the narrow
        // stream's 2 (one candidate).
        let wide = TickInput {
            candidates: [0, 1].map(|_| {
                (0..8)
                    .map(|c| MicroCandidate {
                        postural: c % 2,
                        gestural: Some(0),
                        location: c % 2,
                        obs_loglik: -(c as f64) * 0.1,
                    })
                    .collect()
            }),
            macro_candidates: [None, None],
            macro_bonus: Vec::new(),
        };
        let mut narrow_tick = obs_tick(0, 3.0);
        for cands in &mut narrow_tick.candidates {
            cands.truncate(1);
        }
        let model = CoupledHdbn::new(toy_params(true));
        let mut big = OnlineCoupledViterbi::new(model.clone(), Lag::Fixed(2));
        let mut small = OnlineCoupledViterbi::new(model, Lag::Fixed(2));
        for _ in 0..6 {
            big.push(&wide).unwrap();
            small.push(&narrow_tick).unwrap();
        }
        let survivors = big.core.survivors();
        assert_eq!(survivors.k, [16, 16]);
        assert!(
            survivors.len() >= 16,
            "equal candidates keep a wide selection: {} survivors",
            survivors.len()
        );
        // The thread's scratch grew to the wide ticks; the narrow stream's
        // own survivors, 2 × 2 joint states at most, did not.
        let survivors = small.core.survivors();
        assert_eq!(survivors.k, [2, 2]);
        for cap in [
            survivors.states.capacity(),
            survivors.scores.capacity(),
            survivors.pairs.capacity(),
            survivors.runs.capacity(),
        ] {
            assert!(cap <= 4, "capacity {cap} came from the wide stream");
        }
    }

    #[test]
    fn streaming_errors_mirror_batch_errors() {
        let model = CoupledHdbn::new(toy_params(true));
        let online = OnlineCoupledViterbi::new(model.clone(), Lag::Unbounded);
        assert!(matches!(
            online.finalize(),
            Err(ModelError::InsufficientData { .. })
        ));
        let mut online = OnlineCoupledViterbi::new(model, Lag::Unbounded);
        online.push(&obs_tick(0, 1.0)).unwrap();
        let mut bad = obs_tick(0, 1.0);
        bad.candidates[1].clear();
        assert!(matches!(
            online.push(&bad),
            Err(ModelError::EmptyStateSpace { tick: 1 })
        ));
    }
}
