//! The generic trellis engine: one trait-parameterized kernel core shared
//! by every decoder family.
//!
//! Historically each decoder family — coupled joint, single chain, and the
//! NH flat product in `cace-core` — carried its own copy of the DP step,
//! the first-tick init, and the online window/free-list machinery. This
//! module factors the shared shape out into two axes:
//!
//! * [`StateSpace`] — how one tick enumerates its states: how many, which
//!   *slot* (distinct destination-context id) each belongs to, which
//!   source *pair id* indexes a transition row, the contiguous same-group
//!   runs of the (group-major) state list, and the per-state emission.
//! * [`ScoreModel`] — how scores are looked up: the first-tick init score
//!   and, per destination slot, a [`Dest`] bundle of the continue row
//!   (indexed by source pair id) and, for hierarchical models, the
//!   group-switch row (indexed by source group).
//!
//! [`init_into`] and [`step_pruned_into`] are the *only* implementations
//! of the chain-shaped recursion, and [`step_into`] is the exact step
//! every chain decoder runs: a [`Dominance`] survivor selection (the whole
//! frontier when nothing can be pruned), then the survivor-list kernel —
//! [`select_into`] then [`fold_into`], which the online core calls apart.
//! The single-chain decoder instantiates them through [`HierModel`] and
//! the NH decoder through its flat-table model in `cace-core`. The coupled
//! joint step is the one family that keeps a bespoke kernel
//! ([`crate::viterbi`]'s two-pass factored fold over the product space —
//! its `O(|S1||S2|(|S1|+|S2|))` shape cannot be expressed as a single
//! per-destination fold without losing the complexity bound), so it plugs
//! into the engine one level up, as a [`TrellisFamily`].
//!
//! The online layer is factored the same way: [`OnlineTrellis`] owns the
//! frontier, the survivor-compacted backpointer window (the newest entry
//! whole, every older one as [`Record`]s and its items in pooled stores), the
//! decision cursor, and the overhead counters — written once — and each
//! family supplies a [`TrellisFamily`] impl that maps a window entry onto
//! the kernels. What only a push reads — the arena, the frontier a step
//! writes and the window entry a push fills — is a [`TrellisScratch`] kept
//! per family per thread, not per stream; a push copies its results into
//! the stream's own buffers. The frontier's type is the family's
//! ([`Frontier`]): the chain and NH families hold one dense score per
//! state, the coupled
//! family a [`JointFrontier`](crate::viterbi::JointFrontier) factored per
//! slot pair that is never materialized; the core only asks a frontier
//! for its argmax, and a window entry for one state's backpointer and
//! decision payload.
//! [`forward_backward`] is the single scaled alpha/beta recursion,
//! parameterized over [`PosteriorModel`].
//!
//! # Tie-breaking contract
//!
//! Per destination, candidates are visited in ascending source order with
//! strict-`>` first-argmax, and each same-group switch run collapses to
//! its first-maximum source plus the switch constant (the *run collapse*
//! of [`step_pruned_into`]). The frontier termination argmax is the
//! last-max [`argmax`] (the coupled frontier finds the same state slot
//! pair by slot pair). Dominance only removes sources that cannot win, so
//! a pruned step equals the full-frontier step bit for bit (see
//! [`crate::dominance`]).

use std::cell::Cell;
use std::collections::VecDeque;
use std::thread::LocalKey;

use crate::arena::{StepScratch, TrellisArena};
use crate::dominance::Dominance;
use crate::forward::{log_sum_exp, normalize_log};
use crate::online::Lag;
use crate::params::HdbnParams;
use crate::scalar;

pub use crate::scalar::argmax;

/// One tick's state enumeration, as the generic kernels see it.
///
/// States are indexed `0..len()` in *group-major* order: contiguous
/// same-group runs, ascending. Each state carries a *pair id* (the index
/// of its transition-row context in the score model) and belongs to a
/// *slot* — one of the tick's distinct pair ids — so the per-destination
/// fold can be computed once per slot and fanned out per state.
pub trait StateSpace {
    /// Number of states this tick.
    fn len(&self) -> usize;

    /// Whether the tick has no states (kernels require nonempty spaces).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct destination contexts (slots) this tick.
    fn n_slots(&self) -> usize;

    /// Slot of state `j` (an index into `0..n_slots()`).
    fn slot(&self, j: usize) -> u32;

    /// Pair id of slot `s` — the [`ScoreModel::dest`] lookup key.
    fn slot_pair(&self, s: usize) -> u32;

    /// Pair id of state `j` — its index *inside* a continue row when the
    /// state is a fold source.
    fn pair(&self, j: usize) -> u32;

    /// Group (macro activity) of state `j`.
    fn group_of(&self, j: usize) -> u32;

    /// Contiguous same-group runs `(group, start, end)` (half-open,
    /// ascending) tiling `0..len()`.
    fn runs(&self) -> &[(u32, u32, u32)];

    /// Emission score of state `j`.
    fn emission(&self, j: usize) -> f64;
}

/// The score lookups of one destination slot.
pub struct Dest<'a> {
    /// Destination group — sources in the same group take the `cont` row,
    /// sources in other groups the `switch` row (ignored when the model
    /// has [`ScoreModel::SWITCH`]` == false`).
    pub group: u32,
    /// Continue-transition row, indexed by source pair id.
    pub cont: &'a [f64],
    /// Group-switch row, indexed by source group (empty when the model
    /// has no switch structure).
    pub switch: &'a [f64],
}

/// Score lookups of one decoder family: the first-tick init score plus
/// the per-destination transition rows.
pub trait ScoreModel {
    /// Whether transitions split into same-group *continue* rows and
    /// group-level *switch* constants. When `false`, every source scores
    /// through [`Dest::cont`] and the kernels skip the run-max switch
    /// cache entirely.
    const SWITCH: bool;

    /// Complete first-tick score of a state (prior term plus emission).
    fn init_score(&self, group: u32, pair: u32, emission: f64) -> f64;

    /// Transition rows into the destination context `pair`.
    fn dest(&self, pair: u32) -> Dest<'_>;
}

/// Writes the first-tick frontier of `cur` into `v`.
///
/// The single init implementation behind every family's first push.
pub fn init_into<Sp: StateSpace, M: ScoreModel>(model: &M, cur: &Sp, v: &mut Vec<f64>) {
    v.clear();
    v.reserve(cur.len());
    for j in 0..cur.len() {
        v.push(model.init_score(cur.group_of(j), cur.pair(j), cur.emission(j)));
    }
}

/// One DP step over a survivor list: only the states in `keep` (indices
/// sorted ascending) are transitioned out of. The new frontier lands in
/// `step.v_next` (the caller swaps — see [`StepScratch::swap_frontier`])
/// and per-state backpointers into the previous tick's frontier in
/// `back`. Backpointers stay in full-frontier coordinates, so backtracking
/// is oblivious to pruning; with `keep = 0..prev.len()` the step folds the
/// whole frontier.
///
/// Two memoizations shape the candidates:
///
/// 1. The fold into a new state depends on it only through its pair id —
///    computed once per distinct pair (slot), fanned out.
/// 2. **Run collapse.** Under [`ScoreModel::SWITCH`], a switch score
///    depends on the source only through its group, so each same-group
///    run of survivors contributes one candidate: its first-maximum
///    survivor plus the switch constant. Continue-run survivors are
///    candidates one by one, ascending. Runs are visited in ascending
///    order, and strict `>` decides every comparison.
///
/// The collapse is not a per-state scan in floating point: two sources of
/// one switch run whose sums with the switch constant round equal are a
/// tie to a per-state scan (the earlier source wins) but not to the
/// collapse, which names the run's maximum. `cace_testkit::toy::naive_step`
/// is the executable statement of this contract.
pub fn step_pruned_into<Sp: StateSpace, M: ScoreModel>(
    model: &M,
    prev: &Sp,
    v: &[f64],
    keep: &[u32],
    cur: &Sp,
    step: &mut StepScratch,
    back: &mut Vec<u32>,
) {
    let m = cur.len();
    let d = cur.n_slots();
    let StepScratch {
        w,
        w_arg,
        v_next,
        run_max,
        run_arg,
        runs_scratch,
        ..
    } = step;
    // The survivor list cut by the frontier's runs (`keep` is ascending
    // over a group-major frontier, so each run's survivors are
    // contiguous), then the two memoizations. A switch-free model folds
    // every survivor through one pseudo-run.
    runs_scratch.clear();
    if M::SWITCH {
        let (runs, mut r, mut i) = (prev.runs(), 0usize, 0usize);
        while i < keep.len() {
            while runs[r].2 <= keep[i] {
                r += 1;
            }
            let (g, _, run_end) = runs[r];
            let start = i;
            while i < keep.len() && keep[i] < run_end {
                i += 1;
            }
            runs_scratch.push((g, start as u32, i as u32));
        }
        let n_runs = runs_scratch.len();
        run_max.clear();
        run_max.resize(n_runs, f64::NEG_INFINITY);
        run_arg.clear();
        run_arg.resize(n_runs, 0);
        for (r, &(_, start, end)) in runs_scratch.iter().enumerate() {
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0u32;
            for &jp in &keep[start as usize..end as usize] {
                let vv = v[jp as usize];
                if vv > best {
                    best = vv;
                    arg = jp;
                }
            }
            run_max[r] = best;
            run_arg[r] = arg;
        }
    } else {
        runs_scratch.push((0, 0, keep.len() as u32));
    }
    w.clear();
    w.resize(d, f64::NEG_INFINITY);
    w_arg.clear();
    w_arg.resize(d, 0);
    for s in 0..d {
        let dest = model.dest(cur.slot_pair(s));
        let mut best = f64::NEG_INFINITY;
        let mut best_arg = 0u32;
        for (r, &(gr, start, end)) in runs_scratch.iter().enumerate() {
            if !M::SWITCH || gr == dest.group {
                for &jp in &keep[start as usize..end as usize] {
                    let score = v[jp as usize] + dest.cont[prev.pair(jp as usize) as usize];
                    if score > best {
                        best = score;
                        best_arg = jp;
                    }
                }
            } else {
                let score = run_max[r] + dest.switch[gr as usize];
                if score > best {
                    best = score;
                    best_arg = run_arg[r];
                }
            }
        }
        w[s] = best;
        w_arg[s] = best_arg;
    }
    v_next.clear();
    v_next.resize(m, f64::NEG_INFINITY);
    back.clear();
    back.resize(m, 0);
    for j in 0..m {
        let s = cur.slot(j) as usize;
        v_next[j] = w[s] + cur.emission(j);
        back[j] = w_arg[s];
    }
}

/// One exact DP step: selects the survivors of `v` against `dom` (every
/// state when nothing can be pruned) and runs [`step_pruned_into`] over
/// them. The new frontier lands in the arena
/// ([`TrellisArena::swap_frontier`]); returns the number of source states
/// the kernel folded.
pub fn step_into<Sp: StateSpace, M: ScoreModel>(
    model: &M,
    dom: &Dominance,
    prev: &Sp,
    v: &[f64],
    cur: &Sp,
    arena: &mut TrellisArena,
    back: &mut Vec<u32>,
) -> usize {
    select_into(dom, prev, v, arena);
    fold_into(model, prev, v, cur, arena, back)
}

/// The selection half of [`step_into`]: the survivors of `v` against
/// `dom`, ascending, into the arena.
pub fn select_into<Sp: StateSpace>(
    dom: &Dominance,
    prev: &Sp,
    v: &[f64],
    arena: &mut TrellisArena,
) {
    dom.select(prev, v, &mut arena.keep);
}

/// The fold half of [`step_into`]: [`step_pruned_into`] over the
/// survivors [`select_into`] left in the arena; returns their number.
pub fn fold_into<Sp: StateSpace, M: ScoreModel>(
    model: &M,
    prev: &Sp,
    v: &[f64],
    cur: &Sp,
    arena: &mut TrellisArena,
    back: &mut Vec<u32>,
) -> usize {
    let TrellisArena { keep, step, .. } = arena;
    step_pruned_into(model, prev, v, keep, cur, step, back);
    keep.len()
}

/// The hierarchical-chain [`ScoreModel`]: macro prior plus emission at
/// init; dense [`ScoreTables`](crate::ScoreTables) continue rows keyed by
/// `(activity, postural)` pair id, postural-independent switch rows keyed
/// by source activity. The single-chain decoder's trait instantiation
/// (the coupled decoder composes two of these plus the coupling factor in
/// its bespoke joint kernel).
pub struct HierModel<'a> {
    p: &'a HdbnParams,
}

impl<'a> HierModel<'a> {
    /// Wraps a trained parameter set.
    pub fn new(p: &'a HdbnParams) -> Self {
        Self { p }
    }
}

impl ScoreModel for HierModel<'_> {
    const SWITCH: bool = true;

    fn init_score(&self, group: u32, _pair: u32, emission: f64) -> f64 {
        self.p.log_prior[group as usize] + emission
    }

    fn dest(&self, pair: u32) -> Dest<'_> {
        let t = &self.p.tables;
        let a = t.activity_of(pair);
        Dest {
            group: a as u32,
            cont: t.into_row(pair),
            switch: t.switch_row(a),
        }
    }
}

/// [`ScoreModel`] extension for posterior inference: the outgoing
/// (source-keyed) transition row the backward recursion scans.
pub trait PosteriorModel: ScoreModel {
    /// Transition row *out of* source context `pair`, indexed by
    /// destination pair id.
    fn source(&self, pair: u32) -> &[f64];
}

impl PosteriorModel for HierModel<'_> {
    fn source(&self, pair: u32) -> &[f64] {
        self.p.tables.from_row(pair)
    }
}

/// Scaled forward–backward over a sequence of state spaces: returns
/// per-tick posterior marginals `gamma[t][j]` and the sequence
/// log-likelihood. The single generic implementation of the alpha/beta
/// recursion.
pub fn forward_backward<Sp: StateSpace, M: PosteriorModel>(
    model: &M,
    spaces: &[Sp],
) -> (Vec<Vec<f64>>, f64) {
    let mut arena = TrellisArena::new();
    let n_ticks = spaces.len();

    // Forward (scaled). The per-state log-sum-exp accumulation runs
    // through the arena's reused `terms` buffer — no per-state `Vec`.
    let mut log_z = 0.0;
    let mut alphas: Vec<Vec<f64>> = Vec::with_capacity(n_ticks);
    let first = &spaces[0];
    let mut alpha: Vec<f64> = (0..first.len())
        .map(|j| model.init_score(first.group_of(j), first.pair(j), first.emission(j)))
        .collect();
    log_z += normalize_log(&mut alpha);
    alphas.push(alpha);

    for t in 1..n_ticks {
        let cur = &spaces[t];
        let prev = &spaces[t - 1];
        // The fold into a new state depends on it only through its pair
        // id: one log-sum-exp per distinct pair, fanned out.
        let StepScratch { w, terms, .. } = &mut arena.step;
        w.clear();
        w.resize(cur.n_slots(), f64::NEG_INFINITY);
        for s in 0..cur.n_slots() {
            let row = model.dest(cur.slot_pair(s)).cont;
            terms.clear();
            for jp in 0..prev.len() {
                terms.push(alphas[t - 1][jp].max(1e-300).ln() + row[prev.pair(jp) as usize]);
            }
            w[s] = log_sum_exp(terms);
        }
        let mut next = vec![f64::NEG_INFINITY; cur.len()];
        for j in 0..cur.len() {
            next[j] = w[cur.slot(j) as usize] + cur.emission(j);
        }
        log_z += normalize_log(&mut next);
        alphas.push(next);
    }

    // Backward (scaled).
    let mut betas: Vec<Vec<f64>> = vec![Vec::new(); n_ticks];
    let last = n_ticks - 1;
    betas[last] = vec![1.0; spaces[last].len()];
    for t in (0..last).rev() {
        let cur = &spaces[t];
        let nxt = &spaces[t + 1];
        // Mirror of the forward memoization: beta of a state depends on
        // it only through its (source) pair id.
        let StepScratch { w, terms, .. } = &mut arena.step;
        w.clear();
        w.resize(cur.n_slots(), f64::NEG_INFINITY);
        for s in 0..cur.n_slots() {
            let row = model.source(cur.slot_pair(s));
            terms.clear();
            for jn in 0..nxt.len() {
                terms.push(
                    betas[t + 1][jn].max(1e-300).ln()
                        + row[nxt.pair(jn) as usize]
                        + nxt.emission(jn),
                );
            }
            w[s] = log_sum_exp(terms);
        }
        let mut beta = vec![f64::NEG_INFINITY; cur.len()];
        for j in 0..cur.len() {
            beta[j] = w[cur.slot(j) as usize];
        }
        normalize_log(&mut beta);
        betas[t] = beta;
    }

    // Gamma.
    let gamma: Vec<Vec<f64>> = alphas
        .iter()
        .zip(&betas)
        .map(|(a, b)| {
            let mut g: Vec<f64> = a.iter().zip(b).map(|(x, y)| x * y).collect();
            let total: f64 = g.iter().sum();
            if total > 0.0 {
                for v in &mut g {
                    *v /= total;
                }
            }
            g
        })
        .collect();

    (gamma, log_z)
}

/// Implements `Clone` for a struct of buffers so that `clone_from` reuses
/// every field's buffers (a derived `clone_from` reallocates them all).
/// The online core copies a step's results out of the thread's
/// [`TrellisScratch`] this way, so a stream's buffers grow only with its
/// own ticks. Every field must be listed: `clone` names them all.
#[macro_export]
#[doc(hidden)]
macro_rules! clone_reusing {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                Self { $($field: self.$field.clone()),* }
            }

            fn clone_from(&mut self, src: &Self) {
                $(self.$field.clone_from(&src.$field);)*
            }
        }
    };
}

/// One retained tick of an online backpointer window, as the generic
/// online core sees it. Only the newest tick's entry is held whole; once
/// the next step has run, the core compacts it to [`Record`]s plus the
/// entry's [`Item`](Self::Item)s. A push fills the thread's scratch entry
/// (see [`TrellisScratch`]) and copies it into the stream's own with
/// `clone_from`, which must reuse the destination's buffers (see
/// [`clone_reusing`]).
pub trait TrellisEntry: Default + Clone {
    /// What a compacted record keeps of one state's decision: small ids,
    /// read against its entry's items.
    type Payload: Copy + std::fmt::Debug;
    /// One of the per-tick values a payload refers to (a candidate tuple).
    type Item: Copy + std::fmt::Debug;
    /// What a decision reports of one state.
    type Decision;

    /// The backpointer row as the entry holds it (per state, or per slot
    /// pair in the coupled family); empty on a stream's first tick.
    fn back_row(&self) -> &[u32];

    /// Backpointer of state `j`: its predecessor in the previous tick's
    /// frontier. Never asked of an entry with an empty
    /// [`back_row`](Self::back_row).
    fn back_of(&self, j: usize) -> usize;

    /// The decision payload of state `j`.
    fn payload(&self, j: usize) -> Self::Payload;

    /// The entry's items, in the order payloads index them.
    fn items(&self) -> impl Iterator<Item = Self::Item> + '_;

    /// The decision of a payload whose entry's item `i` is `item(i)`.
    fn decide(payload: Self::Payload, item: impl Fn(u32) -> Self::Item) -> Self::Decision;

    /// The decision of state `j` of this (whole) entry.
    fn decision(&self, j: usize) -> Self::Decision {
        Self::decide(self.payload(j), |i| {
            self.items()
                .nth(i as usize)
                .expect("a payload indexes its entry's items")
        })
    }
}

/// One state of a compacted window entry: all a backtrack through that
/// tick reads of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record<P> {
    /// The state's index in its tick's frontier.
    pub state: u32,
    /// Its backpointer into the previous tick's frontier (`0` on a
    /// stream's first tick, where nothing reads it).
    pub back: u32,
    /// What a decision reports of the state, as ids into its entry's
    /// items.
    pub payload: P,
}

/// One compacted window entry as a park holds it: its items and its
/// records, ascending by state.
#[derive(Debug, Clone, PartialEq)]
pub struct Compacted<P, I> {
    /// The tick's items (its candidate tuples) that payloads index.
    pub items: Vec<I>,
    /// One record per state a backtrack through the tick can reach.
    pub records: Vec<Record<P>>,
}

/// Finds the record of `state` in one compacted entry (records ascending
/// by state).
pub fn find_record<P>(records: &[Record<P>], state: u32) -> Option<&Record<P>> {
    records
        .binary_search_by_key(&state, |r| r.state)
        .ok()
        .map(|i| &records[i])
}

/// A live frontier, as the online core sees it: the chain families hold
/// one dense score per state (`Vec<f64>`), the coupled family a
/// slot-factored [`JointFrontier`](crate::viterbi::JointFrontier). Its
/// `clone_from` must reuse the destination's buffers, as a `Vec`'s does.
pub trait Frontier: Default + Clone {
    /// `(state, score)` of the last maximum — the termination argmax every
    /// backtrack starts from (see [`argmax`]).
    fn argmax(&self) -> (usize, f64);
}

impl Frontier for Vec<f64> {
    fn argmax(&self) -> (usize, f64) {
        scalar::argmax(self)
    }
}

/// Everything a push reads that a stream does not keep between pushes:
/// the [`TrellisArena`], the frontier a step writes and the window entry a
/// push fills. A push copies the new frontier and entry into the stream's
/// own buffers, so buffers never move between streams and each stream's
/// grow only with its own ticks.
///
/// There is one per family per thread, in the slot
/// [`TrellisFamily::scratch`] names, so its buffers stay warm in the cache
/// of the thread that runs the pushes and a fleet of streams holds one set
/// per worker, not one per stream. A push takes it out of the slot and puts
/// it back when done, and holds no borrow of the slot in between: a nested
/// or re-entrant push on the same thread finds the slot empty and starts
/// from empty buffers. The scratch grows to the largest tick any stream
/// pushed on the thread and stays there for the thread's life (one set per
/// worker), so a warmed fixed-lag push allocates nothing.
#[derive(Debug, Default)]
pub struct TrellisScratch<E, F> {
    arena: TrellisArena,
    next: F,
    entry: E,
}

/// The per-thread slot a family keeps its [`TrellisScratch`] in, empty
/// until the thread's first push and while a push holds it.
pub type ScratchSlot<E, F> = Cell<Option<Box<TrellisScratch<E, F>>>>;

/// One decoder family plugged into the online core: how a window entry is
/// initialized and stepped.
pub trait TrellisFamily {
    /// The family's window-entry type.
    type Entry: TrellisEntry;
    /// The family's frontier type.
    type Frontier: Frontier;

    /// Initializes the frontier from the stream's first entry (and clears
    /// the entry's backpointers).
    fn init(&self, entry: &mut Self::Entry, v: &mut Self::Frontier);

    /// The first half of an exact DP step from `prev` (with frontier
    /// `v`): the dominance selection, whose survivors land ascending in
    /// the arena.
    fn select(&self, prev: &Self::Entry, v: &Self::Frontier, arena: &mut TrellisArena);

    /// The second half: the survivor-list kernel into `entry` (its
    /// backpointer row included; `prev`'s row is not read), the new
    /// frontier landing in `next`. Returns the step's transition-op charge
    /// under the dense accounting convention, and the number of source
    /// states the kernel folded.
    fn fold(
        &self,
        prev: &Self::Entry,
        v: &Self::Frontier,
        entry: &mut Self::Entry,
        next: &mut Self::Frontier,
        arena: &mut TrellisArena,
    ) -> (u64, usize);

    /// This family's scratch slot on the calling thread: a
    /// `thread_local!` of the family's own (see [`TrellisScratch`]).
    fn scratch() -> &'static LocalKey<ScratchSlot<Self::Entry, Self::Frontier>>;
}

/// The family-independent half of an online fixed-lag decoder: the
/// frontier, the survivor-compacted backpointer window, the decision
/// cursor (`base`/`pushed`) and the overhead counters — exactly what the
/// next step or a backtrack reads. The push-only buffers live in the
/// thread's [`TrellisScratch`]. Written once; each public online decoder
/// ([`crate::OnlineCoupledViterbi`], [`crate::OnlineSingleViterbi`], and
/// `cace-core`'s NH frontier) wraps one of these plus its family-specific
/// decision/emission bookkeeping.
///
/// # The compacted window
///
/// Only the newest tick's entry is held whole: the next step reads its
/// slices. Once step `t + 1` has run, tick `t`'s entry shrinks to its
/// items (candidate tuples) and one [`Record`] per state that step
/// `t + 1`'s backpointers can name — its dominance survivors, plus state 0
/// when some destination is unreachable (such a destination points at
/// state 0, survivor or not). A backtrack never asks for any other state:
/// every backpointer names a survivor, because a pruned state is strictly
/// worse into every destination (see [`crate::dominance`]). A step that
/// folds the whole frontier keeps every state. This is the on-line
/// Viterbi idea (Šrámek, Brejová & Vinař, WABI 2007) applied to
/// CarpeDiem survivor sets (Esposito & Radicioni, JMLR 2009). Records and
/// items of every compacted entry share two pooled stores, and a push
/// copies the step's entry and frontier from the thread scratch into the
/// stream's own buffers, so a warmed fixed-lag push allocates nothing. A
/// step runs in two halves, [`TrellisFamily::select`] then [`TrellisFamily::fold`],
/// with the compaction between them.
#[derive(Debug, Clone)]
pub struct OnlineTrellis<E: TrellisEntry, F = Vec<f64>> {
    lag: Lag,
    /// Live frontier.
    v: F,
    /// The newest tick's whole entry (tick `pushed - 1`); `None` before
    /// the first push.
    newest: Option<E>,
    /// Compacted entries for ticks `base .. pushed - 1`, oldest first: each
    /// entry's first record and first item, as absolute store indices.
    spans: VecDeque<Span>,
    /// Every compacted entry's records, oldest first.
    records: VecDeque<Record<E::Payload>>,
    /// Every compacted entry's items, oldest first.
    items: VecDeque<E::Item>,
    /// Absolute indices of `records[0]` and `items[0]`.
    records_base: usize,
    items_base: usize,
    /// Tick index of the oldest retained entry.
    base: usize,
    /// Ticks consumed so far.
    pushed: usize,
    states_explored: u64,
    transition_ops: u64,
    /// Source states folded by the last step (never parked).
    last_survivors: Option<usize>,
}

/// Where one compacted entry lives in the stores: absolute index and
/// count of its records, and of its items.
#[derive(Debug, Clone, Copy)]
struct Span {
    record: usize,
    records: u32,
    item: usize,
    items: u32,
}

impl<E: TrellisEntry, F: Frontier> OnlineTrellis<E, F> {
    /// An empty stream with the given smoothing lag.
    pub fn new(lag: Lag) -> Self {
        Self::from_parts(lag, F::default(), Vec::new(), None, 0, 0, 0, 0)
    }

    /// Rebuilds a core from parked state: the frontier, the compacted
    /// entries (oldest first, records ascending by state) and the newest
    /// whole entry. The caller has
    /// validated that every backpointer names a record of the entry before
    /// it, and every payload only items of its own entry.
    pub fn from_parts(
        lag: Lag,
        v: F,
        compacted: Vec<Compacted<E::Payload, E::Item>>,
        newest: Option<E>,
        base: usize,
        pushed: usize,
        states_explored: u64,
        transition_ops: u64,
    ) -> Self {
        let mut spans = VecDeque::with_capacity(compacted.len());
        let (mut records, mut items) = (VecDeque::new(), VecDeque::new());
        for entry in compacted {
            spans.push_back(Span {
                record: records.len(),
                records: entry.records.len() as u32,
                item: items.len(),
                items: entry.items.len() as u32,
            });
            records.extend(entry.records);
            items.extend(entry.items);
        }
        Self {
            lag,
            v,
            newest,
            spans,
            records,
            items,
            records_base: 0,
            items_base: 0,
            base,
            pushed,
            states_explored,
            transition_ops,
            last_survivors: None,
        }
    }

    /// Ticks consumed so far.
    pub fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// Current backpointer-window length, compacted entries and the newest
    /// one (bounded by `lag + 2` for [`Lag::Fixed`]).
    pub fn window_len(&self) -> usize {
        self.spans.len() + usize::from(self.newest.is_some())
    }

    /// Tick index of the oldest retained window entry.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Decisions emitted so far: ticks `0..committed()` have been
    /// returned by [`emit_ready`](Self::emit_ready), the rest are left
    /// for [`resolve_tail`](Self::resolve_tail).
    pub fn committed(&self) -> usize {
        self.lag.committed(self.pushed)
    }

    /// Pre-reserves the window for `additional` more ticks, capped at the
    /// `lag + 2` entries a [`Lag::Fixed`] window ever holds.
    pub fn reserve_ticks(&mut self, additional: usize) {
        let additional = match self.lag {
            Lag::Fixed(lag) => additional.min((lag + 2).saturating_sub(self.window_len())),
            Lag::Unbounded => additional,
        };
        self.spans.reserve(additional);
    }

    /// Σ_t |S(t)| states instantiated so far.
    pub fn states_explored(&self) -> u64 {
        self.states_explored
    }

    /// Σ transition evaluations performed so far.
    pub fn transition_ops(&self) -> u64 {
        self.transition_ops
    }

    /// Source states the last DP step folded after dominance selection:
    /// `None` before the second push and right after a resume (the gauge
    /// is not parked).
    pub fn last_survivors(&self) -> Option<usize> {
        self.last_survivors
    }

    /// The live frontier.
    pub fn frontier(&self) -> &F {
        &self.v
    }

    /// The newest tick's whole entry (for parking).
    pub fn newest(&self) -> Option<&E> {
        self.newest.as_ref()
    }

    /// The compacted entries, oldest first (for parking).
    pub fn compacted(&self) -> Vec<Compacted<E::Payload, E::Item>> {
        (0..self.spans.len())
            .map(|i| {
                let (records, items) = self.ranges(i);
                Compacted {
                    items: self.items.range(items).copied().collect(),
                    records: self.records.range(records).copied().collect(),
                }
            })
            .collect()
    }

    /// Store ranges of compacted entry `i`'s records and items.
    fn ranges(&self, i: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let span = self.spans[i];
        let record = span.record - self.records_base;
        let item = span.item - self.items_base;
        (
            record..record + span.records as usize,
            item..item + span.items as usize,
        )
    }

    /// The record of `state` in compacted entry `i`.
    ///
    /// # Panics
    /// When the entry holds no such record. A compacted entry holds every
    /// state its successor's backpointers name: live, by construction
    /// (see the [type docs](Self)); parked, because resume rejects a
    /// backpointer that names no record.
    fn record(&self, i: usize, state: usize) -> &Record<E::Payload> {
        let (range, _) = self.ranges(i);
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (self.records[mid].state as usize) < state {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let record = self.records.get(lo).filter(|_| lo < range.end);
        record
            .filter(|r| r.state as usize == state)
            .expect("a compacted entry holds every state its successor's backpointers name")
    }

    /// The decision of a record of compacted entry `i`.
    fn decide_record(&self, i: usize, record: &Record<E::Payload>) -> E::Decision {
        let (_, items) = self.ranges(i);
        E::decide(record.payload, |k| self.items[items.start + k as usize])
    }

    /// Consumes one tick, advancing the frontier by one exact DP step (init
    /// on the first tick): `fill` writes the tick into the scratch entry (with
    /// the step scratch's fill buffers at hand) and returns the states to
    /// charge to the exploration counter; the previous newest entry is
    /// compacted to the records the new entry's backpointers can name. Runs
    /// on the thread's [`TrellisScratch`]. The caller follows up with
    /// [`emit_ready`](Self::emit_ready).
    pub fn push_entry<Fam>(
        &mut self,
        family: &Fam,
        fill: impl FnOnce(&mut E, &mut StepScratch) -> u64,
    ) where
        Fam: TrellisFamily<Entry = E, Frontier = F>,
        E: 'static,
        F: 'static,
    {
        let slot = Fam::scratch();
        let mut scratch = slot.take().unwrap_or_default();
        let TrellisScratch { arena, next, entry } = &mut *scratch;
        let n_states = fill(entry, &mut arena.step);
        self.states_explored = self.states_explored.saturating_add(n_states);
        let newest = match self.newest.take() {
            None => {
                family.init(entry, &mut self.v);
                self.last_survivors = None;
                entry.clone()
            }
            Some(mut prev) => {
                family.select(&prev, &self.v, arena);
                let zero = self.compact(&prev, &arena.keep);
                let (ops, survivors) = family.fold(&prev, &self.v, entry, next, arena);
                self.transition_ops = self.transition_ops.saturating_add(ops);
                self.last_survivors = Some(survivors);
                self.v.clone_from(next);
                // A destination nothing reaches points at state 0, survivor
                // or not.
                if let Some(zero) = zero.filter(|_| entry.back_row().contains(&0)) {
                    let span = self.spans.back_mut().expect("just compacted");
                    self.records.insert(span.record - self.records_base, zero);
                    span.records += 1;
                }
                prev.clone_from(entry);
                prev
            }
        };
        self.newest = Some(newest);
        self.pushed += 1;
        slot.set(Some(scratch));
    }

    /// Appends `prev`'s compacted entry: its items, and one record per
    /// survivor of the step under way (`keep`, ascending). Returns state
    /// 0's record when state 0 did not survive: the step's backpointers may
    /// still name it.
    fn compact(&mut self, prev: &E, keep: &[u32]) -> Option<Record<E::Payload>> {
        let record_start = self.records_base + self.records.len();
        let item_start = self.items_base + self.items.len();
        let whole = prev.back_row().is_empty();
        let record = |j: u32| Record {
            state: j,
            back: if whole {
                0
            } else {
                prev.back_of(j as usize) as u32
            },
            payload: prev.payload(j as usize),
        };
        let zero = (keep.first() != Some(&0)).then(|| record(0));
        self.records.extend(keep.iter().map(|&j| record(j)));
        self.items.extend(prev.items());
        self.spans.push_back(Span {
            record: record_start,
            records: (self.records_base + self.records.len() - record_start) as u32,
            item: item_start,
            items: (self.items_base + self.items.len() - item_start) as u32,
        });
        zero
    }

    /// Argmax of the live frontier.
    ///
    /// # Panics
    /// Panics if no tick was ever pushed (an empty frontier); the
    /// decoders check that before they ask (see [`argmax`]).
    pub fn frontier_argmax(&self) -> (usize, f64) {
        self.v.argmax()
    }

    /// Walks the backpointer window from the frontier argmax down to
    /// window index `idx` and returns that state's decision.
    fn decision_at(&self, idx: usize) -> E::Decision {
        let newest = self
            .newest
            .as_ref()
            .expect("a pushed stream has a newest entry");
        let (j, _) = self.frontier_argmax();
        let last = self.spans.len();
        if idx == last {
            return newest.decision(j);
        }
        let mut j = newest.back_of(j);
        for i in (idx + 1..last).rev() {
            j = self.record(i, j).back as usize;
        }
        self.decide_record(idx, self.record(idx, j))
    }

    /// The fixed-lag ripening schedule, shared by every family: after a
    /// push, if tick `pushed - 1 - lag` has ripened, resolve its smoothed
    /// state, build the family's decision via `decide(decision, tick)`,
    /// and drop every no-longer-needed compacted entry. Returns `None`
    /// under [`Lag::Unbounded`] or before the horizon fills. Must be
    /// called after at least one [`push_entry`](Self::push_entry).
    pub fn emit_ready<D>(&mut self, decide: impl FnOnce(E::Decision, usize) -> D) -> Option<D> {
        let Lag::Fixed(lag) = self.lag else {
            return None;
        };
        let last = self.pushed - 1;
        if last < lag {
            return None;
        }
        let tick = last - lag;
        let decision = decide(self.decision_at(tick - self.base), tick);
        // Entries at or before the emitted tick are never read again —
        // except the newest entry, which the next step needs as `prev`.
        // Dropped records and items leave their room in the pooled stores.
        let ripe = (tick + 1).saturating_sub(self.base).min(self.spans.len());
        self.spans.drain(..ripe);
        let (record_end, item_end) = (
            self.records_base + self.records.len(),
            self.items_base + self.items.len(),
        );
        let (records_from, items_from) = self
            .spans
            .front()
            .map_or((record_end, item_end), |s| (s.record, s.item));
        self.records.drain(..records_from - self.records_base);
        self.items.drain(..items_from - self.items_base);
        (self.records_base, self.items_base) = (records_from, items_from);
        self.base += ripe;
        Some(decision)
    }

    /// Finalization tail walk, shared by every family: resolves the
    /// uncommitted ticks [`committed`](Self::committed)`..pushed` against
    /// the final frontier argmax (newest first, then reversed into place).
    /// Returns the tail decisions in tick order plus the final frontier
    /// log-score.
    pub fn resolve_tail(&self) -> (Vec<E::Decision>, f64) {
        let committed = self.committed();
        let (mut j, log_prob) = self.frontier_argmax();
        let mut tail = Vec::with_capacity(self.pushed - committed);
        let last = self.spans.len();
        for t in (committed..self.pushed).rev() {
            let idx = t - self.base;
            if idx == last {
                let newest = self
                    .newest
                    .as_ref()
                    .expect("a pushed stream has a newest entry");
                tail.push(newest.decision(j));
                if idx > 0 {
                    j = newest.back_of(j);
                }
            } else {
                let record = self.record(idx, j);
                tail.push(self.decide_record(idx, record));
                j = record.back as usize;
            }
        }
        tail.reverse();
        (tail, log_prob)
    }
}

impl StateSpace for crate::arena::Slice {
    fn len(&self) -> usize {
        self.activities.len()
    }

    fn n_slots(&self) -> usize {
        self.uniq_pairs.len()
    }

    fn slot(&self, j: usize) -> u32 {
        self.slots[j]
    }

    fn slot_pair(&self, s: usize) -> u32 {
        self.uniq_pairs[s]
    }

    fn pair(&self, j: usize) -> u32 {
        self.pairs[j]
    }

    fn group_of(&self, j: usize) -> u32 {
        self.activities[j] as u32
    }

    fn runs(&self) -> &[(u32, u32, u32)] {
        &self.runs
    }

    fn emission(&self, j: usize) -> f64 {
        self.emissions[j]
    }
}
