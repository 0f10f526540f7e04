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
//! [`init_into`] and [`fold_into`] are the *only* implementations of the
//! chain-shaped recursion. [`fold_into`] folds a [`Survivors`] list — the
//! states a [`Dominance`] selection kept (the whole frontier when nothing
//! can be pruned), each with its score, pair id and run. The exact step
//! out of a dense frontier, `step_into` (the selection, then the fold),
//! and `step_pruned_into` (the fold out of a given survivor list) serve
//! the reference decoders and differential suites, behind the `testkit`
//! feature. The single-chain decoder instantiates them through
//! [`HierModel`] and the NH decoder through its flat-table model in
//! `cace-core`. The coupled joint step is the one family that keeps a
//! bespoke kernel ([`crate::viterbi`]'s two-pass factored fold over the
//! product space — its `O(|S1||S2|(|S1|+|S2|))` shape cannot be expressed
//! as a single per-destination fold without losing the complexity bound),
//! so it plugs into the engine one level up, as a [`TrellisFamily`].
//!
//! The online layer is factored the same way: [`OnlineTrellis`] owns the
//! newest tick's survivors and argmax, the live tree of the backpointer
//! window (the [`Record`]s some backpointer chain out of the newest tick
//! reaches, and the items they name, in pooled stores, the newest tick
//! included), the decision cursor, and the overhead counters — written
//! once — and each family supplies a [`TrellisFamily`] impl that maps a
//! window entry onto the kernels. What only a push reads — the arena, the
//! whole frontier a step writes, the window entry a push fills and the
//! marks of the live tree — is a [`TrellisScratch`] kept per family per
//! thread, not per stream. The whole frontier's type is the family's
//! ([`Frontier`]): the chain and NH families write one dense score per
//! state, the coupled family a
//! [`JointFrontier`](crate::viterbi::JointFrontier) factored per slot pair
//! that is never materialized. A push asks it for its argmax and its
//! survivors and keeps only those ([`SurvivorSet`]).
//! [`forward_backward`] is the single scaled alpha/beta recursion,
//! parameterized over [`PosteriorModel`].
//!
//! # Tie-breaking contract
//!
//! Per destination, candidates are visited in ascending source order with
//! strict-`>` first-argmax, and each same-group switch run collapses to
//! its first-maximum source plus the switch constant (the *run collapse*
//! of [`fold_into`]). The frontier termination argmax is the
//! last-max [`argmax`] (the coupled frontier finds the same state slot
//! pair by slot pair). Dominance only removes sources that cannot win, so
//! a pruned step equals the full-frontier step bit for bit (see
//! [`crate::dominance`]).

use std::cell::Cell;
use std::collections::VecDeque;
use std::thread::LocalKey;

use cace_model::ModelError;

use crate::arena::TrellisArena;
use crate::dominance::Dominance;
use crate::forward::{log_sum_exp, normalize_log};
use crate::online::Lag;
use crate::params::HdbnParams;
use crate::park::{check, ParkedTrellis};
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

/// The survivors of one tick's dominance selection over a chain-shaped
/// frontier, with all the next fold reads of each: its state, its score,
/// its pair id and its activity run. A chain or NH stream holds exactly
/// this of its frontier between pushes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Survivors {
    /// States of the tick the survivors were selected from.
    pub(crate) n_states: u32,
    /// Survivor states, ascending.
    pub(crate) states: Vec<u32>,
    /// Their frontier scores.
    pub(crate) scores: Vec<f64>,
    /// Their pair ids.
    pub(crate) pairs: Vec<u32>,
    /// The survivors cut by the tick's runs: `(group, start, end)`,
    /// half-open ranges of survivors, ascending.
    pub(crate) runs: Vec<(u32, u32, u32)>,
}

impl Survivors {
    /// Selects the survivors of `v`, the frontier over the states of
    /// `cur`, against `dom` (every state when nothing can be pruned).
    pub fn select<Sp: StateSpace>(&mut self, dom: &Dominance, cur: &Sp, v: &[f64]) {
        dom.select(cur, v, &mut self.states);
        self.gather(cur, v);
    }

    /// Fills every column but the states from the tick and its frontier.
    fn gather<Sp: StateSpace>(&mut self, cur: &Sp, v: &[f64]) {
        let Self {
            n_states,
            states,
            scores,
            pairs,
            runs,
        } = self;
        *n_states = cur.len() as u32;
        scores.clear();
        scores.extend(states.iter().map(|&j| v[j as usize]));
        pairs.clear();
        pairs.extend(states.iter().map(|&j| cur.pair(j as usize)));
        // `states` is ascending over a group-major tick, so each run's
        // survivors are contiguous.
        runs.clear();
        let (tick_runs, mut r, mut i) = (cur.runs(), 0usize, 0usize);
        while i < states.len() {
            while tick_runs[r].2 <= states[i] {
                r += 1;
            }
            let (g, _, run_end) = tick_runs[r];
            let start = i;
            while i < states.len() && states[i] < run_end {
                i += 1;
            }
            runs.push((g, start as u32, i as u32));
        }
    }

    /// Number of survivors.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether there is no survivor (before a stream's first tick).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Checks everything a fold reads: survivors present, strictly
    /// ascending inside the tick, pair ids below `n_pair`, scores free of
    /// NaN, and runs that tile the survivors with groups below `n_group`.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] naming the first failed check.
    pub fn validate(&self, what: &str, n_pair: usize, n_group: usize) -> Result<(), ModelError> {
        let n = self.states.len();
        check(n > 0, || format!("{what}: no survivor"))?;
        check(self.scores.len() == n && self.pairs.len() == n, || {
            format!("{what}: survivor column lengths disagree")
        })?;
        check(
            self.states.windows(2).all(|w| w[0] < w[1]) && self.states[n - 1] < self.n_states,
            || format!("{what}: survivor states not strictly ascending inside the tick"),
        )?;
        check(self.pairs.iter().all(|&p| (p as usize) < n_pair), || {
            format!("{what}: survivor pair id out of range")
        })?;
        check(self.scores.iter().all(|x| !x.is_nan()), || {
            format!("{what}: NaN survivor score")
        })?;
        let mut cursor = 0u32;
        for &(g, start, end) in &self.runs {
            check(
                (g as usize) < n_group && start == cursor && end > start,
                || format!("{what}: malformed survivor run"),
            )?;
            cursor = end;
        }
        check(cursor as usize == n, || {
            format!("{what}: survivor runs do not cover the survivors")
        })
    }
}

impl SurvivorSet for Survivors {
    fn states(&self) -> &[u32] {
        &self.states
    }

    fn n_states(&self) -> usize {
        self.n_states as usize
    }
}

/// One DP step out of a survivor list: only `src`'s states are
/// transitioned out of. The new frontier lands in `arena.v_next` (the
/// caller swaps — see [`TrellisArena::swap_frontier`]) and per-state
/// backpointers into the source tick in `back`. Backpointers name source
/// states, not survivor indices, so backtracking is oblivious to pruning;
/// with every state a survivor the step folds the whole frontier.
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
pub fn fold_into<Sp: StateSpace, M: ScoreModel>(
    model: &M,
    src: &Survivors,
    cur: &Sp,
    arena: &mut TrellisArena,
    back: &mut Vec<u32>,
) {
    let m = cur.len();
    let d = cur.n_slots();
    let TrellisArena {
        w,
        w_arg,
        v_next,
        run_max,
        run_arg,
        ..
    } = arena;
    let Survivors {
        states,
        scores,
        pairs,
        runs,
        ..
    } = src;
    if M::SWITCH {
        run_max.clear();
        run_arg.clear();
        for &(_, start, end) in runs {
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0u32;
            for i in start as usize..end as usize {
                if scores[i] > best {
                    best = scores[i];
                    arg = states[i];
                }
            }
            run_max.push(best);
            run_arg.push(arg);
        }
    }
    w.clear();
    w.resize(d, f64::NEG_INFINITY);
    w_arg.clear();
    w_arg.resize(d, 0);
    for s in 0..d {
        let dest = model.dest(cur.slot_pair(s));
        let mut best = f64::NEG_INFINITY;
        let mut best_arg = 0u32;
        for (r, &(gr, start, end)) in runs.iter().enumerate() {
            if !M::SWITCH || gr == dest.group {
                for i in start as usize..end as usize {
                    let score = scores[i] + dest.cont[pairs[i] as usize];
                    if score > best {
                        best = score;
                        best_arg = states[i];
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

/// [`fold_into`] out of the states in `keep` (ascending) of the dense
/// frontier `v` over `prev`, for the reference decoders and the
/// differential suites.
#[cfg(feature = "testkit")]
pub fn step_pruned_into<Sp: StateSpace, M: ScoreModel>(
    model: &M,
    prev: &Sp,
    v: &[f64],
    keep: &[u32],
    cur: &Sp,
    arena: &mut TrellisArena,
    back: &mut Vec<u32>,
) {
    let mut src = Survivors {
        states: keep.to_vec(),
        ..Survivors::default()
    };
    src.gather(prev, v);
    fold_into(model, &src, cur, arena, back);
}

/// One exact DP step out of the dense frontier `v` over `prev`: selects
/// its survivors against `dom` (every state when nothing can be pruned)
/// and runs [`fold_into`] over them. The new frontier lands in the arena
/// ([`TrellisArena::swap_frontier`]); returns the number of source states
/// the kernel folded. For the differential suites.
#[cfg(feature = "testkit")]
pub fn step_into<Sp: StateSpace, M: ScoreModel>(
    model: &M,
    dom: &Dominance,
    prev: &Sp,
    v: &[f64],
    cur: &Sp,
    arena: &mut TrellisArena,
    back: &mut Vec<u32>,
) -> usize {
    let mut src = Survivors::default();
    src.select(dom, prev, v);
    fold_into(model, &src, cur, arena, back);
    src.len()
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
        let TrellisArena { w, terms, .. } = &mut arena;
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
        let TrellisArena { w, terms, .. } = &mut arena;
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

/// One tick of an online backpointer window while a push runs: the
/// thread's scratch entry (see [`TrellisScratch`]), which the push fills,
/// folds into and compacts at once to [`Record`]s plus the entry's
/// [`Item`](Self::Item)s, the stream's newest window entry.
pub trait TrellisEntry: Default {
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

    /// The item ids a payload names, for renumbering when a compacted
    /// entry drops the items no record names.
    fn item_ids(payload: &mut Self::Payload) -> &mut [u32];

    /// The decision of a payload whose entry's item `i` is `item(i)`.
    fn decide(payload: Self::Payload, item: impl Fn(u32) -> Self::Item) -> Self::Decision;
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

/// One compacted window entry as a park holds it: the items its records
/// name and its records, ascending by state.
#[derive(Debug, Clone, PartialEq)]
pub struct Compacted<P, I> {
    /// The tick's items (its candidate tuples) that payloads name, in
    /// tick order.
    pub items: Vec<I>,
    /// One record per state a backtrack through the tick can reach.
    pub records: Vec<Record<P>>,
}

impl<P, I> Default for Compacted<P, I> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            records: Vec::new(),
        }
    }
}

/// Finds the record of `state` in one compacted entry (records ascending
/// by state).
pub fn find_record<P>(records: &[Record<P>], state: u32) -> Option<&Record<P>> {
    records
        .binary_search_by_key(&state, |r| r.state)
        .ok()
        .map(|i| &records[i])
}

/// A tick's whole frontier as a step writes it, in the thread's
/// [`TrellisScratch`]: the chain families hold one dense score per state
/// (`Vec<f64>`), the coupled family a slot-factored
/// [`JointFrontier`](crate::viterbi::JointFrontier). A stream keeps only
/// its survivors ([`SurvivorSet`]) and its argmax.
pub trait Frontier: Default {
    /// `(state, score)` of the last maximum — the termination argmax every
    /// backtrack starts from (see [`argmax`]).
    fn argmax(&self) -> (usize, f64);
}

impl Frontier for Vec<f64> {
    fn argmax(&self) -> (usize, f64) {
        scalar::argmax(self)
    }
}

/// What a stream keeps of its newest frontier between pushes: the
/// survivors of its dominance selection, with what the next fold reads of
/// each ([`Survivors`] for the chain families,
/// [`JointSurvivors`](crate::viterbi::JointSurvivors) for the coupled one).
pub trait SurvivorSet: Default + Clone + std::fmt::Debug {
    /// The survivor states, ascending.
    fn states(&self) -> &[u32];

    /// States of the tick the survivors were selected from.
    fn n_states(&self) -> usize;
}

/// Everything a push reads that a stream does not keep between pushes:
/// the [`TrellisArena`], the whole frontier a step writes, the window
/// entry a push fills and the marks of the window's live tree. A push
/// selects the stream's survivors from the frontier and compacts the
/// entry into the stream's stores, so buffers never move between streams
/// and each stream's grow only with its own survivors and records.
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
    marks: Marks,
}

/// The buffers that mark a window's live tree: the states the records of
/// one entry name in the entry before it, and one entry's item renumbering.
#[derive(Debug, Default)]
struct Marks {
    /// States named, ascending and distinct.
    named: Vec<u32>,
    /// Per item id: its id among the items kept, or [`DROPPED`].
    remap: Vec<u32>,
}

/// [`Marks::remap`] of an item that no kept record names.
const DROPPED: u32 = u32::MAX;

impl Marks {
    /// Sets `named` to the distinct `states`, ascending.
    fn name(&mut self, states: impl Iterator<Item = u32>) {
        self.named.clear();
        self.named.extend(states);
        self.named.sort_unstable();
        self.named.dedup();
    }

    /// Keeps the records whose state `named` holds, in order, at the
    /// front of `records`; returns how many.
    fn keep_records<P: Copy>(&self, records: &mut [Record<P>]) -> usize {
        let (named, mut k, mut kept) = (&self.named, 0, 0);
        for r in 0..records.len() {
            let state = records[r].state;
            while k < named.len() && named[k] < state {
                k += 1;
            }
            if named.get(k) == Some(&state) {
                records[kept] = records[r];
                kept += 1;
            }
        }
        kept
    }

    /// Renumbers the item ids of `records`' payloads to their places among
    /// the entry's `n_items` items that some record names, in order, and
    /// leaves the map in `remap`; returns how many items are named.
    fn renumber<E: TrellisEntry>(
        &mut self,
        records: &mut [Record<E::Payload>],
        n_items: usize,
    ) -> usize {
        let remap = &mut self.remap;
        remap.clear();
        remap.resize(n_items, DROPPED);
        for r in records.iter_mut() {
            for &id in E::item_ids(&mut r.payload).iter() {
                remap[id as usize] = 0;
            }
        }
        let mut named = 0;
        for to in remap.iter_mut().filter(|to| **to != DROPPED) {
            *to = named;
            named += 1;
        }
        for r in records {
            for id in E::item_ids(&mut r.payload) {
                *id = remap[*id as usize];
            }
        }
        named as usize
    }

    /// Keeps the items `records` name, in order, at the front of `items`,
    /// renumbering the payloads; returns how many.
    fn keep_items<E: TrellisEntry>(
        &mut self,
        records: &mut [Record<E::Payload>],
        items: &mut [E::Item],
    ) -> usize {
        let kept = self.renumber::<E>(records, items.len());
        for (i, &to) in self.remap.iter().enumerate() {
            if to != DROPPED {
                items[to as usize] = items[i];
            }
        }
        kept
    }
}

/// The per-thread slot a family keeps its [`TrellisScratch`] in, empty
/// until the thread's first push and while a push holds it.
pub type ScratchSlot<E, F> = Cell<Option<Box<TrellisScratch<E, F>>>>;

/// One decoder family plugged into the online core: how a window entry is
/// initialized, folded into, and selected from.
pub trait TrellisFamily {
    /// The family's window-entry type.
    type Entry: TrellisEntry;
    /// The whole frontier a step writes.
    type Frontier: Frontier;
    /// What a stream keeps of a frontier.
    type Survivors: SurvivorSet;

    /// Initializes the frontier from the stream's first entry (and clears
    /// the entry's backpointers).
    fn init(&self, entry: &mut Self::Entry, v: &mut Self::Frontier);

    /// The survivor-list kernel out of the previous tick's survivors `src`
    /// into `entry` (its backpointer row included), the new frontier
    /// landing in `next`. Returns the step's transition-op charge under
    /// the dense accounting convention.
    fn fold(
        &self,
        src: &Self::Survivors,
        entry: &mut Self::Entry,
        next: &mut Self::Frontier,
        arena: &mut TrellisArena,
    ) -> u64;

    /// The dominance selection of `v`, the frontier over `entry`'s states,
    /// into `out`.
    fn select(
        &self,
        entry: &Self::Entry,
        v: &Self::Frontier,
        arena: &mut TrellisArena,
        out: &mut Self::Survivors,
    );

    /// This family's scratch slot on the calling thread: a
    /// `thread_local!` of the family's own (see [`TrellisScratch`]).
    fn scratch() -> &'static LocalKey<ScratchSlot<Self::Entry, Self::Frontier>>;
}

/// The family-independent half of an online fixed-lag decoder: the newest
/// tick's survivors and argmax, the live tree of the backpointer window,
/// the decision cursor (`base`/`pushed`) and the overhead counters —
/// exactly what the next step or a backtrack reads. The push-only buffers
/// live in the thread's [`TrellisScratch`]. Written once; each public
/// online decoder ([`crate::OnlineCoupledViterbi`],
/// [`crate::OnlineSingleViterbi`], and `cace-core`'s NH frontier) wraps one
/// of these plus its family-specific decision/emission bookkeeping.
///
/// # What a stream holds between pushes
///
/// A push folds the previous tick's survivors into the thread's scratch
/// entry, then runs the dominance selection on the new frontier while it
/// is still in cache ([`TrellisFamily::select`]): a source state that is
/// strictly worse than the frontier maximum into every destination can
/// never be named by a backpointer (see [`crate::dominance`]), so the
/// stream keeps only the survivors, with their scores and what the next
/// fold reads of their source side, plus the frontier's last-max argmax,
/// where every backtrack starts.
///
/// The window is the live tree of backpointers. The newest entry is its
/// tick's items (candidate tuples) and one [`Record`] per survivor, plus
/// the argmax, plus state 0 — a destination that no survivor reaches
/// points at state 0, survivor or not. Every older entry holds exactly the
/// states the records of the entry after it name, and every entry exactly
/// the items its records name (payload item ids renumbered to match), so
/// each record lies on a backpointer chain out of the newest entry. This
/// is the on-line Viterbi rule (Šrámek, Brejová & Vinař, WABI 2007)
/// applied to CarpeDiem survivor sets (Esposito & Radicioni, JMLR 2009).
///
/// A push keeps it that way. Once the new tick's survivors are selected,
/// the previous newest entry moves into the two pooled stores every older
/// entry shares with only the states the new records name, so one wide
/// tick never sets the stores' capacity. When that drops a record, the
/// marking walks back through the older entries until one keeps all it
/// held: a live set only shrinks, so nothing older can change, and the
/// walk costs amortized `O(live)`. The stores are compacted in place, so
/// a warmed fixed-lag push allocates nothing; under [`Lag::Unbounded`]
/// the window holds the live tree plus the one record per tick the chains
/// have met on.
#[derive(Debug, Clone)]
pub struct OnlineTrellis<E: TrellisEntry, S = Survivors> {
    lag: Lag,
    /// The newest tick's survivors.
    survivors: S,
    /// `(state, score)` of the newest frontier's last maximum.
    top: (usize, f64),
    /// The newest tick's compacted entry (tick `pushed - 1`).
    newest: Compacted<E::Payload, E::Item>,
    /// Compacted entries for ticks `base .. pushed - 1`, oldest first:
    /// where each entry's records and items lie in the stores.
    spans: VecDeque<Span>,
    /// Every older compacted entry's records, oldest first.
    records: Vec<Record<E::Payload>>,
    /// Every older compacted entry's items, oldest first.
    items: Vec<E::Item>,
    /// Tick index of the oldest retained entry.
    base: usize,
    /// Ticks consumed so far.
    pushed: usize,
    states_explored: u64,
    transition_ops: u64,
    /// Source states folded by the last step (never parked).
    last_survivors: Option<usize>,
}

/// Where one compacted entry lives in the stores: index and count of its
/// records, and of its items.
#[derive(Debug, Clone, Copy)]
struct Span {
    record: usize,
    records: u32,
    item: usize,
    items: u32,
}

impl<E: TrellisEntry, S: SurvivorSet> OnlineTrellis<E, S> {
    /// An empty stream with the given smoothing lag.
    pub fn new(lag: Lag) -> Self {
        Self {
            lag,
            survivors: S::default(),
            top: (0, f64::NEG_INFINITY),
            newest: Compacted::default(),
            spans: VecDeque::new(),
            records: Vec::new(),
            items: Vec::new(),
            base: 0,
            pushed: 0,
            states_explored: 0,
            transition_ops: 0,
            last_survivors: None,
        }
    }

    /// Rebuilds a stream from its park. The caller has validated it
    /// ([`ParkedTrellis::validate`]). A park may hold records no chain
    /// reaches; they are dropped here, as a push would have.
    pub fn resume(lag: Lag, parked: &ParkedTrellis<S, E::Payload, E::Item>) -> Self {
        let mut core = Self::new(lag);
        let mut marks = Marks::default();
        for pair in parked.compact.windows(2) {
            core.newest.clone_from(&pair[0]);
            marks.name(pair[1].records.iter().map(|r| r.back));
            core.retire_newest(&mut marks);
        }
        if let Some(newest) = parked.compact.last() {
            core.newest.clone_from(newest);
            let Compacted { items, records } = &mut core.newest;
            let kept = marks.keep_items::<E>(records, items);
            items.truncate(kept);
        }
        core.survivors.clone_from(&parked.survivors);
        core.top = parked.top;
        core.base = parked.base;
        core.pushed = parked.pushed;
        core.states_explored = parked.states_explored;
        core.transition_ops = parked.transition_ops;
        core
    }

    /// Checkpoints the stream: everything the decode depends on, and
    /// nothing it has already emitted (see [`ParkedTrellis`]).
    pub fn park(&self) -> ParkedTrellis<S, E::Payload, E::Item> {
        ParkedTrellis {
            survivors: self.survivors.clone(),
            top: self.top,
            compact: self.compacted(),
            base: self.base,
            pushed: self.pushed,
            states_explored: self.states_explored,
            transition_ops: self.transition_ops,
        }
    }

    /// Ticks consumed so far.
    pub fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// Current backpointer-window length (at most `lag + 1` entries after
    /// a [`Lag::Fixed`] push, one at lag 0).
    pub fn window_len(&self) -> usize {
        self.spans.len() + usize::from(self.pushed > 0)
    }

    /// Decisions emitted so far: ticks `0..committed()` have been
    /// returned by [`emit_ready`](Self::emit_ready), the rest are left
    /// for [`resolve_tail`](Self::resolve_tail).
    pub fn committed(&self) -> usize {
        self.lag.committed(self.pushed)
    }

    /// Pre-reserves the window for `additional` more ticks, capped at the
    /// `lag + 1` entries a [`Lag::Fixed`] window ever holds.
    pub fn reserve_ticks(&mut self, additional: usize) {
        let additional = match self.lag {
            Lag::Fixed(lag) => additional.min((lag + 1).saturating_sub(self.window_len())),
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

    /// The newest tick's survivors.
    pub fn survivors(&self) -> &S {
        &self.survivors
    }

    /// The compacted entries, oldest first, the newest included (for
    /// parking).
    pub fn compacted(&self) -> Vec<Compacted<E::Payload, E::Item>> {
        let older = (0..self.spans.len()).map(|i| {
            let (records, items) = self.ranges(i);
            Compacted {
                items: self.items[items].to_vec(),
                records: self.records[records].to_vec(),
            }
        });
        let newest = (self.pushed > 0).then(|| self.newest.clone());
        older.chain(newest).collect()
    }

    /// Store ranges of compacted entry `i`'s records and items.
    fn ranges(&self, i: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let span = self.spans[i];
        (
            span.record..span.record + span.records as usize,
            span.item..span.item + span.items as usize,
        )
    }

    /// The records of compacted entry `i`, the newest included.
    fn records_of(&self, i: usize) -> &[Record<E::Payload>] {
        if i == self.spans.len() {
            return &self.newest.records;
        }
        &self.records[self.ranges(i).0]
    }

    /// The record of `state` in compacted entry `i`.
    ///
    /// # Panics
    /// When the entry holds no such record. An entry holds every state its
    /// successor's records name, and the newest one the argmax: live, by
    /// construction (see the [type docs](Self)); parked, because resume
    /// rejects a backpointer or an argmax that names no record.
    fn record(&self, i: usize, state: usize) -> &Record<E::Payload> {
        u32::try_from(state)
            .ok()
            .and_then(|state| find_record(self.records_of(i), state))
            .expect("a compacted entry holds every state its successor's records name")
    }

    /// The decision of a record of compacted entry `i`.
    fn decide_record(&self, i: usize, record: &Record<E::Payload>) -> E::Decision {
        if i == self.spans.len() {
            return E::decide(record.payload, |k| self.newest.items[k as usize]);
        }
        let (_, items) = self.ranges(i);
        E::decide(record.payload, |k| self.items[items.start + k as usize])
    }

    /// Consumes one tick, advancing the frontier by one exact DP step (init
    /// on the first tick): `fill` writes the tick into the scratch entry (with
    /// the arena's fill buffers at hand) and returns the states to charge
    /// to the exploration counter. The step folds the kept survivors, then
    /// the new frontier's survivors are selected, the previous newest entry
    /// retires to the live tree and the new entry is compacted at once (see
    /// the [type docs](Self)). Runs on the thread's [`TrellisScratch`]. The
    /// caller follows up with [`emit_ready`](Self::emit_ready).
    pub fn push_entry<Fam>(
        &mut self,
        family: &Fam,
        fill: impl FnOnce(&mut E, &mut TrellisArena) -> u64,
    ) where
        Fam: TrellisFamily<Entry = E, Survivors = S>,
        E: 'static,
        Fam::Frontier: 'static,
    {
        let slot = Fam::scratch();
        let mut scratch = slot.take().unwrap_or_default();
        let TrellisScratch {
            arena,
            next,
            entry,
            marks,
        } = &mut *scratch;
        let n_states = fill(entry, arena);
        self.states_explored = self.states_explored.saturating_add(n_states);
        if self.pushed == 0 {
            family.init(entry, next);
            self.last_survivors = None;
        } else {
            let ops = family.fold(&self.survivors, entry, next, arena);
            self.transition_ops = self.transition_ops.saturating_add(ops);
            self.last_survivors = Some(self.survivors.states().len());
        }
        self.top = next.argmax();
        family.select(entry, next, arena, &mut self.survivors);
        if self.pushed > 0 {
            let extras = [0, self.top.0 as u32];
            let named = self.survivors.states().iter().chain(&extras);
            marks.name(named.map(|&j| entry.back_of(j as usize) as u32));
            self.retire_newest(marks);
        }
        self.compact(entry, marks);
        self.pushed += 1;
        slot.set(Some(scratch));
    }

    /// Moves the newest compacted entry into the pooled stores with only
    /// the states `marks` names — those the records of the entry after it
    /// name — and the items they name, then walks the marking back through
    /// the older entries if that dropped a record.
    fn retire_newest(&mut self, marks: &mut Marks) {
        let Compacted { items, records } = &mut self.newest;
        let held = records.len();
        let kept = marks.keep_records(records);
        records.truncate(kept);
        let kept_items = marks.keep_items::<E>(records, items);
        items.truncate(kept_items);
        self.spans.push_back(Span {
            record: self.records.len(),
            records: kept as u32,
            item: self.items.len(),
            items: kept_items as u32,
        });
        self.records.extend_from_slice(records);
        self.items.extend_from_slice(items);
        if kept < held {
            self.prune_back(marks);
        }
    }

    /// Walks the live marking back from the newest stored entry, which has
    /// just lost records: each entry before it keeps only the states the
    /// entry after it names, until one keeps all it held. The entries that
    /// lost records leave gaps in the stores, closed by moving every entry
    /// after the lowest of them down.
    fn prune_back(&mut self, marks: &mut Marks) {
        let last = self.spans.len() - 1;
        let mut i = last;
        while i > 0 {
            let (after, _) = self.ranges(i);
            marks.name(self.records[after].iter().map(|r| r.back));
            let (records, items) = self.ranges(i - 1);
            let kept = marks.keep_records(&mut self.records[records.clone()]);
            if kept == records.len() {
                break;
            }
            let records = &mut self.records[records.start..records.start + kept];
            let kept_items = marks.keep_items::<E>(records, &mut self.items[items]);
            let span = &mut self.spans[i - 1];
            (span.records, span.items) = (kept as u32, kept_items as u32);
            i -= 1;
        }
        if i == last {
            return;
        }
        let span = self.spans[i];
        let mut record = span.record + span.records as usize;
        let mut item = span.item + span.items as usize;
        for e in i + 1..=last {
            let (records, items) = self.ranges(e);
            self.records.copy_within(records, record);
            self.items.copy_within(items, item);
            let span = &mut self.spans[e];
            (span.record, span.item) = (record, item);
            record += span.records as usize;
            item += span.items as usize;
        }
        self.records.truncate(record);
        self.items.truncate(item);
    }

    /// Compacts `entry` into the newest entry's buffers: one record per
    /// survivor, plus the argmax, plus state 0, ascending, and the items
    /// they name.
    fn compact(&mut self, entry: &E, marks: &mut Marks) {
        let whole = entry.back_row().is_empty();
        let record = |j: u32| Record {
            state: j,
            back: if whole {
                0
            } else {
                entry.back_of(j as usize) as u32
            },
            payload: entry.payload(j as usize),
        };
        let Compacted { items, records } = &mut self.newest;
        records.clear();
        let mut extras = [0, self.top.0 as u32].into_iter().peekable();
        for &j in self.survivors.states() {
            while let Some(x) = extras.next_if(|&x| x <= j) {
                if x < j && records.last().is_none_or(|r| r.state != x) {
                    records.push(record(x));
                }
            }
            records.push(record(j));
        }
        for x in extras {
            if records.last().is_none_or(|r| r.state != x) {
                records.push(record(x));
            }
        }
        marks.renumber::<E>(records, entry.items().count());
        items.clear();
        let named = entry.items().zip(&marks.remap);
        items.extend(
            named
                .filter(|&(_, &to)| to != DROPPED)
                .map(|(item, _)| item),
        );
    }

    /// `(state, score)` of the newest frontier's last maximum; `(0, −∞)`
    /// before the first push.
    pub fn frontier_argmax(&self) -> (usize, f64) {
        self.top
    }

    /// Walks the backpointer window from the frontier argmax down to
    /// window index `idx` and returns that state's decision.
    fn decision_at(&self, idx: usize) -> E::Decision {
        let mut j = self.top.0;
        for i in (idx + 1..=self.spans.len()).rev() {
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
        // except the newest, which holds the argmax and the records the
        // next step's backpointers name. Dropped records and items leave
        // their room in the pooled stores.
        let ripe = (tick + 1).saturating_sub(self.base).min(self.spans.len());
        self.spans.drain(..ripe);
        let (records, items) = self
            .spans
            .front()
            .map_or((self.records.len(), self.items.len()), |s| {
                (s.record, s.item)
            });
        self.records.drain(..records);
        self.items.drain(..items);
        for span in &mut self.spans {
            span.record -= records;
            span.item -= items;
        }
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
        let (mut j, log_prob) = self.top;
        let mut tail = Vec::with_capacity(self.pushed - committed);
        for t in (committed..self.pushed).rev() {
            let idx = t - self.base;
            let record = self.record(idx, j);
            tail.push(self.decide_record(idx, record));
            j = record.back as usize;
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
