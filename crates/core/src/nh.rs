//! The NH (Naive-HMM) flat product decoder, factored into per-tick DP
//! steps.
//!
//! NH refuses every piece of CACE structure: no hierarchy, no miners, no
//! coupling — just a flat Viterbi over the (macro × micro-beam) product
//! space per user, with macro emissions classified directly from frame
//! features. The streaming [`OnlineFlat`] frontier runs it, one per user;
//! `CaceEngine::recognize` under [`crate::Strategy::NaiveHmm`] is that
//! stream under an unbounded lag.
//!
//! Like the hierarchical decoders in `cace-hdbn`, NH scores through a
//! dense flat table: [`FlatTable`] stores the macro transition matrix
//! dst-major, so each new state's transition column is one contiguous
//! `n_macro`-entry row — no nested `Vec<Vec<f64>>` pointer chase on the
//! hot path. The step kernels write into reused buffers, and the online
//! frontier pools its window entries through the thread's
//! `TrellisScratch`, like the hierarchical decoders. Every step is
//! dominance-pruned over the table's own [`Dominance`] table, exactly like
//! the hierarchical decoders.

use std::cell::Cell;
use std::thread::LocalKey;

use cace_hdbn::trellis::{
    self, Dest, OnlineTrellis, ScoreModel, ScratchSlot, StateSpace, SurvivorSet, Survivors,
    TrellisEntry, TrellisFamily,
};
use cace_hdbn::{Dominance, Lag, ParkedTrellis, TickInput, TrellisArena};
use cace_model::ModelError;

/// One flat product state: (macro activity, micro-candidate index).
pub(crate) type FlatState = (usize, usize);

/// Dense macro transition table, stored flat and dst-major:
/// `row(a)[ap] = log P(a | ap)` is one contiguous slice per new state.
///
/// Values are bitwise copies of the nested rows the engine trains (and
/// persists), so flat scoring is bit-identical to nested scoring.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatTable {
    n: usize,
    /// `to[a * n + ap] = log P(a | ap)`.
    to: Vec<f64>,
    /// Dominance table over the macro transitions (never persisted: a
    /// pure function of `to`, rebuilt with it).
    dominance: Dominance,
}

impl FlatTable {
    /// Builds the dst-major flat table from src-major nested rows
    /// (`rows[ap][a]`).
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let mut to = vec![0.0; n * n];
        for (ap, row) in rows.iter().enumerate() {
            for (a, &v) in row.iter().enumerate() {
                to[a * n + ap] = v;
            }
        }
        let dominance = Dominance::build(n, |ap, a| to[a * n + ap]);
        Self { n, to, dominance }
    }

    /// Reconstructs the src-major nested rows (bitwise; used by engine
    /// snapshots, whose payload keeps the historical nested shape).
    pub(crate) fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.n)
            .map(|ap| (0..self.n).map(|a| self.to[a * self.n + ap]).collect())
            .collect()
    }

    /// The transition column *into* macro `a`, indexed by previous macro.
    #[inline]
    pub(crate) fn row(&self, a: usize) -> &[f64] {
        &self.to[a * self.n..(a + 1) * self.n]
    }

    /// The dominance table over the macro transitions.
    pub(crate) fn dominance(&self) -> &Dominance {
        &self.dominance
    }
}

/// The macro-major product of `n_macro` macros and `n_cands` candidates.
fn product(n_macro: usize, n_cands: usize) -> impl Iterator<Item = FlatState> {
    (0..n_macro).flat_map(move |a| (0..n_cands).map(move |c| (a, c)))
}

/// One tick of the flat product space through the generic
/// [`StateSpace`] lens: macro-major states (so slots coincide with
/// macros), one contiguous same-group pseudo-run covering the whole
/// frontier (NH has no switch structure), and emissions borrowed from the
/// entry.
pub(crate) struct FlatView<'a> {
    states: &'a [FlatState],
    emit: &'a [f64],
    /// The single whole-frontier run.
    run: [(u32, u32, u32); 1],
    n_macro: usize,
}

impl<'a> FlatView<'a> {
    pub(crate) fn new(states: &'a [FlatState], emit: &'a [f64], n_macro: usize) -> Self {
        Self {
            states,
            emit,
            run: [(0, 0, states.len() as u32)],
            n_macro,
        }
    }
}

impl StateSpace for FlatView<'_> {
    fn len(&self) -> usize {
        self.states.len()
    }

    fn n_slots(&self) -> usize {
        self.n_macro
    }

    fn slot(&self, j: usize) -> u32 {
        self.states[j].0 as u32
    }

    fn slot_pair(&self, s: usize) -> u32 {
        s as u32
    }

    fn pair(&self, j: usize) -> u32 {
        self.states[j].0 as u32
    }

    fn group_of(&self, j: usize) -> u32 {
        self.states[j].0 as u32
    }

    fn runs(&self) -> &[(u32, u32, u32)] {
        &self.run
    }

    fn emission(&self, j: usize) -> f64 {
        self.emit[j]
    }
}

/// The NH [`ScoreModel`]: no switch structure (`SWITCH = false`), no
/// prior term at init (the first frontier is the emissions alone), and
/// one dst-major [`FlatTable`] row per destination macro.
pub(crate) struct FlatModel<'a> {
    pub(crate) table: &'a FlatTable,
}

impl ScoreModel for FlatModel<'_> {
    const SWITCH: bool = false;

    fn init_score(&self, _group: u32, _pair: u32, emission: f64) -> f64 {
        emission
    }

    fn dest(&self, pair: u32) -> Dest<'_> {
        Dest {
            group: pair,
            cont: self.table.row(pair as usize),
            switch: &[],
        }
    }
}

/// One tick of the NH backpointer window while a push runs (see
/// [`TrellisEntry`]).
#[derive(Default)]
struct FlatEntry {
    /// The macro-major product of the tick's macros and candidates.
    states: Vec<FlatState>,
    /// Per macro: direct macro classification plus the item bonus.
    macro_emit: Vec<f64>,
    /// The emission of state `(a, c)`: `macro_emit[a]` plus the
    /// candidate's observation log-likelihood.
    emit: Vec<f64>,
    /// Per state; uniform within each macro (the slot of its states).
    back: Vec<u32>,
}

impl FlatEntry {
    /// Fills the entry with one user's tick: `n_macro` macros scored by
    /// `macro_lp`, the tick's candidates, their product and emissions.
    fn fill(&mut self, input: &TickInput, user: usize, macro_lp: &[f64]) {
        let cands = &input.candidates[user];
        self.macro_emit.clear();
        self.macro_emit.extend(
            macro_lp
                .iter()
                .enumerate()
                .map(|(a, &lp)| lp + input.bonus(a)),
        );
        self.states.clear();
        self.states.extend(product(macro_lp.len(), cands.len()));
        let Self {
            states,
            macro_emit,
            emit,
            ..
        } = self;
        emit.clear();
        emit.extend(
            states
                .iter()
                .map(|&(a, c)| macro_emit[a] + cands[c].obs_loglik),
        );
    }

    /// The tick through the generic kernels' [`StateSpace`] lens.
    fn view(&self, n_macro: usize) -> FlatView<'_> {
        FlatView::new(&self.states, &self.emit, n_macro)
    }
}

impl TrellisEntry for FlatEntry {
    type Payload = u32;
    type Item = ();
    type Decision = usize;

    fn back_row(&self) -> &[u32] {
        &self.back
    }

    fn back_of(&self, j: usize) -> usize {
        self.back[j] as usize
    }

    fn payload(&self, j: usize) -> u32 {
        self.states[j].0 as u32
    }

    fn items(&self) -> impl Iterator<Item = ()> + '_ {
        std::iter::empty()
    }

    fn item_ids(_: &mut u32) -> &mut [u32] {
        &mut []
    }

    fn decide(macro_id: u32, _: impl Fn(u32)) -> usize {
        macro_id as usize
    }
}

/// The NH family's [`TrellisFamily`] instantiation: the generic chain
/// kernels over [`FlatModel`].
struct FlatFamily<'a> {
    table: &'a FlatTable,
}

impl TrellisFamily for FlatFamily<'_> {
    type Entry = FlatEntry;
    type Frontier = Vec<f64>;
    type Survivors = Survivors;

    fn init(&self, entry: &mut FlatEntry, v: &mut Vec<f64>) {
        let model = FlatModel { table: self.table };
        trellis::init_into(&model, &entry.view(self.table.n), v);
        entry.back.clear();
    }

    fn fold(
        &self,
        src: &Survivors,
        entry: &mut FlatEntry,
        next: &mut Vec<f64>,
        arena: &mut TrellisArena,
    ) -> u64 {
        let FlatEntry {
            states, emit, back, ..
        } = entry;
        let cur = FlatView::new(states, emit, self.table.n);
        let model = FlatModel { table: self.table };
        trellis::fold_into(&model, src, &cur, arena, back);
        arena.swap_frontier(next);
        (states.len() * src.n_states()) as u64
    }

    fn select(&self, entry: &FlatEntry, v: &Vec<f64>, _: &mut TrellisArena, out: &mut Survivors) {
        out.select(self.table.dominance(), &entry.view(self.table.n), v);
    }

    fn scratch() -> &'static LocalKey<ScratchSlot<FlatEntry, Vec<f64>>> {
        thread_local! {
            static SCRATCH: ScratchSlot<FlatEntry, Vec<f64>> = const { Cell::new(None) };
        }
        &SCRATCH
    }
}

/// Parked [`OnlineFlat`] state — the NH member of the per-strategy parked
/// decoder family (see `cace_hdbn::park` for the coupled/chain members
/// and the park/resume contract): the survivors of the newest frontier
/// (their pair ids are their macros) and its argmax, the compacted window
/// (each record's payload its macro), the cursor and the counters.
pub(crate) type ParkedFlat = ParkedTrellis<Survivors, u32, ()>;

/// Streaming NH frontier for one user, wrapping the same generic
/// [`OnlineTrellis`] core as the hierarchical online decoders: push
/// per-tick (states, emissions), emit fixed-lag macro decisions, finalize
/// into the unemitted tail of the macro path plus overhead accounting.
/// Window entries are pooled and the frontier ping-pongs through the
/// thread's trellis scratch, so a warmed push allocates only what its
/// caller hands it.
///
/// The flat table is *not* captured: every [`push`](Self::push) borrows it
/// from the caller, so one table serves any number of live and parked
/// frontiers (the fleet-sharing property the serving tier relies on).
pub(crate) struct OnlineFlat {
    core: OnlineTrellis<FlatEntry, Survivors>,
}

impl OnlineFlat {
    pub(crate) fn new(lag: Lag) -> Self {
        Self {
            core: OnlineTrellis::new(lag),
        }
    }

    /// Flat states the last push's DP step folded (see
    /// `OnlineCoupledViterbi::last_survivors`).
    pub(crate) fn last_survivors(&self) -> Option<usize> {
        self.core.last_survivors()
    }

    /// Checkpoints the frontier (see `cace_hdbn::park` for the contract).
    pub(crate) fn park(&self) -> ParkedFlat {
        self.core.park()
    }

    /// Rehydrates a parked frontier; bit-identical continuation against
    /// the same `table` and `lag` the stream was opened with.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] when the parked state is structurally
    /// inconsistent with the table.
    pub(crate) fn resume(
        table: &FlatTable,
        lag: Lag,
        parked: &ParkedFlat,
    ) -> Result<Self, ModelError> {
        let what = "parked NH stream";
        parked.validate(
            what,
            lag,
            |s| s.validate(what, table.n, table.n),
            |&a, _| (a as usize) < table.n,
        )?;
        Ok(Self {
            core: OnlineTrellis::resume(lag, parked),
        })
    }

    /// Consumes one user's tick, its macros scored by `macro_lp`; returns
    /// the ripened `(tick, macro)` decision, if any. A warmed push
    /// refills a pooled entry, allocating nothing.
    pub(crate) fn push(
        &mut self,
        table: &FlatTable,
        input: &TickInput,
        user: usize,
        macro_lp: &[f64],
    ) -> Option<(usize, usize)> {
        self.core.push_entry(&FlatFamily { table }, |entry, _| {
            entry.fill(input, user, macro_lp);
            entry.states.len() as u64
        });
        self.core.emit_ready(|macro_id, t| (t, macro_id))
    }

    /// Ends the stream: `(tail, states explored, transition ops)`, where
    /// the tail is the macro path over the ticks never emitted. Returns
    /// `None` if no tick was ever pushed.
    pub(crate) fn finalize(self) -> Option<(Vec<usize>, u64, u64)> {
        if self.core.ticks_pushed() == 0 {
            return None;
        }
        let (tail, _log_prob) = self.core.resolve_tail();
        Some((
            tail,
            self.core.states_explored(),
            self.core.transition_ops(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_table_roundtrips_and_matches_nested_lookup() {
        let rows = vec![
            vec![-0.1, -2.3, -4.5],
            vec![-1.0, -0.2, -3.3],
            vec![-2.2, -1.1, -0.3],
        ];
        let table = FlatTable::from_rows(&rows);
        assert_eq!(table.to_rows(), rows, "from_rows → to_rows is lossless");
        for (ap, row) in rows.iter().enumerate() {
            for (a, &v) in row.iter().enumerate() {
                assert_eq!(table.row(a)[ap], v, "flat load == nested rows[{ap}][{a}]");
            }
        }
    }
}
