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
//! frontier pools its window entries, mirroring the `TrellisArena`
//! discipline. Every step is dominance-pruned over the table's own
//! [`Dominance`] table, exactly like the hierarchical decoders.

use std::collections::VecDeque;

use cace_hdbn::park::{check, validate_cursor, validate_frontier};
use cace_hdbn::trellis::{
    self, Dest, OnlineTrellis, ScoreModel, StateSpace, TrellisEntry, TrellisFamily,
};
use cace_hdbn::{Dominance, Lag, TickInput, TrellisArena};
use cace_model::ModelError;
use serde::Deserialize;

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

/// The tick's product state list, enumerated macro-major.
pub(crate) fn states(input: &TickInput, user: usize, n_macro: usize) -> Vec<FlatState> {
    let cands = &input.candidates[user];
    (0..n_macro)
        .flat_map(|a| (0..cands.len()).map(move |c| (a, c)))
        .collect()
}

/// Emission scores aligned with [`states`]: direct macro classification
/// plus the item bonus plus the candidate observation log-likelihood.
pub(crate) fn emissions(
    input: &TickInput,
    user: usize,
    states: &[FlatState],
    macro_lp: &[f64],
) -> Vec<f64> {
    states
        .iter()
        .map(|&(a, c)| macro_lp[a] + input.bonus(a) + input.candidates[user][c].obs_loglik)
        .collect()
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

/// One retained tick of the NH backpointer window (pooled through the
/// generic core's free list).
#[derive(Default)]
struct FlatEntry {
    states: Vec<FlatState>,
    /// The tick's emissions, kept alongside the states so the step kernel
    /// can read the *current* tick's emissions from the entry (never
    /// parked: only the newest tick's emissions are ever read, and a
    /// parked stream re-derives them on the next push).
    emit: Vec<f64>,
    back: Vec<u32>,
}

impl TrellisEntry for FlatEntry {
    fn back_of(&self, j: usize) -> usize {
        self.back[j] as usize
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

    fn init(&self, entry: &mut FlatEntry, v: &mut Vec<f64>) {
        let FlatEntry { states, emit, back } = entry;
        let cur = FlatView::new(states, emit, self.table.n);
        cace_hdbn::trellis::init_into(&FlatModel { table: self.table }, &cur, v);
        back.clear();
    }

    fn step(
        &self,
        prev: &FlatEntry,
        v: &Vec<f64>,
        entry: &mut FlatEntry,
        next: &mut Vec<f64>,
        arena: &mut TrellisArena,
    ) -> (u64, usize) {
        let FlatEntry { states, emit, back } = entry;
        let cur = FlatView::new(states, emit, self.table.n);
        let pv = FlatView::new(&prev.states, &prev.emit, self.table.n);
        let survivors = trellis::step_into(
            &FlatModel { table: self.table },
            self.table.dominance(),
            &pv,
            v,
            &cur,
            arena,
            back,
        );
        arena.swap_frontier(next);
        ((states.len() * prev.states.len()) as u64, survivors)
    }
}

/// Parked form of one retained tick of the NH backpointer window.
#[derive(Debug, Clone, Default, Deserialize)]
pub(crate) struct ParkedFlatEntry {
    pub(crate) states: Vec<FlatState>,
    pub(crate) back: Vec<u32>,
}

/// Parked [`OnlineFlat`] state — the NH member of the per-strategy parked
/// decoder family (see `cace_hdbn::park` for the coupled/chain members
/// and the park/resume contract).
#[derive(Debug, Clone, Default, Deserialize)]
pub(crate) struct ParkedFlat {
    pub(crate) v: Vec<f64>,
    pub(crate) window: Vec<ParkedFlatEntry>,
    pub(crate) base: usize,
    pub(crate) pushed: usize,
    pub(crate) states_explored: u64,
    pub(crate) transition_ops: u64,
}

impl ParkedFlat {
    pub(crate) fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// Bounds-checks everything a resumed [`OnlineFlat`] would read, so a
    /// tampered payload fails cleanly instead of panicking. Cursor and
    /// frontier invariants go through the shared `cace_hdbn::park`
    /// helpers — the same checks, same error shape, as the coupled and
    /// chain families; only the NH-specific per-entry state checks live
    /// here.
    fn validate(&self, table: &FlatTable, lag: Lag) -> Result<(), ModelError> {
        let what = "parked NH stream";
        validate_cursor(what, self.base, self.pushed, self.window.len(), lag)?;
        let mut prev_len = None;
        for (i, e) in self.window.iter().enumerate() {
            check(!e.states.is_empty(), || {
                format!("{what}: window[{i}] has no states")
            })?;
            check(e.states.iter().all(|&(a, _)| a < table.n), || {
                format!("{what}: window[{i}] macro out of range")
            })?;
            if let Some(prev_len) = prev_len {
                check(
                    e.back.len() == e.states.len()
                        && e.back.iter().all(|&b| (b as usize) < prev_len),
                    || format!("{what}: window[{i}] backpointers invalid"),
                )?;
            }
            prev_len = Some(e.states.len());
        }
        if let Some(frontier) = prev_len {
            validate_frontier(what, frontier, &self.v)?;
        }
        Ok(())
    }
}

/// Streaming NH frontier for one user, wrapping the same generic
/// [`OnlineTrellis`] core as the hierarchical online decoders: push
/// per-tick (states, emissions), emit fixed-lag macro decisions, finalize
/// into the unemitted tail of the macro path plus overhead accounting.
/// Window entries are pooled and the frontier ping-pongs through the
/// core's arena, so a warmed push allocates only what its caller hands it.
///
/// The flat table is *not* captured: every [`push`](Self::push) borrows it
/// from the caller, so one table serves any number of live and parked
/// frontiers (the fleet-sharing property the serving tier relies on).
pub(crate) struct OnlineFlat {
    core: OnlineTrellis<FlatEntry>,
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
        ParkedFlat {
            v: self.core.frontier().to_vec(),
            window: self
                .core
                .entries()
                .map(|e| ParkedFlatEntry {
                    states: e.states.clone(),
                    back: e.back.clone(),
                })
                .collect(),
            base: self.core.base(),
            pushed: self.core.ticks_pushed(),
            states_explored: self.core.states_explored(),
            transition_ops: self.core.transition_ops(),
        }
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
        parked.validate(table, lag)?;
        let window: VecDeque<FlatEntry> = parked
            .window
            .iter()
            .map(|e| FlatEntry {
                states: e.states.clone(),
                emit: Vec::new(),
                back: e.back.clone(),
            })
            .collect();
        Ok(Self {
            core: OnlineTrellis::from_parts(
                lag,
                parked.v.clone(),
                window,
                parked.base,
                parked.pushed,
                parked.states_explored,
                parked.transition_ops,
            ),
        })
    }

    /// Consumes one tick's state list and aligned emissions; returns the
    /// ripened `(tick, macro)` decision, if any.
    pub(crate) fn push(
        &mut self,
        table: &FlatTable,
        states: Vec<FlatState>,
        emit: Vec<f64>,
    ) -> Option<(usize, usize)> {
        let mut entry = self.core.take_entry();
        entry.states = states;
        entry.emit = emit;
        let n_states = entry.states.len() as u64;
        self.core.push_entry(&FlatFamily { table }, entry, n_states);
        self.core.emit_ready(|e, j, t| (t, e.states[j].0))
    }

    /// Ends the stream: `(tail, states explored, transition ops)`, where
    /// the tail is the macro path over the ticks never emitted. Returns
    /// `None` if no tick was ever pushed.
    pub(crate) fn finalize(self) -> Option<(Vec<usize>, u64, u64)> {
        if self.core.ticks_pushed() == 0 {
            return None;
        }
        let (tail, _log_prob) = self.core.resolve_tail(|e, j| e.states[j].0);
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
