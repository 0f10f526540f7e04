//! Joint Viterbi decoding of the loosely-coupled two-chain HDBN: the joint
//! step kernel, the slot-factored [`JointFrontier`] it writes, and
//! [`CoupledHdbn::viterbi`], which decodes a whole session by pushing it
//! through an [`OnlineCoupledViterbi`] under [`Lag::Unbounded`].
//!
//! The joint transition kernel decomposes as
//! `f1(s1, s1′) + f2(s2, s2′) + g(a1, a2)` — per-chain hierarchical
//! transitions plus a concurrent inter-user coupling — so the naive
//! `O((|S1||S2|)²)` joint recursion folds into two passes of
//! `O(|S1||S2|(|S1|+|S2|))`. Pruned candidate sets therefore translate
//! directly into the paper's order-of-magnitude overhead reduction.
//!
//! Both passes share two memoizations:
//!
//! 1. A fold depends on the destination state only through its pair id —
//!    computed once per *distinct* pair (slot).
//! 2. **Run collapse.** Switch transitions are postural-independent, so
//!    each same-activity run of sources contributes one candidate: its
//!    first-maximum source plus the switch score. Same-activity sources
//!    are candidates one by one, ascending; runs are visited in ascending
//!    order, and strict `>` decides every comparison. In floating point
//!    this is not a per-state scan: two sources of one switch run whose
//!    sums with the switch score round equal are a tie to a per-state scan
//!    but not to the collapse, which names the run's maximum.
//!
//! # The frontier is never materialized
//!
//! The fold of pass 2 is one value `w[s1, s2]` per destination slot pair,
//! and a joint state's score is that value plus its own emissions and
//! coupling: `v(j1, j2) = w[s1, s2] + ((e1[j1] + e2[j2]) + g(a1, a2))`.
//! The step writes exactly that — a [`JointFrontier`] of `d1 · d2`
//! slot-pair folds plus the two chains' offsets — and evaluates a state's
//! score only when something asks for it, with the addition tree above, so
//! every score has the bits a materialized frontier would hold. The
//! backpointer row is written per slot pair too (`w2_arg`). On CASAS a
//! tick has ~9 400 joint states over ~4 700 slot pairs, of which a step
//! folds ~15 states.
//!
//! The first tick is the same structure with `w ≡ −0.0` (IEEE addition's
//! exact identity) and offsets `emission + prior`. A dense frontier enters
//! only the differential suite's step (`joint_step`, behind the `testkit`
//! feature), as the trivial factorization — one slot per state, `w = v`,
//! offsets and coupling all `−0.0` — so one selection and one argmax
//! serve every frontier.
//!
//! Every step is dominance-pruned ([`crate::dominance`]): a source state
//! whose bound shows it cannot win any destination is not folded at all.
//! The selection and the frontier's maxima work slot pair by slot pair
//! (a slot pair's largest score is one addition tree away from its
//! members' offsets, see [`JointFrontier`]). A stream runs the selection
//! at the end of each push and keeps only its survivors
//! ([`JointSurvivors`]) — their scores, pair ids and runs — which the
//! next push's survivor kernel [`joint_fold_into`] folds. The decode
//! stays exact, and on CASAS-sized frontiers the survivors are a fraction
//! of a percent of the states. The differential suite checks one step
//! (`joint_step`, behind the `testkit` feature) against the naive
//! reference `cace_testkit::toy::naive_joint_step`.
//!
//! A stream's fold writes only the chain-1 rows of slot pairs that a row
//! bound cannot rule out: the rows that can hold the frontier maximum or
//! a survivor (on `casas-decode` about one in six). Pass 2, the row
//! maxima and the selection run on those rows alone; see
//! [`joint_fold_into`].

use std::sync::Arc;

use cace_model::ModelError;

#[cfg(feature = "testkit")]
use crate::arena::fill_slice;
use crate::arena::{Slice, TrellisArena};
use crate::beam::DecoderConfig;
use crate::input::{MicroCandidate, TickInput};
use crate::online::{Lag, OnlineCoupledViterbi};
use crate::params::HdbnParams;
use crate::park::check;
use crate::scalar::{fold_max, sweep_add_max_arg, sweep_max_arg};
use crate::tables::ScoreTables;
use crate::trellis::{Frontier, SurvivorSet};

/// Rejects a tick that would empty the joint trellis.
pub(crate) fn validate_tick(tick: &TickInput, t: usize) -> Result<(), ModelError> {
    let empty_micro = tick.candidates.iter().any(|c| c.is_empty());
    let empty_macro = tick
        .macro_candidates
        .iter()
        .any(|m| m.as_ref().is_some_and(|v| v.is_empty()));
    if empty_micro || empty_macro {
        return Err(ModelError::EmptyStateSpace { tick: t });
    }
    Ok(())
}

/// One chain's factor of a [`JointFrontier`]: per state an offset and a
/// slot; per slot its lowest and highest member, the first maximum of its
/// members' offsets, and the coupling group its row or column of `g` is
/// read from.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Axis {
    /// Offset of each state: its emission (plus its macro prior on the
    /// first tick), `−0.0` in the trivial factorization.
    pub(crate) f: Vec<f64>,
    /// Slot of each state.
    pub(crate) slot: Vec<u32>,
    /// Lowest and highest member of each slot (a slice's slot lies in one
    /// activity run).
    pub(crate) first: Vec<u32>,
    last: Vec<u32>,
    /// First maximum of each slot's member offsets.
    pub(crate) fmax: Vec<f64>,
    /// Coupling group of each slot: the index of its activity run in the
    /// slice (`0` in the trivial factorization).
    pub(crate) group: Vec<u32>,
}

impl Axis {
    /// Number of states.
    pub(crate) fn len(&self) -> usize {
        self.f.len()
    }

    /// Number of slots.
    pub(crate) fn n_slots(&self) -> usize {
        self.fmax.len()
    }

    /// The states of slot `s`, ascending.
    pub(crate) fn members(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        let s32 = s as u32;
        (self.first[s] as usize..=self.last[s] as usize).filter(move |&j| self.slot[j] == s32)
    }

    /// The factor of a trellis slice: its slots, activities and
    /// emissions, plus the macro prior when `prior` is given.
    fn of_slice(&mut self, s: &Slice, prior: Option<&[f64]>) {
        self.f.clear();
        match prior {
            Some(prior) => self.f.extend(
                s.emissions
                    .iter()
                    .zip(&s.activities)
                    .map(|(&e, &a)| e + prior[a]),
            ),
            None => self.f.extend_from_slice(&s.emissions),
        }
        self.slot.clear();
        self.slot.extend_from_slice(&s.slots);
        self.index(s.n_slots(), |j| {
            s.runs.partition_point(|&(_, _, end)| end as usize <= j) as u32
        });
    }

    /// The trivial factor over `k` states: one slot per state, offsets
    /// `−0.0`, one coupling group.
    #[cfg(feature = "testkit")]
    fn trivial(&mut self, k: usize) {
        self.f.clear();
        self.f.resize(k, -0.0);
        self.slot.clear();
        self.slot.extend(0..k as u32);
        self.index(k, |_| 0);
    }

    /// Rebuilds the per-slot columns from the per-state ones; `group(j)`
    /// is state `j`'s coupling group.
    fn index(&mut self, n_slots: usize, group: impl Fn(usize) -> u32) {
        self.first.clear();
        self.first.resize(n_slots, u32::MAX);
        self.last.clear();
        self.last.resize(n_slots, 0);
        self.fmax.clear();
        self.fmax.resize(n_slots, f64::NEG_INFINITY);
        self.group.clear();
        self.group.resize(n_slots, 0);
        for (j, (&sl, &f)) in self.slot.iter().zip(&self.f).enumerate() {
            let sl = sl as usize;
            self.last[sl] = j as u32;
            if self.first[sl] == u32::MAX {
                (self.first[sl], self.fmax[sl], self.group[sl]) = (j as u32, f, group(j));
            } else if f > self.fmax[sl] {
                self.fmax[sl] = f;
            }
        }
    }
}

/// The coupled decoders' trellis frontier, held per destination slot
/// pair and never materialized.
///
/// Joint state `(j1, j2)` — flattened `j1 * |S2| + j2` everywhere outside —
/// scores
///
/// ```text
/// v(j1, j2) = w[s1, s2] + ((f1[j1] + f2[j2]) + g(a1, a2))
/// ```
///
/// with `s1 = slot₁(j1)`, `s2 = slot₂(j2)` and `g` read through the two
/// slots' coupling groups. IEEE rounding is monotone, so the largest
/// score of slot pair `(s1, s2)` is the same tree over the slots' largest
/// offsets, `w[s1, s2] + ((F1max[s1] + F2max[s2]) + g)`, and it is one
/// member's own score, bit for bit. [`first_max`](Self::first_max), the
/// last maximum ([`Frontier::argmax`]) and the dominance selection start
/// from those slot-pair maxima and evaluate only the members of the slot
/// pairs that can reach the answer.
///
/// # Which rows hold a fold
///
/// A stream's step folds only the chain-1 rows of slot pairs that a row
/// bound cannot rule out (see [`joint_fold_into`]): the rows that can hold
/// the maximum, and the rows that can hold a survivor of the selection.
/// Those rows have a `row_top`; every other row's `row_top` is NaN and its
/// `w` is stale, and nothing reads it: the maxima and the selection skip
/// NaN rows, and an undefined cut — the one case the selection reads every
/// state — comes only with every row folded. Only the frontiers the
/// differential suite reads whole (`from_dense`, `joint_step`) and the
/// first tick fold every row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JointFrontier {
    /// Per slot pair, row-major (`s1 * d2 + s2`): the step's pass-2 fold,
    /// `−0.0` on the first tick. Read only in folded rows.
    pub(crate) w: Vec<f64>,
    pub(crate) axes: [Axis; 2],
    /// Coupling term per group pair, `g[g1 * n_g2 + g2]`: per pair of
    /// activity runs of the two slices, `−0.0` in the trivial
    /// factorization.
    g: Vec<f64>,
    n_g2: usize,
    /// Per chain-1 slot: the largest score in its row of slot pairs (NaN
    /// scores never count), or NaN for a row the step did not fold.
    pub(crate) row_top: Vec<f64>,
    /// The largest score's first and last state, with their scores.
    first: (usize, f64),
    last: (usize, f64),
    /// Chain-2 coupling row of one chain-1 group (scratch).
    gcol: Vec<f64>,
}

impl JointFrontier {
    /// Joint states of the frontier.
    pub fn len(&self) -> usize {
        self.axes[0].len() * self.axes[1].len()
    }

    /// Whether the frontier holds no state (before a stream's first tick).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(state, score)` of the first maximum, as the dominance selection
    /// cuts against it: the lowest state attaining the largest score, or
    /// `(0, −∞)` when no score exceeds `−∞`.
    pub fn first_max(&self) -> (usize, f64) {
        self.first
    }

    /// Every state's score, flattened `j1 * |S2| + j2`.
    #[cfg(feature = "testkit")]
    pub fn to_dense(&self) -> Vec<f64> {
        let [a1, a2] = &self.axes;
        let mut v = Vec::with_capacity(self.len());
        for j1 in 0..a1.len() {
            v.extend((0..a2.len()).map(|j2| self.value(j1, j2)));
        }
        v
    }

    /// The trivial factorization of a dense frontier over `k1 × k2` joint
    /// states (flattened `j1 * k2 + j2`): one slot per state, `w = v`,
    /// offsets and coupling `−0.0`, so every state keeps its score's bits.
    ///
    /// # Errors
    /// [`ModelError::InsufficientData`] when `v` does not hold `k1 · k2`
    /// scores.
    #[cfg(feature = "testkit")]
    pub fn from_dense(v: &[f64], k1: usize, k2: usize) -> Result<Self, ModelError> {
        if Some(v.len()) != k1.checked_mul(k2) {
            return Err(ModelError::InsufficientData {
                what: "joint frontier scores".into(),
                available: v.len(),
                required: k1.saturating_mul(k2),
            });
        }
        let mut frontier = Self::default();
        frontier.w.extend_from_slice(v);
        frontier.axes[0].trivial(k1);
        frontier.axes[1].trivial(k2);
        frontier.g.push(-0.0);
        frontier.n_g2 = 1;
        frontier.summarize_every_row();
        Ok(frontier)
    }

    /// The factors of a frontier over the slot pairs of `s1 × s2`: the
    /// offsets (emissions, plus the macro prior on the first tick) and the
    /// coupling of each pair of activity runs. No row is folded yet.
    fn factor(&mut self, p: &HdbnParams, s1: &Slice, s2: &Slice, first_tick: bool) {
        let prior = first_tick.then_some(&p.log_prior[..]);
        self.axes[0].of_slice(s1, prior);
        self.axes[1].of_slice(s2, prior);
        self.g.clear();
        for &(a1, _, _) in &s1.runs {
            let coupling =
                |&(a2, _, _): &(u32, u32, u32)| p.tables.coupling(a1 as usize, a2 as usize);
            self.g.extend(s2.runs.iter().map(coupling));
        }
        self.n_g2 = s2.runs.len();
        self.row_top.clear();
        self.row_top.resize(s1.n_slots(), f64::NAN);
    }

    #[inline]
    fn coupling(&self, s1: usize, s2: usize) -> f64 {
        self.g[self.axes[0].group[s1] as usize * self.n_g2 + self.axes[1].group[s2] as usize]
    }

    /// Score of joint state `(j1, j2)`.
    #[inline]
    pub(crate) fn value(&self, j1: usize, j2: usize) -> f64 {
        let [a1, a2] = &self.axes;
        let (s1, s2) = (a1.slot[j1] as usize, a2.slot[j2] as usize);
        self.w[s1 * a2.n_slots() + s2] + ((a1.f[j1] + a2.f[j2]) + self.coupling(s1, s2))
    }

    /// The `top` of every slot pair of row `s1`, in chain-2 slot order:
    /// the largest score of slot pair `(s1, s2)` (NaN scores never count),
    /// the member with both largest offsets, unless that sum is NaN — an
    /// `∞ − ∞` no finite input produces — where the members are scanned.
    #[inline]
    pub(crate) fn row_tops(&self, s1: usize) -> impl Iterator<Item = f64> + '_ {
        let [a1, a2] = &self.axes;
        let d2 = a2.n_slots();
        let grow = &self.g[a1.group[s1] as usize * self.n_g2..][..self.n_g2];
        let f1 = a1.fmax[s1];
        let row = self.w[s1 * d2..][..d2].iter().zip(&a2.fmax).zip(&a2.group);
        row.enumerate().map(move |(s2, ((&w, &f2), &g2))| {
            let top = w + ((f1 + f2) + grow[g2 as usize]);
            if top.is_nan() {
                self.scan_top(s1, s2)
            } else {
                top
            }
        })
    }

    /// Largest member score of slot pair `(s1, s2)`, scanned (NaN scores
    /// never count).
    #[cold]
    fn scan_top(&self, s1: usize, s2: usize) -> f64 {
        let [a1, a2] = &self.axes;
        let mut best = f64::NEG_INFINITY;
        for j1 in a1.members(s1) {
            for j2 in a2.members(s2) {
                let x = self.value(j1, j2);
                if x > best {
                    best = x;
                }
            }
        }
        best
    }

    /// `row_top` and both maxima of a frontier whose every row holds its
    /// fold.
    fn summarize_every_row(&mut self) {
        let d1 = self.axes[0].n_slots();
        self.row_top.clear();
        self.row_top.resize(d1, f64::NAN);
        self.settle_rows((0..d1).map(|s1| s1 as u32));
        self.maxima();
    }

    /// Sets the `row_top` of the rows whose fold was just written, in
    /// ascending order: one pass over each row's slot pairs, scanning the
    /// members of a slot pair only where that pass meets a NaN sum.
    fn settle_rows(&mut self, rows: impl Iterator<Item = u32>) {
        let d2 = self.axes[1].n_slots();
        let mut group = u32::MAX;
        for s1 in rows.map(|s1| s1 as usize) {
            let Self {
                w,
                axes: [a1, a2],
                g,
                n_g2,
                gcol,
                ..
            } = self;
            if a1.group[s1] != group {
                group = a1.group[s1];
                let grow = &g[group as usize * *n_g2..][..*n_g2];
                gcol.clear();
                gcol.extend(a2.group.iter().map(|&g2| grow[g2 as usize]));
            }
            let (top, nan) = row_top_of(&w[s1 * d2..][..d2], a1.fmax[s1], &a2.fmax, gcol);
            self.row_top[s1] = if nan {
                let max = |m: f64, x: f64| if x > m { x } else { m };
                self.row_tops(s1).fold(f64::NEG_INFINITY, max)
            } else {
                top
            };
        }
    }

    /// Both maxima, from the folded rows' `row_top`, then the members of
    /// the slot pairs that attain the largest score. Every row that can
    /// hold it must be folded, and every row when no score exceeds `−∞`.
    fn maxima(&mut self) {
        let best = self
            .row_top
            .iter()
            .fold(f64::NEG_INFINITY, |m, &x| if x > m { x } else { m });
        let k2 = self.axes[1].len();
        let at = |flat: usize| (flat, self.value(flat / k2, flat % k2));
        // With no score above `−∞` the first maximum is state 0, as a
        // first-max scan leaves it, and the last is the last `−∞` state.
        let (first, last) = if best == f64::NEG_INFINITY {
            let last = (0..self.len()).rev().map(at).find(|&(_, x)| x == best);
            ((0, best), last.unwrap_or((0, best)))
        } else {
            let (mut first, mut last) = (usize::MAX, 0);
            for s1 in (0..self.row_top.len()).filter(|&s1| self.row_top[s1] == best) {
                let tops = self.row_tops(s1).enumerate();
                for s2 in tops.filter(|&(_, top)| top == best).map(|(s2, _)| s2) {
                    let [a1, a2] = &self.axes;
                    for j1 in a1.members(s1) {
                        for j2 in a2.members(s2) {
                            if self.value(j1, j2) == best {
                                first = first.min(j1 * k2 + j2);
                                last = last.max(j1 * k2 + j2);
                            }
                        }
                    }
                }
            }
            (at(first), at(last))
        };
        (self.first, self.last) = (first, last);
    }
}

impl Frontier for JointFrontier {
    fn argmax(&self) -> (usize, f64) {
        self.last
    }
}

/// `max over s2 of w[s2] + ((f1 + f2[s2]) + g[s2])`, 8-wide (NaN sums
/// never win), and whether any sum was NaN.
#[inline(never)]
fn row_top_of(w: &[f64], f1: f64, f2: &[f64], g: &[f64]) -> (f64, bool) {
    const LANES: usize = 8;
    let mut acc = [f64::NEG_INFINITY; LANES];
    let mut nan = [false; LANES];
    let n = w.len() / LANES * LANES;
    for ((ws, fs), gs) in w[..n]
        .chunks_exact(LANES)
        .zip(f2[..n].chunks_exact(LANES))
        .zip(g[..n].chunks_exact(LANES))
    {
        for l in 0..LANES {
            let x = ws[l] + ((f1 + fs[l]) + gs[l]);
            nan[l] |= x.is_nan();
            acc[l] = if x > acc[l] { x } else { acc[l] };
        }
    }
    let mut best = f64::NEG_INFINITY;
    let mut any_nan = nan.contains(&true);
    for i in n..w.len() {
        let x = w[i] + ((f1 + f2[i]) + g[i]);
        any_nan |= x.is_nan();
        best = if x > best { x } else { best };
    }
    let best = acc.into_iter().fold(best, |m, x| if x > m { x } else { m });
    (best, any_nan)
}

/// First-tick joint frontier, written into `v`: `w ≡ −0.0` over the slot
/// pairs of `s1 × s2`, offsets `emission + log_prior`, so each state
/// scores `(base1 + base2) + g(a1, a2)`.
///
/// The first push of [`crate::online::OnlineCoupledViterbi`].
pub(crate) fn joint_init_into(p: &HdbnParams, s1: &Slice, s2: &Slice, v: &mut JointFrontier) {
    v.w.clear();
    v.w.resize(s1.n_slots() * s2.n_slots(), -0.0);
    v.factor(p, s1, s2, true);
    v.summarize_every_row();
}

/// The survivors of one tick's dominance selection over a
/// [`JointFrontier`], with all the next joint fold reads of each: its
/// flattened state, its score, and per chain its pair id and the index of
/// its activity run. A coupled stream holds exactly this of its frontier
/// between pushes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JointSurvivors {
    /// States per chain of the tick the survivors were selected from.
    pub(crate) k: [u32; 2],
    /// Survivor states, flattened `j1 * k2 + j2`, ascending.
    pub(crate) states: Vec<u32>,
    /// Their frontier scores.
    pub(crate) scores: Vec<f64>,
    /// Per survivor and chain: the pair id.
    pub(crate) pairs: Vec<[u32; 2]>,
    /// Per survivor and chain: the index of its activity run in the slice.
    pub(crate) runs: Vec<[u32; 2]>,
}

impl JointSurvivors {
    /// Number of survivors.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether there is no survivor (before a stream's first tick).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Checks everything the joint fold reads: survivors present, strictly
    /// ascending inside the tick, pair ids below `n_pair`, and scores free
    /// of NaN. Run indices are only compared with each other.
    pub(crate) fn validate(&self, what: &str, n_pair: usize) -> Result<(), ModelError> {
        let n = self.states.len();
        check(n > 0, || format!("{what}: no survivor"))?;
        check(
            self.scores.len() == n && self.pairs.len() == n && self.runs.len() == n,
            || format!("{what}: survivor column lengths disagree"),
        )?;
        let states = u32::try_from(u64::from(self.k[0]) * u64::from(self.k[1])).ok();
        check(
            states.is_some_and(|k| self.states[n - 1] < k)
                && self.states.windows(2).all(|w| w[0] < w[1]),
            || format!("{what}: survivor states not strictly ascending inside the tick"),
        )?;
        check(
            self.pairs.iter().flatten().all(|&p| (p as usize) < n_pair),
            || format!("{what}: survivor pair id out of range"),
        )?;
        check(self.scores.iter().all(|x| !x.is_nan()), || {
            format!("{what}: NaN survivor score")
        })
    }
}

impl SurvivorSet for JointSurvivors {
    fn states(&self) -> &[u32] {
        &self.states
    }

    fn n_states(&self) -> usize {
        self.k[0] as usize * self.k[1] as usize
    }
}

/// Reusable work buffers of [`joint_fold_into`] and the joint selection,
/// owned by the [`crate::arena::TrellisArena`]: one allocation per worker
/// thread, reused across ticks and streams — the step allocates nothing
/// once warmed.
#[derive(Debug, Clone, Default)]
pub(crate) struct JointScratch {
    /// Index of the first survivor of each survivor group (survivors
    /// sharing a chain-1 state), and the group's flat state `(j1p, 0)`.
    group_first: Vec<u32>,
    group_base: Vec<u32>,
    /// Half-open range of each group's segments in `segs`.
    group_segs: Vec<(u32, u32)>,
    /// Chain-2 run segments of the groups, in survivor order.
    segs: Vec<Segment>,
    /// Chain-1 activity runs over the groups: `(activity, start, end)`,
    /// half-open group ranges, one per chain-1 run with a survivor.
    group_runs: Vec<(u32, u32, u32)>,
    /// Pass-2 partial folds of one destination activity's switch
    /// candidates, `d2` wide each, and their flat source states.
    part: Vec<f64>,
    part_arg: Vec<u32>,
    /// The largest entry of each group's pass-1 row and of each run's
    /// switch-candidate row.
    group_top: Vec<f64>,
    run_top: Vec<f64>,
    /// Per chain-1 destination slot: the bound on its row's scores.
    row_ub: Vec<f64>,
    /// The chain-1 rows one batch of pass 2 folds, ascending.
    rows: Vec<u32>,
    /// Survivors of a joint selection with their scores, in slot-pair
    /// order before the sort into state order.
    pub(crate) found: Vec<(u32, f64)>,
}

/// The survivors of one group inside one chain-2 activity run: a
/// half-open range of survivors, with the first maximum of their frontier
/// scores and its flat state.
#[derive(Debug, Clone, Copy)]
struct Segment {
    activity: u32,
    start: u32,
    end: u32,
    max: f64,
    arg: u32,
}

/// Pass 1 of one joint DP step out of a survivor list: only `src`'s
/// states are transitioned out of. Folds chain 2 over each survivor group
/// into the arena's `w`/`w_arg`, per distinct chain-2 destination pair,
/// and caches per chain-1 run of groups the switch candidate of every
/// chain-2 slot (`run_max`/`run_arg`).
fn pass1_into(t: &ScoreTables, src: &JointSurvivors, cur2: &Slice, arena: &mut TrellisArena) {
    let TrellisArena {
        joint: scratch,
        w,
        w_arg,
        run_max,
        run_arg,
        ..
    } = arena;
    let JointScratch {
        group_first,
        group_base,
        group_segs,
        segs,
        group_runs,
        ..
    } = scratch;
    let JointSurvivors {
        k,
        states,
        scores,
        pairs,
        runs,
    } = src;
    let (k2, n) = (k[1], states.len());
    let d2 = cur2.n_slots();

    // Survivors grouped by chain-1 state (the states ascend, so each group
    // is contiguous), each group cut into segments by the chain-2
    // activity runs its survivors fall in.
    group_first.clear();
    group_base.clear();
    group_segs.clear();
    segs.clear();
    let mut i = 0usize;
    while i < n {
        let j1p = states[i] / k2;
        let first_seg = segs.len() as u32;
        group_first.push(i as u32);
        group_base.push(j1p * k2);
        while i < n && states[i] / k2 == j1p {
            let (run, start) = (runs[i][1], i);
            let activity = t.activity_of(pairs[i][1]) as u32;
            let (mut max, mut arg) = (f64::NEG_INFINITY, states[i]);
            while i < n && states[i] / k2 == j1p && runs[i][1] == run {
                if scores[i] > max {
                    max = scores[i];
                    arg = states[i];
                }
                i += 1;
            }
            segs.push(Segment {
                activity,
                start: start as u32,
                end: i as u32,
                max,
                arg,
            });
        }
        group_segs.push((first_seg, segs.len() as u32));
    }
    let n_groups = group_first.len();

    // Fold chain 2 over each group, per distinct chain-2 pair:
    // W[g, s2] = max over the group's survivors of V + f2(j2p → s2), with
    // its argument as a flat source state (the group's state `(j1p, 0)`
    // when nothing beats `−∞`). Every entry of w/w_arg is overwritten
    // below before it is read.
    w.resize(n_groups * d2, f64::NEG_INFINITY);
    w_arg.resize(n_groups * d2, 0);
    for (s2, &dp2) in cur2.uniq_pairs.iter().enumerate() {
        let a2 = t.activity_of(dp2) as u32;
        let row = t.into_row(dp2);
        let srow = t.switch_row(a2 as usize);
        for (g, &(seg_start, seg_end)) in group_segs.iter().enumerate() {
            let mut best = f64::NEG_INFINITY;
            let mut best_arg = group_base[g];
            for seg in &segs[seg_start as usize..seg_end as usize] {
                if seg.activity == a2 {
                    for i in seg.start as usize..seg.end as usize {
                        let score = scores[i] + row[pairs[i][1] as usize];
                        if score > best {
                            best = score;
                            best_arg = states[i];
                        }
                    }
                } else {
                    let score = seg.max + srow[seg.activity as usize];
                    if score > best {
                        best = score;
                        best_arg = seg.arg;
                    }
                }
            }
            w[g * d2 + s2] = best;
            w_arg[g * d2 + s2] = best_arg;
        }
    }

    // The groups cut by the chain-1 activity runs they fall in, and per
    // run the switch-candidate cache
    // run_max[r][s2] = first max over the run's groups of W[g, s2].
    group_runs.clear();
    let mut g = 0usize;
    while g < n_groups {
        let first = group_first[g] as usize;
        let (run, activity) = (runs[first][0], t.activity_of(pairs[first][0]) as u32);
        let start = g;
        while g < n_groups && runs[group_first[g] as usize][0] == run {
            g += 1;
        }
        group_runs.push((activity, start as u32, g as u32));
    }
    let nr = group_runs.len();
    run_max.clear();
    run_max.resize(nr * d2, f64::NEG_INFINITY);
    run_arg.clear();
    run_arg.resize(nr * d2, 0);
    for (r, &(_, start, end)) in group_runs.iter().enumerate() {
        let rm = &mut run_max[r * d2..][..d2];
        let ra = &mut run_arg[r * d2..][..d2];
        for g in start as usize..end as usize {
            sweep_max_arg(&w[g * d2..][..d2], &w_arg[g * d2..][..d2], rm, ra);
        }
    }
}

/// What pass 2 reads of pass 1: the survivor groups' folds `w`, the
/// switch-candidate cache `run_max`, both with their flat source states,
/// and the chain-1 runs of groups.
///
/// Pass 2 folds chain 1 over the groups, per (distinct chain-1 pair,
/// distinct chain-2 pair), carrying the flat source states of pass 1.
/// Destination row `s1` has a fixed candidate list, visited in order: the
/// runs of groups in ascending order, each a switch run (one candidate,
/// `run_max[r, ·] + switch(a_r → a1)`) or, when its activity is `a1`'s,
/// its groups one by one (`w[g, ·] + into(pair_g → pair(s1))`).
struct Pass2<'a> {
    t: &'a ScoreTables,
    d2: usize,
    pairs: &'a [[u32; 2]],
    group_first: &'a [u32],
    group_runs: &'a [(u32, u32, u32)],
    w: &'a [f64],
    w_arg: &'a [u32],
    run_max: &'a [f64],
    run_arg: &'a [u32],
}

impl Pass2<'_> {
    /// Chain-1 pair id of group `g`.
    fn group_pair(&self, g: usize) -> usize {
        self.pairs[self.group_first[g] as usize][0] as usize
    }

    /// Folds the chain-1 rows `rows` (ascending) into `w2`/`w2_arg`, per
    /// destination slot pair, and leaves every other row as it was;
    /// `run1` is each chain-1 slot's activity run.
    ///
    /// Every argument starts at state 0 and changes only when a candidate
    /// beats `−∞`, so a destination no survivor reaches points at state 0.
    /// A switch candidate depends on the destination only through its
    /// activity, so the switch runs between two same-activity runs fold
    /// once per destination activity run in `rows` into a partial, and
    /// each row merges those partials around its own same-activity
    /// sweeps. Merging a partial fold with strict `>` continues the fold,
    /// so the candidate order is the sequential one.
    #[allow(clippy::too_many_arguments)]
    fn fold_rows(
        &self,
        cur1: &Slice,
        run1: &[u32],
        rows: &[u32],
        part: &mut Vec<f64>,
        part_arg: &mut Vec<u32>,
        w2: &mut [f64],
        w2_arg: &mut [u32],
    ) {
        let (t, d2) = (self.t, self.d2);
        let mut i = 0usize;
        while i < rows.len() {
            let run = run1[rows[i] as usize];
            let a1 = cur1.runs[run as usize].0;
            let srow = t.switch_row(a1 as usize);
            part.clear();
            part.resize(d2, f64::NEG_INFINITY);
            part_arg.clear();
            part_arg.resize(d2, 0);
            for (r, &(ar, _, _)) in self.group_runs.iter().enumerate() {
                let at = part.len() - d2;
                if ar == a1 {
                    part.resize(at + 2 * d2, f64::NEG_INFINITY);
                    part_arg.resize(at + 2 * d2, 0);
                } else {
                    sweep_add_max_arg(
                        &self.run_max[r * d2..][..d2],
                        srow[ar as usize],
                        &self.run_arg[r * d2..][..d2],
                        &mut part[at..],
                        &mut part_arg[at..],
                    );
                }
            }
            while i < rows.len() && run1[rows[i] as usize] == run {
                let s1 = rows[i] as usize;
                let row = t.into_row(cur1.uniq_pairs[s1]);
                let acc = &mut w2[s1 * d2..][..d2];
                let acc_arg = &mut w2_arg[s1 * d2..][..d2];
                acc.copy_from_slice(&part[..d2]);
                acc_arg.copy_from_slice(&part_arg[..d2]);
                let mut next_part = d2;
                for &(ar, start, end) in self.group_runs {
                    if ar != a1 {
                        continue;
                    }
                    for g in start as usize..end as usize {
                        let f1 = row[self.group_pair(g)];
                        let (wg, ag) = (&self.w[g * d2..][..d2], &self.w_arg[g * d2..][..d2]);
                        sweep_add_max_arg(wg, f1, ag, acc, acc_arg);
                    }
                    let (p, pa) = (&part[next_part..][..d2], &part_arg[next_part..][..d2]);
                    sweep_max_arg(p, pa, acc, acc_arg);
                    next_part += d2;
                }
                i += 1;
            }
        }
    }

    /// The backpointer [`fold_rows`](Self::fold_rows) writes for the one
    /// slot pair `(s1, s2)`: the same candidates, in the same order.
    fn cell_back(&self, cur1: &Slice, run1: &[u32], s1: usize, s2: usize) -> u32 {
        let (t, d2) = (self.t, self.d2);
        let dp1 = cur1.uniq_pairs[s1];
        let a1 = cur1.runs[run1[s1] as usize].0;
        let (row, srow) = (t.into_row(dp1), t.switch_row(a1 as usize));
        let (mut best, mut arg) = (f64::NEG_INFINITY, 0);
        for (r, &(ar, start, end)) in self.group_runs.iter().enumerate() {
            if ar != a1 {
                let x = self.run_max[r * d2 + s2] + srow[ar as usize];
                if x > best {
                    (best, arg) = (x, self.run_arg[r * d2 + s2]);
                }
                continue;
            }
            for g in start as usize..end as usize {
                let x = self.w[g * d2 + s2] + row[self.group_pair(g)];
                if x > best {
                    (best, arg) = (x, self.w_arg[g * d2 + s2]);
                }
            }
        }
        arg
    }

    /// Bounds every chain-1 row of `next`, the frontier pass 2 writes, into
    /// `ub`: no score of row `s1` exceeds
    ///
    /// ```text
    /// UB(s1) = max_c fl(A*_c + B_c(s1)) + ((F1max[s1] + max F2max) + max_G2 g(G1(s1), G2))
    /// ```
    ///
    /// where `c` runs over the row's candidates, `A*_c` is the largest
    /// entry of the candidate's pass-1 or run-cache row and `B_c(s1)` its
    /// transition score. That is a slot pair's `top` with every operand
    /// replaced by one at least as large, in the same addition tree, and
    /// IEEE rounding is monotone, so no slack is needed; a `top` that is
    /// NaN scans members whose non-NaN scores obey the same bound.
    ///
    /// The maxima skip NaN where the fold does: a candidate sum `∞ − ∞`
    /// leaves every sum of its candidate `−∞` or NaN, and a NaN coupling
    /// makes every member of its slot pairs NaN. An offset maximum does
    /// not (a slot's `F2max` is NaN when its first member's offset is,
    /// whatever the others hold), so a NaN offset makes the bound NaN.
    /// Returns whether every bound is free of NaN.
    fn row_bounds(
        &self,
        cur1: &Slice,
        next: &JointFrontier,
        group_top: &mut Vec<f64>,
        run_top: &mut Vec<f64>,
        ub: &mut Vec<f64>,
    ) -> bool {
        let (t, d2) = (self.t, self.d2);
        let max = |m: f64, x: f64| if x > m { x } else { m };
        let n_groups = self.group_first.len();
        group_top.clear();
        group_top.extend(
            self.w[..n_groups * d2]
                .chunks_exact(d2)
                .map(|row| fold_max(row).0),
        );
        run_top.clear();
        run_top.extend(self.group_runs.iter().map(|&(_, start, end)| {
            let tops = &group_top[start as usize..end as usize];
            tops.iter().copied().fold(f64::NEG_INFINITY, max)
        }));
        let [a1, a2] = &next.axes;
        let f2 = a2.fmax.iter().fold(
            f64::NEG_INFINITY,
            |m, &x| {
                if x > m || x.is_nan() {
                    x
                } else {
                    m
                }
            },
        );
        ub.clear();
        // Per chain-1 run: its activity, the largest switch candidate, the
        // survivor runs of its own activity and the largest coupling.
        let (mut run, mut a, mut switch, mut same, mut g_max) =
            (u32::MAX, 0, f64::NEG_INFINITY, 0..0, f64::NEG_INFINITY);
        for (s1, &dp1) in cur1.uniq_pairs.iter().enumerate() {
            if a1.group[s1] != run {
                run = a1.group[s1];
                a = cur1.runs[run as usize].0;
                let srow = t.switch_row(a as usize);
                (switch, same) = (f64::NEG_INFINITY, 0..0);
                for (r, &(ar, _, _)) in self.group_runs.iter().enumerate() {
                    if ar != a {
                        switch = max(switch, run_top[r] + srow[ar as usize]);
                    } else if same.is_empty() {
                        same = r..r + 1;
                    } else {
                        same.end = r + 1;
                    }
                }
                let grow = &next.g[run as usize * next.n_g2..][..next.n_g2];
                g_max = grow.iter().copied().fold(f64::NEG_INFINITY, max);
            }
            let row = t.into_row(dp1);
            let mut fold = switch;
            for &(ar, start, end) in &self.group_runs[same.clone()] {
                if ar == a {
                    for g in start as usize..end as usize {
                        fold = max(fold, group_top[g] + row[self.group_pair(g)]);
                    }
                }
            }
            ub.push(fold + ((a1.fmax[s1] + f2) + g_max));
        }
        !ub.iter().any(|x| x.is_nan())
    }
}

/// Which chain-1 rows of the slot-pair grid a joint fold folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rows {
    /// Those a row bound cannot rule out (what a stream's step folds).
    Bounded,
    /// Every row (what the differential suite's dense steps fold).
    Every,
}

/// The selection over the slot pairs of `v`, the frontier over `s1 × s2`
/// (every state when nothing can be pruned): the survivors, with their
/// scores, pair ids and runs, into `out`.
pub(crate) fn joint_select_into(
    p: &HdbnParams,
    s1: &Slice,
    s2: &Slice,
    v: &JointFrontier,
    arena: &mut TrellisArena,
    out: &mut JointSurvivors,
) {
    let JointSurvivors {
        k,
        states,
        scores,
        pairs,
        runs,
    } = out;
    let TrellisArena { dom_col, joint, .. } = arena;
    p.tables
        .dominance()
        .select_joint(s1, s2, v, dom_col, &mut joint.found, states, scores);
    *k = [s1.len() as u32, s2.len() as u32];
    let k2 = s2.len();
    pairs.clear();
    runs.clear();
    for &flat in states.iter() {
        let (j1, j2) = (flat as usize / k2, flat as usize % k2);
        pairs.push([s1.pairs[j1], s2.pairs[j2]]);
        runs.push([s1.run_of(j1), s2.run_of(j2)]);
    }
}

/// One joint DP step out of the survivors `src` into the tick
/// `cur1 × cur2`: the new frontier lands in `next`, its backpointers —
/// flattened source states, so backtracking is oblivious to pruning — in
/// `back`, both per destination slot pair (`s1 * d2 + s2`); all buffers
/// reused, so a warmed caller allocates nothing. Returns how many chain-1
/// rows it folded.
///
/// Folds chain 2, then chain 1, each with the run collapse of the module
/// docs, restricted to the survivors. On a dominance survivor set every
/// candidate that attains a destination's maximum survives, with the same
/// value and index as in the full-frontier fold, so the result is the
/// same bit for bit (see [`crate::dominance`]). Transition scores are flat
/// loads from the dense [`ScoreTables`], bit-identical to evaluating
/// [`HdbnParams::transition_score`] per edge (which is how the table was
/// built).
///
/// Under [`Rows::Bounded`] pass 2 folds only the chain-1 rows whose bound
/// ([`Pass2::row_bounds`]) says they can matter:
///
/// 1. the row with the largest bound, then every row whose bound reaches
///    that row's largest score — so every row that can hold the frontier
///    maximum, which fixes it and both its first and last state;
/// 2. every row whose bound can pass the selection's row test
///    `(row_top + D₁) + max D₂ ≥ cut` against that maximum — so every row
///    that can hold a survivor;
/// 3. of state 0's row, which a backtrack may read whatever survives,
///    only state 0's backpointer.
///
/// It folds every row when some bound is NaN or the cut is undefined. The
/// survivors, their scores, both maxima and the backpointers of the
/// survivors, the last maximum and state 0 are those of folding every
/// row, bit for bit; nothing reads the rest (see [`JointFrontier`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn joint_fold_into(
    p: &HdbnParams,
    src: &JointSurvivors,
    cur1: &Slice,
    cur2: &Slice,
    arena: &mut TrellisArena,
    next: &mut JointFrontier,
    back: &mut Vec<u32>,
    rows: Rows,
) -> usize {
    let t = &p.tables;
    next.factor(p, cur1, cur2, false);
    pass1_into(t, src, cur2, arena);
    let TrellisArena {
        joint,
        w,
        w_arg,
        run_max,
        run_arg,
        dom_col,
        ..
    } = arena;
    let JointScratch {
        group_first,
        group_runs,
        part,
        part_arg,
        group_top,
        run_top,
        row_ub,
        rows: batch,
        ..
    } = joint;
    let pass = Pass2 {
        t,
        d2: cur2.n_slots(),
        pairs: &src.pairs,
        group_first,
        group_runs,
        w,
        w_arg,
        run_max,
        run_arg,
    };
    let d1 = cur1.n_slots();
    // Every row pass 2 folds is overwritten before it is read, and no
    // reader reaches an unfolded row (see `JointFrontier`) or past the
    // grid, so the buffers only grow, to the widest grid seen, and a wider
    // tick than the last writes nothing it does not fold.
    let grid = d1 * pass.d2;
    if next.w.len() < grid {
        next.w.resize(grid, f64::NEG_INFINITY);
    }
    if back.len() < grid {
        back.resize(grid, 0);
    }
    let mut fold = |batch: &[u32], next: &mut JointFrontier| {
        let JointFrontier { w, axes, .. } = next;
        pass.fold_rows(cur1, &axes[0].group, batch, part, part_arg, w, back);
        next.settle_rows(batch.iter().copied());
        batch.len()
    };
    let unfolded = |next: &JointFrontier, s1: usize| next.row_top[s1].is_nan();

    batch.clear();
    if rows == Rows::Every || !pass.row_bounds(cur1, next, group_top, run_top, row_ub) {
        batch.extend(0..d1 as u32);
        fold(batch, next);
        next.maxima();
        return d1;
    }
    batch.push(fold_max(row_ub).1);
    let mut folded = fold(batch, next);
    let top = next.row_top[batch[0] as usize];
    batch.clear();
    batch.extend(
        (0..d1 as u32).filter(|&s1| unfolded(next, s1 as usize) && row_ub[s1 as usize] >= top),
    );
    folded += fold(batch, next);
    next.maxima();

    batch.clear();
    match t.dominance().joint_cut(cur1, cur2, next, dom_col) {
        Some(c) => batch.extend((0..d1 as u32).filter(|&s1| {
            let s1 = s1 as usize;
            unfolded(next, s1) && (row_ub[s1] + c.d1(cur1, next, s1)) + c.d2_max >= c.cut
        })),
        None => batch.extend((0..d1 as u32).filter(|&s1| unfolded(next, s1 as usize))),
    }
    folded += fold(batch, next);
    if unfolded(next, 0) {
        back[0] = pass.cell_back(cur1, &next.axes[0].group, 0, 0);
    }
    folded
}

/// The dense transition-op charge of one joint step out of a tick of
/// `k[0] × k[1]` joint states — the overhead experiments' accounting
/// convention, `k1·k2·(m1+m2)`, whatever the dominance selection actually
/// folded.
pub(crate) fn joint_step_charge(k: [u32; 2], cur1: &Slice, cur2: &Slice) -> u64 {
    (u64::from(k[0]) * u64::from(k[1])) * (cur1.len() as u64 + cur2.len() as u64)
}

#[cfg(feature = "testkit")]
pub use testkit::{joint_step, joint_step_from, serve_joint_steps, JointStep, ServedStep};

/// One exact joint step out of a dense or factored frontier, for the
/// differential suite (`tests/dominance_differential.rs`), which checks
/// it against the naive reference `cace_testkit::toy::naive_joint_step`.
#[cfg(feature = "testkit")]
mod testkit {
    use super::*;

    /// Expands a per-slot-pair backpointer row over `s1 × s2` to one
    /// entry per joint state (`j1 * |S2| + j2`); an empty row stays empty.
    pub fn expand_back(back: &[u32], s1: &Slice, s2: &Slice) -> Vec<u32> {
        if back.is_empty() {
            return Vec::new();
        }
        let d2 = s2.n_slots();
        let mut out = Vec::with_capacity(s1.len() * s2.len());
        for &sl1 in &s1.slots {
            let row = &back[sl1 as usize * d2..][..d2];
            out.extend(s2.slots.iter().map(|&sl2| row[sl2 as usize]));
        }
        out
    }

    /// One exact joint step, as [`joint_step`] returns it.
    #[derive(Debug, Clone, PartialEq)]
    pub struct JointStep {
        /// New frontier, flattened `j1 * |S2| + j2` over `cur`'s joint
        /// states (`factored`, materialized).
        pub frontier: Vec<f64>,
        /// Per-state backpointers into the flattened input frontier.
        pub back: Vec<u32>,
        /// Source states the step folded after dominance selection.
        pub survivors: usize,
        /// Those source states, ascending.
        pub kept: Vec<u32>,
        /// The new frontier as the decoders hold it.
        pub factored: JointFrontier,
    }

    /// Runs one exact joint DP step — the dominance-pruned step every
    /// decoder runs — from tick `prev` to tick `cur` over the dense
    /// frontier `v` (one score per joint state of `prev`, flattened
    /// `j1 * |S2| + j2`), which enters as its trivial factorization.
    ///
    /// # Errors
    /// [`ModelError::EmptyStateSpace`] for a tick with an empty state
    /// space, and [`ModelError::InsufficientData`] when `v` does not match
    /// `prev`'s joint frontier.
    pub fn joint_step(
        p: &HdbnParams,
        prev: &TickInput,
        cur: &TickInput,
        v: &[f64],
    ) -> Result<JointStep, ModelError> {
        validate_tick(prev, 0)?;
        validate_tick(cur, 1)?;
        let (k1, k2) = (tick_states(p, prev, 0), tick_states(p, prev, 1));
        joint_step_from(p, prev, cur, &JointFrontier::from_dense(v, k1, k2)?)
    }

    /// [`joint_step`] from a slot-factored frontier — a previous step's
    /// [`JointStep::factored`], whose `cur` tick is this step's `prev`.
    ///
    /// # Errors
    /// As [`joint_step`], with [`ModelError::InsufficientData`] when `v`
    /// is not over `prev`'s joint states.
    pub fn joint_step_from(
        p: &HdbnParams,
        prev: &TickInput,
        cur: &TickInput,
        v: &JointFrontier,
    ) -> Result<JointStep, ModelError> {
        validate_tick(prev, 0)?;
        validate_tick(cur, 1)?;
        let mut arena = TrellisArena::new();
        let mut slice = |tick: &TickInput, user: usize| {
            let mut s = Slice::default();
            fill_slice(p, tick, user, &mut arena, &mut s);
            s
        };
        let (prev1, prev2, cur1, cur2) =
            (slice(prev, 0), slice(prev, 1), slice(cur, 0), slice(cur, 1));
        if [v.axes[0].len(), v.axes[1].len()] != [prev1.len(), prev2.len()] {
            return Err(ModelError::InsufficientData {
                what: "joint frontier states".into(),
                available: v.len(),
                required: prev1.len() * prev2.len(),
            });
        }
        let (mut src, mut next, mut back) = Default::default();
        joint_select_into(p, &prev1, &prev2, v, &mut arena, &mut src);
        let every = Rows::Every;
        joint_fold_into(
            p, &src, &cur1, &cur2, &mut arena, &mut next, &mut back, every,
        );
        let JointSurvivors { states, .. } = src;
        Ok(JointStep {
            frontier: next.to_dense(),
            back: expand_back(&back, &cur1, &cur2),
            survivors: states.len(),
            kept: states,
            factored: next,
        })
    }

    /// What one step of a coupled stream decides, as
    /// [`serve_joint_steps`] reports it: all a stream keeps or a backtrack
    /// reads of the step's frontier. Scores are kept as bits.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ServedStep {
        /// The new frontier's survivors, ascending, with their score bits.
        pub survivors: Vec<(u32, u64)>,
        /// Its first maximum: state and score bits.
        pub first_max: (usize, u64),
        /// Its last maximum, the argmax a backtrack starts from.
        pub argmax: (usize, u64),
        /// `(state, backpointer)` of every survivor, the argmax and state
        /// 0, ascending by state.
        pub back: Vec<(u32, u32)>,
        /// The step's dense transition-op charge.
        pub transition_ops: u64,
        /// Chain-1 rows of slot pairs the step folded, and all of them.
        pub rows: [usize; 2],
    }

    /// Runs the steps a coupled stream runs over `ticks` — a selection,
    /// then the fold out of its survivors — starting from `start`, a
    /// frontier over `ticks[0]`'s joint states, and reports each step.
    /// With `every_row` each fold folds every chain-1 row of slot pairs;
    /// without, only those its row bound cannot rule out, as a stream's.
    ///
    /// # Errors
    /// As [`joint_step_from`].
    pub fn serve_joint_steps(
        p: &HdbnParams,
        ticks: &[TickInput],
        start: &JointFrontier,
        every_row: bool,
    ) -> Result<Vec<ServedStep>, ModelError> {
        for (t, tick) in ticks.iter().enumerate() {
            validate_tick(tick, t)?;
        }
        let mut arena = TrellisArena::new();
        let mut slices = Vec::with_capacity(ticks.len());
        for tick in ticks {
            let [mut s1, mut s2] = [Slice::default(), Slice::default()];
            fill_slice(p, tick, 0, &mut arena, &mut s1);
            fill_slice(p, tick, 1, &mut arena, &mut s2);
            slices.push([s1, s2]);
        }
        let Some([first1, first2]) = slices.first() else {
            return Ok(Vec::new());
        };
        if [start.axes[0].len(), start.axes[1].len()] != [first1.len(), first2.len()] {
            return Err(ModelError::InsufficientData {
                what: "joint frontier states".into(),
                available: start.len(),
                required: first1.len() * first2.len(),
            });
        }
        let rows = if every_row {
            Rows::Every
        } else {
            Rows::Bounded
        };
        let mut src = JointSurvivors::default();
        joint_select_into(p, first1, first2, start, &mut arena, &mut src);
        let mut steps = Vec::new();
        for [cur1, cur2] in &slices[1..] {
            let (mut next, mut back, mut kept) = Default::default();
            let folded =
                joint_fold_into(p, &src, cur1, cur2, &mut arena, &mut next, &mut back, rows);
            joint_select_into(p, cur1, cur2, &next, &mut arena, &mut kept);
            let (first, last) = (next.first_max(), Frontier::argmax(&next));
            let k2 = cur2.len();
            let back_of = |j: u32| {
                let (s1, s2) = (cur1.slots[j as usize / k2], cur2.slots[j as usize % k2]);
                (j, back[s1 as usize * cur2.n_slots() + s2 as usize])
            };
            let mut named: Vec<u32> = kept.states.clone();
            named.extend([0, last.0 as u32]);
            named.sort_unstable();
            named.dedup();
            steps.push(ServedStep {
                survivors: kept
                    .states
                    .iter()
                    .copied()
                    .zip(kept.scores.iter().map(|x| x.to_bits()))
                    .collect(),
                first_max: (first.0, first.1.to_bits()),
                argmax: (last.0, last.1.to_bits()),
                back: named.into_iter().map(back_of).collect(),
                transition_ops: joint_step_charge(src.k, cur1, cur2),
                rows: [folded, cur1.n_slots()],
            });
            src = kept;
        }
        Ok(steps)
    }

    /// Joint states of one user's chain at `tick` (allowed macros ×
    /// candidates).
    fn tick_states(p: &HdbnParams, tick: &TickInput, user: usize) -> usize {
        let macros = tick.macro_candidates[user]
            .as_ref()
            .map_or(p.n_macro(), Vec::len);
        macros * tick.candidates[user].len()
    }
}

/// The decoded joint trajectory plus accounting for the overhead
/// experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct JointPath {
    /// Decoded macro activity per user per tick.
    pub macros: [Vec<usize>; 2],
    /// Decoded micro tuple per user per tick.
    pub micros: [Vec<MicroCandidate>; 2],
    /// Joint log-score (unnormalized) of the decoded path.
    pub log_prob: f64,
    /// Σ_t |S1(t)| · |S2(t)| — joint states instantiated.
    pub states_explored: u64,
    /// Σ_t |S1||S2|(|S1|+|S2|) — transition evaluations performed.
    pub transition_ops: u64,
}

/// The loosely-coupled HDBN decoder.
///
/// Parameters are held behind an [`Arc`], so many decoders — e.g. one per
/// worker in a batch-recognition fan-out — can share one read-only trained
/// model without copying its CPTs. Each [`viterbi`](Self::viterbi) call
/// allocates its own trellis, so a shared decoder is safe to use from
/// multiple threads concurrently.
///
/// Decoding is always exact, with dominance pruning inside every step.
#[derive(Debug, Clone)]
pub struct CoupledHdbn {
    params: Arc<HdbnParams>,
}

impl CoupledHdbn {
    /// Wraps trained parameters.
    pub fn new(params: HdbnParams) -> Self {
        Self {
            params: Arc::new(params),
        }
    }

    /// Wraps an already-shared parameter set without copying it.
    pub fn from_shared(params: Arc<HdbnParams>) -> Self {
        Self { params }
    }

    /// Installs a decoding configuration. There is only the exact one
    /// ([`DecoderConfig`] has no settings), so this returns `self`.
    pub fn with_decoder(self, _decoder: DecoderConfig) -> Self {
        self
    }

    /// The parameters in use.
    pub fn params(&self) -> &HdbnParams {
        &self.params
    }

    /// The shared parameter handle (for decoder frontiers that outlive a
    /// borrow of `self`).
    pub(crate) fn shared_params(&self) -> Arc<HdbnParams> {
        Arc::clone(&self.params)
    }

    /// Decodes the most likely joint state sequence (§III step 6: Viterbi at
    /// runtime inference): every tick is pushed through an
    /// [`OnlineCoupledViterbi`] under [`Lag::Unbounded`], which commits
    /// nothing mid-stream, and [`finalize`](OnlineCoupledViterbi::finalize)
    /// backtracks the whole session.
    ///
    /// # Errors
    /// Returns [`ModelError::EmptyStateSpace`] for the first tick with no
    /// candidates for some user, and [`ModelError::InsufficientData`] for
    /// empty input.
    pub fn viterbi(&self, ticks: &[TickInput]) -> Result<JointPath, ModelError> {
        let mut online = OnlineCoupledViterbi::new(self.clone(), Lag::Unbounded);
        online.reserve_ticks(ticks.len());
        for tick in ticks {
            online.push(tick)?;
        }
        online.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::fill_slice;
    use crate::params::{HdbnConfig, HdbnParams};
    use cace_mining::constraint::{ConstraintMiner, LabeledSequence};
    use cace_mining::HierarchicalStats;

    /// Stats for a 2-activity world where activity k has posture k and
    /// location k, both users synchronized, runs of 10 ticks.
    fn toy_stats() -> HierarchicalStats {
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
        ConstraintMiner {
            laplace: 0.1,
            n_macro: 2,
            n_postural: 2,
            n_gestural: 2,
            n_location: 2,
        }
        .mine(&[seq])
        .unwrap()
    }

    fn decoder(coupling: bool) -> CoupledHdbn {
        let config = if coupling {
            HdbnConfig::default()
        } else {
            HdbnConfig::uncoupled()
        };
        CoupledHdbn::new(HdbnParams::new(toy_stats(), config).unwrap())
    }

    /// A tick where the observation clearly favors micro state `m` for both
    /// users (`strength` in log-odds).
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

    #[test]
    fn decodes_clear_observations() {
        let d = decoder(true);
        let ticks: Vec<TickInput> = (0..20)
            .map(|t| obs_tick(if t < 10 { 0 } else { 1 }, 5.0))
            .collect();
        let path = d.viterbi(&ticks).unwrap();
        for t in 0..10 {
            assert_eq!(path.macros[0][t], 0, "tick {t}");
            assert_eq!(path.macros[1][t], 0, "tick {t}");
        }
        for t in 12..20 {
            assert_eq!(path.macros[0][t], 1, "tick {t}");
        }
        assert!(path.log_prob.is_finite());
        assert!(path.states_explored > 0);
        assert!(path.transition_ops > 0);
    }

    #[test]
    fn temporal_smoothing_overrides_single_glitch() {
        let d = decoder(true);
        let mut ticks: Vec<TickInput> = (0..15).map(|_| obs_tick(0, 2.0)).collect();
        // One weakly contradictory tick in the middle.
        ticks[7] = obs_tick(1, 0.3);
        let path = d.viterbi(&ticks).unwrap();
        assert_eq!(path.macros[0][7], 0, "persistence should absorb the glitch");
    }

    #[test]
    fn coupling_pulls_ambiguous_partner() {
        // User 1 sees clear evidence for activity 0; user 2 is ambiguous.
        let make = |coupled: bool| {
            let d = decoder(coupled);
            let ticks: Vec<TickInput> = (0..10)
                .map(|_| {
                    let clear: Vec<MicroCandidate> = (0..2)
                        .map(|p| MicroCandidate {
                            postural: p,
                            gestural: Some(0),
                            location: p,
                            obs_loglik: if p == 0 { 0.0 } else { -6.0 },
                        })
                        .collect();
                    let ambiguous: Vec<MicroCandidate> = (0..2)
                        .map(|p| MicroCandidate {
                            postural: p,
                            gestural: Some(0),
                            location: p,
                            obs_loglik: 0.0,
                        })
                        .collect();
                    TickInput {
                        candidates: [clear, ambiguous],
                        macro_candidates: [None, None],
                        macro_bonus: Vec::new(),
                    }
                })
                .collect();
            d.viterbi(&ticks).unwrap()
        };
        let coupled = make(true);
        // With coupling, the ambiguous partner is pulled to activity 0
        // (their co-occurrence statistics are perfectly synchronized).
        assert!(coupled.macros[1].iter().all(|&a| a == 0));
    }

    #[test]
    fn macro_candidate_restriction_is_respected() {
        let d = decoder(true);
        let mut ticks: Vec<TickInput> = (0..6).map(|_| obs_tick(0, 1.0)).collect();
        for tick in &mut ticks {
            tick.macro_candidates[0] = Some(vec![1]); // force activity 1
        }
        let path = d.viterbi(&ticks).unwrap();
        assert!(path.macros[0].iter().all(|&a| a == 1));
    }

    #[test]
    fn empty_input_and_empty_candidates_error() {
        let d = decoder(true);
        assert!(matches!(
            d.viterbi(&[]),
            Err(ModelError::InsufficientData { .. })
        ));
        let mut tick = obs_tick(0, 1.0);
        tick.candidates[1].clear();
        assert!(matches!(
            d.viterbi(&[obs_tick(0, 1.0), tick]),
            Err(ModelError::EmptyStateSpace { tick: 1 })
        ));
    }

    #[test]
    fn pruning_reduces_accounting() {
        let d = decoder(true);
        let full: Vec<TickInput> = (0..10).map(|_| obs_tick(0, 2.0)).collect();
        let mut pruned = full.clone();
        for tick in &mut pruned {
            tick.macro_candidates = [Some(vec![0]), Some(vec![0])];
            tick.candidates[0].truncate(1);
            tick.candidates[1].truncate(1);
        }
        let full_path = d.viterbi(&full).unwrap();
        let pruned_path = d.viterbi(&pruned).unwrap();
        assert!(pruned_path.states_explored * 4 < full_path.states_explored);
        assert!(pruned_path.transition_ops * 16 <= full_path.transition_ops);
        // And the answer on this easy input is unchanged.
        assert_eq!(pruned_path.macros[0], full_path.macros[0]);
    }

    /// xorshift64*, seeded per case.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as usize % n
        }

        fn unit(&mut self) -> f64 {
            self.below(1 << 20) as f64 / (1u64 << 20) as f64
        }
    }

    /// A random normalized row of `n` entries, zeros allowed.
    fn dist(rng: &mut Rng, n: usize) -> Vec<f64> {
        let mut row: Vec<f64> = (0..n)
            .map(|_| [0.0, 0.05 + rng.unit()][rng.below(3).min(1)])
            .collect();
        row[rng.below(n)] += 0.5;
        let total: f64 = row.iter().sum();
        row.iter().map(|x| x / total).collect()
    }

    /// Random statistics over up to 4 activities and 3 posturals, with a
    /// coupling weight drawn from `coupling`.
    fn random_params(rng: &mut Rng, coupling: &[f64]) -> HdbnParams {
        let (n_macro, n_postural, n_location) = (1 + rng.below(4), 1 + rng.below(3), 2);
        let rows = |rng: &mut Rng, n: usize, m: usize| -> Vec<Vec<f64>> {
            (0..n).map(|_| dist(rng, m)).collect()
        };
        let stats = HierarchicalStats {
            n_macro,
            n_postural,
            n_gestural: 1,
            n_location,
            macro_prior: dist(rng, n_macro),
            intra_trans: rows(rng, n_macro, n_macro),
            inter_cooc: rows(rng, n_macro, n_macro),
            end_prob: (0..n_macro).map(|_| rng.unit()).collect(),
            postural_given_macro: rows(rng, n_macro, n_postural),
            gestural_given_macro: rows(rng, n_macro, 1),
            location_given_macro: rows(rng, n_macro, n_location),
            postural_trans: rows(rng, n_postural, n_postural),
        };
        let config = HdbnConfig {
            coupling_weight: coupling[rng.below(coupling.len())],
            ..HdbnConfig::default()
        };
        HdbnParams::new(stats, config).unwrap()
    }

    /// A random tick, each observation score drawn by `obs`.
    fn random_tick(
        rng: &mut Rng,
        p: &HdbnParams,
        obs: &mut impl FnMut(&mut Rng) -> f64,
    ) -> TickInput {
        let stats = &p.stats;
        let mut user = |rng: &mut Rng| -> Vec<MicroCandidate> {
            (0..1 + rng.below(4))
                .map(|_| MicroCandidate {
                    postural: rng.below(stats.n_postural),
                    gestural: Some(0),
                    location: rng.below(stats.n_location),
                    obs_loglik: obs(rng),
                })
                .collect()
        };
        TickInput {
            candidates: [user(rng), user(rng)],
            macro_candidates: [None, None],
            macro_bonus: Vec::new(),
        }
    }

    fn slices(p: &HdbnParams, tick: &TickInput, arena: &mut TrellisArena) -> [Slice; 2] {
        let [mut s1, mut s2] = [Slice::default(), Slice::default()];
        fill_slice(p, tick, 0, arena, &mut s1);
        fill_slice(p, tick, 1, arena, &mut s2);
        [s1, s2]
    }

    /// Survivors of `prev`: a random subset of its states (or, with
    /// `one_group`, of one chain-1 state's), each scored by `score`.
    fn random_survivors(
        rng: &mut Rng,
        [s1, s2]: &[Slice; 2],
        one_group: bool,
        score: &mut impl FnMut(&mut Rng) -> f64,
    ) -> JointSurvivors {
        let k2 = s2.len();
        let group = rng.below(s1.len());
        let mut out = JointSurvivors {
            k: [s1.len() as u32, k2 as u32],
            ..JointSurvivors::default()
        };
        for j in 0..s1.len() * k2 {
            let (j1, j2) = (j / k2, j % k2);
            let keep = if one_group {
                j1 == group
            } else {
                rng.below(2) == 0
            };
            if keep || (j + 1 == s1.len() * k2 && out.is_empty()) {
                out.states.push(j as u32);
                out.scores.push(score(rng));
                out.pairs.push([s1.pairs[j1], s2.pairs[j2]]);
                out.runs.push([s1.run_of(j1), s2.run_of(j2)]);
            }
        }
        out
    }

    /// One step out of `src` into `cur`, bounded and over every row: the
    /// bounded frontier, the rows it folded and the row bounds, then the
    /// full grid's frontier.
    fn both_folds(
        p: &HdbnParams,
        src: &JointSurvivors,
        cur: &[Slice; 2],
    ) -> (JointFrontier, usize, Vec<f64>, JointFrontier) {
        let mut arena = TrellisArena::new();
        let (mut bounded, mut full, mut back) = Default::default();
        let [c1, c2] = cur;
        let folded = joint_fold_into(
            p,
            src,
            c1,
            c2,
            &mut arena,
            &mut bounded,
            &mut back,
            Rows::Bounded,
        );
        let bounds = arena.joint.row_ub.clone();
        joint_fold_into(
            p,
            src,
            c1,
            c2,
            &mut arena,
            &mut full,
            &mut back,
            Rows::Every,
        );
        (bounded, folded, bounds, full)
    }

    /// Every row's bound is at least its exact largest score, on random
    /// inputs and adversarial ones: `−∞` emissions, `±∞` coupling and a
    /// single surviving group. A NaN bound folds every row, and the
    /// bounded fold keeps the full grid's maxima.
    #[test]
    fn row_bounds_cover_every_row_top() {
        let coupling = [0.0, 1.0, 3.5, f64::MAX, -f64::MAX];
        let (mut pruned, mut checked) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let p = random_params(&mut rng, &coupling);
            let mut obs = |rng: &mut Rng| match rng.below(6) {
                0 => f64::NEG_INFINITY,
                _ => -20.0 * rng.unit(),
            };
            let (prev, cur) = (
                random_tick(&mut rng, &p, &mut obs),
                random_tick(&mut rng, &p, &mut obs),
            );
            let mut arena = TrellisArena::new();
            let (prev, cur) = (slices(&p, &prev, &mut arena), slices(&p, &cur, &mut arena));
            let mut score = |rng: &mut Rng| match rng.below(8) {
                0 => f64::NEG_INFINITY,
                _ => -50.0 * rng.unit(),
            };
            let src = random_survivors(&mut rng, &prev, seed % 4 == 0, &mut score);
            let (bounded, folded, bounds, full) = both_folds(&p, &src, &cur);
            assert_eq!(bounds.len(), cur[0].n_slots(), "seed {seed}");
            for (s1, (&ub, &top)) in bounds.iter().zip(&full.row_top).enumerate() {
                assert!(
                    ub.is_nan() || ub >= top,
                    "seed {seed} row {s1}: bound {ub} < {top}"
                );
            }
            if bounds.iter().any(|x| x.is_nan()) {
                assert_eq!(
                    folded,
                    cur[0].n_slots(),
                    "seed {seed}: a NaN bound folds every row"
                );
            }
            assert_eq!(bounded.first_max().0, full.first_max().0, "seed {seed}");
            assert_eq!(
                bounded.first_max().1.to_bits(),
                full.first_max().1.to_bits()
            );
            assert_eq!(bounded.argmax().0, full.argmax().0, "seed {seed}");
            assert_eq!(bounded.argmax().1.to_bits(), full.argmax().1.to_bits());
            checked += 1;
            pruned += usize::from(folded < cur[0].n_slots());
        }
        assert!(
            checked == 400 && pruned >= 40,
            "{pruned} of {checked} steps left a row out"
        );
    }

    /// A NaN offset makes every bound NaN, and a cut left undefined by
    /// magnitudes near `f64::MAX` (or by a frontier with no score above
    /// `−∞`) keeps every state: either way, every row is folded.
    #[test]
    fn nan_bounds_and_undefined_cuts_fold_every_row() {
        for seed in 0..64u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let p = random_params(&mut rng, &[1.0]);
            let mut arena = TrellisArena::new();
            let mut obs = |rng: &mut Rng| -10.0 * rng.unit();
            let prev = slices(&p, &random_tick(&mut rng, &p, &mut obs), &mut arena);
            let mut cur = random_tick(&mut rng, &p, &mut obs);
            let cases: [(&str, fn(&mut Rng) -> f64); 2] = [
                ("near f64::MAX", |rng| {
                    -(f64::MAX / 8.0) * (1.0 + rng.unit())
                }),
                ("all −∞", |_| f64::NEG_INFINITY),
            ];
            for (what, mut score) in cases {
                let src = random_survivors(&mut rng, &prev, false, &mut score);
                let cur = slices(&p, &cur, &mut arena);
                let (bounded, folded, bounds, _) = both_folds(&p, &src, &cur);
                assert!(bounds.iter().all(|x| !x.is_nan()), "seed {seed} {what}");
                let d1 = cur[0].n_slots();
                assert_eq!(folded, d1, "seed {seed} {what}: every row folded");
                assert!(
                    bounded.row_top.iter().all(|x| !x.is_nan()),
                    "seed {seed} {what}"
                );
            }
            for c in &mut cur.candidates[1] {
                c.obs_loglik = f64::NAN;
            }
            let mut score = |rng: &mut Rng| -10.0 * rng.unit();
            let src = random_survivors(&mut rng, &prev, false, &mut score);
            let cur = slices(&p, &cur, &mut arena);
            let (_, folded, bounds, _) = both_folds(&p, &src, &cur);
            assert!(
                bounds.iter().all(|x| x.is_nan()),
                "seed {seed}: NaN offsets"
            );
            assert_eq!(
                folded,
                cur[0].n_slots(),
                "seed {seed}: a NaN bound folds every row"
            );
        }
    }

    #[test]
    fn micro_path_aligns_with_macro_path() {
        let d = decoder(true);
        let ticks: Vec<TickInput> = (0..8).map(|_| obs_tick(1, 4.0)).collect();
        let path = d.viterbi(&ticks).unwrap();
        for t in 0..8 {
            // In the toy world, activity 1 ↔ posture 1 / location 1.
            assert_eq!(path.micros[0][t].postural, 1);
            assert_eq!(path.micros[0][t].location, 1);
            assert_eq!(path.macros[0][t], 1);
        }
    }
}
