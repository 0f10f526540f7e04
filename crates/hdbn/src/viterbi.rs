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
//! next push's survivor kernel `joint_step_pruned_into` folds. The decode
//! stays exact, and on CASAS-sized frontiers the survivors are a fraction
//! of a percent of the states. The differential suite checks one step
//! (`joint_step`, behind the `testkit` feature) against the naive
//! reference `cace_testkit::toy::naive_joint_step`.

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
use crate::scalar::{sweep_add_max_arg, sweep_max_arg};
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JointFrontier {
    /// Per slot pair, row-major (`s1 * d2 + s2`): the step's pass-2 fold,
    /// `−0.0` on the first tick.
    pub(crate) w: Vec<f64>,
    pub(crate) axes: [Axis; 2],
    /// Coupling term per group pair, `g[g1 * n_g2 + g2]`: per pair of
    /// activity runs of the two slices, `−0.0` in the trivial
    /// factorization.
    g: Vec<f64>,
    n_g2: usize,
    /// Per chain-1 slot: the largest score in its row of slot pairs
    /// (NaN scores never count).
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
        frontier.summarize();
        Ok(frontier)
    }

    /// Completes a frontier whose `w` the caller wrote over the slot pairs
    /// of `s1 × s2`: the offsets (emissions, plus the macro prior on the
    /// first tick), the coupling of each pair of activity runs, and the
    /// maxima.
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
        self.summarize();
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

    /// Largest score of slot pair `(s1, s2)` (NaN scores never count):
    /// the member with both largest offsets, unless that sum is NaN — an
    /// `∞ − ∞` no finite input produces — where the members are scanned.
    #[inline]
    pub(crate) fn top(&self, s1: usize, s2: usize) -> f64 {
        let [a1, a2] = &self.axes;
        let top =
            self.w[s1 * a2.n_slots() + s2] + ((a1.fmax[s1] + a2.fmax[s2]) + self.coupling(s1, s2));
        if !top.is_nan() {
            return top;
        }
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

    /// Recomputes `row_top` and both maxima: one pass over the slot
    /// pairs, then the members of the slot pairs that attain the largest
    /// score.
    fn summarize(&mut self) {
        let Self {
            w,
            axes: [a1, a2],
            g,
            n_g2,
            row_top,
            gcol,
            ..
        } = self;
        let d2 = a2.n_slots();
        row_top.clear();
        let mut best = f64::NEG_INFINITY;
        let mut group = u32::MAX;
        let mut nan_rows = false;
        for s1 in 0..a1.n_slots() {
            if a1.group[s1] != group {
                group = a1.group[s1];
                let grow = &g[group as usize * *n_g2..][..*n_g2];
                gcol.clear();
                gcol.extend(a2.group.iter().map(|&g2| grow[g2 as usize]));
            }
            let (top, nan) = row_top_of(&w[s1 * d2..][..d2], a1.fmax[s1], &a2.fmax, gcol);
            nan_rows |= nan;
            row_top.push(top);
        }
        if nan_rows {
            for s1 in 0..self.row_top.len() {
                let top = (0..d2)
                    .map(|s2| self.top(s1, s2))
                    .fold(f64::NEG_INFINITY, |m, x| if x > m { x } else { m });
                self.row_top[s1] = top;
            }
        }
        for &top in &self.row_top {
            if top > best {
                best = top;
            }
        }
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
                for s2 in (0..d2).filter(|&s2| self.top(s1, s2) == best) {
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

/// Reusable work buffers of [`joint_step_pruned_into`] and the joint
/// selection, owned by the [`crate::arena::TrellisArena`]: one allocation
/// per worker thread, reused across ticks and streams — the step allocates
/// nothing once warmed.
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

/// One joint DP step out of a survivor list: only `src`'s states are
/// transitioned out of. The pass-2 fold lands in `w2` and its backpointers
/// — flattened source states, so backtracking is oblivious to pruning —
/// in `w2_arg`, both per destination slot pair (`s1 * d2 + s2`); all
/// buffers reused, so a warmed caller allocates nothing.
///
/// Folds chain 2, then chain 1, each with the run collapse of the module
/// docs, restricted to the survivors. On a dominance survivor set every
/// candidate that attains a destination's maximum survives, with the same
/// value and index as in the full-frontier fold, so the result is the
/// same bit for bit (see [`crate::dominance`]).
///
/// Transition scores are flat loads from the dense
/// [`ScoreTables`](crate::ScoreTables), bit-identical to evaluating
/// [`HdbnParams::transition_score`] per edge (which is how the table was
/// built). [`crate::online::OnlineCoupledViterbi`] steps through it, and
/// so does [`CoupledHdbn::viterbi`], which runs that stream under an
/// unbounded lag.
pub(crate) fn joint_step_pruned_into(
    p: &HdbnParams,
    src: &JointSurvivors,
    cur1: &Slice,
    cur2: &Slice,
    arena: &mut TrellisArena,
    w2: &mut Vec<f64>,
    w2_arg: &mut Vec<u32>,
) {
    let t = &p.tables;
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
        part,
        part_arg,
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
    // Both folds are memoized per distinct destination pair (slot).
    let (d1, d2) = (cur1.n_slots(), cur2.n_slots());

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

    // Pass 1 — fold chain 2 over each group, per distinct chain-2 pair:
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

    // Pass 2 — fold chain 1 over the groups, per (distinct chain-1 pair,
    // distinct chain-2 pair), carrying the flat source states of pass 1.
    // Every argument starts at state 0 and changes only when a candidate
    // beats `−∞`, so a destination no survivor reaches points at state 0.
    // A switch candidate depends on the destination only through its
    // activity, so the switch runs between two same-activity runs fold
    // once per destination activity into a partial, and each destination
    // pair merges those partials around its own same-activity sweeps.
    // Merging a partial fold with strict `>` continues the fold, so the
    // candidate order is the sequential one.
    // Every row of w2/w2_arg is overwritten below before it is read.
    w2.resize(d1 * d2, f64::NEG_INFINITY);
    w2_arg.resize(d1 * d2, 0);
    let mut s1 = 0usize;
    while s1 < d1 {
        let a1 = t.activity_of(cur1.uniq_pairs[s1]) as u32;
        let srow = t.switch_row(a1 as usize);
        part.clear();
        part.resize(d2, f64::NEG_INFINITY);
        part_arg.clear();
        part_arg.resize(d2, 0);
        for (r, &(ar, _, _)) in group_runs.iter().enumerate() {
            let at = part.len() - d2;
            if ar == a1 {
                part.resize(at + 2 * d2, f64::NEG_INFINITY);
                part_arg.resize(at + 2 * d2, 0);
            } else {
                sweep_add_max_arg(
                    &run_max[r * d2..][..d2],
                    srow[ar as usize],
                    &run_arg[r * d2..][..d2],
                    &mut part[at..],
                    &mut part_arg[at..],
                );
            }
        }
        while s1 < d1 && t.activity_of(cur1.uniq_pairs[s1]) as u32 == a1 {
            let row = t.into_row(cur1.uniq_pairs[s1]);
            let acc = &mut w2[s1 * d2..][..d2];
            let acc_arg = &mut w2_arg[s1 * d2..][..d2];
            acc.copy_from_slice(&part[..d2]);
            acc_arg.copy_from_slice(&part_arg[..d2]);
            let mut next_part = d2;
            for &(ar, start, end) in group_runs.iter() {
                if ar != a1 {
                    continue;
                }
                for g in start as usize..end as usize {
                    let f1 = row[pairs[group_first[g] as usize][0] as usize];
                    let (wg, ag) = (&w[g * d2..][..d2], &w_arg[g * d2..][..d2]);
                    sweep_add_max_arg(wg, f1, ag, acc, acc_arg);
                }
                let (p, pa) = (&part[next_part..][..d2], &part_arg[next_part..][..d2]);
                sweep_max_arg(p, pa, acc, acc_arg);
                next_part += d2;
            }
            s1 += 1;
        }
    }
}

/// The dominance selection over the slot pairs of `v`, the frontier over
/// `s1 × s2` (every state when nothing can be pruned): the survivors, with
/// their scores, pair ids and runs, into `out`.
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

/// The joint fold out of the survivors `src` into the tick `cur1 × cur2`:
/// the new frontier lands in `next`, its per-slot-pair backpointers in
/// `back`.
pub(crate) fn joint_fold_into(
    p: &HdbnParams,
    src: &JointSurvivors,
    cur1: &Slice,
    cur2: &Slice,
    arena: &mut TrellisArena,
    next: &mut JointFrontier,
    back: &mut Vec<u32>,
) {
    joint_step_pruned_into(p, src, cur1, cur2, arena, &mut next.w, back);
    next.factor(p, cur1, cur2, false);
}

/// The dense transition-op charge of one joint step out of a tick of
/// `k[0] × k[1]` joint states — the overhead experiments' accounting
/// convention, `k1·k2·(m1+m2)`, whatever the dominance selection actually
/// folded.
pub(crate) fn joint_step_charge(k: [u32; 2], cur1: &Slice, cur2: &Slice) -> u64 {
    (u64::from(k[0]) * u64::from(k[1])) * (cur1.len() as u64 + cur2.len() as u64)
}

#[cfg(feature = "testkit")]
pub use testkit::{joint_step, joint_step_from, JointStep};

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
        joint_fold_into(p, &src, &cur1, &cur2, &mut arena, &mut next, &mut back);
        let JointSurvivors { states, .. } = src;
        Ok(JointStep {
            frontier: next.to_dense(),
            back: expand_back(&back, &cur1, &cur2),
            survivors: states.len(),
            kept: states,
            factored: next,
        })
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
