//! A toy decoder family over the generic trellis engine, plus naive
//! reference implementations of the chain and joint DP steps.
//!
//! [`ToySpace`] and [`ToyModel`] form the smallest complete instantiation
//! of the engine's [`StateSpace`] + [`ScoreModel`] axes: a hand-specified
//! group-major state list per tick and explicit transition tables, with
//! the full continue/switch structure enabled so both kernel memoizations
//! — the per-slot fold sharing and the per-run switch cache — are on the
//! hook. [`ToyFlatModel`] is the switch-free variant exercising the
//! `SWITCH == false` path (the shape of the NH flat-product decoder).
//!
//! Both models build their [`Dominance`] table from their explicit
//! transition tables, so the dominance-pruned exact step
//! ([`cace_hdbn::trellis::step_into`]) runs over them too.
//!
//! [`naive_step`] and [`naive_joint_step`] are the executable
//! specifications of the step kernels: a per-destination scan with no
//! memoization beyond the *run collapse* the kernels' contract names —
//! each switch run of sources contributes its first-maximum source plus
//! the switch constant, continue-run sources are scanned one by one,
//! ascending, and strict `>` decides every comparison. The collapse is
//! part of the contract, not an optimization: in floating point, two
//! sources of one switch run can round to the same sum with the switch
//! constant, and the collapse then names the run's maximum where a
//! per-state scan would name the earlier source.
//!
//! [`reference_select_joint`] is the dense dominance selection of a
//! coupled step, the reference for the slot-factored one.
//!
//! Consumers: `tests/generic_engine.rs` asserts the generic kernels match
//! [`naive_step`] bit for bit on dyadic-lattice scores (multiples of ⅛, so
//! every floating-point sum is exact and every tie is a true tie), and
//! `tests/dominance_differential.rs` holds the dominance-pruned exact
//! steps of every family to both references on adversarial frontiers.

use cace_hdbn::trellis::{argmax, init_into, step_pruned_into};
use cace_hdbn::{Dest, Dominance, HdbnParams, ScoreModel, StateSpace, TickInput, TrellisArena};

/// One toy tick: an explicit group-major state list.
#[derive(Debug, Clone)]
pub struct ToySpace {
    groups: Vec<u32>,
    pairs: Vec<u32>,
    emissions: Vec<f64>,
    runs: Vec<(u32, u32, u32)>,
    slots: Vec<u32>,
    uniq_pairs: Vec<u32>,
}

impl ToySpace {
    /// Builds a tick from `(group, pair id, emission)` triples.
    ///
    /// States must already be group-major (groups non-decreasing). Slots
    /// are the tick's distinct pair ids in first-occurrence order; states
    /// repeating a pair id share a slot, exercising the kernels' fan-out.
    pub fn new(states: &[(u32, u32, f64)]) -> Self {
        assert!(!states.is_empty(), "toy tick needs at least one state");
        assert!(
            states.windows(2).all(|w| w[0].0 <= w[1].0),
            "toy states must be group-major"
        );
        let groups: Vec<u32> = states.iter().map(|s| s.0).collect();
        let pairs: Vec<u32> = states.iter().map(|s| s.1).collect();
        let emissions: Vec<f64> = states.iter().map(|s| s.2).collect();
        let mut runs = Vec::new();
        let mut start = 0usize;
        for j in 1..=groups.len() {
            if j == groups.len() || groups[j] != groups[start] {
                runs.push((groups[start], start as u32, j as u32));
                start = j;
            }
        }
        let mut uniq_pairs: Vec<u32> = Vec::new();
        let mut slots = Vec::with_capacity(pairs.len());
        for &p in &pairs {
            let s = uniq_pairs.iter().position(|&q| q == p).unwrap_or_else(|| {
                uniq_pairs.push(p);
                uniq_pairs.len() - 1
            });
            slots.push(s as u32);
        }
        Self {
            groups,
            pairs,
            emissions,
            runs,
            slots,
            uniq_pairs,
        }
    }
}

impl StateSpace for ToySpace {
    fn len(&self) -> usize {
        self.pairs.len()
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
        self.groups[j]
    }

    fn runs(&self) -> &[(u32, u32, u32)] {
        &self.runs
    }

    fn emission(&self, j: usize) -> f64 {
        self.emissions[j]
    }
}

/// Hierarchical toy model: full continue/switch transition structure.
///
/// Tables are dense and explicit: `cont[dst pair][src pair]`,
/// `switch[dst pair][src group]`, `prior[group]`. For coherence with a
/// [`ToySpace`], every state's group must equal `pair_group` of its pair.
#[derive(Debug, Clone)]
pub struct ToyModel {
    /// First-tick log-prior per group.
    pub prior: Vec<f64>,
    /// Group of each destination pair id.
    pub pair_group: Vec<u32>,
    /// Continue rows: `cont[dst pair][src pair]`.
    pub cont: Vec<Vec<f64>>,
    /// Switch rows: `switch[dst pair][src group]`.
    pub switch: Vec<Vec<f64>>,
}

impl ScoreModel for ToyModel {
    const SWITCH: bool = true;

    fn init_score(&self, group: u32, _pair: u32, emission: f64) -> f64 {
        self.prior[group as usize] + emission
    }

    fn dest(&self, pair: u32) -> Dest<'_> {
        Dest {
            group: self.pair_group[pair as usize],
            cont: &self.cont[pair as usize],
            switch: &self.switch[pair as usize],
        }
    }
}

impl ToyModel {
    /// The dominance table over this model's pair ids: `T(q → d)` is the
    /// continue entry when `q` and `d` share a group, the switch entry of
    /// `q`'s group otherwise — exactly what the kernels read.
    pub fn dominance(&self) -> Dominance {
        Dominance::build(self.pair_group.len(), |q, d| {
            let g = self.pair_group[q];
            if g == self.pair_group[d] {
                self.cont[d][q]
            } else {
                self.switch[d][g as usize]
            }
        })
    }
}

/// Switch-free toy model: every source scores through the continue row,
/// as in the NH flat-product family.
#[derive(Debug, Clone)]
pub struct ToyFlatModel {
    /// Transition rows: `cont[dst pair][src pair]`.
    pub cont: Vec<Vec<f64>>,
}

impl ScoreModel for ToyFlatModel {
    const SWITCH: bool = false;

    fn init_score(&self, _group: u32, _pair: u32, emission: f64) -> f64 {
        emission
    }

    fn dest(&self, pair: u32) -> Dest<'_> {
        Dest {
            group: pair,
            cont: &self.cont[pair as usize],
            switch: &[],
        }
    }
}

impl ToyFlatModel {
    /// The dominance table over this model's pair ids.
    pub fn dominance(&self) -> Dominance {
        Dominance::build(self.cont.len(), |q, d| self.cont[d][q])
    }
}

/// First-tick frontier by direct per-state evaluation.
pub fn naive_init<M: ScoreModel>(model: &M, cur: &ToySpace) -> Vec<f64> {
    (0..cur.len())
        .map(|j| model.init_score(cur.group_of(j), cur.pair(j), cur.emission(j)))
        .collect()
}

/// One DP step by the naive per-destination scan: no slot sharing, no
/// survivor bookkeeping — for each destination, the sources in ascending
/// order, each same-group switch run collapsed to its first-maximum source
/// plus the switch constant (see the [module docs](self)), strict-`>`
/// first-argmax. With `keep`, only the listed survivors (ascending state
/// indices) are scanned; backpointers stay in full-frontier coordinates.
///
/// Returns `(v_next, back)`.
pub fn naive_step<M: ScoreModel>(
    model: &M,
    prev: &ToySpace,
    v: &[f64],
    keep: Option<&[u32]>,
    cur: &ToySpace,
) -> (Vec<f64>, Vec<u32>) {
    let full: Vec<u32> = (0..prev.len() as u32).collect();
    let sources = keep.unwrap_or(&full);
    let mut v_next = Vec::with_capacity(cur.len());
    let mut back = Vec::with_capacity(cur.len());
    for j in 0..cur.len() {
        let dest = model.dest(cur.pair(j));
        let mut fold = Fold::new();
        for run in sources.chunk_by(|&a, &b| prev.group_of(a as usize) == prev.group_of(b as usize))
        {
            let group = prev.group_of(run[0] as usize);
            if !M::SWITCH || group == dest.group {
                for &jp in run {
                    fold.offer(
                        v[jp as usize] + dest.cont[prev.pair(jp as usize) as usize],
                        jp,
                    );
                }
            } else {
                let (max, arg) = first_max(run.iter().map(|&jp| (v[jp as usize], jp)));
                fold.offer(max + dest.switch[group as usize], arg);
            }
        }
        v_next.push(fold.best + cur.emission(j));
        back.push(fold.arg);
    }
    (v_next, back)
}

/// A strict-`>` first-argmax fold, starting from `(−∞, 0)`.
struct Fold {
    best: f64,
    arg: u32,
}

impl Fold {
    fn new() -> Self {
        Self {
            best: f64::NEG_INFINITY,
            arg: 0,
        }
    }

    fn offer(&mut self, score: f64, arg: u32) {
        if score > self.best {
            self.best = score;
            self.arg = arg;
        }
    }
}

/// First maximum of a run of `(score, index)` candidates (`(−∞, 0)` when
/// every score is `−∞`).
fn first_max(run: impl Iterator<Item = (f64, u32)>) -> (f64, u32) {
    let mut fold = Fold::new();
    run.for_each(|(x, j)| fold.offer(x, j));
    (fold.best, fold.arg)
}

/// One user's joint-model states for a tick, macro-major as the decoders
/// enumerate them: `(activity, postural, emission)`, one run per allowed
/// macro. Returns the states and the run boundaries.
fn naive_chain(
    p: &HdbnParams,
    tick: &TickInput,
    user: usize,
) -> (Vec<(usize, usize, f64)>, Vec<usize>) {
    let mut states = Vec::new();
    let mut run_starts = Vec::new();
    for a in tick.macros_for(user, p.n_macro()) {
        run_starts.push(states.len());
        for c in &tick.candidates[user] {
            let hier = p.hierarchy_score(a, c.postural, c.gestural, c.location);
            states.push((a, c.postural, c.obs_loglik + tick.bonus(a) + hier));
        }
    }
    run_starts.push(states.len());
    (states, run_starts)
}

/// One chain's fold for one destination `(a, pn)`: sources `src` with
/// scores `score(j)`, visited run by run with the run collapse. Returns
/// `(best, source index)`.
fn naive_chain_fold(
    p: &HdbnParams,
    src: &[(usize, usize, f64)],
    run_starts: &[usize],
    score: impl Fn(usize) -> f64,
    (a, pn): (usize, usize),
) -> (f64, u32) {
    let mut fold = Fold::new();
    for bounds in run_starts.windows(2) {
        let run = bounds[0]..bounds[1];
        let ap = src[run.start].0;
        if ap == a {
            for j in run {
                fold.offer(score(j) + p.transition_score(ap, src[j].1, a, pn), j as u32);
            }
        } else {
            let (max, arg) = first_max(run.map(|j| (score(j), j as u32)));
            fold.offer(
                max + p.transition_score(ap, src[arg as usize].1, a, pn),
                arg,
            );
        }
    }
    (fold.best, fold.arg)
}

/// One coupled joint DP step by the naive scan, scoring every edge through
/// [`HdbnParams`]' direct scorers: chain 2 is folded first, for every
/// previous chain-1 state, then chain 1 — each per destination state and
/// with the run collapse of the [module docs](self) — and the fold fans out
/// to every joint destination with its emissions and coupling. `v` is the
/// previous joint frontier, flattened `j1 * |S2| + j2`; a destination no
/// source reaches points at state 0.
///
/// Returns `(v_next, back)`, flattened the same way over `cur`.
///
/// # Panics
/// Panics if a tick has an empty state space or `v` does not cover
/// `prev`'s joint frontier.
pub fn naive_joint_step(
    p: &HdbnParams,
    prev: &TickInput,
    cur: &TickInput,
    v: &[f64],
) -> (Vec<f64>, Vec<u32>) {
    let (prev1, runs1) = naive_chain(p, prev, 0);
    let (prev2, runs2) = naive_chain(p, prev, 1);
    let (cur1, _) = naive_chain(p, cur, 0);
    let (cur2, _) = naive_chain(p, cur, 1);
    let k2 = prev2.len();
    assert_eq!(v.len(), prev1.len() * k2, "joint frontier size");
    // Pass 1: w[j1p][j2] = max over j2p of V[j1p, j2p] + f2(j2p → j2).
    let w: Vec<Vec<(f64, u32)>> = (0..prev1.len())
        .map(|j1p| {
            cur2.iter()
                .map(|&(a, pn, _)| {
                    naive_chain_fold(p, &prev2, &runs2, |j2p| v[j1p * k2 + j2p], (a, pn))
                })
                .collect()
        })
        .collect();
    // Pass 2 and fan-out.
    let mut v_next = Vec::with_capacity(cur1.len() * cur2.len());
    let mut back = Vec::with_capacity(cur1.len() * cur2.len());
    for &(a1, pn1, e1) in &cur1 {
        for (j2, &(a2, _, e2)) in cur2.iter().enumerate() {
            let (best, j1p) = naive_chain_fold(p, &prev1, &runs1, |j1p| w[j1p][j2].0, (a1, pn1));
            v_next.push(best + ((e1 + e2) + p.coupling_score(a1, a2)));
            back.push(if best == f64::NEG_INFINITY {
                0
            } else {
                j1p * k2 as u32 + w[j1p as usize][j2].1
            });
        }
    }
    (v_next, back)
}

/// The reference dominance selection of a coupled step, over the dense
/// frontier `v` of `prev`'s joint states (flattened `j1 * |S2| + j2`): the
/// first maximum `b` of `v`, then every state whose bound
/// `(v + D₁[q₁][q₁(b)]) + D₂[q₂][q₂(b)]` reaches the model's cut, ascending;
/// every state when the cut is undefined. Rows whose lane-folded bound
/// maximum misses the cut are skipped before the per-state scan — the
/// dense selection the decoders ran before their frontier was factored by
/// slot pair, kept as the reference the factored selection must equal.
///
/// # Panics
/// Panics if `v` does not cover `prev`'s joint frontier.
pub fn reference_select_joint(p: &HdbnParams, prev: &TickInput, v: &[f64]) -> Vec<u32> {
    let pairs = |user: usize| -> Vec<u32> {
        let (states, _) = naive_chain(p, prev, user);
        states
            .iter()
            .map(|&(a, pn, _)| p.tables.pair(a, pn))
            .collect()
    };
    let (pairs1, pairs2) = (pairs(0), pairs(1));
    let k2 = pairs2.len();
    assert_eq!(v.len(), pairs1.len() * k2, "joint frontier size");
    let dom = p.tables.dominance();
    let (b, best) = reference_first_max(v);
    let Some(cut) = dom.cut(best) else {
        return (0..v.len() as u32).collect();
    };
    let col1 = dom.against(pairs1[b / k2]);
    let col2 = dom.against(pairs2[b % k2]);
    let d2: Vec<f64> = pairs2.iter().map(|&q| col2[q as usize]).collect();
    let mut keep = Vec::new();
    for (j1, row) in v.chunks_exact(k2).enumerate() {
        let d1 = col1[pairs1[j1] as usize];
        if row_max_bound(row, d1, &d2) < cut {
            continue;
        }
        let base = (j1 * k2) as u32;
        for (j2, (&x, &dd)) in row.iter().zip(&d2).enumerate() {
            if (x + d1) + dd >= cut {
                keep.push(base + j2 as u32);
            }
        }
    }
    keep
}

/// `max over j of (row[j] + d1) + d2[j]`, 8-wide (NaN bounds never win),
/// with the per-state bound's exact operation order.
fn row_max_bound(row: &[f64], d1: f64, d2: &[f64]) -> f64 {
    const LANES: usize = 8;
    let mut acc = [f64::NEG_INFINITY; LANES];
    let (row_chunks, row_tail) = row.split_at(row.len() / LANES * LANES);
    let (d2_chunks, d2_tail) = d2.split_at(row_chunks.len());
    for (xs, ds) in row_chunks
        .chunks_exact(LANES)
        .zip(d2_chunks.chunks_exact(LANES))
    {
        for l in 0..LANES {
            let b = (xs[l] + d1) + ds[l];
            acc[l] = if b > acc[l] { b } else { acc[l] };
        }
    }
    let mut best = f64::NEG_INFINITY;
    for (&x, &dd) in row_tail.iter().zip(d2_tail) {
        let b = (x + d1) + dd;
        best = if b > best { b } else { best };
    }
    acc.into_iter().fold(best, |m, b| if b > m { b } else { m })
}

/// `(state, score)` of the first maximum of a dense frontier, by a plain
/// scan: the lowest state whose score exceeds every earlier one, or
/// `(0, −∞)` when none exceeds `−∞` (NaN never wins).
pub fn reference_first_max(v: &[f64]) -> (usize, f64) {
    let (mut arg, mut best) = (0, f64::NEG_INFINITY);
    for (j, &x) in v.iter().enumerate() {
        if x > best {
            (arg, best) = (j, x);
        }
    }
    (arg, best)
}

/// Full naive decode: [`naive_init`], dense [`naive_step`]s, then the
/// engine's last-max termination tie-break, backtracked to one state
/// index per tick.
pub fn naive_decode<M: ScoreModel>(model: &M, ticks: &[ToySpace]) -> Vec<usize> {
    let mut v = naive_init(model, &ticks[0]);
    let mut backs: Vec<Vec<u32>> = Vec::new();
    for t in 1..ticks.len() {
        let (nv, nb) = naive_step(model, &ticks[t - 1], &v, None, &ticks[t]);
        v = nv;
        backs.push(nb);
    }
    // Termination ties break toward the *last* maximum, matching the
    // engine's frontier argmax.
    let mut j = 0usize;
    let mut best = f64::NEG_INFINITY;
    for (i, &x) in v.iter().enumerate() {
        if x >= best {
            best = x;
            j = i;
        }
    }
    backtrack(ticks.len(), j, &backs)
}

/// The same decode driven through the generic kernels: `init_into`,
/// `step_pruned_into` over every state of each frontier, and the engine's
/// termination `argmax`.
pub fn engine_decode<M: ScoreModel>(model: &M, ticks: &[ToySpace]) -> Vec<usize> {
    let mut v: Vec<f64> = Vec::new();
    init_into(model, &ticks[0], &mut v);
    let mut step = TrellisArena::new();
    let mut backs: Vec<Vec<u32>> = Vec::new();
    for t in 1..ticks.len() {
        let mut back = Vec::new();
        let every: Vec<u32> = (0..ticks[t - 1].len() as u32).collect();
        step_pruned_into(
            model,
            &ticks[t - 1],
            &v,
            &every,
            &ticks[t],
            &mut step,
            &mut back,
        );
        step.swap_frontier(&mut v);
        backs.push(back);
    }
    backtrack(ticks.len(), argmax(&v).0, &backs)
}

fn backtrack(n_ticks: usize, last: usize, backs: &[Vec<u32>]) -> Vec<usize> {
    let mut j = last;
    let mut path = vec![0usize; n_ticks];
    for t in (1..n_ticks).rev() {
        path[t] = j;
        j = backs[t - 1][j] as usize;
    }
    path[0] = j;
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two groups, three pairs, hand-checkable tables: the generic engine
    /// and the naive reference agree on a fixed decode, including a
    /// pruned step and a deliberate tie.
    #[test]
    fn engine_and_naive_reference_agree_on_fixed_scenario() {
        let model = ToyModel {
            prior: vec![0.5, -0.25],
            pair_group: vec![0, 0, 1],
            cont: vec![
                vec![0.125, -1.0, 2.0],
                vec![1.5, 0.125, -0.5],
                vec![-2.0, 0.25, 1.0],
            ],
            switch: vec![vec![0.0, -0.5], vec![-0.5, 0.0], vec![0.25, 0.25]],
        };
        let ticks = vec![
            ToySpace::new(&[(0, 0, 1.0), (0, 1, 1.0), (1, 2, -0.5)]),
            ToySpace::new(&[(0, 0, 0.25), (0, 0, 0.25), (1, 2, 0.75)]),
            ToySpace::new(&[(0, 1, -0.125), (1, 2, 0.5)]),
        ];
        assert_eq!(engine_decode(&model, &ticks), naive_decode(&model, &ticks));

        let flat = ToyFlatModel {
            cont: model.cont.clone(),
        };
        assert_eq!(engine_decode(&flat, &ticks), naive_decode(&flat, &ticks));

        // One pruned step against the naive survivor scan.
        let v = naive_init(&model, &ticks[0]);
        let keep = [0u32, 2];
        let mut step = TrellisArena::new();
        let mut back = Vec::new();
        step_pruned_into(
            &model, &ticks[0], &v, &keep, &ticks[1], &mut step, &mut back,
        );
        let mut got = Vec::new();
        step.swap_frontier(&mut got);
        let (want_v, want_back) = naive_step(&model, &ticks[0], &v, Some(&keep), &ticks[1]);
        assert_eq!(got, want_v);
        assert_eq!(back, want_back);
        // States 0 and 1 of tick 1 share pair 0, hence one slot.
        assert_eq!(ticks[1].n_slots(), 2);
        assert_eq!(got[0].to_bits(), got[1].to_bits());
    }
}
