//! A toy decoder family over the generic trellis engine, plus a naive
//! reference implementation of its recursion.
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
//! [`naive_step`] is the executable specification: a per-destination ×
//! per-source scan with strict-`>` first-argmax and no memoization at
//! all. The property tests in the repo root (`tests/generic_engine.rs`)
//! assert the generic kernels match it bit-for-bit on dyadic-lattice
//! scores (multiples of ⅛, so every floating-point sum is exact and every
//! tie is a true tie).

use cace_hdbn::trellis::{argmax, init_into, step_dense_into};
use cace_hdbn::{Dest, Dominance, ScoreModel, StateSpace, StepScratch};

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

/// One DP step by the naive per-destination × per-source scan: no slot
/// sharing, no run-max cache — ascending sources, strict-`>`
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
        let mut best = f64::NEG_INFINITY;
        let mut arg = 0u32;
        for &jp in sources {
            let jp_us = jp as usize;
            let edge = if !M::SWITCH || prev.group_of(jp_us) == dest.group {
                dest.cont[prev.pair(jp_us) as usize]
            } else {
                dest.switch[prev.group_of(jp_us) as usize]
            };
            let score = v[jp_us] + edge;
            if score > best {
                best = score;
                arg = jp;
            }
        }
        v_next.push(best + cur.emission(j));
        back.push(arg);
    }
    (v_next, back)
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
/// `step_dense_into`, and the engine's termination `argmax`.
pub fn engine_decode<M: ScoreModel>(model: &M, ticks: &[ToySpace]) -> Vec<usize> {
    let mut v: Vec<f64> = Vec::new();
    init_into(model, &ticks[0], &mut v);
    let mut step: StepScratch = StepScratch::default();
    let mut backs: Vec<Vec<u32>> = Vec::new();
    for t in 1..ticks.len() {
        let mut back = Vec::new();
        step_dense_into(model, &ticks[t - 1], &v, &ticks[t], &mut step, &mut back);
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
        let mut step: StepScratch = StepScratch::default();
        let mut back = Vec::new();
        cace_hdbn::trellis::step_pruned_into(
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
