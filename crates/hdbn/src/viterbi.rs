//! Joint Viterbi decoding of the loosely-coupled two-chain HDBN: the joint
//! step kernel, and [`CoupledHdbn::viterbi`], which decodes a whole session
//! by pushing it through an [`OnlineCoupledViterbi`] under
//! [`Lag::Unbounded`].
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
//!    computed once per *distinct* pair (slot), fanned out.
//! 2. **Run collapse.** Switch transitions are postural-independent, so
//!    each same-activity run of sources contributes one candidate: its
//!    first-maximum source plus the switch score. Same-activity sources
//!    are candidates one by one, ascending; runs are visited in ascending
//!    order, and strict `>` decides every comparison. In floating point
//!    this is not a per-state scan: two sources of one switch run whose
//!    sums with the switch score round equal are a tie to a per-state scan
//!    but not to the collapse, which names the run's maximum.
//!
//! On top of that, every step is dominance-pruned ([`crate::dominance`]):
//! a source state whose bound shows it cannot win any destination is not
//! folded at all, and the survivor kernel `joint_step_pruned_into` folds
//! the rest — the whole frontier when nothing can be pruned. The decode
//! stays exact, and on CASAS-sized frontiers the survivors are a fraction
//! of a percent of the states. [`joint_step`] exposes one step for the
//! differential suite, which checks it against the naive reference
//! `cace_testkit::toy::naive_joint_step`.

use std::sync::Arc;

use cace_model::ModelError;

use crate::arena::{fill_slice, Slice, StepScratch, TrellisArena};
use crate::beam::DecoderConfig;
use crate::input::{MicroCandidate, TickInput};
use crate::online::{Lag, OnlineCoupledViterbi};
use crate::params::HdbnParams;
use crate::scalar::{sweep_add_max, sweep_add_max_arg, sweep_max, sweep_max_arg};
use crate::tables::ScoreTables;

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

/// First-tick joint frontier, written into `v`: per-chain emissions plus
/// macro priors plus the inter-user coupling, flattened as
/// `j1 * |S2| + j2`.
///
/// The first push of [`crate::online::OnlineCoupledViterbi`].
pub(crate) fn joint_init_into(p: &HdbnParams, s1: &Slice, s2: &Slice, v: &mut Vec<f64>) {
    let t = &p.tables;
    v.clear();
    v.reserve(s1.len() * s2.len());
    for j1 in 0..s1.len() {
        let a1 = s1.activities[j1];
        let base1 = s1.emissions[j1] + p.log_prior[a1];
        for j2 in 0..s2.len() {
            let a2 = s2.activities[j2];
            let base2 = s2.emissions[j2] + p.log_prior[a2];
            v.push(base1 + base2 + t.coupling(a1, a2));
        }
    }
}

/// Fan-out of the joint step: expands the pass-2 fold
/// `V''[s1, s2]` (`w2`/`w2_arg`, per distinct destination pair) to the
/// full `m1 × m2` joint frontier, adding emissions and coupling.
///
/// The coupling scores — constant per `(a1, j2)` — are materialized as
/// one contiguous row per chain-1 activity run (`crow`). Each `j1`'s
/// inner loop is then a single unsegmented zip over four contiguous rows,
/// which vectorizes; when the chain-2 slot map is the identity (every
/// state a distinct pair — the common dense case) the `wrow[s2]` gather
/// degenerates to the contiguous row itself and the backpointer row to a
/// plain copy. The addition *tree* per element is unchanged from the
/// historical per-state loops (`wrow[s2] + ((e1 + e2[j2]) + c)`, IEEE
/// addition is commutative bit-for-bit), so the result is unchanged.
#[allow(clippy::too_many_arguments)]
fn joint_fan_out(
    t: &ScoreTables,
    cur1: &Slice,
    cur2: &Slice,
    w2: &[f64],
    w2_arg: &[u32],
    crow: &mut Vec<f64>,
    v_next: &mut Vec<f64>,
    back: &mut Vec<u32>,
) {
    let (m1, m2) = (cur1.len(), cur2.len());
    let d2 = cur2.n_slots();
    v_next.clear();
    v_next.resize(m1 * m2, f64::NEG_INFINITY);
    back.clear();
    back.resize(m1 * m2, 0);
    let e2 = &cur2.emissions;
    let identity2 = d2 == m2 && cur2.slots.iter().enumerate().all(|(i, &s)| s as usize == i);
    for &(a1, start1, end1) in cur1.runs.iter() {
        let a1 = a1 as usize;
        crow.clear();
        crow.extend(cur2.activities.iter().map(|&a2| t.coupling(a1, a2)));
        for j1 in start1 as usize..end1 as usize {
            let s1 = cur1.slots[j1] as usize;
            let e1 = cur1.emissions[j1];
            let wrow = &w2[s1 * d2..][..d2];
            let brow = &w2_arg[s1 * d2..][..d2];
            let vrow = &mut v_next[j1 * m2..][..m2];
            let krow = &mut back[j1 * m2..][..m2];
            if identity2 {
                for (((x, &g), &c), &wv) in vrow
                    .iter_mut()
                    .zip(e2.iter())
                    .zip(crow.iter())
                    .zip(wrow.iter())
                {
                    *x = wv + ((e1 + g) + c);
                }
                krow.copy_from_slice(brow);
            } else {
                for j2 in 0..m2 {
                    let s2 = cur2.slots[j2] as usize;
                    vrow[j2] = wrow[s2] + ((e1 + e2[j2]) + crow[j2]);
                    krow[j2] = brow[s2];
                }
            }
        }
    }
}

/// Reusable work buffers of [`joint_step_pruned_into`], owned by the
/// [`crate::arena::TrellisArena`]'s step scratch: one allocation per
/// stream, reused across ticks — the step
/// allocates nothing once warmed.
#[derive(Debug, Clone, Default)]
pub(crate) struct JointScratch {
    /// Chain-1 state of each survivor group (survivors sharing a `j1p`).
    group_j1p: Vec<u32>,
    /// Half-open range of each group's segments in `segs`.
    group_segs: Vec<(u32, u32)>,
    /// Chain-2 run segments of the groups, in `keep` order.
    segs: Vec<Segment>,
    /// Chain-1 activity runs over the groups: `(activity, start, end)`,
    /// half-open group ranges, one per chain-1 run with a survivor.
    group_runs: Vec<(u32, u32, u32)>,
    /// Per survivor: its frontier score and chain-2 state.
    keep_v: Vec<f64>,
    keep_j2p: Vec<u32>,
    /// Pass-2 partial folds of one destination activity's switch
    /// candidates, `d2` wide each, and their group arguments.
    part: Vec<f64>,
    part_arg: Vec<u32>,
}

/// The survivors of one group inside one chain-2 activity run: a
/// half-open range of `keep`, with the first maximum of their frontier
/// scores.
#[derive(Debug, Clone, Copy)]
struct Segment {
    activity: u32,
    start: u32,
    end: u32,
    max: f64,
    arg: u32,
}

/// One joint DP step over a survivor list: only the states in `keep`
/// (flattened `j1p * |S2_prev| + j2p` indices, sorted ascending) are
/// transitioned out of. The new frontier lands in `step.v_next` (the
/// caller swaps it with its live frontier) and the per-state flattened
/// backpointers, in full-frontier coordinates so backtracking is
/// oblivious to pruning, in `back` — all buffers reused, so a warmed
/// caller allocates nothing.
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
    prev1: &Slice,
    prev2: &Slice,
    v: &[f64],
    keep: &[u32],
    cur1: &Slice,
    cur2: &Slice,
    step: &mut StepScratch,
    back: &mut Vec<u32>,
) {
    let t = &p.tables;
    let StepScratch {
        joint: scratch,
        w,
        w_arg,
        w2,
        w2_arg,
        v_next,
        run_max,
        run_arg,
        crow,
        acc_arg,
        ..
    } = step;
    let JointScratch {
        group_j1p,
        group_segs,
        segs,
        group_runs,
        keep_v,
        keep_j2p,
        part,
        part_arg,
    } = scratch;
    let k2 = prev2.len() as u32;
    // Both folds are memoized per distinct destination pair (slot),
    // computed once and fanned out.
    let (d1, d2) = (cur1.n_slots(), cur2.n_slots());

    // Survivors grouped by j1p (`keep` is sorted, so each group is
    // contiguous), each group cut into segments by the chain-2 activity
    // runs its survivors fall in.
    keep_v.clear();
    keep_v.extend(keep.iter().map(|&f| v[f as usize]));
    keep_j2p.clear();
    keep_j2p.extend(keep.iter().map(|&f| f % k2));
    group_j1p.clear();
    group_segs.clear();
    segs.clear();
    let mut i = 0usize;
    while i < keep.len() {
        let j1p = keep[i] / k2;
        let first_seg = segs.len() as u32;
        let mut r = 0usize;
        while i < keep.len() && keep[i] / k2 == j1p {
            while prev2.runs[r].2 <= keep_j2p[i] {
                r += 1;
            }
            let (activity, _, run_end) = prev2.runs[r];
            let start = i;
            let (mut max, mut arg) = (f64::NEG_INFINITY, keep_j2p[i]);
            while i < keep.len() && keep[i] / k2 == j1p && keep_j2p[i] < run_end {
                if keep_v[i] > max {
                    max = keep_v[i];
                    arg = keep_j2p[i];
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
        group_j1p.push(j1p);
        group_segs.push((first_seg, segs.len() as u32));
    }
    let n_groups = group_j1p.len();

    // Pass 1 — fold chain 2 over each group, per distinct chain-2 pair:
    // W[g, s2] = max over the group's survivors of V + f2(j2p → s2).
    // Every entry of w/w_arg is overwritten below before it is read.
    w.resize(n_groups * d2, f64::NEG_INFINITY);
    w_arg.resize(n_groups * d2, 0);
    for (s2, &dp2) in cur2.uniq_pairs.iter().enumerate() {
        let a2 = t.activity_of(dp2) as u32;
        let row = t.into_row(dp2);
        let srow = t.switch_row(a2 as usize);
        for (g, &(seg_start, seg_end)) in group_segs.iter().enumerate() {
            let mut best = f64::NEG_INFINITY;
            let mut best_j2p = 0u32;
            for seg in &segs[seg_start as usize..seg_end as usize] {
                if seg.activity == a2 {
                    for i in seg.start as usize..seg.end as usize {
                        let j2p = keep_j2p[i];
                        let score = keep_v[i] + row[prev2.pairs[j2p as usize] as usize];
                        if score > best {
                            best = score;
                            best_j2p = j2p;
                        }
                    }
                } else {
                    let score = seg.max + srow[seg.activity as usize];
                    if score > best {
                        best = score;
                        best_j2p = seg.arg;
                    }
                }
            }
            w[g * d2 + s2] = best;
            w_arg[g * d2 + s2] = best_j2p;
        }
    }

    // The groups cut by the chain-1 activity runs they fall in, and per
    // run the switch-candidate cache
    // run_max[r][s2] = first max over the run's groups of W[g, s2].
    group_runs.clear();
    let (mut g, mut r) = (0usize, 0usize);
    while g < n_groups {
        while prev1.runs[r].2 <= group_j1p[g] {
            r += 1;
        }
        let (activity, _, run_end) = prev1.runs[r];
        let start = g;
        while g < n_groups && group_j1p[g] < run_end {
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
        ra.fill(start);
        for g in start..end {
            sweep_max(&w[g as usize * d2..][..d2], g, rm, ra);
        }
    }

    // Pass 2 — fold chain 1 over the groups, per (distinct chain-1 pair,
    // distinct chain-2 pair), with group indices as arguments; the
    // backpointers are restored to full-frontier flat coordinates after.
    // A switch candidate depends on the destination only through its
    // activity, so the switch runs between two same-activity runs fold
    // once per destination activity into a partial, and each destination
    // pair merges those partials around its own same-activity sweeps.
    // Merging a partial fold with strict `>` continues the fold, so the
    // candidate order is the sequential one.
    w2.clear();
    w2.resize(d1 * d2, f64::NEG_INFINITY);
    w2_arg.clear();
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
            acc.copy_from_slice(&part[..d2]);
            acc_arg.clear();
            acc_arg.extend_from_slice(&part_arg[..d2]);
            let mut next_part = d2;
            for &(ar, start, end) in group_runs.iter() {
                if ar != a1 {
                    continue;
                }
                for g in start..end {
                    let f1 = row[prev1.pairs[group_j1p[g as usize] as usize] as usize];
                    sweep_add_max(&w[g as usize * d2..][..d2], f1, g, acc, acc_arg);
                }
                let (p, pa) = (&part[next_part..][..d2], &part_arg[next_part..][..d2]);
                sweep_max_arg(p, pa, acc, acc_arg);
                next_part += d2;
            }
            // A destination no survivor reaches points at state 0.
            for s2 in 0..d2 {
                let g = acc_arg[s2] as usize;
                w2_arg[s1 * d2 + s2] = if acc[s2] == f64::NEG_INFINITY {
                    0
                } else {
                    group_j1p[g] * k2 + w_arg[g * d2 + s2]
                };
            }
            s1 += 1;
        }
    }

    // Fan out per joint state, plus emissions and coupling.
    joint_fan_out(t, cur1, cur2, w2, w2_arg, crow, v_next, back);
}

/// One exact joint DP step: dominance selection over `v` (every state
/// when nothing can be pruned), then [`joint_step_pruned_into`] over the
/// survivors. The new frontier lands in the arena; returns the number of
/// source states the kernel folded.
pub(crate) fn joint_step_exact_into(
    p: &HdbnParams,
    prev1: &Slice,
    prev2: &Slice,
    v: &[f64],
    cur1: &Slice,
    cur2: &Slice,
    arena: &mut TrellisArena,
    back: &mut Vec<u32>,
) -> usize {
    let TrellisArena { keep, step } = arena;
    p.tables
        .dominance()
        .select_joint(prev1, prev2, v, &mut step.dom_col, keep);
    joint_step_pruned_into(p, prev1, prev2, v, keep, cur1, cur2, step, back);
    keep.len()
}

/// The dense transition-op charge of one joint step — the overhead
/// experiments' accounting convention, `k1·k2·(m1+m2)`, whatever the
/// dominance selection actually folded.
pub(crate) fn joint_step_charge(prev1: &Slice, prev2: &Slice, cur1: &Slice, cur2: &Slice) -> u64 {
    (prev1.len() as u64 * prev2.len() as u64) * (cur1.len() as u64 + cur2.len() as u64)
}

/// One exact joint step, as [`joint_step`] returns it.
#[derive(Debug, Clone, PartialEq)]
pub struct JointStep {
    /// New frontier, flattened `j1 * |S2| + j2` over `cur`'s joint states.
    pub frontier: Vec<f64>,
    /// Per-state backpointers into the flattened input frontier.
    pub back: Vec<u32>,
    /// Source states the step folded after dominance selection.
    pub survivors: usize,
}

/// Runs one exact joint DP step — the dominance-pruned step every decoder
/// runs — from tick `prev` to tick `cur` over the frontier `v` (one score
/// per joint state of `prev`, flattened `j1 * |S2| + j2`).
/// `tests/dominance_differential.rs` drives it with adversarial frontiers
/// against a naive reference.
///
/// # Errors
/// [`ModelError::EmptyStateSpace`] for a tick with an empty state space,
/// and [`ModelError::InsufficientData`] when `v` does not match `prev`'s
/// joint frontier.
pub fn joint_step(
    p: &HdbnParams,
    prev: &TickInput,
    cur: &TickInput,
    v: &[f64],
) -> Result<JointStep, ModelError> {
    validate_tick(prev, 0)?;
    validate_tick(cur, 1)?;
    let mut arena = TrellisArena::new();
    let mut slice = |tick: &TickInput, user: usize| {
        let mut s = Slice::default();
        fill_slice(p, tick, user, &mut arena.step.macro_ids, &mut s);
        s
    };
    let (prev1, prev2, cur1, cur2) = (slice(prev, 0), slice(prev, 1), slice(cur, 0), slice(cur, 1));
    if v.len() != prev1.len() * prev2.len() {
        return Err(ModelError::InsufficientData {
            what: "joint frontier scores".into(),
            available: v.len(),
            required: prev1.len() * prev2.len(),
        });
    }
    let mut back = Vec::new();
    let survivors =
        joint_step_exact_into(p, &prev1, &prev2, v, &cur1, &cur2, &mut arena, &mut back);
    let mut frontier = Vec::new();
    arena.swap_frontier(&mut frontier);
    Ok(JointStep {
        frontier,
        back,
        survivors,
    })
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
