//! Trellis memory: the unified per-tick state `Slice` and the
//! [`TrellisArena`] that owns all step-kernel scratch.
//!
//! The arena centralizes the step's memory: **one allocation per worker
//! thread, reused across ticks and across every stream the thread pushes**
//! (it lives in the thread's [`TrellisScratch`](crate::trellis::TrellisScratch);
//! a whole-session decode is a stream too), so the steady-state hot loop
//! of a warmed online decoder performs zero heap allocations per pushed
//! tick (`tests/alloc_steady_state.rs` counts them) and a stream keeps no
//! step buffer between pushes. The joint kernel's survivor-group and
//! selection buffers (`JointScratch`) live here too, as arena fields.
//!
//! The coupled step writes no per-state buffer here. Its pass-2 fold
//! lands in the thread scratch's next
//! [`JointFrontier`](crate::viterbi::JointFrontier) and its backpointers,
//! one per slot pair, in the thread scratch's window entry; a stream keeps
//! only the survivors the push selects from them. `v_next` is the chain
//! and NH kernels' dense next frontier.
//!
//! A `Slice` enumerates one chain's per-tick states macro-major —
//! `(activity, micro-candidate)` pairs — and carries, per state, the
//! *compact pair id* `activity * n_postural + postural` that indexes the
//! dense [`ScoreTables`](crate::ScoreTables). The mapping is computed once
//! per tick when the slice is filled; after that, every transition
//! evaluation in every kernel is a flat-array load.

use crate::input::TickInput;
use crate::params::HdbnParams;
use crate::viterbi::JointScratch;

/// One chain's per-tick trellis slice, enumerated macro-major: state `j`
/// is `(activities[j], cands[j])` with dense-table pair id `pairs[j]` and
/// emission score `emissions[j]`.
///
/// The slice also records the tick's *distinct* pair ids
/// (first-occurrence order) and each state's index into them
/// (`slots`). The DP fold into a new state depends on that state only
/// through its pair id, so the kernels compute each fold **once per
/// distinct pair** and fan the result out to every state sharing it —
/// pure memoization, bit-identical to folding per state, and the main
/// per-tick work reduction on top of flat-table scoring (a tick with
/// `m` states over `D` distinct pairs folds `D/m` of the naive work).
#[derive(Debug, Clone, Default)]
pub(crate) struct Slice {
    /// Macro activity of each state.
    pub(crate) activities: Vec<usize>,
    /// Micro-candidate index (into the tick's candidate list) of each
    /// state.
    pub(crate) cands: Vec<usize>,
    /// Compact `(activity, postural)` pair id of each state — the
    /// [`ScoreTables`](crate::ScoreTables) index.
    pub(crate) pairs: Vec<u32>,
    /// Emission score of each state (observation log-lik + macro bonus +
    /// hierarchy factors).
    pub(crate) emissions: Vec<f64>,
    /// Distinct pair ids of this slice, in first-occurrence order.
    pub(crate) uniq_pairs: Vec<u32>,
    /// Per-state index into `uniq_pairs`.
    pub(crate) slots: Vec<u32>,
    /// Contiguous same-activity runs of the (macro-major) state list:
    /// `(activity, start, end)` half-open, ascending, one run per allowed
    /// macro. The fold kernels use these to collapse switch transitions
    /// (postural-independent) to one per-run candidate.
    pub(crate) runs: Vec<(u32, u32, u32)>,
}

impl Slice {
    /// Number of states in the slice.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.activities.len()
    }

    /// Number of distinct pair ids in the slice.
    #[inline]
    pub(crate) fn n_slots(&self) -> usize {
        self.uniq_pairs.len()
    }

    /// Index of state `j`'s activity run.
    pub(crate) fn run_of(&self, j: usize) -> u32 {
        self.runs.partition_point(|&(_, _, end)| end as usize <= j) as u32
    }

    fn clear(&mut self) {
        self.activities.clear();
        self.cands.clear();
        self.pairs.clear();
        self.emissions.clear();
        self.uniq_pairs.clear();
        self.slots.clear();
        self.runs.clear();
    }
}

/// Fills `out` with one user's trellis slice for a tick, reusing its
/// buffers (and the allowed-macro and pair→slot scratch of `arena`) so a
/// warmed caller allocates nothing.
///
/// This is the single state-enumeration implementation shared by the
/// coupled and single-chain decoders — macro-major, candidates in input
/// order — so all decode paths agree on state indexing, and the compact
/// pair ids are computed exactly once per tick per state.
pub(crate) fn fill_slice(
    p: &HdbnParams,
    input: &TickInput,
    user: usize,
    arena: &mut TrellisArena,
    out: &mut Slice,
) {
    let TrellisArena {
        macro_ids,
        slot_lookup,
        ..
    } = arena;
    macro_ids.clear();
    match &input.macro_candidates[user] {
        Some(m) => macro_ids.extend_from_slice(m),
        None => macro_ids.extend(0..p.n_macro()),
    }
    out.clear();
    let t = &p.tables;
    slot_lookup.clear();
    slot_lookup.resize(t.n_pair(), u32::MAX);
    for &a in macro_ids.iter() {
        let bonus = input.bonus(a);
        let run_start = out.activities.len() as u32;
        for (c, cand) in input.candidates[user].iter().enumerate() {
            let pair = t.pair(a, cand.postural);
            let lk = &mut slot_lookup[pair as usize];
            if *lk == u32::MAX {
                *lk = out.uniq_pairs.len() as u32;
                out.uniq_pairs.push(pair);
            }
            out.activities.push(a);
            out.cands.push(c);
            out.pairs.push(pair);
            out.slots.push(*lk);
            out.emissions.push(
                cand.obs_loglik
                    + bonus
                    + t.hierarchy(a, cand.postural, cand.gestural, cand.location),
            );
        }
        out.runs
            .push((a as u32, run_start, out.activities.len() as u32));
    }
}

/// All reusable step memory of one worker thread: the fold buffers every
/// DP step writes through, the survivor-group and selection buffers of
/// the joint kernel, and the dense next frontier the chain-shaped steps
/// emit into.
///
/// Allocated once per thread (per decoder family), reused across ticks and
/// streams; buffers grow to the high-water frontier size of any stream the
/// thread pushed and stay there, so the steady-state per-tick loop is
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct TrellisArena {
    /// Survivor joint-step group buffers.
    pub(crate) joint: JointScratch,
    /// The chain-2 slots' `D` terms of a joint survivor selection.
    pub(crate) dom_col: Vec<f64>,
    /// Allowed-macro scratch for [`fill_slice`].
    pub(crate) macro_ids: Vec<usize>,
    /// Pair id → slot lookup of [`fill_slice`] (`u32::MAX` = unseen).
    pub(crate) slot_lookup: Vec<u32>,
    /// Pass-1 joint fold `W[group, slot2]` (per survivor group and
    /// distinct chain-2 dst pair, group-major so pass 2 sweeps each group
    /// row contiguously) and its argmax; also the chain kernel's
    /// per-distinct-pair fold.
    pub(crate) w: Vec<f64>,
    pub(crate) w_arg: Vec<u32>,
    /// Per-(source, activity-run) maxima of a fold-source vector and
    /// their first argmax — the switch-candidate cache the low-rank fold
    /// uses (one candidate per run instead of one per state).
    pub(crate) run_max: Vec<f64>,
    pub(crate) run_arg: Vec<u32>,
    /// The chain-shaped kernels write the new frontier here; the caller
    /// swaps it with its own frontier vector.
    pub(crate) v_next: Vec<f64>,
    /// Log-sum-exp term accumulator (forward–backward, EM).
    pub(crate) terms: Vec<f64>,
}

impl TrellisArena {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Swaps the frontier the last chain step wrote with the caller's
    /// frontier vector.
    pub fn swap_frontier(&mut self, v: &mut Vec<f64>) {
        std::mem::swap(&mut self.v_next, v);
    }
}
