//! Parked (checkpointable) state of the online decoders.
//!
//! A serving tier that holds many more homes than fit live in memory needs
//! to *park* an idle stream — serialize its decoder state to bytes — and
//! rehydrate it on the next tick with **bit-identical continuation**: the
//! resumed decoder must emit the same decisions, accumulate the same
//! overhead counters, and finalize to the same path as one that never
//! stopped. The types here are the parked mirrors of
//! [`OnlineCoupledViterbi`](crate::OnlineCoupledViterbi) and
//! [`OnlineSingleViterbi`](crate::OnlineSingleViterbi): the trellis
//! frontier, the backpointer window with its per-tick slices and retained
//! candidate tuples, the decision cursor (`base`/`pushed`), and the
//! overhead counters. Decisions already emitted are the caller's: a park
//! holds `O(lag)` state, whatever the stream's age. The coupled decoder's
//! frontier and backpointer rows live per destination slot pair; its park
//! holds them per joint state (the frontier materialized, each row
//! expanded), and resume takes the parked frontier as its trivial
//! factorization and folds each row back, rejecting one whose states of a
//! slot pair disagree.
//!
//! What is *not* parked is exactly the state that does not affect output:
//! the entry free list and the [`TrellisArena`](crate::TrellisArena)
//! scratch (rebuilt empty — they only exist to avoid steady-state
//! allocations), the dominance survivors (recomputed from the frontier by
//! the next step), and the model itself (the caller re-attaches it at
//! resume, sharing one `Arc<HdbnParams>` across a whole fleet of parked
//! homes).
//!
//! Resume is **panic-free on malformed input**: every index and length in
//! a parked payload is validated against the attached model before any
//! kernel runs, so a tampered-but-checksummed snapshot surfaces as
//! [`ModelError::Persistence`] instead of an out-of-bounds panic — the
//! router quarantines the home and keeps serving its shard-mates.
//!
//! These types hold live state only; their `Deserialize` reads the JSON
//! layout of `v3` parks, which nothing writes any more. Those parks also
//! carry slots for removed mechanisms (an `f32` frontier, lossy-beam
//! flags, a decision history); [`legacy`] checks them, and is the only
//! code that knows them.

use cace_model::ModelError;
use serde::Deserialize;

use crate::arena::Slice;
use crate::input::MicroCandidate;
use crate::online::Lag;
use crate::params::HdbnParams;

pub mod legacy;

/// Parked form of one chain's per-tick trellis slice (everything the step
/// kernels read; the pair→slot lookup is per-fill scratch and rebuilt).
#[derive(Debug, Clone, Default, Deserialize)]
#[cfg_attr(test, derive(serde::Serialize))]
pub(crate) struct ParkedSlice {
    pub(crate) activities: Vec<usize>,
    pub(crate) cands: Vec<usize>,
    pub(crate) pairs: Vec<u32>,
    pub(crate) emissions: Vec<f64>,
    pub(crate) uniq_pairs: Vec<u32>,
    pub(crate) slots: Vec<u32>,
    pub(crate) runs: Vec<(u32, u32, u32)>,
}

impl ParkedSlice {
    pub(crate) fn from_slice(s: &Slice) -> Self {
        Self {
            activities: s.activities.clone(),
            cands: s.cands.clone(),
            pairs: s.pairs.clone(),
            emissions: s.emissions.clone(),
            uniq_pairs: s.uniq_pairs.clone(),
            slots: s.slots.clone(),
            runs: s.runs.clone(),
        }
    }

    pub(crate) fn to_slice(&self) -> Slice {
        Slice::restored(
            self.activities.clone(),
            self.cands.clone(),
            self.pairs.clone(),
            self.emissions.clone(),
            self.uniq_pairs.clone(),
            self.slots.clone(),
            self.runs.clone(),
        )
    }

    pub(crate) fn len(&self) -> usize {
        self.activities.len()
    }

    /// Bounds-checks every index the step kernels would read: state count
    /// nonzero and internally consistent, pair/slot ids inside the model's
    /// dense tables, candidate indices inside the retained tuple list,
    /// activity runs a partition-shaped cover of the state list, emissions
    /// free of NaN (the frontier argmax totally orders scores).
    pub(crate) fn validate(
        &self,
        what: &str,
        n_macro: usize,
        n_pair: usize,
        n_cands: usize,
    ) -> Result<(), ModelError> {
        let m = self.len();
        check(m > 0, || format!("{what}: empty trellis slice"))?;
        check(
            self.cands.len() == m
                && self.pairs.len() == m
                && self.emissions.len() == m
                && self.slots.len() == m,
            || format!("{what}: slice column lengths disagree"),
        )?;
        check(self.activities.iter().all(|&a| a < n_macro), || {
            format!("{what}: activity id out of range")
        })?;
        check(self.cands.iter().all(|&c| c < n_cands), || {
            format!("{what}: candidate index out of range")
        })?;
        check(self.pairs.iter().all(|&p| (p as usize) < n_pair), || {
            format!("{what}: pair id out of range")
        })?;
        check(
            self.uniq_pairs.iter().all(|&p| (p as usize) < n_pair),
            || format!("{what}: distinct pair id out of range"),
        )?;
        let n_slots = self.uniq_pairs.len() as u32;
        check(self.slots.iter().all(|&s| s < n_slots), || {
            format!("{what}: slot index out of range")
        })?;
        check(self.emissions.iter().all(|e| !e.is_nan()), || {
            format!("{what}: NaN emission score")
        })?;
        // Runs must tile 0..m in order — the fold kernels walk them as a
        // cover of the state list.
        let mut cursor = 0u32;
        for &(a, start, end) in &self.runs {
            check(
                (a as usize) < n_macro && start == cursor && end >= start,
                || format!("{what}: malformed activity run"),
            )?;
            cursor = end;
        }
        check(cursor as usize == m, || {
            format!("{what}: activity runs do not cover the slice")
        })?;
        Ok(())
    }
}

/// Parked form of one retained tick of the coupled backpointer window.
#[derive(Debug, Clone, Default, Deserialize)]
#[cfg_attr(test, derive(serde::Serialize))]
pub(crate) struct ParkedJointEntry {
    pub(crate) s1: ParkedSlice,
    pub(crate) s2: ParkedSlice,
    pub(crate) back: Vec<u32>,
    pub(crate) cands: [Vec<MicroCandidate>; 2],
}

/// Parked [`OnlineCoupledViterbi`](crate::OnlineCoupledViterbi) state: the
/// serialized mid-stream checkpoint of one home's coupled decoder.
/// Produced by [`park`](crate::OnlineCoupledViterbi::park), consumed by
/// [`resume`](crate::OnlineCoupledViterbi::resume); the payload is opaque
/// to callers and versioned by the snapshot layer that embeds it.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct ParkedCoupled {
    pub(crate) v: Vec<f64>,
    pub(crate) window: Vec<ParkedJointEntry>,
    pub(crate) base: usize,
    pub(crate) pushed: usize,
    pub(crate) states_explored: u64,
    pub(crate) transition_ops: u64,
}

impl ParkedCoupled {
    /// Ticks the parked stream had consumed when it was parked.
    pub fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// Full structural validation against the model this checkpoint is
    /// being re-attached to (see the [module docs](self) for why resume
    /// must be panic-free).
    pub(crate) fn validate(&self, p: &HdbnParams, lag: Lag) -> Result<(), ModelError> {
        let what = "parked coupled stream";
        validate_cursor(what, self.base, self.pushed, self.window.len(), lag)?;
        let (n_macro, n_pair) = (p.n_macro(), p.tables.n_pair());
        let mut prev_flat = None;
        for (i, e) in self.window.iter().enumerate() {
            let what = format!("parked coupled window[{i}]");
            e.s1.validate(&what, n_macro, n_pair, e.cands[0].len())?;
            e.s2.validate(&what, n_macro, n_pair, e.cands[1].len())?;
            let flat = e.s1.len() * e.s2.len();
            // window[0]'s backpointers are never read (no predecessor to
            // point into); every later entry's must cover its frontier and
            // stay inside the previous one.
            if let Some(prev_flat) = prev_flat {
                check(e.back.len() == flat, || {
                    format!("{what}: backpointer count != frontier size")
                })?;
                check(e.back.iter().all(|&b| (b as usize) < prev_flat), || {
                    format!("{what}: backpointer out of range")
                })?;
            }
            prev_flat = Some(flat);
        }
        if let Some(frontier) = prev_flat {
            validate_frontier("parked coupled stream", frontier, &self.v)?;
        }
        Ok(())
    }
}

/// Parked form of one retained tick of a single-chain backpointer window.
#[derive(Debug, Clone, Default, Deserialize)]
pub(crate) struct ParkedChainEntry {
    pub(crate) slice: ParkedSlice,
    pub(crate) back: Vec<u32>,
    pub(crate) cands: Vec<MicroCandidate>,
}

/// Parked [`OnlineSingleViterbi`](crate::OnlineSingleViterbi) state — the
/// single-chain counterpart of [`ParkedCoupled`].
#[derive(Debug, Clone, Default, Deserialize)]
pub struct ParkedChain {
    pub(crate) v: Vec<f64>,
    pub(crate) window: Vec<ParkedChainEntry>,
    pub(crate) base: usize,
    pub(crate) pushed: usize,
    pub(crate) states_explored: u64,
    pub(crate) transition_ops: u64,
}

impl ParkedChain {
    /// Ticks the parked stream had consumed when it was parked.
    pub fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// Single-chain counterpart of [`ParkedCoupled::validate`].
    pub(crate) fn validate(&self, p: &HdbnParams, lag: Lag) -> Result<(), ModelError> {
        let what = "parked chain stream";
        validate_cursor(what, self.base, self.pushed, self.window.len(), lag)?;
        let (n_macro, n_pair) = (p.n_macro(), p.tables.n_pair());
        let mut prev_len = None;
        for (i, e) in self.window.iter().enumerate() {
            let what = format!("parked chain window[{i}]");
            e.slice.validate(&what, n_macro, n_pair, e.cands.len())?;
            let m = e.slice.len();
            if let Some(prev_len) = prev_len {
                check(e.back.len() == m, || {
                    format!("{what}: backpointer count != frontier size")
                })?;
                check(e.back.iter().all(|&b| (b as usize) < prev_len), || {
                    format!("{what}: backpointer out of range")
                })?;
            }
            prev_len = Some(m);
        }
        if let Some(frontier) = prev_len {
            validate_frontier("parked chain stream", frontier, &self.v)?;
        }
        Ok(())
    }
}

/// Maps a failed structural invariant to [`ModelError::Persistence`]
/// with a lazily built description — the shared error shape of every
/// family's parked-state validation (including `cace-core`'s NH
/// frontier).
pub fn check(cond: bool, what: impl FnOnce() -> String) -> Result<(), ModelError> {
    if cond {
        Ok(())
    } else {
        Err(ModelError::Persistence { what: what() })
    }
}

/// Decision-cursor invariants shared by every parked decoder family: the
/// window holds exactly ticks `base..pushed`, and finalization can still
/// reach every tick the lag schedule has not committed.
pub fn validate_cursor(
    what: &str,
    base: usize,
    pushed: usize,
    window_len: usize,
    lag: Lag,
) -> Result<(), ModelError> {
    check(base.checked_add(window_len) == Some(pushed), || {
        format!("{what}: window covers {window_len} ticks but cursor says {base}..{pushed}")
    })?;
    check(pushed == 0 || window_len > 0, || {
        format!("{what}: nonempty stream with empty window")
    })?;
    let committed = lag.committed(pushed);
    check(base <= committed, || {
        format!("{what}: window base {base} past the committed prefix {committed}")
    })?;
    Ok(())
}

/// Frontier invariants shared by every parked decoder family: the
/// frontier matches the newest window entry and carries no NaN (the
/// frontier argmax totally orders scores — see
/// [`argmax`](crate::trellis::argmax)).
pub fn validate_frontier(what: &str, frontier: usize, v: &[f64]) -> Result<(), ModelError> {
    check(v.len() == frontier, || {
        format!("{what}: frontier length != newest window entry")
    })?;
    check(v.iter().all(|s| !s.is_nan()), || {
        format!("{what}: NaN frontier score")
    })?;
    Ok(())
}
