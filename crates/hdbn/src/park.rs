//! Parked (checkpointable) state of the online decoders.
//!
//! A serving tier that holds many more homes than fit live in memory needs
//! to *park* an idle stream — serialize its decoder state to bytes — and
//! rehydrate it on the next tick with **bit-identical continuation**: the
//! resumed decoder must emit the same decisions, accumulate the same
//! overhead counters, and finalize to the same path as one that never
//! stopped. The types here are the parked mirrors of
//! [`OnlineCoupledViterbi`](crate::OnlineCoupledViterbi) and
//! [`OnlineSingleViterbi`](crate::OnlineSingleViterbi), and hold exactly
//! what a stream holds (see [`OnlineTrellis`](crate::OnlineTrellis)):
//!
//! * the compacted window entries, each the [`Record`]s a backtrack through
//!   its tick can still read — state, backpointer, decision payload;
//! * the newest entry whole (its slices, candidate tuples and backpointer
//!   row — per slot pair in the coupled family), which the next step reads;
//! * the frontier: a dense score per state for the chain families; for
//!   the coupled family its slot-factored `w`, one score per slot pair of
//!   the newest entry, whose slices rebuild the rest;
//! * the decision cursor (`base`/`pushed`) and the overhead counters.
//!
//! Decisions already emitted are the caller's: a park holds `O(lag)`
//! state, whatever the stream's age.
//!
//! What is *not* parked is exactly the state that does not affect output:
//! the dominance survivors (recomputed from the frontier by the next step)
//! and the model itself (the caller re-attaches it at
//! resume, sharing one `Arc<HdbnParams>` across a whole fleet of parked
//! homes).
//!
//! Resume is **panic-free on malformed input**: every index and length in
//! a parked payload is validated against the attached model before any
//! kernel runs — record states strictly ascending, every backpointer of a
//! compacted entry naming a record of the entry before it, and every
//! backpointer of the newest entry naming a record of the last compacted
//! one — so a tampered-but-checksummed snapshot surfaces as
//! [`ModelError::Persistence`] instead of an out-of-bounds panic; the
//! router quarantines the home and keeps serving its shard-mates.
//!
//! These types are read only in the layout this build writes ([`wire`],
//! `v5`). Parks of older layouts, which held every window entry whole,
//! are rejected by version, never converted.
//!
//! [`wire`]: crate::wire

use cace_model::ModelError;

use crate::arena::Slice;
use crate::input::MicroCandidate;
use crate::online::Lag;
use crate::params::HdbnParams;
use crate::trellis::{find_record, Compacted, Record};

/// Decision payload of one coupled joint state: per user its macro
/// activity, and the index of its micro tuple in its entry's items (user
/// 1's candidates, then user 2's).
pub(crate) type JointPick = ([u32; 2], [u32; 2]);
/// Decision payload of one chain state: its macro activity and the index
/// of its micro tuple in its entry's items.
pub(crate) type ChainPick = (u32, u32);

/// Parked form of one chain's per-tick trellis slice (everything the step
/// kernels read; the pair→slot lookup is per-fill scratch and rebuilt).
#[derive(Debug, Clone, Default)]
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
    /// nonzero and columns of one length, candidate indices inside the
    /// retained tuple list, activity and pair ids inside the model's dense
    /// tables, slot indices inside the distinct pairs, activity runs a
    /// partition-shaped cover of the state list, and emissions free of NaN
    /// (the frontier argmax totally orders scores).
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
        check(self.cands.iter().all(|&c| c < n_cands), || {
            format!("{what}: candidate index out of range")
        })?;
        check(self.activities.iter().all(|&a| a < n_macro), || {
            format!("{what}: activity id out of range")
        })?;
        check(self.pairs.iter().all(|&p| (p as usize) < n_pair), || {
            format!("{what}: pair id out of range")
        })?;
        check(
            self.uniq_pairs.iter().all(|&p| (p as usize) < n_pair),
            || format!("{what}: distinct pair id out of range"),
        )?;
        // Each slot is some state's pair, so a slice has at most as many
        // slots as states (which also bounds a slot-pair row by a joint
        // frontier).
        check(self.uniq_pairs.len() <= m, || {
            format!("{what}: more distinct pairs than states")
        })?;
        let n_slots = self.uniq_pairs.len() as u32;
        check(self.slots.iter().all(|&s| s < n_slots), || {
            format!("{what}: slot index out of range")
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
        check(self.emissions.iter().all(|e| !e.is_nan()), || {
            format!("{what}: NaN emission score")
        })
    }
}

/// Parked form of the newest tick of the coupled window: its two slices,
/// its backpointer row and its candidate tuples. The row holds one
/// backpointer per destination slot pair (`slot₁ * d2 + slot₂`).
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
pub struct ParkedCoupled {
    /// The frontier's pass-2 fold, one score per slot pair of the newest
    /// entry.
    pub(crate) w: Vec<f64>,
    /// The compacted entries, oldest first.
    pub(crate) compact: Vec<Compacted<JointPick, MicroCandidate>>,
    /// The newest entry; `None` before the first push.
    pub(crate) newest: Option<ParkedJointEntry>,
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
    /// must be panic-free). The frontier's scores are checked for NaN
    /// once resume has rebuilt it.
    pub(crate) fn validate(&self, p: &HdbnParams, lag: Lag) -> Result<(), ModelError> {
        let what = "parked coupled stream";
        let window = self.compact.len() + usize::from(self.newest.is_some());
        validate_cursor(what, self.base, self.pushed, window, lag)?;
        let (n_macro, n_pair) = (p.n_macro(), p.tables.n_pair());
        let newest_back = self.newest.as_ref().map(|e| &e.back[..]);
        validate_compacted(
            what,
            &self.compact,
            newest_back,
            |(macros, items), n_items| {
                macros.iter().all(|&a| (a as usize) < n_macro)
                    && items.iter().all(|&i| (i as usize) < n_items)
            },
        )?;
        let Some(e) = &self.newest else {
            return check(self.w.is_empty(), || {
                format!("{what}: a frontier without a window entry")
            });
        };
        e.s1.validate(what, n_macro, n_pair, e.cands[0].len())?;
        e.s2.validate(what, n_macro, n_pair, e.cands[1].len())?;
        let slot_pairs = e.s1.uniq_pairs.len() * e.s2.uniq_pairs.len();
        check(
            e.back.len() == slot_pairs || (e.back.is_empty() && self.compact.is_empty()),
            || format!("{what}: backpointer count != slot pairs of the newest entry"),
        )?;
        check(self.w.len() == slot_pairs, || {
            format!("{what}: frontier length != newest window entry")
        })
    }
}

/// Parked form of the newest tick of a single-chain window: its slice,
/// its backpointer row (one per state) and its candidate tuples.
#[derive(Debug, Clone, Default)]
pub(crate) struct ParkedChainEntry {
    pub(crate) slice: ParkedSlice,
    pub(crate) back: Vec<u32>,
    pub(crate) cands: Vec<MicroCandidate>,
}

/// Parked [`OnlineSingleViterbi`](crate::OnlineSingleViterbi) state — the
/// single-chain counterpart of [`ParkedCoupled`], with a dense frontier.
#[derive(Debug, Clone, Default)]
pub struct ParkedChain {
    pub(crate) v: Vec<f64>,
    pub(crate) compact: Vec<Compacted<ChainPick, MicroCandidate>>,
    pub(crate) newest: Option<ParkedChainEntry>,
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
        let window = self.compact.len() + usize::from(self.newest.is_some());
        validate_cursor(what, self.base, self.pushed, window, lag)?;
        let (n_macro, n_pair) = (p.n_macro(), p.tables.n_pair());
        let newest_back = self.newest.as_ref().map(|e| &e.back[..]);
        validate_compacted(what, &self.compact, newest_back, |&(a, i), n_items| {
            (a as usize) < n_macro && (i as usize) < n_items
        })?;
        let Some(e) = &self.newest else {
            return check(self.v.is_empty(), || {
                format!("{what}: a frontier without a window entry")
            });
        };
        e.slice.validate(what, n_macro, n_pair, e.cands.len())?;
        let m = e.slice.len();
        check(
            e.back.len() == m || (e.back.is_empty() && self.compact.is_empty()),
            || format!("{what}: backpointer count != states of the newest entry"),
        )?;
        validate_frontier(what, m, &self.v)
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

/// Compacted-window invariants shared by every parked decoder family:
/// each compacted entry holds at least one record, in strictly ascending
/// state order, with payloads `payload_ok` accepts given the entry's item
/// count; every backpointer of
/// an entry after the first names a record of the entry before it; and
/// every backpointer of the newest entry (`newest_back`, `None` when there
/// is no newest entry) names a record of the last compacted entry. A
/// backtrack through a window that passes can never miss a record.
pub fn validate_compacted<P, I>(
    what: &str,
    compact: &[Compacted<P, I>],
    newest_back: Option<&[u32]>,
    payload_ok: impl Fn(&P, usize) -> bool,
) -> Result<(), ModelError> {
    check(compact.is_empty() || newest_back.is_some(), || {
        format!("{what}: compacted entries without a newest entry")
    })?;
    fn names_records<P>(mut back: impl Iterator<Item = u32>, prev: &[Record<P>]) -> bool {
        back.all(|b| find_record(prev, b).is_some())
    }
    let mut prev: Option<&[Record<P>]> = None;
    for (i, entry) in compact.iter().enumerate() {
        let records = &entry.records;
        check(!records.is_empty(), || {
            format!("{what}: compacted window[{i}] holds no record")
        })?;
        check(records.windows(2).all(|r| r[0].state < r[1].state), || {
            format!("{what}: compacted window[{i}] record states not strictly ascending")
        })?;
        check(
            records
                .iter()
                .all(|r| payload_ok(&r.payload, entry.items.len())),
            || format!("{what}: compacted window[{i}] decision out of range"),
        )?;
        if let Some(prev) = prev {
            check(names_records(records.iter().map(|r| r.back), prev), || {
                format!("{what}: compacted window[{i}] backpointer names no record")
            })?;
        }
        prev = Some(records);
    }
    if let (Some(prev), Some(back)) = (prev, newest_back) {
        check(names_records(back.iter().copied(), prev), || {
            format!("{what}: newest backpointer names no record")
        })?;
    }
    Ok(())
}
