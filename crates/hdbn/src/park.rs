//! Parked (checkpointable) state of the online decoders.
//!
//! A serving tier that holds many more homes than fit live in memory needs
//! to *park* an idle stream — serialize its decoder state to bytes — and
//! rehydrate it on the next tick with **bit-identical continuation**: the
//! resumed decoder must emit the same decisions, accumulate the same
//! overhead counters, and finalize to the same path as one that never
//! stopped. A [`ParkedTrellis`] holds exactly what a stream holds (see
//! [`OnlineTrellis`](crate::OnlineTrellis)):
//!
//! * the newest tick's survivors, with their scores and what the next
//!   fold reads of them, and the newest frontier's argmax;
//! * the compacted window entries, the newest included, each the
//!   [`Record`]s a backtrack through its tick can still read — state,
//!   backpointer, decision payload — and the tick's candidate tuples
//!   those records name;
//! * the decision cursor (`base`/`pushed`) and the overhead counters.
//!
//! Decisions already emitted are the caller's: a park holds `O(lag)`
//! state, whatever the stream's age. The model is not parked: the caller
//! re-attaches it at resume, sharing one `Arc<HdbnParams>` across a whole
//! fleet of parked homes.
//!
//! Resume is **panic-free on malformed input**: every index and length in
//! a parked payload is validated against the attached model before any
//! kernel runs — record states strictly ascending, every backpointer of a
//! compacted entry naming a record of the entry before it, and every
//! survivor, the argmax and state 0 naming a record of the newest entry —
//! so a tampered-but-checksummed snapshot surfaces as
//! [`ModelError::Persistence`] instead of an out-of-bounds panic; the
//! router quarantines the home and keeps serving its shard-mates.
//!
//! These types are read only in the layout this build writes ([`wire`],
//! `v6`). Parks of older layouts are rejected by version, never
//! converted.
//!
//! [`wire`]: crate::wire

use cace_model::ModelError;

use crate::input::MicroCandidate;
use crate::online::Lag;
use crate::trellis::{find_record, Compacted, Record, SurvivorSet, Survivors};
use crate::viterbi::JointSurvivors;

/// Decision payload of one coupled joint state: per user its macro
/// activity, and the index of its micro tuple in its entry's items (the
/// named ones of user 1's candidates, then of user 2's).
pub(crate) type JointPick = ([u32; 2], [u32; 2]);
/// Decision payload of one chain state: its macro activity and the index
/// of its micro tuple in its entry's items.
pub(crate) type ChainPick = (u32, u32);

/// The parked state of one online decoder: survivors `S`, compacted
/// entries of payloads `P` over items `I`, cursor and counters. Produced
/// by [`OnlineTrellis::park`](crate::OnlineTrellis::park), consumed by
/// [`OnlineTrellis::resume`](crate::OnlineTrellis::resume) once
/// [`validate`](Self::validate) has passed; the payload is opaque to
/// callers and versioned by the snapshot layer that embeds it.
#[derive(Debug, Clone, Default)]
pub struct ParkedTrellis<S, P, I> {
    /// The newest tick's survivors.
    pub(crate) survivors: S,
    /// `(state, score)` of the newest frontier's last maximum.
    pub(crate) top: (usize, f64),
    /// The compacted entries, oldest first, the newest included.
    pub(crate) compact: Vec<Compacted<P, I>>,
    pub(crate) base: usize,
    pub(crate) pushed: usize,
    pub(crate) states_explored: u64,
    pub(crate) transition_ops: u64,
}

/// Parked [`OnlineCoupledViterbi`](crate::OnlineCoupledViterbi) state: the
/// serialized mid-stream checkpoint of one home's coupled decoder.
pub type ParkedCoupled = ParkedTrellis<JointSurvivors, JointPick, MicroCandidate>;

/// Parked [`OnlineSingleViterbi`](crate::OnlineSingleViterbi) state.
pub type ParkedChain = ParkedTrellis<Survivors, ChainPick, MicroCandidate>;

impl<S: SurvivorSet, P, I> ParkedTrellis<S, P, I> {
    /// Ticks the parked stream had consumed when it was parked.
    pub fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// Full structural validation against the model this checkpoint is
    /// being re-attached to (see the [module docs](self) for why resume
    /// must be panic-free): the cursor, the compacted window (payloads
    /// through `payload_ok`, given their entry's item count), the
    /// survivors through `survivors_ok`, and the records the next step or
    /// a backtrack reads of the newest entry.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] naming the first failed check.
    pub fn validate(
        &self,
        what: &str,
        lag: Lag,
        survivors_ok: impl FnOnce(&S) -> Result<(), ModelError>,
        payload_ok: impl Fn(&P, usize) -> bool,
    ) -> Result<(), ModelError> {
        validate_cursor(what, self.base, self.pushed, self.compact.len(), lag)?;
        validate_compacted(what, &self.compact, payload_ok)?;
        let Some(newest) = self.compact.last() else {
            return check(self.survivors.states().is_empty(), || {
                format!("{what}: survivors without a window entry")
            });
        };
        survivors_ok(&self.survivors)?;
        let (top, score) = self.top;
        check(top < self.survivors.n_states() && !score.is_nan(), || {
            format!("{what}: frontier argmax out of range")
        })?;
        // A fold's backpointers name survivors, or state 0 for a
        // destination nothing reaches; a backtrack starts at the argmax.
        let named = self.survivors.states().iter().copied();
        let mut named = named.chain([0, top as u32]);
        check(
            named.all(|j| find_record(&newest.records, j).is_some()),
            || format!("{what}: a survivor or the argmax names no record"),
        )
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
fn validate_cursor(
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

/// Compacted-window invariants shared by every parked decoder family:
/// each compacted entry holds at least one record, in strictly ascending
/// state order, with payloads `payload_ok` accepts given the entry's item
/// count, and every backpointer of an entry after the first names a
/// record of the entry before it. A backtrack through a window that
/// passes can never miss a record.
fn validate_compacted<P, I>(
    what: &str,
    compact: &[Compacted<P, I>],
    payload_ok: impl Fn(&P, usize) -> bool,
) -> Result<(), ModelError> {
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
            check(
                records.iter().all(|r| find_record(prev, r.back).is_some()),
                || format!("{what}: compacted window[{i}] backpointer names no record"),
            )?;
        }
        prev = Some(records);
    }
    Ok(())
}
