//! Reader for the `v3` and `v4` parked-decoder layouts, which nothing
//! writes any more. Both park every window entry whole: a slice per chain,
//! one backpointer per state, the candidate tuples, and the frontier
//! materialized. A stream resumed from one holds its frontier as the
//! trivial factorization until the next push, and each older entry
//! compacted to the states its successor's backpointers name — every
//! state a backtrack can reach, and no more than the park's bytes can
//! name ([`WholeCoupled::compact`], [`WholeChain::compact`]).
//!
//! A `v3` decoder also carries five slots of mechanisms this build no
//! longer has: `v32` (the `f32` lane's frontier), `pruned` and `keep`
//! (the lossy beams' state) and `emitted_macros`/`emitted_micros` (the
//! decision history). This module is the only code that names them. It
//! reads the binary layouts ([`read_coupled`], [`read_chain`] for `v3`,
//! [`read_coupled_v4`], [`read_chain_v4`] for `v4`) and checks the JSON
//! one ([`check_json_slots`]; the whole-entry types' `Deserialize` reads
//! the rest, ignoring unknown fields). A slot this build cannot honour is
//! rejected with [`ModelError::Persistence`], never dropped: a non-empty
//! `v32` (resuming the empty `f64` frontier instead would change
//! decisions), `pruned == true` or a non-empty `keep` (the frontier lacks
//! states an exact decode needs), or a history neither empty nor as long
//! as the lag schedule implies for the parked cursor. A history on
//! schedule is dropped unread: emitted decisions are the caller's.
//!
//! The readers check every shape the compaction reads ([`WholeCoupled::check`],
//! [`WholeChain::check`]); what needs the model is checked at resume, on
//! the compacted form.

use cace_model::ModelError;
use serde::Deserialize;

use super::{
    check, ChainPick, JointPick, ParkedChain, ParkedChainEntry, ParkedCoupled, ParkedJointEntry,
    ParkedSlice,
};
use crate::online::Lag;
use crate::trellis::{Compacted, Record};
use crate::wire::{
    decode_err, read_cand, read_chain_entry, read_joint_entry, ByteReader, CAND_MIN_BYTES,
    CHAIN_ENTRY_MIN_BYTES, JOINT_ENTRY_MIN_BYTES,
};

/// Message of every rejection of a snapshot taken in the retired `f32`
/// decoding lane.
pub const RETIRED_LANE: &str =
    "snapshot was decoded in the removed f32 scoring lane; only exact (f64) snapshots resume";

/// Message of every rejection of a snapshot that records one of the
/// removed lossy decoder beams.
pub const RETIRED_BEAMS: &str =
    "snapshot records a removed lossy decoder beam (TopK or LogThreshold); only exact \
     snapshots resume, because a frontier pruned by such a beam cannot continue exactly";

/// A coupled decoder as a `v3` or `v4` park holds it: the frontier
/// materialized, one score per joint state of the newest entry, and every
/// window entry whole, with one backpointer per joint state.
#[derive(Debug, Clone, Default, Deserialize)]
#[cfg_attr(test, derive(serde::Serialize))]
pub struct WholeCoupled {
    pub(crate) v: Vec<f64>,
    pub(crate) window: Vec<ParkedJointEntry>,
    pub(crate) base: usize,
    pub(crate) pushed: usize,
    pub(crate) states_explored: u64,
    pub(crate) transition_ops: u64,
}

/// The states of a tick that the next entry's backpointer row names,
/// ascending: the records its compacted form keeps.
pub fn named(next_back: &[u32]) -> Vec<u32> {
    let mut states = next_back.to_vec();
    states.sort_unstable();
    states.dedup();
    states
}

/// Checks the backpointer rows of a whole window, given each entry's
/// state count: a row is empty or one per state, every row after the
/// first is one per state, and each names a state of the entry before it.
///
/// # Errors
/// [`ModelError::Persistence`] on the first row that breaks a rule.
pub fn check_rows<'a>(
    what: &str,
    entries: impl Iterator<Item = (usize, &'a [u32])>,
) -> Result<(), ModelError> {
    let mut prev_len = None;
    for (i, (len, back)) in entries.enumerate() {
        check(
            back.len() == len || (back.is_empty() && prev_len.is_none()),
            || format!("{what}: window[{i}] backpointer count != frontier size"),
        )?;
        if let Some(prev_len) = prev_len {
            check(back.iter().all(|&b| (b as usize) < prev_len), || {
                format!("{what}: window[{i}] backpointer out of range")
            })?;
        }
        prev_len = Some(len);
    }
    Ok(())
}

/// Folds a whole entry's per-state backpointer row over `s1 × s2` to one
/// per slot pair; an empty row stays empty.
///
/// # Errors
/// [`ModelError::Persistence`] when two states of one slot pair disagree —
/// no step writes such a row.
fn fold_back(
    what: &str,
    back: &[u32],
    s1: &ParkedSlice,
    s2: &ParkedSlice,
) -> Result<Vec<u32>, ModelError> {
    if back.is_empty() {
        return Ok(Vec::new());
    }
    let d2 = s2.uniq_pairs.len();
    let mut row = vec![0; s1.uniq_pairs.len() * d2];
    let rows = || back.chunks_exact(s2.len()).zip(&s1.slots);
    for (states, &sl1) in rows() {
        let out = &mut row[sl1 as usize * d2..][..d2];
        for (&b, &sl2) in states.iter().zip(&s2.slots) {
            out[sl2 as usize] = b;
        }
    }
    let agree = rows().all(|(states, &sl1)| {
        let folded = &row[sl1 as usize * d2..][..d2];
        (states.iter().zip(&s2.slots)).all(|(&b, &sl2)| folded[sl2 as usize] == b)
    });
    check(agree, || {
        format!("{what}: backpointers differ within a slot pair")
    })?;
    Ok(row)
}

impl WholeCoupled {
    /// Checks every shape [`compact`](Self::compact) reads: slice columns,
    /// candidate and slot indices, backpointer rows (the newest one
    /// uniform within each slot pair), and a frontier over the newest
    /// entry's joint states.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on the first shape that does not hold.
    pub fn check(&self) -> Result<(), ModelError> {
        let what = "parked coupled stream";
        for (i, e) in self.window.iter().enumerate() {
            let what = format!("{what} window[{i}]");
            e.s1.check_shape(&what, e.cands[0].len())?;
            e.s2.check_shape(&what, e.cands[1].len())?;
        }
        let rows = self
            .window
            .iter()
            .map(|e| (e.s1.len() * e.s2.len(), &e.back[..]));
        check_rows(what, rows)?;
        if let Some(e) = self.window.last() {
            fold_back(what, &e.back, &e.s1, &e.s2)?;
            check(self.v.len() == e.s1.len() * e.s2.len(), || {
                format!("{what}: frontier length != newest window entry")
            })?;
        }
        Ok(())
    }

    /// The compacted form a stream resumes from: every entry but the
    /// newest shrunk to the states the next entry's backpointers name, the
    /// newest entry's row folded per slot pair, and the frontier dense.
    /// Requires [`check`](Self::check) to have passed.
    pub fn compact(&self) -> ParkedCoupled {
        let pick = |e: &ParkedJointEntry, flat: usize| -> JointPick {
            let m2 = e.s2.len();
            let (j1, j2) = (flat / m2, flat % m2);
            (
                [e.s1.activities[j1] as u32, e.s2.activities[j2] as u32],
                [
                    e.s1.cands[j1] as u32,
                    (e.cands[0].len() + e.s2.cands[j2]) as u32,
                ],
            )
        };
        let compact = self
            .window
            .windows(2)
            .map(|pair| {
                let (e, next) = (&pair[0], &pair[1]);
                let record = |j: u32| Record {
                    state: j,
                    back: e.back.get(j as usize).copied().unwrap_or(0),
                    payload: pick(e, j as usize),
                };
                Compacted {
                    items: e.cands[0].iter().chain(&e.cands[1]).copied().collect(),
                    records: named(&next.back).into_iter().map(record).collect(),
                }
            })
            .collect();
        let newest = self.window.last().map(|e| ParkedJointEntry {
            back: fold_back("parked coupled stream", &e.back, &e.s1, &e.s2)
                .expect("a checked whole park folds its newest row"),
            ..e.clone()
        });
        ParkedCoupled {
            w: if newest.is_some() {
                self.v.clone()
            } else {
                Vec::new()
            },
            dense: newest.is_some(),
            compact,
            newest,
            base: self.base,
            pushed: self.pushed,
            states_explored: self.states_explored,
            transition_ops: self.transition_ops,
        }
    }
}

/// A single-chain decoder as a `v3` or `v4` park holds it (see
/// [`WholeCoupled`]).
#[derive(Debug, Clone, Default, Deserialize)]
pub struct WholeChain {
    pub(crate) v: Vec<f64>,
    pub(crate) window: Vec<ParkedChainEntry>,
    pub(crate) base: usize,
    pub(crate) pushed: usize,
    pub(crate) states_explored: u64,
    pub(crate) transition_ops: u64,
}

impl WholeChain {
    /// Single-chain counterpart of [`WholeCoupled::check`].
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on the first shape that does not hold.
    pub fn check(&self) -> Result<(), ModelError> {
        let what = "parked chain stream";
        for (i, e) in self.window.iter().enumerate() {
            e.slice
                .check_shape(&format!("{what} window[{i}]"), e.cands.len())?;
        }
        check_rows(
            what,
            self.window.iter().map(|e| (e.slice.len(), &e.back[..])),
        )?;
        if let Some(e) = self.window.last() {
            check(self.v.len() == e.slice.len(), || {
                format!("{what}: frontier length != newest window entry")
            })?;
        }
        Ok(())
    }

    /// Single-chain counterpart of [`WholeCoupled::compact`] (the newest
    /// row stays per state). Requires [`check`](Self::check) to have
    /// passed.
    pub fn compact(&self) -> ParkedChain {
        let compact = self
            .window
            .windows(2)
            .map(|pair| {
                let (e, next) = (&pair[0], &pair[1]);
                let record = |j: u32| {
                    let j = j as usize;
                    let payload: ChainPick =
                        (e.slice.activities[j] as u32, e.slice.cands[j] as u32);
                    Record {
                        state: j as u32,
                        back: e.back.get(j).copied().unwrap_or(0),
                        payload,
                    }
                };
                Compacted {
                    items: e.cands.clone(),
                    records: named(&next.back).into_iter().map(record).collect(),
                }
            })
            .collect();
        let newest = self.window.last().cloned();
        ParkedChain {
            v: if newest.is_some() {
                self.v.clone()
            } else {
                Vec::new()
            },
            compact,
            newest,
            base: self.base,
            pushed: self.pushed,
            states_explored: self.states_explored,
            transition_ops: self.transition_ops,
        }
    }
}

/// Checks that every history holds no decisions or exactly the ones a
/// stream under `lag` emits in `pushed` ticks.
///
/// # Errors
/// [`ModelError::Persistence`] for a history out of step with the lag
/// schedule.
pub fn check_history(
    lens: &[usize],
    what: &str,
    pushed: usize,
    lag: Lag,
) -> Result<(), ModelError> {
    let expected = lag.committed(pushed);
    check(lens.iter().all(|&n| n == 0 || n == expected), || {
        format!("{what}: history out of step with the lag schedule ({expected} decisions)")
    })
}

/// Reads the binary `v32` slot, accepting only an empty sequence.
///
/// # Errors
/// [`ModelError::Persistence`] on truncation or a non-empty `f32`
/// frontier.
pub fn read_v32(r: &mut ByteReader<'_>) -> Result<(), ModelError> {
    check(r.read_usize()? == 0, || RETIRED_LANE.to_string())
}

/// Reads the binary `pruned` and `keep` slots, accepting only `false` and
/// an empty sequence.
///
/// # Errors
/// [`ModelError::Persistence`] on truncation, a non-bool byte, or either
/// slot recording a removed lossy beam.
pub fn read_beam_slots(r: &mut ByteReader<'_>) -> Result<(), ModelError> {
    check(!r.read_bool()?, || RETIRED_BEAMS.to_string())?;
    check(r.read_usize()? == 0, || RETIRED_BEAMS.to_string())
}

/// Reads the two decoder-config tags of the binary `v3` stream envelope:
/// the beam tag (`0` exact; `1` `TopK` and `2` `LogThreshold`, removed)
/// and the precision tag (`0` exact `f64`; `1` the removed `f32` lane).
///
/// # Errors
/// [`ModelError::Persistence`] on truncation, an unknown tag, or a tag of
/// a removed beam or lane.
pub fn read_decoder_tags(r: &mut ByteReader<'_>) -> Result<(), ModelError> {
    match r.read_u8()? {
        0 => {}
        1 | 2 => return Err(decode_err(RETIRED_BEAMS)),
        t => return Err(decode_err(format!("unknown beam tag {t}"))),
    }
    match r.read_u8()? {
        0 => Ok(()),
        1 => Err(decode_err(RETIRED_LANE)),
        t => Err(decode_err(format!("unknown precision tag {t}"))),
    }
}

/// Checks the retired slots of one `v3` JSON parked decoder, `value`:
/// `v32`, `pruned` and `keep`, and the named `histories` (each a pair of
/// sequences when `paired`, one per user, as in the coupled decoder)
/// against the lag schedule at the decoder's own `pushed`.
///
/// # Errors
/// [`ModelError::Persistence`] on a missing or mistyped slot, or a slot
/// whose content this build cannot honour.
pub fn check_json_slots(
    value: &serde::Value,
    what: &str,
    histories: &[&str],
    paired: bool,
    lag: Lag,
) -> Result<(), ModelError> {
    let json_err = |e: serde::Error| decode_err(format!("{what}: {e}"));
    let slot = |name: &str| value.expect_field(name, what).map_err(json_err);
    let seq_len = |v: &serde::Value| v.as_seq().map(<[_]>::len).map_err(json_err);
    check(seq_len(slot("v32")?)? == 0, || RETIRED_LANE.to_string())?;
    check(!slot("pruned")?.as_bool().map_err(json_err)?, || {
        RETIRED_BEAMS.to_string()
    })?;
    check(seq_len(slot("keep")?)? == 0, || RETIRED_BEAMS.to_string())?;
    let mut lens = Vec::new();
    for &name in histories {
        let history = slot(name)?;
        if paired {
            for user in history.expect_elements(2, what).map_err(json_err)? {
                lens.push(seq_len(user)?);
            }
        } else {
            lens.push(seq_len(history)?);
        }
    }
    let pushed = usize::deserialize(slot("pushed")?).map_err(json_err)?;
    check_history(&lens, what, pushed, lag)
}

/// Reads a binary `v3` parked coupled decoder of a stream under `lag`.
///
/// # Errors
/// [`ModelError::Persistence`] on malformed bytes or a retired slot this
/// build cannot honour.
pub fn read_coupled(r: &mut ByteReader<'_>, lag: Lag) -> Result<WholeCoupled, ModelError> {
    let v = r.read_seq(8, ByteReader::read_f64)?;
    read_v32(r)?;
    let window = r.read_seq(JOINT_ENTRY_MIN_BYTES, read_joint_entry)?;
    let (base, pushed) = (r.read_usize()?, r.read_usize()?);
    let histories = [
        r.read_seq(1, ByteReader::read_usize)?.len(),
        r.read_seq(1, ByteReader::read_usize)?.len(),
        r.read_seq(CAND_MIN_BYTES, read_cand)?.len(),
        r.read_seq(CAND_MIN_BYTES, read_cand)?.len(),
    ];
    let (states_explored, transition_ops) = (r.read_u64()?, r.read_u64()?);
    read_beam_slots(r)?;
    check_history(&histories, "parked coupled stream", pushed, lag)?;
    let whole = WholeCoupled {
        v,
        window,
        base,
        pushed,
        states_explored,
        transition_ops,
    };
    whole.check()?;
    Ok(whole)
}

/// Reads a binary `v3` parked chain decoder of a stream under `lag`.
///
/// # Errors
/// [`ModelError::Persistence`] on malformed bytes or a retired slot this
/// build cannot honour.
pub fn read_chain(r: &mut ByteReader<'_>, lag: Lag) -> Result<WholeChain, ModelError> {
    let v = r.read_seq(8, ByteReader::read_f64)?;
    read_v32(r)?;
    let window = r.read_seq(CHAIN_ENTRY_MIN_BYTES, read_chain_entry)?;
    let (base, pushed) = (r.read_usize()?, r.read_usize()?);
    let histories = [
        r.read_seq(1, ByteReader::read_usize)?.len(),
        r.read_seq(CAND_MIN_BYTES, read_cand)?.len(),
    ];
    let (states_explored, transition_ops) = (r.read_u64()?, r.read_u64()?);
    read_beam_slots(r)?;
    check_history(&histories, "parked chain stream", pushed, lag)?;
    let whole = WholeChain {
        v,
        window,
        base,
        pushed,
        states_explored,
        transition_ops,
    };
    whole.check()?;
    Ok(whole)
}

/// Reads a binary `v4` parked coupled decoder: the `v3` layout without
/// the retired slots.
///
/// # Errors
/// [`ModelError::Persistence`] on malformed bytes or a shape
/// [`WholeCoupled::check`] rejects.
pub fn read_coupled_v4(r: &mut ByteReader<'_>) -> Result<WholeCoupled, ModelError> {
    let whole = WholeCoupled {
        v: r.read_seq(8, ByteReader::read_f64)?,
        window: r.read_seq(JOINT_ENTRY_MIN_BYTES, read_joint_entry)?,
        base: r.read_usize()?,
        pushed: r.read_usize()?,
        states_explored: r.read_u64()?,
        transition_ops: r.read_u64()?,
    };
    whole.check()?;
    Ok(whole)
}

/// Reads a binary `v4` parked chain decoder.
///
/// # Errors
/// [`ModelError::Persistence`] on malformed bytes or a shape
/// [`WholeChain::check`] rejects.
pub fn read_chain_v4(r: &mut ByteReader<'_>) -> Result<WholeChain, ModelError> {
    let whole = WholeChain {
        v: r.read_seq(8, ByteReader::read_f64)?,
        window: r.read_seq(CHAIN_ENTRY_MIN_BYTES, read_chain_entry)?,
        base: r.read_usize()?,
        pushed: r.read_usize()?,
        states_explored: r.read_u64()?,
        transition_ops: r.read_u64()?,
    };
    whole.check()?;
    Ok(whole)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{fill_slice, Slice};
    use crate::input::{MicroCandidate, TickInput};
    use crate::online::tests::{glitchy_ticks, toy_params};
    use crate::params::HdbnParams;
    use crate::viterbi::{
        expand_back, joint_init_into, joint_step_charge, joint_step_exact_into, JointFrontier,
    };
    use crate::wire::{write_joint_entry, ByteWriter};
    use crate::{CoupledHdbn, OnlineCoupledViterbi, TrellisArena};
    use serde::Deserialize;

    /// What a `v4` build parked for the coupled stream of `ticks` under
    /// `lag`: every retained window entry whole, one backpointer per joint
    /// state, the frontier materialized — the old window schedule, run on
    /// the step kernels directly.
    fn whole_park(p: &HdbnParams, ticks: &[TickInput], lag: Lag) -> WholeCoupled {
        let mut arena = TrellisArena::new();
        let mut window: Vec<(Slice, Slice, Vec<u32>, [Vec<MicroCandidate>; 2])> = Vec::new();
        let (mut v, mut next) = (JointFrontier::default(), JointFrontier::default());
        let (mut base, mut states_explored, mut transition_ops) = (0, 0u64, 0u64);
        for (t, tick) in ticks.iter().enumerate() {
            let (mut s1, mut s2) = (Slice::default(), Slice::default());
            fill_slice(p, tick, 0, &mut arena.step.macro_ids, &mut s1);
            fill_slice(p, tick, 1, &mut arena.step.macro_ids, &mut s2);
            states_explored += (s1.len() * s2.len()) as u64;
            let mut back = Vec::new();
            match window.last() {
                None => joint_init_into(p, &s1, &s2, &mut v),
                Some((p1, p2, _, _)) => {
                    joint_step_exact_into(
                        p, p1, p2, &v, &s1, &s2, &mut arena, &mut next, &mut back,
                    );
                    transition_ops += joint_step_charge(p1, p2, &s1, &s2);
                    std::mem::swap(&mut v, &mut next);
                }
            }
            let back = expand_back(&back, &s1, &s2);
            window.push((s1, s2, back, tick.candidates.clone()));
            if let Lag::Fixed(l) = lag {
                if t >= l {
                    let ripe = (t - l + 1 - base).min(window.len() - 1);
                    window.drain(..ripe);
                    base += ripe;
                }
            }
        }
        let window = window
            .into_iter()
            .map(|(s1, s2, back, cands)| ParkedJointEntry {
                s1: ParkedSlice::from_slice(&s1),
                s2: ParkedSlice::from_slice(&s2),
                back,
                cands,
            })
            .collect();
        WholeCoupled {
            v: v.to_dense(),
            window,
            base,
            pushed: ticks.len(),
            states_explored,
            transition_ops,
        }
    }

    /// The `v4` bytes of a whole park.
    fn v4_bytes(whole: &WholeCoupled) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_seq(&whole.v, |w, &x| w.write_f64(x));
        w.write_seq(&whole.window, write_joint_entry);
        w.write_usize(whole.base);
        w.write_usize(whole.pushed);
        w.write_u64(whole.states_explored);
        w.write_u64(whole.transition_ops);
        w.into_bytes()
    }

    #[test]
    fn whole_parks_resume_bit_identically_at_every_tick() {
        let ticks = glitchy_ticks();
        let params = toy_params(true);
        let model = CoupledHdbn::new(params.clone());
        for lag in [Lag::Unbounded, Lag::Fixed(0), Lag::Fixed(4)] {
            let mut unbroken = OnlineCoupledViterbi::new(model.clone(), lag);
            let mut straight = Vec::new();
            for tick in &ticks {
                straight.extend(unbroken.push(tick).unwrap());
            }
            let expected = unbroken.finalize().unwrap();
            for park_at in 0..=ticks.len() {
                let label = format!("{lag:?} park@{park_at}");
                let bytes = v4_bytes(&whole_park(&params, &ticks[..park_at], lag));
                let mut r = ByteReader::new(&bytes);
                let whole = read_coupled_v4(&mut r).expect("a v4 park reads");
                r.expect_end().unwrap();
                let parked = whole.compact();
                assert_eq!(parked.dense, park_at > 0, "{label}");
                let mut online = OnlineCoupledViterbi::resume(model.clone(), lag, &parked)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let mut decisions = straight[..lag.committed(park_at)].to_vec();
                for tick in &ticks[park_at..] {
                    decisions.extend(online.push(tick).unwrap());
                }
                assert_eq!(decisions, straight, "{label}");
                assert_eq!(online.finalize().unwrap(), expected, "{label}");
            }
        }
    }

    #[test]
    fn a_newest_row_split_inside_a_slot_pair_is_rejected() {
        // Candidates 0 and 1 share postural 0, so each of their slots holds
        // two states and each slot pair several joint states.
        let tick = |strength: f64| {
            let cands: Vec<MicroCandidate> = (0..3)
                .map(|c| MicroCandidate {
                    postural: c / 2,
                    gestural: Some(0),
                    location: c % 2,
                    obs_loglik: -strength * c as f64,
                })
                .collect();
            TickInput {
                candidates: [cands.clone(), cands],
                macro_candidates: [None, None],
                macro_bonus: Vec::new(),
            }
        };
        let ticks: Vec<TickInput> = (0..6).map(|t| tick(0.5 + t as f64)).collect();
        let whole = whole_park(&toy_params(true), &ticks, Lag::Fixed(2));
        let read = |w: &WholeCoupled| read_coupled_v4(&mut ByteReader::new(&v4_bytes(w)));
        assert!(read(&whole).is_ok());

        // Joint states 0 and 1 are (j1 0, j2 0) and (j1 0, j2 1): one slot
        // pair, so one backpointer.
        let mut bad = whole.clone();
        let back = &mut bad.window.last_mut().unwrap().back;
        assert_eq!(back[0], back[1]);
        back[1] = u32::from(back[0] == 0);
        assert!(matches!(read(&bad), Err(ModelError::Persistence { .. })));

        let mut bad = whole.clone();
        bad.window[0].back.push(0); // neither empty nor one per state
        assert!(matches!(read(&bad), Err(ModelError::Persistence { .. })));

        let mut bad = whole.clone();
        bad.window[1].back[0] = u32::MAX; // names no state of window[0]
        assert!(matches!(read(&bad), Err(ModelError::Persistence { .. })));
    }

    #[test]
    fn retired_beam_slots_read_only_the_exact_values() {
        // Beam tag 0 is exact; tags 1 (TopK, then a varint) and 2
        // (LogThreshold, then an f64) are rejected by name.
        read_decoder_tags(&mut ByteReader::new(&[0, 0])).unwrap();
        for bytes in [&[1u8, 56, 0][..], &[2, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 0]] {
            let err = read_decoder_tags(&mut ByteReader::new(bytes)).unwrap_err();
            assert!(err.to_string().contains("TopK or LogThreshold"), "{err}");
        }
        assert!(read_decoder_tags(&mut ByteReader::new(&[7, 0])).is_err());
        assert!(read_decoder_tags(&mut ByteReader::new(&[0, 7])).is_err());
        // The `pruned`/`keep` slots read `false` and `[]`, and nothing else.
        let mut r = ByteReader::new(&[0, 0]);
        read_beam_slots(&mut r).unwrap();
        r.expect_end().unwrap();
        for bytes in [&[1u8, 0][..], &[0, 1, 3]] {
            let err = read_beam_slots(&mut ByteReader::new(bytes)).unwrap_err();
            assert!(err.to_string().contains("TopK or LogThreshold"), "{err}");
        }
    }

    #[test]
    fn retired_f32_lane_slots_read_only_empty() {
        // Precision tag 1 was the f32 lane: rejected, never decoded as exact.
        let err = read_decoder_tags(&mut ByteReader::new(&[0, 1])).unwrap_err();
        assert!(err.to_string().contains("f32"), "{err}");
        // The f32-frontier slot is an empty sequence, and only that reads.
        let mut r = ByteReader::new(&[0]);
        read_v32(&mut r).unwrap();
        r.expect_end().unwrap();
        let one_score = [1, 0, 0, 0x80, 0x3f];
        let err = read_v32(&mut ByteReader::new(&one_score)).unwrap_err();
        assert!(err.to_string().contains("f32"), "{err}");
    }

    #[test]
    fn histories_off_the_lag_schedule_are_rejected() {
        let lag = Lag::Fixed(2);
        let model = CoupledHdbn::new(toy_params(true));
        let parked = whole_park(&toy_params(true), &glitchy_ticks()[..8], lag);
        // The v3 JSON of this park, with the given decision-history slots:
        // 8 ticks at lag 2 emitted 6 decisions per chain.
        let json = |macros: &str, micros: &str| {
            format!(
                r#"{{"v":{},"v32":[],"window":{},"base":{},"pushed":{},{macros},{micros},"states_explored":{},"transition_ops":{},"pruned":false,"keep":[]}}"#,
                serde::json::to_string(&parked.v),
                serde::json::to_string(&parked.window),
                parked.base,
                parked.pushed,
                parked.states_explored,
                parked.transition_ops,
            )
        };
        let read = |macros: &str, micros: &str| {
            let value = serde::json::value_from_str(&json(macros, micros)).unwrap();
            let histories = ["emitted_macros", "emitted_micros"];
            check_json_slots(&value, "parked coupled stream", &histories, true, lag)?;
            let parked = WholeCoupled::deserialize(&value).expect("old layout reads");
            parked.check()?;
            OnlineCoupledViterbi::resume(model.clone(), lag, &parked.compact())
        };
        let ids = |n: usize, id: &str| format!("[{}]", vec![id; n].join(","));
        let cands = |n: usize, location: &str| {
            let cand = format!(
                r#"{{"postural":0,"gestural":null,"location":{location},"obs_loglik":0.0}}"#
            );
            ids(n, &cand)
        };
        let history = |n: usize| {
            read(
                &format!(r#""emitted_macros":[{},{}]"#, ids(n, "0"), ids(n, "1")),
                &format!(r#""emitted_micros":[{},{}]"#, cands(n, "0"), cands(n, "0")),
            )
        };
        // Empty slots, and a history on schedule, are accepted and dropped.
        assert!(read(r#""emitted_macros":[[],[]]"#, r#""emitted_micros":[[],[]]"#).is_ok());
        assert!(history(6).is_ok());
        // A history out of step with the emit schedule is rejected.
        for n in [5, 7] {
            match history(n) {
                Err(ModelError::Persistence { what }) => {
                    assert!(what.contains("out of step with the lag schedule"), "{what}")
                }
                _ => panic!("{n} decisions: accepted or wrong error"),
            }
        }
        // Ids that no model could have decoded are dropped with the
        // history, unread.
        let wide = read(
            &format!(r#""emitted_macros":[{},{}]"#, ids(6, "70000"), ids(6, "0")),
            &format!(
                r#""emitted_micros":[{},{}]"#,
                cands(6, "0"),
                cands(6, &u64::MAX.to_string())
            ),
        );
        assert!(wide.is_ok());
    }
}
