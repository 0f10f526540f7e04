//! Reader for the `v3` parked-decoder layouts, which nothing writes any
//! more. A `v3` decoder carries five slots of mechanisms this build no
//! longer has: `v32` (the `f32` lane's frontier), `pruned` and `keep`
//! (the lossy beams' state) and `emitted_macros`/`emitted_micros` (the
//! decision history). This module is the only code that names them. It
//! reads the binary layout ([`read_coupled`], [`read_chain`]) and checks
//! the JSON one ([`check_json_slots`]; the live types' `Deserialize`
//! reads the rest, ignoring unknown fields). A slot this build cannot
//! honour is rejected with [`ModelError::Persistence`], never dropped: a
//! non-empty `v32` (resuming the empty `f64` frontier instead would change
//! decisions), `pruned == true` or a non-empty `keep` (the frontier lacks
//! states an exact decode needs), or a history neither empty nor as long
//! as the lag schedule implies for the parked cursor. A history on
//! schedule is dropped unread: emitted decisions are the caller's.

use cace_model::ModelError;
use serde::Deserialize;

use super::{check, ParkedChain, ParkedCoupled};
use crate::online::Lag;
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
pub fn read_coupled(r: &mut ByteReader<'_>, lag: Lag) -> Result<ParkedCoupled, ModelError> {
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
    Ok(ParkedCoupled {
        v,
        window,
        base,
        pushed,
        states_explored,
        transition_ops,
    })
}

/// Reads a binary `v3` parked chain decoder of a stream under `lag`.
///
/// # Errors
/// [`ModelError::Persistence`] on malformed bytes or a retired slot this
/// build cannot honour.
pub fn read_chain(r: &mut ByteReader<'_>, lag: Lag) -> Result<ParkedChain, ModelError> {
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
    Ok(ParkedChain {
        v,
        window,
        base,
        pushed,
        states_explored,
        transition_ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::tests::{glitchy_ticks, toy_params};
    use crate::{CoupledHdbn, OnlineCoupledViterbi};
    use serde::Deserialize;

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
        let mut online = OnlineCoupledViterbi::new(model.clone(), lag);
        for tick in glitchy_ticks().iter().take(8) {
            online.push(tick).unwrap();
        }
        let parked = online.park();
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
            let parked = ParkedCoupled::deserialize(&value).expect("old layout reads");
            OnlineCoupledViterbi::resume(model.clone(), lag, &parked)
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
