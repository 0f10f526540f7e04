//! The decoder configuration, and the retired lossy frontier beams.
//!
//! Every decoder — the online frontiers in [`crate::online`] (which the
//! whole-session [`crate::CoupledHdbn::viterbi`] and
//! [`crate::SingleHdbn::viterbi`] run under an unbounded lag) and the NH
//! frontier in `cace-core` — runs the exact
//! recursion, with dominance pruning inside every step
//! ([`crate::dominance`]): states that provably cannot win are skipped,
//! and the output stays bit-identical to the full-frontier recursion.
//!
//! Earlier builds also offered lossy frontier beams, `TopK(k)` and
//! `LogThreshold(d)`, which kept only part of the frontier each tick.
//! Dominance pruning made the exact step faster than either, so they were
//! removed. [`DecoderConfig`] stays, with no settings, so engine
//! configurations, snapshots and callers that name it keep working. Its
//! form in engine snapshots is unchanged: it writes `"beam":"Exact"` and
//! `"precision":"Exact64"`, and an engine snapshot recording one of the
//! removed beams or the removed `f32` lane is rejected with an error
//! that names it. Parked streams do not record it.

use serde::{Deserialize, Serialize};

/// Message of every rejection of a snapshot taken in the retired `f32`
/// decoding lane.
const RETIRED_LANE: &str =
    "snapshot was decoded in the removed f32 scoring lane; only exact (f64) snapshots resume";

/// Message of every rejection of a snapshot that records one of the
/// removed lossy decoder beams.
const RETIRED_BEAMS: &str =
    "snapshot records a removed lossy decoder beam (TopK or LogThreshold); only exact \
     snapshots resume, because a frontier pruned by such a beam cannot continue exactly";

/// Decoding-time configuration shared by every decoder in the crate.
///
/// There is one decoder, the exact one, so this has no settings:
///
/// ```
/// use cace_hdbn::DecoderConfig;
///
/// assert_eq!(DecoderConfig::default(), DecoderConfig::exact());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecoderConfig;

impl DecoderConfig {
    /// The exact configuration — same as `Default`.
    pub fn exact() -> Self {
        Self
    }
}

/// The persisted `"beam"` value of the exact decoder.
const EXACT_BEAM: &str = "Exact";

/// The persisted form keeps the `"precision"` field of the layout that
/// had a second (`f32`) scoring lane, always `"Exact64"`, so snapshots
/// are byte-identical to before. A snapshot recording `"Fast32"` was
/// decoded in that lane and is rejected rather than served in `f64`.
const EXACT_LANE: &str = "Exact64";

impl Serialize for DecoderConfig {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                "beam".to_string(),
                serde::Value::Str(EXACT_BEAM.to_string()),
            ),
            (
                "precision".to_string(),
                serde::Value::Str(EXACT_LANE.to_string()),
            ),
        ])
    }
}

impl Deserialize for DecoderConfig {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let beam = value.expect_field("beam", "DecoderConfig")?;
        match beam.expect_variant("DecoderConfig beam")?.0 {
            EXACT_BEAM if matches!(beam, serde::Value::Str(_)) => {}
            "TopK" | "LogThreshold" => return Err(serde::Error::msg(RETIRED_BEAMS)),
            other => {
                return Err(serde::Error::msg(format!(
                    "unknown variant `{other}` for DecoderConfig beam"
                )))
            }
        }
        match value.expect_field("precision", "DecoderConfig")?.as_str()? {
            EXACT_LANE => Ok(Self),
            "Fast32" => Err(serde::Error::msg(RETIRED_LANE)),
            other => Err(serde::Error::msg(format!(
                "unknown variant `{other}` for DecoderConfig precision"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(text: &str) -> Result<DecoderConfig, serde::Error> {
        DecoderConfig::deserialize(&serde::json::value_from_str(text).unwrap())
    }

    #[test]
    fn persisted_form_is_the_exact_layout() {
        let text = serde::json::value_to_string(&DecoderConfig::exact().serialize());
        assert_eq!(text, r#"{"beam":"Exact","precision":"Exact64"}"#);
        assert_eq!(read(&text).unwrap(), DecoderConfig::exact());
    }

    #[test]
    fn retired_beams_and_lanes_are_rejected_by_name() {
        for beam in [r#"{"TopK":7}"#, r#"{"LogThreshold":2.5}"#] {
            let err = read(&format!(r#"{{"beam":{beam},"precision":"Exact64"}}"#)).unwrap_err();
            assert!(err.to_string().contains("TopK or LogThreshold"), "{err}");
        }
        let err = read(r#"{"beam":"Exact","precision":"Fast32"}"#).unwrap_err();
        assert!(err.to_string().contains("f32"), "{err}");
        assert!(read(r#"{"beam":"Exact","precision":"Half"}"#).is_err());
        assert!(read(r#"{"beam":"Widest","precision":"Exact64"}"#).is_err());
        assert!(read(r#"{"beam":{"Exact":1},"precision":"Exact64"}"#).is_err());
    }
}
