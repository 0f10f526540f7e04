//! Reader for `v3` parked streams, in both of their kinds: the JSON
//! `"kind": "stream"` snapshot and the binary `kind=stream-bin` layout.
//! Beyond the `v4` layout, a `v3` park records the stream's
//! [`DecoderConfig`] and, in every decoder, the retired slots that
//! [`cace_hdbn::park::legacy`] checks. This module reads the envelope and
//! the NH decoder; that one, the coupled and chain decoders.

use cace_hdbn::park::legacy::{
    check_history, check_json_slots, read_beam_slots, read_chain, read_coupled, read_decoder_tags,
    read_v32,
};
use cace_hdbn::wire::{self, ByteReader};
use cace_hdbn::{DecoderConfig, Lag};
use cace_model::ModelError;

use super::{field, persist_err, read_flat_entry, read_state, verify_header, FLAT_ENTRY_MIN_BYTES};
use crate::nh::ParkedFlat;
use crate::stream::{ParkedDecoder, ParkedStream};

/// Version of the parked-stream layouts this module reads.
pub(super) const VERSION: u32 = 3;

/// Reads a `v3` JSON stream snapshot.
pub(super) fn from_json(text: &str) -> Result<ParkedStream, ModelError> {
    let (version, payload) = verify_header(text)?;
    if version != VERSION {
        return Err(persist_err(format!(
            "unsupported JSON stream snapshot version {version} (this build reads v{VERSION})"
        )));
    }
    let payload = serde::json::value_from_str(payload)
        .map_err(|e| persist_err(format!("payload parse error: {e}")))?;
    let kind: String = field(&payload, "kind")?;
    if kind != "stream" {
        return Err(persist_err(format!(
            "snapshot kind `{kind}` is not a parked stream"
        )));
    }
    let parked: ParkedStream = field(&payload, "stream")?;
    let json_err = |e: serde::Error| persist_err(format!("field `stream`: {e}"));
    let stream = payload
        .expect_field("stream", "stream snapshot")
        .map_err(json_err)?;
    // Read only for its rejection of the removed beams and `f32` lane.
    let _: DecoderConfig = field(stream, "decoder")?;
    let (_, state) = stream
        .expect_field("state", "stream snapshot")
        .and_then(|s| s.expect_variant("parked decoder"))
        .map_err(json_err)?;
    let (what, histories, paired): (_, &[&str], _) = match parked.state {
        ParkedDecoder::Nh(_) => ("parked NH stream", &["emitted"], false),
        ParkedDecoder::Single(_) => (
            "parked chain stream",
            &["emitted_macros", "emitted_micros"],
            false,
        ),
        ParkedDecoder::Coupled(_) => (
            "parked coupled stream",
            &["emitted_macros", "emitted_micros"],
            true,
        ),
    };
    // NH and NCR park one decoder per user, NCS/C2 one joint decoder.
    let decoders = match state {
        Some(serde::Value::Seq(users)) => users.as_slice(),
        one => one.map(std::slice::from_ref).unwrap_or_default(),
    };
    for decoder in decoders {
        check_json_slots(decoder, what, histories, paired, parked.lag)?;
    }
    Ok(parked)
}

/// Reads a binary `v3` parked NH frontier of a stream under `lag`.
fn read_flat(r: &mut ByteReader<'_>, lag: Lag) -> Result<ParkedFlat, ModelError> {
    let v = r.read_seq(8, ByteReader::read_f64)?;
    read_v32(r)?;
    let window = r.read_seq(FLAT_ENTRY_MIN_BYTES, read_flat_entry)?;
    let (base, pushed) = (r.read_usize()?, r.read_usize()?);
    let history = r.read_seq(1, ByteReader::read_usize)?.len();
    let (states_explored, transition_ops) = (r.read_u64()?, r.read_u64()?);
    read_beam_slots(r)?;
    check_history(&[history], "parked NH stream", pushed, lag)?;
    Ok(ParkedFlat {
        v,
        window,
        base,
        pushed,
        states_explored,
        transition_ops,
    })
}

/// Reads what a binary `v3` payload holds between the strategy tag and
/// the stream accounting: the decoder-config tags, the lag, and the
/// decoder state.
pub(super) fn read_lag_and_state(
    r: &mut ByteReader<'_>,
) -> Result<(Lag, ParkedDecoder), ModelError> {
    read_decoder_tags(r)?;
    let lag = wire::read_lag(r)?;
    let state = read_state(
        r,
        |r| read_flat(r, lag),
        |r| read_chain(r, lag),
        |r| read_coupled(r, lag),
    )?;
    Ok((lag, state))
}
