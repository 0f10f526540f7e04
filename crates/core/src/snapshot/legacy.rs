//! Reader for `v3` and `v4` parked streams. A `v3` park comes in two
//! kinds, the JSON `"kind": "stream"` snapshot and the binary
//! `kind=stream-bin` layout; a `v4` park is the binary one minus the
//! decoder-config tags and retired slots. Both park every window entry
//! whole. Beyond the `v4` layout, a `v3` park records the stream's
//! [`DecoderConfig`] and, in every decoder, the retired slots that
//! [`cace_hdbn::park::legacy`] checks. This module reads the envelope and
//! the NH decoder; that one, the coupled and chain decoders.
//!
//! The whole-entry decoders are held as read (`LegacyDecoder`, checked
//! for every shape the compaction reads) and compacted when the park is
//! resumed or re-encoded, so reading allocates in proportion to the
//! bytes read.

use cace_hdbn::park::check;
use cace_hdbn::park::legacy::{
    check_history, check_json_slots, check_rows, named, read_beam_slots, read_chain, read_chain_v4,
    read_coupled, read_coupled_v4, read_decoder_tags, read_v32, WholeChain, WholeCoupled,
};
use cace_hdbn::trellis::{Compacted, Record};
use cace_hdbn::wire::{self, ByteReader};
use cace_hdbn::{DecoderConfig, Lag};
use cace_model::ModelError;
use serde::Deserialize;

use super::{field, persist_err, verify_header};
use crate::nh::{FlatState, ParkedFlat, ParkedFlatEntry};
use crate::stream::{ParkedDecoder, ParkedStream};

/// Version of the parked-stream layouts with retired slots.
pub(super) const VERSION: u32 = 3;
/// Version of the binary layout that parked every window entry whole.
pub(super) const V4: u32 = 4;
/// Smallest encoding of a whole NH window entry: two empty sequences.
const FLAT_ENTRY_MIN_BYTES: usize = 2;

/// One whole NH window entry: its state list and one backpointer per
/// state.
#[derive(Debug, Clone, Default, Deserialize)]
pub(crate) struct WholeFlatEntry {
    states: Vec<FlatState>,
    back: Vec<u32>,
}

/// An NH frontier as a `v3` or `v4` park holds it (see
/// [`WholeCoupled`]).
#[derive(Debug, Clone, Default, Deserialize)]
pub(crate) struct WholeFlat {
    v: Vec<f64>,
    window: Vec<WholeFlatEntry>,
    base: usize,
    pushed: usize,
    states_explored: u64,
    transition_ops: u64,
}

/// `(n_macro, n_cands)` when `states` is their macro-major product.
fn product_shape(states: &[FlatState]) -> Option<(usize, usize)> {
    let n_macro = states.last()?.0 + 1;
    let n_cands = states.len() / n_macro;
    let product = (0..states.len()).all(|j| states[j] == (j / n_cands.max(1), j % n_cands.max(1)));
    (n_cands * n_macro == states.len() && product).then_some((n_macro, n_cands))
}

impl WholeFlat {
    /// Checks every shape [`compact`](Self::compact) reads: nonempty state
    /// lists, backpointer rows, a newest entry whose states are a
    /// macro-major product, and a frontier over them.
    fn check(&self) -> Result<(), ModelError> {
        let what = "parked NH stream";
        for (i, e) in self.window.iter().enumerate() {
            check(!e.states.is_empty(), || {
                format!("{what}: window[{i}] has no states")
            })?;
            // A decision keeps macro ids in 32 bits.
            check(
                e.states.iter().all(|&(a, _)| u32::try_from(a).is_ok()),
                || format!("{what}: window[{i}] macro out of range"),
            )?;
        }
        check_rows(
            what,
            self.window.iter().map(|e| (e.states.len(), &e.back[..])),
        )?;
        if let Some(e) = self.window.last() {
            let Some((_, n_cands)) = product_shape(&e.states) else {
                return Err(persist_err(format!(
                    "{what}: newest states are not a macro-major product"
                )));
            };
            // Every state of a macro shares its fold, so its backpointer.
            check(
                e.back
                    .chunks(n_cands)
                    .all(|row| row.iter().all(|&b| b == row[0])),
                || format!("{what}: newest backpointers differ within a macro"),
            )?;
            check(self.v.len() == e.states.len(), || {
                format!("{what}: frontier length != newest window entry")
            })?;
        }
        Ok(())
    }

    /// The compacted form (see [`WholeCoupled::compact`]). Requires
    /// [`check`](Self::check) to have passed.
    fn compact(&self) -> ParkedFlat {
        let compact = self
            .window
            .windows(2)
            .map(|pair| {
                let (e, next) = (&pair[0], &pair[1]);
                let record = |j: u32| Record {
                    state: j,
                    back: e.back.get(j as usize).copied().unwrap_or(0),
                    payload: e.states[j as usize].0 as u32,
                };
                Compacted {
                    items: Vec::new(),
                    records: named(&next.back).into_iter().map(record).collect(),
                }
            })
            .collect();
        let newest = self.window.last().map(|e| {
            let (n_macro, n_cands) = product_shape(&e.states)
                .expect("a checked whole park's newest states are a product");
            ParkedFlatEntry {
                n_macro,
                n_cands,
                back: e.back.iter().step_by(n_cands).copied().collect(),
                macro_emit: Vec::new(),
                cand_emit: Vec::new(),
            }
        });
        ParkedFlat {
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

/// The decoder state of a `v3` or `v4` park, every window entry whole.
#[derive(Debug, Clone, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum LegacyDecoder {
    /// NH: one flat product frontier per user.
    Nh([WholeFlat; 2]),
    /// NCR: one hierarchical chain frontier per user.
    Single([WholeChain; 2]),
    /// NCS / C2: the coupled joint frontier.
    Coupled(WholeCoupled),
}

impl LegacyDecoder {
    fn check(&self) -> Result<(), ModelError> {
        match self {
            LegacyDecoder::Nh(flats) => flats.iter().try_for_each(WholeFlat::check),
            LegacyDecoder::Single(chains) => chains.iter().try_for_each(WholeChain::check),
            LegacyDecoder::Coupled(coupled) => coupled.check(),
        }
    }

    /// The compacted decoder state a resume or a re-encode works from.
    pub(crate) fn compact(&self) -> ParkedDecoder {
        match self {
            LegacyDecoder::Nh([a, b]) => ParkedDecoder::Nh([a.compact(), b.compact()]),
            LegacyDecoder::Single([a, b]) => ParkedDecoder::Single([a.compact(), b.compact()]),
            LegacyDecoder::Coupled(coupled) => ParkedDecoder::Coupled(coupled.compact()),
        }
    }
}

/// Only `v3` JSON parks are deserialized: their decoder state is whole,
/// and it is checked as it is read.
impl Deserialize for ParkedDecoder {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let legacy = LegacyDecoder::deserialize(value)?;
        legacy
            .check()
            .map_err(|e| serde::Error::msg(e.to_string()))?;
        Ok(ParkedDecoder::Legacy(legacy))
    }
}

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
    let (what, histories, paired): (_, &[&str], _) = match &parked.state {
        ParkedDecoder::Legacy(LegacyDecoder::Nh(_)) => ("parked NH stream", &["emitted"], false),
        ParkedDecoder::Legacy(LegacyDecoder::Single(_)) => (
            "parked chain stream",
            &["emitted_macros", "emitted_micros"],
            false,
        ),
        _ => (
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

/// Reads the tag-prefixed whole-entry decoder state, each family through
/// the given reader.
fn read_decoder<'a>(
    r: &mut ByteReader<'a>,
    mut flat: impl FnMut(&mut ByteReader<'a>) -> Result<WholeFlat, ModelError>,
    mut chain: impl FnMut(&mut ByteReader<'a>) -> Result<WholeChain, ModelError>,
    coupled: impl FnOnce(&mut ByteReader<'a>) -> Result<WholeCoupled, ModelError>,
) -> Result<ParkedDecoder, ModelError> {
    let legacy = match r.read_u8()? {
        0 => LegacyDecoder::Nh([flat(r)?, flat(r)?]),
        1 => LegacyDecoder::Single([chain(r)?, chain(r)?]),
        2 => LegacyDecoder::Coupled(coupled(r)?),
        t => return Err(persist_err(format!("unknown parked decoder tag {t}"))),
    };
    Ok(ParkedDecoder::Legacy(legacy))
}

fn read_flat_entry(r: &mut ByteReader<'_>) -> Result<WholeFlatEntry, ModelError> {
    Ok(WholeFlatEntry {
        states: r.read_seq(2, |r| Ok((r.read_usize()?, r.read_usize()?)))?,
        back: r.read_seq(1, ByteReader::read_u32)?,
    })
}

/// Reads a binary `v4` parked NH frontier.
fn read_flat_v4(r: &mut ByteReader<'_>) -> Result<WholeFlat, ModelError> {
    let flat = WholeFlat {
        v: r.read_seq(8, ByteReader::read_f64)?,
        window: r.read_seq(FLAT_ENTRY_MIN_BYTES, read_flat_entry)?,
        base: r.read_usize()?,
        pushed: r.read_usize()?,
        states_explored: r.read_u64()?,
        transition_ops: r.read_u64()?,
    };
    flat.check()?;
    Ok(flat)
}

/// Reads a binary `v3` parked NH frontier of a stream under `lag`.
fn read_flat(r: &mut ByteReader<'_>, lag: Lag) -> Result<WholeFlat, ModelError> {
    let v = r.read_seq(8, ByteReader::read_f64)?;
    read_v32(r)?;
    let window = r.read_seq(FLAT_ENTRY_MIN_BYTES, read_flat_entry)?;
    let (base, pushed) = (r.read_usize()?, r.read_usize()?);
    let history = r.read_seq(1, ByteReader::read_usize)?.len();
    let (states_explored, transition_ops) = (r.read_u64()?, r.read_u64()?);
    read_beam_slots(r)?;
    check_history(&[history], "parked NH stream", pushed, lag)?;
    let flat = WholeFlat {
        v,
        window,
        base,
        pushed,
        states_explored,
        transition_ops,
    };
    flat.check()?;
    Ok(flat)
}

/// Reads what a binary `v3` or `v4` payload (`version`) holds between the
/// strategy tag and the stream accounting: the decoder-config tags (`v3`
/// only), the lag, and the decoder state.
pub(super) fn read_lag_and_state(
    r: &mut ByteReader<'_>,
    version: u32,
) -> Result<(Lag, ParkedDecoder), ModelError> {
    if version == VERSION {
        read_decoder_tags(r)?;
    }
    let lag = wire::read_lag(r)?;
    let state = if version == VERSION {
        read_decoder(
            r,
            |r| read_flat(r, lag),
            |r| read_chain(r, lag),
            |r| read_coupled(r, lag),
        )?
    } else {
        read_decoder(r, read_flat_v4, read_chain_v4, read_coupled_v4)?
    };
    Ok((lag, state))
}
