//! Versioned snapshots: persist a trained [`CaceEngine`] or a parked
//! mid-session stream ([`ParkedStream`]) and reload either in a fresh
//! serving process. Engines are the "train once, serve many" half of the
//! paper's pipeline; parked streams are the serving tier's unit of
//! eviction (a cold home's decoder state, rehydratable bit-identically).
//!
//! Engines and [`ModelRecord`]s are single text files:
//!
//! ```text
//! CACE-SNAPSHOT v3 fnv1a64=<16-hex checksum of payload>
//! <one-line JSON payload>
//! ```
//!
//! The v3 payload leads with a `"kind"` discriminator (`"engine"` or
//! `"model-record"`), so each reader can reject the other kind's bytes
//! with a clear error instead of a field-level parse failure. v2 payloads
//! predate the discriminator and are always engine snapshots; the engine
//! reader still accepts them.
//!
//! Parked streams are binary: a header line
//! `CACE-SNAPSHOT v6 kind=stream-bin fnv1a64=<16-hex> len=<n>`, then the
//! payload of [`cace_hdbn::wire`] (see
//! [`ParkedStream::to_snapshot_bytes`]). A `v6` decoder holds exactly what
//! its live stream holds: the newest tick's dominance survivors with what
//! the next step reads of them, the newest frontier's argmax, and every
//! window entry, the newest included, compacted to the records a
//! backtrack can still read.
//!
//! Engines and model records are the durable artifacts, so their older
//! versions stay readable (v2 engines). A parked stream is read only in
//! the layout this build writes: a park of any other version (the `v3`
//! JSON and binary kinds, the `v4` and `v5` binary ones) is a
//! [`ModelError::Persistence`] that names its version.
//!
//! The engine payload serializes everything recognition depends on — the
//! engine configuration, atom space, trained forests, mined rule set, the
//! constraint miner's statistics, the (possibly EM-refined) HDBN
//! parameters, and the NH baseline tables — through the `serde` shim's
//! lossless JSON backend (finite `f64`s round-trip bit-exactly; the
//! `±inf`/`NaN` tokens cover the non-finite trellis scores a parked stream
//! can carry). Derived artifacts are *rebuilt* on load rather than stored:
//! the HDBN log tables re-derive from `(stats, config)` and the pruning
//! engine from the rule set, so a loaded engine's `recognize`/`stream`
//! output is bit-identical to the engine that was saved
//! (`tests/persistence_roundtrip.rs` asserts this across all four
//! strategies; `tests/streaming_equivalence.rs` asserts the parked-stream
//! counterpart at every park position).

use std::fs;
use std::path::Path;
use std::sync::Arc;

use cace_hdbn::wire::{self, ByteReader, ByteWriter};
use cace_hdbn::{HdbnParams, ParkedChain, ParkedCoupled};
use cace_mining::PruningEngine;
use cace_model::ModelError;
use serde::{Deserialize, Serialize};

use crate::engine::CaceEngine;
use crate::evidence::PrevState;
use crate::nh::ParkedFlat;
use crate::strategy::Strategy;
use crate::stream::{ParkedDecoder, ParkedStream};

/// Leading magic token of the header line.
const MAGIC: &str = "CACE-SNAPSHOT";
/// Version of the JSON snapshot kinds. v3 added the leading `"kind"`
/// discriminator and the parked-stream kinds; v2 added the engine's
/// [`DecoderConfig`](cace_hdbn::DecoderConfig) (then a frontier beam) to
/// the persisted configuration. v2 engine payloads (kindless) still load;
/// v1 payloads predate the persisted decoder and are rejected.
const VERSION: u32 = 3;
/// Oldest engine-snapshot version the reader accepts.
const MIN_ENGINE_VERSION: u32 = 2;

/// 64-bit FNV-1a over the payload bytes (fast, dependency-free integrity
/// check — corruption detection, not cryptographic authentication). Also
/// the serving tier's stable home→shard hash, so shard assignment never
/// depends on process-local state.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn persist_err(what: impl Into<String>) -> ModelError {
    ModelError::Persistence { what: what.into() }
}

/// Deserializes one named field of the snapshot payload.
fn field<T: Deserialize>(payload: &serde::Value, name: &str) -> Result<T, ModelError> {
    let value = payload
        .expect_field(name, "engine snapshot")
        .map_err(|e| persist_err(e.to_string()))?;
    T::deserialize(value).map_err(|e| persist_err(format!("field `{name}`: {e}")))
}

/// Renders a checksummed snapshot around an already-serialized payload.
fn render_snapshot(payload: &str) -> String {
    let checksum = fnv1a64(payload.as_bytes());
    format!("{MAGIC} v{VERSION} fnv1a64={checksum:016x}\n{payload}")
}

/// Checks the magic token of a header line and parses its version;
/// returns the version and the tokens after it.
fn parse_header(header: &str) -> Result<(u32, std::str::SplitWhitespace<'_>), ModelError> {
    let mut tokens = header.split_whitespace();
    if tokens.next() != Some(MAGIC) {
        return Err(persist_err(format!(
            "not a {MAGIC} file (header `{header}`)"
        )));
    }
    let version = tokens
        .next()
        .and_then(|t| t.strip_prefix('v'))
        .and_then(|t| t.parse::<u32>().ok())
        .ok_or_else(|| persist_err(format!("malformed version in header `{header}`")))?;
    Ok((version, tokens))
}

/// Verifies `payload` against the header's `fnv1a64=` token.
fn verify_checksum(token: Option<&str>, header: &str, payload: &[u8]) -> Result<(), ModelError> {
    let stated = token
        .and_then(|t| t.strip_prefix("fnv1a64="))
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| persist_err(format!("malformed checksum in header `{header}`")))?;
    let actual = fnv1a64(payload);
    if stated != actual {
        return Err(persist_err(format!(
            "checksum mismatch: header says {stated:016x}, payload hashes to {actual:016x}"
        )));
    }
    Ok(())
}

/// Parses the header line of a JSON snapshot and verifies the payload
/// checksum; returns the stated format version and the (verified,
/// still-serialized) payload.
fn verify_header(text: &str) -> Result<(u32, &str), ModelError> {
    let (header, payload) = text
        .split_once('\n')
        .ok_or_else(|| persist_err("snapshot has no header line"))?;
    // Tolerate one trailing newline (editors, `>>`, eol normalization):
    // the payload is a single JSON line, so a bare line ending after it
    // cannot be content — strip it before hashing.
    let payload = payload
        .strip_suffix('\n')
        .map(|p| p.strip_suffix('\r').unwrap_or(p))
        .unwrap_or(payload);
    let (version, mut tokens) = parse_header(header)?;
    verify_checksum(tokens.next(), header, payload.as_bytes())?;
    Ok((version, payload))
}

impl CaceEngine {
    /// The engine's snapshot payload as a JSON value — shared between the
    /// standalone engine snapshot and the embedded engine inside a
    /// [`ModelRecord`].
    fn payload_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            // The kind discriminator leads the payload (v3 format rule),
            // so readers can classify a snapshot from its first bytes.
            ("kind".to_string(), serde::Value::Str("engine".to_string())),
            ("config".to_string(), self.config.serialize()),
            ("space".to_string(), self.space.serialize()),
            ("n_macro".to_string(), self.n_macro.serialize()),
            ("has_gestural".to_string(), self.has_gestural.serialize()),
            ("classifiers".to_string(), self.classifiers.serialize()),
            ("rules".to_string(), self.rules.serialize()),
            ("stats".to_string(), self.stats.serialize()),
            ("params".to_string(), self.params.as_ref().serialize()),
            // The NH table serves from a dense flat layout; the payload
            // keeps the historical nested-rows shape (bitwise the same
            // values), so the format is unchanged and the flat table is
            // rebuilt on load like every other derived artifact.
            (
                "nh_log_trans".to_string(),
                self.nh_log_trans.to_rows().serialize(),
            ),
        ])
    }

    /// Renders the trained engine as a self-contained snapshot string
    /// (versioned header + checksum + JSON payload).
    pub fn to_snapshot_string(&self) -> String {
        render_snapshot(&serde::json::value_to_string(&self.payload_value()))
    }

    /// Reconstructs an engine from [`to_snapshot_string`](Self::to_snapshot_string) output.
    ///
    /// Accepts the current v3 format (`"kind": "engine"`) and the kindless
    /// v2 engine format it replaced; a v3 *stream* snapshot is rejected by
    /// kind, not by a confusing missing-field error.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on a malformed header, an unsupported
    /// version, a checksum mismatch, a non-engine kind, or an invalid
    /// payload.
    pub fn from_snapshot_str(text: &str) -> Result<Self, ModelError> {
        let (version, payload) = verify_header(text)?;
        if !(MIN_ENGINE_VERSION..=VERSION).contains(&version) {
            return Err(persist_err(format!(
                "unsupported snapshot version {version} \
                 (this build reads v{MIN_ENGINE_VERSION}..v{VERSION})"
            )));
        }
        let payload = serde::json::value_from_str(payload)
            .map_err(|e| persist_err(format!("payload parse error: {e}")))?;
        Self::from_payload(version, &payload)
    }

    /// Rebuilds an engine from an already-parsed (and
    /// checksum-verified) snapshot payload.
    fn from_payload(version: u32, payload: &serde::Value) -> Result<Self, ModelError> {
        // v2 payloads predate the kind discriminator and are engine
        // snapshots by definition; v3 payloads must say so.
        if version >= 3 {
            let kind: String = field(payload, "kind")?;
            if kind != "engine" {
                return Err(persist_err(format!(
                    "snapshot kind `{kind}` is not an engine snapshot"
                )));
            }
        }
        let config: crate::engine::CaceConfig = field(payload, "config")?;
        let rules: cace_mining::RuleSet = field(payload, "rules")?;
        // Derived state is rebuilt, not stored: the pruning engine from the
        // rules, the HDBN log tables (inside `HdbnParams::deserialize`)
        // from the mined statistics. Keys no field reads are ignored, such
        // as the unused `nh_hmm` that older writers stored.
        let pruner = if config.strategy.uses_correlation_pruning() {
            Some(PruningEngine::new(rules.clone()))
        } else {
            None
        };
        let params: HdbnParams = field(payload, "params")?;
        let nh_rows: Vec<Vec<f64>> = field(payload, "nh_log_trans")?;
        if nh_rows.iter().any(|row| row.len() != nh_rows.len()) {
            return Err(persist_err("field `nh_log_trans`: the table is not square"));
        }
        let n_macro = field(payload, "n_macro")?;
        let classifiers: crate::classifiers::MicroClassifiers = field(payload, "classifiers")?;
        classifiers
            .check_shapes(n_macro)
            .map_err(|e| persist_err(format!("field `classifiers`: {e}")))?;
        Ok(Self {
            space: field(payload, "space")?,
            n_macro,
            has_gestural: field(payload, "has_gestural")?,
            classifiers,
            stats: field(payload, "stats")?,
            params: Arc::new(params),
            nh_log_trans: crate::nh::FlatTable::from_rows(&nh_rows),
            config,
            rules,
            pruner,
        })
    }

    /// Writes the trained engine to `path` as a versioned, checksummed
    /// snapshot.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        let path = path.as_ref();
        fs::write(path, self.to_snapshot_string())
            .map_err(|e| persist_err(format!("writing {}: {e}", path.display())))
    }

    /// Loads an engine previously written by [`save`](Self::save) —
    /// typically in a fresh serving process that never saw the training
    /// data.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on I/O failure or any verification
    /// failure described in [`from_snapshot_str`](Self::from_snapshot_str).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| persist_err(format!("reading {}: {e}", path.display())))?;
        Self::from_snapshot_str(&text)
    }
}

/// One published generation of a named model, as the serving tier
/// persists it: the registry name, the generation index, and the full
/// engine serving that generation. This is the unit of **roll forward /
/// roll back** for online adaptation — every
/// [`publish_model`](crate::router::ShardedRouter::publish_model) /
/// [`adapt_model`](crate::router::ShardedRouter::adapt_model) outcome can
/// be exported as a record, archived, and re-imported later to restore
/// exactly that generation.
#[derive(Debug, Clone)]
pub struct ModelRecord {
    /// Registry name of the model this generation belongs to.
    pub name: String,
    /// Generation index: 0 is the as-trained engine, each successful
    /// adaptation or explicit publish appends the next index.
    pub generation: usize,
    /// The engine serving this generation.
    pub engine: CaceEngine,
}

impl ModelRecord {
    /// Renders the record as a self-contained snapshot string — the same
    /// versioned, checksummed v3 envelope as engine snapshots,
    /// with `"kind": "model-record"` and the engine payload embedded.
    pub fn to_snapshot_string(&self) -> String {
        let payload = serde::json::value_to_string(&serde::Value::Map(vec![
            (
                "kind".to_string(),
                serde::Value::Str("model-record".to_string()),
            ),
            ("name".to_string(), self.name.serialize()),
            ("generation".to_string(), self.generation.serialize()),
            ("engine".to_string(), self.engine.payload_value()),
        ]));
        render_snapshot(&payload)
    }

    /// Reconstructs a record from
    /// [`to_snapshot_string`](Self::to_snapshot_string) output.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on a malformed header, a non-v3
    /// version (model records did not exist before v3), a checksum
    /// mismatch, a different kind, or an invalid payload.
    pub fn from_snapshot_str(text: &str) -> Result<Self, ModelError> {
        let (version, payload) = verify_header(text)?;
        if version != VERSION {
            return Err(persist_err(format!(
                "unsupported model-record snapshot version {version} \
                 (this build reads v{VERSION})"
            )));
        }
        let payload = serde::json::value_from_str(payload)
            .map_err(|e| persist_err(format!("payload parse error: {e}")))?;
        let kind: String = field(&payload, "kind")?;
        if kind != "model-record" {
            return Err(persist_err(format!(
                "snapshot kind `{kind}` is not a model record"
            )));
        }
        let engine_payload = payload
            .expect_field("engine", "model-record snapshot")
            .map_err(|e| persist_err(e.to_string()))?;
        Ok(ModelRecord {
            name: field(&payload, "name")?,
            generation: field(&payload, "generation")?,
            engine: CaceEngine::from_payload(VERSION, engine_payload)?,
        })
    }

    /// Writes the record to `path` as a versioned, checksummed snapshot.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        let path = path.as_ref();
        fs::write(path, self.to_snapshot_string())
            .map_err(|e| persist_err(format!("writing {}: {e}", path.display())))
    }

    /// Loads a record previously written by [`save`](Self::save).
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on I/O failure or any verification
    /// failure described in
    /// [`from_snapshot_str`](Self::from_snapshot_str).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| persist_err(format!("reading {}: {e}", path.display())))?;
        Self::from_snapshot_str(&text)
    }
}

/// Binary-kind discriminator token in the snapshot header line.
const BIN_KIND: &str = "kind=stream-bin";
/// Version of the binary parked-stream layout this build writes, and the
/// only one it reads. v4 dropped the slots of removed mechanisms that v3
/// parks carry; v5 parked the compacted window; v6 parks the newest
/// tick's survivors in place of its whole frontier and entry.
const STREAM_VERSION: u32 = 6;

fn write_strategy(w: &mut ByteWriter, s: Strategy) {
    w.write_u8(match s {
        Strategy::NaiveHmm => 0,
        Strategy::NaiveCorrelation => 1,
        Strategy::NaiveConstraint => 2,
        Strategy::CorrelationConstraint => 3,
    });
}

fn read_strategy(r: &mut ByteReader<'_>) -> Result<Strategy, ModelError> {
    match r.read_u8()? {
        0 => Ok(Strategy::NaiveHmm),
        1 => Ok(Strategy::NaiveCorrelation),
        2 => Ok(Strategy::NaiveConstraint),
        3 => Ok(Strategy::CorrelationConstraint),
        t => Err(persist_err(format!("unknown strategy tag {t}"))),
    }
}

fn write_state(w: &mut ByteWriter, state: &ParkedDecoder) {
    match state {
        ParkedDecoder::Nh(flats) => {
            w.write_u8(0);
            for f in flats {
                f.encode_into(w);
            }
        }
        ParkedDecoder::Single(chains) => {
            w.write_u8(1);
            for c in chains {
                c.encode_into(w);
            }
        }
        ParkedDecoder::Coupled(coupled) => {
            w.write_u8(2);
            coupled.encode_into(w);
        }
    }
}

/// Reads the tag-prefixed per-strategy decoder state.
fn read_state(r: &mut ByteReader<'_>) -> Result<ParkedDecoder, ModelError> {
    match r.read_u8()? {
        0 => Ok(ParkedDecoder::Nh([
            ParkedFlat::decode_from(r)?,
            ParkedFlat::decode_from(r)?,
        ])),
        1 => Ok(ParkedDecoder::Single([
            ParkedChain::decode_from(r)?,
            ParkedChain::decode_from(r)?,
        ])),
        2 => Ok(ParkedDecoder::Coupled(ParkedCoupled::decode_from(r)?)),
        t => Err(persist_err(format!("unknown parked decoder tag {t}"))),
    }
}

/// Parses and verifies the header of a binary parked stream: magic, the
/// version this build writes, the binary kind, and the payload's stated
/// length and checksum. Returns the verified payload.
fn open_binary(bytes: &[u8]) -> Result<&[u8], ModelError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| persist_err("binary snapshot has no header line"))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| persist_err("binary snapshot header is not UTF-8"))?;
    let payload = &bytes[newline + 1..];
    let (version, mut tokens) = parse_header(header)?;
    if version != STREAM_VERSION {
        return Err(persist_err(format!(
            "unsupported parked stream version {version} \
             (this build reads only the v{STREAM_VERSION} layout it writes)"
        )));
    }
    let kind = tokens.next();
    if kind != Some(BIN_KIND) {
        return Err(persist_err(format!(
            "header `{header}` is not a binary parked stream"
        )));
    }
    let checksum = tokens.next();
    let len = tokens
        .next()
        .and_then(|t| t.strip_prefix("len="))
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| persist_err(format!("malformed length in header `{header}`")))?;
    if len != payload.len() {
        return Err(persist_err(format!(
            "payload length mismatch: header says {len}, {} bytes follow",
            payload.len()
        )));
    }
    verify_checksum(checksum, header, payload)?;
    Ok(payload)
}

impl ParkedStream {
    /// Renders the parked stream as a binary snapshot: a checksummed
    /// header line with a `kind=stream-bin` token and the payload's byte
    /// length, then the compact little-endian payload of
    /// [`cace_hdbn::wire`] — floats as raw IEEE bits, so the round trip is
    /// bit-exact by construction. This is the byte form the serving tier
    /// keeps for an evicted home.
    ///
    /// ```text
    /// CACE-SNAPSHOT v6 kind=stream-bin fnv1a64=<16-hex> len=<payload bytes>
    /// <raw payload bytes>
    /// ```
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_strategy(&mut w, self.strategy);
        wire::write_lag(&mut w, self.lag);
        write_state(&mut w, &self.state);
        for prev in &self.prev {
            w.write_opt_usize(prev.macro_id);
            w.write_opt_usize(prev.location);
        }
        w.write_usize(self.pushed);
        w.write_f64(self.joint_size_sum);
        w.write_u64(self.rules_fired);
        w.write_u64(self.ncr_prev_sqrt);
        w.write_u64(self.ncr_ops);
        w.write_f64(self.wall_seconds);
        w.write_u64(self.model_fp);
        let payload = w.into_bytes();
        let checksum = fnv1a64(&payload);
        let mut out = format!(
            "{MAGIC} v{STREAM_VERSION} {BIN_KIND} fnv1a64={checksum:016x} len={}\n",
            payload.len()
        )
        .into_bytes();
        out.extend_from_slice(&payload);
        out
    }

    /// Reconstructs a parked stream from
    /// [`to_snapshot_bytes`](Self::to_snapshot_bytes) output. Envelope
    /// checks (magic, version, kind, stated length, checksum) run before
    /// any payload decode; structural validation against a concrete engine
    /// happens at [`CaceEngine::resume`].
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on a malformed header, a version other
    /// than v6 (the error names it), a non-binary kind, a length or
    /// checksum mismatch, or malformed payload bytes.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, ModelError> {
        let mut r = ByteReader::new(open_binary(bytes)?);
        let parked = Self {
            strategy: read_strategy(&mut r)?,
            lag: wire::read_lag(&mut r)?,
            state: read_state(&mut r)?,
            prev: [
                PrevState {
                    macro_id: r.read_opt_usize()?,
                    location: r.read_opt_usize()?,
                },
                PrevState {
                    macro_id: r.read_opt_usize()?,
                    location: r.read_opt_usize()?,
                },
            ],
            pushed: r.read_usize()?,
            joint_size_sum: r.read_f64()?,
            rules_fired: r.read_u64()?,
            ncr_prev_sqrt: r.read_u64()?,
            ncr_ops: r.read_u64()?,
            wall_seconds: r.read_f64()?,
            model_fp: r.read_u64()?,
        };
        r.expect_end()?;
        Ok(parked)
    }

    /// [`from_snapshot_bytes`](Self::from_snapshot_bytes), under the name
    /// the serving benchmark's replay harness calls; nothing else does.
    /// To be deleted with the next change to the benchmark.
    ///
    /// # Errors
    /// Those of [`from_snapshot_bytes`](Self::from_snapshot_bytes).
    pub fn from_snapshot_any(bytes: &[u8]) -> Result<Self, ModelError> {
        Self::from_snapshot_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CaceConfig;
    use crate::strategy::Strategy;
    use cace_behavior::{cace_grammar, generate_cace_dataset, SessionConfig};

    /// The NH member of `tests/bounded_state.rs`: a toy flat frontier's
    /// `stream-bin` park after 20 000 pushes is within 10% of the park
    /// after 200 (the frontier is crate-private, so the check lives here).
    #[test]
    fn nh_park_size_does_not_grow_with_stream_age() {
        use crate::nh::{FlatTable, OnlineFlat};
        use cace_hdbn::{MicroCandidate, TickInput};
        let table = FlatTable::from_rows(&[vec![-0.1, -2.3], vec![-2.3, -0.1]]);
        let mut flat = OnlineFlat::new(cace_hdbn::Lag::Fixed(6));
        let park_len = |flat: &OnlineFlat| {
            let mut w = ByteWriter::new();
            flat.park().encode_into(&mut w);
            w.into_bytes().len()
        };
        let mut short = 0;
        for t in 0..20_000usize {
            // Two macros × two candidates, with runs of 100 ticks and a
            // periodic contradictory observation.
            let m = (t / 100) % 2;
            let fav = if t % 11 == 5 { 1 - m } else { m };
            let score = |x: usize| if x == fav { 0.0 } else { -1.5 };
            let cands: Vec<MicroCandidate> = (0..2)
                .map(|c| MicroCandidate {
                    postural: c,
                    gestural: None,
                    location: c,
                    obs_loglik: score(c),
                })
                .collect();
            let tick = TickInput {
                candidates: [cands.clone(), cands],
                macro_candidates: [None, None],
                macro_bonus: Vec::new(),
            };
            flat.push(&table, &tick, 0, &[score(0), score(1)]);
            if t + 1 == 200 {
                short = park_len(&flat);
            }
        }
        let long = park_len(&flat);
        assert!(
            long * 10 <= short * 11,
            "an NH park is {short} B after 200 pushes and {long} B after 20 000"
        );
    }

    fn tiny_engine(strategy: Strategy) -> (CaceEngine, Vec<cace_behavior::Session>) {
        let sessions = generate_cace_dataset(
            &cace_grammar(),
            1,
            3,
            &SessionConfig::tiny().with_ticks(60),
            91,
        );
        let engine = CaceEngine::train(
            &sessions[..2],
            &CaceConfig::default().with_strategy(strategy),
        )
        .unwrap();
        (engine, sessions)
    }

    #[test]
    fn snapshot_string_round_trips_with_identical_recognition() {
        let (engine, sessions) = tiny_engine(Strategy::CorrelationConstraint);
        let text = engine.to_snapshot_string();
        let loaded = CaceEngine::from_snapshot_str(&text).unwrap();
        let a = engine.recognize(&sessions[2]).unwrap();
        let b = loaded.recognize(&sessions[2]).unwrap();
        assert_eq!(a.macros, b.macros);
        assert_eq!(a.states_explored, b.states_explored);
        assert_eq!(a.transition_ops, b.transition_ops);
        assert_eq!(a.rules_fired, b.rules_fired);
        assert_eq!(a.mean_joint_size.to_bits(), b.mean_joint_size.to_bits());
    }

    #[test]
    fn header_is_versioned_and_checksummed() {
        let (engine, _) = tiny_engine(Strategy::NaiveCorrelation);
        let text = engine.to_snapshot_string();
        assert!(text.starts_with("CACE-SNAPSHOT v3 fnv1a64="));
        // The kind discriminator leads the payload (v3 format rule).
        let payload = text.split_once('\n').unwrap().1;
        assert!(payload.starts_with("{\"kind\":\"engine\""), "{payload:.40}");

        // Flip one payload byte → checksum mismatch.
        let mut corrupted = text.clone();
        let flip_at = corrupted.rfind("0.").unwrap_or(corrupted.len() - 2);
        corrupted.replace_range(flip_at..flip_at + 1, "9");
        assert!(matches!(
            CaceEngine::from_snapshot_str(&corrupted),
            Err(ModelError::Persistence { .. })
        ));

        // Wrong version (older or newer than this build).
        let wrong = text.replacen("v3", "v9", 1);
        let err = CaceEngine::from_snapshot_str(&wrong).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let wrong = text.replacen("v3", "v1", 1);
        let err = CaceEngine::from_snapshot_str(&wrong).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // Not a snapshot at all.
        assert!(matches!(
            CaceEngine::from_snapshot_str("hello\nworld"),
            Err(ModelError::Persistence { .. })
        ));

        // One appended trailing newline (editor save, `>>`, eol
        // normalization) must still load.
        assert!(CaceEngine::from_snapshot_str(&format!("{text}\n")).is_ok());
        assert!(CaceEngine::from_snapshot_str(&format!("{text}\r\n")).is_ok());
        // But not two — that is content corruption.
        assert!(CaceEngine::from_snapshot_str(&format!("{text}\n\n")).is_err());
    }

    /// Re-wraps a payload in a fresh header with the given version —
    /// string surgery for back/forward-compat tests.
    fn reheader(payload: &str, version: u32) -> String {
        let checksum = fnv1a64(payload.as_bytes());
        format!("{MAGIC} v{version} fnv1a64={checksum:016x}\n{payload}")
    }

    #[test]
    fn v2_engine_snapshots_still_load() {
        let (engine, sessions) = tiny_engine(Strategy::CorrelationConstraint);
        let text = engine.to_snapshot_string();
        let payload = text.split_once('\n').unwrap().1;
        // A v2 snapshot is exactly the v3 payload without the leading kind
        // discriminator, under a v2 header.
        let v2_payload = payload.replacen("{\"kind\":\"engine\",", "{", 1);
        assert_ne!(v2_payload, payload, "surgery must remove the kind field");
        let v2 = reheader(&v2_payload, 2);
        let loaded = CaceEngine::from_snapshot_str(&v2).unwrap();
        let a = engine.recognize(&sessions[2]).unwrap();
        let b = loaded.recognize(&sessions[2]).unwrap();
        assert_eq!(a.macros, b.macros);
        assert_eq!(a.states_explored, b.states_explored);

        // But a v3 snapshot without a kind is malformed, not engine-by-
        // default: the discriminator is mandatory from v3 on.
        let kindless_v3 = reheader(&v2_payload, 3);
        assert!(matches!(
            CaceEngine::from_snapshot_str(&kindless_v3),
            Err(ModelError::Persistence { .. })
        ));
    }

    #[test]
    fn snapshots_carrying_the_unused_nh_hmm_still_load() {
        let (engine, sessions) = tiny_engine(Strategy::NaiveHmm);
        let text = engine.to_snapshot_string();
        assert!(!text.contains("\"nh_hmm\""), "the key is no longer written");
        // Older writers appended the NH macro HMM after the NH table.
        let payload = text.split_once('\n').unwrap().1;
        let hmm =
            r#""nh_hmm":{"n":2,"log_prior":[-0.5,-1.0],"log_trans":[[-0.1,-2.3],[-2.3,-0.1]]}"#;
        let older = format!("{},{hmm}}}", payload.strip_suffix('}').unwrap());
        let loaded = CaceEngine::from_snapshot_str(&reheader(&older, 3)).unwrap();
        assert_eq!(loaded.to_snapshot_string(), text);
        let a = engine.recognize(&sessions[2]).unwrap();
        let b = loaded.recognize(&sessions[2]).unwrap();
        assert_eq!(a.macros, b.macros);
        assert_eq!(a.transition_ops, b.transition_ops);
    }

    #[test]
    fn engine_and_stream_readers_reject_each_others_kind() {
        let (engine, sessions) = tiny_engine(Strategy::CorrelationConstraint);
        let mut stream = engine.stream(cace_hdbn::Lag::Fixed(3));
        for tick in &sessions[2].ticks[..8] {
            stream.push(&tick.observed).unwrap();
        }
        let stream_bytes = stream.park().to_snapshot_bytes();
        assert!(stream_bytes.starts_with(b"CACE-SNAPSHOT v6 kind=stream-bin fnv1a64="));

        let err =
            CaceEngine::from_snapshot_str(&String::from_utf8_lossy(&stream_bytes)).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        let engine_text = engine.to_snapshot_string();
        let err = ParkedStream::from_snapshot_bytes(engine_text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("version 3"), "{err}");
    }

    #[test]
    fn binary_stream_snapshot_round_trips_to_identical_continuation() {
        for strategy in crate::strategy::Strategy::ALL {
            let (engine, sessions) = tiny_engine(strategy);
            let session = &sessions[2];
            let lag = cace_hdbn::Lag::Fixed(4);
            let mut reference = engine.stream(lag);
            let mut interrupted = engine.stream(lag);
            for tick in &session.ticks[..20] {
                reference.push(&tick.observed).unwrap();
                interrupted.push(&tick.observed).unwrap();
            }
            let bytes = interrupted.park().to_snapshot_bytes();
            drop(interrupted);
            let parked = ParkedStream::from_snapshot_bytes(&bytes).unwrap();
            assert_eq!(parked.ticks_pushed(), 20);
            let mut resumed = engine.resume(&parked).unwrap();
            for tick in &session.ticks[20..] {
                let a = reference.push(&tick.observed).unwrap();
                let b = resumed.push(&tick.observed).unwrap();
                assert_eq!(a, b);
            }
            let a = reference.finish().unwrap();
            let b = resumed.finish().unwrap();
            assert_eq!(a.decisions, b.decisions);
            assert_eq!(a.states_explored, b.states_explored);
            assert_eq!(a.transition_ops, b.transition_ops);
            assert_eq!(a.rules_fired, b.rules_fired);
            assert_eq!(a.mean_joint_size.to_bits(), b.mean_joint_size.to_bits());
        }
    }

    #[test]
    fn binary_stream_snapshot_rejects_tampering() {
        let (engine, sessions) = tiny_engine(Strategy::CorrelationConstraint);
        let mut stream = engine.stream(cace_hdbn::Lag::Fixed(3));
        for tick in &sessions[2].ticks[..10] {
            stream.push(&tick.observed).unwrap();
        }
        let bytes = stream.park().to_snapshot_bytes();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        assert!(bytes.starts_with(b"CACE-SNAPSHOT v6 kind=stream-bin fnv1a64="));

        // Flip one payload byte: checksum mismatch, decode never runs.
        let mut corrupted = bytes.clone();
        let mid = header_end + 1 + (corrupted.len() - header_end - 1) / 2;
        corrupted[mid] ^= 0xff;
        let err = ParkedStream::from_snapshot_bytes(&corrupted).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncated payload: stated length disagrees with the bytes.
        let err = ParkedStream::from_snapshot_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(err.to_string().contains("length"), "{err}");

        // A version this build does not read, older or newer.
        for version in [b'5', b'7'] {
            let mut other = bytes.clone();
            other["CACE-SNAPSHOT v".len()] = version;
            let err = ParkedStream::from_snapshot_bytes(&other).unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
        }

        // The engine JSON reader and the binary reader reject each other.
        assert!(ParkedStream::from_snapshot_bytes(engine.to_snapshot_string().as_bytes()).is_err());
        assert!(CaceEngine::from_snapshot_str(std::str::from_utf8(&bytes).unwrap_or("")).is_err());
    }

    #[test]
    fn model_fingerprint_survives_the_codec_and_gates_resume() {
        let (engine, sessions) = tiny_engine(Strategy::CorrelationConstraint);
        let mut stream = engine.stream(cace_hdbn::Lag::Fixed(3));
        for tick in &sessions[2].ticks[..10] {
            stream.push(&tick.observed).unwrap();
        }
        let checkpoint = stream.park();
        let want_fp = checkpoint.model_fingerprint();

        let via_bin = ParkedStream::from_snapshot_bytes(&checkpoint.to_snapshot_bytes()).unwrap();
        assert_eq!(via_bin.model_fingerprint(), want_fp);

        // A checkpoint whose recorded model fingerprint was altered (a
        // stale archive, a cross-fleet import) is refused at resume with
        // a Persistence error, never decoded against the wrong model.
        let mut stale = checkpoint.clone();
        stale.model_fp ^= 1;
        let err = match engine.resume(&stale) {
            Err(e) => e,
            Ok(_) => panic!("stale model fingerprint must not resume"),
        };
        assert!(err.to_string().contains("migrate"), "{err}");
        assert!(engine.resume(&checkpoint).is_ok());
    }

    #[test]
    fn model_record_round_trips_and_rejects_other_kinds() {
        let (engine, sessions) = tiny_engine(Strategy::CorrelationConstraint);
        let record = ModelRecord {
            name: "cace-main".to_string(),
            generation: 3,
            engine: engine.clone(),
        };
        let text = record.to_snapshot_string();
        assert!(text.starts_with("CACE-SNAPSHOT v3 fnv1a64="));
        let payload = text.split_once('\n').unwrap().1;
        assert!(
            payload.starts_with("{\"kind\":\"model-record\""),
            "{payload:.40}"
        );

        let loaded = ModelRecord::from_snapshot_str(&text).unwrap();
        assert_eq!(loaded.name, "cace-main");
        assert_eq!(loaded.generation, 3);
        assert_eq!(
            loaded.engine.params.fingerprint(),
            engine.params.fingerprint()
        );
        let a = engine.recognize(&sessions[2]).unwrap();
        let b = loaded.engine.recognize(&sessions[2]).unwrap();
        assert_eq!(a.macros, b.macros);

        // Kind discipline holds in all directions.
        let err = ModelRecord::from_snapshot_str(&engine.to_snapshot_string()).unwrap_err();
        assert!(err.to_string().contains("kind `engine`"), "{err}");
        let err = CaceEngine::from_snapshot_str(&text).unwrap_err();
        assert!(err.to_string().contains("kind `model-record`"), "{err}");

        // Filesystem round trip.
        let path =
            std::env::temp_dir().join(format!("cace_model_record_{}.cace", std::process::id()));
        record.save(&path).unwrap();
        let from_disk = ModelRecord::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(from_disk.generation, 3);
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let (engine, sessions) = tiny_engine(Strategy::NaiveHmm);
        let path =
            std::env::temp_dir().join(format!("cace_snapshot_test_{}.cace", std::process::id()));
        engine.save(&path).unwrap();
        let loaded = CaceEngine::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let a = engine.recognize(&sessions[2]).unwrap();
        let b = loaded.recognize(&sessions[2]).unwrap();
        assert_eq!(a.macros, b.macros);
        assert!(matches!(
            CaceEngine::load(&path),
            Err(ModelError::Persistence { .. })
        ));
    }
}
