//! Compact binary codec for parked decoder state.
//!
//! A serving tier that parks and rehydrates thousands of homes per second
//! pays for every byte it moves. This module is the parked-stream codec:
//! a length-prefixed little-endian binary layout with floats as raw IEEE
//! bits (bit-exact by construction, including `±inf` trellis scores),
//! integers as LEB128 varints (state ids and lengths are small — one
//! byte almost always), vectors as a varint length prefix followed by
//! elements. No field names, no self-description —
//! the envelope's version token *is* the schema version, and the
//! checksummed snapshot header detects corruption before decode.
//!
//! Decoding is **panic-free and allocation-bounded on malformed input**:
//! every length prefix is checked against the bytes actually remaining
//! before any buffer is reserved, and every read past the end surfaces as
//! [`ModelError::Persistence`]. (Structural validation against a model —
//! index bounds, cursor invariants — still happens at resume; this layer
//! only guarantees the bytes parse.)
//!
//! The [`ByteWriter`]/[`ByteReader`] primitives, the codecs for the
//! crate-public types ([`Lag`], [`MicroCandidate`]) and the parked
//! layout's [`Codec`] are public so `cace-core` can embed the parked
//! decoder payloads written here inside its own stream envelope. The
//! layout here is the `v6` one, the only one this build reads: it writes
//! what a stream holds ([`ParkedTrellis`]) — the newest tick's survivors
//! and argmax, the compacted window's items and records, the cursor and
//! the counters.

use cace_model::ModelError;

use crate::input::MicroCandidate;
use crate::online::Lag;
use crate::park::ParkedTrellis;
use crate::trellis::{Compacted, Record, Survivors};
use crate::viterbi::JointSurvivors;

pub(crate) fn decode_err(what: impl Into<String>) -> ModelError {
    ModelError::Persistence { what: what.into() }
}

/// Little-endian binary payload writer. Append-only; finish with
/// [`into_bytes`](Self::into_bytes).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a bool as one byte (`0`/`1`).
    pub fn write_bool(&mut self, x: bool) {
        self.write_u8(u8::from(x));
    }

    /// Appends a `u32` as a LEB128 varint.
    pub fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    /// Appends a `u64` as a LEB128 varint (1 byte per 7 value bits, low
    /// bits first — small ids and lengths cost one byte).
    pub fn write_u64(&mut self, mut x: u64) {
        while x >= 0x80 {
            self.buf.push((x as u8) | 0x80);
            x >>= 7;
        }
        self.buf.push(x as u8);
    }

    /// Appends a `usize` as a `u64` varint (the format is 64-bit
    /// regardless of host width).
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Appends an `f64` as its raw IEEE bits, fixed-width little-endian —
    /// bit-exact round-trip, non-finite values included.
    pub fn write_f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// Appends an `Option<usize>` as a presence byte plus the value.
    pub fn write_opt_usize(&mut self, x: Option<usize>) {
        match x {
            None => self.write_u8(0),
            Some(v) => {
                self.write_u8(1);
                self.write_usize(v);
            }
        }
    }

    /// Appends an `Option` as a presence byte plus the value.
    pub fn write_opt<T>(&mut self, x: Option<&T>, write: impl FnOnce(&mut Self, &T)) {
        self.write_bool(x.is_some());
        if let Some(x) = x {
            write(self, x);
        }
    }

    /// Appends a slice as a `u64` length prefix followed by elements.
    pub fn write_seq<T>(&mut self, items: &[T], mut write: impl FnMut(&mut Self, &T)) {
        self.write_u64(items.len() as u64);
        for item in items {
            write(self, item);
        }
    }
}

/// Bounds-checked reader over a binary payload produced by
/// [`ByteWriter`]. Every read returns [`ModelError::Persistence`] on
/// truncated input instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, n: usize) -> ModelError {
        decode_err(format!(
            "binary payload truncated: need {n} bytes at offset {}, {} remain",
            self.pos,
            self.remaining()
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// [`take`](Self::take) of a fixed-size chunk.
    fn take_chunk<const N: usize>(&mut self) -> Result<&'a [u8; N], ModelError> {
        let buf: &'a [u8] = self.buf;
        let chunk = buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<N>)
            .ok_or_else(|| self.truncated(N))?;
        self.pos += N;
        Ok(chunk)
    }

    /// Fails unless every payload byte was consumed — trailing garbage is
    /// corruption, not padding.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), ModelError> {
        if self.remaining() != 0 {
            return Err(decode_err(format!(
                "binary payload has {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncated input.
    pub fn read_u8(&mut self) -> Result<u8, ModelError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte, rejecting anything but `0`/`1`.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or a non-bool byte.
    pub fn read_bool(&mut self) -> Result<bool, ModelError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(decode_err(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a `u32` varint.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or a value that does not
    /// fit 32 bits.
    pub fn read_u32(&mut self) -> Result<u32, ModelError> {
        u32::try_from(self.read_u64()?)
            .map_err(|_| decode_err("u32 field exceeds 32 bits".to_string()))
    }

    /// Reads a LEB128 `u64` varint.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncated or overlong input.
    pub fn read_u64(&mut self) -> Result<u64, ModelError> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.read_u8()?;
            if shift == 63 && b > 1 {
                return Err(decode_err("varint exceeds 64 bits".to_string()));
            }
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    /// Reads a `u64` and narrows it to the host's `usize`.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or a value exceeding the
    /// host's address width.
    pub fn read_usize(&mut self) -> Result<usize, ModelError> {
        usize::try_from(self.read_u64()?)
            .map_err(|_| decode_err("usize field exceeds host width".to_string()))
    }

    /// Reads an `f64` from fixed-width raw IEEE bits.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncated input.
    pub fn read_f64(&mut self) -> Result<f64, ModelError> {
        Ok(f64::from_bits(u64::from_le_bytes(*self.take_chunk()?)))
    }

    /// Reads an `Option<usize>` (presence byte + value).
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation or a malformed presence
    /// byte.
    pub fn read_opt_usize(&mut self) -> Result<Option<usize>, ModelError> {
        Ok(match self.read_bool()? {
            false => None,
            true => Some(self.read_usize()?),
        })
    }

    /// Reads an `Option` written by [`ByteWriter::write_opt`].
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation, a malformed presence
    /// byte, or a value decode failure.
    pub fn read_opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, ModelError>,
    ) -> Result<Option<T>, ModelError> {
        Ok(match self.read_bool()? {
            false => None,
            true => Some(read(self)?),
        })
    }

    /// Reads a length-prefixed sequence. `elem_min_bytes` is the smallest
    /// possible encoding of one element; the declared length is checked
    /// against the bytes actually remaining **before** any allocation, so
    /// a tampered length prefix cannot request an absurd reservation.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on truncation, an impossible length,
    /// or an element decode failure.
    pub fn read_seq<T>(
        &mut self,
        elem_min_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, ModelError>,
    ) -> Result<Vec<T>, ModelError> {
        let len = self.read_usize()?;
        let floor = len.checked_mul(elem_min_bytes.max(1));
        if floor.is_none_or(|f| f > self.remaining()) {
            return Err(decode_err(format!(
                "binary payload declares {len} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(read(self)?);
        }
        Ok(out)
    }
}

/// Encodes a [`Lag`].
pub fn write_lag(w: &mut ByteWriter, lag: Lag) {
    match lag {
        Lag::Unbounded => w.write_u8(0),
        Lag::Fixed(l) => {
            w.write_u8(1);
            w.write_usize(l);
        }
    }
}

/// Decodes a [`Lag`].
///
/// # Errors
/// [`ModelError::Persistence`] on truncation or an unknown tag.
pub fn read_lag(r: &mut ByteReader<'_>) -> Result<Lag, ModelError> {
    match r.read_u8()? {
        0 => Ok(Lag::Unbounded),
        1 => Ok(Lag::Fixed(r.read_usize()?)),
        t => Err(decode_err(format!("unknown lag tag {t}"))),
    }
}

/// Encodes a [`MicroCandidate`].
pub fn write_cand(w: &mut ByteWriter, c: &MicroCandidate) {
    w.write_usize(c.postural);
    w.write_opt_usize(c.gestural);
    w.write_usize(c.location);
    w.write_f64(c.obs_loglik);
}

/// Decodes a [`MicroCandidate`].
///
/// # Errors
/// [`ModelError::Persistence`] on truncated input.
pub fn read_cand(r: &mut ByteReader<'_>) -> Result<MicroCandidate, ModelError> {
    Ok(MicroCandidate {
        postural: r.read_usize()?,
        gestural: r.read_opt_usize()?,
        location: r.read_usize()?,
        obs_loglik: r.read_f64()?,
    })
}

/// A value the parked layout writes, with the smallest encoding a reader
/// checks a sequence length against before it reserves anything.
pub trait Codec: Sized {
    /// Smallest encoding of one value, in bytes.
    const MIN_BYTES: usize;

    /// Appends the value's encoding.
    fn write(&self, w: &mut ByteWriter);

    /// Decodes one value.
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on malformed bytes.
    fn read(r: &mut ByteReader<'_>) -> Result<Self, ModelError>;
}

/// NH items: a compacted NH entry's payloads need none.
impl Codec for () {
    const MIN_BYTES: usize = 0;

    fn write(&self, _: &mut ByteWriter) {}

    fn read(_: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        Ok(())
    }
}

/// NH payloads: a macro.
impl Codec for u32 {
    const MIN_BYTES: usize = 1;

    fn write(&self, w: &mut ByteWriter) {
        w.write_u32(*self);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        r.read_u32()
    }
}

/// Chain payloads: a macro and a candidate index.
impl Codec for (u32, u32) {
    const MIN_BYTES: usize = 2;

    fn write(&self, w: &mut ByteWriter) {
        w.write_u32(self.0);
        w.write_u32(self.1);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        Ok((r.read_u32()?, r.read_u32()?))
    }
}

/// Joint payloads: per user a macro, then per user a candidate index.
impl Codec for ([u32; 2], [u32; 2]) {
    const MIN_BYTES: usize = 4;

    fn write(&self, w: &mut ByteWriter) {
        for &x in self.0.iter().chain(&self.1) {
            w.write_u32(x);
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        Ok((
            [r.read_u32()?, r.read_u32()?],
            [r.read_u32()?, r.read_u32()?],
        ))
    }
}

/// Candidate tuples: three one-byte varints and the 8-byte score at the
/// least.
impl Codec for MicroCandidate {
    const MIN_BYTES: usize = 11;

    fn write(&self, w: &mut ByteWriter) {
        write_cand(w, self);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        read_cand(r)
    }
}

/// Chain and NH survivors: the states first, so the survivor count is the
/// first length of a decoder's payload.
impl Codec for Survivors {
    const MIN_BYTES: usize = 5;

    fn write(&self, w: &mut ByteWriter) {
        w.write_seq(&self.states, |w, &x| w.write_u32(x));
        w.write_u32(self.n_states);
        w.write_seq(&self.scores, |w, &x| w.write_f64(x));
        w.write_seq(&self.pairs, |w, &x| w.write_u32(x));
        w.write_seq(&self.runs, |w, &(g, s, e)| {
            w.write_u32(g);
            w.write_u32(s);
            w.write_u32(e);
        });
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        Ok(Survivors {
            states: r.read_seq(1, ByteReader::read_u32)?,
            n_states: r.read_u32()?,
            scores: r.read_seq(8, ByteReader::read_f64)?,
            pairs: r.read_seq(1, ByteReader::read_u32)?,
            runs: r.read_seq(3, |r| Ok((r.read_u32()?, r.read_u32()?, r.read_u32()?)))?,
        })
    }
}

/// Coupled survivors, laid out like [`Survivors`].
impl Codec for JointSurvivors {
    const MIN_BYTES: usize = 6;

    fn write(&self, w: &mut ByteWriter) {
        w.write_seq(&self.states, |w, &x| w.write_u32(x));
        w.write_u32(self.k[0]);
        w.write_u32(self.k[1]);
        w.write_seq(&self.scores, |w, &x| w.write_f64(x));
        let pair = |w: &mut ByteWriter, &[a, b]: &[u32; 2]| {
            w.write_u32(a);
            w.write_u32(b);
        };
        w.write_seq(&self.pairs, pair);
        w.write_seq(&self.runs, pair);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        let pair = |r: &mut ByteReader<'_>| Ok([r.read_u32()?, r.read_u32()?]);
        Ok(JointSurvivors {
            states: r.read_seq(1, ByteReader::read_u32)?,
            k: [r.read_u32()?, r.read_u32()?],
            scores: r.read_seq(8, ByteReader::read_f64)?,
            pairs: r.read_seq(2, pair)?,
            runs: r.read_seq(2, pair)?,
        })
    }
}

/// A compacted entry: its items, then its records — state, backpointer,
/// payload.
impl<P: Codec, I: Codec> Codec for Compacted<P, I> {
    const MIN_BYTES: usize = 2;

    fn write(&self, w: &mut ByteWriter) {
        w.write_seq(&self.items, |w, i| i.write(w));
        w.write_seq(&self.records, |w, r| {
            w.write_u32(r.state);
            w.write_u32(r.back);
            r.payload.write(w);
        });
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        Ok(Compacted {
            items: r.read_seq(I::MIN_BYTES, I::read)?,
            records: r.read_seq(2 + P::MIN_BYTES, |r| {
                Ok(Record {
                    state: r.read_u32()?,
                    back: r.read_u32()?,
                    payload: P::read(r)?,
                })
            })?,
        })
    }
}

impl<S: Codec, P: Codec, I: Codec> ParkedTrellis<S, P, I> {
    /// Appends this checkpoint's binary encoding to `w`: the survivors,
    /// the argmax (state, score), the compacted window, the cursor and the
    /// two overhead counters.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.survivors.write(w);
        w.write_usize(self.top.0);
        w.write_f64(self.top.1);
        w.write_seq(&self.compact, |w, entry| entry.write(w));
        w.write_usize(self.base);
        w.write_usize(self.pushed);
        w.write_u64(self.states_explored);
        w.write_u64(self.transition_ops);
    }

    /// Decodes a checkpoint written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on malformed bytes. (Structural
    /// validation against a model still happens at resume.)
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        Ok(Self {
            survivors: S::read(r)?,
            top: (r.read_usize()?, r.read_f64()?),
            compact: r.read_seq(Compacted::<P, I>::MIN_BYTES, Compacted::read)?,
            base: r.read_usize()?,
            pushed: r.read_usize()?,
            states_explored: r.read_u64()?,
            transition_ops: r.read_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.write_u8(7);
        w.write_bool(true);
        w.write_u32(0xdead_beef);
        w.write_u64(u64::MAX);
        w.write_usize(42);
        w.write_f64(f64::NEG_INFINITY);
        w.write_f64(-0.0);
        w.write_opt_usize(None);
        w.write_opt_usize(Some(9));
        w.write_seq(&[1u32, 2, 3], |w, &x| w.write_u32(x));
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_usize().unwrap(), 42);
        assert_eq!(r.read_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.read_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.read_opt_usize().unwrap(), None);
        assert_eq!(r.read_opt_usize().unwrap(), Some(9));
        assert_eq!(r.read_seq(1, ByteReader::read_u32).unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_bad_tags_error_instead_of_panicking() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.read_f64().is_err());
        let mut r = ByteReader::new(&[0x80]);
        assert!(r.read_u64().is_err());
        let mut r = ByteReader::new(&[9]);
        assert!(r.read_bool().is_err());
        // A length prefix claiming more elements than bytes remain is
        // rejected before any allocation.
        let mut w = ByteWriter::new();
        w.write_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.read_seq(8, ByteReader::read_f64).is_err());
        // An overlong varint is malformed, not silently wrapped.
        let mut r = ByteReader::new(&[0xff; 10]);
        assert!(r.read_u64().is_err());
        // Trailing bytes are corruption.
        let r = ByteReader::new(&[0]);
        assert!(r.expect_end().is_err());
        // Unknown enum tags.
        assert!(read_lag(&mut ByteReader::new(&[7])).is_err());
    }

    #[test]
    fn config_enums_round_trip() {
        for lag in [Lag::Unbounded, Lag::Fixed(5)] {
            let mut w = ByteWriter::new();
            write_lag(&mut w, lag);
            write_cand(
                &mut w,
                &MicroCandidate {
                    postural: 3,
                    gestural: Some(1),
                    location: 2,
                    obs_loglik: -1.25,
                },
            );
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(read_lag(&mut r).unwrap(), lag);
            let c = read_cand(&mut r).unwrap();
            assert_eq!((c.postural, c.gestural, c.location), (3, Some(1), 2));
            assert_eq!(c.obs_loglik.to_bits(), (-1.25f64).to_bits());
            r.expect_end().unwrap();
        }
    }
}
