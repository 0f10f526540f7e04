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
//! The [`ByteWriter`]/[`ByteReader`] primitives and the codecs for the
//! crate-public types ([`Lag`], [`MicroCandidate`]) are public so
//! `cace-core` can embed the parked decoder payloads written here inside
//! its own stream envelope. The layouts here are the `v5` ones, the only
//! ones this build reads: they write what a stream holds — the frontier,
//! the compacted window's records, the newest entry whole, the cursor and
//! the counters. A slot-factored frontier (the coupled one here, NH's in
//! `cace-core`) is followed by a frontier-kind byte that is always `0`
//! ([`write_factored_frontier`]); a `1` marked the dense frontiers that
//! only `v3`/`v4` parks produced, and is rejected.

use cace_model::ModelError;

use crate::input::MicroCandidate;
use crate::online::Lag;
use crate::park::{
    ChainPick, JointPick, ParkedChain, ParkedChainEntry, ParkedCoupled, ParkedJointEntry,
    ParkedSlice,
};
use crate::trellis::{Compacted, Record};

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

/// Smallest encoding of a [`MicroCandidate`]: three one-byte varints and
/// the 8-byte score.
const CAND_MIN_BYTES: usize = 11;

fn write_slice(w: &mut ByteWriter, s: &ParkedSlice) {
    w.write_seq(&s.activities, |w, &x| w.write_usize(x));
    w.write_seq(&s.cands, |w, &x| w.write_usize(x));
    w.write_seq(&s.pairs, |w, &x| w.write_u32(x));
    w.write_seq(&s.emissions, |w, &x| w.write_f64(x));
    w.write_seq(&s.uniq_pairs, |w, &x| w.write_u32(x));
    w.write_seq(&s.slots, |w, &x| w.write_u32(x));
    w.write_seq(&s.runs, |w, &(a, s, e)| {
        w.write_u32(a);
        w.write_u32(s);
        w.write_u32(e);
    });
}

fn read_slice(r: &mut ByteReader<'_>) -> Result<ParkedSlice, ModelError> {
    Ok(ParkedSlice {
        activities: r.read_seq(1, ByteReader::read_usize)?,
        cands: r.read_seq(1, ByteReader::read_usize)?,
        pairs: r.read_seq(1, ByteReader::read_u32)?,
        emissions: r.read_seq(8, ByteReader::read_f64)?,
        uniq_pairs: r.read_seq(1, ByteReader::read_u32)?,
        slots: r.read_seq(1, ByteReader::read_u32)?,
        runs: r.read_seq(3, |r| Ok((r.read_u32()?, r.read_u32()?, r.read_u32()?)))?,
    })
}

fn write_joint_entry(w: &mut ByteWriter, e: &ParkedJointEntry) {
    write_slice(w, &e.s1);
    write_slice(w, &e.s2);
    w.write_seq(&e.back, |w, &x| w.write_u32(x));
    for cands in &e.cands {
        w.write_seq(cands, write_cand);
    }
}

fn read_joint_entry(r: &mut ByteReader<'_>) -> Result<ParkedJointEntry, ModelError> {
    Ok(ParkedJointEntry {
        s1: read_slice(r)?,
        s2: read_slice(r)?,
        back: r.read_seq(1, ByteReader::read_u32)?,
        cands: [
            r.read_seq(CAND_MIN_BYTES, read_cand)?,
            r.read_seq(CAND_MIN_BYTES, read_cand)?,
        ],
    })
}

fn write_chain_entry(w: &mut ByteWriter, e: &ParkedChainEntry) {
    write_slice(w, &e.slice);
    w.write_seq(&e.back, |w, &x| w.write_u32(x));
    w.write_seq(&e.cands, write_cand);
}

fn read_chain_entry(r: &mut ByteReader<'_>) -> Result<ParkedChainEntry, ModelError> {
    Ok(ParkedChainEntry {
        slice: read_slice(r)?,
        back: r.read_seq(1, ByteReader::read_u32)?,
        cands: r.read_seq(CAND_MIN_BYTES, read_cand)?,
    })
}

/// Encodes a compacted window: per entry, oldest first, its items through
/// `item`, then its records — state, backpointer, then the payload
/// through `payload`.
pub fn write_compact<P, I>(
    w: &mut ByteWriter,
    compact: &[Compacted<P, I>],
    mut item: impl FnMut(&mut ByteWriter, &I),
    mut payload: impl FnMut(&mut ByteWriter, &P),
) {
    w.write_seq(compact, |w, entry| {
        w.write_seq(&entry.items, &mut item);
        w.write_seq(&entry.records, |w, r| {
            w.write_u32(r.state);
            w.write_u32(r.back);
            payload(w, &r.payload);
        })
    });
}

/// Decodes a compacted window written by [`write_compact`];
/// `item_min_bytes` and `payload_min_bytes` are the smallest encodings of
/// one item and one payload.
///
/// # Errors
/// [`ModelError::Persistence`] on malformed bytes.
pub fn read_compact<'a, P, I>(
    r: &mut ByteReader<'a>,
    item_min_bytes: usize,
    mut item: impl FnMut(&mut ByteReader<'a>) -> Result<I, ModelError>,
    payload_min_bytes: usize,
    mut payload: impl FnMut(&mut ByteReader<'a>) -> Result<P, ModelError>,
) -> Result<Vec<Compacted<P, I>>, ModelError> {
    r.read_seq(2, |r| {
        Ok(Compacted {
            items: r.read_seq(item_min_bytes, &mut item)?,
            records: r.read_seq(2 + payload_min_bytes, |r| {
                Ok(Record {
                    state: r.read_u32()?,
                    back: r.read_u32()?,
                    payload: payload(r)?,
                })
            })?,
        })
    })
}

/// Encodes a slot-factored frontier: its fold `w`, then the
/// frontier-kind byte, always `0`.
pub fn write_factored_frontier(w: &mut ByteWriter, fold: &[f64]) {
    w.write_seq(fold, |w, &x| w.write_f64(x));
    w.write_u8(0);
}

/// Decodes a frontier written by [`write_factored_frontier`].
///
/// # Errors
/// [`ModelError::Persistence`] on malformed bytes or a kind byte of `1`,
/// a dense frontier.
pub fn read_factored_frontier(r: &mut ByteReader<'_>) -> Result<Vec<f64>, ModelError> {
    let w = r.read_seq(8, ByteReader::read_f64)?;
    match r.read_u8()? {
        0 => Ok(w),
        1 => Err(decode_err(
            "frontier-kind byte 1 marks a dense frontier; dense frontiers came only from v3/v4 \
             parks, which this build does not read",
        )),
        b => Err(decode_err(format!("invalid frontier-kind byte {b}"))),
    }
}

fn write_joint_pick(w: &mut ByteWriter, (macros, items): &JointPick) {
    for &x in macros.iter().chain(items) {
        w.write_u32(x);
    }
}

fn read_joint_pick(r: &mut ByteReader<'_>) -> Result<JointPick, ModelError> {
    Ok((
        [r.read_u32()?, r.read_u32()?],
        [r.read_u32()?, r.read_u32()?],
    ))
}

fn write_chain_pick(w: &mut ByteWriter, &(a, c): &ChainPick) {
    w.write_u32(a);
    w.write_u32(c);
}

fn read_chain_pick(r: &mut ByteReader<'_>) -> Result<ChainPick, ModelError> {
    Ok((r.read_u32()?, r.read_u32()?))
}

impl ParkedCoupled {
    /// Appends this checkpoint's binary encoding to `w`: the frontier's
    /// `w`, the frontier-kind byte (`0`, see the [module docs](self)), the
    /// compacted window, the newest entry, the cursor and the two overhead
    /// counters.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        write_factored_frontier(w, &self.w);
        write_compact(w, &self.compact, write_cand, write_joint_pick);
        w.write_opt(self.newest.as_ref(), write_joint_entry);
        w.write_usize(self.base);
        w.write_usize(self.pushed);
        w.write_u64(self.states_explored);
        w.write_u64(self.transition_ops);
    }

    /// Decodes a checkpoint written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on malformed bytes or a dense frontier.
    /// (Structural validation against a model still happens at resume.)
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        Ok(Self {
            w: read_factored_frontier(r)?,
            compact: read_compact(r, CAND_MIN_BYTES, read_cand, 4, read_joint_pick)?,
            newest: r.read_opt(read_joint_entry)?,
            base: r.read_usize()?,
            pushed: r.read_usize()?,
            states_explored: r.read_u64()?,
            transition_ops: r.read_u64()?,
        })
    }
}

impl ParkedChain {
    /// Appends this checkpoint's binary encoding to `w` (the layout of
    /// [`ParkedCoupled::encode_into`] with a dense frontier and chain
    /// entries).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.write_seq(&self.v, |w, &x| w.write_f64(x));
        write_compact(w, &self.compact, write_cand, write_chain_pick);
        w.write_opt(self.newest.as_ref(), write_chain_entry);
        w.write_usize(self.base);
        w.write_usize(self.pushed);
        w.write_u64(self.states_explored);
        w.write_u64(self.transition_ops);
    }

    /// Decodes a checkpoint written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on malformed bytes.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, ModelError> {
        Ok(Self {
            v: r.read_seq(8, ByteReader::read_f64)?,
            compact: read_compact(r, CAND_MIN_BYTES, read_cand, 2, read_chain_pick)?,
            newest: r.read_opt(read_chain_entry)?,
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
