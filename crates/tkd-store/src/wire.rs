//! Little-endian wire primitives: an append-only [`Writer`] and a
//! bounds-checked [`Reader`] — the one cursor pair of the workspace.
//! Snapshot sections and manifests (this crate) and `tkd-serve`'s
//! network frames are all written and read through it; `tkd-serve`
//! maps its [`StoreError`]s into its own error type in one place.
//!
//! Every `Reader` length check happens **before** the allocation it
//! guards, so a hostile length field can never trigger an OOM abort —
//! it is rejected against the bytes actually present. Element counts
//! come in two widths: the snapshot format's `u64`
//! ([`Reader::get_count_u64`]) and the wire's `u32` ([`Writer::put_count`]
//! / [`Reader::get_count`]), which refuses on encode a length it cannot
//! carry. Word arrays (`u64` sequences, the storage of every `BitVec`)
//! are copied in bulk from the byte buffer, never decoded bit by bit.
//! The per-field primitives are `#[inline]` because `tkd-serve` calls
//! them across the crate boundary once per field of every frame.
//!
//! [`put_op`] / [`get_op`] are the one byte layout of an [`UpdateOp`]:
//! the wire's `update_ops`, `shard_update` and `assign` bodies and the
//! op log's records ([`crate::Journal`]) all carry ops through them.

use crate::error::{Section, StoreError};
use tkd_core::UpdateOp;

// The word-folded FNV-1a checksum lives in `tkd_bitvec::hash` (the
// dependency-free substrate crate) so the store and the serve protocol
// share one definition; re-exported here for the codec and the public
// crate API.
pub use tkd_bitvec::fnv64;

/// Append-only little-endian byte sink.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Empty writer with room for `bytes` before its first growth.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far (e.g. to checksum a prefix).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw IEEE bits, little-endian.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `u64` word array (bulk, LE).
    pub fn put_words(&mut self, words: &[u64]) {
        self.buf.reserve(words.len() * 8);
        for &w in words {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Append each of `values` in its low `width` bytes (1, 2 or 4),
    /// little-endian, in one pass over the slice; every value must fit.
    pub fn put_narrow(&mut self, values: &[u32], width: usize) {
        match width {
            1 => self.buf.extend(values.iter().map(|&v| v as u8)),
            2 => {
                self.buf.reserve(values.len() * 2);
                for &v in values {
                    self.buf.extend_from_slice(&(v as u16).to_le_bytes());
                }
            }
            _ => {
                self.buf.reserve(values.len() * 4);
                for &v in values {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Overwrite 8 bytes at `pos` with a `u64`, little-endian — the
    /// backpatch primitive: the snapshot writer lays the section table
    /// down as placeholders, streams the payloads into the same buffer,
    /// then patches offsets/lengths/checksums in place (single buffer,
    /// no payload staging copies).
    ///
    /// # Panics
    /// Panics if `pos + 8` exceeds the bytes written so far.
    pub fn patch_u64(&mut self, pos: usize, v: u64) {
        self.buf[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Append `len` as a `u32` count.
    ///
    /// # Errors
    /// [`StoreError::TooLarge`] when `len` does not fit — it would
    /// otherwise truncate into a shorter, plausible count.
    #[inline]
    pub fn put_count(&mut self, what: &'static str, len: usize) -> Result<(), StoreError> {
        let n = u32::try_from(len).map_err(|_| StoreError::TooLarge {
            what,
            len: len as u64,
        })?;
        self.put_u32(n);
        Ok(())
    }

    /// Append a length-prefixed UTF-8 string (`u32` length).
    ///
    /// # Errors
    /// [`StoreError::TooLarge`] for a string of 4 GiB or more.
    pub fn put_str(&mut self, s: &str) -> Result<(), StoreError> {
        self.put_count("string", s.len())?;
        self.put_bytes(s.as_bytes());
        Ok(())
    }
}

/// Bounds-checked little-endian cursor over one section's payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: Section,
}

impl<'a> Reader<'a> {
    /// Read `buf` as the payload of `section` (errors carry the label).
    pub fn new(buf: &'a [u8], section: Section) -> Self {
        Reader {
            buf,
            pos: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with [`StoreError::Truncated`] unless `n` more bytes exist.
    #[inline]
    fn need(&self, n: usize) -> Result<(), StoreError> {
        if self.remaining() < n {
            Err(StoreError::Truncated {
                section: self.section,
                needed: n as u64,
                available: self.remaining() as u64,
            })
        } else {
            Ok(())
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `n` raw bytes, borrowed (bounds-checked first, so a
    /// hostile `n` fails against the bytes present).
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.take(n)
    }

    /// One byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`, little-endian.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A `u64`, little-endian.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// An `f64` from raw IEEE bits.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// A `u64` count (the snapshot format's width) validated to describe
    /// at most `remaining / elem_bytes` elements — the pre-allocation
    /// guard: a hostile count is rejected here, before any
    /// `Vec::with_capacity`.
    pub fn get_count_u64(&mut self, elem_bytes: usize) -> Result<usize, StoreError> {
        let raw = self.get_u64()?;
        let count = usize::try_from(raw).map_err(|_| self.invalid("count exceeds usize"))?;
        self.fits(count, elem_bytes)
    }

    /// A `u32` count (the wire's width), guarded like
    /// [`Reader::get_count_u64`]: `elem_bytes` is the fewest bytes one
    /// element can take.
    #[inline]
    pub fn get_count(&mut self, elem_bytes: usize) -> Result<usize, StoreError> {
        let count = self.get_u32()? as usize;
        self.fits(count, elem_bytes)
    }

    #[inline]
    fn fits(&self, count: usize, elem_bytes: usize) -> Result<usize, StoreError> {
        let bytes = count
            .checked_mul(elem_bytes)
            .ok_or_else(|| self.invalid("count overflows"))?;
        self.need(bytes)?;
        Ok(count)
    }

    /// A `u64` word array of exactly `count` words (bulk copy; call
    /// [`Reader::get_count_u64`] first to validate the count).
    pub fn get_words(&mut self, count: usize) -> Result<Vec<u64>, StoreError> {
        let bytes = count
            .checked_mul(8)
            .ok_or_else(|| self.invalid("word count overflows"))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// A length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let len = self.get_u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| self.invalid("string is not UTF-8"))
    }

    /// Build an [`StoreError::Invalid`] for this section.
    pub fn invalid(&self, reason: impl Into<String>) -> StoreError {
        StoreError::Invalid {
            section: self.section,
            reason: reason.into(),
        }
    }

    /// Require the payload to be fully consumed — trailing junk would
    /// make re-serialization non-canonical, so it is corruption.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(self.invalid(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

/// The fewest bytes one encoded op takes (its tag).
pub const OP_MIN_BYTES: usize = 1;

/// Append one op: a `u8` tag, then its fields. Stable ids travel as
/// `u64`, the `set` dimension as a `u32` count, a row as a `u32` cell
/// count and a cell as a presence byte (0/1) followed, when present, by
/// its IEEE bits.
///
/// ```text
/// 0 insert          row
/// 1 insert_labeled  label (u32 length ‖ UTF-8) ‖ row
/// 2 delete          id u64
/// 3 set             id u64 ‖ dim u32 ‖ cell
/// ```
///
/// # Errors
/// [`StoreError::TooLarge`] for a row, label or dimension index that does
/// not fit its `u32` field.
pub fn put_op(w: &mut Writer, op: &UpdateOp) -> Result<(), StoreError> {
    let put_row = |w: &mut Writer, row: &[Option<f64>]| {
        w.put_count("list", row.len())?;
        row.iter().for_each(|&cell| put_cell(w, cell));
        Ok(())
    };
    match op {
        UpdateOp::Insert(row) => {
            w.put_u8(0);
            put_row(w, row)
        }
        UpdateOp::InsertLabeled(label, row) => {
            w.put_u8(1);
            w.put_str(label)?;
            put_row(w, row)
        }
        UpdateOp::Delete(id) => {
            w.put_u8(2);
            w.put_u64(u64::from(*id));
            Ok(())
        }
        UpdateOp::Set(id, dim, cell) => {
            w.put_u8(3);
            w.put_u64(u64::from(*id));
            w.put_count("dimension index", *dim)?;
            put_cell(w, *cell);
            Ok(())
        }
    }
}

/// Read one op back — the inverse of [`put_op`], rejecting every byte
/// string it cannot produce: an unknown tag, a presence byte other than
/// 0/1, a NaN cell, an id beyond `u32`.
///
/// # Errors
/// [`StoreError::Truncated`] for short input, [`StoreError::Invalid`]
/// for the rest.
pub fn get_op(r: &mut Reader<'_>) -> Result<UpdateOp, StoreError> {
    let id = |r: &mut Reader<'_>| -> Result<u32, StoreError> {
        let raw = r.get_u64()?;
        u32::try_from(raw).map_err(|_| r.invalid(format!("object id {raw} exceeds u32")))
    };
    let row = |r: &mut Reader<'_>| -> Result<Vec<Option<f64>>, StoreError> {
        let count = r.get_count(1)?;
        (0..count).map(|_| get_cell(r)).collect()
    };
    Ok(match r.get_u8()? {
        0 => UpdateOp::Insert(row(r)?),
        1 => UpdateOp::InsertLabeled(r.get_str()?, row(r)?),
        2 => UpdateOp::Delete(id(r)?),
        3 => UpdateOp::Set(id(r)?, r.get_u32()? as usize, get_cell(r)?),
        other => return Err(r.invalid(format!("unknown op tag {other}"))),
    })
}

fn put_cell(w: &mut Writer, cell: Option<f64>) {
    w.put_u8(u8::from(cell.is_some()));
    if let Some(v) = cell {
        w.put_f64(v);
    }
}

fn get_cell(r: &mut Reader<'_>) -> Result<Option<f64>, StoreError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => match r.get_f64()? {
            v if v.is_nan() => Err(r.invalid("NaN value")),
            v => Ok(Some(v)),
        },
        other => Err(r.invalid(format!("flag byte {other} (want 0/1)"))),
    }
}

/// Append a batch: a `u32` op count, then each op ([`put_op`]) — the
/// body of the wire's `update_ops` frame.
///
/// # Errors
/// As [`put_op`], and for a batch of 2³² ops or more.
pub fn put_ops(w: &mut Writer, ops: &[UpdateOp]) -> Result<(), StoreError> {
    w.put_count("list", ops.len())?;
    ops.iter().try_for_each(|op| put_op(w, op))
}

/// Read a batch written by [`put_ops`].
///
/// # Errors
/// As [`get_op`]; a hostile count is rejected before any allocation.
pub fn get_ops(r: &mut Reader<'_>) -> Result<Vec<UpdateOp>, StoreError> {
    let count = r.get_count(OP_MIN_BYTES)?;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        ops.push(get_op(r)?);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Sub-word inputs hash exactly like standard FNV-1a 64.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        // Word-wide folding: sensitive to every bit and to truncation.
        let base: Vec<u8> = (0u8..64).collect();
        let h = fnv64(&base);
        for i in [0usize, 7, 8, 31, 63] {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(fnv64(&flipped), h, "flip at {i}");
        }
        assert_ne!(fnv64(&base[..63]), h);
        assert_ne!(fnv64(&base[..56]), h);
    }

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.0);
        w.put_words(&[1, 2, 3]);
        w.put_str("héllo").unwrap();
        w.put_count("list", 2).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, Section::Header);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_words(3).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_count(0).unwrap(), 2);
        r.finish().unwrap();
    }

    #[test]
    fn hostile_lengths_fail_before_allocation() {
        // A count field claiming u64::MAX (or u32::MAX) elements must be
        // rejected by comparing against the bytes present, not by
        // allocating.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, Section::Dataset);
        let err = r.get_count_u64(8).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::Invalid { .. }
            ),
            "{err:?}"
        );
        let mut r = Reader::new(&bytes, Section::Frame);
        assert_eq!(
            r.get_count(16).unwrap_err(),
            StoreError::Truncated {
                section: Section::Frame,
                needed: u64::from(u32::MAX) * 16,
                available: 4,
            }
        );
        // On encode, a length the u32 count cannot carry is an error,
        // never a silent truncation.
        let over = u32::MAX as usize + 1;
        assert_eq!(
            Writer::new().put_count("list", over).unwrap_err(),
            StoreError::TooLarge {
                what: "list",
                len: over as u64
            }
        );
        // Same for string lengths.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, Section::Dataset);
        assert!(matches!(
            r.get_str().unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn ops_round_trip_and_reject_what_put_cannot_write() {
        let ops = vec![
            UpdateOp::Insert(vec![Some(1.0), None, Some(-0.0)]),
            UpdateOp::InsertLabeled("héllo".into(), vec![Some(2.5)]),
            UpdateOp::Delete(7),
            UpdateOp::Set(3, 1, None),
            UpdateOp::Set(u32::MAX, 0, Some(f64::INFINITY)),
        ];
        let mut w = Writer::new();
        put_ops(&mut w, &ops).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, Section::Frame);
        assert_eq!(get_ops(&mut r).unwrap(), ops);
        r.finish().unwrap();
        for cut in 0..bytes.len() {
            assert!(get_ops(&mut Reader::new(&bytes[..cut], Section::Frame)).is_err());
        }
        // Tag 4, presence byte 2, a NaN cell, an id past u32.
        for bad in [
            &[4u8][..],
            &[0, 1, 0, 0, 0, 2],
            &[
                3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f,
            ],
            &[2, 0, 0, 0, 0, 1, 0, 0, 0],
        ] {
            let err = get_op(&mut Reader::new(bad, Section::Frame)).unwrap_err();
            assert!(
                matches!(err, StoreError::Invalid { .. }),
                "{bad:?}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, Section::Dynamic);
        let _ = r.get_u32().unwrap();
        assert!(matches!(
            r.finish().unwrap_err(),
            StoreError::Invalid { .. }
        ));
    }
}
