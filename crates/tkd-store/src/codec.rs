//! Per-section payload codecs.
//!
//! Each function pair is a bijection between one component's logical
//! state and its canonical byte form: `decode(encode(x))` restores `x`,
//! and `encode(decode(b))` reproduces `b` byte for byte (the golden-file
//! pin). Canonical form means: fixed field order, little-endian
//! everywhere, `BitVec`s as `(bit length, word array)`, value slots in
//! the narrowest width that holds them. Nothing derived is encoded: the
//! exact index, the rows' masks and the count per observation mask are
//! rebuilt from the stored slots and the live mask at load.

use crate::error::StoreError;
use crate::wire::{Reader, Writer};
use tkd_bitvec::BitVec;
use tkd_core::dynamic::DynamicPartsRef;
use tkd_core::{BinChoice, CompactionPolicy, UpdateStats};
use tkd_index::BinBoundaries;
use tkd_model::ObjectId;

// ----- bit vectors --------------------------------------------------------

/// `bit length u64 · words ceil(len/64) × u64`.
pub fn encode_bitvec(w: &mut Writer, bv: &BitVec) {
    w.put_u64(bv.len() as u64);
    w.put_words(bv.as_words());
}

/// Inverse of [`encode_bitvec`]; rejects word counts that outrun the
/// payload *before* allocating ([`Reader::get_words`] bounds-checks the
/// byte range first), and non-canonical padding.
pub fn decode_bitvec(r: &mut Reader<'_>) -> Result<BitVec, StoreError> {
    let len = r.get_u64()?;
    let len = usize::try_from(len).map_err(|_| r.invalid("bit length exceeds usize"))?;
    let words = r.get_words(len.div_ceil(64))?;
    BitVec::from_words(words, len).map_err(|e| r.invalid(e))
}

// ----- dataset ------------------------------------------------------------

/// Bytes per stored value slot: the narrowest of 1, 2 and 4 that holds
/// the largest cardinality (a slot is at most its table's length).
fn slot_width(max_cardinality: usize) -> usize {
    if max_cardinality <= usize::from(u8::MAX) {
        1
    } else if max_cardinality <= usize::from(u16::MAX) {
        2
    } else {
        4
    }
}

/// `dims u32 · n u64 · per dim (card u64 · values card×f64) · width u8 ·
/// slots n·dims×width · nzeros u64 · positions nzeros×u64 · has_labels u8
/// [· labels n×str]` — the rows dictionary-encoded against the exact
/// index's value tables (values without holders included). A slot is
/// 1-based into its dimension's table, 0 for a missing cell; the
/// positions (`row · dims + dim`, ascending) name the cells holding
/// −0.0, whose table entry is +0.0. The slots are the index's own slot
/// table and the positions the engine's sign list, each written in one
/// pass: no value is read.
pub fn encode_dataset(w: &mut Writer, parts: &DynamicPartsRef<'_>) {
    let index = parts.index;
    let dims = index.dims();
    w.put_u32(dims as u32);
    w.put_u64(index.n() as u64);
    for d in 0..dims {
        let vals = index.values(d);
        w.put_u64(vals.len() as u64);
        for &v in vals {
            w.put_f64(v);
        }
    }
    let max_cardinality = (0..dims).map(|d| index.cardinality(d)).max();
    let width = slot_width(max_cardinality.unwrap_or(0));
    w.put_u8(width as u8);
    w.put_narrow(index.slot_table(), width);
    w.put_u64(parts.neg_zeros.len() as u64);
    for &at in parts.neg_zeros {
        w.put_u64(at as u64);
    }
    match parts.labels {
        None => w.put_u8(0),
        Some(labels) => {
            w.put_u8(1);
            for l in labels {
                w.put_str(l).expect("label length fits u32");
            }
        }
    }
}

/// A decoded dataset section: the rows as the engine keeps them.
pub struct DecodedDataset {
    /// Per dimension, the exact index's value table.
    pub values: Vec<Vec<f64>>,
    /// Row-major `n × dims` value slots, 0 = missing.
    pub slots: Vec<u32>,
    /// The cells holding −0.0, as `row · dims + dim`.
    pub neg_zeros: Vec<usize>,
    /// One label per row, when the rows are labeled.
    pub labels: Option<Vec<String>>,
}

/// Inverse of [`encode_dataset`]: the stored slots are widened to the
/// index's slot table in one pass, and no value is read off a table. A
/// width other than the canonical one is rejected here; the rest is
/// checked where the engine adopts the parts
/// ([`tkd_core::DynamicEngine::from_store_parts`]): a slot past its
/// table, tables that are not strictly ascending, a row without an
/// observed cell, and a −0.0 position out of range, out of order or on a
/// cell other than an observed zero.
pub fn decode_dataset(r: &mut Reader<'_>) -> Result<DecodedDataset, StoreError> {
    let dims = r.get_u32()? as usize;
    if dims == 0 || dims > tkd_model::MAX_DIMS {
        return Err(r.invalid(format!("bad dimensionality {dims}")));
    }
    let n = r.get_u64()?;
    let cells = usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(dims))
        .ok_or_else(|| r.invalid(format!("{n} rows × {dims} dims overflows")))?;
    let mut tables = Vec::with_capacity(dims);
    for _ in 0..dims {
        let card = r.get_count_u64(8)?;
        tables.push(r.get_words(card)?.into_iter().map(f64::from_bits).collect());
    }
    let max_cardinality = tables.iter().map(Vec::len).max().unwrap_or(0);
    let width = usize::from(r.get_u8()?);
    if width != slot_width(max_cardinality) {
        return Err(r.invalid(format!(
            "slot width {width} for a largest cardinality of {max_cardinality}"
        )));
    }
    let bytes = cells
        .checked_mul(width)
        .ok_or_else(|| r.invalid("slot table size overflows"))?;
    let raw = r.get_bytes(bytes)?;
    let slots = match width {
        1 => raw.iter().map(|&b| u32::from(b)).collect(),
        2 => widen::<2>(raw),
        _ => widen::<4>(raw),
    };
    let nzeros = r.get_count_u64(8)?;
    let mut neg_zeros = Vec::with_capacity(nzeros);
    for _ in 0..nzeros {
        let at = r.get_u64()?;
        let at = usize::try_from(at).map_err(|_| r.invalid(format!("−0.0 position {at}")))?;
        neg_zeros.push(at);
    }
    let labels = match r.get_u8()? {
        0 => None,
        1 => {
            let rows = cells / dims;
            let mut ls = Vec::with_capacity(rows.min(r.remaining() / 4));
            for _ in 0..rows {
                ls.push(r.get_str()?);
            }
            Some(ls)
        }
        other => return Err(r.invalid(format!("bad labels tag {other}"))),
    };
    Ok(DecodedDataset {
        values: tables,
        slots,
        neg_zeros,
        labels,
    })
}

/// `W`-byte little-endian slots, widened to `u32`.
fn widen<const W: usize>(raw: &[u8]) -> Vec<u32> {
    let slot = |cell: &[u8]| {
        let mut le = [0u8; 4];
        le[..W].copy_from_slice(cell);
        u32::from_le_bytes(le)
    };
    raw.chunks_exact(W).map(slot).collect()
}

// ----- bin boundaries ----------------------------------------------------

/// `dims u32 · per dim (nbins u64 · boundaries nbins×f64)` — the binned
/// index is a view of the exact one, so its boundaries are all it stores.
pub fn encode_boundaries(w: &mut Writer, bins: &BinBoundaries) {
    w.put_u32(bins.dims() as u32);
    for d in 0..bins.dims() {
        w.put_u64(bins.of(d).len() as u64);
        for &v in bins.of(d) {
            w.put_f64(v);
        }
    }
}

/// Inverse of [`encode_boundaries`] for an index of `dims` dimensions;
/// their order is checked where the engine adopts them
/// ([`BinBoundaries::from_store_parts`]).
pub fn decode_boundaries(r: &mut Reader<'_>, dims: usize) -> Result<Vec<Vec<f64>>, StoreError> {
    let stored = r.get_u32()? as usize;
    if stored != dims {
        return Err(r.invalid(format!(
            "{stored} boundary sets for a {dims}-dimensional index"
        )));
    }
    let mut bounds = Vec::with_capacity(dims);
    for _ in 0..dims {
        let nbins = r.get_count_u64(8)?;
        let words = r.get_words(nbins)?;
        bounds.push(words.into_iter().map(f64::from_bits).collect());
    }
    Ok(bounds)
}

// ----- dynamic meta -------------------------------------------------------

/// The bookkeeping of [`tkd_core::DynamicParts`].
pub struct DynamicMeta {
    /// Slot → stable id.
    pub stable_of: Vec<ObjectId>,
    /// The live mask.
    pub live: BitVec,
    /// Next stable id.
    pub next_id: ObjectId,
    /// Bin selection.
    pub bins: BinChoice,
    /// Compaction policy.
    pub policy: CompactionPolicy,
    /// Compaction epoch.
    pub epoch: u64,
    /// Lifetime counters.
    pub stats: UpdateStats,
}

/// `next_id u32 · nslots u64 · stable-id gaps (LEB128 each) · live bitvec
/// · bins (tag u8 + payload) · policy (f64 + u64) · epoch u64 · stats
/// 4×u64`. The ids ascend strictly, so each is stored as its gap over the
/// previous id plus one (the first over 0): a dense id range is one byte
/// per slot.
pub fn encode_dynamic(w: &mut Writer, parts: &DynamicPartsRef<'_>) {
    w.put_u32(parts.next_id);
    w.put_u64(parts.stable_of.len() as u64);
    let mut least = 0;
    for &id in parts.stable_of {
        debug_assert!(id >= least, "stable ids ascend strictly");
        put_leb128(w, id - least);
        least = id.wrapping_add(1);
    }
    encode_bitvec(w, parts.index.live_mask());
    match parts.bins {
        BinChoice::Auto => w.put_u8(0),
        BinChoice::Fixed(x) => {
            w.put_u8(1);
            w.put_u64(*x as u64);
        }
        BinChoice::PerDim(v) => {
            w.put_u8(2);
            w.put_u64(v.len() as u64);
            for &x in v {
                w.put_u64(x as u64);
            }
        }
    }
    w.put_f64(parts.policy.max_tombstone_fraction);
    w.put_u64(parts.policy.min_dead as u64);
    w.put_u64(parts.epoch);
    w.put_u64(parts.stats.inserts as u64);
    w.put_u64(parts.stats.deletes as u64);
    w.put_u64(parts.stats.cell_updates as u64);
    w.put_u64(parts.stats.compactions as u64);
}

/// `v` as unsigned LEB128: seven bits a byte, least significant first,
/// the high bit set on every byte but the last.
fn put_leb128(w: &mut Writer, mut v: u32) {
    while v >= 0x80 {
        w.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    w.put_u8(v as u8);
}

/// Inverse of [`put_leb128`]. Only the shortest encoding of a `u32` is
/// accepted: a last byte of 0 after the first is over-long, and bits past
/// 32 overflow.
fn get_leb128(r: &mut Reader<'_>) -> Result<u32, StoreError> {
    let mut v = 0u32;
    for shift in (0..32).step_by(7) {
        let byte = r.get_u8()?;
        let bits = u32::from(byte & 0x7f);
        // The fifth byte holds bits 28..32 of the value: four bits.
        if shift == 28 && bits > 0x0f {
            return Err(r.invalid("LEB128 value overflows u32"));
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(r.invalid("over-long LEB128 encoding"));
            }
            return Ok(v);
        }
    }
    Err(r.invalid("LEB128 value overflows u32"))
}

/// Inverse of [`encode_dynamic`].
pub fn decode_dynamic(r: &mut Reader<'_>) -> Result<DynamicMeta, StoreError> {
    let next_id = r.get_u32()?;
    // A gap takes at least one byte.
    let nslots = r.get_count_u64(1)?;
    let mut stable_of = Vec::with_capacity(nslots);
    let mut least = 0u64;
    for _ in 0..nslots {
        let id = least + u64::from(get_leb128(r)?);
        let id = ObjectId::try_from(id).map_err(|_| r.invalid("stable-id gap overflows u32"))?;
        stable_of.push(id);
        least = u64::from(id) + 1;
    }
    let live = decode_bitvec(r)?;
    let bins = match r.get_u8()? {
        0 => BinChoice::Auto,
        1 => {
            let x = r.get_u64()?;
            BinChoice::Fixed(usize::try_from(x).map_err(|_| r.invalid("bin count overflow"))?)
        }
        2 => {
            let len = r.get_count_u64(8)?;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                let x = r.get_u64()?;
                v.push(usize::try_from(x).map_err(|_| r.invalid("bin count overflow"))?);
            }
            BinChoice::PerDim(v)
        }
        other => return Err(r.invalid(format!("bad bin-choice tag {other}"))),
    };
    let max_tombstone_fraction = r.get_f64()?;
    if max_tombstone_fraction.is_nan() {
        return Err(r.invalid("NaN compaction threshold"));
    }
    let min_dead = r.get_u64()?;
    let min_dead = usize::try_from(min_dead).map_err(|_| r.invalid("min_dead overflow"))?;
    let epoch = r.get_u64()?;
    let mut counters = [0usize; 4];
    for c in &mut counters {
        let raw = r.get_u64()?;
        *c = usize::try_from(raw).map_err(|_| r.invalid("counter overflow"))?;
    }
    Ok(DynamicMeta {
        stable_of,
        live,
        next_id,
        bins,
        policy: CompactionPolicy {
            max_tombstone_fraction,
            min_dead,
        },
        epoch,
        stats: UpdateStats {
            inserts: counters[0],
            deletes: counters[1],
            cell_updates: counters[2],
            compactions: counters[3],
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Section;

    fn leb128(bytes: &[u8]) -> Result<u32, StoreError> {
        let mut r = Reader::new(bytes, Section::Dynamic);
        let v = get_leb128(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn leb128_round_trips_in_the_fewest_bytes() {
        for (v, len) in [
            (0, 1),
            (1, 1),
            (0x7f, 1),
            (0x80, 2),
            (0x3fff, 2),
            (0x4000, 3),
            (0x1f_ffff, 3),
            (0x20_0000, 4),
            (0x0fff_ffff, 4),
            (0x1000_0000, 5),
            (u32::MAX, 5),
        ] {
            let mut w = Writer::new();
            put_leb128(&mut w, v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), len, "{v:#x}");
            assert_eq!(leb128(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn leb128_refuses_over_long_and_overflowing_encodings() {
        for bytes in [
            &[0x80, 0x00][..],
            &[0xff, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x00],
            &[0xff, 0xff, 0xff, 0xff, 0x10],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
        ] {
            assert!(
                matches!(leb128(bytes), Err(StoreError::Invalid { .. })),
                "{bytes:x?}"
            );
        }
        assert!(matches!(leb128(&[0x80]), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn slot_width_is_the_narrowest_that_holds_every_slot() {
        for (max_cardinality, width) in [
            (0, 1),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            (u32::MAX as usize, 4),
        ] {
            assert_eq!(slot_width(max_cardinality), width, "{max_cardinality}");
        }
    }
}
