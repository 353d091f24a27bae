//! Per-section payload codecs.
//!
//! Each function pair is a bijection between one component's logical
//! state and its canonical byte form: `decode(encode(x))` restores `x`,
//! and `encode(decode(b))` reproduces `b` byte for byte (the golden-file
//! pin). Canonical form means: fixed field order, little-endian
//! everywhere, `BitVec`s as `(bit length, word array)`, hash maps sorted
//! by key, missing cells as the canonical NaN.

use crate::error::StoreError;
use crate::wire::{Reader, Writer};
use std::collections::HashMap;
use tkd_bitvec::{BitVec, Tombstones, Words};
use tkd_core::dynamic::DynamicPartsRef;
use tkd_core::{BinChoice, CompactionPolicy, Preprocessed, UpdateStats};
use tkd_index::{BinBoundaries, BitmapIndex};
use tkd_model::{Dataset, DimMask, ObjectId};

// ----- bit vectors --------------------------------------------------------

/// `(pad to 8 · bit length: u64, words: ceil(len/64) × u64)` — the
/// 8-aligned layout (v2) that lets columns load as borrowed views of the
/// file buffer, or at worst by bulk copy.
pub fn encode_bitvec(w: &mut Writer, bv: &BitVec) {
    w.align8();
    w.put_u64(bv.len() as u64);
    w.put_words(bv.as_words());
}

/// Inverse of [`encode_bitvec`]; rejects word counts that outrun the
/// payload *before* allocating ([`Reader::get_word_slab`] bounds-checks
/// the byte range first), and non-canonical padding. With a shared
/// backing attached to `r`, the returned column **borrows** the file
/// buffer (promoted to owned on first mutation).
pub fn decode_bitvec(r: &mut Reader<'_>) -> Result<BitVec, StoreError> {
    r.align8()?;
    let len = r.get_u64()?;
    let len = usize::try_from(len).map_err(|_| r.invalid("bit length exceeds usize"))?;
    match r.get_word_slab(len.div_ceil(64))? {
        Words::Shared(view) => BitVec::from_shared(view, len).map_err(|e| r.invalid(e)),
        Words::Owned(words) => BitVec::from_words(words, len).map_err(|e| r.invalid(e)),
    }
}

// ----- dataset ------------------------------------------------------------

/// `dims u32 · n u64 · pad to 8 · masks n×u64 · values n·dims×f64 ·
/// has_labels u8 [· labels n×str]`.
pub fn encode_dataset(w: &mut Writer, ds: &Dataset) {
    w.put_u32(ds.dims() as u32);
    w.put_u64(ds.len() as u64);
    w.align8();
    for &m in ds.masks() {
        w.put_u64(m.bits());
    }
    for &v in ds.raw_values() {
        w.put_f64(v);
    }
    match ds.labels() {
        None => w.put_u8(0),
        Some(labels) => {
            w.put_u8(1);
            for l in labels {
                w.put_str(l).expect("label length fits u32");
            }
        }
    }
}

/// Inverse of [`encode_dataset`], re-validated through
/// [`Dataset::from_raw_parts`] / [`Dataset::from_shared_parts`]. With a
/// shared backing attached to `r`, both slabs (masks and values) are
/// **borrowed** views of the file buffer.
pub fn decode_dataset(r: &mut Reader<'_>) -> Result<Dataset, StoreError> {
    let dims = r.get_u32()? as usize;
    if dims == 0 || dims > tkd_model::MAX_DIMS {
        return Err(r.invalid(format!("bad dimensionality {dims}")));
    }
    let n = r.get_count_u64(8 * (1 + dims))?; // each row needs a mask + dims values
    r.align8()?;
    let mask_words = r.get_word_slab(n)?;
    let value_words = r.get_word_slab(n * dims)?;
    let labels = match r.get_u8()? {
        0 => None,
        1 => {
            let mut ls = Vec::with_capacity(n.min(r.remaining() / 4));
            for _ in 0..n {
                ls.push(r.get_str()?);
            }
            Some(ls)
        }
        other => return Err(r.invalid(format!("bad labels tag {other}"))),
    };
    match (value_words, mask_words) {
        (Words::Shared(values), Words::Shared(masks)) => {
            Dataset::from_shared_parts(dims, values, masks, labels)
        }
        (values, masks) => {
            let masks: Vec<DimMask> = masks
                .as_slice()
                .iter()
                .map(|&w| DimMask::from_bits(w))
                .collect();
            let values: Vec<f64> = values
                .as_slice()
                .iter()
                .map(|&w| f64::from_bits(w))
                .collect();
            Dataset::from_raw_parts(dims, values, masks, labels)
        }
    }
    .map_err(|e| r.invalid(e.to_string()))
}

// ----- bitmap index -------------------------------------------------------

/// `dims u32 · n u64 · live bitvec · per dim (card u64 · values · ncols
/// u64 · columns) · slots n·dims×u32`.
pub fn encode_bitmap(w: &mut Writer, idx: &BitmapIndex) {
    w.put_u32(idx.dims() as u32);
    w.put_u64(idx.n() as u64);
    encode_bitvec(w, idx.live_mask());
    for d in 0..idx.dims() {
        let vals = idx.values(d);
        w.put_u64(vals.len() as u64);
        for &v in vals {
            w.put_f64(v);
        }
        w.put_u64(idx.num_columns(d) as u64);
        for c in 0..idx.num_columns(d) {
            encode_bitvec(w, idx.column(d, c));
        }
    }
    for o in 0..idx.n() {
        for d in 0..idx.dims() {
            w.put_u32(idx.value_slot(o, d));
        }
    }
}

/// Inverse of [`encode_bitmap`], re-validated through
/// [`BitmapIndex::from_store_parts`] (suffix tables recomputed).
pub fn decode_bitmap(r: &mut Reader<'_>) -> Result<BitmapIndex, StoreError> {
    let dims = r.get_u32()? as usize;
    if dims == 0 || dims > tkd_model::MAX_DIMS {
        return Err(r.invalid(format!("bad dimensionality {dims}")));
    }
    let n = r.get_u64()?;
    let n = usize::try_from(n).map_err(|_| r.invalid("n exceeds usize"))?;
    let live = decode_bitvec(r)?;
    if live.len() != n {
        return Err(r.invalid(format!("live mask has {} bits for n={n}", live.len())));
    }
    let mut values = Vec::with_capacity(dims);
    let mut columns = Vec::with_capacity(dims);
    for _ in 0..dims {
        let card = r.get_count_u64(8)?;
        let vals: Vec<f64> = r.get_words(card)?.into_iter().map(f64::from_bits).collect();
        let ncols = r.get_count_u64(8)?; // each column is ≥ 8 bytes (its length)
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            cols.push(decode_bitvec(r)?);
        }
        values.push(vals);
        columns.push(cols);
    }
    let slots_len = n
        .checked_mul(dims)
        .ok_or_else(|| r.invalid("n × dims overflows"))?;
    let mut slots = Vec::with_capacity(slots_len.min(r.remaining() / 4 + 1));
    for _ in 0..slots_len {
        slots.push(r.get_u32()?);
    }
    BitmapIndex::from_store_parts(
        dims,
        values,
        columns,
        slots,
        Tombstones::from_live_mask(live),
    )
    .map_err(|e| r.invalid(e))
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

// ----- preprocessed -------------------------------------------------------

/// `n u64 · nsets u64 · (mask u64 ascending · bitvec) entries` — the
/// incomparable sets only: the `MaxScore` queue is recounted at load.
pub fn encode_pre(w: &mut Writer, n: usize, pre: &Preprocessed) {
    w.put_u64(n as u64);
    let mut keys: Vec<u64> = pre.f_sets().keys().copied().collect();
    keys.sort_unstable(); // canonical: the map's order never leaks
    w.put_u64(keys.len() as u64);
    for k in keys {
        w.put_u64(k);
        encode_bitvec(w, &pre.f_sets()[&k]);
    }
}

/// Inverse of [`encode_pre`]; enforces strictly ascending mask keys (the
/// canonical form) and per-set bit lengths of `n`. The queue comes back
/// empty.
pub fn decode_pre(r: &mut Reader<'_>) -> Result<(usize, Preprocessed), StoreError> {
    let n = r.get_u64()?;
    let n = usize::try_from(n).map_err(|_| r.invalid("n exceeds usize"))?;
    let nsets = r.get_count_u64(16)?; // mask u64 + bit length u64 minimum
    let mut f_sets = HashMap::with_capacity(nsets);
    let mut last: Option<u64> = None;
    for _ in 0..nsets {
        let mask = r.get_u64()?;
        if last.is_some_and(|p| p >= mask) {
            return Err(r.invalid("incomparable-set masks are not strictly ascending"));
        }
        last = Some(mask);
        let bv = decode_bitvec(r)?;
        if bv.len() != n {
            return Err(r.invalid(format!(
                "incomparable set of mask {mask:#x} has {} bits for n={n}",
                bv.len()
            )));
        }
        f_sets.insert(mask, bv);
    }
    Ok((n, Preprocessed::from_parts(f_sets)))
}

// ----- dynamic meta -------------------------------------------------------

/// The non-artifact remainder of [`tkd_core::DynamicParts`].
pub struct DynamicMeta {
    /// Slot → stable id.
    pub stable_of: Vec<ObjectId>,
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

/// `next_id u32 · nslots u64 · stable ids u32 · bins (tag u8 + payload) ·
/// policy (f64 + u64) · epoch u64 · stats 4×u64`.
pub fn encode_dynamic(w: &mut Writer, parts: &DynamicPartsRef<'_>) {
    w.put_u32(parts.next_id);
    w.put_u64(parts.stable_of.len() as u64);
    for &id in parts.stable_of {
        w.put_u32(id);
    }
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

/// Inverse of [`encode_dynamic`].
pub fn decode_dynamic(r: &mut Reader<'_>) -> Result<DynamicMeta, StoreError> {
    let next_id = r.get_u32()?;
    let nslots = r.get_count_u64(4)?;
    let mut stable_of = Vec::with_capacity(nslots);
    for _ in 0..nslots {
        stable_of.push(r.get_u32()?);
    }
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
