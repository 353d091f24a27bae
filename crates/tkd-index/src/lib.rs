//! Bitmap indexes over incomplete data (§4.3–4.5 of the paper).
//!
//! * [`BitmapIndex`] — the **range-encoded** index of Fig. 6: per dimension
//!   `i` with `Cᵢ` distinct observed values, `Cᵢ + 1` vertical bit-vectors
//!   (one per value plus the missing slot, which is encoded all-ones so that
//!   dominance checks reduce to ANDs).
//! * [`BinnedBitmapIndex`] — the **binned** variant of Fig. 9: one bit per
//!   value *range* instead of per value, with the adaptive quantile binning
//!   of Eq. 3–4 and per-dimension B+-trees for probing bin interiors.
//! * [`CompressedColumns`] — any index's columns compressed with WAH or
//!   CONCISE (the storage layout IBIG uses).
//! * [`cost`] — the §4.5 space/time model and the optimal bin count Eq. 8.
//! * [`for_each_sorted_column`] — the build-time input of both indexes (and
//!   of `tkd-core`'s `MaxScore` queue): each dimension of an id range
//!   sorted once, shared by every artifact built over that range through
//!   [`BitmapIndexBuilder`] / [`BinnedBitmapIndexBuilder`]. The probe
//!   B+-trees are bulk-loaded from it; rank probes and tree inserts belong
//!   to the dynamic maintenance path only.
//!
//! # The column encoding
//!
//! For dimension `i` with sorted distinct values `v₁ < … < v_C`, column
//! `c ∈ [0, C]` holds the object set `{p : p[i] missing ∨ p[i] > v_c}`
//! (with `v₀ = −∞`, i.e. column 0 is all-ones). For an object `o` with
//! `o[i] = v_j`, the paper's Definition 4 sets are single column lookups:
//! `[Qᵢ] = column(i, j−1)` and `[Pᵢ] = column(i, j)`, and `Q`/`P` are plain
//! word-wise intersections.

#![warn(missing_docs)]

mod binned;
mod bitmap;
mod compressed;
pub mod cost;
mod sorted_column;

pub use binned::{compute_bins, BinSelection, BinnedBitmapIndex, BinnedBitmapIndexBuilder};
pub use bitmap::{BitmapIndex, BitmapIndexBuilder, ColumnSelection};
pub use compressed::CompressedColumns;
pub use sorted_column::for_each_sorted_column;

use tkd_bitvec::BitVec;
use tkd_model::MAX_DIMS;

/// Intersect one selected column per dimension into `dst` — the shared
/// scratch-fill of both indexes' `q_into`/`p_into`. `col_idx(dim)` names
/// the selected column; column 0 is skipped as the intersection identity,
/// and when *every* pick is column 0 the result is `fallback` — all-ones
/// on static indexes, the live mask (`BitmapIndex`) or the
/// tombstone-aware column 0 (`BinnedBitmapIndex`) on dynamic ones.
///
/// # Panics
/// Panics if `dst`'s length differs from the columns'.
pub(crate) fn intersect_selected_into(
    columns: &[Vec<BitVec>],
    col_idx: impl Fn(usize) -> usize,
    fallback: &BitVec,
    dst: &mut BitVec,
) {
    let mut cols: [&BitVec; MAX_DIMS] = [fallback; MAX_DIMS];
    let mut m = 0;
    for (dim, dim_cols) in columns.iter().enumerate() {
        let c = col_idx(dim);
        if c > 0 {
            cols[m] = &dim_cols[c];
            m += 1;
        }
    }
    if m == 0 {
        dst.copy_from(fallback);
    } else {
        BitVec::intersect_into(dst, &cols[..m]);
    }
}
