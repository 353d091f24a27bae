//! Bitmap indexes over incomplete data (§4.3–4.5 of the paper).
//!
//! * [`BitmapIndex`] — the **range-encoded** index of Fig. 6: per dimension
//!   `i` with `Cᵢ` distinct observed values, `Cᵢ + 1` vertical bit-vectors
//!   (one per value plus the missing slot, which is encoded all-ones so that
//!   dominance checks reduce to ANDs).
//! * [`BinnedBitmapIndex`] — the **binned** variant of Fig. 9: one bit per
//!   value *range* instead of per value, with the adaptive quantile binning
//!   of Eq. 3–4 and per-dimension ordered sets for probing bin interiors.
//! * [`CompressedColumns`] — any index's columns compressed with WAH or
//!   CONCISE: the paper's §4.4 storage layout for IBIG, built to be
//!   measured (Fig. 10, Table 3, Fig. 11 sizes). Queries read the dense
//!   columns; Algorithm 5's compressed intersections are not executed.
//! * [`cost`] — the §4.5 space/time model and the optimal bin count Eq. 8.
//! * [`for_each_sorted_column`] — the build-time input of both indexes (and
//!   of `tkd-core`'s `MaxScore` queue): each dimension sorted once, shared
//!   by every artifact built over the dataset through
//!   [`BitmapIndexBuilder`] / [`BinnedBitmapIndexBuilder`] (both at once:
//!   [`IndexPairBuilder`]). The probe trees are bulk-filled from it;
//!   single-key inserts and the rank query
//!   ([`BitmapIndex::count_missing_or_at_least`]) belong to the dynamic
//!   maintenance path only.
//!
//! # The column encoding
//!
//! For dimension `i` with sorted distinct values `v₁ < … < v_C`, column
//! `c ∈ [0, C]` holds the object set `{p : p[i] missing ∨ p[i] > v_c}`
//! (with `v₀ = −∞`, i.e. column 0 is all-ones). For an object `o` with
//! `o[i] = v_j`, the paper's Definition 4 sets are single column lookups:
//! `[Qᵢ] = column(i, j−1)` and `[Pᵢ] = column(i, j)`, and `Q`/`P` are plain
//! word-wise intersections.
//!
//! Both indexes keep a per-block suffix-popcount table beside every
//! column and run one budgeted AND-count over them,
//! [`BitmapIndex::q_count_selected_above`] /
//! [`BinnedBitmapIndex::q_count_selected_above`] — Heuristic 2 for BIG
//! and IBIG alike.

#![warn(missing_docs)]

mod binned;
mod bitmap;
mod compressed;
pub mod cost;
mod key;
mod sorted_column;
mod suffix;

pub use binned::{compute_bins, BinSelection, BinnedBitmapIndex, BinnedBitmapIndexBuilder};
pub use bitmap::{BitmapIndex, BitmapIndexBuilder, ColumnSelection};
pub use compressed::CompressedColumns;
pub use key::F64Key;
pub use sorted_column::for_each_sorted_column;
pub use suffix::RowScope;

use tkd_model::ObjectId;

/// The exact *and* the binned index of one dataset, assembled together:
/// every sorted column ([`for_each_sorted_column`]) is pushed into both
/// builders, so an engine that serves BIG and IBIG over the same rows
/// sorts each dimension once.
#[derive(Debug)]
pub struct IndexPairBuilder<'a> {
    exact: BitmapIndexBuilder,
    binned: BinnedBitmapIndexBuilder<'a>,
}

impl<'a> IndexPairBuilder<'a> {
    /// Start both indexes over `n` objects, with `bins_per_dim[i]` bins
    /// requested for dimension `i` of the binned one.
    pub fn new(bins_per_dim: &'a [usize], n: usize) -> Self {
        IndexPairBuilder {
            exact: BitmapIndexBuilder::new(bins_per_dim.len(), n),
            binned: BinnedBitmapIndexBuilder::new(bins_per_dim, n),
        }
    }

    /// Add dimension `dim` to both indexes from its sorted column.
    pub fn push_dim(&mut self, dim: usize, column: &[(f64, ObjectId)]) {
        self.exact.push_dim(dim, column);
        self.binned.push_dim(dim, column);
    }

    /// Finish both indexes.
    pub fn finish(self) -> (BitmapIndex, BinnedBitmapIndex) {
        (self.exact.finish(), self.binned.finish())
    }
}
