//! Bitmap indexes over incomplete data (§4.3–4.5 of the paper).
//!
//! * [`BitmapIndex`] — the **range-encoded** index of Fig. 6: per dimension
//!   `i` with `Cᵢ` distinct observed values, `Cᵢ + 1` vertical bit-vectors
//!   (one per value plus the missing slot, which is encoded all-ones so that
//!   dominance checks reduce to ANDs).
//! * [`BinnedBitmapIndex`] — the **binned** variant of Fig. 9: one bit per
//!   value *range* instead of per value, with the adaptive quantile binning
//!   of Eq. 3–4. It is a view: per-dimension [`BinBoundaries`] over a
//!   [`BitmapIndex`], whose columns it picks at the boundaries' value
//!   slots. Nothing of its own is stored or maintained but the
//!   boundaries.
//! * [`CompressedColumns`] — any index's columns compressed with WAH or
//!   CONCISE: the paper's §4.4 storage layout for IBIG, built to be
//!   measured (Fig. 10, Table 3, Fig. 11 sizes). Queries read the dense
//!   columns; Algorithm 5's compressed intersections are not executed.
//! * [`cost`] — the §4.5 space/time model and the optimal bin count Eq. 8.
//! * [`for_each_sorted_column`] — the build-time input of the index (and
//!   of `tkd-core`'s `MaxScore` queue): each dimension sorted once, shared
//!   by every artifact built over the dataset through
//!   [`BitmapIndexBuilder`]. The boundaries are quantiles of the built
//!   index's value counts ([`BinBoundaries::build`]), read off its column
//!   popcounts. The §4.2 rank query behind `MaxScore` is no probe here: a
//!   maintained index keeps every row's value slot
//!   ([`BitmapIndex::value_slot`]), and `tkd-core` counts the whole queue
//!   from one histogram of them.
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
//! Every column keeps a per-block suffix-popcount table and the index runs
//! one budgeted AND-count over them,
//! [`BitmapIndex::q_count_selected_above`] — Heuristic 2 for BIG and, at
//! the binned picks, IBIG alike. Before the scan it consults
//! [`PairTables`]: per pair of dimensions, the joint popcounts of their
//! columns on a grid of boundary columns, derived from the columns at
//! build and load. A pick rounds down to a boundary, a superset column,
//! so one pair's entry within the budget proves the prune the scan would
//! reach; most Heuristic 2 prunes are decided there without reading a
//! column word. For a member row, both walks read the **measurement
//! memo** before either: per slot, the least bound on the row's count
//! any lookup has proven, which does not depend on τ, so a revisited row
//! whose bound fits the budget is pruned with one load. BIG's lane holds
//! the bound at the row's own exact picks
//! ([`BitmapIndex::max_bit_score_above`]); IBIG's holds it at the row's
//! binned picks beside the row's `nonD` once it has been scored, so a
//! revisited survivor's whole measurement is one load too
//! ([`BinnedBitmapIndex::member_count_above`]). Lanes are sized by the
//! walks that read them: every walk announces itself to its lane
//! ([`BitmapIndex::announce_walk`], [`BinnedBitmapIndex::announce_walk`])
//! and the second sizes it, so a build or load holds none and an index
//! walked once none either. A sized lane is unreadable from any in-place
//! op until [`BitmapIndex::derive_pair_tables`], and never persisted.
//! The scoring term of both splits `Q − P` in one fused pass of AND-NOTs
//! over the same columns, [`BitmapIndex::residue_counts`].

#![warn(missing_docs)]

mod binned;
mod bitmap;
mod compressed;
pub mod cost;
mod key;
mod memo;
mod pairs;
mod sorted_column;
mod suffix;

pub use binned::{compute_bins, BinBoundaries, BinnedBitmapIndex, MemberCount};
pub use bitmap::{BitmapIndex, BitmapIndexBuilder, ColumnSelection};
pub use compressed::CompressedColumns;
pub use key::F64Key;
pub use pairs::PairTables;
pub use sorted_column::{for_each_sorted_column, for_each_sorted_column_of};
pub use suffix::RowScope;
