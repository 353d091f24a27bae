//! The rows a scoped query ranks, and what it sees of them — how a
//! constrained or subspace query runs BIG-Score / IBIG-Score on the
//! indexes a [`crate::DynamicEngine`] maintains instead of on a rebuild.
//!
//! A scope is the rebuild's dataset described in place: its rows (a
//! [`RowScope`] every scan and fill ANDs in) and the dimensions dominance
//! is judged on. A projection onto `S` changes what a row's observed
//! dimensions are, so the scorers restrict every candidate to `S`: its
//! column picks outside `S` become the all-ones column 0, its mask is
//! `mask(o) ∩ S`, and its incomparable count is `|F_S(o)|`, the scope
//! rows sharing no observed dimension with `o` *inside* `S` — read off a
//! count of the scope rows per restricted mask `mask ∩ S`. The full-space
//! `F(o)` would keep rows that share only a dimension outside `S` in
//! `G = |P| − |F|`, though the projection cannot compare them.

use crate::big::Candidate;
use crate::preprocess::MaskCounts;
use tkd_index::RowScope;
use tkd_model::{DimMask, ObjectId};

/// A scoped query's view of an index pair's rows.
pub(crate) struct Scope {
    /// The rows ranked: live, admitted, and observing a dimension of
    /// `dims`.
    pub(crate) rows: RowScope,
    /// The dimensions dominance is judged on (every one, for a
    /// constrained query).
    pub(crate) dims: DimMask,
    /// The rows' count per observation mask restricted to `dims`.
    masks: MaskCounts,
}

impl Scope {
    /// Scope to the rows in `rows` over `dims`, counting them per
    /// restricted mask `mask ∩ dims` (`masks` holds every row's mask).
    pub(crate) fn new(rows: RowScope, dims: DimMask, masks: &[DimMask]) -> Self {
        let restricted = rows.bits().iter_ones().map(|s| masks[s].and(dims));
        Scope {
            masks: MaskCounts::of(restricted),
            rows,
            dims,
        }
    }

    /// Member `o` of the rows whose masks are `masks` as the scope sees
    /// it: observing `mask(o) ∩ S`, incomparable to `F_S(o)`.
    pub(crate) fn candidate(&self, masks: &[DimMask], o: ObjectId) -> Candidate {
        let mask = masks[o as usize].and(self.dims);
        Candidate {
            mask,
            member: Some(o as usize),
            f: self.masks.incomparable(mask),
        }
    }
}
