//! The rows a scoped query ranks, and what it sees of them — how a
//! constrained or subspace query runs BIG-Score / IBIG-Score on the
//! indexes a [`crate::DynamicEngine`] maintains instead of on a rebuild.
//!
//! A scope is the rebuild's dataset described in place: its rows (a
//! [`RowScope`] every scan and fill ANDs in) and the dimensions dominance
//! is judged on. A projection onto `S` changes what a row's observed
//! dimensions are, so the scorers restrict every candidate to `S`: its
//! column picks outside `S` become the all-ones column 0, its mask is
//! `mask(o) ∩ S`, and its incomparable set is `F_S(o)`, the rows sharing
//! no observed dimension with `o` *inside* `S`. The full-space `F(o)`
//! would keep rows that share only a dimension outside `S` in
//! `G = |P ∧ ¬F|`, though the projection cannot compare them.

use crate::big::Candidate;
use crate::preprocess::Preprocessed;
use std::collections::HashMap;
use tkd_bitvec::BitVec;
use tkd_index::{BitmapIndex, RowScope};
use tkd_model::{Dataset, DimMask, ObjectId};

/// A scoped query's view of an index pair's rows.
pub(crate) struct Scope {
    /// The rows ranked: live, admitted, and observing a dimension of
    /// `dims`.
    pub(crate) rows: RowScope,
    /// The dimensions dominance is judged on (every one, for a
    /// constrained query).
    pub(crate) dims: DimMask,
    /// `F_S` of the restricted masks the preprocessing keeps no set for.
    extra_f: HashMap<u64, BitVec>,
}

impl Scope {
    /// Scope to `rows` over `dims`, building `F_S` for every restricted
    /// mask `key ∩ dims` of a mask `pre` keeps a set for (every live row's
    /// is one) that `pre` does not hold itself: the rows observing no
    /// dimension of it, read off `index`'s missing columns. The sets
    /// number at most `pre`'s, and none is built when `dims` holds every
    /// dimension.
    pub(crate) fn new(
        rows: RowScope,
        dims: DimMask,
        index: &BitmapIndex,
        pre: &Preprocessed,
    ) -> Self {
        let mut extra_f = HashMap::new();
        for &key in pre.f_sets.keys() {
            let restricted = key & dims.bits();
            if restricted == 0 || pre.f_sets.contains_key(&restricted) {
                continue;
            }
            extra_f.entry(restricted).or_insert_with(|| {
                let mut f = BitVec::zeros(index.n());
                index.observing_any(DimMask::from_bits(restricted), &mut f);
                f.not_assign();
                f.and_assign(index.live_mask());
                f
            });
        }
        Scope {
            rows,
            dims,
            extra_f,
        }
    }

    /// Member `o` of `ds` as the scope sees it: observing `mask(o) ∩ S`,
    /// incomparable to `F_S(o)`.
    pub(crate) fn candidate<'a>(
        &'a self,
        ds: &Dataset,
        pre: &'a Preprocessed,
        o: ObjectId,
    ) -> Candidate<'a> {
        let mask = ds.mask(o).and(self.dims);
        let key = mask.bits();
        let f = pre.f_sets.get(&key).unwrap_or_else(|| &self.extra_f[&key]);
        Candidate {
            mask,
            member: Some(o as usize),
            f,
        }
    }
}
