//! Reusable query-time scratch buffers — the zero-allocation engine room
//! of the BIG/IBIG scoring paths.
//!
//! The paper's bit-parallel scoring (Algorithms 3 and 5) needs two dense
//! working vectors per scored object (`Q` and `P`) plus, for IBIG, the
//! epoch-stamped `nonD`/`tagT` membership tables of §4.5, and the
//! candidate's resolved column picks. Allocating those per object
//! dominates the constant factor once the index is in place, so they live
//! here: sized **once** when a context is built, then lent mutably into
//! every query; a parallel query lends one per worker thread. After
//! context build, the steady-state query path ([`crate::big::big_with_scratch`] /
//! [`crate::ibig::ibig_with_scratch`]) performs **zero heap allocations
//! per visited object** — `crates/tkd-core/tests/zero_alloc.rs` pins this
//! with a counting global allocator.
//!
//! # Invariants
//!
//! * **Length** — all buffers are sized for exactly `n` objects
//!   ([`ScratchSpace::new`]'s argument). Lending a scratch built for one
//!   dataset to a context over a different-sized dataset panics on the
//!   first fill (`length mismatch`).
//! * **No aliasing** — `q` and `p` are distinct buffers; the scoring code
//!   destructures [`ScratchSpace`] so the borrow checker proves the fused
//!   `Q − P` enumeration (reading `q`/`p`) cannot overlap the stamp-table
//!   writes.
//! * **No cross-query state** — buffer *contents* are overwritten
//!   wholesale by each fill and the stamp tables are epoch-invalidated per
//!   object, so a `ScratchSpace` carries no information between queries;
//!   reusing one across queries, `k`s, or algorithms is always sound.

use tkd_bitvec::BitVec;
use tkd_index::{BinSelection, ColumnSelection};

/// Caller-owned scratch buffers for the bit-parallel scoring paths.
///
/// See the [module docs](self) for the aliasing and length invariants.
#[derive(Clone, Debug)]
pub struct ScratchSpace {
    /// `Q = (∩ᵢ Qᵢ) − {o}` of the object currently being scored.
    pub(crate) q: BitVec,
    /// `P = ∩ᵢ Pᵢ` of the object currently being scored.
    pub(crate) p: BitVec,
    /// Epoch-stamped `nonD` / `tagT` tables (IBIG only).
    pub(crate) stamps: EpochStamps,
    /// The candidate's column picks against the exact index (BIG):
    /// resolved once, read by Heuristic 2 and the exact term.
    pub(crate) sel: ColumnSelection,
    /// The candidate's column picks against the binned index (IBIG).
    pub(crate) bin_sel: BinSelection,
}

impl ScratchSpace {
    /// Scratch for datasets of exactly `n` objects.
    pub fn new(n: usize) -> Self {
        ScratchSpace {
            q: BitVec::zeros(n),
            p: BitVec::zeros(n),
            stamps: EpochStamps::new(n),
            sel: ColumnSelection::default(),
            bin_sel: BinSelection::default(),
        }
    }

    /// The object count this scratch was sized for.
    pub fn n(&self) -> usize {
        self.q.len()
    }
}

/// Epoch-stamped per-object tables: membership in `nonD(o)` and the
/// paper's `tagT` equality counter, invalidated in `O(1)` per scored
/// object by bumping the epoch instead of clearing `O(N)` entries.
#[derive(Clone, Debug)]
pub(crate) struct EpochStamps {
    epoch: u32,
    /// `nonD` membership stamp.
    nond_stamp: Vec<u32>,
    /// Equality counter (the paper's `tagT`) and its stamp.
    tag: Vec<u32>,
    tag_stamp: Vec<u32>,
}

impl EpochStamps {
    fn new(n: usize) -> Self {
        EpochStamps {
            epoch: 0,
            nond_stamp: vec![0; n],
            tag: vec![0; n],
            tag_stamp: vec![0; n],
        }
    }

    /// Invalidate all marks. Epoch 0 is reserved as "blank", so on the
    /// (astronomically rare) wrap the tables are cleared for real.
    pub(crate) fn next_object(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.nond_stamp.fill(0);
            self.tag_stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `id` as a member of `nonD`; returns whether it was new.
    #[inline]
    pub(crate) fn mark_nond(&mut self, id: usize) -> bool {
        if self.nond_stamp[id] == self.epoch {
            false
        } else {
            self.nond_stamp[id] = self.epoch;
            true
        }
    }

    /// Is `id` marked in `nonD` for the current object?
    #[inline]
    pub(crate) fn is_nond(&self, id: usize) -> bool {
        self.nond_stamp[id] == self.epoch
    }

    /// Increment `id`'s equality counter for the current object.
    #[inline]
    pub(crate) fn bump_tag(&mut self, id: usize) {
        if self.tag_stamp[id] != self.epoch {
            self.tag_stamp[id] = self.epoch;
            self.tag[id] = 0;
        }
        self.tag[id] += 1;
    }

    /// `id`'s equality counter for the current object.
    #[inline]
    pub(crate) fn tag_of(&self, id: usize) -> u32 {
        if self.tag_stamp[id] == self.epoch {
            self.tag[id]
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_for_n() {
        let s = ScratchSpace::new(130);
        assert_eq!(s.n(), 130);
        assert_eq!(s.q.len(), 130);
        assert_eq!(s.p.len(), 130);
    }

    #[test]
    fn stamps_invalidate_per_object() {
        let mut st = EpochStamps::new(4);
        st.next_object();
        assert!(st.mark_nond(2));
        assert!(!st.mark_nond(2), "double-mark reports not-new");
        assert!(st.is_nond(2));
        st.bump_tag(1);
        st.bump_tag(1);
        assert_eq!(st.tag_of(1), 2);
        assert_eq!(st.tag_of(0), 0);
        st.next_object();
        assert!(!st.is_nond(2), "epoch bump invalidates nonD");
        assert_eq!(st.tag_of(1), 0, "epoch bump invalidates tags");
    }

    #[test]
    fn epoch_wrap_clears_tables() {
        let mut st = EpochStamps::new(2);
        st.next_object();
        st.bump_tag(0);
        assert!(st.mark_nond(0));
        st.epoch = u32::MAX; // force the wrap on the next bump
        st.next_object();
        assert_eq!(st.epoch, 1);
        assert!(!st.is_nond(0));
        assert_eq!(st.tag_of(0), 0);
        assert!(st.mark_nond(0));
    }
}
