//! Reusable query-time scratch buffers — the zero-allocation engine room
//! of the BIG/IBIG scoring paths.
//!
//! The paper's bit-parallel scoring (Algorithms 3 and 5) needs two dense
//! working vectors per scored object (`Q` and `P`) and the candidate's
//! resolved column picks. Allocating those per object dominates the
//! constant factor once the index is in place, so they live here: sized
//! **once** when a context is built, then lent mutably into every query;
//! a parallel query lends one per worker thread. After context build, the
//! steady-state query path ([`crate::big::big_with_scratch`] /
//! [`crate::ibig::ibig_with_scratch`]) performs **zero heap allocations
//! per visited object** — `crates/tkd-core/tests/zero_alloc.rs` pins this
//! with a counting global allocator. IBIG's `nonD`/`tagT` bookkeeping of
//! §4.5 needs no table here: `nonD` is counted in one fused pass over the
//! index's columns ([`tkd_index::BitmapIndex::residue_counts`]).
//!
//! # Invariants
//!
//! * **Length** — both buffers are sized for exactly `n` objects
//!   ([`ScratchSpace::new`]'s argument). Lending a scratch built for one
//!   dataset to a context over a different-sized dataset panics on the
//!   first fill (`length mismatch`).
//! * **No aliasing** — `q` and `p` are distinct buffers, filled before
//!   the residue pass reads them both.
//! * **No cross-query state** — buffer *contents* are overwritten
//!   wholesale by each fill, so a `ScratchSpace` carries no information
//!   between queries; reusing one across queries, `k`s, or algorithms is
//!   always sound.

use tkd_bitvec::BitVec;
use tkd_index::ColumnSelection;

/// Caller-owned scratch buffers for the bit-parallel scoring paths.
///
/// See the [module docs](self) for the aliasing and length invariants.
#[derive(Clone, Debug)]
pub struct ScratchSpace {
    /// `Q = (∩ᵢ Qᵢ) − {o}` of the object currently being scored.
    pub(crate) q: BitVec,
    /// `P = ∩ᵢ Pᵢ` of the object currently being scored.
    pub(crate) p: BitVec,
    /// The candidate's exact column picks: BIG's `Q`/`P`, and the value
    /// slots IBIG's residue pass compares against.
    pub(crate) sel: ColumnSelection,
    /// The candidate's binned column picks (IBIG's `Q`/`P`).
    pub(crate) bin_sel: ColumnSelection,
}

impl ScratchSpace {
    /// Scratch for datasets of exactly `n` objects.
    pub fn new(n: usize) -> Self {
        ScratchSpace {
            q: BitVec::zeros(n),
            p: BitVec::zeros(n),
            sel: ColumnSelection::default(),
            bin_sel: ColumnSelection::default(),
        }
    }

    /// The object count this scratch was sized for.
    pub fn n(&self) -> usize {
        self.q.len()
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
}
