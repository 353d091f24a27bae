//! Query-independent preprocessing shared by the index-guided algorithms.

use crate::maxscore::{max_scores_sharing, queue_from_scores};
use std::collections::HashMap;
use tkd_bitvec::BitVec;
use tkd_model::{stats, Dataset, ObjectId};

/// The shared preprocessing artifacts of the paper's Table 3 "MaxScore"
/// column: the descending-`MaxScore` priority queue `F` (Fig. 5) and the
/// per-mask incomparable sets `F(o)` as dense bit vectors.
///
/// [`BigContext`](crate::big::BigContext) and
/// [`IbigContext`](crate::ibig::IbigContext) both need these; building one
/// `Preprocessed` and lending it to several contexts via their `build_with`
/// constructors avoids double-paying the queue construction — one sort
/// per dimension plus a linear `|Tᵢ|` sweep, see [`crate::maxscore`] —
/// when algorithms are compared on the same dataset (as every benchmark
/// does). The contexts' own `build` constructors go one step further and
/// feed the queue and their index from the *same* sorted columns.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// Crate-visible so the dynamic update layer (`crate::dynamic`) can
    /// recount the queue in place.
    pub(crate) queue: Vec<(ObjectId, usize)>,
    /// Keyed by observation-mask bits; crate-visible for the same reason
    /// (inserts push a bit into every set, deletes clear one).
    pub(crate) f_sets: HashMap<u64, BitVec>,
}

impl Preprocessed {
    /// Run the shared preprocessing for `ds`.
    pub fn build(ds: &Dataset) -> Self {
        Self::build_sharing(ds, |_, _| {})
    }

    /// [`Preprocessed::build`] that lends each of `ds`'s sorted columns
    /// to `also` as well — how a context build feeds its
    /// index builder(s) and the queue from one sort per dimension.
    pub(crate) fn build_sharing(ds: &Dataset, also: impl FnMut(usize, &[(f64, ObjectId)])) -> Self {
        Preprocessed {
            queue: queue_from_scores(max_scores_sharing(ds, also)),
            f_sets: incomparable_bitvecs(ds),
        }
    }

    /// The artifacts from their incomparable sets alone, beside an empty
    /// queue that a `DynamicEngine` recounts — how its builds and
    /// snapshot loads assemble them. Invariant validation lives with the
    /// caller that knows the dataset — see
    /// `DynamicEngine::from_store_parts`.
    pub fn from_parts(f_sets: HashMap<u64, BitVec>) -> Self {
        Preprocessed {
            queue: Vec::new(),
            f_sets,
        }
    }

    /// The priority queue `F`: all objects by descending `MaxScore`.
    pub fn queue(&self) -> &[(ObjectId, usize)] {
        &self.queue
    }

    /// The per-mask incomparable sets, keyed by observation-mask bits.
    /// The snapshot codec persists the keys alone, sorted, so the map's
    /// iteration order never leaks into the format.
    pub fn f_sets(&self) -> &HashMap<u64, BitVec> {
        &self.f_sets
    }

    /// `F(o)`: the incomparable set for `o`'s observation mask.
    ///
    /// # Panics
    /// Panics if `o`'s mask was not seen at build time (i.e. `ds` is not
    /// the dataset this was built from).
    pub fn f_of(&self, ds: &Dataset, o: ObjectId) -> &BitVec {
        &self.f_sets[&ds.mask(o).bits()]
    }
}

/// Per-mask incomparable sets as dense bit vectors.
pub(crate) fn incomparable_bitvecs(ds: &Dataset) -> HashMap<u64, BitVec> {
    stats::incomparable_sets(ds)
        .into_iter()
        .map(|(mask, ids)| {
            (
                mask.bits(),
                BitVec::from_indices(ds.len(), ids.into_iter().map(|i| i as usize)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxscore::maxscore_queue;
    use tkd_model::fixtures;

    #[test]
    fn queue_matches_direct_construction() {
        let ds = fixtures::fig3_sample();
        let pre = Preprocessed::build(&ds);
        assert_eq!(pre.queue(), maxscore_queue(&ds).as_slice());
    }

    #[test]
    fn f_sets_cover_every_mask() {
        let ds = fixtures::fig3_sample();
        let pre = Preprocessed::build(&ds);
        for o in ds.ids() {
            // Must not panic, and an object is never incomparable to itself.
            assert!(!pre.f_of(&ds, o).get(o as usize));
        }
    }
}
