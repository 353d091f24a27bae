//! Query-independent preprocessing shared by the index-guided algorithms.

use crate::maxscore::{max_scores_sharing, queue_from_scores};
use tkd_model::{Dataset, DimMask, ObjectId};

/// The shared preprocessing artifacts of the paper's Table 3 "MaxScore"
/// column: the descending-`MaxScore` priority queue `F` (Fig. 5) and the
/// rows' count per observation mask, which sizes every incomparable set
/// `F(o)` ([`MaskCounts::incomparable`]).
///
/// BIG and IBIG read `F(o)` only as a count: every range-encoded column
/// also holds the rows missing its dimension, so `F(o) ⊆ P` and
/// `|G(o)| = |P| − |F(o)|` (`docs/INTERNALS.md` § G = |P| − |F|).
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
    /// Crate-visible for the same reason: an insert, a delete or an
    /// observedness flip moves one count.
    pub(crate) masks: MaskCounts,
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
            masks: MaskCounts::of(ds.masks().iter().copied()),
        }
    }

    /// The priority queue `F`: all objects by descending `MaxScore`.
    pub fn queue(&self) -> &[(ObjectId, usize)] {
        &self.queue
    }
}

/// A row set's count per observation mask: `(mask bits, rows)` entries,
/// ascending by mask, one for each mask some row carries — an entry
/// leaves when its count reaches 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaskCounts(Vec<(u64, usize)>);

impl MaskCounts {
    /// Count `masks`, one per row, in any order.
    pub(crate) fn of(masks: impl IntoIterator<Item = DimMask>) -> Self {
        let mut bits: Vec<u64> = masks.into_iter().map(DimMask::bits).collect();
        bits.sort_unstable();
        let mut entries: Vec<(u64, usize)> = Vec::new();
        for m in bits {
            match entries.last_mut() {
                Some((last, count)) if *last == m => *count += 1,
                _ => entries.push((m, 1)),
            }
        }
        MaskCounts(entries)
    }

    /// The `(mask bits, rows)` entries, ascending by mask.
    pub fn entries(&self) -> &[(u64, usize)] {
        &self.0
    }

    /// `|F|` of a candidate observing `mask`: the rows observing no
    /// dimension of it.
    pub fn incomparable(&self, mask: DimMask) -> usize {
        let disjoint = self.0.iter().filter(|&&(m, _)| m & mask.bits() == 0);
        disjoint.map(|&(_, count)| count).sum()
    }

    /// Count one more row observing `mask`.
    pub(crate) fn add(&mut self, mask: DimMask) {
        match self.0.binary_search_by_key(&mask.bits(), |&(m, _)| m) {
            Ok(at) => self.0[at].1 += 1,
            Err(at) => self.0.insert(at, (mask.bits(), 1)),
        }
    }

    /// Count one row observing `mask` less.
    ///
    /// # Panics
    /// Panics if no row observing `mask` is counted.
    pub(crate) fn remove(&mut self, mask: DimMask) {
        let at = self
            .0
            .binary_search_by_key(&mask.bits(), |&(m, _)| m)
            .expect("a counted mask");
        self.0[at].1 -= 1;
        if self.0[at].1 == 0 {
            self.0.remove(at);
        }
    }
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
}
