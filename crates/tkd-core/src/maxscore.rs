//! `MaxScore` — the upper bound score of Lemma 2, and the descending
//! priority queue `F` that drives UBB, BIG and IBIG (Fig. 5).
//!
//! For an observed dimension `i`, `Tᵢ(o) = {p ≠ o : o[i] ≤ p[i]} ∪ Sᵢ`
//! (where `Sᵢ` is the set of objects missing dimension `i`) over-counts the
//! objects `o` could possibly dominate, and
//! `MaxScore(o) = minᵢ |Tᵢ(o)|` (only observed dimensions can attain the
//! minimum, since `Tᵢ = S` for missing ones).
//!
//! `|Tᵢ(o)|` is a **suffix count over dimension `i`'s sorted column**
//! ([`tkd_index::for_each_sorted_column`]): every entry from the first one
//! of `o`'s equal-value run onward holds a value `≥ o[i]`, so
//! `|Tᵢ(o)| = observed − run start − 1 + |Sᵢ|` (the `− 1` is `o` itself)
//! — one linear sweep per dimension after the sort (`t_counts`). The
//! paper's §4.2 B+-tree rank query computes the same number one probe at
//! a time; nothing here asks it. Builds that also construct an index
//! feed the same column to both (`max_scores_sharing`).
//!
//! A row set that changes keeps no counts either way. With an exact
//! index beside it (`crate::dynamic`), `|Tᵢ(o)| + 1` is the live rows
//! missing `i` or at or above `o`'s value slot, so one histogram of the
//! index's value slots per dimension, summed from the top, gives every
//! row's `MaxScore` at the next query (`fill_queue` orders them). A
//! row set that keeps no index reads the same number off
//! [`ValueCounts`]: per dimension, the live count of each distinct value
//! and of the missing cells, so `|Tᵢ(o)| = |Sᵢ| + #{observed ≥ o[i]} − 1`
//! is a rank count in a table of at most `Cᵢ` entries.

use std::collections::btree_map::{BTreeMap, Entry};
use tkd_index::{for_each_sorted_column, F64Key};
use tkd_model::{Dataset, ObjectId, Row};

/// `(id, |Tᵢ(o)|)` for every entry of dimension `i`'s sorted column over
/// `n` objects, in column order.
pub(crate) fn t_counts(
    column: &[(f64, ObjectId)],
    n: usize,
) -> impl Iterator<Item = (ObjectId, usize)> + '_ {
    let missing = n - column.len();
    let mut run_start = 0;
    column.iter().enumerate().map(move |(pos, &(v, o))| {
        if column[run_start].0 != v {
            run_start = pos;
        }
        (o, column.len() - run_start - 1 + missing)
    })
}

/// [`max_scores`] that lends each of `ds`'s sorted columns to
/// `also` as well — how a build feeds its index builder(s) and the queue
/// from one sort per dimension.
pub(crate) fn max_scores_sharing(
    ds: &Dataset,
    mut also: impl FnMut(usize, &[(f64, ObjectId)]),
) -> Vec<usize> {
    let n = ds.len();
    let mut scores = vec![usize::MAX; n];
    for_each_sorted_column(ds, |dim, column| {
        for (o, t_i) in t_counts(column, n) {
            let slot = &mut scores[o as usize];
            *slot = (*slot).min(t_i);
        }
        also(dim, column);
    });
    // Every object observes at least one dimension (model invariant), so no
    // usize::MAX survives.
    debug_assert!(scores.iter().all(|&m| m != usize::MAX));
    scores
}

/// Fill `queue` with `(id, MaxScore)` pairs in the order of the priority
/// queue `F`: descending score, ties by ascending id. `pairs` must arrive
/// in ascending id order; a stable counting sort by score then keeps the
/// ties in it. A MaxScore counts other objects, so the buckets number at
/// most one per pair: linear, where a comparison sort of the same pairs
/// is not.
pub(crate) fn fill_queue(
    queue: &mut Vec<(ObjectId, usize)>,
    pairs: impl Iterator<Item = (ObjectId, usize)>,
) {
    queue.clear();
    queue.extend(pairs);
    debug_assert!(queue.windows(2).all(|w| w[0].0 < w[1].0), "ids ascend");
    let top = queue.iter().map(|&(_, ms)| ms).max().unwrap_or(0);
    // `start[ms]`: where the bucket of `ms` begins, the higher scores first.
    let mut start = vec![0usize; top + 1];
    for &(_, ms) in queue.iter() {
        start[ms] += 1;
    }
    let mut at = 0;
    for bucket in start.iter_mut().rev() {
        let count = *bucket;
        *bucket = at;
        at += count;
    }
    let mut sorted = vec![(0, 0); queue.len()];
    for &(o, ms) in queue.iter() {
        sorted[start[ms]] = (o, ms);
        start[ms] += 1;
    }
    *queue = sorted;
}

/// Order per-object `MaxScore`s into the priority queue `F`.
pub(crate) fn queue_from_scores(scores: Vec<usize>) -> Vec<(ObjectId, usize)> {
    let mut queue = Vec::with_capacity(scores.len());
    let pairs = scores.into_iter().enumerate();
    fill_queue(&mut queue, pairs.map(|(o, s)| (o as ObjectId, s)));
    queue
}

/// Live value → count tables, one per dimension, each with its missing
/// count — all the queue `F` of a changing row set needs, without an
/// index. IEEE-equal values share one count (`−0.0` counts as `0.0`), as
/// they share one column in the indexes.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueCounts {
    /// One table per dimension, in dimension order.
    pub(crate) dims: Vec<DimCounts>,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct DimCounts {
    observed: BTreeMap<F64Key, usize>,
    missing: usize,
}

impl DimCounts {
    /// The counts of dimension `i`'s sorted column over `n` rows: one
    /// entry per equal-value run, bulk-built from the ascending runs, and
    /// the rows the column leaves out as missing.
    pub(crate) fn from_column(column: &[(f64, ObjectId)], n: usize) -> DimCounts {
        let runs = column.chunk_by(|a, b| a.0 == b.0);
        DimCounts {
            observed: runs
                .map(|run| {
                    let key = F64Key::new(run[0].0).expect("sorted columns hold no NaN");
                    (key, run.len())
                })
                .collect(),
            missing: n - column.len(),
        }
    }

    /// At most `cells − 1` ascending value thresholds at equal shares of
    /// the observed cells (see [`ValueCounts::grid`]), one pass over the
    /// ascending table.
    pub(crate) fn grid(&self, cells: usize) -> Vec<f64> {
        let observed: usize = self.observed.values().sum();
        let (mut below, mut t) = (0, 1);
        let mut thresholds = Vec::with_capacity(cells.saturating_sub(1));
        for (key, &count) in &self.observed {
            if t < cells && below > 0 && below * cells >= t * observed {
                thresholds.push(key.get());
                while t < cells && below * cells >= t * observed {
                    t += 1;
                }
            }
            below += count;
        }
        thresholds
    }

    /// The live values ascending, beside `|Tᵢ|` of a row holding each:
    /// the missing count plus the observed cells at or above the value,
    /// less the row itself.
    fn t_table(&self) -> (Vec<f64>, Vec<usize>) {
        let mut at_least: usize = self.observed.values().sum();
        self.observed
            .iter()
            .map(|(key, &count)| {
                let t = self.missing + at_least - 1;
                at_least -= count;
                (key.get(), t)
            })
            .unzip()
    }
}

impl ValueCounts {
    /// The counts of every row of `ds`, from one sorted column per
    /// dimension.
    pub fn new(ds: &Dataset) -> ValueCounts {
        let mut dims = Vec::with_capacity(ds.dims());
        for_each_sorted_column(ds, |_, column| {
            dims.push(DimCounts::from_column(column, ds.len()));
        });
        ValueCounts { dims }
    }

    /// Count `row` in.
    pub fn insert(&mut self, row: Row<'_>) {
        for dim in 0..self.dims.len() {
            self.add(dim, row.value(dim));
        }
    }

    /// Count `row` out; it must have been counted in.
    pub fn remove(&mut self, row: Row<'_>) {
        for dim in 0..self.dims.len() {
            self.take(dim, row.value(dim));
        }
    }

    /// Rewrite one counted cell of `dim` from `old` to `new`.
    pub fn set(&mut self, dim: usize, old: Option<f64>, new: Option<f64>) {
        self.take(dim, old);
        self.add(dim, new);
    }

    fn add(&mut self, dim: usize, value: Option<f64>) {
        let counts = &mut self.dims[dim];
        match value.and_then(F64Key::new) {
            Some(key) => *counts.observed.entry(key).or_default() += 1,
            None => counts.missing += 1,
        }
    }

    fn take(&mut self, dim: usize, value: Option<f64>) {
        let counts = &mut self.dims[dim];
        match value.and_then(F64Key::new) {
            Some(key) => {
                if let Entry::Occupied(mut entry) = counts.observed.entry(key) {
                    *entry.get_mut() -= 1;
                    if *entry.get() == 0 {
                        entry.remove();
                    }
                }
            }
            None => counts.missing -= 1,
        }
    }

    /// Per dimension, at most `cells − 1` ascending value thresholds at
    /// equal shares of the observed cells: threshold `t` is the least
    /// value with at least `t/cells` of them below it. Each lies above the
    /// dimension's least value and thresholds never repeat, so a
    /// dimension with few values gets fewer. Read off the sorted tables,
    /// one pass each.
    pub fn grid(&self, cells: usize) -> Vec<Vec<f64>> {
        self.dims.iter().map(|dim| dim.grid(cells)).collect()
    }

    /// The queue `F` over the `live` rows of `ds`, which must be exactly
    /// the rows counted in: each row's `MaxScore` is the least `|Tᵢ|` of
    /// its observed cells, one binary search in dimension `i`'s table
    /// each.
    pub fn queue(
        &self,
        ds: &Dataset,
        live: impl IntoIterator<Item = ObjectId>,
    ) -> Vec<(ObjectId, usize)> {
        let tables: Vec<(Vec<f64>, Vec<usize>)> =
            self.dims.iter().map(DimCounts::t_table).collect();
        let t = |d: usize, v: f64| {
            let (values, t) = &tables[d];
            t[values.partition_point(|&x| x < v)]
        };
        let max_score = |o: ObjectId| {
            let row = ds.row(o);
            let t_row = row.observed().map(|(d, v)| t(d, v));
            t_row.min().expect("rows observe at least one dimension")
        };
        let mut queue = Vec::new();
        fill_queue(&mut queue, live.into_iter().map(|o| (o, max_score(o))));
        queue
    }
}

/// `MaxScore(o)` for every object, from one sort per dimension.
pub fn max_scores(ds: &Dataset) -> Vec<usize> {
    max_scores_sharing(ds, |_, _| {})
}

/// The priority queue `F` of Fig. 5: all objects sorted by descending
/// `MaxScore`, ties by ascending id (which is label order for the paper's
/// fixtures).
pub fn maxscore_queue(ds: &Dataset) -> Vec<(ObjectId, usize)> {
    queue_from_scores(max_scores(ds))
}

/// Reference implementation of `MaxScore` by direct set counting (used by
/// tests to validate the sorted-column sweep).
pub fn max_scores_bruteforce(ds: &Dataset) -> Vec<usize> {
    let n = ds.len();
    let mut out = vec![usize::MAX; n];
    for o in ds.ids() {
        for dim in 0..ds.dims() {
            if let Some(v) = ds.value(o, dim) {
                let t_i = ds
                    .ids()
                    .filter(|&p| {
                        p != o
                            && match ds.value(p, dim) {
                                None => true,
                                Some(w) => v <= w,
                            }
                    })
                    .count();
                out[o as usize] = out[o as usize].min(t_i);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_model::{dominance, fixtures};

    #[test]
    fn fig5_queue_matches_paper() {
        let ds = fixtures::fig3_sample();
        let queue = maxscore_queue(&ds);
        let got: Vec<(&str, usize)> = queue
            .iter()
            .map(|&(o, s)| (ds.label(o).unwrap(), s))
            .collect();
        assert_eq!(got, fixtures::fig5_maxscores());
    }

    #[test]
    fn worked_b3_example() {
        // §4.2: MaxScore(B3) = 0 because T4(B3) = ∅.
        let ds = fixtures::fig3_sample();
        let b3 = ds.id_by_label("B3").unwrap();
        assert_eq!(max_scores(&ds)[b3 as usize], 0);
    }

    #[test]
    fn btree_path_equals_bruteforce() {
        let ds = fixtures::fig3_sample();
        assert_eq!(max_scores(&ds), max_scores_bruteforce(&ds));
        let ds = fixtures::fig2_points();
        assert_eq!(max_scores(&ds), max_scores_bruteforce(&ds));
    }

    #[test]
    fn upper_bounds_scores() {
        // Lemma 2: score(o) <= MaxScore(o).
        let ds = fixtures::fig3_sample();
        let ms = max_scores(&ds);
        for o in ds.ids() {
            assert!(dominance::score_of(&ds, o) <= ms[o as usize]);
        }
    }

    #[test]
    fn duplicates_and_missing_mix() {
        let ds = tkd_model::Dataset::from_rows(
            2,
            &[
                vec![Some(1.0), Some(2.0)],
                vec![Some(1.0), None],
                vec![None, Some(2.0)],
                vec![Some(3.0), Some(2.0)],
            ],
        )
        .unwrap();
        assert_eq!(max_scores(&ds), max_scores_bruteforce(&ds));
    }
}
