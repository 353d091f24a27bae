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
//! a time; here that is needed only to *maintain* the counts under
//! updates (`crate::dynamic`), never to build them. Builds that also
//! construct an index feed the same column to both
//! (`max_scores_sharing`).

use tkd_index::for_each_sorted_column;
use tkd_model::{Dataset, ObjectId};

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

/// Order per-object `MaxScore`s into the priority queue `F`: descending
/// score, ties by ascending id.
pub(crate) fn queue_from_scores(scores: Vec<usize>) -> Vec<(ObjectId, usize)> {
    let mut queue: Vec<(ObjectId, usize)> = scores
        .into_iter()
        .enumerate()
        .map(|(o, s)| (o as ObjectId, s))
        .collect();
    queue.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    queue
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
