//! The build-time **sorted column**: one dimension's observed
//! `(value, id)` pairs in strictly ascending `(value, id)` order.
//!
//! Every query-independent artifact is a sweep over this one sequence —
//! the exact index's distinct-value table, slots and columns
//! ([`crate::BitmapIndexBuilder`]) and the `|Tᵢ(o)|` suffix counts behind
//! `MaxScore` (`tkd_core::maxscore`) — or read off one: the binned
//! index's boundaries are quantiles of the exact index's value counts
//! ([`crate::BinBoundaries::build`]). So a build sorts each dimension
//! **once** and hands the column to every artifact built over the
//! dataset; no build path asks a rank query.

use tkd_model::{Dataset, ObjectId};

/// Sort each dimension's observed cells of `ds` and hand the columns to
/// `visit` in dimension order.
///
/// A column holds `(value, id)` pairs, strictly ascending by
/// `(value, id)`; an entirely missing dimension yields an empty column.
/// Values are normalized with `v + 0.0`, which collapses −0.0 into +0.0
/// and fixes every other non-NaN value: the order then agrees with IEEE
/// `<`/`==` *and* with [`crate::F64Key`]'s, so equal-value runs are
/// contiguous. One buffer of at most `ds.len()` entries is reused across
/// the dimensions.
pub fn for_each_sorted_column(ds: &Dataset, mut visit: impl FnMut(usize, &[(f64, ObjectId)])) {
    let mut column: Vec<(f64, ObjectId)> = Vec::with_capacity(ds.len());
    for dim in 0..ds.dims() {
        column.clear();
        column.extend(
            ds.ids()
                .filter_map(|o| ds.value(o, dim).map(|v| (v + 0.0, o))),
        );
        // Ids were pushed ascending, so a stable sort by value alone
        // yields `(value, id)` order.
        column.sort_by(|a, b| a.0.total_cmp(&b.0));
        visit(dim, &column);
    }
}

/// Split a sorted column into its maximal equal-value runs, ascending.
pub(crate) fn value_runs(
    column: &[(f64, ObjectId)],
) -> impl Iterator<Item = &[(f64, ObjectId)]> + '_ {
    column.chunk_by(|a, b| a.0 == b.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns(ds: &Dataset) -> Vec<Vec<(f64, ObjectId)>> {
        let mut out = Vec::new();
        for_each_sorted_column(ds, |dim, col| {
            assert_eq!(dim, out.len());
            out.push(col.to_vec());
        });
        out
    }

    #[test]
    fn columns_are_strictly_ascending_with_local_ids() {
        let ds = Dataset::from_rows(
            2,
            &[
                vec![Some(2.0), None],
                vec![Some(1.0), None],
                vec![None, Some(5.0)],
                vec![Some(2.0), None],
                vec![Some(1.0), None],
            ],
        )
        .unwrap();
        let whole = columns(&ds);
        assert_eq!(whole[0], [(1.0, 1), (1.0, 4), (2.0, 0), (2.0, 3)]);
        assert_eq!(whole[1], [(5.0, 2)]);
        let empty = Dataset::from_rows(2, &[]).unwrap();
        assert_eq!(columns(&empty), [vec![], vec![]]);
    }

    #[test]
    fn signed_zeros_collapse_into_one_run() {
        let ds = Dataset::from_rows(
            1,
            &[
                vec![Some(0.0)],
                vec![Some(-0.0)],
                vec![Some(f64::NEG_INFINITY)],
                vec![Some(-0.0)],
                vec![Some(f64::INFINITY)],
            ],
        )
        .unwrap();
        let col = &columns(&ds)[0];
        let ids: Vec<ObjectId> = col.iter().map(|e| e.1).collect();
        assert_eq!(ids, [2, 0, 1, 3, 4]);
        assert!(col.iter().all(|e| e.0 != 0.0 || e.0.is_sign_positive()));
        let runs: Vec<usize> = value_runs(col).map(<[_]>::len).collect();
        assert_eq!(runs, [1, 3, 1]);
    }
}
