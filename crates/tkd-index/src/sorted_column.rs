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
/// contiguous. Ids are laid down ascending and the sort is a stable radix
/// sort by value (`radix_sort`), so equal values keep id order. Both of
/// its buffers, at most `ds.len()` entries each, are taken before the
/// first column and reused across the dimensions.
pub fn for_each_sorted_column(ds: &Dataset, visit: impl FnMut(usize, &[(f64, ObjectId)])) {
    for_each_sorted_column_of(ds, ds.ids(), visit);
}

/// [`for_each_sorted_column`] over the rows `rows` of `ds` alone, as if
/// they were a dataset of their own (ids stay `ds`'s): equal values keep
/// the order of `rows`, so the columns ascend by `(value, id)` when
/// `rows` ascends.
pub fn for_each_sorted_column_of(
    ds: &Dataset,
    rows: impl Iterator<Item = ObjectId> + Clone,
    mut visit: impl FnMut(usize, &[(f64, ObjectId)]),
) {
    let n = rows.clone().count();
    let mut column: Vec<(f64, ObjectId)> = Vec::with_capacity(n);
    let mut spare: Vec<(f64, ObjectId)> = Vec::with_capacity(n);
    let mut counts = vec![0usize; 1 << DIGIT_BITS];
    for dim in 0..ds.dims() {
        column.clear();
        column.extend(
            rows.clone()
                .filter_map(|o| ds.value(o, dim).map(|v| (v + 0.0, o))),
        );
        radix_sort(&mut column, &mut spare, &mut counts);
        visit(dim, &column);
    }
}

/// The order-preserving `u64` image of a non-NaN `f64`:
/// `radix_key(a).cmp(&radix_key(b))` is `a.total_cmp(&b)`. A negative
/// value has every bit flipped (a larger magnitude sorts lower), any
/// other value only its sign bit.
fn radix_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

/// The widest digit of [`radix_sort`]: 2¹¹ counters stay in L1.
const DIGIT_BITS: u32 = 11;

/// Stable LSD radix sort of `column` by [`radix_key`] of its values.
///
/// Only the bits that vary among the column's keys are read: the span
/// from the lowest to the highest bit where some key differs from the
/// first splits into the fewest digits of at most [`DIGIT_BITS`] bits, so
/// a dimension of small integers sorts in one or two counting passes and
/// one holding a single value in none. Each pass counts its digit, then
/// scatters `column` into `spare` by it, in order, and swaps the two.
/// `counts` holds at least `2^DIGIT_BITS` counters.
fn radix_sort(
    column: &mut Vec<(f64, ObjectId)>,
    spare: &mut Vec<(f64, ObjectId)>,
    counts: &mut [usize],
) {
    let Some(&(first, _)) = column.first() else {
        return;
    };
    let first = radix_key(first);
    let varying = column
        .iter()
        .fold(0, |acc, &(v, _)| acc | (radix_key(v) ^ first));
    if varying == 0 {
        return;
    }
    let low = varying.trailing_zeros();
    let bits = u64::BITS - varying.leading_zeros() - low;
    let passes = bits.div_ceil(DIGIT_BITS);
    let width = bits.div_ceil(passes);
    let counts = &mut counts[..1 << width];
    spare.clear();
    spare.resize(column.len(), (0.0, 0));
    for pass in 0..passes {
        let shift = low + pass * width;
        let digit = |v: f64| (radix_key(v) >> shift) as usize & ((1 << width) - 1);
        counts.fill(0);
        for &(v, _) in column.iter() {
            counts[digit(v)] += 1;
        }
        let mut at = 0;
        for count in counts.iter_mut() {
            let holders = *count;
            *count = at;
            at += holders;
        }
        for &entry in column.iter() {
            let slot = &mut counts[digit(entry.0)];
            spare[*slot] = entry;
            *slot += 1;
        }
        std::mem::swap(column, spare);
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
