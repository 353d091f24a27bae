//! Dataset statistics and grouping helpers shared by the algorithm crates.

use crate::{Dataset, DimMask, ObjectId};

/// Fraction of missing cells over the whole `N × d` matrix (the paper's
/// missing rate `σ`).
pub fn missing_rate(ds: &Dataset) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    let total = ds.len() * ds.dims();
    let observed: usize = ds.masks().iter().map(|m| m.count() as usize).sum();
    (total - observed) as f64 / total as f64
}

/// Number of objects with an observed value in `dim`.
pub fn observed_count(ds: &Dataset, dim: usize) -> usize {
    ds.masks().iter().filter(|m| m.observed(dim)).count()
}

/// Number of objects missing `dim` — the paper's `|S_i|`.
pub fn missing_count(ds: &Dataset, dim: usize) -> usize {
    ds.len() - observed_count(ds, dim)
}

/// The sorted, de-duplicated observed values of `dim` — the paper's value
/// domain whose size is the dimensional cardinality `C_i`. `total_cmp`
/// sort, then IEEE `==` dedup (merging −0.0 into 0.0), so the count agrees
/// with the index builds' distinct-value tables.
pub fn distinct_values(ds: &Dataset, dim: usize) -> Vec<f64> {
    let mut vals: Vec<f64> = ds.ids().filter_map(|o| ds.value(o, dim)).collect();
    vals.sort_by(f64::total_cmp);
    vals.dedup();
    vals
}

/// Dimensional cardinality `C_i`: the number of distinct observed values in
/// `dim`.
pub fn dimension_cardinality(ds: &Dataset, dim: usize) -> usize {
    distinct_values(ds, dim).len()
}

/// Group objects into the paper's *buckets*: objects sharing the same
/// observation mask. Returned in ascending mask-bits order, each bucket's
/// ids in ascending id order.
pub fn group_by_mask(ds: &Dataset) -> Vec<(DimMask, Vec<ObjectId>)> {
    let mut groups: std::collections::BTreeMap<u64, Vec<ObjectId>> = Default::default();
    for o in ds.ids() {
        groups.entry(ds.mask(o).bits()).or_default().push(o);
    }
    groups
        .into_iter()
        .map(|(bits, ids)| (DimMask::from_bits(bits), ids))
        .collect()
}

/// The *incomparable set* `F(o)` for every distinct mask: ids of objects
/// whose mask does not intersect the given mask.
///
/// `F` depends only on `bo`, so it is computed once per distinct mask and
/// shared — this is the `F` input that Algorithms 3–5 of the paper take.
pub fn incomparable_sets(ds: &Dataset) -> Vec<(DimMask, Vec<ObjectId>)> {
    let groups = group_by_mask(ds);
    let mut out = Vec::with_capacity(groups.len());
    for &(mask, _) in &groups {
        let mut f = Vec::new();
        for &(other_mask, ref ids) in &groups {
            if !mask.intersects(other_mask) {
                f.extend_from_slice(ids);
            }
        }
        f.sort_unstable();
        out.push((mask, f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn missing_rate_fig3() {
        let ds = fixtures::fig3_sample();
        // 20 objects x 4 dims = 80 cells; 20 missing (A:1, B:2, C:2, D:1 each
        // for 5 objects -> 5+10+10+5 = 30... count: A* misses dim0 (5), B*
        // misses dims 0,1 (10), C* misses dims 1,2 (10), D* misses dim 2 (5).
        assert_eq!(missing_rate(&ds), 30.0 / 80.0);
    }

    #[test]
    fn missing_rate_empty_and_complete() {
        let ds = Dataset::from_rows(2, &[]).unwrap();
        assert_eq!(missing_rate(&ds), 0.0);
        let ds = Dataset::from_rows(2, &[vec![Some(1.0), Some(2.0)]]).unwrap();
        assert_eq!(missing_rate(&ds), 0.0);
    }

    #[test]
    fn observed_and_missing_counts() {
        let ds = fixtures::fig3_sample();
        // Dim 0 observed by C* and D* only.
        assert_eq!(observed_count(&ds, 0), 10);
        assert_eq!(missing_count(&ds, 0), 10);
        // Dim 3 observed by everyone.
        assert_eq!(observed_count(&ds, 3), 20);
        assert_eq!(missing_count(&ds, 3), 0);
    }

    #[test]
    fn distinct_values_fig3_dim0() {
        // §4.3: "For the 1st dimension, there are in total four different
        // observed values, i.e., {2, 3, 4, 5}".
        let ds = fixtures::fig3_sample();
        assert_eq!(distinct_values(&ds, 0), vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(dimension_cardinality(&ds, 0), 4);
    }

    #[test]
    fn distinct_values_sorted_dedup() {
        let ds = Dataset::from_rows(
            1,
            &[
                vec![Some(3.0)],
                vec![Some(1.0)],
                vec![Some(3.0)],
                vec![Some(-2.0)],
            ],
        )
        .unwrap();
        assert_eq!(distinct_values(&ds, 0), vec![-2.0, 1.0, 3.0]);
    }

    #[test]
    fn buckets_fig3() {
        let ds = fixtures::fig3_sample();
        let groups = group_by_mask(&ds);
        assert_eq!(groups.len(), 4);
        for (_, ids) in &groups {
            assert_eq!(ids.len(), 5, "each Fig. 4 bucket holds five objects");
        }
    }

    #[test]
    fn incomparable_sets_fig3() {
        let ds = fixtures::fig3_sample();
        // Every object observes dim 3, so all objects are pairwise
        // comparable: every F(o) is empty.
        for (_, f) in incomparable_sets(&ds) {
            assert!(f.is_empty());
        }
    }

    #[test]
    fn incomparable_sets_disjoint_masks() {
        let ds = Dataset::from_rows(
            2,
            &[
                vec![Some(1.0), None], // mask 01
                vec![None, Some(2.0)], // mask 10
                vec![Some(3.0), None], // mask 01
            ],
        )
        .unwrap();
        let sets = incomparable_sets(&ds);
        assert_eq!(sets.len(), 2);
        let f_of = |bits: u64| -> Vec<ObjectId> {
            sets.iter()
                .find(|(m, _)| m.bits() == bits)
                .map(|(_, f)| f.clone())
                .unwrap()
        };
        assert_eq!(f_of(0b01), vec![1]);
        assert_eq!(f_of(0b10), vec![0, 2]);
    }

    use crate::Dataset;
}
