//! Constrained and group-by skyline / k-skyband variants on incomplete
//! data, after Gao et al. (the paper's reference \[2\]: *"Processing
//! k-skyband, constrained skyline, and group-by skyline queries on
//! incomplete data"*), the substrate work the TKD paper builds ESB upon.
//!
//! * **Constrained** — the query carries per-dimension value ranges; only
//!   objects whose *observed* values all fall inside their ranges qualify,
//!   and dominance is judged among the qualifying objects only.
//! * **Group-by** — objects carry a group key; each group's skyline is
//!   computed independently (e.g. "best laptops per brand").

use crate::incomplete;
use std::collections::BTreeMap;
use tkd_model::{Dataset, ObjectId};

/// Per-dimension inclusive value constraint; `None` leaves a dimension
/// unconstrained. Missing values never violate a constraint (there is
/// nothing to test — consistent with the incomplete-data model's "no
/// assumption about missing values").
#[derive(Clone, Debug, Default)]
pub struct Constraints {
    ranges: Vec<Option<(f64, f64)>>,
}

impl Constraints {
    /// No constraints on a `dims`-dimensional space.
    pub fn none(dims: usize) -> Self {
        Constraints {
            ranges: vec![None; dims],
        }
    }

    /// Constrain `dim` to the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `dim` is out of range or `lo > hi` or either bound is NaN.
    pub fn with_range(mut self, dim: usize, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        self.ranges[dim] = validate_interval(dim, self.ranges.len(), lo, hi);
        self
    }

    /// Constrain `dim` to the inclusive interval `[lo, hi]`, **allowing**
    /// `lo > hi`: the empty interval, which no observed value satisfies.
    ///
    /// Objects *missing* `dim` are still admitted (there is nothing to
    /// test), so an empty interval reduces the admitted population to the
    /// objects that do not observe `dim` — the exact conjunction semantics
    /// a query planner needs for contradictory predicates like
    /// `d1 > 5 AND d1 < 3`. [`Constraints::with_range`] keeps its
    /// non-empty guarantee for callers that would consider `lo > hi` a
    /// bug.
    ///
    /// # Panics
    /// Panics if `dim` is out of range or either bound is NaN.
    pub fn with_interval(mut self, dim: usize, lo: f64, hi: f64) -> Self {
        self.ranges[dim] = validate_interval(dim, self.ranges.len(), lo, hi);
        self
    }

    /// Dimensionality of the space the constraints are over.
    pub fn dims(&self) -> usize {
        self.ranges.len()
    }

    /// The interval constraining `dim`, if any (`lo > hi` = empty).
    pub fn interval(&self, dim: usize) -> Option<(f64, f64)> {
        self.ranges.get(dim).copied().flatten()
    }

    /// Does `o` satisfy every constraint on its observed dimensions?
    pub fn admits(&self, ds: &Dataset, o: ObjectId) -> bool {
        self.ranges
            .iter()
            .enumerate()
            .all(|(d, r)| match (r, ds.value(o, d)) {
                (Some((lo, hi)), Some(v)) => *lo <= v && v <= *hi,
                _ => true,
            })
    }

    /// Ids of all admitted objects.
    pub fn admitted(&self, ds: &Dataset) -> Vec<ObjectId> {
        ds.ids().filter(|&o| self.admits(ds, o)).collect()
    }
}

/// Shared bound validation for [`Constraints::with_range`] /
/// [`Constraints::with_interval`].
fn validate_interval(dim: usize, dims: usize, lo: f64, hi: f64) -> Option<(f64, f64)> {
    assert!(dim < dims, "dimension {dim} out of range");
    assert!(!lo.is_nan() && !hi.is_nan(), "NaN bounds are invalid");
    Some((lo, hi))
}

/// Constrained skyline: the skyline of the admitted sub-population.
pub fn constrained_skyline(ds: &Dataset, c: &Constraints) -> Vec<ObjectId> {
    constrained_k_skyband(ds, c, 1)
}

/// Constrained k-skyband: admitted objects dominated by fewer than `k`
/// *admitted* objects.
pub fn constrained_k_skyband(ds: &Dataset, c: &Constraints, k: usize) -> Vec<ObjectId> {
    let admitted = c.admitted(ds);
    if admitted.is_empty() || k == 0 {
        return Vec::new();
    }
    // Restrict to the admitted objects, then map ids back.
    let sub = ds.select(&admitted);
    incomplete::k_skyband(&sub, k)
        .into_iter()
        .map(|local| admitted[local as usize])
        .collect()
}

/// Group-by skyline: one skyline per group key (keys sorted ascending).
///
/// # Panics
/// Panics unless `groups.len() == ds.len()`.
pub fn group_by_skyline(ds: &Dataset, groups: &[u64]) -> Vec<(u64, Vec<ObjectId>)> {
    assert_eq!(groups.len(), ds.len(), "one group key per object");
    let mut buckets: BTreeMap<u64, Vec<ObjectId>> = BTreeMap::new();
    for o in ds.ids() {
        buckets.entry(groups[o as usize]).or_default().push(o);
    }
    buckets
        .into_iter()
        .map(|(key, ids)| {
            let sub = ds.select(&ids);
            let sky = incomplete::skyline(&sub)
                .into_iter()
                .map(|local| ids[local as usize])
                .collect();
            (key, sky)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_model::fixtures;

    #[test]
    fn unconstrained_equals_plain_skyline() {
        let ds = fixtures::fig3_sample();
        let c = Constraints::none(ds.dims());
        assert_eq!(constrained_skyline(&ds, &c), incomplete::skyline(&ds));
        for k in 1..5 {
            assert_eq!(
                constrained_k_skyband(&ds, &c, k),
                incomplete::k_skyband(&ds, k)
            );
        }
    }

    #[test]
    fn constraints_filter_on_observed_values_only() {
        let ds = fixtures::fig2_points();
        // x <= 5: excludes a=(7,7) and d=(9,1); e=(-,4) has no x, admitted.
        let c = Constraints::none(2).with_range(0, 0.0, 5.0);
        let admitted: Vec<&str> = c
            .admitted(&ds)
            .into_iter()
            .map(|o| ds.label(o).unwrap())
            .collect();
        assert_eq!(admitted, vec!["b", "c", "e", "f"]);
    }

    #[test]
    fn constrained_skyline_recomputes_dominance_inside_the_region() {
        let ds = fixtures::fig2_points();
        // Exclude f = (4,2) by requiring x >= 5; within {a, c, d, e}:
        // c=(5,-) dominates a=(7,7) and d=(9,1) via x; e incomparable to c;
        // d ≻ e via y (1 < 4). Skyline = {c}? e is dominated by d. a is
        // dominated by c. d is dominated by c. So skyline = {c}.
        let c = Constraints::none(2).with_range(0, 5.0, 10.0);
        let sky: Vec<&str> = constrained_skyline(&ds, &c)
            .into_iter()
            .map(|o| ds.label(o).unwrap())
            .collect();
        assert_eq!(sky, vec!["c"]);
    }

    #[test]
    fn empty_region_gives_empty_skyline() {
        let ds = fixtures::fig2_points();
        let c = Constraints::none(2)
            .with_range(0, 100.0, 200.0)
            .with_range(1, 100.0, 200.0);
        // Only objects observing neither dim would qualify; none exist with
        // values inside the range.
        assert!(constrained_skyline(&ds, &c)
            .iter()
            .all(|&o| c.admits(&ds, o)));
    }

    #[test]
    fn skyband_membership_oracle_under_constraints() {
        let ds = fixtures::fig3_sample();
        let c = Constraints::none(4).with_range(3, 1.0, 4.0);
        let admitted = c.admitted(&ds);
        for k in 1..4 {
            let band = constrained_k_skyband(&ds, &c, k);
            for &o in &admitted {
                let dominators = admitted
                    .iter()
                    .filter(|&&p| p != o && tkd_model::dominance::dominates(&ds, p, o))
                    .count();
                assert_eq!(band.contains(&o), dominators < k, "k={k} o={o}");
            }
        }
    }

    #[test]
    fn group_by_skyline_partitions() {
        let ds = fixtures::fig3_sample();
        // Group by mask family: A=0, B=1, C=2, D=3 (label prefix).
        let groups: Vec<u64> = ds
            .ids()
            .map(|o| (ds.label(o).unwrap().as_bytes()[0] - b'A') as u64)
            .collect();
        let result = group_by_skyline(&ds, &groups);
        assert_eq!(result.len(), 4);
        for (key, sky) in &result {
            assert!(!sky.is_empty(), "group {key} has a skyline");
            // Every member belongs to its group and is undominated within it.
            for &o in sky {
                assert_eq!(groups[o as usize], *key);
                for p in ds.ids() {
                    if groups[p as usize] == *key {
                        assert!(
                            !tkd_model::dominance::dominates(&ds, p, o),
                            "group {key}: {} dominated by {}",
                            ds.label(o).unwrap(),
                            ds.label(p).unwrap()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one group key per object")]
    fn group_by_requires_matching_arity() {
        let ds = fixtures::fig2_points();
        let _ = group_by_skyline(&ds, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn rejects_inverted_range() {
        let _ = Constraints::none(2).with_range(0, 5.0, 1.0);
    }

    #[test]
    fn empty_interval_admits_only_missing() {
        let ds = fixtures::fig2_points();
        // x in the empty interval: only e = (-,4), which has no x, passes.
        let c = Constraints::none(2).with_interval(0, 5.0, 1.0);
        let admitted: Vec<&str> = c
            .admitted(&ds)
            .into_iter()
            .map(|o| ds.label(o).unwrap())
            .collect();
        assert_eq!(admitted, vec!["e"]);
        assert_eq!(c.interval(0), Some((5.0, 1.0)));
        assert_eq!(c.interval(1), None);
    }

    #[test]
    fn with_interval_matches_with_range_when_nonempty() {
        let ds = fixtures::fig3_sample();
        let a = Constraints::none(4).with_range(3, 1.0, 4.0);
        let b = Constraints::none(4).with_interval(3, 1.0, 4.0);
        assert_eq!(a.admitted(&ds), b.admitted(&ds));
    }

    #[test]
    #[should_panic(expected = "NaN bounds")]
    fn with_interval_rejects_nan() {
        let _ = Constraints::none(2).with_interval(0, f64::NAN, 1.0);
    }
}
