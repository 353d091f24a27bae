//! Property-based validation of the bitmap indexes against brute-force set
//! semantics, on random incomplete datasets.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tkd_bitvec::{Concise, Wah};
use tkd_index::{compute_bins, BinnedBitmapIndex, BitmapIndex, CompressedColumns};
use tkd_model::Dataset;

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..=3).prop_flat_map(|dims| {
        let row = proptest::collection::vec(
            proptest::option::weighted(0.75, (0u8..8).prop_map(|v| v as f64 / 2.0)),
            dims,
        )
        .prop_filter("at least one observed", |r| r.iter().any(Option::is_some));
        proptest::collection::vec(row, 1..50)
            .prop_map(move |rows| Dataset::from_rows(dims, &rows).expect("valid rows"))
    })
}

/// Rows over `dims` dimensions drawn from the values a selection is most
/// likely to get wrong: signed zeros, both infinities and halves.
fn special_rows(dims: usize) -> impl Strategy<Value = Vec<Vec<Option<f64>>>> {
    let cell = (0u8..10).prop_map(|v| match v {
        0 => -0.0,
        1 => 0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        v => f64::from(v - 4) / 2.0,
    });
    let row = proptest::collection::vec(proptest::option::weighted(0.7, cell), dims)
        .prop_filter("at least one observed", |r| r.iter().any(Option::is_some));
    proptest::collection::vec(row, 1..40)
}

/// Every row's stored selection equals the one resolved from its values,
/// on both indexes.
fn assert_selections_agree(
    exact: &BitmapIndex,
    binned: &BinnedBitmapIndex,
    rows: &[Vec<Option<f64>>],
) -> Result<(), TestCaseError> {
    for (row, values) in rows.iter().enumerate() {
        prop_assert_eq!(
            exact.selection_of(row),
            exact.select_for(|d| values[d]),
            "exact row {}",
            row
        );
        prop_assert_eq!(
            binned.selection_of(row),
            binned.select_for(|d| values[d]),
            "binned row {}",
            row
        );
    }
    Ok(())
}

/// The rank query — the popcount of the one `[Qᵢ]` column a selection
/// observing only dimension `i` picks — equals a brute-force count over
/// the live rows (`None` = tombstoned), for probes at, between, below and
/// beyond the table values.
fn assert_ranks_agree(
    exact: &BitmapIndex,
    rows: &[Option<Vec<Option<f64>>>],
) -> Result<(), TestCaseError> {
    for dim in 0..exact.dims() {
        let mut probes = vec![
            f64::NEG_INFINITY,
            -200.0,
            -0.0,
            0.0,
            0.25,
            1.75,
            1e9,
            f64::INFINITY,
        ];
        probes.extend_from_slice(exact.values(dim));
        for v in probes {
            let brute = rows
                .iter()
                .flatten()
                .filter(|r| r[dim].is_none_or(|x| x >= v))
                .count();
            let sel = exact.select_for(|d| (d == dim).then_some(v));
            prop_assert_eq!(
                exact.q_selected_upper_bound(&sel),
                brute,
                "dim {} probe {}",
                dim,
                v
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `selection_of(row)` is `select_for` over the row's values, field
    /// for field, on both indexes: bulk-built with a dimension nobody
    /// observes, beside tombstoned neighbours (whose own slots stay
    /// readable), after appends that open that dimension's first bin and
    /// splice new values in, and after cell rewrites.
    #[test]
    fn selection_of_equals_select_for(
        seed_rows in special_rows(3),
        appended in special_rows(4),
        bins in 1usize..5,
    ) {
        // Dimension 3 starts out all-missing.
        let mut rows: Vec<Vec<Option<f64>>> = seed_rows
            .into_iter()
            .map(|mut r| {
                r.push(None);
                r
            })
            .collect();
        let ds = Dataset::from_rows(4, &rows).expect("valid rows");
        let mut exact = BitmapIndex::build(&ds);
        let mut binned = BinnedBitmapIndex::build(&ds, &[bins; 4]);
        assert_selections_agree(&exact, &binned, &rows)?;

        for local in (0..rows.len()).step_by(3) {
            exact.tombstone_row(local);
            binned.tombstone_row(local, |d| rows[local][d]);
        }
        assert_selections_agree(&exact, &binned, &rows)?;

        for row in appended {
            exact.append_row(|d| row[d]);
            binned.append_row(|d| row[d]);
            rows.push(row);
        }
        assert_selections_agree(&exact, &binned, &rows)?;

        // Rotate each live seed row's first cell into its neighbour's.
        for local in (1..rows.len()).filter(|l| l % 3 != 0) {
            let (old, new) = (rows[local][0], rows[local - 1][0]);
            exact.set_cell(local, 0, new);
            binned.set_cell(local, 0, old, new);
            rows[local][0] = new;
        }
        assert_selections_agree(&exact, &binned, &rows)?;
    }

    /// The rank query is the number of live rows with
    /// `missing ∨ value ≥ v` while the index is mutated: beside
    /// tombstones, after an append that is the first observation of a
    /// dimension and a new minimum everywhere else (the column-0 splice,
    /// which must mask the dead slots), after appends of signed zeros,
    /// infinities and new distinct values, and after cell rewrites to
    /// fresh values and to missing.
    #[test]
    fn rank_query_matches_brute_force_under_mutation(
        seed_rows in special_rows(3),
        appended in special_rows(4),
    ) {
        // Dimension 3 starts out all-missing.
        let seed: Vec<Vec<Option<f64>>> = seed_rows
            .into_iter()
            .map(|mut r| {
                r.push(None);
                r
            })
            .collect();
        let mut exact = BitmapIndex::build(&Dataset::from_rows(4, &seed).expect("valid rows"));
        let mut rows: Vec<Option<Vec<Option<f64>>>> = seed.into_iter().map(Some).collect();
        assert_ranks_agree(&exact, &rows)?;

        for local in (0..rows.len()).step_by(3) {
            exact.tombstone_row(local);
            rows[local] = None;
        }
        assert_ranks_agree(&exact, &rows)?;

        for row in std::iter::once(vec![Some(-100.0); 4]).chain(appended) {
            exact.append_row(|d| row[d]);
            rows.push(Some(row));
            assert_ranks_agree(&exact, &rows)?;
        }

        for (local, row) in rows.iter_mut().enumerate() {
            let Some(row) = row else { continue };
            row[3] = Some(local as f64 + 0.125);
            exact.set_cell(local, 3, row[3]);
            if local % 2 == 0 {
                row[0] = None;
                exact.set_cell(local, 0, None);
            }
        }
        assert_ranks_agree(&exact, &rows)?;
    }

    /// Every vertical column equals its defining set
    /// `{p : p[i] missing ∨ p[i] > v_c}`.
    #[test]
    fn columns_define_range_encoding(ds in dataset_strategy()) {
        let idx = BitmapIndex::build(&ds);
        for dim in 0..ds.dims() {
            let vals = idx.values(dim);
            for c in 0..idx.num_columns(dim) {
                let col = idx.column(dim, c);
                for p in ds.ids() {
                    let expect = match ds.value(p, dim) {
                        None => true,
                        Some(v) => c == 0 || v > vals[c - 1],
                    };
                    prop_assert_eq!(col.get(p as usize), expect);
                }
            }
        }
    }

    /// Columns are nested: column c+1 ⊆ column c (range encoding is
    /// monotone), for both exact and binned indexes.
    #[test]
    fn columns_are_nested(ds in dataset_strategy(), bins in 1usize..6) {
        let idx = BitmapIndex::build(&ds);
        for dim in 0..ds.dims() {
            for c in 1..idx.num_columns(dim) {
                prop_assert!(idx.column(dim, c).is_subset_of(idx.column(dim, c - 1)));
            }
        }
        let b = BinnedBitmapIndex::build(&ds, &vec![bins; ds.dims()]);
        for dim in 0..ds.dims() {
            for c in 1..b.num_columns(dim) {
                prop_assert!(b.column(dim, c).is_subset_of(b.column(dim, c - 1)));
            }
        }
    }

    /// Binned Q is always a superset of exact Q (binning only loosens),
    /// and both contain the truly dominated objects.
    #[test]
    fn binned_q_bounds_exact_q(ds in dataset_strategy(), bins in 1usize..6) {
        let exact = BitmapIndex::build(&ds);
        let binned = BinnedBitmapIndex::build(&ds, &vec![bins; ds.dims()]);
        for o in ds.ids() {
            let qe = exact.q_vec(o);
            let qb = binned.q_vec(o);
            prop_assert!(qe.is_subset_of(&qb), "object {}", o);
            for p in ds.ids() {
                if p != o && tkd_model::dominance::dominates(&ds, o, p) {
                    prop_assert!(qe.get(p as usize), "dominated object missing from Q");
                }
            }
        }
    }

    /// Compressed columns decompress to the originals.
    #[test]
    fn compressed_columns_equal_dense(ds in dataset_strategy(), bins in 1usize..6) {
        let binned = BinnedBitmapIndex::build(&ds, &vec![bins; ds.dims()]);
        let cc: CompressedColumns<Concise> = CompressedColumns::from_binned(&binned);
        let cw: CompressedColumns<Wah> = CompressedColumns::from_binned(&binned);
        for dim in 0..ds.dims() {
            for c in 0..binned.num_columns(dim) {
                prop_assert_eq!(&cc.decompress_column(dim, c), binned.column(dim, c));
                prop_assert_eq!(&cw.decompress_column(dim, c), binned.column(dim, c));
            }
        }
    }

    /// Bin boundaries partition the observed domain: ascending, last equals
    /// the max, every observed value lands in exactly one bin.
    #[test]
    fn bins_partition_domain(
        counts in proptest::collection::btree_map(0u32..1000, 1usize..20, 1..40),
        x in 1usize..10,
    ) {
        let value_counts: Vec<(f64, usize)> =
            counts.iter().map(|(&v, &c)| (v as f64, c)).collect();
        let bounds = compute_bins(&value_counts, x);
        prop_assert!(!bounds.is_empty());
        prop_assert!(bounds.len() <= x);
        prop_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(*bounds.last().unwrap(), value_counts.last().unwrap().0);
        for &(v, _) in &value_counts {
            let bin = bounds.partition_point(|&ub| ub < v);
            prop_assert!(bin < bounds.len(), "value {v} above the last boundary");
        }
    }

    /// Probes agree with direct scans: ids_equal returns exactly the
    /// objects holding the value; ids_in_bin_below exactly the same-bin
    /// strictly-smaller ones.
    #[test]
    fn probes_agree_with_scans(ds in dataset_strategy(), bins in 1usize..5) {
        let idx = BinnedBitmapIndex::build(&ds, &vec![bins; ds.dims()]);
        for o in ds.ids() {
            for dim in 0..ds.dims() {
                let Some(v) = ds.value(o, dim) else { continue };
                let mut got: Vec<u32> = idx.ids_equal(dim, v).collect();
                got.sort_unstable();
                let mut want: Vec<u32> = ds
                    .ids()
                    .filter(|&p| ds.value(p, dim) == Some(v))
                    .collect();
                want.sort_unstable();
                prop_assert_eq!(got, want);

                let mut below: Vec<u32> = idx.ids_in_bin_below(&ds, o, dim).collect();
                below.sort_unstable();
                let bin = idx.bin_of(o, dim).unwrap();
                let mut want_below: Vec<u32> = ds
                    .ids()
                    .filter(|&p| {
                        idx.bin_of(p, dim) == Some(bin)
                            && matches!(ds.value(p, dim), Some(w) if w < v)
                    })
                    .collect();
                want_below.sort_unstable();
                prop_assert_eq!(below, want_below);
            }
        }
    }

    /// Index size formulas match the materialized column counts.
    #[test]
    fn size_formulas(ds in dataset_strategy(), bins in 1usize..6) {
        let exact = BitmapIndex::build(&ds);
        let expected: u64 = (0..ds.dims())
            .map(|d| (exact.cardinality(d) as u64 + 1) * ds.len() as u64)
            .sum();
        prop_assert_eq!(exact.size_bits(), expected);
        let binned = BinnedBitmapIndex::build(&ds, &vec![bins; ds.dims()]);
        prop_assert!(binned.size_bits() <= exact.size_bits());
    }
}
