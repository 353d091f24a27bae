//! Property-based validation of the bitmap indexes against brute-force set
//! semantics, on random incomplete datasets.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tkd_bitvec::{BitVec, Concise, Wah};
use tkd_index::{compute_bins, BinBoundaries, BinnedBitmapIndex, BitmapIndex, CompressedColumns};
use tkd_model::{Dataset, DimMask, ObjectId};

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
/// on the exact index and on the view of it through `bins` (whose pick
/// tables are brought up to date first).
fn assert_selections_agree(
    exact: &BitmapIndex,
    bins: &mut BinBoundaries,
    rows: &[Vec<Option<f64>>],
) -> Result<(), TestCaseError> {
    bins.sync(exact);
    let binned = BinnedBitmapIndex::new(exact, bins);
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

/// The rank query — the fused `|Q|` count of a selection observing only
/// dimension `i`, i.e. the popcount of its one `[Qᵢ]` column — equals a
/// brute-force count over the live rows (`None` = tombstoned), for probes
/// at, between, below and beyond the table values.
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
                exact.q_count_selected_above(&sel, 0).unwrap_or(0),
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
    /// for field, on the exact index and its binned view: bulk-built with
    /// a dimension nobody observes, beside tombstoned neighbours (whose own
    /// slots stay readable), after appends that observe that dimension
    /// for the first time and splice new values in, and after cell
    /// rewrites.
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
        let mut binned = BinBoundaries::build(&exact, &[bins; 4]);
        assert_selections_agree(&exact, &mut binned, &rows)?;

        for local in (0..rows.len()).step_by(3) {
            exact.tombstone_row(local);
        }
        assert_selections_agree(&exact, &mut binned, &rows)?;

        for row in appended {
            exact.append_row(|d| row[d]);
            rows.push(row);
        }
        assert_selections_agree(&exact, &mut binned, &rows)?;

        // Rotate each live seed row's first cell into its neighbour's.
        for local in (1..rows.len()).filter(|l| l % 3 != 0) {
            let new = rows[local - 1][0];
            exact.set_cell(local, 0, new);
            rows[local][0] = new;
        }
        assert_selections_agree(&exact, &mut binned, &rows)?;
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

    /// The in-bin probe agrees with a direct scan: `ids_in_bin_below`
    /// returns exactly the same-bin strictly-smaller objects.
    #[test]
    fn probes_agree_with_scans(ds in dataset_strategy(), bins in 1usize..5) {
        let idx = BinnedBitmapIndex::build(&ds, &vec![bins; ds.dims()]);
        for o in ds.ids() {
            for dim in 0..ds.dims() {
                let Some(v) = ds.value(o, dim) else { continue };
                let below: Vec<u32> = idx.ids_in_bin_below(&ds, o, dim).collect();
                let bin = idx.bin_of(o, dim).unwrap();
                let want_below: Vec<u32> = ds
                    .ids()
                    .filter(|&p| {
                        idx.bin_of(p, dim) == Some(bin)
                            && matches!(ds.value(p, dim), Some(w) if w < v)
                    })
                    .collect();
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

/// Deterministic splitmix stream for the view op streams.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cell of an op stream: a value among the seed's, a signed zero, one
/// above every seed value (past the build-time boundaries), or missing.
fn op_cell(state: &mut u64) -> Option<f64> {
    match mix(state) % 8 {
        0 => None,
        1 => Some(-0.0),
        2 => Some(50.0 + (mix(state) % 3) as f64),
        v => Some(f64::from(v as u32) / 2.0),
    }
}

/// The view of `exact` through `bins` against brute force over `rows`
/// (slot-indexed, `None` = tombstoned):
/// - every column `c ≥ 1` is `{live ∧ (missing ∨ v > boundary c)}`, the
///   open last bin's boundary being `+∞`, and column 0 — which keeps the
///   dead slots set — is every slot;
/// - per live candidate, the `Q`/`P` fills at its binned picks, the
///   in-bin probe, and both scoring splits of `Q − P` (binned, and exact
///   as BIG runs it) equal row scans over the live rows.
fn assert_view_matches_rows(
    exact: &BitmapIndex,
    bins: &BinBoundaries,
    rows: &[Option<Vec<Option<f64>>>],
) -> Result<(), TestCaseError> {
    let view = BinnedBitmapIndex::new(exact, bins);
    let ds = Dataset::from_rows(view.dims(), &[]).expect("valid dims");
    let n = rows.len();
    prop_assert_eq!(view.n(), n);
    let value = |s: usize, d: usize| rows[s].as_ref().and_then(|r| r[d]);
    let live: Vec<usize> = (0..n).filter(|&s| rows[s].is_some()).collect();
    let set = |keep: &dyn Fn(usize) -> bool| {
        BitVec::from_indices(n, live.iter().copied().filter(|&s| keep(s)))
    };
    for d in 0..view.dims() {
        let bounds = bins.of(d);
        prop_assert_eq!(view.column(d, 0), &BitVec::ones(n), "column 0 of dim {}", d);
        for c in 1..view.num_columns(d) {
            let bound = if c == bounds.len() {
                f64::INFINITY
            } else {
                bounds[c - 1]
            };
            let want = set(&|s| value(s, d).is_none_or(|v| v > bound));
            prop_assert_eq!(view.column(d, c), &want, "dim {} column {}", d, c);
        }
    }
    // 0-based bin of a value: the first boundary at or above it, or the
    // open last bin.
    let bin = |d: usize, v: f64| {
        let b = bins.of(d);
        b.partition_point(|&ub| ub < v)
            .min(b.len().saturating_sub(1))
    };
    let mut q = BitVec::zeros(n);
    let mut p = BitVec::zeros(n);
    for &o in &live {
        let sel = exact.selection_of(o);
        let bin_sel = view.selection_of(o);
        let mask = DimMask::from_indices((0..view.dims()).filter(|&d| value(o, d).is_some()));
        // Rows passing `keep` in every dimension both observe.
        let all = |r: usize, keep: &dyn Fn(usize, f64, f64) -> bool| {
            mask.iter()
                .all(|d| value(r, d).is_none_or(|w| keep(d, value(o, d).unwrap(), w)))
        };
        let q_rows = set(&|r| r != o && all(r, &|d, v, w| bin(d, w) >= bin(d, v)));
        let p_rows = set(&|r| all(r, &|d, v, w| bin(d, w) > bin(d, v)));
        exact.q_into_selected(&bin_sel, Some(o), &mut q);
        exact.p_into_selected(&bin_sel, &mut p);
        prop_assert_eq!(&q, &q_rows, "binned Q of {}", o);
        prop_assert_eq!(&p, &p_rows, "binned P of {}", o);
        let below = |r: usize, d: usize| {
            let (v, w) = (value(o, d).unwrap(), value(r, d));
            w.is_some_and(|w| w < v && bin(d, w) == bin(d, v))
        };
        for d in mask.iter() {
            let probe = view.ids_in_bin_below(&ds, o as ObjectId, d);
            let want: Vec<ObjectId> = live
                .iter()
                .filter(|&&r| below(r, d))
                .map(|&r| r as ObjectId)
                .collect();
            prop_assert_eq!(probe.collect::<Vec<_>>(), want, "probe of {} dim {}", o, d);
        }
        let equal = |r: usize| all(r, &|_, v, w| w == v);
        let residue: Vec<usize> = q.iter_ones_and_not(&p).collect();
        let non_d = residue
            .iter()
            .filter(|&&r| equal(r) || mask.iter().any(|d| below(r, d)))
            .count();
        prop_assert_eq!(
            exact.residue_counts(&q, &p, &sel, &bin_sel, mask),
            (residue.len(), non_d),
            "binned split of {}",
            o
        );
        exact.q_into_selected(&sel, Some(o), &mut q);
        exact.p_into_selected(&sel, &mut p);
        let residue: Vec<usize> = q.iter_ones_and_not(&p).collect();
        let non_d = residue.iter().filter(|&&r| equal(r)).count();
        prop_assert_eq!(
            exact.residue_counts(&q, &p, &sel, &sel, mask),
            (residue.len(), non_d),
            "exact split of {}",
            o
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The binned view follows a random op stream on the exact index
    /// beneath it without being maintained (ROADMAP item 15(a)): inserts
    /// with values above the build-time boundaries, the first values of a
    /// dimension nobody observed at build, tombstones, cell rewrites, and
    /// compactions that rebuild the index from the live rows and
    /// re-quantile the boundaries. Every step includes a live row whose
    /// values all lie in the first bin, so its picks are all column 0,
    /// the column that keeps dead slots set.
    #[test]
    fn view_follows_op_streams(
        seed_rows in special_rows(3),
        seed in any::<u64>(),
        bins in 1usize..5,
    ) {
        let mut state = seed;
        // Dimension 3 starts out all-missing; the last row lies in the
        // first bin of every dimension.
        let seed: Vec<Option<Vec<Option<f64>>>> = seed_rows
            .into_iter()
            .map(|r| Some(vec![r[0], r[1], r[2], None]))
            .chain([Some(vec![Some(-1e9), Some(-1e9), Some(-1e9), None])])
            .collect();
        let rebuild = |rows: &[Option<Vec<Option<f64>>>]| {
            let live: Vec<Vec<Option<f64>>> = rows.iter().flatten().cloned().collect();
            let exact = BitmapIndex::build(&Dataset::from_rows(4, &live).expect("valid rows"));
            let bins = BinBoundaries::build(&exact, &[bins; 4]);
            (live.into_iter().map(Some).collect::<Vec<_>>(), exact, bins)
        };
        let (mut rows, mut exact, mut bounds) = rebuild(&seed);
        assert_view_matches_rows(&exact, &bounds, &rows)?;
        for _ in 0..24 {
            let live: Vec<usize> = (0..rows.len()).filter(|&s| rows[s].is_some()).collect();
            let pick = |state: &mut u64| live[mix(state) as usize % live.len()];
            match mix(&mut state) % 10 {
                0..=3 => {
                    let mut row: Vec<Option<f64>> = (0..4).map(|_| op_cell(&mut state)).collect();
                    if row.iter().all(Option::is_none) {
                        row[3] = Some(1.5);
                    }
                    exact.append_row(|d| row[d]);
                    rows.push(Some(row));
                }
                // Never the first-bin row, which the checks lean on.
                4..=5 if live.len() > 2 => {
                    let s = pick(&mut state);
                    if rows[s].as_ref().is_some_and(|r| r[0] != Some(-1e9)) {
                        exact.tombstone_row(s);
                        rows[s] = None;
                    }
                }
                6..=8 => {
                    let s = pick(&mut state);
                    let d = mix(&mut state) as usize % 4;
                    let row = rows[s].as_mut().expect("live");
                    let new = op_cell(&mut state);
                    let first_bin = row[0] == Some(-1e9);
                    if !first_bin && (new.is_some() || (0..4).any(|e| e != d && row[e].is_some())) {
                        exact.set_cell(s, d, new);
                        row[d] = new;
                    }
                }
                _ => (rows, exact, bounds) = rebuild(&rows),
            }
            bounds.sync(&exact);
            assert_view_matches_rows(&exact, &bounds, &rows)?;
        }
    }
}
