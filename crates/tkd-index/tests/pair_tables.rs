//! Soundness of the pairwise Heuristic 2 tables against brute force.
//!
//! For every pair of dimensions and every pair of picks — each exact
//! column, each binned pick, each boundary — the tables' bound must be at
//! least the picks' joint popcount `|column(i, cᵢ) ∧ column(j, cⱼ)|`, and
//! equal to it when both picks are grid boundaries; a pick below the
//! first boundary has no entry. The budgeted
//! Heuristic 2 scan, which consults the tables first, must still answer
//! exactly: `None` iff the count is within the budget. Checked on static
//! builds, on snapshot-style loads (`from_slots`), and along seeded op
//! streams — inserts above the last value (a spliced column), new values
//! in between, observedness flips, tombstones and compactions — where
//! every op must drop the tables and a re-derivation must equal a load's.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tkd_bitvec::{BitVec, Tombstones};
use tkd_index::{BinBoundaries, BinnedBitmapIndex, BitmapIndex, ColumnSelection};
use tkd_model::Dataset;

type Rows = Vec<Vec<Option<f64>>>;

/// Rows over `dims` dimensions, values on a grid of `card` steps.
fn rows_strategy(dims: usize, card: u32, max_rows: usize) -> impl Strategy<Value = Rows> {
    let cell = proptest::option::weighted(0.8, (0..card).prop_map(f64::from));
    let row = proptest::collection::vec(cell, dims)
        .prop_filter("at least one observed", |r| r.iter().any(Option::is_some));
    proptest::collection::vec(row, 1..max_rows)
}

/// The exact column index of every binned column of `dim`: the view's
/// columns are the exact index's own, found by address.
fn binned_picks(exact: &BitmapIndex, bins: &BinBoundaries, dim: usize) -> Vec<u32> {
    let view = BinnedBitmapIndex::new(exact, bins);
    (0..view.num_columns(dim))
        .map(|b| {
            let col = view.column(dim, b);
            (0..exact.num_columns(dim))
                .find(|&c| std::ptr::eq(exact.column(dim, c), col))
                .expect("a binned column is an exact column") as u32
        })
        .collect()
}

/// `|∩ᵢ columns[i][sel.q[i]]|` by filling the intersection.
fn filled_count(idx: &BitmapIndex, sel: &ColumnSelection) -> usize {
    let mut q = BitVec::zeros(idx.n());
    idx.q_into_selected(sel, None, &mut q);
    q.count_ones()
}

/// The budgeted scan answers `sel` exactly at every budget up to past
/// its count.
fn assert_scan_exact(
    idx: &BitmapIndex,
    sel: &ColumnSelection,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let count = filled_count(idx, sel);
    for budget in 0..=count + 1 {
        let want = (count > budget).then_some(count);
        let got = idx.q_count_selected_above(sel, budget);
        prop_assert_eq!(got, want, "{}: budget {} count {}", ctx, budget, count);
    }
    Ok(())
}

/// The tables of `idx` against brute force: bounds at every pair of
/// exact picks (equal at boundaries), at every pair of `bins`' picks, and
/// the budgeted scan at every live row's exact and binned selection and
/// at by-value selections past the ends of the value tables.
fn assert_sound(idx: &BitmapIndex, bins: &BinBoundaries, ctx: &str) -> Result<(), TestCaseError> {
    let tables = idx.pair_tables().expect("tables derived");
    let dims = idx.dims();
    for d in 0..dims {
        let b = tables.boundaries(d);
        prop_assert!(b.len() < tables.cells(), "{}: dim {} grid", ctx, d);
        prop_assert!(b.windows(2).all(|w| w[0] < w[1]), "{}: ascending", ctx);
        prop_assert!(
            b.iter()
                .all(|&c| c >= 1 && (c as usize) < idx.num_columns(d)),
            "{}: dim {} boundaries {:?}",
            ctx,
            d,
            b
        );
    }
    let is_boundary = |d: usize, c: u32| tables.boundaries(d).contains(&c);
    let below_grid = |d: usize, c: u32| tables.boundaries(d).first().is_none_or(|&b| c < b);
    let binned: Vec<Vec<u32>> = (0..dims).map(|d| binned_picks(idx, bins, d)).collect();
    for i in 0..dims {
        for j in (0..dims).filter(|&j| j != i) {
            for ci in 0..idx.num_columns(i) as u32 {
                for cj in 0..idx.num_columns(j) as u32 {
                    let joint = idx
                        .column(i, ci as usize)
                        .and_count(idx.column(j, cj as usize));
                    let bound = tables.bound(i, ci, j, cj);
                    prop_assert_eq!(
                        bound.is_none(),
                        below_grid(i, ci) || below_grid(j, cj),
                        "{}: picks ({}, {}) below the grid",
                        ctx,
                        ci,
                        cj
                    );
                    let Some(bound) = bound else { continue };
                    prop_assert!(
                        bound >= joint,
                        "{}: dims ({}, {}) picks ({}, {}): bound {} < {}",
                        ctx,
                        i,
                        j,
                        ci,
                        cj,
                        bound,
                        joint
                    );
                    if is_boundary(i, ci) && is_boundary(j, cj) {
                        prop_assert_eq!(bound, joint, "{}: boundary ({}, {})", ctx, ci, cj);
                    }
                }
            }
            for &ci in &binned[i] {
                for &cj in &binned[j] {
                    let joint = idx
                        .column(i, ci as usize)
                        .and_count(idx.column(j, cj as usize));
                    let bound = tables.bound(i, ci, j, cj);
                    prop_assert!(bound.is_none_or(|b| b >= joint), "{}: binned", ctx);
                }
            }
        }
    }
    let view = BinnedBitmapIndex::new(idx, bins);
    for o in (0..idx.n()).filter(|&o| idx.live_mask().get(o)) {
        assert_scan_exact(idx, &idx.selection_of(o), &format!("{ctx}: exact row {o}"))?;
        assert_scan_exact(
            idx,
            &view.selection_of(o),
            &format!("{ctx}: binned row {o}"),
        )?;
    }
    for v in [f64::NEG_INFINITY, 2.5, f64::INFINITY] {
        assert_scan_exact(
            idx,
            &idx.select_for(|_| Some(v)),
            &format!("{ctx}: value {v}"),
        )?;
    }
    Ok(())
}

/// The snapshot loader's view of `idx`: value tables, value slots and
/// live mask, derived back into an index.
fn reload(idx: &BitmapIndex) -> BitmapIndex {
    let dims = idx.dims();
    let values = (0..dims).map(|d| idx.values(d).to_vec()).collect();
    let slots = (0..idx.n())
        .flat_map(|o| (0..dims).map(move |d| idx.value_slot(o, d)))
        .collect();
    let live = Tombstones::from_live_mask(idx.live_mask().clone());
    BitmapIndex::from_slots(values, slots, live).expect("consistent parts")
}

/// Splitmix stream for the op streams.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An op-stream cell: missing, a value above every seed value (spliced in
/// past the last column), a new value between the seed's, or a seed
/// value.
fn op_cell(state: &mut u64, card: u32) -> Option<f64> {
    match mix(state) % 8 {
        0 => None,
        1 => Some(f64::from(card) + (mix(state) % 4) as f64),
        2 => Some((mix(state) % u64::from(card)) as f64 + 0.5),
        _ => Some((mix(state) % u64::from(card)) as f64),
    }
}

/// Drive `len` seeded ops over the index of `rows` — inserts, deletes,
/// observedness flips and cell rewrites, and a compaction (a rebuild from
/// the live rows) now and then — asserting that every op drops the
/// tables, and that every few ops the re-derived tables are sound and
/// equal to a load's.
fn run_stream(rows: Rows, seed: u64, len: usize, card: u32) -> Result<(), TestCaseError> {
    let dims = rows[0].len();
    let mut state = seed;
    let mut idx = BitmapIndex::build(&Dataset::from_rows(dims, &rows).unwrap());
    // Slot-indexed mirror, `None` once tombstoned.
    let mut mirror: Vec<Option<Vec<Option<f64>>>> = rows.into_iter().map(Some).collect();
    for step in 0..len {
        let live: Vec<usize> = (0..mirror.len()).filter(|&s| mirror[s].is_some()).collect();
        match mix(&mut state) % 10 {
            0..=3 => {
                let mut row: Vec<Option<f64>> =
                    (0..dims).map(|_| op_cell(&mut state, card)).collect();
                if row.iter().all(Option::is_none) {
                    row[0] = Some(f64::from(card) + 7.0);
                }
                idx.append_row(|d| row[d]);
                mirror.push(Some(row));
            }
            4 | 5 if live.len() > 1 => {
                let s = live[mix(&mut state) as usize % live.len()];
                idx.tombstone_row(s);
                mirror[s] = None;
            }
            6..=8 if !live.is_empty() => {
                let s = live[mix(&mut state) as usize % live.len()];
                let d = mix(&mut state) as usize % dims;
                let row = mirror[s].as_mut().unwrap();
                // An observedness flip: clear an observed cell (unless it
                // is the row's last), or fill a missing one.
                let new = match row[d] {
                    Some(_) if row.iter().flatten().count() > 1 => None,
                    Some(_) => Some(f64::from(card) + 1.5),
                    None => Some((mix(&mut state) % u64::from(card)) as f64),
                };
                idx.set_cell(s, d, new);
                row[d] = new;
            }
            9 => {
                let kept: Rows = mirror.iter().flatten().cloned().collect();
                idx = BitmapIndex::build(&Dataset::from_rows(dims, &kept).unwrap());
                mirror = kept.into_iter().map(Some).collect();
                let bins = BinBoundaries::build(&idx, &vec![3; dims]);
                assert_sound(&idx, &bins, &format!("compaction at step {step}"))?;
                continue;
            }
            _ => continue,
        }
        prop_assert!(idx.pair_tables().is_none(), "step {}: stale tables", step);
        if step % 5 == 0 {
            idx.derive_pair_tables();
            let loaded = reload(&idx);
            prop_assert_eq!(
                idx.pair_tables(),
                loaded.pair_tables(),
                "step {}: load",
                step
            );
            let bins = BinBoundaries::build(&idx, &vec![3; dims]);
            assert_sound(&idx, &bins, &format!("step {step}"))?;
        }
    }
    idx.derive_pair_tables();
    let bins = BinBoundaries::build(&idx, &vec![2; dims]);
    assert_sound(&idx, &bins, "stream end")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Static builds and their loads: sound tables, equal after a load.
    #[test]
    fn static_tables_are_sound(
        (dims, rows) in (2usize..=4).prop_flat_map(|d| (Just(d), rows_strategy(d, 12, 80))),
        bins in 1usize..5,
    ) {
        let idx = BitmapIndex::build(&Dataset::from_rows(dims, &rows).unwrap());
        let b = BinBoundaries::build(&idx, &vec![bins; dims]);
        assert_sound(&idx, &b, "build")?;
        let loaded = reload(&idx);
        prop_assert_eq!(idx.pair_tables(), loaded.pair_tables());
        assert_sound(&loaded, &b, "load")?;
    }

    /// Seeded op streams: every op drops the tables, and every
    /// re-derivation is sound and equal to a load's.
    #[test]
    fn tables_follow_op_streams(
        (_, rows) in (2usize..=3).prop_flat_map(|d| (Just(d), rows_strategy(d, 10, 40))),
        seed in any::<u64>(),
        len in 1usize..40,
    ) {
        run_stream(rows, seed, len, 10)?;
    }
}

/// A grid of the full eight cells over a larger index, where the tables
/// decide most budgeted scans that end in a prune: soundness, exact scan
/// answers, and proof that the lookups are exercised.
#[test]
fn full_grid_decides_and_stays_exact() {
    let mut state = 7u64;
    let dims = 3;
    let rows: Rows = (0..600)
        .map(|_| {
            let mut row: Vec<Option<f64>> = (0..dims)
                .map(|_| {
                    (!mix(&mut state).is_multiple_of(10)).then(|| (mix(&mut state) % 40) as f64)
                })
                .collect();
            if row.iter().all(Option::is_none) {
                row[0] = Some(1.0);
            }
            row
        })
        .collect();
    let idx = BitmapIndex::build(&Dataset::from_rows(dims, &rows).unwrap());
    let tables = idx.pair_tables().expect("tables derived");
    assert_eq!(tables.cells(), 8);
    let bins = BinBoundaries::build(&idx, &vec![5; dims]);
    assert_sound(&idx, &bins, "full grid").unwrap();
    // Picks whose best pair bound proves a prune the sparsest single
    // column cannot: the tables, not the scan's upfront test, decide.
    let decided = (0..idx.n())
        .filter(|&o| {
            let sel = idx.selection_of(o);
            let single = (0..dims)
                .map(|d| idx.q_column(o as u32, d).count_ones())
                .min()
                .unwrap();
            let pair = (0..dims)
                .flat_map(|i| (i + 1..dims).map(move |j| (i, j)))
                .filter_map(|(i, j)| {
                    let ci = idx.value_index(o as u32, i).map_or(0, |v| v - 1);
                    let cj = idx.value_index(o as u32, j).map_or(0, |v| v - 1);
                    tables.bound(i, ci, j, cj)
                })
                .min();
            pair.is_some_and(|p| p < single && idx.q_count_selected_above(&sel, p).is_none())
        })
        .count();
    assert!(decided > 100, "the tables decided {decided} scans");
}

/// Maintenance drops the tables until they are derived again; a
/// single-dimension index has none.
#[test]
fn tables_are_absent_or_exact() {
    let rows: Rows = (0..50)
        .map(|i| vec![Some(f64::from(i % 7)), Some(f64::from(i % 5))])
        .collect();
    let mut idx = BitmapIndex::build(&Dataset::from_rows(2, &rows).unwrap());
    assert!(idx.pair_tables().is_some(), "derived at build");
    idx.tombstone_row(3);
    assert!(idx.pair_tables().is_none());
    idx.derive_pair_tables();
    assert_eq!(idx.pair_tables(), reload(&idx).pair_tables());
    let one = vec![vec![Some(1.0)], vec![Some(2.0)]];
    assert!(BitmapIndex::build(&Dataset::from_rows(1, &one).unwrap())
        .pair_tables()
        .is_none());
}
