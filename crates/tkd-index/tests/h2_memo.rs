//! The measurement memo against the memo-free test.
//!
//! **The exact lane.** `BitmapIndex::max_bit_score_above` reads the memo
//! before the pair tables and the budgeted scan, and stores what they
//! proved. After calls at random budgets, in random row order and
//! repeated, every answer must equal the memo-free budgeted count
//! (`q_count_selected_above` on the row's `selection_of`); no bound may
//! ever be below the row's exact `MaxBitScore`; a prune must leave a
//! bound within its budget (so the revisit is the memo's to decide) and a
//! keep the exact score.
//!
//! **The binned lane.** `BinnedBitmapIndex::member_count_above` reads it
//! first and `record_non_d` completes a kept row's entry with its `nonD`.
//! Every lookup must equal the memo-free count at the view's
//! `selection_of`; no bound may be below the exact count; a cached
//! `nonD` must equal a fresh residue pass over the row's `Q` and `P`, so
//! the score rebuilt from the entry, `count − 1 − |F| − nonD`, equals a
//! brute-force dominance count over the live rows; and a view through
//! other boundaries over the same index must never read or feed the lane.
//!
//! Both lanes are checked on static builds, on snapshot-style loads
//! (`from_slots`), and along seeded op streams — inserts, deletes,
//! observedness flips, cell rewrites and compactions — where every
//! in-place op must make the lane unreadable until `derive_pair_tables`.
//! A lane is sized by the walks that read it, at the second one, so each
//! build, load and reload here is armed with two announced walks first;
//! `lanes_follow_the_walks` holds that rule itself.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tkd_bitvec::{BitVec, Tombstones};
use tkd_index::{BinBoundaries, BinnedBitmapIndex, BitmapIndex, MemberCount};
use tkd_model::{Dataset, DimMask, ObjectId};

type Row = Vec<Option<f64>>;
type Rows = Vec<Row>;
/// Slot-indexed rows, `None` once tombstoned.
type Mirror = Vec<Option<Row>>;

/// Which memo lane a test drives.
#[derive(Clone, Copy, Debug)]
enum Lane {
    Exact,
    Binned,
}

/// Rows over `dims` dimensions, values on a grid of `card` steps.
fn rows_strategy(dims: usize, card: u32, max_rows: usize) -> impl Strategy<Value = Rows> {
    let cell = proptest::option::weighted(0.8, (0..card).prop_map(f64::from));
    let row = proptest::collection::vec(cell, dims)
        .prop_filter("at least one observed", |r| r.iter().any(Option::is_some));
    proptest::collection::vec(row, 1..max_rows)
}

/// Splitmix stream for budgets, row orders and op streams.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two announced BIG walks over `idx`: the second sizes the exact lane.
fn arm_exact(idx: &BitmapIndex) {
    idx.announce_walk();
    idx.announce_walk();
}

/// Two announced IBIG walks through `view`: the second sizes the binned
/// lane.
fn arm_binned(view: &BinnedBitmapIndex<'_>) {
    view.announce_walk();
    view.announce_walk();
}

/// Two announced walks of the algorithm that reads `lane` over `idx`
/// (through `bins` for the binned lane).
fn arm(lane: Lane, idx: &BitmapIndex, bins: &BinBoundaries) {
    match lane {
        Lane::Exact => arm_exact(idx),
        Lane::Binned => arm_binned(&BinnedBitmapIndex::new(idx, bins)),
    }
}

/// The live slots of `idx`.
fn live_rows(idx: &BitmapIndex) -> Vec<usize> {
    (0..idx.n()).filter(|&o| idx.live_mask().get(o)).collect()
}

/// The memo-free Heuristic 2 answer for member row `o` at `tau`.
fn memo_free(idx: &BitmapIndex, o: usize, tau: usize) -> Option<usize> {
    idx.q_count_selected_above(&idx.selection_of(o), tau + 1)
        .map(|c| c - 1)
}

/// Every live row's bound is unknown — a fresh or refreshed memo.
fn assert_unknown(idx: &BitmapIndex, ctx: &str) -> Result<(), TestCaseError> {
    for o in live_rows(idx) {
        let bound = idx.max_bit_score_bound(o as ObjectId);
        prop_assert_eq!(bound, None, "{}: row {} already bounded", ctx, o);
    }
    Ok(())
}

/// Every live row's bound, where known, is at least its exact score.
fn assert_bounds_hold(idx: &BitmapIndex, ctx: &str) -> Result<(), TestCaseError> {
    for o in live_rows(idx) {
        let exact = idx.max_bit_score(o as ObjectId);
        let bound = idx.max_bit_score_bound(o as ObjectId);
        prop_assert!(
            bound.is_none_or(|b| b >= exact),
            "{}: row {} bound {:?} below its score {}",
            ctx,
            o,
            bound,
            exact
        );
    }
    Ok(())
}

/// Drive `max_bit_score_above` over the live rows in seeded order, three
/// passes of random budgets around each row's score, and hold every
/// answer to the memo-free one and every stored bound to what the call
/// proved.
fn exercise(idx: &BitmapIndex, state: &mut u64, ctx: &str) -> Result<(), TestCaseError> {
    let mut rows = live_rows(idx);
    for pass in 0..3 {
        for i in (1..rows.len()).rev() {
            rows.swap(i, mix(state) as usize % (i + 1));
        }
        for &o in &rows {
            let exact = idx.max_bit_score(o as ObjectId);
            let tau = match mix(state) % 4 {
                0 => exact,
                1 => exact.saturating_sub(1),
                _ => mix(state) as usize % (exact + 3),
            };
            let got = idx.max_bit_score_above(o as ObjectId, tau);
            let want = memo_free(idx, o, tau);
            prop_assert_eq!(got, want, "{}: pass {} row {} tau {}", ctx, pass, o, tau);
            let bound = idx.max_bit_score_bound(o as ObjectId);
            match got {
                None => prop_assert!(
                    bound.is_some_and(|b| b <= tau),
                    "{}: row {} pruned at tau {} left bound {:?}",
                    ctx,
                    o,
                    tau,
                    bound
                ),
                Some(score) => prop_assert_eq!(bound, Some(score), "{}: row {} kept", ctx, o),
            }
        }
        assert_bounds_hold(idx, ctx)?;
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

/// An op-stream value: above every seed value (spliced in past the last
/// column), a new value between the seed's, or a seed value.
fn op_value(state: &mut u64, card: u32) -> f64 {
    match mix(state) % 7 {
        0 => f64::from(card) + (mix(state) % 4) as f64,
        1 => (mix(state) % u64::from(card)) as f64 + 0.5,
        _ => (mix(state) % u64::from(card)) as f64,
    }
}

/// Drive `len` seeded ops over the index of `rows`, with `lane` warm
/// before each: every in-place op must leave every row unbounded (and
/// the answers exact, memo or not) until `derive_pair_tables`, after
/// which the lane starts over and stays sound. A compaction (a rebuild
/// from the live rows, with new boundaries) starts with an empty lane.
fn run_stream(
    rows: Rows,
    seed: u64,
    len: usize,
    card: u32,
    lane: Lane,
) -> Result<(), TestCaseError> {
    let dims = rows[0].len();
    let mut state = seed;
    let mut idx = BitmapIndex::build(&Dataset::from_rows(dims, &rows).unwrap());
    let mut bins = BinBoundaries::build(&idx, &vec![3; dims]);
    arm(lane, &idx, &bins);
    let mut mirror: Mirror = rows.into_iter().map(Some).collect();
    let mut readable = true;
    for step in 0..len {
        let ctx = format!("step {step}");
        drive(lane, &idx, &bins, &mirror, &mut state, &ctx, readable)?;
        let live: Vec<usize> = (0..mirror.len()).filter(|&s| mirror[s].is_some()).collect();
        match mix(&mut state) % 10 {
            0..=3 => {
                let mut row: Vec<Option<f64>> = (0..dims)
                    .map(|_| {
                        (!mix(&mut state).is_multiple_of(8)).then(|| op_value(&mut state, card))
                    })
                    .collect();
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
                // An observedness flip either way, or a rewrite; a row
                // keeps one observed cell.
                let observed_elsewhere = (0..dims).any(|e| e != d && row[e].is_some());
                let new = match mix(&mut state) % 3 {
                    0 if observed_elsewhere => None,
                    _ => Some(op_value(&mut state, card)),
                };
                idx.set_cell(s, d, new);
                row[d] = new;
            }
            9 => {
                let kept: Rows = mirror.iter().flatten().cloned().collect();
                idx = BitmapIndex::build(&Dataset::from_rows(dims, &kept).unwrap());
                bins = BinBoundaries::build(&idx, &vec![3; dims]);
                arm(lane, &idx, &bins);
                mirror = kept.into_iter().map(Some).collect();
                assert_lane_unknown(lane, &idx, &bins, &format!("compaction at {ctx}"))?;
                readable = true;
                continue;
            }
            _ => continue,
        }
        bins.sync(&idx);
        assert_lane_unknown(
            lane,
            &idx,
            &bins,
            &format!("unreadable after the op at {ctx}"),
        )?;
        drive(lane, &idx, &bins, &mirror, &mut state, &ctx, false)?;
        // Now and then a second op lands before the refresh.
        readable = !mix(&mut state).is_multiple_of(3);
        if readable {
            idx.derive_pair_tables();
            assert_lane_unknown(lane, &idx, &bins, &format!("refreshed at {ctx}"))?;
        }
    }
    idx.derive_pair_tables();
    drive(lane, &idx, &bins, &mirror, &mut state, "stream end", true)?;
    let loaded = reload(&idx);
    let loaded_bins = reload_bins(&loaded, &bins);
    arm(lane, &loaded, &loaded_bins);
    assert_lane_unknown(lane, &loaded, &loaded_bins, "load at stream end")?;
    drive(
        lane,
        &loaded,
        &loaded_bins,
        &mirror,
        &mut state,
        "load at stream end",
        true,
    )
}

/// One round of `lane`'s checks over `idx` (through `bins` for the
/// binned lane), readable or not.
fn drive(
    lane: Lane,
    idx: &BitmapIndex,
    bins: &BinBoundaries,
    mirror: &[Option<Row>],
    state: &mut u64,
    ctx: &str,
    readable: bool,
) -> Result<(), TestCaseError> {
    match (lane, readable) {
        (Lane::Exact, true) => exercise(idx, state, ctx),
        (Lane::Exact, false) => exercise_unreadable(idx, state, ctx),
        (Lane::Binned, _) => {
            let view = BinnedBitmapIndex::new(idx, bins);
            exercise_binned(&view, mirror, state, ctx, readable)
        }
    }
}

/// Every live row of `lane` is unknown — a fresh or refreshed lane.
fn assert_lane_unknown(
    lane: Lane,
    idx: &BitmapIndex,
    bins: &BinBoundaries,
    ctx: &str,
) -> Result<(), TestCaseError> {
    match lane {
        Lane::Exact => assert_unknown(idx, ctx),
        Lane::Binned => assert_binned_unknown(&BinnedBitmapIndex::new(idx, bins), ctx),
    }
}

/// An unreadable memo answers every call memo-free and stores nothing.
fn exercise_unreadable(idx: &BitmapIndex, state: &mut u64, ctx: &str) -> Result<(), TestCaseError> {
    for o in live_rows(idx) {
        let tau = mix(state) as usize % (idx.max_bit_score(o as ObjectId) + 2);
        let got = idx.max_bit_score_above(o as ObjectId, tau);
        prop_assert_eq!(got, memo_free(idx, o, tau), "{}: unreadable row {}", ctx, o);
        prop_assert_eq!(idx.max_bit_score_bound(o as ObjectId), None, "{}", ctx);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Static builds and their loads start unbounded and stay sound.
    #[test]
    fn static_memo_is_sound(
        (dims, rows) in (1usize..=4).prop_flat_map(|d| (Just(d), rows_strategy(d, 12, 80))),
        seed in any::<u64>(),
    ) {
        let idx = BitmapIndex::build(&Dataset::from_rows(dims, &rows).unwrap());
        arm_exact(&idx);
        let mut state = seed;
        assert_unknown(&idx, "build")?;
        exercise(&idx, &mut state, "build")?;
        let clone = idx.clone();
        for o in live_rows(&idx) {
            let o = o as ObjectId;
            prop_assert_eq!(clone.max_bit_score_bound(o), idx.max_bit_score_bound(o));
        }
        let loaded = reload(&idx);
        arm_exact(&loaded);
        assert_unknown(&loaded, "load")?;
        exercise(&loaded, &mut state, "load")?;
    }

    /// Seeded op streams: every in-place op makes the memo unreadable
    /// until the refresh, and every refreshed memo stays sound.
    #[test]
    fn memo_follows_op_streams(
        (_, rows) in (1usize..=3).prop_flat_map(|d| (Just(d), rows_strategy(d, 10, 40))),
        seed in any::<u64>(),
        len in 1usize..40,
    ) {
        run_stream(rows, seed, len, 10, Lane::Exact)?;
    }

    /// Static builds, their clones and their loads: the binned lane
    /// starts unknown, stays sound, and answers whole only what a fresh
    /// term would count.
    #[test]
    fn static_binned_lane_is_sound(
        (dims, rows) in (1usize..=4).prop_flat_map(|d| (Just(d), rows_strategy(d, 12, 80))),
        bins in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let ds = Dataset::from_rows(dims, &rows).unwrap();
        let mirror: Mirror = rows.into_iter().map(Some).collect();
        let view = BinnedBitmapIndex::build(&ds, &vec![bins; dims]);
        arm_binned(&view);
        let mut state = seed;
        assert_binned_unknown(&view, "build")?;
        exercise_binned(&view, &mirror, &mut state, "build", true)?;
        let clone = view.clone();
        for o in live_rows(view.exact()) {
            prop_assert_eq!(clone.member_count_bound(o), view.member_count_bound(o));
        }
        let loaded = reload(view.exact());
        let loaded_bins = reload_bins(&loaded, view.boundaries());
        let loaded = BinnedBitmapIndex::new(&loaded, &loaded_bins);
        arm_binned(&loaded);
        assert_binned_unknown(&loaded, "load")?;
        exercise_binned(&loaded, &mirror, &mut state, "load", true)?;
    }

    /// Seeded op streams through the binned lane: every in-place op makes
    /// it unreadable until the refresh, and every refreshed lane stays
    /// sound, its cached `nonD` exact with tombstones present.
    #[test]
    fn binned_lane_follows_op_streams(
        (_, rows) in (1usize..=3).prop_flat_map(|d| (Just(d), rows_strategy(d, 10, 40))),
        seed in any::<u64>(),
        len in 1usize..40,
    ) {
        run_stream(rows, seed, len, 10, Lane::Binned)?;
    }
}

/// A larger index where the pair tables and the scan both decide: a
/// second pass at the same budgets is answered by the memo — every
/// pruned row's bound fits its budget — with the same answers.
#[test]
fn revisits_are_the_memos_to_decide() {
    let mut state = 11u64;
    let dims = 4;
    let rows: Rows = (0..3000)
        .map(|_| {
            let mut row: Vec<Option<f64>> = (0..dims)
                .map(|_| {
                    (!mix(&mut state).is_multiple_of(10)).then(|| (mix(&mut state) % 50) as f64)
                })
                .collect();
            if row.iter().all(Option::is_none) {
                row[0] = Some(1.0);
            }
            row
        })
        .collect();
    let idx = BitmapIndex::build(&Dataset::from_rows(dims, &rows).unwrap());
    arm_exact(&idx);
    let mut scores: Vec<usize> = (0..idx.n())
        .map(|o| idx.max_bit_score(o as ObjectId))
        .collect();
    scores.sort_unstable();
    let tau = scores[scores.len() / 2];
    let first: Vec<Option<usize>> = (0..idx.n())
        .map(|o| idx.max_bit_score_above(o as ObjectId, tau))
        .collect();
    let pruned = first.iter().filter(|a| a.is_none()).count();
    assert!(pruned >= idx.n() / 2 && pruned < idx.n(), "{pruned} prunes");
    for (o, &answer) in first.iter().enumerate() {
        let o = o as ObjectId;
        match answer {
            None => assert!(idx.max_bit_score_bound(o).is_some_and(|b| b <= tau)),
            Some(score) => assert_eq!(idx.max_bit_score_bound(o), Some(score)),
        }
        assert_eq!(idx.max_bit_score_above(o, tau), answer, "row {o}");
        assert_eq!(
            idx.max_bit_score_above(o, tau),
            memo_free(&idx, o as usize, tau)
        );
    }
}

/// The boundaries `bins` holds, adopted for `loaded` — the snapshot
/// loader's path, with a stamp of their own.
fn reload_bins(loaded: &BitmapIndex, bins: &BinBoundaries) -> BinBoundaries {
    let bounds = (0..bins.dims()).map(|d| bins.of(d).to_vec()).collect();
    BinBoundaries::from_store_parts(loaded, bounds).expect("consistent boundaries")
}

/// The memo-free count at `view`'s picks for member row `o`.
fn memo_free_binned(view: &BinnedBitmapIndex<'_>, o: usize, budget: usize) -> Option<usize> {
    view.exact()
        .q_count_selected_above(&view.selection_of(o), budget)
}

/// A fresh term for member row `o` at `view`'s picks: `|Q|` (its own bit
/// excluded) and `nonD`, from the fills and the residue pass IBIG scores
/// with.
fn fresh_term(view: &BinnedBitmapIndex<'_>, o: usize) -> (usize, usize) {
    let exact = view.exact();
    let (bin_sel, sel) = (view.selection_of(o), exact.selection_of(o));
    let (mut q, mut p) = (BitVec::zeros(exact.n()), BitVec::zeros(exact.n()));
    exact.q_into_selected(&bin_sel, Some(o), &mut q);
    exact.p_into_selected(&bin_sel, &mut p);
    let mask = DimMask::from_indices((0..exact.dims()).filter(|&d| exact.value_slot(o, d) != 0));
    let (_, non_d) = exact.residue_counts(&q, &p, &sel, &bin_sel, mask);
    (q.count_ones(), non_d)
}

/// `|F(o)|` and `o`'s score by brute force over the live rows of
/// `mirror`: the rows sharing no observed dimension with it, and the rows
/// it dominates (lower is better).
fn brute_f_and_score(mirror: &[Option<Row>], o: usize) -> (usize, usize) {
    let me = mirror[o].as_ref().expect("a live row");
    let (mut f, mut score) = (0, 0);
    for (r, row) in mirror.iter().enumerate() {
        let Some(row) = row.as_ref().filter(|_| r != o) else {
            continue;
        };
        let cells: Vec<(f64, f64)> = me
            .iter()
            .zip(row)
            .filter_map(|(a, b)| Some(((*a)?, (*b)?)))
            .collect();
        if cells.is_empty() {
            f += 1;
        } else if cells.iter().all(|(a, b)| a <= b) && cells.iter().any(|(a, b)| a < b) {
            score += 1;
        }
    }
    (f, score)
}

/// Every live row's binned entry is unknown — a fresh, refreshed or
/// unreadable lane.
fn assert_binned_unknown(view: &BinnedBitmapIndex<'_>, ctx: &str) -> Result<(), TestCaseError> {
    for o in live_rows(view.exact()) {
        let entry = view.member_count_bound(o);
        prop_assert_eq!(entry, None, "{}: row {} already bounded", ctx, o);
    }
    Ok(())
}

/// Every live row's binned entry, where known, bounds its exact count;
/// where it holds a `nonD`, the count is exact, the `nonD` a fresh term's
/// and the score rebuilt from them the brute-force one.
fn assert_binned_hold(
    view: &BinnedBitmapIndex<'_>,
    mirror: &[Option<Row>],
    ctx: &str,
) -> Result<(), TestCaseError> {
    for o in live_rows(view.exact()) {
        let Some(entry) = view.member_count_bound(o) else {
            continue;
        };
        let count = memo_free_binned(view, o, 0).unwrap_or(0);
        prop_assert!(
            entry.count >= count,
            "{}: row {} bound {:?} below its count {}",
            ctx,
            o,
            entry,
            count
        );
        if let Some(non_d) = entry.non_d {
            let (q, fresh) = fresh_term(view, o);
            prop_assert_eq!(entry.count, count, "{}: row {} nonD beside a bound", ctx, o);
            prop_assert_eq!(non_d, fresh, "{}: row {} cached nonD", ctx, o);
            prop_assert_eq!(q, count - 1, "{}: row {} |Q|", ctx, o);
            let (f, score) = brute_f_and_score(mirror, o);
            prop_assert_eq!(
                count - 1 - f - non_d,
                score,
                "{}: row {} rebuilt score",
                ctx,
                o
            );
        }
    }
    Ok(())
}

/// Drive `member_count_above` over `view`'s live rows in seeded order,
/// three passes of random budgets around each row's count, completing
/// most kept rows with a fresh term's `nonD` as IBIG's walk does; hold
/// every answer to the memo-free count and every entry to what the calls
/// proved. An unreadable lane answers memo-free and keeps nothing.
fn exercise_binned(
    view: &BinnedBitmapIndex<'_>,
    mirror: &[Option<Row>],
    state: &mut u64,
    ctx: &str,
    readable: bool,
) -> Result<(), TestCaseError> {
    let mut rows = live_rows(view.exact());
    for pass in 0..3 {
        for i in (1..rows.len()).rev() {
            rows.swap(i, mix(state) as usize % (i + 1));
        }
        for &o in &rows {
            let count = memo_free_binned(view, o, 0).unwrap_or(0);
            let budget = match mix(state) % 4 {
                0 => count,
                1 => count.saturating_sub(1),
                2 => 0,
                _ => mix(state) as usize % (count + 3),
            };
            let got = view.member_count_above(o, budget);
            let want = memo_free_binned(view, o, budget);
            let at = format!("{ctx}: pass {pass} row {o} budget {budget}");
            prop_assert_eq!(got.map(|m| m.count), want, "{}", at);
            if let Some(MemberCount { count, non_d }) = got {
                let (_, fresh) = fresh_term(view, o);
                match non_d {
                    Some(cached) => prop_assert_eq!(cached, fresh, "{}: cached nonD", at),
                    None if !mix(state).is_multiple_of(4) => view.record_non_d(o, count, fresh),
                    None => {}
                }
            }
            let entry = view.member_count_bound(o);
            if !readable {
                prop_assert_eq!(entry, None, "{}: unreadable lane kept", at);
                continue;
            }
            match got {
                None => prop_assert!(
                    entry.is_some_and(|e| e.count <= budget),
                    "{}: prune left {:?}",
                    at,
                    entry
                ),
                Some(m) => prop_assert_eq!(entry.map(|e| e.count), Some(m.count), "{}", at),
            }
        }
        if readable {
            assert_binned_hold(view, mirror, ctx)?;
        }
    }
    Ok(())
}

/// A seeded 600-row dataset over 4 dimensions, values 0..20.
fn grid_rows(seed: u64) -> Rows {
    let mut state = seed;
    (0..600)
        .map(|_| {
            let mut row: Row = (0..4)
                .map(|_| {
                    (!mix(&mut state).is_multiple_of(8)).then(|| (mix(&mut state) % 20) as f64)
                })
                .collect();
            if row.iter().all(Option::is_none) {
                row[0] = Some(1.0);
            }
            row
        })
        .collect()
}

/// The binned lane belongs to the first boundaries that read it: their
/// clones read it too, but a view through other boundaries — even equal
/// ones built apart — answers memo-free, sees no entry and stores
/// nothing. A refresh hands the lane to whoever reads it next.
#[test]
fn other_boundaries_never_read_the_lane() {
    let rows = grid_rows(5);
    let mirror: Mirror = rows.iter().cloned().map(Some).collect();
    let mut idx = BitmapIndex::build(&Dataset::from_rows(4, &rows).unwrap());
    let owner = BinBoundaries::build(&idx, &[2; 4]);
    let finer = BinBoundaries::build(&idx, &[6; 4]);
    let twin = BinBoundaries::build(&idx, &[2; 4]);
    assert_eq!(twin, owner, "equality ignores the stamp");
    let mut state = 9;
    let view = BinnedBitmapIndex::new(&idx, &owner);
    arm_binned(&view);
    exercise_binned(&view, &mirror, &mut state, "owner", true).unwrap();
    let filled: Vec<Option<MemberCount>> = live_rows(&idx)
        .into_iter()
        .map(|o| view.member_count_bound(o))
        .collect();
    assert!(
        filled
            .iter()
            .filter(|e| e.is_some_and(|e| e.non_d.is_some()))
            .count()
            > 100
    );
    let cloned = owner.clone();
    let clone_view = BinnedBitmapIndex::new(&idx, &cloned);
    for other in [&finer, &twin] {
        let other = BinnedBitmapIndex::new(&idx, other);
        for o in live_rows(&idx) {
            assert_eq!(other.member_count_bound(o), None, "row {o}");
            assert_eq!(
                clone_view.member_count_bound(o),
                filled[o],
                "clone, row {o}"
            );
            for budget in [0, 1, 8, 40] {
                let got = other.member_count_above(o, budget);
                assert_eq!(got.map(|m| m.count), memo_free_binned(&other, o, budget));
                assert!(got.is_none_or(|m| m.non_d.is_none()), "row {o}");
                if let Some(m) = got {
                    other.record_non_d(o, m.count, 0);
                }
            }
            assert_eq!(view.member_count_bound(o), filled[o], "row {o}");
        }
    }
    // A refresh after an op leaves the lane to the next reader.
    idx.append_row(|d| Some(d as f64));
    idx.derive_pair_tables();
    let mut finer = finer;
    finer.sync(&idx);
    let mut mirror = mirror;
    mirror.push(Some(vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0)]));
    let view = BinnedBitmapIndex::new(&idx, &finer);
    exercise_binned(&view, &mirror, &mut state, "finer after refresh", true).unwrap();
    assert!(live_rows(&idx)
        .into_iter()
        .any(|o| view.member_count_bound(o).is_some()));
}

/// An index holds the lanes its walks have sized and no other: built or
/// walked once it holds none; after two BIG walks only the exact lane (4
/// bytes per slot), after two IBIG walks only the binned one (8), after
/// both both — before and after a refresh, while every lookup still
/// answers exactly.
#[test]
fn lanes_follow_the_walks() {
    let rows = grid_rows(6);
    let ds = Dataset::from_rows(4, &rows).unwrap();
    let mirror: Mirror = rows.iter().cloned().map(Some).collect();
    for (big, ibig) in [(true, false), (false, true), (true, true)] {
        let mut idx = BitmapIndex::build(&ds);
        let ctx = format!("BIG walks {big}, IBIG walks {ibig}");
        for refreshed in [false, true] {
            if refreshed {
                idx.tombstone_row(0);
                assert_eq!(idx.memo_bytes(), 0, "{ctx}: unreadable after an op");
                idx.derive_pair_tables();
            }
            let bins = BinBoundaries::build(&idx, &[3; 4]);
            let view = BinnedBitmapIndex::new(&idx, &bins);
            if !refreshed {
                for walk in 0..2 {
                    assert_eq!(idx.memo_bytes(), 0, "{ctx}: after {walk} walks");
                    if big {
                        idx.announce_walk();
                    }
                    if ibig {
                        view.announce_walk();
                    }
                }
            }
            let n = idx.n();
            let want = usize::from(big) * 4 * n + usize::from(ibig) * 8 * n;
            assert_eq!(idx.memo_bytes(), want, "{ctx}, refreshed {refreshed}");
            let mut mirror = mirror.clone();
            if refreshed {
                mirror[0] = None;
            }
            let mut state = 3;
            exercise_binned(&view, &mirror, &mut state, "lanes", ibig).unwrap();
            for o in live_rows(&idx) {
                let tau = idx.max_bit_score(o as ObjectId);
                assert_eq!(idx.max_bit_score_above(o as ObjectId, tau), None);
                let kept = idx.max_bit_score_bound(o as ObjectId).is_some();
                assert_eq!(kept, big, "{ctx}, row {o}");
            }
        }
    }
}
