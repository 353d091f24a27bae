//! The Heuristic 2 memo against the memo-free test.
//!
//! `BitmapIndex::max_bit_score_above` reads the memo before the pair
//! tables and the budgeted scan, and stores what they proved. After calls
//! at random budgets, in random row order and repeated, every answer must
//! equal the memo-free budgeted count (`q_count_selected_above` on the
//! row's `selection_of`); no bound may ever be below the row's exact
//! `MaxBitScore`; a prune must leave a bound within its budget (so the
//! revisit is the memo's to decide) and a keep the exact score. Checked
//! on static builds, on snapshot-style loads (`from_slots`), and along
//! seeded op streams — inserts, deletes, observedness flips, cell
//! rewrites and compactions — where every in-place op must make the
//! memo unreadable until `derive_pair_tables`.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tkd_bitvec::Tombstones;
use tkd_index::BitmapIndex;
use tkd_model::{Dataset, ObjectId};

type Rows = Vec<Vec<Option<f64>>>;

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

/// Drive `len` seeded ops over the index of `rows`, with the memo warm
/// before each: every in-place op must leave every row unbounded (and
/// the answers exact, memo or not) until `derive_pair_tables`, after
/// which the memo starts over and stays sound. A compaction (a rebuild
/// from the live rows) starts with an empty memo.
fn run_stream(rows: Rows, seed: u64, len: usize, card: u32) -> Result<(), TestCaseError> {
    let dims = rows[0].len();
    let mut state = seed;
    let mut idx = BitmapIndex::build(&Dataset::from_rows(dims, &rows).unwrap());
    // Slot-indexed mirror, `None` once tombstoned.
    let mut mirror: Vec<Option<Vec<Option<f64>>>> = rows.into_iter().map(Some).collect();
    let mut readable = true;
    for step in 0..len {
        let ctx = format!("step {step}");
        if readable {
            exercise(&idx, &mut state, &ctx)?;
        } else {
            exercise_unreadable(&idx, &mut state, &ctx)?;
        }
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
                mirror = kept.into_iter().map(Some).collect();
                assert_unknown(&idx, &format!("compaction at {ctx}"))?;
                readable = true;
                continue;
            }
            _ => continue,
        }
        assert_unknown(&idx, &format!("unreadable after the op at {ctx}"))?;
        exercise_unreadable(&idx, &mut state, &ctx)?;
        // Now and then a second op lands before the refresh.
        readable = !mix(&mut state).is_multiple_of(3);
        if readable {
            idx.derive_pair_tables();
            assert_unknown(&idx, &format!("refreshed at {ctx}"))?;
        }
    }
    idx.derive_pair_tables();
    exercise(&idx, &mut state, "stream end")?;
    let loaded = reload(&idx);
    assert_unknown(&loaded, "load at stream end")?;
    exercise(&loaded, &mut state, "load at stream end")
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
        let mut state = seed;
        assert_unknown(&idx, "build")?;
        exercise(&idx, &mut state, "build")?;
        let clone = idx.clone();
        for o in live_rows(&idx) {
            let o = o as ObjectId;
            prop_assert_eq!(clone.max_bit_score_bound(o), idx.max_bit_score_bound(o));
        }
        let loaded = reload(&idx);
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
        run_stream(rows, seed, len, 10)?;
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
