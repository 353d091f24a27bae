//! Property-based pins of the sorted-column `MaxScore` derivation: the
//! sweep equals direct set counting, the queue keeps its tie order, and
//! the dynamic engine's maintained queue and `|Tᵢ|` table — after a random
//! op stream *and* after a forced compaction (the bulk rebuild path) —
//! equal a from-scratch build over the live rows.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tkd_core::dynamic::{DynamicEngine, UpdateOp, T_UNOBSERVED};
use tkd_core::maxscore::{max_scores, max_scores_bruteforce, maxscore_queue};
use tkd_model::{Dataset, ObjectId};

/// Missing rates of the random datasets.
const MISSING: [f64; 3] = [0.1, 0.3, 0.6];

/// A random row over values `0..card` (duplicates guaranteed by the small
/// domain), each cell missing with probability `missing`; never
/// all-missing.
fn row_strategy(dims: usize, missing: f64, card: u8) -> impl Strategy<Value = Vec<Option<f64>>> {
    proptest::collection::vec(
        proptest::option::weighted(1.0 - missing, (0..card).prop_map(f64::from)),
        dims,
    )
    .prop_filter("at least one observed", |r| r.iter().any(Option::is_some))
}

/// `(dims, missing rate, cardinality)` of one case.
fn shape_strategy() -> impl Strategy<Value = (usize, f64, u8)> {
    (1usize..=4, 0usize..MISSING.len(), 1u8..=6)
        .prop_map(|(dims, m, card)| (dims, MISSING[m], card))
}

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    shape_strategy().prop_flat_map(|(dims, missing, card)| {
        proptest::collection::vec(row_strategy(dims, missing, card), 1..60)
            .prop_map(move |rows| Dataset::from_rows(dims, &rows).expect("valid rows"))
    })
}

/// One raw op: `(kind, target pick, dimension pick, cell, row)`, resolved
/// against the engine's live ids when applied.
type RawOp = (u8, usize, usize, Option<f64>, Vec<Option<f64>>);

/// A starting dataset plus a raw op stream over the same shape.
fn dynamic_case_strategy() -> impl Strategy<Value = (Dataset, Vec<RawOp>)> {
    shape_strategy().prop_flat_map(|(dims, missing, card)| {
        let cell = proptest::option::weighted(1.0 - missing, (0..card).prop_map(f64::from));
        let op = (
            0u8..3,
            0usize..1000,
            0usize..dims,
            cell,
            row_strategy(dims, missing, card),
        );
        (
            proptest::collection::vec(row_strategy(dims, missing, card), 1..40),
            proptest::collection::vec(op, 0..40),
        )
            .prop_map(move |(rows, ops)| {
                (Dataset::from_rows(dims, &rows).expect("valid rows"), ops)
            })
    })
}

/// Queue and `t`-derived MaxScores of `engine` against a from-scratch
/// build over its live rows (snapshot row `i` ↔ `live_ids()[i]`).
fn assert_exact(engine: &mut DynamicEngine) -> Result<(), TestCaseError> {
    let snapshot = engine.snapshot();
    let live = engine.live_ids();
    let want: Vec<(ObjectId, usize)> = maxscore_queue(&snapshot)
        .into_iter()
        .map(|(row, ms)| (live[row as usize], ms))
        .collect();
    prop_assert_eq!(engine.maintained_queue(), want);

    let parts = engine.store_parts_ref();
    let dims = parts.ds.dims();
    let from_t: Vec<usize> = (0..parts.ds.len())
        .filter(|&slot| parts.index.live_mask().get(slot))
        .map(|slot| {
            parts
                .ds
                .mask(slot as ObjectId)
                .iter()
                .map(|d| {
                    let t = parts.t[slot * dims + d];
                    assert_ne!(t, T_UNOBSERVED, "observed cell without a count");
                    t as usize
                })
                .min()
                .expect("rows observe a dimension")
        })
        .collect();
    prop_assert_eq!(from_t, max_scores(&snapshot));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The suffix-count sweep equals direct set counting.
    #[test]
    fn sweep_equals_bruteforce(ds in dataset_strategy()) {
        prop_assert_eq!(max_scores(&ds), max_scores_bruteforce(&ds));
    }

    /// The queue is every object once, carrying its `MaxScore`, by score
    /// descending and id ascending among ties.
    #[test]
    fn queue_is_score_desc_then_id_asc(ds in dataset_strategy()) {
        let scores = max_scores_bruteforce(&ds);
        let queue = maxscore_queue(&ds);
        prop_assert_eq!(queue.len(), ds.len());
        for &(o, ms) in &queue {
            prop_assert_eq!(ms, scores[o as usize]);
        }
        for w in queue.windows(2) {
            prop_assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "{:?} before {:?}", w[0], w[1]
            );
        }
    }

    /// The dynamic engine's bulk-built artifacts, their incremental
    /// maintenance, and the compaction rebuild all stay exact.
    #[test]
    fn dynamic_queue_and_t_table_stay_exact((ds, ops) in dynamic_case_strategy()) {
        let dims = ds.dims();
        let mut engine = DynamicEngine::new(ds);
        assert_exact(&mut engine)?;
        for (kind, pick, dim, cell, row) in ops {
            let live = engine.live_ids();
            let op = match kind {
                0 => UpdateOp::Insert(row),
                _ if live.is_empty() => continue,
                1 => UpdateOp::Delete(live[pick % live.len()]),
                _ => UpdateOp::Set(live[pick % live.len()], dim % dims, cell),
            };
            // Clearing a row's last observed cell is rejected and leaves
            // the engine unchanged; every other op applies.
            let _ = engine.apply(&op);
        }
        assert_exact(&mut engine)?;
        engine.compact_now();
        prop_assert_eq!(engine.tombstones(), 0);
        assert_exact(&mut engine)?;
    }
}
