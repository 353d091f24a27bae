//! Property-based pins of the sorted-column `MaxScore` derivation: the
//! sweep equals direct set counting, the queue keeps its tie order, and
//! the dynamic engine's queue — after a random op stream *and* after a
//! forced compaction (the bulk rebuild path), in the engine and in one
//! resumed from its persisted parts — equals a from-scratch build over
//! the live rows, as does the queue of the live value-count tables.
//! `−0.0` sits in the value domain beside `0.0`: the two are IEEE-equal
//! and must count as one value.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use tkd_core::cluster::{seed_counts, PairCounts};
use tkd_core::dynamic::{DynamicEngine, UpdateOp};
use tkd_core::maxscore::{max_scores, max_scores_bruteforce, maxscore_queue, ValueCounts};
use tkd_model::{Dataset, ObjectId};

/// Missing rates of the random datasets.
const MISSING: [f64; 3] = [0.1, 0.3, 0.6];

/// A value of `0..card` or `−0.0`: a small domain, so duplicates are
/// guaranteed.
fn value_strategy(card: u8) -> impl Strategy<Value = f64> {
    (0..=card).prop_map(move |v| if v == card { -0.0 } else { f64::from(v) })
}

/// A cell missing with probability `missing`, else a value.
fn cell_strategy(missing: f64, card: u8) -> impl Strategy<Value = Option<f64>> {
    proptest::option::weighted(1.0 - missing, value_strategy(card))
}

/// A random row of cells; never all-missing.
fn row_strategy(dims: usize, missing: f64, card: u8) -> impl Strategy<Value = Vec<Option<f64>>> {
    proptest::collection::vec(cell_strategy(missing, card), dims)
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
        let op = (
            0u8..3,
            0usize..1000,
            0usize..dims,
            cell_strategy(missing, card),
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

/// Resolve a raw op against the engine's `live` ids; `None` when it
/// targets an id and none is live.
fn resolve(
    (kind, pick, dim, cell, row): RawOp,
    live: &[ObjectId],
    dims: usize,
) -> Option<UpdateOp> {
    Some(match kind {
        0 => UpdateOp::Insert(row),
        _ if live.is_empty() => return None,
        1 => UpdateOp::Delete(live[pick % live.len()]),
        _ => UpdateOp::Set(live[pick % live.len()], dim % dims, cell),
    })
}

/// The queue of a from-scratch build over `engine`'s live rows, in
/// stable ids (snapshot row `i` ↔ `live_ids()[i]`).
fn rebuilt_queue(engine: &DynamicEngine) -> Vec<(ObjectId, usize)> {
    let live = engine.live_ids();
    maxscore_queue(&engine.snapshot())
        .into_iter()
        .map(|(row, ms)| (live[row as usize], ms))
        .collect()
}

/// The queue of `engine`, and of an engine resumed from its persisted
/// parts, against a from-scratch build over its live rows.
fn assert_exact(engine: &mut DynamicEngine) -> Result<(), TestCaseError> {
    let want = rebuilt_queue(engine);
    prop_assert_eq!(engine.maintained_queue(), want.clone());
    let mut resumed =
        DynamicEngine::from_store_parts(engine.to_store_parts()).map_err(TestCaseError::from)?;
    prop_assert_eq!(resumed.maintained_queue(), want);
    Ok(())
}

/// A dataset for the coordinator's seed: missing rate 0, 0.3 or 0.6,
/// values of `0..card` and −0.0, and beside the random dimensions one
/// holding a single value and one observed nowhere (each optional).
fn seed_dataset_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..=3, 0usize..3, 1u8..=6, 0usize..4).prop_flat_map(|(random, m, card, extra)| {
        let missing = [0.0, 0.3, 0.6][m];
        let (single, never) = (extra & 1 == 1, extra & 2 == 2);
        let dims = random + usize::from(single) + usize::from(never);
        let row = (
            proptest::collection::vec(cell_strategy(missing, card), random),
            cell_strategy(missing, card),
        )
            .prop_map(move |(mut row, probe)| {
                if single {
                    row.push(probe.map(|_| 1.5));
                }
                if never {
                    row.push(None);
                }
                if row.iter().all(Option::is_none) {
                    row[0] = Some(-0.0);
                }
                row
            });
        proptest::collection::vec(row, 0..60)
            .prop_map(move |rows| Dataset::from_rows(dims, &rows).expect("valid rows"))
    })
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
    fn dynamic_queue_stays_exact((ds, ops) in dynamic_case_strategy()) {
        let dims = ds.dims();
        let mut engine = DynamicEngine::new(ds);
        assert_exact(&mut engine)?;
        for raw in ops {
            let Some(op) = resolve(raw, &engine.live_ids(), dims) else {
                continue;
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

    /// The live value-count tables of a row store that keeps every row
    /// at its id, deleted ones included (the cluster coordinator's
    /// state), give the queue of a from-scratch build over the live rows
    /// and the dynamic engine's maintained queue, after the same ops.
    #[test]
    fn count_table_queue_equals_rebuild_and_engine((ds, ops) in dynamic_case_strategy()) {
        let dims = ds.dims();
        let mut engine = DynamicEngine::new(ds.clone());
        let mut rows = ds.clone();
        let mut live: BTreeSet<ObjectId> = ds.ids().collect();
        let mut counts = ValueCounts::new(&ds);
        for raw in ops {
            let Some(op) = resolve(raw, &engine.live_ids(), dims) else {
                continue;
            };
            // A rejected op (clearing a row's last observed cell) leaves
            // both sides unchanged.
            let Ok(inserted) = engine.apply(&op) else {
                continue;
            };
            match op {
                UpdateOp::Insert(row) => {
                    let id = rows.push_row(&row).expect("the engine took the row");
                    prop_assert_eq!(inserted, Some(id));
                    counts.insert(rows.row(id));
                    live.insert(id);
                }
                UpdateOp::Delete(id) => {
                    counts.remove(rows.row(id));
                    live.remove(&id);
                }
                UpdateOp::Set(id, dim, v) => {
                    counts.set(dim, rows.value(id, dim), v);
                    rows.set_value(id, dim, v).expect("the engine took the cell");
                }
                UpdateOp::InsertLabeled(..) => unreachable!("not generated"),
            }
        }
        let queue = counts.queue(&rows, live.iter().copied());
        prop_assert_eq!(&queue, &rebuilt_queue(&engine));
        prop_assert_eq!(queue, engine.maintained_queue());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The coordinator's one-pass seed equals tables built row by row
    /// with `insert` on empty ones: the value counts, the queue (also a
    /// from-scratch build's) and the pair histograms.
    #[test]
    fn one_pass_seed_equals_row_by_row_tables(ds in seed_dataset_strategy()) {
        let (counts, queue, pairs) = seed_counts(&ds);
        let empty = Dataset::from_rows(ds.dims(), &[]).expect("no rows");
        let mut by_row = ValueCounts::new(&empty);
        let mut pairs_by_row = PairCounts::new(&empty, &counts);
        for o in ds.ids() {
            by_row.insert(ds.row(o));
            pairs_by_row.insert(ds.row(o));
        }
        pairs_by_row.refresh();
        prop_assert_eq!(&counts, &by_row);
        prop_assert_eq!(&counts, &ValueCounts::new(&ds));
        prop_assert_eq!(&queue, &by_row.queue(&ds, ds.ids()));
        prop_assert_eq!(&queue, &maxscore_queue(&ds));
        prop_assert_eq!(pairs.grid(), &by_row.grid(8)[..]);
        prop_assert_eq!(pairs.tables(), pairs_by_row.tables());
        prop_assert_eq!(pairs.tables(), PairCounts::new(&ds, &counts).tables());
    }
}
