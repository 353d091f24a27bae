//! The rebuild-oracle parity gate for the dynamic update subsystem.
//!
//! Grid (from the PR-4 acceptance criteria): randomized op sequences over
//! ≥ 3 seeds × missing rates {0.1, 0.3, 0.6} × algorithms {BIG, IBIG} ×
//! thread counts {1, 2}. After every batch of ops the [`DynamicEngine`]
//! must be **bit-identical** — same entries, same scores, same tie order —
//! to contexts rebuilt from scratch over the live data, for every `k` in
//! an edge-heavy set. The harness keeps its *own* mirror of the expected
//! live rows (it does not trust the engine's bookkeeping), checks the
//! engine's snapshot against it, and pins the maintained `MaxScore` queue
//! to the from-scratch queue — the invariant the whole tie-order argument
//! rests on.
//!
//! The batch-check leg holds `apply_ops`'s whole-batch check to the
//! op-by-op run: a rejected batch names the same failing `(index,
//! error)` that [`DynamicEngine::apply`] stops at and changes nothing.

mod common;

use common::{apply_to_mirror, cell, random_op, row, Mirror, Mix};
use std::collections::BTreeSet;
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{maxscore, BinChoice, TkdQuery, UpdateError};
use tkdi::model::ModelError;
use tkdi::prelude::*;
use tkdi::store::encode_engine;

/// The parity cell: engine state vs rebuild-from-scratch oracles across
/// both algorithms × both thread counts × an edge-heavy k set.
fn assert_parity(engine: &mut DynamicEngine, mirror: &Mirror, tag: &str) {
    // Bookkeeping parity first: snapshot and live ids match the mirror.
    if !mirror.rows.is_empty() {
        assert_eq!(engine.snapshot(), mirror.dataset(), "{tag}: snapshot");
    }
    assert_eq!(engine.live_ids(), mirror.ids(), "{tag}: live ids");
    // Queue parity: the maintained MaxScore queue IS the rebuilt queue.
    if !mirror.rows.is_empty() {
        let snap = mirror.dataset();
        let ids = mirror.ids();
        let scratch: Vec<(ObjectId, usize)> = maxscore::maxscore_queue(&snap)
            .into_iter()
            .map(|(pos, ms)| (ids[pos as usize], ms))
            .collect();
        assert_eq!(engine.maintained_queue(), scratch, "{tag}: queue");
    }
    let n = mirror.rows.len();
    let ids = mirror.ids();
    let snap = if n > 0 { Some(mirror.dataset()) } else { None };
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        for k in [0usize, 1, 2, n.saturating_sub(1), n, n + 3] {
            let oracle: Vec<(ObjectId, usize)> = match &snap {
                None => Vec::new(),
                Some(ds) => TkdQuery::new(k)
                    .algorithm(alg)
                    .run(ds)
                    .iter()
                    .map(|e| (ids[e.id as usize], e.score))
                    .collect(),
            };
            for threads in [1usize, 2] {
                let got: Vec<(ObjectId, usize)> = engine
                    .query_threads(&EngineQuery::new(k).algorithm(alg), threads)
                    .expect("BIG/IBIG supported")
                    .iter()
                    .map(|e| (e.id, e.score))
                    .collect();
                assert_eq!(got, oracle, "{tag}: {alg:?} k={k} threads={threads}");
            }
        }
    }
}

/// One grid cell: a full randomized op sequence under `seed × missing`,
/// checked against the oracle after every batch.
fn run_sequence(seed: u64, missing_pct: u64, policy: CompactionPolicy) {
    let dims = 3;
    let mut rng = Mix(seed);
    // Start from a small random dataset.
    let initial: Vec<Vec<Option<f64>>> =
        (0..12).map(|_| row(&mut rng, dims, missing_pct)).collect();
    let ds = Dataset::from_rows(dims, &initial).unwrap();
    let mut next_id = ds.len() as ObjectId;
    let mut mirror = Mirror::seeded(&initial);
    let mut engine = DynamicEngine::with_options(
        ds,
        DynamicOptions {
            bins: BinChoice::Fixed(3),
            policy,
        },
    );
    for batch in 0..10 {
        let ops: Vec<UpdateOp> = (0..7)
            .map(|_| {
                let op = random_op(&mut rng, &mirror, dims, missing_pct);
                apply_to_mirror(&mut mirror, &op, &mut next_id);
                op
            })
            .collect();
        assert_eq!(
            engine.apply_ops(&ops).error,
            None,
            "harness sends valid ops"
        );
        assert_parity(
            &mut engine,
            &mirror,
            &format!("seed={seed} missing={missing_pct} batch={batch}"),
        );
    }
}

#[test]
fn randomized_ops_match_rebuild_oracle_missing_10() {
    for seed in [1u64, 2, 3] {
        run_sequence(seed, 10, CompactionPolicy::never());
    }
}

#[test]
fn randomized_ops_match_rebuild_oracle_missing_30() {
    for seed in [4u64, 5, 6] {
        run_sequence(seed, 30, CompactionPolicy::never());
    }
}

#[test]
fn randomized_ops_match_rebuild_oracle_missing_60() {
    for seed in [7u64, 8, 9] {
        run_sequence(seed, 60, CompactionPolicy::never());
    }
}

#[test]
fn randomized_ops_with_aggressive_compaction() {
    // Same sequences, but compacting eagerly: every few tombstones
    // trigger a rebuild, exercising id remapping mid-sequence. Parity
    // must be unaffected (compaction is semantically invisible).
    let policy = CompactionPolicy {
        max_tombstone_fraction: 0.1,
        min_dead: 2,
    };
    for (seed, missing) in [(10u64, 10u64), (11, 30), (12, 60)] {
        run_sequence(seed, missing, policy);
    }
}

#[test]
fn auto_bins_cell() {
    // The default Eq. 8 binning path (bins re-resolved at compaction)
    // through one randomized sequence per missing rate.
    let dims = 4;
    for (seed, missing) in [(20u64, 10u64), (21, 30), (22, 60)] {
        let mut rng = Mix(seed);
        let initial: Vec<Vec<Option<f64>>> =
            (0..10).map(|_| row(&mut rng, dims, missing)).collect();
        let ds = Dataset::from_rows(dims, &initial).unwrap();
        let mut next_id = ds.len() as ObjectId;
        let mut mirror = Mirror::seeded(&initial);
        let mut engine = DynamicEngine::new(ds);
        for _ in 0..25 {
            let op = random_op(&mut rng, &mirror, dims, missing);
            apply_to_mirror(&mut mirror, &op, &mut next_id);
            engine.apply(&op).expect("valid op");
        }
        assert_parity(&mut engine, &mirror, &format!("auto-bins seed={seed}"));
    }
}

/// One group of ops for the batch-check leg, drawn against `local` — the
/// live rows as the batch's earlier ops left them, ids from `first_new`
/// on inserted by this batch. Most groups are valid (some `Set` an id
/// this batch inserted); the rest end in an op the op-by-op run rejects,
/// often one that is bad only because of an earlier op in the batch.
/// Every op before a group's bad one is applied to `local`.
fn batch_group(
    rng: &mut Mix,
    local: &mut Mirror,
    next_id: &mut ObjectId,
    first_new: ObjectId,
    dims: usize,
    missing_pct: u64,
) -> Vec<UpdateOp> {
    let die = rng.next() % 40;
    if local.rows.is_empty() || die < 28 {
        let op = random_op(rng, local, dims, missing_pct);
        apply_to_mirror(local, &op, next_id);
        return vec![op];
    }
    let (id, r) = local.rows[rng.below(local.rows.len())].clone();
    let dim = rng.below(dims);
    let good = |ops: Vec<UpdateOp>, bad: UpdateOp, local: &mut Mirror, next_id: &mut _| {
        for op in &ops {
            apply_to_mirror(local, op, next_id);
        }
        ops.into_iter().chain([bad]).collect()
    };
    match die {
        28..=30 => {
            let fresh: Vec<ObjectId> = local
                .ids()
                .into_iter()
                .filter(|&i| i >= first_new)
                .collect();
            let op = match fresh.as_slice() {
                [] => UpdateOp::Insert(row(rng, dims, missing_pct)),
                ids => UpdateOp::Set(ids[rng.below(ids.len())], dim, cell(rng, 0)),
            };
            apply_to_mirror(local, &op, next_id);
            vec![op]
        }
        31 => good(
            vec![UpdateOp::Delete(id)],
            UpdateOp::Set(id, dim, Some(1.0)),
            local,
            next_id,
        ),
        32 => good(
            vec![UpdateOp::Delete(id)],
            UpdateOp::Delete(id),
            local,
            next_id,
        ),
        33 => {
            // Clear the observed cells one by one: the last clear is bad.
            let mut clears: Vec<UpdateOp> = (0..dims)
                .filter(|&d| r[d].is_some())
                .map(|d| UpdateOp::Set(id, d, None))
                .collect();
            let last = clears.pop().expect("live rows observe a dimension");
            good(clears, last, local, next_id)
        }
        34 => vec![UpdateOp::Set(id, dim, Some(f64::NAN))],
        35 => {
            let mut bad = row(rng, dims, missing_pct);
            bad[dim] = Some(f64::NAN);
            vec![UpdateOp::Insert(bad)]
        }
        36 => vec![UpdateOp::Insert(vec![
            Some(1.0);
            dims + 1 - 2 * rng.below(2)
        ])],
        37 => vec![UpdateOp::Set(id, dims + rng.below(3), Some(1.0))],
        38 => vec![UpdateOp::Delete(*next_id + rng.below(3) as ObjectId)],
        _ => vec![UpdateOp::Insert(vec![None; dims])],
    }
}

/// `e` with the row a row error names blanked out: a compaction that an
/// earlier delete of the batch triggers renumbers slots, which the check
/// does not simulate.
fn without_row(e: &UpdateError) -> UpdateError {
    UpdateError::Model(match e {
        UpdateError::Model(ModelError::NaNValue { dim, .. }) => {
            ModelError::NaNValue { row: 0, dim: *dim }
        }
        UpdateError::Model(ModelError::AllMissingRow(_)) => ModelError::AllMissingRow(0),
        UpdateError::Model(ModelError::RowArity { got, expected, .. }) => ModelError::RowArity {
            row: 0,
            got: *got,
            expected: *expected,
        },
        other => return other.clone(),
    })
}

/// The batch-check differential: seeded batches through `apply_ops`
/// against a twin that runs [`DynamicEngine::apply`] op by op over the
/// same history. Returns the error kinds the rejected batches hit.
fn run_batch_check(seed: u64, missing_pct: u64, policy: CompactionPolicy) -> BTreeSet<String> {
    let dims = 3;
    let mut rng = Mix(seed);
    let initial: Vec<Vec<Option<f64>>> =
        (0..12).map(|_| row(&mut rng, dims, missing_pct)).collect();
    let ds = Dataset::from_rows(dims, &initial).unwrap();
    let options = DynamicOptions {
        bins: BinChoice::Fixed(3),
        policy,
    };
    let mut engine = DynamicEngine::with_options(ds.clone(), options.clone());
    let mut accepted: Vec<Vec<UpdateOp>> = Vec::new();
    // A twin that has seen the accepted batches only, op by op.
    let fresh_twin = |accepted: &[Vec<UpdateOp>]| {
        let mut twin = DynamicEngine::with_options(ds.clone(), options.clone());
        for op in accepted.iter().flatten() {
            twin.apply(op).expect("accepted ops apply");
        }
        twin
    };
    let mut twin = fresh_twin(&accepted);
    let mut mirror = Mirror::seeded(&initial);
    let mut next_id = ds.len() as ObjectId;
    let mut kinds = BTreeSet::new();
    let (mut applied, mut rejected) = (0, 0);
    for batch in 0..40 {
        let tag = format!("seed={seed} missing={missing_pct} batch={batch}");
        let mut local = Mirror {
            rows: mirror.rows.clone(),
        };
        let mut local_next = next_id;
        let ops: Vec<UpdateOp> = (0..4)
            .flat_map(|_| {
                batch_group(
                    &mut rng,
                    &mut local,
                    &mut local_next,
                    next_id,
                    dims,
                    missing_pct,
                )
            })
            .collect();
        let expected = ops
            .iter()
            .enumerate()
            .find_map(|(i, op)| twin.apply(op).err().map(|e| (i, e)));
        let before = encode_engine(&engine);
        let report = engine.apply_ops(&ops);
        match expected {
            None => {
                assert_eq!(report.error, None, "{tag}");
                assert_eq!(report.applied, ops.len(), "{tag}");
                assert_eq!(encode_engine(&engine), encode_engine(&twin), "{tag}");
                accepted.push(ops);
                (mirror, next_id) = (local, local_next);
                applied += 1;
            }
            Some((i, e)) => {
                let (got_i, got_e) = report.error.clone().expect("the batch is rejected");
                if policy == CompactionPolicy::never() {
                    assert_eq!((got_i, &got_e), (i, &e), "{tag}");
                } else {
                    assert_eq!((got_i, without_row(&got_e)), (i, without_row(&e)), "{tag}");
                }
                assert_eq!(
                    report,
                    BatchReport {
                        error: Some((got_i, got_e)),
                        ..BatchReport::default()
                    },
                    "{tag}: a rejected batch reports nothing else"
                );
                twin = fresh_twin(&accepted);
                let after = encode_engine(&engine);
                assert_eq!(after, before, "{tag}: a rejected batch changes nothing");
                assert_eq!(after, encode_engine(&twin), "{tag}");
                kinds.insert(format!("{:?}", without_row(&e)));
                rejected += 1;
            }
        }
    }
    assert!(
        applied > 5 && rejected > 5,
        "seed={seed}: {applied} applied, {rejected} rejected"
    );
    kinds
}

#[test]
fn batch_check_matches_op_by_op_rejection() {
    let mut kinds = BTreeSet::new();
    for (seed, missing) in [(30u64, 10u64), (31, 30), (32, 60), (33, 30)] {
        kinds.extend(run_batch_check(seed, missing, CompactionPolicy::never()));
    }
    let aggressive = CompactionPolicy {
        max_tombstone_fraction: 0.1,
        min_dead: 2,
    };
    for (seed, missing) in [(34u64, 10u64), (35, 60)] {
        kinds.extend(run_batch_check(seed, missing, aggressive));
    }
    // Every rule the check restates through a shared helper was hit.
    for kind in [
        "UnknownId",
        "Deleted",
        "Model(NaNValue",
        "Model(AllMissingRow",
        "Model(RowArity",
        "Model(DimensionOutOfRange",
    ] {
        assert!(
            kinds.iter().any(|k| k.starts_with(kind)),
            "{kind} never hit: {kinds:?}"
        );
    }
}
