//! The differential gate of subspace TKD on the maintained index:
//! `DynamicEngine::query_subspace` (a projected scope over the engine's
//! own indexes) against `variants::subspace_top_k` over the engine's live
//! snapshot — or, with constraints, admit → select → project → rank —
//! mapped through `live_ids`. Entries, scores and tie order must agree
//! for BIG and IBIG; for BIG every `PruneStats` counter must agree too,
//! because the projected queue and the restricted Heuristic 2 counts are
//! the rebuild's exactly.
//!
//! Engines are driven through seeded op histories (inserts, deletes and
//! cell rewrites, so tombstones and stale value-table entries exist),
//! without compaction and with aggressive compaction, and queried over
//! one-dimension subspaces, the full space (which must answer like
//! `query` / `query_constrained`), subspaces some rows observe nothing
//! of, a dimension every row misses, constraints on dimensions outside
//! the subspace, the tie-heavy cells and signed zeros of
//! `common::cell`, an empty scope, `k = 0` and `k` past the scope.

mod common;

use common::{apply_to_mirror, random_op, row, Mirror, Mix};
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{variants, BinChoice, PruneStats, TkdQuery, TkdResult, UpdateError};
use tkdi::model::ModelError;
use tkdi::prelude::*;
use tkdi::skyline::constrained::Constraints;

/// `(entries, stats)` of one answer in stable ids.
type Answer = (Vec<(ObjectId, usize)>, PruneStats);

fn answer(r: &TkdResult) -> Answer {
    (r.iter().map(|e| (e.id, e.score)).collect(), r.stats)
}

/// The rebuild oracle over the live snapshot: project and rank — after
/// admitting and selecting when there are constraints — then snapshot
/// positions → stable ids. Also returns how many rows the projection
/// keeps.
fn oracle(
    engine: &DynamicEngine,
    dims: &[usize],
    c: Option<&Constraints>,
    k: usize,
    alg: Algorithm,
) -> (Answer, usize) {
    let snap = engine.snapshot();
    let ids = engine.live_ids();
    let q = TkdQuery::new(k).algorithm(alg);
    let (selected, admitted) = match c {
        None => (snap, ids),
        Some(c) => {
            let admitted = c.admitted(&snap);
            let ids = admitted.iter().map(|&i| ids[i as usize]).collect();
            (snap.select(&admitted), ids)
        }
    };
    let kept = selected.project(dims).expect("valid subspace").0.len();
    let r = variants::subspace_top_k(&selected, dims, &q).expect("valid subspace");
    let (entries, stats) = answer(&r);
    let entries = entries
        .into_iter()
        .map(|(i, s)| (admitted[i as usize], s))
        .collect();
    ((entries, stats), kept)
}

fn scoped(
    engine: &mut DynamicEngine,
    dims: &[usize],
    c: &Constraints,
    k: usize,
    alg: Algorithm,
) -> Answer {
    let q = EngineQuery::new(k).algorithm(alg);
    let r = engine
        .query_subspace(&q, dims, c)
        .expect("BIG/IBIG over in-range dimensions");
    answer(&r)
}

/// One parity cell: both algorithms over an edge-heavy `k` set. With
/// `c = None` the query is unconstrained.
fn assert_parity(engine: &mut DynamicEngine, dims: &[usize], c: Option<&Constraints>, tag: &str) {
    let free = Constraints::none(engine.dims());
    let constraints = c.unwrap_or(&free);
    let in_scope = engine.scope_stats(dims, constraints).unwrap().rows;
    let (_, kept) = oracle(engine, dims, c, 0, Algorithm::Big);
    assert_eq!(in_scope, kept, "{tag}: rows in scope");
    for k in [0usize, 1, 2, 7, kept.saturating_sub(1), kept, kept + 3] {
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            let (got, got_stats) = scoped(engine, dims, constraints, k, alg);
            let ((want, want_stats), _) = oracle(engine, dims, c, k, alg);
            assert_eq!(got, want, "{tag}: {alg:?} k={k} entries");
            if alg == Algorithm::Big {
                assert_eq!(got_stats, want_stats, "{tag}: BIG k={k} prune stats");
            }
        }
    }
}

/// The full space as a subspace is the engine's own full-space query:
/// `query` unconstrained, `query_constrained` with constraints.
fn assert_full_space(engine: &mut DynamicEngine, c: &Constraints, tag: &str) {
    let all: Vec<usize> = (0..engine.dims()).collect();
    for k in [1usize, 3, 8] {
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            let q = EngineQuery::new(k).algorithm(alg);
            let got = scoped(engine, &all, c, k, alg);
            let want = answer(&engine.query_constrained(&q, c).unwrap());
            assert_eq!(got, want, "{tag}: {alg:?} k={k} vs query_constrained");
            let free = Constraints::none(engine.dims());
            let got = scoped(engine, &all, &free, k, alg);
            let want = answer(&engine.query(&q).unwrap());
            assert_eq!(got, want, "{tag}: {alg:?} k={k} vs query");
        }
    }
}

/// A random non-empty subset of `0..dims`, ascending.
fn subspace(rng: &mut Mix, dims: usize) -> Vec<usize> {
    loop {
        let s: Vec<usize> = (0..dims).filter(|_| rng.next().is_multiple_of(2)).collect();
        if !s.is_empty() {
            return s;
        }
    }
}

/// A random constraint over `dims` dimensions on the tie-heavy cell
/// domain: each dimension free or given an interval — on a stored value,
/// between two, around the signed zeros, or empty.
fn constraint(rng: &mut Mix, dims: usize) -> Constraints {
    let bound = |rng: &mut Mix| match rng.next() % 6 {
        0 => -0.0,
        1 => 0.0,
        2 => (rng.next() % 7) as f64 + 0.5,
        _ => (rng.next() % 7) as f64,
    };
    let mut c = Constraints::none(dims);
    for d in 0..dims {
        if rng.next().is_multiple_of(3) {
            let (a, b) = (bound(rng), bound(rng));
            c = match rng.next() % 4 {
                0 => c.with_interval(d, a.max(b), a.min(b)),
                _ => c.with_interval(d, a.min(b), a.max(b)),
            };
        }
    }
    c
}

/// A seeded op history over four dimensions, checked after every batch
/// against fixed and random subspaces, unconstrained and constrained.
fn run_history(seed: u64, missing_pct: u64, policy: CompactionPolicy) {
    let dims = 4;
    let mut rng = Mix(seed);
    let initial: Vec<Vec<Option<f64>>> =
        (0..30).map(|_| row(&mut rng, dims, missing_pct)).collect();
    let ds = Dataset::from_rows(dims, &initial).unwrap();
    let mut next_id = ds.len() as ObjectId;
    let mut mirror = Mirror::seeded(&initial);
    let mut engine = DynamicEngine::with_options(
        ds,
        DynamicOptions {
            bins: BinChoice::Fixed(2),
            policy,
        },
    );
    let fixed: [&[usize]; 5] = [&[0], &[3], &[1, 2], &[0, 2, 3], &[0, 1, 2, 3]];
    for batch in 0..10 {
        let ops: Vec<UpdateOp> = (0..9)
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
        let tag = format!("seed={seed} σ={missing_pct} batch={batch}");
        for dims in fixed {
            assert_parity(&mut engine, dims, None, &format!("{tag} {dims:?}"));
        }
        for i in 0..3 {
            let s = subspace(&mut rng, dims);
            let c = constraint(&mut rng, dims);
            assert_parity(&mut engine, &s, None, &format!("{tag} random#{i} {s:?}"));
            let tag = format!("{tag} random#{i} {s:?} {c:?}");
            assert_parity(&mut engine, &s, Some(&c), &tag);
            assert_full_space(&mut engine, &c, &tag);
        }
    }
}

#[test]
fn op_histories_without_compaction() {
    for (seed, missing) in [(1u64, 10u64), (2, 30), (3, 60)] {
        run_history(seed, missing, CompactionPolicy::never());
    }
}

#[test]
fn op_histories_with_aggressive_compaction() {
    let policy = CompactionPolicy {
        max_tombstone_fraction: 0.1,
        min_dead: 2,
    };
    for (seed, missing) in [(4u64, 10u64), (5, 30), (6, 60)] {
        run_history(seed, missing, policy);
    }
}

#[test]
fn rows_observing_nothing_in_the_subspace() {
    // Half the rows observe only dimension 0 and half only 1 or 2, so
    // every one-dimension subspace drops rows, and two rows sharing only
    // a dimension outside the subspace are incomparable inside it.
    let mut rng = Mix(21);
    let rows: Vec<Vec<Option<f64>>> = (0..48)
        .map(|i| {
            let mut r = row(&mut rng, 3, 30);
            if i % 2 == 0 {
                r = vec![r[0].or(Some(1.0)), None, None];
            } else if r[1].is_none() && r[2].is_none() {
                r[1] = Some(2.0);
            }
            if i % 2 == 1 {
                r[0] = None;
            }
            r
        })
        .collect();
    let mut engine = DynamicEngine::new(Dataset::from_rows(3, &rows).unwrap());
    for id in [1u32, 6, 17, 30] {
        engine.delete(id).unwrap();
    }
    engine.insert(&[None, Some(-0.0), Some(0.0)]).unwrap();
    engine.insert(&[Some(0.0), None, Some(-0.0)]).unwrap();
    for dims in [&[0][..], &[1], &[2], &[1, 2], &[0, 2]] {
        assert_parity(&mut engine, dims, None, &format!("{dims:?}"));
        let c = Constraints::none(3).with_range(0, -0.0, 3.0);
        assert_parity(&mut engine, dims, Some(&c), &format!("{dims:?} {c:?}"));
    }
}

#[test]
fn a_dimension_every_row_misses() {
    // Dimension 2 is never observed: alone it keeps no row; beside
    // another it keeps that one's rows.
    let mut rng = Mix(11);
    let rows: Vec<Vec<Option<f64>>> = (0..40)
        .map(|_| {
            let mut r = row(&mut rng, 2, 20);
            r.push(None);
            r
        })
        .collect();
    let mut engine = DynamicEngine::new(Dataset::from_rows(3, &rows).unwrap());
    for id in [0u32, 7, 19] {
        engine.delete(id).unwrap();
    }
    engine.insert(&[Some(1.0), None, None]).unwrap();
    assert_eq!(
        engine
            .scope_stats(&[2], &Constraints::none(3))
            .unwrap()
            .rows,
        0
    );
    for dims in [&[2][..], &[0, 2], &[1, 2], &[0, 1, 2]] {
        assert_parity(&mut engine, dims, None, &format!("{dims:?}"));
        let c = Constraints::none(3).with_range(1, 0.0, 4.0);
        assert_parity(&mut engine, dims, Some(&c), &format!("{dims:?} {c:?}"));
    }
}

#[test]
fn empty_scopes() {
    // Complete rows, all outside the range: nothing is admitted.
    let mut rng = Mix(12);
    let rows: Vec<Vec<Option<f64>>> = (0..25).map(|_| row(&mut rng, 2, 0)).collect();
    let mut engine = DynamicEngine::new(Dataset::from_rows(2, &rows).unwrap());
    let c = Constraints::none(2).with_range(0, 100.0, 200.0);
    assert_parity(&mut engine, &[1], Some(&c), "out of range");
    // An engine whose every row is deleted keeps nothing either.
    for id in 0..25 {
        engine.delete(id).unwrap();
    }
    assert_parity(&mut engine, &[0], None, "no live rows");
    assert_parity(&mut engine, &[0, 1], None, "no live rows, full space");
}

#[test]
fn rejects_what_the_engine_cannot_serve() {
    let mut engine = DynamicEngine::new(tkdi::model::fixtures::fig3_sample());
    let free = Constraints::none(4);
    let q = EngineQuery::new(2);
    assert_eq!(
        engine.query_subspace(&q, &[], &free).unwrap_err(),
        UpdateError::Model(ModelError::BadDimensionality(0))
    );
    assert_eq!(
        engine.query_subspace(&q, &[1, 4], &free).unwrap_err(),
        UpdateError::Model(ModelError::DimensionOutOfRange { dim: 4, dims: 4 })
    );
    let c = Constraints::none(5).with_range(4, 0.0, 1.0);
    assert_eq!(
        engine.query_subspace(&q, &[1], &c).unwrap_err(),
        UpdateError::Model(ModelError::DimensionOutOfRange { dim: 4, dims: 4 })
    );
    for alg in [Algorithm::Naive, Algorithm::Esb, Algorithm::Ubb] {
        let q = EngineQuery::new(2).algorithm(alg);
        assert_eq!(
            engine.query_subspace(&q, &[1, 3], &free).unwrap_err(),
            UpdateError::UnsupportedAlgorithm(alg)
        );
    }
    // The paper's running example, projected onto d2 and d4.
    assert_parity(&mut engine, &[1, 3], None, "fig3 (d2, d4)");
}
