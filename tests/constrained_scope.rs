//! The differential gate of constrained TKD on the maintained index:
//! `DynamicEngine::query_constrained` (a scope mask over the engine's own
//! indexes) against `variants::constrained_top_k` over the engine's live
//! snapshot (select the admitted rows, rebuild, rank), mapped through
//! `live_ids`. Entries, scores and tie order must agree for BIG and IBIG;
//! for BIG every `PruneStats` counter must agree too, because the scoped
//! queue and the scoped Heuristic 2 counts are the rebuild's exactly.
//!
//! Engines are driven through seeded op histories (inserts, deletes and
//! cell rewrites, so tombstones and stale value-table entries exist),
//! without compaction and with aggressive compaction, and queried with
//! constraints whose bounds fall between, on and outside the stored
//! values — signed zeros, `lo == hi`, empty intervals, infinities,
//! several constrained dimensions, a dimension every row misses, an empty
//! admitted set, `k = 0` and `k` past the admitted count.

mod common;

use common::{apply_to_mirror, random_op, row, Mirror, Mix};
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{variants, BinChoice, PruneStats, TkdQuery, UpdateError};
use tkdi::model::ModelError;
use tkdi::prelude::*;
use tkdi::skyline::constrained::Constraints;

/// `(entries, stats)` of one answer in stable ids.
type Answer = (Vec<(ObjectId, usize)>, PruneStats);

/// The rebuild oracle: admit, select, rebuild and rank over the live
/// snapshot, then snapshot positions → stable ids.
fn oracle(engine: &DynamicEngine, c: &Constraints, k: usize, alg: Algorithm) -> Answer {
    let snap = engine.snapshot();
    let ids = engine.live_ids();
    let r = variants::constrained_top_k(&snap, c, &TkdQuery::new(k).algorithm(alg));
    let entries = r.iter().map(|e| (ids[e.id as usize], e.score)).collect();
    (entries, r.stats)
}

fn scoped(engine: &mut DynamicEngine, c: &Constraints, k: usize, alg: Algorithm) -> Answer {
    let r = engine
        .query_constrained(&EngineQuery::new(k).algorithm(alg), c)
        .expect("BIG/IBIG over in-range dimensions");
    let entries = r.iter().map(|e| (e.id, e.score)).collect();
    (entries, r.stats)
}

/// One parity cell: both algorithms over an edge-heavy `k` set.
fn assert_parity(engine: &mut DynamicEngine, c: &Constraints, tag: &str) {
    let admitted = engine.admitted_slots(c).expect("in-range constraint").len();
    let oracle_admitted = c.admitted(&engine.snapshot()).len();
    assert_eq!(admitted, oracle_admitted, "{tag}: admitted count");
    for k in [
        0usize,
        1,
        2,
        7,
        admitted.saturating_sub(1),
        admitted,
        admitted + 3,
    ] {
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            let (got, got_stats) = scoped(engine, c, k, alg);
            let (want, want_stats) = oracle(engine, c, k, alg);
            assert_eq!(got, want, "{tag}: {alg:?} k={k} entries");
            if alg == Algorithm::Big {
                assert_eq!(got_stats, want_stats, "{tag}: BIG k={k} prune stats");
            }
        }
    }
}

/// Bounds drawn around the tie-heavy cell domain of `common::cell`
/// (integers 0..6, halves, signed zeros): on a stored value, between two,
/// outside the domain, signed zeros and infinities.
fn bound(rng: &mut Mix) -> f64 {
    match rng.next() % 10 {
        0 => -0.0,
        1 => 0.0,
        2 => (rng.next() % 7) as f64 + 0.25,
        3 => -3.0,
        4 => 40.0,
        5 => f64::NEG_INFINITY,
        6 => f64::INFINITY,
        _ => {
            let value = (rng.next() % 7) as f64;
            let half = if rng.next().is_multiple_of(3) {
                0.5
            } else {
                0.0
            };
            value + half
        }
    }
}

/// A random constraint over `dims` dimensions: each dimension is left
/// free or gets an interval, sorted, equal (`lo == hi`) or empty.
fn constraint(rng: &mut Mix, dims: usize) -> Constraints {
    let mut c = Constraints::none(dims);
    for d in 0..dims {
        match rng.next() % 8 {
            0..=2 => {}
            3 => {
                let v = bound(rng);
                c = c.with_interval(d, v, v);
            }
            4 => {
                let (a, b) = (bound(rng), bound(rng));
                c = c.with_interval(d, a.max(b), a.min(b));
            }
            _ => {
                let (a, b) = (bound(rng), bound(rng));
                c = c.with_interval(d, a.min(b), a.max(b));
            }
        }
    }
    c
}

/// A seeded op history, checked after every batch against fresh random
/// constraints and a few fixed ones.
fn run_history(seed: u64, missing_pct: u64, policy: CompactionPolicy) {
    let dims = 3;
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
    let fixed = [
        Constraints::none(dims),
        Constraints::none(dims).with_range(0, 1.0, 4.0),
        Constraints::none(dims)
            .with_range(0, -0.0, 0.0)
            .with_range(2, 0.0, 6.5),
        Constraints::none(dims)
            .with_range(0, 0.5, 5.0)
            .with_range(1, 2.0, 2.0)
            .with_range(2, -1.0, 3.25),
        Constraints::none(dims).with_interval(1, 4.0, 2.0),
    ];
    for batch in 0..12 {
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
        for (i, c) in fixed.iter().enumerate() {
            assert_parity(&mut engine, c, &format!("{tag} fixed#{i}"));
        }
        for i in 0..4 {
            let c = constraint(&mut rng, dims);
            assert_parity(&mut engine, &c, &format!("{tag} random#{i} {c:?}"));
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
fn a_dimension_every_row_misses() {
    // Dimension 2 is never observed: any interval on it admits every live
    // row, the empty one included.
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
    let live = engine.len();
    for c in [
        Constraints::none(3).with_range(2, 0.0, 1.0),
        Constraints::none(3).with_interval(2, 1.0, 0.0),
        Constraints::none(3)
            .with_range(2, 0.0, 0.0)
            .with_range(0, 1.0, 3.0),
    ] {
        if c.interval(0).is_none() {
            assert_eq!(engine.admitted_slots(&c).unwrap().len(), live);
        }
        assert_parity(&mut engine, &c, &format!("{c:?}"));
    }
}

#[test]
fn nothing_admitted() {
    // Complete rows, all outside the range: the admitted set is empty.
    let mut rng = Mix(12);
    let rows: Vec<Vec<Option<f64>>> = (0..25).map(|_| row(&mut rng, 2, 0)).collect();
    let mut engine = DynamicEngine::new(Dataset::from_rows(2, &rows).unwrap());
    let c = Constraints::none(2).with_range(0, 100.0, 200.0);
    assert!(engine.admitted_slots(&c).unwrap().is_empty());
    assert_parity(&mut engine, &c, "out of range");
    // An engine whose every row is deleted admits nothing either.
    for id in 0..25 {
        engine.delete(id).unwrap();
    }
    assert_parity(&mut engine, &Constraints::none(2), "no live rows");
}

#[test]
fn rejects_what_the_engine_cannot_serve() {
    let mut engine = DynamicEngine::new(tkdi::model::fixtures::fig3_sample());
    let c = Constraints::none(5).with_range(4, 0.0, 1.0);
    assert_eq!(
        engine
            .query_constrained(&EngineQuery::new(2), &c)
            .unwrap_err(),
        UpdateError::Model(ModelError::DimensionOutOfRange { dim: 4, dims: 4 })
    );
    let c = Constraints::none(4).with_range(3, 1.0, 4.0);
    let naive = EngineQuery::new(2).algorithm(Algorithm::Naive);
    assert_eq!(
        engine.query_constrained(&naive, &c).unwrap_err(),
        UpdateError::UnsupportedAlgorithm(Algorithm::Naive)
    );
    // A constraint over fewer dimensions leaves the rest free.
    let short = Constraints::none(1).with_range(0, 1.0, 4.0);
    let full = Constraints::none(4).with_range(0, 1.0, 4.0);
    assert_eq!(
        scoped(&mut engine, &short, 3, Algorithm::Big),
        scoped(&mut engine, &full, 3, Algorithm::Big)
    );
}
