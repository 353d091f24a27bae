//! The re-query-oracle parity gate for standing queries (PR-8 tentpole).
//!
//! Grid (from the ISSUE-8 acceptance criteria): randomized op streams over
//! ≥ 3 seeds × missing rates {0.1, 0.3, 0.6} × algorithms {BIG, IBIG} ×
//! edge-heavy `k` set.
//! After every [`DynamicEngine::apply_ops`] batch, every standing result
//! must be **bit-identical** — same entries, same scores, same tie order —
//! to a from-scratch [`TkdQuery`] over the harness's *own* mirror of the
//! live rows *and*, for full-space queries, to the engine's own
//! [`DynamicEngine::query`]; every [`Notification`] delta must reconstruct
//! the new result from the old one losslessly, and its `via_fallback` must
//! say whether the batch re-queried or was provably skipped. Sliding
//! windows, subspace and constraint scopes, and aggressive mid-stream
//! compaction run the same gate.

mod common;

use common::{apply_to_mirror, random_op, row, Mirror, Mix};
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::standing::{apply_notification, StandingStats};
use tkdi::core::{variants, BinChoice, ResultEntry, TkdQuery};
use tkdi::prelude::*;
use tkdi::skyline::constrained::Constraints;

/// Re-query oracle: run the one-shot query stack over the mirror's live
/// rows, translating row positions to stable ids. Positions are insertion
/// order, which is stable-id order, so tie order carries over verbatim.
fn requery_oracle(mirror: &Mirror, spec: &StandingSpec) -> Vec<ResultEntry> {
    if mirror.rows.is_empty() {
        return Vec::new();
    }
    let ds = mirror.dataset();
    let ids = mirror.ids();
    let q = TkdQuery::new(spec.k).algorithm(spec.algorithm);
    let result = if let Some(dims) = &spec.subspace {
        variants::subspace_top_k(&ds, dims, &q).expect("valid subspace")
    } else if !spec.constraint.is_empty() {
        let mut c = Constraints::none(ds.dims());
        for &(d, lo, hi) in &spec.constraint {
            c = c.with_range(d, lo, hi);
        }
        variants::constrained_top_k(&ds, &c, &q)
    } else {
        q.run(&ds)
    };
    result
        .iter()
        .map(|e| ResultEntry {
            id: ids[e.id as usize],
            score: e.score,
        })
        .collect()
}

/// A subscription the harness tracks on its own: the engine id, the spec,
/// the subscriber-side view rebuilt purely from notification deltas, and
/// the counters as of the previous batch.
struct Sub {
    id: u64,
    spec: StandingSpec,
    view: Vec<ResultEntry>,
    last_seq: u64,
    stats: StandingStats,
}

fn subscribe(engine: &mut DynamicEngine, spec: StandingSpec) -> Sub {
    let id = engine.register(spec.clone()).expect("valid spec");
    let view = engine.standing_result(id).unwrap().to_vec();
    Sub {
        id,
        spec,
        view,
        last_seq: 0,
        stats: StandingStats::default(),
    }
}

/// The parity cell: after one batch, every subscription's engine-side
/// result equals the re-query oracle (and, full-space, the engine's own
/// `query`) bit-for-bit, its delta-rebuilt subscriber view equals the
/// engine-side result, and its counters moved by the one-path contract:
/// never patched, re-queried or skipped, `via_fallback` saying which.
fn assert_batch(
    engine: &mut DynamicEngine,
    report: &BatchReport,
    subs: &mut [Sub],
    mirror: &Mirror,
    tag: &str,
) {
    assert!(report.error.is_none(), "{tag}: harness sends valid ops");
    assert_eq!(
        report.notifications.len(),
        subs.len(),
        "{tag}: one notification per query per batch, empty deltas included"
    );
    for sub in subs.iter_mut() {
        let note = report
            .notifications
            .iter()
            .find(|n| n.id == sub.id)
            .unwrap_or_else(|| panic!("{tag}: notification for query {}", sub.id));
        assert_eq!(note.batch_seq, report.batch_seq, "{tag}: seq");
        assert!(note.batch_seq > sub.last_seq, "{tag}: seq monotonic");
        sub.last_seq = note.batch_seq;
        let engine_result = engine.standing_result(sub.id).unwrap().to_vec();
        let oracle = requery_oracle(mirror, &sub.spec);
        assert_eq!(engine_result, oracle, "{tag}: query {} vs oracle", sub.id);
        if sub.spec.subspace.is_none() && sub.spec.constraint.is_empty() {
            let own = engine
                .query(&EngineQuery::new(sub.spec.k).algorithm(sub.spec.algorithm))
                .expect("BIG/IBIG");
            assert_eq!(engine_result, own.entries(), "{tag}: vs engine query");
        }
        let stats = engine.standing_stats(sub.id).unwrap();
        assert_eq!(stats.patched, 0, "{tag}: there is no patch path");
        assert_eq!(stats.batches, sub.stats.batches + 1, "{tag}: batches");
        assert_eq!(
            stats.fallbacks + stats.skipped,
            stats.batches,
            "{tag}: every batch re-queries or is skipped"
        );
        assert_eq!(
            note.via_fallback,
            stats.fallbacks == sub.stats.fallbacks + 1,
            "{tag}: via_fallback tracks the re-query counter"
        );
        sub.stats = stats;
        sub.view = apply_notification(&sub.view, note);
        assert_eq!(sub.view, engine_result, "{tag}: delta-rebuilt view");
        assert_eq!(
            note.kth_score,
            oracle.last().map(|e| e.score),
            "{tag}: kth_score"
        );
    }
}

/// One grid cell: a randomized op stream with one standing query per
/// (algorithm × k-edge) pair, checked after every batch.
fn run_stream(seed: u64, missing_pct: u64, policy: CompactionPolicy) {
    let dims = 3;
    let mut rng = Mix(seed);
    let initial: Vec<Vec<Option<f64>>> =
        (0..12).map(|_| row(&mut rng, dims, missing_pct)).collect();
    let ds = Dataset::from_rows(dims, &initial).unwrap();
    let n = ds.len();
    let mut next_id = ds.len() as ObjectId;
    let mut mirror = Mirror::seeded(&initial);
    let mut engine = DynamicEngine::with_options(
        ds,
        DynamicOptions {
            bins: BinChoice::Fixed(3),
            policy,
        },
    );
    let mut subs = Vec::new();
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        for k in [0usize, 1, 2, n - 1, n + 5] {
            subs.push(subscribe(&mut engine, StandingSpec::new(k).algorithm(alg)));
        }
    }
    // Registration answers match the oracle before any batch runs.
    for sub in &subs {
        assert_eq!(
            engine.standing_result(sub.id).unwrap(),
            requery_oracle(&mirror, &sub.spec),
            "seed={seed} registration k={}",
            sub.spec.k
        );
    }
    for batch in 0..10 {
        let ops: Vec<UpdateOp> = (0..6)
            .map(|_| {
                let op = random_op(&mut rng, &mirror, dims, missing_pct);
                apply_to_mirror(&mut mirror, &op, &mut next_id);
                op
            })
            .collect();
        let report = engine.apply_ops(&ops);
        assert_batch(
            &mut engine,
            &report,
            &mut subs,
            &mirror,
            &format!("seed={seed} missing={missing_pct} batch={batch}"),
        );
    }
    // The per-batch counter contract is asserted inside `assert_batch`;
    // here, that the stream exercised the re-query path at all.
    for sub in &subs {
        let stats = engine.standing_stats(sub.id).unwrap();
        assert_eq!(stats.batches, 10);
        assert!(stats.fallbacks > 0, "ten random batches re-query");
    }
}

#[test]
fn standing_parity_missing_10() {
    for seed in [1u64, 2, 3] {
        run_stream(seed, 10, CompactionPolicy::never());
    }
}

#[test]
fn standing_parity_missing_30() {
    for seed in [4u64, 5, 6] {
        run_stream(seed, 30, CompactionPolicy::never());
    }
}

#[test]
fn standing_parity_missing_60() {
    for seed in [7u64, 8, 9] {
        run_stream(seed, 60, CompactionPolicy::never());
    }
}

#[test]
fn standing_parity_with_aggressive_compaction() {
    // Eager compaction renumbers slots and bumps the epoch mid-stream;
    // standing results must be unaffected (they speak stable ids and are
    // re-queried from the rebuilt index).
    let policy = CompactionPolicy {
        max_tombstone_fraction: 0.1,
        min_dead: 2,
    };
    for (seed, missing) in [(10u64, 10u64), (11, 30), (12, 60)] {
        run_stream(seed, missing, policy);
    }
}

#[test]
fn standing_parity_scoped_queries() {
    // Subspace and constraint standing queries ride the same stream; both
    // re-query their derived dataset when touched and skip when provably
    // out of scope — either way the oracle equality must hold.
    let dims = 4;
    for (seed, missing) in [(30u64, 10u64), (31, 30), (32, 60)] {
        let mut rng = Mix(seed);
        let initial: Vec<Vec<Option<f64>>> =
            (0..14).map(|_| row(&mut rng, dims, missing)).collect();
        let ds = Dataset::from_rows(dims, &initial).unwrap();
        let mut next_id = ds.len() as ObjectId;
        let mut mirror = Mirror::seeded(&initial);
        let mut engine = DynamicEngine::new(ds);
        let mut subs = vec![
            subscribe(&mut engine, StandingSpec::new(3).subspace(vec![0, 2])),
            subscribe(
                &mut engine,
                StandingSpec::new(3)
                    .algorithm(Algorithm::Ibig)
                    .subspace(vec![1, 2, 3]),
            ),
            subscribe(&mut engine, StandingSpec::new(4).constrain(0, 0.0, 4.0)),
            subscribe(
                &mut engine,
                StandingSpec::new(2)
                    .constrain(1, 1.0, 6.0)
                    .constrain(3, 0.0, 3.5),
            ),
            // A full-space control query in the same registry.
            subscribe(&mut engine, StandingSpec::new(3)),
        ];
        for batch in 0..8 {
            let ops: Vec<UpdateOp> = (0..5)
                .map(|_| {
                    let op = random_op(&mut rng, &mirror, dims, missing);
                    apply_to_mirror(&mut mirror, &op, &mut next_id);
                    op
                })
                .collect();
            let report = engine.apply_ops(&ops);
            assert_batch(
                &mut engine,
                &report,
                &mut subs,
                &mirror,
                &format!("scoped seed={seed} batch={batch}"),
            );
        }
    }
}

#[test]
fn standing_parity_sliding_window() {
    // A window cap ages out the oldest stable ids after each batch; the
    // harness evicts its mirror identically and the oracle equality holds
    // over the surviving rows.
    let dims = 3;
    for (seed, missing, cap) in [(40u64, 10u64, 12), (41, 30, 9), (42, 60, 15)] {
        let mut rng = Mix(seed);
        let initial: Vec<Vec<Option<f64>>> =
            (0..cap).map(|_| row(&mut rng, dims, missing)).collect();
        let ds = Dataset::from_rows(dims, &initial).unwrap();
        let mut next_id = ds.len() as ObjectId;
        let mut mirror = Mirror::seeded(&initial);
        let mut engine = DynamicEngine::new(ds);
        engine.set_window(Some(cap));
        let mut subs = vec![
            subscribe(&mut engine, StandingSpec::new(3)),
            subscribe(&mut engine, StandingSpec::new(4).algorithm(Algorithm::Ibig)),
        ];
        for batch in 0..10 {
            // Insert-heavy traffic so the window actually slides.
            let ops: Vec<UpdateOp> = (0..4)
                .map(|i| {
                    let op = if i % 2 == 0 {
                        UpdateOp::Insert(row(&mut rng, dims, missing))
                    } else {
                        random_op(&mut rng, &mirror, dims, missing)
                    };
                    apply_to_mirror(&mut mirror, &op, &mut next_id);
                    op
                })
                .collect();
            let report = engine.apply_ops(&ops);
            // Mirror the age-out: evict oldest (smallest stable id — the
            // mirror keeps insertion order) down to the cap.
            let mut expect_aged = Vec::new();
            while mirror.rows.len() > cap {
                expect_aged.push(mirror.rows.remove(0).0);
            }
            assert_eq!(
                report.aged_out, expect_aged,
                "window seed={seed} batch={batch}: aged-out ids"
            );
            assert!(engine.len() <= cap, "window seed={seed}: capacity held");
            assert_batch(
                &mut engine,
                &report,
                &mut subs,
                &mirror,
                &format!("window seed={seed} batch={batch}"),
            );
        }
    }
}

#[test]
fn standing_register_unregister_mid_stream() {
    // Queries come and go while ops flow: late registrations answer from
    // current state, unregistered ids stop notifying, and the engine
    // drops tracking entirely once the registry empties.
    let dims = 3;
    let missing = 30;
    let mut rng = Mix(50);
    let initial: Vec<Vec<Option<f64>>> = (0..10).map(|_| row(&mut rng, dims, missing)).collect();
    let ds = Dataset::from_rows(dims, &initial).unwrap();
    let mut next_id = ds.len() as ObjectId;
    let mut mirror = Mirror::seeded(&initial);
    let mut engine = DynamicEngine::new(ds);
    let mut subs = vec![subscribe(&mut engine, StandingSpec::new(2))];
    for batch in 0..12 {
        if batch == 4 {
            subs.push(subscribe(
                &mut engine,
                StandingSpec::new(3).algorithm(Algorithm::Ibig),
            ));
        }
        if batch == 8 {
            let gone = subs.remove(0);
            assert!(engine.unregister(gone.id));
            assert!(engine.standing_result(gone.id).is_none());
        }
        let ops: Vec<UpdateOp> = (0..5)
            .map(|_| {
                let op = random_op(&mut rng, &mirror, dims, missing);
                apply_to_mirror(&mut mirror, &op, &mut next_id);
                op
            })
            .collect();
        let report = engine.apply_ops(&ops);
        assert_batch(
            &mut engine,
            &report,
            &mut subs,
            &mirror,
            &format!("churn batch={batch}"),
        );
    }
    for sub in subs.drain(..) {
        assert!(engine.unregister(sub.id));
    }
    // Registry empty: batches still apply, notifications stop.
    let op = random_op(&mut rng, &mirror, dims, missing);
    apply_to_mirror(&mut mirror, &op, &mut next_id);
    let report = engine.apply_ops(&[op]);
    assert!(report.error.is_none());
    assert!(report.notifications.is_empty());
}
