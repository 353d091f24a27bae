//! Memo lanes follow the walks that read them.
//!
//! A build, load or clone sizes no memo lane. Every unscoped BIG or IBIG
//! walk announces itself to the lane it reads — the exact lane for BIG,
//! the binned lane for IBIG — and the lane is sized at the second
//! announcement. So an index walked once holds 0 memo bytes and no bound;
//! after a second walk it holds the lane that walk's algorithm reads
//! (4 bytes per slot for BIG, 8 for IBIG) and no other, and every walk
//! answers as a fresh context's first: entries and the whole
//! `PruneStats`. Surfaces: `BigContext`, `IbigContext`, `ParallelEngine`
//! at one thread and two, and `DynamicEngine`. A `DynamicEngine` driven
//! the way a cluster worker drives one — built or loaded, then op
//! batches and value-based shard scoring, never a walk — holds no lane.

mod common;

use common::{apply_to_mirror, random_op, synth, Mirror, Mix};
use tkdi::core::big::{big_with, BigContext};
use tkdi::core::ibig::{ibig_with, IbigContext};
use tkdi::core::{PruneStats, ResultEntry, TkdResult};
use tkdi::index::{BinBoundaries, BinnedBitmapIndex};
use tkdi::prelude::*;
use tkdi::store;

const KS: [usize; 3] = [1, 8, 64];

fn answer(r: &TkdResult) -> (Vec<ResultEntry>, PruneStats) {
    (r.entries().to_vec(), r.stats)
}

/// What the memo of `binned`'s exact index holds: its bytes, whether any
/// row has an exact-lane bound, and whether any has a binned entry
/// through `binned`'s boundaries.
fn held(binned: &BinnedBitmapIndex<'_>) -> (usize, bool, bool) {
    let exact = binned.exact();
    let bounded = |o: usize| exact.max_bit_score_bound(o as ObjectId).is_some();
    let counted = |o: usize| binned.member_count_bound(o).is_some();
    (
        exact.memo_bytes(),
        (0..exact.n()).any(bounded),
        (0..exact.n()).any(counted),
    )
}

/// After the first walk nothing is held; after the second, the lane of
/// `algorithm` and only it, over `n` slots.
fn assert_lanes(walks: usize, algorithm: Algorithm, n: usize, got: (usize, bool, bool), ctx: &str) {
    let want = match (walks, algorithm) {
        (1, _) => (0, false, false),
        (_, Algorithm::Big) => (4 * n, true, false),
        _ => (8 * n, false, true),
    };
    assert_eq!(got, want, "{ctx}, after walk {walks}");
}

#[test]
fn contexts_size_their_lane_at_the_second_walk() {
    let ds = synth(910, 1_200, 4, 16, 20);
    let n = ds.len();
    let bins = [6; 4];
    for k in KS {
        let fresh = answer(&big_with(&BigContext::build(&ds), k));
        let ctx = BigContext::build(&ds);
        let boundaries = BinBoundaries::build(ctx.index(), &bins);
        let view = BinnedBitmapIndex::new(ctx.index(), &boundaries);
        assert_eq!(view.exact().memo_bytes(), 0, "BIG k {k}, built");
        for walks in 1..=3 {
            assert_eq!(answer(&big_with(&ctx, k)), fresh, "BIG k {k}, walk {walks}");
            let at = format!("BigContext k {k}");
            assert_lanes(walks.min(2), Algorithm::Big, n, held(&view), &at);
        }

        let fresh = answer(&ibig_with(&IbigContext::build(&ds, &bins), k));
        let ctx = IbigContext::build(&ds, &bins);
        assert_eq!(ctx.index().exact().memo_bytes(), 0, "IBIG k {k}, built");
        for walks in 1..=3 {
            assert_eq!(
                answer(&ibig_with(&ctx, k)),
                fresh,
                "IBIG k {k}, walk {walks}"
            );
            let at = format!("IbigContext k {k}");
            assert_lanes(walks.min(2), Algorithm::Ibig, n, held(ctx.index()), &at);
        }
    }
}

#[test]
fn engines_size_only_the_lanes_their_queries_walk() {
    let ds = synth(920, 1_200, 4, 16, 20);
    let n = ds.len();
    for algorithm in [Algorithm::Big, Algorithm::Ibig] {
        for k in KS {
            let spec = EngineQuery::new(k).algorithm(algorithm);
            let fresh = answer(&ParallelEngine::builder(&ds).threads(1).build().query(&spec));
            for threads in [1, 2] {
                let engine = ParallelEngine::builder(&ds).threads(threads).build();
                assert_eq!(engine.index().exact().memo_bytes(), 0, "built");
                for walks in 1..=3 {
                    let at = format!("ParallelEngine {algorithm:?} k {k} threads {threads}");
                    assert_eq!(answer(&engine.query(&spec)), fresh, "{at}, walk {walks}");
                    assert_lanes(walks.min(2), algorithm, n, held(engine.index()), &at);
                }
                // A batch walks once per algorithm it names.
                let engine = ParallelEngine::builder(&ds).threads(threads).build();
                for walks in 1..=2 {
                    let at = format!("query_many {algorithm:?} k {k} threads {threads}");
                    let batch = engine.query_many(&[spec.clone(), spec.clone()]);
                    for got in &batch {
                        assert_eq!(answer(got), fresh, "{at}, walk {walks}");
                    }
                    assert_lanes(walks, algorithm, n, held(engine.index()), &at);
                }
            }

            let mut fresh_engine = DynamicEngine::new(ds.clone());
            let fresh = answer(&fresh_engine.query(&spec).expect("served"));
            let mut engine = DynamicEngine::new(ds.clone());
            for walks in 1..=3 {
                let at = format!("DynamicEngine {algorithm:?} k {k}");
                assert_eq!(answer(&engine.query(&spec).expect("served")), fresh, "{at}");
                let parts = engine.store_parts_ref();
                let view = BinnedBitmapIndex::new(parts.index, parts.boundaries);
                assert_lanes(walks.min(2), algorithm, n, held(&view), &at);
            }
        }
    }
}

#[test]
fn a_worker_driven_engine_holds_no_lane() {
    let (dims, missing) = (4, 20);
    let ds = synth(930, 800, dims, 16, missing);
    let initial: Vec<Vec<Option<f64>>> = ds
        .ids()
        .map(|o| (0..dims).map(|d| ds.value(o, d)).collect())
        .collect();
    let built = DynamicEngine::new(ds);
    let loaded = store::decode_engine(&store::encode_engine(&built)).expect("snapshot decodes");
    for (engine, how) in [(built, "built"), (loaded, "loaded")] {
        let mut engine = engine;
        let mut mirror = Mirror::seeded(&initial);
        let mut next_id = initial.len() as ObjectId;
        let mut rng = Mix(931);
        let bytes = |e: &DynamicEngine| e.store_parts_ref().index.memo_bytes();
        assert_eq!(bytes(&engine), 0, "{how}");
        for batch in 0..5 {
            let ops: Vec<UpdateOp> = (0..10)
                .map(|_| {
                    let op = random_op(&mut rng, &mirror, dims, missing);
                    apply_to_mirror(&mut mirror, &op, &mut next_id);
                    op
                })
                .collect();
            assert!(
                engine.apply_ops(&ops).error.is_none(),
                "{how} batch {batch}"
            );
            assert_eq!(bytes(&engine), 0, "{how} batch {batch}, applied");
            for id in mirror.ids().into_iter().take(40) {
                let values: Vec<Option<f64>> = (0..dims)
                    .map(|d| engine.value(id, d).expect("live"))
                    .collect();
                let score = engine.big_bound(&values)
                    + engine.ibig_q_count(&values)
                    + engine.big_partial(&values, Some(id)).expect("live")
                    + engine.ibig_partial(&values, Some(id)).expect("live");
                assert!(score > 0, "{how} batch {batch}, id {id}");
            }
            assert_eq!(bytes(&engine), 0, "{how} batch {batch}, scored");
        }
    }
}
