//! Round-trip parity for persistent snapshots — the same differential
//! discipline as the parallel (PR 3) and dynamic (PR 4) subsystems: a
//! snapshot written and loaded back must answer every query
//! **bit-identically** (entries, scores, tie order) to the freshly
//! built context it came from, across missing rates {0.1, 0.3, 0.6} ×
//! bin counts × {BIG, IBIG}, statically built engines and engines that
//! absorbed a mixed op batch alike — and a loaded engine must keep
//! *mutating* correctly: a load → mutate → compact sequence stays
//! pinned to the rebuild oracle of `tests/dynamic_parity.rs`.

mod common;

use common::{cell, random_dataset, row, Mix};
use proptest::prelude::*;
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{BinChoice, TkdQuery};
use tkdi::prelude::*;
use tkdi::store;

/// Entries of a dynamic-engine query as comparable pairs.
fn entries(engine: &mut DynamicEngine, k: usize, alg: Algorithm) -> Vec<(ObjectId, usize)> {
    engine
        .query(&EngineQuery::new(k).algorithm(alg))
        .expect("BIG/IBIG supported")
        .iter()
        .map(|e| (e.id, e.score))
        .collect()
}

/// Round-trip one engine and pin the loaded copy to the original across
/// an edge-heavy k grid, both algorithms, and both thread counts.
fn assert_roundtrip_parity(engine: &mut DynamicEngine, tag: &str) {
    let bytes = store::encode_engine(engine);
    let mut loaded = store::decode_engine(&bytes).expect("own snapshot loads");
    // Canonical bytes: re-encoding the loaded engine is the identity.
    assert_eq!(store::encode_engine(&loaded), bytes, "{tag}: bytes");
    assert_eq!(loaded.live_ids(), engine.live_ids(), "{tag}: ids");
    assert_eq!(
        loaded.maintained_queue(),
        engine.maintained_queue(),
        "{tag}: queue"
    );
    let n = engine.len();
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        for k in [0usize, 1, 2, n.saturating_sub(1), n, n + 3] {
            let want: Vec<(ObjectId, usize)> = engine
                .query(&EngineQuery::new(k).algorithm(alg))
                .expect("supported")
                .iter()
                .map(|e| (e.id, e.score))
                .collect();
            for threads in [1usize, 2] {
                let got: Vec<(ObjectId, usize)> = loaded
                    .query_threads(&EngineQuery::new(k).algorithm(alg), threads)
                    .expect("supported")
                    .iter()
                    .map(|e| (e.id, e.score))
                    .collect();
                assert_eq!(got, want, "{tag}: {alg:?} k={k} threads={threads}");
            }
        }
    }
}

/// The static grid: fresh engines over random datasets, missing rates ×
/// bin choices, snapshot → load → full query-parity check.
#[test]
fn static_roundtrip_grid() {
    for missing_pct in [10u64, 30, 60] {
        for (seed, bins) in [
            (1u64, BinChoice::Auto),
            (2, BinChoice::Fixed(2)),
            (3, BinChoice::Fixed(5)),
        ] {
            let mut rng = Mix(seed * 1000 + missing_pct);
            let ds = random_dataset(&mut rng, 60, 3, missing_pct);
            let mut engine = DynamicEngine::with_options(
                ds,
                DynamicOptions {
                    bins: bins.clone(),
                    policy: CompactionPolicy::default(),
                },
            );
            assert_roundtrip_parity(
                &mut engine,
                &format!("static missing={missing_pct} seed={seed} bins={bins:?}"),
            );
        }
    }
}

/// The dynamic grid: engines that absorbed a mixed op batch (inserts,
/// deletes, cell updates — tombstones present), snapshot → load →
/// parity, then the loaded engine keeps mutating and compacting while
/// pinned to the rebuild oracle (the dynamic_parity discipline).
#[test]
fn dynamic_roundtrip_then_mutate_then_compact() {
    for missing_pct in [10u64, 30, 60] {
        let dims = 3;
        let mut rng = Mix(7 + missing_pct);
        let ds = random_dataset(&mut rng, 30, dims, missing_pct);
        let mut engine = DynamicEngine::with_options(
            ds,
            DynamicOptions {
                bins: BinChoice::Fixed(3),
                policy: CompactionPolicy::never(),
            },
        );
        // Mirror of live rows, maintained alongside every op.
        let mut mirror: Vec<(ObjectId, Vec<Option<f64>>)> = engine
            .live_ids()
            .into_iter()
            .map(|id| {
                let r: Vec<Option<f64>> = (0..dims).map(|d| engine.value(id, d).unwrap()).collect();
                (id, r)
            })
            .collect();
        let apply_random_ops = |engine: &mut DynamicEngine,
                                mirror: &mut Vec<(ObjectId, Vec<Option<f64>>)>,
                                rng: &mut Mix,
                                count: usize| {
            for _ in 0..count {
                let die = rng.next() % 10;
                if mirror.is_empty() || die >= 5 {
                    let r = row(rng, dims, missing_pct);
                    let id = engine.insert(&r).expect("valid row");
                    mirror.push((id, r));
                } else if die < 2 {
                    let i = rng.below(mirror.len());
                    let (id, _) = mirror.remove(i);
                    engine.delete(id).expect("live id");
                } else {
                    let i = rng.below(mirror.len());
                    let d = rng.below(dims);
                    let nv = cell(rng, missing_pct);
                    let (id, r) = &mut mirror[i];
                    let elsewhere = r.iter().enumerate().any(|(j, v)| j != d && v.is_some());
                    if nv.is_some() || elsewhere {
                        engine.update_value(*id, d, nv).expect("valid update");
                        r[d] = nv;
                    }
                }
            }
        };
        // Mutate, snapshot with tombstones present, load.
        apply_random_ops(&mut engine, &mut mirror, &mut rng, 25);
        assert!(engine.tombstones() > 0 || engine.stats().deletes == 0);
        let bytes = store::encode_engine(&engine);
        let mut loaded = store::decode_engine(&bytes).expect("snapshot loads");
        assert_roundtrip_parity(&mut engine, &format!("dynamic missing={missing_pct}"));
        // The loaded engine absorbs more ops, then compacts — and stays
        // bit-identical to a rebuild-from-scratch oracle over the mirror.
        apply_random_ops(&mut loaded, &mut mirror, &mut rng, 20);
        loaded.compact_now();
        let oracle_rows: Vec<Vec<Option<f64>>> = mirror.iter().map(|(_, r)| r.clone()).collect();
        let oracle_ids: Vec<ObjectId> = mirror.iter().map(|&(id, _)| id).collect();
        assert_eq!(loaded.live_ids(), oracle_ids, "missing={missing_pct}");
        let snap = Dataset::from_rows(dims, &oracle_rows).expect("mirror rows valid");
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            for k in [1usize, 3, mirror.len(), mirror.len() + 2] {
                let want: Vec<(ObjectId, usize)> = TkdQuery::new(k)
                    .algorithm(alg)
                    .run(&snap)
                    .iter()
                    .map(|e| (oracle_ids[e.id as usize], e.score))
                    .collect();
                assert_eq!(
                    entries(&mut loaded, k, alg),
                    want,
                    "post-compact missing={missing_pct} {alg:?} k={k}"
                );
            }
        }
        // And the compacted state round-trips again.
        assert_roundtrip_parity(&mut loaded, &format!("post-compact missing={missing_pct}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form: arbitrary small datasets and bin counts round-trip
    /// with full entry/score/tie-order parity on both engines.
    #[test]
    fn arbitrary_datasets_roundtrip(
        rows in proptest::collection::vec(
            proptest::collection::vec(
                proptest::option::weighted(0.65, (0u8..6).prop_map(f64::from)),
                3,
            )
            .prop_filter("at least one observed", |r| r.iter().any(Option::is_some)),
            1..30,
        ),
        bins in 1usize..6,
        k in 0usize..12,
    ) {
        let ds = Dataset::from_rows(3, &rows).expect("valid rows");
        let mut engine = DynamicEngine::with_options(
            ds,
            DynamicOptions {
                bins: BinChoice::Fixed(bins),
                policy: CompactionPolicy::default(),
            },
        );
        let bytes = store::encode_engine(&engine);
        let mut loaded = store::decode_engine(&bytes).expect("snapshot loads");
        prop_assert_eq!(store::encode_engine(&loaded), bytes);
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            prop_assert_eq!(
                entries(&mut loaded, k, alg),
                entries(&mut engine, k, alg),
                "{:?}", alg
            );
        }
    }
}
