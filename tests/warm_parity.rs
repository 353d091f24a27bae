//! Warm ≡ cold: an index that has answered queries answers the next one
//! exactly as a freshly built one answers its first.
//!
//! The exact index remembers every row's measurement across queries —
//! BIG's Heuristic 2 bound (`BitmapIndex::max_bit_score_above`) and
//! IBIG's bound with its `nonD` at the binned picks
//! (`BinnedBitmapIndex::member_count_above`) — so a warm walk prunes a
//! revisited candidate without a scan, and a warm IBIG walk scores one
//! without a term. One context answers a seeded, repeated and shuffled
//! sequence of k ∈ {1, 8, 64, 256}; every answer's entries and whole
//! `PruneStats` (`h3_pruned` included) must equal the first answer of a
//! context built fresh for that k. Surfaces, for BIG and IBIG each:
//! `big_with_scratch` / `ibig_with_scratch`, `ParallelEngine` at one
//! thread and at two (one driver decides every walk in queue order, so
//! two workers reproduce the whole `PruneStats` too), 16-spec
//! `query_many` batches mixing both algorithms, and a `DynamicEngine`
//! queried between op batches against a fresh load of its snapshot.

mod common;

use common::{apply_to_mirror, random_op, synth, Mirror, Mix};
use std::collections::BTreeMap;
use tkdi::core::big::{big_with, big_with_scratch, BigContext};
use tkdi::core::ibig::{ibig_with, ibig_with_scratch, IbigContext};
use tkdi::core::{PruneStats, ResultEntry, TkdResult};
use tkdi::prelude::*;
use tkdi::store;

const KS: [usize; 4] = [1, 8, 64, 256];
const MISSING: [u64; 2] = [10, 30];

/// What an answer must reproduce: its entries in order, and its counters.
fn answer(r: &TkdResult) -> (Vec<ResultEntry>, PruneStats) {
    (r.entries().to_vec(), r.stats)
}

/// `KS` three times over, shuffled.
fn k_sequence(rng: &mut Mix) -> Vec<usize> {
    let mut ks: Vec<usize> = KS.iter().copied().cycle().take(3 * KS.len()).collect();
    for i in (1..ks.len()).rev() {
        ks.swap(i, rng.below(i + 1));
    }
    ks
}

type Answers = BTreeMap<usize, (Vec<ResultEntry>, PruneStats)>;

/// Each k's answer from a context built for it alone.
fn cold_answers(ds: &Dataset) -> Answers {
    KS.iter()
        .map(|&k| (k, answer(&big_with(&BigContext::build(ds), k))))
        .collect()
}

/// Each k's IBIG answer from a context built for it alone, at the Eq. 8
/// bin count the engines default to.
fn cold_ibig_answers(ds: &Dataset) -> Answers {
    KS.iter()
        .map(|&k| (k, answer(&ibig_with(&IbigContext::build_auto(ds), k))))
        .collect()
}

#[test]
fn warm_ibig_surfaces_answer_as_cold() {
    for (cell, &missing) in MISSING.iter().enumerate() {
        let ds = synth(620 + cell as u64, 1_500, 4, 16, missing);
        let cold = cold_ibig_answers(&ds);
        assert!(
            cold.values().any(|(_, s)| s.h2_pruned > 100)
                && cold.values().any(|(_, s)| s.h3_pruned > 0),
            "Heuristics 2 and 3 must prune here: {cold:?}"
        );
        let mut rng = Mix(720 + cell as u64);

        let ctx = IbigContext::build_auto(&ds);
        let mut scratch = ctx.scratch();
        for k in k_sequence(&mut rng) {
            let got = answer(&ibig_with_scratch(&ctx, k, &mut scratch));
            assert_eq!(got, cold[&k], "ibig_with_scratch, σ {missing}%, k {k}");
        }

        for threads in [1, 2] {
            let engine = ParallelEngine::builder(&ds).threads(threads).build();
            for k in k_sequence(&mut rng) {
                let spec = EngineQuery::new(k).algorithm(Algorithm::Ibig);
                let (entries, stats) = answer(&engine.query(&spec));
                let (want_entries, want_stats) = &cold[&k];
                let ctx = format!("engine IBIG threads({threads}), σ {missing}%, k {k}");
                assert_eq!(&entries, want_entries, "{ctx}");
                assert_eq!(&stats, want_stats, "{ctx}");
            }
        }

        // Mixed batches: one walk per algorithm over the same index, each
        // through its own lane.
        let cold_big = cold_answers(&ds);
        let engine = ParallelEngine::builder(&ds).threads(1).build();
        for round in 0..3 {
            let specs: Vec<EngineQuery> = (0..16)
                .map(|_| {
                    let k = KS[rng.below(KS.len())];
                    match rng.below(2) {
                        0 => EngineQuery::new(k),
                        _ => EngineQuery::new(k).algorithm(Algorithm::Ibig),
                    }
                })
                .collect();
            for (spec, got) in specs.iter().zip(engine.query_many(&specs)) {
                let want = match spec.algorithm {
                    Algorithm::Ibig => &cold[&spec.k],
                    _ => &cold_big[&spec.k],
                };
                let ctx = format!(
                    "query_many round {round}, {:?}, σ {missing}%, k {}",
                    spec.algorithm, spec.k
                );
                assert_eq!(&answer(&got), want, "{ctx}");
            }
        }
    }
}

/// A one-shot query (`TkdQuery::run`) walks once, so its contexts carry
/// no memo lane: its entries and whole `PruneStats` must equal a laned
/// context's first answer, for BIG and IBIG, at one thread and at two.
#[test]
fn a_lane_less_one_shot_answers_as_a_laned_context() {
    for (cell, &missing) in MISSING.iter().enumerate() {
        let ds = synth(640 + cell as u64, 1_500, 4, 16, missing);
        let (big, ibig) = (cold_answers(&ds), cold_ibig_answers(&ds));
        for k in KS {
            for threads in [1, 2] {
                let ctx = format!("σ {missing}%, k {k}, threads {threads}");
                let got = TkdQuery::new(k).threads(threads).run(&ds);
                assert_eq!(answer(&got), big[&k], "BIG, {ctx}");
                let query = TkdQuery::new(k).algorithm(Algorithm::Ibig);
                let got = query.threads(threads).run(&ds);
                assert_eq!(answer(&got), ibig[&k], "IBIG, {ctx}");
            }
        }
    }
}

#[test]
fn warm_static_surfaces_answer_as_cold() {
    for (cell, &missing) in MISSING.iter().enumerate() {
        let ds = synth(600 + cell as u64, 1_500, 4, 16, missing);
        let cold = cold_answers(&ds);
        assert!(
            cold.values().any(|(_, s)| s.h2_pruned > 100),
            "Heuristic 2 must prune here: {cold:?}"
        );
        let mut rng = Mix(700 + cell as u64);

        let ctx = BigContext::build(&ds);
        let mut scratch = ctx.scratch();
        for k in k_sequence(&mut rng) {
            let got = answer(&big_with_scratch(&ctx, k, &mut scratch));
            assert_eq!(got, cold[&k], "big_with_scratch, σ {missing}%, k {k}");
        }

        for threads in [1, 2] {
            let engine = ParallelEngine::builder(&ds).threads(threads).build();
            for k in k_sequence(&mut rng) {
                let (entries, stats) = answer(&engine.query(&EngineQuery::new(k)));
                let (want_entries, want_stats) = &cold[&k];
                let ctx = format!("engine threads({threads}), σ {missing}%, k {k}");
                assert_eq!(&entries, want_entries, "{ctx}");
                assert_eq!(&stats, want_stats, "{ctx}");
            }
        }

        let engine = ParallelEngine::builder(&ds).threads(1).build();
        for round in 0..3 {
            let specs: Vec<EngineQuery> = (0..16)
                .map(|_| EngineQuery::new(KS[rng.below(KS.len())]))
                .collect();
            for (spec, got) in specs.iter().zip(engine.query_many(&specs)) {
                let ctx = format!("query_many round {round}, σ {missing}%, k {}", spec.k);
                assert_eq!(answer(&got), cold[&spec.k], "{ctx}");
            }
        }
    }
}

#[test]
fn warm_dynamic_engine_answers_as_a_fresh_load() {
    let (dims, missing) = (4, 20);
    let ds = synth(800, 900, dims, 16, missing);
    let initial: Vec<Vec<Option<f64>>> = ds
        .ids()
        .map(|o| (0..dims).map(|d| ds.value(o, d)).collect())
        .collect();
    let mut mirror = Mirror::seeded(&initial);
    let mut next_id = ds.len() as ObjectId;
    let mut engine = DynamicEngine::new(ds);
    let mut rng = Mix(801);
    for batch in 0..6 {
        let ops: Vec<UpdateOp> = (0..12)
            .map(|_| {
                let op = random_op(&mut rng, &mirror, dims, missing);
                apply_to_mirror(&mut mirror, &op, &mut next_id);
                op
            })
            .collect();
        let report = engine.apply_ops(&ops);
        assert!(report.error.is_none(), "batch {batch}: {:?}", report.error);
        let bytes = store::encode_engine(&engine);
        for algorithm in [Algorithm::Big, Algorithm::Ibig] {
            let spec = |k| EngineQuery::new(k).algorithm(algorithm);
            let mut cold = BTreeMap::new();
            for k in KS {
                let mut fresh = store::decode_engine(&bytes).expect("snapshot decodes");
                let first = fresh.query(&spec(k)).expect("BIG and IBIG are served");
                cold.insert(k, answer(&first));
            }
            for k in k_sequence(&mut rng) {
                let got = engine.query(&spec(k)).expect("BIG and IBIG are served");
                assert_eq!(
                    answer(&got),
                    cold[&k],
                    "batch {batch}, {algorithm:?}, k {k}"
                );
            }
        }
    }
}
