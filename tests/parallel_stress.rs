//! Deterministic interleaving smoke (shim-level loom): hammer the shared-τ
//! replay merge under real thread contention, many times over, on a
//! tie-heavy dataset where the merge order genuinely matters, and assert
//! the result is *bit-identical* to the sequential engines every single
//! iteration — the shared-τ merge must never lose, duplicate, or reorder
//! a result whatever the interleaving.
//!
//! (True loom model-checking would need the loom crate; this offline
//! workspace approximates it by brute-forcing real schedules: 4
//! oversubscribed threads × many iterations × a queue dominated by equal
//! `MaxScore` ties maximizes merge/score races.)

use tkdi::core::{big, ibig, Algorithm, EngineQuery, ParallelEngine};
use tkdi::model::Dataset;

/// Tie-heavy dataset: tiny cardinality so scores collide massively and
/// the TopK threshold is contested at every offer.
fn tie_heavy(n: usize) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        rows.push(vec![
            Some((i % 3) as f64),
            Some(((i / 3) % 3) as f64),
            (i % 7 != 0).then_some((i % 2) as f64),
        ]);
    }
    Dataset::from_rows(3, &rows).unwrap()
}

const ITERATIONS: usize = 60;

#[test]
fn replay_merge_is_deterministic_under_contention() {
    let ds = tie_heavy(320);
    let seq_big = big::BigContext::build(&ds);
    let bins = vec![2usize; ds.dims()];
    let seq_ibig: ibig::IbigContext<'_> = ibig::IbigContext::build(&ds, &bins);
    let engine = ParallelEngine::builder(&ds).threads(4).bins(bins).build();
    // k = 8 sits in the middle of a large tie group — the adversarial
    // spot for threshold races; k = 1 and k = n exercise the extremes.
    for k in [1usize, 8, ds.len()] {
        let want_big = big::big_with(&seq_big, k);
        let want_ibig = ibig::ibig_with(&seq_ibig, k);
        for it in 0..ITERATIONS {
            let got = engine.query(&EngineQuery::new(k).algorithm(Algorithm::Big));
            assert_eq!(
                got.entries(),
                want_big.entries(),
                "BIG k={k} iteration {it}"
            );
            let got = engine.query(&EngineQuery::new(k).algorithm(Algorithm::Ibig));
            assert_eq!(
                got.entries(),
                want_ibig.entries(),
                "IBIG k={k} iteration {it}"
            );
        }
    }
}

#[test]
fn query_many_never_loses_or_duplicates_results() {
    let ds = tie_heavy(256);
    let engine = ParallelEngine::builder(&ds).threads(4).build();
    let batch: Vec<EngineQuery> = (0..16)
        .map(|i| {
            EngineQuery::new(1 + i * 3).algorithm(if i % 2 == 0 {
                Algorithm::Big
            } else {
                Algorithm::Ibig
            })
        })
        .collect();
    let reference: Vec<_> = batch.iter().map(|q| engine.query(q)).collect();
    for it in 0..ITERATIONS {
        let got = engine.query_many(&batch);
        assert_eq!(got.len(), batch.len(), "iteration {it}");
        for ((q, r), want) in batch.iter().zip(&got).zip(&reference) {
            assert_eq!(
                r.entries(),
                want.entries(),
                "iteration {it} k={} {:?}",
                q.k,
                q.algorithm
            );
            // No id may appear twice, and the result is exactly k (or n).
            let mut ids = r.ids();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), r.len(), "duplicated id, iteration {it}");
            assert_eq!(r.len(), q.k.min(ds.len()), "lost result, iteration {it}");
        }
    }
}
