//! The differential-testing harness pinning the parallel paths — one
//! queue walk whose candidates several threads measure over one index —
//! to the sequential oracles.
//!
//! Grid: thread counts {1, 2, 4} × missing rates {0.1, 0.3, 0.6} ×
//! k ∈ {1, n − 1, n, n + 5}. For every cell, parallel BIG and IBIG must
//! return **identical entries, scores, tie order and `PruneStats`** to
//! the sequential scratch engines (which are themselves pinned to the
//! allocating `#[cfg(test)]` oracles by the proptests inside
//! `tkd-core`), and the serving engine must agree query-by-query under
//! batching.

mod common;

use common::synth;
use tkdi::core::{big, ibig, Algorithm, BinChoice, EngineQuery, ParallelEngine, TkdQuery};

const THREADS: [usize; 3] = [1, 2, 4];
const MISSING: [u64; 3] = [10, 30, 60];

fn grid_ks(n: usize) -> Vec<usize> {
    let mut ks = vec![1, n.saturating_sub(1).max(1), n, n + 5];
    ks.sort_unstable();
    ks.dedup();
    ks
}

#[test]
fn parallel_big_differential_grid() {
    for (seed, &missing) in MISSING.iter().enumerate() {
        let ds = synth(100 + seed as u64, 150, 4, 8, missing);
        let seq = big::BigContext::build(&ds);
        for &threads in &THREADS {
            for k in grid_ks(ds.len()) {
                let reference = big::big_with(&seq, k);
                let par = TkdQuery::new(k).threads(threads).run(&ds);
                assert_eq!(
                    par.entries(),
                    reference.entries(),
                    "missing={missing}% threads={threads} k={k}"
                );
                assert_eq!(
                    par.stats.h1_pruned, reference.stats.h1_pruned,
                    "H1 must fire at the same queue position \
                     (missing={missing}% threads={threads} k={k})"
                );
                assert_eq!(
                    par.stats, reference.stats,
                    "missing={missing}% threads={threads} k={k}"
                );
            }
        }
    }
}

#[test]
fn parallel_ibig_differential_grid() {
    for (seed, &missing) in MISSING.iter().enumerate() {
        let ds = synth(200 + seed as u64, 150, 4, 8, missing);
        for bins in [2usize, 5] {
            let bins_per_dim = vec![bins; ds.dims()];
            let seq: ibig::IbigContext<'_> = ibig::IbigContext::build(&ds, &bins_per_dim);
            for &threads in &THREADS {
                for k in grid_ks(ds.len()) {
                    let reference = ibig::ibig_with(&seq, k);
                    let par = TkdQuery::new(k)
                        .algorithm(Algorithm::Ibig)
                        .bins(BinChoice::PerDim(bins_per_dim.clone()))
                        .threads(threads)
                        .run(&ds);
                    assert_eq!(
                        par.entries(),
                        reference.entries(),
                        "missing={missing}% bins={bins} threads={threads} k={k}"
                    );
                    assert_eq!(
                        par.stats, reference.stats,
                        "missing={missing}% bins={bins} threads={threads} k={k}"
                    );
                }
            }
        }
    }
}

/// The serving engine under a batched multi-user mix agrees with the
/// sequential engines for every query of the batch.
#[test]
fn engine_batch_differential() {
    let ds = synth(42, 200, 4, 10, 30);
    let seq = big::BigContext::build(&ds);
    let ibins = vec![4usize; ds.dims()];
    let iseq: ibig::IbigContext<'_> = ibig::IbigContext::build(&ds, &ibins);
    for &threads in &THREADS {
        let engine = ParallelEngine::builder(&ds)
            .threads(threads)
            .bins(ibins.clone())
            .build();
        let batch: Vec<EngineQuery> = (0..24)
            .map(|i| {
                EngineQuery::new(1 + (i * 7) % 19).algorithm(if i % 2 == 0 {
                    Algorithm::Big
                } else {
                    Algorithm::Ibig
                })
            })
            .collect();
        let got = engine.query_many(&batch);
        for (q, r) in batch.iter().zip(&got) {
            let reference = match q.algorithm {
                Algorithm::Big => big::big_with(&seq, q.k),
                Algorithm::Ibig => ibig::ibig_with(&iseq, q.k),
                _ => unreachable!(),
            };
            assert_eq!(
                r.entries(),
                reference.entries(),
                "threads={threads} {:?} k={}",
                q.algorithm,
                q.k
            );
            assert_eq!(
                r.stats, reference.stats,
                "threads={threads} {:?} k={}",
                q.algorithm, q.k
            );
        }
    }
}

/// One thread *is* the sequential algorithm — the same scorer on the same
/// picks under the same walk — so beyond entries and the H1 position the
/// **whole** `PruneStats` (h1, h2, h3, scored) of every engine surface
/// equals the sequential scratch run's.
#[test]
fn one_shard_one_thread_is_the_sequential_run() {
    use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
    use tkdi::core::DynamicEngine;

    for (seed, &missing) in MISSING.iter().enumerate() {
        let ds = synth(300 + seed as u64, 150, 4, 8, missing);
        let bins = vec![3usize; ds.dims()];
        let seq = big::BigContext::build(&ds);
        let iseq: ibig::IbigContext<'_> = ibig::IbigContext::build(&ds, &bins);
        let (mut scratch, mut iscratch) = (seq.scratch(), iseq.scratch());
        let engine = ParallelEngine::builder(&ds)
            .threads(1)
            .bins(bins.clone())
            .build();
        let mut dynamic = DynamicEngine::with_options(
            ds.clone(),
            DynamicOptions {
                bins: BinChoice::PerDim(bins.clone()),
                policy: CompactionPolicy::default(),
            },
        );
        let mut ks = grid_ks(ds.len());
        ks.push(0);
        for k in ks {
            for alg in [Algorithm::Big, Algorithm::Ibig] {
                let q = EngineQuery::new(k).algorithm(alg);
                let reference = match alg {
                    Algorithm::Big => big::big_with_scratch(&seq, k, &mut scratch),
                    _ => ibig::ibig_with_scratch(&iseq, k, &mut iscratch),
                };
                let one_off = TkdQuery::new(k)
                    .algorithm(alg)
                    .bins(BinChoice::PerDim(bins.clone()))
                    .threads(1)
                    .run(&ds);
                let surfaces = [
                    ("TkdQuery::threads", one_off),
                    ("ParallelEngine::query", engine.query(&q)),
                    (
                        "query_many",
                        engine.query_many(std::slice::from_ref(&q)).remove(0),
                    ),
                    (
                        "DynamicEngine::query_threads",
                        dynamic.query_threads(&q, 1).expect("BIG/IBIG"),
                    ),
                ];
                for (surface, got) in surfaces {
                    let cell = format!("{surface} {alg:?} missing={missing}% k={k}");
                    assert_eq!(got.entries(), reference.entries(), "{cell}");
                    assert_eq!(got.stats, reference.stats, "{cell}");
                }
            }
        }
    }
}

/// Several threads measure the candidates of one walk, and every decision
/// is still taken in queue order at each query's own τ: at 2 and 4
/// threads the whole `PruneStats` of every engine surface equals the
/// sequential scratch run's, as at one thread.
#[test]
fn every_thread_count_is_the_sequential_run() {
    use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
    use tkdi::core::DynamicEngine;

    for (seed, &missing) in MISSING.iter().enumerate() {
        let ds = synth(900 + seed as u64, 150, 4, 8, missing);
        let bins = vec![3usize; ds.dims()];
        let seq = big::BigContext::build(&ds);
        let iseq: ibig::IbigContext<'_> = ibig::IbigContext::build(&ds, &bins);
        let (mut scratch, mut iscratch) = (seq.scratch(), iseq.scratch());
        let mut dynamic = DynamicEngine::with_options(
            ds.clone(),
            DynamicOptions {
                bins: BinChoice::PerDim(bins.clone()),
                policy: CompactionPolicy::default(),
            },
        );
        for threads in [2usize, 4] {
            let engine = ParallelEngine::builder(&ds)
                .threads(threads)
                .bins(bins.clone())
                .build();
            let mut ks = grid_ks(ds.len());
            ks.push(0);
            for k in ks {
                for alg in [Algorithm::Big, Algorithm::Ibig] {
                    let q = EngineQuery::new(k).algorithm(alg);
                    let reference = match alg {
                        Algorithm::Big => big::big_with_scratch(&seq, k, &mut scratch),
                        _ => ibig::ibig_with_scratch(&iseq, k, &mut iscratch),
                    };
                    let one_off = TkdQuery::new(k)
                        .algorithm(alg)
                        .bins(BinChoice::PerDim(bins.clone()))
                        .threads(threads)
                        .run(&ds);
                    let surfaces = [
                        ("TkdQuery::threads", one_off),
                        ("ParallelEngine::query", engine.query(&q)),
                        (
                            "DynamicEngine::query_threads",
                            dynamic.query_threads(&q, threads).expect("BIG/IBIG"),
                        ),
                    ];
                    for (surface, got) in surfaces {
                        let cell =
                            format!("{surface} {alg:?} missing={missing}% threads={threads} k={k}");
                        assert_eq!(got.entries(), reference.entries(), "{cell}");
                        assert_eq!(got.stats, reference.stats, "{cell}");
                    }
                }
            }
        }
    }
}
