//! The shared k-edge matrix: every algorithm — the five sequential ones,
//! the parallel paths, and the serving engine — must behave
//! identically at the awkward corners of the query space:
//!
//! * `k = 0` (empty result, nothing scored),
//! * `k = n − 1`, `k = n`, `k = n + 5` (full or over-full result),
//! * the empty dataset,
//! * 1-dimensional datasets (degenerate masks, every pair comparable).
//!
//! This test supersedes the per-module `k_zero_is_empty` checks that used
//! to live in `naive.rs` / `esb.rs` / `ubb.rs`.

use tkd_core::{Algorithm, EngineQuery, ParallelEngine, TkdQuery};
use tkd_model::{fixtures, Dataset};

/// Deterministic incomplete dataset (splitmix-style hash).
fn synth(seed: u64, n: usize, d: usize, card: u64, missing_pct: u64) -> Dataset {
    let mut h = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58476D1CE4E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D049BB133111EB);
        h ^= h >> 31;
        h
    };
    let mut rows = Vec::with_capacity(n);
    'outer: while rows.len() < n {
        let mut row = Vec::with_capacity(d);
        for _ in 0..d {
            if next() % 100 < missing_pct {
                row.push(None);
            } else {
                row.push(Some((next() % card) as f64));
            }
        }
        if row.iter().all(Option::is_none) {
            continue 'outer;
        }
        rows.push(row);
    }
    Dataset::from_rows(d, &rows).unwrap()
}

fn edge_datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("empty-3d", Dataset::from_rows(3, &[]).unwrap()),
        ("empty-1d", Dataset::from_rows(1, &[]).unwrap()),
        (
            "single-object-1d",
            Dataset::from_rows(1, &[vec![Some(4.0)]]).unwrap(),
        ),
        ("one-dim", synth(3, 40, 1, 6, 0)),
        ("one-dim-missing", synth(4, 40, 1, 6, 35)),
        ("fig3", fixtures::fig3_sample()),
        ("mixed", synth(9, 70, 3, 8, 30)),
    ]
}

fn edge_ks(n: usize) -> Vec<usize> {
    let mut ks = vec![0, 1, n.saturating_sub(1), n, n + 5];
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// Every algorithm (sequential, parallel, engine) returns the same score
/// vector as Naive on every edge dataset × edge k — and the k = 0 /
/// empty-dataset cells return empty results without panicking.
#[test]
fn k_edge_matrix_all_algorithms_agree() {
    for (name, ds) in edge_datasets() {
        let n = ds.len();
        let engine = ParallelEngine::builder(&ds).threads(2).build();
        for k in edge_ks(n) {
            let reference = TkdQuery::new(k).algorithm(Algorithm::Naive).run(&ds);
            assert_eq!(reference.len(), k.min(n), "naive size {name} k={k}");
            if k == 0 || n == 0 {
                assert!(reference.is_empty(), "{name} k={k}");
            }
            for alg in Algorithm::ALL {
                // Sequential path.
                let r = TkdQuery::new(k).algorithm(alg).run(&ds);
                assert_eq!(r.scores(), reference.scores(), "{name} {alg:?} k={k}");
                // Parallel path (2 threads) for the bitmap engines.
                if matches!(alg, Algorithm::Big | Algorithm::Ibig) {
                    let p = TkdQuery::new(k).algorithm(alg).threads(2).run(&ds);
                    assert_eq!(
                        p.scores(),
                        reference.scores(),
                        "{name} parallel {alg:?} k={k}"
                    );
                }
                // Engine path.
                let e = engine.query(&EngineQuery::new(k).algorithm(alg));
                assert_eq!(
                    e.scores(),
                    reference.scores(),
                    "{name} engine {alg:?} k={k}"
                );
            }
        }
    }
}

/// The k = 0 fast path skips scoring entirely — the whole queue is
/// accounted as pruned, uniformly across the queue-driven algorithms.
#[test]
fn k_zero_skips_all_scoring() {
    let ds = fixtures::fig3_sample();
    for alg in Algorithm::ALL {
        let r = TkdQuery::new(0).algorithm(alg).run(&ds);
        assert!(r.is_empty(), "{alg:?}");
        assert_eq!(r.stats.scored, 0, "{alg:?} must not score anything");
        assert_eq!(r.stats.total(), ds.len(), "{alg:?} accounting");
    }
}

/// Oversized k on the parallel paths: every object is returned exactly
/// once (no loss, no duplication across workers).
#[test]
fn oversized_k_returns_every_object_once() {
    let ds = synth(11, 130, 3, 5, 25);
    for threads in [1usize, 2, 4] {
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            let r = TkdQuery::new(ds.len() + 9)
                .algorithm(alg)
                .threads(threads)
                .run(&ds);
            assert_eq!(r.len(), ds.len(), "threads={threads}");
            let mut ids = r.ids();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), ds.len(), "duplicate ids, threads={threads}");
        }
    }
}
