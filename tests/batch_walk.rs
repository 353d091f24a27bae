//! One walk per batch: `ParallelEngine::query_many` answers every BIG or
//! IBIG query of a batch from one shared traversal of the `MaxScore`
//! queue — each visited candidate measured once, each query deciding its
//! own outcome against its own τ — and every answer must be the one the
//! query gets alone.
//!
//! Grid: missing rates {0.1, 0.3, 0.6} × seeded batches of 1–24 specs
//! mixing BIG and IBIG, with k drawn from {0, 1, a duplicate of an
//! earlier spec's k, n − 1, n, n + 5} and below n, and some
//! `TieBreak::Random` seeds. At one thread every result equals
//! `big_with_scratch` / `ibig_with_scratch` run alone in entries and in
//! the whole `PruneStats` (with the spec's tie-break applied as a lone
//! `TkdQuery` applies it), and so does every result at 2 and 4 threads,
//! where both workers measure the candidates of each walk.
//! `DynamicEngine::query_many` after seeded op batches — tombstones, then
//! one compaction — equals `DynamicEngine::query` per spec.

mod common;

use common::{apply_to_mirror, random_op, row, synth, Mirror, Mix};
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{big, ibig, BinChoice, TieBreak};
use tkdi::prelude::*;

const MISSING: [u64; 3] = [10, 30, 60];
const BINS: usize = 3;

/// A seeded batch of `len` BIG/IBIG specs over a dataset of `n` rows.
fn batch(rng: &mut Mix, len: usize, n: usize) -> Vec<EngineQuery> {
    let mut specs: Vec<EngineQuery> = Vec::with_capacity(len);
    for _ in 0..len {
        let k = match rng.below(8) {
            0 => 0,
            1 => 1,
            2 => n.saturating_sub(1),
            3 => n,
            4 => n + 5,
            5 if !specs.is_empty() => specs[rng.below(specs.len())].k,
            _ => 1 + rng.below(n.max(1)),
        };
        let algorithm = if rng.below(2) == 0 {
            Algorithm::Big
        } else {
            Algorithm::Ibig
        };
        let tie = if rng.below(4) == 0 {
            TieBreak::Random(rng.next())
        } else {
            TieBreak::ById
        };
        specs.push(EngineQuery { k, algorithm, tie });
    }
    specs
}

/// Batch lengths: the two ends, then seeded ones in between.
fn lengths(rng: &mut Mix) -> Vec<usize> {
    let mut lens = vec![1, 24];
    lens.extend((0..10).map(|_| 1 + rng.below(24)));
    lens
}

#[test]
fn query_many_is_every_spec_alone() {
    for (cell, &missing) in MISSING.iter().enumerate() {
        let ds = synth(400 + cell as u64, 150, 4, 8, missing);
        let bins = vec![BINS; ds.dims()];
        let seq = big::BigContext::build(&ds);
        let iseq: ibig::IbigContext<'_> = ibig::IbigContext::build(&ds, &bins);
        let (mut scratch, mut iscratch) = (seq.scratch(), iseq.scratch());
        let engines: Vec<(usize, ParallelEngine<'_>)> = [1usize, 2, 4]
            .into_iter()
            .map(|t| {
                let engine = ParallelEngine::builder(&ds)
                    .threads(t)
                    .bins(bins.clone())
                    .build();
                (t, engine)
            })
            .collect();
        let mut rng = Mix(500 + cell as u64);
        for len in lengths(&mut rng) {
            let specs = batch(&mut rng, len, ds.len());
            for (threads, engine) in &engines {
                let got = engine.query_many(&specs);
                assert_eq!(got.len(), specs.len());
                for (i, (q, r)) in specs.iter().zip(&got).enumerate() {
                    let tag = format!(
                        "missing={missing}% threads={threads} len={len} spec {i}: {:?} k={} {:?}",
                        q.algorithm, q.k, q.tie
                    );
                    let alone = match q.algorithm {
                        Algorithm::Big => big::big_with_scratch(&seq, q.k, &mut scratch),
                        _ => ibig::ibig_with_scratch(&iseq, q.k, &mut iscratch),
                    };
                    let want = match q.tie {
                        TieBreak::ById => alone.entries().to_vec(),
                        tie => TkdQuery::new(q.k)
                            .algorithm(q.algorithm)
                            .bins(BinChoice::PerDim(bins.clone()))
                            .tie_break(tie)
                            .run(&ds)
                            .entries()
                            .to_vec(),
                    };
                    assert_eq!(r.entries(), &want[..], "{tag}");
                    assert_eq!(r.stats, alone.stats, "{tag}");
                }
            }
        }
    }
}

/// Reference algorithms ride in the same batch, answered per spec; the
/// BIG/IBIG walks around them are unaffected.
#[test]
fn reference_specs_mixed_into_a_batch() {
    let ds = synth(600, 80, 3, 6, 30);
    let engine = ParallelEngine::builder(&ds).threads(2).build();
    let one = ParallelEngine::builder(&ds).threads(1).build();
    let specs: Vec<EngineQuery> = Algorithm::ALL
        .into_iter()
        .flat_map(|a| [3usize, 9, 3].map(|k| EngineQuery::new(k).algorithm(a)))
        .collect();
    let got = engine.query_many(&specs);
    for (q, r) in specs.iter().zip(&got) {
        let alone = one.query(q);
        assert_eq!(r.entries(), alone.entries(), "{:?} k={}", q.algorithm, q.k);
        assert_eq!(r.stats, alone.stats, "{:?} k={}", q.algorithm, q.k);
    }
}

#[test]
fn dynamic_query_many_is_every_query_alone() {
    const DIMS: usize = 4;
    for (cell, &missing) in MISSING.iter().enumerate() {
        let mut rng = Mix(700 + cell as u64);
        let initial: Vec<Vec<Option<f64>>> =
            (0..120).map(|_| row(&mut rng, DIMS, missing)).collect();
        let ds = Dataset::from_rows(DIMS, &initial).expect("rows are valid");
        let mut engine = DynamicEngine::with_options(
            ds,
            DynamicOptions {
                bins: BinChoice::PerDim(vec![BINS; DIMS]),
                policy: CompactionPolicy::never(),
            },
        );
        let mut mirror = Mirror::seeded(&initial);
        let mut next_id = initial.len() as ObjectId;
        for round in 0..6 {
            let ops: Vec<UpdateOp> = (0..12)
                .map(|_| {
                    let op = random_op(&mut rng, &mirror, DIMS, missing);
                    apply_to_mirror(&mut mirror, &op, &mut next_id);
                    op
                })
                .collect();
            assert!(engine.apply_ops(&ops).error.is_none(), "round {round}");
            if round == 3 {
                assert!(engine.tombstones() > 0, "tombstones before the compaction");
                engine.compact_now();
                assert_eq!(engine.tombstones(), 0);
            }
            let len = 1 + rng.below(24);
            let specs = batch(&mut rng, len, mirror.rows.len());
            for threads in [1usize, 2] {
                let got = engine.query_many(&specs, threads).expect("BIG/IBIG");
                for (i, (q, r)) in specs.iter().zip(&got).enumerate() {
                    let alone = engine.query(q).expect("BIG/IBIG");
                    let tag = format!(
                        "missing={missing}% round={round} threads={threads} spec {i}: {:?} k={}",
                        q.algorithm, q.k
                    );
                    assert_eq!(r.entries(), alone.entries(), "{tag}");
                    assert_eq!(r.stats, alone.stats, "{tag}");
                }
            }
        }
        assert_eq!(engine.stats().compactions, 1, "missing={missing}%");
    }
}
