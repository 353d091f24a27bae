//! Allocation accounting for the steady-state query paths.
//!
//! The PR-2 acceptance bar: after context build, `big_with_scratch` /
//! `ibig_with_scratch` perform **zero heap allocations per visited
//! object**. A counting global allocator measures the number of
//! allocations one full query performs on datasets of different sizes —
//! if any per-object allocation survived, the count would grow with `N`
//! (hundreds of extra allocations here); instead it must be a small
//! per-query constant (the `TopK` candidate vector and the result).
//!
//! Everything runs in a single `#[test]` so no concurrent test pollutes
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tkd_core::{big, engine, ibig, Algorithm, DynamicEngine, UpdateOp};
use tkd_model::Dataset;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocation count of `f` (including whatever its return value allocates).
fn allocs_during<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    drop(out);
    after - before
}

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

#[test]
fn query_allocations_are_constant_in_dataset_size() {
    const K: usize = 32;
    // Per-query allocation ceiling: the TopK candidate vector plus the
    // result construction — nothing that scales with visited objects.
    const PER_QUERY_CEILING: u64 = 8;

    let small = synth(7, 400, 4, 40, 20);
    let large = synth(7, 2_000, 4, 40, 20);

    // --- BIG ---------------------------------------------------------
    let ctx_s = big::BigContext::build(&small);
    let ctx_l = big::BigContext::build(&large);
    let mut scr_s = ctx_s.scratch();
    let mut scr_l = ctx_l.scratch();
    // Warm-up: fault in any lazily initialized state. The second walk
    // over an index sizes its memo lane, so both contexts walk twice.
    for _ in 0..2 {
        assert!(!big::big_with_scratch(&ctx_s, K, &mut scr_s).is_empty());
        assert!(!big::big_with_scratch(&ctx_l, K, &mut scr_l).is_empty());
    }

    let a_small = allocs_during(|| big::big_with_scratch(&ctx_s, K, &mut scr_s));
    let a_large = allocs_during(|| big::big_with_scratch(&ctx_l, K, &mut scr_l));
    assert_eq!(
        a_small, a_large,
        "BIG allocation count must not grow with dataset size \
         (small: {a_small}, large: {a_large})"
    );
    assert!(
        a_large <= PER_QUERY_CEILING,
        "BIG query performed {a_large} allocations (ceiling {PER_QUERY_CEILING})"
    );

    // Visited-object sanity: the large run visits hundreds of objects, so
    // even one allocation per visited object would blow the ceiling.
    let r = big::big_with_scratch(&ctx_l, K, &mut scr_l);
    assert!(
        r.stats.scored + r.stats.h2_pruned > 50,
        "workload too small to be meaningful: {:?}",
        r.stats
    );

    // --- IBIG --------------------------------------------------------
    let ictx_s: ibig::IbigContext<'_> = ibig::IbigContext::build(&small, &[8, 8, 8, 8]);
    let ictx_l: ibig::IbigContext<'_> = ibig::IbigContext::build(&large, &[8, 8, 8, 8]);
    let mut iscr_s = ictx_s.scratch();
    let mut iscr_l = ictx_l.scratch();
    for _ in 0..2 {
        assert!(!ibig::ibig_with_scratch(&ictx_s, K, &mut iscr_s).is_empty());
        assert!(!ibig::ibig_with_scratch(&ictx_l, K, &mut iscr_l).is_empty());
    }

    let a_small = allocs_during(|| ibig::ibig_with_scratch(&ictx_s, K, &mut iscr_s));
    let a_large = allocs_during(|| ibig::ibig_with_scratch(&ictx_l, K, &mut iscr_l));
    assert_eq!(
        a_small, a_large,
        "IBIG allocation count must not grow with dataset size \
         (small: {a_small}, large: {a_large})"
    );
    assert!(
        a_large <= PER_QUERY_CEILING,
        "IBIG query performed {a_large} allocations (ceiling {PER_QUERY_CEILING})"
    );

    // Reusing one scratch across many queries stays constant too.
    let again = allocs_during(|| {
        for k in [1usize, 4, 8, 16] {
            big::big_with_scratch(&ctx_l, k, &mut scr_l);
        }
    });
    assert!(
        again <= 4 * PER_QUERY_CEILING,
        "scratch reuse across queries allocated {again} times"
    );

    // --- Parallel engine ---------------------------------------------
    // After warm-up (pool populated, thread stacks cached), a parallel
    // query's allocation count must not grow with the dataset size: the
    // per-candidate scoring paths stay allocation-free, and the slot
    // buffer + worker scratches come from the engine pool. Thread spawning
    // itself costs a constant number of allocations per query, so the
    // ceiling is higher than the sequential one but still n-independent.
    const PER_PARALLEL_QUERY_CEILING: u64 = 64;
    let eng_s = engine::ParallelEngine::builder(&small).threads(2).build();
    let eng_l = engine::ParallelEngine::builder(&large).threads(2).build();
    let q = engine::EngineQuery::new(K);
    for _ in 0..3 {
        // Warm-up: populate pools, fault in thread-stack caches.
        assert!(!eng_s.query(&q).is_empty());
        assert!(!eng_l.query(&q).is_empty());
    }
    let measure = |f: &dyn Fn() -> tkd_core::TkdResult| -> u64 {
        (0..3).map(|_| allocs_during(f)).min().unwrap()
    };
    let a_small = measure(&|| eng_s.query(&q));
    let a_large = measure(&|| eng_l.query(&q));
    assert_eq!(
        a_small, a_large,
        "parallel query allocation count must not grow with dataset size \
         (small: {a_small}, large: {a_large})"
    );
    assert!(
        a_large <= PER_PARALLEL_QUERY_CEILING,
        "parallel query performed {a_large} allocations \
         (ceiling {PER_PARALLEL_QUERY_CEILING})"
    );

    // Batched serving: per-query allocations in `query_many` stay
    // n-independent too (one walk per algorithm, pooled scratches).
    let batch: Vec<engine::EngineQuery> =
        (1..=6).map(|k| engine::EngineQuery::new(k * 4)).collect();
    let _ = eng_s.query_many(&batch);
    let _ = eng_l.query_many(&batch);
    let b_small = measure(&|| {
        let r = eng_s.query_many(&batch);
        r.into_iter().next().unwrap()
    });
    let b_large = measure(&|| {
        let r = eng_l.query_many(&batch);
        r.into_iter().next().unwrap()
    });
    assert_eq!(
        b_small, b_large,
        "query_many allocation count must not grow with dataset size \
         (small: {b_small}, large: {b_large})"
    );
    // A 16-spec, one-algorithm batch (k = 1, 5, …, 61) is one shared walk:
    // its allocations — a replay per k, the result slots and the answers —
    // count specs, never rows.
    const PER_SPEC_CEILING: u64 = 4;
    let sixteen: Vec<engine::EngineQuery> = (0..16)
        .map(|i| engine::EngineQuery::new(1 + 4 * i))
        .collect();
    let _ = eng_s.query_many(&sixteen);
    let _ = eng_l.query_many(&sixteen);
    let w_small = measure(&|| {
        let r = eng_s.query_many(&sixteen);
        r.into_iter().next().unwrap()
    });
    let w_large = measure(&|| {
        let r = eng_l.query_many(&sixteen);
        r.into_iter().next().unwrap()
    });
    assert_eq!(
        w_small, w_large,
        "a 16-spec batch's allocation count must not grow with dataset size \
         (small: {w_small}, large: {w_large})"
    );
    assert!(
        w_large <= PER_SPEC_CEILING * sixteen.len() as u64,
        "a 16-spec batch performed {w_large} allocations \
         (ceiling {PER_SPEC_CEILING} per spec)"
    );

    // --- Dynamic engine at two threads ---------------------------------
    // `query_threads` and `query_many` walk on the engine's own workers:
    // their scratches and slots are kept between queries, so after
    // warm-up a 2-thread query and a 16-spec batch allocate as many
    // times on either size, within the same ceilings.
    let mut dyn_s = DynamicEngine::new(small.clone());
    let mut dyn_l = DynamicEngine::new(large.clone());
    let dyn_min = |engine: &mut DynamicEngine, batch: &[engine::EngineQuery]| {
        for _ in 0..3 {
            // Warm-up: the queue recount, the crew, thread-stack caches.
            engine.query_threads(&q, 2).unwrap();
            engine.query_many(batch, 2).unwrap();
        }
        let one = (0..3)
            .map(|_| allocs_during(|| engine.query_threads(&q, 2).unwrap()))
            .min()
            .unwrap();
        let many = (0..3)
            .map(|_| allocs_during(|| engine.query_many(batch, 2).unwrap().remove(0)))
            .min()
            .unwrap();
        (one, many)
    };
    let (d_small, dm_small) = dyn_min(&mut dyn_s, &sixteen);
    let (d_large, dm_large) = dyn_min(&mut dyn_l, &sixteen);
    assert_eq!(
        d_small, d_large,
        "2-thread dynamic query allocation count must not grow with dataset size \
         (small: {d_small}, large: {d_large})"
    );
    assert!(
        d_large <= PER_PARALLEL_QUERY_CEILING,
        "a 2-thread dynamic query performed {d_large} allocations \
         (ceiling {PER_PARALLEL_QUERY_CEILING})"
    );
    assert_eq!(
        dm_small, dm_large,
        "a 2-thread dynamic 16-spec batch's allocation count must not grow \
         with dataset size (small: {dm_small}, large: {dm_large})"
    );
    assert!(
        dm_large <= PER_SPEC_CEILING * sixteen.len() as u64,
        "a 2-thread dynamic 16-spec batch performed {dm_large} allocations \
         (ceiling {PER_SPEC_CEILING} per spec)"
    );

    // --- A filled Heuristic 2 memo (the exact lane) -------------------
    // The exact index keeps each row's Heuristic 2 bound across queries.
    // The lane was sized by the second walk of the warm-ups above: once
    // queries at every k below have filled it, the sequential, parallel
    // and batched queries stay within their ceilings.
    for k in [1usize, 8, 64, 256] {
        big::big_with_scratch(&ctx_l, k, &mut scr_l);
        eng_l.query(&engine::EngineQuery::new(k));
    }
    let _ = eng_l.query_many(&sixteen);
    let seq = allocs_during(|| big::big_with_scratch(&ctx_l, K, &mut scr_l));
    assert!(
        seq <= PER_QUERY_CEILING,
        "BIG on a filled memo performed {seq} allocations (ceiling {PER_QUERY_CEILING})"
    );
    let par = measure(&|| eng_l.query(&q));
    assert!(
        par <= PER_PARALLEL_QUERY_CEILING,
        "parallel query on a filled memo performed {par} allocations \
         (ceiling {PER_PARALLEL_QUERY_CEILING})"
    );
    let many = measure(&|| {
        let r = eng_l.query_many(&sixteen);
        r.into_iter().next().unwrap()
    });
    assert!(
        many <= PER_SPEC_CEILING * sixteen.len() as u64,
        "a 16-spec batch on a filled memo performed {many} allocations \
         (ceiling {PER_SPEC_CEILING} per spec)"
    );

    // --- A filled binned memo lane --------------------------------------
    // IBIG's walk keeps each row's count at its binned picks and, once
    // scored, its nonD: a revisited survivor is measured from one load.
    // The lane is sized by the second IBIG walk over the index: once IBIG
    // queries at every k below have filled it, sequential, parallel and
    // batched IBIG queries stay within the same ceilings.
    let ibig_q = |k| engine::EngineQuery::new(k).algorithm(Algorithm::Ibig);
    let ibig_sixteen: Vec<engine::EngineQuery> = (0..16).map(|i| ibig_q(1 + 4 * i)).collect();
    for k in [1usize, 8, 64, 256] {
        ibig::ibig_with_scratch(&ictx_l, k, &mut iscr_l);
        eng_l.query(&ibig_q(k));
    }
    let _ = eng_l.query_many(&ibig_sixteen);
    let seq = allocs_during(|| ibig::ibig_with_scratch(&ictx_l, K, &mut iscr_l));
    assert!(
        seq <= PER_QUERY_CEILING,
        "IBIG on a filled lane performed {seq} allocations (ceiling {PER_QUERY_CEILING})"
    );
    let par = measure(&|| eng_l.query(&ibig_q(K)));
    assert!(
        par <= PER_PARALLEL_QUERY_CEILING,
        "parallel IBIG on a filled lane performed {par} allocations \
         (ceiling {PER_PARALLEL_QUERY_CEILING})"
    );
    let many = measure(&|| {
        let r = eng_l.query_many(&ibig_sixteen);
        r.into_iter().next().unwrap()
    });
    assert!(
        many <= PER_SPEC_CEILING * ibig_sixteen.len() as u64,
        "a 16-spec IBIG batch on a filled lane performed {many} allocations \
         (ceiling {PER_SPEC_CEILING} per spec)"
    );

    // --- Cluster shard scoring -----------------------------------------
    // A shard worker scores value-based candidates on the engine that
    // hosts the shard: borrowed values against the maintained indexes and
    // its live rows' count per observation mask. All four phases allocate
    // nothing, whatever the shard size. (`large` extends `small` row for
    // row, so candidate `i` is stable id `i` of both shards.)
    let candidates: Vec<Vec<Option<f64>>> = (0..64u32)
        .map(|o| (0..small.dims()).map(|d| small.value(o, d)).collect())
        .collect();
    let score_all = |shard: &mut DynamicEngine| -> usize {
        let mut sum = 0;
        for (id, values) in candidates.iter().enumerate() {
            let member = Some(id as u32);
            sum += shard.big_bound(values) + shard.ibig_q_count(values);
            sum += shard.big_partial(values, member).unwrap();
            sum += shard.ibig_partial(values, member).unwrap();
        }
        sum
    };
    let mut shard_s = DynamicEngine::new(small.clone());
    let mut shard_l = DynamicEngine::new(large.clone());
    assert!(score_all(&mut shard_s) > 0 && score_all(&mut shard_l) > 0); // warm-up
    for (shard, size) in [(&mut shard_s, "small"), (&mut shard_l, "large")] {
        let allocs = allocs_during(|| score_all(shard));
        assert_eq!(
            allocs,
            0,
            "{size} shard: scoring {} warmed-up candidates allocated {allocs} times",
            candidates.len()
        );
    }
    // Nothing stands between an update and the next score: after a batch
    // that only deletes and rewrites cells, the first candidate whose mask
    // a local row carries is scored without a single allocation — no
    // index, dataset copy or id map is rebuilt.
    let batch = [
        UpdateOp::Delete(70),
        UpdateOp::Set(71, 0, Some(3.0)),
        UpdateOp::Set(72, 1, Some(39.0)),
        UpdateOp::Delete(399),
    ];
    assert!(shard_l.apply_ops(&batch).error.is_none());
    let first = &candidates[0];
    let allocs = allocs_during(|| {
        shard_l.big_bound(first)
            + shard_l.ibig_q_count(first)
            + shard_l.big_partial(first, Some(0)).unwrap()
            + shard_l.ibig_partial(first, Some(0)).unwrap()
    });
    assert_eq!(allocs, 0, "first candidate after an update batch");
}
