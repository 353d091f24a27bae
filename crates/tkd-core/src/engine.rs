//! [`ParallelEngine`] — a multi-user query-serving facade over the
//! sharded execution layer of [`crate::parallel`].
//!
//! The engine pays preprocessing and (sharded) index construction **once**
//! per dataset and then serves any number of queries against it:
//!
//! * [`ParallelEngine::query`] parallelizes **within** one query: all
//!   worker threads cooperate on the candidate queue, exchanging the
//!   shared pruning threshold τ (see the [`crate::parallel`] docs).
//! * [`ParallelEngine::query_many`] parallelizes **across** a batch of
//!   concurrent queries — the multi-user serving shape: each worker
//!   drains queries from the batch and runs them sequentially against the
//!   shared contexts, so context build is amortized over the whole batch
//!   and per-query overhead is one pooled scratch checkout.
//!
//! Worker scratches and slot buffers are recycled through an internal
//! pool, so after a warm-up query the engine performs a small constant
//! number of allocations per query regardless of dataset size
//! (`crates/tkd-core/tests/zero_alloc.rs` pins this).
//!
//! Every algorithm routes to an implementation that is score- and
//! order-identical to the corresponding single-threaded function: BIG and
//! IBIG through the replay-merged parallel engines, Naive/ESB/UBB through
//! the sequential reference implementations (reusing the engine's
//! `MaxScore` queue where applicable).

use crate::parallel::{
    build_context_pair, new_slots, run_replay, slots_needed, Outcome, ShardedBigContext,
    ShardedIbigContext, WorkerScratch,
};
use crate::preprocess::Preprocessed;
use crate::query::{shuffle_ties, Algorithm, TieBreak};
use crate::result::TkdResult;
use crate::{esb, naive, ubb};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use tkd_model::Dataset;

/// One query of a multi-user batch: `k`, the algorithm to answer it with,
/// and the tie handling among candidates sharing the k-th score.
#[derive(Clone, Debug)]
pub struct EngineQuery {
    /// How many dominating objects to return.
    pub k: usize,
    /// Which algorithm answers the query (all five are score-identical;
    /// BIG/IBIG run on the engine's sharded contexts).
    pub algorithm: Algorithm,
    /// Tie handling (see [`TieBreak`]).
    pub tie: TieBreak,
}

impl EngineQuery {
    /// A top-`k` query answered by BIG (the engine default).
    pub fn new(k: usize) -> Self {
        EngineQuery {
            k,
            algorithm: Algorithm::Big,
            tie: TieBreak::ById,
        }
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Select tie handling.
    pub fn tie_break(mut self, t: TieBreak) -> Self {
        self.tie = t;
        self
    }
}

/// Reusable per-query resources, recycled through [`ParallelEngine`]'s
/// pool.
struct Pool {
    workers: Mutex<Vec<WorkerScratch>>,
    slots: Mutex<Vec<Vec<AtomicU64>>>,
}

impl Pool {
    fn new() -> Self {
        Pool {
            workers: Mutex::new(Vec::new()),
            slots: Mutex::new(Vec::new()),
        }
    }

    fn take_workers(&self, n: usize, make: impl Fn() -> WorkerScratch) -> Vec<WorkerScratch> {
        let mut pool = self.workers.lock().expect("worker pool");
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match pool.pop() {
                Some(w) => out.push(w),
                None => break,
            }
        }
        drop(pool);
        while out.len() < n {
            out.push(make());
        }
        out
    }

    fn put_workers(&self, ws: Vec<WorkerScratch>) {
        self.workers.lock().expect("worker pool").extend(ws);
    }

    fn take_slots(&self, n: usize) -> Vec<AtomicU64> {
        let mut pool = self.slots.lock().expect("slot pool");
        let slots = pool.pop();
        drop(pool);
        let slots = match slots {
            Some(s) if s.len() >= n => s,
            _ => new_slots(n),
        };
        for s in &slots[..n] {
            s.store(0, Ordering::Relaxed);
        }
        slots
    }

    fn put_slots(&self, s: Vec<AtomicU64>) {
        self.slots.lock().expect("slot pool").push(s);
    }
}

/// Configures and builds a [`ParallelEngine`].
pub struct EngineBuilder<'a> {
    ds: &'a Dataset,
    threads: Option<usize>,
    shards: Option<usize>,
    bins: Option<Vec<usize>>,
}

impl<'a> EngineBuilder<'a> {
    /// Worker thread count (default: the machine's available
    /// parallelism). Values are clamped to at least 1.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = Some(t.max(1));
        self
    }

    /// Shard count (default: the thread count). Clamped internally so no
    /// shard is empty.
    pub fn shards(mut self, s: usize) -> Self {
        self.shards = Some(s.max(1));
        self
    }

    /// Per-dimension bin counts for the IBIG context (default: the Eq. 8
    /// optimum on every dimension).
    ///
    /// # Panics
    /// Panics (at [`EngineBuilder::build`]) if the length differs from
    /// the dataset's dimensionality.
    pub fn bins(mut self, bins: Vec<usize>) -> Self {
        self.bins = Some(bins);
        self
    }

    /// Build the engine: one `Preprocessed` pass plus the sharded BIG and
    /// IBIG contexts (shard builds run in parallel; each shard's sorted
    /// columns feed both of its indexes).
    pub fn build(self) -> ParallelEngine<'a> {
        let ds = self.ds;
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        let shards = self.shards.unwrap_or(threads);
        let bins = self.bins.unwrap_or_else(|| {
            let x = tkd_index::cost::optimal_bins(ds.len(), tkd_model::stats::missing_rate(ds));
            vec![x; ds.dims()]
        });
        assert_eq!(bins.len(), ds.dims(), "one bin count per dimension");
        let (big, ibig) = build_context_pair(ds, &bins, shards);
        ParallelEngine {
            ds,
            threads,
            big,
            ibig,
            pool: Pool::new(),
        }
    }
}

/// A query-serving engine: sharded contexts built once, queries answered
/// with within-query parallelism ([`ParallelEngine::query`]) or batched
/// across-query parallelism ([`ParallelEngine::query_many`]). See the
/// [module docs](self).
pub struct ParallelEngine<'a> {
    ds: &'a Dataset,
    threads: usize,
    big: ShardedBigContext<'a>,
    ibig: ShardedIbigContext<'a>,
    pool: Pool,
}

impl<'a> ParallelEngine<'a> {
    /// Build with defaults: threads = available parallelism, shards =
    /// threads, Eq. 8 bins.
    pub fn build(ds: &'a Dataset) -> Self {
        Self::builder(ds).build()
    }

    /// Start configuring an engine.
    pub fn builder(ds: &'a Dataset) -> EngineBuilder<'a> {
        EngineBuilder {
            ds,
            threads: None,
            shards: None,
            bins: None,
        }
    }

    /// Borrow a serving engine from prebuilt artifacts — the maintained
    /// state of a [`crate::DynamicEngine`] — without recomputing
    /// preprocessing or index construction. This is the coalescing hook
    /// of the network server: between update batches it lets a batch of
    /// small queries run through [`ParallelEngine::query_many`] against
    /// the live dynamic store.
    ///
    /// The contexts are single-shard borrows (the same shape
    /// [`crate::DynamicEngine::query_threads`] uses), so construction is
    /// O(1) in the dataset size. Entry ids are **slot** ids; callers
    /// serving a dynamic engine must map them through its stable-id
    /// table. When the index carries tombstones, only
    /// [`Algorithm::Big`] and [`Algorithm::Ibig`] see the live mask —
    /// restrict queries to those two (the reference algorithms scan the
    /// raw dataset, dead slots included).
    pub fn from_prebuilt(
        ds: &'a Dataset,
        index: &'a tkd_index::BitmapIndex,
        binned: &'a tkd_index::BinnedBitmapIndex,
        pre: &'a Preprocessed,
        threads: usize,
    ) -> Self {
        ParallelEngine {
            ds,
            threads: threads.max(1),
            big: ShardedBigContext::from_prebuilt(ds, index, pre),
            ibig: ShardedIbigContext::from_prebuilt_dense(ds, binned, pre),
            pool: Pool::new(),
        }
    }

    /// The dataset this engine serves.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.big.plan().count()
    }

    /// Answer one query with all worker threads cooperating on it.
    pub fn query(&self, q: &EngineQuery) -> TkdResult {
        self.run(q, self.threads)
    }

    /// Answer a batch of concurrent queries, worker-per-query: each of
    /// the engine's threads drains queries from the batch and runs them
    /// against the shared contexts with a pooled scratch. Results come
    /// back in batch order and are identical to running each query alone.
    pub fn query_many(&self, queries: &[EngineQuery]) -> Vec<TkdResult> {
        let threads = self.threads.min(queries.len()).max(1);
        if threads == 1 {
            return queries.iter().map(|q| self.run(q, 1)).collect();
        }
        let results: Vec<Mutex<Option<TkdResult>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= queries.len() {
                        break;
                    }
                    let r = self.run(&queries[i], 1);
                    *results[i].lock().expect("result slot") = Some(r);
                });
            }
        });
        results
            .into_iter()
            .map(|m| m.into_inner().expect("result slot").expect("query ran"))
            .collect()
    }

    fn run(&self, q: &EngineQuery, threads: usize) -> TkdResult {
        let result = match q.algorithm {
            Algorithm::Big => {
                self.run_replayed(q.k, threads, |o, tau, w| self.big.score(o, tau, w))
            }
            Algorithm::Ibig => {
                self.run_replayed(q.k, threads, |o, tau, w| self.ibig.score(o, tau, w))
            }
            // Reference algorithms for differential serving: sequential,
            // reusing the engine's MaxScore queue where applicable.
            Algorithm::Naive => naive::naive(self.ds, q.k),
            Algorithm::Esb => esb::esb(self.ds, q.k),
            Algorithm::Ubb => ubb::ubb_with_queue(self.ds, q.k, self.big.preprocessed().queue()),
        };
        match q.tie {
            TieBreak::ById => result,
            TieBreak::Random(seed) => shuffle_ties(result, seed),
        }
    }

    fn run_replayed(
        &self,
        k: usize,
        threads: usize,
        score: impl Fn(tkd_model::ObjectId, Option<usize>, &mut WorkerScratch) -> Outcome + Sync,
    ) -> TkdResult {
        let queue = self.big.preprocessed().queue();
        let mut workers = self
            .pool
            .take_workers(threads, || self.big.worker_scratch());
        // Pooled scratches were built for this engine's plan by
        // construction; guard against cross-engine reuse bugs.
        debug_assert!(workers.iter().all(|w| w.fits(self.big.plan())));
        let slots = self.pool.take_slots(slots_needed(threads, queue.len()));
        let result = run_replay(queue, k, &mut workers, &slots, score);
        self.pool.put_slots(slots);
        self.pool.put_workers(workers);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TkdQuery;
    use tkd_model::fixtures;

    #[test]
    fn engine_matches_tkdquery_for_all_algorithms() {
        let ds = fixtures::fig3_sample();
        let engine = ParallelEngine::builder(&ds).threads(3).shards(2).build();
        for k in [1usize, 2, 5, 20] {
            for alg in Algorithm::ALL {
                let reference = TkdQuery::new(k).algorithm(alg).run(&ds);
                let got = engine.query(&EngineQuery::new(k).algorithm(alg));
                assert_eq!(got.scores(), reference.scores(), "{alg:?} k={k}");
                if matches!(alg, Algorithm::Big | Algorithm::Ibig) {
                    assert_eq!(got.entries(), reference.entries(), "{alg:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn query_many_returns_batch_order_and_exact_results() {
        let ds = fixtures::fig3_sample();
        let engine = ParallelEngine::builder(&ds).threads(4).shards(3).build();
        let batch: Vec<EngineQuery> = (1..=12)
            .map(|k| {
                EngineQuery::new(k).algorithm(if k % 2 == 0 {
                    Algorithm::Big
                } else {
                    Algorithm::Ibig
                })
            })
            .collect();
        let got = engine.query_many(&batch);
        assert_eq!(got.len(), batch.len());
        for (q, r) in batch.iter().zip(&got) {
            let reference = engine.query(q);
            assert_eq!(r.entries(), reference.entries(), "k={}", q.k);
        }
    }

    #[test]
    fn random_tie_break_preserves_score_multiset() {
        let ds = fixtures::fig3_sample();
        let engine = ParallelEngine::builder(&ds).threads(2).build();
        let base = engine.query(&EngineQuery::new(6));
        for seed in 0..4 {
            let q = EngineQuery::new(6).tie_break(TieBreak::Random(seed));
            let r = engine.query(&q);
            assert_eq!(r.scores(), base.scores(), "seed {seed}");
        }
    }

    #[test]
    fn empty_dataset_and_k_edges() {
        let empty = tkd_model::Dataset::from_rows(3, &[]).unwrap();
        let engine = ParallelEngine::builder(&empty).threads(2).build();
        for alg in Algorithm::ALL {
            for k in [0usize, 1, 7] {
                let r = engine.query(&EngineQuery::new(k).algorithm(alg));
                assert!(r.is_empty(), "{alg:?} k={k}");
            }
        }
        let ds = fixtures::fig3_sample();
        let engine = ParallelEngine::builder(&ds).threads(2).build();
        for alg in Algorithm::ALL {
            assert!(engine.query(&EngineQuery::new(0).algorithm(alg)).is_empty());
        }
    }
}
