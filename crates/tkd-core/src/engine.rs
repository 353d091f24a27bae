//! [`ParallelEngine`] — a multi-user query-serving facade over the replay
//! driver of [`crate::parallel`].
//!
//! The engine pays preprocessing and index construction **once** per
//! dataset — one sort per dimension feeds the `MaxScore` queue and the
//! exact index, which the binned index is a view of — and then serves any
//! number of queries against it:
//!
//! * [`ParallelEngine::query`] parallelizes **within** one query: all
//!   worker threads split the candidate queue over the one index,
//!   exchanging the shared pruning threshold τ (see the
//!   [`crate::parallel`] docs).
//! * [`ParallelEngine::query_many`] parallelizes **across** a batch of
//!   concurrent queries — the multi-user serving shape: each worker
//!   drains queries from the batch and runs them sequentially against the
//!   shared index, so the build is amortized over the whole batch and
//!   per-query overhead is one pooled scratch checkout.
//!
//! Worker scratches and slot buffers are recycled through an internal
//! pool, so after a warm-up query the engine performs a small constant
//! number of allocations per query regardless of dataset size
//! (`crates/tkd-core/tests/zero_alloc.rs` pins this).
//!
//! Every algorithm routes to an implementation that is score- and
//! order-identical to the corresponding single-threaded function: BIG and
//! IBIG through the replay-merged scorers — the same `scorer` the
//! dynamic engine's [`crate::DynamicEngine::query_threads`] runs —
//! Naive/ESB/UBB through the sequential reference implementations
//! (reusing the engine's `MaxScore` queue where applicable).

use crate::big::big_score_over;
use crate::ibig::ibig_score_over;
use crate::parallel::{new_slots, run_replay, slots_needed, Outcome};
use crate::preprocess::Preprocessed;
use crate::query::{shuffle_ties, Algorithm, TieBreak};
use crate::result::TkdResult;
use crate::scope::Scope;
use crate::scratch::ScratchSpace;
use crate::{esb, naive, ubb};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use tkd_index::{BinnedBitmapIndex, BitmapIndexBuilder};
use tkd_model::{Dataset, ObjectId};

/// One query of a multi-user batch: `k`, the algorithm to answer it with,
/// and the tie handling among candidates sharing the k-th score.
#[derive(Clone, Debug)]
pub struct EngineQuery {
    /// How many dominating objects to return.
    pub k: usize,
    /// Which algorithm answers the query (all five are score-identical;
    /// BIG/IBIG run on the engine's prebuilt indexes).
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

/// BIG-Score or IBIG-Score of a member of `ds` against one index — the
/// exact one for BIG, its binned view for IBIG — and its preprocessing,
/// over `scope`'s rows when there is a scope — the scorer both parallel
/// paths hand [`run_replay`]: [`ParallelEngine`] over the index it built,
/// and [`crate::DynamicEngine::query_threads`] over the one it maintains
/// (and, scoped,
/// [`crate::DynamicEngine::query_constrained`] and
/// [`crate::DynamicEngine::query_subspace`]).
pub(crate) fn scorer<'s>(
    ds: &'s Dataset,
    binned: &'s BinnedBitmapIndex<'s>,
    pre: &'s Preprocessed,
    scope: Option<&'s Scope>,
    algorithm: Algorithm,
) -> impl Fn(ObjectId, Option<usize>, &mut ScratchSpace) -> Outcome + Sync + 's {
    move |o, tau, scratch| match algorithm {
        Algorithm::Big => big_score_over(ds, binned.exact(), pre, scope, o, tau, scratch),
        Algorithm::Ibig => ibig_score_over(ds, binned, pre, scope, o, tau, scratch),
        other => unreachable!("the replayed paths serve BIG/IBIG, got {other:?}"),
    }
}

/// Reusable per-query resources, recycled through [`ParallelEngine`]'s
/// pool.
struct Pool {
    scratch: Mutex<Vec<ScratchSpace>>,
    slots: Mutex<Vec<Vec<AtomicU64>>>,
}

impl Pool {
    fn new() -> Self {
        Pool {
            scratch: Mutex::new(Vec::new()),
            slots: Mutex::new(Vec::new()),
        }
    }

    fn take_scratch(&self, count: usize, n: usize) -> Vec<ScratchSpace> {
        let mut pool = self.scratch.lock().expect("scratch pool");
        let keep = pool.len().saturating_sub(count);
        let mut out = pool.split_off(keep);
        drop(pool);
        out.resize_with(count, || ScratchSpace::new(n));
        out
    }

    fn put_scratch(&self, scratch: Vec<ScratchSpace>) {
        self.scratch.lock().expect("scratch pool").extend(scratch);
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
    bins: Option<Vec<usize>>,
}

impl<'a> EngineBuilder<'a> {
    /// Worker thread count (default: the machine's available
    /// parallelism). Values are clamped to at least 1.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = Some(t.max(1));
        self
    }

    /// Per-dimension bin counts for the IBIG index (default: the Eq. 8
    /// optimum on every dimension).
    ///
    /// # Panics
    /// Panics (at [`EngineBuilder::build`]) if the length differs from
    /// the dataset's dimensionality.
    pub fn bins(mut self, bins: Vec<usize>) -> Self {
        self.bins = Some(bins);
        self
    }

    /// Build the engine in one sweep per dimension: each sorted column
    /// feeds the `MaxScore` queue and the exact index; the bin boundaries
    /// are quantiles of the index's value counts.
    pub fn build(self) -> ParallelEngine<'a> {
        let ds = self.ds;
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        let bins = self.bins.unwrap_or_else(|| {
            let x = tkd_index::cost::optimal_bins(ds.len(), tkd_model::stats::missing_rate(ds));
            vec![x; ds.dims()]
        });
        assert_eq!(bins.len(), ds.dims(), "one bin count per dimension");
        let mut index = BitmapIndexBuilder::new(ds.dims(), ds.len());
        let pre = Preprocessed::build_sharing(ds, |dim, column| index.push_dim(dim, column));
        ParallelEngine {
            ds,
            threads,
            binned: BinnedBitmapIndex::owned(index.finish(), &bins),
            pre: Cow::Owned(pre),
            pool: Pool::new(),
        }
    }
}

/// A query-serving engine: one exact index with its binned view and one
/// `MaxScore` queue built once, queries answered with
/// within-query parallelism ([`ParallelEngine::query`]) or batched
/// across-query parallelism ([`ParallelEngine::query_many`]). See the
/// [module docs](self).
pub struct ParallelEngine<'a> {
    ds: &'a Dataset,
    threads: usize,
    binned: BinnedBitmapIndex<'a>,
    pre: Cow<'a, Preprocessed>,
    pool: Pool,
}

impl<'a> ParallelEngine<'a> {
    /// Build with defaults: threads = available parallelism, Eq. 8 bins.
    pub fn build(ds: &'a Dataset) -> Self {
        Self::builder(ds).build()
    }

    /// Start configuring an engine.
    pub fn builder(ds: &'a Dataset) -> EngineBuilder<'a> {
        EngineBuilder {
            ds,
            threads: None,
            bins: None,
        }
    }

    /// Borrow a serving engine from the maintained state of a
    /// [`crate::DynamicEngine`] — nothing is built or copied — so that
    /// [`crate::DynamicEngine::query_many`] can fan a batch out through
    /// [`ParallelEngine::query_many`]. Entry ids are **slot** ids, and
    /// only BIG/IBIG see the index's live mask (the reference algorithms
    /// would count tombstoned slots).
    pub(crate) fn from_prebuilt(
        ds: &'a Dataset,
        binned: BinnedBitmapIndex<'a>,
        pre: &'a Preprocessed,
        threads: usize,
    ) -> Self {
        assert_eq!(binned.n(), ds.len(), "index/dataset size mismatch");
        ParallelEngine {
            ds,
            threads: threads.max(1),
            binned,
            pre: Cow::Borrowed(pre),
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

    /// Answer one query with all worker threads cooperating on it.
    pub fn query(&self, q: &EngineQuery) -> TkdResult {
        self.run(q, self.threads)
    }

    /// Answer a batch of concurrent queries, worker-per-query: each of
    /// the engine's threads drains queries from the batch and runs them
    /// against the shared index with a pooled scratch. Results come back
    /// in batch order and are identical to running each query alone.
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
            Algorithm::Big | Algorithm::Ibig => self.run_replayed(q, threads),
            // Reference algorithms for differential serving: sequential,
            // reusing the engine's MaxScore queue where applicable.
            Algorithm::Naive => naive::naive(self.ds, q.k),
            Algorithm::Esb => esb::esb(self.ds, q.k),
            Algorithm::Ubb => ubb::ubb_with_queue(self.ds, q.k, self.pre.queue()),
        };
        match q.tie {
            TieBreak::ById => result,
            TieBreak::Random(seed) => shuffle_ties(result, seed),
        }
    }

    fn run_replayed(&self, q: &EngineQuery, threads: usize) -> TkdResult {
        let queue = self.pre.queue();
        let mut workers = self.pool.take_scratch(threads, self.ds.len());
        let slots = self.pool.take_slots(slots_needed(threads, queue.len()));
        let score = scorer(self.ds, &self.binned, &self.pre, None, q.algorithm);
        let result = run_replay(queue, q.k, &mut workers, &slots, score);
        self.pool.put_slots(slots);
        self.pool.put_scratch(workers);
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
        let engine = ParallelEngine::builder(&ds).threads(3).build();
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
        let engine = ParallelEngine::builder(&ds).threads(4).build();
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
