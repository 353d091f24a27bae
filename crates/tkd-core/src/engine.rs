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
//! * [`ParallelEngine::query_many`] answers a batch of concurrent
//!   queries — the multi-user serving shape — with one walk of the
//!   candidate queue per algorithm: every BIG query of the batch is a
//!   replay of one walk, every IBIG query of another, each candidate
//!   measured once and decided per query (`crate::topk`'s `walk`).
//!   Workers take those walks and the reference-algorithm queries as
//!   jobs, so the build is amortized over the whole batch and the
//!   scoring over every query of an algorithm.
//!
//! Worker scratches and slot buffers are recycled through an internal
//! pool, so after a warm-up query the engine performs a small constant
//! number of allocations per query regardless of dataset size
//! (`crates/tkd-core/tests/zero_alloc.rs` pins this).
//!
//! Every algorithm routes to an implementation that is score- and
//! order-identical to the corresponding single-threaded function: BIG and
//! IBIG through one `Scorer` — the one the dynamic engine's
//! [`crate::DynamicEngine::query_threads`] runs —
//! Naive/ESB/UBB through the sequential reference implementations
//! (reusing the engine's `MaxScore` queue where applicable).

use crate::big::{big_decide, big_measure, Measured};
use crate::ibig::{ibig_decide, ibig_measure};
use crate::parallel::{new_slots, run_replay, slots_needed};
use crate::preprocess::Preprocessed;
use crate::query::{break_ties, Algorithm, TieBreak};
use crate::result::TkdResult;
use crate::scope::Scope;
use crate::scratch::ScratchSpace;
use crate::topk::{walk, walk_one, Need, Outcome, Replay};
use crate::{esb, naive, ubb};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use tkd_index::{BinnedBitmapIndex, BitmapIndex, BitmapIndexBuilder};
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

/// BIG-Score or IBIG-Score of the members of `ds` against one index —
/// the exact one for BIG, its binned view for IBIG — and its
/// preprocessing, over `scope`'s rows when there is a scope. Every
/// in-process BIG/IBIG path scores through one: the static contexts, the
/// shared walk of [`ParallelEngine::query_many`], the parallel workers of
/// [`run_replay`] ([`ParallelEngine::query`], [`crate::TkdQuery::threads`],
/// [`crate::DynamicEngine::query_threads`]) and the scoped walks of
/// [`crate::DynamicEngine::query_constrained`] and
/// [`crate::DynamicEngine::query_subspace`].
#[derive(Clone, Copy)]
pub(crate) struct Scorer<'s> {
    ds: &'s Dataset,
    pre: &'s Preprocessed,
    scope: Option<&'s Scope>,
    columns: Columns<'s>,
}

/// The index a scorer reads, which names its algorithm.
#[derive(Clone, Copy)]
enum Columns<'s> {
    Big(&'s BitmapIndex),
    Ibig(&'s BinnedBitmapIndex<'s>),
}

impl<'s> Scorer<'s> {
    /// BIG-Score against `index`.
    pub(crate) fn big(
        ds: &'s Dataset,
        index: &'s BitmapIndex,
        pre: &'s Preprocessed,
        scope: Option<&'s Scope>,
    ) -> Self {
        let columns = Columns::Big(index);
        Scorer {
            ds,
            pre,
            scope,
            columns,
        }
    }

    /// IBIG-Score against `binned`.
    pub(crate) fn ibig(
        ds: &'s Dataset,
        binned: &'s BinnedBitmapIndex<'s>,
        pre: &'s Preprocessed,
        scope: Option<&'s Scope>,
    ) -> Self {
        let columns = Columns::Ibig(binned);
        Scorer {
            ds,
            pre,
            scope,
            columns,
        }
    }

    /// `algorithm`'s score against `binned` (BIG on its exact index).
    pub(crate) fn of(
        algorithm: Algorithm,
        ds: &'s Dataset,
        binned: &'s BinnedBitmapIndex<'s>,
        pre: &'s Preprocessed,
        scope: Option<&'s Scope>,
    ) -> Self {
        match algorithm {
            Algorithm::Big => Scorer::big(ds, binned.exact(), pre, scope),
            Algorithm::Ibig => Scorer::ibig(ds, binned, pre, scope),
            other => unreachable!("the replayed paths serve BIG/IBIG, got {other:?}"),
        }
    }

    /// The measure step: candidate `o`'s counts, at what `need` asks.
    #[inline]
    fn measure(&self, o: ObjectId, need: Need, scratch: &mut ScratchSpace) -> Measured {
        let Scorer { ds, pre, scope, .. } = *self;
        match self.columns {
            Columns::Big(index) => big_measure(ds, index, pre, scope, o, need, scratch),
            Columns::Ibig(binned) => ibig_measure(ds, binned, pre, scope, o, need, scratch),
        }
    }

    /// The decide step: the outcome of a replay holding `tau`.
    #[inline]
    fn decide(&self, m: &Measured, tau: Option<usize>) -> Outcome {
        match self.columns {
            Columns::Big(_) => big_decide(m, tau),
            Columns::Ibig(_) => ibig_decide(m, tau),
        }
    }

    /// Candidate `o`'s outcome for a lone replay holding `tau` — what a
    /// parallel worker publishes.
    pub(crate) fn score(
        &self,
        o: ObjectId,
        tau: Option<usize>,
        scratch: &mut ScratchSpace,
    ) -> Outcome {
        self.decide(&self.measure(o, Need::of(tau), scratch), tau)
    }

    /// Walk `queue` once for every replay of `replays`.
    pub(crate) fn walk(
        &self,
        queue: &[(ObjectId, usize)],
        replays: &mut [Replay],
        scratch: &mut ScratchSpace,
    ) {
        walk(
            queue,
            replays,
            |o, need| self.measure(o, need, scratch),
            |m, tau| self.decide(m, tau),
        );
    }

    /// A single top-`k` query: the one-replay walk.
    pub(crate) fn walk_one(
        &self,
        queue: &[(ObjectId, usize)],
        k: usize,
        scratch: &mut ScratchSpace,
    ) -> TkdResult {
        walk_one(
            queue,
            k,
            |o, need| self.measure(o, need, scratch),
            |m, tau| self.decide(m, tau),
        )
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
        break_ties(self.run(q, self.threads), q.tie)
    }

    /// Answer a batch of concurrent queries. BIG and IBIG answer one walk
    /// per algorithm: every query of the batch naming it is a replay of
    /// the one traversal, which measures each candidate once and decides
    /// per query (`crate::topk`'s `walk`), and each query's tie-break is
    /// applied afterwards. Naive, ESB and UBB run per query. The engine's
    /// threads take these jobs — a walk or a reference query — one at a
    /// time, each with a pooled scratch. Results come back in batch order
    /// and are identical to running each query alone: entries, scores,
    /// tie order and every `PruneStats` counter.
    pub fn query_many(&self, queries: &[EngineQuery]) -> Vec<TkdResult> {
        let walks = [Algorithm::Big, Algorithm::Ibig]
            .into_iter()
            .filter(|&a| queries.iter().any(|q| q.algorithm == a))
            .map(Job::Walk);
        let alone = (0..queries.len())
            .filter(|&i| !matches!(queries[i].algorithm, Algorithm::Big | Algorithm::Ibig))
            .map(Job::Alone);
        let jobs: Vec<Job> = walks.chain(alone).collect();
        let results: Vec<Mutex<Option<TkdResult>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        let run = |job: &Job| self.run_job(job, queries, &results);
        let threads = self.threads.min(jobs.len()).max(1);
        if threads == 1 {
            jobs.iter().for_each(run);
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                            run(job);
                        }
                    });
                }
            });
        }
        results
            .into_iter()
            .map(|m| m.into_inner().expect("result slot").expect("query ran"))
            .collect()
    }

    /// Run one job of a [`ParallelEngine::query_many`] batch, filling the
    /// result slots of the queries it answers.
    fn run_job(&self, job: &Job, queries: &[EngineQuery], results: &[Mutex<Option<TkdResult>>]) {
        let answer = |i: usize, r: TkdResult| {
            *results[i].lock().expect("result slot") = Some(break_ties(r, queries[i].tie));
        };
        match *job {
            Job::Alone(i) => answer(i, self.run(&queries[i], 1)),
            Job::Walk(algorithm) => {
                let members = || (0..queries.len()).filter(|&i| queries[i].algorithm == algorithm);
                let mut ks: Vec<usize> = members().map(|i| queries[i].k).collect();
                ks.sort_unstable();
                ks.dedup();
                let mut scratch = self.pool.take_scratch(1, self.ds.len());
                let scorer = Scorer::of(algorithm, self.ds, &self.binned, &self.pre, None);
                let queue = self.pre.queue();
                // A lone k walks a one-replay array, whose loops the
                // compiler unrolls (the common single-query batch).
                let answers: Vec<TkdResult> = if let [k] = ks[..] {
                    vec![scorer.walk_one(queue, k, &mut scratch[0])]
                } else {
                    let mut replays: Vec<Replay> = ks.iter().map(|&k| Replay::new(k)).collect();
                    scorer.walk(queue, &mut replays, &mut scratch[0]);
                    replays.into_iter().map(Replay::finish).collect()
                };
                self.pool.put_scratch(scratch);
                for i in members() {
                    let at = ks
                        .binary_search(&queries[i].k)
                        .expect("every k has a replay");
                    answer(i, answers[at].clone());
                }
            }
        }
    }

    /// Answer `q` with `threads` workers, ties by ascending id.
    fn run(&self, q: &EngineQuery, threads: usize) -> TkdResult {
        match q.algorithm {
            Algorithm::Big | Algorithm::Ibig => self.run_replayed(q, threads),
            // Reference algorithms for differential serving: sequential,
            // reusing the engine's MaxScore queue where applicable.
            Algorithm::Naive => naive::naive(self.ds, q.k),
            Algorithm::Esb => esb::esb(self.ds, q.k),
            Algorithm::Ubb => ubb::ubb_with_queue(self.ds, q.k, self.pre.queue()),
        }
    }

    fn run_replayed(&self, q: &EngineQuery, threads: usize) -> TkdResult {
        let queue = self.pre.queue();
        let mut workers = self.pool.take_scratch(threads, self.ds.len());
        let slots = self.pool.take_slots(slots_needed(threads, queue.len()));
        let scorer = Scorer::of(q.algorithm, self.ds, &self.binned, &self.pre, None);
        let result = run_replay(queue, q.k, &mut workers, &slots, scorer);
        self.pool.put_slots(slots);
        self.pool.put_scratch(workers);
        result
    }
}

/// One unit of a [`ParallelEngine::query_many`] batch.
enum Job {
    /// One walk answering every query of the batch naming the algorithm.
    Walk(Algorithm),
    /// The query at this batch position, answered alone.
    Alone(usize),
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
