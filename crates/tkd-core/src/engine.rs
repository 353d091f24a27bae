//! [`ParallelEngine`] — a multi-user query-serving facade over the one
//! queue walk of `crate::topk`, run by the workers of [`crate::parallel`].
//!
//! The engine pays preprocessing and index construction **once** per
//! dataset — one sort per dimension feeds the `MaxScore` queue and the
//! exact index, which the binned index is a view of — and then serves any
//! number of queries against it:
//!
//! * [`ParallelEngine::query`] answers one query with every worker
//!   thread measuring candidates of its queue walk over the one index
//!   (see the [`crate::parallel`] docs).
//! * [`ParallelEngine::query_many`] answers a batch of concurrent
//!   queries — the multi-user serving shape — with one walk of the
//!   candidate queue per algorithm: every BIG query of the batch is a
//!   replay of one walk, every IBIG query of another, each candidate
//!   measured once and decided per query. Each walk runs on every worker
//!   thread, so the build is amortized over the whole batch and the
//!   scoring over every query of an algorithm. Naive, ESB and UBB specs
//!   run after them, in batch order, on the calling thread.
//!
//! Worker scratches and slot buffers are recycled through an internal
//! pool of crews, so after a warm-up query the engine performs a small
//! constant number of allocations per query regardless of dataset size
//! (`crates/tkd-core/tests/zero_alloc.rs` pins this).
//!
//! Every algorithm routes to an implementation that is score- and
//! order-identical to the corresponding single-threaded function: BIG and
//! IBIG through one `Scorer` — the one the dynamic engine's
//! [`crate::DynamicEngine::query_threads`] runs — with the whole
//! `PruneStats` of the sequential run at every thread count, and
//! Naive/ESB/UBB through the sequential reference implementations
//! (reusing the engine's `MaxScore` queue where applicable).

use crate::big::{big_decide, big_measure, Measured, Term};
use crate::ibig::{ibig_decide, ibig_measure};
use crate::parallel::Crew;
use crate::preprocess::Preprocessed;
use crate::query::{break_ties, Algorithm, BinChoice, TieBreak};
use crate::result::TkdResult;
use crate::scope::Scope;
use crate::scratch::ScratchSpace;
use crate::topk::{Measure, Need, Outcome};
use crate::{esb, naive, ubb};
use std::sync::Mutex;
use tkd_index::{BinnedBitmapIndex, BitmapIndex, BitmapIndexBuilder};
use tkd_model::{Dataset, DimMask, ObjectId};

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
/// in-process BIG/IBIG walk measures and decides through one: the static
/// contexts, the engines' single queries and batches at any thread count
/// ([`ParallelEngine`], [`crate::TkdQuery::threads`],
/// [`crate::DynamicEngine::query_threads`] and
/// [`crate::DynamicEngine::query_many`]) and the scoped walks of
/// [`crate::DynamicEngine::query_constrained`] and
/// [`crate::DynamicEngine::query_subspace`].
#[derive(Clone, Copy)]
pub(crate) struct Scorer<'s> {
    /// Every row's observation mask, indexed by row: all a scorer reads
    /// of the rows themselves.
    masks: &'s [DimMask],
    pre: &'s Preprocessed,
    scope: Option<&'s Scope>,
    columns: Columns<'s>,
}

/// The index a scorer reads, which names its algorithm.
#[derive(Clone, Copy)]
pub(crate) enum Columns<'s> {
    /// BIG-Score against the exact index.
    Big(&'s BitmapIndex),
    /// IBIG-Score against its binned view.
    Ibig(&'s BinnedBitmapIndex<'s>),
}

impl<'s> Scorer<'s> {
    /// The score `columns` names.
    pub(crate) fn new(
        masks: &'s [DimMask],
        pre: &'s Preprocessed,
        scope: Option<&'s Scope>,
        columns: Columns<'s>,
    ) -> Self {
        Scorer {
            masks,
            pre,
            scope,
            columns,
        }
    }

    /// `algorithm`'s score against `binned` (BIG on its exact index).
    pub(crate) fn of(
        algorithm: Algorithm,
        masks: &'s [DimMask],
        binned: &'s BinnedBitmapIndex<'s>,
        pre: &'s Preprocessed,
        scope: Option<&'s Scope>,
    ) -> Self {
        match algorithm {
            Algorithm::Big => Scorer::new(masks, pre, scope, Columns::Big(binned.exact())),
            Algorithm::Ibig => Scorer::new(masks, pre, scope, Columns::Ibig(binned)),
            other => unreachable!("the walked paths serve BIG/IBIG, got {other:?}"),
        }
    }

    /// Candidate `o`'s outcome for a lone replay holding `tau`.
    #[cfg(test)]
    pub(crate) fn score(
        &self,
        o: ObjectId,
        tau: Option<usize>,
        scratch: &mut ScratchSpace,
    ) -> Outcome {
        self.decide(&self.measure(o, Need::of(tau), scratch), tau)
    }
}

impl Measure for Scorer<'_> {
    type Measured = Measured;

    fn rows(&self) -> usize {
        self.masks.len()
    }

    /// An unscoped walk reads its index's memo lane; a scoped one reads
    /// none.
    fn announce(&self) {
        match (self.scope, self.columns) {
            (Some(_), _) => {}
            (None, Columns::Big(index)) => index.announce_walk(),
            (None, Columns::Ibig(binned)) => binned.announce_walk(),
        }
    }

    #[inline]
    fn measure(&self, o: ObjectId, need: Need, scratch: &mut ScratchSpace) -> Measured {
        let Scorer {
            masks, pre, scope, ..
        } = *self;
        match self.columns {
            Columns::Big(index) => big_measure(masks, index, pre, scope, o, need, scratch),
            Columns::Ibig(binned) => ibig_measure(masks, binned, pre, scope, o, need, scratch),
        }
    }

    #[inline]
    fn decide(&self, m: &Measured, tau: Option<usize>) -> Outcome {
        match self.columns {
            Columns::Big(_) => big_decide(m, tau),
            Columns::Ibig(_) => ibig_decide(m, tau),
        }
    }

    /// `1` for a prune, else the count in the high half and `nonD` in the
    /// low, as the memo's binned lane keeps them (a count is at least 1).
    fn publish(&self, m: &Measured) -> u64 {
        m.map_or(1, |term| {
            let count = u32::try_from(term.count()).expect("a count fits 32 bits");
            (u64::from(count) << 32) | term.non_d as u64
        })
    }

    /// The term rebuilt with the candidate's `|F(o)|`.
    fn read(&self, o: ObjectId, word: u64) -> Measured {
        (word != 1).then(|| {
            let f = match self.scope {
                Some(s) => s.candidate(self.masks, o).f,
                None => self.pre.masks.incomparable(self.masks[o as usize]),
            };
            Term::recalled((word >> 32) as usize, word as u32 as usize, f)
        })
    }
}

/// Answer every BIG and IBIG spec of `queries` into its place in
/// `results`, with one walk of `queue` per algorithm named, by `threads`
/// workers of `crew`, measuring with `scorer`'s scorer for that
/// algorithm. Ties come out by ascending id; other specs are left alone.
pub(crate) fn walk_batch<S: Measure>(
    queries: &[EngineQuery],
    results: &mut [TkdResult],
    crew: &mut Crew,
    threads: usize,
    queue: &[(ObjectId, usize)],
    scorer: impl Fn(Algorithm) -> S,
) {
    for algorithm in [Algorithm::Big, Algorithm::Ibig] {
        let members = || (0..queries.len()).filter(|&i| queries[i].algorithm == algorithm);
        let mut ks: Vec<usize> = members().map(|i| queries[i].k).collect();
        if ks.is_empty() {
            continue;
        }
        ks.sort_unstable();
        ks.dedup();
        let answers = crew.answer(threads, queue, &ks, &scorer(algorithm));
        for i in members() {
            let at = ks
                .binary_search(&queries[i].k)
                .expect("every k has a replay");
            results[i] = answers[at].clone();
        }
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
        let bins = self.bins.map_or(BinChoice::Auto, BinChoice::PerDim);
        let bins = bins.resolve(ds);
        let mut index = BitmapIndexBuilder::new(ds.dims(), ds.len());
        let pre = Preprocessed::build_sharing(ds, |dim, column| index.push_dim(dim, column));
        ParallelEngine {
            ds,
            threads,
            binned: BinnedBitmapIndex::owned(index.finish(), &bins),
            pre,
            crews: Mutex::new(Vec::new()),
        }
    }
}

/// A query-serving engine: one exact index with its binned view and one
/// `MaxScore` queue built once, queries answered with
/// within-query parallelism ([`ParallelEngine::query`]) or batched
/// ([`ParallelEngine::query_many`]). See the [module docs](self).
pub struct ParallelEngine<'a> {
    ds: &'a Dataset,
    threads: usize,
    binned: BinnedBitmapIndex<'a>,
    pre: Preprocessed,
    /// Idle crews, one taken per query or batch in flight.
    crews: Mutex<Vec<Crew>>,
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

    /// The dataset this engine serves.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The binned index IBIG queries read, a view over the exact index
    /// BIG queries read.
    pub fn index(&self) -> &BinnedBitmapIndex<'a> {
        &self.binned
    }

    /// Answer one query with all worker threads cooperating on it.
    pub fn query(&self, q: &EngineQuery) -> TkdResult {
        let result = match q.algorithm {
            Algorithm::Big | Algorithm::Ibig => self.with_crew(|crew| {
                let scorer = self.scorer(q.algorithm);
                crew.answer_one(self.threads, self.pre.queue(), q.k, &scorer)
            }),
            _ => self.reference(q),
        };
        break_ties(result, q.tie)
    }

    /// Answer a batch of concurrent queries. BIG and IBIG answer one walk
    /// per algorithm on every worker thread: every query of the batch
    /// naming it is a replay of the one traversal, which measures each
    /// candidate once and decides per query. Naive, ESB and UBB then run
    /// per query, in batch order, on the calling thread. Each query's
    /// tie-break is applied last. Results come back in batch order and
    /// are identical to running each query alone: entries, scores, tie
    /// order and every `PruneStats` counter.
    pub fn query_many(&self, queries: &[EngineQuery]) -> Vec<TkdResult> {
        let mut results = vec![TkdResult::default(); queries.len()];
        self.with_crew(|crew| {
            let queue = self.pre.queue();
            walk_batch(queries, &mut results, crew, self.threads, queue, |a| {
                self.scorer(a)
            });
        });
        for (q, result) in queries.iter().zip(&mut results) {
            if !matches!(q.algorithm, Algorithm::Big | Algorithm::Ibig) {
                *result = self.reference(q);
            }
            *result = break_ties(std::mem::take(result), q.tie);
        }
        results
    }

    /// `algorithm`'s scorer over the engine's index.
    fn scorer(&self, algorithm: Algorithm) -> Scorer<'_> {
        Scorer::of(algorithm, self.ds.masks(), &self.binned, &self.pre, None)
    }

    /// Run `f` with an idle crew of the pool (a fresh one when none is
    /// idle), then return the crew to the pool.
    fn with_crew<T>(&self, f: impl FnOnce(&mut Crew) -> T) -> T {
        let idle = self.crews.lock().expect("crew pool").pop();
        let mut crew = idle.unwrap_or_default();
        let out = f(&mut crew);
        self.crews.lock().expect("crew pool").push(crew);
        out
    }

    /// A reference algorithm's answer, ties by ascending id: sequential,
    /// reusing the engine's `MaxScore` queue where applicable.
    fn reference(&self, q: &EngineQuery) -> TkdResult {
        match q.algorithm {
            Algorithm::Naive => naive::naive(self.ds, q.k),
            Algorithm::Esb => esb::esb(self.ds, q.k),
            _ => ubb::ubb_with_queue(self.ds, q.k, self.pre.queue()),
        }
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
