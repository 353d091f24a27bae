//! Multi-threaded execution of BIG and IBIG: the workers of the one queue
//! walk, over **one** index.
//!
//! Nothing here scores or tallies. The traversal is `crate::topk`'s
//! `walk` — one driver for one query or a batch — and BIG-Score and
//! IBIG-Score are the measure and decide steps of [`crate::big`] and
//! [`crate::ibig`]. With one worker `walk` is the sequential loop; with
//! more it hands over to `walk_workers`, which adds only scheduling:
//!
//! * **Workers measure.** Threads on [`std::thread::scope`] claim chunks
//!   of the queue and measure each candidate with their own
//!   [`ScratchSpace`] at the `Need` the merger last published (the
//!   loosest τ of the active replays, and whether some replay holds
//!   none), then publish the measurement as one word in the candidate's
//!   slot.
//! * **The merger decides.** Whichever worker holds the merge lock takes
//!   the slots in queue order: Heuristic 1 for every active replay, the
//!   next `Need` published, then each replay decides and absorbs at its
//!   own τ — the sequential loop with the measure step replaced by a
//!   slot read.
//!
//! A measurement decides exactly for every replay whose τ is at least
//! the one it was taken at (`crate::topk`'s `Measure`), and a published
//! τ never exceeds a replay's τ at a later position, so every replay
//! absorbs the sequential walk's outcome at every position: entries,
//! tie order and the **whole** `PruneStats` are the sequential run's at
//! every thread count (`docs/INTERNALS.md` § Parallel execution;
//! `tests/parallel_parity.rs`, `tests/batch_walk.rs` and the tests
//! below).

use crate::result::TkdResult;
use crate::scratch::ScratchSpace;
use crate::topk::{absorb, visit, walk, walk_one, Measure, Need, Replay};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use tkd_model::ObjectId;

/// Queue positions claimed per worker round-trip to the shared cursor.
const CLAIM_CHUNK: usize = 16;

/// A slot no worker has published into yet.
const EMPTY: u64 = 0;

/// A walk's workers, kept between walks: one [`ScratchSpace`] per worker,
/// and — for more than one — a slot per queue position that workers
/// publish measurements into. Grown on demand, never shrunk, so a warm
/// crew allocates nothing per walk.
#[derive(Debug, Default)]
pub(crate) struct Crew {
    scratch: Vec<ScratchSpace>,
    slots: Vec<AtomicU64>,
}

impl Crew {
    /// One scratch for `n` objects, for a pass of the caller's own.
    pub(crate) fn scratch(&mut self, n: usize) -> &mut ScratchSpace {
        self.fit(1, n, 0);
        &mut self.scratch[0]
    }

    /// At least `threads` scratches for `n` objects, and with several a
    /// slot for every position of a `queue`-long walk.
    fn fit(&mut self, threads: usize, n: usize, queue: usize) {
        self.scratch.retain(|s| s.n() == n);
        if self.scratch.len() < threads {
            self.scratch.resize_with(threads, || ScratchSpace::new(n));
        }
        if threads > 1 && self.slots.len() < queue {
            self.slots = (0..queue).map(|_| AtomicU64::new(EMPTY)).collect();
        }
    }

    /// A top-`k` query: one walk of `queue` by `threads` workers.
    pub(crate) fn answer_one<S: Measure>(
        &mut self,
        threads: usize,
        queue: &[(ObjectId, usize)],
        k: usize,
        scorer: &S,
    ) -> TkdResult {
        let threads = threads.max(1);
        self.fit(threads, scorer.rows(), queue.len());
        walk_one(queue, k, &mut self.scratch[..threads], &self.slots, scorer)
    }

    /// A top-`k` query for every `k` of `ks`, in order, from one walk of
    /// `queue` by `threads` workers.
    pub(crate) fn answer<S: Measure>(
        &mut self,
        threads: usize,
        queue: &[(ObjectId, usize)],
        ks: &[usize],
        scorer: &S,
    ) -> Vec<TkdResult> {
        if let [k] = *ks {
            return vec![self.answer_one(threads, queue, k, scorer)];
        }
        let threads = threads.max(1);
        self.fit(threads, scorer.rows(), queue.len());
        let sized = |&k| Replay::sized(k, queue.len());
        let mut replays: Vec<Replay> = ks.iter().map(sized).collect();
        walk(
            queue,
            &mut replays,
            &mut self.scratch[..threads],
            &self.slots,
            scorer,
        );
        replays.into_iter().map(Replay::finish).collect()
    }
}

/// A [`Need`] as one word: `τ + 1` (`0` for none) above the unfilled bit.
fn need_word(need: Need) -> u64 {
    (need.tau.map_or(0, |t| t as u64 + 1) << 1) | u64::from(need.unfilled)
}

fn word_need(word: u64) -> Need {
    Need {
        tau: (word >> 1).checked_sub(1).map(|t| t as usize),
        unfilled: word & 1 == 1,
    }
}

/// The merger's state: the replays and how far it has taken them.
struct Merger<'r> {
    replays: &'r mut [Replay],
    /// The next queue position to decide.
    frontier: usize,
    /// The `Need` word last published.
    published: u64,
    /// Every replay has ended, or the queue ran out.
    done: bool,
}

/// What the workers share. A slot, the `Need` word and `stop` each
/// carry all their reader needs in one word: their `Release` stores pair
/// with the `Acquire` loads of the workers and the merger.
struct Shared<'w, 'r, S> {
    queue: &'w [(ObjectId, usize)],
    slots: &'w [AtomicU64],
    scorer: &'w S,
    /// The next unclaimed queue position.
    next: AtomicUsize,
    /// What the replays need at the merger's frontier (`need_word`).
    need: AtomicU64,
    stop: AtomicBool,
    merger: Mutex<Merger<'r>>,
}

/// Decide the published slots in queue order — the sequential loop with
/// the measure step replaced by a slot read — publishing what the active
/// replays need at each position reached.
fn merge<S: Measure>(sh: &Shared<'_, '_, S>, m: &mut Merger<'_>) {
    while !m.done {
        let remaining = sh.queue.len() - m.frontier;
        let need = match sh.queue.get(m.frontier) {
            Some(&(_, max_score)) => visit(m.replays, max_score, remaining),
            None => None,
        };
        let Some(need) = need else {
            m.done = true;
            sh.stop.store(true, Ordering::Release);
            return;
        };
        let word = need_word(need);
        if word != m.published {
            sh.need.store(word, Ordering::Release);
            m.published = word;
        }
        let slot = sh.slots[m.frontier].load(Ordering::Acquire);
        if slot == EMPTY {
            return; // the frontier is still being measured
        }
        let o = sh.queue[m.frontier].0;
        let measured = sh.scorer.read(o, slot);
        absorb(m.replays, o, &measured, |m, tau| sh.scorer.decide(m, tau));
        m.frontier += 1;
    }
}

fn try_merge<S: Measure>(sh: &Shared<'_, '_, S>) {
    if let Ok(mut m) = sh.merger.try_lock() {
        merge(sh, &mut m);
    }
}

fn work<S: Measure>(sh: &Shared<'_, '_, S>, scratch: &mut ScratchSpace) {
    let len = sh.queue.len();
    'claim: while !sh.stop.load(Ordering::Acquire) {
        let start = sh.next.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
        if start >= len {
            break;
        }
        for t in start..(start + CLAIM_CHUNK).min(len) {
            let (o, max_score) = sh.queue[t];
            let need = word_need(sh.need.load(Ordering::Acquire));
            // Every active replay holds a τ of at least `need.tau`, so
            // Heuristic 1 ends them all here: nothing past here is read.
            let ended = !need.unfilled && need.tau.is_some_and(|t| max_score <= t);
            if ended || sh.stop.load(Ordering::Acquire) {
                break 'claim;
            }
            let measured = sh.scorer.measure(o, need, scratch);
            sh.slots[t].store(sh.scorer.publish(&measured), Ordering::Release);
        }
        try_merge(sh);
    }
    try_merge(sh);
}

/// `walk` with one thread per entry of `workers` (two or more), each
/// measuring with its own scratch into `slots` (at least `queue.len()`
/// of them), while a merger decides in queue order.
pub(crate) fn walk_workers<S: Measure>(
    queue: &[(ObjectId, usize)],
    replays: &mut [Replay],
    workers: &mut [ScratchSpace],
    slots: &[AtomicU64],
    scorer: &S,
) {
    assert!(slots.len() >= queue.len(), "a slot per queue position");
    for slot in &slots[..queue.len()] {
        slot.store(EMPTY, Ordering::Relaxed);
    }
    let shared = Shared {
        queue,
        slots,
        scorer,
        next: AtomicUsize::new(0),
        need: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        merger: Mutex::new(Merger {
            replays,
            frontier: 0,
            published: 0,
            done: false,
        }),
    };
    // The first `Need` — or the end, before any thread starts, when
    // Heuristic 1 ends every replay at the head (`k = 0`, an empty queue).
    try_merge(&shared);
    if shared.stop.load(Ordering::Acquire) {
        return;
    }
    let (mine, others) = workers.split_first_mut().expect("at least one worker");
    std::thread::scope(|s| {
        for scratch in others {
            let shared = &shared;
            s.spawn(move || work(shared, scratch));
        }
        work(&shared, mine);
    });
    // Every worker has joined: each position before the end is published.
    let mut m = shared.merger.lock().expect("merge lock");
    merge(&shared, &mut m);
    assert!(m.done, "a worker left a position before the end unmeasured");
}

#[cfg(test)]
mod tests {
    use super::{Crew, CLAIM_CHUNK};
    use crate::big::{big_with, big_with_alloc, BigContext, Measured};
    use crate::engine::{walk_batch, EngineQuery, Scorer};
    use crate::ibig::{ibig_with, ibig_with_alloc, IbigContext};
    use crate::query::{Algorithm, BinChoice, TkdQuery};
    use crate::result::TkdResult;
    use crate::scratch::ScratchSpace;
    use crate::topk::{Measure, Need, Outcome};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};
    use tkd_model::{fixtures, Dataset, ObjectId};

    /// BIG with `threads` workers splitting the queue.
    fn big_threads(ds: &Dataset, k: usize, threads: usize) -> TkdResult {
        TkdQuery::new(k).threads(threads).run(ds)
    }

    /// IBIG with `bins` bins on every dimension and `threads` workers.
    fn ibig_threads(ds: &Dataset, bins: &[usize], k: usize, threads: usize) -> TkdResult {
        TkdQuery::new(k)
            .algorithm(Algorithm::Ibig)
            .bins(BinChoice::PerDim(bins.to_vec()))
            .threads(threads)
            .run(ds)
    }

    #[test]
    fn fig3_parallel_matches_sequential_all_k() {
        let ds = fixtures::fig3_sample();
        let seq = BigContext::build(&ds);
        for threads in [1usize, 2, 4] {
            for k in [1usize, 2, 5, 19, 20, 25] {
                let par = big_threads(&ds, k, threads);
                let reference = big_with(&seq, k);
                assert_eq!(
                    par.entries(),
                    reference.entries(),
                    "threads={threads} k={k}"
                );
                assert_eq!(par.stats.h1_pruned, reference.stats.h1_pruned);
                assert_eq!(par.stats, reference.stats, "threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn fig3_parallel_ibig_matches_sequential() {
        let ds = fixtures::fig3_sample();
        let bins = [2, 2, 3, 3];
        let seq: IbigContext<'_> = IbigContext::build(&ds, &bins);
        for threads in [1usize, 2, 4] {
            for k in [1usize, 2, 5, 20] {
                let par = ibig_threads(&ds, &bins, k, threads);
                let reference = ibig_with(&seq, k);
                assert_eq!(
                    par.entries(),
                    reference.entries(),
                    "threads={threads} k={k}"
                );
                assert_eq!(par.stats, reference.stats, "threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn h2_budget_saturation_regression() {
        // 64 loose-MaxScore decoys (0, 100) head the queue and set τ = 0;
        // the real winner (1, 1) at row 64 has |Q| = 63. Cut at a word
        // boundary this once made a cross-shard Heuristic 2 drop the true
        // top-1 (`cluster::tests` drives that two-shard form); over one
        // index every thread count must still find it.
        let mut rows = vec![vec![Some(0.0), Some(100.0)]; 64];
        rows.push(vec![Some(1.0), Some(1.0)]);
        rows.extend(std::iter::repeat_n(vec![Some(2.0), Some(2.0)], 63));
        let ds = Dataset::from_rows(2, &rows).unwrap();
        let seq = BigContext::build(&ds);
        for threads in [1usize, 2, 4] {
            for k in [1usize, 2, 5] {
                let par = big_threads(&ds, k, threads);
                let reference = big_with(&seq, k);
                assert_eq!(
                    par.entries(),
                    reference.entries(),
                    "threads={threads} k={k}"
                );
                assert_eq!(par.stats, reference.stats, "threads={threads} k={k}");
            }
        }
        assert_eq!(big_threads(&ds, 1, 1).entries()[0].score, 63);
    }

    /// A deterministic incomplete dataset: `n` rows over `dims`
    /// dimensions, values in `0..card`, about a fifth of the cells
    /// missing.
    fn synth(seed: u64, n: usize, dims: usize, card: u64) -> Dataset {
        let mut h = seed;
        let mut next = move || {
            h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rows: Vec<Vec<Option<f64>>> = (0..n)
            .map(|_| {
                let mut row: Vec<Option<f64>> = (0..dims)
                    .map(|_| (next() % 5 != 0).then(|| (next() % card) as f64))
                    .collect();
                if row.iter().all(Option::is_none) {
                    row[0] = Some(0.0);
                }
                row
            })
            .collect();
        Dataset::from_rows(dims, &rows).expect("valid rows")
    }

    /// BIG's scorer on a script: with `hold`, the worker measuring the
    /// last position of the first claimed chunk waits until the first
    /// position of the next chunk — claimed by the other worker, before
    /// any τ can form — is measured. Every position's `Need` is recorded.
    struct Held<'s> {
        scorer: Scorer<'s>,
        position: Vec<usize>,
        needs: Mutex<Vec<Option<Need>>>,
        next_measured: AtomicBool,
        hold: bool,
    }

    impl Measure for Held<'_> {
        type Measured = Measured;

        fn rows(&self) -> usize {
            self.scorer.rows()
        }

        fn measure(&self, o: ObjectId, need: Need, scratch: &mut ScratchSpace) -> Measured {
            let at = self.position[o as usize];
            if self.hold && at == CLAIM_CHUNK - 1 {
                let start = Instant::now();
                while !self.next_measured.load(Ordering::Acquire) {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "no second worker"
                    );
                    std::thread::yield_now();
                }
            }
            let measured = self.scorer.measure(o, need, scratch);
            self.needs.lock().expect("needs")[at] = Some(need);
            if at == CLAIM_CHUNK {
                self.next_measured.store(true, Ordering::Release);
            }
            measured
        }

        fn decide(&self, m: &Measured, tau: Option<usize>) -> Outcome {
            self.scorer.decide(m, tau)
        }

        fn publish(&self, m: &Measured) -> u64 {
            self.scorer.publish(m)
        }

        fn read(&self, o: ObjectId, word: u64) -> Measured {
            self.scorer.read(o, word)
        }
    }

    /// The soundness a walk's workers rest on: a BIG measurement taken
    /// while no replay held a τ — no Heuristic 2 scan, only the term —
    /// is decided on the merger after τ has formed there, and must
    /// decide as the sequential walk's fresh measurement does.
    #[test]
    fn a_measurement_taken_before_tau_forms_decides_as_the_sequential_walk() {
        let ds = synth(11, 400, 3, 12);
        let ctx = BigContext::build(&ds);
        let queue = ctx.preprocessed().queue();
        let mut position = vec![0; ds.len()];
        for (at, &(o, _)) in queue.iter().enumerate() {
            position[o as usize] = at;
        }
        let held = |hold| Held {
            scorer: ctx.scorer(),
            position: position.clone(),
            needs: Mutex::new(vec![None; queue.len()]),
            next_measured: AtomicBool::new(false),
            hold,
        };
        // A k whose sequential walk holds τ at the second chunk's head
        // and scores the candidate there.
        let head = queue[CLAIM_CHUNK].0;
        let mut scratch = ctx.scratch();
        let k = (1..=CLAIM_CHUNK)
            .find(|&k| {
                let alone = held(false);
                Crew::default().answer_one(1, queue, k, &alone);
                let need = alone.needs.into_inner().expect("needs")[CLAIM_CHUNK];
                need.and_then(|n| n.tau).is_some_and(|t| {
                    matches!(
                        ctx.scorer().score(head, Some(t), &mut scratch),
                        Outcome::Score(_)
                    )
                })
            })
            .expect("some k scores the second chunk's head after τ forms");
        let sequential = Crew::default().answer_one(1, queue, k, &held(false));
        let script = held(true);
        let parallel = Crew::default().answer_one(2, queue, k, &script);
        let need = script.needs.into_inner().expect("needs")[CLAIM_CHUNK];
        let unscanned = Need {
            tau: None,
            unfilled: true,
        };
        assert_eq!(need, Some(unscanned), "k={k}: measured before τ formed");
        assert_eq!(parallel.entries(), sequential.entries(), "k={k}");
        assert_eq!(parallel.stats, sequential.stats, "k={k}");
    }

    /// BIG's scorer counting its measurements per thread. The first
    /// measurement on a thread waits (ten seconds at most) until a second
    /// thread has measured too.
    struct Counted<'s> {
        scorer: Scorer<'s>,
        calls: &'s Mutex<Vec<(ThreadId, usize)>>,
        met: &'s Condvar,
    }

    impl Measure for Counted<'_> {
        type Measured = Measured;

        fn rows(&self) -> usize {
            self.scorer.rows()
        }

        fn measure(&self, o: ObjectId, need: Need, scratch: &mut ScratchSpace) -> Measured {
            let me = std::thread::current().id();
            let mut calls = self.calls.lock().expect("calls");
            match calls.iter_mut().find(|(t, _)| *t == me) {
                Some((_, n)) => *n += 1,
                None => {
                    calls.push((me, 1));
                    self.met.notify_all();
                    let wait = Duration::from_secs(10);
                    drop(self.met.wait_timeout_while(calls, wait, |c| c.len() < 2));
                }
            }
            self.scorer.measure(o, need, scratch)
        }

        fn decide(&self, m: &Measured, tau: Option<usize>) -> Outcome {
            self.scorer.decide(m, tau)
        }

        fn publish(&self, m: &Measured) -> u64 {
            self.scorer.publish(m)
        }

        fn read(&self, o: ObjectId, word: u64) -> Measured {
            self.scorer.read(o, word)
        }
    }

    /// A two-thread, one-algorithm batch — the walk `query_many` runs —
    /// measures candidates on both workers, and answers as one thread
    /// does, `PruneStats` included.
    #[test]
    fn a_two_thread_batch_measures_on_both_workers() {
        let ds = synth(12, 600, 3, 12);
        let ctx = BigContext::build(&ds);
        let queue = ctx.preprocessed().queue();
        let batch: Vec<EngineQuery> = [1, 4, 16, 64, 4].map(EngineQuery::new).to_vec();
        let mut one = vec![TkdResult::default(); batch.len()];
        walk_batch(&batch, &mut one, &mut Crew::default(), 1, queue, |_| {
            ctx.scorer()
        });
        let (calls, met) = (Mutex::new(Vec::new()), Condvar::new());
        let counted = |_| Counted {
            scorer: ctx.scorer(),
            calls: &calls,
            met: &met,
        };
        let mut two = vec![TkdResult::default(); batch.len()];
        walk_batch(&batch, &mut two, &mut Crew::default(), 2, queue, counted);
        let calls = calls.into_inner().expect("calls");
        assert_eq!(calls.len(), 2, "measuring threads: {calls:?}");
        assert!(calls.iter().all(|&(_, n)| n > 0), "{calls:?}");
        for (q, (a, b)) in batch.iter().zip(one.iter().zip(&two)) {
            assert_eq!(b.entries(), a.entries(), "k={}", q.k);
            assert_eq!(b.stats, a.stats, "k={}", q.k);
        }
    }

    #[test]
    fn k_zero_and_empty_dataset() {
        let ds = fixtures::fig3_sample();
        assert!(big_threads(&ds, 0, 2).is_empty());
        let empty = Dataset::from_rows(2, &[]).unwrap();
        assert!(big_threads(&empty, 5, 2).is_empty());
        assert!(ibig_threads(&empty, &[3, 3], 5, 2).is_empty());
    }

    /// Random incomplete dataset with the given missing probability.
    fn dataset_strategy(missing: f64) -> impl Strategy<Value = Dataset> {
        (1usize..=4).prop_flat_map(move |dims| {
            let row = proptest::collection::vec(
                proptest::option::weighted(1.0 - missing, (0u8..6).prop_map(|v| v as f64)),
                dims,
            )
            .prop_filter("at least one observed", |r| r.iter().any(Option::is_some));
            proptest::collection::vec(row, 1..80)
                .prop_map(move |rows| Dataset::from_rows(dims, &rows).expect("valid rows"))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Parallel BIG returns identical entries to both the sequential
        /// scratch engine and the allocating `#[cfg(test)]` oracle, across
        /// thread counts and missing rates.
        #[test]
        fn parallel_big_parity(
            ds_low in dataset_strategy(0.1),
            ds_mid in dataset_strategy(0.3),
            ds_high in dataset_strategy(0.6),
            k in 1usize..10,
            threads in 1usize..4,
        ) {
            for ds in [&ds_low, &ds_mid, &ds_high] {
                let seq = BigContext::build(ds);
                let reference = big_with(&seq, k);
                let oracle = big_with_alloc(&seq, k);
                prop_assert_eq!(reference.entries(), oracle.entries());
                let par = big_threads(ds, k, threads);
                prop_assert_eq!(par.entries(), reference.entries());
                prop_assert_eq!(par.stats.h1_pruned, reference.stats.h1_pruned);
                prop_assert_eq!(par.stats, reference.stats);
            }
        }

        /// Same for IBIG, additionally across bin counts.
        #[test]
        fn parallel_ibig_parity(
            ds_low in dataset_strategy(0.1),
            ds_mid in dataset_strategy(0.3),
            ds_high in dataset_strategy(0.6),
            k in 1usize..10,
            threads in 1usize..4,
            bins in 1usize..6,
        ) {
            for ds in [&ds_low, &ds_mid, &ds_high] {
                let bins_per_dim = vec![bins; ds.dims()];
                let seq: IbigContext<'_> = IbigContext::build(ds, &bins_per_dim);
                let reference = ibig_with(&seq, k);
                let oracle = ibig_with_alloc(&seq, k);
                prop_assert_eq!(reference.entries(), oracle.entries());
                let par = ibig_threads(ds, &bins_per_dim, k, threads);
                prop_assert_eq!(par.entries(), reference.entries());
                prop_assert_eq!(par.stats, reference.stats);
            }
        }
    }
}
