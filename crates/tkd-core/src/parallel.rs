//! Multi-threaded execution of BIG and IBIG: the candidate queue split
//! across worker threads over **one** index, merged by replay.
//!
//! # Where the algorithms live
//!
//! Nothing here scores or tallies: BIG-Score and IBIG-Score are
//! [`crate::big`]'s and [`crate::ibig`]'s scorers, and the traversal is
//! `crate::topk`'s [`Replay`] — the same state machine `walk` drives
//! sequentially. This module adds only the scheduling and the bound
//! exchange around them; with one worker `run_replay` *is* the
//! one-replay `walk`, so the whole run is the sequential algorithm,
//! `PruneStats` included. Every in-process parallel path drives it:
//! [`crate::engine::ParallelEngine::query`], [`crate::TkdQuery::threads`]
//! and [`crate::DynamicEngine::query_threads`].
//!
//! # Design
//!
//! * **Scheduling** — workers on [`std::thread::scope`] claim chunks of
//!   the shared descending-`MaxScore` queue, score candidates against the
//!   shared read-only index with their own [`ScratchSpace`] (zero
//!   allocations per candidate), and publish outcomes into per-position
//!   atomic slots.
//! * **Bound exchange** — a shared atomic **τ** (the current k-th score
//!   lower bound) tightens Heuristic-2 pruning across workers: every
//!   worker prunes with the freshest published τ, and a replay merger
//!   (below) advances τ exactly as the sequential algorithm would.
//!
//! # Why the result is *identical* to the sequential engines
//!
//! Results are merged by **replaying outcomes in queue order**: a merger
//! (any worker that grabs the merge lock) consumes slot `t` only after
//! slots `0..t`, absorbing outcomes into the one [`Replay`] and publishing
//! `τ_t` — by induction exactly the sequential τ after prefix `t`. Workers
//! prune with a *published* τ, which is always ≤ the sequential τ at their
//! queue position, so:
//!
//! * a worker-pruned candidate satisfies `score ≤ bound ≤ τ_published ≤
//!   τ_seq(t)` — the sequential offer would have been a no-op;
//! * a worker-scored candidate contributes its exact score, and the
//!   replayed offer behaves identically to the sequential one.
//!
//! Hence the final entry set, scores, and tie order equal the sequential
//! run's, and Heuristic-1 termination fires at the same queue position
//! (`h1_pruned` is exact). With several workers only the `h2/h3/scored`
//! counters may differ — lagging τ lets workers score candidates the
//! sequential run would have pruned. `tests/parallel_parity.rs` and the
//! proptests below pin this equivalence across thread counts, missing
//! rates, and `k` edges, and the whole `PruneStats` for one thread.
//!
//! [`ScratchSpace`]: crate::ScratchSpace

use crate::engine::Scorer;
use crate::result::TkdResult;
use crate::scratch::ScratchSpace;
use crate::topk::Replay;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use tkd_model::ObjectId;

pub use crate::topk::Outcome;

/// Queue positions claimed per worker round-trip to the shared cursor.
const CLAIM_CHUNK: usize = 16;

fn encode(o: Outcome) -> u64 {
    match o {
        Outcome::PrunedBound => 1,
        Outcome::PrunedBitmap => 2,
        Outcome::PrunedPartial => 3,
        Outcome::Score(s) => 4 + s as u64,
    }
}

fn decode(v: u64) -> Outcome {
    match v {
        1 => Outcome::PrunedBound,
        2 => Outcome::PrunedBitmap,
        3 => Outcome::PrunedPartial,
        s => Outcome::Score((s - 4) as usize),
    }
}

fn encode_tau(tau: Option<usize>) -> usize {
    tau.map_or(0, |t| t + 1)
}

fn decode_tau(v: usize) -> Option<usize> {
    v.checked_sub(1)
}

struct MergeState {
    frontier: usize,
    replay: Replay,
    done: bool,
}

struct Shared<'q> {
    queue: &'q [(ObjectId, usize)],
    slots: &'q [AtomicU64],
    next: AtomicUsize,
    /// Published τ of the longest merged prefix (`0` = candidate set not
    /// full yet, else `τ + 1`). Monotone non-decreasing.
    tau_plus1: AtomicUsize,
    stop: AtomicBool,
    merge: Mutex<MergeState>,
}

/// Consume completed slots in queue order under the merge lock — `walk`
/// with the scorer replaced by a slot read. Publishes τ after every
/// accepted score.
fn merge_locked(sh: &Shared<'_>, m: &mut MergeState) {
    if m.done {
        return;
    }
    let len = sh.queue.len();
    while m.frontier < len {
        let (o, max_score) = sh.queue[m.frontier];
        // Heuristic 1 — exact, because the replayed τ equals the
        // sequential τ at this position.
        if m.replay.h1_prunes(max_score) {
            m.replay.terminate(len - m.frontier);
            m.done = true;
            sh.stop.store(true, Ordering::Release);
            return;
        }
        let v = sh.slots[m.frontier].load(Ordering::Acquire);
        if v == 0 {
            return; // frontier position still being scored
        }
        let outcome = decode(v);
        m.replay.absorb(o, outcome);
        if matches!(outcome, Outcome::Score(_)) {
            sh.tau_plus1
                .store(encode_tau(m.replay.tau()), Ordering::Release);
        }
        m.frontier += 1;
    }
    m.done = true;
}

fn try_merge(sh: &Shared<'_>) {
    if let Ok(mut m) = sh.merge.try_lock() {
        merge_locked(sh, &mut m);
    }
}

fn worker_loop(sh: &Shared<'_>, scorer: Scorer<'_>, scratch: &mut ScratchSpace) {
    let len = sh.queue.len();
    'claim: loop {
        if sh.stop.load(Ordering::Acquire) {
            break;
        }
        let start = sh.next.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
        if start >= len {
            break;
        }
        for t in start..(start + CLAIM_CHUNK).min(len) {
            if sh.stop.load(Ordering::Acquire) {
                break 'claim;
            }
            let (o, max_score) = sh.queue[t];
            let tau = decode_tau(sh.tau_plus1.load(Ordering::Acquire));
            // The published τ is a prefix τ ≤ the sequential τ at `t`, so
            // both prunes are conservative w.r.t. the sequential run.
            let out = match tau {
                Some(t0) if max_score <= t0 => Outcome::PrunedBound,
                _ => scorer.score(o, tau, scratch),
            };
            sh.slots[t].store(encode(out), Ordering::Release);
        }
        try_merge(sh);
    }
    try_merge(sh);
}

/// Drive `scorer` over the queue with one thread per entry of `workers`
/// (each thread scores with its own scratch) and merge by replay. One
/// worker is the sequential one-replay walk — fresh τ every candidate, no
/// slots; more need `slots` to hold at least `queue.len()` zeroed entries
/// (they are left dirty).
///
/// # Panics
/// Panics if `workers` is empty.
pub(crate) fn run_replay(
    queue: &[(ObjectId, usize)],
    k: usize,
    workers: &mut [ScratchSpace],
    slots: &[AtomicU64],
    scorer: Scorer<'_>,
) -> TkdResult {
    let (mine, others) = workers.split_first_mut().expect("at least one worker");
    if others.is_empty() {
        return scorer.walk_one(queue, k, mine);
    }
    assert!(slots.len() >= queue.len(), "slot buffer too small");
    let shared = Shared {
        queue,
        slots,
        next: AtomicUsize::new(0),
        tau_plus1: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        merge: Mutex::new(MergeState {
            frontier: 0,
            replay: Replay::new(k),
            done: false,
        }),
    };
    std::thread::scope(|s| {
        for w in others {
            let shared = &shared;
            s.spawn(move || worker_loop(shared, scorer, w));
        }
        worker_loop(&shared, scorer, mine);
    });
    // All workers joined: every claimed slot is written; drain the tail.
    merge_locked(&shared, &mut shared.merge.lock().expect("merge lock"));
    let merged = shared.merge.into_inner().expect("merge lock");
    merged.replay.finish()
}

/// Slots `run_replay` needs for `workers` threads over a queue of `n`
/// candidates: a lone worker replays without any.
pub(crate) fn slots_needed(workers: usize, n: usize) -> usize {
    if workers > 1 {
        n
    } else {
        0
    }
}

/// Fresh zeroed slot buffer of `n` slots.
pub(crate) fn new_slots(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

#[cfg(test)]
mod tests {
    use crate::big::{big_with, big_with_alloc, BigContext};
    use crate::ibig::{ibig_with, ibig_with_alloc, IbigContext};
    use crate::query::{Algorithm, BinChoice, TkdQuery};
    use crate::result::TkdResult;
    use proptest::prelude::*;
    use tkd_model::{fixtures, Dataset};

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
            }
        }
        assert_eq!(big_threads(&ds, 1, 1).entries()[0].score, 63);
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
            }
        }
    }
}
