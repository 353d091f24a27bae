//! Sharded multi-threaded execution of BIG and IBIG — the repo's first
//! concurrency subsystem.
//!
//! # Where the algorithms live
//!
//! Nothing here scores or tallies: BIG-Score and IBIG-Score are
//! [`crate::big`]'s and [`crate::ibig`]'s shard-summing scorers, called
//! with this module's `plan.count()` shards instead of the sequential
//! contexts' one, and the traversal is `crate::topk`'s [`Replay`] — the
//! same state machine `walk` drives sequentially. This module adds the
//! data layout, the scheduling and the bound exchange around them. With
//! one worker `run_replay` *is* `walk`; with one shard on top of that the
//! whole run is the sequential algorithm, `PruneStats` included.
//!
//! # Design
//!
//! The paper's bitmap machinery is partition-parallel: for any split of
//! the dataset into contiguous shards, the per-shard `Q`/`P` popcounts of
//! a candidate sum to its global counts, so a candidate's exact score can
//! be assembled from independent per-shard scans. This module exploits
//! that in three layers:
//!
//! * **Data layout** — [`ShardPlan`] cuts the object-id space into
//!   word-aligned contiguous ranges. Each shard gets its own
//!   [`BitmapIndex`] / binned index built with `build_range` (stable
//!   global ids: `global = shard base + local bit position`), and global
//!   per-object bit vectors such as the incomparable sets `F(o)` are
//!   viewed per shard through [`tkd_bitvec::BitVec::slice_words`] — no
//!   copying. Candidates are scored against *every* shard: the home shard
//!   reads the member's stored picks (`selection_of`), the others resolve
//!   them from its values (`select_for`).
//! * **Scheduling** — workers on [`std::thread::scope`] claim chunks of
//!   the shared descending-`MaxScore` queue, score candidates with their
//!   own [`WorkerScratch`] (zero allocations per candidate), and publish
//!   outcomes into per-position atomic slots.
//! * **Bound exchange** — a shared atomic **τ** (the current k-th score
//!   lower bound) tightens Heuristic-2 pruning across shards and workers:
//!   every worker prunes with the freshest published τ, and a replay
//!   merger (below) advances τ exactly as the sequential algorithm would.
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
//! proptests below pin this equivalence across shard counts, thread
//! counts, missing rates, and `k` edges, and the whole `PruneStats` for
//! `shards = 1, threads = 1`.

use crate::big::big_score_over;
use crate::ibig::{ibig_score_over, IbigShard};
use crate::preprocess::Preprocessed;
use crate::result::TkdResult;
use crate::scratch::ScratchSpace;
use crate::topk::{walk, Replay};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use tkd_bitvec::{CompressedBitmap, Concise};
use tkd_index::{
    for_each_sorted_column, BinnedBitmapIndex, BinnedBitmapIndexBuilder, BitmapIndex,
    BitmapIndexBuilder, IndexPairBuilder,
};
use tkd_model::{Dataset, ObjectId};

pub use crate::topk::Outcome;

/// Queue positions claimed per worker round-trip to the shared cursor.
const CLAIM_CHUNK: usize = 16;

/// A word-aligned partition of the object-id space into contiguous
/// shards. Interior boundaries are multiples of 64, so every shard's view
/// of a global bit vector is a plain word-range slice
/// ([`tkd_bitvec::BitVec::slice_words`]) and per-shard popcounts are
/// exact with no masking.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Shard start offsets in bits; `starts[0] = 0`, `starts[count] = n`.
    starts: Vec<usize>,
}

impl ShardPlan {
    /// Partition `n` objects into (at most) `shards` word-aligned,
    /// balanced, non-empty shards. The effective count is clamped to the
    /// number of 64-bit words, so no shard is empty (an empty dataset
    /// yields one empty shard).
    pub fn new(n: usize, shards: usize) -> Self {
        let words = n.div_ceil(64);
        let count = shards.clamp(1, words.max(1));
        let base = words / count;
        let rem = words % count;
        let mut starts = Vec::with_capacity(count + 1);
        let mut w = 0usize;
        starts.push(0);
        for j in 0..count {
            w += base + usize::from(j < rem);
            starts.push((w * 64).min(n));
        }
        ShardPlan { starts }
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of objects covered.
    pub fn n(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// First global id of shard `j`.
    pub fn lo(&self, j: usize) -> usize {
        self.starts[j]
    }

    /// One-past-last global id of shard `j`.
    pub fn hi(&self, j: usize) -> usize {
        self.starts[j + 1]
    }

    /// Word range `[lo, hi)` of shard `j` within a global bit vector.
    pub fn word_range(&self, j: usize) -> (usize, usize) {
        (self.starts[j] / 64, self.starts[j + 1].div_ceil(64))
    }

    /// `(shard, local id)` of global id `id`.
    ///
    /// # Panics
    /// Panics if `id >= n()`.
    pub fn locate(&self, id: usize) -> (usize, usize) {
        assert!(id < self.n(), "object id {id} out of range");
        let j = self.starts.partition_point(|&s| s <= id) - 1;
        (j, id - self.starts[j])
    }

    /// Local id of global `id` within shard `j`, `None` when outside.
    pub fn local_of(&self, j: usize, id: usize) -> Option<usize> {
        (self.starts[j]..self.starts[j + 1])
            .contains(&id)
            .then(|| id - self.starts[j])
    }
}

/// Per-worker scratch for sharded scoring: one [`ScratchSpace`] per shard
/// (shard-sized `Q`/`P` vectors, the epoch-stamped IBIG tables and the
/// candidate's resolved column picks). Sized once per worker; the scoring
/// paths then allocate nothing per candidate.
pub struct WorkerScratch {
    shards: Vec<ScratchSpace>,
}

impl WorkerScratch {
    /// Scratch sized for `plan`'s shards.
    pub fn new(plan: &ShardPlan) -> Self {
        WorkerScratch {
            shards: (0..plan.count())
                .map(|j| ScratchSpace::new(plan.hi(j) - plan.lo(j)))
                .collect(),
        }
    }

    /// Does this scratch fit `plan` (same shard cuts)?
    pub fn fits(&self, plan: &ShardPlan) -> bool {
        self.shards.len() == plan.count()
            && (0..plan.count()).all(|j| self.shards[j].n() == plan.hi(j) - plan.lo(j))
    }
}

// ---------------------------------------------------------------------------
// Sharded contexts
// ---------------------------------------------------------------------------

/// Build one value per shard on scoped threads (shard builds are
/// independent, so context construction parallelizes too).
fn build_per_shard<T: Send>(count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if count <= 1 {
        return (0..count).map(f).collect();
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..count).map(|j| s.spawn(move || f(j))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard build panicked"))
            .collect()
    })
}

/// A sorted column as the index builders take it.
type Column = [(f64, ObjectId)];

/// Build one artifact per shard of `plan`, each from a single sweep over
/// the shard's own sorted columns (`start(lo, hi)` opens the shard's
/// builder state, `push` feeds it one dimension, `finish` closes it — on
/// the shard's thread, so per-shard compression parallelizes too), plus
/// the whole-dataset preprocessing unless the caller lends one. A lone
/// shard covers the whole id range, so there the queue and the shard come
/// out of the *same* columns.
fn build_shards<'a, S, T: Send>(
    ds: &'a Dataset,
    plan: &ShardPlan,
    pre: Option<&'a Preprocessed>,
    start: impl Fn(usize, usize) -> S + Sync,
    push: impl Fn(&mut S, usize, &Column) + Sync,
    finish: impl Fn(S) -> T + Sync,
) -> (Vec<T>, Cow<'a, Preprocessed>) {
    if pre.is_none() && plan.count() == 1 {
        let mut state = start(0, ds.len());
        let pre = Preprocessed::build_sharing(ds, |dim, column| push(&mut state, dim, column));
        return (vec![finish(state)], Cow::Owned(pre));
    }
    let pre = pre.map_or_else(|| Cow::Owned(Preprocessed::build(ds)), Cow::Borrowed);
    let shards = build_per_shard(plan.count(), |j| {
        let (lo, hi) = (plan.lo(j), plan.hi(j));
        let mut state = start(lo, hi);
        for_each_sorted_column(ds, lo, hi, |dim, column| push(&mut state, dim, column));
        finish(state)
    });
    (shards, pre)
}

/// Sharded counterpart of [`crate::big::BigContext`]: per-shard
/// [`BitmapIndex`]es over a [`ShardPlan`] plus the shared
/// [`Preprocessed`] artifacts (reused via `Cow`, so preprocessing is paid
/// once however many contexts share it).
pub struct ShardedBigContext<'a> {
    ds: &'a Dataset,
    plan: ShardPlan,
    /// Owned for self-built contexts; borrowed when the dynamic update
    /// layer lends its incrementally-maintained whole-range index in as a
    /// single shard.
    shards: Vec<Cow<'a, BitmapIndex>>,
    pre: Cow<'a, Preprocessed>,
}

impl<'a> ShardedBigContext<'a> {
    /// Build with `shards` shards, running all preprocessing internally.
    pub fn build(ds: &'a Dataset, shards: usize) -> Self {
        Self::build_inner(ds, None, shards)
    }

    /// Build borrowing shared [`Preprocessed`] artifacts.
    pub fn build_with(ds: &'a Dataset, pre: &'a Preprocessed, shards: usize) -> Self {
        Self::build_inner(ds, Some(pre), shards)
    }

    fn build_inner(ds: &'a Dataset, pre: Option<&'a Preprocessed>, shards: usize) -> Self {
        let plan = ShardPlan::new(ds.len(), shards);
        let (shards, pre) = build_shards(
            ds,
            &plan,
            pre,
            |lo, hi| BitmapIndexBuilder::new(ds.dims(), lo, hi),
            BitmapIndexBuilder::push_dim,
            |builder| Cow::Owned(builder.finish()),
        );
        ShardedBigContext {
            ds,
            plan,
            shards,
            pre,
        }
    }

    /// Borrow a **prebuilt** whole-range index and preprocessing as a
    /// single-shard context — nothing is built or copied. This is how a
    /// [`crate::ParallelEngine`] serves a batch against the dynamic update
    /// layer's maintained state: every worker scores against the one
    /// borrowed index, whose live-aware paths keep tombstoned slots out
    /// of every count.
    pub fn from_prebuilt(ds: &'a Dataset, index: &'a BitmapIndex, pre: &'a Preprocessed) -> Self {
        assert_eq!(index.base(), 0, "prebuilt shard must cover the id space");
        assert_eq!(index.n(), ds.len(), "index/dataset size mismatch");
        ShardedBigContext {
            ds,
            plan: ShardPlan::new(ds.len(), 1),
            shards: vec![Cow::Borrowed(index)],
            pre: Cow::Borrowed(pre),
        }
    }

    /// The dataset this context was built for.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// The shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The per-shard indexes, in shard order.
    pub fn shards(&self) -> impl Iterator<Item = &BitmapIndex> {
        self.shards.iter().map(Cow::as_ref)
    }

    /// The shared preprocessing artifacts.
    pub fn preprocessed(&self) -> &Preprocessed {
        &self.pre
    }

    /// A fresh [`WorkerScratch`] sized for this context's plan.
    pub fn worker_scratch(&self) -> WorkerScratch {
        WorkerScratch::new(&self.plan)
    }
}

/// Sharded counterpart of [`crate::ibig::IbigContext`]: per-shard binned
/// indexes (bins re-quantiled per shard) with compressed columns, plus the
/// shared [`Preprocessed`] artifacts.
pub struct ShardedIbigContext<'a, C: CompressedBitmap = Concise> {
    ds: &'a Dataset,
    plan: ShardPlan,
    shards: Vec<IbigShard<'a, C>>,
    pre: Cow<'a, Preprocessed>,
}

impl<'a, C: CompressedBitmap + Send> ShardedIbigContext<'a, C> {
    /// Build with explicit per-dimension bin counts and `shards` shards.
    pub fn build(ds: &'a Dataset, bins_per_dim: &[usize], shards: usize) -> Self {
        Self::build_inner(ds, bins_per_dim, None, shards)
    }

    /// Build with the Eq. 8 optimal bin count on every dimension.
    pub fn build_auto(ds: &'a Dataset, shards: usize) -> Self {
        let x = tkd_index::cost::optimal_bins(ds.len(), tkd_model::stats::missing_rate(ds));
        Self::build(ds, &vec![x; ds.dims()], shards)
    }

    /// Build borrowing shared [`Preprocessed`] artifacts.
    pub fn build_with(
        ds: &'a Dataset,
        bins_per_dim: &[usize],
        pre: &'a Preprocessed,
        shards: usize,
    ) -> Self {
        Self::build_inner(ds, bins_per_dim, Some(pre), shards)
    }

    fn build_inner(
        ds: &'a Dataset,
        bins_per_dim: &[usize],
        pre: Option<&'a Preprocessed>,
        shards: usize,
    ) -> Self {
        assert_eq!(bins_per_dim.len(), ds.dims(), "one bin count per dimension");
        let plan = ShardPlan::new(ds.len(), shards);
        let (shards, pre) = build_shards(
            ds,
            &plan,
            pre,
            |lo, hi| BinnedBitmapIndexBuilder::new(bins_per_dim, lo, hi),
            BinnedBitmapIndexBuilder::push_dim,
            |builder| IbigShard::compressed(builder.finish()),
        );
        ShardedIbigContext {
            ds,
            plan,
            shards,
            pre,
        }
    }

    /// Borrow a **prebuilt** whole-range binned index and preprocessing as
    /// a single-shard context scoring off its dense columns (the IBIG
    /// counterpart of [`ShardedBigContext::from_prebuilt`]).
    pub fn from_prebuilt_dense(
        ds: &'a Dataset,
        index: &'a BinnedBitmapIndex,
        pre: &'a Preprocessed,
    ) -> Self {
        assert_eq!(index.base(), 0, "prebuilt shard must cover the id space");
        assert_eq!(index.n(), ds.len(), "index/dataset size mismatch");
        ShardedIbigContext {
            ds,
            plan: ShardPlan::new(ds.len(), 1),
            shards: vec![IbigShard::dense(index)],
            pre: Cow::Borrowed(pre),
        }
    }

    /// The dataset this context was built for.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// The shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The shared preprocessing artifacts.
    pub fn preprocessed(&self) -> &Preprocessed {
        &self.pre
    }

    /// A fresh [`WorkerScratch`] sized for this context's plan.
    pub fn worker_scratch(&self) -> WorkerScratch {
        WorkerScratch::new(&self.plan)
    }
}

/// Both sharded contexts of a serving engine from one sweep per shard:
/// shard `j`'s sorted columns feed its exact *and* its binned index (and,
/// single-shard, the queue). Preprocessing is *computed* once; the clone
/// deep-copies the queue and the per-mask `F(o)` bit vectors so each
/// context owns its `Cow` — `O(n · masks)` memory paid once per engine.
pub(crate) fn build_context_pair<'a, C: CompressedBitmap + Send>(
    ds: &'a Dataset,
    bins_per_dim: &[usize],
    shards: usize,
) -> (ShardedBigContext<'a>, ShardedIbigContext<'a, C>) {
    let plan = ShardPlan::new(ds.len(), shards);
    let (shards, pre) = build_shards(
        ds,
        &plan,
        None,
        |lo, hi| IndexPairBuilder::new(bins_per_dim, lo, hi),
        IndexPairBuilder::push_dim,
        |pair| {
            let (exact, binned) = pair.finish();
            (Cow::Owned(exact), IbigShard::compressed(binned))
        },
    );
    let (big_shards, ibig_shards) = shards.into_iter().unzip();
    let big = ShardedBigContext {
        ds,
        plan: plan.clone(),
        shards: big_shards,
        pre: pre.clone(),
    };
    let ibig = ShardedIbigContext {
        ds,
        plan,
        shards: ibig_shards,
        pre,
    };
    (big, ibig)
}

// ---------------------------------------------------------------------------
// Sharded scoring
// ---------------------------------------------------------------------------

impl ShardedBigContext<'_> {
    /// BIG-Score of `o` summed over this context's shards.
    pub(crate) fn score(&self, o: ObjectId, tau: Option<usize>, w: &mut WorkerScratch) -> Outcome {
        big_score_over(self.ds, &self.shards, &self.pre, o, tau, &mut w.shards)
    }
}

impl<C: CompressedBitmap> ShardedIbigContext<'_, C> {
    /// IBIG-Score of `o` summed over this context's shards.
    pub(crate) fn score(&self, o: ObjectId, tau: Option<usize>, w: &mut WorkerScratch) -> Outcome {
        ibig_score_over(self.ds, &self.shards, &self.pre, o, tau, &mut w.shards)
    }
}

// ---------------------------------------------------------------------------
// Replay-merge driver
// ---------------------------------------------------------------------------

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

fn worker_loop<W, F>(sh: &Shared<'_>, score: &F, w: &mut W)
where
    F: Fn(ObjectId, Option<usize>, &mut W) -> Outcome,
{
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
                _ => score(o, tau, w),
            };
            sh.slots[t].store(encode(out), Ordering::Release);
        }
        try_merge(sh);
    }
    try_merge(sh);
}

/// Drive `score` over the queue with one thread per entry of `workers`
/// (each thread scores with its own worker state) and merge by replay.
/// One worker is the sequential `walk` — fresh τ every candidate, no
/// slots; more need `slots` to hold at least `queue.len()` zeroed entries
/// (they are left dirty).
///
/// # Panics
/// Panics if `workers` is empty.
pub(crate) fn run_replay<W: Send, F>(
    queue: &[(ObjectId, usize)],
    k: usize,
    workers: &mut [W],
    slots: &[AtomicU64],
    score: F,
) -> TkdResult
where
    F: Fn(ObjectId, Option<usize>, &mut W) -> Outcome + Sync,
{
    let (mine, others) = workers.split_first_mut().expect("at least one worker");
    if others.is_empty() {
        return walk(queue, k, |o, tau| score(o, tau, mine));
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
            let score = &score;
            s.spawn(move || worker_loop(shared, score, w));
        }
        worker_loop(&shared, &score, mine);
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

/// Parallel BIG over a sharded context: score- and order-identical to
/// [`crate::big::big_with_scratch`] for every `k` (see the module docs
/// for the argument). Allocates the per-call workspace; the
/// [`crate::engine::ParallelEngine`] reuses pooled workspaces instead.
pub fn parallel_big(ctx: &ShardedBigContext<'_>, k: usize, threads: usize) -> TkdResult {
    let queue = ctx.pre.queue();
    let mut workers: Vec<WorkerScratch> =
        (0..threads.max(1)).map(|_| ctx.worker_scratch()).collect();
    let slots = new_slots(slots_needed(workers.len(), queue.len()));
    run_replay(queue, k, &mut workers, &slots, |o, tau, w| {
        ctx.score(o, tau, w)
    })
}

/// Parallel IBIG over a sharded context: score- and order-identical to
/// [`crate::ibig::ibig_with_scratch`] for every `k`.
pub fn parallel_ibig<C: CompressedBitmap + Sync>(
    ctx: &ShardedIbigContext<'_, C>,
    k: usize,
    threads: usize,
) -> TkdResult {
    let queue = ctx.pre.queue();
    let mut workers: Vec<WorkerScratch> = (0..threads.max(1))
        .map(|_| WorkerScratch::new(&ctx.plan))
        .collect();
    let slots = new_slots(slots_needed(workers.len(), queue.len()));
    run_replay(queue, k, &mut workers, &slots, |o, tau, w| {
        ctx.score(o, tau, w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::big::{big_with, big_with_alloc, BigContext};
    use crate::ibig::{ibig_with, ibig_with_alloc, IbigContext};
    use proptest::prelude::*;
    use tkd_model::fixtures;

    #[test]
    fn shard_plan_is_word_aligned_and_covers() {
        for (n, shards) in [
            (0usize, 4usize),
            (1, 1),
            (1, 8),
            (63, 2),
            (64, 2),
            (65, 2),
            (1000, 3),
            (1000, 7),
            (1000, 1),
            (130, 100),
        ] {
            let p = ShardPlan::new(n, shards);
            assert!(p.count() >= 1);
            assert_eq!(p.n(), n, "n={n} shards={shards}");
            assert_eq!(p.lo(0), 0);
            for j in 0..p.count() {
                assert!(p.lo(j) < p.hi(j) || n == 0, "empty shard {j} (n={n})");
                assert_eq!(p.lo(j) % 64, 0, "unaligned shard start");
                if j + 1 < p.count() {
                    assert_eq!(p.hi(j), p.lo(j + 1));
                }
                let (w_lo, w_hi) = p.word_range(j);
                assert_eq!(w_lo, p.lo(j) / 64);
                assert_eq!(w_hi, p.hi(j).div_ceil(64));
            }
            assert_eq!(p.hi(p.count() - 1), n);
            for id in 0..n {
                let (j, local) = p.locate(id);
                assert_eq!(p.lo(j) + local, id);
                assert_eq!(p.local_of(j, id), Some(local));
                if j > 0 {
                    assert_eq!(p.local_of(j - 1, id), None);
                }
            }
        }
    }

    #[test]
    fn fig3_parallel_matches_sequential_all_k() {
        let ds = fixtures::fig3_sample();
        let seq = BigContext::build(&ds);
        for shards in [1usize, 2, 3, 7] {
            let ctx = ShardedBigContext::build(&ds, shards);
            for threads in [1usize, 2, 4] {
                for k in [1usize, 2, 5, 19, 20, 25] {
                    let par = parallel_big(&ctx, k, threads);
                    let reference = big_with(&seq, k);
                    assert_eq!(
                        par.entries(),
                        reference.entries(),
                        "shards={shards} threads={threads} k={k}"
                    );
                    assert_eq!(par.stats.h1_pruned, reference.stats.h1_pruned);
                }
            }
        }
    }

    #[test]
    fn fig3_parallel_ibig_matches_sequential() {
        let ds = fixtures::fig3_sample();
        let seq: IbigContext<'_> = IbigContext::build(&ds, &[2, 2, 3, 3]);
        for shards in [1usize, 2, 3] {
            let ctx: ShardedIbigContext<'_> = ShardedIbigContext::build(&ds, &[2, 2, 3, 3], shards);
            for threads in [1usize, 2, 4] {
                for k in [1usize, 2, 5, 20] {
                    let par = parallel_ibig(&ctx, k, threads);
                    let reference = ibig_with(&seq, k);
                    assert_eq!(
                        par.entries(),
                        reference.entries(),
                        "shards={shards} threads={threads} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn h2_budget_saturation_regression() {
        // Regression: a shard whose Q-intersection is empty combined with
        // a large later-shard upper bound used to saturate the remaining
        // budget to 0, turning the empty shard's capped scan into a bogus
        // global prune certificate — parallel BIG silently dropped the
        // true top-1. Construction: 64 loose-MaxScore decoys (0, 100)
        // fill shard 0 and set τ = 0; the real winner (1, 1) sits in
        // shard 1 with Q empty in shard 0 (ub 0) and |Q| = 63 in shard 1.
        let mut rows = vec![vec![Some(0.0), Some(100.0)]; 64];
        rows.push(vec![Some(1.0), Some(1.0)]);
        rows.extend(std::iter::repeat_n(vec![Some(2.0), Some(2.0)], 63));
        let ds = tkd_model::Dataset::from_rows(2, &rows).unwrap();
        let seq = BigContext::build(&ds);
        let ctx = ShardedBigContext::build(&ds, 2);
        for threads in [1usize, 2, 4] {
            for k in [1usize, 2, 5] {
                let par = parallel_big(&ctx, k, threads);
                let reference = big_with(&seq, k);
                assert_eq!(
                    par.entries(),
                    reference.entries(),
                    "threads={threads} k={k}"
                );
            }
        }
        assert_eq!(parallel_big(&ctx, 1, 1).entries()[0].score, 63);
    }

    #[test]
    fn k_zero_and_empty_dataset() {
        let ds = fixtures::fig3_sample();
        let ctx = ShardedBigContext::build(&ds, 2);
        assert!(parallel_big(&ctx, 0, 2).is_empty());
        let empty = tkd_model::Dataset::from_rows(2, &[]).unwrap();
        let ctx = ShardedBigContext::build(&empty, 3);
        assert!(parallel_big(&ctx, 5, 2).is_empty());
        let ictx: ShardedIbigContext<'_> = ShardedIbigContext::build_auto(&empty, 3);
        assert!(parallel_ibig(&ictx, 5, 2).is_empty());
    }

    /// Random incomplete dataset with the given missing probability.
    fn dataset_strategy(missing: f64) -> impl Strategy<Value = tkd_model::Dataset> {
        (1usize..=4).prop_flat_map(move |dims| {
            let row = proptest::collection::vec(
                proptest::option::weighted(1.0 - missing, (0u8..6).prop_map(|v| v as f64)),
                dims,
            )
            .prop_filter("at least one observed", |r| r.iter().any(Option::is_some));
            proptest::collection::vec(row, 1..80).prop_map(move |rows| {
                tkd_model::Dataset::from_rows(dims, &rows).expect("valid rows")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The sharded parallel BIG returns identical entries to both the
        /// sequential scratch engine and the allocating `#[cfg(test)]`
        /// oracle, across shard counts, thread counts, and missing rates.
        #[test]
        fn parallel_big_parity(
            ds_low in dataset_strategy(0.1),
            ds_mid in dataset_strategy(0.3),
            ds_high in dataset_strategy(0.6),
            k in 1usize..10,
            shards in 1usize..5,
            threads in 1usize..4,
        ) {
            for ds in [&ds_low, &ds_mid, &ds_high] {
                let seq = BigContext::build(ds);
                let reference = big_with(&seq, k);
                let oracle = big_with_alloc(&seq, k);
                prop_assert_eq!(reference.entries(), oracle.entries());
                let ctx = ShardedBigContext::build(ds, shards);
                let par = parallel_big(&ctx, k, threads);
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
            shards in 1usize..5,
            threads in 1usize..4,
            bins in 1usize..6,
        ) {
            for ds in [&ds_low, &ds_mid, &ds_high] {
                let bins_per_dim = vec![bins; ds.dims()];
                let seq: IbigContext<'_> = IbigContext::build(ds, &bins_per_dim);
                let reference = ibig_with(&seq, k);
                let oracle = ibig_with_alloc(&seq, k);
                prop_assert_eq!(reference.entries(), oracle.entries());
                let ctx: ShardedIbigContext<'_> =
                    ShardedIbigContext::build(ds, &bins_per_dim, shards);
                let par = parallel_ibig(&ctx, k, threads);
                prop_assert_eq!(par.entries(), reference.entries());
            }
        }
    }
}
