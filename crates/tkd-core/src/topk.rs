//! The traversal of Algorithm 4, once: the bounded top-k candidate set
//! (the paper's `SC` with threshold `τ`), the [`Replay`] state machine
//! that consumes per-candidate [`Outcome`]s in queue order, and `walk`,
//! the one driver that takes any number of replays through one queue on
//! one worker thread or several.
//!
//! Every engine is this walk with a different scorer in front: UBB scores
//! pairwise, BIG and IBIG through their bitmap scorers, the standing layer
//! answers from its score cache first, and the cluster coordinator feeds
//! a [`Replay`] outcomes assembled from shard answers. Heuristic 1 is
//! checked in one place — [`Replay::h1_prunes`] — so it fires at the same
//! queue position everywhere.
//!
//! # One walk per batch
//!
//! The queue's order does not depend on `k`, and at any queue prefix a
//! replay's τ is the k-th largest exact score in that prefix (a candidate
//! it pruned scores at most τ, so offering it would not have moved τ).
//! A smaller `k` therefore never holds a smaller τ than a larger one, and
//! every query of a batch visits a prefix of the largest one's walk.
//! `walk` visits the queue once for all of them: it *measures* each
//! visited candidate once, at what the loosest active replay needs
//! ([`Need`]), and each replay *decides* its own [`Outcome`] from those
//! counts and its own τ. Each replay's τ then equals its standalone τ at
//! every position, so every result — `PruneStats` included — is the one
//! the query would get alone. A single query is the one-replay case.
//!
//! # One walk on several workers
//!
//! A measurement decides exactly for every replay whose τ is at least
//! the one it was taken at ([`Measure`]), so other threads may measure
//! ahead of the replays while every decision is still taken in queue
//! order at each replay's own τ (`crate::parallel`).

use crate::result::{ResultEntry, TkdResult};
use crate::scratch::ScratchSpace;
use crate::stats::PruneStats;
use std::sync::atomic::AtomicU64;
use tkd_model::ObjectId;

/// A bounded set of the best `k` `(score, id)` pairs seen so far,
/// maintaining the paper's threshold `τ` = smallest score in a *full* set
/// (−1, represented as `None`, while not full — Algorithm 2, line 1).
///
/// Replacement is by strict score comparison, matching Algorithm 2 line 7:
/// an object only enters a full set if its score strictly exceeds `τ`.
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    /// Sorted ascending by (score, Reverse(id)): worst candidate first.
    entries: Vec<ResultEntry>,
}

impl TopK {
    /// An empty set for a top-`k` query over at most `candidates` offers:
    /// room for `min(k, candidates)` entries, all it can ever hold.
    pub fn new(k: usize, candidates: usize) -> Self {
        TopK {
            k,
            entries: Vec::with_capacity(k.min(candidates)),
        }
    }

    /// The paper's `τ`: the k-th best score once `k` candidates exist.
    pub fn tau(&self) -> Option<usize> {
        if self.entries.len() == self.k {
            self.entries.first().map(|e| e.score)
        } else {
            None
        }
    }

    /// Would an object with upper bound `bound` be useless (`bound ≤ τ`)?
    pub fn prunes(&self, bound: usize) -> bool {
        matches!(self.tau(), Some(t) if bound <= t)
    }

    /// Offer a candidate (Algorithm 2 lines 7–11).
    pub fn offer(&mut self, id: ObjectId, score: usize) {
        if self.k == 0 {
            return;
        }
        if self.entries.len() < self.k {
            let pos = self.entries.partition_point(|e| {
                (e.score, std::cmp::Reverse(e.id)) < (score, std::cmp::Reverse(id))
            });
            self.entries.insert(pos, ResultEntry { id, score });
        } else if score > self.entries[0].score {
            self.entries.remove(0);
            let pos = self.entries.partition_point(|e| {
                (e.score, std::cmp::Reverse(e.id)) < (score, std::cmp::Reverse(id))
            });
            self.entries.insert(pos, ResultEntry { id, score });
        }
    }

    /// Finish, yielding entries (unsorted contract: `TkdResult` re-sorts).
    pub fn into_entries(self) -> Vec<ResultEntry> {
        self.entries
    }
}

/// Outcome of scoring one candidate — what a replay decides from a
/// measurement, or what a cluster coordinator assembles from shard
/// answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Pruned by Heuristic 2 (`MaxBitScore ≤ τ`).
    PrunedBitmap,
    /// Pruned by Heuristic 3 (partial-score budget exhausted).
    PrunedPartial,
    /// Exact score.
    Score(usize),
}

/// The sequential driver's state — bounded top-k, τ and the pruning
/// tallies — consumed one queue position at a time.
///
/// The discipline, identical for every engine:
/// 1. at each queue position, check [`h1_prunes`](Self::h1_prunes)
///    against the candidate's `MaxScore` — if it fires, call
///    [`terminate`](Self::terminate) and stop;
/// 2. otherwise [`absorb`](Self::absorb) the candidate's outcome;
/// 3. [`finish`](Self::finish) yields the final `TkdResult`.
///
/// An outcome computed against an *older* (smaller) τ than the replay's
/// own is still exact to absorb: a candidate pruned under it scores `≤ τ`,
/// so the sequential offer would have been a no-op, and only the
/// `h2/h3/scored` tallies can differ from a fresh-τ run.
#[derive(Clone, Debug)]
pub struct Replay {
    top: TopK,
    stats: PruneStats,
    /// Heuristic 1 has ended the traversal.
    ended: bool,
}

impl Replay {
    /// Start a replay for a top-`k` query.
    pub fn new(k: usize) -> Replay {
        Replay::sized(k, 0)
    }

    /// A replay with room for every entry a walk of `candidates` queue
    /// positions can give it.
    pub(crate) fn sized(k: usize, candidates: usize) -> Replay {
        Replay {
            top: TopK::new(k, candidates),
            stats: PruneStats::default(),
            ended: false,
        }
    }

    /// The current k-th score lower bound (`None` until the candidate set
    /// is full) — what scorers prune against.
    pub fn tau(&self) -> Option<usize> {
        self.top.tau()
    }

    /// Heuristic 1: does the traversal end at a candidate with this
    /// `MaxScore`? Always, for `k = 0` — τ can never form with an
    /// unfillable candidate set, so nothing is worth scoring.
    pub fn h1_prunes(&self, max_score: usize) -> bool {
        self.top.k == 0 || self.top.prunes(max_score)
    }

    /// Record Heuristic-1 termination with `remaining` unvisited queue
    /// positions (including the one that fired).
    pub fn terminate(&mut self, remaining: usize) {
        self.stats.h1_pruned = remaining;
        self.ended = true;
    }

    /// Replay one candidate's outcome in queue order.
    pub fn absorb(&mut self, id: ObjectId, outcome: Outcome) {
        match outcome {
            Outcome::PrunedBitmap => self.stats.h2_pruned += 1,
            Outcome::PrunedPartial => self.stats.h3_pruned += 1,
            Outcome::Score(s) => {
                self.stats.scored += 1;
                self.top.offer(id, s);
            }
        }
    }

    /// The final result: entries best first, ties by ascending id.
    pub fn finish(self) -> TkdResult {
        TkdResult::new(self.top.into_entries(), self.stats)
    }
}

/// What the active replays of a [`walk`] need of the next candidate's
/// measurement. For a lone replay, `tau` is its own τ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Need {
    /// The smallest τ an active replay holds — the loosest Heuristic-2
    /// budget any of them prunes at — or `None` while none holds one.
    pub(crate) tau: Option<usize>,
    /// Some active replay holds no τ yet: it scores whatever it visits.
    pub(crate) unfilled: bool,
}

impl Need {
    /// What a lone replay holding `tau` needs.
    #[cfg(test)]
    pub(crate) fn of(tau: Option<usize>) -> Need {
        Need {
            tau,
            unfilled: tau.is_none(),
        }
    }
}

/// The scorer a [`walk`] drives: the measure step, run once per visited
/// candidate on whichever worker claimed it, and the decide step each
/// replay runs on that measurement. **Soundness:** a measurement taken
/// at a [`Need`] must decide exactly for every replay whose τ is at
/// least that `Need`'s — it prunes only what the `Need`'s budget prunes,
/// and otherwise carries exact counts.
pub(crate) trait Measure: Sync {
    /// What one visit of a candidate measured.
    type Measured;

    /// The object count a worker's scratch is sized for.
    fn rows(&self) -> usize;

    /// A walk with this scorer starts: [`walk`] tells it once, before the
    /// first measurement, so a memo lane the scorer reads is sized by the
    /// walks that read it (the second one sizes it).
    fn announce(&self) {}

    /// Candidate `o`'s counts, at what `need` asks.
    fn measure(&self, o: ObjectId, need: Need, scratch: &mut ScratchSpace) -> Self::Measured;

    /// The outcome of a replay holding `tau`.
    fn decide(&self, m: &Self::Measured, tau: Option<usize>) -> Outcome;

    /// `m` as one nonzero word, for a measurement that crosses threads.
    fn publish(&self, m: &Self::Measured) -> u64;

    /// The measurement of candidate `o` that [`Measure::publish`] wrote
    /// as `word`.
    fn read(&self, o: ObjectId, word: u64) -> Self::Measured;
}

/// Heuristic 1 at a queue position with `remaining` positions left (this
/// one included) for every active replay of `replays`: end those it fires
/// for, and return what the rest [`Need`] — `None` once none is active.
pub(crate) fn visit(replays: &mut [Replay], max_score: usize, remaining: usize) -> Option<Need> {
    let mut active = false;
    let mut need = Need {
        tau: None,
        unfilled: false,
    };
    for replay in replays.iter_mut().filter(|r| !r.ended) {
        if replay.h1_prunes(max_score) {
            replay.terminate(remaining);
            continue;
        }
        active = true;
        match replay.tau() {
            Some(t) => need.tau = Some(need.tau.map_or(t, |m| m.min(t))),
            None => need.unfilled = true,
        }
    }
    active.then_some(need)
}

/// Every active replay of `replays` decides candidate `o`'s outcome from
/// one measurement with its own τ, and absorbs it.
pub(crate) fn absorb<M>(
    replays: &mut [Replay],
    o: ObjectId,
    measured: &M,
    decide: impl Fn(&M, Option<usize>) -> Outcome,
) {
    for replay in replays.iter_mut().filter(|r| !r.ended) {
        let outcome = decide(measured, replay.tau());
        replay.absorb(o, outcome);
    }
}

/// Algorithm 4's traversal for every replay of `replays` at once: visit
/// `queue` in descending-`MaxScore` order, end each replay at its own
/// Heuristic 1, measure every candidate an active replay visits once,
/// at what the active replays [`Need`], and let each of them decide its
/// own outcome from that measurement and its own τ. One entry of
/// `workers` is the sequential loop; more run one thread each, which
/// publish into `slots` (at least `queue.len()` of them).
pub(crate) fn walk<S: Measure>(
    queue: &[(ObjectId, usize)],
    replays: &mut [Replay],
    workers: &mut [ScratchSpace],
    slots: &[AtomicU64],
    scorer: &S,
) {
    scorer.announce();
    match workers {
        [scratch] => walk_with(
            queue,
            replays,
            |o, need| scorer.measure(o, need, scratch),
            |m, tau| scorer.decide(m, tau),
        ),
        _ => crate::parallel::walk_workers(queue, replays, workers, slots, scorer),
    }
}

/// A single top-`k` query: the one-replay [`walk`], on an array whose
/// loops the compiler unrolls.
pub(crate) fn walk_one<S: Measure>(
    queue: &[(ObjectId, usize)],
    k: usize,
    workers: &mut [ScratchSpace],
    slots: &[AtomicU64],
    scorer: &S,
) -> TkdResult {
    let mut replay = [Replay::sized(k, queue.len())];
    walk(queue, &mut replay, workers, slots, scorer);
    let [replay] = replay;
    replay.finish()
}

/// The sequential loop of [`walk`], over a measure and a decide closure.
fn walk_with<M>(
    queue: &[(ObjectId, usize)],
    replays: &mut [Replay],
    mut measure: impl FnMut(ObjectId, Need) -> M,
    decide: impl Fn(&M, Option<usize>) -> Outcome,
) {
    for (visited, &(o, max_score)) in queue.iter().enumerate() {
        let Some(need) = visit(replays, max_score, queue.len() - visited) else {
            return;
        };
        let measured = measure(o, need);
        absorb(replays, o, &measured, &decide);
    }
}

/// A single top-`k` query whose scorer decides alone, handed the
/// replay's τ.
pub(crate) fn walk_scored(
    queue: &[(ObjectId, usize)],
    k: usize,
    mut score: impl FnMut(ObjectId, Option<usize>) -> Outcome,
) -> TkdResult {
    let mut replay = [Replay::sized(k, queue.len())];
    walk_with(
        queue,
        &mut replay,
        |o, need| score(o, need.tau),
        |&outcome, _| outcome,
    );
    let [replay] = replay;
    replay.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_is_none_until_full() {
        let mut t = TopK::new(2, 2);
        assert_eq!(t.tau(), None);
        t.offer(1, 10);
        assert_eq!(t.tau(), None);
        t.offer(2, 5);
        assert_eq!(t.tau(), Some(5));
    }

    #[test]
    fn strict_replacement() {
        let mut t = TopK::new(2, 5);
        t.offer(1, 5);
        t.offer(2, 5);
        // Equal score does not displace (Algorithm 2 line 7: score > τ).
        t.offer(3, 5);
        let ids: Vec<ObjectId> = t.clone().into_entries().iter().map(|e| e.id).collect();
        assert!(ids.contains(&1) && ids.contains(&2));
        // Strictly better does.
        t.offer(4, 6);
        assert_eq!(t.tau(), Some(5));
        t.offer(5, 7);
        assert_eq!(t.tau(), Some(6));
    }

    #[test]
    fn prunes_at_or_below_tau() {
        let mut t = TopK::new(1, 1);
        assert!(!t.prunes(0));
        t.offer(1, 4);
        assert!(t.prunes(4));
        assert!(t.prunes(3));
        assert!(!t.prunes(5));
    }

    #[test]
    fn k_zero_accepts_nothing() {
        let mut t = TopK::new(0, 1);
        t.offer(1, 100);
        assert!(t.into_entries().is_empty());
    }
}
