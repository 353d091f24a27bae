//! Cross-process building blocks for the sharded cluster: per-shard
//! scoring against **value-based candidates** and the coordinator's
//! replay-merge.
//!
//! # Why per-shard partials reconstruct the exact answer
//!
//! A dominating score is a sum of pairwise comparisons, so for *any*
//! partition of the live rows into shards, `score(o) = Σⱼ partialⱼ(o)`
//! where `partialⱼ(o)` counts the shard-j rows `o` dominates. The
//! [`parallel`](crate::parallel) module exploits this inside one address
//! space by slicing global bit vectors per shard; this module re-derives
//! every per-shard term from **local state only** — the shard's dense
//! live rows, its own indexes, and incomparable sets computed from local
//! masks — so a shard worker in another process needs nothing global to
//! score a candidate shipped as raw dimension values.
//!
//! The division of labor over the wire:
//!
//! * a **[`ShardScorer`]** answers two questions per candidate, phase by
//!   phase: a cheap `|Q|` bound (BIG: suffix-table upper bound; IBIG:
//!   exact fused count) for the coordinator's cross-shard Heuristic-2
//!   decision, and the exact per-shard partial score;
//! * the **coordinator** owns the candidate queue, sums the per-shard
//!   answers, and drives a **[`ClusterReplay`]** in queue order — the
//!   same bounded top-k / τ discipline as the sequential driver, so
//!   entries, scores, and tie order are bit-identical to the in-process
//!   engines, and Heuristic-1 termination fires at the exact sequential
//!   position.
//!
//! Heuristic 2 across shards uses `Σⱼ boundⱼ ≤ τ + 1` (the raw
//! intersections count a member candidate's own bit exactly once, in its
//! home shard), which is conservative: a bound-pruned candidate's true
//! score is `≤ τ`, so the sequential offer would have been a no-op.
//! Heuristic 3 (partial-score budget) is intentionally **not** applied
//! across shards — it would need mid-scan budget exchange per candidate —
//! so only the `h2/h3/scored` counters may differ from a sequential run,
//! never the entries. `tests/cluster_parity.rs` pins that equivalence
//! over real sockets; the tests here pin it in-process.

use crate::result::TkdResult;
use crate::scratch::ScratchSpace;
use crate::stats::PruneStats;
use crate::topk::TopK;
use std::collections::HashMap;
use tkd_bitvec::BitVec;
use tkd_index::{
    for_each_sorted_column, BinnedBitmapIndex, BinnedBitmapIndexBuilder, BitmapIndex,
    BitmapIndexBuilder,
};
use tkd_model::{Dataset, DimMask, ObjectId};

pub use crate::parallel::Outcome;

/// One candidate as it crosses the wire: its raw per-dimension values
/// plus, when the candidate lives in the receiving shard, its dense row
/// index there (so its own bit can be excluded from its score).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardCandidate {
    /// Per-dimension values, `None` = missing. Length must equal the
    /// shard's dimension count.
    pub values: Vec<Option<f64>>,
    /// Dense local row of this candidate if it is a member of the shard.
    pub member: Option<usize>,
}

/// A shard worker's scoring state: dense live rows with both index
/// flavors, scratch for allocation-free scoring, and a cache of local
/// incomparable windows keyed by candidate mask.
///
/// Built from a [`DynamicEngine`](crate::DynamicEngine) worker's
/// [`snapshot`](crate::DynamicEngine::snapshot) (row `i` ↔
/// `live_ids()[i]`), and rebuilt whenever the shard's contents change —
/// the scorer itself is immutable with respect to the data.
pub struct ShardScorer {
    ds: Dataset,
    index: BitmapIndex,
    binned: BinnedBitmapIndex,
    scratch: ScratchSpace,
    /// Local incomparable window per candidate mask: rows whose mask does
    /// not intersect the candidate's. The per-mask cache mirrors
    /// [`Preprocessed`]'s F-set sharing (distinct masks are few).
    f_cache: HashMap<u64, BitVec>,
}

impl ShardScorer {
    /// Build over the shard's dense live rows with the Eq. 8 optimal bin
    /// count (the same choice the auto-binned contexts make).
    pub fn new(ds: Dataset) -> ShardScorer {
        let bins = tkd_index::cost::optimal_bins(ds.len(), tkd_model::stats::missing_rate(&ds));
        Self::with_bins(ds, bins)
    }

    /// Build with an explicit per-dimension bin count.
    pub fn with_bins(ds: Dataset, bins: usize) -> ShardScorer {
        let n = ds.len();
        let bins = vec![bins.max(1); ds.dims()];
        // One sort per dimension feeds both index flavors.
        let mut index = BitmapIndexBuilder::new(ds.dims(), 0, n);
        let mut binned = BinnedBitmapIndexBuilder::new(&bins, 0, n);
        for_each_sorted_column(&ds, 0, n, |dim, column| {
            index.push_dim(dim, column);
            binned.push_dim(dim, column);
        });
        ShardScorer {
            index: index.finish(),
            binned: binned.finish(),
            scratch: ScratchSpace::new(n),
            f_cache: HashMap::new(),
            ds,
        }
    }

    /// Number of rows this scorer covers.
    pub fn len(&self) -> usize {
        self.ds.len()
    }

    /// Is the shard empty?
    pub fn is_empty(&self) -> bool {
        self.ds.len() == 0
    }

    /// The observed-dimension mask of a candidate's values.
    fn mask_of(values: &[Option<f64>]) -> DimMask {
        DimMask::from_indices(
            values
                .iter()
                .enumerate()
                .filter_map(|(d, v)| v.is_some().then_some(d)),
        )
    }

    /// The local incomparable window for a candidate mask: bit `i` set iff
    /// row `i` observes no dimension in common with the candidate.
    fn f_window(&mut self, mask: DimMask) -> &BitVec {
        let ds = &self.ds;
        self.f_cache.entry(mask.bits()).or_insert_with(|| {
            BitVec::from_indices(
                ds.len(),
                (0..ds.len()).filter(|&i| !ds.mask(i as ObjectId).intersects(mask)),
            )
        })
    }

    /// BIG phase 1: the suffix-table upper bound on this shard's `|Q|`
    /// intersection for the candidate (its own bit included when it is a
    /// member — the cross-shard Heuristic-2 limit is `τ + 1`).
    pub fn big_bound(&self, cand: &ShardCandidate) -> usize {
        let sel = self.index.select_for(|d| cand.values[d]);
        self.index.q_selected_upper_bound(&sel)
    }

    /// IBIG phase 1: the exact fused `|Q|` count off the binned columns
    /// (own bit included when member). The coordinator's `MaxBitScore` is
    /// `Σⱼ counts − 1`.
    pub fn ibig_q_count(&mut self, cand: &ShardCandidate) -> usize {
        let dims = self.ds.dims();
        let sel = self.binned.select_for(|d| cand.values[d]);
        self.binned
            .and_selected_into((0..dims).map(|d| sel.q_pick(d)), &mut self.scratch.q);
        self.scratch.q.count_ones()
    }

    /// BIG phase 2: the exact per-shard partial score — the number of
    /// shard rows the candidate dominates. Mirrors one shard term of
    /// [`parallel`](crate::parallel)'s sharded BIG-Score, with the
    /// incomparable window computed locally instead of sliced globally.
    pub fn big_partial(&mut self, cand: &ShardCandidate) -> usize {
        let mask = Self::mask_of(&cand.values);
        let f = self.f_window(mask).clone();
        let ds = &self.ds;
        let sc = &mut self.scratch;
        let sel = self.index.select_for(|d| cand.values[d]);
        self.index.q_into_selected(&sel, cand.member, &mut sc.q);
        self.index.p_into_selected(&sel, &mut sc.p);
        // G contribution: |P ∧ ¬F| against the local incomparable window.
        let g = sc.p.and_not_count(&f);
        let mut q_minus_p = 0usize;
        let mut non_d = 0usize;
        for lpid in sc.q.iter_ones_and_not(&sc.p) {
            q_minus_p += 1;
            let common = mask.and(ds.mask(lpid as ObjectId));
            // Tie iff equal on every commonly observed dimension.
            let all_equal = common.iter().all(|d| {
                let slot = sel.eq_slot(d);
                slot != 0 && slot == self.index.value_slot(lpid, d)
            });
            if all_equal {
                non_d += 1;
            }
        }
        g + q_minus_p - non_d
    }

    /// IBIG phase 2: the exact per-shard partial score off the binned
    /// index — fused `Q`/`P`, then B+-tree probes resolving the binned
    /// residue, exactly one shard term of the sharded IBIG-Score. No
    /// Heuristic-3 early exit (the budget is global; see module docs).
    pub fn ibig_partial(&mut self, cand: &ShardCandidate) -> usize {
        let mask = Self::mask_of(&cand.values);
        let f = self.f_window(mask).clone();
        let ds = &self.ds;
        let dims = ds.dims();
        let sc = &mut self.scratch;
        let sel = self.binned.select_for(|d| cand.values[d]);
        self.binned
            .and_selected_into((0..dims).map(|d| sel.q_pick(d)), &mut sc.q);
        if let Some(member) = cand.member {
            sc.q.clear(member);
        }
        self.binned
            .and_selected_into((0..dims).map(|d| sel.p_pick(d)), &mut sc.p);
        let g = sc.p.and_not_count(&f);
        let mut non_d = 0usize;
        sc.stamps.next_object();
        // (a) Same-bin rows strictly better than the candidate somewhere
        //     cannot be dominated: value-based B+-tree probes.
        for dim in mask.iter() {
            let v = cand.values[dim].expect("masked dimension is observed");
            for lpid in self.binned.ids_below_in_bin(dim, v, true) {
                let lpid = lpid as usize;
                if sc.q.get(lpid) && !sc.p.get(lpid) && sc.stamps.mark_nond(lpid) {
                    non_d += 1;
                }
            }
        }
        // (b) tagT accumulation: same-value probes per dimension.
        for dim in mask.iter() {
            let v = cand.values[dim].expect("masked dimension is observed");
            for lpid in self.binned.ids_equal(dim, v) {
                let lpid = lpid as usize;
                if Some(lpid) != cand.member && sc.q.get(lpid) && !sc.p.get(lpid) {
                    sc.stamps.bump_tag(lpid);
                }
            }
        }
        // Members of Q − P tying the candidate on all common dimensions.
        let mut q_minus_p = 0usize;
        for lpid in sc.q.iter_ones_and_not(&sc.p) {
            q_minus_p += 1;
            if sc.stamps.is_nond(lpid) {
                continue;
            }
            let common = mask.and(ds.mask(lpid as ObjectId)).count();
            if sc.stamps.tag_of(lpid) == common {
                non_d += 1;
            }
        }
        g + q_minus_p - non_d
    }
}

/// The coordinator's replay-merge: the sequential driver's bounded top-k
/// and τ, consumed in queue order from per-candidate [`Outcome`]s the
/// coordinator assembled out of shard answers.
///
/// The discipline (identical to the in-process merger):
/// 1. at each queue position, check [`h1_prunes`](Self::h1_prunes)
///    against the candidate's `MaxScore` — if it fires, call
///    [`terminate`](Self::terminate) and stop (Heuristic-1 position is
///    exact, because the replayed τ *is* the sequential τ here);
/// 2. otherwise [`absorb`](Self::absorb) the candidate's outcome;
/// 3. [`finish`](Self::finish) yields the final `TkdResult`.
pub struct ClusterReplay {
    top: TopK,
    stats: PruneStats,
}

impl ClusterReplay {
    /// Start a replay for a top-`k` query.
    pub fn new(k: usize) -> ClusterReplay {
        ClusterReplay {
            top: TopK::new(k),
            stats: PruneStats::default(),
        }
    }

    /// The current k-th score lower bound (`None` until the candidate set
    /// is full) — broadcast to workers as the tightening τ.
    pub fn tau(&self) -> Option<usize> {
        self.top.tau()
    }

    /// Heuristic 1: would the sequential driver terminate at a candidate
    /// with this `MaxScore`?
    pub fn h1_prunes(&self, max_score: usize) -> bool {
        self.top.prunes(max_score)
    }

    /// Record Heuristic-1 termination with `remaining` unvisited queue
    /// positions (including the one that fired).
    pub fn terminate(&mut self, remaining: usize) {
        self.stats.h1_pruned = remaining;
    }

    /// Replay one candidate's outcome in queue order.
    pub fn absorb(&mut self, id: ObjectId, outcome: Outcome) {
        match outcome {
            Outcome::PrunedBound | Outcome::PrunedBitmap => self.stats.h2_pruned += 1,
            Outcome::PrunedPartial => self.stats.h3_pruned += 1,
            Outcome::Score(s) => {
                self.stats.scored += 1;
                self.top.offer(id, s);
            }
        }
    }

    /// The final result: entries, scores, and tie order exactly as the
    /// sequential driver would produce them.
    pub fn finish(self) -> TkdResult {
        TkdResult::new(self.top.into_entries(), self.stats)
    }
}

/// The degenerate replays the sequential driver short-circuits: `k = 0`
/// or an empty queue answers empty with every position Heuristic-1
/// pruned. Coordinators must take the same early exit.
pub fn empty_replay(queue_len: usize) -> TkdResult {
    TkdResult::new(
        Vec::new(),
        PruneStats {
            h1_pruned: queue_len,
            ..PruneStats::default()
        },
    )
}

/// Slice a dataset's rows `[lo, hi)` into a dense shard dataset — the
/// reference row partition used when seeding a cluster from one dataset
/// (stable ids `lo..hi` map to local rows `0..hi-lo`).
pub fn shard_rows(ds: &Dataset, lo: usize, hi: usize) -> Dataset {
    let ids: Vec<ObjectId> = (lo..hi).map(|i| i as ObjectId).collect();
    ds.select(&ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ShardPlan;
    use crate::preprocess::Preprocessed;
    use crate::query::{Algorithm, TkdQuery};
    use tkd_model::fixtures;

    fn mix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn random_dataset(seed: u64, n: usize, dims: usize, missing_pct: u64) -> Dataset {
        let mut s = seed;
        let mut rows = Vec::with_capacity(n);
        while rows.len() < n {
            let row: Vec<Option<f64>> = (0..dims)
                .map(|_| {
                    if mix(&mut s) % 100 < missing_pct {
                        None
                    } else {
                        Some((mix(&mut s) % 6) as f64)
                    }
                })
                .collect();
            if row.iter().any(Option::is_some) {
                rows.push(row);
            }
        }
        Dataset::from_rows(dims, &rows).expect("valid rows")
    }

    fn scorers_for(ds: &Dataset, shards: usize) -> (ShardPlan, Vec<ShardScorer>) {
        let plan = ShardPlan::new(ds.len(), shards);
        let scorers = (0..plan.count())
            .map(|j| ShardScorer::new(shard_rows(ds, plan.lo(j), plan.hi(j))))
            .collect();
        (plan, scorers)
    }

    fn candidate_for(ds: &Dataset, plan: &ShardPlan, o: usize, j: usize) -> ShardCandidate {
        ShardCandidate {
            values: (0..ds.dims()).map(|d| ds.value(o as ObjectId, d)).collect(),
            member: plan.local_of(j, o),
        }
    }

    /// Σ per-shard partials must equal the exact global score for every
    /// object, both scoring flavors, across shard counts and missing
    /// rates.
    #[test]
    fn partials_sum_to_exact_scores() {
        let mut datasets = vec![fixtures::fig3_sample()];
        for missing in [10u64, 30, 60] {
            datasets.push(random_dataset(1000 + missing, 70, 3, missing));
        }
        for ds in &datasets {
            let n = ds.len();
            // k = n surfaces every object's exact score.
            let all = TkdQuery::new(n).algorithm(Algorithm::Big).run(ds);
            let score_of: std::collections::HashMap<u32, usize> =
                all.iter().map(|e| (e.id, e.score)).collect();
            for shards in [1usize, 2, 3] {
                let (plan, mut scorers) = scorers_for(ds, shards);
                for o in 0..n {
                    let want = score_of[&(o as u32)];
                    let mut big = 0usize;
                    let mut ibig = 0usize;
                    for (j, scorer) in scorers.iter_mut().enumerate() {
                        let cand = candidate_for(ds, &plan, o, j);
                        big += scorer.big_partial(&cand);
                        ibig += scorer.ibig_partial(&cand);
                    }
                    assert_eq!(big, want, "BIG o={o} shards={shards}");
                    assert_eq!(ibig, want, "IBIG o={o} shards={shards}");
                }
            }
        }
    }

    /// The phase-1 answers are sound Heuristic-2 certificates: BIG's
    /// summed bound is an upper bound on `|Q|`; IBIG's summed count makes
    /// `MaxBitScore = Σ − 1 ≥ score`.
    #[test]
    fn phase1_bounds_are_sound() {
        let ds = random_dataset(77, 60, 3, 30);
        let n = ds.len();
        let all = TkdQuery::new(n).algorithm(Algorithm::Big).run(&ds);
        let score_of: std::collections::HashMap<u32, usize> =
            all.iter().map(|e| (e.id, e.score)).collect();
        for shards in [1usize, 2, 3] {
            let (plan, mut scorers) = scorers_for(&ds, shards);
            for o in 0..n {
                let mut big_ub = 0usize;
                let mut ibig_q = 0usize;
                for (j, scorer) in scorers.iter_mut().enumerate() {
                    let cand = candidate_for(&ds, &plan, o, j);
                    big_ub += scorer.big_bound(&cand);
                    ibig_q += scorer.ibig_q_count(&cand);
                }
                let score = score_of[&(o as u32)];
                // Both phase-1 sums count o's own bit once, so the bound
                // on the score is `sum − 1`.
                assert!(big_ub > score, "BIG bound ≥ score (o={o})");
                assert!(ibig_q > score, "MaxBitScore ≥ score (o={o})");
            }
        }
    }

    /// A reference coordinator drive: the full phase-1 → H2 → phase-2 →
    /// replay pipeline in-process. Entries must be bit-identical to the
    /// sequential engines, and the H1 position exact — the same pin
    /// `tests/cluster_parity.rs` applies over sockets.
    fn drive(ds: &Dataset, shards: usize, k: usize, alg: Algorithm) -> TkdResult {
        let pre = Preprocessed::build(ds);
        let queue = pre.queue();
        if k == 0 || queue.is_empty() {
            return empty_replay(queue.len());
        }
        let (plan, mut scorers) = scorers_for(ds, shards);
        let mut replay = ClusterReplay::new(k);
        for (t, &(o, max_score)) in queue.iter().enumerate() {
            if replay.h1_prunes(max_score) {
                replay.terminate(queue.len() - t);
                break;
            }
            let tau = replay.tau();
            let cands: Vec<ShardCandidate> = (0..plan.count())
                .map(|j| candidate_for(ds, &plan, o as usize, j))
                .collect();
            let outcome = match alg {
                Algorithm::Big => {
                    let bound: usize = scorers
                        .iter()
                        .zip(&cands)
                        .map(|(s, c)| s.big_bound(c))
                        .sum();
                    if matches!(tau, Some(t) if bound <= t + 1) {
                        Outcome::PrunedBitmap
                    } else {
                        Outcome::Score(
                            scorers
                                .iter_mut()
                                .zip(&cands)
                                .map(|(s, c)| s.big_partial(c))
                                .sum(),
                        )
                    }
                }
                _ => {
                    let total_q: usize = scorers
                        .iter_mut()
                        .zip(&cands)
                        .map(|(s, c)| s.ibig_q_count(c))
                        .sum();
                    if matches!(tau, Some(t) if total_q - 1 <= t) {
                        Outcome::PrunedBitmap
                    } else {
                        Outcome::Score(
                            scorers
                                .iter_mut()
                                .zip(&cands)
                                .map(|(s, c)| s.ibig_partial(c))
                                .sum(),
                        )
                    }
                }
            };
            replay.absorb(o, outcome);
        }
        replay.finish()
    }

    #[test]
    fn reference_drive_matches_sequential_engines() {
        let mut datasets = vec![fixtures::fig3_sample()];
        for missing in [10u64, 30, 60] {
            datasets.push(random_dataset(4000 + missing, 60, 3, missing));
        }
        for ds in &datasets {
            let n = ds.len();
            for alg in [Algorithm::Big, Algorithm::Ibig] {
                for shards in [1usize, 2, 3] {
                    for k in [0usize, 1, 2, n - 1, n, n + 3] {
                        let got = drive(ds, shards, k, alg);
                        let want = TkdQuery::new(k).algorithm(alg).run(ds);
                        assert_eq!(
                            got.entries(),
                            want.entries(),
                            "{alg:?} shards={shards} k={k}"
                        );
                        assert_eq!(
                            got.stats.h1_pruned, want.stats.h1_pruned,
                            "H1 position is exact ({alg:?} shards={shards} k={k})"
                        );
                    }
                }
            }
        }
    }

    /// Empty shards (every row deleted from one range) score as zero
    /// everywhere and never disturb the sum.
    #[test]
    fn empty_shard_is_inert() {
        let ds = fixtures::fig3_sample();
        let empty = Dataset::from_rows(ds.dims(), &[]).expect("empty dataset");
        let mut scorer = ShardScorer::new(empty);
        let cand = ShardCandidate {
            values: (0..ds.dims()).map(|d| ds.value(0, d)).collect(),
            member: None,
        };
        assert_eq!(scorer.big_bound(&cand), 0);
        assert_eq!(scorer.ibig_q_count(&cand), 0);
        assert_eq!(scorer.big_partial(&cand), 0);
        assert_eq!(scorer.ibig_partial(&cand), 0);
    }
}
