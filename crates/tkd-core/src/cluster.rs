//! Cross-process building block for the sharded cluster: why per-shard
//! scoring against **value-based candidates** adds up.
//!
//! # Why per-shard partials reconstruct the exact answer
//!
//! A dominating score is a sum of pairwise comparisons, so for *any*
//! partition of the live rows into shards, `score(o) = Σⱼ partialⱼ(o)`
//! where `partialⱼ(o)` counts the shard-j rows `o` dominates. A shard's
//! [`DynamicEngine`](crate::DynamicEngine) runs the **same terms** the
//! in-process engines score with — [`crate::big`]'s `term_counts`, at
//! the exact picks for BIG and the binned ones for IBIG — against its own
//! index, from **local state only**: the indexes it maintains under
//! updates anyway, its live rows' count per observation mask, and its
//! own scratch. So a shard worker in another process needs nothing
//! global to score a candidate shipped as raw dimension values, keeps no
//! second copy of its rows to do it, and no scoring code exists twice.
//!
//! The division of labor over the wire:
//!
//! * a **shard engine** answers two questions per candidate, phase by
//!   phase ([`big_bound`] / [`ibig_q_count`], then [`big_partial`] /
//!   [`ibig_partial`]): its exact `|∩ᵢ Qᵢ|` count (at the exact picks
//!   for BIG, the binned ones for IBIG) for the coordinator's cross-shard
//!   Heuristic-2 decision, and the exact per-shard partial score;
//! * the **coordinator** owns the candidate queue, sums the per-shard
//!   answers, and drives a [`Replay`](crate::Replay) in queue order — the
//!   one traversal state machine every engine uses, so entries, scores,
//!   and tie order are bit-identical to the in-process engines, and
//!   Heuristic-1 termination fires at the exact sequential position.
//!
//! Heuristic 2 across shards is the in-process one. `Q` is a row set
//! and the shards partition the rows, so `Σⱼ |∩ᵢ Qᵢ|ⱼ` is the unsharded
//! count, a member candidate's own bit included exactly once, in its
//! home shard; the coordinator prunes when `Σ − 1 ≤ τ`, the in-process
//! `MaxBitScore(o) ≤ τ`. At a given τ, BIG's cross-shard decisions are
//! therefore the sequential walk's. Heuristic 3 (partial-score budget)
//! is intentionally **not** applied across shards — it would need
//! mid-scan budget exchange per candidate, so the terms run on an
//! unlimited budget. A coordinator that scores a chunk of candidates
//! against the τ at the chunk's start can only prune less than the
//! sequential walk, so only the `h2/h3/scored` counters may differ from
//! a sequential run, never the entries. (IBIG's phase-1 count reads each
//! shard's own frozen bin boundaries, so its counters also depend on the
//! shards' update histories.)
//! `tests/cluster_parity.rs` pins that equivalence over real sockets; the
//! tests here pin it in-process, `tests/shard_scoring.rs` on engines
//! mutated under random op streams.
//!
//! # Heuristic 2 on the coordinator
//!
//! Some Heuristic 2 decisions never reach a shard. The coordinator keeps
//! [`PairCounts`]: per pair of dimensions, a histogram of the live rows
//! over a value grid, maintained per op, whose 2-D suffix sums are
//! [`PairTables`] — the lookup the exact index runs, derived from rows
//! instead of columns. A candidate's value rounds down to a threshold,
//! a superset of its `Qᵢ`, so every entry bounds `Σⱼ |∩ᵢ Qᵢ|ⱼ` from
//! above; an entry `≤ τ + 1` is a prune without a frame. For BIG that
//! is the prune the bounds phase would make at the same τ. For IBIG the
//! tables bound the exact-pick count, which is at most the binned one,
//! so the coordinator may prune a candidate the shards would have
//! scored or H3-pruned: the entries and `h1_pruned` stay, and only the
//! `h2/h3/scored` counters move — as they already may for IBIG.
//!
//! [`big_bound`]: crate::DynamicEngine::big_bound
//! [`ibig_q_count`]: crate::DynamicEngine::ibig_q_count
//! [`big_partial`]: crate::DynamicEngine::big_partial
//! [`ibig_partial`]: crate::DynamicEngine::ibig_partial

use crate::maxscore::{max_scores_sharing, queue_from_scores, DimCounts, ValueCounts};
use tkd_index::{for_each_sorted_column, PairTables};
use tkd_model::{Dataset, ObjectId, Row, MAX_DIMS};

pub use crate::topk::Outcome;

/// Grid cells per dimension: up to `CELLS − 1` thresholds, the missing
/// cells in the top cell.
const CELLS: usize = PairTables::CELLS;

/// Per pair of dimensions, the live rows counted over a value grid — the
/// coordinator's Heuristic 2 tables, kept from rows alone (see the module
/// docs). The grid is fixed at construction: any grid is sound, and
/// rows that move only change how tight it is.
#[derive(Clone, Debug)]
pub struct PairCounts {
    /// Per dimension, the ascending thresholds ([`ValueCounts::grid`]).
    grid: Vec<Vec<f64>>,
    /// Per pair `i < j`, `CELLS × CELLS` row counts, laid out as
    /// [`PairTables::from_row_histograms`] reads them.
    hist: Vec<u32>,
    /// The suffix sums of `hist`; `None` after a change until
    /// [`PairCounts::refresh`].
    tables: Option<PairTables>,
}

impl PairCounts {
    /// The histograms of every row of `ds` on the grid `counts` gives
    /// (any grid is sound); the tables are derived. Each dimension's
    /// cells come from one sweep of its sorted column against its
    /// thresholds.
    pub fn new(ds: &Dataset, counts: &ValueCounts) -> PairCounts {
        let grid = counts.grid(CELLS);
        let mut cells = vec![MISSING_CELL; ds.len() * ds.dims()];
        for_each_sorted_column(ds, |dim, column| {
            lay_cells(column, &grid[dim], dim, ds.dims(), &mut cells);
        });
        PairCounts::from_cells(grid, &cells)
    }

    /// The histograms of the rows of `cells`, a row-major table of grid
    /// cells, one pass over it; the tables are derived.
    fn from_cells(grid: Vec<Vec<f64>>, cells: &[u8]) -> PairCounts {
        let dims = grid.len();
        let mut pairs = PairCounts {
            grid,
            hist: vec![0; dims * dims.saturating_sub(1) / 2 * CELLS * CELLS],
            tables: None,
        };
        for row in cells.chunks_exact(dims) {
            pairs.add_cells(row, 1);
        }
        pairs.refresh();
        pairs
    }

    /// Per dimension, the thresholds of the grid.
    pub fn grid(&self) -> &[Vec<f64>] {
        &self.grid
    }

    /// The tables, if [`PairCounts::refresh`] ran since the last change;
    /// none below two dimensions.
    pub fn tables(&self) -> Option<&PairTables> {
        self.tables.as_ref()
    }

    /// The grid cell of a cell of `dim`: the thresholds at or below an
    /// observed value, the top cell for a missing one.
    fn cell(&self, dim: usize, value: Option<f64>) -> usize {
        value.map_or(CELLS - 1, |v| {
            self.grid[dim].iter().filter(|&&t| t <= v).count()
        })
    }

    /// Add `delta` (±1) to the histograms at `row`'s cells.
    fn count(&mut self, row: Row<'_>, delta: i32) {
        let dims = self.grid.len();
        let mut cells = [0u8; MAX_DIMS];
        for (d, c) in cells[..dims].iter_mut().enumerate() {
            *c = self.cell(d, row.value(d)) as u8;
        }
        self.add_cells(&cells[..dims], delta);
        self.tables = None;
    }

    /// Add `delta` (±1) to every pair histogram at one row's `cells`.
    fn add_cells(&mut self, cells: &[u8], delta: i32) {
        let mut at = 0;
        for (i, &ci) in cells.iter().enumerate() {
            let ci = usize::from(ci) * CELLS;
            for &cj in &cells[i + 1..] {
                let n = &mut self.hist[at + ci + usize::from(cj)];
                *n = n.wrapping_add_signed(delta);
                at += CELLS * CELLS;
            }
        }
    }

    /// Count `row` in.
    pub fn insert(&mut self, row: Row<'_>) {
        self.count(row, 1);
    }

    /// Count `row` out; it must have been counted in.
    pub fn remove(&mut self, row: Row<'_>) {
        self.count(row, -1);
    }

    /// Move a counted row whose cell of `dim` was `old` into its current
    /// cells: `row` is the row after the change.
    pub fn set(&mut self, row: Row<'_>, dim: usize, old: Option<f64>) {
        let dims = self.grid.len();
        let (from, to) = (self.cell(dim, old), self.cell(dim, row.value(dim)));
        if from == to {
            return;
        }
        for other in (0..dims).filter(|&d| d != dim) {
            let c = self.cell(other, row.value(other));
            let (i, j, cells) = if dim < other {
                (dim, other, [from * CELLS + c, to * CELLS + c])
            } else {
                (other, dim, [c * CELLS + from, c * CELLS + to])
            };
            let pair = i * (2 * dims - i - 1) / 2 + j - i - 1;
            let h = &mut self.hist[pair * CELLS * CELLS..][..CELLS * CELLS];
            h[cells[0]] -= 1;
            h[cells[1]] += 1;
        }
        self.tables = None;
    }

    /// Derive the tables from the histograms, if a change dropped them.
    pub fn refresh(&mut self) {
        if self.tables.is_none() {
            let grid: Vec<usize> = self.grid.iter().map(Vec::len).collect();
            self.tables = PairTables::from_row_histograms(&grid, &self.hist);
        }
    }

    /// Whether the tables bound the count of the live rows in every `Qᵢ`
    /// of a candidate with `row`'s values by `budget`: then its
    /// `Σⱼ |∩ᵢ Qᵢ|ⱼ ≤ budget`. Each observed value rounds down to a
    /// threshold, its cell; a missing one takes no part. `false` while
    /// the tables are stale.
    pub fn prunes(&self, row: Row<'_>, budget: usize) -> bool {
        let Some(tables) = &self.tables else {
            return false;
        };
        let dims = self.grid.len();
        let mut picks = [0u32; MAX_DIMS];
        for (d, v) in row.observed() {
            picks[d] = self.cell(d, Some(v)) as u32;
        }
        tables.prunes(&picks[..dims], budget)
    }
}

/// The top grid cell, where every missing cell falls.
const MISSING_CELL: u8 = (CELLS - 1) as u8;

/// Write the grid cell of every entry of dimension `dim`'s sorted column
/// into the row-major `cells` table of `dims` columns: one sweep, the
/// cell rising past each threshold at or below the value.
fn lay_cells(
    column: &[(f64, ObjectId)],
    thresholds: &[f64],
    dim: usize,
    dims: usize,
    cells: &mut [u8],
) {
    let mut cell = 0;
    for &(v, o) in column {
        while thresholds.get(cell).is_some_and(|&t| t <= v) {
            cell += 1;
        }
        cells[o as usize * dims + dim] = cell as u8;
    }
}

/// The coordinator's counts over every row of `ds` — the value counts,
/// the queue `F` and the pair histograms on the grid the counts give —
/// from one sorted column per dimension (§4.2's preprocessing order).
/// Each column yields its dimension's count table (bulk-built from its
/// runs), every row's `|Tᵢ|` toward its `MaxScore`, the dimension's grid
/// and every row's cell on it; the histograms then take one pass over
/// the `u8` cell table. Equal to [`ValueCounts::new`], its
/// [`ValueCounts::queue`] over every row, and [`PairCounts::new`].
pub fn seed_counts(ds: &Dataset) -> (ValueCounts, Vec<(ObjectId, usize)>, PairCounts) {
    let (n, dims) = (ds.len(), ds.dims());
    let mut counts = Vec::with_capacity(dims);
    let mut grid = Vec::with_capacity(dims);
    let mut cells = vec![MISSING_CELL; n * dims];
    let scores = max_scores_sharing(ds, |dim, column| {
        let dim_counts = DimCounts::from_column(column, n);
        let thresholds = dim_counts.grid(CELLS);
        lay_cells(column, &thresholds, dim, dims, &mut cells);
        counts.push(dim_counts);
        grid.push(thresholds);
    });
    (
        ValueCounts { dims: counts },
        queue_from_scores(scores),
        PairCounts::from_cells(grid, &cells),
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
    use crate::dynamic::DynamicEngine;
    use crate::preprocess::Preprocessed;
    use crate::query::{Algorithm, TkdQuery};
    use crate::result::TkdResult;
    use crate::topk::walk_scored;
    use tkd_model::fixtures;

    /// A word-aligned partition of the id space into contiguous shards:
    /// interior boundaries are multiples of 64.
    #[derive(Clone, Debug)]
    struct ShardPlan {
        /// Shard start offsets; `starts[0] = 0`, `starts[count] = n`.
        starts: Vec<usize>,
    }

    impl ShardPlan {
        /// Partition `n` objects into (at most) `shards` word-aligned,
        /// balanced, non-empty shards (an empty dataset yields one empty
        /// shard).
        fn new(n: usize, shards: usize) -> Self {
            let words = n.div_ceil(64);
            let count = shards.clamp(1, words.max(1));
            let (base, rem) = (words / count, words % count);
            let mut starts = vec![0];
            let mut w = 0usize;
            for j in 0..count {
                w += base + usize::from(j < rem);
                starts.push((w * 64).min(n));
            }
            ShardPlan { starts }
        }

        fn count(&self) -> usize {
            self.starts.len() - 1
        }

        fn lo(&self, j: usize) -> usize {
            self.starts[j]
        }

        fn hi(&self, j: usize) -> usize {
            self.starts[j + 1]
        }

        /// Local id of global `id` within shard `j`, `None` when outside.
        fn local_of(&self, j: usize, id: usize) -> Option<usize> {
            (self.lo(j)..self.hi(j))
                .contains(&id)
                .then(|| id - self.lo(j))
        }
    }

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
            assert_eq!(p.lo(0), 0);
            assert_eq!(p.hi(p.count() - 1), n, "n={n} shards={shards}");
            for j in 0..p.count() {
                assert!(p.lo(j) < p.hi(j) || n == 0, "empty shard {j} (n={n})");
                assert_eq!(p.lo(j) % 64, 0, "unaligned shard start");
                if j + 1 < p.count() {
                    assert_eq!(p.hi(j), p.lo(j + 1));
                }
            }
            for id in 0..n {
                let homes: Vec<usize> = (0..p.count())
                    .filter(|&j| p.local_of(j, id).is_some())
                    .collect();
                assert_eq!(homes.len(), 1, "id {id} (n={n})");
                assert_eq!(p.lo(homes[0]) + p.local_of(homes[0], id).unwrap(), id);
            }
        }
    }

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

    fn scorers_for(ds: &Dataset, shards: usize) -> (ShardPlan, Vec<DynamicEngine>) {
        let plan = ShardPlan::new(ds.len(), shards);
        let scorers = (0..plan.count())
            .map(|j| DynamicEngine::new(shard_rows(ds, plan.lo(j), plan.hi(j))))
            .collect();
        (plan, scorers)
    }

    /// Candidate `o`'s stable id on shard `j`, when it lives there (a
    /// fresh engine numbers its rows in order).
    fn member_of(plan: &ShardPlan, j: usize, o: usize) -> Option<ObjectId> {
        plan.local_of(j, o).map(|row| row as ObjectId)
    }

    fn values_of(ds: &Dataset, o: usize) -> Vec<Option<f64>> {
        (0..ds.dims()).map(|d| ds.value(o as ObjectId, d)).collect()
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
                    let values = values_of(ds, o);
                    for (j, scorer) in scorers.iter_mut().enumerate() {
                        let member = member_of(&plan, j, o);
                        big += scorer.big_partial(&values, member).unwrap();
                        ibig += scorer.ibig_partial(&values, member).unwrap();
                    }
                    assert_eq!(big, want, "BIG o={o} shards={shards}");
                    assert_eq!(ibig, want, "IBIG o={o} shards={shards}");
                }
            }
        }
    }

    /// The phase-1 answers are exact Heuristic-2 counts: BIG's sum over
    /// 1–3 shards is the unsharded `|∩ᵢ Qᵢ|` — brute-forced here, own
    /// bit included — and IBIG's summed count makes `MaxBitScore = Σ − 1
    /// ≥ score`.
    #[test]
    fn phase1_bounds_are_sound() {
        let ds = random_dataset(77, 60, 3, 30);
        let n = ds.len();
        let all = TkdQuery::new(n).algorithm(Algorithm::Big).run(&ds);
        let score_of: std::collections::HashMap<u32, usize> =
            all.iter().map(|e| (e.id, e.score)).collect();
        for shards in [1usize, 2, 3] {
            let (_, mut scorers) = scorers_for(&ds, shards);
            for o in 0..n {
                let values = values_of(&ds, o);
                let q = (0..n)
                    .filter(|&p| {
                        let row = values_of(&ds, p);
                        (0..ds.dims()).all(|d| match (values[d], row[d]) {
                            (Some(v), Some(x)) => x >= v,
                            _ => true,
                        })
                    })
                    .count();
                let mut big_q = 0usize;
                let mut ibig_q = 0usize;
                for scorer in &mut scorers {
                    big_q += scorer.big_bound(&values);
                    ibig_q += scorer.ibig_q_count(&values);
                }
                assert_eq!(big_q, q, "BIG Σ|Q| (o={o} shards={shards})");
                // The sum counts o's own bit once, so the bound on the
                // score is `sum − 1`.
                let score = score_of[&(o as u32)];
                assert!(big_q > score, "BIG MaxBitScore ≥ score (o={o})");
                assert!(ibig_q > score, "IBIG MaxBitScore ≥ score (o={o})");
            }
        }
    }

    /// A reference coordinator drive: the full phase-1 → H2 → phase-2 →
    /// replay pipeline in-process. Entries must be bit-identical to the
    /// sequential engines, and the H1 position exact — the same pin
    /// `tests/cluster_parity.rs` applies over sockets.
    fn drive(ds: &Dataset, shards: usize, k: usize, alg: Algorithm) -> TkdResult {
        let pre = Preprocessed::build(ds);
        let (plan, mut scorers) = scorers_for(ds, shards);
        walk_scored(pre.queue(), k, |o, tau| {
            let values = values_of(ds, o as usize);
            let member = |j| member_of(&plan, j, o as usize);
            let total_q: usize = scorers
                .iter_mut()
                .map(|s| match alg {
                    Algorithm::Big => s.big_bound(&values),
                    _ => s.ibig_q_count(&values),
                })
                .sum();
            let pruned = matches!(tau, Some(t) if total_q - 1 <= t);
            if pruned {
                return Outcome::PrunedBitmap;
            }
            let partials = scorers.iter_mut().enumerate().map(|(j, s)| match alg {
                Algorithm::Big => s.big_partial(&values, member(j)).unwrap(),
                _ => s.ibig_partial(&values, member(j)).unwrap(),
            });
            Outcome::Score(partials.sum())
        })
    }

    /// 64 loose-`MaxScore` decoys `(0, 100)` ahead of the real winner
    /// `(1, 1)` at row 64, which dominates the 63 `(2, 2)` rows behind it.
    /// Cut at 2 shards the decoys fill shard 0 and set τ = 0 while the
    /// winner's `Q` is empty there and 63 in shard 1 — the case on which a
    /// cross-shard Heuristic 2 once dropped the true top-1.
    fn budget_saturation_dataset() -> Dataset {
        let mut rows = vec![vec![Some(0.0), Some(100.0)]; 64];
        rows.push(vec![Some(1.0), Some(1.0)]);
        rows.extend(std::iter::repeat_n(vec![Some(2.0), Some(2.0)], 63));
        Dataset::from_rows(2, &rows).expect("valid rows")
    }

    #[test]
    fn reference_drive_matches_sequential_engines() {
        let mut datasets = vec![fixtures::fig3_sample(), budget_saturation_dataset()];
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
                        // BIG's summed count is the unsharded one, so at
                        // the walk's per-candidate τ every H2 decision is
                        // the sequential one.
                        if alg == Algorithm::Big {
                            assert_eq!(
                                got.stats, want.stats,
                                "BIG prune counters (shards={shards} k={k})"
                            );
                        }
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
        let mut scorer = DynamicEngine::new(empty);
        let values = values_of(&ds, 0);
        assert_eq!(scorer.big_bound(&values), 0);
        assert_eq!(scorer.ibig_q_count(&values), 0);
        assert_eq!(scorer.big_partial(&values, None), Ok(0));
        assert_eq!(scorer.ibig_partial(&values, None), Ok(0));
    }
}
