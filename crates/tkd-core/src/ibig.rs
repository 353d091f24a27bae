//! IBIG — the Improved BIG algorithm (§4.4–4.5, Algorithm 5).
//!
//! IBIG trades query time for index space: columns come from the **binned**
//! bitmap index (one bit per value range, Eq. 3–4). Binning coarsens
//! `[Qᵢ]`/`[Pᵢ]`, so `Q − P` now holds *same-bin* objects whose values may
//! even be better than `o`'s; §4.5 resolves those through per-dimension
//! tree probes and counts them into `nonD(o)`. While `nonD` grows,
//! **Heuristic 3** (partial score pruning) abandons objects early:
//! `score(o) = |Q| − |F(o)| − |nonD(o)|` can only shrink as `nonD` grows, so
//! once `|nonD| > |Q| − |F| − τ` the object is out.
//!
//! # One index, one term
//!
//! The binned index is a view: bin boundaries over the exact index,
//! whose columns at the boundaries' value slots are the binned columns
//! ([`BinnedBitmapIndex`]). So IBIG scores on the exact index's dense
//! columns, on every surface — static contexts, the parallel engine, the
//! dynamic engine and every cluster shard — and the §4.5 probes are
//! AND-NOTs over them. A row of `Q − P` sits in the candidate's bin below
//! it in dimension `i` iff it is in the bin's lowest column and not in the
//! candidate's own exact `[Qᵢ]`; it ties the candidate on every common
//! dimension iff it is in each `[Qᵢ] ∧ ¬[Pᵢ]` or missing column. Both are
//! counted in one fused word pass, the one BIG's residue runs
//! ([`tkd_index::BitmapIndex::residue_counts`]): `crate::big`'s
//! `term_counts` is the term of both algorithms, BIG being the case where
//! the bin of a value is the value. At 50 000 × 8 (C = 100, σ = 0.1,
//! `x* = 21`, k = 64, 2-vCPU host) this took a static-context IBIG query
//! from 21.0–22.0 ms with `BTreeSet` probes and epoch-stamped
//! `nonD`/`tagT` tables to 5.5–6.3 ms, every `PruneStats` counter
//! unchanged (`docs/INTERNALS.md`).
//!
//! The paper stores the binned columns CONCISE-compressed and intersects
//! them on the compressed form. Algorithm 5's compressed intersections
//! are **measured, not executed**: Fig. 10 and Table 3 time the codecs,
//! and Fig. 11 and the `ablation` table report the CONCISE bytes of the
//! binned columns (`tkd-bench`).
//!
//! # Where the algorithm lives
//!
//! IBIG-Score (Algorithm 5) is written **once**, against one
//! [`BinnedBitmapIndex`], in BIG's two steps. `ibig_measure` counts `|Q|`
//! at the candidate's binned picks, read off its stored value slots
//! ([`BinnedBitmapIndex::selection_of`]), with the Heuristic 2 test BIG
//! runs — the exact index's pairwise tables first (binned picks are
//! exact columns, so the same tables bound them), then the budgeted
//! scan; only a candidate the test leaves to some replay reaches the
//! term. Unscoped, the index's binned memo lane goes before both
//! ([`BinnedBitmapIndex::member_count_above`]): the count and the term's
//! `nonD` depend on the row, the index and the boundaries, never on τ,
//! so a row pruned before at this budget or a lower one costs one load,
//! and a row scored before comes back whole — its term rebuilt from
//! `score(o) = |Q| − |F(o)| − |nonD(o)|` with no scan and no residue
//! pass. `ibig_decide` takes one
//! replay's Heuristic 2 decision on `|Q| − 1` and its Heuristic 3
//! decision on the term's `nonD`. Every in-process engine scores through
//! it: the sequential [`ibig_with_scratch`], and the engines' single
//! queries and batches (one walk for every IBIG query of a batch) at any
//! thread count, whose workers measure candidates of the one walk over
//! the same index while every decision is taken in queue order
//! ([`crate::parallel`]) — so entries, scores, tie order **and** every
//! `PruneStats` counter agree. A cluster worker
//! ([`crate::DynamicEngine::ibig_partial`]) calls the term alone with no
//! Heuristic-3 budget (Heuristic 3 needs the global τ). The traversal is
//! `crate::topk`'s `walk`.
//!
//! Like BIG, the scoring path is **allocation-free** after context build:
//! the binned memo lane is sized by the second IBIG walk over the index
//! ([`BinnedBitmapIndex::announce_walk`]) before its first lookup, a
//! survivor's `Q`/`P` intersections are written straight into the
//! caller's [`ScratchSpace`], and the residue pass writes nothing. An
//! [`IbigContext`]'s exact index so holds the binned lane only, an
//! engine only the lanes its queries walk, and a one-shot
//! `TkdQuery::run` context, which walks once, none.

use crate::big::{term_counts, Candidate, Measured, Term};
use crate::engine::{Columns, Scorer};
use crate::preprocess::Preprocessed;
use crate::query::BinChoice;
use crate::result::TkdResult;
use crate::scope::Scope;
use crate::scratch::ScratchSpace;
use crate::topk::{walk_one, Need, Outcome};
use std::borrow::Cow;
use tkd_index::{BinnedBitmapIndex, BitmapIndexBuilder, MemberCount};
use tkd_model::{Dataset, DimMask, ObjectId};

/// Precomputed inputs of Algorithm 5: the binned index plus the shared
/// [`Preprocessed`] artifacts.
pub struct IbigContext<'a> {
    ds: &'a Dataset,
    binned: BinnedBitmapIndex<'a>,
    pre: Cow<'a, Preprocessed>,
}

impl<'a> IbigContext<'a> {
    /// Build with explicit per-dimension bin counts.
    ///
    /// Each dimension is sorted once: the same column feeds the exact
    /// index and the queue; the boundaries are quantiles of the index's
    /// value counts.
    ///
    /// # Panics
    /// Panics if `bins_per_dim.len() != ds.dims()` or any entry is zero.
    pub fn build(ds: &'a Dataset, bins_per_dim: &[usize]) -> Self {
        assert_eq!(bins_per_dim.len(), ds.dims(), "one bin count per dimension");
        let mut index = BitmapIndexBuilder::new(ds.dims(), ds.len());
        let pre = Preprocessed::build_sharing(ds, |dim, column| index.push_dim(dim, column));
        IbigContext {
            ds,
            binned: BinnedBitmapIndex::owned(index.finish(), bins_per_dim),
            pre: Cow::Owned(pre),
        }
    }

    /// Build borrowing shared [`Preprocessed`] artifacts (see
    /// [`crate::big::BigContext::build_with`]).
    pub fn build_with(ds: &'a Dataset, bins_per_dim: &[usize], pre: &'a Preprocessed) -> Self {
        IbigContext {
            ds,
            binned: BinnedBitmapIndex::build(ds, bins_per_dim),
            pre: Cow::Borrowed(pre),
        }
    }

    /// Build with the Eq. 8 optimal bin count on every dimension.
    pub fn build_auto(ds: &'a Dataset) -> Self {
        Self::build(ds, &BinChoice::Auto.resolve(ds))
    }

    /// The binned index.
    pub fn index(&self) -> &BinnedBitmapIndex<'a> {
        &self.binned
    }

    /// The dataset this context was built for.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// The shared preprocessing artifacts (owned or borrowed).
    pub fn preprocessed(&self) -> &Preprocessed {
        &self.pre
    }

    /// A fresh [`ScratchSpace`] sized for this context's dataset.
    pub fn scratch(&self) -> ScratchSpace {
        ScratchSpace::new(self.ds.len())
    }

    /// IBIG-Score against this context's binned index.
    pub(crate) fn scorer(&self) -> Scorer<'_> {
        Scorer::new(
            self.ds.masks(),
            &self.pre,
            None,
            Columns::Ibig(&self.binned),
        )
    }
}

/// Answer a TKD query with IBIG using the Eq. 8 automatic bin count (the
/// paper's configuration).
pub fn ibig(ds: &Dataset, k: usize) -> TkdResult {
    let ctx = IbigContext::build_auto(ds);
    ibig_with(&ctx, k)
}

/// Answer a TKD query with IBIG and explicit bin counts.
pub fn ibig_with_bins(ds: &Dataset, k: usize, bins_per_dim: &[usize]) -> TkdResult {
    let ctx = IbigContext::build(ds, bins_per_dim);
    ibig_with(&ctx, k)
}

/// Algorithm 5's driver over a prebuilt context (allocates one scratch
/// space for the query; reuse [`ibig_with_scratch`] to avoid even that).
pub fn ibig_with(ctx: &IbigContext<'_>, k: usize) -> TkdResult {
    let mut scratch = ctx.scratch();
    ibig_with_scratch(ctx, k, &mut scratch)
}

/// Algorithm 5 over a prebuilt context and caller-owned scratch: the
/// steady-state path, performing zero heap allocations per visited object.
///
/// # Panics
/// Panics if `scratch` was sized for a different object count.
pub fn ibig_with_scratch(ctx: &IbigContext<'_>, k: usize, scratch: &mut ScratchSpace) -> TkdResult {
    walk_one(
        ctx.pre.queue(),
        k,
        std::slice::from_mut(scratch),
        &[],
        &ctx.scorer(),
    )
}

/// IBIG-Score (Algorithm 5) against the context's binned index.
#[cfg(test)]
fn ibig_score(
    ctx: &IbigContext<'_>,
    o: ObjectId,
    tau: Option<usize>,
    scratch: &mut ScratchSpace,
) -> Outcome {
    ctx.scorer().score(o, tau, scratch)
}

/// IBIG-Score's measure step (Algorithm 5) of member `o` of `ds` against
/// `index`: Heuristic 2 at the binned picks — at budget 0 while some
/// replay holds no τ, so the count comes back exact, else at the smallest
/// τ + 1 `need` names — and, unless that test prunes for every replay,
/// the term's counts. Unscoped, the test reads and feeds the index's
/// binned memo lane ([`BinnedBitmapIndex::member_count_above`]): a row
/// scored before comes back whole, its term rebuilt from its count and
/// `nonD`. With a `scope`, every set and count is ANDed with its rows and
/// the candidate is restricted to its dimensions (a constrained or
/// subspace query). Allocation-free.
#[inline]
pub(crate) fn ibig_measure(
    masks: &[DimMask],
    index: &BinnedBitmapIndex<'_>,
    pre: &Preprocessed,
    scope: Option<&Scope>,
    o: ObjectId,
    need: Need,
    scratch: &mut ScratchSpace,
) -> Measured {
    // Heuristic 2 — bitmap pruning (still sound under binning, §4.4), as
    // BIG takes it: o sits in every column it picks, so
    // MaxBitScore = |∩Qᵢ| − 1 ≤ τ reads |∩Qᵢ| ≤ τ + 1. Unscoped, the
    // binned memo lane decides first — a prune an earlier query proved
    // at this budget or a lower one, or the count and nonD of a row
    // scored before, cost one load; neither depends on τ — then the pair
    // tables or the budgeted scan, without writing Q. Scoped and subspace
    // walks bypass the lane.
    let rows = scope.map(|s| &s.rows);
    let budget = match need.tau {
        Some(t) if !need.unfilled => t + 1,
        _ => 0,
    };
    let exact = index.exact();
    let q = match scope {
        None => match index.member_count_above(o as usize, budget) {
            Some(MemberCount {
                count,
                non_d: Some(non_d),
            }) => {
                let f = pre.masks.incomparable(masks[o as usize]);
                return Some(Term::recalled(count, non_d, f));
            }
            measured => measured.map(|m| m.count),
        },
        Some(s) => {
            scratch.bin_sel = index.selection_of(o as usize);
            scratch.bin_sel.restrict(s.dims);
            exact.q_count_selected_above_scoped(&scratch.bin_sel, rows, budget)
        }
    };
    let count = q?;
    // Survivors only: the binned picks Q and P are filled at, and the
    // exact picks the residue pass compares against.
    scratch.bin_sel = index.selection_of(o as usize);
    scratch.sel = exact.selection_of(o as usize);
    if let Some(s) = scope {
        scratch.bin_sel.restrict(s.dims);
        scratch.sel.restrict(s.dims);
    }
    let cand = match scope {
        Some(s) => s.candidate(masks, o),
        None => Candidate::member(masks, pre, o),
    };
    let term = term_counts(exact, &cand, rows, scratch);
    debug_assert_eq!(count, term.count(), "scan and term agree");
    if scope.is_none() {
        index.record_non_d(o as usize, count, term.non_d);
    }
    Some(term)
}

/// IBIG-Score's decide step for a replay holding `tau`: Heuristic 2
/// prunes when `|∩ᵢ Qᵢ| ≤ τ + 1`, and Heuristic 3 when the `nonD` members
/// overdraw the budget `score(o) = |Q| − |F| − |nonD|` leaves above τ,
/// `|nonD| > |Q| − |F| − τ`. Nothing to beat until τ forms. A scoped
/// candidate's `|F|` counts inside the scope, as `Q` does: the unscoped
/// `|F|` would over-prune.
#[inline]
pub(crate) fn ibig_decide(m: &Measured, tau: Option<usize>) -> Outcome {
    let Some(term) = m else {
        return Outcome::PrunedBitmap;
    };
    match tau {
        Some(t) if term.count() <= t + 1 => Outcome::PrunedBitmap,
        Some(t) if term.non_d > term.q_minus_f.saturating_sub(t) => Outcome::PrunedPartial,
        _ => Outcome::Score(term.score()),
    }
}

/// The test oracle of IBIG-Score: a plain row scan over raw values and
/// the context's bin boundaries, sharing no column, kernel or probe with
/// the path under test. Heuristic 2 prunes on the rows other than `o` in
/// the same or a higher bin wherever `o` observes (missing passes);
/// Heuristic 3 on the rows of that `Q` outside `P` (strictly higher bins)
/// that `o` does not dominate — the paper's checks overdraw the budget at
/// some step iff the final count does.
#[cfg(test)]
fn ibig_score_alloc(ctx: &IbigContext<'_>, o: ObjectId, tau: Option<usize>) -> Outcome {
    let ds = ctx.ds;
    let bounds = ctx.index().boundaries();
    // 0-based bin of `v`: the first boundary at or above it, or the last
    // (open) one.
    let bin = |d: usize, v: f64| {
        let b = bounds.of(d);
        b.partition_point(|&ub| ub < v)
            .min(b.len().saturating_sub(1))
    };
    let binned = |r: ObjectId, keep: fn(usize, usize) -> bool| {
        ds.mask(o).iter().all(|d| {
            ds.value(r, d)
                .is_none_or(|w| keep(bin(d, w), bin(d, ds.raw_value(o, d))))
        })
    };
    let q: Vec<ObjectId> = ds
        .ids()
        .filter(|&r| r != o && binned(r, |b, a| b >= a))
        .collect();
    let max_bit_score = q.len();
    if matches!(tau, Some(t) if max_bit_score <= t) {
        return Outcome::PrunedBitmap;
    }
    let common = |r: ObjectId| ds.mask(o).and(ds.mask(r));
    let cells = |r: ObjectId| {
        let c = common(r);
        c.iter()
            .map(|d| (ds.raw_value(o, d), ds.raw_value(r, d)))
            .collect::<Vec<_>>()
    };
    let dominated = |r: ObjectId| {
        let c = cells(r);
        c.iter().all(|(a, b)| a <= b) && c.iter().any(|(a, b)| a < b)
    };
    let f = ds.ids().filter(|&r| common(r).is_empty()).count();
    let non_d = q
        .iter()
        .filter(|&&r| !binned(r, |b, a| b > a) && !dominated(r))
        .count();
    if matches!(tau, Some(t) if non_d > max_bit_score.saturating_sub(f).saturating_sub(t)) {
        return Outcome::PrunedPartial;
    }
    Outcome::Score(ds.ids().filter(|&r| r != o && dominated(r)).count())
}

/// Algorithm 5 driven by the allocating oracle scorer (test-only).
#[cfg(test)]
pub(crate) fn ibig_with_alloc(ctx: &IbigContext<'_>, k: usize) -> TkdResult {
    crate::topk::walk_scored(ctx.pre.queue(), k, |o, tau| ibig_score_alloc(ctx, o, tau))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive;
    use proptest::prelude::*;
    use tkd_model::fixtures;

    #[test]
    fn fig3_t2d_answer_with_fig9_bins() {
        let ds = fixtures::fig3_sample();
        let r = ibig_with_bins(&ds, 2, &[2, 2, 3, 3]);
        let mut labels: Vec<_> = r.iter().map(|e| ds.label(e.id).unwrap()).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["A2", "C2"]);
        assert_eq!(r.kth_score(), Some(16));
    }

    #[test]
    fn agrees_with_naive_across_bin_counts() {
        let ds = fixtures::fig3_sample();
        for bins in [1usize, 2, 3, 5, 7, 100] {
            for k in [1, 2, 3, 5] {
                let r = ibig_with_bins(&ds, k, &vec![bins; ds.dims()]);
                let b = naive(&ds, k);
                assert_eq!(r.scores(), b.scores(), "bins={bins} k={k}");
            }
        }
    }

    #[test]
    fn auto_bins_agree_with_naive() {
        for ds in [
            fixtures::fig2_points(),
            fixtures::fig3_sample(),
            fixtures::fig1_movies(),
        ] {
            for k in [1, 2, 3, 50] {
                assert_eq!(ibig(&ds, k).scores(), naive(&ds, k).scores(), "k={k}");
            }
        }
    }

    #[test]
    fn shared_preprocessing_gives_identical_results() {
        let ds = fixtures::fig3_sample();
        let pre = Preprocessed::build(&ds);
        let shared: IbigContext<'_> = IbigContext::build_with(&ds, &[2, 2, 3, 3], &pre);
        let owned: IbigContext<'_> = IbigContext::build(&ds, &[2, 2, 3, 3]);
        for k in [1, 2, 5] {
            let a = ibig_with(&shared, k);
            let b = ibig_with(&owned, k);
            assert_eq!(a.scores(), b.scores(), "k={k}");
            assert_eq!(a.stats, b.stats, "k={k}");
        }
    }

    #[test]
    fn exact_scores_for_every_object_with_one_bin() {
        // One bin per dimension is the worst case for binning: Q−P is huge
        // and everything funnels through the probes. Scores must still be
        // exact.
        let ds = fixtures::fig3_sample();
        let ctx: IbigContext<'_> = IbigContext::build(&ds, &[1, 1, 1, 1]);
        let mut scratch = ctx.scratch();
        for o in ds.ids() {
            match ibig_score(&ctx, o, None, &mut scratch) {
                Outcome::Score(s) => {
                    assert_eq!(
                        s,
                        tkd_model::dominance::score_of(&ds, o),
                        "{}",
                        ds.label(o).unwrap()
                    )
                }
                _ => panic!("no pruning possible with an empty candidate set"),
            }
        }
    }

    #[test]
    fn stats_account_for_everything() {
        let ds = fixtures::fig3_sample();
        for k in [1, 2, 4] {
            let r = ibig_with_bins(&ds, k, &[2, 2, 3, 3]);
            assert_eq!(r.stats.total(), ds.len(), "k={k}");
        }
    }

    /// Deterministic pseudo-random incomplete dataset (splitmix-style hash;
    /// no RNG dependency needed in tests).
    fn synth(seed: u64, n: usize, d: usize, card: u64, missing_pct: u64) -> tkd_model::Dataset {
        let mut h = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58476D1CE4E5B9);
            h ^= h >> 27;
            h = h.wrapping_mul(0x94D049BB133111EB);
            h ^= h >> 31;
            h
        };
        let mut rows = Vec::with_capacity(n);
        'outer: while rows.len() < n {
            let mut row = Vec::with_capacity(d);
            for _ in 0..d {
                if next() % 100 < missing_pct {
                    row.push(None);
                } else {
                    row.push(Some((next() % card) as f64));
                }
            }
            if row.iter().all(Option::is_none) {
                continue 'outer;
            }
            rows.push(row);
        }
        tkd_model::Dataset::from_rows(d, &rows).unwrap()
    }

    #[test]
    fn random_datasets_agree_with_naive_and_heuristics_fire() {
        // Mini-fuzz: on a family of random incomplete datasets IBIG must
        // always agree with the Naive oracle, and across the family the
        // bitmap (H2) and partial-score (H3) prunings must each fire at
        // least once (Fig. 18 shows both active on every workload family).
        let mut h2_total = 0;
        let mut h3_total = 0;
        for seed in 0..25u64 {
            let ds = synth(seed, 60, 3, 8, 30);
            for (k, bins) in [(2usize, 1usize), (4, 2), (8, 4)] {
                let r = ibig_with_bins(&ds, k, &vec![bins; ds.dims()]);
                assert_eq!(
                    r.scores(),
                    naive(&ds, k).scores(),
                    "seed={seed} k={k} bins={bins}"
                );
                h2_total += r.stats.h2_pruned;
                h3_total += r.stats.h3_pruned;
            }
        }
        assert!(h2_total > 0, "Heuristic 2 never fired across the family");
        assert!(h3_total > 0, "Heuristic 3 never fired across the family");
    }

    /// Random incomplete dataset with the given missing probability and
    /// values drawn from `0..cardinality`.
    fn dataset_strategy(
        missing: f64,
        cardinality: u32,
    ) -> impl Strategy<Value = tkd_model::Dataset> {
        (1usize..=4).prop_flat_map(move |dims| {
            let value = (0..cardinality).prop_map(f64::from);
            let row =
                proptest::collection::vec(proptest::option::weighted(1.0 - missing, value), dims)
                    .prop_filter("at least one observed", |r| r.iter().any(Option::is_some));
            proptest::collection::vec(row, 1..60).prop_map(move |rows| {
                tkd_model::Dataset::from_rows(dims, &rows).expect("valid rows")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The scratch-based scoring path returns identical scores *and*
        /// identical `PruneStats` to the row-scan oracle, across
        /// cardinalities C ∈ {2, 10, 1000} × bins ∈ {1, x*, C, 2C}: one
        /// bin, Eq. 8's count, single-value bins, and more bins than
        /// values.
        #[test]
        fn score_parity_with_allocating_oracle(
            ds_2 in dataset_strategy(0.3, 2),
            ds_10 in dataset_strategy(0.1, 10),
            ds_1000 in dataset_strategy(0.6, 1000),
            k in 1usize..8,
        ) {
            for (ds, c) in [(&ds_2, 2), (&ds_10, 10), (&ds_1000, 1000)] {
                let x_star = BinChoice::Auto.resolve(ds)[0];
                for bins in [1, x_star, c, 2 * c] {
                    let ctx: IbigContext<'_> = IbigContext::build(ds, &vec![bins; ds.dims()]);
                    let new = ibig_with(&ctx, k);
                    let oracle = ibig_with_alloc(&ctx, k);
                    prop_assert_eq!(new.scores(), oracle.scores());
                    prop_assert_eq!(new.entries(), oracle.entries());
                    prop_assert_eq!(new.stats, oracle.stats);
                }
            }
        }
    }
}
