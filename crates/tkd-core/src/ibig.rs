//! IBIG — the Improved BIG algorithm (§4.4–4.5, Algorithm 5).
//!
//! IBIG trades query time for index space: columns come from the **binned**
//! bitmap index (one bit per value range, Eq. 3–4). Binning coarsens
//! `[Qᵢ]`/`[Pᵢ]`, so `Q − P` now holds *same-bin* objects whose values may
//! even be better than `o`'s; those are resolved through the per-dimension
//! tree probes of §4.5 and counted into `nonD(o)`. While `nonD` grows,
//! **Heuristic 3** (partial score pruning) abandons objects early:
//! `score(o) = |Q| − |F(o)| − |nonD(o)|` can only shrink as `nonD` grows, so
//! once `|nonD| > |Q| − |F| − τ` the object is out.
//!
//! # One column store
//!
//! The paper stores the binned columns CONCISE-compressed and intersects
//! them on the compressed form. Here the binned index's dense columns are
//! the only store, on every surface: static contexts, the parallel
//! engine, the dynamic engine and every cluster shard (run encodings
//! cannot absorb the dynamic layer's in-place bit flips). Algorithm 5's
//! compressed intersections are **measured, not executed**: Fig. 10 and
//! Table 3 time the codecs, and Fig. 11 and the `ablation` table report
//! the CONCISE bytes of the binned index (`tkd-bench`).
//!
//! # Where the algorithm lives
//!
//! IBIG-Score (Algorithm 5) is written **once**, against one
//! [`BinnedBitmapIndex`]. `ibig_score_over` reads the candidate's picks
//! off its stored bins ([`BinnedBitmapIndex::selection_of`]) and takes the
//! Heuristic 2 decision on `|Q| − 1` with the budgeted scan BIG runs
//! ([`BinnedBitmapIndex::q_count_selected_above`]: the binned columns'
//! dense words against their per-block suffix popcounts, exiting as soon
//! as the bound is settled and writing nothing). Only survivors fill `Q`,
//! and `ibig_term` — `|P − F| + |Q − P − nonD|`, the only function that
//! issues the §4.5 probes — runs under the Heuristic-3 budget, checked
//! after each probed dimension and each residue member. Every in-process engine
//! scores through it: the sequential [`ibig_with_scratch`], and the
//! parallel paths, which split the queue across workers over the same
//! index and merge by replay ([`crate::parallel`]), so entries, scores,
//! tie order **and**, with one thread, every `PruneStats` counter agree.
//! A cluster worker ([`crate::DynamicEngine::ibig_partial`]) calls the
//! term alone with an unlimited budget (Heuristic 3 needs the global τ).
//! The traversal is `crate::topk`'s `walk`.
//!
//! Like BIG, the scoring path is **allocation-free** after context build:
//! a survivor's `Q`/`P` intersections are written straight into the
//! caller's [`ScratchSpace`] ([`BinnedBitmapIndex::and_selected_into`]),
//! the `nonD`/`tagT` tables are epoch-stamped in the same scratch, and the
//! tree probes return concrete range cursors instead of boxed iterators.

use crate::big::Candidate;
use crate::preprocess::Preprocessed;
use crate::result::TkdResult;
use crate::scope::Scope;
use crate::scratch::ScratchSpace;
use crate::topk::{walk, Outcome};
use std::borrow::Cow;
use tkd_index::{cost, BinnedBitmapIndex, BinnedBitmapIndexBuilder, RowScope};
use tkd_model::{stats, Dataset, DimMask, ObjectId};

/// Fill `scratch.q` with the raw `∩ᵢ Qᵢ` for the picks in
/// `scratch.bin_sel` (a member candidate's own bit included), ANDed with
/// `scope`'s rows when there is a scope — the `Q` `ibig_term` works on.
/// Only candidates that survive Heuristic 2 are filled; the count that
/// decides it is [`BinnedBitmapIndex::q_count_selected_above`], which
/// writes nothing.
pub(crate) fn fill_q(
    index: &BinnedBitmapIndex,
    scope: Option<&RowScope>,
    scratch: &mut ScratchSpace,
) {
    let ScratchSpace { q, bin_sel, .. } = scratch;
    let picks = (0..index.dims()).map(|d| bin_sel.q_pick(d));
    index.and_selected_into_scoped(picks, scope, q);
}

/// Precomputed inputs of Algorithm 5: the binned index plus the shared
/// [`Preprocessed`] artifacts.
pub struct IbigContext<'a> {
    ds: &'a Dataset,
    binned: Cow<'a, BinnedBitmapIndex>,
    pre: Cow<'a, Preprocessed>,
}

impl<'a> IbigContext<'a> {
    /// Build with explicit per-dimension bin counts.
    ///
    /// Each dimension is sorted once: the same column feeds the binned
    /// index and the queue.
    ///
    /// # Panics
    /// Panics if `bins_per_dim.len() != ds.dims()` or any entry is zero.
    pub fn build(ds: &'a Dataset, bins_per_dim: &[usize]) -> Self {
        assert_eq!(bins_per_dim.len(), ds.dims(), "one bin count per dimension");
        let mut index = BinnedBitmapIndexBuilder::new(bins_per_dim, ds.len());
        let pre = Preprocessed::build_sharing(ds, |dim, column| index.push_dim(dim, column));
        IbigContext {
            ds,
            binned: Cow::Owned(index.finish()),
            pre: Cow::Owned(pre),
        }
    }

    /// Build borrowing shared [`Preprocessed`] artifacts (see
    /// [`crate::big::BigContext::build_with`]).
    pub fn build_with(ds: &'a Dataset, bins_per_dim: &[usize], pre: &'a Preprocessed) -> Self {
        IbigContext {
            ds,
            binned: Cow::Owned(BinnedBitmapIndex::build(ds, bins_per_dim)),
            pre: Cow::Borrowed(pre),
        }
    }

    /// Borrow **prebuilt** artifacts wholesale. The context scores exactly
    /// as one from [`IbigContext::build`] does; it only borrows the index
    /// and the preprocessing instead of owning them.
    pub fn from_prebuilt_dense(
        ds: &'a Dataset,
        index: &'a BinnedBitmapIndex,
        pre: &'a Preprocessed,
    ) -> Self {
        assert_eq!(index.n(), ds.len(), "index/dataset size mismatch");
        IbigContext {
            ds,
            binned: Cow::Borrowed(index),
            pre: Cow::Borrowed(pre),
        }
    }

    /// Build with the Eq. 8 optimal bin count on every dimension.
    pub fn build_auto(ds: &'a Dataset) -> Self {
        let x = cost::optimal_bins(ds.len(), stats::missing_rate(ds));
        Self::build(ds, &vec![x; ds.dims()])
    }

    /// The binned index.
    pub fn index(&self) -> &BinnedBitmapIndex {
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
    walk(ctx.pre.queue(), k, |o, tau| {
        ibig_score(ctx, o, tau, scratch)
    })
}

/// IBIG-Score (Algorithm 5) against the context's binned index.
pub(crate) fn ibig_score(
    ctx: &IbigContext<'_>,
    o: ObjectId,
    tau: Option<usize>,
    scratch: &mut ScratchSpace,
) -> Outcome {
    ibig_score_over(ctx.ds, &ctx.binned, &ctx.pre, None, o, tau, scratch)
}

/// IBIG-Score (Algorithm 5) of member `o` of `ds` against `binned`:
/// Heuristic 2 on `tau`, then the exact score under the Heuristic-3
/// budget. With a `scope`, every set and count is ANDed with its rows and
/// the candidate is restricted to its dimensions (a constrained or
/// subspace query). Allocation-free.
pub(crate) fn ibig_score_over(
    ds: &Dataset,
    index: &BinnedBitmapIndex,
    pre: &Preprocessed,
    scope: Option<&Scope>,
    o: ObjectId,
    tau: Option<usize>,
    scratch: &mut ScratchSpace,
) -> Outcome {
    // Heuristic 2 — bitmap pruning (still sound under binning, §4.4), as
    // BIG takes it: o sits in every column it picks, so
    // MaxBitScore = |∩Qᵢ| − 1 ≤ τ reads |∩Qᵢ| ≤ τ + 1, decided by the
    // budgeted scan without writing Q. With no τ yet the budget is 0 and
    // the count (≥ 1, o's own bit) comes back exact.
    scratch.bin_sel = index.selection_of(o as usize);
    if let Some(s) = scope {
        scratch.bin_sel.restrict(s.dims);
    }
    let rows = scope.map(|s| &s.rows);
    let budget = tau.map_or(0, |t| t + 1);
    let Some(q_count) = index.q_count_selected_above_scoped(&scratch.bin_sel, rows, budget) else {
        return Outcome::PrunedBitmap;
    };
    let max_bit_score = q_count - 1;
    // Survivors only: Q into scratch for the term.
    fill_q(index, rows, scratch);
    let cand = match scope {
        Some(s) => s.candidate(ds, pre, o),
        None => Candidate::member(ds, pre, o),
    };
    // Heuristic 3's budget: score(o) = |Q| − |F| − |nonD| beats τ only
    // while |nonD| ≤ |Q| − |F| − τ. Nothing to beat until τ forms. F
    // counts inside the scope, as Q does: the unscoped |F| would
    // over-prune.
    let mut nond_left = tau.map_or(usize::MAX, |t| {
        let f = rows.map_or_else(|| cand.f.count_ones(), |r| cand.f.and_count(r.bits()));
        max_bit_score.saturating_sub(f).saturating_sub(t)
    });
    let value = |d| ds.raw_value(o, d);
    match ibig_term(
        index,
        ds.masks(),
        &cand,
        rows,
        value,
        scratch,
        &mut nond_left,
    ) {
        Some(score) => Outcome::Score(score),
        None => Outcome::PrunedPartial,
    }
}

/// IBIG-Score's term: how many of the index's rows the candidate
/// dominates, `|P − F| + |Q − P − nonD|`, or `None` as soon as the `nonD`
/// members overdraw `nond_left` (**Heuristic 3**; the members found are
/// deducted from it otherwise).
///
/// `scratch.q` must hold the raw `∩ᵢ Qᵢ` (`fill_q`, under the same
/// `scope`), `value(d)` is the candidate's observation in a dimension of
/// `cand.mask`, and `row_masks[r]` the observation mask of row `r`. The
/// probes range over every row; only those in `Q − P`, and so in scope,
/// count.
pub(crate) fn ibig_term(
    index: &BinnedBitmapIndex,
    row_masks: &[DimMask],
    cand: &Candidate<'_>,
    scope: Option<&RowScope>,
    value: impl Fn(usize) -> f64,
    scratch: &mut ScratchSpace,
    nond_left: &mut usize,
) -> Option<usize> {
    let ScratchSpace {
        q,
        p,
        stamps,
        bin_sel,
        ..
    } = scratch;
    if let Some(row) = cand.member {
        q.clear(row);
    }
    index.and_selected_into_scoped((0..index.dims()).map(|d| bin_sel.p_pick(d)), scope, p);
    // G(o) = P − F(o) = |P ∧ ¬F|, fused.
    let g = p.and_not_count(cand.f);
    // Membership in Q − P, straight off the scratch words.
    let in_qmp = |row: usize| q.get(row) && !p.get(row);

    stamps.next_object();
    let mut non_d = 0usize;
    // (a) Same-bin rows strictly better than the candidate in some
    //     dimension cannot be dominated: tree probe per observed
    //     dimension (§4.5).
    for dim in cand.mask.iter() {
        for row in index.ids_below_in_bin(dim, value(dim), true) {
            if in_qmp(row as usize) && stamps.mark_nond(row as usize) {
                non_d += 1;
            }
        }
        // Heuristic 3 — partial score pruning after every dimension.
        if non_d > *nond_left {
            return None;
        }
    }
    // (b) tagT accumulation: same-value probes per observed dimension (the
    //     candidate's own row left Q above).
    for dim in cand.mask.iter() {
        for row in index.ids_equal(dim, value(dim)) {
            if in_qmp(row as usize) {
                stamps.bump_tag(row as usize);
            }
        }
    }
    // Members of Q − P equal to the candidate on *all* commonly observed
    // dimensions are not dominated either. |Q − P| is counted during the
    // same fused pass.
    let mut q_minus_p = 0usize;
    for row in q.iter_ones_and_not(p) {
        q_minus_p += 1;
        if stamps.is_nond(row) {
            continue;
        }
        if stamps.tag_of(row) == cand.mask.and(row_masks[row]).count() {
            non_d += 1;
            if non_d > *nond_left {
                return None;
            }
        }
    }
    *nond_left -= non_d;
    Some(g + q_minus_p - non_d)
}

/// The original allocating IBIG-Score, kept as the test oracle for the
/// scratch-based path. Uses hash-based `nonD`/`tagT` tables, reads its
/// column picks off `bin_of` and builds `Q`/`P` by chaining owned
/// [`BitVec::and`](tkd_bitvec::BitVec::and)s over cloned columns, so it
/// shares no fill or count with the path under test.
#[cfg(test)]
fn ibig_score_alloc(ctx: &IbigContext<'_>, o: ObjectId, tau: Option<usize>) -> Outcome {
    use std::collections::{HashMap, HashSet};
    let ds = ctx.ds;
    let index = ctx.index();
    let prunes = |bound: usize| matches!(tau, Some(t) if bound <= t);
    // Same-or-higher bin / strictly higher bin (column 0 when missing).
    let intersect = |pick: fn(u32) -> usize| {
        let col = |d| index.column(d, index.bin_of(o, d).map_or(0, pick));
        (1..ds.dims()).fold(col(0).clone(), |acc, d| acc.and(col(d)))
    };
    let mut q = intersect(|b| (b - 1) as usize);
    let max_bit_score = q.count_ones() - 1;
    if prunes(max_bit_score) {
        return Outcome::PrunedBitmap;
    }
    q.clear(o as usize);
    let p = intersect(|b| b as usize);
    let f = ctx.pre.f_of(ds, o);
    let f_count = f.count_ones();
    let g = p.count_ones() - p.and_count(f);
    let qmp = q.and_not(&p);

    let h3_budget = |non_d: usize| -> bool {
        matches!(tau, Some(t) if non_d > max_bit_score.saturating_sub(f_count).saturating_sub(t))
    };

    let mut non_d_set: HashSet<usize> = HashSet::new();
    let o_mask = ds.mask(o);
    for dim in o_mask.iter() {
        for pid in index.ids_in_bin_below(ds, o, dim) {
            if qmp.get(pid as usize) {
                non_d_set.insert(pid as usize);
            }
        }
        if h3_budget(non_d_set.len()) {
            return Outcome::PrunedPartial;
        }
    }
    let mut tags: HashMap<usize, u32> = HashMap::new();
    for dim in o_mask.iter() {
        let v = ds.raw_value(o, dim);
        for pid in index.ids_equal(dim, v) {
            if pid != o && qmp.get(pid as usize) {
                *tags.entry(pid as usize).or_insert(0) += 1;
            }
        }
    }
    let mut non_d = non_d_set.len();
    for pid in qmp.iter_ones() {
        if non_d_set.contains(&pid) {
            continue;
        }
        let common = o_mask.and(ds.mask(pid as ObjectId)).count();
        if tags.get(&pid).copied().unwrap_or(0) == common {
            non_d += 1;
            if h3_budget(non_d) {
                return Outcome::PrunedPartial;
            }
        }
    }
    let l = qmp.count_ones() - non_d;
    Outcome::Score(g + l)
}

/// Algorithm 5 driven by the allocating oracle scorer (test-only).
#[cfg(test)]
pub(crate) fn ibig_with_alloc(ctx: &IbigContext<'_>, k: usize) -> TkdResult {
    walk(ctx.pre.queue(), k, |o, tau| ibig_score_alloc(ctx, o, tau))
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

    /// Random incomplete dataset with the given missing probability.
    fn dataset_strategy(missing: f64) -> impl Strategy<Value = tkd_model::Dataset> {
        (1usize..=4).prop_flat_map(move |dims| {
            let row = proptest::collection::vec(
                proptest::option::weighted(1.0 - missing, (0u8..6).prop_map(|v| v as f64)),
                dims,
            )
            .prop_filter("at least one observed", |r| r.iter().any(Option::is_some));
            proptest::collection::vec(row, 1..60).prop_map(move |rows| {
                tkd_model::Dataset::from_rows(dims, &rows).expect("valid rows")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The scratch-based scoring path returns identical scores *and*
        /// identical `PruneStats` to the original allocating path, across
        /// low / medium / high missing rates and bin counts.
        #[test]
        fn score_parity_with_allocating_oracle(
            ds_low in dataset_strategy(0.1),
            ds_mid in dataset_strategy(0.3),
            ds_high in dataset_strategy(0.6),
            k in 1usize..8,
            bins in 1usize..6,
        ) {
            for ds in [&ds_low, &ds_mid, &ds_high] {
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
