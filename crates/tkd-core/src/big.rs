//! BIG — the Bitmap Index Guided algorithm (§4.3, Algorithms 3–4).
//!
//! BIG keeps UBB's descending-`MaxScore` traversal and early termination
//! (Heuristic 1) but replaces pairwise scoring with bit-parallel set
//! algebra on the range-encoded [`BitmapIndex`]:
//!
//! * `Q = ∩[Qᵢ] − {o}` gives `MaxBitScore(o) = |Q|`, an upper bound that is
//!   *tighter* than `MaxScore` (Lemma 3) and prunes via **Heuristic 2**;
//! * `P = ∩[Pᵢ]` splits off `G(o) = P − F(o)`, the objects strictly worse
//!   than `o` wherever comparable (all dominated);
//! * the residue `Q − P` — objects tying `o` in at least one common
//!   dimension — is resolved exactly: a member ties `o` on *every* common
//!   dimension iff it is **not** dominated (`nonD(o)`);
//! * `score(o) = |G(o)| + |L(o)| = |P − F| + |Q − P − nonD|`.
//!
//! # Where the algorithm lives
//!
//! BIG-Score (Algorithm 3) is written **once**, against one index:
//! `big_score_over` reads the candidate's column picks off its stored
//! value slots ([`BitmapIndex::selection_of`]), takes the Heuristic 2
//! decision with the budgeted scan, and returns `big_term` —
//! `|P − F| + |Q − P − nonD|`. Every in-process engine scores through it:
//! the sequential [`big_with_scratch`], and the parallel paths
//! ([`crate::engine::ParallelEngine`], [`crate::TkdQuery::threads`],
//! [`crate::DynamicEngine::query_threads`]), which split the queue across
//! workers over the same index and merge by replay ([`crate::parallel`]),
//! so entries, scores, tie order **and**, with one thread, every
//! `PruneStats` counter agree. A cluster worker
//! ([`crate::DynamicEngine::big_partial`]) calls the term alone against
//! the engine hosting its shard. The traversal (Algorithm 4) is
//! `crate::topk`'s `walk`.
//!
//! The scoring path is **allocation-free** after context build: Heuristic 2
//! is a fused multi-way AND-popcount that materializes nothing
//! ([`BitmapIndex::q_count_selected_above`]), surviving objects fill the
//! caller's [`ScratchSpace`] in fused passes, and the `Q − P` residue is
//! enumerated straight off the scratch words. Ties are resolved by integer
//! value-slot equality — two observed values are equal iff they map to the
//! same slot of the index's sorted distinct-value table — instead of
//! loading `f64`s.

use crate::preprocess::Preprocessed;
use crate::result::TkdResult;
use crate::scratch::ScratchSpace;
use crate::topk::{walk, Outcome};
use std::borrow::Cow;
use tkd_bitvec::BitVec;
use tkd_index::{BitmapIndex, BitmapIndexBuilder, RowScope};
use tkd_model::{Dataset, DimMask, ObjectId};

/// Precomputed inputs of Algorithm 4: the bitmap index plus the shared
/// [`Preprocessed`] artifacts (`MaxScore` queue `F`, incomparable sets).
pub struct BigContext<'a> {
    ds: &'a Dataset,
    index: Cow<'a, BitmapIndex>,
    pre: Cow<'a, Preprocessed>,
}

impl<'a> BigContext<'a> {
    /// Run all preprocessing for `ds` (the paper's Table 3 "bitmap index"
    /// plus "MaxScore" columns).
    ///
    /// Each dimension is sorted once: the same column feeds the index and
    /// the queue.
    pub fn build(ds: &'a Dataset) -> Self {
        let mut index = BitmapIndexBuilder::new(ds.dims(), ds.len());
        let pre = Preprocessed::build_sharing(ds, |dim, column| index.push_dim(dim, column));
        BigContext {
            ds,
            index: Cow::Owned(index.finish()),
            pre: Cow::Owned(pre),
        }
    }

    /// Build borrowing shared [`Preprocessed`] artifacts, so benchmark
    /// comparisons against other contexts over the same dataset don't
    /// double-pay the queue construction.
    pub fn build_with(ds: &'a Dataset, pre: &'a Preprocessed) -> Self {
        BigContext {
            ds,
            index: Cow::Owned(BitmapIndex::build(ds)),
            pre: Cow::Borrowed(pre),
        }
    }

    /// Borrow **prebuilt** artifacts wholesale — nothing is constructed.
    /// This is how the dynamic update layer serves queries through the
    /// unchanged Algorithm 4 scratch path: its incrementally-maintained
    /// index and preprocessing are lent in per query. The index may carry
    /// tombstones; its live-aware fast paths keep the scoring exact.
    pub fn from_prebuilt(ds: &'a Dataset, index: &'a BitmapIndex, pre: &'a Preprocessed) -> Self {
        assert_eq!(index.n(), ds.len(), "index/dataset size mismatch");
        BigContext {
            ds,
            index: Cow::Borrowed(index),
            pre: Cow::Borrowed(pre),
        }
    }

    /// The underlying bitmap index.
    pub fn index(&self) -> &BitmapIndex {
        &self.index
    }

    /// The dataset this context was built for.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// The shared preprocessing artifacts (owned or borrowed).
    pub fn preprocessed(&self) -> &Preprocessed {
        &self.pre
    }

    /// `F(o)` for an object's mask (empty bit vector if every object is
    /// comparable).
    pub fn incomparable(&self, o: ObjectId) -> &BitVec {
        self.pre.f_of(self.ds, o)
    }

    /// A fresh [`ScratchSpace`] sized for this context's dataset.
    pub fn scratch(&self) -> ScratchSpace {
        ScratchSpace::new(self.ds.len())
    }
}

/// Answer a TKD query with BIG (builds the index and queue internally).
pub fn big(ds: &Dataset, k: usize) -> TkdResult {
    let ctx = BigContext::build(ds);
    big_with(&ctx, k)
}

/// Algorithm 4 over a prebuilt [`BigContext`] (allocates one scratch space
/// for the query; reuse [`big_with_scratch`] to avoid even that).
pub fn big_with(ctx: &BigContext<'_>, k: usize) -> TkdResult {
    let mut scratch = ctx.scratch();
    big_with_scratch(ctx, k, &mut scratch)
}

/// Algorithm 4 over a prebuilt context and caller-owned scratch: the
/// steady-state path, performing zero heap allocations per visited object.
///
/// # Panics
/// Panics if `scratch` was sized for a different object count.
pub fn big_with_scratch(ctx: &BigContext<'_>, k: usize, scratch: &mut ScratchSpace) -> TkdResult {
    walk(ctx.pre.queue(), k, |o, tau| big_score(ctx, o, tau, scratch))
}

/// BIG-Score (Algorithm 3) against the context's index.
pub(crate) fn big_score(
    ctx: &BigContext<'_>,
    o: ObjectId,
    tau: Option<usize>,
    scratch: &mut ScratchSpace,
) -> Outcome {
    big_score_over(ctx.ds, &ctx.index, &ctx.pre, None, o, tau, scratch)
}

/// What the scoring terms need to know about the candidate being scored.
#[derive(Clone, Copy)]
pub(crate) struct Candidate<'a> {
    /// The candidate's observed dimensions.
    pub(crate) mask: DimMask,
    /// Its row in the index, when it lives there (its own bit is then
    /// excluded from its score).
    pub(crate) member: Option<usize>,
    /// `F(o)`: the rows observing no dimension in common with the
    /// candidate.
    pub(crate) f: &'a BitVec,
}

impl<'a> Candidate<'a> {
    /// Member `o` of `ds`, with its incomparable set from `pre`.
    pub(crate) fn member(ds: &Dataset, pre: &'a Preprocessed, o: ObjectId) -> Self {
        Candidate {
            mask: ds.mask(o),
            member: Some(o as usize),
            f: pre.f_of(ds, o),
        }
    }
}

/// BIG-Score (Algorithm 3) of member `o` of `ds` against `index`:
/// Heuristic 2 on `tau`, then the exact score. [`Outcome::PrunedBitmap`]
/// when Heuristic 2 discards `o` (its exact score is then never computed).
/// With a `scope`, every set is ANDed with its rows: the score counts
/// only the rows in scope (a constrained query). Allocation-free.
pub(crate) fn big_score_over(
    ds: &Dataset,
    index: &BitmapIndex,
    pre: &Preprocessed,
    scope: Option<&RowScope>,
    o: ObjectId,
    tau: Option<usize>,
    scratch: &mut ScratchSpace,
) -> Outcome {
    scratch.sel = index.selection_of(o as usize);
    // Heuristic 2 — bitmap pruning on the tight bound. The raw
    // intersection counts o's own bit, so `MaxBitScore(o) ≤ τ` reads
    // `|∩ᵢ Qᵢ| ≤ τ + 1`. The common case (pruned) reads a fraction of one
    // pass and writes nothing; survivors re-intersect in the term below —
    // redundant, but survivors enter the candidate set by construction, so
    // there are at most ~k of them per τ value.
    let sel = &scratch.sel;
    if matches!(tau, Some(tau) if index.q_count_selected_above_scoped(sel, scope, tau + 1).is_none())
    {
        return Outcome::PrunedBitmap;
    }
    let cand = Candidate::member(ds, pre, o);
    Outcome::Score(big_term(index, ds.masks(), &cand, scope, scratch))
}

/// BIG-Score's term: how many of the index's rows the candidate
/// dominates, `|P − F| + |Q − P − nonD|`, against the selection resolved
/// in `scratch.sel`, over `scope`'s rows only when there is a scope.
/// `row_masks[r]` is the observation mask of row `r`.
pub(crate) fn big_term(
    index: &BitmapIndex,
    row_masks: &[DimMask],
    cand: &Candidate<'_>,
    scope: Option<&RowScope>,
    scratch: &mut ScratchSpace,
) -> usize {
    let ScratchSpace { q, p, sel, .. } = scratch;
    index.q_into_selected_scoped(sel, cand.member, scope, q);
    index.p_into_selected_scoped(sel, scope, p);
    // G(o) = P − F(o) = |P ∧ ¬F|: strictly-worse-or-missing everywhere,
    // comparable.
    let g = p.and_not_count(cand.f);
    // Q − P: candidates for nonD(o) — they tie o somewhere. Enumerated
    // fused off the scratch buffers; |Q − P| is counted along the way.
    let mut q_minus_p = 0usize;
    let mut non_d = 0usize;
    for row in q.iter_ones_and_not(p) {
        q_minus_p += 1;
        // p ∈ nonD(o) iff p equals o on every commonly observed dimension
        // (tagT = |bp & bo| in the paper's notation). Equality is tested on
        // the integer value slots: the index maps equal values — and only
        // equal values — to the same non-zero slot.
        let all_equal = cand.mask.and(row_masks[row]).iter().all(|d| {
            let slot = sel.eq_slot(d);
            slot != 0 && slot == index.value_slot(row, d)
        });
        if all_equal {
            non_d += 1;
        }
    }
    g + q_minus_p - non_d
}

/// The original allocating BIG-Score, kept verbatim as the test oracle for
/// the scratch-based path (`score_parity_with_allocating_oracle`).
#[cfg(test)]
fn big_score_alloc(ctx: &BigContext<'_>, o: ObjectId, tau: Option<usize>) -> Outcome {
    let ds = ctx.ds;
    let q = ctx.index.q_vec(o);
    let max_bit_score = q.count_ones();
    if matches!(tau, Some(t) if max_bit_score <= t) {
        return Outcome::PrunedBitmap;
    }
    let p = ctx.index.p_vec(o);
    let f = ctx.incomparable(o);
    let g = p.count_ones() - p.and_count(f);
    let qmp = q.and_not(&p);
    let o_mask = ds.mask(o);
    let mut non_d = 0usize;
    for pid in qmp.iter_ones() {
        let pid = pid as ObjectId;
        let common = o_mask.and(ds.mask(pid));
        let all_equal = common
            .iter()
            .all(|d| ds.raw_value(o, d) == ds.raw_value(pid, d));
        if all_equal {
            non_d += 1;
        }
    }
    let l = qmp.count_ones() - non_d;
    Outcome::Score(g + l)
}

/// Algorithm 4 driven by the allocating oracle scorer (test-only).
#[cfg(test)]
pub(crate) fn big_with_alloc(ctx: &BigContext<'_>, k: usize) -> TkdResult {
    walk(ctx.pre.queue(), k, |o, tau| big_score_alloc(ctx, o, tau))
}

/// `MaxBitScore(o)` of the full (unbinned) index — exposed for analysis and
/// the Fig. 8 reproduction.
pub fn max_bit_scores(ds: &Dataset) -> Vec<usize> {
    let index = BitmapIndex::build(ds);
    ds.ids().map(|o| index.max_bit_score(o)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive;
    use proptest::prelude::*;
    use tkd_model::{dominance, fixtures};

    #[test]
    fn example3_worked_c2() {
        // §4.3 Example 3: score(C2) = |G| + |L| = 14 + 2 = 16 with
        // nonD(C2) = {A2, B2, D3}.
        let ds = fixtures::fig3_sample();
        let ctx = BigContext::build(&ds);
        let c2 = ds.id_by_label("C2").unwrap();
        let mut scratch = ctx.scratch();
        assert_eq!(big_score(&ctx, c2, None, &mut scratch), Outcome::Score(16));
        let p = ctx.index().p_vec(c2);
        assert_eq!(p.count_ones(), 14, "|G(C2)| = |P| = 14 (F empty)");
        let qmp = ctx.index().q_vec(c2).and_not(&p);
        let labels: Vec<&str> = qmp
            .iter_ones()
            .map(|i| ds.label(i as u32).unwrap())
            .collect();
        assert_eq!(labels, vec!["A2", "B2", "C1", "D2", "D3"]);
    }

    #[test]
    fn example3_full_run() {
        // BIG evaluates C2 and A2, then Heuristic 1 stops at B2.
        let ds = fixtures::fig3_sample();
        let r = big(&ds, 2);
        let mut labels: Vec<_> = r.iter().map(|e| ds.label(e.id).unwrap()).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["A2", "C2"]);
        assert_eq!(r.kth_score(), Some(16));
        assert_eq!(r.stats.scored, 2);
        assert_eq!(r.stats.h1_pruned, 18);
    }

    #[test]
    fn fig8_max_bit_scores() {
        let ds = fixtures::fig3_sample();
        let mbs = max_bit_scores(&ds);
        for (label, expected) in fixtures::fig8_maxbitscores() {
            let o = ds.id_by_label(label).unwrap();
            assert_eq!(mbs[o as usize], expected, "{label}");
        }
    }

    #[test]
    fn lemma3_maxbitscore_at_most_maxscore() {
        let ds = fixtures::fig3_sample();
        let mbs = max_bit_scores(&ds);
        let ms = crate::maxscore::max_scores(&ds);
        for o in ds.ids() {
            assert!(mbs[o as usize] <= ms[o as usize], "object {o}");
            assert!(dominance::score_of(&ds, o) <= mbs[o as usize], "object {o}");
        }
    }

    #[test]
    fn agrees_with_naive_on_fixtures() {
        for ds in [
            fixtures::fig2_points(),
            fixtures::fig3_sample(),
            fixtures::fig1_movies(),
        ] {
            for k in [1, 2, 3, 4, 7, 50] {
                let a = big(&ds, k);
                let b = naive(&ds, k);
                assert_eq!(a.scores(), b.scores(), "k={k}");
            }
        }
    }

    #[test]
    fn score_via_bitmaps_equals_bruteforce_for_all_objects() {
        let ds = fixtures::fig3_sample();
        let ctx = BigContext::build(&ds);
        let mut scratch = ctx.scratch();
        for o in ds.ids() {
            assert_eq!(
                big_score(&ctx, o, None, &mut scratch),
                Outcome::Score(dominance::score_of(&ds, o)),
                "{}",
                ds.label(o).unwrap()
            );
        }
    }

    #[test]
    fn incomparable_sets_respected() {
        // Disjoint masks: F(o) must remove the incomparables from G.
        let ds = tkd_model::Dataset::from_rows(
            2,
            &[
                vec![Some(1.0), None], // 0: mask 01
                vec![None, Some(9.0)], // 1: mask 10 — incomparable to 0
                vec![Some(5.0), None], // 2: mask 01 — dominated by 0
            ],
        )
        .unwrap();
        let ctx = BigContext::build(&ds);
        let mut scratch = ctx.scratch();
        assert_eq!(big_score(&ctx, 0, None, &mut scratch), Outcome::Score(1)); // dominates only 2
        assert_eq!(big_score(&ctx, 1, None, &mut scratch), Outcome::Score(0));
    }

    #[test]
    fn shared_preprocessing_gives_identical_results() {
        let ds = fixtures::fig3_sample();
        let pre = Preprocessed::build(&ds);
        let shared = BigContext::build_with(&ds, &pre);
        let owned = BigContext::build(&ds);
        for k in [1, 2, 5] {
            let a = big_with(&shared, k);
            let b = big_with(&owned, k);
            assert_eq!(a.scores(), b.scores(), "k={k}");
            assert_eq!(a.stats, b.stats, "k={k}");
        }
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
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// The scratch-based scoring path returns identical scores *and*
        /// identical `PruneStats` to the original allocating path, across
        /// low / medium / high missing rates.
        #[test]
        fn score_parity_with_allocating_oracle(
            ds_low in dataset_strategy(0.1),
            ds_mid in dataset_strategy(0.3),
            ds_high in dataset_strategy(0.6),
            k in 1usize..8,
        ) {
            for ds in [&ds_low, &ds_mid, &ds_high] {
                let ctx = BigContext::build(ds);
                let new = big_with(&ctx, k);
                let oracle = big_with_alloc(&ctx, k);
                prop_assert_eq!(new.scores(), oracle.scores());
                prop_assert_eq!(new.entries(), oracle.entries());
                prop_assert_eq!(new.stats, oracle.stats);
            }
        }
    }
}
