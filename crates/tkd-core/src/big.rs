//! BIG — the Bitmap Index Guided algorithm (§4.3, Algorithms 3–4).
//!
//! BIG keeps UBB's descending-`MaxScore` traversal and early termination
//! (Heuristic 1) but replaces pairwise scoring with bit-parallel set
//! algebra on the range-encoded [`BitmapIndex`]:
//!
//! * `Q = ∩[Qᵢ] − {o}` gives `MaxBitScore(o) = |Q|`, an upper bound that is
//!   *tighter* than `MaxScore` (Lemma 3) and prunes via **Heuristic 2**;
//! * `P = ∩[Pᵢ]` splits off `G(o) = P − F(o)`, the objects strictly worse
//!   than `o` wherever comparable (all dominated). Every column holds the
//!   rows missing its dimension, so `F(o) ⊆ P` and `|G(o)| = |P| − |F(o)|`
//!   — `F` is only ever counted ([`crate::preprocess::MaskCounts`]);
//! * the residue `Q − P` — objects tying `o` in at least one common
//!   dimension — is resolved exactly: a member ties `o` on *every* common
//!   dimension iff it is **not** dominated (`nonD(o)`);
//! * `score(o) = |G(o)| + |L(o)| = |P − F| + |Q − P − nonD|`.
//!
//! # Where the algorithm lives
//!
//! BIG-Score (Algorithm 3) is written **once**, against one index, in two
//! steps. `big_measure` runs the Heuristic 2 test at the loosest τ the
//! walk's replays hold. Unscoped, that is the index's member entry point
//! [`BitmapIndex::max_bit_score_above`]: the exact memo lane of the
//! bounds earlier queries proved, then the pairwise tables, then the
//! budgeted scan at
//! the picks read off the candidate's stored value slots
//! ([`BitmapIndex::selection_of`]). Unless the test prunes for every
//! replay, it takes `term_counts` — the counts of
//! `|P − F| + |Q − P − nonD|`, the term IBIG shares ([`crate::ibig`]).
//! Whenever the term is taken, it carries the exact `|∩ᵢ Qᵢ|` too
//! (`Term::count`), even when no replay held a τ to scan against, so a
//! measurement decides exactly at any τ at least the one it was taken
//! at. `big_decide` turns those counts and one replay's τ into that
//! replay's outcome. A walk measures each visited candidate once for
//! every query of a batch and decides per query (`crate::topk`'s
//! `walk`); a single query is the one-replay case. Every in-process
//! engine scores through it: the sequential [`big_with_scratch`], and
//! the engines' single queries and batches at any thread count
//! ([`crate::engine::ParallelEngine`], [`crate::TkdQuery::threads`],
//! [`crate::DynamicEngine::query_threads`]), whose workers measure
//! candidates of the one walk over the same index while every decision
//! is taken in queue order ([`crate::parallel`]) — so entries, scores,
//! tie order **and** every `PruneStats` counter agree. A cluster worker
//! ([`crate::DynamicEngine::big_partial`]) calls the term alone against
//! the engine hosting its shard.
//!
//! The scoring path is **allocation-free** after context build: Heuristic 2
//! reads the index's exact memo lane — on a warm index most prunes are
//! one load of a bound an earlier query proved; the lane is sized by the
//! second walk over the index ([`BitmapIndex::announce_walk`]) before its
//! first lookup, so a one-shot `TkdQuery::run` context, which walks
//! once, holds none — then its pairwise tables —
//! most other prunes are one pair's joint count at or below the budget —
//! and otherwise runs a
//! fused multi-way AND-popcount that materializes nothing
//! ([`BitmapIndex::q_count_selected_above`]), surviving objects fill the
//! caller's [`ScratchSpace`] in fused passes, and the `Q − P` residue is
//! split in one more fused pass over the index's columns
//! ([`BitmapIndex::residue_counts`]): a row of `Q − P` is not dominated
//! when it equals or misses `o` in every dimension `o` observes — one
//! AND-NOT of the candidate's `[Qᵢ]` and `[Pᵢ]` columns, OR the missing
//! column, per dimension. No row is visited one at a time: the pass costs
//! `d · ⌈N/64⌉` words per scored candidate, and blocks where `Q − P` is
//! empty read no column.

use crate::engine::{Columns, Scorer};
use crate::preprocess::Preprocessed;
use crate::result::TkdResult;
use crate::scope::Scope;
use crate::scratch::ScratchSpace;
use crate::topk::{walk_one, Need, Outcome};
use std::borrow::Cow;
use tkd_index::{BitmapIndex, BitmapIndexBuilder, RowScope};
use tkd_model::{Dataset, DimMask, ObjectId};

/// Precomputed inputs of Algorithm 4: the bitmap index plus the shared
/// [`Preprocessed`] artifacts (`MaxScore` queue `F`, mask counts).
pub struct BigContext<'a> {
    ds: &'a Dataset,
    index: BitmapIndex,
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
            index: index.finish(),
            pre: Cow::Owned(pre),
        }
    }

    /// Build borrowing shared [`Preprocessed`] artifacts, so benchmark
    /// comparisons against other contexts over the same dataset don't
    /// double-pay the queue construction.
    pub fn build_with(ds: &'a Dataset, pre: &'a Preprocessed) -> Self {
        BigContext {
            ds,
            index: BitmapIndex::build(ds),
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

    /// A fresh [`ScratchSpace`] sized for this context's dataset.
    pub fn scratch(&self) -> ScratchSpace {
        ScratchSpace::new(self.ds.len())
    }

    /// BIG-Score against this context's index.
    pub(crate) fn scorer(&self) -> Scorer<'_> {
        Scorer::new(self.ds.masks(), &self.pre, None, Columns::Big(&self.index))
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
    walk_one(
        ctx.pre.queue(),
        k,
        std::slice::from_mut(scratch),
        &[],
        &ctx.scorer(),
    )
}

/// BIG-Score (Algorithm 3) against the context's index.
#[cfg(test)]
fn big_score(
    ctx: &BigContext<'_>,
    o: ObjectId,
    tau: Option<usize>,
    scratch: &mut ScratchSpace,
) -> Outcome {
    ctx.scorer().score(o, tau, scratch)
}

/// What the scoring terms need to know about the candidate being scored.
#[derive(Clone, Copy)]
pub(crate) struct Candidate {
    /// The candidate's observed dimensions.
    pub(crate) mask: DimMask,
    /// Its row in the index, when it lives there (its own bit is then
    /// excluded from its score).
    pub(crate) member: Option<usize>,
    /// `|F(o)|`: how many of the rows scored against observe no
    /// dimension in common with the candidate.
    pub(crate) f: usize,
}

impl Candidate {
    /// Member `o` of the rows whose masks are `masks`, with its
    /// incomparable count from `pre`.
    pub(crate) fn member(masks: &[DimMask], pre: &Preprocessed, o: ObjectId) -> Self {
        let mask = masks[o as usize];
        Candidate {
            mask,
            member: Some(o as usize),
            f: pre.masks.incomparable(mask),
        }
    }
}

/// What one visit of a candidate measured, once for every replay of a
/// walk: the scoring term's counts, exact `|∩ᵢ Qᵢ|` included
/// ([`Term::count`]), or `None` when Heuristic 2 pruned it at the budget
/// it was measured at — which prunes it at every τ at least that one.
pub(crate) type Measured = Option<Term>;

/// The counts of the scoring term `|P − F| + |Q − P − nonD|`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Term {
    /// `|Q − F(o)| = |G(o)| + |Q − P|`: the rows the candidate dominates
    /// or ties somewhere (`G(o) = P − F(o)`; `P ⊆ Q` and `F(o) ⊆ P`).
    pub(crate) q_minus_f: usize,
    /// `|nonD(o)|`, the rows of `Q − P` it does not dominate.
    pub(crate) non_d: usize,
    /// `|F(o)|`, the rows it shares no observed dimension with.
    pub(crate) f: usize,
}

impl Term {
    /// The term of a member whose `|∩ᵢ Qᵢ|` (its own bit included) and
    /// `nonD` are known: `score(o) = |Q| − |F(o)| − |nonD(o)|` with
    /// `|Q| = count − 1` (§4.4–4.5).
    pub(crate) fn recalled(count: usize, non_d: usize, f: usize) -> Self {
        Term {
            q_minus_f: count - 1 - f,
            non_d,
            f,
        }
    }

    /// The candidate's `|∩ᵢ Qᵢ|`, its own bit included: [`Term::recalled`]
    /// run backwards.
    pub(crate) fn count(&self) -> usize {
        self.q_minus_f + self.f + 1
    }

    /// How many rows the candidate dominates.
    pub(crate) fn score(&self) -> usize {
        self.q_minus_f - self.non_d
    }
}

/// BIG-Score's measure step (Algorithm 3) of member `o` of `ds` against
/// `index`: Heuristic 2 at the loosest τ `need` names — skipped while no
/// replay holds one — and the term's counts unless that test prunes for
/// every replay. Unscoped, the test reads and feeds the index's memo
/// ([`BitmapIndex::max_bit_score_above`]). With a `scope`, every set is
/// ANDed with its rows and the candidate is restricted to its
/// dimensions: the score counts only the rows in scope, compared inside
/// the scope's dimensions (a constrained or subspace query).
/// Allocation-free.
#[inline]
pub(crate) fn big_measure(
    masks: &[DimMask],
    index: &BitmapIndex,
    pre: &Preprocessed,
    scope: Option<&Scope>,
    o: ObjectId,
    need: Need,
    scratch: &mut ScratchSpace,
) -> Measured {
    let rows = scope.map(|s| &s.rows);
    let select = || {
        let mut sel = index.selection_of(o as usize);
        if let Some(s) = scope {
            sel.restrict(s.dims);
        }
        sel
    };
    // Heuristic 2 — bitmap pruning on the tight bound. The raw
    // intersection counts o's own bit, so `MaxBitScore(o) ≤ τ` reads
    // `|∩ᵢ Qᵢ| ≤ τ + 1`. Unscoped, the index's member entry point decides:
    // its memo first — a row an earlier query pruned at this budget or a
    // lower one costs one load — then a pair of picked columns' joint
    // count in its pair tables, else a fraction of one scan pass. Scoped
    // and subspace walks bypass the memo (a subspace's restricted picks
    // raise the count past what it bounds) and go to the tables and the
    // scan. Nothing is written but the memo. Survivors re-intersect in
    // the term below — redundant, but survivors enter the candidate set
    // by construction, so there are at most ~k of them per τ value.
    let q = need.tau.and_then(|t| match scope {
        None => index.max_bit_score_above(o, t).map(|s| s + 1),
        Some(_) => index.q_count_selected_above_scoped(&select(), rows, t + 1),
    });
    if q.is_none() && !need.unfilled {
        return None;
    }
    scratch.sel = select();
    let cand = match scope {
        Some(s) => s.candidate(masks, o),
        None => Candidate::member(masks, pre, o),
    };
    scratch.bin_sel = scratch.sel;
    let term = term_counts(index, &cand, rows, scratch);
    debug_assert!(q.is_none_or(|q| q == term.count()), "scan and term agree");
    // The count is exact whether or not Heuristic 2 ran — before τ forms
    // it does not — so the memo keeps it either way.
    if scope.is_none() {
        index.record_count(o, term.count());
    }
    Some(term)
}

/// BIG-Score's decide step for a replay holding `tau`: Heuristic 2 prunes
/// when `|∩ᵢ Qᵢ| ≤ τ + 1`, anything else scores.
#[inline]
pub(crate) fn big_decide(m: &Measured, tau: Option<usize>) -> Outcome {
    match m {
        Some(term) if tau.is_none_or(|t| term.count() > t + 1) => Outcome::Score(term.score()),
        _ => Outcome::PrunedBitmap,
    }
}

/// BIG-Score's term: the score at the exact picks resolved in
/// `scratch.sel`, where no row of `Q − P` can sit below the candidate in
/// its bin.
pub(crate) fn big_term(
    index: &BitmapIndex,
    cand: &Candidate,
    scope: Option<&RowScope>,
    scratch: &mut ScratchSpace,
) -> usize {
    scratch.bin_sel = scratch.sel;
    term_counts(index, cand, scope, scratch).score()
}

/// The scoring term of BIG-Score and IBIG-Score: the counts of
/// `|P − F| + |Q − P − nonD|`, how many of the index's rows the candidate
/// dominates, over `scope`'s rows only when there is a scope.
///
/// `Q` and `P` are filled at the picks in `scratch.bin_sel` (the binned
/// ones for IBIG, the exact ones for BIG), and `Q − P` is split in one
/// fused pass against the exact picks in `scratch.sel`
/// ([`BitmapIndex::residue_counts`]). Heuristic 3 is decided on the whole
/// `nonD` count ([`crate::ibig::ibig_decide`]): the paper checks it after
/// each probed dimension and each residue member, but the count only
/// grows, so it overdraws the budget at some check iff it does at the
/// end.
pub(crate) fn term_counts(
    index: &BitmapIndex,
    cand: &Candidate,
    scope: Option<&RowScope>,
    scratch: &mut ScratchSpace,
) -> Term {
    let ScratchSpace { q, p, sel, bin_sel } = scratch;
    index.q_into_selected_scoped(bin_sel, cand.member, scope, q);
    index.p_into_selected_scoped(bin_sel, scope, p);
    // G(o) = P − F(o): strictly-worse-or-missing everywhere, comparable.
    // P holds every row of F(o), which misses each dimension P picks.
    let g = p.count_ones() - cand.f;
    let (q_minus_p, non_d) = index.residue_counts(q, p, sel, bin_sel, cand.mask);
    Term {
        q_minus_f: g + q_minus_p,
        non_d,
        f: cand.f,
    }
}

/// The test oracle of BIG-Score: a plain row scan over raw values that
/// shares no column, kernel or probe with the path under test.
/// `MaxBitScore(o)` counts the rows other than `o` at or above it wherever
/// both observe; the score counts the rows `o` dominates.
#[cfg(test)]
fn big_score_alloc(ctx: &BigContext<'_>, o: ObjectId, tau: Option<usize>) -> Outcome {
    let ds = ctx.ds;
    let common = |r: ObjectId| ds.mask(o).and(ds.mask(r));
    let cells = move |r: ObjectId| {
        common(r)
            .iter()
            .map(move |d| (ds.raw_value(o, d), ds.raw_value(r, d)))
    };
    let max_bit_score = ds
        .ids()
        .filter(|&r| r != o && cells(r).all(|(a, b)| b >= a))
        .count();
    if matches!(tau, Some(t) if max_bit_score <= t) {
        return Outcome::PrunedBitmap;
    }
    let dominated = |r: ObjectId| cells(r).all(|(a, b)| a <= b) && cells(r).any(|(a, b)| a < b);
    Outcome::Score(ds.ids().filter(|&r| r != o && dominated(r)).count())
}

/// Algorithm 4 driven by the allocating oracle scorer (test-only).
#[cfg(test)]
pub(crate) fn big_with_alloc(ctx: &BigContext<'_>, k: usize) -> TkdResult {
    crate::topk::walk_scored(ctx.pre.queue(), k, |o, tau| big_score_alloc(ctx, o, tau))
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
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// The scratch-based scoring path returns identical scores *and*
        /// identical `PruneStats` to the row-scan oracle, across low /
        /// medium / high missing rates and cardinalities C ∈ {2, 10, 1000}.
        #[test]
        fn score_parity_with_allocating_oracle(
            ds_low in dataset_strategy(0.1, 2),
            ds_mid in dataset_strategy(0.3, 10),
            ds_high in dataset_strategy(0.6, 1000),
            ds_wide in dataset_strategy(0.1, 1000),
            k in 1usize..8,
        ) {
            for ds in [&ds_low, &ds_mid, &ds_high, &ds_wide] {
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
