//! IBIG — the Improved BIG algorithm (§4.4–4.5, Algorithm 5).
//!
//! IBIG trades query time for index space: columns come from the **binned**
//! bitmap index (one bit per value range, Eq. 3–4) and are stored
//! **compressed** (CONCISE by default, WAH optional). Binning coarsens
//! `[Qᵢ]`/`[Pᵢ]`, so `Q − P` now holds *same-bin* objects whose values may
//! even be better than `o`'s; those are resolved through the per-dimension
//! B+-tree probes of §4.5 and counted into `nonD(o)`. While `nonD` grows,
//! **Heuristic 3** (partial score pruning) abandons objects early:
//! `score(o) = |Q| − |F(o)| − |nonD(o)|` can only shrink as `nonD` grows, so
//! once `|nonD| > |Q| − |F| − τ` the object is out.
//!
//! Like BIG, the scoring path is **allocation-free** after context build:
//! the per-object `Q`/`P` intersections decompress straight into the
//! caller's [`ScratchSpace`] (first column written, the rest ANDed in off
//! their run streams — no compressed intermediates), the `nonD`/`tagT`
//! tables are epoch-stamped in the same scratch, and the B+-tree probes
//! return concrete range cursors instead of boxed iterators.

use crate::preprocess::Preprocessed;
use crate::result::TkdResult;
use crate::scratch::ScratchSpace;
use crate::stats::PruneStats;
use crate::topk::TopK;
use std::borrow::Cow;
use tkd_bitvec::{BitVec, CompressedBitmap, Concise};
use tkd_index::{cost, BinnedBitmapIndex, BinnedBitmapIndexBuilder, CompressedColumns};
use tkd_model::{stats, Dataset, ObjectId};

/// Where an [`IbigContext`] reads its `[Qᵢ]`/`[Pᵢ]` columns from.
///
/// Static contexts compress the binned columns (the paper's storage
/// layout). The dynamic update layer keeps them **dense** instead — run
/// encodings cannot absorb in-place bit flips, so compression is traded
/// for `O(1)` tombstone/append maintenance — and scoring ANDs the picked
/// dense columns directly (including column 0, which carries the
/// tombstone mask there).
enum ColumnStore<C> {
    /// WAH/CONCISE-compressed copies of every column.
    Compressed(CompressedColumns<C>),
    /// Read straight from the (possibly dynamic) binned index's columns.
    Dense,
}

/// Precomputed inputs of Algorithm 5: binned index, its column store,
/// plus the shared [`Preprocessed`] artifacts.
pub struct IbigContext<'a, C: CompressedBitmap = Concise> {
    ds: &'a Dataset,
    index: Cow<'a, BinnedBitmapIndex>,
    columns: ColumnStore<C>,
    pre: Cow<'a, Preprocessed>,
}

impl<'a, C: CompressedBitmap> IbigContext<'a, C> {
    /// Build with explicit per-dimension bin counts.
    ///
    /// Each dimension is sorted once: the same column feeds the binned
    /// index and the queue.
    ///
    /// # Panics
    /// Panics if `bins_per_dim.len() != ds.dims()` or any entry is zero.
    pub fn build(ds: &'a Dataset, bins_per_dim: &[usize]) -> Self {
        assert_eq!(bins_per_dim.len(), ds.dims(), "one bin count per dimension");
        let mut index = BinnedBitmapIndexBuilder::new(bins_per_dim, 0, ds.len());
        let pre = Preprocessed::build_sharing(ds, |dim, column| index.push_dim(dim, column));
        let index = index.finish();
        let columns = ColumnStore::Compressed(CompressedColumns::from_binned(&index));
        IbigContext {
            ds,
            index: Cow::Owned(index),
            columns,
            pre: Cow::Owned(pre),
        }
    }

    /// Build borrowing shared [`Preprocessed`] artifacts (see
    /// [`crate::big::BigContext::build_with`]).
    pub fn build_with(ds: &'a Dataset, bins_per_dim: &[usize], pre: &'a Preprocessed) -> Self {
        let index = BinnedBitmapIndex::build(ds, bins_per_dim);
        let columns = ColumnStore::Compressed(CompressedColumns::from_binned(&index));
        IbigContext {
            ds,
            index: Cow::Owned(index),
            columns,
            pre: Cow::Borrowed(pre),
        }
    }

    /// Borrow **prebuilt** artifacts wholesale, scoring off the index's
    /// dense columns — the dynamic update layer's entry into the unchanged
    /// Algorithm 5 scratch path. Dynamic contexts stay uncompressed
    /// because run encodings cannot absorb in-place bit flips; the store
    /// trades the paper's compression for `O(1)` tombstone/append
    /// maintenance.
    pub fn from_prebuilt_dense(
        ds: &'a Dataset,
        index: &'a BinnedBitmapIndex,
        pre: &'a Preprocessed,
    ) -> Self {
        assert_eq!(index.n(), ds.len(), "index/dataset size mismatch");
        IbigContext {
            ds,
            index: Cow::Borrowed(index),
            columns: ColumnStore::Dense,
            pre: Cow::Borrowed(pre),
        }
    }

    /// AND one picked column per dimension into `dst` from whichever store
    /// this context uses.
    fn and_selected_into(
        &self,
        picks: impl IntoIterator<Item = (usize, usize)>,
        dst: &mut tkd_bitvec::BitVec,
    ) {
        match &self.columns {
            ColumnStore::Compressed(cols) => cols.and_selected_into(picks, dst),
            ColumnStore::Dense => self.index.and_selected_into(picks, dst),
        }
    }

    /// Build with the Eq. 8 optimal bin count on every dimension.
    pub fn build_auto(ds: &'a Dataset) -> Self {
        let x = cost::optimal_bins(ds.len(), stats::missing_rate(ds));
        Self::build(ds, &vec![x; ds.dims()])
    }

    /// The binned index.
    pub fn index(&self) -> &BinnedBitmapIndex {
        &self.index
    }

    /// The compressed column store.
    ///
    /// # Panics
    /// Panics on dense contexts ([`IbigContext::from_prebuilt_dense`]),
    /// which keep no compressed copies.
    pub fn columns(&self) -> &CompressedColumns<C> {
        match &self.columns {
            ColumnStore::Compressed(cols) => cols,
            ColumnStore::Dense => panic!("dense IBIG context has no compressed columns"),
        }
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

    fn f_of(&self, o: ObjectId) -> &BitVec {
        self.pre.f_of(self.ds, o)
    }

    /// Column pick for `[Qᵢ]` in dimension `d` (same-or-higher bin /
    /// missing slot).
    #[inline]
    fn q_pick(&self, o: ObjectId, d: usize) -> (usize, usize) {
        let c = self
            .index
            .bin_of(o, d)
            .map(|b| (b - 1) as usize)
            .unwrap_or(0);
        (d, c)
    }

    /// Column pick for `[Pᵢ]` in dimension `d` (strictly higher bin /
    /// missing slot).
    #[inline]
    fn p_pick(&self, o: ObjectId, d: usize) -> (usize, usize) {
        let c = self.index.bin_of(o, d).map(|b| b as usize).unwrap_or(0);
        (d, c)
    }
}

/// Answer a TKD query with IBIG using the Eq. 8 automatic bin count and
/// CONCISE compression (the paper's configuration).
pub fn ibig(ds: &Dataset, k: usize) -> TkdResult {
    let ctx: IbigContext<'_, Concise> = IbigContext::build_auto(ds);
    ibig_with(&ctx, k)
}

/// Answer a TKD query with IBIG and explicit bin counts.
pub fn ibig_with_bins(ds: &Dataset, k: usize, bins_per_dim: &[usize]) -> TkdResult {
    let ctx: IbigContext<'_, Concise> = IbigContext::build(ds, bins_per_dim);
    ibig_with(&ctx, k)
}

/// Algorithm 5's driver over a prebuilt context (allocates one scratch
/// space for the query; reuse [`ibig_with_scratch`] to avoid even that).
pub fn ibig_with<C: CompressedBitmap>(ctx: &IbigContext<'_, C>, k: usize) -> TkdResult {
    let mut scratch = ctx.scratch();
    ibig_with_scratch(ctx, k, &mut scratch)
}

/// Algorithm 5 over a prebuilt context and caller-owned scratch: the
/// steady-state path, performing zero heap allocations per visited object.
///
/// # Panics
/// Panics if `scratch` was sized for a different object count.
pub fn ibig_with_scratch<C: CompressedBitmap>(
    ctx: &IbigContext<'_, C>,
    k: usize,
    scratch: &mut ScratchSpace,
) -> TkdResult {
    if k == 0 {
        // τ can never form with an unfillable candidate set; skip the
        // full-queue scoring pass (uniform k-edge behavior).
        return TkdResult::new(
            Vec::new(),
            PruneStats {
                h1_pruned: ctx.pre.queue().len(),
                ..Default::default()
            },
        );
    }
    let mut top = TopK::new(k);
    let mut stats = PruneStats::default();
    let queue = ctx.pre.queue();
    for (visited, &(o, max_score)) in queue.iter().enumerate() {
        // Heuristic 1 — early termination on MaxScore.
        if top.prunes(max_score) {
            stats.h1_pruned = queue.len() - visited;
            break;
        }
        match ibig_score(ctx, o, &top, scratch) {
            ScoreOutcome::PrunedByBitmap => stats.h2_pruned += 1,
            ScoreOutcome::PrunedByPartialScore => stats.h3_pruned += 1,
            ScoreOutcome::Score(score) => {
                stats.scored += 1;
                top.offer(o, score);
            }
        }
    }
    TkdResult::new(top.into_entries(), stats)
}

pub(crate) enum ScoreOutcome {
    PrunedByBitmap,
    PrunedByPartialScore,
    Score(usize),
}

/// IBIG-Score (Algorithm 5). Crate-visible so the standing query layer can
/// score cache misses through the identical path.
pub(crate) fn ibig_score<C: CompressedBitmap>(
    ctx: &IbigContext<'_, C>,
    o: ObjectId,
    top: &TopK,
    scratch: &mut ScratchSpace,
) -> ScoreOutcome {
    let ds = ctx.ds;
    let dims = ds.dims();
    let ScratchSpace { q, p, stamps } = scratch;
    stamps.next_object();
    // Q decompressed straight into scratch; o itself is always a member of
    // ∩[Qi], so MaxBitScore = |∩Qi| − 1 before clearing its bit.
    ctx.and_selected_into((0..dims).map(|d| ctx.q_pick(o, d)), q);
    let max_bit_score = q.count_ones() - 1;
    // Heuristic 2 — bitmap pruning (still sound under binning, §4.4).
    if top.prunes(max_bit_score) {
        return ScoreOutcome::PrunedByBitmap;
    }
    q.clear(o as usize);
    ctx.and_selected_into((0..dims).map(|d| ctx.p_pick(o, d)), p);
    let f = ctx.f_of(o);
    let f_count = f.count_ones();
    // G(o) = P − F(o) = |P ∧ ¬F|, fused.
    let g = p.and_not_count(f);

    // Budget for Heuristic 3: score(o) = |Q| − |F| − |nonD| can never exceed
    // |Q| − |F| − |nonD so far|.
    let h3_budget = |non_d: usize, tau: Option<usize>| -> bool {
        matches!(tau, Some(t) if non_d > max_bit_score.saturating_sub(f_count).saturating_sub(t))
    };
    // Membership in Q − P, straight off the scratch words.
    let in_qmp = |pid: usize| q.get(pid) && !p.get(pid);

    let mut non_d = 0usize;
    let o_mask = ds.mask(o);
    // (a) Same-bin objects strictly better than o in some dimension cannot
    //     be dominated: B+-tree probe per observed dimension (§4.5).
    for dim in o_mask.iter() {
        for pid in ctx.index.ids_in_bin_below(ds, o, dim) {
            if in_qmp(pid as usize) && stamps.mark_nond(pid as usize) {
                non_d += 1;
            }
        }
        // Heuristic 3 — partial score pruning after every dimension.
        if h3_budget(non_d, top.tau()) {
            return ScoreOutcome::PrunedByPartialScore;
        }
    }
    // (b) tagT accumulation: same-value probes per observed dimension.
    for dim in o_mask.iter() {
        let v = ds.raw_value(o, dim);
        for pid in ctx.index.ids_equal(dim, v) {
            if pid != o && in_qmp(pid as usize) {
                stamps.bump_tag(pid as usize);
            }
        }
    }
    // Members of Q − P equal to o on *all* commonly observed dimensions are
    // not dominated either. |Q − P| is counted during the same fused pass.
    let mut q_minus_p = 0usize;
    for pid in q.iter_ones_and_not(p) {
        q_minus_p += 1;
        if stamps.is_nond(pid) {
            continue;
        }
        let common = o_mask.and(ds.mask(pid as ObjectId)).count();
        if stamps.tag_of(pid) == common {
            non_d += 1;
            if h3_budget(non_d, top.tau()) {
                return ScoreOutcome::PrunedByPartialScore;
            }
        }
    }
    ScoreOutcome::Score(g + q_minus_p - non_d)
}

/// The original allocating IBIG-Score, kept as the test oracle for the
/// scratch-based path. Uses hash-based `nonD`/`tagT` tables so it shares
/// no machinery with the path under test.
#[cfg(test)]
fn ibig_score_alloc<C: CompressedBitmap>(
    ctx: &IbigContext<'_, C>,
    o: ObjectId,
    top: &TopK,
) -> ScoreOutcome {
    use std::collections::{HashMap, HashSet};
    let ds = ctx.ds;
    let dims = ds.dims();
    // Oracle-side fill: allocate fresh buffers per call (hash-based
    // tables below keep the oracle machinery-independent of the scratch
    // path; the column store is exercised through the same picks).
    let q_picks: Vec<(usize, usize)> = (0..dims).map(|d| ctx.q_pick(o, d)).collect();
    let mut q = tkd_bitvec::BitVec::zeros(ds.len());
    ctx.and_selected_into(q_picks.iter().copied(), &mut q);
    let max_bit_score = q.count_ones() - 1;
    if top.prunes(max_bit_score) {
        return ScoreOutcome::PrunedByBitmap;
    }
    q.clear(o as usize);
    let p_picks: Vec<(usize, usize)> = (0..dims).map(|d| ctx.p_pick(o, d)).collect();
    let mut p = tkd_bitvec::BitVec::zeros(ds.len());
    ctx.and_selected_into(p_picks.iter().copied(), &mut p);
    let f = ctx.f_of(o);
    let f_count = f.count_ones();
    let g = p.count_ones() - p.and_count(f);
    let qmp = q.and_not(&p);

    let h3_budget = |non_d: usize, tau: Option<usize>| -> bool {
        matches!(tau, Some(t) if non_d > max_bit_score.saturating_sub(f_count).saturating_sub(t))
    };

    let mut non_d_set: HashSet<usize> = HashSet::new();
    let o_mask = ds.mask(o);
    for dim in o_mask.iter() {
        for pid in ctx.index.ids_in_bin_below(ds, o, dim) {
            if qmp.get(pid as usize) {
                non_d_set.insert(pid as usize);
            }
        }
        if h3_budget(non_d_set.len(), top.tau()) {
            return ScoreOutcome::PrunedByPartialScore;
        }
    }
    let mut tags: HashMap<usize, u32> = HashMap::new();
    for dim in o_mask.iter() {
        let v = ds.raw_value(o, dim);
        for pid in ctx.index.ids_equal(dim, v) {
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
            if h3_budget(non_d, top.tau()) {
                return ScoreOutcome::PrunedByPartialScore;
            }
        }
    }
    let l = qmp.count_ones() - non_d;
    ScoreOutcome::Score(g + l)
}

/// Algorithm 5 driven by the allocating oracle scorer (test-only).
#[cfg(test)]
pub(crate) fn ibig_with_alloc<C: CompressedBitmap>(
    ctx: &IbigContext<'_, C>,
    k: usize,
) -> TkdResult {
    let mut top = TopK::new(k);
    let mut stats = PruneStats::default();
    let queue = ctx.pre.queue();
    for (visited, &(o, max_score)) in queue.iter().enumerate() {
        if top.prunes(max_score) {
            stats.h1_pruned = queue.len() - visited;
            break;
        }
        match ibig_score_alloc(ctx, o, &top) {
            ScoreOutcome::PrunedByBitmap => stats.h2_pruned += 1,
            ScoreOutcome::PrunedByPartialScore => stats.h3_pruned += 1,
            ScoreOutcome::Score(score) => {
                stats.scored += 1;
                top.offer(o, score);
            }
        }
    }
    TkdResult::new(top.into_entries(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive;
    use proptest::prelude::*;
    use tkd_bitvec::Wah;
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
    fn wah_codec_gives_identical_answers() {
        let ds = fixtures::fig3_sample();
        let ctx: IbigContext<'_, Wah> = IbigContext::build(&ds, &[2, 2, 3, 3]);
        let r = ibig_with(&ctx, 2);
        assert_eq!(r.scores(), vec![16, 16]);
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
        let top = TopK::new(1);
        for o in ds.ids() {
            match ibig_score(&ctx, o, &top, &mut scratch) {
                ScoreOutcome::Score(s) => {
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
