//! The binned bitmap index of §4.4 (Fig. 9) with the adaptive binning
//! strategy of Eq. 3–4, as a **view** over the exact index.
//!
//! A binned column is `{missing ∨ v > boundary}`. Every boundary is an
//! observed value, so every binned column is an exact column — the one at
//! the slot `#values ≤ boundary` of [`crate::BitmapIndex`]'s value table.
//! [`BinnedBitmapIndex`] therefore keeps no columns of its own: it is the
//! exact index plus per-dimension [`BinBoundaries`], and its `[Qᵢ]`/`[Pᵢ]`
//! picks are a [`ColumnSelection`] at those slots. The exact index's fills
//! and budgeted scan serve Heuristic 2 on it, live mask included, and the
//! §4.5 `nonD(o)` probes are AND-NOTs of two exact columns
//! ([`BitmapIndex::residue_counts`]). Bins set only how tight
//! Heuristics 2 and 3 prune; no score depends on them.
//!
//! A member row's count at its binned picks and its `nonD` depend on the
//! row, the index and the boundaries, never on τ, so the exact index
//! keeps them across queries in its binned memo lane
//! ([`BinnedBitmapIndex::member_count_above`]). The lane's entries hold
//! for one set of pick tables: it belongs to the first boundaries that
//! read it, by their stamp, and a view through other boundaries runs
//! memo-free.
//!
//! The last bin is open above: a value inserted past the build-time
//! boundaries lands in it, and a dimension with no boundaries (never
//! observed at build) holds all its values in one bin. Compaction
//! re-quantiles, so the boundaries follow the data between rebuilds
//! without being maintained.

use crate::bitmap::{BitmapIndex, ColumnSelection};
use crate::memo::BinnedLane;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use tkd_bitvec::BitVec;
use tkd_model::{Dataset, ObjectId};

/// Compute bin upper boundaries for one dimension (Eq. 3–4).
///
/// `value_counts` are the distinct observed values ascending with their
/// multiplicities (`N_ik`); `x` is the requested number of bins. The k-th
/// bin greedily absorbs whole distinct values while its cumulative count
/// stays within `remaining / bins_left` (always taking at least one value),
/// and the last bin absorbs the rest — the paper's adaptive, skew-aware
/// partitioning. Returns the per-bin *upper* boundary values; fewer than `x`
/// bins result when there are fewer distinct values.
pub fn compute_bins(value_counts: &[(f64, usize)], x: usize) -> Vec<f64> {
    assert!(x >= 1, "at least one bin required");
    let mut boundaries = Vec::with_capacity(x.min(value_counts.len()));
    let mut remaining: usize = value_counts.iter().map(|&(_, c)| c).sum();
    let mut bins_left = x;
    let mut idx = 0;
    while idx < value_counts.len() {
        if bins_left == 1 {
            boundaries.push(value_counts[value_counts.len() - 1].0);
            break;
        }
        let capacity = remaining as f64 / bins_left as f64;
        let mut cum = 0usize;
        let mut taken = 0usize;
        while idx + taken < value_counts.len() {
            let c = value_counts[idx + taken].1;
            if taken > 0 && (cum + c) as f64 > capacity {
                break;
            }
            cum += c;
            taken += 1;
            if cum as f64 >= capacity {
                break;
            }
        }
        boundaries.push(value_counts[idx + taken - 1].0);
        idx += taken;
        remaining -= cum;
        bins_left -= 1;
    }
    boundaries
}

/// Per-dimension bin boundaries over one [`BitmapIndex`], and, for each of
/// its value slots, the exact columns that are the slot's bin's `[Qᵢ]`
/// and `[Pᵢ]` picks. The boundaries are the state (what a snapshot
/// stores); the pick tables follow the index's value tables
/// ([`BinBoundaries::sync`]).
///
/// Each set of boundaries carries a process-unique stamp, taken at
/// [`BinBoundaries::build`] and [`BinBoundaries::from_store_parts`] and
/// kept by `clone`: the index's binned memo lane belongs to the first
/// stamp that reads it (see [`BinnedBitmapIndex::member_count_above`]).
/// Equality ignores it.
#[derive(Clone, Debug)]
pub struct BinBoundaries {
    /// Per dimension: ascending upper boundary of each bin; the last bin
    /// is open above.
    bounds: Vec<Vec<f64>>,
    /// `picks[d][j]`: the `(Q, P)` exact columns of the bin holding value
    /// slot `j ≥ 1` of `d`; entry 0 (missing) is `(0, 0)`.
    picks: Vec<Vec<(u32, u32)>>,
    /// Which boundaries these are, to the binned memo lane.
    stamp: u64,
}

impl PartialEq for BinBoundaries {
    fn eq(&self, other: &Self) -> bool {
        self.bounds == other.bounds && self.picks == other.picks
    }
}

/// The next [`BinBoundaries`] stamp; 0 is the memo's "unclaimed".
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

impl BinBoundaries {
    /// Quantile boundaries (Eq. 3–4) of `exact`'s live values, with
    /// `bins_per_dim[i]` bins requested for dimension `i`. The value
    /// counts are read off the columns' popcounts — no row is visited.
    ///
    /// # Panics
    /// Panics if `bins_per_dim.len() != exact.dims()` or an entry is zero.
    pub fn build(exact: &BitmapIndex, bins_per_dim: &[usize]) -> Self {
        assert_eq!(
            bins_per_dim.len(),
            exact.dims(),
            "one bin count per dimension"
        );
        let bounds = bins_per_dim
            .iter()
            .enumerate()
            .map(|(d, &x)| {
                assert!(x >= 1, "at least one bin required");
                let counts = exact.value_counts(d);
                if counts.is_empty() {
                    Vec::new()
                } else {
                    compute_bins(&counts, x)
                }
            })
            .collect();
        Self::over(exact, bounds)
    }

    /// Adopt persisted boundaries for `exact` — the snapshot loader's
    /// constructor.
    ///
    /// # Errors
    /// A description of the first inconsistency: a boundary set per
    /// dimension other than `exact.dims()`, or NaN or non-ascending
    /// boundaries.
    pub fn from_store_parts(exact: &BitmapIndex, bounds: Vec<Vec<f64>>) -> Result<Self, String> {
        if bounds.len() != exact.dims() {
            return Err(format!(
                "{} boundary sets for {} dimensions",
                bounds.len(),
                exact.dims()
            ));
        }
        for (d, b) in bounds.iter().enumerate() {
            if b.iter().any(|v| v.is_nan()) {
                return Err(format!("NaN in the bin boundaries of dim {d}"));
            }
            if b.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "bin boundaries of dim {d} are not strictly ascending"
                ));
            }
        }
        Ok(Self::over(exact, bounds))
    }

    fn over(exact: &BitmapIndex, bounds: Vec<Vec<f64>>) -> Self {
        let mut bins = BinBoundaries {
            picks: vec![Vec::new(); bounds.len()],
            bounds,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
        };
        bins.sync(exact);
        bins
    }

    /// Bring the pick tables up to date with `exact`'s value tables after
    /// it gained distinct values. Between compactions a value table only
    /// grows, so a table of the wrong length is a stale one; only those
    /// are recomputed, in one merge of the values with the boundaries.
    pub fn sync(&mut self, exact: &BitmapIndex) {
        for (d, picks) in self.picks.iter_mut().enumerate() {
            let values = exact.values(d);
            if picks.len() == values.len() + 1 {
                continue;
            }
            let cut = |b| upper_column(&self.bounds[d], values, b);
            picks.clear();
            picks.push((0, 0));
            let (mut b, mut lo, mut hi) = (0, 0, cut(0));
            for j in 1..=values.len() as u32 {
                while j > hi {
                    b += 1;
                    (lo, hi) = (hi, cut(b));
                }
                picks.push((lo, hi));
            }
        }
    }

    /// The ascending bin upper boundaries of `dim` (the last bin is open
    /// above whatever its stored boundary says).
    pub fn of(&self, dim: usize) -> &[f64] {
        &self.bounds[dim]
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.bounds.len()
    }
}

/// The exact column that is binned column `b + 1` (0-based bin `b`'s
/// `[Pᵢ]`): the one at the slot of its boundary, `#values ≤ boundary`, or
/// the missing column for the open last bin.
fn upper_column(bounds: &[f64], values: &[f64], b: usize) -> u32 {
    if b + 1 >= bounds.len() {
        values.len() as u32
    } else {
        values.partition_point(|&v| v <= bounds[b]) as u32
    }
}

/// What IBIG's measure step knows of a member row at its binned picks
/// ([`BinnedBitmapIndex::member_count_above`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberCount {
    /// `|∩ᵢ Qᵢ|` at the row's binned picks, its own bit included: exact
    /// from [`BinnedBitmapIndex::member_count_above`]; from
    /// [`BinnedBitmapIndex::member_count_bound`] an upper bound, exact
    /// when `non_d` is known.
    pub count: usize,
    /// The row's `nonD(o)`, the rows of `Q − P` it does not dominate,
    /// when the binned memo lane holds it.
    pub non_d: Option<usize>,
}

/// Binned bitmap index: per-dimension bin boundaries viewed over a
/// [`BitmapIndex`], with one column per value *bin* — `Σ(xᵢ+1)·N` bits
/// (Eq. 5) where the exact index holds `Σ(Cᵢ+1)·N`. See the module docs.
///
/// Because a bin conflates a value range, `[Qᵢ]` (same-or-higher bin) may
/// include objects that are actually *better* than `o` in dimension `i`;
/// IBIG (Algorithm 5) counts those into `nonD(o)` with
/// [`BitmapIndex::residue_counts`] over the exact columns.
#[derive(Clone, Debug)]
pub struct BinnedBitmapIndex<'a> {
    exact: Cow<'a, BitmapIndex>,
    bins: Cow<'a, BinBoundaries>,
}

impl<'a> BinnedBitmapIndex<'a> {
    /// Build the exact index of `ds` and its Eq. 3–4 boundaries with
    /// `bins_per_dim[i]` bins requested for dimension `i`.
    ///
    /// # Panics
    /// Panics if `bins_per_dim.len() != ds.dims()` or any entry is zero.
    pub fn build(ds: &Dataset, bins_per_dim: &[usize]) -> BinnedBitmapIndex<'static> {
        let exact = BitmapIndex::build(ds);
        BinnedBitmapIndex::owned(exact, bins_per_dim)
    }

    /// The view of `exact` binned with `bins_per_dim[i]` bins requested
    /// for dimension `i`, owning both.
    pub fn owned(exact: BitmapIndex, bins_per_dim: &[usize]) -> BinnedBitmapIndex<'static> {
        let bins = BinBoundaries::build(&exact, bins_per_dim);
        BinnedBitmapIndex {
            exact: Cow::Owned(exact),
            bins: Cow::Owned(bins),
        }
    }

    /// The view of `exact` through `bins`, borrowing both — nothing is
    /// built or copied.
    ///
    /// # Panics
    /// Panics if the boundaries are for another dimensionality.
    pub fn new(exact: &'a BitmapIndex, bins: &'a BinBoundaries) -> Self {
        assert_eq!(bins.dims(), exact.dims(), "one boundary set per dimension");
        BinnedBitmapIndex {
            exact: Cow::Borrowed(exact),
            bins: Cow::Borrowed(bins),
        }
    }

    /// The exact index underneath.
    pub fn exact(&self) -> &BitmapIndex {
        &self.exact
    }

    /// The bin boundaries.
    pub fn boundaries(&self) -> &BinBoundaries {
        &self.bins
    }

    /// Number of indexed objects.
    pub fn n(&self) -> usize {
        self.exact.n()
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.exact.dims()
    }

    /// Number of bins materialized for `dim` (≤ requested).
    pub fn num_bins(&self, dim: usize) -> usize {
        self.bins.bounds[dim].len()
    }

    /// Number of columns of `dim` (`xᵢ + 1`).
    pub fn num_columns(&self, dim: usize) -> usize {
        self.num_bins(dim) + 1
    }

    /// Vertical column `c` of `dim`: `{p : p[i] missing ∨ bin(p[i]) > c}`
    /// (1-based bins) — the exact column at the slot of bin `c`'s upper
    /// boundary, column 0 for `c = 0` and the missing column for the
    /// open last bin.
    pub fn column(&self, dim: usize, c: usize) -> &BitVec {
        let values = self.exact.values(dim);
        let slot = match c {
            0 => 0,
            c => upper_column(&self.bins.bounds[dim], values, c - 1),
        };
        self.exact.column(dim, slot as usize)
    }

    /// Upper boundary value of 1-based `bin` in `dim`.
    pub fn bin_upper(&self, dim: usize, bin: u32) -> f64 {
        self.bins.bounds[dim][(bin - 1) as usize]
    }

    /// 1-based bin of `o` in `dim`, or `None` when missing.
    pub fn bin_of(&self, o: ObjectId, dim: usize) -> Option<u32> {
        let j = self.exact.value_slot(o as usize, dim);
        (j != 0).then(|| self.bin_of_value(dim, self.exact.values(dim)[j as usize - 1]))
    }

    /// 1-based bin holding `v` in `dim`: the first whose boundary is at or
    /// above it, or the open last one.
    fn bin_of_value(&self, dim: usize, v: f64) -> u32 {
        let bounds = &self.bins.bounds[dim];
        let b = bounds.partition_point(|&ub| ub < v);
        b.min(bounds.len().saturating_sub(1)) as u32 + 1
    }

    /// The binned `[Qᵢ]`/`[Pᵢ]` column picks of **member** row `row`, in
    /// `O(dims)` off its stored value slots: exact columns at its bins'
    /// boundaries. The equality slots are the exact ones.
    #[inline]
    pub fn selection_of(&self, row: usize) -> ColumnSelection {
        let mut sel = ColumnSelection::default();
        for (dim, picks) in self.bins.picks.iter().enumerate() {
            let j = self.exact.value_slot(row, dim);
            (sel.q[dim], sel.p[dim]) = picks[j as usize];
            sel.eq[dim] = j;
        }
        sel
    }

    /// Heuristic 2 for **member** row `row` at its binned picks, the
    /// entry point of IBIG's unscoped walk: `None` when
    /// `|∩ᵢ Qᵢ| ≤ budget` (*prune*), else the exact count with the row's
    /// `nonD` when the binned memo lane holds it — the whole measurement,
    /// from one load. The lane goes first: an entry within the budget is
    /// the prune, an exact count with its `nonD` the answer. Else
    /// [`BitmapIndex::q_count_selected_above`] decides at
    /// [`BinnedBitmapIndex::selection_of`], and the lane keeps what it
    /// proved — the budget after a prune, the exact count after a keep;
    /// [`BinnedBitmapIndex::record_non_d`] adds the `nonD` once the term
    /// is counted. The lane belongs to the first boundaries that read it:
    /// through any other, or while no walk has sized it
    /// ([`BinnedBitmapIndex::announce_walk`]) or in-place maintenance left
    /// it unreadable, this is the memo-free test.
    #[inline]
    pub fn member_count_above(&self, row: usize, budget: usize) -> Option<MemberCount> {
        let lane = self.lane(true);
        if let Some(entry) = lane.and_then(|l| l.get(row)) {
            if entry.count <= budget {
                return None;
            }
            if entry.non_d.is_some() {
                return Some(entry);
            }
        }
        let count = self
            .exact
            .q_count_selected_above(&self.selection_of(row), budget);
        if let Some(lane) = lane {
            lane.record(row, count.unwrap_or(budget), None);
        }
        count.map(|count| MemberCount { count, non_d: None })
    }

    /// Record member row `row`'s `nonD` beside its exact `count` at its
    /// binned picks (what [`BinnedBitmapIndex::member_count_above`]
    /// answered), for a later lookup to answer whole. A no-op where that
    /// lookup reads no lane.
    #[inline]
    pub fn record_non_d(&self, row: usize, count: usize, non_d: usize) {
        if let Some(lane) = self.lane(true) {
            lane.record(row, count, Some(non_d));
        }
    }

    /// A walk that reads [`BinnedBitmapIndex::member_count_above`]
    /// (IBIG's unscoped walk) starts; call once per walk, before its first
    /// lookup. The second sizes the index's binned memo lane, every entry
    /// unknown.
    pub fn announce_walk(&self) {
        self.exact.memo().binned.announce(self.exact.n());
    }

    /// The binned memo lane's entry for member row `row` through these
    /// boundaries: an upper bound on its `|∩ᵢ Qᵢ|`, exact when the `nonD`
    /// beside it is known. `None` while nothing is known or no lane is
    /// sized, while other boundaries own the lane (claiming nothing), and
    /// from any in-place maintenance until the next refresh.
    pub fn member_count_bound(&self, row: usize) -> Option<MemberCount> {
        self.lane(false)?.get(row)
    }

    /// The index's binned memo lane, if these boundaries own it — with
    /// `claim`, also if nobody does yet.
    #[inline]
    fn lane(&self, claim: bool) -> Option<BinnedLane<'_>> {
        self.exact.memo().binned_lane(self.bins.stamp, claim)
    }

    /// Resolve the binned picks for an **arbitrary value vector** — the
    /// cluster's scoring entry point ([`BitmapIndex::select_for`] for
    /// bins): the picks of the bin containing each value. For members they
    /// equal [`BinnedBitmapIndex::selection_of`].
    pub fn select_for(&self, mut value: impl FnMut(usize) -> Option<f64>) -> ColumnSelection {
        let mut sel = self.exact.select_for(&mut value);
        for dim in 0..self.dims() {
            if let Some(v) = value(dim) {
                let b = self.bin_of_value(dim, v) as usize - 1;
                let cut = |b| upper_column(&self.bins.bounds[dim], self.exact.values(dim), b);
                sel.q[dim] = if b == 0 { 0 } else { cut(b - 1) };
                sel.p[dim] = cut(b);
            }
        }
        sel
    }

    /// `Q = (∩ᵢ Qᵢ) − {o}` over the binned columns.
    pub fn q_vec(&self, o: ObjectId) -> BitVec {
        let mut q = BitVec::zeros(self.n());
        self.exact
            .q_into_selected(&self.selection_of(o as usize), Some(o as usize), &mut q);
        q
    }

    /// `P = ∩ᵢ Pᵢ` over the binned columns.
    pub fn p_vec(&self, o: ObjectId) -> BitVec {
        let mut p = BitVec::zeros(self.n());
        self.exact
            .p_into_selected(&self.selection_of(o as usize), &mut p);
        p
    }

    /// `MaxBitScore(o) = |Q|` under the binned index (still a valid upper
    /// bound of `score(o)`, though no longer tighter than `MaxScore` —
    /// Lemma 3 does not carry over, see §4.4).
    pub fn max_bit_score(&self, o: ObjectId) -> usize {
        self.q_vec(o).count_ones()
    }

    /// Index size in bits: the paper's **logical** Eq. 5 cost with the
    /// actual bin counts.
    pub fn size_bits(&self) -> u64 {
        (0..self.dims())
            .map(|d| self.num_columns(d) as u64 * self.n() as u64)
            .sum()
    }

    /// The logical size in bytes (`size_bits / 8`, rounded up once).
    pub fn size_bytes(&self) -> u64 {
        self.size_bits().div_ceil(8)
    }

    /// The bytes the binned columns would allocate standalone: every
    /// column holds `ceil(|S| / 64)` 64-bit words. The view allocates
    /// none of them — they are the exact index's.
    pub fn allocated_bytes(&self) -> u64 {
        let ncols: u64 = (0..self.dims()).map(|d| self.num_columns(d) as u64).sum();
        ncols * (self.n() as u64).div_ceil(64) * 8
    }

    /// Live objects in the same bin as `o` in `dim` whose value is
    /// strictly less than `o[i]` — the §4.5 probe that feeds `nonD(o)`
    /// (they cannot be dominated by `o`): the bin's lowest column AND-NOT
    /// `o`'s own `[Qᵢ]`. Empty when `o` misses `dim`. `_ds` is `o`'s
    /// dataset, kept for the call shape; the index holds `o`'s value.
    pub fn ids_in_bin_below(
        &self,
        _ds: &Dataset,
        o: ObjectId,
        dim: usize,
    ) -> impl Iterator<Item = ObjectId> + '_ {
        let j = self.exact.value_slot(o as usize, dim) as usize;
        let (lo, _) = self.bins.picks[dim][j];
        let s = j.saturating_sub(1);
        let live = self.exact.live_mask();
        self.exact
            .column(dim, lo as usize)
            .iter_ones_and_not(self.exact.column(dim, s))
            .filter(move |&r| live.get(r))
            .map(|r| r as ObjectId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_model::{dominance, fixtures};

    #[test]
    fn eq3_worked_example_dim1() {
        // §4.4: dim 1 of the sample dataset, x = 2: first bin covers only
        // value 2 (4 objects ≤ capacity 5, adding value 3 would reach 8).
        let counts = vec![(2.0, 4), (3.0, 4), (4.0, 1), (5.0, 1)];
        assert_eq!(compute_bins(&counts, 2), vec![2.0, 5.0]);
    }

    #[test]
    fn bins_cover_domain_and_respect_x() {
        let counts: Vec<(f64, usize)> = (0..100).map(|i| (i as f64, (i % 7) + 1)).collect();
        for x in 1..=12 {
            let b = compute_bins(&counts, x);
            assert!(b.len() <= x);
            assert_eq!(*b.last().unwrap(), 99.0, "last boundary is the max");
            for w in b.windows(2) {
                assert!(w[0] < w[1], "boundaries ascend");
            }
        }
    }

    #[test]
    fn one_bin_takes_everything() {
        let counts = vec![(1.0, 3), (2.0, 9)];
        assert_eq!(compute_bins(&counts, 1), vec![2.0]);
    }

    #[test]
    fn more_bins_than_values_degenerates_to_unbinned() {
        let counts = vec![(1.0, 1), (5.0, 1), (9.0, 1)];
        assert_eq!(compute_bins(&counts, 10), vec![1.0, 5.0, 9.0]);
    }

    #[test]
    fn uniform_data_gets_even_bins() {
        // "for uniformly distributed data, every bin … contains the same
        // number of dimensional values" (§4.4).
        let counts: Vec<(f64, usize)> = (0..12).map(|i| (i as f64, 5)).collect();
        let b = compute_bins(&counts, 4);
        assert_eq!(b, vec![2.0, 5.0, 8.0, 11.0]);
    }

    fn fig9_index() -> (tkd_model::Dataset, BinnedBitmapIndex<'static>) {
        let ds = fixtures::fig3_sample();
        // §4.4 / Fig. 9: x = (2, 2, 3, 3).
        let idx = BinnedBitmapIndex::build(&ds, &[2, 2, 3, 3]);
        (ds, idx)
    }

    #[test]
    fn fig9_dim1_binning() {
        let (ds, idx) = fig9_index();
        assert_eq!(idx.num_bins(0), 2);
        assert_eq!(idx.bin_upper(0, 1), 2.0);
        assert_eq!(idx.bin_upper(0, 2), 5.0);
        // D4[1] = 4 falls in the second bin (the paper's "110" example).
        let d4 = ds.id_by_label("D4").unwrap();
        assert_eq!(idx.bin_of(d4, 0), Some(2));
        // C2[1] = 2 falls in the first.
        let c2 = ds.id_by_label("C2").unwrap();
        assert_eq!(idx.bin_of(c2, 0), Some(1));
    }

    #[test]
    fn columns_match_set_semantics() {
        let (ds, idx) = fig9_index();
        for dim in 0..ds.dims() {
            for c in 0..idx.num_columns(dim) {
                let col = idx.column(dim, c);
                for p in ds.ids() {
                    let expected = match idx.bin_of(p, dim) {
                        None => true,
                        Some(b) => b as usize > c,
                    };
                    assert_eq!(col.get(p as usize), expected, "dim {dim} col {c} obj {p}");
                }
            }
        }
    }

    #[test]
    fn binned_q_is_superset_of_unbinned_q() {
        let (ds, idx) = fig9_index();
        let exact = BitmapIndex::build(&ds);
        for o in ds.ids() {
            assert!(
                exact.q_vec(o).is_subset_of(&idx.q_vec(o)),
                "binning must only loosen Q (object {o})"
            );
        }
    }

    #[test]
    fn binned_maxbitscore_bounds_score() {
        let (ds, idx) = fig9_index();
        for o in ds.ids() {
            assert!(dominance::score_of(&ds, o) <= idx.max_bit_score(o));
        }
    }

    #[test]
    fn x_equal_to_cardinality_reproduces_exact_index() {
        // §4.5: "when x is set to the number of distinct dimensional values
        // the binned bitmap index is the same as the bitmap index".
        let ds = fixtures::fig3_sample();
        let exact = BitmapIndex::build(&ds);
        let cards: Vec<usize> = (0..ds.dims()).map(|d| exact.cardinality(d)).collect();
        let binned = BinnedBitmapIndex::build(&ds, &cards);
        for dim in 0..ds.dims() {
            assert_eq!(binned.num_columns(dim), exact.num_columns(dim));
            for c in 0..exact.num_columns(dim) {
                assert_eq!(
                    binned.column(dim, c),
                    exact.column(dim, c),
                    "dim {dim} col {c}"
                );
            }
        }
        assert_eq!(binned.size_bits(), exact.size_bits());
        for o in ds.ids() {
            assert_eq!(
                binned.selection_of(o as usize),
                exact.selection_of(o as usize)
            );
        }
    }

    #[test]
    fn smaller_x_means_smaller_index() {
        let ds = fixtures::fig3_sample();
        let small = BinnedBitmapIndex::build(&ds, &[2, 2, 2, 2]);
        let large = BinnedBitmapIndex::build(&ds, &[4, 4, 4, 4]);
        assert!(small.size_bits() < large.size_bits());
    }

    /// Rows `[lo, hi)` of `ds` as a dataset of their own — one shard of a
    /// row partition, as a cluster worker holds it.
    fn row_range(ds: &Dataset, lo: usize, hi: usize) -> Dataset {
        let ids: Vec<ObjectId> = (lo as ObjectId..hi as ObjectId).collect();
        ds.select(&ids)
    }

    /// The columns a selection picks hold, for every member, exactly the
    /// bin predicate `missing ∨ bin ≥ cand` (Q) / `> cand` (P), where a
    /// value above every boundary sits in the open last bin.
    #[test]
    fn value_based_selection_and_probe_agree_with_member_forms() {
        let ds = fixtures::fig3_sample();
        let sub = row_range(&ds, 5, 14);
        let shard = BinnedBitmapIndex::build(&sub, &[2, 2, 3, 3]);
        let mut q = BitVec::zeros(shard.n());
        let mut p = BitVec::zeros(shard.n());
        // Candidates from the whole dataset, members or not, and one
        // above every value.
        let beyond = [Some(99.0); 4];
        let values = ds
            .ids()
            .map(|o| (0..4).map(|d| ds.value(o, d)).collect::<Vec<_>>())
            .chain([beyond.to_vec()]);
        for (o, row) in values.enumerate() {
            let sel = shard.select_for(|d| row[d]);
            let bin = |v: f64, d: usize| shard.bin_of_value(d, v);
            for (d, &cell) in row.iter().enumerate() {
                let mut one = ColumnSelection::default();
                (one.q[d], one.p[d]) = (sel.q[d], sel.p[d]);
                shard.exact().q_into_selected(&one, None, &mut q);
                shard.exact().p_into_selected(&one, &mut p);
                for local in 0..shard.n() {
                    let cells = cell.zip(sub.value(local as ObjectId, d));
                    let (in_q, in_p) = cells.map_or((true, true), |(a, b)| {
                        (bin(b, d) >= bin(a, d), bin(b, d) > bin(a, d))
                    });
                    assert_eq!(q.get(local), in_q, "Q o={o} local={local} d={d}");
                    assert_eq!(p.get(local), in_p, "P o={o} local={local} d={d}");
                }
            }
            // Value picks = member picks when o happens to be a member.
            if (5..14).contains(&o) {
                assert_eq!(sel, shard.selection_of(o - 5), "o={o}");
            }
        }
    }

    #[test]
    fn probe_ids_in_bin_below() {
        let (ds, idx) = fig9_index();
        // D4[1] = 4 sits in bin 2 of dim 0, which covers (2, 5]. Values
        // strictly below 4 in that bin: the five 3s (C3, C4, C5, D1) —
        // and nothing from bin 1.
        let d4 = ds.id_by_label("D4").unwrap();
        let mut ids: Vec<String> = idx
            .ids_in_bin_below(&ds, d4, 0)
            .map(|o| ds.label(o).unwrap().to_string())
            .collect();
        ids.sort();
        assert_eq!(ids, vec!["C3", "C4", "C5", "D1"]);
        // C2[1] = 2 is the minimum of its bin: nothing below.
        let c2 = ds.id_by_label("C2").unwrap();
        assert_eq!(idx.ids_in_bin_below(&ds, c2, 0).count(), 0);
        // Missing dimension: empty probe.
        let a1 = ds.id_by_label("A1").unwrap();
        assert_eq!(idx.ids_in_bin_below(&ds, a1, 0).count(), 0);
    }

    /// A view over a mutated exact index: a value above the last
    /// boundary joins the open last bin, and a never-observed dimension's
    /// first values share one bin — without touching the boundaries.
    #[test]
    fn dynamic_first_bin_and_boundary_extension() {
        let ds = tkd_model::Dataset::from_rows(2, &[vec![Some(1.0), None], vec![Some(2.0), None]])
            .unwrap();
        let mut exact = BitmapIndex::build(&ds);
        let mut bins = BinBoundaries::build(&exact, &[2, 2]);
        assert_eq!(bins.of(0), [1.0, 2.0]);
        assert!(bins.of(1).is_empty());
        let a = exact.append_row(|d| [Some(9.0), Some(4.0)][d]);
        let b = exact.append_row(|d| [None, Some(3.5)][d]);
        bins.sync(&exact);
        let view = BinnedBitmapIndex::new(&exact, &bins);
        assert_eq!(view.num_bins(1), 0);
        assert_eq!(view.bin_of(a as u32, 0), Some(2), "9.0 joins the last bin");
        assert_eq!(view.bin_of(a as u32, 1), Some(1));
        assert_eq!(view.bin_of(b as u32, 1), Some(1));
        // 2.0 shares the open bin with 9.0; 3.5 shares dim 1's with 4.0.
        let below: Vec<u32> = view.ids_in_bin_below(&ds, a as u32, 0).collect();
        assert_eq!(below, vec![1]);
        let below: Vec<u32> = view.ids_in_bin_below(&ds, a as u32, 1).collect();
        assert_eq!(below, vec![b as u32]);
        // The member picks agree with the value picks.
        for r in 0..view.n() {
            let row: Vec<Option<f64>> = (0..2)
                .map(|d| {
                    let j = exact.value_slot(r, d) as usize;
                    (j > 0).then(|| exact.values(d)[j - 1])
                })
                .collect();
            assert_eq!(view.selection_of(r), view.select_for(|d| row[d]), "row {r}");
        }
    }

    /// Deterministic splitmix-style value stream for the dynamic tests.
    fn mix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn random_row(seed: &mut u64, dims: usize) -> Vec<Option<f64>> {
        loop {
            let row: Vec<Option<f64>> = (0..dims)
                .map(|_| {
                    if mix(seed) % 10 < 3 {
                        None
                    } else {
                        Some(match mix(seed) % 8 {
                            0 => -0.0,
                            1 => 0.0,
                            m => (mix(seed) % 9) as f64 + if m == 2 { 0.25 } else { 0.0 },
                        })
                    }
                })
                .collect();
            if row.iter().any(Option::is_some) {
                return row;
            }
        }
    }

    /// A view over an index maintained in place stays *consistent*: its
    /// columns follow the bins, tombstones never reach a `Q` fill at its
    /// picks, and that `Q` stays a superset of the exact index's. (Bins
    /// frozen between compactions only loosen pruning.)
    #[test]
    fn dynamic_maintenance_stays_consistent() {
        let dims = 3;
        let mut seed = 13u64;
        let mut rows: Vec<Option<Vec<Option<f64>>>> = Vec::new();
        let seed_rows: Vec<Vec<Option<f64>>> =
            (0..12).map(|_| random_row(&mut seed, dims)).collect();
        let mut exact = BitmapIndex::build(&Dataset::from_rows(dims, &seed_rows).unwrap());
        let mut bins = BinBoundaries::build(&exact, &[3, 3, 3]);
        rows.extend(seed_rows.into_iter().map(Some));
        for step in 0..160 {
            let live: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].is_some()).collect();
            match mix(&mut seed) % 10 {
                0..=2 if !live.is_empty() => {
                    let s = live[mix(&mut seed) as usize % live.len()];
                    exact.tombstone_row(s);
                    rows[s] = None;
                }
                3..=4 if !live.is_empty() => {
                    let s = live[mix(&mut seed) as usize % live.len()];
                    let d = mix(&mut seed) as usize % dims;
                    let nv = random_row(&mut seed, dims)[d];
                    let row = rows[s].as_mut().unwrap();
                    let mut cand = row.clone();
                    cand[d] = nv;
                    if cand.iter().any(Option::is_some) {
                        exact.set_cell(s, d, nv);
                        *row = cand;
                    }
                }
                _ => {
                    let row = random_row(&mut seed, dims);
                    exact.append_row(|d| row[d]);
                    rows.push(Some(row));
                }
            }
            bins.sync(&exact);
            if step % 11 != 0 && step != 159 {
                continue;
            }
            let view = BinnedBitmapIndex::new(&exact, &bins);
            for d in 0..dims {
                for c in 1..view.num_columns(d) {
                    for (s, row) in rows.iter().enumerate() {
                        let expected = row.as_ref().is_some_and(|r| {
                            r[d].is_none() || view.bin_of(s as u32, d).unwrap() as usize > c
                        });
                        let got = view.column(d, c).get(s);
                        assert_eq!(got, expected, "step {step} d={d} c={c} s={s}");
                    }
                }
            }
            let mut q = BitVec::zeros(view.n());
            let mut eq = BitVec::zeros(view.n());
            for (s, row) in rows.iter().enumerate() {
                if row.is_none() {
                    continue;
                }
                exact.q_into_selected(&view.selection_of(s), Some(s), &mut q);
                exact.q_into_selected(&exact.selection_of(s), Some(s), &mut eq);
                assert!(
                    eq.is_subset_of(&q),
                    "binned Q must stay a superset (step {step})"
                );
                for dead in (0..rows.len()).filter(|&i| rows[i].is_none()) {
                    assert!(!q.get(dead), "dead slot {dead} in Q at step {step}");
                }
            }
        }
    }

    /// Regression for the signed-zero hazard of bulk-loading: a raw
    /// `total_cmp` sort puts every −0.0 before every +0.0, so the
    /// bulk-built index must merge the zeros into one value slot as
    /// single-row appends do. The same boundaries over a bulk-built index
    /// and over one grown row by row give every row the same picks, in-bin
    /// probe and columns.
    #[test]
    fn bulk_built_probes_match_insert_built_ones() {
        // Dim 0: both zeros, both infinities, heavy duplicates. Dim 1:
        // never observed. Dim 2: always observed (rows must observe one).
        let cycle = [
            Some(-0.0),
            Some(0.0),
            Some(1.0),
            None,
            Some(f64::INFINITY),
            Some(1.0),
            Some(0.0),
            Some(f64::NEG_INFINITY),
            Some(-0.0),
            Some(1.0),
            Some(-2.5),
        ];
        let rows: Vec<Vec<Option<f64>>> = (0..150)
            .map(|r| vec![cycle[r % cycle.len()], None, Some((r % 4) as f64)])
            .collect();
        let ds = Dataset::from_rows(3, &rows).unwrap();
        let bulk = BinnedBitmapIndex::build(&ds, &[3, 3, 3]);
        let mut grown = BitmapIndex::build(&Dataset::from_rows(3, &[]).unwrap());
        for o in ds.ids() {
            grown.append_row(|d| ds.value(o, d));
        }
        let bins = BinBoundaries::from_store_parts(
            &grown,
            (0..3).map(|d| bulk.boundaries().of(d).to_vec()).collect(),
        )
        .unwrap();
        let grown = BinnedBitmapIndex::new(&grown, &bins);
        assert_eq!(bulk.num_bins(1), 0, "never-observed dimension has no bins");
        for d in 0..3 {
            assert_eq!(bulk.exact().values(d), grown.exact().values(d), "dim {d}");
            for c in 0..bulk.num_columns(d) {
                assert_eq!(bulk.column(d, c), grown.column(d, c), "dim {d} col {c}");
            }
            for o in ds.ids() {
                assert_eq!(
                    bulk.selection_of(o as usize),
                    grown.selection_of(o as usize)
                );
                let probe = |idx: &BinnedBitmapIndex| -> Vec<ObjectId> {
                    idx.ids_in_bin_below(&ds, o, d).collect()
                };
                let want: Vec<ObjectId> = ds
                    .ids()
                    .filter(|&p| {
                        let (v, w) = (ds.value(o, d), ds.value(p, d));
                        bulk.bin_of(p, d) == bulk.bin_of(o, d)
                            && v.zip(w).is_some_and(|(v, w)| w < v)
                    })
                    .collect();
                assert_eq!(probe(&bulk), want, "dim {d} obj {o}");
                assert_eq!(probe(&grown), want, "dim {d} obj {o}");
            }
        }
    }

    #[test]
    fn store_parts_roundtrip_preserves_columns_and_probes() {
        let (ds, idx) = fig9_index();
        let bounds = (0..ds.dims()).map(|d| idx.boundaries().of(d).to_vec());
        let bins = BinBoundaries::from_store_parts(idx.exact(), bounds.collect()).unwrap();
        assert_eq!(&bins, idx.boundaries());
        let rebuilt = BinnedBitmapIndex::new(idx.exact(), &bins);
        for d in 0..ds.dims() {
            for c in 0..idx.num_columns(d) {
                assert_eq!(rebuilt.column(d, c), idx.column(d, c), "dim {d} col {c}");
            }
            for o in ds.ids() {
                assert!(rebuilt
                    .ids_in_bin_below(&ds, o, d)
                    .eq(idx.ids_in_bin_below(&ds, o, d)));
            }
        }
    }

    #[test]
    fn store_parts_reject_inconsistencies() {
        let (_, idx) = fig9_index();
        let exact = idx.exact();
        let parts: Vec<Vec<f64>> = (0..4).map(|d| idx.boundaries().of(d).to_vec()).collect();
        assert!(BinBoundaries::from_store_parts(exact, parts.clone()).is_ok());
        // Unsorted boundaries.
        let mut b = parts.clone();
        b[2].swap(0, 1);
        let err = BinBoundaries::from_store_parts(exact, b).unwrap_err();
        assert!(err.contains("strictly ascending"), "{err}");
        // NaN boundary.
        let mut b = parts.clone();
        b[1][0] = f64::NAN;
        assert!(BinBoundaries::from_store_parts(exact, b).is_err());
        // A boundary set short.
        let mut b = parts;
        b.pop();
        assert!(BinBoundaries::from_store_parts(exact, b).is_err());
    }
}
