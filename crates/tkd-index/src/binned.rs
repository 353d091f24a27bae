//! The binned bitmap index of §4.4 (Fig. 9) with the adaptive binning
//! strategy of Eq. 3–4 and the per-dimension probe trees of §4.5.
//!
//! The paper's §4.5 B+-tree is `std::collections::BTreeSet` here: what
//! the `nonD(o)` probe needs of it is ordered `(value, id)` keys, an
//! `O(log n)` seek to a bin's lower boundary and an in-order scan of the
//! bin interior, which `BTreeSet::range` is. The paper's other B+-tree
//! use, the §4.2 rank query behind `MaxScore`, needs order statistics a
//! `BTreeSet` does not keep — and the exact index beside this one already
//! stores that count as a column popcount (the `[Qᵢ]` column of a value,
//! [`crate::BitmapIndex::q_selected_upper_bound`] of a one-dimension
//! selection) and every row's value slot, from which `tkd-core` counts
//! the whole queue in one histogram.

use crate::key::F64Key;
use crate::sorted_column::{for_each_sorted_column, value_runs};
use crate::suffix::{col_clear, col_push, col_set, count_selected_above, suffix_counts, RowScope};
use std::collections::BTreeSet;
use tkd_bitvec::BitVec;
use tkd_model::{Dataset, DimMask, ObjectId, MAX_DIMS};

/// Sentinel marking a missing value in the per-object bin table.
const MISSING: u32 = u32::MAX;

/// One dimension's live observed `(value, id)` pairs, for bin-interior
/// probing (§4.5).
type ProbeTree = BTreeSet<(F64Key, ObjectId)>;

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

/// Binned bitmap index: like [`crate::BitmapIndex`] but with one column per
/// value *bin*, shrinking storage from `Σ(Cᵢ+1)·N` to `Σ(xᵢ+1)·N` bits.
///
/// Because a bin conflates a value range, `[Qᵢ]` (same-or-higher bin) may
/// include objects that are actually *better* than `o` in dimension `i`;
/// the IBIG score computation (Algorithm 5) resolves those through the
/// per-dimension tree probes exposed here.
#[derive(Clone, Debug)]
pub struct BinnedBitmapIndex {
    n: usize,
    dims: usize,
    /// Per dimension: ascending upper boundary of each bin.
    boundaries: Vec<Vec<f64>>,
    /// `columns[i][c]` = `{p : p[i] missing ∨ bin(p[i]) > c}` (1-based bins).
    columns: Vec<Vec<BitVec>>,
    /// Per object, per dimension: 1-based bin index or `MISSING`.
    bin_idx: Vec<u32>,
    /// `block_suffix[i][c]` = [`suffix_counts`] of `columns[i][c]`, for the
    /// Heuristic 2 early exit.
    block_suffix: Vec<Vec<Vec<u32>>>,
    trees: Vec<ProbeTree>,
}

/// Assembles a [`BinnedBitmapIndex`] one dimension at a time from the
/// dataset's sorted columns ([`for_each_sorted_column`]) — the binned
/// counterpart of [`crate::BitmapIndexBuilder`].
/// [`BinnedBitmapIndex::build`] is this builder driven alone.
#[derive(Debug)]
pub struct BinnedBitmapIndexBuilder<'a> {
    n: usize,
    bins_per_dim: &'a [usize],
    boundaries: Vec<Vec<f64>>,
    columns: Vec<Vec<BitVec>>,
    bin_idx: Vec<u32>,
    block_suffix: Vec<Vec<Vec<u32>>>,
    trees: Vec<ProbeTree>,
}

impl<'a> BinnedBitmapIndexBuilder<'a> {
    /// Start an index over `n` objects with `bins_per_dim[i]` bins
    /// requested for dimension `i` (a zero bin count panics at
    /// [`BinnedBitmapIndexBuilder::push_dim`]).
    pub fn new(bins_per_dim: &'a [usize], n: usize) -> Self {
        let dims = bins_per_dim.len();
        BinnedBitmapIndexBuilder {
            n,
            bins_per_dim,
            boundaries: Vec::with_capacity(dims),
            columns: Vec::with_capacity(dims),
            bin_idx: vec![MISSING; n * dims],
            block_suffix: Vec::with_capacity(dims),
            trees: Vec::with_capacity(dims),
        }
    }

    /// Add dimension `dim` from its sorted column: the equal-value runs
    /// are the value counts Eq. 3–4 bins, the ascending order lets one
    /// cursor assign every entry its bin and lay the columns down bin by
    /// bin, and the column itself bulk-fills the probe tree.
    ///
    /// # Panics
    /// Panics if dimensions arrive out of order, the requested bin count
    /// is zero, or the column is not a sorted column of the dataset.
    pub fn push_dim(&mut self, dim: usize, column: &[(f64, ObjectId)]) {
        assert_eq!(
            dim,
            self.boundaries.len(),
            "dimensions must arrive in order"
        );
        let dims = self.bins_per_dim.len();
        let counts: Vec<(f64, usize)> = value_runs(column)
            .map(|run| (run[0].0, run.len()))
            .collect();
        let bounds = if counts.is_empty() {
            Vec::new()
        } else {
            compute_bins(&counts, self.bins_per_dim[dim])
        };

        // Incremental columns, as in the unbinned index: bin `b`'s column
        // is the previous one minus the entries up to its upper boundary.
        let mut cols = Vec::with_capacity(bounds.len() + 1);
        let mut cur = BitVec::ones(self.n);
        cols.push(cur.clone());
        let mut entries = column.iter().peekable();
        for (b, &ub) in bounds.iter().enumerate() {
            while let Some(&(_, o)) = entries.next_if(|e| e.0 <= ub) {
                self.bin_idx[o as usize * dims + dim] = (b + 1) as u32;
                cur.clear(o as usize);
            }
            cols.push(cur.clone());
        }
        debug_assert!(entries.next().is_none(), "value above last boundary");

        let tree = column
            .iter()
            .map(|&(v, o)| (F64Key::new(v).expect("values are not NaN"), o))
            .collect();
        self.boundaries.push(bounds);
        self.block_suffix
            .push(cols.iter().map(suffix_counts).collect());
        self.columns.push(cols);
        self.trees.push(tree);
    }

    /// Finish the index.
    ///
    /// # Panics
    /// Panics if fewer dimensions were pushed than bin counts given.
    pub fn finish(self) -> BinnedBitmapIndex {
        let dims = self.bins_per_dim.len();
        assert_eq!(self.boundaries.len(), dims, "missing dimensions");
        BinnedBitmapIndex {
            n: self.n,
            dims,
            boundaries: self.boundaries,
            columns: self.columns,
            bin_idx: self.bin_idx,
            block_suffix: self.block_suffix,
            trees: self.trees,
        }
    }
}

impl BinnedBitmapIndex {
    /// Build with `bins_per_dim[i]` bins requested for dimension `i`.
    ///
    /// # Panics
    /// Panics if `bins_per_dim.len() != ds.dims()` or any entry is zero.
    pub fn build(ds: &Dataset, bins_per_dim: &[usize]) -> Self {
        assert_eq!(bins_per_dim.len(), ds.dims(), "one bin count per dimension");
        let mut builder = BinnedBitmapIndexBuilder::new(bins_per_dim, ds.len());
        for_each_sorted_column(ds, |dim, column| builder.push_dim(dim, column));
        builder.finish()
    }

    /// Reassemble a whole-dataset binned index from its persisted logical
    /// parts — the snapshot loader's constructor. `bin_slots` is the
    /// row-major `n × dims` table of 1-based bins with `0` marking a
    /// missing cell; `tree_entries` holds each dimension's live observed
    /// `(value, local id)` pairs in strictly ascending `(value, id)`
    /// order, from which the probe trees are refilled — tree node
    /// structure is never persisted, and neither are the suffix-popcount
    /// tables, which are recomputed from the adopted columns.
    ///
    /// # Errors
    /// A description of the first structural inconsistency (arities,
    /// non-ascending, duplicated or NaN boundaries/keys, column lengths,
    /// out-of-range bins or probe ids).
    pub fn from_store_parts(
        dims: usize,
        boundaries: Vec<Vec<f64>>,
        columns: Vec<Vec<BitVec>>,
        bin_slots: Vec<u32>,
        tree_entries: Vec<Vec<(f64, ObjectId)>>,
    ) -> Result<Self, String> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(format!("bad dimensionality {dims}"));
        }
        if boundaries.len() != dims || columns.len() != dims || tree_entries.len() != dims {
            return Err(format!(
                "per-dimension tables disagree with dims={dims}: {} boundary sets, \
                 {} column sets, {} probe streams",
                boundaries.len(),
                columns.len(),
                tree_entries.len()
            ));
        }
        let n = columns[0]
            .first()
            .map(BitVec::len)
            .ok_or_else(|| "dim 0 has no columns".to_string())?;
        if bin_slots.len() != n * dims {
            return Err(format!(
                "bin table holds {} entries, expected {}",
                bin_slots.len(),
                n * dims
            ));
        }
        let mut trees = Vec::with_capacity(dims);
        for (d, (bounds, cols)) in boundaries.iter().zip(&columns).enumerate() {
            if bounds.iter().any(|v| v.is_nan()) {
                return Err(format!("NaN in the bin boundaries of dim {d}"));
            }
            if bounds.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "bin boundaries of dim {d} are not strictly ascending"
                ));
            }
            if cols.len() != bounds.len() + 1 {
                return Err(format!(
                    "dim {d} has {} columns for {} bins (expected xᵢ + 1)",
                    cols.len(),
                    bounds.len()
                ));
            }
            for (c, col) in cols.iter().enumerate() {
                if col.len() != n {
                    return Err(format!(
                        "column {c} of dim {d} has {} bits, expected {n}",
                        col.len()
                    ));
                }
            }
            let mut keys = Vec::with_capacity(tree_entries[d].len());
            for &(v, id) in &tree_entries[d] {
                if (id as usize) >= n {
                    return Err(format!("probe id {id} of dim {d} exceeds n={n}"));
                }
                let key = F64Key::new(v).ok_or_else(|| format!("NaN probe key in dim {d}"))?;
                keys.push((key, id));
            }
            // Checked here because `collect` would sort and dedup a corrupt
            // stream into a tree that disagrees with the columns.
            if keys.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "probe stream of dim {d} is not strictly ascending by (value, id)"
                ));
            }
            trees.push(keys.into_iter().collect());
        }
        let mut bin_idx = bin_slots;
        for (i, slot) in bin_idx.iter_mut().enumerate() {
            let d = i % dims;
            if *slot == 0 {
                *slot = MISSING;
            } else if *slot as usize > boundaries[d].len() {
                return Err(format!(
                    "bin {slot} of object {} exceeds dim {d}'s bin count {}",
                    i / dims,
                    boundaries[d].len()
                ));
            }
        }
        let block_suffix = columns
            .iter()
            .map(|cols| cols.iter().map(suffix_counts).collect())
            .collect();
        Ok(BinnedBitmapIndex {
            n,
            dims,
            boundaries,
            columns,
            bin_idx,
            block_suffix,
            trees,
        })
    }

    /// The live observed `(value, local id)` pairs of `dim`'s probe tree
    /// in ascending `(value, id)` order — exactly the stream
    /// [`BinnedBitmapIndex::from_store_parts`] rebuilds the tree from.
    /// Keys come back normalized (−0.0 was collapsed to +0.0 at insert),
    /// so the export is already canonical.
    pub fn tree_entries(&self, dim: usize) -> impl Iterator<Item = (f64, ObjectId)> + '_ {
        self.trees[dim].iter().map(|&(k, id)| (k.get(), id))
    }

    // ----- dynamic maintenance -------------------------------------------
    //
    // Unlike the exact index, the binned index tombstones slots in **every**
    // column *including column 0* (it keeps no separate live mask):
    // `and_selected_into` ANDs all picked columns, so
    // a cleared column-0 bit masks dead slots even for all-missing picks,
    // and the budgeted scan answers an all-column-0 selection from column
    // 0's stored popcount. Every column change goes through the `col_*`
    // helpers, which keep the suffix tables exact.
    // Bin boundaries are frozen between compactions; a value above the last
    // boundary extends that boundary upward (no existing assignment
    // changes), and a dimension's first observed value creates its first
    // bin. Binning only affects pruning tightness, never scores, so frozen
    // bins stay exact — compaction re-quantiles them.

    /// Append one object (slot `n()`). Returns the new local id.
    pub fn append_row(&mut self, mut value: impl FnMut(usize) -> Option<f64>) -> usize {
        let local = self.n;
        for dim in 0..self.dims {
            let slot = match value(dim) {
                None => {
                    for (col, suf) in self.columns[dim]
                        .iter_mut()
                        .zip(&mut self.block_suffix[dim])
                    {
                        col_push(col, suf, true);
                    }
                    MISSING
                }
                Some(v) => {
                    let b = self.ensure_bin(dim, v);
                    // bin = b+1; bit in column c iff bin > c, i.e. c ≤ b.
                    for (c, (col, suf)) in self.columns[dim]
                        .iter_mut()
                        .zip(&mut self.block_suffix[dim])
                        .enumerate()
                    {
                        col_push(col, suf, c <= b);
                    }
                    self.trees[dim].insert((
                        F64Key::new(v).expect("values are not NaN"),
                        local as ObjectId,
                    ));
                    (b + 1) as u32
                }
            };
            self.bin_idx.push(slot);
        }
        self.n += 1;
        local
    }

    /// Tombstone local slot `local`: clear its bits in **all** columns and
    /// remove its keys from the probe trees. `value(d)` must return the
    /// slot's observations (the caller still holds the tombstoned row).
    pub fn tombstone_row(&mut self, local: usize, mut value: impl FnMut(usize) -> Option<f64>) {
        for dim in 0..self.dims {
            for (col, suf) in self.columns[dim]
                .iter_mut()
                .zip(&mut self.block_suffix[dim])
            {
                col_clear(col, suf, local);
            }
            if let Some(v) = value(dim) {
                self.trees[dim].remove(&(F64Key::new(v).expect("not NaN"), local as ObjectId));
            }
        }
    }

    /// Overwrite one cell of live slot `local` (`old` is its current
    /// observation, `new` the replacement), re-binning its column bits and
    /// swapping its probe-tree key.
    pub fn set_cell(&mut self, local: usize, dim: usize, old: Option<f64>, new: Option<f64>) {
        if let Some(v) = old {
            self.trees[dim].remove(&(F64Key::new(v).expect("not NaN"), local as ObjectId));
        }
        // Resolve the new bin first: it may create or extend a bin (which
        // never changes existing assignments, so `old`'s range stays valid).
        let new_slot = match new {
            None => MISSING,
            Some(v) => {
                let b = self.ensure_bin(dim, v);
                self.trees[dim].insert((F64Key::new(v).expect("not NaN"), local as ObjectId));
                (b + 1) as u32
            }
        };
        let ncols = self.columns[dim].len();
        // Set-bit prefixes `0..hi` (column 0 is in both, so it never flips).
        let old_hi = match self.bin_idx[local * self.dims + dim] {
            MISSING => ncols,
            b => b as usize,
        };
        let new_hi = match new_slot {
            MISSING => ncols,
            b => b as usize,
        };
        if new_hi > old_hi {
            for c in old_hi..new_hi {
                col_set(
                    &mut self.columns[dim][c],
                    &mut self.block_suffix[dim][c],
                    local,
                );
            }
        } else {
            for c in new_hi..old_hi {
                col_clear(
                    &mut self.columns[dim][c],
                    &mut self.block_suffix[dim][c],
                    local,
                );
            }
        }
        self.bin_idx[local * self.dims + dim] = new_slot;
    }

    /// 0-based bin that holds `v`, creating the dimension's first bin or
    /// extending the last boundary when `v` exceeds it.
    fn ensure_bin(&mut self, dim: usize, v: f64) -> usize {
        let bounds = &mut self.boundaries[dim];
        if bounds.is_empty() {
            bounds.push(v);
            // First bin of a never-observed dimension: every existing slot
            // misses it, so the new column equals column 0 bit for bit.
            let col = self.columns[dim][0].clone();
            let suf = self.block_suffix[dim][0].clone();
            self.columns[dim].push(col);
            self.block_suffix[dim].push(suf);
            return 0;
        }
        if v > *bounds.last().expect("nonempty") {
            *bounds.last_mut().expect("nonempty") = v;
        }
        bounds.partition_point(|&ub| ub < v)
    }

    /// Number of live observed entries in `dim` (the probe tree's size).
    pub fn observed_count(&self, dim: usize) -> usize {
        self.trees[dim].len()
    }

    /// AND one picked column per dimension into `dst`, **including**
    /// column-0 picks — IBIG's `Q`/`P` fill on every surface (on a
    /// dynamic index column 0 carries the tombstone mask).
    ///
    /// # Panics
    /// Panics if `picks` is empty, names an out-of-range column, or
    /// `dst.len() != self.n()`.
    pub fn and_selected_into(
        &self,
        picks: impl IntoIterator<Item = (usize, usize)>,
        dst: &mut BitVec,
    ) {
        self.and_selected_into_scoped(picks, None, dst);
    }

    /// [`BinnedBitmapIndex::and_selected_into`] restricted to `scope`'s
    /// rows: one more AND operand in the same pass. `None` is the
    /// unscoped fill.
    ///
    /// # Panics
    /// As [`BinnedBitmapIndex::and_selected_into`].
    pub fn and_selected_into_scoped(
        &self,
        picks: impl IntoIterator<Item = (usize, usize)>,
        scope: Option<&RowScope>,
        dst: &mut BitVec,
    ) {
        assert_eq!(dst.len(), self.n, "scratch length mismatch");
        let mut cols: [&BitVec; MAX_DIMS + 1] = [&self.columns[0][0]; MAX_DIMS + 1];
        let mut m = 0;
        for (d, c) in picks {
            cols[m] = &self.columns[d][c];
            m += 1;
        }
        assert!(m >= 1, "need at least one column");
        if let Some(scope) = scope {
            cols[m] = scope.bits();
            m += 1;
        }
        BitVec::intersect_into(dst, &cols[..m]);
    }

    // ----- static accessors ----------------------------------------------

    /// Number of indexed objects.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Actual number of bins materialized for `dim` (≤ requested).
    pub fn num_bins(&self, dim: usize) -> usize {
        self.boundaries[dim].len()
    }

    /// Number of columns of `dim` (`xᵢ + 1`).
    pub fn num_columns(&self, dim: usize) -> usize {
        self.columns[dim].len()
    }

    /// Vertical column `c` of `dim`.
    pub fn column(&self, dim: usize, c: usize) -> &BitVec {
        &self.columns[dim][c]
    }

    /// Upper boundary value of 1-based `bin` in `dim`.
    pub fn bin_upper(&self, dim: usize, bin: u32) -> f64 {
        self.boundaries[dim][(bin - 1) as usize]
    }

    /// Upper boundary of the bin *below* `bin`, i.e. the exclusive lower
    /// bound of `bin` (`None` for the first bin).
    pub fn bin_lower(&self, dim: usize, bin: u32) -> Option<f64> {
        if bin <= 1 {
            None
        } else {
            Some(self.boundaries[dim][(bin - 2) as usize])
        }
    }

    /// 1-based bin of `o` in `dim`, or `None` when missing.
    #[inline]
    pub fn bin_of(&self, o: ObjectId, dim: usize) -> Option<u32> {
        match self.bin_idx[o as usize * self.dims + dim] {
            MISSING => None,
            b => Some(b),
        }
    }

    /// `[Qᵢ]` for `o`: same-or-higher bin or missing.
    #[inline]
    pub fn q_column(&self, o: ObjectId, dim: usize) -> &BitVec {
        match self.bin_of(o, dim) {
            None => &self.columns[dim][0],
            Some(b) => &self.columns[dim][(b - 1) as usize],
        }
    }

    /// `[Pᵢ]` for `o`: strictly higher bin or missing.
    #[inline]
    pub fn p_column(&self, o: ObjectId, dim: usize) -> &BitVec {
        match self.bin_of(o, dim) {
            None => &self.columns[dim][0],
            Some(b) => &self.columns[dim][b as usize],
        }
    }

    /// `Q = (∩ᵢ Qᵢ) − {o}` over the binned columns.
    pub fn q_vec(&self, o: ObjectId) -> BitVec {
        let sel = self.selection_of(o as usize);
        let mut q = BitVec::zeros(self.n);
        self.and_selected_into((0..self.dims).map(|d| sel.q_pick(d)), &mut q);
        q.clear(o as usize);
        q
    }

    /// `P = ∩ᵢ Pᵢ` over the binned columns.
    pub fn p_vec(&self, o: ObjectId) -> BitVec {
        let sel = self.selection_of(o as usize);
        let mut p = BitVec::zeros(self.n);
        self.and_selected_into((0..self.dims).map(|d| sel.p_pick(d)), &mut p);
        p
    }

    /// `MaxBitScore(o) = |Q|` under the binned index (still a valid upper
    /// bound of `score(o)`, though no longer tighter than `MaxScore` —
    /// Lemma 3 does not carry over, see §4.4).
    pub fn max_bit_score(&self, o: ObjectId) -> usize {
        self.q_vec(o).count_ones()
    }

    /// `|∩ᵢ columns[i][sel.q[i]]|` with a *budget* early exit: `None` as
    /// soon as the count is provably `≤ budget`, else the exact count —
    /// the same scan as [`crate::BitmapIndex::q_count_selected_above`],
    /// over the binned columns and their suffix tables. IBIG's Heuristic 2
    /// decision; nothing is written.
    pub fn q_count_selected_above(&self, sel: &BinSelection, budget: usize) -> Option<usize> {
        self.q_count_selected_above_scoped(sel, None, budget)
    }

    /// [`BinnedBitmapIndex::q_count_selected_above`] with `scope`'s rows as
    /// one more operand of the scan. `None` is the unscoped scan.
    pub fn q_count_selected_above_scoped(
        &self,
        sel: &BinSelection,
        scope: Option<&RowScope>,
        budget: usize,
    ) -> Option<usize> {
        // Column 0 carries the tombstones here, so its popcount is the
        // live count.
        count_selected_above(
            &self.columns,
            &self.block_suffix,
            &sel.q[..self.dims],
            self.block_suffix[0][0][0] as usize,
            scope,
            budget,
        )
    }

    /// Index size in bits: the paper's **logical** Eq. 5 cost with the
    /// actual bin counts (see [`BinnedBitmapIndex::allocated_bytes`] for
    /// the allocation footprint).
    pub fn size_bits(&self) -> u64 {
        self.columns
            .iter()
            .map(|cols| cols.len() as u64 * self.n as u64)
            .sum()
    }

    /// The logical size in bytes (`size_bits / 8`, rounded up once).
    pub fn size_bytes(&self) -> u64 {
        self.size_bits().div_ceil(8)
    }

    /// Actual allocated column storage in bytes: every column holds
    /// `ceil(|S| / 64)` 64-bit words. Excludes the probe trees.
    pub fn allocated_bytes(&self) -> u64 {
        let ncols: u64 = self.columns.iter().map(|c| c.len() as u64).sum();
        ncols * (self.n as u64).div_ceil(64) * 8
    }

    /// Objects whose value in `dim` equals `v` (tree probe, ascending id).
    pub fn ids_equal(&self, dim: usize, v: f64) -> impl Iterator<Item = ObjectId> + '_ {
        let k = F64Key::new(v).expect("probe value is not NaN");
        self.trees[dim]
            .range((k, 0)..=(k, ObjectId::MAX))
            .map(|&(_, id)| id)
    }

    /// Objects in the same bin as `o` in `dim` whose value is strictly less
    /// than `o[i]` — the §4.5 probe that feeds `nonD(o)` (they cannot be
    /// dominated by `o`). Empty when `o` misses `dim`.
    ///
    /// Returns a concrete tree range cursor — no boxing, so the IBIG
    /// inner loop performs no heap allocation per probe.
    pub fn ids_in_bin_below(
        &self,
        ds: &Dataset,
        o: ObjectId,
        dim: usize,
    ) -> impl Iterator<Item = ObjectId> + '_ {
        match self.bin_of(o, dim) {
            None => self.ids_below_in_bin(dim, f64::INFINITY, false),
            Some(_) => {
                let v = ds.value(o, dim).expect("bin implies observed");
                self.ids_below_in_bin(dim, v, true)
            }
        }
    }

    /// Value-based form of [`BinnedBitmapIndex::ids_in_bin_below`] for
    /// candidates that need not be members of this index: ids of the
    /// members sharing the bin that contains `v` whose value is strictly
    /// below `v`. `observed = false` (the candidate misses `dim`)
    /// yields the empty cursor. A `v` above every boundary belongs to no
    /// bin — also empty (such members cannot tie the candidate's bin).
    pub fn ids_below_in_bin(
        &self,
        dim: usize,
        v: f64,
        observed: bool,
    ) -> impl Iterator<Item = ObjectId> + '_ {
        use std::ops::Bound;
        let bounds = &self.boundaries[dim];
        let c = bounds.partition_point(|&ub| ub < v); // 0-based bin of v
        let (lo, hi) = if !observed || c >= bounds.len() {
            // An interval whose bounds exclude everything yields the empty
            // probe through the same cursor type.
            let k = (F64Key::new(0.0).expect("zero is not NaN"), 0);
            (Bound::Included(k), Bound::Excluded(k))
        } else {
            let hi = Bound::Excluded((F64Key::new(v).expect("not NaN"), 0));
            let lo = match self.bin_lower(dim, (c + 1) as u32) {
                None => Bound::Unbounded,
                Some(lb) => Bound::Excluded((F64Key::new(lb).expect("not NaN"), ObjectId::MAX)),
            };
            (lo, hi)
        };
        self.trees[dim].range((lo, hi)).map(|&(_, id)| id)
    }

    /// Resolve the binned `[Qᵢ]`/`[Pᵢ]` column picks for an arbitrary value
    /// vector — the cluster's scoring entry point (binned counterpart of
    /// [`crate::BitmapIndex::select_for`]). For members the picks coincide
    /// with [`BinnedBitmapIndex::q_column`] / [`BinnedBitmapIndex::p_column`];
    /// for non-member values the columns encode "same-or-higher bin than
    /// the bin containing `v`" / "strictly higher bin".
    pub fn select_for(&self, mut value: impl FnMut(usize) -> Option<f64>) -> BinSelection {
        let mut sel = BinSelection::default();
        for dim in 0..self.dims {
            if let Some(v) = value(dim) {
                let bounds = &self.boundaries[dim];
                let c = bounds.partition_point(|&ub| ub < v); // 0-based bin
                sel.q[dim] = c as u32;
                // `c == bounds.len()` (value above every bin): both
                // picks degenerate to the last column, `{p : p[i] missing}`.
                sel.p[dim] = (c + 1).min(bounds.len()) as u32;
            }
        }
        sel
    }

    /// The binned `[Qᵢ]`/`[Pᵢ]` column picks of **member** row `row`,
    /// read off its stored bins in `O(dims)` — field for field
    /// what [`BinnedBitmapIndex::select_for`] resolves from the row's
    /// values by binary search.
    #[inline]
    pub fn selection_of(&self, row: usize) -> BinSelection {
        let mut sel = BinSelection::default();
        let bins = &self.bin_idx[row * self.dims..(row + 1) * self.dims];
        for (dim, &b) in bins.iter().enumerate() {
            if b != MISSING {
                sel.q[dim] = b - 1;
                sel.p[dim] = b;
            }
        }
        sel
    }
}

/// Resolved per-dimension binned column picks for one candidate against
/// one [`BinnedBitmapIndex`] — produced by
/// [`BinnedBitmapIndex::select_for`]. The pick pairs feed
/// [`BinnedBitmapIndex::and_selected_into`] directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinSelection {
    q: [u32; MAX_DIMS],
    p: [u32; MAX_DIMS],
}

impl Default for BinSelection {
    /// The all-missing selection: every pick is the all-ones column 0.
    fn default() -> Self {
        BinSelection {
            q: [0; MAX_DIMS],
            p: [0; MAX_DIMS],
        }
    }
}

impl BinSelection {
    /// `(dim, column)` pick of `[Q_dim]`.
    #[inline]
    pub fn q_pick(&self, dim: usize) -> (usize, usize) {
        (dim, self.q[dim] as usize)
    }

    /// `(dim, column)` pick of `[P_dim]`.
    #[inline]
    pub fn p_pick(&self, dim: usize) -> (usize, usize) {
        (dim, self.p[dim] as usize)
    }

    /// Restrict the selection to the dimensions of `dims`: every other
    /// pick becomes column 0, as for a candidate missing that dimension
    /// ([`crate::ColumnSelection::restrict`] on the binned index).
    pub fn restrict(&mut self, dims: DimMask) {
        for d in 0..MAX_DIMS {
            let keep = (dims.bits() >> d) as u32 & 1;
            self.q[d] *= keep;
            self.p[d] *= keep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitmapIndex;
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

    fn fig9_index() -> (tkd_model::Dataset, BinnedBitmapIndex) {
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

    #[test]
    fn value_based_selection_and_probe_agree_with_member_forms() {
        let ds = fixtures::fig3_sample();
        let sub = row_range(&ds, 5, 14);
        let shard = BinnedBitmapIndex::build(&sub, &[2, 2, 3, 3]);
        // Candidates from the whole dataset, members or not.
        for o in ds.ids() {
            let sel = shard.select_for(|d| ds.value(o, d));
            for d in 0..ds.dims() {
                let (qd, qc) = sel.q_pick(d);
                let (pd, pc) = sel.p_pick(d);
                assert_eq!((qd, pd), (d, d));
                assert!(qc <= pc && pc <= shard.num_bins(d));
                // Column predicates against every member, from raw values.
                for local in 0..shard.n() {
                    let pid = (5 + local) as u32;
                    let member_bin = shard.bin_of(local as u32, d);
                    let cand_bin = ds.value(o, d).map(|v| {
                        // 1-based bin containing v (num_bins + 1 = above all).
                        (0..shard.num_bins(d) as u32)
                            .find(|&b| v <= shard.bin_upper(d, b + 1))
                            .map(|b| b + 1)
                            .unwrap_or(shard.num_bins(d) as u32 + 1)
                    });
                    let in_q = match (member_bin, cand_bin) {
                        (None, _) | (_, None) => true,
                        (Some(mb), Some(cb)) => mb >= cb,
                    };
                    let in_p = match (member_bin, cand_bin) {
                        (None, _) | (_, None) => true,
                        (Some(mb), Some(cb)) => mb > cb,
                    };
                    assert_eq!(
                        shard.column(d, qc).get(local),
                        in_q,
                        "Q o={o} pid={pid} d={d}"
                    );
                    assert_eq!(
                        shard.column(d, pc).get(local),
                        in_p,
                        "P o={o} pid={pid} d={d}"
                    );
                }
            }
            // Value probe = member probe when o happens to be a member.
            if (5..14).contains(&(o as usize)) {
                let local = o - 5;
                for d in 0..ds.dims() {
                    let via_member: Vec<u32> = shard.ids_in_bin_below(&sub, local, d).collect();
                    let via_value: Vec<u32> = match ds.value(o, d) {
                        Some(v) => shard.ids_below_in_bin(d, v, true).collect(),
                        None => shard.ids_below_in_bin(d, 0.0, false).collect(),
                    };
                    assert_eq!(via_member, via_value, "o={o} d={d}");
                }
            }
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

    /// The suffix tables equal a fresh recompute from the columns, and the
    /// budgeted scan agrees with the popcount of the materialized `Q` of
    /// every selection in `sels`, at budgets on both sides of it.
    fn assert_scan_consistent(
        idx: &BinnedBitmapIndex,
        sels: impl IntoIterator<Item = BinSelection>,
        ctx: &str,
    ) {
        for d in 0..idx.dims() {
            assert_eq!(idx.block_suffix[d].len(), idx.num_columns(d), "{ctx}");
            for c in 0..idx.num_columns(d) {
                let fresh = suffix_counts(idx.column(d, c));
                assert_eq!(idx.block_suffix[d][c], fresh, "{ctx}: dim {d} col {c}");
            }
        }
        let mut q = BitVec::zeros(idx.n());
        for sel in sels {
            idx.and_selected_into((0..idx.dims()).map(|d| sel.q_pick(d)), &mut q);
            let exact = q.count_ones();
            for budget in [0, 1, exact.saturating_sub(1), exact, exact + 3] {
                assert_eq!(
                    idx.q_count_selected_above(&sel, budget),
                    (exact > budget).then_some(exact),
                    "{ctx}: budget {budget}"
                );
            }
        }
    }

    /// Dynamic maintenance keeps the binned index *consistent*: column
    /// predicates match the frozen bin assignment, tombstones vanish from
    /// every column and probe, `Q` stays a sound superset of the exact
    /// index's `Q` over live objects, and the probe trees agree with a
    /// brute-force scan. (Bit-level equality with a rebuild is *not*
    /// expected — compaction re-quantiles bins.)
    #[test]
    fn dynamic_maintenance_stays_consistent() {
        let dims = 3;
        let mut seed = 13u64;
        let mut rows: Vec<Option<Vec<Option<f64>>>> = Vec::new();
        let mut idx = {
            let ds = tkd_model::Dataset::from_rows(dims, &[]).unwrap();
            BinnedBitmapIndex::build(&ds, &[3, 3, 3])
        };
        let value_of = |rows: &Vec<Option<Vec<Option<f64>>>>, s: usize, d: usize| {
            rows[s].as_ref().and_then(|r| r[d])
        };
        for step in 0..160 {
            let live: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].is_some()).collect();
            match mix(&mut seed) % 10 {
                0..=2 if !live.is_empty() => {
                    let s = live[mix(&mut seed) as usize % live.len()];
                    let row = rows[s].clone().unwrap();
                    idx.tombstone_row(s, |d| row[d]);
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
                        idx.set_cell(s, d, row[d], nv);
                        *row = cand;
                    }
                }
                _ => {
                    let row = random_row(&mut seed, dims);
                    let local = idx.append_row(|d| row[d]);
                    assert_eq!(local, rows.len());
                    rows.push(Some(row));
                }
            }
            if step % 11 != 0 && step != 159 {
                continue;
            }
            // Column predicates: live slots follow bin semantics, dead
            // slots are zero everywhere (including column 0).
            for d in 0..dims {
                for c in 0..idx.num_columns(d) {
                    let col = idx.column(d, c);
                    for (s, row) in rows.iter().enumerate() {
                        let expected = match row {
                            None => false,
                            Some(r) => match r[d] {
                                None => true,
                                Some(v) => {
                                    let b = (0..idx.num_bins(d) as u32)
                                        .find(|&b| v <= idx.bin_upper(d, b + 1))
                                        .map(|b| b + 1)
                                        .expect("live value inside some bin");
                                    assert_eq!(Some(b), idx.bin_of(s as u32, d));
                                    b as usize > c
                                }
                            },
                        };
                        assert_eq!(col.get(s), expected, "step {step} d={d} c={c} s={s}");
                    }
                }
                // Probe tree vs brute force: count ≥ v over live observed.
                for probe in [-0.0, 0.0, 1.0, 4.25, 8.0, 100.0] {
                    let brute = (0..rows.len())
                        .filter_map(|s| value_of(&rows, s, d))
                        .filter(|&v| v >= probe)
                        .count();
                    let in_tree = idx.tree_entries(d).filter(|e| e.0 >= probe).count();
                    assert_eq!(in_tree, brute, "probe {probe}");
                }
                let brute_observed = (0..rows.len())
                    .filter(|&s| value_of(&rows, s, d).is_some())
                    .count();
                assert_eq!(idx.observed_count(d), brute_observed);
            }
            // Q-superset soundness vs the exact index over live rows, via
            // the value-based pick path every scorer uses.
            let live_rows: Vec<Vec<Option<f64>>> = rows.iter().flatten().cloned().collect();
            // The all-missing selection counts the live slots off column 0.
            let all_missing = std::iter::once(BinSelection::default());
            let by_value = live_rows.iter().map(|row| idx.select_for(|d| row[d]));
            assert_scan_consistent(&idx, all_missing.chain(by_value), &format!("step {step}"));
            if live_rows.is_empty() {
                continue;
            }
            let exact =
                BitmapIndex::build(&tkd_model::Dataset::from_rows(dims, &live_rows).unwrap());
            let mut q = tkd_bitvec::BitVec::zeros(idx.n());
            for row in &live_rows {
                let sel = idx.select_for(|d| row[d]);
                idx.and_selected_into((0..dims).map(|d| sel.q_pick(d)), &mut q);
                let esel = exact.select_for(|d| row[d]);
                let mut eq = tkd_bitvec::BitVec::zeros(exact.n());
                exact.q_into_selected(&esel, None, &mut eq);
                assert!(
                    q.count_ones() >= eq.count_ones(),
                    "binned Q must stay a superset (step {step})"
                );
                for dead in (0..rows.len()).filter(|&i| rows[i].is_none()) {
                    assert!(!q.get(dead), "dead slot {dead} in Q at step {step}");
                }
            }
        }
    }

    #[test]
    fn dynamic_first_bin_and_boundary_extension() {
        // Dimension 1 starts never-observed; dimension 0 grows past its
        // last boundary.
        let ds = tkd_model::Dataset::from_rows(2, &[vec![Some(1.0), None], vec![Some(2.0), None]])
            .unwrap();
        let mut idx = BinnedBitmapIndex::build(&ds, &[2, 2]);
        assert_eq!(idx.num_bins(1), 0);
        // First observation of dim 1 creates its first bin.
        let a = idx.append_row(|d| [Some(9.0), Some(4.0)][d]);
        assert_eq!(idx.num_bins(1), 1);
        assert_eq!(idx.bin_of(a as u32, 1), Some(1));
        // 9.0 exceeded dim 0's last boundary (2.0): the last bin extended.
        assert_eq!(idx.bin_upper(0, idx.num_bins(0) as u32), 9.0);
        assert_eq!(
            idx.ids_below_in_bin(1, 4.0, true).count(),
            0,
            "alone in its bin"
        );
        // A same-bin smaller value shows up in the probe.
        let b = idx.append_row(|d| [None, Some(3.5)][d]);
        let below: Vec<u32> = idx.ids_below_in_bin(1, 4.0, true).collect();
        assert_eq!(below, vec![b as u32]);
        // The spliced first column carries a suffix table, and the scan
        // agrees on every member's own selection.
        let members: Vec<BinSelection> = (0..idx.n()).map(|r| idx.selection_of(r)).collect();
        assert_scan_consistent(&idx, members, "after first bin");
    }

    /// Disassemble a binned index into the store's export shape.
    #[allow(clippy::type_complexity)]
    fn export_parts(
        idx: &BinnedBitmapIndex,
    ) -> (
        usize,
        Vec<Vec<f64>>,
        Vec<Vec<BitVec>>,
        Vec<u32>,
        Vec<Vec<(f64, ObjectId)>>,
    ) {
        let dims = idx.dims();
        (
            dims,
            (0..dims)
                .map(|d| {
                    (0..idx.num_bins(d))
                        .map(|b| idx.bin_upper(d, b as u32 + 1))
                        .collect()
                })
                .collect(),
            (0..dims)
                .map(|d| {
                    (0..idx.num_columns(d))
                        .map(|c| idx.column(d, c).clone())
                        .collect()
                })
                .collect(),
            (0..idx.n())
                .flat_map(|o| (0..dims).map(move |d| idx.bin_of(o as ObjectId, d).unwrap_or(0)))
                .collect(),
            (0..dims).map(|d| idx.tree_entries(d).collect()).collect(),
        )
    }

    #[test]
    fn store_parts_roundtrip_preserves_columns_and_probes() {
        let (ds, mut idx) = fig9_index();
        // A mutated (frozen-bin) index round-trips too: tombstone one row
        // and rebin another so the parts differ from a fresh build.
        let victim = ds.id_by_label("B4").unwrap() as usize;
        let row: Vec<Option<f64>> = (0..ds.dims()).map(|d| ds.value(victim as u32, d)).collect();
        idx.tombstone_row(victim, |d| row[d]);
        idx.set_cell(2, 1, ds.value(2, 1), Some(11.0));
        let (dims, bounds, cols, slots, probes) = export_parts(&idx);
        let rebuilt =
            BinnedBitmapIndex::from_store_parts(dims, bounds, cols, slots, probes).unwrap();
        assert_eq!(rebuilt.n(), idx.n());
        for d in 0..dims {
            assert_eq!(rebuilt.num_bins(d), idx.num_bins(d));
            for c in 0..idx.num_columns(d) {
                assert_eq!(rebuilt.column(d, c), idx.column(d, c), "dim {d} col {c}");
            }
            assert_eq!(
                rebuilt.tree_entries(d).collect::<Vec<_>>(),
                idx.tree_entries(d).collect::<Vec<_>>(),
                "probes of dim {d}"
            );
            for probe in [0.0, 2.0, 3.5, 11.0] {
                assert!(rebuilt.ids_equal(d, probe).eq(idx.ids_equal(d, probe)));
            }
        }
        for o in ds.ids().filter(|&o| o as usize != victim) {
            assert_eq!(rebuilt.q_vec(o), idx.q_vec(o), "Q of {o}");
            assert_eq!(rebuilt.p_vec(o), idx.p_vec(o), "P of {o}");
        }
        // Suffix tables are recomputed at load, not persisted: both sides
        // agree with a fresh recompute and with their own bits.
        for (name, index) in [("mutated", &idx), ("rebuilt", &rebuilt)] {
            let live = ds.ids().filter(|&o| o as usize != victim);
            let sels = live.map(|o| index.selection_of(o as usize));
            assert_scan_consistent(index, sels, name);
        }
    }

    #[test]
    fn store_parts_reject_inconsistencies() {
        let (_, idx) = fig9_index();
        let parts = export_parts(&idx);
        {
            let (d, b, c, s, p) = parts.clone();
            assert!(BinnedBitmapIndex::from_store_parts(d, b, c, s, p).is_ok());
        }
        // Out-of-range bin.
        {
            let (d, b, c, mut s, p) = parts.clone();
            s[0] = 42;
            assert!(BinnedBitmapIndex::from_store_parts(d, b, c, s, p).is_err());
        }
        // Probe id beyond n.
        {
            let (d, b, c, s, mut p) = parts.clone();
            p[0].push((999.0, 10_000));
            assert!(BinnedBitmapIndex::from_store_parts(d, b, c, s, p).is_err());
        }
        // Out-of-order probe stream.
        {
            let (d, b, c, s, mut p) = parts.clone();
            p[1].swap(0, 1);
            assert!(BinnedBitmapIndex::from_store_parts(d, b, c, s, p).is_err());
        }
        // The same (value, id) entry twice in a row.
        {
            let (d, b, c, s, mut p) = parts.clone();
            let first = p[1][0];
            p[1].insert(0, first);
            let err = BinnedBitmapIndex::from_store_parts(d, b, c, s, p).unwrap_err();
            assert!(err.contains("strictly ascending"), "{err}");
        }
        // Unsorted boundaries.
        {
            let (d, mut b, c, s, p) = parts;
            b[2].swap(0, 1);
            assert!(BinnedBitmapIndex::from_store_parts(d, b, c, s, p).is_err());
        }
    }

    /// Regression for the signed-zero hazard of bulk-loading: a raw
    /// `total_cmp` sort puts every −0.0 before every +0.0 while the tree
    /// key collapses them, so `(key, id)` would not ascend. The sorted
    /// column normalizes first; the bulk-filled trees must answer exactly
    /// like trees filled by single-key inserts, and the exact index's rank
    /// query like a count over such a tree.
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
        let ds = tkd_model::Dataset::from_rows(3, &rows).unwrap();
        let n = ds.len();
        let key = |v: f64| F64Key::new(v).unwrap();
        let probes = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            0.5,
            1.0,
            3.0,
            f64::INFINITY,
        ];

        // Live rows missing `dim` or at or above `v`: the popcount of the
        // one `[Q_dim]` column a selection observing only `dim` picks.
        let at_least = |exact: &BitmapIndex, dim: usize, v: f64| {
            exact.q_selected_upper_bound(&exact.select_for(|d| (d == dim).then_some(v)))
        };
        for (lo, hi) in [(0, n), (0, 50), (50, 100), (100, n)] {
            let sub = row_range(&ds, lo, hi);
            let idx = BinnedBitmapIndex::build(&sub, &[3, 3, 3]);
            let exact = BitmapIndex::build(&sub);
            for dim in 0..3 {
                let mut tree = ProbeTree::new();
                for o in lo..hi {
                    if let Some(v) = ds.value(o as ObjectId, dim) {
                        tree.insert((key(v), (o - lo) as ObjectId));
                    }
                }
                let missing = (hi - lo) - tree.len();
                let got: Vec<(u64, ObjectId)> = idx
                    .tree_entries(dim)
                    .map(|(v, o)| (v.to_bits(), o))
                    .collect();
                let want: Vec<(u64, ObjectId)> =
                    tree.iter().map(|&(k, o)| (k.get().to_bits(), o)).collect();
                assert_eq!(got, want, "tree_entries {lo}..{hi} dim {dim}");
                assert_eq!(idx.observed_count(dim), tree.len());
                for v in probes {
                    assert_eq!(
                        at_least(&exact, dim, v),
                        missing + tree.range((key(v), 0)..).count(),
                        "missing or at least {v}, {lo}..{hi} dim {dim}"
                    );
                    let eq: Vec<ObjectId> = idx.ids_equal(dim, v).collect();
                    let want: Vec<ObjectId> = tree
                        .range((key(v), 0)..=(key(v), ObjectId::MAX))
                        .map(|&(_, o)| o)
                        .collect();
                    assert_eq!(eq, want, "ids_equal({v}) {lo}..{hi} dim {dim}");
                }
                for o in 0..(hi - lo) as ObjectId {
                    let below: BTreeSet<ObjectId> = idx.ids_in_bin_below(&sub, o, dim).collect();
                    let global = |p: ObjectId| lo as ObjectId + p;
                    let want: BTreeSet<ObjectId> = (0..(hi - lo) as ObjectId)
                        .filter(|&p| {
                            idx.bin_of(o, dim).is_some()
                                && idx.bin_of(p, dim) == idx.bin_of(o, dim)
                                && ds.value(global(p), dim) < ds.value(global(o), dim)
                        })
                        .collect();
                    assert_eq!(below, want, "ids_in_bin_below({o}) {lo}..{hi} dim {dim}");
                }
            }
        }

        // The whole-dataset build against an index grown row by row (every
        // key a single `insert`): same export, same rank and equality
        // probes. (Bins differ — appends only extend the last one.)
        let bulk = BinnedBitmapIndex::build(&ds, &[3, 3, 3]);
        let bulk_exact = BitmapIndex::build(&ds);
        let empty = tkd_model::Dataset::from_rows(3, &[]).unwrap();
        let mut grown = BinnedBitmapIndex::build(&empty, &[3, 3, 3]);
        let mut grown_exact = BitmapIndex::build(&empty);
        for o in ds.ids() {
            grown.append_row(|d| ds.value(o, d));
            grown_exact.append_row(|d| ds.value(o, d));
        }
        for dim in 0..3 {
            let bits = |idx: &BinnedBitmapIndex| -> Vec<(u64, ObjectId)> {
                idx.tree_entries(dim)
                    .map(|(v, o)| (v.to_bits(), o))
                    .collect()
            };
            assert_eq!(bits(&bulk), bits(&grown), "dim {dim}");
            for v in probes {
                assert_eq!(
                    at_least(&bulk_exact, dim, v),
                    at_least(&grown_exact, dim, v)
                );
                assert!(bulk.ids_equal(dim, v).eq(grown.ids_equal(dim, v)));
            }
        }
        assert_eq!(bulk.num_bins(1), 0, "never-observed dimension has no bins");
    }

    #[test]
    fn probe_ids_equal() {
        let (ds, idx) = fig9_index();
        // Dim 0 value 3: C3, C4, C5, D1.
        let mut ids: Vec<String> = idx
            .ids_equal(0, 3.0)
            .map(|o| ds.label(o).unwrap().to_string())
            .collect();
        ids.sort();
        assert_eq!(ids, vec!["C3", "C4", "C5", "D1"]);
        assert_eq!(idx.ids_equal(0, 99.0).count(), 0);
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
}
