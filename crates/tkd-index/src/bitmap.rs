//! The range-encoded bitmap index of §4.3 (Fig. 6), with in-place dynamic
//! maintenance (append / tombstone / cell update) for the update layer.

use crate::memo::Memo;
use crate::pairs::PairTables;
use crate::sorted_column::{for_each_sorted_column, value_runs};
use crate::suffix::{col_clear, col_push, col_set, count_selected_above, suffix_counts, RowScope};
use tkd_bitvec::{BitVec, Tombstones};
use tkd_model::{Dataset, DimMask, ObjectId, MAX_DIMS};

/// Words per block of [`BitmapIndex::residue_counts`]'s staged pass.
const RESIDUE_BLOCK_WORDS: usize = 32;

/// Range-encoded bitmap index over an incomplete dataset.
///
/// Storage cost is exactly the paper's `Σᵢ (Cᵢ + 1) · |S|` bits
/// ([`BitmapIndex::size_bits`]). Building is incremental per dimension:
/// column `c` equals column `c − 1` minus the objects whose value is `v_c`,
/// so construction is `O(Σᵢ (Cᵢ + 1) · N / 64)` word operations.
#[derive(Clone, Debug)]
pub struct BitmapIndex {
    n: usize,
    dims: usize,
    /// Sorted distinct observed values per dimension.
    values: Vec<Vec<f64>>,
    /// `columns[i][c]` = `{p : p[i] missing ∨ p[i] > values[i][c-1]}`;
    /// `columns[i][0]` is all-ones (the missing slot).
    columns: Vec<Vec<BitVec>>,
    /// Row-major per object, per dimension: 1-based index of the
    /// object's value in `values[i]`, or `0` when missing — the
    /// [`BitmapIndex::value_slot`] form, which a snapshot stores as is.
    val_idx: Vec<u32>,
    /// `block_suffix[i][c]` = [`suffix_counts`] of `columns[i][c]`, for the
    /// Heuristic 2 early exit.
    block_suffix: Vec<Vec<Vec<u32>>>,
    /// Pairwise Heuristic 2 tables over the columns: derived at build and
    /// load, dropped by any in-place maintenance, re-derived by
    /// [`BitmapIndex::derive_pair_tables`] — absent or exact, never
    /// stale.
    pairs: Option<PairTables>,
    /// The measurement memo: per slot, the least bound on the row's
    /// `|∩ᵢ Qᵢ|` the lookups have proven (at its exact picks, and at one
    /// set of binned picks with its `nonD`), in the lanes walks have
    /// sized. Unreadable from any in-place op until
    /// [`BitmapIndex::derive_pair_tables`] — absent or exact, like `pairs`.
    memo: Memo,
    /// Live/tombstone bookkeeping for dynamic maintenance. Static builds
    /// are all-live; [`BitmapIndex::tombstone_row`] kills slots.
    ///
    /// **Invariants with tombstones present:** every column `c ≥ 1` holds 0
    /// at dead slots (cleared at tombstone time, suffix tables repaired),
    /// while **column 0 stays all-ones** — it is still skipped as the
    /// intersection identity, which is sound because any `c ≥ 1` column in
    /// the intersection masks the dead slots, and the all-column-0 fast
    /// paths answer from [`Tombstones::live_count`] / the live mask
    /// instead of `n`.
    live: Tombstones,
}

/// Assembles a [`BitmapIndex`] one dimension at a time from the dataset's
/// sorted columns ([`for_each_sorted_column`]), so a build that also needs
/// the `MaxScore` queue feeds both from one sort per dimension.
/// [`BitmapIndex::build`] is this builder driven alone, and a snapshot
/// load ([`BitmapIndex::from_slots`]) lays its columns down through the
/// builder's one column routine too.
#[derive(Debug)]
pub struct BitmapIndexBuilder {
    n: usize,
    dims: usize,
    values: Vec<Vec<f64>>,
    columns: Vec<Vec<BitVec>>,
    val_idx: Vec<u32>,
    live: Tombstones,
    /// The pair tables' storage, taken before any column is laid down.
    pair_buf: Vec<u32>,
}

impl BitmapIndexBuilder {
    /// Start an index with `dims` dimensions over `n` objects.
    pub fn new(dims: usize, n: usize) -> Self {
        BitmapIndexBuilder {
            n,
            dims,
            values: Vec::with_capacity(dims),
            columns: Vec::with_capacity(dims),
            val_idx: vec![0; n * dims],
            live: Tombstones::all_live(n),
            pair_buf: PairTables::buffer(dims),
        }
    }

    /// Add dimension `dim` from its sorted column: each equal-value run is
    /// one distinct value, its position the run members' value slot.
    ///
    /// # Panics
    /// Panics if dimensions arrive out of order or the column names an id
    /// at or past `n`.
    pub fn push_dim(&mut self, dim: usize, column: &[(f64, ObjectId)]) {
        let mut values = Vec::new();
        for run in value_runs(column) {
            values.push(run[0].0);
            for &(_, o) in run {
                self.val_idx[o as usize * self.dims + dim] = values.len() as u32;
            }
        }
        let holders = value_runs(column).map(|run| run.iter().map(|&(_, o)| o as usize));
        self.lay_dim(dim, values, holders);
    }

    /// Lay down dimension `dim`'s columns — the one column routine of
    /// builds and loads. `holders` yields, for each of `values` in
    /// ascending order, the rows holding it. Column 0 is all-ones, and
    /// column `c ≥ 1` is the one below it (the live mask below column 1)
    /// minus the holders of slot `c`: `live ∧ (missing ∨ slot > c)`. Dead
    /// rows keep their slots but no bits, and a value without holders
    /// repeats the column below it.
    fn lay_dim<H: IntoIterator<Item = usize>>(
        &mut self,
        dim: usize,
        values: Vec<f64>,
        holders: impl Iterator<Item = H>,
    ) {
        assert_eq!(dim, self.values.len(), "dimensions must arrive in order");
        let mut cur = self.live.live_mask().clone();
        let mut cols = Vec::with_capacity(values.len() + 1);
        cols.push(BitVec::ones(self.n));
        for rows in holders {
            for o in rows {
                cur.clear(o);
            }
            cols.push(cur.clone());
        }
        assert_eq!(cols.len(), values.len() + 1, "one holder set per value");
        self.values.push(values);
        self.columns.push(cols);
    }

    /// Finish the index (suffix-popcount and pair tables included, no memo
    /// lane sized).
    ///
    /// # Panics
    /// Panics if fewer than `dims` dimensions were pushed.
    pub fn finish(self) -> BitmapIndex {
        assert_eq!(self.values.len(), self.dims, "missing dimensions");
        let block_suffix: Vec<Vec<Vec<u32>>> = self
            .columns
            .iter()
            .map(|cols| cols.iter().map(suffix_counts).collect())
            .collect();
        let live = self.live.live_count();
        let pairs = PairTables::derive(&self.columns, &block_suffix, live, self.pair_buf);
        BitmapIndex {
            n: self.n,
            dims: self.dims,
            values: self.values,
            columns: self.columns,
            val_idx: self.val_idx,
            block_suffix,
            pairs,
            memo: Memo::default(),
            live: self.live,
        }
    }
}

impl BitmapIndex {
    /// Build the index for `ds`.
    pub fn build(ds: &Dataset) -> Self {
        let mut builder = BitmapIndexBuilder::new(ds.dims(), ds.len());
        for_each_sorted_column(ds, |dim, column| builder.push_dim(dim, column));
        builder.finish()
    }

    /// Derive the index from its value tables and value slots — the
    /// snapshot loader's constructor. `slots` is the row-major `n × dims`
    /// table of 1-based slots into `values` with `0` marking a missing
    /// cell (the [`BitmapIndex::value_slot`] form), and `live` the
    /// tombstones, `n = live.len()`. Each dimension's rows are
    /// counting-sorted by slot (one pass counts every dimension) and its
    /// columns laid down by the builder's routine, so the result is
    /// bit-identical to the maintained index the tables and slots were
    /// read from: values without holders keep their columns, dead rows
    /// their slots.
    ///
    /// # Errors
    /// A description of the first inconsistency: a dimensionality outside
    /// `1..=MAX_DIMS`, a slot table of the wrong length, a value table
    /// that is not strictly ascending or holds NaN or −0.0 (the maintained
    /// index normalizes zeros, see `ensure_value`), or a slot past its
    /// dimension's cardinality.
    pub fn from_slots(
        values: Vec<Vec<f64>>,
        slots: Vec<u32>,
        live: Tombstones,
    ) -> Result<Self, String> {
        let dims = values.len();
        if dims == 0 || dims > MAX_DIMS {
            return Err(format!("bad dimensionality {dims}"));
        }
        let n = live.len();
        if slots.len() != n * dims {
            return Err(format!(
                "value-slot table holds {} entries, expected {}",
                slots.len(),
                n * dims
            ));
        }
        for (d, vals) in values.iter().enumerate() {
            if vals.iter().any(|v| v.is_nan()) {
                return Err(format!("NaN in the value table of dim {d}"));
            }
            if vals.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()) {
                return Err(format!("−0.0 in the value table of dim {d}"));
            }
            if vals.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("value table of dim {d} is not strictly ascending"));
            }
        }
        // `counts[d][j]`: the holders of slot `j` of dim `d` (slot 0, the
        // missing cells, included), counted in one pass over the table.
        let mut counts: Vec<Vec<usize>> = values.iter().map(|v| vec![0; v.len() + 1]).collect();
        for (o, row) in slots.chunks_exact(dims).enumerate() {
            for (d, (&slot, counts)) in row.iter().zip(&mut counts).enumerate() {
                match slot as usize {
                    j if j < counts.len() => counts[j] += 1,
                    j => {
                        return Err(format!(
                            "value slot {j} of object {o} exceeds dim {d}'s cardinality {}",
                            counts.len() - 1
                        ))
                    }
                }
            }
        }
        let mut builder = BitmapIndexBuilder {
            n,
            dims,
            values: Vec::with_capacity(dims),
            columns: Vec::with_capacity(dims),
            val_idx: slots,
            live,
            pair_buf: PairTables::buffer(dims),
        };
        let mut order = vec![0u32; n];
        for (d, (vals, mut at)) in values.into_iter().zip(counts).enumerate() {
            // Counts become starts, then placing each holder advances its
            // slot's start to the slot's end. The missing cells (slot 0)
            // are not placed.
            let at = &mut at[1..];
            let mut start = 0;
            for at in at.iter_mut() {
                start += *at;
                *at = start - *at;
            }
            let column = builder.val_idx.iter().skip(d).step_by(dims);
            for (o, &slot) in column.enumerate().filter(|&(_, &s)| s != 0) {
                let at = &mut at[slot as usize - 1];
                order[*at] = o as u32;
                *at += 1;
            }
            let mut start = 0;
            let holders = at.iter().map(|&end| {
                let rows = &order[start..end];
                start = end;
                rows.iter().map(|&o| o as usize)
            });
            builder.lay_dim(d, vals, holders);
        }
        Ok(builder.finish())
    }

    // ----- dynamic maintenance -------------------------------------------

    /// Append one object (slot `n()`), growing every column by one bit and
    /// inserting new distinct values into the value tables as needed (a new
    /// value splices in one cloned column, `O(N/64)` words, and shifts the
    /// larger values' `val_idx` entries). Returns the new local id.
    ///
    /// Cost without a new distinct value: `O(Σᵢ (Cᵢ+1))` bit appends plus
    /// `O(set bits · nblocks)` suffix updates — far below a rebuild's
    /// `O(Σᵢ (Cᵢ+1) · N/64)`.
    pub fn append_row(&mut self, mut value: impl FnMut(usize) -> Option<f64>) -> usize {
        self.pairs = None;
        self.memo.clear();
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
                    0
                }
                Some(v) => {
                    let j1 = self.ensure_value(dim, v);
                    // Bit semantics: 1 in columns `c ≤ j1 − 1` (the object
                    // satisfies `> values[c−1]` exactly below its own slot).
                    for (c, (col, suf)) in self.columns[dim]
                        .iter_mut()
                        .zip(&mut self.block_suffix[dim])
                        .enumerate()
                    {
                        col_push(col, suf, c < j1);
                    }
                    j1 as u32
                }
            };
            self.val_idx.push(slot);
        }
        self.live.push_live();
        self.n += 1;
        local
    }

    /// Tombstone local slot `local`: clear its bits in every `c ≥ 1` column
    /// (column 0 stays all-ones — see the `live` field invariants) and
    /// repair the suffix tables. Returns `false` if already dead.
    ///
    /// # Panics
    /// Panics on out-of-range slots.
    pub fn tombstone_row(&mut self, local: usize) -> bool {
        if !self.live.kill(local) {
            return false;
        }
        self.pairs = None;
        self.memo.clear();
        for dim in 0..self.dims {
            // Bits are set only in columns `1..hi`; missing = all of them.
            let hi = match self.val_idx[local * self.dims + dim] {
                0 => self.columns[dim].len(),
                j => j as usize,
            };
            for c in 1..hi {
                col_clear(
                    &mut self.columns[dim][c],
                    &mut self.block_suffix[dim][c],
                    local,
                );
            }
        }
        true
    }

    /// Overwrite one cell of live slot `local` (`None` = clear to missing),
    /// moving its bits across the affected column range of `dim` and
    /// updating `val_idx`. New distinct values splice in a column as in
    /// [`BitmapIndex::append_row`]; values left without holders stay in the
    /// table (they still encode a valid threshold — compaction prunes
    /// them).
    ///
    /// # Panics
    /// Panics on out-of-range slots or dead slots.
    pub fn set_cell(&mut self, local: usize, dim: usize, new: Option<f64>) {
        assert!(self.live.is_live(local), "cell update on dead slot {local}");
        self.pairs = None;
        self.memo.clear();
        // Resolve the new slot first: a value-table insert shifts `val_idx`
        // (including this object's), so the old slot is read afterwards.
        let new_j = match new {
            None => 0,
            Some(v) => self.ensure_value(dim, v) as u32,
        };
        let old_j = self.val_idx[local * self.dims + dim];
        let ncols = self.columns[dim].len();
        // Set-bit ranges are prefixes `1..hi` of the non-trivial columns.
        let old_hi = match old_j {
            0 => ncols,
            j => j as usize,
        };
        let new_hi = match new_j {
            0 => ncols,
            j => j as usize,
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
        self.val_idx[local * self.dims + dim] = new_j;
    }

    /// Derive the pairwise Heuristic 2 tables from the columns, and size
    /// the memo lanes walks have sized with every entry unknown, if any
    /// maintenance dropped them ([`BitmapIndex::append_row`],
    /// [`BitmapIndex::tombstone_row`] and [`BitmapIndex::set_cell`] do) —
    /// the dynamic engine's refresh runs it once per batch of ops. A
    /// no-op while they are present. Until then the budgeted scan decides
    /// alone, with the same answers.
    pub fn derive_pair_tables(&mut self) {
        if self.pairs.is_none() {
            let live = self.live_count();
            self.pairs = PairTables::derive(&self.columns, &self.block_suffix, live, Vec::new());
        }
        self.memo.refresh(self.n);
    }

    /// The pairwise Heuristic 2 tables, `None` while maintenance has
    /// dropped them (or the index has a single dimension).
    pub fn pair_tables(&self) -> Option<&PairTables> {
        self.pairs.as_ref()
    }

    /// 1-based slot of `v` in `dim`'s value table, splicing in a new column
    /// when `v` is a new distinct value.
    fn ensure_value(&mut self, dim: usize, v: f64) -> usize {
        // `+ 0.0` stores a zero as +0.0, the value a build's sorted column
        // gives it.
        let v = v + 0.0;
        let vals = &mut self.values[dim];
        // IEEE `<` probe: the table merges −0.0 into 0.0, which `total_cmp`
        // would separate.
        let j = vals.partition_point(|&x| x < v);
        if j < vals.len() && vals[j] == v {
            return j + 1;
        }
        vals.insert(j, v);
        // New column `j+1` = `{p : missing ∨ p > v}`. No existing value
        // lies in `(values[j−1], v]`, so over existing objects that is
        // exactly column `j` — clone it. Cloning column 0 (new minimum)
        // must additionally mask out tombstones, which column 0 keeps set.
        let mut col = self.columns[dim][j].clone();
        if j == 0 {
            col.and_assign(self.live.live_mask());
        }
        let suf = suffix_counts(&col);
        self.columns[dim].insert(j + 1, col);
        self.block_suffix[dim].insert(j + 1, suf);
        for slot in self.val_idx.iter_mut().skip(dim).step_by(self.dims) {
            if *slot as usize > j {
                *slot += 1;
            }
        }
        j + 1
    }

    /// Number of live (non-tombstoned) slots.
    pub fn live_count(&self) -> usize {
        self.live.live_count()
    }

    /// The live/tombstone bookkeeping: which slots are live.
    pub fn tombstones(&self) -> &Tombstones {
        &self.live
    }

    /// Dense live mask (bit per slot), for word-parallel scans over live
    /// objects.
    pub fn live_mask(&self) -> &BitVec {
        self.live.live_mask()
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

    /// Dimensional cardinality `Cᵢ`.
    pub fn cardinality(&self, dim: usize) -> usize {
        self.values[dim].len()
    }

    /// Sorted distinct values of `dim`.
    pub fn values(&self, dim: usize) -> &[f64] {
        &self.values[dim]
    }

    /// Vertical column `c` of `dim` (see the crate docs for its set
    /// semantics). Column 0 is the all-ones missing slot.
    pub fn column(&self, dim: usize, c: usize) -> &BitVec {
        &self.columns[dim][c]
    }

    /// Number of columns of `dim` (`Cᵢ + 1`).
    pub fn num_columns(&self, dim: usize) -> usize {
        self.columns[dim].len()
    }

    /// 1-based value index of `o` in `dim`, or `None` when missing.
    #[inline]
    pub fn value_index(&self, o: ObjectId, dim: usize) -> Option<u32> {
        match self.val_idx[o as usize * self.dims + dim] {
            0 => None,
            j => Some(j),
        }
    }

    /// The paper's `[Qᵢ]` for object `o`: all-ones when `o[i]` is missing,
    /// else the column just below `o`'s value.
    #[inline]
    pub fn q_column(&self, o: ObjectId, dim: usize) -> &BitVec {
        match self.value_index(o, dim) {
            None => &self.columns[dim][0],
            Some(j) => &self.columns[dim][(j - 1) as usize],
        }
    }

    /// The paper's `[Pᵢ]` for object `o`: all-ones when `o[i]` is missing,
    /// else the column at `o`'s value.
    #[inline]
    pub fn p_column(&self, o: ObjectId, dim: usize) -> &BitVec {
        match self.value_index(o, dim) {
            None => &self.columns[dim][0],
            Some(j) => &self.columns[dim][j as usize],
        }
    }

    /// `Q = (∩ᵢ Qᵢ) − {o}` (Definition 4). `|Q|` is `MaxBitScore(o)`.
    ///
    /// Allocates the result; the hot path uses [`BitmapIndex::q_into`].
    pub fn q_vec(&self, o: ObjectId) -> BitVec {
        let mut q = BitVec::zeros(self.n);
        self.q_into(o, &mut q);
        q
    }

    /// `P = ∩ᵢ Pᵢ` (Definition 4).
    ///
    /// Allocates the result; the hot path uses [`BitmapIndex::p_into`].
    pub fn p_vec(&self, o: ObjectId) -> BitVec {
        let mut p = BitVec::zeros(self.n);
        self.p_into(o, &mut p);
        p
    }

    /// Intersect one selected column per dimension, and the scope's rows
    /// when there is a scope, into `dst`. Column 0 is the intersection
    /// identity and is skipped; when nothing is left the result is the
    /// live mask (all-ones on static indexes, tombstone-aware on dynamic
    /// ones).
    fn fill_selected(
        &self,
        col_idx: impl Fn(usize) -> usize,
        scope: Option<&RowScope>,
        dst: &mut BitVec,
    ) {
        let live = self.live.live_mask();
        let mut cols: [&BitVec; MAX_DIMS + 1] = [live; MAX_DIMS + 1];
        let mut m = 0;
        for (dim, dim_cols) in self.columns.iter().enumerate() {
            let c = col_idx(dim);
            if c > 0 {
                cols[m] = &dim_cols[c];
                m += 1;
            }
        }
        if let Some(scope) = scope {
            cols[m] = scope.bits();
            m += 1;
        }
        if m == 0 {
            dst.copy_from(live);
        } else {
            BitVec::intersect_into(dst, &cols[..m]);
        }
    }

    /// Fill caller-owned scratch with `Q = (∩ᵢ Qᵢ) − {o}` in one fused pass
    /// — no allocation.
    ///
    /// # Panics
    /// Panics if `q.len() != self.n()`.
    pub fn q_into(&self, o: ObjectId, q: &mut BitVec) {
        self.q_into_selected(&self.selection_of(o as usize), Some(o as usize), q);
    }

    /// Fill caller-owned scratch with `P = ∩ᵢ Pᵢ` in one fused pass — no
    /// allocation.
    ///
    /// # Panics
    /// Panics if `p.len() != self.n()`.
    pub fn p_into(&self, o: ObjectId, p: &mut BitVec) {
        self.p_into_selected(&self.selection_of(o as usize), p);
    }

    /// `MaxBitScore(o) = |Q|` (Heuristic 2), as a fused multi-way
    /// AND-popcount over the column words — nothing is materialized and
    /// nothing is allocated.
    pub fn max_bit_score(&self, o: ObjectId) -> usize {
        // o ∈ [Qᵢ] for every i (o[i] ≥ o[i], and the missing slot is
        // all-ones), so |Q| = |∩ᵢ Qᵢ| − 1 without clearing o's bit.
        self.q_count_selected_above(&self.selection_of(o as usize), 0)
            .map_or(0, |c| c - 1)
    }

    /// Heuristic 2 in one call, the entry point for member rows:
    /// `Some(MaxBitScore(o))` when it exceeds `tau`, `None` when
    /// `MaxBitScore(o) ≤ tau` — i.e. `None` means *prune*. o's own bit is
    /// part of every count here, so `|Q| ≤ tau` reads
    /// `|∩ᵢ Qᵢ| ≤ tau + 1`. The memo goes first: an entry within that
    /// budget is the prune. Else [`BitmapIndex::q_count_selected_above`]
    /// decides on `o`'s own selection, and the memo keeps what it proved —
    /// the budget after a prune, the exact count after a keep. The
    /// decision is exactly `max_bit_score(o) ≤ tau` either way.
    pub fn max_bit_score_above(&self, o: ObjectId, tau: usize) -> Option<usize> {
        let (row, budget) = (o as usize, tau + 1);
        if self.memo.exact_bound(row).is_some_and(|b| b <= budget) {
            return None;
        }
        let count = self.q_count_selected_above(&self.selection_of(row), budget);
        self.memo.record_exact(row, count.unwrap_or(budget));
        count.map(|c| c - 1)
    }

    /// Record member row `o`'s exact `|∩ᵢ Qᵢ|` at its exact picks — a
    /// term's count, measured whole — for a later
    /// [`BitmapIndex::max_bit_score_above`] to decide from, as the binned
    /// view's [`crate::BinnedBitmapIndex::record_non_d`] keeps IBIG's. A
    /// no-op while the exact lane is unreadable.
    #[inline]
    pub fn record_count(&self, o: ObjectId, count: usize) {
        self.memo.record_exact(o as usize, count);
    }

    /// The measurement memo, for the binned view's lane.
    pub(crate) fn memo(&self) -> &Memo {
        &self.memo
    }

    /// A walk that reads [`BitmapIndex::max_bit_score_above`] (BIG's
    /// unscoped walk) starts; call once per walk, before its first lookup.
    /// The second sizes the exact memo lane, every entry unknown.
    pub fn announce_walk(&self) {
        self.memo.exact.announce(self.n);
    }

    /// The bytes the memo lanes hold: 4 per slot for the exact lane and 8
    /// for the binned one once walks have sized them, 0 while none is
    /// sized or in-place maintenance has left them unreadable.
    pub fn memo_bytes(&self) -> usize {
        size_of_val(self.memo.exact.entries()) + size_of_val(self.memo.binned.entries())
    }

    /// The exact memo lane's bound on `MaxBitScore(o)`: what
    /// [`BitmapIndex::max_bit_score_above`] and
    /// [`BitmapIndex::record_count`] have proven about `o` since the
    /// lane was sized or last refreshed. `None` while nothing is known or
    /// no lane is sized, and from any in-place op until the next refresh
    /// ([`BitmapIndex::derive_pair_tables`]).
    pub fn max_bit_score_bound(&self, o: ObjectId) -> Option<usize> {
        self.memo
            .exact_bound(o as usize)
            .map(|b| b.saturating_sub(1))
    }

    /// The `[Qᵢ]`/`[Pᵢ]` column picks of **member** row `row`, read off its
    /// stored value slots in `O(dims)` — field for field what
    /// [`BitmapIndex::select_for`] resolves from the row's values by
    /// binary search.
    #[inline]
    pub fn selection_of(&self, row: usize) -> ColumnSelection {
        let mut sel = ColumnSelection::default();
        let slots = &self.val_idx[row * self.dims..(row + 1) * self.dims];
        for (dim, &j) in slots.iter().enumerate() {
            if j != 0 {
                sel.q[dim] = j - 1;
                sel.p[dim] = j;
                sel.eq[dim] = j;
            }
        }
        sel
    }

    /// Resolve the `[Qᵢ]`/`[Pᵢ]` column picks for an **arbitrary value
    /// vector** — the cluster's scoring entry point: a shard worker's index
    /// can score any candidate, member or not, from its per-dimension
    /// values. `value(d)` returns the candidate's observation in dimension
    /// `d` (`None` = missing).
    ///
    /// For members the resolved picks coincide exactly with
    /// [`BitmapIndex::q_column`] / [`BitmapIndex::p_column`]; for
    /// non-members the columns encode the same set predicates
    /// (`{p : p missing ∨ p ≥ v}` and `{p : p missing ∨ p > v}`).
    pub fn select_for(&self, mut value: impl FnMut(usize) -> Option<f64>) -> ColumnSelection {
        let mut sel = ColumnSelection::default();
        for dim in 0..self.dims {
            if let Some(v) = value(dim) {
                let vals = &self.values[dim];
                // IEEE `<` probe (the table merges −0.0 into 0.0, which
                // `total_cmp` would separate): `c` counts the strictly
                // smaller values.
                let c = vals.partition_point(|&x| x < v);
                let present = c < vals.len() && vals[c] == v;
                sel.q[dim] = c as u32;
                sel.p[dim] = if present { c as u32 + 1 } else { c as u32 };
                sel.eq[dim] = if present { c as u32 + 1 } else { 0 };
            }
        }
        sel
    }

    /// Fill caller-owned scratch with the selection's
    /// `Q = ∩ᵢ columns[i][sel.q[i]]`, clearing `member`'s bit when the
    /// candidate is a member of this index. No allocation.
    ///
    /// # Panics
    /// Panics if `q.len() != self.n()` or `member` is out of range.
    pub fn q_into_selected(&self, sel: &ColumnSelection, member: Option<usize>, q: &mut BitVec) {
        self.q_into_selected_scoped(sel, member, None, q);
    }

    /// [`BitmapIndex::q_into_selected`] restricted to `scope`'s rows: one
    /// more AND operand in the same fused pass. `None` is the unscoped
    /// fill.
    ///
    /// # Panics
    /// As [`BitmapIndex::q_into_selected`].
    pub fn q_into_selected_scoped(
        &self,
        sel: &ColumnSelection,
        member: Option<usize>,
        scope: Option<&RowScope>,
        q: &mut BitVec,
    ) {
        assert_eq!(q.len(), self.n, "scratch length mismatch");
        self.fill_selected(|d| sel.q[d] as usize, scope, q);
        if let Some(local) = member {
            q.clear(local);
        }
    }

    /// Fill caller-owned scratch with the selection's
    /// `P = ∩ᵢ columns[i][sel.p[i]]` — no allocation.
    ///
    /// # Panics
    /// Panics if `p.len() != self.n()`.
    pub fn p_into_selected(&self, sel: &ColumnSelection, p: &mut BitVec) {
        self.p_into_selected_scoped(sel, None, p);
    }

    /// [`BitmapIndex::p_into_selected`] restricted to `scope`'s rows.
    /// `None` is the unscoped fill.
    ///
    /// # Panics
    /// As [`BitmapIndex::p_into_selected`].
    pub fn p_into_selected_scoped(
        &self,
        sel: &ColumnSelection,
        scope: Option<&RowScope>,
        p: &mut BitVec,
    ) {
        assert_eq!(p.len(), self.n, "scratch length mismatch");
        self.fill_selected(|d| sel.p[d] as usize, scope, p);
    }

    /// `|∩ᵢ columns[i][sel.q[i]]|` with a *budget* early exit — the
    /// Heuristic 2 test, and the hot path of Algorithm 3 (most visited
    /// objects die here). Returns `None` as soon as the count is provably
    /// `≤ budget`: at a positive budget first when the pair tables
    /// ([`BitmapIndex::pair_tables`]) bound some pair of picked columns'
    /// joint count by it, then in the scan upfront when the sparsest
    /// selected column already fits, then blockwise as soon as the bits
    /// counted so far plus the sparsest column's remaining suffix
    /// popcount can no longer exceed `budget`. Else the exact count. A
    /// `None` lets Heuristic 2 prune without finishing — mostly without
    /// starting — the scan. IBIG runs the same test at its binned picks
    /// ([`crate::BinnedBitmapIndex::selection_of`]).
    pub fn q_count_selected_above(&self, sel: &ColumnSelection, budget: usize) -> Option<usize> {
        self.q_count_selected_above_scoped(sel, None, budget)
    }

    /// [`BitmapIndex::q_count_selected_above`] of `|∩ᵢ columns[i][sel.q[i]]
    /// ∧ scope|`: the scope is one more operand of the same budgeted scan,
    /// its suffix table beside the columns'; the unscoped pair tables
    /// bound the scoped count from above too. `None` is the unscoped
    /// scan.
    pub fn q_count_selected_above_scoped(
        &self,
        sel: &ColumnSelection,
        scope: Option<&RowScope>,
        budget: usize,
    ) -> Option<usize> {
        let picks = &sel.q[..self.dims];
        if budget > 0 && self.pairs.as_ref().is_some_and(|t| t.prunes(picks, budget)) {
            return None;
        }
        count_selected_above(
            &self.columns,
            &self.block_suffix,
            picks,
            self.live_count(),
            scope,
            budget,
        )
    }

    /// Write into `dst` the live rows that miss `dim` or hold a value in
    /// `[lo, hi]` — one dimension's admission test of a constrained query,
    /// read off the range-encoded columns: `column a ∧ ¬column b` holds
    /// the observed values in range and the last column the rows missing
    /// `dim`. The bounds resolve against the value table with the IEEE
    /// `<` probe of [`BitmapIndex::select_for`], so `−0.0` and `0.0`
    /// bound alike. `lo > hi` (or a range no stored value falls in) admits
    /// only the rows missing `dim`.
    ///
    /// # Panics
    /// Panics if `dst.len() != self.n()`.
    pub fn admit(&self, dim: usize, lo: f64, hi: f64, dst: &mut BitVec) {
        assert_eq!(dst.len(), self.n, "scratch length mismatch");
        let vals = &self.values[dim];
        let cols = &self.columns[dim];
        // Column `a` is `missing ∨ ≥ lo`, column `b` is `missing ∨ > hi`.
        let a = vals.partition_point(|&x| x < lo);
        let b = vals.partition_point(|&x| x <= hi);
        let missing = &cols[vals.len()];
        if a < b {
            dst.copy_from(&cols[a]);
            dst.and_not_assign(&cols[b]);
            dst.or_assign(missing);
        } else {
            dst.copy_from(missing);
        }
        // Column 0 (the missing column of a dimension with no values, and
        // column `a` at `a = 0`) keeps dead slots set.
        dst.and_assign(self.live.live_mask());
    }

    /// Write into `dst` the live rows observing at least one dimension of
    /// `dims`, `live ∧ ¬⋂_{d ∈ dims} missing(d)` — the rows a projection
    /// onto `dims` keeps. The last column of each dimension holds the
    /// rows missing it. An empty `dims` keeps no row.
    ///
    /// # Panics
    /// Panics if `dst.len() != self.n()` or `dims` names a dimension past
    /// [`BitmapIndex::dims`].
    pub fn observing_any(&self, dims: DimMask, dst: &mut BitVec) {
        assert_eq!(dst.len(), self.n, "scratch length mismatch");
        dst.set_all();
        for d in dims.iter() {
            dst.and_assign(&self.columns[d][self.values[d].len()]);
        }
        dst.not_assign();
        dst.and_assign(self.live.live_mask());
    }

    /// Split a candidate's `Q − P` in one fused pass over the words:
    /// `(|Q ∧ ¬P|, |nonD|)`. `q` and `p` hold its filled `Q` (its own bit
    /// cleared) and `P`, made from the picks `bin_sel` — the binned ones
    /// for IBIG, `sel` itself for BIG; `sel` holds its exact picks and
    /// `dims` its observed dimensions. A row of `Q − P` is not dominated
    /// when, in some dimension of `dims`, it sits in the candidate's bin
    /// strictly below it — `column(bin_sel.q) ∧ ¬column(sel.q)`, the
    /// §4.5 probe — or when it equals or misses the candidate in every
    /// dimension of `dims` — `⋀ (column(sel.q) ∧ ¬column(sel.p)) ∨
    /// missing`, the paper's `tagT` test. A row of the first kind holds a
    /// smaller value than the candidate's, so the two never meet; with
    /// `bin_sel = sel` the first is empty. Blocks where `Q − P` is empty
    /// read no column. Nothing is written.
    ///
    /// # Panics
    /// Panics if `q` or `p` is not `n()` bits long.
    pub fn residue_counts(
        &self,
        q: &BitVec,
        p: &BitVec,
        sel: &ColumnSelection,
        bin_sel: &ColumnSelection,
        dims: DimMask,
    ) -> (usize, usize) {
        assert!(
            q.len() == self.n && p.len() == self.n,
            "scratch length mismatch"
        );
        let mut below: [[&[u64]; 2]; MAX_DIMS] = [[&[]; 2]; MAX_DIMS];
        let mut equal: [[&[u64]; 3]; MAX_DIMS] = [[&[]; 3]; MAX_DIMS];
        let (mut nb, mut ne) = (0, 0);
        for d in dims.iter() {
            let cols = &self.columns[d];
            let word = |c: u32| cols[c as usize].as_words();
            if bin_sel.q[d] < sel.q[d] {
                below[nb] = [word(bin_sel.q[d]), word(sel.q[d])];
                nb += 1;
            }
            let missing = cols[cols.len() - 1].as_words();
            equal[ne] = [word(sel.q[d]), word(sel.p[d]), missing];
            ne += 1;
        }
        let (qw, pw) = (q.as_words(), p.as_words());
        let (mut residue, mut non_d) = (0, 0);
        let mut res = [0u64; RESIDUE_BLOCK_WORDS];
        let mut nond = [0u64; RESIDUE_BLOCK_WORDS];
        let mut start = 0;
        while start < qw.len() {
            let end = (start + RESIDUE_BLOCK_WORDS).min(qw.len());
            let (res, nond) = (&mut res[..end - start], &mut nond[..end - start]);
            let mut any = 0;
            for ((r, &a), &b) in res.iter_mut().zip(&qw[start..end]).zip(&pw[start..end]) {
                *r = a & !b;
                any |= *r;
            }
            if any != 0 {
                residue += tkd_bitvec::kernels::popcount(res);
                nond.copy_from_slice(res);
                for [cq, cp, cm] in &equal[..ne] {
                    let cols = cq[start..end]
                        .iter()
                        .zip(&cp[start..end])
                        .zip(&cm[start..end]);
                    for (x, ((&a, &b), &m)) in nond.iter_mut().zip(cols) {
                        *x &= (a & !b) | m;
                    }
                }
                for [ca, cs] in &below[..nb] {
                    let cols = ca[start..end].iter().zip(&cs[start..end]);
                    for ((x, &r), (&a, &s)) in nond.iter_mut().zip(res.iter()).zip(cols) {
                        *x |= r & a & !s;
                    }
                }
                non_d += tkd_bitvec::kernels::popcount(nond);
            }
            start = end;
        }
        (residue, non_d)
    }

    /// The live rows holding each value of `dim`, ascending by value,
    /// values no live row holds left out — read off the columns'
    /// popcounts (`|column c| − |column c + 1|` holds value `c + 1`).
    pub(crate) fn value_counts(&self, dim: usize) -> Vec<(f64, usize)> {
        let count = |c: usize| match c {
            0 => self.live_count(),
            c => self.block_suffix[dim][c][0] as usize,
        };
        let counts = self.values[dim].iter().enumerate();
        counts
            .map(|(i, &v)| (v, count(i) - count(i + 1)))
            .filter(|&(_, holders)| holders > 0)
            .collect()
    }

    /// 1-based value slot of object `local` in `dim`, `0` when
    /// missing — the raw form of [`BitmapIndex::value_index`], directly
    /// comparable with [`ColumnSelection::eq_slot`] for tie detection.
    #[inline]
    pub fn value_slot(&self, local: usize, dim: usize) -> u32 {
        self.val_idx[local * self.dims + dim]
    }

    /// Every object's [`BitmapIndex::value_slot`]s at once: the row-major
    /// `n × dims` table [`BitmapIndex::from_slots`] takes back — what a
    /// snapshot stores of the rows.
    pub fn slot_table(&self) -> &[u32] {
        &self.val_idx
    }

    /// Index size in bits: the paper's **logical** `cost_s =
    /// Σᵢ (Cᵢ + 1) · |S|`. This is the quantity Figs. 11's "index size"
    /// axis plots; the process actually allocates whole 64-bit words per
    /// column — see [`BitmapIndex::allocated_bytes`] for that number.
    pub fn size_bits(&self) -> u64 {
        self.columns
            .iter()
            .map(|cols| cols.len() as u64 * self.n as u64)
            .sum()
    }

    /// The paper's logical size in bytes (`cost_s / 8`, rounded up once at
    /// the end). **Not** the allocation footprint: each column rounds up to
    /// word granularity separately — use [`BitmapIndex::allocated_bytes`]
    /// when accounting for memory.
    pub fn size_bytes(&self) -> u64 {
        self.size_bits().div_ceil(8)
    }

    /// Actual allocated column storage in bytes: every column holds
    /// `ceil(|S| / 64)` 64-bit words regardless of the logical bit count.
    /// Always ≥ [`BitmapIndex::size_bytes`].
    pub fn allocated_bytes(&self) -> u64 {
        let ncols: u64 = self.columns.iter().map(|c| c.len() as u64).sum();
        ncols * (self.n as u64).div_ceil(64) * 8
    }
}

/// Resolved per-dimension column picks (plus equality slots) for one
/// candidate against one [`BitmapIndex`] — produced by
/// [`BitmapIndex::select_for`], consumed by the `*_selected` scoring
/// methods. Plain `Copy` data on the stack: every query scratch keeps one,
/// so candidate scoring allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnSelection {
    /// `[Qᵢ]` column index per dimension (0 = the all-ones missing slot).
    pub(crate) q: [u32; MAX_DIMS],
    /// `[Pᵢ]` column index per dimension.
    pub(crate) p: [u32; MAX_DIMS],
    /// 1-based slot of the candidate's value in the index's distinct-value
    /// table, or 0 when missing / not present in this index.
    pub(crate) eq: [u32; MAX_DIMS],
}

impl Default for ColumnSelection {
    /// The all-missing selection: every pick is the all-ones column 0.
    fn default() -> Self {
        ColumnSelection {
            q: [0; MAX_DIMS],
            p: [0; MAX_DIMS],
            eq: [0; MAX_DIMS],
        }
    }
}

impl ColumnSelection {
    /// 1-based slot of the candidate's value in `dim`'s distinct-value
    /// table (0 = candidate misses `dim` or its value does not occur in
    /// this index). Two observations are equal **iff** their slots are
    /// equal and non-zero, so tie detection against
    /// [`BitmapIndex::value_slot`] is one integer compare.
    #[inline]
    pub fn eq_slot(&self, dim: usize) -> u32 {
        self.eq[dim]
    }

    /// Restrict the selection to the dimensions of `dims`, as if the
    /// candidate missed every other one: those picks become the all-ones
    /// column 0, which the scans and fills skip, and their value slots 0.
    /// How a subspace query reads the projection's `Q`/`P` off the full
    /// index.
    pub fn restrict(&mut self, dims: DimMask) {
        // Branch-free, so the loop vectorizes: `keep` is 1 inside `dims`.
        for d in 0..MAX_DIMS {
            let keep = (dims.bits() >> d) as u32 & 1;
            self.q[d] *= keep;
            self.p[d] *= keep;
            self.eq[d] *= keep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinBoundaries, BinnedBitmapIndex};
    use tkd_model::{dominance, fixtures};

    fn bits_to_string(b: &BitVec) -> String {
        (0..b.len())
            .map(|i| if b.get(i) { '1' } else { '0' })
            .collect()
    }

    #[test]
    fn fig6_q3_of_b3() {
        // §4.3: for B3, [Q3] = 00011001011111111111 (objects in label order
        // A1..A5, B1..B5, C1..C5, D1..D5).
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let b3 = ds.id_by_label("B3").unwrap();
        assert_eq!(bits_to_string(idx.q_column(b3, 2)), "00011001011111111111");
    }

    #[test]
    fn fig6_worked_c2_vectors() {
        // §4.3's worked example for C2 lists all eight [Pi]/[Qi] vectors.
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let c2 = ds.id_by_label("C2").unwrap();
        assert_eq!(bits_to_string(idx.p_column(c2, 0)), "11111111110011110011");
        assert_eq!(bits_to_string(idx.p_column(c2, 1)), "11111111111111111111");
        assert_eq!(bits_to_string(idx.p_column(c2, 2)), "11111111111111111111");
        assert_eq!(bits_to_string(idx.p_column(c2, 3)), "10111101111011111011");
        for dim in 0..4 {
            assert_eq!(
                bits_to_string(idx.q_column(c2, dim)),
                "11111111111111111111",
                "dim {dim}"
            );
        }
        // [P] = ∩ [Pi] with |P| = 14.
        assert_eq!(bits_to_string(&idx.p_vec(c2)), "10111101110011110011");
        assert_eq!(idx.p_vec(c2).count_ones(), 14);
    }

    #[test]
    fn fig8_max_bit_scores() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        for (label, expected) in fixtures::fig8_maxbitscores() {
            let o = ds.id_by_label(label).unwrap();
            assert_eq!(idx.max_bit_score(o), expected, "MaxBitScore({label})");
        }
    }

    #[test]
    fn columns_match_set_semantics() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        for dim in 0..ds.dims() {
            let vals = idx.values(dim);
            for c in 0..idx.num_columns(dim) {
                let col = idx.column(dim, c);
                for p in ds.ids() {
                    let expected = match ds.value(p, dim) {
                        None => true,
                        Some(v) => c == 0 || v > vals[c - 1],
                    };
                    assert_eq!(col.get(p as usize), expected, "dim {dim} col {c} obj {p}");
                }
            }
        }
    }

    #[test]
    fn q_contains_p() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        for o in ds.ids() {
            let mut p = idx.p_vec(o);
            p.clear(o as usize); // o itself is never in Q
            let q = idx.q_vec(o);
            assert!(p.is_subset_of(&q), "P ⊄ Q for object {o}");
        }
    }

    #[test]
    fn max_bit_score_bounds_true_score() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        for o in ds.ids() {
            assert!(dominance::score_of(&ds, o) <= idx.max_bit_score(o));
        }
    }

    #[test]
    fn into_variants_match_clone_and_chain_oracle() {
        // Independent oracle: the pre-scratch clone + and_assign chain over
        // *all* selected columns (no column-0 skip, no block kernels).
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let oracle_q = |o: ObjectId| {
            let mut q = idx.q_column(o, 0).clone();
            for dim in 1..idx.dims() {
                q.and_assign(idx.q_column(o, dim));
            }
            q.clear(o as usize);
            q
        };
        let oracle_p = |o: ObjectId| {
            let mut p = idx.p_column(o, 0).clone();
            for dim in 1..idx.dims() {
                p.and_assign(idx.p_column(o, dim));
            }
            p
        };
        let mut q = BitVec::ones(ds.len());
        let mut p = BitVec::ones(ds.len());
        for o in ds.ids() {
            idx.q_into(o, &mut q);
            assert_eq!(q, oracle_q(o), "q_into object {o}");
            idx.p_into(o, &mut p);
            assert_eq!(p, oracle_p(o), "p_into object {o}");
            assert_eq!(q, idx.q_vec(o), "q_vec routes through q_into");
            assert_eq!(
                idx.max_bit_score(o),
                oracle_q(o).count_ones(),
                "counted MaxBitScore of object {o}"
            );
        }
    }

    /// Rows `[lo, hi)` of `ds` as a dataset of their own — one shard of a
    /// row partition, as a cluster worker holds it.
    fn row_range(ds: &Dataset, lo: usize, hi: usize) -> Dataset {
        let ids: Vec<ObjectId> = (lo as ObjectId..hi as ObjectId).collect();
        ds.select(&ids)
    }

    #[test]
    fn range_builds_partition_the_full_index() {
        // Indexes over a partition of the rows score any candidate by
        // value: their Q/P popcounts sum to the whole-dataset counts, and
        // member selections coincide with the member accessors.
        let ds = fixtures::fig3_sample();
        let full = BitmapIndex::build(&ds);
        for cuts in [vec![0, 20], vec![0, 8, 20], vec![0, 5, 11, 16, 20]] {
            let shards: Vec<(usize, BitmapIndex)> = cuts
                .windows(2)
                .map(|w| (w[0], BitmapIndex::build(&row_range(&ds, w[0], w[1]))))
                .collect();
            for o in ds.ids() {
                let mut q_total = 0;
                let mut p_total = 0;
                for (lo, s) in &shards {
                    let sel = s.select_for(|d| ds.value(o, d));
                    let member = (o as usize).checked_sub(*lo).filter(|&r| r < s.n());
                    let mut q = BitVec::zeros(s.n());
                    let mut p = BitVec::zeros(s.n());
                    s.q_into_selected(&sel, member, &mut q);
                    s.p_into_selected(&sel, &mut p);
                    // Selected columns match the global predicate bit by bit.
                    for local in 0..s.n() {
                        let g = lo + local;
                        assert_eq!(
                            q.get(local),
                            full.q_vec(o).get(g),
                            "Q obj {o} shard from {lo} bit {local}"
                        );
                        assert_eq!(p.get(local), full.p_vec(o).get(g), "P obj {o} bit {local}");
                    }
                    q_total += q.count_ones();
                    p_total += p.count_ones();
                    // The fused count agrees (counts include o's own bit when member).
                    let raw = q.count_ones() + usize::from(member.is_some());
                    assert_eq!(s.q_count_selected_above(&sel, 0).unwrap_or(0), raw);
                }
                assert_eq!(q_total, full.q_vec(o).count_ones(), "obj {o}");
                assert_eq!(p_total, full.p_vec(o).count_ones(), "obj {o}");
            }
        }
    }

    #[test]
    fn selection_eq_slots_detect_exact_ties() {
        let ds = fixtures::fig3_sample();
        let shard = BitmapIndex::build(&row_range(&ds, 7, 15));
        for o in ds.ids() {
            let sel = shard.select_for(|d| ds.value(o, d));
            for local in 0..shard.n() {
                let pid = (7 + local) as ObjectId;
                for d in 0..ds.dims() {
                    let tied = match (ds.value(o, d), ds.value(pid, d)) {
                        (Some(a), Some(b)) => a == b,
                        _ => false,
                    };
                    let slot = shard.value_slot(local, d);
                    assert_eq!(
                        sel.eq_slot(d) != 0 && sel.eq_slot(d) == slot,
                        tied,
                        "o={o} pid={pid} dim={d}"
                    );
                }
            }
        }
    }

    /// The budgeted scan's contract at one `(count, budget)` point: the
    /// exact count when it exceeds the budget, `None` otherwise.
    fn assert_budgeted(got: Option<usize>, exact: usize, budget: usize, ctx: &str) {
        assert_eq!(
            got,
            (exact > budget).then_some(exact),
            "{ctx} budget {budget}"
        );
    }

    /// `n` rows over 4 dimensions. Dimension 0 falls with the row index,
    /// so its high-value columns are dense in the first blocks and empty
    /// after them (the block-by-block exit fires mid-scan); the other
    /// three hold the dynamic tests' tie-heavy random cells.
    fn trending_dataset(n: usize) -> Dataset {
        let mut seed = 29u64;
        let rows: Vec<Vec<Option<f64>>> = (0..n)
            .map(|r| {
                let mut row = random_row(&mut seed, 4);
                row[0] = Some(((n - r) * 40 / n) as f64);
                row
            })
            .collect();
        Dataset::from_rows(4, &rows).unwrap()
    }

    #[test]
    fn budgeted_count_agrees_with_exact() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        for o in ds.ids() {
            let sel = idx.select_for(|d| ds.value(o, d));
            let exact = idx.q_vec(o).count_ones() + 1; // q_vec cleared o's bit
            for budget in [0usize, 1, 5, exact.saturating_sub(1), exact, exact + 3] {
                let ctx = format!("fig3 obj {o}");
                assert_budgeted(
                    idx.q_count_selected_above(&sel, budget),
                    exact,
                    budget,
                    &ctx,
                );
            }
        }

        // Three full 2 048-bit blocks plus a tail, so the scan crosses
        // block boundaries and can exit inside its loop — on the exact
        // index and on the binned one, which runs the same scan.
        let ds = trending_dataset(3 * 2048 + 356);
        let exact_idx = BitmapIndex::build(&ds);
        let binned: Vec<(usize, BinnedBitmapIndex<'_>)> = [1, 3, 21]
            .into_iter()
            .map(|x| (x, BinnedBitmapIndex::build(&ds, &[x; 4])))
            .collect();
        let mut q = BitVec::zeros(ds.len());
        for o in ds.ids().step_by(7) {
            let sel = exact_idx.select_for(|d| ds.value(o, d));
            let exact = exact_idx.q_vec(o).count_ones() + 1;
            for budget in [0, 1, exact - 1, exact, exact + 3] {
                let got = exact_idx.q_count_selected_above(&sel, budget);
                assert_budgeted(got, exact, budget, &format!("exact obj {o}"));
            }
            for (x, idx) in &binned {
                let sel = idx.selection_of(o as usize);
                idx.exact().q_into_selected(&sel, None, &mut q);
                let exact = q.count_ones();
                for budget in [0, 1, exact - 1, exact, exact + 3] {
                    let got = idx.exact().q_count_selected_above(&sel, budget);
                    assert_budgeted(got, exact, budget, &format!("{x} bins obj {o}"));
                }
            }
        }
    }

    /// `admit` and the scoped scans and fills against brute force, on the
    /// multi-block input of `budgeted_count_agrees_with_exact` with every
    /// 13th row tombstoned, over ranges on, between and outside the
    /// stored values (signed zeros, `lo == hi`, an empty interval) — on
    /// the exact index and on the binned one.
    #[test]
    fn admit_and_scoped_scan_agree_with_brute_force() {
        let ds = trending_dataset(3 * 2048 + 356);
        let mut exact_idx = BitmapIndex::build(&ds);
        let bins: Vec<BinBoundaries> = [1, 3, 21]
            .into_iter()
            .map(|x| BinBoundaries::build(&exact_idx, &[x; 4]))
            .collect();
        for o in ds.ids().step_by(13) {
            exact_idx.tombstone_row(o as usize);
        }
        let binned: Vec<BinnedBitmapIndex> = bins
            .iter()
            .map(|b| BinnedBitmapIndex::new(&exact_idx, b))
            .collect();
        let live = |o: ObjectId| !o.is_multiple_of(13);
        let ranges: [&[(usize, f64, f64)]; 6] = [
            &[(0, 10.0, 25.0)],
            &[(1, -0.0, 2.5), (3, 0.0, 0.0)],
            &[(2, 4.0, 1.0)],
            &[(0, 0.25, 39.5), (2, 5.5, 5.5)],
            &[(1, f64::NEG_INFINITY, -1.0)],
            &[
                (0, -3.0, 100.0),
                (1, 1.0, 4.0),
                (2, -0.0, 3.0),
                (3, 2.0, 5.0),
            ],
        ];
        let mut admitted = BitVec::zeros(ds.len());
        let mut q = BitVec::zeros(ds.len());
        let mut p = BitVec::zeros(ds.len());
        for ranges in ranges {
            let admits = |o: ObjectId, &(d, lo, hi): &(usize, f64, f64)| {
                ds.value(o, d).is_none_or(|v| lo <= v && v <= hi)
            };
            let mut bits = exact_idx.live_mask().clone();
            for range @ &(d, lo, hi) in ranges {
                exact_idx.admit(d, lo, hi, &mut admitted);
                let want = ds.ids().filter(|&o| live(o) && admits(o, range));
                let want = BitVec::from_indices(ds.len(), want.map(|o| o as usize));
                assert_eq!(admitted, want, "admit {range:?}");
                bits.and_assign(&admitted);
            }
            let scope = RowScope::new(bits);
            let in_scope = |o: ObjectId| live(o) && ranges.iter().all(|r| admits(o, r));
            assert_eq!(scope.count(), ds.ids().filter(|&o| in_scope(o)).count());
            for o in ds.ids().filter(|&o| live(o)).step_by(7) {
                // Exact index: rows in scope missing or `≥` the candidate
                // on each of its observed dimensions (its own row too).
                let sel = exact_idx.select_for(|d| ds.value(o, d));
                let at_least = |r: ObjectId| {
                    (0..ds.dims()).all(|d| match (ds.value(o, d), ds.value(r, d)) {
                        (Some(a), Some(b)) => b >= a,
                        _ => true,
                    })
                };
                let exact = ds.ids().filter(|&r| in_scope(r) && at_least(r)).count();
                for budget in [0, 1, exact.saturating_sub(1), exact, exact + 3] {
                    let got = exact_idx.q_count_selected_above_scoped(&sel, Some(&scope), budget);
                    assert_budgeted(got, exact, budget, &format!("exact obj {o} {ranges:?}"));
                }
                exact_idx.q_into_selected(&sel, Some(o as usize), &mut q);
                q.and_assign(scope.bits());
                exact_idx.p_into_selected(&sel, &mut p);
                p.and_assign(scope.bits());
                let mut scoped = BitVec::zeros(ds.len());
                exact_idx.q_into_selected_scoped(&sel, Some(o as usize), Some(&scope), &mut scoped);
                assert_eq!(scoped, q, "scoped Q of {o}");
                exact_idx.p_into_selected_scoped(&sel, Some(&scope), &mut scoped);
                assert_eq!(scoped, p, "scoped P of {o}");
                // Binned: the unscoped fill ANDed with the scope.
                for idx in &binned {
                    let sel = idx.selection_of(o as usize);
                    idx.exact().q_into_selected(&sel, None, &mut q);
                    let exact = q.and_count(scope.bits());
                    for budget in [0, 1, exact.saturating_sub(1), exact, exact + 3] {
                        let got =
                            idx.exact()
                                .q_count_selected_above_scoped(&sel, Some(&scope), budget);
                        assert_budgeted(got, exact, budget, &format!("binned obj {o}"));
                    }
                    q.and_assign(scope.bits());
                    idx.exact()
                        .q_into_selected_scoped(&sel, None, Some(&scope), &mut scoped);
                    assert_eq!(scoped, q, "binned scoped Q of {o}");
                }
            }
        }
    }

    /// A subspace query's pieces against brute force: `observing_any` and
    /// the restricted selections, scanned and filled inside the
    /// observed-union scope, on the multi-block input of
    /// `budgeted_count_agrees_with_exact` at its budgets, with every 11th
    /// row tombstoned — on the exact index and on the binned one. One
    /// scope also admits on a dimension outside the subspace.
    #[test]
    fn restricted_selection_agrees_with_brute_force() {
        let ds = trending_dataset(3 * 2048 + 356);
        let mut exact_idx = BitmapIndex::build(&ds);
        let bins: Vec<BinBoundaries> = [1, 3, 21]
            .into_iter()
            .map(|x| BinBoundaries::build(&exact_idx, &[x; 4]))
            .collect();
        for o in ds.ids().step_by(11) {
            exact_idx.tombstone_row(o as usize);
        }
        let binned: Vec<BinnedBitmapIndex> = bins
            .iter()
            .map(|b| BinnedBitmapIndex::new(&exact_idx, b))
            .collect();
        let live = |o: ObjectId| !o.is_multiple_of(11);
        type Case<'a> = (&'a [usize], Option<(usize, f64, f64)>);
        let cases: [Case<'_>; 6] = [
            (&[1], None),
            (&[2, 3], None),
            (&[1, 3], Some((0, 10.0, 25.0))),
            (&[0, 2], None),
            (&[3], Some((3, -0.0, 2.5))),
            (&[0, 1, 2, 3], None),
        ];
        let mut observing = BitVec::zeros(ds.len());
        let mut admitted = BitVec::zeros(ds.len());
        let mut got = BitVec::zeros(ds.len());
        for (dims, range) in cases {
            let mask = DimMask::from_indices(dims.iter().copied());
            exact_idx.observing_any(mask, &mut observing);
            let observes = |o: ObjectId| dims.iter().any(|&d| ds.value(o, d).is_some());
            let want = ds.ids().filter(|&o| live(o) && observes(o));
            let want = BitVec::from_indices(ds.len(), want.map(|o| o as usize));
            assert_eq!(observing, want, "observing_any {dims:?}");
            let mut bits = observing.clone();
            if let Some((d, lo, hi)) = range {
                exact_idx.admit(d, lo, hi, &mut admitted);
                bits.and_assign(&admitted);
            }
            let admits = |o: ObjectId| {
                range.is_none_or(|(d, lo, hi)| ds.value(o, d).is_none_or(|v| lo <= v && v <= hi))
            };
            let in_scope = |o: ObjectId| live(o) && observes(o) && admits(o);
            let scope = RowScope::new(bits);
            assert_eq!(scope.count(), ds.ids().filter(|&o| in_scope(o)).count());
            // Rows in scope whose cell in every dimension of the subspace
            // passes `keep` against the candidate's (missing passes).
            let brute = |keep: &dyn Fn(ObjectId, ObjectId, usize) -> Option<bool>, o: ObjectId| {
                let rows = ds.ids().filter(|&r| {
                    in_scope(r) && dims.iter().all(|&d| keep(o, r, d).unwrap_or(true))
                });
                BitVec::from_indices(ds.len(), rows.map(|r| r as usize))
            };
            for o in ds.ids().filter(|&o| in_scope(o)).step_by(29) {
                let mut sel = exact_idx.selection_of(o as usize);
                sel.restrict(mask);
                for d in (0..ds.dims()).filter(|d| !dims.contains(d)) {
                    assert_eq!(sel.eq_slot(d), 0, "eq slot of {d} outside {dims:?}");
                }
                let cells = |o: ObjectId, r: ObjectId, d: usize| ds.value(o, d).zip(ds.value(r, d));
                let q = brute(&|o, r, d| cells(o, r, d).map(|(a, b)| b >= a), o);
                let exact = q.count_ones();
                for budget in [0, 1, 5, exact.saturating_sub(1), exact, exact + 3] {
                    let count = exact_idx.q_count_selected_above_scoped(&sel, Some(&scope), budget);
                    assert_budgeted(count, exact, budget, &format!("exact obj {o} {dims:?}"));
                }
                exact_idx.q_into_selected_scoped(&sel, None, Some(&scope), &mut got);
                assert_eq!(got, q, "restricted Q of {o} on {dims:?}");
                let p = brute(&|o, r, d| cells(o, r, d).map(|(a, b)| b > a), o);
                exact_idx.p_into_selected_scoped(&sel, Some(&scope), &mut got);
                assert_eq!(got, p, "restricted P of {o} on {dims:?}");
                for idx in &binned {
                    let mut sel = idx.selection_of(o as usize);
                    sel.restrict(mask);
                    let bins =
                        |o: ObjectId, r: ObjectId, d: usize| idx.bin_of(o, d).zip(idx.bin_of(r, d));
                    let q = brute(&|o, r, d| bins(o, r, d).map(|(a, b)| b >= a), o);
                    let exact = q.count_ones();
                    for budget in [0, 1, 5, exact.saturating_sub(1), exact, exact + 3] {
                        let count =
                            idx.exact()
                                .q_count_selected_above_scoped(&sel, Some(&scope), budget);
                        assert_budgeted(count, exact, budget, &format!("binned obj {o} {dims:?}"));
                    }
                    idx.exact()
                        .q_into_selected_scoped(&sel, None, Some(&scope), &mut got);
                    assert_eq!(got, q, "binned restricted Q of {o} on {dims:?}");
                    let p = brute(&|o, r, d| bins(o, r, d).map(|(a, b)| b > a), o);
                    idx.exact()
                        .p_into_selected_scoped(&sel, Some(&scope), &mut got);
                    assert_eq!(got, p, "binned restricted P of {o} on {dims:?}");
                }
            }
        }
    }

    #[test]
    fn negative_zero_shares_positive_zeros_slot() {
        // The sorted column collapses −0.0 into 0.0, so both zeros form
        // one equal-value run and share a slot and a column.
        let ds =
            Dataset::from_rows(1, &[vec![Some(-0.0)], vec![Some(0.0)], vec![Some(1.0)]]).unwrap();
        let idx = BitmapIndex::build(&ds);
        assert_eq!(idx.cardinality(0), 2);
        assert_eq!(idx.value_index(0, 0), idx.value_index(1, 0));
        assert_eq!(idx.value_index(2, 0), Some(2));
        // Both zeros tie; 1.0 beats both: MaxBitScore 2, 2, 0.
        assert_eq!(idx.max_bit_score(0), 2);
        assert_eq!(idx.max_bit_score(1), 2);
        assert_eq!(idx.max_bit_score(2), 0);
    }

    #[test]
    fn allocated_bytes_uses_word_granularity() {
        // Fig. 3: 20 objects -> every column is one 64-bit word.
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let ncols: u64 = (0..4).map(|d| idx.num_columns(d) as u64).sum();
        assert_eq!(idx.allocated_bytes(), ncols * 8);
        assert!(idx.allocated_bytes() >= idx.size_bytes());
    }

    #[test]
    fn size_matches_formula() {
        // Fig. 3 dataset: C = (4, 5, 6, 7) distinct values per dim.
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        assert_eq!(idx.cardinality(0), 4);
        assert_eq!(idx.cardinality(1), 5);
        assert_eq!(idx.cardinality(2), 6);
        assert_eq!(idx.cardinality(3), 7);
        let expected: u64 = [4u64, 5, 6, 7].iter().map(|c| (c + 1) * 20).sum();
        assert_eq!(idx.size_bits(), expected);
        assert_eq!(idx.size_bytes(), expected.div_ceil(8));
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
                        // Mix of integers, halves, and signed zeros.
                        Some(match mix(seed) % 8 {
                            0 => -0.0,
                            1 => 0.0,
                            m => (mix(seed) % 6) as f64 + if m == 2 { 0.5 } else { 0.0 },
                        })
                    }
                })
                .collect();
            if row.iter().any(Option::is_some) {
                return row;
            }
        }
    }

    /// The dynamic index must answer every live candidate exactly like an
    /// index rebuilt from scratch over the live rows: same `Q`/`P`
    /// popcounts and the same budgeted-count decisions — across appends,
    /// tombstones, and cell updates (including signed zeros and
    /// to/from-missing transitions).
    #[test]
    fn dynamic_maintenance_matches_rebuild() {
        let dims = 3;
        let mut seed = 7u64;
        // Slot-indexed live rows (None = tombstoned).
        let mut rows: Vec<Option<Vec<Option<f64>>>> = Vec::new();
        let mut dyn_idx = {
            let ds = Dataset::from_rows(dims, &[]).unwrap();
            BitmapIndex::build(&ds)
        };
        for step in 0..180 {
            let live_slots: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].is_some()).collect();
            match mix(&mut seed) % 10 {
                // Tombstone a live slot.
                0..=2 if !live_slots.is_empty() => {
                    let s = live_slots[mix(&mut seed) as usize % live_slots.len()];
                    assert!(dyn_idx.tombstone_row(s));
                    assert!(!dyn_idx.tombstone_row(s), "double tombstone is a no-op");
                    rows[s] = None;
                }
                // Update one cell of a live slot.
                3..=4 if !live_slots.is_empty() => {
                    let s = live_slots[mix(&mut seed) as usize % live_slots.len()];
                    let d = mix(&mut seed) as usize % dims;
                    let nv = random_row(&mut seed, dims)[d];
                    let row = rows[s].as_mut().unwrap();
                    let mut cand = row.clone();
                    cand[d] = nv;
                    if cand.iter().any(Option::is_some) {
                        dyn_idx.set_cell(s, d, nv);
                        *row = cand;
                    }
                }
                // Append a fresh row.
                _ => {
                    let row = random_row(&mut seed, dims);
                    let local = dyn_idx.append_row(|d| row[d]);
                    assert_eq!(local, rows.len());
                    rows.push(Some(row));
                }
            }
            if step % 9 != 0 && step != 179 {
                continue; // compare every few steps (and at the end)
            }
            // The index derived from the maintained one's stored form is it.
            let (values, slots, live) = export_parts(&dyn_idx);
            let derived = BitmapIndex::from_slots(values, slots, live).unwrap();
            assert_same_index(&derived, &dyn_idx, &format!("step {step}"));
            // Rebuild oracle over the live rows only.
            let live_rows: Vec<Vec<Option<f64>>> = rows.iter().flatten().cloned().collect();
            let oracle = BitmapIndex::build(&Dataset::from_rows(dims, &live_rows).unwrap());
            assert_eq!(dyn_idx.live_count(), live_rows.len());
            assert_eq!(
                dyn_idx.n() - dyn_idx.tombstones().dead_count(),
                live_rows.len()
            );
            let mut q = BitVec::zeros(dyn_idx.n());
            let mut p = BitVec::zeros(dyn_idx.n());
            let mut oq = BitVec::zeros(oracle.n());
            let mut op = BitVec::zeros(oracle.n());
            for row in rows.iter().flatten() {
                let sel = dyn_idx.select_for(|d| row[d]);
                let osel = oracle.select_for(|d| row[d]);
                dyn_idx.q_into_selected(&sel, None, &mut q);
                dyn_idx.p_into_selected(&sel, &mut p);
                oracle.q_into_selected(&osel, None, &mut oq);
                oracle.p_into_selected(&osel, &mut op);
                let (qc, oqc) = (q.count_ones(), oq.count_ones());
                assert_eq!(qc, oqc, "Q count diverged at step {step}");
                assert_eq!(p.count_ones(), op.count_ones(), "P count at {step}");
                // Dead slots never leak into a fill.
                for dead in (0..rows.len()).filter(|&i| rows[i].is_none()) {
                    assert!(!q.get(dead) && !p.get(dead), "dead slot {dead} set");
                }
                for budget in [0, qc.saturating_sub(1), qc, qc + 2] {
                    assert_eq!(
                        dyn_idx.q_count_selected_above(&sel, budget),
                        (qc > budget).then_some(qc),
                        "budgeted count at step {step} budget {budget}"
                    );
                }
            }
            // Member-form scoring agrees with the oracle's member form.
            let mut live_i = 0;
            for (slot, row) in rows.iter().enumerate() {
                let Some(_) = row else { continue };
                let mbs = dyn_idx.max_bit_score(slot as ObjectId);
                let ombs = oracle.max_bit_score(live_i as ObjectId);
                assert_eq!(mbs, ombs, "MaxBitScore at step {step} slot {slot}");
                for tau in [0, mbs.saturating_sub(1), mbs, mbs + 1] {
                    assert_eq!(
                        dyn_idx.max_bit_score_above(slot as ObjectId, tau),
                        oracle.max_bit_score_above(live_i as ObjectId, tau),
                        "H2 decision at step {step} slot {slot} tau {tau}"
                    );
                }
                live_i += 1;
            }
        }
    }

    /// An index's stored form: value tables, row-major value slots, live
    /// mask — what [`BitmapIndex::from_slots`] derives the rest from.
    fn export_parts(idx: &BitmapIndex) -> (Vec<Vec<f64>>, Vec<u32>, Tombstones) {
        let dims = idx.dims();
        let values: Vec<Vec<f64>> = (0..dims).map(|d| idx.values(d).to_vec()).collect();
        let slots: Vec<u32> = (0..idx.n())
            .flat_map(|o| (0..dims).map(move |d| idx.value_slot(o, d)))
            .collect();
        let live = Tombstones::from_live_mask(idx.live_mask().clone());
        (values, slots, live)
    }

    /// `a` and `b` agree on every value table, value slot, column and
    /// live bit.
    fn assert_same_index(a: &BitmapIndex, b: &BitmapIndex, ctx: &str) {
        assert_eq!((a.n(), a.dims()), (b.n(), b.dims()), "{ctx}: shape");
        assert_eq!(a.live_mask(), b.live_mask(), "{ctx}: live mask");
        for d in 0..a.dims() {
            let bits = |idx: &BitmapIndex| -> Vec<u64> {
                idx.values(d).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b), "{ctx}: value table of dim {d}");
            for c in 0..a.num_columns(d) {
                assert_eq!(a.column(d, c), b.column(d, c), "{ctx}: dim {d} col {c}");
            }
            for o in 0..a.n() {
                assert_eq!(a.value_slot(o, d), b.value_slot(o, d), "{ctx}: slot {o}");
            }
        }
    }

    /// The index derived from a maintained index's tables, slots and live
    /// mask is that index, bit for bit: tombstones (a dead row with a
    /// missing cell among them), values left without holders and values
    /// spliced in after the build included — and so are its budgeted
    /// scans, whose suffix tables the derivation recomputes.
    #[test]
    fn store_parts_roundtrip_including_tombstones() {
        let ds = fixtures::fig3_sample();
        let mut idx = BitmapIndex::build(&ds);
        let missing = (0..ds.len())
            .find(|&o| ds.mask(o as ObjectId).count() < 4)
            .expect("fig. 3 has a row with a missing cell");
        idx.tombstone_row(missing);
        idx.tombstone_row(17);
        // A live row's value at dim 0 moves to a new maximum, and a value
        // it alone held stays in the table without holders.
        let mut live_rows = (0..ds.len()).filter(|&o| o != missing && o != 17);
        let (a, b) = (live_rows.next().unwrap(), live_rows.next().unwrap());
        idx.set_cell(a, 0, Some(1e9));
        idx.set_cell(b, 2, Some(-7.5));
        idx.append_row(|d| [Some(-5.0), None, Some(0.5), Some(3.0)][d]);
        let (values, slots, live) = export_parts(&idx);
        let derived = BitmapIndex::from_slots(values, slots, live).unwrap();
        assert_same_index(&derived, &idx, "fig. 3");
        for o in (0..idx.n() as ObjectId).filter(|&o| idx.live_mask().get(o as usize)) {
            let mbs = idx.max_bit_score(o);
            assert_eq!(derived.max_bit_score(o), mbs);
            for tau in [0, mbs.saturating_sub(1), mbs] {
                assert_eq!(
                    derived.max_bit_score_above(o, tau),
                    idx.max_bit_score_above(o, tau),
                    "H2 of {o} at tau {tau}"
                );
            }
        }
    }

    #[test]
    fn store_parts_reject_inconsistencies() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let parts = export_parts(&idx);
        let derive =
            |(v, s, l): (Vec<Vec<f64>>, Vec<u32>, Tombstones)| BitmapIndex::from_slots(v, s, l);
        // Baseline sanity: unmodified parts load.
        assert!(derive(parts.clone()).is_ok());
        // A slot past its dimension's cardinality.
        {
            let (v, mut s, l) = parts.clone();
            s[3] = v[3].len() as u32 + 1;
            let err = derive((v, s, l)).unwrap_err();
            assert!(err.contains("exceeds"), "{err}");
        }
        // A slot table of the wrong length.
        {
            let (v, mut s, l) = parts.clone();
            s.pop();
            assert!(derive((v, s, l)).is_err());
        }
        // Unsorted, NaN and −0.0 value tables.
        for bad in [f64::NAN, -0.0, 1e9] {
            let (mut v, s, l) = parts.clone();
            v[0][0] = bad;
            assert!(derive((v, s, l)).is_err(), "{bad} at the head of dim 0");
        }
        // Live mask length disagrees with the slot table.
        {
            let (v, s, _) = parts.clone();
            assert!(derive((v, s, Tombstones::all_live(idx.n() + 1))).is_err());
        }
        // No dimensions at all.
        {
            let (_, _, l) = parts;
            assert!(BitmapIndex::from_slots(Vec::new(), Vec::new(), l).is_err());
        }
    }

    /// A zero inserted as −0.0 enters a maintained value table as +0.0,
    /// the bits a rebuild's table holds, whether it arrives by an append
    /// or a cell update.
    #[test]
    fn inserted_negative_zero_is_stored_as_positive_zero() {
        let ds = Dataset::from_rows(2, &[vec![Some(1.0), Some(2.0)]]).unwrap();
        let mut idx = BitmapIndex::build(&ds);
        idx.append_row(|d| [Some(-0.0), Some(2.0)][d]);
        idx.set_cell(0, 1, Some(-0.0));
        let rows = [vec![Some(1.0), Some(-0.0)], vec![Some(-0.0), Some(2.0)]];
        let rebuilt = BitmapIndex::build(&Dataset::from_rows(2, &rows).unwrap());
        for d in 0..2 {
            let bits = |idx: &BitmapIndex| -> Vec<u64> {
                idx.values(d).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&idx), bits(&rebuilt), "dim {d}");
            assert_eq!(bits(&idx)[0], 0.0f64.to_bits(), "dim {d}");
        }
    }

    #[test]
    fn append_into_empty_and_delete_everything() {
        let ds = Dataset::from_rows(2, &[]).unwrap();
        let mut idx = BitmapIndex::build(&ds);
        let a = idx.append_row(|d| [Some(1.0), None][d]);
        let b = idx.append_row(|d| [Some(2.0), Some(0.5)][d]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(idx.live_count(), 2);
        // 2.0 ≥-dominates: MaxBitScore(a) counts b, not vice versa.
        assert_eq!(idx.max_bit_score(0), 1);
        assert_eq!(idx.max_bit_score(1), 0);
        assert!(idx.tombstone_row(0));
        assert!(idx.tombstone_row(1));
        assert_eq!(idx.live_count(), 0);
        assert_eq!(idx.tombstones().dead_count(), 2);
        // Rebirth by appending again into the tombstone-saturated index.
        let c = idx.append_row(|_| Some(3.0));
        assert_eq!(c, 2);
        assert_eq!(idx.live_count(), 1);
        assert_eq!(idx.max_bit_score(2), 0);
    }

    #[test]
    fn float_values_supported() {
        // §4.3: "the bitmap index does support floating-point numbers".
        // The fourth object misses dimension 0 entirely (it only observes
        // the padding dimension 1, since all-missing rows are rejected).
        let ds = Dataset::from_rows(
            2,
            &[
                vec![Some(0.5), Some(0.0)],
                vec![Some(1.25), Some(0.0)],
                vec![Some(0.5), Some(0.0)],
                vec![None, Some(0.0)],
            ],
        )
        .unwrap();
        let idx = BitmapIndex::build(&ds);
        assert_eq!(idx.cardinality(0), 2);
        assert_eq!(idx.value_index(0, 0), Some(1));
        assert_eq!(idx.value_index(1, 0), Some(2));
        assert_eq!(idx.value_index(3, 0), None);
        // 0.5 is the minimum, so [Q1] is the all-ones column: everything but
        // the object itself might be dominated.
        assert_eq!(idx.max_bit_score(0), 3); // {1, 2, 3}
                                             // 1.25 is the maximum: only the equal-or-above set {itself} plus the
                                             // missing object remain, minus self.
        assert_eq!(idx.max_bit_score(1), 1); // {3}
    }

    use tkd_model::Dataset;
}
