//! Pairwise Heuristic 2 tables: the joint popcount of every pair of
//! dimensions' columns on a coarse grid, an `O(1)` upper bound on a
//! budgeted scan's count.
//!
//! Per dimension `i` a grid of boundary columns `0 = b₀ < b₁ < …` is
//! picked at quantiles of the column popcounts: boundary `t` is the first
//! column holding at most `L − t·(L − |last column|)/cells` rows (`L` the
//! live count), so each cell spans about an equal share of the observed
//! rows. Per pair of dimensions `i < j` the tables hold
//! `T[a][b] = |column(i, b_a) ∧ column(j, b_b)|` for the non-zero
//! boundaries, each one [`tkd_bitvec::kernels::and_count`] over the
//! columns — no row is visited.
//!
//! **Soundness.** Range-encoded columns are nested: `column(i, c) ⊆
//! column(i, c')` whenever `c' ≤ c`. A pick `c` rounds down to the
//! largest boundary `b_a ≤ c`, a superset column, so for any picks
//! `|∩ₖ column(k, cₖ)| ≤ |column(i, c_i) ∧ column(j, c_j)| ≤ T[a][b]` —
//! with equality in the second step at boundary picks. A scope only
//! removes rows, so the unscoped tables bound a scoped count too. When
//! some pair's entry is `≤ budget` the count is, and the budgeted scan
//! would have answered `None`: [`PairTables::prunes`] returns that
//! answer without reading a column word.
//!
//! The tables are derived from the columns alone and are either absent or
//! exact: a build or load derives them, any in-place maintenance of the
//! index drops them, and [`crate::BitmapIndex::derive_pair_tables`] puts
//! them back. The measurement memo (`crate::memo`) follows the same rule
//! and goes before them for a member row at its own exact or binned
//! picks: a row whose prune a table or the scan has already proven at
//! this budget or a lower one is not looked up again.
//!
//! A holder of rows without an index — the cluster coordinator — derives
//! the same tables from row histograms instead
//! ([`PairTables::from_row_histograms`]): per dimension a grid of value
//! thresholds, per pair of dimensions the count of rows in each pair of
//! grid cells, a missing cell in the top one. A 2-D suffix sum of a
//! histogram is the joint count of two "at or above the threshold, or
//! missing" row sets — the columns' bound, with the boundary columns
//! `1, 2, …` naming the thresholds. The lookup is the one above.

use tkd_bitvec::BitVec;
use tkd_model::MAX_DIMS;

/// Grid cells per dimension (boundary `b₀ = 0` included) — fewer at high
/// dimensionality for an index, see [`cells_for`].
const CELLS: usize = 8;

/// The cell count of an index with `dims` dimensions and `columns`
/// columns in all: [`CELLS`], shrunk until the build's
/// `pairs · (cells − 1)²` column passes stay within two passes per
/// column of the index — the order of what laying the columns down and
/// counting their suffix tables costs.
fn cells_for(dims: usize, columns: usize) -> usize {
    let pairs = dims * dims.saturating_sub(1) / 2;
    let mut cells = CELLS;
    while cells > 1 && pairs * (cells - 1) * (cells - 1) > 2 * columns {
        cells -= 1;
    }
    cells
}

/// Joint popcounts of every pair of dimensions' columns at each
/// dimension's grid boundaries (see the module docs), in one flat
/// allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairTables {
    dims: usize,
    /// Non-zero boundaries per dimension (`cells − 1`), the row stride of
    /// every table.
    stride: usize,
    /// Two runs, back to back:
    /// - `dims × stride` ascending boundary columns `b₁, b₂, …`, padded
    ///   with `u32::MAX` where a dimension has fewer columns than cells;
    /// - per pair `i < j` in lexicographic order, a `stride × stride`
    ///   table whose entry `(a − 1)·stride + (b − 1)` is
    ///   `|column(i, b_a) ∧ column(j, b_b)|`.
    data: Vec<u32>,
}

impl PairTables {
    /// The most grid cells per dimension, boundary 0 included.
    pub const CELLS: usize = CELLS;

    /// An empty buffer large enough for the tables of any index with
    /// `dims` dimensions. A build takes it before laying down any column:
    /// allocated after the columns, the tables raised a cold build's peak
    /// resident set by ~6 % (heap placement, not their 7 KB).
    pub(crate) fn buffer(dims: usize) -> Vec<u32> {
        let (s, pairs) = (CELLS - 1, dims * dims.saturating_sub(1) / 2);
        Vec::with_capacity(dims * s + pairs * s * s)
    }

    /// Derive the tables of an index into `data` (cleared first) from its
    /// columns and their suffix-popcount tables (entry 0 of each is the
    /// column's popcount); `live` is the live count. `None` when the
    /// index has fewer than two dimensions.
    pub(crate) fn derive(
        columns: &[Vec<BitVec>],
        suffixes: &[Vec<Vec<u32>>],
        live: usize,
        mut data: Vec<u32>,
    ) -> Option<Self> {
        let dims = columns.len();
        let total: usize = columns.iter().map(Vec::len).sum();
        let cells = cells_for(dims, total);
        if dims < 2 || cells < 2 {
            return None;
        }
        let stride = cells - 1;
        let pairs = dims * (dims - 1) / 2;
        data.clear();
        data.resize(dims * stride, u32::MAX);
        data.resize(dims * stride + pairs * stride * stride, 0);
        let (bounds, counts) = data.split_at_mut(dims * stride);
        for (d, suf) in suffixes.iter().enumerate() {
            let pop = |c: usize| suf[c][0] as usize;
            let last = suf.len() - 1;
            if last == 0 {
                continue;
            }
            let lo = pop(last);
            let (mut c, mut a) = (1, 0);
            for t in 1..cells {
                let target = live - (live - lo) * t / cells;
                while pop(c) > target {
                    c += 1;
                }
                if a == 0 || bounds[d * stride + a - 1] < c as u32 {
                    bounds[d * stride + a] = c as u32;
                    a += 1;
                }
            }
        }
        let mut at = 0;
        for i in 0..dims {
            for j in i + 1..dims {
                for a in 0..stride {
                    for b in 0..stride {
                        let (ca, cb) = (bounds[i * stride + a], bounds[j * stride + b]);
                        if ca != u32::MAX && cb != u32::MAX {
                            let (x, y) = (&columns[i][ca as usize], &columns[j][cb as usize]);
                            counts[at] = x.and_count(y) as u32;
                        }
                        at += 1;
                    }
                }
            }
        }
        // Fewer cells than `buffer` allows for leave its tail unused.
        data.shrink_to_fit();
        Some(PairTables { dims, stride, data })
    }

    /// The tables of a row grid. Dimension `d` has `grid[d] < CELLS`
    /// thresholds, so its rows fall in cells `0..=grid[d]` (the number of
    /// thresholds at or below the value) and its missing cells in cell
    /// `CELLS − 1`. `hist` holds, per pair `i < j` in lexicographic order,
    /// `CELLS × CELLS` row counts, entry `a·CELLS + b` the rows in cell `a`
    /// of `i` and cell `b` of `j`. Boundary column `t` of the tables is
    /// threshold `t`, so a row's pick in `d` is its cell there (0 for a
    /// missing cell, which takes no part). `None` below two dimensions.
    pub fn from_row_histograms(grid: &[usize], hist: &[u32]) -> Option<Self> {
        let dims = grid.len();
        if dims < 2 {
            return None;
        }
        let (stride, pairs) = (CELLS - 1, dims * (dims - 1) / 2);
        assert_eq!(hist.len(), pairs * CELLS * CELLS, "one histogram per pair");
        let mut data = vec![u32::MAX; dims * stride];
        for (d, &thresholds) in grid.iter().enumerate() {
            assert!(thresholds < CELLS, "at most CELLS - 1 thresholds");
            for (a, b) in data[d * stride..][..thresholds].iter_mut().enumerate() {
                *b = a as u32 + 1;
            }
        }
        for h in hist.chunks_exact(CELLS * CELLS) {
            // `below[b]`: rows in cells `≥ a` of `i` and `≥ b` of `j`.
            let mut below = [0u32; CELLS];
            let at = data.len();
            data.resize(at + stride * stride, 0);
            for a in (1..CELLS).rev() {
                let mut right = 0;
                for b in (1..CELLS).rev() {
                    right += h[a * CELLS + b];
                    below[b] += right;
                    data[at + (a - 1) * stride + b - 1] = below[b];
                }
            }
        }
        Some(PairTables { dims, stride, data })
    }

    /// Grid cells per dimension, boundary 0 included.
    pub fn cells(&self) -> usize {
        self.stride + 1
    }

    /// The non-zero boundary columns of `dim`, ascending (boundary 0 is
    /// implied).
    pub fn boundaries(&self, dim: usize) -> &[u32] {
        let row = self.bounds(dim);
        &row[..row.partition_point(|&b| b != u32::MAX)]
    }

    /// The padded boundary row of `dim`.
    #[inline]
    fn bounds(&self, dim: usize) -> &[u32] {
        &self.data[dim * self.stride..(dim + 1) * self.stride]
    }

    /// The grid cell pick `c` of `dim` rounds down to: the number of
    /// non-zero boundaries at or below it (0 = boundary 0).
    #[inline]
    fn cell(&self, dim: usize, c: u32) -> usize {
        self.bounds(dim).iter().filter(|&&b| b <= c).count()
    }

    /// Offset of the table of pair `(i, j)`, `i < j`.
    #[inline]
    fn table(&self, i: usize, j: usize) -> usize {
        let pair = i * (2 * self.dims - i - 1) / 2 + j - i - 1;
        self.dims * self.stride + pair * self.stride * self.stride
    }

    /// The bound the tables give for `|column(i, ci) ∧ column(j, cj)|`,
    /// `i ≠ j`: the joint count of the boundary columns the picks round
    /// down to — equal to it when both picks are boundaries. `None` when
    /// a pick rounds down to boundary 0, which the tables leave out.
    pub fn bound(&self, i: usize, ci: u32, j: usize, cj: u32) -> Option<usize> {
        assert!(i != j && i.max(j) < self.dims, "two distinct dimensions");
        let ((i, a), (j, b)) = if i < j {
            ((i, self.cell(i, ci)), (j, self.cell(j, cj)))
        } else {
            ((j, self.cell(j, cj)), (i, self.cell(i, ci)))
        };
        (a > 0 && b > 0)
            .then(|| self.data[self.table(i, j) + (a - 1) * self.stride + b - 1] as usize)
    }

    /// Whether some pair of `picks`' dimensions bounds their
    /// intersection's count by `budget` — then the budgeted scan answers
    /// `None`. Picks rounding down to boundary 0 take no part: the
    /// scan's own upfront test on the sparsest column covers them.
    #[inline]
    pub fn prunes(&self, picks: &[u32], budget: usize) -> bool {
        let mut dim = [0usize; MAX_DIMS];
        let mut cell = [0usize; MAX_DIMS];
        let mut m = 0;
        for (d, &c) in picks.iter().enumerate() {
            let a = self.cell(d, c);
            if a > 0 {
                dim[m] = d;
                cell[m] = a - 1;
                m += 1;
            }
        }
        let s = self.stride;
        for x in 0..m.saturating_sub(1) {
            let (i, a) = (dim[x], cell[x]);
            let row = &self.data[self.table(i, i + 1) + a * s..];
            for y in x + 1..m {
                let (j, b) = (dim[y], cell[y]);
                if row[(j - i - 1) * s * s + b] as usize <= budget {
                    return true;
                }
            }
        }
        false
    }
}
