//! Compressed storage of index columns (the "vertical" compression of §4.4).

use crate::{BinnedBitmapIndex, BitmapIndex};
use tkd_bitvec::{BitVec, CompressedBitmap};

/// The vertical columns of a bitmap index, compressed with a
/// [`CompressedBitmap`] codec (WAH or CONCISE).
///
/// This is the storage layout of IBIG's static contexts: a candidate that
/// survives Heuristic 2 has its `Q`/`P` filled from these columns
/// ([`CompressedColumns::and_selected_into`]). `MaxBitScore` is never
/// computed here — Heuristic 2 scans the binned index's dense words
/// ([`BinnedBitmapIndex::q_count_selected_above`]).
#[derive(Clone, Debug)]
pub struct CompressedColumns<C> {
    n: usize,
    columns: Vec<Vec<C>>,
}

impl<C: CompressedBitmap> CompressedColumns<C> {
    /// Compress every column of a range-encoded index.
    pub fn from_bitmap(idx: &BitmapIndex) -> Self {
        let columns = (0..idx.dims())
            .map(|d| {
                (0..idx.num_columns(d))
                    .map(|c| C::compress(idx.column(d, c)))
                    .collect()
            })
            .collect();
        CompressedColumns {
            n: idx.n(),
            columns,
        }
    }

    /// Compress every column of a binned index.
    pub fn from_binned(idx: &BinnedBitmapIndex) -> Self {
        let columns = (0..idx.dims())
            .map(|d| {
                (0..idx.num_columns(d))
                    .map(|c| C::compress(idx.column(d, c)))
                    .collect()
            })
            .collect();
        CompressedColumns {
            n: idx.n(),
            columns,
        }
    }

    /// Number of objects covered by each column.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.columns.len()
    }

    /// Number of columns of `dim`.
    pub fn num_columns(&self, dim: usize) -> usize {
        self.columns[dim].len()
    }

    /// Compressed column `c` of `dim`.
    pub fn column(&self, dim: usize, c: usize) -> &C {
        &self.columns[dim][c]
    }

    /// AND together one selected column per dimension (e.g. the `[Qᵢ]`
    /// selections of an object), entirely on the compressed form.
    ///
    /// # Panics
    /// Panics if `picks` is empty or any index is out of range.
    pub fn and_selected(&self, picks: &[(usize, usize)]) -> C {
        assert!(!picks.is_empty(), "need at least one column");
        let (d0, c0) = picks[0];
        let mut acc = self.columns[d0][c0].clone();
        for &(d, c) in &picks[1..] {
            acc = acc.and(&self.columns[d][c]);
        }
        acc
    }

    /// AND together one selected column per dimension directly into a
    /// caller-owned dense scratch buffer — the zero-allocation IBIG query
    /// path. The first column is decompressed into `dst` (overwriting it);
    /// every further column is ANDed in straight off its run stream, so no
    /// compressed intermediate is ever materialized.
    ///
    /// # Panics
    /// Panics if `picks` is empty, any index is out of range, or
    /// `dst.len() != self.n()`.
    pub fn and_selected_into(
        &self,
        picks: impl IntoIterator<Item = (usize, usize)>,
        dst: &mut BitVec,
    ) {
        let mut picks = picks.into_iter();
        let (d0, c0) = picks.next().expect("need at least one column");
        self.columns[d0][c0].decompress_into(dst);
        for (d, c) in picks {
            self.columns[d][c].and_dense(dst);
        }
    }

    /// Total compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns
            .iter()
            .flat_map(|cols| cols.iter())
            .map(|c| c.size_bytes())
            .sum()
    }

    /// Size the same columns would occupy uncompressed.
    pub fn dense_size_bytes(&self) -> usize {
        let per_col = self.n.div_ceil(8);
        let ncols: usize = self.columns.iter().map(|c| c.len()).sum();
        per_col * ncols
    }

    /// Whole-index compression ratio (compressed / dense; may exceed 1).
    pub fn compression_ratio(&self) -> f64 {
        let dense = self.dense_size_bytes();
        if dense == 0 {
            return 1.0;
        }
        self.size_bytes() as f64 / dense as f64
    }

    /// Decompress one column (tests / fallback paths).
    pub fn decompress_column(&self, dim: usize, c: usize) -> BitVec {
        self.columns[dim][c].decompress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_bitvec::{Concise, Wah};
    use tkd_model::fixtures;

    #[test]
    fn roundtrips_every_column() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let cc: CompressedColumns<Concise> = CompressedColumns::from_bitmap(&idx);
        let cw: CompressedColumns<Wah> = CompressedColumns::from_bitmap(&idx);
        for dim in 0..idx.dims() {
            assert_eq!(cc.num_columns(dim), idx.num_columns(dim));
            for c in 0..idx.num_columns(dim) {
                assert_eq!(&cc.decompress_column(dim, c), idx.column(dim, c));
                assert_eq!(&cw.decompress_column(dim, c), idx.column(dim, c));
            }
        }
    }

    #[test]
    fn and_selected_matches_dense_q() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let cc: CompressedColumns<Concise> = CompressedColumns::from_bitmap(&ds_index_picks(&idx));
        for o in ds.ids() {
            let picks: Vec<(usize, usize)> = (0..idx.dims())
                .map(|d| {
                    let c = idx.value_index(o, d).map(|j| (j - 1) as usize).unwrap_or(0);
                    (d, c)
                })
                .collect();
            let mut q = cc.and_selected(&picks).decompress();
            q.clear(o as usize);
            assert_eq!(q, idx.q_vec(o), "object {o}");
        }
    }

    // Helper keeping the test body readable: compression happens from the
    // same index.
    fn ds_index_picks(idx: &BitmapIndex) -> BitmapIndex {
        idx.clone()
    }

    #[test]
    fn binned_columns_compress() {
        let ds = fixtures::fig3_sample();
        let idx = BinnedBitmapIndex::build(&ds, &[2, 2, 3, 3]);
        let cc: CompressedColumns<Concise> = CompressedColumns::from_binned(&idx);
        assert_eq!(cc.n(), 20);
        assert_eq!(cc.dims(), 4);
        assert!(cc.size_bytes() > 0);
        for dim in 0..4 {
            for c in 0..idx.num_columns(dim) {
                assert_eq!(&cc.decompress_column(dim, c), idx.column(dim, c));
            }
        }
    }

    #[test]
    fn and_selected_into_matches_compressed_chain() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let cc: CompressedColumns<Concise> = CompressedColumns::from_bitmap(&idx);
        let cw: CompressedColumns<Wah> = CompressedColumns::from_bitmap(&idx);
        let mut dst = BitVec::ones(idx.n());
        for o in ds.ids() {
            let picks: Vec<(usize, usize)> = (0..idx.dims())
                .map(|d| {
                    let c = idx.value_index(o, d).map(|j| (j - 1) as usize).unwrap_or(0);
                    (d, c)
                })
                .collect();
            let reference = cc.and_selected(&picks).decompress();
            cc.and_selected_into(picks.iter().copied(), &mut dst);
            assert_eq!(dst, reference, "concise object {o}");
            cw.and_selected_into(picks.iter().copied(), &mut dst);
            assert_eq!(dst, reference, "wah object {o}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn and_selected_into_rejects_empty() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let cc: CompressedColumns<Concise> = CompressedColumns::from_bitmap(&idx);
        cc.and_selected_into(std::iter::empty(), &mut BitVec::zeros(idx.n()));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn and_selected_rejects_empty() {
        let ds = fixtures::fig3_sample();
        let idx = BitmapIndex::build(&ds);
        let cc: CompressedColumns<Wah> = CompressedColumns::from_bitmap(&idx);
        let _ = cc.and_selected(&[]);
    }
}
