//! Compressed storage of index columns (the "vertical" compression of §4.4).

use crate::{BinnedBitmapIndex, BitmapIndex};
use tkd_bitvec::{BitVec, CompressedBitmap};

/// The vertical columns of a bitmap index, compressed with a
/// [`CompressedBitmap`] codec (WAH or CONCISE).
///
/// This is the paper's §4.4 storage layout for IBIG, kept to be
/// **measured**: its build time, size and ratio are what Fig. 10,
/// Table 3 and Fig. 11 report. No query reads it — IBIG scores off the
/// binned index's dense columns.
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

    /// Decompress one column (what the round-trip checks compare).
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
}
