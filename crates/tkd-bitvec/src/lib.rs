//! Bitmap substrate for the TKD reproduction: a dense 64-bit-word bit
//! vector plus the two compressed bitmap codecs evaluated in the paper,
//! **WAH** (Word-Aligned Hybrid, Wu et al., SSDBM 2002) and **CONCISE**
//! (Colantonio & Di Pietro, IPL 2010).
//!
//! The vertical bit-vectors of the paper's bitmap index (`[Qi]`, `[Pi]` in
//! §4.3) are [`BitVec`]s, and every query intersects them in that dense
//! form with the [`kernels`]. The paper's IBIG (§4.4) stores them
//! compressed and intersects `Q = ∩ Qi` / `P = ∩ Pi` on the compressed
//! form; here that layout is **measured, not executed**: the codecs behind
//! the [`CompressedBitmap`] trait compress, decompress and count, which is
//! what the evaluation's compression time, ratio and size figures need.
//!
//! # Example
//!
//! ```
//! use tkd_bitvec::{BitVec, Concise, Wah, CompressedBitmap};
//!
//! let mut a = BitVec::zeros(100);
//! a.set(3); a.set(64); a.set(99);
//! let c = Concise::compress(&a);
//! let w = Wah::compress(&a);
//! assert_eq!(c.decompress(), a);
//! assert_eq!(w.decompress(), a);
//! assert_eq!(c.count_ones(), 3);
//! ```

#![warn(missing_docs)]

mod concise;
mod dense;
mod hash;
pub mod kernels;
mod runs;
mod tombstones;
mod wah;

pub use concise::Concise;
pub use dense::{AndNotOnes, BitVec, Ones};
pub use hash::fnv64;
pub use runs::{Run, BLOCK_BITS};
pub use tombstones::Tombstones;
pub use wah::Wah;

/// Common interface of the compressed bitmap codecs (WAH and CONCISE).
///
/// All codecs compress the same logical object — a fixed-length bit vector —
/// into a sequence of 32-bit words, and count its set bits without
/// decompressing.
pub trait CompressedBitmap: Sized + Clone {
    /// Compress a dense bit vector.
    fn compress(bits: &BitVec) -> Self;

    /// Decompress back to a dense bit vector.
    fn decompress(&self) -> BitVec;

    /// Logical length in bits.
    fn len(&self) -> usize;

    /// Is the logical length zero?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of 32-bit words of compressed payload.
    fn words(&self) -> usize;

    /// Compressed size in bytes.
    fn size_bytes(&self) -> usize {
        self.words() * 4
    }

    /// Number of set bits (computed on the compressed form).
    fn count_ones(&self) -> usize;

    /// Compression ratio: compressed bytes over dense bytes (`> 1` means the
    /// "compressed" form is larger, which the paper observes for NBA).
    fn compression_ratio(&self) -> f64 {
        let dense_bytes = self.len().div_ceil(8);
        if dense_bytes == 0 {
            return 1.0;
        }
        self.size_bytes() as f64 / dense_bytes as f64
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn sample() -> BitVec {
        let mut b = BitVec::zeros(200);
        for i in (0..200).step_by(7) {
            b.set(i);
        }
        b
    }

    #[test]
    fn ratio_uses_dense_baseline() {
        let b = sample();
        let c = Concise::compress(&b);
        let dense_bytes = 200usize.div_ceil(8);
        assert!((c.compression_ratio() - c.size_bytes() as f64 / dense_bytes as f64).abs() < 1e-12);
    }

    #[test]
    fn empty_bitmaps() {
        let b = BitVec::zeros(0);
        let c = Concise::compress(&b);
        let w = Wah::compress(&b);
        assert!(c.is_empty());
        assert!(w.is_empty());
        assert_eq!(c.count_ones(), 0);
        assert_eq!(w.count_ones(), 0);
        assert_eq!(c.compression_ratio(), 1.0);
    }
}
