//! WAH — the Word-Aligned Hybrid compressed bitmap (Wu, Otoo, Shoshani,
//! SSDBM 2002), one of the two codecs the paper evaluates for IBIG (Fig. 10).
//!
//! 32-bit word layout:
//!
//! * **literal** — bit 31 = 0, bits 0..30 hold one 31-bit block verbatim;
//! * **fill** — bit 31 = 1, bit 30 = fill bit, bits 0..29 count the number
//!   of consecutive all-zero / all-one 31-bit blocks.

use crate::runs::{
    blocks_of, count_ones_runs, decompress_runs_into, runs_from_blocks, Run, BLOCK_MASK,
};
use crate::{BitVec, CompressedBitmap};

const FILL_FLAG: u32 = 1 << 31;
const FILL_BIT: u32 = 1 << 30;
const MAX_FILL_BLOCKS: u64 = (1 << 30) - 1;

/// A WAH-compressed bitmap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wah {
    words: Vec<u32>,
    len: usize,
}

impl Wah {
    /// Build from a run sequence (must cover `ceil(len / 31)` blocks).
    fn from_runs(runs: impl IntoIterator<Item = Run>, len: usize) -> Self {
        let mut words = Vec::new();
        for run in runs {
            match run {
                Run::Literal(x) => words.push(x & BLOCK_MASK),
                Run::Fill { ones, mut blocks } => {
                    while blocks > 0 {
                        let chunk = blocks.min(MAX_FILL_BLOCKS);
                        let mut w = FILL_FLAG | chunk as u32;
                        if ones {
                            w |= FILL_BIT;
                        }
                        words.push(w);
                        blocks -= chunk;
                    }
                }
            }
        }
        Wah { words, len }
    }

    /// Iterate the runs encoded in this bitmap.
    pub fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        self.words.iter().map(|&w| {
            if w & FILL_FLAG != 0 {
                Run::Fill {
                    ones: w & FILL_BIT != 0,
                    blocks: (w & !(FILL_FLAG | FILL_BIT)) as u64,
                }
            } else {
                Run::Literal(w & BLOCK_MASK)
            }
        })
    }
}

impl CompressedBitmap for Wah {
    fn compress(bits: &BitVec) -> Self {
        Wah::from_runs(runs_from_blocks(&blocks_of(bits)), bits.len())
    }

    fn decompress(&self) -> BitVec {
        let mut dst = BitVec::zeros(self.len);
        decompress_runs_into(self.runs(), &mut dst);
        dst
    }

    fn len(&self) -> usize {
        self.len
    }

    fn words(&self) -> usize {
        self.words.len()
    }

    fn count_ones(&self) -> usize {
        count_ones_runs(self.runs(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::BLOCK_BITS;

    fn patterned(len: usize, step: usize) -> BitVec {
        BitVec::from_indices(len, (0..len).step_by(step))
    }

    #[test]
    fn roundtrip_patterns() {
        for len in [0, 1, 30, 31, 32, 62, 100, 1000] {
            for step in [1, 2, 31, 63] {
                let b = patterned(len, step.max(1));
                let w = Wah::compress(&b);
                assert_eq!(w.decompress(), b, "len={len} step={step}");
                assert_eq!(w.count_ones(), b.count_ones(), "len={len} step={step}");
            }
        }
    }

    #[test]
    fn all_ones_compresses_to_one_word() {
        let b = BitVec::ones(31 * 1000);
        let w = Wah::compress(&b);
        assert_eq!(w.words(), 1);
        assert_eq!(w.count_ones(), 31 * 1000);
    }

    #[test]
    fn all_zeros_compresses_to_one_word() {
        let b = BitVec::zeros(31 * 1000);
        let w = Wah::compress(&b);
        assert_eq!(w.words(), 1);
        assert_eq!(w.count_ones(), 0);
    }

    #[test]
    fn incompressible_data_ratio_above_one() {
        // Alternating bits: every block is a literal; 32 bits spent per 31
        // bits of payload -> ratio > 1 (the paper's NBA observation).
        let b = patterned(31 * 64, 2);
        let w = Wah::compress(&b);
        assert!(w.compression_ratio() > 1.0);
    }

    #[test]
    fn fill_chunking_survives_giant_runs() {
        // Directly exercise the chunking path with a synthetic run longer
        // than one fill word can hold.
        let blocks = MAX_FILL_BLOCKS + 5;
        let w = Wah::from_runs(
            vec![Run::Fill { ones: true, blocks }],
            blocks as usize * BLOCK_BITS,
        );
        assert_eq!(w.words(), 2);
        assert_eq!(w.count_ones(), blocks as usize * BLOCK_BITS);
    }
}
