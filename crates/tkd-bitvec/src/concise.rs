//! CONCISE — Compressed 'n' Composable Integer Set (Colantonio & Di Pietro,
//! Information Processing Letters 110(16), 2010). The codec the paper
//! selects for IBIG, because its *mixed fill* words ("fill plus one flipped
//! bit") compress slightly better than WAH at comparable speed (§4.4,
//! Fig. 10).
//!
//! 32-bit word layout:
//!
//! * **literal** — bit 31 = 1, bits 0..30 hold one 31-bit block verbatim;
//! * **fill** — bit 31 = 0, bit 30 = fill bit, bits 25..29 hold a 5-bit
//!   *position*: 0 means a pure fill; `p > 0` means the **first** block of
//!   the run has bit `p − 1` flipped relative to the fill bit. Bits 0..24
//!   hold `n`, the number of blocks in the run **minus one**.

use crate::runs::{
    blocks_of, count_ones_runs, decompress_runs_into, runs_from_blocks, Run, BLOCK_MASK,
};
use crate::{BitVec, CompressedBitmap};

const LIT_FLAG: u32 = 1 << 31;
const FILL_BIT: u32 = 1 << 30;
const POS_SHIFT: u32 = 25;
const POS_MASK: u32 = 0b1_1111 << POS_SHIFT;
const CNT_MASK: u32 = (1 << 25) - 1;
/// Maximum blocks a single fill word can represent (`n + 1` blocks).
const MAX_FILL_BLOCKS: u64 = 1 << 25;

/// A CONCISE-compressed bitmap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Concise {
    words: Vec<u32>,
    len: usize,
}

impl Concise {
    /// Emit fill words covering `blocks` pure-fill blocks.
    fn emit_fill(words: &mut Vec<u32>, ones: bool, mut blocks: u64) {
        while blocks > 0 {
            let chunk = blocks.min(MAX_FILL_BLOCKS);
            let mut w = (chunk - 1) as u32 & CNT_MASK;
            if ones {
                w |= FILL_BIT;
            }
            words.push(w);
            blocks -= chunk;
        }
    }

    /// Emit a mixed fill: `total` blocks whose first block has bit
    /// `pos − 1` flipped, followed by pure fill.
    fn emit_mixed_fill(words: &mut Vec<u32>, ones: bool, pos: u32, total: u64) {
        debug_assert!((1..=31).contains(&pos));
        let chunk = total.min(MAX_FILL_BLOCKS);
        let mut w = (chunk - 1) as u32 & CNT_MASK;
        w |= pos << POS_SHIFT;
        if ones {
            w |= FILL_BIT;
        }
        words.push(w);
        if total > chunk {
            Self::emit_fill(words, ones, total - chunk);
        }
    }

    /// Build from a canonical run sequence, applying the mixed-fill
    /// optimization on `Literal` + `Fill` adjacencies.
    fn from_runs(runs: &[Run], len: usize) -> Self {
        let mut words = Vec::new();
        let mut i = 0;
        while i < runs.len() {
            match runs[i] {
                Run::Fill { ones, blocks } => {
                    Self::emit_fill(&mut words, ones, blocks);
                    i += 1;
                }
                Run::Literal(x) => {
                    if let Some(&Run::Fill { ones, blocks }) = runs.get(i + 1) {
                        // Does the literal equal the upcoming fill pattern
                        // with exactly one bit flipped?
                        let diff = if ones { (!x) & BLOCK_MASK } else { x };
                        if diff.count_ones() == 1 {
                            let pos = diff.trailing_zeros() + 1;
                            Self::emit_mixed_fill(&mut words, ones, pos, blocks + 1);
                            i += 2;
                            continue;
                        }
                    }
                    words.push(LIT_FLAG | (x & BLOCK_MASK));
                    i += 1;
                }
            }
        }
        Concise { words, len }
    }

    /// Iterate the runs encoded in this bitmap (mixed fills decompose into a
    /// literal followed by a pure fill).
    pub fn runs(&self) -> ConciseRuns<'_> {
        ConciseRuns {
            words: &self.words,
            idx: 0,
            pending: None,
        }
    }
}

/// Run iterator over a [`Concise`] bitmap.
pub struct ConciseRuns<'a> {
    words: &'a [u32],
    idx: usize,
    pending: Option<Run>,
}

impl<'a> Iterator for ConciseRuns<'a> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        if let Some(r) = self.pending.take() {
            return Some(r);
        }
        let w = *self.words.get(self.idx)?;
        self.idx += 1;
        if w & LIT_FLAG != 0 {
            return Some(Run::Literal(w & BLOCK_MASK));
        }
        let ones = w & FILL_BIT != 0;
        let pos = (w & POS_MASK) >> POS_SHIFT;
        let blocks = (w & CNT_MASK) as u64 + 1;
        if pos == 0 {
            return Some(Run::Fill { ones, blocks });
        }
        // Mixed fill: first block has bit pos-1 flipped.
        let pattern = if ones { BLOCK_MASK } else { 0 };
        let first = pattern ^ (1 << (pos - 1));
        if blocks > 1 {
            self.pending = Some(Run::Fill {
                ones,
                blocks: blocks - 1,
            });
        }
        Some(Run::Literal(first))
    }
}

impl CompressedBitmap for Concise {
    fn compress(bits: &BitVec) -> Self {
        Concise::from_runs(&runs_from_blocks(&blocks_of(bits)), bits.len())
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
    use crate::Wah;

    fn patterned(len: usize, step: usize) -> BitVec {
        BitVec::from_indices(len, (0..len).step_by(step))
    }

    #[test]
    fn roundtrip_patterns() {
        for len in [0, 1, 30, 31, 32, 62, 100, 1000] {
            for step in [1, 2, 31, 63] {
                let b = patterned(len, step.max(1));
                let c = Concise::compress(&b);
                assert_eq!(c.decompress(), b, "len={len} step={step}");
                assert_eq!(c.count_ones(), b.count_ones(), "len={len} step={step}");
            }
        }
    }

    #[test]
    fn mixed_fill_beats_wah_on_sparse_sets() {
        // A single set bit every 31*k bits: CONCISE packs (literal + fill)
        // pairs into single mixed-fill words; WAH cannot.
        let mut b = BitVec::zeros(31 * 1000);
        for i in (0..31 * 1000).step_by(31 * 100) {
            b.set(i);
        }
        let c = Concise::compress(&b);
        let w = Wah::compress(&b);
        assert!(
            c.words() < w.words(),
            "CONCISE {} vs WAH {}",
            c.words(),
            w.words()
        );
        assert_eq!(c.decompress(), b);
    }

    #[test]
    fn mixed_fill_one_runs() {
        // All ones except one cleared bit per long run.
        let mut b = BitVec::ones(31 * 300);
        b.clear(0);
        b.clear(31 * 100 + 5);
        let c = Concise::compress(&b);
        assert_eq!(c.decompress(), b);
        assert_eq!(c.count_ones(), 31 * 300 - 2);
        let w = Wah::compress(&b);
        assert!(c.words() <= w.words());
    }

    #[test]
    fn all_ones_single_word() {
        let b = BitVec::ones(31 * 500);
        let c = Concise::compress(&b);
        assert_eq!(c.words(), 1);
        assert_eq!(c.count_ones(), 31 * 500);
    }

    #[test]
    fn mixed_fill_word_is_exactly_one_word() {
        // literal(single bit) + zero fill => one mixed word.
        let mut b = BitVec::zeros(31 * 10);
        b.set(4);
        let c = Concise::compress(&b);
        assert_eq!(c.words(), 1);
        let runs: Vec<Run> = c.runs().collect();
        assert_eq!(runs[0], Run::Literal(1 << 4));
        assert_eq!(
            runs[1],
            Run::Fill {
                ones: false,
                blocks: 9
            }
        );
    }

    #[test]
    fn giant_mixed_fill_chunks() {
        let total = MAX_FILL_BLOCKS + 3;
        let mut words = Vec::new();
        Concise::emit_mixed_fill(&mut words, false, 3, total);
        let c = Concise {
            words,
            len: total as usize * BLOCK_BITS,
        };
        assert_eq!(c.count_ones(), 1);
        assert_eq!(c.words(), 2);
    }

    #[test]
    fn wah_and_concise_agree() {
        for step in [2, 7, 31, 100] {
            let b = patterned(31 * 64 + 17, step);
            let c = Concise::compress(&b);
            let w = Wah::compress(&b);
            assert_eq!(c.decompress(), w.decompress());
            assert_eq!(c.count_ones(), w.count_ones());
        }
    }
}
