//! Shared run-level machinery for the compressed codecs.
//!
//! Both WAH and CONCISE segment a bit vector into **31-bit blocks** and
//! represent maximal runs of all-zero / all-one blocks as *fill* words and
//! everything else as *literal* words. This module provides the common
//! block segmentation, the run-level popcount and the word-level
//! decompression that both codecs reuse — the codecs then only differ in
//! their 32-bit word encodings.

use crate::BitVec;

/// Number of payload bits per compressed block (both codecs use 31, leaving
/// one bit of each 32-bit word as a tag).
pub const BLOCK_BITS: usize = 31;

/// Mask of a full 31-bit block.
pub const BLOCK_MASK: u32 = (1 << BLOCK_BITS) - 1;

/// A maximal homogeneous piece of a bit vector, in block units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Run {
    /// `blocks` consecutive blocks that are all-zero (`ones = false`) or
    /// all-one (`ones = true`).
    Fill {
        /// Fill bit value.
        ones: bool,
        /// Number of consecutive 31-bit blocks, `>= 1`.
        blocks: u64,
    },
    /// One block with mixed content (the 31 payload bits, low-aligned).
    Literal(u32),
}

/// Split a dense bit vector into 31-bit blocks, low bits first. The final
/// block is zero-padded.
pub fn blocks_of(bits: &BitVec) -> Vec<u32> {
    let nblocks = bits.len().div_ceil(BLOCK_BITS);
    let words = bits.as_words();
    let mut out = Vec::with_capacity(nblocks);
    for b in 0..nblocks {
        let start = b * BLOCK_BITS;
        let w = start / 64;
        let off = start % 64;
        let mut v = (words[w] >> off) as u128;
        if off + BLOCK_BITS > 64 && w + 1 < words.len() {
            v |= (words[w + 1] as u128) << (64 - off);
        }
        out.push((v as u32) & BLOCK_MASK);
    }
    out
}

/// Reassemble a dense bit vector of logical length `len` from 31-bit blocks
/// (test oracle for the word-level [`decompress_runs_into`]).
///
/// # Panics
/// Panics if the blocks cover fewer bits than `len`.
#[cfg(test)]
pub fn bits_from_blocks(blocks: &[u32], len: usize) -> BitVec {
    assert!(
        blocks.len() * BLOCK_BITS >= len,
        "not enough blocks for {len} bits"
    );
    let mut out = BitVec::zeros(len);
    for (b, &blk) in blocks.iter().enumerate() {
        let mut v = blk;
        while v != 0 {
            let bit = v.trailing_zeros() as usize;
            v &= v - 1;
            let idx = b * BLOCK_BITS + bit;
            if idx < len {
                out.set(idx);
            }
        }
    }
    out
}

/// Turn a block sequence into maximal runs.
pub fn runs_from_blocks(blocks: &[u32]) -> Vec<Run> {
    let mut out: Vec<Run> = Vec::new();
    for &blk in blocks {
        let this = match blk {
            0 => Run::Fill {
                ones: false,
                blocks: 1,
            },
            BLOCK_MASK => Run::Fill {
                ones: true,
                blocks: 1,
            },
            other => Run::Literal(other),
        };
        match (out.last_mut(), this) {
            (Some(Run::Fill { ones: a, blocks: n }), Run::Fill { ones: b, blocks: 1 })
                if *a == b =>
            {
                *n += 1
            }
            (_, run) => out.push(run),
        }
    }
    out
}

/// Set bits `[start, end)` in a word array.
fn set_bit_range(words: &mut [u64], start: usize, end: usize) {
    if start >= end {
        return;
    }
    let (sw, sb) = (start / 64, start % 64);
    let (ew, eb) = (end / 64, end % 64);
    if sw == ew {
        words[sw] |= ((1u64 << (eb - sb)) - 1) << sb;
    } else {
        words[sw] |= !0u64 << sb;
        for w in words.iter_mut().take(ew).skip(sw + 1) {
            *w = !0;
        }
        if eb > 0 {
            words[ew] |= (1u64 << eb) - 1;
        }
    }
}

/// Decompress a run stream into a caller-owned dense buffer, entirely at
/// word level. `dst`'s previous contents are overwritten; runs beyond
/// `dst.len()` (final-block padding) are clipped.
pub fn decompress_runs_into(runs: impl Iterator<Item = Run>, dst: &mut BitVec) {
    let len = dst.len();
    let words = dst.words_mut();
    words.fill(0);
    let total_bits = words.len() * 64;
    let mut bit = 0usize;
    for run in runs {
        match run {
            Run::Fill { ones, blocks } => {
                let nbits = blocks as usize * BLOCK_BITS;
                if ones {
                    set_bit_range(words, bit.min(total_bits), (bit + nbits).min(total_bits));
                }
                bit += nbits;
            }
            Run::Literal(x) => {
                if bit < total_bits {
                    let w = bit / 64;
                    let off = bit % 64;
                    words[w] |= (x as u64) << off;
                    if off + BLOCK_BITS > 64 && w + 1 < words.len() {
                        words[w + 1] |= (x as u64) >> (64 - off);
                    }
                }
                bit += BLOCK_BITS;
            }
        }
    }
    debug_assert!(bit >= len, "run stream covers only {bit} of {len} bits");
    dst.fix_tail();
}

/// Popcount of a run stream, with the final block's padding excluded
/// (`len` is the logical bit length).
pub fn count_ones_runs<I: Iterator<Item = Run>>(runs: I, len: usize) -> usize {
    let mut total: usize = 0;
    let mut bit_pos: usize = 0;
    for run in runs {
        match run {
            Run::Fill { ones, blocks } => {
                let nbits = blocks as usize * BLOCK_BITS;
                if ones {
                    // Clip the final fill to the logical length.
                    let end = (bit_pos + nbits).min(len);
                    total += end.saturating_sub(bit_pos);
                }
                bit_pos += nbits;
            }
            Run::Literal(x) => {
                total += x.count_ones() as usize;
                bit_pos += BLOCK_BITS;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(bits: &BitVec) -> Vec<Run> {
        runs_from_blocks(&blocks_of(bits))
    }

    #[test]
    fn blocks_roundtrip() {
        let mut b = BitVec::zeros(100);
        for i in [0, 30, 31, 61, 62, 63, 64, 99] {
            b.set(i);
        }
        let blocks = blocks_of(&b);
        assert_eq!(blocks.len(), 4); // ceil(100/31)
        assert_eq!(bits_from_blocks(&blocks, 100), b);
    }

    #[test]
    fn blocks_of_ones_are_full() {
        let b = BitVec::ones(62);
        let blocks = blocks_of(&b);
        assert_eq!(blocks, vec![BLOCK_MASK, BLOCK_MASK]);
    }

    #[test]
    fn runs_merge_adjacent_fills() {
        let b = BitVec::zeros(31 * 5);
        let runs = rt(&b);
        assert_eq!(
            runs,
            vec![Run::Fill {
                ones: false,
                blocks: 5
            }]
        );
        let b = BitVec::ones(31 * 3);
        assert_eq!(
            rt(&b),
            vec![Run::Fill {
                ones: true,
                blocks: 3
            }]
        );
    }

    #[test]
    fn runs_literal_between_fills() {
        let mut b = BitVec::zeros(31 * 3);
        b.set(31 + 4); // middle block mixed
        let runs = rt(&b);
        assert_eq!(
            runs,
            vec![
                Run::Fill {
                    ones: false,
                    blocks: 1
                },
                Run::Literal(1 << 4),
                Run::Fill {
                    ones: false,
                    blocks: 1
                },
            ]
        );
    }

    #[test]
    fn count_ones_clips_padding() {
        // 40 bits of ones: blocks = [ones, literal(9 ones)] but runs_from_
        // blocks sees the second block as literal; count must be exactly 40.
        let b = BitVec::ones(40);
        assert_eq!(count_ones_runs(rt(&b).into_iter(), 40), 40);
        // All-ones multiple of 31 with padding beyond len: force fill run
        // longer than len.
        let runs = vec![Run::Fill {
            ones: true,
            blocks: 2,
        }];
        assert_eq!(count_ones_runs(runs.into_iter(), 40), 40);
    }

    #[test]
    fn decompress_into_matches_bits_from_blocks() {
        for len in [0usize, 1, 31, 40, 62, 64, 93, 100, 200, 500] {
            let mut b = BitVec::zeros(len);
            for i in (0..len).step_by(3) {
                b.set(i);
            }
            let mut dst = BitVec::ones(len); // stale contents
            decompress_runs_into(rt(&b).into_iter(), &mut dst);
            assert_eq!(dst, b, "len {len}");
        }
        // Long fills (both polarities) spanning many words.
        let ones = BitVec::ones(400);
        let mut dst = BitVec::zeros(400);
        decompress_runs_into(rt(&ones).into_iter(), &mut dst);
        assert_eq!(dst, ones);
    }
}
