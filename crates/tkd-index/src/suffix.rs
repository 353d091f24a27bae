//! Per-block suffix popcounts and the budgeted AND-count they power — the
//! Heuristic 2 scan that both bitmap indexes run.
//!
//! Every column of [`crate::BitmapIndex`] and [`crate::BinnedBitmapIndex`]
//! keeps a suffix table: entry `b` is the popcount of the column's words
//! from block `b` on (blocks of [`SUFFIX_BLOCK_WORDS`] words), and the
//! last entry is 0, so entry 0 is the column's popcount. The tables are
//! recomputed at build and load ([`suffix_counts`]), never persisted, and
//! kept exact under dynamic maintenance by [`col_push`], [`col_clear`] and
//! [`col_set`].

use tkd_bitvec::BitVec;
use tkd_model::MAX_DIMS;

/// Words per block of the suffix-popcount tables (2048 bits per block).
const SUFFIX_BLOCK_WORDS: usize = 32;

/// Popcount of the AND of `words` over `[start, end)`, staged through a
/// stack block buffer so each column is one vectorizable pass (a
/// word-at-a-time gather across columns defeats SIMD and benchmarks
/// ~2.5× slower).
#[inline]
fn block_and_count(words: &[&[u64]], start: usize, end: usize) -> usize {
    let mut buf = [0u64; SUFFIX_BLOCK_WORDS];
    let blen = end - start;
    buf[..blen].copy_from_slice(&words[0][start..end]);
    for col in &words[1..] {
        for (b, s) in buf[..blen].iter_mut().zip(&col[start..end]) {
            *b &= s;
        }
    }
    tkd_bitvec::kernels::popcount(&buf[..blen])
}

/// Append one bit to a column, keeping its suffix table exact. Amortized
/// `O(1)` for a zero bit, `O(nblocks)` for a one (every block prefix
/// gains the bit).
pub(crate) fn col_push(col: &mut BitVec, suf: &mut Vec<u32>, bit: bool) {
    col.push(bit);
    let nblocks = col.as_words().len().div_ceil(SUFFIX_BLOCK_WORDS);
    // A fresh block's count and the trailing sentinel are both 0.
    while suf.len() < nblocks + 1 {
        suf.push(0);
    }
    if bit {
        for s in &mut suf[..nblocks] {
            *s += 1;
        }
    }
}

/// Clear one bit of a column, keeping its suffix table exact. No-op when
/// the bit is already zero.
pub(crate) fn col_clear(col: &mut BitVec, suf: &mut [u32], pos: usize) {
    if col.get(pos) {
        col.clear(pos);
        let b0 = pos / 64 / SUFFIX_BLOCK_WORDS;
        for s in &mut suf[..=b0] {
            *s -= 1;
        }
    }
}

/// Set one bit of a column, keeping its suffix table exact. No-op when the
/// bit is already one.
pub(crate) fn col_set(col: &mut BitVec, suf: &mut [u32], pos: usize) {
    if !col.get(pos) {
        col.set(pos);
        let b0 = pos / 64 / SUFFIX_BLOCK_WORDS;
        for s in &mut suf[..=b0] {
            *s += 1;
        }
    }
}

/// The suffix table of a column: entry `b` is the popcount of words
/// `b·B..`, entry `nblocks` is 0.
pub(crate) fn suffix_counts(col: &BitVec) -> Vec<u32> {
    let words = col.as_words();
    let nblocks = words.len().div_ceil(SUFFIX_BLOCK_WORDS);
    let mut suf = vec![0u32; nblocks + 1];
    for b in (0..nblocks).rev() {
        let start = b * SUFFIX_BLOCK_WORDS;
        let end = ((b + 1) * SUFFIX_BLOCK_WORDS).min(words.len());
        let cnt = tkd_bitvec::kernels::popcount(&words[start..end]) as u32;
        suf[b] = suf[b + 1] + cnt;
    }
    suf
}

/// A row mask that the scoped scans and fills of both indexes AND in as
/// one more operand — a constrained query's admitted live rows. Its
/// block-suffix popcount table is computed once, at construction (one
/// popcount per block), so the budgeted scan exits on it like on any
/// column. A scope must hold live rows only: the scoped scans answer an
/// all-column-0 selection with its popcount.
#[derive(Clone, Debug)]
pub struct RowScope {
    bits: BitVec,
    suffix: Vec<u32>,
}

impl RowScope {
    /// Scope to the rows set in `bits` (live rows of the index it is
    /// used with, one bit per slot).
    pub fn new(bits: BitVec) -> Self {
        let suffix = suffix_counts(&bits);
        RowScope { bits, suffix }
    }

    /// The rows in scope, one bit per slot.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// How many rows are in scope.
    pub fn count(&self) -> usize {
        self.suffix[0] as usize
    }
}

/// [`count_above`] over one picked column per dimension
/// (`columns[d][picks[d]]`, suffix tables alongside), plus the scope's
/// rows as one more operand when there is a scope. Column-0 picks are
/// skipped: every column of an index is a subset of its dimension's
/// column 0, so column 0 is the intersection's identity. When nothing
/// is left the count is the scope's, or with no scope `all_column_0` —
/// the index's live count.
#[inline]
pub(crate) fn count_selected_above(
    columns: &[Vec<BitVec>],
    suffixes: &[Vec<Vec<u32>>],
    picks: &[u32],
    all_column_0: usize,
    scope: Option<&RowScope>,
    budget: usize,
) -> Option<usize> {
    let mut words: [&[u64]; MAX_DIMS + 1] = [&[]; MAX_DIMS + 1];
    let mut suffix: [&[u32]; MAX_DIMS + 1] = [&[]; MAX_DIMS + 1];
    let mut m = 0;
    for (dim, &c) in picks.iter().enumerate() {
        let c = c as usize;
        if c > 0 {
            words[m] = columns[dim][c].as_words();
            suffix[m] = &suffixes[dim][c];
            m += 1;
        }
    }
    if let Some(scope) = scope {
        words[m] = scope.bits.as_words();
        suffix[m] = &scope.suffix;
        m += 1;
    }
    if m == 0 {
        return (all_column_0 > budget).then_some(all_column_0);
    }
    count_above(&words[..m], &suffix[..m], budget)
}

/// `|∩ words|` with a *budget* early exit — the one Heuristic 2 scan.
/// Returns `None` as soon as the count is provably `≤ budget`: upfront when
/// the sparsest column already fits, then block by block as soon as the
/// bits counted so far plus the sparsest column's remaining suffix
/// popcount can no longer exceed `budget`. Else the exact count (once the
/// count passes `budget` the scan runs to the end). Nothing is written.
///
/// At `budget = 0` this is the exact count, `None` meaning 0.
///
/// `words` holds at least one column, all of one length, each with its
/// [`suffix_counts`] table in `suffixes`.
fn count_above(words: &[&[u64]], suffixes: &[&[u32]], budget: usize) -> Option<usize> {
    let min_suffix = |block: usize| suffixes.iter().map(|s| s[block] as usize).min().unwrap();
    if min_suffix(0) <= budget {
        return None;
    }
    let nwords = words[0].len();
    let mut total = 0usize;
    let mut block = 0usize;
    let mut w = 0usize;
    while w < nwords {
        let end = (w + SUFFIX_BLOCK_WORDS).min(nwords);
        total += block_and_count(words, w, end);
        w = end;
        block += 1;
        if total > budget {
            // Keep decided: finish the scan for the exact count.
            while w < nwords {
                let end = (w + SUFFIX_BLOCK_WORDS).min(nwords);
                total += block_and_count(words, w, end);
                w = end;
            }
            return Some(total);
        }
        if total + min_suffix(block) <= budget {
            return None;
        }
    }
    (total > budget).then_some(total)
}
