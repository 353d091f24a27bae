//! Dense, uncompressed bit vectors over 64-bit words.

use core::fmt;

use crate::kernels;

const WORD_BITS: usize = 64;

/// A fixed-length dense bit vector.
///
/// This is the representation of the vertical columns of the paper's bitmap
/// index (Fig. 6): one bit per object, word-wise boolean algebra, hardware
/// population counts. All binary operations require equal lengths.
///
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All-zeros vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// All-ones vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Vector with exactly the given bit indexes set.
    ///
    /// # Panics
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut v = Self::zeros(len);
        for i in indices {
            v.set(i);
        }
        v
    }

    /// Read-only word storage.
    #[inline]
    fn w(&self) -> &[u64] {
        &self.words
    }

    /// Zero out any bits beyond `len` in the last word (invariant: padding
    /// bits are always zero, so `count_ones` is exact).
    #[inline]
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Length in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the length zero?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.w()[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Set bit `i` to one.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Set bit `i` to zero.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Append one bit, growing the length by one — the primitive behind
    /// the dynamic index's appendable columns. Amortized `O(1)`: a new
    /// word is pushed only every 64 appends, and the padding invariant is
    /// preserved.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let len = self.len;
        let words = &mut self.words;
        if len.is_multiple_of(WORD_BITS) {
            words.push(0);
        }
        if bit {
            words[len / WORD_BITS] |= 1u64 << (len % WORD_BITS);
        }
        self.len += 1;
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        kernels::popcount(self.w())
    }

    /// Raw word storage (little-endian bit order within a word).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        self.w()
    }

    /// Reassemble a vector from its raw word storage — the word-level
    /// deserialization entry point of the snapshot loader: a live mask
    /// comes off disk as whole `u64` words and is adopted here by move,
    /// no per-bit decode.
    ///
    /// # Errors
    /// Rejects a word count other than `ceil(len / 64)` and nonzero
    /// padding bits beyond `len` (the canonical-form invariant every
    /// in-memory [`BitVec`] upholds; accepting dirty padding would make
    /// popcounts wrong and snapshots non-canonical).
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<Self, &'static str> {
        if words.len() != len.div_ceil(WORD_BITS) {
            return Err("word count does not match bit length");
        }
        let tail = len % WORD_BITS;
        if tail != 0 {
            let last = *words.last().expect("len > 0 implies a word");
            if last & !((1u64 << tail) - 1) != 0 {
                return Err("nonzero padding bits beyond the bit length");
            }
        }
        Ok(BitVec { words, len })
    }

    /// Mutable raw word storage for in-crate fused writers. Callers must
    /// uphold the padding invariant (bits beyond `len` stay zero) — call
    /// [`BitVec::fix_tail`] after bulk writes.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Re-establish the padding invariant after bulk word writes.
    #[inline]
    pub(crate) fn fix_tail(&mut self) {
        self.mask_tail();
    }

    /// In-place AND.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.w()) {
            *a &= b;
        }
    }

    /// In-place OR.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.w()) {
            *a |= b;
        }
    }

    /// In-place AND-NOT (`self &= !other`, i.e. set difference).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_not_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.w()) {
            *a &= !b;
        }
    }

    /// Set every bit to one (respects the logical length) — no allocation.
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        self.mask_tail();
    }

    /// Set every bit to zero — no allocation.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// In-place complement (respects the logical length).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// `self AND other` as a new vector.
    pub fn and(&self, other: &BitVec) -> BitVec {
        let mut r = self.clone();
        r.and_assign(other);
        r
    }

    /// `self OR other` as a new vector.
    pub fn or(&self, other: &BitVec) -> BitVec {
        let mut r = self.clone();
        r.or_assign(other);
        r
    }

    /// `self AND NOT other` as a new vector.
    pub fn and_not(&self, other: &BitVec) -> BitVec {
        let mut r = self.clone();
        r.and_not_assign(other);
        r
    }

    /// Popcount of `self AND other` without materializing it — routed
    /// through the wide-lane [`kernels`].
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[inline]
    pub fn and_count(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        kernels::and_count(self.w(), other.w())
    }

    /// Popcount of `self AND NOT other` without materializing it — routed
    /// through the wide-lane [`kernels`].
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[inline]
    pub fn and_not_count(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        kernels::and_not_count(self.w(), other.w())
    }

    /// Popcount of the ternary `self AND b AND NOT c` without materializing
    /// any intermediate (one fused pass over the three word arrays) —
    /// routed through the wide-lane [`kernels`].
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[inline]
    pub fn count_and_andnot(&self, b: &BitVec, c: &BitVec) -> usize {
        assert_eq!(self.len, b.len, "length mismatch");
        assert_eq!(self.len, c.len, "length mismatch");
        kernels::count_and_andnot(self.w(), b.w(), c.w())
    }

    /// Overwrite `self` with a word-level copy of `other` — no allocation.
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[inline]
    pub fn copy_from(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.copy_from_slice(other.w());
    }

    /// Fill `scratch` with the intersection of all `cols` — no intermediate
    /// vectors, no allocation. The scratch's previous contents are
    /// overwritten. Internally one vectorizable pass per column (a copy
    /// plus chained ANDs), which the optimizer turns into wide SIMD; a
    /// word-at-a-time gather across columns benchmarks ~2.5× slower.
    ///
    /// # Panics
    /// Panics if `cols` is empty or any length differs from the scratch's.
    pub fn intersect_into(scratch: &mut BitVec, cols: &[&BitVec]) {
        assert!(!cols.is_empty(), "need at least one column");
        scratch.copy_from(cols[0]);
        for c in &cols[1..] {
            scratch.and_assign(c);
        }
    }

    /// Iterate the indexes of bits set in `self AND NOT other`, ascending,
    /// without materializing the difference — the `Q − P` enumeration of
    /// Algorithm 3 straight off caller-owned scratch buffers.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn iter_ones_and_not<'a>(&'a self, other: &'a BitVec) -> AndNotOnes<'a> {
        assert_eq!(self.len, other.len, "length mismatch");
        let a = self.w();
        let b = other.w();
        let current = match (a.first(), b.first()) {
            (Some(&x), Some(&y)) => x & !y,
            _ => 0,
        };
        AndNotOnes {
            a,
            b,
            word_idx: 0,
            current,
        }
    }

    /// Is every set bit of `self` also set in `other`?
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        self.w().iter().zip(other.w()).all(|(a, b)| a & !b == 0)
    }

    /// Iterate over the indexes of set bits, ascending.
    pub fn iter_ones(&self) -> Ones<'_> {
        let words = self.w();
        Ones {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let shown: Vec<usize> = self.iter_ones().take(16).collect();
        write!(f, "{shown:?}")?;
        if self.count_ones() > 16 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

// The bitmap substrate is shared read-only across query workers; these
// compile-time assertions pin the auto-derived thread-safety so a future
// field addition (e.g. an interior-mutability cache) cannot silently take
// the parallel engine down with it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BitVec>();
    assert_send_sync::<crate::Concise>();
    assert_send_sync::<crate::Wah>();
};

/// Iterator over set-bit indexes of a [`BitVec`], ascending.
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Iterator for Ones<'a> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

/// Iterator over set-bit indexes of `a AND NOT b`, ascending, computed
/// word-by-word on the fly (see [`BitVec::iter_ones_and_not`]).
pub struct AndNotOnes<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Iterator for AndNotOnes<'a> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.a.len() {
                return None;
            }
            self.current = self.a[self.word_idx] & !self.b[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.count_ones(), 0);
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.get(69));
        // Padding bits beyond 70 must be zero.
        assert_eq!(o.as_words()[1].count_ones(), 6);
    }

    #[test]
    fn set_get_clear() {
        let mut b = BitVec::zeros(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn boolean_algebra() {
        let a = BitVec::from_indices(100, [1, 5, 64, 99]);
        let b = BitVec::from_indices(100, [5, 64, 70]);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![5, 64]);
        assert_eq!(
            a.or(&b).iter_ones().collect::<Vec<_>>(),
            vec![1, 5, 64, 70, 99]
        );
        assert_eq!(a.and_not(&b).iter_ones().collect::<Vec<_>>(), vec![1, 99]);
        assert_eq!(a.and_count(&b), 2);
    }

    #[test]
    fn not_respects_len() {
        let mut a = BitVec::from_indices(65, [0, 64]);
        a.not_assign();
        assert_eq!(a.count_ones(), 63);
        assert!(!a.get(0));
        assert!(!a.get(64));
        assert!(a.get(1));
    }

    #[test]
    fn subset() {
        let a = BitVec::from_indices(80, [3, 40]);
        let b = BitVec::from_indices(80, [3, 40, 77]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(BitVec::zeros(80).is_subset_of(&a));
    }

    #[test]
    fn iter_ones_across_words() {
        let idx = vec![0, 31, 63, 64, 127, 128, 199];
        let b = BitVec::from_indices(200, idx.clone());
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn iter_ones_empty() {
        assert_eq!(BitVec::zeros(0).iter_ones().count(), 0);
        assert_eq!(BitVec::zeros(100).iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let _ = BitVec::zeros(10).and(&BitVec::zeros(11));
    }

    #[test]
    fn fused_counts_match_materialized() {
        let a = BitVec::from_indices(300, (0..300).step_by(2));
        let b = BitVec::from_indices(300, (0..300).step_by(3));
        let c = BitVec::from_indices(300, (0..300).step_by(5));
        assert_eq!(a.and_not_count(&b), a.and_not(&b).count_ones());
        assert_eq!(
            a.count_and_andnot(&b, &c),
            a.and(&b).and_not(&c).count_ones()
        );
    }

    #[test]
    fn intersect_into_matches_chained_and() {
        let a = BitVec::from_indices(200, (0..200).step_by(2));
        let b = BitVec::from_indices(200, (0..200).step_by(3));
        let c = BitVec::from_indices(200, (0..200).step_by(7));
        let mut scratch = BitVec::ones(200); // stale contents must be overwritten
        BitVec::intersect_into(&mut scratch, &[&a, &b, &c]);
        assert_eq!(scratch, a.and(&b).and(&c));
        BitVec::intersect_into(&mut scratch, &[&a]);
        assert_eq!(scratch, a);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn intersect_into_rejects_empty() {
        BitVec::intersect_into(&mut BitVec::zeros(10), &[]);
    }

    #[test]
    fn copy_from_reuses_storage() {
        let a = BitVec::from_indices(100, [1, 64, 99]);
        let mut dst = BitVec::ones(100);
        dst.copy_from(&a);
        assert_eq!(dst, a);
    }

    #[test]
    fn iter_ones_and_not_matches_materialized() {
        let a = BitVec::from_indices(500, (0..500).step_by(2));
        let b = BitVec::from_indices(500, (0..500).step_by(6));
        let fused: Vec<usize> = a.iter_ones_and_not(&b).collect();
        let materialized: Vec<usize> = a.and_not(&b).iter_ones().collect();
        assert_eq!(fused, materialized);
        assert_eq!(
            BitVec::zeros(0)
                .iter_ones_and_not(&BitVec::zeros(0))
                .count(),
            0
        );
        let z = BitVec::zeros(500);
        assert_eq!(a.iter_ones_and_not(&a).count(), 0);
        assert_eq!(z.iter_ones_and_not(&b).count(), 0);
    }

    #[test]
    fn debug_is_compact() {
        let b = BitVec::from_indices(10, [1, 3]);
        let s = format!("{b:?}");
        assert!(s.contains("[10;"));
        assert!(s.contains("1"));
    }

    #[test]
    fn from_words_roundtrips_and_rejects_bad_forms() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let b = BitVec::from_indices(len, (0..len).step_by(3));
            let rebuilt = BitVec::from_words(b.as_words().to_vec(), len).unwrap();
            assert_eq!(rebuilt, b, "len {len}");
        }
        // Wrong word count.
        assert!(BitVec::from_words(vec![0; 2], 64).is_err());
        assert!(BitVec::from_words(vec![], 1).is_err());
        // Dirty padding beyond len.
        assert!(BitVec::from_words(vec![1u64 << 10], 10).is_err());
        assert!(BitVec::from_words(vec![u64::MAX, u64::MAX], 70).is_err());
    }

    #[test]
    fn push_grows_across_word_boundaries() {
        let mut b = BitVec::zeros(0);
        let pattern = |i: usize| i.is_multiple_of(3) || i == 64 || i == 127;
        for i in 0..200 {
            b.push(pattern(i));
            assert_eq!(b.len(), i + 1);
            assert_eq!(b.get(i), pattern(i), "bit {i}");
        }
        assert_eq!(b.count_ones(), (0..200).filter(|&i| pattern(i)).count());
        // Padding invariant survives: word count is exact and ops work.
        assert_eq!(b.as_words().len(), 200usize.div_ceil(64));
        let mut c = BitVec::ones(200);
        c.and_assign(&b);
        assert_eq!(c, b);
        // Pushing onto a non-empty fixed-size vector also works.
        let mut d = BitVec::ones(64);
        d.push(false);
        d.push(true);
        assert_eq!(d.len(), 66);
        assert!(!d.get(64));
        assert!(d.get(65));
        assert_eq!(d.count_ones(), 65);
    }
}
