//! Dimension masks: which dimensions of an object are observed.

use core::fmt;

/// Maximum number of dimensions supported by the model.
///
/// Masks are a single machine word. The paper's widest dataset (MovieLens)
/// has 60 dimensions, so 64 is comfortably sufficient while keeping the
/// comparability test (`bo & bo' ≠ 0`) a single AND instruction.
pub const MAX_DIMS: usize = 64;

/// A set of observed dimensions, the paper's bit vector `bo`.
///
/// Bit `i` is set iff dimension `i` is observed. The paper's *comparability*
/// test between two objects is [`DimMask::intersects`], and the number of
/// commonly observed dimensions (`|bp & bo|` in Algorithm 3) is
/// `a.and(b).count()`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DimMask(u64);

impl DimMask {
    /// The empty mask (no dimension observed).
    pub const EMPTY: DimMask = DimMask(0);

    /// Mask with the lowest `dims` dimensions all observed.
    ///
    /// # Panics
    /// Panics if `dims > MAX_DIMS`.
    #[inline]
    pub fn all(dims: usize) -> Self {
        assert!(dims <= MAX_DIMS, "at most {MAX_DIMS} dimensions supported");
        if dims == MAX_DIMS {
            DimMask(u64::MAX)
        } else {
            DimMask((1u64 << dims) - 1)
        }
    }

    /// Build a mask from raw bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        DimMask(bits)
    }

    /// Raw bits of the mask.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Build a mask from a list of observed dimension indexes.
    ///
    /// # Panics
    /// Panics if any index is `>= MAX_DIMS`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut bits = 0u64;
        for i in iter {
            assert!(i < MAX_DIMS, "dimension index {i} out of range");
            bits |= 1u64 << i;
        }
        DimMask(bits)
    }

    /// Is dimension `i` observed?
    #[inline]
    pub const fn observed(self, i: usize) -> bool {
        i < MAX_DIMS && (self.0 >> i) & 1 == 1
    }

    /// Mark dimension `i` observed.
    ///
    /// # Panics
    /// Panics if `i >= MAX_DIMS`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < MAX_DIMS, "dimension index {i} out of range");
        self.0 |= 1u64 << i;
    }

    /// Mark dimension `i` missing (the inverse of [`DimMask::set`], used by
    /// dynamic value updates that clear a cell).
    ///
    /// # Panics
    /// Panics if `i >= MAX_DIMS`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        assert!(i < MAX_DIMS, "dimension index {i} out of range");
        self.0 &= !(1u64 << i);
    }

    /// Number of observed dimensions.
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Is no dimension observed?
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Intersection of two masks: the commonly observed dimensions.
    #[inline]
    pub const fn and(self, other: DimMask) -> DimMask {
        DimMask(self.0 & other.0)
    }

    /// Union of two masks.
    #[inline]
    pub const fn or(self, other: DimMask) -> DimMask {
        DimMask(self.0 | other.0)
    }

    /// The paper's comparability test: do the objects share at least one
    /// observed dimension (`bo & bo' ≠ 0`)?
    #[inline]
    pub const fn intersects(self, other: DimMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Is `self` a subset of `other` (every dimension observed by `self` is
    /// also observed by `other`)?
    #[inline]
    pub const fn is_subset_of(self, other: DimMask) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterate over the observed dimension indexes in ascending order.
    #[inline]
    pub fn iter(self) -> DimIter {
        DimIter(self.0)
    }
}

impl fmt::Debug for DimMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DimMask({:#b})", self.0)
    }
}

impl IntoIterator for DimMask {
    type Item = usize;
    type IntoIter = DimIter;
    fn into_iter(self) -> DimIter {
        self.iter()
    }
}

/// Iterator over the set bits of a [`DimMask`], lowest dimension first.
#[derive(Clone, Debug)]
pub struct DimIter(u64);

impl Iterator for DimIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1; // clear lowest set bit
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DimIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sets_low_bits() {
        assert_eq!(DimMask::all(0).bits(), 0);
        assert_eq!(DimMask::all(3).bits(), 0b111);
        assert_eq!(DimMask::all(64).bits(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at most 64 dimensions")]
    fn all_rejects_too_many_dims() {
        let _ = DimMask::all(65);
    }

    #[test]
    fn from_indices_roundtrip() {
        let m = DimMask::from_indices([0, 2, 5]);
        assert!(m.observed(0));
        assert!(!m.observed(1));
        assert!(m.observed(2));
        assert!(m.observed(5));
        assert_eq!(m.count(), 3);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 2, 5]);
    }

    #[test]
    fn observed_out_of_range_is_false() {
        assert!(!DimMask::from_bits(u64::MAX).observed(64));
        assert!(!DimMask::from_bits(u64::MAX).observed(usize::MAX));
    }

    #[test]
    fn intersects_matches_paper_comparability() {
        // Fig. 2: c = (5, -) has mask 0b01, e = (-, 4) has mask 0b10. They
        // share no observed dimension, so they are incomparable.
        let c = DimMask::from_indices([0]);
        let e = DimMask::from_indices([1]);
        assert!(!c.intersects(e));
        let f = DimMask::from_indices([0, 1]);
        assert!(c.intersects(f));
        assert!(e.intersects(f));
    }

    #[test]
    fn subset_relation() {
        let small = DimMask::from_indices([1, 3]);
        let big = DimMask::from_indices([0, 1, 3]);
        assert!(small.is_subset_of(big));
        assert!(!big.is_subset_of(small));
        assert!(small.is_subset_of(small));
        assert!(DimMask::EMPTY.is_subset_of(small));
    }

    #[test]
    fn set_and_empty() {
        let mut m = DimMask::EMPTY;
        assert!(m.is_empty());
        m.set(7);
        assert!(!m.is_empty());
        assert!(m.observed(7));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn iter_is_exact_size() {
        let m = DimMask::from_indices([0, 10, 63]);
        let it = m.iter();
        assert_eq!(it.len(), 3);
        assert_eq!(it.collect::<Vec<_>>(), vec![0, 10, 63]);
    }

    #[test]
    fn and_or_bits() {
        let a = DimMask::from_bits(0b1100);
        let b = DimMask::from_bits(0b1010);
        assert_eq!(a.and(b).bits(), 0b1000);
        assert_eq!(a.or(b).bits(), 0b1110);
    }
}
