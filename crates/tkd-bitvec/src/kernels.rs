//! Wide-lane popcount kernels — the single choke point for every fused
//! word-array count in the engine.
//!
//! The paper's bitmap algorithms (BIG/IBIG) are popcount-bound: scratch
//! fills, the Heuristic-2 early exit (`MaxBitScore`), tombstone repair and
//! the suffix-table rebuild all reduce to "AND a few word arrays, count the
//! ones". Routing them through this module means one implementation choice
//! accelerates every caller.
//!
//! Three tiers, selected once per process:
//!
//! 1. **AVX-512 VPOPCNTDQ** (x86-64, runtime-detected): eight 64-bit lanes
//!    per instruction via the stable `std::arch` intrinsics.
//! 2. **AVX2** (x86-64, runtime-detected): four lanes using the
//!    Muła nibble-LUT popcount (`pshufb` + `psadbw`).
//! 3. **Portable fallback**: an equal-length-reborrowed zip loop. This is
//!    deliberately *not* hand-unrolled: measurements show LLVM already
//!    auto-vectorizes this shape into SWAR lanes (SSE2/NEON), and manual
//!    chunks-of-4/8 accumulator unrolls defeat the vectorizer and run
//!    ~0.75–0.9× as fast.
//!
//! The [`scalar`] submodule keeps the naive reference loops: they are the
//! parity oracle for tests and the baseline the kernel microbenches (and
//! the `--exp compare` regression gate) measure the wide lanes against.

/// Naive single-word reference loops.
///
/// These are *specified behavior*: the wide-lane kernels must return
/// bit-identical counts. Benches compare against these, and the CI
/// regression gate fails if the dispatched kernels stop beating them.
pub mod scalar {
    /// Popcount of `words`.
    pub fn popcount(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Popcount of `a & b` over the common prefix.
    pub fn and_count(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// Popcount of `a & !b` over the common prefix.
    pub fn and_not_count(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x & !y).count_ones() as usize)
            .sum()
    }

    /// Popcount of the ternary `a & b & !c` over the common prefix.
    pub fn count_and_andnot(a: &[u64], b: &[u64], c: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .zip(c)
            .map(|((&x, &y), &z)| (x & y & !z).count_ones() as usize)
            .sum()
    }
}

/// Portable fallback: reborrow to equal length so LLVM elides bounds
/// checks and auto-vectorizes the loop body into SWAR lanes.
mod fallback {
    pub fn popcount(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn and_count(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut s = 0usize;
        for i in 0..n {
            s += (a[i] & b[i]).count_ones() as usize;
        }
        s
    }

    pub fn and_not_count(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut s = 0usize;
        for i in 0..n {
            s += (a[i] & !b[i]).count_ones() as usize;
        }
        s
    }

    pub fn count_and_andnot(a: &[u64], b: &[u64], c: &[u64]) -> usize {
        let n = a.len().min(b.len()).min(c.len());
        let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
        let mut s = 0usize;
        for i in 0..n {
            s += (a[i] & b[i] & !c[i]).count_ones() as usize;
        }
        s
    }
}

/// Runtime-dispatched x86-64 wide lanes over the stable `std::arch`
/// intrinsics. Every function is gated behind `is_x86_feature_detected!`
/// at the dispatch site; the `#[target_feature]` attributes make the
/// bodies sound only under that check, hence the `unsafe fn`s.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified `avx512f` and `avx512vpopcntdq`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn popcount_avx512(words: &[u64]) -> usize {
        let n = words.len();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm512_loadu_si512(words.as_ptr().add(i) as *const _);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
            i += 8;
        }
        let mut s = _mm512_reduce_add_epi64(acc) as usize;
        while i < n {
            s += words[i].count_ones() as usize;
            i += 1;
        }
        s
    }

    /// # Safety
    /// Caller must have verified `avx512f` and `avx512vpopcntdq`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn and_count_avx512(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
            let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
            let t = _mm512_and_si512(va, vb);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(t));
            i += 8;
        }
        let mut s = _mm512_reduce_add_epi64(acc) as usize;
        while i < n {
            s += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        s
    }

    /// # Safety
    /// Caller must have verified `avx512f` and `avx512vpopcntdq`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn and_not_count_avx512(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
            let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
            // andnot computes `!arg1 & arg2`, so pass `b` first.
            let t = _mm512_andnot_si512(vb, va);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(t));
            i += 8;
        }
        let mut s = _mm512_reduce_add_epi64(acc) as usize;
        while i < n {
            s += (a[i] & !b[i]).count_ones() as usize;
            i += 1;
        }
        s
    }

    /// # Safety
    /// Caller must have verified `avx512f` and `avx512vpopcntdq`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn count_and_andnot_avx512(a: &[u64], b: &[u64], c: &[u64]) -> usize {
        let n = a.len().min(b.len()).min(c.len());
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
            let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
            let vc = _mm512_loadu_si512(c.as_ptr().add(i) as *const _);
            let t = _mm512_andnot_si512(vc, _mm512_and_si512(va, vb));
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(t));
            i += 8;
        }
        let mut s = _mm512_reduce_add_epi64(acc) as usize;
        while i < n {
            s += (a[i] & b[i] & !c[i]).count_ones() as usize;
            i += 1;
        }
        s
    }

    /// Muła nibble-LUT popcount of one 256-bit lane, accumulated into
    /// per-64-bit-lane sums via `psadbw`.
    ///
    /// # Safety
    /// Caller must have verified `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt256(acc: __m256i, v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()))
    }

    /// # Safety
    /// Caller must have verified `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce256(acc: __m256i) -> usize {
        let mut buf = [0u64; 4];
        _mm256_storeu_si256(buf.as_mut_ptr() as *mut _, acc);
        (buf[0] + buf[1] + buf[2] + buf[3]) as usize
    }

    /// # Safety
    /// Caller must have verified `avx2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn popcount_avx2(words: &[u64]) -> usize {
        let n = words.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(words.as_ptr().add(i) as *const _);
            acc = popcnt256(acc, v);
            i += 4;
        }
        let mut s = reduce256(acc);
        while i < n {
            s += words[i].count_ones() as usize;
            i += 1;
        }
        s
    }

    /// # Safety
    /// Caller must have verified `avx2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_count_avx2(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const _);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const _);
            acc = popcnt256(acc, _mm256_and_si256(va, vb));
            i += 4;
        }
        let mut s = reduce256(acc);
        while i < n {
            s += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        s
    }

    /// # Safety
    /// Caller must have verified `avx2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_not_count_avx2(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const _);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const _);
            acc = popcnt256(acc, _mm256_andnot_si256(vb, va));
            i += 4;
        }
        let mut s = reduce256(acc);
        while i < n {
            s += (a[i] & !b[i]).count_ones() as usize;
            i += 1;
        }
        s
    }

    /// # Safety
    /// Caller must have verified `avx2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_and_andnot_avx2(a: &[u64], b: &[u64], c: &[u64]) -> usize {
        let n = a.len().min(b.len()).min(c.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const _);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const _);
            let vc = _mm256_loadu_si256(c.as_ptr().add(i) as *const _);
            acc = popcnt256(acc, _mm256_andnot_si256(vc, _mm256_and_si256(va, vb)));
            i += 4;
        }
        let mut s = reduce256(acc);
        while i < n {
            s += (a[i] & b[i] & !c[i]).count_ones() as usize;
            i += 1;
        }
        s
    }
}

/// Instruction tier selected for this process.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Level {
    /// AVX-512 with VPOPCNTDQ: eight 64-bit lanes per popcount.
    Avx512,
    /// AVX2 Muła nibble-LUT popcount: four 64-bit lanes.
    Avx2,
    /// Portable fallback.
    Portable,
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn level() -> Level {
    use core::sync::atomic::{AtomicU8, Ordering};
    static LEVEL: AtomicU8 = AtomicU8::new(0);
    match LEVEL.load(Ordering::Relaxed) {
        1 => Level::Avx512,
        2 => Level::Avx2,
        3 => Level::Portable,
        _ => {
            let l = if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vpopcntdq")
            {
                Level::Avx512
            } else if is_x86_feature_detected!("avx2") {
                Level::Avx2
            } else {
                Level::Portable
            };
            LEVEL.store(
                match l {
                    Level::Avx512 => 1,
                    Level::Avx2 => 2,
                    Level::Portable => 3,
                },
                Ordering::Relaxed,
            );
            l
        }
    }
}

/// Human-readable name of the kernel tier in use — surfaced by benches so
/// committed artifacts record which lanes produced the numbers.
pub fn dispatch_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match level() {
            Level::Avx512 => "avx512-vpopcntdq",
            Level::Avx2 => "avx2-mula",
            Level::Portable => "portable-autovec",
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable-autovec"
    }
}

/// Popcount of `words`.
#[inline]
pub fn popcount(words: &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the matching feature set was runtime-detected by `level`.
        match level() {
            Level::Avx512 => return unsafe { x86::popcount_avx512(words) },
            Level::Avx2 => return unsafe { x86::popcount_avx2(words) },
            Level::Portable => {}
        }
    }
    fallback::popcount(words)
}

/// Popcount of `a & b` over the common prefix of the two word arrays.
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the matching feature set was runtime-detected by `level`.
        match level() {
            Level::Avx512 => return unsafe { x86::and_count_avx512(a, b) },
            Level::Avx2 => return unsafe { x86::and_count_avx2(a, b) },
            Level::Portable => {}
        }
    }
    fallback::and_count(a, b)
}

/// Popcount of `a & !b` over the common prefix of the two word arrays.
#[inline]
pub fn and_not_count(a: &[u64], b: &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the matching feature set was runtime-detected by `level`.
        match level() {
            Level::Avx512 => return unsafe { x86::and_not_count_avx512(a, b) },
            Level::Avx2 => return unsafe { x86::and_not_count_avx2(a, b) },
            Level::Portable => {}
        }
    }
    fallback::and_not_count(a, b)
}

/// Popcount of the ternary `a & b & !c` over the common prefix, fused —
/// no intermediate bit vector is materialized.
#[inline]
pub fn count_and_andnot(a: &[u64], b: &[u64], c: &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the matching feature set was runtime-detected by `level`.
        match level() {
            Level::Avx512 => return unsafe { x86::count_and_andnot_avx512(a, b, c) },
            Level::Avx2 => return unsafe { x86::count_and_andnot_avx2(a, b, c) },
            Level::Portable => {}
        }
    }
    fallback::count_and_andnot(a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut st = seed | 1;
        move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_reference() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        // Lengths straddling every remainder case for 4- and 8-lane loops.
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 63, 64, 100, 157, 782] {
            let a: Vec<u64> = (0..n).map(|_| next()).collect();
            let b: Vec<u64> = (0..n).map(|_| next()).collect();
            let c: Vec<u64> = (0..n).map(|_| next()).collect();
            assert_eq!(popcount(&a), scalar::popcount(&a), "popcount n={n}");
            assert_eq!(and_count(&a, &b), scalar::and_count(&a, &b), "and n={n}");
            assert_eq!(
                and_not_count(&a, &b),
                scalar::and_not_count(&a, &b),
                "andnot n={n}"
            );
            assert_eq!(
                count_and_andnot(&a, &b, &c),
                scalar::count_and_andnot(&a, &b, &c),
                "ternary n={n}"
            );
        }
    }

    #[test]
    fn kernels_use_common_prefix_on_ragged_lengths() {
        let a = vec![u64::MAX; 10];
        let b = vec![u64::MAX; 7];
        let c = vec![0u64; 9];
        assert_eq!(and_count(&a, &b), 7 * 64);
        assert_eq!(and_not_count(&a, &c), 9 * 64);
        assert_eq!(count_and_andnot(&a, &b, &c), 7 * 64);
        assert_eq!(scalar::and_count(&a, &b), 7 * 64);
    }

    #[test]
    fn dispatch_name_is_stable_nonempty() {
        let n1 = dispatch_name();
        let n2 = dispatch_name();
        println!("kernel dispatch tier: {n1}");
        assert!(!n1.is_empty());
        assert_eq!(n1, n2);
    }
}
