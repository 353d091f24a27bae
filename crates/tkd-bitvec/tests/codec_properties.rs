//! Property-based checks of the compressed codecs over adversarial bit
//! patterns: lossless round trips, and CONCISE never larger than WAH
//! (Fig. 10(b)).

use proptest::prelude::*;
use tkd_bitvec::{BitVec, CompressedBitmap, Concise, Wah};

/// Random bit vectors biased towards compressible shapes: long runs,
/// sparse bits, block-aligned patterns — the regimes where fill/mixed-fill
/// encodings do real work — plus fully random noise.
fn bitvec_strategy() -> impl Strategy<Value = BitVec> {
    let len = 0usize..600;
    prop_oneof![
        // Uniform random density.
        (len.clone(), 0.0f64..1.0).prop_flat_map(|(n, p)| {
            proptest::collection::vec(proptest::bool::weighted(p.clamp(0.01, 0.99)), n).prop_map(
                move |bits| {
                    let mut b = BitVec::zeros(bits.len());
                    for (i, set) in bits.iter().enumerate() {
                        if *set {
                            b.set(i);
                        }
                    }
                    b
                },
            )
        }),
        // Long homogeneous runs with occasional dirty bits (mixed-fill bait).
        (1usize..20, any::<u64>()).prop_map(|(blocks, seed)| {
            let n = blocks * 31;
            let mut b = if seed % 2 == 0 {
                BitVec::zeros(n)
            } else {
                BitVec::ones(n)
            };
            let mut s = seed;
            for _ in 0..(seed % 4) {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let i = (s >> 33) as usize % n;
                if seed % 2 == 0 {
                    b.set(i);
                } else {
                    b.clear(i);
                }
            }
            b
        }),
        // Exactly-one-block patterns around the 31-bit boundary.
        (0usize..64).prop_map(|i| BitVec::from_indices(64, [i.min(63)])),
    ]
}

/// Long vectors (up to 4096 blocks) that are one fill with a few flipped
/// bits: the long-fill and mixed-fill regime of the real datasets' index
/// columns, far below CONCISE's 2²⁵-block fill-word limit.
fn long_run_strategy() -> impl Strategy<Value = BitVec> {
    let flips = proptest::collection::vec(any::<u64>(), 0..8);
    (1usize..4096, 0usize..31, any::<bool>(), flips).prop_map(|(blocks, tail, ones, flips)| {
        let n = blocks * 31 + tail;
        let mut b = if ones {
            BitVec::ones(n)
        } else {
            BitVec::zeros(n)
        };
        for f in flips {
            let i = f as usize % n;
            if ones {
                b.clear(i);
            } else {
                b.set(i);
            }
        }
        b
    })
}

fn paired() -> impl Strategy<Value = (BitVec, BitVec)> {
    bitvec_strategy().prop_flat_map(|a| {
        let n = a.len();
        (Just(a), bitvec_strategy().prop_map(move |b| resize(&b, n)))
    })
}

fn resize(b: &BitVec, n: usize) -> BitVec {
    let mut out = BitVec::zeros(n);
    for i in b.iter_ones() {
        if i < n {
            out.set(i);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wah_roundtrip(b in bitvec_strategy()) {
        let w = Wah::compress(&b);
        prop_assert_eq!(w.decompress(), b.clone());
        prop_assert_eq!(w.count_ones(), b.count_ones());
        prop_assert_eq!(w.len(), b.len());
    }

    #[test]
    fn concise_roundtrip(b in bitvec_strategy()) {
        let c = Concise::compress(&b);
        prop_assert_eq!(c.decompress(), b.clone());
        prop_assert_eq!(c.count_ones(), b.count_ones());
        prop_assert_eq!(c.len(), b.len());
    }

    /// Fig. 10(b): CONCISE compresses at least as well as WAH on any
    /// vector under 2²⁵ blocks. Its mixed fills strictly generalize WAH's
    /// fills (one word where WAH spends a literal and a fill), and both fall
    /// back to literals. Both codecs must also round-trip.
    #[test]
    fn concise_never_larger_than_wah_plus_slack(
        b in prop_oneof![bitvec_strategy(), long_run_strategy()],
    ) {
        let w = Wah::compress(&b);
        let c = Concise::compress(&b);
        prop_assert!(c.words() <= w.words(), "CONCISE {} > WAH {}", c.words(), w.words());
        prop_assert_eq!(w.decompress(), b.clone());
        prop_assert_eq!(c.decompress(), b);
    }

    #[test]
    fn dense_iter_ones_sorted_unique(b in bitvec_strategy()) {
        let ones: Vec<usize> = b.iter_ones().collect();
        prop_assert!(ones.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(ones.len(), b.count_ones());
        for i in ones {
            prop_assert!(b.get(i));
        }
    }

    #[test]
    fn subset_and_andnot_relations((a, b) in paired()) {
        let inter = a.and(&b);
        prop_assert!(inter.is_subset_of(&a));
        prop_assert!(inter.is_subset_of(&b));
        let diff = a.and_not(&b);
        prop_assert!(diff.is_subset_of(&a));
        prop_assert_eq!(diff.and_count(&b), 0);
        prop_assert_eq!(diff.count_ones() + inter.count_ones(), a.count_ones());
    }
}
