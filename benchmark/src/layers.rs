//! Layer probes two or more workloads share: the popcount kernels and
//! the two index probes BIG and IBIG spend their scoring time in. Each
//! is timed from outside, through the public API only.

use crate::gen::Rng;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;
use tkdi::bitvec::kernels;
use tkdi::index::{BinnedBitmapIndex, BitmapIndex};
use tkdi::model::Dataset;

/// Words per kernel call: 32 KiB per operand, the size of one column of a
/// 262 144-row dataset, and small enough to stay in cache.
const KERNEL_WORDS: usize = 4096;
const KERNEL_CALLS_PER_SAMPLE: usize = 200;
const KERNEL_SAMPLES: usize = 25;

fn ns_per_kword(tracer: &mut Tracer, mut call: impl FnMut() -> usize) -> f64 {
    let samples: Vec<f64> = (0..KERNEL_SAMPLES)
        .map(|_| {
            let speed = tracer.speed();
            let start = Instant::now();
            for _ in 0..KERNEL_CALLS_PER_SAMPLE {
                black_box(call());
            }
            let per_call = start.elapsed().as_nanos() as f64 / KERNEL_CALLS_PER_SAMPLE as f64;
            per_call * speed / (KERNEL_WORDS as f64 / 1000.0)
        })
        .collect();
    median(&samples)
}

/// `bitvec.*`: the four fused popcount kernels on 4096-word slices.
pub fn kernel_probes(report: &mut Report, seed: u64, tracer: &mut Tracer) {
    let mut rng = Rng::new(seed, 3);
    let mut slice = || -> Vec<u64> { (0..KERNEL_WORDS).map(|_| rng.next_u64()).collect() };
    let (a, b, c) = (slice(), slice(), slice());
    let n = KERNEL_SAMPLES * KERNEL_CALLS_PER_SAMPLE;
    report.set(
        "bitvec.popcount_ns_per_kword",
        ns_per_kword(tracer, || kernels::popcount(black_box(&a))),
        n,
    );
    report.set(
        "bitvec.and_count_ns_per_kword",
        ns_per_kword(tracer, || kernels::and_count(black_box(&a), black_box(&b))),
        n,
    );
    report.set(
        "bitvec.and_not_count_ns_per_kword",
        ns_per_kword(tracer, || {
            kernels::and_not_count(black_box(&a), black_box(&b))
        }),
        n,
    );
    report.set(
        "bitvec.count_and_andnot_ns_per_kword",
        ns_per_kword(tracer, || {
            kernels::count_and_andnot(black_box(&a), black_box(&b), black_box(&c))
        }),
        n,
    );
}

/// Objects an index probe is sampled over.
const PROBE_OBJECTS: usize = 2000;

/// `index.*` sizes and probes: Heuristic 2's `max_bit_score_above` at the
/// pruning threshold `tau` of a real answer, and IBIG's in-bin B+-tree
/// range probe (the only place `tkd-btree` is felt).
pub fn index_probes(
    report: &mut Report,
    ds: &Dataset,
    bitmap: &BitmapIndex,
    binned: &BinnedBitmapIndex,
    tau: usize,
    seed: u64,
    tracer: &mut Tracer,
) {
    let n = ds.len();
    report.set(
        "index.bitmap_bytes_per_row",
        bitmap.allocated_bytes() as f64 / n as f64,
        1,
    );
    report.set(
        "index.binned_bytes_per_row",
        binned.allocated_bytes() as f64 / n as f64,
        1,
    );
    let mut rng = Rng::new(seed, 4);
    let objects: Vec<u32> = (0..PROBE_OBJECTS.min(n))
        .map(|_| rng.below(n) as u32)
        .collect();

    let speed = tracer.speed();
    let start = Instant::now();
    for &o in &objects {
        black_box(bitmap.max_bit_score_above(o, tau));
    }
    report.set(
        "index.h2_probe_ns",
        start.elapsed().as_nanos() as f64 * speed / objects.len() as f64,
        objects.len(),
    );

    let speed = tracer.speed();
    let start = Instant::now();
    for &o in &objects {
        for dim in 0..ds.dims() {
            black_box(binned.ids_in_bin_below(ds, o, dim).count());
        }
    }
    let probes = objects.len() * ds.dims();
    report.set(
        "index.bin_probe_ns",
        start.elapsed().as_nanos() as f64 * speed / probes as f64,
        probes,
    );
}
