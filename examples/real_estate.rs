//! Zillow-style listing search: the space/time trade-off of IBIG's binned
//! bitmap index on a dataset whose per-dimension domains differ by orders
//! of magnitude (beds ≈ 6 values, price ≈ 1000).
//!
//! Reproduces the reasoning of the paper's §4.4–4.5 and Fig. 11(c) on a
//! 20K-listing workload: sweep the lot-area bin count, watch the index
//! shrink and the query slow down, and compare against Eq. 8's suggestion.
//! Queries read the binned index's dense columns; the CONCISE bytes beside
//! them are the paper's storage layout, measured rather than queried.
//!
//! ```sh
//! cargo run --release --example real_estate
//! ```

use std::time::Instant;
use tkdi::bitvec::Concise;
use tkdi::core::big::{big_with, BigContext};
use tkdi::core::ibig::{ibig_with, IbigContext};
use tkdi::data::simulators::{zillow_bins, zillow_like_with};
use tkdi::index::{cost, CompressedColumns};
use tkdi::model::stats;

fn main() {
    let ds = zillow_like_with(20_000, 5);
    let sigma = stats::missing_rate(&ds);
    println!(
        "{} listings x {} attributes, missing rate {:.1}%",
        ds.len(),
        ds.dims(),
        100.0 * sigma
    );
    for (d, name) in ["beds", "baths", "living", "lot", "price"]
        .iter()
        .enumerate()
    {
        println!(
            "  domain({name}) = {} distinct values",
            stats::dimension_cardinality(&ds, d)
        );
    }

    let k = 10;

    // Reference: exact BIG (unbinned, dense).
    let ctx = BigContext::build(&ds);
    let start = Instant::now();
    let reference = big_with(&ctx, k);
    let t_big = start.elapsed();
    println!(
        "\nBIG  (exact index):   {:>9.3?}   index {:>10} bytes",
        t_big,
        ctx.index().size_bytes()
    );
    drop(ctx);

    // IBIG across lot-area bin counts (the paper sweeps this dimension).
    println!("IBIG (binned), sweeping lot-area bins:");
    for x in [10usize, 50, 200, 1000] {
        let ictx = IbigContext::build(&ds, &zillow_bins(x));
        let start = Instant::now();
        let r = ibig_with(&ictx, k);
        let t = start.elapsed();
        assert_eq!(r.scores(), reference.scores(), "IBIG must agree with BIG");
        println!(
            "  x={x:<5} query {t:>9.3?}   dense {:>9} bytes   CONCISE {:>9} bytes",
            ictx.index().size_bytes(),
            CompressedColumns::<Concise>::from_binned(ictx.index()).size_bytes()
        );
    }

    // What Eq. 8 recommends for a uniform bin count at this N and σ:
    let xstar = cost::optimal_bins(ds.len(), sigma);
    println!(
        "\nEq. 8 optimal uniform bin count for N={} σ={:.3}: x* = {}",
        ds.len(),
        sigma,
        xstar
    );

    println!("\ntop-{k} dominating listings:");
    for (rank, e) in reference.iter().enumerate() {
        let row = ds.row(e.id);
        let fmt = |d: usize, neg: bool| {
            row.value(d)
                .map(|v| format!("{}", if neg { -v } else { v }))
                .unwrap_or_else(|| "?".into())
        };
        println!(
            "  #{:<2} listing-{:<6} dominates {:>5}  beds={} baths={} living={} lot={} price={}",
            rank + 1,
            e.id,
            e.score,
            fmt(0, true),
            fmt(1, true),
            fmt(2, true),
            fmt(3, true),
            fmt(4, false),
        );
    }
}
