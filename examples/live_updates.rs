//! Live updates: serving top-k dominating queries while the dataset
//! churns.
//!
//! A product catalog (smaller = better on every dimension: price,
//! delivery days, defect rate) takes a stream of inserts, deletes, and
//! price corrections. The naive architecture rebuilds every index per
//! change; the [`DynamicEngine`] repairs its indexes in place and answers
//! in between, bit-identically to a rebuild. The example measures both.
//!
//! ```text
//! cargo run --release --example live_updates
//! ```

use std::time::Instant;
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::BinChoice;
use tkdi::data::synthetic::{generate, Distribution, SyntheticConfig};
use tkdi::prelude::*;

fn main() {
    let n = 4_000;
    let dims = 6;
    let catalog = generate(&SyntheticConfig {
        n,
        dims,
        cardinality: 64,
        missing_rate: 0.2,
        distribution: Distribution::Independent,
        seed: 7,
    });

    println!("catalog: {n} products x {dims} dimensions, 20% missing\n");

    // --- the dynamic engine ------------------------------------------------
    let t0 = Instant::now();
    let mut engine = DynamicEngine::with_options(
        catalog.clone(),
        DynamicOptions {
            bins: BinChoice::Auto,
            policy: CompactionPolicy::default(),
        },
    );
    println!("initial build:              {:>9.2?}", t0.elapsed());

    // A mixed update stream: 60% new products, 25% delistings, 15% price
    // corrections (splitmix-deterministic, no RNG dependency).
    let mut h = 0xBADC0FFEu64;
    let mut next = move || {
        h = h.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let updates = 1_000usize;
    let mut ops: Vec<UpdateOp> = Vec::with_capacity(updates);
    let mut live: Vec<ObjectId> = (0..n as ObjectId).collect();
    let mut next_id = n as ObjectId;
    for _ in 0..updates {
        let roll = next() % 100;
        if roll < 60 || live.len() < 10 {
            let row: Vec<Option<f64>> = (0..dims)
                .map(|_| {
                    if next() % 5 == 0 {
                        None
                    } else {
                        Some((next() % 64) as f64)
                    }
                })
                .collect();
            let row = if row.iter().all(Option::is_none) {
                vec![Some(1.0); dims]
            } else {
                row
            };
            ops.push(UpdateOp::Insert(row));
            live.push(next_id);
            next_id += 1;
        } else if roll < 85 {
            let pick = (next() as usize) % live.len();
            ops.push(UpdateOp::Delete(live.swap_remove(pick)));
        } else {
            let id = live[(next() as usize) % live.len()];
            ops.push(UpdateOp::Set(id, 0, Some((next() % 64) as f64)));
        }
    }

    let t1 = Instant::now();
    assert_eq!(engine.apply_ops(&ops).error, None, "stream is valid");
    let apply = t1.elapsed();
    let t2 = Instant::now();
    let top = engine.query(&EngineQuery::new(10)).expect("BIG supported");
    let first_query = t2.elapsed();
    println!(
        "{updates} updates applied:      {:>9.2?}  ({:.1} µs/op amortized)",
        apply,
        apply.as_secs_f64() * 1e6 / updates as f64
    );
    println!(
        "first query after batch:    {:>9.2?}  (pays the deferred queue re-sort)",
        first_query
    );
    let t3 = Instant::now();
    let again = engine.query(&EngineQuery::new(10)).expect("BIG supported");
    println!("steady-state query:         {:>9.2?}", t3.elapsed());
    assert_eq!(top.entries(), again.entries());

    // --- the rebuild-per-batch architecture it replaces --------------------
    let t4 = Instant::now();
    let snapshot = engine.snapshot();
    let reference = TkdQuery::new(10).run(&snapshot);
    let rebuild = t4.elapsed();
    println!("\nrebuild-from-scratch path:  {rebuild:>9.2?}  (what every batch used to cost)");
    println!(
        "amortized speedup vs rebuild-per-op: {:.0}x",
        rebuild.as_secs_f64() / (apply.as_secs_f64() / updates as f64)
    );

    // Same answers, bit for bit (ids translated through the live list).
    let ids = engine.live_ids();
    let translated: Vec<(ObjectId, usize)> = reference
        .iter()
        .map(|e| (ids[e.id as usize], e.score))
        .collect();
    let dynamic: Vec<(ObjectId, usize)> = top.iter().map(|e| (e.id, e.score)).collect();
    assert_eq!(dynamic, translated, "dynamic result == rebuild result");

    println!(
        "\nstate: {} live products, {} tombstones, epoch {} ({} compactions)",
        engine.len(),
        engine.tombstones(),
        engine.epoch(),
        engine.stats().compactions
    );
    println!("\ntop-10 after the stream (bit-identical to a full rebuild):");
    for (rank, e) in top.iter().enumerate() {
        let row: Vec<String> = (0..dims)
            .map(|d| match engine.value(e.id, d).expect("live id") {
                Some(v) => format!("{v:>3.0}"),
                None => "  -".into(),
            })
            .collect();
        println!(
            "{:>3}. #{:<7} dominates {:>5}   [{}]",
            rank + 1,
            e.id,
            e.score,
            row.join(" ")
        );
    }
}
