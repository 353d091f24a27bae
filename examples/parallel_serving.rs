//! Multi-user serving simulation: one [`ParallelEngine`] built over a
//! dataset, then a mixed batch of concurrent user queries (different `k`s,
//! BIG and IBIG, deterministic and randomized tie-breaks) served three
//! ways — sequentially, batched into one shared walk per algorithm, and
//! with within-query parallelism — with the answers cross-checked for
//! exact agreement.
//!
//! ```sh
//! cargo run --release --example parallel_serving
//! ```

use std::time::Instant;
use tkdi::core::{Algorithm, EngineQuery, ParallelEngine, TieBreak, TkdQuery};
use tkdi::data::synthetic::{generate, Distribution, SyntheticConfig};

fn main() {
    let ds = generate(&SyntheticConfig {
        n: 6_000,
        dims: 6,
        cardinality: 60,
        missing_rate: 0.25,
        distribution: Distribution::Independent,
        seed: 7,
    });
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "dataset: n={} dims={} | hardware parallelism: {hw}",
        ds.len(),
        ds.dims()
    );

    // The query mix of a busy evening: many small-k lookups, a few deep
    // scans, both bitmap engines, one user who wants randomized ties.
    let batch: Vec<EngineQuery> = (0..40)
        .map(|i| {
            let k = match i % 5 {
                0 => 3,
                1 => 10,
                2 => 25,
                3 => 64,
                _ => 7,
            };
            let q = EngineQuery::new(k).algorithm(if i % 3 == 0 {
                Algorithm::Ibig
            } else {
                Algorithm::Big
            });
            if i % 11 == 0 {
                q.tie_break(TieBreak::Random(i as u64))
            } else {
                q
            }
        })
        .collect();

    // Engine build is paid once, then amortized over the whole batch.
    let t0 = Instant::now();
    let engine = ParallelEngine::builder(&ds).threads(hw.max(2)).build();
    println!(
        "engine: {} threads, built in {:.1?}",
        engine.threads(),
        t0.elapsed()
    );

    // 1) One query at a time, all workers cooperating on each.
    let t0 = Instant::now();
    let one_by_one: Vec<_> = batch.iter().map(|q| engine.query(q)).collect();
    let within = t0.elapsed();
    println!(
        "within-query parallelism: {} queries in {within:.1?}",
        batch.len()
    );

    // 2) The whole batch at once: one queue walk per algorithm answers
    //    every query naming it, the BIG and IBIG walks on two workers.
    let t0 = Instant::now();
    let batched = engine.query_many(&batch);
    let across = t0.elapsed();
    println!(
        "batched (query_many, one walk per algorithm): {} queries in {across:.1?}",
        batch.len()
    );

    // 3) Reference: the plain sequential engines, one context per call.
    let t0 = Instant::now();
    let sequential: Vec<_> = batch
        .iter()
        .map(|q| {
            let mut query = TkdQuery::new(q.k).algorithm(q.algorithm);
            if let TieBreak::Random(seed) = q.tie {
                query = query.tie_break(TieBreak::Random(seed));
            }
            query.run(&ds)
        })
        .collect();
    let naive_serving = t0.elapsed();
    println!(
        "naive serving (rebuild per query): {} queries in {naive_serving:.1?}",
        batch.len()
    );

    // Every serving mode returns identical answers.
    for (i, q) in batch.iter().enumerate() {
        assert_eq!(
            one_by_one[i].scores(),
            batched[i].scores(),
            "query {i}: engine modes disagree"
        );
        assert_eq!(
            batched[i].scores(),
            sequential[i].scores(),
            "query {i}: engine disagrees with sequential {:?}",
            q.algorithm
        );
    }
    println!(
        "\nall {} answers identical across serving modes ✓",
        batch.len()
    );
    let top = &batched[0];
    println!(
        "sample answer (k={}): {:?}…",
        batch[0].k,
        top.iter()
            .take(3)
            .map(|e| (e.id, e.score))
            .collect::<Vec<_>>()
    );
    println!(
        "amortization: engine served the batch {:.1}x faster than \
         rebuild-per-query serving",
        naive_serving.as_secs_f64() / across.as_secs_f64()
    );
}
