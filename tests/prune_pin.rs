//! Fig. 18's pruning counters pinned at scale.
//!
//! The fixture tests pin `PruneStats` on twenty-row datasets only; here a
//! 20 000-row IND dataset (d = 8, σ = 0.1, C = 100, seed 42) answers a
//! top-64 query, and BIG's and IBIG's four counters must equal the values
//! recorded below on every surface that scores a static dataset: the
//! sequential scratch path, the serving engine at one and two threads
//! (single queries and a batch), and the dynamic engine at one and two
//! threads (each scores IBIG off the binned index's dense columns).
//! A change to how a heuristic is *decided* — a cheaper Heuristic 2 scan,
//! a new early exit — must leave every number here alone.

use tkdi::core::big::{big_with_scratch, BigContext};
use tkdi::core::dynamic::DynamicEngine;
use tkdi::core::ibig::{ibig_with_scratch, IbigContext};
use tkdi::core::{Algorithm, EngineQuery, ParallelEngine, PruneStats, TkdResult};
use tkdi::data::synthetic::{generate, Distribution, SyntheticConfig};
use tkdi::model::Dataset;

const K: usize = 64;

const BIG: PruneStats = PruneStats {
    h1_pruned: 13_719,
    h2_pruned: 6_170,
    h3_pruned: 0,
    scored: 111,
};

const IBIG: PruneStats = PruneStats {
    h1_pruned: 13_719,
    h2_pruned: 6_121,
    h3_pruned: 49,
    scored: 111,
};

fn dataset() -> Dataset {
    generate(&SyntheticConfig {
        n: 20_000,
        dims: 8,
        cardinality: 100,
        missing_rate: 0.1,
        distribution: Distribution::Independent,
        seed: 42,
    })
}

fn check(surface: &str, got: &TkdResult, want: PruneStats) {
    assert_eq!(got.len(), K, "{surface}: result size");
    assert_eq!(got.stats, want, "{surface}");
}

#[test]
fn prune_counters_at_scale() {
    let ds = dataset();

    let big_ctx = BigContext::build(&ds);
    let ibig_ctx: IbigContext<'_> = IbigContext::build_auto(&ds);
    let mut scratch = big_ctx.scratch();
    let big = big_with_scratch(&big_ctx, K, &mut scratch);
    let ibig = ibig_with_scratch(&ibig_ctx, K, &mut scratch);
    check("sequential BIG", &big, BIG);
    check("sequential IBIG", &ibig, IBIG);

    let engine = ParallelEngine::builder(&ds).threads(1).build();
    let query = |a| EngineQuery::new(K).algorithm(a);
    let par_big = engine.query(&query(Algorithm::Big));
    let par_ibig = engine.query(&query(Algorithm::Ibig));
    check("ParallelEngine BIG", &par_big, BIG);
    check("ParallelEngine IBIG", &par_ibig, IBIG);
    assert_eq!(par_big.entries(), big.entries());
    assert_eq!(par_ibig.entries(), ibig.entries());

    let mut dynamic = DynamicEngine::new(ds.clone());
    let dyn_big = dynamic.query(&query(Algorithm::Big)).expect("BIG");
    let dyn_ibig = dynamic.query(&query(Algorithm::Ibig)).expect("IBIG");
    check("DynamicEngine BIG", &dyn_big, BIG);
    check("DynamicEngine IBIG", &dyn_ibig, IBIG);
    assert_eq!(dyn_big.scores(), big.scores());
    assert_eq!(dyn_ibig.scores(), ibig.scores());

    // Two threads measure the candidates of one walk; every decision is
    // the merger's, at the query's own τ, so the counters do not move.
    let two = ParallelEngine::builder(&ds).threads(2).build();
    check(
        "2-thread ParallelEngine BIG",
        &two.query(&query(Algorithm::Big)),
        BIG,
    );
    check(
        "2-thread ParallelEngine IBIG",
        &two.query(&query(Algorithm::Ibig)),
        IBIG,
    );
    let batch = two.query_many(&[query(Algorithm::Big), query(Algorithm::Ibig)]);
    check("2-thread query_many BIG", &batch[0], BIG);
    check("2-thread query_many IBIG", &batch[1], IBIG);
    let dyn_big2 = dynamic
        .query_threads(&query(Algorithm::Big), 2)
        .expect("BIG");
    let dyn_ibig2 = dynamic
        .query_threads(&query(Algorithm::Ibig), 2)
        .expect("IBIG");
    check("2-thread DynamicEngine BIG", &dyn_big2, BIG);
    check("2-thread DynamicEngine IBIG", &dyn_ibig2, IBIG);
    assert_eq!(dyn_big2.entries(), dyn_big.entries());
    assert_eq!(dyn_ibig2.entries(), dyn_ibig.entries());
}
