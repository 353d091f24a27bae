//! `repro --exp perf --threads 1,2,4` — the thread-scaling grid and its
//! one-thread gate (`BENCH_3.json`).
//!
//! Times [`tkd_core::ParallelEngine`] against the sequential scratch
//! engines over a synthetic `(N, dims, missing-rate, k)` grid, asserting
//! parity before any timing, and renders the measurements both as a
//! printable [`Table`] and as machine-readable JSON
//! (`tkd-perf-threads/v1`). A `threads: 1` row below
//! `ONE_THREAD_FLOOR` of the sequential engines timed in the same run
//! fails the run. Every other engineering number — builds, queries,
//! updates, snapshots, the service, the kernels — is a cell of the
//! repository benchmark (`benchmark/`, `BENCHMARK.json`); see
//! `docs/INTERNALS.md` § Where each number lives.

use crate::table::{secs, Table};
use crate::{time, Scale};
use tkd_core::{big, ibig, Preprocessed};
use tkd_data::synthetic::{generate, Distribution, SyntheticConfig};

/// Query repetitions per measurement; the minimum is reported.
const QUERY_REPS: usize = 3;

/// How long a thread-scaling cell keeps adding timing rounds beyond
/// [`QUERY_REPS`].
const THREAD_CELL_WINDOW: std::time::Duration = std::time::Duration::from_millis(400);

/// One grid cell: `(n, dims, missing_rate, k)`.
pub type PerfPoint = (usize, usize, f64, usize);

/// The synthetic workload grid. `Quick` is CI-sized; `Paper` adds the
/// n = 50K cells. The k = 64 cells are Heuristic-2-heavy (late H1
/// termination forces thousands of bitmap evaluations), which is where
/// the scoring engine matters; the k = 8 cells are the paper's Table 2
/// default.
pub fn perf_grid(scale: Scale) -> Vec<PerfPoint> {
    match scale {
        Scale::Quick => vec![
            (5_000, 8, 0.1, 8),
            (10_000, 8, 0.1, 64),
            (10_000, 8, 0.3, 8),
        ],
        Scale::Paper => vec![
            (10_000, 8, 0.1, 8),
            (50_000, 8, 0.1, 8),
            (50_000, 8, 0.1, 64),
            (50_000, 8, 0.3, 8),
            (50_000, 12, 0.1, 16),
        ],
    }
}

/// Minimum-of-N timing for sub-millisecond stability.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = time(&mut f);
    for _ in 1..reps {
        let (o, t) = time(&mut f);
        if t < best {
            best = t;
            out = o;
        }
    }
    (out, best)
}

/// Size of the multi-user batch measured per thread count.
const BATCH_QUERIES: usize = 16;

/// One thread count's measurements within a cell.
struct ThreadRun {
    threads: usize,
    /// Engine construction (preprocessing + sharded context build).
    build_s: f64,
    /// Single-query wall-clock, all threads cooperating (min of reps).
    big_query_s: f64,
    ibig_query_s: f64,
    /// Wall-clock of a [`BATCH_QUERIES`]-query mixed BIG/IBIG batch
    /// through `query_many` (worker-per-query serving).
    batch_s: f64,
}

/// One grid cell of the thread-scaling experiment.
struct ThreadCell {
    n: usize,
    dims: usize,
    missing: f64,
    cardinality: usize,
    k: usize,
    /// Sequential scratch-engine baselines (the PR-2 engines).
    seq_big_s: f64,
    seq_ibig_s: f64,
    runs: Vec<ThreadRun>,
}

fn measure_thread_cell(point: PerfPoint, seed: u64, threads: &[usize]) -> ThreadCell {
    use tkd_core::{Algorithm, EngineQuery, ParallelEngine};
    let (n, dims, missing, k) = point;
    let cardinality = 100;
    let ds = generate(&SyntheticConfig {
        n,
        dims,
        cardinality,
        missing_rate: missing,
        distribution: Distribution::Independent,
        seed,
    });
    let bins = vec![32usize; dims];
    // Sequential engines over one shared preprocessing.
    let pre = Preprocessed::build(&ds);
    let ctx = big::BigContext::build_with(&ds, &pre);
    let mut scratch = ctx.scratch();
    let seq_big = big::big_with_scratch(&ctx, k, &mut scratch);
    let ictx = ibig::IbigContext::<'_, tkd_bitvec::Concise>::build_with(&ds, &bins, &pre);
    let mut iscratch = ictx.scratch();
    let seq_ibig = ibig::ibig_with_scratch(&ictx, k, &mut iscratch);

    let big_q = EngineQuery::new(k);
    let ibig_q = EngineQuery::new(k).algorithm(Algorithm::Ibig);
    let engines: Vec<(ParallelEngine<'_>, f64)> = threads
        .iter()
        .map(|&t| {
            time(|| {
                ParallelEngine::builder(&ds)
                    .threads(t)
                    .shards(t)
                    .bins(bins.clone())
                    .build()
            })
        })
        .collect();
    for (engine, _) in &engines {
        // Parity before timing (this also warms the pools).
        let t = engine.threads();
        assert_eq!(
            engine.query(&big_q).entries(),
            seq_big.entries(),
            "parallel BIG diverged from sequential (threads={t})"
        );
        assert_eq!(
            engine.query(&ibig_q).entries(),
            seq_ibig.entries(),
            "parallel IBIG diverged from sequential (threads={t})"
        );
    }

    // Every round times the sequential engines and each thread count back
    // to back and every slot keeps its minimum, so whatever the machine
    // does between rounds (frequency steps, noisy neighbours) hits all of
    // them alike — which is what lets `run_threads` gate the one-thread
    // ratio without calibration. Sub-millisecond queries get hundreds of
    // rounds, second-long ones `QUERY_REPS`.
    let mut seq_best = [f64::INFINITY; 2];
    let mut best = vec![[f64::INFINITY; 2]; engines.len()];
    let started = std::time::Instant::now();
    let mut rounds = 0;
    while rounds < QUERY_REPS || started.elapsed() < THREAD_CELL_WINDOW {
        let keep_min = |slot: &mut f64, secs: f64| *slot = slot.min(secs);
        keep_min(
            &mut seq_best[0],
            time(|| big::big_with_scratch(&ctx, k, &mut scratch)).1,
        );
        keep_min(
            &mut seq_best[1],
            time(|| ibig::ibig_with_scratch(&ictx, k, &mut iscratch)).1,
        );
        for ((engine, _), slot) in engines.iter().zip(&mut best) {
            keep_min(&mut slot[0], time(|| engine.query(&big_q)).1);
            keep_min(&mut slot[1], time(|| engine.query(&ibig_q)).1);
        }
        rounds += 1;
    }
    let [seq_big_s, seq_ibig_s] = seq_best;

    let batch: Vec<EngineQuery> = (0..BATCH_QUERIES)
        .map(|i| {
            EngineQuery::new(k).algorithm(if i % 2 == 0 {
                Algorithm::Big
            } else {
                Algorithm::Ibig
            })
        })
        .collect();
    let runs = engines
        .iter()
        .zip(best)
        .map(
            |((engine, build_s), [big_query_s, ibig_query_s])| ThreadRun {
                threads: engine.threads(),
                build_s: *build_s,
                big_query_s,
                ibig_query_s,
                batch_s: time_best(QUERY_REPS, || engine.query_many(&batch)).1,
            },
        )
        .collect();
    ThreadCell {
        n,
        dims,
        missing,
        cardinality,
        k,
        seq_big_s,
        seq_ibig_s,
        runs,
    }
}

/// A one-thread, one-shard engine *is* the sequential engine (same scorer,
/// same walk — ROADMAP 3c), so within one run on one machine its queries
/// may not fall below this fraction of the sequential scratch engines'
/// speed.
const ONE_THREAD_FLOOR: f64 = 0.90;

/// Run the thread-scaling grid, returning the printable table, the
/// `BENCH_3.json` document and the `threads: 1` rows that break
/// `ONE_THREAD_FLOOR` (empty = gate passed).
pub fn run_threads(scale: Scale, seed: u64, threads: &[usize]) -> (Table, String, Vec<String>) {
    let cells: Vec<ThreadCell> = perf_grid(scale)
        .into_iter()
        .map(|p| measure_thread_cell(p, seed, threads))
        .collect();
    let mut below_floor = Vec::new();
    for c in &cells {
        for r in c.runs.iter().filter(|r| r.threads == 1) {
            for (name, speedup) in [
                ("big_speedup_vs_seq", c.seq_big_s / r.big_query_s),
                ("ibig_speedup_vs_seq", c.seq_ibig_s / r.ibig_query_s),
            ] {
                if speedup < ONE_THREAD_FLOOR {
                    below_floor.push(format!(
                        "n={} dims={} missing={} k={}: threads=1 {name} {speedup:.3} < {ONE_THREAD_FLOOR}",
                        c.n, c.dims, c.missing, c.k
                    ));
                }
            }
        }
    }

    let mut t = Table::new(
        "thread scaling — parallel engine query wall-clock (IND)",
        &[
            "N",
            "dims",
            "missing",
            "k",
            "threads",
            "build (s)",
            "BIG (s)",
            "IBIG (s)",
            "batch16 (s)",
            "BIG vs seq",
            "BIG vs 1T",
        ],
    );
    for c in &cells {
        let one_t = c
            .runs
            .iter()
            .find(|r| r.threads == 1)
            .map(|r| r.big_query_s);
        for r in &c.runs {
            t.push(vec![
                c.n.to_string(),
                c.dims.to_string(),
                format!("{:.0}%", c.missing * 100.0),
                c.k.to_string(),
                r.threads.to_string(),
                secs(r.build_s),
                secs(r.big_query_s),
                secs(r.ibig_query_s),
                secs(r.batch_s),
                format!("{:.2}x", c.seq_big_s / r.big_query_s),
                one_t
                    .map(|b| format!("{:.2}x", b / r.big_query_s))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    (t, threads_to_json(scale, seed, &cells), below_floor)
}

/// Hand-rolled JSON for the thread-scaling artifact (offline — no serde).
fn threads_to_json(scale: Scale, seed: u64, cells: &[ThreadCell]) -> String {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"tkd-perf-threads/v1\",\n");
    s.push_str("  \"created_by\": \"repro --exp perf --threads\",\n");
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    ));
    s.push_str(&format!("  \"seed\": {seed},\n"));
    // Speedup claims are only meaningful relative to the cores the run
    // actually had; CI containers are often single-core.
    s.push_str(&format!(
        "  \"hardware\": {{\"available_parallelism\": {hw}}},\n"
    ));
    s.push_str(&format!("  \"batch_queries\": {BATCH_QUERIES},\n"));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!(
            "      \"workload\": {{\"n\": {}, \"dims\": {}, \"missing_rate\": {}, \
             \"cardinality\": {}, \"k\": {}, \"distribution\": \"IND\"}},\n",
            c.n, c.dims, c.missing, c.cardinality, c.k
        ));
        s.push_str(&format!(
            "      \"sequential\": {{\"big_query_s\": {:.6}, \"ibig_query_s\": {:.6}}},\n",
            c.seq_big_s, c.seq_ibig_s
        ));
        s.push_str("      \"threads\": [\n");
        for (j, r) in c.runs.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"threads\": {}, \"build_s\": {:.6}, \"big_query_s\": {:.6}, \
                 \"ibig_query_s\": {:.6}, \"batch_s\": {:.6}, \
                 \"big_speedup_vs_seq\": {:.3}, \"ibig_speedup_vs_seq\": {:.3}}}{}\n",
                r.threads,
                r.build_s,
                r.big_query_s,
                r.ibig_query_s,
                r.batch_s,
                c.seq_big_s / r.big_query_s,
                c.seq_ibig_s / r.ibig_query_s,
                if j + 1 < c.runs.len() { "," } else { "" }
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        assert!(perf_grid(Scale::Quick).iter().all(|&(n, ..)| n <= 10_000));
        assert!(perf_grid(Scale::Paper).iter().any(|&(n, ..)| n == 50_000));
    }

    #[test]
    fn thread_cell_parity_and_json_shape() {
        // A miniature cell: the engine must agree with the sequential
        // baselines at every thread count (asserted inside), and the JSON
        // must carry the schema, hardware, and speedup fields.
        let cell = measure_thread_cell((700, 4, 0.2, 8), 11, &[1, 2]);
        assert_eq!(cell.runs.len(), 2);
        let json = threads_to_json(Scale::Quick, 11, &[cell]);
        for needle in [
            "tkd-perf-threads/v1",
            "available_parallelism",
            "big_speedup_vs_seq",
            "\"threads\": 2",
            "batch_s",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
