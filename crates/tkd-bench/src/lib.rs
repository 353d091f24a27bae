//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§5).
//!
//! The [`experiments`] module has one entry point per paper artifact
//! (Table 2–4, Fig. 10–18); the `repro` binary drives them and prints
//! paper-style tables. Everything is deterministic given the seed. Every
//! engineering number is a cell of the repository benchmark (`benchmark/`,
//! `BENCHMARK.json`).
//!
//! Two scales are supported:
//!
//! * [`Scale::Quick`] — laptop-sized datasets (default) preserving every
//!   qualitative finding;
//! * [`Scale::Paper`] — the paper's exact cardinalities (slower).

#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod table;

/// Every experiment name `repro --exp` accepts, each a paper artifact run
/// by default; the single source of truth for validation and the usage
/// text.
pub const KNOWN: [&str; 15] = [
    "table2", "fig10", "table3", "fig11", "fig12", "fig13", "table4", "fig14", "fig15", "fig16",
    "fig17", "fig18", "binopt", "ablation", "baseline",
];

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced cardinalities for minutes-long full runs.
    Quick,
    /// The paper's cardinalities (MovieLens 3.7K×60, NBA 16K, Zillow 200K,
    /// synthetic 100K).
    Paper,
}

/// Wall-clock seconds of a closure (single shot; the workloads are large
/// enough that variance is dominated by the algorithm, not the clock).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
