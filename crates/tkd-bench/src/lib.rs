//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§5).
//!
//! The [`experiments`] module has one entry point per paper artifact
//! (Table 2–4, Fig. 10–18); the `repro` binary drives them and prints
//! paper-style tables. Everything is deterministic given the seed.
//!
//! Two scales are supported:
//!
//! * [`Scale::Quick`] — laptop-sized datasets (default) preserving every
//!   qualitative finding;
//! * [`Scale::Paper`] — the paper's exact cardinalities (slower).

#![warn(missing_docs)]

pub mod compare;
pub mod datasets;
pub mod experiments;
pub mod load;
pub mod perf;
pub mod persist;
pub mod serve;
pub mod table;
pub mod updates;

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
