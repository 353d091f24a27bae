//! The four workloads, and what they share: the run context, the answer
//! checker, and the one TKDQL statement every text metric uses.

pub mod cluster_2w;
pub mod oneshot_cold;
pub mod serve_rw;
pub mod warm_scoring;

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use std::path::Path;
use std::time::{Duration, Instant};
use tkdi::core::variants;
use tkdi::model::Dataset;
use tkdi::prelude::{Algorithm, DynamicEngine, EngineQuery, TkdQuery, TkdResult};
use tkdi::ql::{resolve_algorithm, PlanStats};
use tkdi::skyline::constrained::Constraints;

/// What the command line asked for.
pub struct RunCtx<'a> {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and report layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Tenth-size inputs: checks names, schema and answers, not speed.
    pub smoke: bool,
    /// Scratch directory for snapshots and cluster files.
    pub tmp: &'a Path,
    /// Busy generator threads / connections allowed.
    pub cap: usize,
    /// CPUs the process may use. It runs pinned to the first; a probe
    /// that needs real parallelism widens to all of them and back.
    pub cpus: &'a [usize],
}

impl RunCtx<'_> {
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub report: Report,
    pub checker: Checker,
    pub tracer: Tracer,
}

/// Counts operations and wrong answers; a run is correct when nothing
/// failed. The first failure is kept verbatim for the reader.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checker {
    /// Count one completed operation.
    pub fn op(&mut self) {
        self.attempted += 1;
    }

    /// Count `n` completed operations.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record a failed operation or a wrong answer.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Two answers that must be identical: entries, scores, tie order.
    pub fn same(&mut self, what: &str, got: &[(u64, u64)], want: &[(u64, u64)]) {
        if got != want {
            self.fail(|| format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Run the workload called `name`, one of [`crate::report::WORKLOADS`].
pub fn run(name: &str, ctx: &RunCtx<'_>) -> Outcome {
    match name {
        "oneshot-cold" => oneshot_cold::run(ctx),
        "warm-scoring" => warm_scoring::run(ctx),
        "serve-rw" => serve_rw::run(ctx),
        "cluster-2w" => cluster_2w::run(ctx),
        _ => unreachable!("the command line admits only declared workloads"),
    }
}

/// What the repeated set-ups of a workload took, at the reference speed.
#[derive(Default)]
pub struct SetupSamples {
    /// Whole set-ups, in seconds.
    pub total_s: Vec<f64>,
    /// Dataset → queryable (and, where the surface persists, saved) state.
    pub build_ms: Vec<f64>,
    /// Persisted state → first answer.
    pub restart_ms: Vec<f64>,
}

impl SetupSamples {
    pub fn report(&self, report: &mut Report) {
        report.timing("setup_s", &self.total_s);
        report.timing("build_p50_ms", &self.build_ms);
        report.timing("restart_p50_ms", &self.restart_ms);
    }
}

/// The update path's own parity: after whatever batches it took, a dynamic
/// engine answers like a fresh one-shot query over its live rows.
pub fn check_against_rebuild(engine: &mut DynamicEngine, what: &str, checker: &mut Checker) {
    let got = entries(
        &engine
            .query(&EngineQuery::new(TEXT_K))
            .expect("BIG is served"),
    );
    let rebuilt = entries(&TkdQuery::new(TEXT_K).run(&engine.snapshot()));
    checker.same(what, &got, &stable_ids(rebuilt, &engine.live_ids()));
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f` and push its duration at the reference speed, in
/// milliseconds, onto `samples`; `speed` is [`Tracer::speed`] read just
/// before.
pub fn timed<T>(samples: &mut Vec<f64>, speed: f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    samples.push(ms(start.elapsed()) * speed);
    out
}

/// An answer in the form every surface can be compared in.
pub fn entries(r: &TkdResult) -> Vec<(u64, u64)> {
    r.iter()
        .map(|e| (u64::from(e.id), e.score as u64))
        .collect()
}

/// Entries, scores and tie order of an answer are well formed: scores
/// never increase, and equal scores come in ascending id order.
pub fn well_ordered(answer: &[(u64, u64)], k: usize) -> bool {
    answer.len() <= k
        && answer
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0))
}

/// `k` of the unscoped statements and of the scoped one.
pub const TEXT_K: usize = 8;
/// The unscoped statement of the serve read mix.
pub const UNSCOPED: &str = "SELECT TOP 8 DOMINATING USING BIG";
/// The scoped statement every text metric times: a subspace plus a
/// range, so the executor derives a sub-dataset before it ranks.
pub const SCOPED: &str = "SELECT TOP 8 DOMINATING SUBSPACE (d1, d2, d3) WHERE d1 BETWEEN 10 AND 80";

/// The hand-built equivalent of [`SCOPED`] through `tkd_core::variants`
/// — admit, select, project, rank, map ids back — with the algorithm the
/// planner's cost model picks, so the two differ by the language layer
/// alone.
pub fn scoped_by_hand(ds: &Dataset) -> TkdResult {
    let admitted = Constraints::none(ds.dims())
        .with_interval(0, 10.0, 80.0)
        .admitted(ds);
    let selected = ds.select(&admitted);
    let (projected, kept) = selected
        .project(&[0, 1, 2])
        .expect("three leading dimensions");
    let algorithm: Algorithm = resolve_algorithm(&PlanStats::of(&projected), false).algorithm;
    let inner = TkdQuery::new(TEXT_K).algorithm(algorithm).run(&projected);
    let mapping: Vec<u32> = kept.into_iter().map(|i| admitted[i as usize]).collect();
    variants::remap(inner, &mapping)
}

/// What each iteration of a closed loop took, in milliseconds at the
/// reference speed: all of them, and apart those a traced run traced and
/// those it did not.
#[derive(Default)]
pub struct Rounds {
    all: Vec<f64>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl Rounds {
    pub fn push(&mut self, ms: f64, traced: bool) {
        self.all.push(ms);
        if traced {
            self.traced.push(ms);
        } else {
            self.untraced.push(ms);
        }
    }

    /// `ops_per_s` of a loop that completes `ops` operations per iteration.
    pub fn report_rate(&self, report: &mut Report, ops: u64) {
        let rate = ops as f64 / (median(&self.all) / 1e3);
        report.set("ops_per_s", rate, self.all.len());
    }

    /// `trace_overhead_pct`: the share by which the traced iterations of
    /// a traced run were slower than its untraced ones.
    pub fn report_overhead(&self, report: &mut Report) {
        let pct = if self.traced.is_empty() || self.untraced.is_empty() {
            0.0
        } else {
            let base = median(&self.untraced);
            100.0 * (median(&self.traced) - base) / base
        };
        report.set("trace_overhead_pct", pct, self.traced.len());
    }
}

/// Stable ids for an answer computed over `engine.snapshot()`, whose row
/// `i` is `live[i]`.
pub fn stable_ids(answer: Vec<(u64, u64)>, live: &[u32]) -> Vec<(u64, u64)> {
    answer
        .into_iter()
        .map(|(slot, score)| (u64::from(live[slot as usize]), score))
        .collect()
}
