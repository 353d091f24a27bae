//! `cluster-2w`: the outermost layer — two shard workers behind a
//! coordinator, all in this process. One driver thread, closed loop; each
//! round routes one 16-op update and then asks 13 queries, the first of
//! which pays for the workers' lazy scorer rebuild and is recorded apart.
//! τ-exchange fan-out, the cluster wire, the coordinator's mirror and the
//! per-shard snapshot rewrite all sit on the measured path.
//!
//! As in `serve-rw`, nothing is verified while the rounds run: a twin
//! `DynamicEngine` replays the batches afterwards and must agree with the
//! answers recorded at every 50th round and at the end.

use super::{entries, ms, timed, Checker, Outcome, Rounds, RunCtx, SetupSamples, TEXT_K};
use crate::gen::{self, OpGen, Shape, BATCH_OPS};
use crate::host;
use crate::layers;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tkdi::cluster::{ClusterConfig, ClusterError, ClusterStats, Coordinator, Worker, WorkerConfig};
use tkdi::model::Dataset;
use tkdi::prelude::{Algorithm, DynamicEngine, EngineQuery, TkdQuery, UpdateOp};

const SHAPE: Shape = Shape {
    n: 20_000,
    dims: 6,
    cardinality: 100,
    missing: 0.10,
};
const SETUPS: usize = 9;
const WORKERS: usize = 2;
const K: usize = TEXT_K;
/// The query cycle of a round, three times over: 9 BIG and 3 IBIG.
const CYCLE: [(Algorithm, usize); 4] = [
    (Algorithm::Big, 1),
    (Algorithm::Big, K),
    (Algorithm::Big, 64),
    (Algorithm::Ibig, K),
];
const CYCLES_PER_ROUND: usize = 3;
/// The update, the query right after it, and the cycles.
const OPS_PER_ROUND: u64 = (2 + CYCLES_PER_ROUND * CYCLE.len()) as u64;
/// Rounds between the answers kept for the twin to check.
const CHECK_EVERY: usize = 50;

type Answer = Vec<(u64, u64)>;
type Spec = (Algorithm, usize);

struct Cluster {
    ds: Dataset,
    workers: Vec<Worker>,
    coord: Coordinator,
    /// Where the shard snapshots live.
    dir: PathBuf,
}

impl Cluster {
    fn stop(self) {
        drop(self.coord);
        for w in self.workers {
            w.stop();
        }
    }
}

fn shard_bytes(dir: &Path) -> u64 {
    let Ok(files) = std::fs::read_dir(dir) else {
        return 0;
    };
    files
        .flatten()
        .filter(|f| f.path().extension().is_some_and(|e| e == "tkd"))
        .filter_map(|f| f.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Start the workers, seed the cluster, move a shard to the other worker
/// and back — the snapshot handoff is how a shard restarts — and probe
/// parity with a one-shot query over the same rows.
fn setup(
    shape: &Shape,
    tmp: &Path,
    tracer: &mut Tracer,
    setups: &mut SetupSamples,
    checker: &mut Checker,
) -> Result<Cluster, ClusterError> {
    let speed = tracer.speed();
    let start = Instant::now();
    let ds = gen::dataset(shape);
    let dir = tmp.join(format!("cluster-{}", setups.total_s.len()));
    let workers = (0..WORKERS)
        .map(|_| Worker::start("127.0.0.1:0", WorkerConfig::default()))
        .collect::<Result<Vec<_>, _>>()?;
    let addrs: Vec<SocketAddr> = workers.iter().map(Worker::local_addr).collect();

    let build_speed = tracer.speed();
    let build = Instant::now();
    let mut coord = tracer.span("cluster.seed", || {
        Coordinator::seed(&ds, WORKERS, &addrs, ClusterConfig::new(&dir))
    })?;
    setups.build_ms.push(ms(build.elapsed()) * build_speed);

    let restart_speed = tracer.speed();
    let restart = Instant::now();
    tracer.span("cluster.handoff", || coord.handoff(0, 1))?;
    let first = tracer.span("cluster.first_query", || coord.query(K, Algorithm::Big))?;
    setups
        .restart_ms
        .push(ms(restart.elapsed()) * restart_speed);
    coord.handoff(0, 0)?;

    let want = entries(&TkdQuery::new(K).run(&ds));
    checker.same(
        "first cluster answer vs one-shot BIG",
        &entries(&first),
        &want,
    );
    setups.total_s.push(start.elapsed().as_secs_f64() * speed);
    Ok(Cluster {
        ds,
        workers,
        coord,
        dir,
    })
}

fn delta(after: ClusterStats, before: ClusterStats) -> ClusterStats {
    ClusterStats {
        frames: after.frames - before.frames,
        tau_rounds: after.tau_rounds - before.tau_rounds,
        candidates_shipped: after.candidates_shipped - before.candidates_shipped,
        repairs: after.repairs - before.repairs,
    }
}

#[derive(Default)]
struct Samples {
    update: Vec<f64>,
    post_update: Vec<f64>,
    query: BTreeMap<(bool, usize), Vec<f64>>,
    rounds: Rounds,
    queries: u64,
    query_stats: ClusterStats,
    update_frames: u64,
    batches: Vec<(Vec<UpdateOp>, Vec<u32>)>,
    /// `(batches applied, spec, answer)` for the twin to check.
    kept: Vec<(usize, Spec, Answer)>,
}

struct Driver<'a> {
    coord: &'a mut Coordinator,
    ops: OpGen,
    next_id: u32,
    s: Samples,
}

impl Driver<'_> {
    fn query(
        &mut self,
        spec: Spec,
        span: &'static str,
        keep: bool,
        tracer: &mut Tracer,
        checker: &mut Checker,
    ) -> f64 {
        let before = self.coord.stats;
        let mut took = Vec::new();
        let coord = &mut *self.coord;
        let r = timed(&mut took, tracer.speed(), || {
            tracer.span(span, || coord.query(spec.1, spec.0))
        });
        let d = delta(self.coord.stats, before);
        self.s.queries += 1;
        self.s.query_stats.frames += d.frames;
        self.s.query_stats.tau_rounds += d.tau_rounds;
        self.s.query_stats.candidates_shipped += d.candidates_shipped;
        checker.op();
        match r {
            Ok(r) if keep => self.s.kept.push((self.s.batches.len(), spec, entries(&r))),
            Ok(_) => {}
            Err(e) => checker.fail(|| format!("cluster query {spec:?} failed: {e}")),
        }
        took[0]
    }

    fn round(&mut self, keep: bool, tracer: &mut Tracer, checker: &mut Checker) {
        let speed = tracer.speed();
        let start = Instant::now();
        let batch = self.ops.next_batch();
        let inserts = batch
            .iter()
            .filter(|op| matches!(op, UpdateOp::Insert(_)))
            .count() as u32;
        // The coordinator acks no ids; its mirror hands them out densely,
        // and the twin checks this prediction batch by batch.
        let predicted: Vec<u32> = (self.next_id..self.next_id + inserts).collect();
        self.next_id += inserts;
        let frames = self.coord.stats.frames;
        let coord = &mut *self.coord;
        let r = timed(&mut self.s.update, tracer.speed(), || {
            tracer.span("cluster.update", || coord.update(&batch))
        });
        self.s.update_frames += self.coord.stats.frames - frames;
        checker.op();
        if let Err(e) = r {
            checker.fail(|| format!("cluster update failed: {e}"));
        }
        self.ops.ack(&predicted);
        self.s.batches.push((batch, predicted));

        let took = self.query(
            (Algorithm::Big, K),
            "cluster.post_update_query",
            keep,
            tracer,
            checker,
        );
        self.s.post_update.push(took);
        for _ in 0..CYCLES_PER_ROUND {
            for spec in CYCLE {
                let span = match spec.0 {
                    Algorithm::Ibig => "cluster.query_ibig",
                    _ => "cluster.query_big",
                };
                let took = self.query(spec, span, keep, tracer, checker);
                let key = (spec.0 == Algorithm::Ibig, spec.1);
                self.s.query.entry(key).or_default().push(took);
            }
        }
        let total = ms(start.elapsed()) * speed;
        self.s.rounds.push(total, tracer.on());
    }
}

/// Replay every batch on a twin; at each kept answer the twin must agree.
/// With the tracer on, the twin's own apply and query times are the
/// in-process base the cluster's overhead is taken over.
fn replay(ds: &Dataset, s: &Samples, tracer: &mut Tracer, checker: &mut Checker) {
    let mut twin = DynamicEngine::new(ds.clone());
    let mut kept = s.kept.iter().peekable();
    for (i, (batch, predicted)) in s.batches.iter().enumerate() {
        tracer.request(i as u64);
        let report = tracer.span("core.dynamic_apply", || twin.apply_ops(batch));
        if report.error.is_some() || &report.inserted_ids != predicted {
            checker.fail(|| format!("twin diverged at batch {}: {report:?}", i + 1));
        }
        if tracer.on() {
            let q = EngineQuery::new(K);
            let _ = tracer.span("core.first_query", || twin.query(&q));
            let _ = tracer.span("core.steady_query", || twin.query(&q));
        }
        while let Some((_, spec, got)) = kept.next_if(|(at, _, _)| *at == i + 1) {
            let q = EngineQuery::new(spec.1).algorithm(spec.0);
            let want = entries(&twin.query(&q).expect("BIG and IBIG are served"));
            checker.same(
                &format!("cluster {spec:?} after batch {}", i + 1),
                got,
                &want,
            );
        }
    }
}

pub fn run(ctx: &RunCtx<'_>) -> Outcome {
    let shape = if ctx.smoke { SHAPE.smoke() } else { SHAPE };
    let mut checker = Checker::default();
    let mut report = Report::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut setups = SetupSamples::default();

    tracer.set_on(ctx.traced);
    let mut cluster = match setup(&shape, ctx.tmp, &mut tracer, &mut setups, &mut checker) {
        Ok(cluster) => cluster,
        Err(e) => {
            checker.fail(|| format!("set-up failed: {e}"));
            return Outcome {
                report,
                checker,
                tracer,
            };
        }
    };
    tracer.set_on(false);

    let mut driver = Driver {
        coord: &mut cluster.coord,
        ops: OpGen::new(&cluster.ds, shape, ctx.seed),
        next_id: shape.n as u32,
        s: Samples::default(),
    };
    let start = Instant::now();
    let deadline = ctx.deadline(start);
    let mut i = 0usize;
    while Instant::now() < deadline || i < 2 {
        tracer.set_on(ctx.traced && i % 2 == 1);
        tracer.request(i as u64);
        i += 1;
        driver.round(i.is_multiple_of(CHECK_EVERY), &mut tracer, &mut checker);
    }
    let peak = host::peak_rss_mb();
    tracer.set_on(false);
    for spec in CYCLE {
        driver.query(spec, "cluster.final_query", true, &mut tracer, &mut checker);
    }
    let s = driver.s;
    let repairs = cluster.coord.stats.repairs;
    // One snapshot per shard is left: the one its last batch committed.
    let (snapshot_bytes, rows) = (shard_bytes(&cluster.dir), cluster.coord.len());
    let ds = cluster.ds.clone();
    cluster.stop();

    tracer.set_on(ctx.traced);
    replay(&ds, &s, &mut tracer, &mut checker);
    // The repeats that make the set-up metrics medians come after the
    // phase, so that the memory peak is one set-up's and one run's.
    for _ in 1..SETUPS {
        match setup(&shape, ctx.tmp, &mut tracer, &mut setups, &mut checker) {
            Ok(repeat) => repeat.stop(),
            Err(e) => checker.fail(|| format!("repeated set-up failed: {e}")),
        }
    }

    let big = &s.query[&(false, K)];
    setups.report(&mut report);
    report.timing("big_p50_ms", big);
    report.timing("ibig_p50_ms", &s.query[&(true, K)]);
    report.timing("update_p50_ms", &s.update);
    report.set(
        "snapshot_bytes_per_row",
        snapshot_bytes as f64 / rows as f64,
        1,
    );
    s.rounds.report_rate(&mut report, OPS_PER_ROUND);
    report.set("peak_rss_mb", peak, 1);
    report.timing("cluster.post_update_query_ms", &s.post_update);
    let per_query = |total: u64| total as f64 / s.queries as f64;
    report.set(
        "cluster.frames_per_query",
        per_query(s.query_stats.frames),
        s.queries as usize,
    );
    report.set(
        "cluster.tau_rounds_per_query",
        per_query(s.query_stats.tau_rounds),
        s.queries as usize,
    );
    report.set(
        "cluster.candidates_per_query",
        per_query(s.query_stats.candidates_shipped),
        s.queries as usize,
    );
    report.set(
        "cluster.frames_per_update",
        s.update_frames as f64 / s.batches.len() as f64,
        s.batches.len(),
    );
    report.set("cluster.repairs", repairs as f64, 1);

    if ctx.traced {
        layers::kernel_probes(&mut report, ctx.seed, &mut tracer);
        report.timing("cluster.seed_ms", &tracer.ms_of("cluster.seed"));
        report.timing("cluster.handoff_ms", &tracer.ms_of("cluster.handoff"));
        let apply = tracer.ms_of("core.dynamic_apply");
        report.set(
            "core.dynamic_apply_us_per_op",
            median(&apply) * 1e3 / BATCH_OPS as f64,
            apply.len(),
        );
        let steady = tracer.ms_of("core.steady_query");
        report.timing("core.big_query_ms", &steady);
        report.set(
            "core.dynamic_refresh_ms",
            median(&tracer.ms_of("core.first_query")) - median(&steady),
            steady.len(),
        );
        report.set(
            "cluster.over_inproc_ms",
            median(big) - median(&steady),
            steady.len(),
        );
        report.set("store.snapshot_bytes", snapshot_bytes as f64, 1);
        s.rounds.report_overhead(&mut report);
    }
    tracer.set_on(false);
    Outcome {
        report,
        checker,
        tracer,
    }
}
