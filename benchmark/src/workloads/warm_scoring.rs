//! `warm-scoring`: scoring only. Every context is built once in set-up
//! and the measured phase calls the warm surfaces a library user holds —
//! `big_with_scratch`, `ibig_with_scratch`, `ParallelEngine` at
//! `threads(1)` (the serve default), `query_many`, and an in-memory
//! `DynamicEngine::apply_ops` — so `tkd-bitvec::kernels`, the index probes
//! and `tkd-core` do all the work: no preprocessing, no wire, no disk. A
//! preprocessing change must move nothing here but the set-up metrics.
//! Single thread, closed loop.

use super::{
    check_against_rebuild, entries, ms, timed, Checker, Outcome, Rounds, RunCtx, SetupSamples,
};
use crate::gen::{self, OpGen, Shape, BATCH_OPS};
use crate::host;
use crate::layers;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use tkdi::core::big::{big_with_scratch, BigContext};
use tkdi::core::ibig::{ibig_with_scratch, IbigContext};
use tkdi::core::{Preprocessed, PruneStats, ScratchSpace};
use tkdi::index::cost::optimal_bins;
use tkdi::model::{stats::missing_rate, Dataset};
use tkdi::prelude::{Algorithm, DynamicEngine, EngineQuery, ParallelEngine};
use tkdi::store;

/// σ = 10 % at d = 8 keeps Heuristic 2 active and many candidates scored.
const SHAPE: Shape = Shape {
    n: 50_000,
    dims: 8,
    cardinality: 100,
    missing: 0.10,
};
const SETUPS: usize = 5;
/// One round: ten BIG and ten engine calls cycling through `BIG_KS`, one
/// IBIG call per `IBIG_KS`, one `query_many` batch and one update batch,
/// repeated until the time is up.
const PER_ROUND: usize = 10;
const OPS_PER_ROUND: u64 = (2 * PER_ROUND + IBIG_KS.len() + 2) as u64;
const BIG_KS: [usize; 3] = [8, 64, 256];
const IBIG_KS: [usize; 2] = [8, 64];
/// The k every reported latency, layer time and pruning count is taken
/// at. The other ks are load: a median over a mix of ks would sit on the
/// boundary between two of them.
const REPORT_K: usize = 64;

/// The 16 specs of a `query_many` batch: k = 1, 5, …, 61.
fn batch_specs() -> Vec<EngineQuery> {
    (0..16).map(|i| EngineQuery::new(1 + 4 * i)).collect()
}

struct Warm<'a> {
    ds: &'a Dataset,
    big: BigContext<'a>,
    ibig: IbigContext<'a>,
    engine: ParallelEngine<'a>,
    dynamic: DynamicEngine,
    ops: OpGen,
    scratch: ScratchSpace,
    /// The one right answer per k (the data is static).
    want: BTreeMap<usize, Vec<(u64, u64)>>,
}

/// Build every warm surface, time the pieces, probe parity — all four
/// surfaces identical per k — then hand the state to `body`.
fn with_setup<R>(
    shape: &Shape,
    seed: u64,
    tracer: &mut Tracer,
    setups: &mut SetupSamples,
    checker: &mut Checker,
    body: impl FnOnce(&mut Warm<'_>, &mut Tracer, &mut Checker) -> R,
) -> R {
    let speed = tracer.speed();
    let start = Instant::now();
    let ds = gen::dataset(shape);
    let bins = vec![optimal_bins(ds.len(), missing_rate(&ds)); ds.dims()];

    let build_speed = tracer.speed();
    let build = Instant::now();
    let pre = tracer.span("core.preprocess", || Preprocessed::build(&ds));
    let big = tracer.span("index.bitmap_build", || BigContext::build_with(&ds, &pre));
    let ibig: IbigContext<'_> = tracer.span("index.binned_build", || {
        IbigContext::build_with(&ds, &bins, &pre)
    });
    let engine = tracer.span("core.engine_build", || {
        ParallelEngine::builder(&ds).threads(1).build()
    });
    let mut dynamic = tracer.span("core.dynamic_build", || DynamicEngine::new(ds.clone()));
    setups.build_ms.push(ms(build.elapsed()) * build_speed);

    let bytes = tracer.span("store.encode", || store::encode_engine(&mut dynamic));
    let restart_speed = tracer.speed();
    let restart = Instant::now();
    let mut restarted = tracer
        .span("store.load", || store::decode_engine(&bytes))
        .expect("in-memory snapshot decodes");
    let first = restarted.query(&EngineQuery::new(BIG_KS[0]));
    setups
        .restart_ms
        .push(ms(restart.elapsed()) * restart_speed);
    drop(bytes);

    let mut scratch = big.scratch();
    let mut want = BTreeMap::new();
    let ks = BIG_KS
        .into_iter()
        .chain(batch_specs().into_iter().map(|q| q.k));
    for k in ks {
        want.entry(k)
            .or_insert_with(|| entries(&big_with_scratch(&big, k, &mut scratch)));
    }
    checker.same(
        "decoded engine vs BIG",
        &entries(&first.expect("BIG is served")),
        &want[&BIG_KS[0]],
    );
    for k in BIG_KS {
        let spec = EngineQuery::new(k);
        let mut surfaces = vec![
            ("engine", entries(&engine.query(&spec))),
            (
                "query_many",
                entries(&engine.query_many(std::slice::from_ref(&spec))[0]),
            ),
            (
                "dynamic",
                entries(&dynamic.query(&spec).expect("BIG is served")),
            ),
        ];
        if IBIG_KS.contains(&k) {
            let ibig_spec = spec.clone().algorithm(Algorithm::Ibig);
            surfaces.push(("IBIG", entries(&ibig_with_scratch(&ibig, k, &mut scratch))));
            surfaces.push(("engine IBIG", entries(&engine.query(&ibig_spec))));
        }
        for (surface, got) in surfaces {
            checker.same(&format!("{surface} vs BIG at k={k}"), &got, &want[&k]);
        }
    }
    let mut warm = Warm {
        ds: &ds,
        big,
        ibig,
        engine,
        dynamic,
        ops: OpGen::new(&ds, *shape, seed),
        scratch,
        want,
    };
    setups.total_s.push(start.elapsed().as_secs_f64() * speed);
    body(&mut warm, tracer, checker)
}

#[derive(Default)]
struct Samples {
    /// BIG, IBIG and engine timings, by k.
    big: BTreeMap<usize, Vec<f64>>,
    ibig: BTreeMap<usize, Vec<f64>>,
    engine: BTreeMap<usize, Vec<f64>>,
    many: Vec<f64>,
    update: Vec<f64>,
    rounds: Rounds,
    big_stats: PruneStats,
    ibig_stats: PruneStats,
    calls: usize,
}

fn round(w: &mut Warm<'_>, tracer: &mut Tracer, s: &mut Samples, checker: &mut Checker) {
    let speed = tracer.speed();
    let start = Instant::now();
    for _ in 0..PER_ROUND {
        let k = BIG_KS[s.calls % BIG_KS.len()];
        s.calls += 1;
        let r = timed(s.big.entry(k).or_default(), tracer.speed(), || {
            tracer.span("core.big_query", || {
                big_with_scratch(&w.big, k, &mut w.scratch)
            })
        });
        checker.same("BIG", &entries(&r), &w.want[&k]);
        if k == REPORT_K {
            s.big_stats = r.stats;
        }
        let spec = EngineQuery::new(k);
        let r = timed(s.engine.entry(k).or_default(), tracer.speed(), || {
            tracer.span("core.engine_query", || w.engine.query(&spec))
        });
        checker.same("engine", &entries(&r), &w.want[&k]);
    }
    for k in IBIG_KS {
        let r = timed(s.ibig.entry(k).or_default(), tracer.speed(), || {
            tracer.span("core.ibig_query", || {
                ibig_with_scratch(&w.ibig, k, &mut w.scratch)
            })
        });
        checker.same("IBIG", &entries(&r), &w.want[&k]);
        if k == REPORT_K {
            s.ibig_stats = r.stats;
        }
    }

    let specs = batch_specs();
    let answers = timed(&mut s.many, tracer.speed(), || {
        tracer.span("core.query_many", || w.engine.query_many(&specs))
    });
    for (spec, r) in specs.iter().zip(&answers) {
        checker.same("query_many", &entries(r), &w.want[&spec.k]);
    }

    let batch = w.ops.next_batch();
    let report = timed(&mut s.update, tracer.speed(), || {
        tracer.span("core.dynamic_apply", || w.dynamic.apply_ops(&batch))
    });
    if report.applied != BATCH_OPS || report.error.is_some() {
        checker.fail(|| format!("update batch stopped early: {:?}", report.error));
    }
    w.ops.ack(&report.inserted_ids);
    checker.ops(OPS_PER_ROUND);

    s.rounds.push(ms(start.elapsed()) * speed, tracer.on());
}

/// `core.parallel_t2_big_ms`: the same BIG query with two cooperating
/// workers (or one, on a one-core machine).
fn two_thread_probe(
    w: &Warm<'_>,
    threads: usize,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Vec<f64> {
    let engine = ParallelEngine::builder(w.ds).threads(threads).build();
    let spec = EngineQuery::new(REPORT_K);
    let mut samples = Vec::new();
    for _ in 0..30 {
        let r = timed(&mut samples, tracer.speed(), || engine.query(&spec));
        checker.same("two-thread engine", &entries(&r), &w.want[&REPORT_K]);
    }
    samples
}

pub fn run(ctx: &RunCtx<'_>) -> Outcome {
    let shape = if ctx.smoke { SHAPE.smoke() } else { SHAPE };
    let mut checker = Checker::default();
    let mut report = Report::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut setups = SetupSamples::default();

    tracer.set_on(ctx.traced);
    let (seed, traced, cap, cpus) = (ctx.seed, ctx.traced, ctx.cap, ctx.cpus);
    let measure = |w: &mut Warm<'_>, tracer: &mut Tracer, checker: &mut Checker| {
        let start = Instant::now();
        let deadline = ctx.deadline(start);
        let mut s = Samples::default();
        let mut i = 0u64;
        while Instant::now() < deadline || i < 2 {
            tracer.set_on(traced && i % 2 == 1);
            tracer.request(i);
            round(w, tracer, &mut s, checker);
            i += 1;
        }
        let peak = host::peak_rss_mb();
        check_against_rebuild(&mut w.dynamic, "dynamic engine vs rebuild", checker);

        // Encoded after the run's updates, so the size follows the seed.
        let snapshot_bytes = store::encode_engine(&mut w.dynamic).len();
        let mut layer = Report::default();
        layer.set(
            "snapshot_bytes_per_row",
            snapshot_bytes as f64 / w.dynamic.len() as f64,
            1,
        );
        layer.set("store.snapshot_bytes", snapshot_bytes as f64, 1);
        if traced {
            let tau = w.want[&REPORT_K].last().map_or(0, |e| e.1 as usize);
            layers::index_probes(
                &mut layer,
                w.ds,
                w.big.index(),
                w.ibig.index(),
                tau,
                seed,
                tracer,
            );
            // The one place two threads must really run side by side.
            host::pin_to(cpus);
            let t2 = two_thread_probe(w, cap, tracer, checker);
            host::pin_to(&cpus[..cpus.len().min(1)]);
            layer.timing("core.parallel_t2_big_ms", &t2);
            let stats = w.dynamic.stats();
            layer.set("core.compactions", stats.compactions as f64, 1);
            layer.set("core.tombstones", w.dynamic.tombstones() as f64, 1);
        }
        (s, peak, layer)
    };
    let (s, peak, layer) = with_setup(
        &shape,
        ctx.seed,
        &mut tracer,
        &mut setups,
        &mut checker,
        measure,
    );
    report.absorb(layer);
    // The repeats that make the set-up metrics medians come after the
    // phase, so that the memory peak is one set-up's and one run's.
    tracer.set_on(ctx.traced);
    for _ in 1..SETUPS {
        with_setup(
            &shape,
            ctx.seed,
            &mut tracer,
            &mut setups,
            &mut checker,
            |_, _, _| (),
        );
    }

    setups.report(&mut report);
    report.timing("big_p50_ms", &s.big[&REPORT_K]);
    report.timing("ibig_p50_ms", &s.ibig[&REPORT_K]);
    report.timing("update_p50_ms", &s.update);
    s.rounds.report_rate(&mut report, OPS_PER_ROUND);
    report.set("peak_rss_mb", peak, 1);
    report.timing("core.engine_big_p50_ms", &s.engine[&REPORT_K]);
    report.timing("core.query_many_ms", &s.many);

    report.set(
        "core.batch_qps",
        batch_specs().len() as f64 / (median(&s.many) / 1e3),
        s.many.len(),
    );

    if ctx.traced {
        layers::kernel_probes(&mut report, ctx.seed, &mut tracer);
        for (metric, span) in [
            ("core.preprocess_ms", "core.preprocess"),
            ("index.bitmap_build_ms", "index.bitmap_build"),
            ("index.binned_build_ms", "index.binned_build"),
            ("core.dynamic_build_ms", "core.dynamic_build"),
            ("store.encode_ms", "store.encode"),
            ("store.load_ms", "store.load"),
        ] {
            report.timing(metric, &tracer.ms_of(span));
        }
        report.timing("core.big_query_ms", &s.big[&REPORT_K]);
        report.timing("core.ibig_query_ms", &s.ibig[&REPORT_K]);
        report.set(
            "core.parallel_t1_over_seq",
            median(&s.big[&REPORT_K]) / median(&s.engine[&REPORT_K]),
            s.engine[&REPORT_K].len(),
        );
        report.set(
            "core.dynamic_apply_us_per_op",
            median(&s.update) * 1e3 / BATCH_OPS as f64,
            s.update.len(),
        );
        report.set("core.h1_pruned", s.big_stats.h1_pruned as f64, 1);
        report.set("core.h2_pruned", s.big_stats.h2_pruned as f64, 1);
        report.set("core.h3_pruned", s.ibig_stats.h3_pruned as f64, 1);
        report.set("core.scored", s.big_stats.scored as f64, 1);
        report.set(
            "core.scored_per_result",
            s.big_stats.scored as f64 / REPORT_K as f64,
            1,
        );
        s.rounds.report_overhead(&mut report);
    }
    Outcome {
        report,
        checker,
        tracer,
    }
}
