//! `serve-rw`: reads beside writes through the whole stack — frame codec →
//! admission queue → the single engine thread → `DynamicEngine` → standing
//! queries → an atomic snapshot rewrite per acked batch → push.
//!
//! Two connections. The reader runs a closed loop over a seeded mix of
//! `query`, `query_batch` and `query_text` frames. The writer is paced — one
//! 16-op batch every 100 ms, timed from the moment it was *due* — holds
//! two subscriptions and drains both notifications per batch. The writer's
//! schedule sets the length of the run; the reader's completed count is
//! what `ops_per_s` mostly measures.
//!
//! Nothing is verified while the traffic runs: the writer records what
//! the server told it (acks, notifications, one answer of every request
//! kind at every 50th batch), and a twin `DynamicEngine` replays the acked
//! batches afterwards and must agree bit for bit.
//!
//! Known gap: with one reader connection the cross-connection coalescer
//! has next to nothing to coalesce (`serve.coalesced_batches` reads 0–8: a
//! read meeting one of the writer's checkpoint queries); `query_many` is
//! still exercised by the `query_batch` frames.

use super::{
    entries, ms, stable_ids, timed, well_ordered, Checker, Outcome, Rounds, RunCtx, SetupSamples,
    SCOPED, TEXT_K, UNSCOPED,
};
use crate::gen::{self, OpGen, Rng, Shape, BATCH_OPS};
use crate::host;
use crate::layers;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tkdi::core::variants;
use tkdi::model::Dataset;
use tkdi::prelude::{Algorithm, DynamicEngine, EngineQuery, StandingSpec, TkdQuery, UpdateOp};
use tkdi::ql::{self, Outcome as QlOutcome};
use tkdi::serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, QuerySpec, Request, Response,
    UpdateAck, WireEntry, WireNotification,
};
use tkdi::serve::{Client, ServeConfig, ServeError, Server};
use tkdi::skyline::constrained::Constraints;
use tkdi::store;

/// σ = 30 %: queries are cheap, so wire, queue and write-barrier cost show.
const SHAPE: Shape = Shape {
    n: 20_000,
    dims: 6,
    cardinality: 100,
    missing: 0.30,
};
const SETUPS: usize = 9;
const K: usize = TEXT_K;
/// BIG reads draw k from these; latency is reported at [`K`].
const BIG_KS: [usize; 3] = [1, K, 32];
const WRITE_PERIOD: Duration = Duration::from_millis(100);
/// The writer records one answer of every request kind at each multiple.
const CHECK_EVERY: u64 = 50;
/// The constrained subscription's range, on the first dimension.
const RANGE: (usize, f64, f64) = (0, 20.0, 70.0);
/// Batches the registered twin of a traced run replays (each costs a
/// scoped re-query; the unregistered twin replays them all).
const REGISTERED_BATCHES: usize = 60;

type Answer = Vec<(u64, u64)>;

fn answer(wire: &[WireEntry]) -> Answer {
    wire.iter().map(|e| (e.id, e.score)).collect()
}

fn standing_specs() -> [StandingSpec; 2] {
    [
        StandingSpec::new(K),
        StandingSpec::new(K).constrain(RANGE.0, RANGE.1, RANGE.2),
    ]
}

/// The 8 specs of a `query_batch` frame: k = 1, 5, …, 29.
fn batch_specs() -> Vec<QuerySpec> {
    (0..8).map(|i| QuerySpec::new(1 + 4 * i)).collect()
}

struct Service {
    ds: Dataset,
    server: Server,
    reader: Client,
    writer: Client,
    /// Subscription id and subscriber-side result, per standing query.
    standing: Vec<(u64, Answer)>,
    snapshot: PathBuf,
}

/// Build and save the engine, load it back (the zero-copy start), serve
/// it, connect both clients, subscribe, and probe parity with a one-shot
/// query over the same rows.
fn setup(
    shape: &Shape,
    tmp: &Path,
    tracer: &mut Tracer,
    setups: &mut SetupSamples,
    checker: &mut Checker,
) -> Result<Service, ServeError> {
    let speed = tracer.speed();
    let start = Instant::now();
    let ds = gen::dataset(shape);
    let snapshot = tmp.join("serve.tkdsnap");

    let build_speed = tracer.speed();
    let build = Instant::now();
    let mut engine = tracer.span("core.dynamic_build", || DynamicEngine::new(ds.clone()));
    let bytes = tracer.span("store.encode", || store::encode_engine(&mut engine));
    tracer
        .span("store.write", || store::atomic_rewrite(&snapshot, &bytes))
        .expect("snapshot written");
    setups.build_ms.push(ms(build.elapsed()) * build_speed);
    drop((engine, bytes));

    let restart_speed = tracer.speed();
    let restart = Instant::now();
    let engine = tracer
        .span("store.load", || store::load_engine(&snapshot))
        .expect("snapshot loads");
    let config = ServeConfig {
        snapshot: Some(snapshot.clone()),
        load_time: Some(restart.elapsed()),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config)?;
    let started = restart.elapsed();
    // The listener polls `accept` every 25 ms, so a new connection's first
    // frame waits a uniform 0–25 ms that says nothing about a restart. A
    // throw-away `stats` call absorbs it, outside the timing.
    let mut reader = Client::connect(server.local_addr())?;
    reader.stats()?;
    let first_query = Instant::now();
    let first = tracer.span("serve.first_query", || reader.query(QuerySpec::new(K)))?;
    setups
        .restart_ms
        .push(ms(started + first_query.elapsed()) * restart_speed);

    let mut writer = Client::connect(server.local_addr())?;
    let mut standing = Vec::new();
    for spec in standing_specs() {
        let ack = writer.subscribe(&spec)?;
        standing.push((ack.id, answer(&ack.result)));
    }
    let want = entries(&TkdQuery::new(K).run(&ds));
    checker.same("first wire answer vs one-shot BIG", &answer(&first), &want);
    checker.same("subscription's initial result", &standing[0].1, &want);
    setups.total_s.push(start.elapsed().as_secs_f64() * speed);
    Ok(Service {
        ds,
        server,
        reader,
        writer,
        standing,
        snapshot,
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Read {
    Big(usize),
    Ibig,
    Batch,
    Unscoped,
    Scoped,
}

impl Read {
    /// 70 % BIG, 10 % IBIG, 10 % batch, 5 % + 5 % text.
    fn draw(rng: &mut Rng) -> Read {
        match rng.below(100) {
            0..70 => Read::Big(BIG_KS[rng.below(BIG_KS.len())]),
            70..80 => Read::Ibig,
            80..90 => Read::Batch,
            90..95 => Read::Unscoped,
            _ => Read::Scoped,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Read::Big(_) => "serve.query_big",
            Read::Ibig => "serve.query_ibig",
            Read::Batch => "serve.query_batch",
            Read::Unscoped => "serve.text_unscoped",
            Read::Scoped => "serve.text_scoped",
        }
    }
}

/// One request of `kind`; each answer comes back with the k it must obey.
fn send(client: &mut Client, kind: Read) -> Result<Vec<(usize, Answer)>, ServeError> {
    Ok(match kind {
        Read::Big(k) => vec![(k, answer(&client.query(QuerySpec::new(k))?))],
        Read::Ibig => {
            let spec = QuerySpec::new(K).algorithm(Algorithm::Ibig);
            vec![(K, answer(&client.query(spec)?))]
        }
        Read::Batch => {
            let specs = batch_specs();
            let answers = client.query_batch(&specs)?;
            specs
                .iter()
                .zip(&answers)
                .map(|(s, a)| (s.k as usize, answer(a)))
                .collect()
        }
        Read::Unscoped => vec![(K, answer(&client.query_text(UNSCOPED)?))],
        Read::Scoped => vec![(K, answer(&client.query_text(SCOPED)?))],
    })
}

/// The closed-loop reader: its next request leaves when the last answer
/// arrived. Every other request is traced in a traced run.
struct Reader {
    client: Client,
    rng: Rng,
    traced: bool,
    tracer: Tracer,
    checker: Checker,
    samples: BTreeMap<Read, Vec<f64>>,
    /// BIG reads only: a median over the mix would sit between two kinds
    /// and move with the draw, not with the tracing.
    big_reads: Rounds,
    /// Answered requests and the time they took, at the reference speed.
    /// The loop is closed with no think time, so one over the other is
    /// its completion rate.
    answered: u64,
    busy_ms: f64,
    sent: u64,
}

impl Reader {
    fn step(&mut self) {
        let kind = Read::draw(&mut self.rng);
        self.tracer.set_on(self.traced && self.sent % 2 == 1);
        self.tracer.request(self.sent);
        self.sent += 1;
        let speed = self.tracer.speed();
        let start = Instant::now();
        let client = &mut self.client;
        let outcome = self.tracer.span(kind.span(), || send(client, kind));
        let took = ms(start.elapsed()) * speed;
        self.checker.op();
        match outcome {
            Ok(answers) => {
                if let Some((k, bad)) = answers.iter().find(|(k, a)| !well_ordered(a, *k)) {
                    self.checker
                        .fail(|| format!("{kind:?} answer for k={k} is malformed: {bad:?}"));
                }
                self.samples.entry(kind).or_default().push(took);
                self.busy_ms += took;
                self.answered += 1;
                if matches!(kind, Read::Big(_)) {
                    self.big_reads.push(took, self.tracer.on());
                }
            }
            Err(e) => self.checker.fail(|| format!("{kind:?} failed: {e}")),
        }
    }
}

/// One answer of every request kind, as the server gave it right after
/// batch `seq`, plus the subscriber-side standing results at that point.
struct Checkpoint {
    seq: u64,
    reads: Vec<(Read, Vec<(usize, Answer)>)>,
    standing: Vec<Answer>,
}

/// The paced writer and subscriber.
struct Writer {
    client: Client,
    ops: OpGen,
    tracer: Tracer,
    checker: Checker,
    standing: Vec<(u64, Answer)>,
    /// `batch_seq` the next notification of each subscription must carry.
    next_note_seq: Vec<Option<u64>>,
    acked: Vec<(Vec<UpdateOp>, UpdateAck)>,
    checkpoints: Vec<Checkpoint>,
    update_ms: Vec<f64>,
    late_ms: Vec<f64>,
    notify_ms: Vec<f64>,
    queue_depth_max: u64,
    /// Set when an update failed: the generator no longer knows which
    /// ids are live, so the schedule stops instead of compounding.
    halted: bool,
}

fn apply_delta(result: &mut Answer, note: &WireNotification) {
    let mut by_id: BTreeMap<u64, u64> = result.iter().copied().collect();
    for id in &note.removed {
        by_id.remove(id);
    }
    for e in note.added.iter().chain(&note.rescored) {
        by_id.insert(e.id, e.score);
    }
    *result = by_id.into_iter().collect();
    result.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
}

impl Writer {
    /// Send the batch that was due at `due`, wait for its ack and for
    /// both notifications; `last` forces a checkpoint.
    fn step(&mut self, due: Instant, last: bool) {
        if self.halted {
            return;
        }
        let seq = self.acked.len() as u64 + 1;
        let speed = self.tracer.speed();
        self.late_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        let batch = self.ops.next_batch();
        self.tracer.request(seq);
        let client = &mut self.client;
        let ack = self.tracer.span("serve.update", || client.update(&batch));
        self.checker.op();
        let ack = match ack {
            Ok(ack) => ack,
            Err(e) => {
                self.checker
                    .fail(|| format!("update batch {seq} failed: {e}"));
                self.halted = true;
                return;
            }
        };
        self.update_ms.push(ms(due.elapsed()) * speed);
        let acked_at = Instant::now();
        if ack.seq != seq || ack.applied != BATCH_OPS as u64 {
            self.checker
                .fail(|| format!("batch {seq} acked as {ack:?}"));
        }
        let inserted: Vec<u32> = ack.inserted_ids.iter().map(|&id| id as u32).collect();
        self.ops.ack(&inserted);
        self.acked.push((batch, ack));

        for _ in 0..self.standing.len() {
            match self.client.next_notification(Duration::from_secs(5)) {
                Ok(Some(note)) => self.take(&note),
                other => self
                    .checker
                    .fail(|| format!("notification after batch {seq}: {other:?}")),
            }
        }
        self.notify_ms.push(ms(acked_at.elapsed()) * speed);
        if seq.is_multiple_of(CHECK_EVERY) || last {
            self.checkpoint(seq);
        }
    }

    fn take(&mut self, note: &WireNotification) {
        let Some(at) = self.standing.iter().position(|(id, _)| *id == note.id) else {
            self.checker
                .fail(|| format!("notification for unknown subscription {}", note.id));
            return;
        };
        let expected = self.next_note_seq[at].unwrap_or(note.batch_seq);
        if note.batch_seq != expected {
            self.checker.fail(|| {
                format!(
                    "subscription {} got batch_seq {} where {expected} was due (lost or duplicated)",
                    note.id, note.batch_seq
                )
            });
        }
        self.next_note_seq[at] = Some(note.batch_seq + 1);
        apply_delta(&mut self.standing[at].1, note);
    }

    /// The writer is the only writer, so what it reads here is the state
    /// right after batch `seq`.
    fn checkpoint(&mut self, seq: u64) {
        let kinds = [
            Read::Big(K),
            Read::Ibig,
            Read::Batch,
            Read::Unscoped,
            Read::Scoped,
        ];
        let mut reads = Vec::new();
        for kind in kinds {
            self.checker.op();
            match send(&mut self.client, kind) {
                Ok(answers) => reads.push((kind, answers)),
                Err(e) => self
                    .checker
                    .fail(|| format!("checkpoint {kind:?} after batch {seq}: {e}")),
            }
        }
        if let Ok(stats) = self.client.stats() {
            self.queue_depth_max = self.queue_depth_max.max(stats.queue_depth);
        }
        self.checkpoints.push(Checkpoint {
            seq,
            reads,
            standing: self.standing.iter().map(|(_, r)| r.clone()).collect(),
        });
    }
}

/// Run the traffic: two threads when the machine allows two busy
/// generator threads, one thread taking turns otherwise.
fn traffic(reader: &mut Reader, writer: &mut Writer, start: Instant, batches: u32, cap: usize) {
    let due = |i: u32| start + WRITE_PERIOD * i;
    if cap < 2 {
        for i in 0..batches {
            while Instant::now() < due(i) {
                reader.step();
            }
            writer.step(due(i), i + 1 == batches);
        }
        return;
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                reader.step();
            }
        });
        for i in 0..batches {
            std::thread::sleep(due(i).saturating_duration_since(Instant::now()));
            writer.step(due(i), i + 1 == batches);
        }
        done.store(true, Ordering::Release);
    });
}

fn text_on(engine: &mut DynamicEngine, statement: &str) -> Answer {
    let plan = ql::compile(statement, engine.dims()).expect("statement compiles");
    match ql::run_on_engine(&plan, engine) {
        Ok(QlOutcome::Rows(r)) => entries(&r),
        other => panic!("twin answered {other:?} to {statement}"),
    }
}

/// What the twin says each request kind must have answered.
fn twin_read(twin: &mut DynamicEngine, kind: Read) -> Vec<Answer> {
    let one = |twin: &mut DynamicEngine, q: EngineQuery| {
        vec![entries(&twin.query(&q).expect("BIG and IBIG are served"))]
    };
    match kind {
        Read::Big(k) => one(twin, EngineQuery::new(k)),
        Read::Ibig => one(twin, EngineQuery::new(K).algorithm(Algorithm::Ibig)),
        Read::Batch => {
            let specs: Vec<EngineQuery> = batch_specs()
                .iter()
                .map(|s| EngineQuery::new(s.k as usize))
                .collect();
            let answers = twin.query_many(&specs, 1).expect("BIG is served");
            answers.iter().map(entries).collect()
        }
        Read::Unscoped => vec![text_on(twin, UNSCOPED)],
        Read::Scoped => vec![text_on(twin, SCOPED)],
    }
}

/// What a re-query says the constrained subscription must hold.
fn constrained_by_hand(twin: &DynamicEngine) -> Answer {
    let constraints = Constraints::none(twin.dims()).with_range(RANGE.0, RANGE.1, RANGE.2);
    let r = variants::constrained_top_k(&twin.snapshot(), &constraints, &TkdQuery::new(K));
    stable_ids(entries(&r), &twin.live_ids())
}

fn compare_checkpoint(twin: &mut DynamicEngine, cp: &Checkpoint, checker: &mut Checker) {
    for (kind, got) in &cp.reads {
        let got: Vec<&Answer> = got.iter().map(|(_, a)| a).collect();
        let want = twin_read(twin, *kind);
        if got != want.iter().collect::<Vec<_>>() {
            checker.fail(|| {
                format!(
                    "{kind:?} after batch {}: got {got:?}, want {want:?}",
                    cp.seq
                )
            });
        }
    }
    let what = format!("standing result after batch {}", cp.seq);
    let full = twin_read(twin, Read::Big(K)).remove(0);
    checker.same(&what, &cp.standing[0], &full);
    checker.same(&what, &cp.standing[1], &constrained_by_hand(twin));
}

/// Replay the acked batches on a twin and compare it with everything the
/// server said. With the tracer on, the replay doubles as the layer probe:
/// `apply_ops` with and without the two registrations, the first query
/// after a batch against a steady one, `snapshot()`, encode and write.
fn replay(
    ds: &Dataset,
    acked: &[(Vec<UpdateOp>, UpdateAck)],
    checkpoints: &[Checkpoint],
    tmp: &Path,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> (DynamicEngine, Option<DynamicEngine>) {
    let mut twin = DynamicEngine::new(ds.clone());
    let mut registered = tracer.on().then(|| {
        let mut e = DynamicEngine::new(ds.clone());
        for spec in standing_specs() {
            e.register(spec).expect("spec is valid");
        }
        e
    });
    let probe_file = tmp.join("probe.tkdsnap");
    let mut checkpoints = checkpoints.iter().peekable();
    for (i, (ops, ack)) in acked.iter().enumerate() {
        tracer.request(i as u64 + 1);
        let report = tracer.span("core.dynamic_apply", || twin.apply_ops(ops));
        let inserted: Vec<u64> = report
            .inserted_ids
            .iter()
            .map(|&id| u64::from(id))
            .collect();
        if report.error.is_some()
            || inserted != ack.inserted_ids
            || twin.len() as u64 != ack.live
            || twin.tombstones() as u64 != ack.tombstones
        {
            checker.fail(|| format!("twin diverged at batch {}: {report:?} vs {ack:?}", i + 1));
        }
        if let Some(e) = registered.as_mut().filter(|_| i < REGISTERED_BATCHES) {
            tracer.span("core.standing_apply", || e.apply_ops(ops));
        }
        if tracer.on() {
            let q = EngineQuery::new(K);
            let _ = tracer.span("core.first_query", || twin.query(&q));
            let _ = tracer.span("core.steady_query", || twin.query(&q));
            if i % 10 == 0 {
                tracer.span("core.dynamic_snapshot", || twin.snapshot());
                let bytes = tracer.span("store.encode", || store::encode_engine(&mut twin));
                let _ = tracer.span("store.write", || store::atomic_rewrite(&probe_file, &bytes));
            }
        }
        if let Some(cp) = checkpoints.next_if(|cp| cp.seq == i as u64 + 1) {
            compare_checkpoint(&mut twin, cp, checker);
        }
    }
    (twin, registered)
}

/// `serve.encode_us` / `serve.decode_us`: one `query` request plus its
/// answer through the frame codec, on frames of this run.
fn codec_probe(report: &mut Report, sample: &Answer, tracer: &mut Tracer) {
    let request = Request::Query(QuerySpec::new(K));
    let response = Response::QueryResult(
        sample
            .iter()
            .map(|&(id, score)| WireEntry { id, score })
            .collect(),
    );
    const ROUNDS: usize = 2_000;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (a, b) = timed(&mut enc, tracer.speed(), || {
            (encode_request(&request), encode_response(&response))
        });
        let (a, b) = (a.expect("request encodes"), b.expect("response encodes"));
        let (c, d) = timed(&mut dec, tracer.speed(), || {
            (decode_request(&a), decode_response(&b))
        });
        assert!(c.is_ok() && d.is_ok(), "frames of this run decode");
    }
    report.set("serve.encode_us", median(&enc) * 1e3, ROUNDS);
    report.set("serve.decode_us", median(&dec) * 1e3, ROUNDS);
}

pub fn run(ctx: &RunCtx<'_>) -> Outcome {
    let shape = if ctx.smoke { SHAPE.smoke() } else { SHAPE };
    let mut checker = Checker::default();
    let mut report = Report::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut setups = SetupSamples::default();

    tracer.set_on(ctx.traced);
    let service = match setup(&shape, ctx.tmp, &mut tracer, &mut setups, &mut checker) {
        Ok(service) => service,
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
    let Service {
        ds,
        server,
        reader,
        mut writer,
        standing,
        snapshot,
    } = service;

    let stats_before = writer.stats().unwrap_or_default();
    let batches = ((ctx.seconds / WRITE_PERIOD.as_secs_f64()) as u32).max(2);
    let start = Instant::now();
    let mut reader = Reader {
        client: reader,
        rng: Rng::new(ctx.seed, 5),
        traced: ctx.traced,
        tracer: Tracer::new(origin),
        checker: Checker::default(),
        samples: BTreeMap::new(),
        big_reads: Rounds::default(),
        answered: 0,
        busy_ms: 0.0,
        sent: 0,
    };
    let mut writer = Writer {
        client: writer,
        ops: OpGen::new(&ds, shape, ctx.seed),
        tracer: Tracer::new(origin),
        checker: Checker::default(),
        next_note_seq: vec![None; standing.len()],
        standing,
        acked: Vec::new(),
        checkpoints: Vec::new(),
        update_ms: Vec::new(),
        late_ms: Vec::new(),
        notify_ms: Vec::new(),
        queue_depth_max: 0,
        halted: false,
    };
    writer.tracer.set_on(ctx.traced);
    traffic(&mut reader, &mut writer, start, batches, ctx.cap);
    let peak = host::peak_rss_mb();
    let stats_after = writer.client.stats().unwrap_or_default();

    // Stop the server before anything else competes with it for a core;
    // it hands back the engine it served.
    drop((reader.client, writer.client));
    let served = server.stop();

    tracer.set_on(ctx.traced);
    let (mut twin, registered) = replay(
        &ds,
        &writer.acked,
        &writer.checkpoints,
        ctx.tmp,
        &mut tracer,
        &mut checker,
    );
    let want = twin_read(&mut twin, Read::Big(K)).remove(0);
    match served {
        Ok(mut engine) => checker.same(
            "served engine vs twin at the end",
            &twin_read(&mut engine, Read::Big(K)).remove(0),
            &want,
        ),
        Err(e) => checker.fail(|| format!("server did not hand the engine back: {e}")),
    }
    match store::load_engine(&snapshot) {
        Ok(mut durable) => checker.same(
            "snapshot on disk vs twin at the end",
            &twin_read(&mut durable, Read::Big(K)).remove(0),
            &want,
        ),
        Err(e) => checker.fail(|| format!("final snapshot does not load: {e}")),
    }
    // The file the last acked batch left behind, over the rows it holds.
    let snapshot_bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());
    // The repeats that make the set-up metrics medians come after the
    // phase, so that the memory peak is one set-up's and one run's.
    for _ in 1..SETUPS {
        match setup(&shape, ctx.tmp, &mut tracer, &mut setups, &mut checker) {
            Ok(Service { server, .. }) => drop(server.stop()),
            Err(e) => checker.fail(|| format!("repeated set-up failed: {e}")),
        }
    }
    if writer.acked.len() as u32 != batches {
        checker.fail(|| format!("{} of {batches} batches acked", writer.acked.len()));
    }

    let read = |kind: Read| reader.samples.get(&kind).cloned().unwrap_or_default();
    let all_big: Vec<f64> = BIG_KS.iter().flat_map(|&k| read(Read::Big(k))).collect();
    setups.report(&mut report);
    report.timing("big_p50_ms", &read(Read::Big(K)));
    report.timing("ibig_p50_ms", &read(Read::Ibig));
    report.timing("update_p50_ms", &writer.update_ms);
    report.set(
        "snapshot_bytes_per_row",
        snapshot_bytes as f64 / twin.len() as f64,
        1,
    );
    report.set(
        "ops_per_s",
        reader.answered as f64 / (reader.busy_ms / 1e3),
        reader.answered as usize,
    );
    report.set("peak_rss_mb", peak, 1);
    report.set(
        "serve.big_p99_ms",
        percentile(&all_big, 99.0),
        all_big.len(),
    );
    report.timing("ql.text_p50_ms", &read(Read::Scoped));
    report.set(
        "serve.batch_qps",
        batch_specs().len() as f64 / (median(&read(Read::Batch)) / 1e3),
        read(Read::Batch).len(),
    );
    report.timing("serve.notify_after_ack_ms", &writer.notify_ms);
    report.set(
        "serve.writer_late_ms",
        percentile(&writer.late_ms, 100.0),
        writer.late_ms.len(),
    );
    for (metric, before, after) in [
        (
            "serve.served_queries",
            stats_before.served_queries,
            stats_after.served_queries,
        ),
        (
            "serve.coalesced_batches",
            stats_before.coalesced_batches,
            stats_after.coalesced_batches,
        ),
        (
            "serve.overloaded",
            stats_before.overloaded,
            stats_after.overloaded,
        ),
        (
            "serve.timeouts",
            stats_before.timeouts,
            stats_after.timeouts,
        ),
    ] {
        report.set(metric, (after - before) as f64, 1);
    }
    report.set("serve.queue_depth_max", writer.queue_depth_max as f64, 1);
    report.set("core.compactions", stats_after.compactions as f64, 1);
    report.set("core.tombstones", stats_after.tombstones as f64, 1);

    if ctx.traced {
        layers::kernel_probes(&mut report, ctx.seed, &mut tracer);
        codec_probe(&mut report, &want, &mut tracer);
        for (metric, span) in [
            ("core.dynamic_build_ms", "core.dynamic_build"),
            ("core.dynamic_snapshot_ms", "core.dynamic_snapshot"),
            ("store.encode_ms", "store.encode"),
            ("store.write_ms", "store.write"),
            ("store.load_ms", "store.load"),
        ] {
            report.timing(metric, &tracer.ms_of(span));
        }
        let apply = tracer.ms_of("core.dynamic_apply");
        report.set(
            "core.dynamic_apply_us_per_op",
            median(&apply) * 1e3 / BATCH_OPS as f64,
            apply.len(),
        );
        let with_standing = tracer.ms_of("core.standing_apply");
        report.set(
            "core.standing_patch_ms",
            median(&with_standing) - median(&apply[..with_standing.len()]),
            with_standing.len(),
        );
        let (mut patched, mut fallbacks) = (0, 0);
        if let Some(e) = &registered {
            for stats in e
                .standing_ids()
                .iter()
                .filter_map(|&id| e.standing_stats(id))
            {
                patched += stats.patched;
                fallbacks += stats.fallbacks;
            }
        }
        report.set("core.standing_patched", patched as f64, 1);
        report.set("core.standing_fallbacks", fallbacks as f64, 1);
        let steady = tracer.ms_of("core.steady_query");
        report.set(
            "core.dynamic_refresh_ms",
            median(&tracer.ms_of("core.first_query")) - median(&steady),
            steady.len(),
        );
        report.timing("core.big_query_ms", &steady);
        report.set(
            "serve.wire_overhead_us",
            (median(&read(Read::Big(K))) - median(&steady)) * 1e3,
            steady.len(),
        );
        report.set("store.snapshot_bytes", snapshot_bytes as f64, 1);
        let (mut compile, mut exec) = (Vec::new(), Vec::new());
        for _ in 0..20 {
            let plan = timed(&mut compile, tracer.speed(), || {
                ql::compile(SCOPED, twin.dims())
            });
            let plan = plan.expect("statement compiles");
            let _ = timed(&mut exec, tracer.speed(), || {
                ql::run_on_engine(&plan, &mut twin)
            });
        }
        report.set("ql.compile_us", median(&compile) * 1e3, compile.len());
        report.timing("ql.exec_scoped_ms", &exec);
        reader.big_reads.report_overhead(&mut report);
    }
    checker.merge(reader.checker);
    checker.merge(writer.checker);
    tracer.set_on(false);
    tracer.absorb(reader.tracer);
    tracer.absorb(writer.tracer);
    Outcome {
        report,
        checker,
        tracer,
    }
}
