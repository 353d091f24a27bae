//! The differential harness pinning the multi-process cluster to the
//! in-process engines.
//!
//! Every cell spins up real worker processes-worth of machinery (worker
//! threads speaking the v5 cluster plane over real TCP sockets, shard
//! snapshots on disk) and demands **bit-identical** answers — entries,
//! scores, tie order, and the H1 cutoff position — against a
//! [`ParallelEngine`] (static grid) or a twin [`DynamicEngine`]
//! (interleaved updates). The failure legs kill a worker mid-stream and
//! require either a typed error or a correct retried answer; a wrong
//! answer is never acceptable. The scatter legs kill a worker behind a
//! frame proxy on a chosen frame of a fan-out, while another worker's
//! answer to the same fan-out is outstanding — in a query's bounds or
//! partials phase, in an update's fan-out, and on a worker that hosts
//! two of three shards — and then require the next update and query to
//! match the twin.

mod common;

use common::{apply_to_mirror, random_op, synth, Mirror, Mix};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tkdi::cluster::{ClusterConfig, ClusterError, Coordinator, Worker, WorkerConfig};
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{
    Algorithm, BinChoice, DynamicEngine, EngineQuery, ParallelEngine, TkdResult, UpdateOp,
};
use tkdi::serve::cluster_wire::{
    decode_cluster_request_body, decode_cluster_response_body, encode_cluster_request,
    encode_cluster_response, ClusterRequest, ClusterResponse, ShardPhase, ShardQuery, ShardUpdate,
    WireCandidate,
};
use tkdi::serve::protocol::{read_frame, write_frame_bytes, FramePolicy, DEFAULT_MAX_FRAME};
use tkdi::serve::{Client, ServeError};

const SHARDS: [usize; 3] = [1, 2, 3];
const MISSING: [u64; 3] = [10, 30, 60];
const ALGS: [Algorithm; 2] = [Algorithm::Big, Algorithm::Ibig];

fn grid_ks(n: usize) -> Vec<usize> {
    let mut ks = vec![1, 3, n.saturating_sub(1).max(1), n, n + 5];
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// A unique scratch handoff directory per cell, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tkd-cluster-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start_workers(n: usize) -> (Vec<Worker>, Vec<SocketAddr>) {
    let workers: Vec<Worker> = (0..n)
        .map(|_| Worker::start("127.0.0.1:0", WorkerConfig::default()).expect("worker start"))
        .collect();
    let addrs = workers.iter().map(Worker::local_addr).collect();
    (workers, addrs)
}

fn entries(r: &TkdResult) -> Vec<(u32, usize)> {
    r.iter().map(|e| (e.id, e.score)).collect()
}

/// Static grid: shard counts × missing rates × both algorithms × edge
/// ks, against a `ParallelEngine` over the same rows.
#[test]
fn cluster_differential_grid() {
    for (seed, &missing) in MISSING.iter().enumerate() {
        let ds = synth(700 + seed as u64, 60, 3, 6, missing);
        let oracle = ParallelEngine::builder(&ds).threads(2).build();
        for &shards in &SHARDS {
            // Fresh fleet per cell: a worker keeps hosting its shards
            // until handed off, so each cluster gets its own workers.
            let (workers, addrs) = start_workers(2);
            let scratch = ScratchDir::new("grid");
            let mut coord = Coordinator::seed(&ds, shards, &addrs, ClusterConfig::new(&scratch.0))
                .expect("seed cluster");
            for &alg in &ALGS {
                for k in grid_ks(ds.len()) {
                    let reference = oracle.query(&EngineQuery::new(k).algorithm(alg));
                    let got = coord.query(k, alg).expect("cluster query");
                    assert_eq!(
                        entries(&got),
                        entries(&reference),
                        "missing={missing}% shards={shards} alg={alg:?} k={k}"
                    );
                    assert_eq!(
                        got.stats.h1_pruned, reference.stats.h1_pruned,
                        "H1 must fire at the same queue position \
                         (missing={missing}% shards={shards} alg={alg:?} k={k})"
                    );
                }
            }
            for w in workers {
                w.stop();
            }
        }
    }
}

/// Interleaved updates (inserts, deletes, cell edits) routed through
/// the cluster's single-writer path, with a mid-run shard handoff,
/// against a twin dynamic engine fed the identical op stream.
#[test]
fn cluster_interleaved_updates_and_handoff() {
    const ROUNDS: usize = 8;
    const OPS_PER_ROUND: usize = 5;
    for (seed, &missing) in MISSING.iter().enumerate() {
        let ds = synth(800 + seed as u64, 40, 3, 6, missing);
        let initial: Vec<Vec<Option<f64>>> = (0..ds.len())
            .map(|i| (0..ds.dims()).map(|d| ds.value(i as u32, d)).collect())
            .collect();
        for &shards in &[2usize, 3] {
            let (workers, addrs) = start_workers(2);
            let scratch = ScratchDir::new("updates");
            let mut coord = Coordinator::seed(&ds, shards, &addrs, ClusterConfig::new(&scratch.0))
                .expect("seed cluster");
            // A twin engine fed the identical op stream is the oracle.
            let mut twin = DynamicEngine::new(ds.clone());
            let mut rng = Mix(0xC1E5_7E00 + seed as u64 * 31 + shards as u64);
            let mut mirror = Mirror::seeded(&initial);
            let mut next_id = ds.len() as u32;
            for round in 0..ROUNDS {
                let ops: Vec<UpdateOp> = (0..OPS_PER_ROUND)
                    .map(|_| {
                        let op = random_op(&mut rng, &mirror, ds.dims(), missing);
                        apply_to_mirror(&mut mirror, &op, &mut next_id);
                        op
                    })
                    .collect();
                let report = twin.apply_ops(&ops);
                assert!(report.error.is_none(), "harness sends only valid ops");
                coord.update(&ops).expect("cluster update");
                assert_eq!(coord.len(), mirror.rows.len());
                // The handoff dir stays self-describing: the manifest
                // names each shard's committed snapshot, the stamp in
                // the file name agrees, and the file exists.
                let manifest =
                    tkdi::store::ClusterManifest::load(coord.manifest_path()).expect("manifest");
                assert_eq!(manifest.shards.len(), shards);
                assert_eq!(
                    manifest.shards.iter().map(|e| e.live).sum::<u64>(),
                    mirror.rows.len() as u64
                );
                for e in &manifest.shards {
                    assert_eq!(
                        tkdi::cluster::seq_from_path(std::path::Path::new(&e.path)),
                        Some(e.seq)
                    );
                    assert!(scratch.0.join(&e.path).is_file());
                }
                if round == ROUNDS / 2 {
                    // Move shard 0 to the other worker mid-run; answers
                    // afterwards must not change by a bit.
                    let to = (coord.worker_of(0) + 1) % addrs.len();
                    coord.handoff(0, to).expect("handoff");
                    assert_eq!(coord.worker_of(0), to);
                }
                for k in [1usize, 7] {
                    for &alg in &ALGS {
                        let reference = twin
                            .query(&EngineQuery::new(k).algorithm(alg))
                            .expect("BIG/IBIG supported");
                        let got = coord.query(k, alg).expect("cluster query");
                        assert_eq!(
                            entries(&got),
                            entries(&reference),
                            "missing={missing}% shards={shards} round={round} alg={alg:?} k={k}"
                        );
                        assert_eq!(
                            got.stats.h1_pruned, reference.stats.h1_pruned,
                            "missing={missing}% shards={shards} round={round} alg={alg:?} k={k}"
                        );
                    }
                }
            }
            for w in workers {
                w.stop();
            }
        }
    }
}

/// Killing a worker mid-stream must never produce a wrong answer: the
/// coordinator detects the death, re-assigns the dead worker's shards
/// from their newest committed snapshots, and the retried query is
/// bit-identical. With every worker dead, the query fails typed.
#[test]
fn killed_worker_is_repaired_or_fails_typed() {
    let ds = synth(900, 50, 3, 6, 30);
    let (mut workers, addrs) = start_workers(3);
    let scratch = ScratchDir::new("kill");
    let mut coord =
        Coordinator::seed(&ds, 3, &addrs, ClusterConfig::new(&scratch.0)).expect("seed cluster");

    // Route a batch through first so at least one shard has seq > 0 and
    // repair has to pick the *newest* snapshot, not the seed.
    let ops = vec![
        UpdateOp::Insert(vec![Some(5.0), Some(5.0), Some(5.0)]),
        UpdateOp::Delete(3),
    ];
    coord.update(&ops).expect("cluster update");
    let mut twin = DynamicEngine::new(ds.clone());
    assert!(twin.apply_ops(&ops).error.is_none());

    // Baseline agreement before any failure.
    let reference = entries(&twin.query(&EngineQuery::new(5)).expect("big"));
    assert_eq!(
        entries(&coord.query(5, Algorithm::Big).expect("healthy query")),
        reference
    );

    // Kill one worker abruptly (no handoff, no drain). The next query
    // hits a dead socket; the coordinator must repair and retry.
    workers.remove(1).kill();
    let got = coord.query(5, Algorithm::Big);
    match got {
        Ok(r) => assert_eq!(entries(&r), reference, "retried answer must be exact"),
        Err(e) => assert!(
            matches!(
                e,
                ClusterError::Worker(_) | ClusterError::NoWorkers | ClusterError::Store(_)
            ),
            "typed error only, got {e}"
        ),
    }
    // With two survivors the repair must actually succeed.
    let healed = coord.query(5, Algorithm::Big).expect("repaired query");
    assert_eq!(entries(&healed), reference);
    assert!(coord.stats.repairs >= 1, "repair path must have run");
    assert_eq!(coord.live_workers(), 2);

    // Updates keep flowing through the repaired topology.
    let more = vec![UpdateOp::Insert(vec![Some(4.0), None, Some(4.0)])];
    coord.update(&more).expect("post-repair update");
    assert!(twin.apply_ops(&more).error.is_none());
    let reference = entries(&twin.query(&EngineQuery::new(5)).expect("big"));
    assert_eq!(
        entries(&coord.query(5, Algorithm::Big).expect("post-repair query")),
        reference
    );

    // Kill the rest: the query must fail with a typed error, never a
    // partial or wrong result.
    for w in workers.drain(..) {
        w.kill();
    }
    let err = coord.query(5, Algorithm::Big).expect_err("no workers left");
    assert!(
        matches!(
            err,
            ClusterError::NoWorkers | ClusterError::Worker(_) | ClusterError::Store(_)
        ),
        "typed error only, got {err}"
    );
}

/// Seeding into a handoff directory a killed cluster left behind: the
/// seed rewrites each `shard-S.seq0.tkd` with the very bytes the old
/// shard started from, right beside that shard's op log. The rewrite
/// retires the log, so the new cluster starts from the seed data alone:
/// the old batches neither replay into the fresh shards nor move their
/// seqs ahead of the coordinator's.
#[test]
fn reseeding_a_reused_directory_leaves_the_old_logs_behind() {
    let ds = synth(950, 40, 3, 6, 30);
    let scratch = ScratchDir::new("reseed");
    let (workers, addrs) = start_workers(2);
    let mut coord =
        Coordinator::seed(&ds, 2, &addrs, ClusterConfig::new(&scratch.0)).expect("seed cluster");
    // Two batches over both shards (rows 0..20 and 20..40): each shard's
    // log holds two records, short of a checkpoint.
    for ops in [
        vec![UpdateOp::Delete(0), UpdateOp::Delete(39)],
        vec![UpdateOp::Delete(1), UpdateOp::Delete(38)],
    ] {
        coord.update(&ops).expect("cluster update");
    }
    let logs: Vec<PathBuf> = (0..2)
        .map(|j| tkdi::store::log_path(&scratch.0.join(format!("shard-{j}.seq0.tkd"))))
        .collect();
    assert!(logs.iter().all(|log| log.is_file()), "both shards logged");
    for w in workers {
        w.kill();
    }
    drop(coord);

    let (workers, addrs) = start_workers(2);
    let mut coord = Coordinator::seed(&ds, 2, &addrs, ClusterConfig::new(&scratch.0))
        .expect("re-seed into the reused directory");
    assert!(
        logs.iter().all(|log| !log.exists()),
        "the seed retired them"
    );
    let mut twin = DynamicEngine::new(ds.clone());
    let ops = [UpdateOp::Delete(5), UpdateOp::Delete(25)];
    coord.update(&ops).expect("seq 1 follows the seed");
    assert!(twin.apply_ops(&ops).error.is_none());
    assert_eq!(coord.len(), twin.len());
    for k in [1usize, 5] {
        for &alg in &ALGS {
            let reference = twin
                .query(&EngineQuery::new(k).algorithm(alg))
                .expect("BIG/IBIG supported");
            let got = coord.query(k, alg).expect("cluster query");
            assert_eq!(entries(&got), entries(&reference), "alg={alg:?} k={k}");
        }
    }
    for w in workers {
        w.stop();
    }
}

/// A rejected `shard_update` must leave the worker exactly where its
/// committed snapshot is. A batch applies whole or not at all, so the
/// valid insert ahead of the bad op must not reach the hosted engine:
/// otherwise the next accepted batch commits that orphan insert and a
/// handoff ships it. Driven frame by frame over a real socket, against a
/// twin engine that replays the accepted batches only.
#[test]
fn rejected_shard_update_rolls_back_to_the_committed_snapshot() {
    let ds = synth(4242, 30, 3, 5, 30);
    let n = ds.len() as u64;
    let scratch = ScratchDir::new("rollback");
    let seed_path = scratch.0.join("shard-0.seq0.tkd");
    let options = DynamicOptions {
        bins: BinChoice::Auto,
        policy: CompactionPolicy::never(),
    };
    tkdi::store::save_engine(
        &seed_path,
        &DynamicEngine::with_options(ds.clone(), options),
    )
    .expect("seed snapshot");
    // The twin takes the worker's own route: loaded from the seed file,
    // then fed the accepted batches.
    let mut twin = tkdi::store::load_engine(&seed_path).expect("twin load");
    let twin_bytes = |twin: &mut DynamicEngine| {
        let path = scratch.0.join("twin.tkd");
        tkdi::store::save_engine(&path, twin).expect("twin save");
        std::fs::read(path).expect("twin bytes")
    };
    // What the shard's checkpoint and the op log beside it recover to.
    let recovered = |path: &str| {
        let engine = tkdi::store::load_engine(path).expect("shard recovers");
        tkdi::store::encode_engine(&engine)
    };

    let (workers, addrs) = start_workers(1);
    let mut client = Client::connect(addrs[0]).expect("connect");
    let assign = ClusterRequest::Assign {
        shard: 0,
        path: seed_path.display().to_string(),
        replay: Vec::new(),
    };
    client.cluster_call(&assign).expect("assign");
    let update = |client: &mut Client, seq: u64, ops: &[UpdateOp]| {
        let ops = ops.to_vec();
        match client.cluster_call(&ClusterRequest::ShardUpdate(ShardUpdate {
            shard: 0,
            seq,
            ops,
        })) {
            Ok(ClusterResponse::ShardUpdateAck(ack)) => Ok(ack),
            Ok(other) => panic!("unexpected answer {other:?}"),
            Err(e) => Err(e),
        }
    };
    // Bounds and partials of a fixed candidate set (two members, one
    // stranger), both algorithms — the hosted engine's view.
    let row = |id: u32| (0..ds.dims()).map(|d| ds.value(id, d)).collect();
    let cand = |values, member| WireCandidate { values, member };
    let candidates = vec![
        cand(row(0), Some(0)),
        cand(row(7), Some(7)),
        cand(vec![Some(2.0), None, Some(1.0)], None),
    ];
    let outcomes = |client: &mut Client| -> Vec<ClusterResponse> {
        let mut all = Vec::new();
        for &algorithm in &ALGS {
            for phase in [ShardPhase::Bounds, ShardPhase::Partials] {
                let query = ShardQuery {
                    shard: 0,
                    algorithm,
                    phase,
                    tau: None,
                    candidates: candidates.clone(),
                };
                let answer = client.cluster_call(&ClusterRequest::ShardQuery(query));
                all.push(answer.expect("shard query"));
            }
        }
        all
    };

    // seq 1, accepted.
    let first = [UpdateOp::Insert(vec![Some(2.0), None, Some(3.0)])];
    assert!(twin.apply_ops(&first).error.is_none());
    let ack1 = update(&mut client, 1, &first).expect("seq 1");
    assert_eq!((ack1.live, &ack1.inserted), (n + 1, &vec![n]));
    let committed = recovered(&ack1.path);
    assert_eq!(committed, twin_bytes(&mut twin));
    let before = outcomes(&mut client);

    // seq 2, rejected at its second op; its first op is a valid insert.
    let poisoned = [
        UpdateOp::Insert(vec![Some(9.0), Some(9.0), Some(9.0)]),
        UpdateOp::Delete(9_999),
    ];
    match update(&mut client, 2, &poisoned) {
        Err(ServeError::Rejected { index: 1, .. }) => {}
        other => panic!("poisoned batch must be rejected at op 1, got {other:?}"),
    }
    assert_eq!(outcomes(&mut client), before);
    assert_eq!(recovered(&ack1.path), committed);

    // seq 2 again, accepted: exactly its own insert, under the id a
    // replay of the accepted batches hands out.
    let second = [
        UpdateOp::Insert(vec![None, Some(4.0), Some(0.0)]),
        UpdateOp::Delete(3),
    ];
    assert!(twin.apply_ops(&second).error.is_none());
    let ack2 = update(&mut client, 2, &second).expect("seq 2");
    assert_eq!((ack2.live, &ack2.inserted), (n + 1, &vec![n + 1]));

    // The handoff checkpoints the logged batches under seq 2.
    let handoff = client.cluster_call(&ClusterRequest::Handoff { shard: 0 });
    let checkpoint = scratch.0.join("shard-0.seq2.tkd");
    let handed = ClusterResponse::HandoffAck {
        path: checkpoint.display().to_string(),
        seq: 2,
    };
    assert_eq!(handoff.expect("handoff"), handed);
    assert_eq!(
        std::fs::read(&checkpoint).expect("seq2 checkpoint"),
        twin_bytes(&mut twin),
        "handed-off snapshot must hold the accepted batches only"
    );
    for w in workers {
        w.stop();
    }
}

/// A worker behind a frame proxy that kills it on cue. Frames pass both
/// ways until, once `armed`, the `nth` request matching the cue arrives;
/// then the worker is killed — before it sees that request, or with
/// `forward` after it has answered it — and the coordinator's connection
/// is cut without an answer.
struct Doomed {
    addr: SocketAddr,
    armed: Arc<AtomicBool>,
    /// Whether the cue fired, once the coordinator has hung up.
    proxy: JoinHandle<bool>,
}

type Cue = Box<dyn Fn(&ClusterRequest) -> bool + Send>;

impl Doomed {
    fn start(cue: Cue, nth: usize, forward: bool) -> Doomed {
        let worker = Worker::start("127.0.0.1:0", WorkerConfig::default()).expect("worker start");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy address");
        let armed = Arc::new(AtomicBool::new(false));
        let live = Arc::clone(&armed);
        let proxy = std::thread::spawn(move || {
            let timeout = Duration::from_secs(30);
            let policy = FramePolicy {
                frame_timeout: timeout,
                idle_timeout: None,
            };
            let (mut front, _) = listener.accept().expect("the coordinator dials");
            let mut back = TcpStream::connect(worker.local_addr()).expect("dial the worker");
            let mut seen = 0;
            loop {
                let Ok((kind, body)) = read_frame(&mut front, DEFAULT_MAX_FRAME, policy, &|| false)
                else {
                    return false; // the coordinator hung up
                };
                let req = decode_cluster_request_body(kind, &body).expect("a cluster request");
                let fire = live.load(Ordering::Acquire) && cue(&req) && {
                    seen += 1;
                    seen == nth
                };
                if fire && !forward {
                    worker.kill();
                    return true;
                }
                let frame = encode_cluster_request(&req).expect("re-encodes");
                write_frame_bytes(&mut back, &frame, timeout).expect("to the worker");
                let (kind, body) =
                    read_frame(&mut back, DEFAULT_MAX_FRAME, policy, &|| false).expect("answered");
                if fire {
                    worker.kill();
                    return true;
                }
                let resp = decode_cluster_response_body(kind, &body).expect("a cluster response");
                let frame = encode_cluster_response(&resp).expect("re-encodes");
                write_frame_bytes(&mut front, &frame, timeout).expect("to the coordinator");
            }
        });
        Doomed { addr, armed, proxy }
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Whether the cue fired; call once the coordinator is dropped.
    fn fired(self) -> bool {
        self.proxy.join().expect("the proxy thread returns")
    }
}

/// A cluster of `shards` shards over the doomed worker (worker 0, hosting
/// shards 0, 2, …) and one plain worker, a twin engine, and one batch
/// already routed so every shard has a checkpoint and seq to repair from.
fn doomed_cluster(
    ds: &tkdi::model::Dataset,
    shards: usize,
    doomed: &Doomed,
    scratch: &ScratchDir,
) -> (Worker, Coordinator, DynamicEngine) {
    let (mut plain, addrs) = start_workers(1);
    let addrs = [doomed.addr, addrs[0]];
    let mut coord =
        Coordinator::seed(ds, shards, &addrs, ClusterConfig::new(&scratch.0)).expect("seed");
    let mut twin = DynamicEngine::new(ds.clone());
    let n = ds.len() as u32;
    let ops = [
        UpdateOp::Delete(1),
        UpdateOp::Delete(n / 2),
        UpdateOp::Delete(n - 1),
    ];
    coord.update(&ops).expect("cluster update");
    assert!(twin.apply_ops(&ops).error.is_none());
    (plain.remove(0), coord, twin)
}

/// After a leg: the doomed worker is gone, and the next update and both
/// algorithms' queries match the twin — a shard whose seq fell out of
/// step would reject the update as out of order.
fn assert_in_step(coord: &mut Coordinator, twin: &mut DynamicEngine, ctx: &str) {
    let more = [
        UpdateOp::Insert(vec![Some(1.0), Some(2.0), None]),
        UpdateOp::Delete(10),
        UpdateOp::Delete(11),
        UpdateOp::Set(12, 0, Some(4.0)),
    ];
    coord
        .update(&more)
        .unwrap_or_else(|e| panic!("{ctx}: next update: {e}"));
    assert!(twin.apply_ops(&more).error.is_none());
    assert!(coord.stats.repairs >= 1, "{ctx}: no repair ran");
    assert_eq!(coord.live_workers(), 1, "{ctx}");
    for &alg in &ALGS {
        for k in [1, 9] {
            let reference = twin
                .query(&EngineQuery::new(k).algorithm(alg))
                .expect("twin");
            let got = coord.query(k, alg).expect("next query");
            assert_eq!(entries(&got), entries(&reference), "{ctx}: {alg:?} k={k}");
        }
    }
}

/// A query's answer after a kill: the twin's, or a typed error.
fn assert_exact_or_typed(got: Result<TkdResult, ClusterError>, want: &TkdResult, ctx: &str) {
    match got {
        Ok(r) => {
            assert_eq!(
                entries(&r),
                entries(want),
                "{ctx}: retried answer must be exact"
            );
            assert_eq!(r.stats.h1_pruned, want.stats.h1_pruned, "{ctx}");
        }
        Err(e) => assert!(
            matches!(
                e,
                ClusterError::Worker(_) | ClusterError::NoWorkers | ClusterError::Store(_)
            ),
            "{ctx}: typed error only, got {e}"
        ),
    }
}

fn is_phase(phase: ShardPhase) -> Cue {
    Box::new(move |r| matches!(r, ClusterRequest::ShardQuery(q) if q.phase == phase))
}

/// (a) A worker dies on a query's bounds or partials frame while the
/// other worker's answer to the same phase is outstanding: the repair
/// must find every connection idle, and the retried query is exact.
#[test]
fn a_kill_inside_a_query_fan_out_is_repaired() {
    let ds = synth(960, 300, 3, 6, 30);
    for phase in [ShardPhase::Bounds, ShardPhase::Partials] {
        for &alg in &ALGS {
            let ctx = format!("{phase:?} {alg:?}");
            let doomed = Doomed::start(is_phase(phase), 2, false);
            let scratch = ScratchDir::new("scatter-query");
            let (plain, mut coord, mut twin) = doomed_cluster(&ds, 2, &doomed, &scratch);
            let want = twin
                .query(&EngineQuery::new(40).algorithm(alg))
                .expect("twin");
            doomed.arm();
            assert_exact_or_typed(coord.query(40, alg), &want, &ctx);
            assert_in_step(&mut coord, &mut twin, &ctx);
            drop(coord);
            assert!(doomed.fired(), "{ctx}: the cue never fired");
            plain.stop();
        }
    }
}

/// (b) A worker dies inside an update's fan-out, before its shard logs
/// the batch or after it has and before it answers, while the other
/// shard's ack is outstanding: that ack is recorded, the repair replays
/// or skips the in-doubt batch, and the batch lands exactly once.
#[test]
fn a_kill_inside_an_update_fan_out_is_repaired() {
    let ds = synth(970, 200, 3, 6, 30);
    for forward in [false, true] {
        let ctx = format!("forwarded {forward}");
        let cue: Cue = Box::new(|r| matches!(r, ClusterRequest::ShardUpdate(_)));
        let doomed = Doomed::start(cue, 1, forward);
        let scratch = ScratchDir::new("scatter-update");
        let (plain, mut coord, mut twin) = doomed_cluster(&ds, 2, &doomed, &scratch);
        // Rows 0..100 live on shard 0, 100..200 on shard 1, and the
        // inserts alternate: both shards take part.
        let ops = [
            UpdateOp::Delete(5),
            UpdateOp::Delete(150),
            UpdateOp::Insert(vec![Some(0.5), None, Some(2.0)]),
            UpdateOp::Insert(vec![Some(3.0), Some(3.0), Some(3.0)]),
        ];
        doomed.arm();
        coord
            .update(&ops)
            .unwrap_or_else(|e| panic!("{ctx}: repaired update: {e}"));
        assert!(twin.apply_ops(&ops).error.is_none());
        assert_eq!(coord.len(), twin.len(), "{ctx}");
        assert_in_step(&mut coord, &mut twin, &ctx);
        drop(coord);
        assert!(doomed.fired(), "{ctx}: the cue never fired");
        plain.stop();
    }
}

/// (c) Three shards on two workers, so the doomed worker takes shards 0
/// and 2 in successive waves, at k = n on a few thousand rows, so the
/// walk's chunks double many times. The worker dies on the partials
/// frame of the third chunk that has survivors: on shard 0's, in the
/// first wave, while the other worker's answer is outstanding and
/// shard 2's frame is still unsent; or on shard 2's, in the second wave.
#[test]
fn a_kill_in_a_wave_of_a_long_walk_is_repaired() {
    let ds = synth(980, 3_000, 3, 6, 30);
    let n = ds.len();
    for shard in [0, 2] {
        for &alg in &ALGS {
            let ctx = format!("shard {shard} {alg:?}");
            let cue: Cue = Box::new(move |r| {
                matches!(r, ClusterRequest::ShardQuery(q)
                    if q.shard == shard && q.phase == ShardPhase::Partials)
            });
            let doomed = Doomed::start(cue, 3, false);
            let scratch = ScratchDir::new("scatter-waves");
            let (plain, mut coord, mut twin) = doomed_cluster(&ds, 3, &doomed, &scratch);
            assert_eq!((coord.worker_of(0), coord.worker_of(2)), (0, 0));
            let want = twin
                .query(&EngineQuery::new(n).algorithm(alg))
                .expect("twin");
            doomed.arm();
            assert_exact_or_typed(coord.query(n, alg), &want, &ctx);
            assert_in_step(&mut coord, &mut twin, &ctx);
            drop(coord);
            assert!(doomed.fired(), "{ctx}: the cue never fired");
            plain.stop();
        }
    }
}
