//! The shard-worker process: hosts one or more shard engines, answers
//! cluster-plane frames, and commits every update batch to the shard's
//! op log before acking.
//!
//! A worker is deliberately dumb: it never sees the candidate queue, the
//! top-k, or other shards. It scores value-based candidates on the
//! [`DynamicEngine`] that hosts each shard — the one copy of the shard's
//! rows and indexes, maintained in place by the update path, so there is
//! nothing to rebuild or invalidate between an update and the next query
//! — applies routed update batches in strict seq order, and moves whole
//! shards by snapshot path on `handoff` / `assign`. All cluster smarts
//! (τ, pruning decisions, replay-merge, failure repair) live in the
//! [`Coordinator`](crate::Coordinator).
//!
//! # Durability contract
//!
//! A shard's durable state is a checkpoint, `shard-S.seqN.tkd` — the
//! shard at seq `N`, saved whole — plus the op log beside it,
//! `shard-S.seqN.tkd.log`, holding the batches acked since
//! ([`tkd_store::Journal`]). A `shard_update` is checked against the
//! engine, appended to the log and synced, and only then applied and
//! acked; a batch that fails either step is rejected and changes
//! nothing. Every [`tkd_store::CHECKPOINT_RECORDS`] batches the worker
//! saves `shard-S.seqM.tkd` at the current seq `M` and removes the old
//! checkpoint and its log. So the newest stamped checkpoint under the
//! handoff directory plus its log *is* the shard's acked state:
//! `assign` recovers both, and skips the replayed batches at or below
//! the seq they reach — the log, not the file name, decides whether an
//! in-doubt batch committed.

use crate::seq_from_path;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tkd_core::dynamic::{CompactionPolicy, DynamicOptions};
use tkd_core::{Algorithm, BinChoice, DynamicEngine};
use tkd_serve::accept::Acceptor;
use tkd_serve::cluster_wire::{
    decode_cluster_request_body, encode_cluster_response, ClusterRequest, ClusterResponse,
    ShardPhase, ShardQuery, ShardUpdate, ShardUpdateAck, WireCandidate,
};
use tkd_serve::protocol::{
    read_frame, write_frame_bytes, ErrorFrame, FramePolicy, DEFAULT_MAX_FRAME, ERR_BAD_REQUEST,
    ERR_REJECTED,
};
use tkd_serve::ServeError;
use tkd_store::Journal;

/// Engine options for hosted shards: compaction never fires, so a
/// shard's state (and its snapshot bytes) is a pure function of its op
/// history — the property replay-based repair depends on.
pub(crate) fn shard_options() -> DynamicOptions {
    DynamicOptions {
        bins: BinChoice::Auto,
        policy: CompactionPolicy::never(),
    }
}

/// Tuning knobs for a [`Worker`].
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Per-frame read/write deadline on worker connections.
    pub io_timeout: Duration,
    /// Largest frame body the worker accepts.
    pub max_frame: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            io_timeout: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// One hosted shard: its engine and its journal (the checkpoint, the log
/// beside it and the seq of the last acked batch).
struct ShardHost {
    engine: DynamicEngine,
    journal: Journal,
}

/// Worker-global state behind one lock: hosted shards plus the session
/// τ tripwire.
#[derive(Default)]
struct WorkerState {
    shards: HashMap<u64, ShardHost>,
    /// The session τ: the last one a `shard_query` carried. Monotone
    /// within a query; a `bounds`-phase `shard_query` without τ starts a
    /// fresh session.
    tau: Option<u64>,
}

/// A running shard worker bound to a TCP address.
pub struct Worker {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The accept loop and the connection threads
    /// ([`tkd_serve::accept`]).
    acceptor: Acceptor,
}

fn reject(code: u8, datum: u64, message: String) -> ClusterResponse {
    ClusterResponse::Error(ErrorFrame {
        code,
        datum,
        message,
    })
}

/// Score `candidates` against one shard for the requested phase.
fn score_candidates(
    host: &mut ShardHost,
    algorithm: Algorithm,
    phase: ShardPhase,
    candidates: &[WireCandidate],
) -> Result<Vec<u64>, ClusterResponse> {
    let engine = &mut host.engine;
    let dims = engine.dims();
    let mut out = Vec::with_capacity(candidates.len());
    for (i, c) in candidates.iter().enumerate() {
        if c.values.len() != dims {
            return Err(reject(
                ERR_REJECTED,
                i as u64,
                format!(
                    "candidate {i} has {} dimensions, shard has {dims}",
                    c.values.len()
                ),
            ));
        }
        // A member claim the shard cannot substantiate means the
        // coordinator's route map and this shard disagree — refuse
        // rather than silently double-count the candidate's own bit.
        let member = match c.member {
            None => None,
            Some(sid) => match u32::try_from(sid).ok().filter(|&id| engine.contains(id)) {
                Some(id) => Some(id),
                None => {
                    return Err(reject(
                        ERR_REJECTED,
                        i as u64,
                        format!("candidate {i} claims membership of unknown local id {sid}"),
                    ))
                }
            },
        };
        let n = match (algorithm, phase) {
            (Algorithm::Big, ShardPhase::Bounds) => Ok(engine.big_bound(&c.values)),
            (Algorithm::Big, ShardPhase::Partials) => engine.big_partial(&c.values, member),
            (_, ShardPhase::Bounds) => Ok(engine.ibig_q_count(&c.values)),
            (_, ShardPhase::Partials) => engine.ibig_partial(&c.values, member),
        }
        .map_err(|e| reject(ERR_REJECTED, i as u64, format!("candidate {i}: {e}")))?;
        out.push(n as u64);
    }
    Ok(out)
}

fn handle_shard_query(state: &mut WorkerState, q: &ShardQuery) -> ClusterResponse {
    // τ tripwire: within a query session τ only tightens. A bounds-phase
    // frame with no τ is the start of a new query and resets the session.
    match q.tau {
        Some(t) => {
            if let Some(cur) = state.tau {
                if t < cur {
                    return reject(
                        ERR_REJECTED,
                        t,
                        format!(
                            "tau went backwards: {t} after {cur} (reordered or misrouted frame)"
                        ),
                    );
                }
            }
            state.tau = Some(t);
        }
        None => {
            if matches!(q.phase, ShardPhase::Bounds) {
                state.tau = None;
            } else if state.tau.is_some() {
                return reject(
                    ERR_REJECTED,
                    0,
                    "partials phase dropped the session tau".to_string(),
                );
            }
        }
    }
    let Some(host) = state.shards.get_mut(&q.shard) else {
        return reject(ERR_REJECTED, q.shard, format!("unknown shard {}", q.shard));
    };
    match score_candidates(host, q.algorithm, q.phase, &q.candidates) {
        Ok(outcomes) => ClusterResponse::ShardOutcomes(outcomes),
        Err(e) => e,
    }
}

fn handle_assign(
    state: &mut WorkerState,
    shard: u64,
    path: &str,
    replay: &[tkd_serve::ReplayBatch],
) -> ClusterResponse {
    if state.shards.contains_key(&shard) {
        return reject(ERR_REJECTED, shard, format!("shard {shard} already hosted"));
    }
    let path = PathBuf::from(path);
    let Some(mut seq) = seq_from_path(&path) else {
        return reject(
            ERR_BAD_REQUEST,
            shard,
            format!("snapshot path {} lacks a .seqN. stamp", path.display()),
        );
    };
    let recovered = match tkd_store::recover(&path) {
        Ok(r) => r,
        Err(e) => {
            return reject(
                ERR_REJECTED,
                shard,
                format!("cannot load {}: {e}", path.display()),
            )
        }
    };
    let mut engine = recovered.engine;
    let mut replayed = recovered.replayed;
    // Replay is idempotent: the checkpoint and its log say what the shard
    // already holds, so batches at or below it are skipped, and the rest
    // must form a gap-free continuation.
    seq = recovered.seq.unwrap_or(seq);
    for batch in replay {
        if batch.seq <= seq {
            continue;
        }
        if batch.seq != seq + 1 {
            return reject(
                ERR_REJECTED,
                batch.seq,
                format!("replay gap: batch seq {} after committed {seq}", batch.seq),
            );
        }
        if let Some((i, e)) = engine.apply_ops(&batch.ops).error {
            return reject(
                ERR_REJECTED,
                i as u64,
                format!("replay batch seq {} failed at op {i}: {e}", batch.seq),
            );
        }
        seq = batch.seq;
        replayed += 1;
    }
    // Checkpoints carry their seq in the name, in the directory of the
    // one assigned (workers on one host share the handoff dir). A
    // replayed state is checkpointed under its own seq before the ack, so
    // the shard's log always starts against a file that holds its engine.
    let journal = if replayed == 0 {
        Journal::clean(&path, seq)
    } else {
        Journal::stale(&path, seq)
    };
    let mut journal = journal.stamped(format!("shard-{shard}"));
    if !journal.holds_engine() {
        if let Err(e) = journal.checkpoint(&engine) {
            return reject(
                ERR_REJECTED,
                shard,
                format!("replayed state failed to commit: {e}"),
            );
        }
    }
    let live = engine.len() as u64;
    state.shards.insert(shard, ShardHost { engine, journal });
    ClusterResponse::AssignAck { shard, live }
}

fn handle_shard_update(state: &mut WorkerState, u: &ShardUpdate) -> ClusterResponse {
    let Some(host) = state.shards.get_mut(&u.shard) else {
        return reject(ERR_REJECTED, u.shard, format!("unknown shard {}", u.shard));
    };
    let committed = host.journal.seq();
    if u.seq != committed + 1 {
        return reject(
            ERR_REJECTED,
            u.seq,
            format!(
                "seq {} out of order: shard {} has committed {committed}",
                u.seq, u.shard
            ),
        );
    }
    if let Err((i, e)) = host.engine.check_ops(&u.ops) {
        // The coordinator checks every batch with the same rules against
        // its route map first, so a failing op here means this shard and
        // the coordinator's route map have diverged. The batch changed
        // nothing.
        return reject(
            ERR_REJECTED,
            i as u64,
            format!("op {i} failed on shard {}: {e}", u.shard),
        );
    }
    if let Err(e) = host.journal.append(&host.engine, u.seq, &u.ops) {
        return reject(
            ERR_REJECTED,
            u.ops.len() as u64,
            format!(
                "batch not logged on shard {}, nothing applied: {e}",
                u.shard
            ),
        );
    }
    let report = host.engine.apply_ops(&u.ops);
    if host.journal.is_full() {
        // A failed checkpoint leaves the old checkpoint and log in place,
        // and the log keeps taking batches.
        let _ = host.journal.checkpoint(&host.engine);
    }
    ClusterResponse::ShardUpdateAck(ShardUpdateAck {
        seq: u.seq,
        live: host.engine.len() as u64,
        path: host.journal.snapshot().display().to_string(),
        inserted: report
            .inserted_ids
            .iter()
            .map(|&id| u64::from(id))
            .collect(),
    })
}

fn handle(state: &mut WorkerState, req: &ClusterRequest) -> ClusterResponse {
    match req {
        ClusterRequest::ShardQuery(q) => handle_shard_query(state, q),
        ClusterRequest::TauUpdate { tau } => {
            if let Some(cur) = state.tau {
                if *tau < cur {
                    return reject(
                        ERR_REJECTED,
                        *tau,
                        format!("tau went backwards: {tau} after {cur}"),
                    );
                }
            }
            state.tau = Some(*tau);
            ClusterResponse::TauAck { tau: *tau }
        }
        ClusterRequest::Handoff { shard } => {
            let Some(mut host) = state.shards.remove(shard) else {
                return reject(ERR_REJECTED, *shard, format!("unknown shard {shard}"));
            };
            // The shard leaves as one file: a checkpoint at its seq, saved
            // only when the log holds batches the checkpoint does not.
            if !host.journal.holds_engine() {
                if let Err(e) = host.journal.checkpoint(&host.engine) {
                    let resp = reject(
                        ERR_REJECTED,
                        *shard,
                        format!("handoff checkpoint failed: {e}"),
                    );
                    state.shards.insert(*shard, host);
                    return resp;
                }
            }
            ClusterResponse::HandoffAck {
                path: host.journal.snapshot().display().to_string(),
                seq: host.journal.seq(),
            }
        }
        ClusterRequest::Assign {
            shard,
            path,
            replay,
        } => handle_assign(state, *shard, path, replay),
        ClusterRequest::ShardUpdate(u) => handle_shard_update(state, u),
    }
}

fn connection_loop(
    mut stream: TcpStream,
    state: &Mutex<WorkerState>,
    stop: &AtomicBool,
    config: &WorkerConfig,
) {
    let policy = FramePolicy {
        frame_timeout: config.io_timeout,
        // A coordinator connection idles between queries; only a started
        // frame is held to the deadline.
        idle_timeout: None,
    };
    loop {
        let interrupted = || stop.load(Ordering::Acquire);
        let (kind, body) = match read_frame(&mut stream, config.max_frame, policy, &interrupted) {
            Ok(f) => f,
            Err(_) => return, // disconnect, kill, or garbage: drop the connection
        };
        let resp = match decode_cluster_request_body(kind, &body) {
            Ok(req) => match state.lock() {
                Ok(mut state) => handle(&mut state, &req),
                // A handler panicked holding the lock, maybe between a
                // batch's log append and its apply, so a hosted engine
                // may be half-changed. Serve nothing more from it: every
                // connection ends here, the worker reads as dead to the
                // coordinator, and its repair re-hosts the shards from
                // their checkpoints and logs, which hold every acked batch.
                Err(_) => return,
            },
            Err(e) => reject(ERR_BAD_REQUEST, 0, e.to_string()),
        };
        if stop.load(Ordering::Acquire) {
            return; // killed mid-request: never write a late answer
        }
        let frame = match encode_cluster_response(&resp) {
            Ok(f) => f,
            Err(e) => encode_cluster_response(&reject(ERR_REJECTED, 0, e.to_string()))
                .expect("error frames encode"),
        };
        if write_frame_bytes(&mut stream, &frame, config.io_timeout).is_err() {
            return;
        }
    }
}

impl Worker {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve cluster
    /// frames until [`stop`](Worker::stop) or [`kill`](Worker::kill).
    ///
    /// # Errors
    /// [`ServeError::Io`] if the listener cannot bind.
    pub fn start(addr: impl ToSocketAddrs, config: WorkerConfig) -> Result<Worker, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(WorkerState::default()));
        // A connection is served the moment it arrives; a failed accept
        // (`ECONNABORTED`, `EMFILE`) only pauses the loop, so a worker
        // that still pins its shards keeps listening until `stop`.
        let acceptor = {
            let (stopping, serving) = (Arc::clone(&stop), Arc::clone(&stop));
            Acceptor::spawn(
                listener,
                move || stopping.load(Ordering::Acquire),
                move |stream| {
                    let _ = stream.set_nodelay(true);
                    connection_loop(stream, &state, &serving, &config);
                },
            )
            .map_err(|e| ServeError::Io(e.to_string()))?
        };
        Ok(Worker {
            addr,
            stop,
            acceptor,
        })
    }

    /// The bound address (resolved port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: close the listener, let in-flight frames finish,
    /// join every connection thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Abrupt failure injection for tests: in-flight requests are
    /// abandoned without an answer (the coordinator sees the connection
    /// die), exactly like a killed process.
    pub fn kill(mut self) {
        self.shutdown();
    }

    /// Raise the stop flag, then wake the blocked accept and join it and
    /// every connection thread, each of which sees the flag at its next
    /// idle poll.
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.acceptor.join();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_model::Dataset;
    use tkd_serve::{Client, ServeError};

    /// The τ tripwire over a real socket. τ reaches a worker only inside
    /// `shard_query` frames, so a frame whose τ went backwards, or a
    /// partials frame that lost it mid-session, is a typed rejection
    /// (code 4); a bounds frame without τ starts a new session; and a
    /// `tau_update` is still accepted under the same rule.
    #[test]
    fn tau_tripwire_rides_in_shard_query() {
        let dir = std::env::temp_dir().join(format!("tkd-worker-tau-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let rows = [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]].map(|r| r.map(Some).to_vec());
        let ds = Dataset::from_rows(2, &rows).expect("valid rows");
        let seed = dir.join("shard-0.seq0.tkd");
        let engine = DynamicEngine::with_options(ds, shard_options());
        tkd_store::save_engine(&seed, &engine).expect("seed snapshot");
        let worker = Worker::start("127.0.0.1:0", WorkerConfig::default()).expect("worker start");
        let mut client = Client::connect(worker.local_addr()).expect("connect");
        let assign = ClusterRequest::Assign {
            shard: 0,
            path: seed.display().to_string(),
            replay: Vec::new(),
        };
        client.cluster_call(&assign).expect("assign");

        let query = |phase, tau| {
            ClusterRequest::ShardQuery(ShardQuery {
                shard: 0,
                algorithm: Algorithm::Big,
                phase,
                tau,
                candidates: vec![WireCandidate {
                    values: vec![Some(1.0), Some(1.0)],
                    member: None,
                }],
            })
        };
        let mut call = |req: ClusterRequest| client.cluster_call(&req);
        let rejected = |answer: Result<ClusterResponse, ServeError>, datum: u64| match answer {
            Err(ServeError::Rejected { index, .. }) => assert_eq!(index, datum),
            other => panic!("expected a code-4 rejection, got {other:?}"),
        };
        let outcomes = ClusterResponse::ShardOutcomes(vec![3]);
        let (bounds, partials) = (ShardPhase::Bounds, ShardPhase::Partials);

        // A session: τ may hold or grow, never shrink.
        assert_eq!(call(query(bounds, None)).unwrap(), outcomes);
        assert_eq!(call(query(bounds, Some(2))).unwrap(), outcomes);
        assert!(call(query(partials, Some(2))).is_ok());
        assert!(call(query(bounds, Some(5))).is_ok());
        rejected(call(query(bounds, Some(3))), 3);
        rejected(call(query(partials, Some(4))), 4);
        // A partials frame without τ inside a session is rejected …
        rejected(call(query(partials, None)), 0);
        // … and a bounds frame without τ resets the session.
        assert_eq!(call(query(bounds, None)).unwrap(), outcomes);
        assert!(call(query(partials, None)).is_ok());
        assert!(call(query(bounds, Some(1))).is_ok());

        // `tau_update` stays accepted (v5) and feeds the same tripwire.
        let tau_ack = call(ClusterRequest::TauUpdate { tau: 7 });
        assert_eq!(tau_ack.unwrap(), ClusterResponse::TauAck { tau: 7 });
        rejected(call(ClusterRequest::TauUpdate { tau: 6 }), 6);
        rejected(call(query(partials, Some(6))), 6);
        assert!(call(query(partials, Some(7))).is_ok());

        worker.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A poisoned state lock ends the connection instead of panicking the
    /// connection thread: the coordinator sees a transport failure, the
    /// one its repair path answers.
    #[test]
    fn a_poisoned_state_lock_drops_the_connection() {
        let state = Mutex::new(WorkerState::default());
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = state.lock().expect("fresh lock");
                panic!("a handler bug, on purpose");
            })
            .join()
        });
        assert!(poisoner.is_err() && state.is_poisoned());

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound address");
        let (stop, config) = (AtomicBool::new(false), WorkerConfig::default());
        std::thread::scope(|s| {
            let served = s.spawn(|| {
                let (stream, _) = listener.accept().expect("accept");
                connection_loop(stream, &state, &stop, &config);
            });
            let mut client = Client::connect(addr).expect("connect");
            let answer = client.cluster_call(&ClusterRequest::TauUpdate { tau: 1 });
            assert!(
                matches!(answer, Err(ServeError::Disconnected)),
                "expected a dropped connection, got {answer:?}"
            );
            served.join().expect("the connection thread returns");
        });
    }
}
