//! The shard-worker process: hosts one or more shard engines, answers
//! cluster-plane frames, and commits every update batch to an atomic,
//! seq-stamped snapshot before acking.
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
//! A `shard_update` is acked only after the shard's new state is
//! committed to `shard-S.seqN.tkd` via an atomic tmp-file rename. The
//! filename carries the committed seq, so after a crash the newest
//! parseable snapshot *is* the shard's durable state and everything
//! newer can be replayed idempotently through `assign`.

use crate::seq_from_path;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tkd_core::dynamic::{CompactionPolicy, DynamicOptions};
use tkd_core::{Algorithm, BinChoice, DynamicEngine};
use tkd_serve::cluster_wire::{
    decode_cluster_request_body, encode_cluster_response, ClusterRequest, ClusterResponse,
    ShardPhase, ShardQuery, ShardUpdate, ShardUpdateAck, WireCandidate,
};
use tkd_serve::protocol::{
    read_frame, write_frame_bytes, ErrorFrame, FramePolicy, DEFAULT_MAX_FRAME, ERR_BAD_REQUEST,
    ERR_REJECTED,
};
use tkd_serve::ServeError;

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

/// One hosted shard: its engine and the path + seq of its last committed
/// snapshot.
struct ShardHost {
    engine: DynamicEngine,
    path: PathBuf,
    seq: u64,
}

/// Worker-global state behind one lock: hosted shards plus the session
/// τ tripwire.
#[derive(Default)]
struct WorkerState {
    shards: HashMap<u64, ShardHost>,
    /// The coordinator's last announced τ. Monotone within a query; a
    /// `bounds`-phase `shard_query` without τ starts a fresh session.
    tau: Option<u64>,
}

/// A running shard worker bound to a TCP address.
pub struct Worker {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
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
    let mut engine = match tkd_store::load_engine(&path) {
        Ok(e) => e,
        Err(e) => {
            return reject(
                ERR_REJECTED,
                shard,
                format!("cannot load {}: {e}", path.display()),
            )
        }
    };
    // Replay is idempotent: the filename says what is already in the
    // snapshot, so batches at or below it are skipped, and the rest must
    // form a gap-free continuation.
    let mut current = path;
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
    }
    if seq > seq_from_path(&current).expect("validated above") {
        current = snapshot_path(&current, shard, seq);
        if let Err(e) = tkd_store::save_engine(&current, &mut engine) {
            return reject(
                ERR_REJECTED,
                shard,
                format!("replayed state failed to commit: {e}"),
            );
        }
    }
    let live = engine.len() as u64;
    state.shards.insert(
        shard,
        ShardHost {
            engine,
            path: current,
            seq,
        },
    );
    ClusterResponse::AssignAck { shard, live }
}

/// Sibling snapshot path for `shard` at `seq`, in the same directory as
/// the previous snapshot (workers on one host share the handoff dir).
fn snapshot_path(prev: &std::path::Path, shard: u64, seq: u64) -> PathBuf {
    let dir = prev.parent().unwrap_or_else(|| std::path::Path::new("."));
    dir.join(format!("shard-{shard}.seq{seq}.tkd"))
}

/// Reject a batch that applied but whose snapshot failed to commit,
/// which leaves `shard`'s engine ahead of its committed snapshot: reload
/// the engine from that snapshot so the hosted state and
/// `shard-S.seqN.tkd` agree again before the rejection goes out. A
/// shard whose snapshot no longer loads is un-hosted — the coordinator's
/// repair path re-assigns it — rather than served in a state no file
/// holds.
fn roll_back(state: &mut WorkerState, shard: u64, datum: u64, message: String) -> ClusterResponse {
    let Some(host) = state.shards.get_mut(&shard) else {
        return reject(
            ERR_REJECTED,
            shard,
            format!("{message}; shard {shard} is not hosted here"),
        );
    };
    match tkd_store::load_engine(&host.path) {
        Ok(engine) => {
            host.engine = engine;
            reject(ERR_REJECTED, datum, message)
        }
        Err(e) => {
            let path = host.path.display().to_string();
            state.shards.remove(&shard);
            reject(
                ERR_REJECTED,
                shard,
                format!("{message}; shard {shard} released: cannot reload {path}: {e}"),
            )
        }
    }
}

fn handle_shard_update(state: &mut WorkerState, u: &ShardUpdate) -> ClusterResponse {
    let Some(host) = state.shards.get_mut(&u.shard) else {
        return reject(ERR_REJECTED, u.shard, format!("unknown shard {}", u.shard));
    };
    if u.seq != host.seq + 1 {
        return reject(
            ERR_REJECTED,
            u.seq,
            format!(
                "seq {} out of order: shard {} has committed {}",
                u.seq, u.shard, host.seq
            ),
        );
    }
    let report = host.engine.apply_ops(&u.ops);
    if let Some((i, e)) = &report.error {
        // The coordinator checks every batch with the same rules against
        // its route map first, so a failing op here means this shard and
        // the coordinator's route map have diverged. The batch changed
        // nothing: the engine still matches its snapshot.
        return reject(
            ERR_REJECTED,
            *i as u64,
            format!("op {i} failed on shard {}: {e}", u.shard),
        );
    }
    let new_path = snapshot_path(&host.path, u.shard, u.seq);
    if let Err(e) = tkd_store::save_engine(&new_path, &mut host.engine) {
        let message = format!("snapshot commit failed, batch rolled back: {e}");
        return roll_back(state, u.shard, u.ops.len() as u64, message);
    }
    // The new snapshot is durable; the predecessor is garbage.
    if new_path != host.path {
        let _ = std::fs::remove_file(&host.path);
    }
    host.path = new_path.clone();
    host.seq = u.seq;
    ClusterResponse::ShardUpdateAck(ShardUpdateAck {
        seq: u.seq,
        live: host.engine.len() as u64,
        path: new_path.display().to_string(),
        inserted: report
            .inserted_ids
            .iter()
            .map(|&id| u64::from(id))
            .collect(),
    })
}

fn handle(state: &Mutex<WorkerState>, req: &ClusterRequest) -> ClusterResponse {
    let mut state = state.lock().expect("worker state lock");
    match req {
        ClusterRequest::ShardQuery(q) => handle_shard_query(&mut state, q),
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
            // The on-disk snapshot is already current (every update
            // committed before its ack); re-save defensively so the
            // handoff never ships a stale file even if that invariant is
            // disturbed by a future refactor.
            if let Err(e) = tkd_store::save_engine(&host.path, &mut host.engine) {
                let resp = reject(
                    ERR_REJECTED,
                    *shard,
                    format!("handoff snapshot commit failed: {e}"),
                );
                state.shards.insert(*shard, host);
                return resp;
            }
            ClusterResponse::HandoffAck {
                path: host.path.display().to_string(),
                seq: host.seq,
            }
        }
        ClusterRequest::Assign {
            shard,
            path,
            replay,
        } => handle_assign(&mut state, *shard, path, replay),
        ClusterRequest::ShardUpdate(u) => handle_shard_update(&mut state, u),
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
            Ok(req) => handle(state, &req),
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
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(WorkerState::default()));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nodelay(true);
                            let state = Arc::clone(&state);
                            let stop = Arc::clone(&stop);
                            let config = config.clone();
                            conns.push(std::thread::spawn(move || {
                                connection_loop(stream, &state, &stop, &config);
                            }));
                        }
                        // Nothing pending — or a transient failure
                        // (`ECONNABORTED`, `EMFILE`): a worker that still
                        // pins its shards keeps listening until `stop`.
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                    conns.retain(|h| !h.is_finished());
                }
                for h in conns {
                    let _ = h.join();
                }
            })
        };
        Ok(Worker {
            addr,
            stop,
            accept: Some(accept),
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

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop promptly.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}
