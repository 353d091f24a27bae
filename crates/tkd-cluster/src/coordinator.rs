//! The cluster coordinator: metadata authority, query planner, and the
//! only writer.
//!
//! The coordinator keeps no index, only counts over its rows. Its state
//! is the rows by global id, the route map (global id → shard and local
//! id, and the one record of which ids are live), a per-dimension live
//! value → count table ([`ValueCounts`]) and, per pair of dimensions, a
//! histogram of the live rows over a value grid ([`PairCounts`]). The
//! value table gives the candidate queue: `MaxScore(o) = minᵢ |Tᵢ(o)|`
//! is a rank count on each dimension (§4.2). The pair histograms give
//! Heuristic 2 tables that prune a candidate before any shard sees it,
//! once τ exists (`tkd_core::cluster` has the soundness argument). Both
//! are maintained per op; the queue and the tables are recomputed once
//! per batch, by the next query. An update batch is checked by
//! [`check_batch`], the rules `DynamicEngine::apply_ops` runs, with the
//! route map as the liveness lookup. **Scores come only from the
//! workers**: every query fans the value-based candidates the tables
//! leave out to the shard workers in chunks, sums their per-shard
//! answers, and drives a [`Replay`] — the traversal state
//! machine of every in-process engine — in queue order, so entries,
//! scores, and tie order are bit-identical to them (see
//! `tkd_core::cluster` for the proof obligations, and
//! `tests/cluster_parity.rs` for the pin). A walk's length is unknown
//! until τ forms, so the first chunk holds `FIRST_CHUNK` (16)
//! candidates and each later one twice as many as the one before, up to
//! what one `shard_query` frame can carry: a walk over `m` positions
//! costs `O(log m)` chunks, and a short one still ships little past its
//! Heuristic 1 cutoff.
//!
//! # Fan-out
//!
//! Every exchange that addresses several shards — both phases of a
//! query chunk, a batch's per-shard `shard_update`s and the seed's
//! `assign`s — goes through one scatter/gather step: it writes a frame
//! to every worker before it reads any answer, so the workers answer
//! side by side and a phase costs one round trip, not one per shard. A
//! connection holds one request at a time, so the shards one worker
//! hosts go in successive waves, each sent as soon as that worker's
//! previous answer is read. After a failure every other outstanding
//! answer is still read, before any repair: no connection keeps a reply
//! nobody read, and every shard whose batch was acked has its seq
//! recorded.
//!
//! # Failure model
//!
//! The per-frame timeout on each worker connection is the failure
//! detector. When a call fails at the transport level, the worker is
//! marked dead and every shard it hosted is re-assigned to a surviving
//! worker from the newest checkpoint on the shared handoff directory and
//! the op log beside it. Queries are stateless on the workers, so a
//! failed query is simply retried after repair — the retried answer is
//! the same bit-identical result. An in-doubt update batch (sent, no
//! ack) travels with the re-assignment; the new host skips it if the
//! dead worker's log holds it (the log is the arbiter) and applies it
//! otherwise.

use crate::worker::shard_options;
use crate::{newest_snapshot, seq_from_path, ClusterError};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;
use tkd_core::cluster::{seed_counts, shard_rows, Outcome, PairCounts};
use tkd_core::dynamic::check_batch;
use tkd_core::maxscore::ValueCounts;
use tkd_core::{Algorithm, DynamicEngine, Replay, TkdResult, UpdateError, UpdateOp};
use tkd_model::{Dataset, ObjectId};
use tkd_serve::protocol::DEFAULT_MAX_FRAME;
use tkd_serve::{
    Client, ClusterRequest, ClusterResponse, ReplayBatch, ServeError, ShardPhase, ShardQuery,
    ShardUpdate, ShardUpdateAck, WireCandidate,
};
use tkd_store::{ClusterManifest, ShardEntry};

/// Coordinator tuning.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Shared snapshot/handoff directory (all workers must see it).
    pub dir: PathBuf,
    /// Per-frame deadline on worker connections — the failure detector.
    pub timeout: Duration,
}

impl ClusterConfig {
    /// Defaults with an explicit handoff directory.
    pub fn new(dir: impl Into<PathBuf>) -> ClusterConfig {
        ClusterConfig {
            dir: dir.into(),
            timeout: Duration::from_secs(10),
        }
    }
}

/// Wire/merge counters for one coordinator — the source of the
/// `cluster.*` cells of the `cluster-2w` workload (`BENCHMARK.json`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterStats {
    /// Cluster-plane request frames sent (both phases, updates, control).
    pub frames: u64,
    /// Distinct τ values shipped in `shard_query` frames, counted once
    /// per change within a query (not once per chunk).
    pub tau_rounds: u64,
    /// Candidate payloads shipped across all `shard_query` frames.
    pub candidates_shipped: u64,
    /// Worker failures repaired by snapshot re-assignment.
    pub repairs: u64,
}

struct WorkerLink {
    addr: SocketAddr,
    client: Option<Client>,
    dead: bool,
}

impl WorkerLink {
    /// The open connection, dialled on first use.
    fn connect(&mut self, timeout: Duration) -> Result<&mut Client, ServeError> {
        let client = match self.client.take() {
            Some(client) => client,
            None => Client::connect_with(self.addr, timeout)?,
        };
        Ok(self.client.insert(client))
    }

    /// A transport failure marks the worker dead and drops its
    /// connection, which may have stopped mid-frame and is never reused;
    /// a typed rejection leaves both alone.
    fn settle<T>(&mut self, result: Result<T, ServeError>) -> Result<T, ServeError> {
        if result.as_ref().is_err_and(is_transport) {
            self.dead = true;
            self.client = None;
        }
        result
    }
}

/// Candidates shipped in a query's first chunk; each later chunk ships
/// twice as many as the one before, up to [`chunk_cap`]. A chunk spans
/// the queue positions up to its last candidate the coordinator's own
/// tables do not prune, and never past the Heuristic 1 position. Smaller
/// chunks tighten τ faster (more pruning) at the cost of more frames.
const FIRST_CHUNK: usize = 16;

/// Bytes of a `shard_query` body besides its candidates: the shard (8),
/// the algorithm (1), the phase (1), τ (1 + 8) and the count (4).
const QUERY_HEAD_BYTES: u64 = 23;

/// The most candidates one `shard_query` frame carries at `dims`
/// dimensions without passing [`DEFAULT_MAX_FRAME`]: a candidate takes at
/// most `13 + 9·dims` body bytes (its value count, a flagged `f64` per
/// cell and a flagged member id).
fn chunk_cap(dims: usize) -> usize {
    let per_candidate = 13 + 9 * dims as u64;
    let cap = (DEFAULT_MAX_FRAME - QUERY_HEAD_BYTES) / per_candidate;
    usize::try_from(cap).unwrap_or(usize::MAX).max(1)
}

struct ShardMeta {
    worker: usize,
    /// Seq of the shard's last acked batch.
    seq: u64,
    /// The shard's checkpoint: `shard-S.seq{n}.tkd` and its seq `n`; the
    /// batches acked after `n` are in the op log beside it.
    checkpoint: (u64, PathBuf),
    live: u64,
    /// Routed batches `(seq, local ops)` not yet acked — what a
    /// re-assignment replays. An acked batch is in the shard's op log, so
    /// entries are dropped as soon as they are acked: this holds at most
    /// the in-doubt batch.
    log: Vec<(u64, Vec<UpdateOp>)>,
    /// Next local stable id the shard engine will allocate. Local
    /// allocation is deterministic (monotone, never reused), so the
    /// coordinator predicts insert ids at send time and treats the
    /// ack's `inserted` list as a drift tripwire, not a binding source.
    next_local: u32,
}

/// Why a query attempt stopped: a dead worker (repair and retry) or a
/// non-retryable error.
enum Retry {
    Dead(usize),
    Fatal(ClusterError),
}

/// The coordinator. One per cluster; the single writer.
pub struct Coordinator {
    /// Every row the cluster has held, at its global id: ids are dense
    /// and never reused, so a deleted row keeps its slot.
    rows: Dataset,
    /// Global id → (shard, local stable id on that shard), one entry per
    /// row, `None` once deleted: the one record of which ids are live.
    route: Vec<Option<(u64, u32)>>,
    /// Per-dimension value counts of the live rows.
    counts: ValueCounts,
    /// Per pair of dimensions, the live rows over a value grid: the
    /// Heuristic 2 tables, refreshed with the queue.
    pairs: PairCounts,
    /// The candidate queue `(global id, MaxScore)`; `None` after a batch
    /// until the next query sorts it again.
    queue: Option<Vec<(ObjectId, usize)>>,
    shards: Vec<ShardMeta>,
    workers: Vec<WorkerLink>,
    cfg: ClusterConfig,
    /// Wire counters, reset at the caller's discretion.
    pub stats: ClusterStats,
}

/// A checkpoint a worker named for `shard` at acked seq `seq`: its path
/// must carry a `.seq{n}.` stamp no later than `seq`.
fn checkpoint(shard: u64, path: String, seq: u64) -> Result<(u64, PathBuf), ClusterError> {
    let path = PathBuf::from(path);
    match seq_from_path(&path) {
        Some(n) if n <= seq => Ok((n, path)),
        _ => Err(ClusterError::Protocol(format!(
            "shard {shard} at seq {seq} named checkpoint {}",
            path.display()
        ))),
    }
}

fn is_transport(e: &ServeError) -> bool {
    !matches!(
        e,
        ServeError::Overloaded { .. }
            | ServeError::Timeout { .. }
            | ServeError::ShuttingDown
            | ServeError::Rejected { .. }
            | ServeError::BadRequest { .. }
    )
}

impl Coordinator {
    /// Seed a cluster over `workers` from a dataset: split rows into
    /// `shards` contiguous ranges, commit each range as
    /// `shard-S.seq0.tkd` under the config's directory, and assign them
    /// round-robin. Global stable ids `0..n` map to `(shard, local id)`
    /// positionally, exactly like [`shard_rows`].
    ///
    /// # Errors
    /// [`ClusterError::NoWorkers`] without workers; store or worker
    /// errors if seeding snapshots cannot be written or assigned.
    pub fn seed(
        ds: &Dataset,
        shards: usize,
        workers: &[SocketAddr],
        cfg: ClusterConfig,
    ) -> Result<Coordinator, ClusterError> {
        if workers.is_empty() {
            return Err(ClusterError::NoWorkers);
        }
        std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| ClusterError::Store(format!("handoff dir: {e}")))?;
        let shard_count = shards.max(1);
        let n = ds.len();
        let mut metas = Vec::with_capacity(shard_count);
        let mut route = Vec::with_capacity(n);
        for j in 0..shard_count {
            let (lo, hi) = (j * n / shard_count, (j + 1) * n / shard_count);
            let sub = shard_rows(ds, lo, hi);
            let engine = DynamicEngine::with_options(sub, shard_options());
            let path = cfg.dir.join(format!("shard-{j}.seq0.tkd"));
            tkd_store::save_engine(&path, &engine)
                .map_err(|e| ClusterError::Store(format!("seed shard {j}: {e}")))?;
            for i in lo..hi {
                route.push(Some((j as u64, (i - lo) as u32)));
            }
            metas.push(ShardMeta {
                worker: j % workers.len(),
                seq: 0,
                checkpoint: (0, path),
                live: (hi - lo) as u64,
                log: Vec::new(),
                next_local: (hi - lo) as u32,
            });
        }
        let (counts, queue, pairs) = seed_counts(ds);
        let mut coord = Coordinator {
            rows: ds.clone(),
            route,
            queue: Some(queue),
            pairs,
            counts,
            shards: metas,
            workers: workers
                .iter()
                .map(|&addr| WorkerLink {
                    addr,
                    client: None,
                    dead: false,
                })
                .collect(),
            cfg,
            stats: ClusterStats::default(),
        };
        let assigns: Vec<(usize, ClusterRequest)> = (coord.shards.iter().enumerate())
            .map(|(j, m)| {
                let assign = ClusterRequest::Assign {
                    shard: j as u64,
                    path: m.checkpoint.1.display().to_string(),
                    replay: Vec::new(),
                };
                (m.worker, assign)
            })
            .collect();
        let answers = coord.fan_out(&assigns);
        for ((j, m), answer) in coord.shards.iter().enumerate().zip(answers) {
            match answer {
                Ok(ClusterResponse::AssignAck { shard, live })
                    if (shard, live) == (j as u64, m.live) => {}
                Ok(ClusterResponse::AssignAck { shard, live }) => {
                    return Err(ClusterError::Protocol(format!(
                        "seed assign of shard {j} acked shard {shard} with {live} live (expected {})",
                        m.live
                    )));
                }
                Ok(other) => {
                    return Err(ClusterError::Protocol(format!(
                        "seed assign answered {other:?}"
                    )))
                }
                Err(e) => return Err(ClusterError::Worker(e)),
            }
        }
        coord.write_manifest()?;
        Ok(coord)
    }

    /// Live objects in the cluster.
    pub fn len(&self) -> usize {
        self.route.iter().flatten().count()
    }

    /// Is the cluster empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Label of live object `id`, if it was seeded or inserted with a
    /// non-empty one.
    pub fn label(&self, id: ObjectId) -> Option<&str> {
        self.home(id)?;
        self.rows.label(id).filter(|l| !l.is_empty())
    }

    /// Where live object `id` lives: its shard and its local id there.
    fn home(&self, id: ObjectId) -> Option<(u64, u32)> {
        self.route.get(id as usize).copied().flatten()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which worker currently hosts `shard`.
    pub fn worker_of(&self, shard: u64) -> usize {
        self.shards[shard as usize].worker
    }

    /// Workers not marked dead.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.dead).count()
    }

    /// Where this cluster's shard manifest lives.
    pub fn manifest_path(&self) -> PathBuf {
        self.cfg.dir.join("cluster.manifest")
    }

    /// Rewrite the shard manifest to match the coordinator's committed
    /// view — called after every topology or seq change, so the
    /// directory is always self-describing.
    fn write_manifest(&self) -> Result<(), ClusterError> {
        let manifest = ClusterManifest {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(s, m)| {
                    let (seq, path) = &m.checkpoint;
                    ShardEntry {
                        shard: s as u64,
                        seq: *seq,
                        live: m.live,
                        path: path.file_name().map_or_else(
                            || path.display().to_string(),
                            |n| n.to_string_lossy().into_owned(),
                        ),
                    }
                })
                .collect(),
        };
        manifest
            .save(self.manifest_path())
            .map_err(|e| ClusterError::Store(format!("manifest: {e}")))?;
        Ok(())
    }

    /// One cluster-plane exchange with worker `w`. Transport-level
    /// failures mark the worker dead (the caller repairs); typed worker
    /// rejections pass through with the worker still considered alive.
    fn call(&mut self, w: usize, req: &ClusterRequest) -> Result<ClusterResponse, ServeError> {
        self.send(w, req)?;
        self.receive(w)
    }

    /// Write `req` to worker `w`, dialling it on first use.
    fn send(&mut self, w: usize, req: &ClusterRequest) -> Result<(), ServeError> {
        let link = &mut self.workers[w];
        if link.dead {
            return Err(ServeError::Io(format!(
                "worker {w} ({}) is marked dead",
                link.addr
            )));
        }
        let sent = match link.connect(self.cfg.timeout) {
            Ok(client) => {
                self.stats.frames += 1;
                client.cluster_send(req)
            }
            Err(e) => Err(e),
        };
        link.settle(sent)
    }

    /// Read worker `w`'s answer to the request [`Coordinator::send`]
    /// wrote. A connection that is gone by then reads as a dead worker.
    fn receive(&mut self, w: usize) -> Result<ClusterResponse, ServeError> {
        let link = &mut self.workers[w];
        let answer = match link.client.as_mut() {
            Some(client) => client.cluster_recv(),
            None => Err(ServeError::Io(format!(
                "worker {w} ({}) has no connection to answer on",
                link.addr
            ))),
        };
        link.settle(answer)
    }

    /// Send every request and gather every answer: request `i` goes to
    /// worker `requests[i].0`, and answer `i` is its reply. Frames to
    /// different workers are all written before any answer is read, so
    /// the workers answer side by side. A worker holds one request at a
    /// time and gets its next as soon as its answer is read, so the
    /// requests one worker takes go in successive waves. A failure marks
    /// its worker dead, drops the connection and fails that worker's
    /// unsent requests, but every other answer is still read before this
    /// returns: no connection is left holding a stale reply, and every
    /// ack reaches the caller before any repair.
    fn fan_out(
        &mut self,
        requests: &[(usize, ClusterRequest)],
    ) -> Vec<Result<ClusterResponse, ServeError>> {
        // Every slot is overwritten: each request is either sent and its
        // answer read, or failed unsent.
        let mut answers: Vec<Result<ClusterResponse, ServeError>> = requests
            .iter()
            .map(|_| Err(ServeError::Disconnected))
            .collect();
        let mut queued = vec![VecDeque::new(); self.workers.len()];
        for (i, &(w, _)) in requests.iter().enumerate() {
            queued[w].push_back(i);
        }
        let mut in_flight: Vec<Option<usize>> = Vec::with_capacity(queued.len());
        for (w, queue) in queued.iter_mut().enumerate() {
            in_flight.push(self.send_next(w, requests, queue, &mut answers));
        }
        while in_flight.iter().any(Option::is_some) {
            for (w, (slot, queue)) in in_flight.iter_mut().zip(&mut queued).enumerate() {
                if let Some(i) = *slot {
                    answers[i] = self.receive(w);
                    *slot = self.send_next(w, requests, queue, &mut answers);
                }
            }
        }
        answers
    }

    /// Send worker `w` the next of its `queued` requests, failing each
    /// that cannot be sent; returns the one now in flight.
    fn send_next(
        &mut self,
        w: usize,
        requests: &[(usize, ClusterRequest)],
        queued: &mut VecDeque<usize>,
        answers: &mut [Result<ClusterResponse, ServeError>],
    ) -> Option<usize> {
        while let Some(i) = queued.pop_front() {
            match self.send(w, &requests[i].1) {
                Ok(()) => return Some(i),
                Err(e) => answers[i] = Err(e),
            }
        }
        None
    }

    /// Pick a live worker, preferring one other than `not`.
    fn pick_live(&self, not: usize) -> Result<usize, ClusterError> {
        let n = self.workers.len();
        (1..=n)
            .map(|d| (not + d) % n)
            .find(|&w| !self.workers[w].dead)
            .ok_or(ClusterError::NoWorkers)
    }

    /// Re-host `shard` on a surviving worker from the newest checkpoint and
    /// its op log, sending the unacked batches along. Also resolves an
    /// in-doubt batch: the new host skips it if the dead worker's log
    /// holds it and applies it otherwise, so either way the shard reaches
    /// the last routed seq.
    fn reassign(&mut self, shard: u64) -> Result<(), ClusterError> {
        let (disk_seq, disk_path) = newest_snapshot(&self.cfg.dir, shard).ok_or_else(|| {
            ClusterError::Store(format!(
                "no committed snapshot for shard {shard} under {}",
                self.cfg.dir.display()
            ))
        })?;
        let meta = &self.shards[shard as usize];
        let target_seq = meta.log.last().map_or(meta.seq, |&(s, _)| s);
        let replay: Vec<ReplayBatch> = meta
            .log
            .iter()
            .map(|(s, ops)| ReplayBatch {
                seq: *s,
                ops: ops.clone(),
            })
            .collect();
        let mut from = self.shards[shard as usize].worker;
        loop {
            let w = self.pick_live(from)?;
            match self.call(
                w,
                &ClusterRequest::Assign {
                    shard,
                    path: disk_path.display().to_string(),
                    replay: replay.clone(),
                },
            ) {
                Ok(ClusterResponse::AssignAck { live, .. }) => {
                    let meta = &mut self.shards[shard as usize];
                    meta.worker = w;
                    meta.seq = target_seq;
                    meta.live = live;
                    meta.log.clear();
                    // A host that replayed anything checkpointed the
                    // result under its seq before acking.
                    meta.checkpoint = if target_seq == disk_seq {
                        (disk_seq, disk_path)
                    } else {
                        let name = format!("shard-{shard}.seq{target_seq}.tkd");
                        (target_seq, self.cfg.dir.join(name))
                    };
                    return self.write_manifest();
                }
                Ok(other) => {
                    return Err(ClusterError::Protocol(format!(
                        "re-assign of shard {shard} answered {other:?}"
                    )))
                }
                Err(e) if self.workers[w].dead => {
                    // That worker died too; keep walking the ring.
                    from = w;
                    let _ = e;
                }
                Err(e) => return Err(ClusterError::Worker(e)),
            }
        }
    }

    /// Repair a dead worker: every shard it hosted is re-assigned from
    /// its newest checkpoint and the op log beside it.
    fn repair_worker(&mut self, w: usize) -> Result<(), ClusterError> {
        self.stats.repairs += 1;
        self.workers[w].dead = true;
        self.workers[w].client = None;
        let hosted: Vec<u64> = (0..self.shards.len() as u64)
            .filter(|&s| self.shards[s as usize].worker == w)
            .collect();
        for shard in hosted {
            self.reassign(shard)?;
        }
        Ok(())
    }

    /// Move `shard` to worker `to` via snapshot handoff: the current
    /// host commits and releases the shard, then `to` loads it. A death
    /// on either side falls back to snapshot re-assignment, so the
    /// shard is never lost mid-move.
    ///
    /// # Errors
    /// [`ClusterError::OutOfRange`] for a `shard` or `to` this cluster
    /// does not have (nothing moves); [`ClusterError::NoWorkers`] when no
    /// live worker can take the shard; typed worker/protocol errors
    /// otherwise.
    pub fn handoff(&mut self, shard: u64, to: usize) -> Result<(), ClusterError> {
        let in_range = |what, index: u64, count: usize| {
            let count = count as u64;
            if index < count {
                Ok(())
            } else {
                Err(ClusterError::OutOfRange { what, index, count })
            }
        };
        in_range("shard", shard, self.shards.len())?;
        in_range("worker", to as u64, self.workers.len())?;
        let from = self.shards[shard as usize].worker;
        if from == to {
            return Ok(());
        }
        match self.call(from, &ClusterRequest::Handoff { shard }) {
            Ok(ClusterResponse::HandoffAck { path, seq }) => {
                if seq != self.shards[shard as usize].seq {
                    return Err(ClusterError::Protocol(format!(
                        "handoff of shard {shard} acked seq {seq}, coordinator has {}",
                        self.shards[shard as usize].seq
                    )));
                }
                self.shards[shard as usize].checkpoint = checkpoint(shard, path, seq)?;
            }
            Ok(other) => {
                return Err(ClusterError::Protocol(format!(
                    "handoff answered {other:?}"
                )))
            }
            Err(_) if self.workers[from].dead => return self.reassign(shard),
            Err(e) => return Err(ClusterError::Worker(e)),
        }
        // The shard is now hosted nowhere; land it on `to`, or anywhere
        // live if `to` dies under us.
        let (path, live) = {
            let m = &self.shards[shard as usize];
            (m.checkpoint.1.display().to_string(), m.live)
        };
        match self.call(
            to,
            &ClusterRequest::Assign {
                shard,
                path,
                replay: Vec::new(),
            },
        ) {
            Ok(ClusterResponse::AssignAck { live: got, .. }) => {
                if got != live {
                    return Err(ClusterError::Protocol(format!(
                        "handoff re-host of shard {shard} reports {got} live, expected {live}"
                    )));
                }
                self.shards[shard as usize].worker = to;
                self.write_manifest()
            }
            Ok(other) => Err(ClusterError::Protocol(format!(
                "handoff assign answered {other:?}"
            ))),
            Err(_) if self.workers[to].dead => self.reassign(shard),
            Err(e) => Err(ClusterError::Worker(e)),
        }
    }

    /// Apply an update batch through the single-writer path: check it
    /// with the engine's batch rules against the route map, route each op
    /// to its shard by id, and commit each per-shard batch with a
    /// strictly increasing seq to the worker's op log. A worker death
    /// mid-batch is repaired in place (the shard's log resolves whether
    /// the in-doubt batch committed), so a successful return means every
    /// shard holds exactly the coordinator's rows.
    ///
    /// # Errors
    /// [`ClusterError::Rejected`] if an op fails the batch check — the
    /// batch changes nothing: no frame is sent and no snapshot or
    /// manifest is written; worker/store errors if the cluster cannot be
    /// brought back in sync.
    pub fn update(&mut self, ops: &[UpdateOp]) -> Result<(), ClusterError> {
        let rejected = |(index, e): (usize, UpdateError)| ClusterError::Rejected {
            index: index as u64,
            message: e.to_string(),
        };
        let next_id = self.rows.len() as ObjectId;
        let live = |id| self.home(id).map(|_| (id as usize, self.rows.mask(id)));
        check_batch(self.rows.dims(), next_id, next_id as usize, live, ops).map_err(rejected)?;
        self.queue = None;
        // Local ids are allocated in order, so each shard's inserts get
        // `first_local[s]..next_local` — what its ack must report.
        let first_local: Vec<u32> = self.shards.iter().map(|m| m.next_local).collect();
        let mut routed: BTreeMap<u64, Vec<UpdateOp>> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            // The check above accepted every op, so none fails here.
            let (shard, local_op) = self.route_op(op).map_err(|e| rejected((i, e)))?;
            routed.entry(shard).or_default().push(local_op);
        }
        // Each shard's batch is logged before it is sent, so the repair of
        // a worker that fails it, or never gets it, replays it.
        let mut sent = Vec::with_capacity(routed.len());
        let mut requests = Vec::with_capacity(routed.len());
        for (shard, ops) in routed {
            let meta = &mut self.shards[shard as usize];
            let seq = meta.seq + 1;
            meta.log.push((seq, ops.clone()));
            sent.push((shard, seq));
            let update = ShardUpdate { shard, seq, ops };
            requests.push((meta.worker, ClusterRequest::ShardUpdate(update)));
        }
        // Every answer is in before anything is repaired: an ack from a
        // surviving worker is recorded even when another worker failed.
        let answers = self.fan_out(&requests);
        let (mut dead, mut failed) = (Vec::new(), None);
        for ((&(shard, seq), &(w, _)), answer) in sent.iter().zip(&requests).zip(answers) {
            let outcome = match answer {
                Ok(ClusterResponse::ShardUpdateAck(ack)) => {
                    self.commit_ack(shard, seq, first_local[shard as usize], ack)
                }
                Ok(other) => Err(ClusterError::Protocol(format!(
                    "shard update answered {other:?}"
                ))),
                Err(_) if self.workers[w].dead => {
                    // In-doubt batch: repair re-hosts the shard from the
                    // newest snapshot (which proves whether the batch
                    // committed) and replays it if it did not.
                    if !dead.contains(&w) {
                        dead.push(w);
                    }
                    Ok(())
                }
                Err(e) => Err(ClusterError::Worker(e)),
            };
            if let Err(e) = outcome {
                failed.get_or_insert(e);
            }
        }
        for w in dead {
            if let Err(e) = self.repair_worker(w) {
                failed.get_or_insert(e);
            }
        }
        let written = self.write_manifest();
        failed.map_or(written, Err)
    }

    /// Record shard `shard`'s ack of its batch `seq`, whose inserts were
    /// allocated local ids from `first_local` on.
    fn commit_ack(
        &mut self,
        shard: u64,
        seq: u64,
        first_local: u32,
        ack: ShardUpdateAck,
    ) -> Result<(), ClusterError> {
        if ack.seq != seq {
            return Err(ClusterError::Protocol(format!(
                "shard {shard} acked seq {}, expected {seq}",
                ack.seq
            )));
        }
        let allocated = first_local..self.shards[shard as usize].next_local;
        let expected: Vec<u64> = allocated.map(u64::from).collect();
        if ack.inserted != expected {
            return Err(ClusterError::Protocol(format!(
                "shard {shard} allocated inserts {:?}, coordinator predicted {:?}",
                ack.inserted, expected
            )));
        }
        let checkpoint = checkpoint(shard, ack.path, seq)?;
        let meta = &mut self.shards[shard as usize];
        meta.seq = seq;
        meta.live = ack.live;
        meta.checkpoint = checkpoint;
        meta.log.retain(|&(s, _)| s > ack.seq);
        Ok(())
    }

    /// Apply one checked op to the rows, both counts and the route map,
    /// and name it as its shard will see it. An insert is routed to shard
    /// `id mod shards` and bound at once, so later ops in the same batch
    /// can target it.
    fn route_op(&mut self, op: &UpdateOp) -> Result<(u64, UpdateOp), UpdateError> {
        Ok(match op {
            UpdateOp::Insert(row) | UpdateOp::InsertLabeled(_, row) => {
                let g = match op {
                    UpdateOp::InsertLabeled(label, _) => {
                        self.rows.push_row_labeled(label.as_str(), row)?
                    }
                    _ => self.rows.push_row(row)?,
                };
                self.counts.insert(self.rows.row(g));
                self.pairs.insert(self.rows.row(g));
                let shard = u64::from(g) % self.shards.len() as u64;
                let meta = &mut self.shards[shard as usize];
                self.route.push(Some((shard, meta.next_local)));
                meta.next_local += 1;
                (shard, op.clone())
            }
            UpdateOp::Delete(g) => {
                let home = self.route.get_mut(*g as usize).and_then(Option::take);
                let (shard, local) = home.ok_or(UpdateError::Deleted(*g))?;
                self.counts.remove(self.rows.row(*g));
                self.pairs.remove(self.rows.row(*g));
                (shard, UpdateOp::Delete(local))
            }
            UpdateOp::Set(g, dim, v) => {
                let (shard, local) = self.home(*g).ok_or(UpdateError::Deleted(*g))?;
                let old = self.rows.value(*g, *dim);
                self.rows.set_value(*g, *dim, *v)?;
                self.counts.set(*dim, old, *v);
                self.pairs.set(self.rows.row(*g), *dim, old);
                (shard, UpdateOp::Set(local, *dim, *v))
            }
        })
    }

    /// Answer a top-k dominating query across the cluster, bit-identical
    /// to the in-process engines. Worker deaths mid-query are repaired
    /// and the query retried (it is read-only on the workers), bounded
    /// by the worker count.
    ///
    /// # Errors
    /// [`ClusterError::UnsupportedAlgorithm`] for anything but BIG/IBIG,
    /// before any frame is sent — a frame the wire cannot encode would
    /// otherwise read as a transport failure and kill a healthy worker;
    /// [`ClusterError::NoWorkers`] once every worker has died; typed
    /// worker/protocol errors otherwise.
    pub fn query(&mut self, k: usize, algorithm: Algorithm) -> Result<TkdResult, ClusterError> {
        if !matches!(algorithm, Algorithm::Big | Algorithm::Ibig) {
            return Err(ClusterError::UnsupportedAlgorithm(algorithm));
        }
        let queue = match self.queue.take() {
            Some(queue) => queue,
            None => {
                let live = self.route.iter().enumerate();
                let live = live.filter_map(|(g, home)| home.map(|_| g as ObjectId));
                self.pairs.refresh();
                self.counts.queue(&self.rows, live)
            }
        };
        let mut attempts = self.workers.len() + 1;
        let result = loop {
            match self.try_query(&queue, k, algorithm) {
                Ok(r) => break Ok(r),
                Err(Retry::Fatal(e)) => break Err(e),
                Err(Retry::Dead(w)) => {
                    attempts -= 1;
                    if attempts == 0 {
                        break Err(ClusterError::NoWorkers);
                    }
                    if let Err(e) = self.repair_worker(w) {
                        break Err(e);
                    }
                }
            }
        };
        self.queue = Some(queue);
        result
    }

    fn try_query(
        &mut self,
        queue: &[(ObjectId, usize)],
        k: usize,
        algorithm: Algorithm,
    ) -> Result<TkdResult, Retry> {
        let active: Vec<u64> = (0..self.shards.len() as u64)
            .filter(|&s| self.shards[s as usize].live > 0)
            .collect();
        let mut replay = Replay::new(k);
        let mut shipped: Option<u64> = None;
        // The first chunk ships `FIRST_CHUNK` candidates, each later one
        // twice as many as the one before, up to what one frame carries.
        let cap = chunk_cap(self.rows.dims());
        let mut chunk_size = FIRST_CHUNK.min(cap);
        // Per-chunk buffers, reused by every chunk: the shipped queue
        // positions, the ids of the candidates a phase asks about, the
        // per-candidate sums it gathers, each position's score (`None`
        // where the coordinator or the shards pruned) and the frames.
        let (mut ship, mut picks) = (Vec::new(), Vec::new());
        let (mut sums, mut scores) = (Vec::new(), Vec::new());
        let mut requests = Vec::new();
        let mut t = 0;
        'queue: while t < queue.len() {
            // Heuristic 1 at the chunk head: nothing is shipped for a
            // traversal that is already over (`k = 0` included).
            if replay.h1_prunes(queue[t].1) {
                replay.terminate(queue.len() - t);
                break;
            }
            // τ at chunk start. Deciding a whole chunk against one τ is
            // exact: a candidate the sequential driver would have H2-
            // pruned under a tighter τ scores ≤ τ, so its offer is a
            // no-op either way — only prune counters can differ. τ rides
            // in the `shard_query` frames themselves.
            let tau = replay.tau();
            // Fill the chunk: the coordinator's tables decide what they
            // can, up to `chunk_size` others are shipped, and filling
            // stops where Heuristic 1 ends the walk at this τ.
            ship.clear();
            let mut end = t;
            while end < queue.len() && ship.len() < chunk_size {
                let (o, max_score) = queue[end];
                if end > t && replay.h1_prunes(max_score) {
                    break;
                }
                let row = self.rows.row(o);
                if !tau.is_some_and(|tv| self.pairs.prunes(row, tv + 1)) {
                    ship.push(end);
                }
                end += 1;
            }
            let tau = tau.map(|x| x as u64);
            scores.clear();
            scores.resize(end - t, None);
            picks.clear();
            if !ship.is_empty() {
                if tau.is_some() && tau != shipped {
                    self.stats.tau_rounds += 1;
                    shipped = tau;
                }
                // Phase 1: per-shard exact `|∩ᵢ Qᵢ|` counts, summed here.
                picks.extend(ship.iter().map(|&at| queue[at].0));
                let phase = (algorithm, ShardPhase::Bounds, tau);
                self.fan_sums(&active, phase, &picks, &mut requests, &mut sums)?;
                // Heuristic 2: the sum counts the candidate's own bit
                // once, in its home shard, so `MaxBitScore = Σ − 1`.
                picks.clear();
                for (&at, &sum) in ship.iter().zip(&sums) {
                    if !matches!(tau, Some(tv) if sum.saturating_sub(1) <= tv) {
                        picks.push(queue[at].0);
                        scores[at - t] = Some(0);
                    }
                }
            }
            // Phase 2: exact partials for the survivors, whose slots are
            // the chunk's `Some` scores in queue order.
            if !picks.is_empty() {
                let phase = (algorithm, ShardPhase::Partials, tau);
                self.fan_sums(&active, phase, &picks, &mut requests, &mut sums)?;
                for (score, &sum) in scores.iter_mut().flatten().zip(&sums) {
                    *score = sum;
                }
            }
            // Replay in queue order with the *evolving* top-k: the H1
            // position is exact even when it lands mid-chunk.
            for (at, &(o, max_score)) in queue.iter().enumerate().take(end).skip(t) {
                if replay.h1_prunes(max_score) {
                    replay.terminate(queue.len() - at);
                    break 'queue;
                }
                let score = scores[at - t].map(|s| Outcome::Score(s as usize));
                replay.absorb(o, score.unwrap_or(Outcome::PrunedBitmap));
            }
            t = end;
            chunk_size = chunk_size.saturating_mul(2).min(cap);
        }
        Ok(replay.finish())
    }

    /// One phase of a chunk: every active shard bounds or scores the
    /// candidates `picks` at `(algorithm, phase, τ)`, in one fan-out, and
    /// `sums` gets each candidate's sum of their answers. A dead worker
    /// outranks any other failure, so its repair comes first.
    fn fan_sums(
        &mut self,
        active: &[u64],
        (algorithm, phase, tau): (Algorithm, ShardPhase, Option<u64>),
        picks: &[ObjectId],
        requests: &mut Vec<(usize, ClusterRequest)>,
        sums: &mut Vec<u64>,
    ) -> Result<(), Retry> {
        requests.clear();
        for &s in active {
            let mut candidates = Vec::with_capacity(picks.len());
            for &o in picks {
                let (home, local) = self.home(o).ok_or_else(|| {
                    Retry::Fatal(ClusterError::Protocol(format!(
                        "queued id {o} has no route"
                    )))
                })?;
                candidates.push(WireCandidate {
                    values: self.rows.row(o).to_options(),
                    member: (home == s).then_some(u64::from(local)),
                });
            }
            self.stats.candidates_shipped += candidates.len() as u64;
            let query = ShardQuery {
                shard: s,
                algorithm,
                phase,
                tau,
                candidates,
            };
            requests.push((
                self.shards[s as usize].worker,
                ClusterRequest::ShardQuery(query),
            ));
        }
        let answers = self.fan_out(requests);
        sums.clear();
        sums.resize(picks.len(), 0);
        let (mut dead, mut fatal) = (None, None);
        for (&(w, _), answer) in requests.iter().zip(answers) {
            match answer {
                Ok(ClusterResponse::ShardOutcomes(v)) if v.len() == picks.len() => {
                    for (sum, x) in sums.iter_mut().zip(v) {
                        *sum += x;
                    }
                }
                Ok(other) => {
                    let e = format!("shard query answered {other:?}");
                    fatal.get_or_insert(ClusterError::Protocol(e));
                }
                Err(_) if self.workers[w].dead => {
                    dead.get_or_insert(w);
                }
                Err(e) => {
                    fatal.get_or_insert(ClusterError::Worker(e));
                }
            }
        }
        match (dead, fatal) {
            (Some(w), _) => Err(Retry::Dead(w)),
            (None, Some(e)) => Err(Retry::Fatal(e)),
            (None, None) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Worker, WorkerConfig};
    use tkd_core::EngineQuery;

    /// The 12-row, 2-dimensional dataset most tests seed.
    fn grid() -> Dataset {
        let rows: Vec<Vec<Option<f64>>> = (0..12)
            .map(|i| vec![Some(f64::from(i % 5)), Some(f64::from(i % 3))])
            .collect();
        Dataset::from_rows(2, &rows).expect("valid rows")
    }

    /// Two workers and a 2-shard cluster over `ds`, seeded under a
    /// scratch directory of its own, plus the oracle: a twin engine over
    /// the same rows, to be fed the same ops.
    fn seeded(tag: &str, ds: &Dataset) -> (Vec<Worker>, Coordinator, DynamicEngine, PathBuf) {
        let dir = std::env::temp_dir().join(format!("tkd-cluster-{tag}-{}", std::process::id()));
        let workers: Vec<Worker> = (0..2)
            .map(|_| Worker::start("127.0.0.1:0", WorkerConfig::default()).expect("worker start"))
            .collect();
        let addrs: Vec<SocketAddr> = workers.iter().map(Worker::local_addr).collect();
        let coord =
            Coordinator::seed(ds, 2, &addrs, ClusterConfig::new(&dir)).expect("seed cluster");
        (workers, coord, DynamicEngine::new(ds.clone()), dir)
    }

    /// The chunk cap is the frame bound's: a worst-case `shard_query`
    /// body — every cell observed, τ and every member id present — takes
    /// exactly `QUERY_HEAD_BYTES` plus `13 + 9·dims` bytes a candidate,
    /// and `chunk_cap` candidates fit within `DEFAULT_MAX_FRAME` where
    /// one more would not.
    #[test]
    fn chunk_cap_is_the_largest_frame_the_wire_takes() {
        use tkd_serve::cluster_wire::encode_cluster_request;
        use tkd_serve::protocol::HEADER_LEN;
        for dims in [1, 2, 6, 64] {
            let per = 13 + 9 * dims as u64;
            for n in [0, 1, 3] {
                let candidate = WireCandidate {
                    values: vec![Some(-1.5); dims],
                    member: Some(u64::MAX),
                };
                let frame = ClusterRequest::ShardQuery(ShardQuery {
                    shard: 7,
                    algorithm: Algorithm::Ibig,
                    phase: ShardPhase::Partials,
                    tau: Some(u64::MAX),
                    candidates: vec![candidate; n],
                });
                let body = encode_cluster_request(&frame).expect("encodes").len() - HEADER_LEN;
                assert_eq!(
                    body as u64,
                    QUERY_HEAD_BYTES + n as u64 * per,
                    "{dims} dims"
                );
            }
            let cap = chunk_cap(dims) as u64;
            assert!(
                QUERY_HEAD_BYTES + cap * per <= DEFAULT_MAX_FRAME,
                "{dims} dims"
            );
            assert!(
                QUERY_HEAD_BYTES + (cap + 1) * per > DEFAULT_MAX_FRAME,
                "{dims} dims"
            );
        }
    }

    /// A handoff naming a shard or worker the cluster does not have is a
    /// typed error that moves nothing (`tkdq cluster query --handoff 9:0`
    /// used to die on an assertion here).
    #[test]
    fn handoff_of_an_unknown_shard_or_worker_is_a_typed_error() {
        let (workers, mut coord, mut twin, dir) = seeded("handoff-range", &grid());
        let hosts = (coord.worker_of(0), coord.worker_of(1));
        for (shard, to, message) in [
            (99, 0, "unknown shard 99: the cluster has shards 0..2"),
            (0, 99, "unknown worker 99: the cluster has workers 0..2"),
        ] {
            let err = coord.handoff(shard, to).expect_err("out of range");
            assert!(matches!(err, ClusterError::OutOfRange { .. }), "{err:?}");
            assert_eq!(err.to_string(), message);
            assert_eq!((coord.worker_of(0), coord.worker_of(1)), hosts);
        }
        let want = twin.query(&EngineQuery::new(4)).expect("twin");
        let got = coord.query(4, Algorithm::Big).expect("cluster query");
        assert_eq!(got.entries(), want.entries());

        drop(workers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A query for an algorithm the wire cannot carry is a typed error
    /// that sends nothing and kills no worker: an encode error alone
    /// would read as a transport failure, mark the worker dead and
    /// re-host its shards.
    #[test]
    fn unservable_algorithm_is_rejected_before_any_frame() {
        let (workers, mut coord, mut twin, dir) = seeded("unservable", &grid());
        let frames = coord.stats.frames;
        for a in [Algorithm::Naive, Algorithm::Esb, Algorithm::Ubb] {
            let err = coord.query(4, a).expect_err("not servable");
            assert!(
                matches!(err, ClusterError::UnsupportedAlgorithm(got) if got == a),
                "{err:?}"
            );
            assert_eq!(coord.live_workers(), 2);
        }
        assert_eq!(coord.stats.frames, frames);
        assert_eq!(coord.stats.repairs, 0);
        let want = twin.query(&EngineQuery::new(4)).expect("twin");
        let got = coord.query(4, Algorithm::Ibig).expect("cluster query");
        assert_eq!(got.entries(), want.entries());

        drop(workers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every acked batch is in its shard's op log, so the replay
    /// log is cut at each ack — and an in-doubt batch leaves it as soon
    /// as the repair has re-hosted its shard from the replayed snapshot.
    #[test]
    fn replay_log_holds_at_most_the_in_doubt_batch() {
        let (mut workers, mut coord, mut twin, dir) = seeded("log", &grid());

        // Each batch touches both shards: a set lands on shard 0 (id 0),
        // inserts alternate between the shards by id.
        let batch = |i: u32| {
            vec![
                UpdateOp::Insert(vec![Some(f64::from(i)), Some(1.0)]),
                UpdateOp::Insert(vec![Some(2.0), None]),
                UpdateOp::Set(0, 1, Some(f64::from(i))),
            ]
        };
        for i in 0..8 {
            coord.update(&batch(i)).expect("cluster update");
            assert!(twin.apply_ops(&batch(i)).error.is_none());
            assert!(
                coord.shards.iter().all(|m| m.log.is_empty()),
                "an acked batch must leave the log (after update {i})"
            );
        }
        assert!(coord.shards.iter().all(|m| m.seq == 8));

        // Kill shard 0's host: the next batch is in doubt, the repair
        // replays it onto the survivor, and the log is empty again.
        workers.remove(coord.worker_of(0)).kill();
        coord.update(&batch(8)).expect("repaired update");
        assert!(twin.apply_ops(&batch(8)).error.is_none());
        assert!(coord.shards.iter().all(|m| m.log.is_empty()));
        assert!(coord.shards.iter().all(|m| m.seq == 9));
        let want = twin.query(&EngineQuery::new(4)).expect("twin");
        let got = coord.query(4, Algorithm::Big).expect("cluster query");
        assert_eq!(got.entries(), want.entries());

        drop(workers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Labels come from the coordinator's rows: a seeded row keeps its
    /// label, an insert carries its own, and an unlabeled insert, a
    /// deleted id and an id never issued have none (`tkdq cluster query
    /// --labeled` used to print `#4` for an inserted `star`).
    #[test]
    fn labels_of_seeded_and_inserted_rows() {
        let mut b = Dataset::builder(2).expect("two dims");
        for (label, v) in [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)] {
            b.push_labeled(label, &[Some(v), Some(v)])
                .expect("valid row");
        }
        let (workers, mut coord, mut twin, dir) = seeded("labels", &b.build());
        let ops = [
            UpdateOp::InsertLabeled("star".into(), vec![Some(0.0), Some(0.0)]),
            UpdateOp::Insert(vec![Some(5.0), None]),
            UpdateOp::Delete(1),
        ];
        coord.update(&ops).expect("cluster update");
        assert!(twin.apply_ops(&ops).error.is_none());
        for (id, label) in [
            (0, Some("a")),
            (4, Some("star")),
            (5, None),
            (1, None),
            (9, None),
        ] {
            assert_eq!(coord.label(id), label, "id {id}");
        }
        let got = coord.query(2, Algorithm::Big).expect("cluster query");
        let want = twin.query(&EngineQuery::new(2)).expect("twin");
        assert_eq!(got.entries(), want.entries());
        assert_eq!(coord.label(got.entries()[0].id), Some("star"));

        drop(workers);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
