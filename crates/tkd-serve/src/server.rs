//! The server: a TCP listener, per-connection reader threads, and a
//! single engine thread that owns the [`DynamicEngine`].
//!
//! # Threading model
//!
//! ```text
//! accept thread ──accept──▶ connection threads (one per client)
//!                                   │  decode → submit → await reply
//!                                   │  (+ a push thread once subscribed)
//!                                   ▼
//!                        bounded queue + condvar
//!                                   │
//!                                   ▼
//!                  engine thread (sole owner of the DynamicEngine)
//!                    coalesce queries → query_many
//!                    update batches   → check → append + sync → apply → ack
//!                                       → standing re-queries → pushes
//! ```
//!
//! The accept thread blocks in `accept` and hands each connection to
//! its thread the moment it arrives ([`crate::accept`]); a stop wakes it
//! with a loopback connection, so no tick delays a new client. A
//! connection thread blocks in `peek` until a request starts, and a
//! subscribed connection's push thread waits on its sink's bell, so
//! neither a request nor a push waits for a poll tick.
//!
//! Only the engine thread ever touches the engine, so updates are
//! single-writer by construction and queries always observe a complete
//! batch boundary. Consecutive single queries at the head of the queue
//! are coalesced into one [`DynamicEngine::query_many`] pass (up to
//! [`ServeConfig::batch_max`]), which amortizes the per-batch index
//! refresh across waiting clients.
//!
//! # Admission control
//!
//! Three gates, each a typed rejection rather than backpressure-by-hang:
//! * queue full at submit → [`ServeError::Overloaded`] with the depth,
//! * waited past [`ServeConfig::request_timeout`] when dequeued →
//!   [`ServeError::Timeout`] with the observed wait,
//! * server draining → [`ServeError::ShuttingDown`].
//!
//! # Shutdown
//!
//! A `shutdown` frame (or [`Server::stop`]) flips the drain flag under
//! the queue lock: no new work is admitted, everything already queued is
//! answered, a final checkpoint is written, and the engine is handed back
//! to the caller so nothing in flight is ever silently dropped.
//!
//! # Durability
//!
//! With [`ServeConfig::snapshot`] set, an update batch is acked only
//! after it is appended to the op log beside the snapshot and synced
//! ([`tkd_store::Journal`]): O(batch), not a rewrite of the engine. The
//! batch is checked first and applied after, so a batch that cannot be
//! logged is rejected and changes nothing. Once the log holds
//! [`tkd_store::CHECKPOINT_RECORDS`] records the engine thread saves the
//! whole engine — after the ack, so no update waits for it — and the log
//! starts over; the drain saves once more. The server is handed an
//! engine, not a file, so its first append checkpoints that engine:
//! the log's base is exactly the state its records apply to.
//! [`tkd_store::load_engine`] on the path recovers the acked state.

use crate::accept::Acceptor;
use crate::error::ServeError;
use crate::protocol::{
    self, decode_request_body, encode_response, ErrorFrame, FramePolicy, QuerySpec, Request,
    Response, ServerStats, SubscribeAck, UpdateAck, WireEntry, WireNotification, DEFAULT_MAX_FRAME,
    ERR_BAD_REQUEST, ERR_OVERLOADED, ERR_REJECTED, ERR_SHUTTING_DOWN, ERR_TIMEOUT,
};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tkd_core::{DynamicEngine, EngineQuery, Notification, StandingSpec, TieBreak, UpdateOp};
use tkd_store::Journal;

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads per `query_many` pass.
    pub threads: usize,
    /// Queue-depth bound — submissions beyond this are rejected
    /// `Overloaded` instead of queued.
    pub max_queue: usize,
    /// Most single queries coalesced into one engine pass.
    pub batch_max: usize,
    /// Queue-wait budget per request; exceeded = typed `Timeout`.
    pub request_timeout: Duration,
    /// Per-frame delivery budget on the socket (slow-loris guard) and
    /// response write budget.
    pub io_timeout: Duration,
    /// Largest accepted frame body.
    pub max_frame: u64,
    /// If set, every acked update batch is appended to the op log beside
    /// this snapshot before it is applied, and the snapshot is the log's
    /// checkpoint (see the module docs § Durability).
    pub snapshot: Option<PathBuf>,
    /// How long the startup snapshot load took, reported verbatim in
    /// the `stats` frame (`None` = engine built in-process, reported
    /// as 0). The caller that loaded the snapshot times it and passes
    /// the measurement in.
    pub load_time: Option<Duration>,
    /// Update-batch sequence number to start counting from. 0 for a
    /// fresh server; a server restarted over an existing snapshot
    /// passes its predecessor's last acked seq so the `seq` stream
    /// stays strictly increasing across the restart (the replay
    /// contract clients rely on).
    pub initial_seq: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 1,
            max_queue: 128,
            batch_max: 32,
            request_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(5),
            max_frame: DEFAULT_MAX_FRAME,
            snapshot: None,
            load_time: None,
            initial_seq: 0,
        }
    }
}

/// Work a connection thread hands the engine thread.
enum Work {
    /// A single query: a run of them at the head of the queue is answered
    /// by one engine pass.
    Query(QuerySpec),
    /// Any other request, answered alone.
    Solo(Solo),
}

/// A request the engine thread answers on its own.
enum Solo {
    Batch(Vec<QuerySpec>),
    Update(Vec<UpdateOp>),
    Stats,
    Shutdown,
    /// Register a standing query; deltas are pushed through the sink.
    Subscribe(StandingSpec, Arc<PushSink>),
    /// End a standing query — only one registered through this sink.
    Unsubscribe(u64, Arc<PushSink>),
    /// A TKDQL statement (v4); `SUBSCRIBE TO …` registers on the sink.
    QueryText(String, Arc<PushSink>),
}

/// A connection's outbox for server-initiated frames. The engine thread
/// enqueues sealed `notify` frames and rings the bell; the connection's
/// push thread writes them, each whole, under the connection's write
/// lock (so a push can never interleave inside a frame on the wire).
/// When the connection dies it flips `dead`, and the engine thread
/// unregisters the orphaned standing queries the next time it routes to
/// the sink.
#[derive(Default)]
struct PushSink {
    frames: Mutex<VecDeque<Vec<u8>>>,
    /// Rung by [`PushSink::push`] and [`PushSink::close`]: the push
    /// thread writes a frame the moment it is buffered.
    bell: Condvar,
    dead: AtomicBool,
    /// Set by the engine thread when the first standing query registers
    /// on this connection; the connection thread then starts the push
    /// thread. Never cleared.
    subscribed: AtomicBool,
}

impl PushSink {
    fn push(&self, frame: Vec<u8>) {
        self.frames.lock().expect("push sink lock").push_back(frame);
        self.bell.notify_all();
    }

    /// Wait until a frame is buffered, the sink closes or `wait`
    /// elapses, then take every buffered frame.
    fn take(&self, wait: Duration) -> Vec<Vec<u8>> {
        let mut frames = self.frames.lock().expect("push sink lock");
        if frames.is_empty() && !self.dead.load(Ordering::Acquire) {
            frames = self
                .bell
                .wait_timeout(frames, wait)
                .expect("push sink lock")
                .0;
        }
        frames.drain(..).collect()
    }

    /// Mark the connection gone and wake its push thread.
    fn close(&self) {
        let _frames = self.frames.lock().expect("push sink lock");
        self.dead.store(true, Ordering::Release);
        self.bell.notify_all();
    }
}

/// How often an idle connection (and a push thread with nothing to
/// write) checks for a stop.
const PUSH_POLL: Duration = Duration::from_millis(50);

struct Pending<W = Work> {
    work: W,
    enqueued: Instant,
    resp: mpsc::Sender<Response>,
}

/// What the engine thread takes off the queue at once.
enum Taken {
    /// A run of consecutive single queries, formed at dequeue.
    Queries(Vec<Pending<QuerySpec>>),
    /// One other request.
    Solo(Pending<Solo>),
}

struct Queue {
    items: VecDeque<Pending>,
    draining: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    notify: Condvar,
    /// Tells connection threads and the listener to wind down. Set by
    /// the engine thread once the drain completes (or by `stop`).
    shutdown: AtomicBool,
    overloaded: AtomicU64,
    config: ServeConfig,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A running serve instance. Dropping it without [`Server::stop`] /
/// [`Server::join`] stops it as `stop` does and discards the engine.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The accept loop and the connection threads
    /// ([`crate::accept`]).
    acceptor: Acceptor,
    engine_handle: Option<JoinHandle<()>>,
    engine_rx: mpsc::Receiver<DynamicEngine>,
}

impl Server {
    /// Bind `addr`, take ownership of `engine`, and start serving.
    ///
    /// # Errors
    /// [`ServeError::Io`] if the address cannot be bound.
    pub fn start(
        engine: DynamicEngine,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr).map_err(ServeError::from)?;
        let addr = listener.local_addr().map_err(ServeError::from)?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                draining: false,
            }),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            overloaded: AtomicU64::new(0),
            config,
        });
        let (engine_tx, engine_rx) = mpsc::channel();

        let engine_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || engine_loop(engine, shared, engine_tx))
        };
        let acceptor = {
            let (stopping, serving) = (Arc::clone(&shared), Arc::clone(&shared));
            Acceptor::spawn(
                listener,
                move || stopping.stopping(),
                move |stream| connection_loop(stream, Arc::clone(&serving)),
            )
            .map_err(ServeError::from)?
        };
        Ok(Server {
            addr,
            shared,
            acceptor,
            engine_handle: Some(engine_handle),
            engine_rx,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drain and stop from the server side: stop admitting work, answer
    /// everything queued, write the final checkpoint, and hand the
    /// engine back.
    ///
    /// # Errors
    /// [`ServeError::ShuttingDown`] if the engine thread is already gone
    /// without handing the engine over (it panicked).
    pub fn stop(mut self) -> Result<DynamicEngine, ServeError> {
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.draining = true;
        }
        self.shared.notify.notify_all();
        self.reap()
    }

    /// Wait for a client-initiated `shutdown` frame to drain the server,
    /// then hand the engine back.
    ///
    /// # Errors
    /// [`ServeError::ShuttingDown`] if the engine thread died without
    /// completing the drain.
    pub fn join(mut self) -> Result<DynamicEngine, ServeError> {
        self.reap()
    }

    fn reap(&mut self) -> Result<DynamicEngine, ServeError> {
        // The engine arrives when the drain finishes — from `stop`'s
        // flag or a client shutdown frame. recv also returns (with Err)
        // if the engine thread panicked, so this cannot hang.
        let engine = self.engine_rx.recv().map_err(|_| ServeError::ShuttingDown);
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.engine_handle.take() {
            let _ = h.join();
        }
        // The shutdown flag is up: wake the blocked accept, then join it
        // and every connection thread, each of which sees the flag at its
        // next idle poll.
        self.acceptor.join();
        engine
    }
}

impl Drop for Server {
    /// Stop as [`Server::stop`] does, discarding the engine. A poisoned
    /// queue lock means a thread already panicked; the drain flag is
    /// then skipped rather than a second panic raised.
    fn drop(&mut self) {
        if self.engine_handle.is_some() {
            if let Ok(mut q) = self.shared.queue.lock() {
                q.draining = true;
            }
            self.shared.notify.notify_all();
            let _ = self.reap();
        }
    }
}

/// One client connection: read frames, submit work, relay responses.
/// Standing-query pushes go out on a second thread, started when the
/// connection's first standing query registers. Every failure path ends
/// in a typed error frame (best effort), a closed push sink, and a clean
/// close — never a panic, and never a wedged server.
fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(out) = stream.try_clone() else {
        return;
    };
    let out = Mutex::new(out);
    let sink = Arc::new(PushSink::default());
    std::thread::scope(|scope| {
        connection_loop_inner(stream, &shared, &sink, &out, scope);
        // However the connection ended, orphan its subscriptions: the
        // engine thread unregisters them on the next notification it
        // routes here. The push thread, if any, ends with it.
        sink.close();
    });
}

fn connection_loop_inner<'s>(
    mut stream: TcpStream,
    shared: &'s Shared,
    sink: &'s Arc<PushSink>,
    out: &'s Mutex<TcpStream>,
    scope: &'s std::thread::Scope<'s, '_>,
) {
    let _ = stream.set_nodelay(true);
    let policy = FramePolicy {
        frame_timeout: shared.config.io_timeout,
        idle_timeout: None,
    };
    let mut pusher = None;
    loop {
        // Idle phase: wait for the next request to *start*. `peek`
        // consumes nothing, so the frame is read intact below; it
        // returns the moment the frame arrives, and every poll to look
        // for a stop.
        loop {
            if shared.stopping() {
                return;
            }
            if stream.set_read_timeout(Some(PUSH_POLL)).is_err() {
                return;
            }
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(0) => return, // clean EOF between frames
                Ok(_) => break,  // a frame has started
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return,
            }
        }
        let stop = || shared.stopping();
        let (kind, body) =
            match protocol::read_frame(&mut stream, shared.config.max_frame, policy, &stop) {
                Ok(frame) => frame,
                Err(ServeError::Disconnected) | Err(ServeError::ShuttingDown) => return,
                Err(e) => {
                    // Malformed or stalled input. The stream may be
                    // desynchronized, so answer once and close.
                    respond(&mut write_lock(out), shared, bad_request(&e));
                    return;
                }
            };
        let request = match decode_request_body(kind, body.as_slice()) {
            Ok(r) => r,
            Err(e) => {
                // Frame boundaries were intact (exactly header+body was
                // consumed), but the body is invalid. Reject and close:
                // a peer that speaks the framing but not the schema is
                // not going to get better.
                respond(&mut write_lock(out), shared, bad_request(&e));
                return;
            }
        };
        let work = match request {
            Request::Query(q) => Work::Query(q),
            Request::QueryBatch(qs) => Work::Solo(Solo::Batch(qs)),
            Request::UpdateOps(ops) => Work::Solo(Solo::Update(ops)),
            Request::Stats => Work::Solo(Solo::Stats),
            Request::Shutdown => Work::Solo(Solo::Shutdown),
            Request::Subscribe(spec) => Work::Solo(Solo::Subscribe(spec, Arc::clone(sink))),
            Request::Unsubscribe(id) => Work::Solo(Solo::Unsubscribe(id, Arc::clone(sink))),
            Request::QueryText(text) => Work::Solo(Solo::QueryText(text, Arc::clone(sink))),
        };
        // The write lock is held from submission to the response, so the
        // pushes an update batch causes follow its ack on this line.
        let mut writer = write_lock(out);
        let reply = match submit(shared, work) {
            Ok(rx) => match rx.recv() {
                Ok(resp) => resp,
                // Engine thread gone mid-request (drain raced us or it
                // panicked): the typed answer is ShuttingDown.
                Err(_) => Response::Error(ErrorFrame {
                    code: ERR_SHUTTING_DOWN,
                    datum: 0,
                    message: ServeError::ShuttingDown.to_string(),
                }),
            },
            Err(resp) => resp,
        };
        if !respond(&mut writer, shared, reply) {
            return;
        }
        drop(writer);
        if pusher.is_none() && sink.subscribed.load(Ordering::Acquire) {
            pusher = Some(scope.spawn(move || push_loop(shared, sink, out)));
        }
    }
}

fn write_lock(out: &Mutex<TcpStream>) -> std::sync::MutexGuard<'_, TcpStream> {
    out.lock().expect("connection write lock")
}

/// A subscribed connection's push thread: write each buffered frame as
/// soon as the bell rings. It ends when the connection closes, at a
/// stop, or when a write fails — the peer is gone, so it shuts the
/// socket and the connection thread's read ends too.
fn push_loop(shared: &Shared, sink: &PushSink, out: &Mutex<TcpStream>) {
    loop {
        let frames = sink.take(PUSH_POLL);
        if sink.dead.load(Ordering::Acquire) || shared.stopping() {
            return;
        }
        if frames.is_empty() {
            continue;
        }
        let mut stream = write_lock(out);
        for frame in frames {
            if protocol::write_frame_bytes(&mut stream, &frame, shared.config.io_timeout).is_err() {
                sink.dead.store(true, Ordering::Release);
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
        }
    }
}

/// Admission control, under the queue lock. Returns the response
/// channel on success, a typed rejection frame otherwise.
fn submit(shared: &Shared, work: Work) -> Result<mpsc::Receiver<Response>, Response> {
    let mut q = shared.queue.lock().expect("queue lock");
    if q.draining || shared.stopping() {
        return Err(Response::Error(ErrorFrame {
            code: ERR_SHUTTING_DOWN,
            datum: 0,
            message: ServeError::ShuttingDown.to_string(),
        }));
    }
    let depth = q.items.len() as u64;
    if q.items.len() >= shared.config.max_queue {
        shared.overloaded.fetch_add(1, Ordering::Relaxed);
        return Err(Response::Error(ErrorFrame {
            code: ERR_OVERLOADED,
            datum: depth,
            message: ServeError::Overloaded { depth }.to_string(),
        }));
    }
    let (tx, rx) = mpsc::channel();
    q.items.push_back(Pending {
        work,
        enqueued: Instant::now(),
        resp: tx,
    });
    drop(q);
    shared.notify.notify_all();
    Ok(rx)
}

fn bad_request(e: &ServeError) -> Response {
    Response::Error(ErrorFrame {
        code: ERR_BAD_REQUEST,
        datum: 0,
        message: e.to_string(),
    })
}

/// Write one response frame. Returns false if the connection should
/// close (write failed — peer is gone or stalled — or the response
/// itself cannot be framed).
fn respond(stream: &mut TcpStream, shared: &Shared, resp: Response) -> bool {
    match encode_response(&resp) {
        Ok(frame) => protocol::write_frame_bytes(stream, &frame, shared.config.io_timeout).is_ok(),
        Err(_) => false,
    }
}

/// Counters the engine thread owns (it also answers `stats`, so no
/// synchronization is needed beyond the shared `overloaded` atomic).
#[derive(Default)]
struct EngineCounters {
    seq: u64,
    served_queries: u64,
    coalesced_batches: u64,
    timeouts: u64,
}

/// The single-writer loop: sole owner of the engine from start to drain.
/// It also owns the subscription registry (standing-query id → the push
/// sink of the connection that registered it) and the journal acked
/// batches go to (`None` without [`ServeConfig::snapshot`]). The journal
/// starts stale — the engine need not be the file — and touches no file
/// before the first append.
fn engine_loop(mut engine: DynamicEngine, shared: Arc<Shared>, done: mpsc::Sender<DynamicEngine>) {
    let mut counters = EngineCounters {
        seq: shared.config.initial_seq,
        ..EngineCounters::default()
    };
    let mut subs: HashMap<u64, Arc<PushSink>> = HashMap::new();
    let mut journal = shared
        .config
        .snapshot
        .clone()
        .map(|path| Journal::stale(path, counters.seq));
    loop {
        let (taken, drain_now) = next_batch(&shared);
        if let Some(taken) = taken {
            serve_one(
                &mut engine,
                &shared,
                &mut counters,
                &mut subs,
                &mut journal,
                taken,
            );
        }
        if drain_now {
            break;
        }
    }
    // Everything queued has been answered; `submit` rejects once the
    // drain flag is up and `next_batch` only reports drained when the
    // queue is empty under the same lock — but sweep anyway, so the
    // invariant "no accepted request goes unanswered" survives future
    // refactors of either side rather than resting on their interplay.
    sweep_leftovers(&shared);
    // Final checkpoint, then hand the engine back.
    if let Some(journal) = &mut journal {
        let _ = journal.checkpoint(&engine);
    }
    shared.shutdown.store(true, Ordering::Release);
    let _ = done.send(engine);
}

/// Answer every request still queued at drain completion with a typed
/// `ShuttingDown` rejection. Returns how many were swept (0 in every
/// reachable interleaving today; the drain-race stress test pins that
/// clients never hang either way).
fn sweep_leftovers(shared: &Shared) -> usize {
    let leftovers: Vec<Pending> = {
        let mut q = shared.queue.lock().expect("queue lock");
        q.items.drain(..).collect()
    };
    let count = leftovers.len();
    for p in leftovers {
        let _ = p.resp.send(Response::Error(ErrorFrame {
            code: ERR_SHUTTING_DOWN,
            datum: 0,
            message: ServeError::ShuttingDown.to_string(),
        }));
    }
    count
}

/// Block for work; pop either one non-query item or a coalesced run of
/// consecutive single queries. Returns `(work, queue fully drained and
/// draining flag set)`.
fn next_batch(shared: &Shared) -> (Option<Taken>, bool) {
    let mut q = shared.queue.lock().expect("queue lock");
    loop {
        if let Some(Pending {
            work,
            enqueued,
            resp,
        }) = q.items.pop_front()
        {
            let taken = match work {
                Work::Solo(work) => Taken::Solo(Pending {
                    work,
                    enqueued,
                    resp,
                }),
                Work::Query(spec) => {
                    let mut run = vec![Pending {
                        work: spec,
                        enqueued,
                        resp,
                    }];
                    // Coalesce the run of single queries behind it.
                    while run.len() < shared.config.batch_max.max(1) {
                        let Some(&Pending {
                            work: Work::Query(spec),
                            enqueued,
                            ..
                        }) = q.items.front()
                        else {
                            break;
                        };
                        let resp = q.items.pop_front().expect("front exists").resp;
                        run.push(Pending {
                            work: spec,
                            enqueued,
                            resp,
                        });
                    }
                    Taken::Queries(run)
                }
            };
            let drained = q.draining && q.items.is_empty();
            return (Some(taken), drained);
        }
        if q.draining {
            return (None, true);
        }
        let (guard, _) = shared
            .notify
            .wait_timeout(q, Duration::from_millis(50))
            .expect("queue lock");
        q = guard;
    }
}

/// Per-request queue-wait timeout, checked at dequeue: answer `p` with a
/// typed timeout and return true if it waited too long.
fn expired<W>(p: &Pending<W>, shared: &Shared, counters: &mut EngineCounters) -> bool {
    let waited = p.enqueued.elapsed();
    if waited <= shared.config.request_timeout {
        return false;
    }
    counters.timeouts += 1;
    // Saturate rather than truncate: a pathological wait must not report
    // as a short one.
    let waited_ms = u64::try_from(waited.as_millis()).unwrap_or(u64::MAX);
    let _ = p.resp.send(Response::Error(ErrorFrame {
        code: ERR_TIMEOUT,
        datum: waited_ms,
        message: ServeError::Timeout { waited_ms }.to_string(),
    }));
    true
}

fn serve_one(
    engine: &mut DynamicEngine,
    shared: &Shared,
    counters: &mut EngineCounters,
    subs: &mut HashMap<u64, Arc<PushSink>>,
    journal: &mut Option<Journal>,
    taken: Taken,
) {
    let p = match taken {
        Taken::Queries(run) => return serve_queries(engine, shared, counters, run),
        Taken::Solo(p) => p,
    };
    // Shutdown, stats, and subscription management are control traffic
    // and exempt from the queue-wait timeout.
    let expendable = matches!(
        p.work,
        Solo::Batch(_) | Solo::Update(_) | Solo::QueryText(_, _)
    );
    if expendable && expired(&p, shared, counters) {
        return;
    }
    let resp = match &p.work {
        Solo::Batch(specs) => {
            counters.served_queries += specs.len() as u64;
            match run_queries(engine, shared, specs, true) {
                Ok(all) => Response::BatchResult(all),
                Err(resp) => resp,
            }
        }
        Solo::Update(ops) => apply_updates(engine, counters, journal.as_mut(), ops),
        Solo::Stats => Response::StatsResult(gather_stats(engine, shared, counters)),
        Solo::Subscribe(spec, sink) => match engine.register(spec.clone()) {
            Ok(id) => {
                let result = engine
                    .standing_result(id)
                    .unwrap_or(&[])
                    .iter()
                    .map(|e| WireEntry {
                        id: u64::from(e.id),
                        score: e.score as u64,
                    })
                    .collect();
                sink.subscribed.store(true, Ordering::Release);
                subs.insert(id, Arc::clone(sink));
                Response::SubscribeAck(SubscribeAck { id, result })
            }
            Err(e) => Response::Error(ErrorFrame {
                code: ERR_REJECTED,
                datum: 0,
                message: e.to_string(),
            }),
        },
        Solo::Unsubscribe(id, sink) => {
            // Ids are sequential and echoed in every ack: a connection may
            // only end its own subscriptions, anything else is "not known".
            let own = subs.get(id).is_some_and(|s| Arc::ptr_eq(s, sink));
            if own {
                subs.remove(id);
            }
            Response::UnsubscribeAck(own && engine.unregister(*id))
        }
        Solo::QueryText(text, sink) => serve_query_text(engine, counters, subs, text, sink),
        Solo::Shutdown => {
            // Flip the drain flag under the queue lock so no submission
            // can slip in after the ack; everything already queued is
            // still answered before the final snapshot.
            let mut q = shared.queue.lock().expect("queue lock");
            q.draining = true;
            drop(q);
            Response::ShutdownAck
        }
    };
    let acked = matches!(resp, Response::UpdateAck(_));
    let _ = p.resp.send(resp);
    // An acked batch's standing queries are re-run once the ack is on its
    // way, before the next request is taken: its pushes follow the ack.
    if acked {
        let notes = engine.maintain_standing();
        route_notifications(engine, subs, &notes);
    }
    // The acked batches are durable in the log; folding them into a
    // checkpoint is housekeeping, done once the ack is on its way.
    if let Some(journal) = journal.as_mut().filter(|j| j.is_full()) {
        let _ = journal.checkpoint(engine);
    }
}

/// Answer a TKDQL statement against the serving engine: `SELECT` runs
/// one-shot, `EXPLAIN` renders the plan, `SUBSCRIBE TO SELECT` registers
/// a standing query on this connection's push sink. Statement errors
/// (with their line/column spans) come back as `ERR_REJECTED` frames —
/// the wire frame itself was well-formed.
fn serve_query_text(
    engine: &mut DynamicEngine,
    counters: &mut EngineCounters,
    subs: &mut HashMap<u64, Arc<PushSink>>,
    text: &str,
    sink: &Arc<PushSink>,
) -> Response {
    let reject = |message: String| {
        Response::Error(ErrorFrame {
            code: ERR_REJECTED,
            datum: 0,
            message,
        })
    };
    let stmt = match tkd_ql::parse(text) {
        Ok(s) => s,
        Err(e) => return reject(e.to_string()),
    };
    if stmt.select.from.is_some() {
        return reject(
            "FROM is not accepted over the wire; the server's engine is the target".into(),
        );
    }
    let plan = tkd_ql::bind(&stmt, engine.dims()).and_then(tkd_ql::optimizer::plan);
    let plan = match plan {
        Ok(p) => p,
        Err(e) => return reject(e.to_string()),
    };
    match tkd_ql::run_on_engine(&plan, engine) {
        Ok(tkd_ql::Outcome::Rows(r)) => {
            counters.served_queries += 1;
            Response::QueryResult(
                r.entries()
                    .iter()
                    .map(|e| WireEntry {
                        id: u64::from(e.id),
                        score: e.score as u64,
                    })
                    .collect(),
            )
        }
        Ok(tkd_ql::Outcome::Explain(rendered)) => Response::ExplainResult(rendered),
        Ok(tkd_ql::Outcome::Subscribed { id, initial }) => {
            let result = initial
                .iter()
                .map(|e| WireEntry {
                    id: u64::from(e.id),
                    score: e.score as u64,
                })
                .collect();
            sink.subscribed.store(true, Ordering::Release);
            subs.insert(id, Arc::clone(sink));
            Response::SubscribeAck(SubscribeAck { id, result })
        }
        Err(e) => reject(e.to_string()),
    }
}

/// Answer a run of single queries through one `query_many` pass, each
/// with its own `query_result` frame; a query that waited past the
/// timeout is answered with that instead.
fn serve_queries(
    engine: &mut DynamicEngine,
    shared: &Shared,
    counters: &mut EngineCounters,
    run: Vec<Pending<QuerySpec>>,
) {
    let live: Vec<Pending<QuerySpec>> = run
        .into_iter()
        .filter(|p| !expired(p, shared, counters))
        .collect();
    if live.len() > 1 {
        counters.coalesced_batches += 1;
    }
    let specs: Vec<QuerySpec> = live.iter().map(|p| p.work).collect();
    counters.served_queries += specs.len() as u64;
    if specs.is_empty() {
        return;
    }
    match run_queries(engine, shared, &specs, false) {
        Ok(all) => {
            for (p, entries) in live.into_iter().zip(all) {
                let _ = p.resp.send(Response::QueryResult(entries));
            }
        }
        Err(resp) => {
            for p in live {
                let _ = p.resp.send(resp.clone());
            }
        }
    }
}

/// Answer a slice of wire queries through one `query_many` pass. When
/// the answers share one `batch_result` frame (`one_frame`), a batch
/// whose answer could outgrow the largest frame this server reads,
/// `max_frame`, is rejected before any walk runs: each answer holds at
/// most `min(k, live rows)` entries of 16 bytes, so the body is bounded
/// by `4 + Σ (4 + 16 · min(kᵢ, live rows))` bytes. (A run of single
/// queries is at most `batch_max` answers, each in a frame of its own.)
fn run_queries(
    engine: &mut DynamicEngine,
    shared: &Shared,
    specs: &[QuerySpec],
    one_frame: bool,
) -> Result<Vec<Vec<WireEntry>>, Response> {
    if one_frame {
        let live = engine.len() as u64;
        let bound = specs.iter().fold(4u64, |bytes, s| {
            bytes.saturating_add(4 + 16 * s.k.min(live))
        });
        let max = shared.config.max_frame;
        if bound > max {
            return Err(Response::Error(ErrorFrame {
                code: ERR_REJECTED,
                datum: 0,
                message: format!(
                    "the batch's answer may take {bound} bytes, past the {max} a frame may hold"
                ),
            }));
        }
    }
    let queries: Vec<EngineQuery> = specs
        .iter()
        .map(|s| EngineQuery {
            // Saturating: any k ≥ the object count means "all of them",
            // so clamping to usize::MAX preserves the answer on every
            // target width.
            k: usize::try_from(s.k).unwrap_or(usize::MAX),
            algorithm: s.algorithm,
            tie: TieBreak::ById,
        })
        .collect();
    match engine.query_many(&queries, shared.config.threads.max(1)) {
        Ok(results) => Ok(results
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .map(|e| WireEntry {
                        id: u64::from(e.id),
                        score: e.score as u64,
                    })
                    .collect()
            })
            .collect()),
        Err(e) => Err(Response::Error(ErrorFrame {
            code: ERR_REJECTED,
            datum: 0,
            message: e.to_string(),
        })),
    }
}

/// Apply one update batch: check it, make it durable, apply it
/// ([`DynamicEngine::apply_batch`]), ack. Its standing-query maintenance
/// is left pending for the caller, which runs it once the ack is sent
/// ([`DynamicEngine::maintain_standing`]). A batch applies whole or not
/// at all: a rejected one — an op fails the check (the frame carries its
/// index) or the log append fails (the frame carries the batch length) —
/// changes nothing: engine, `seq`, files, subscribers. `seq` counts the
/// non-empty acked batches, and the log records each under its `seq`,
/// window age-outs spelled out ([`DynamicEngine::with_age_out`]), so a
/// replay of the acked batches in `seq` order reproduces the engine
/// exactly.
fn apply_updates(
    engine: &mut DynamicEngine,
    counters: &mut EngineCounters,
    journal: Option<&mut Journal>,
    ops: &[UpdateOp],
) -> Response {
    let reject = |datum: usize, message: String| {
        Response::Error(ErrorFrame {
            code: ERR_REJECTED,
            datum: datum as u64,
            message,
        })
    };
    if let Err((i, e)) = engine.check_ops(ops) {
        return reject(i, e.to_string());
    }
    let batch = engine.with_age_out(ops);
    if !batch.is_empty() {
        if let Some(journal) = journal {
            if let Err(e) = journal.append(engine, counters.seq + 1, &batch) {
                return reject(ops.len(), format!("batch not logged, nothing applied: {e}"));
            }
        }
        counters.seq += 1;
    }
    let report = engine.apply_batch(&batch);
    Response::UpdateAck(UpdateAck {
        applied: ops.len() as u64,
        seq: counters.seq,
        epoch: engine.epoch(),
        live: engine.len() as u64,
        tombstones: engine.tombstones() as u64,
        inserted_ids: report
            .inserted_ids
            .iter()
            .map(|&id| u64::from(id))
            .collect(),
    })
}

/// Fan each notification out to the sink of the connection that
/// registered its query. Dead sinks (disconnected subscribers) get their
/// standing queries unregistered here — the lazy half of
/// unsubscribe-on-disconnect.
fn route_notifications(
    engine: &mut DynamicEngine,
    subs: &mut HashMap<u64, Arc<PushSink>>,
    notes: &[Notification],
) {
    for note in notes {
        let Some(sink) = subs.get(&note.id) else {
            continue;
        };
        if sink.dead.load(Ordering::Acquire) {
            subs.remove(&note.id);
            engine.unregister(note.id);
            continue;
        }
        let wire = WireNotification {
            id: note.id,
            batch_seq: note.batch_seq,
            added: entries_to_wire(&note.added),
            removed: note.removed.iter().map(|&id| u64::from(id)).collect(),
            rescored: entries_to_wire(&note.rescored),
            kth_score: note.kth_score.map(|s| s as u64),
            via_fallback: note.via_fallback,
        };
        if let Ok(frame) = encode_response(&Response::Notify(wire)) {
            sink.push(frame);
        }
    }
}

fn entries_to_wire(entries: &[tkd_core::ResultEntry]) -> Vec<WireEntry> {
    entries
        .iter()
        .map(|e| WireEntry {
            id: u64::from(e.id),
            score: e.score as u64,
        })
        .collect()
}

fn gather_stats(engine: &DynamicEngine, shared: &Shared, counters: &EngineCounters) -> ServerStats {
    let es = engine.stats();
    let depth = shared.queue.lock().expect("queue lock").items.len() as u64;
    ServerStats {
        live: engine.len() as u64,
        tombstones: engine.tombstones() as u64,
        epoch: engine.epoch(),
        seq: counters.seq,
        inserts: es.inserts as u64,
        deletes: es.deletes as u64,
        cell_updates: es.cell_updates as u64,
        compactions: es.compactions as u64,
        served_queries: counters.served_queries,
        coalesced_batches: counters.coalesced_batches,
        overloaded: shared.overloaded.load(Ordering::Relaxed),
        timeouts: counters.timeouts,
        queue_depth: depth,
        load_micros: shared
            .config
            .load_time
            .map_or(0, |t| t.as_micros().min(u64::MAX as u128) as u64),
        borrowed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// A finished connection's thread is joined at the next accept, so the
    /// tracked handles stay at the open connections however many came
    /// and went: 200 connect → `stats` → close cycles never hold more
    /// than a few.
    #[test]
    fn finished_connection_threads_are_joined_as_the_loop_goes() {
        let engine = DynamicEngine::new(tkd_model::fixtures::fig3_sample());
        let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind");
        let mut most = 0;
        for _ in 0..200 {
            let mut client = Client::connect(server.local_addr()).expect("connect");
            client.stats().expect("stats answer");
            drop(client);
            most = most.max(server.acceptor.tracked());
        }
        assert!(
            most <= 8,
            "{most} connection threads tracked after 200 cycles"
        );
        server.stop().expect("the engine comes back");
    }
}
