//! Contended-load stress for the TCP service: many client threads mix
//! queries and update batches against one server, and the harness then
//! proves three things the fault tests cannot:
//!
//! * **No lost or duplicated responses** — every update batch is acked
//!   exactly once, and the ack `seq` numbers form exactly the set
//!   `1..=batches` (the single-writer path serialized every batch).
//! * **Monotone engine epoch** — compaction epochs never move backwards
//!   in `seq` order, under a policy aggressive enough to compact many
//!   times mid-run.
//! * **Replay determinism** — the engine handed back at drain is
//!   **bit-identical** (snapshot bytes) to a fresh engine that replays
//!   the acked op log sequentially in `seq` order, and to the snapshot
//!   file the server rewrote on disk. Concurrency must be an
//!   implementation detail invisible in the final state.
//!
//! Writer threads only delete/update ids they themselves inserted (from
//! their acks), so every op is valid regardless of interleaving — the
//! same "harness only sends valid ops" discipline as
//! `tests/dynamic_parity.rs`.

mod common;

use common::{random_dataset, row, Mix};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::BinChoice;
use tkdi::prelude::*;
use tkdi::serve::{Client, QuerySpec, ServeConfig, ServeError, Server, UpdateAck};
use tkdi::store;

const DIMS: usize = 3;
const WRITERS: usize = 4;
const READERS: usize = 2;
const ROUNDS: usize = 8;

fn options() -> DynamicOptions {
    DynamicOptions {
        bins: BinChoice::Fixed(3),
        // Compact eagerly so epochs actually advance under contention.
        policy: CompactionPolicy {
            max_tombstone_fraction: 0.1,
            min_dead: 2,
        },
    }
}

#[test]
fn contended_updates_replay_to_identical_snapshot() {
    let mut rng = Mix(4242);
    let ds = random_dataset(&mut rng, 30, DIMS, 30);
    let snap_path = std::env::temp_dir().join(format!(
        "tkd_serve_stress_{}_{:x}.snap",
        std::process::id(),
        rng.next()
    ));
    let server = Server::start(
        DynamicEngine::with_options(ds.clone(), options()),
        "127.0.0.1:0",
        ServeConfig {
            snapshot: Some(snap_path.clone()),
            ..Default::default()
        },
    )
    .expect("server binds");
    let addr = server.local_addr();

    // The shared op log: (seq, ops, epoch) per acked batch, from every
    // writer. Replay sorts by seq.
    type AckedBatch = (u64, Vec<UpdateOp>, u64);
    let log: Arc<Mutex<Vec<AckedBatch>>> = Arc::new(Mutex::new(Vec::new()));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut rng = Mix(0xBEEF + w as u64);
                let mut client =
                    Client::connect_with(addr, Duration::from_secs(30)).expect("writer connects");
                // Ids this writer inserted and still owns (may delete or
                // update them; never touches anyone else's).
                let mut owned: Vec<u32> = Vec::new();
                for _ in 0..ROUNDS {
                    let mut ops = Vec::new();
                    let mut inserts = 0usize;
                    for _ in 0..4 {
                        let die = rng.next() % 10;
                        if owned.is_empty() || die >= 6 {
                            ops.push(UpdateOp::Insert(row(&mut rng, DIMS, 30)));
                            inserts += 1;
                        } else if die >= 3 {
                            let i = rng.below(owned.len());
                            let id = owned.swap_remove(i);
                            ops.push(UpdateOp::Delete(id));
                        } else {
                            let id = owned[rng.below(owned.len())];
                            // Observed value: never risks an all-missing row.
                            ops.push(UpdateOp::Set(
                                id,
                                rng.below(DIMS),
                                Some((rng.next() % 7) as f64),
                            ));
                        }
                    }
                    let ack = client.update(&ops).expect("batch acked exactly once");
                    assert_eq!(ack.applied, ops.len() as u64, "whole batch applied");
                    assert_eq!(ack.inserted_ids.len(), inserts, "one id per insert");
                    owned.extend(ack.inserted_ids.iter().map(|&id| id as u32));
                    log.lock()
                        .expect("log lock")
                        .push((ack.seq, ops, ack.epoch));
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with(addr, Duration::from_secs(30)).expect("reader connects");
                let mut last_seq = 0u64;
                let mut last_epoch = 0u64;
                for i in 0..ROUNDS * 3 {
                    // Interleave queries and stats; answers must always
                    // be well-formed, and the server's own counters must
                    // move monotonically as seen from one connection.
                    let k = 1 + (i + r) % 9;
                    let entries = client
                        .query(QuerySpec::new(k).algorithm(if i % 2 == 0 {
                            Algorithm::Big
                        } else {
                            Algorithm::Ibig
                        }))
                        .expect("query answers");
                    assert!(entries.len() <= k, "never more than k entries");
                    assert!(
                        entries.windows(2).all(|w| w[0].score >= w[1].score),
                        "scores descend"
                    );
                    let stats = client.stats().expect("stats answer");
                    assert!(stats.seq >= last_seq, "seq monotone per observer");
                    assert!(stats.epoch >= last_epoch, "epoch monotone per observer");
                    last_seq = stats.seq;
                    last_epoch = stats.epoch;
                }
            })
        })
        .collect();

    for h in writers {
        h.join().expect("writer thread");
    }
    for h in readers {
        h.join().expect("reader thread");
    }

    // Drain the server and take the engine back.
    let served = server.stop().expect("clean drain");

    // --- No lost/duplicated responses ---------------------------------
    let mut batches = Arc::try_unwrap(log)
        .map_err(|_| "log still shared")
        .unwrap()
        .into_inner()
        .expect("log lock");
    let total = WRITERS * ROUNDS;
    assert_eq!(batches.len(), total, "every batch acked exactly once");
    batches.sort_by_key(|&(seq, _, _)| seq);
    let seqs: Vec<u64> = batches.iter().map(|&(seq, _, _)| seq).collect();
    assert_eq!(
        seqs,
        (1..=total as u64).collect::<Vec<_>>(),
        "ack seqs are exactly 1..=batches: none lost, none duplicated"
    );

    // --- Monotone engine epoch ----------------------------------------
    let epochs: Vec<u64> = batches.iter().map(|&(_, _, e)| e).collect();
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "epoch never moves backwards in seq order"
    );
    assert!(
        *epochs.last().expect("batches nonempty") > 0,
        "the aggressive policy must actually compact during the run"
    );

    // --- Replay determinism -------------------------------------------
    // A fresh engine replaying the acked op log sequentially must land
    // on the exact same snapshot bytes as the contended server did.
    let mut replay = DynamicEngine::with_options(ds, options());
    for (seq, ops, _) in &batches {
        if let Some((i, e)) = replay.apply_ops(ops).error {
            panic!("replay of batch seq={seq} failed at op {i}: {e}");
        }
    }
    let served_bytes = store::encode_engine(&served);
    let replay_bytes = store::encode_engine(&replay);
    assert_eq!(
        served_bytes, replay_bytes,
        "served engine is bit-identical to the sequential replay"
    );
    // And the snapshot the server left on disk is that same state.
    let disk = std::fs::read(&snap_path).expect("snapshot file exists");
    assert_eq!(disk, served_bytes, "on-disk snapshot matches");
    let _ = std::fs::remove_file(&snap_path);
}

/// The standing-query leg: subscriptions registered before a contended
/// update run must see **every** batch exactly once — per subscription,
/// the pushed `batch_seq`s are exactly the consecutive run
/// `1..=batches`, in order, with none lost and none duplicated — and
/// folding the pushes over the subscribe ack must land on the exact
/// result the drained engine reports.
#[test]
fn standing_notifications_survive_contended_updates() {
    let mut rng = Mix(9898);
    let ds = random_dataset(&mut rng, 30, DIMS, 30);
    let server = Server::start(
        DynamicEngine::with_options(ds, options()),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server binds");
    let addr = server.local_addr();

    // Subscribe BEFORE any writer starts, so every batch must notify.
    let mut subscriber =
        Client::connect_with(addr, Duration::from_secs(30)).expect("subscriber connects");
    let specs = [
        StandingSpec::new(5),
        StandingSpec::new(3).algorithm(Algorithm::Ibig),
    ];
    let acks: Vec<_> = specs
        .iter()
        .map(|s| subscriber.subscribe(s).expect("subscribe acked"))
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut rng = Mix(0xFACE + w as u64);
                let mut client =
                    Client::connect_with(addr, Duration::from_secs(30)).expect("writer connects");
                let mut owned: Vec<u32> = Vec::new();
                for _ in 0..ROUNDS {
                    let mut ops = Vec::new();
                    for _ in 0..4 {
                        let die = rng.next() % 10;
                        if owned.is_empty() || die >= 6 {
                            ops.push(UpdateOp::Insert(row(&mut rng, DIMS, 30)));
                        } else if die >= 3 {
                            let i = rng.below(owned.len());
                            ops.push(UpdateOp::Delete(owned.swap_remove(i)));
                        } else {
                            let id = owned[rng.below(owned.len())];
                            ops.push(UpdateOp::Set(
                                id,
                                rng.below(DIMS),
                                Some((rng.next() % 7) as f64),
                            ));
                        }
                    }
                    let ack = client.update(&ops).expect("batch acked");
                    owned.extend(ack.inserted_ids.iter().map(|&id| id as u32));
                }
            })
        })
        .collect();

    // Drain pushes while the writers hammer: exactly one notification
    // per (batch, subscription), each stream's seqs consecutive.
    let total = WRITERS * ROUNDS;
    let mut seqs: Vec<Vec<u64>> = vec![Vec::new(); specs.len()];
    let mut views: Vec<Vec<tkdi::core::ResultEntry>> = acks
        .iter()
        .map(|a| {
            a.result
                .iter()
                .map(|e| tkdi::core::ResultEntry {
                    id: e.id as u32,
                    score: e.score as usize,
                })
                .collect()
        })
        .collect();
    while seqs.iter().map(Vec::len).sum::<usize>() < total * specs.len() {
        let note = subscriber
            .next_notification(Duration::from_secs(20))
            .expect("notification stream stays healthy")
            .expect("pushes keep arriving while writers run");
        let i = acks
            .iter()
            .position(|a| a.id == note.id)
            .expect("push for a known subscription");
        seqs[i].push(note.batch_seq);
        let core = tkdi::core::Notification {
            id: note.id,
            batch_seq: note.batch_seq,
            added: note
                .added
                .iter()
                .map(|e| tkdi::core::ResultEntry {
                    id: e.id as u32,
                    score: e.score as usize,
                })
                .collect(),
            removed: note.removed.iter().map(|&id| id as u32).collect(),
            rescored: note
                .rescored
                .iter()
                .map(|e| tkdi::core::ResultEntry {
                    id: e.id as u32,
                    score: e.score as usize,
                })
                .collect(),
            kth_score: note.kth_score.map(|s| s as usize),
            via_fallback: note.via_fallback,
        };
        views[i] = tkdi::core::apply_notification(&views[i], &core);
    }
    for h in writers {
        h.join().expect("writer thread");
    }
    // Nothing extra in flight once every expected push is accounted for.
    assert_eq!(
        subscriber
            .next_notification(Duration::from_millis(150))
            .expect("healthy stream"),
        None,
        "no duplicated or phantom notifications"
    );
    let mut served = server.stop().expect("clean drain");
    for (i, s) in seqs.iter().enumerate() {
        assert_eq!(
            s,
            &(1..=total as u64).collect::<Vec<_>>(),
            "subscription {i}: batch_seqs are exactly the consecutive run \
             1..=batches, in push order — none lost, none duplicated"
        );
    }
    // Folding every push over the initial ack reproduces the engine's
    // final standing answer, concurrency notwithstanding.
    for (i, spec) in specs.iter().enumerate() {
        let want: Vec<(u32, usize)> = served
            .query(&EngineQuery::new(spec.k).algorithm(spec.algorithm))
            .expect("BIG/IBIG supported")
            .iter()
            .map(|e| (e.id, e.score))
            .collect();
        let got: Vec<(u32, usize)> = views[i].iter().map(|e| (e.id, e.score)).collect();
        assert_eq!(got, want, "subscription {i}: folded view = final top-k");
    }
}

/// The drain-race leg: `stop()` races live submitters. Every client must
/// get either a real answer or a typed rejection (`ShuttingDown` error
/// frame, or the connection closing under it) — never a dropped request
/// that leaves it hanging until its frame deadline. This pins the
/// shutdown sweep in the engine loop: a frame that slips into the queue
/// as draining begins is still answered.
#[test]
fn stop_races_submitters_without_dropping_requests() {
    let mut rng = Mix(31_337);
    let ds = random_dataset(&mut rng, 30, DIMS, 30);
    let server = Server::start(
        DynamicEngine::with_options(ds, options()),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server binds");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..WRITERS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut rng = Mix(0xD1A1 + c as u64);
                let mut client =
                    Client::connect_with(addr, Duration::from_secs(10)).expect("client connects");
                let mut answered = 0usize;
                loop {
                    // Alternate reads and writes so both request shapes
                    // cross the drain boundary.
                    let result = if (answered + c).is_multiple_of(2) {
                        client.query(QuerySpec::new(3)).map(|_| ())
                    } else {
                        client
                            .update(&[UpdateOp::Insert(row(&mut rng, DIMS, 30))])
                            .map(|_| ())
                    };
                    match result {
                        Ok(()) => answered += 1,
                        Err(e) => {
                            // A request in flight when the drain lands is
                            // refused with a *typed* outcome. A frame
                            // deadline here would mean a request was
                            // silently dropped — exactly the race this
                            // test exists to catch.
                            assert!(
                                matches!(
                                    e,
                                    ServeError::ShuttingDown
                                        | ServeError::Io(_)
                                        | ServeError::Disconnected
                                ),
                                "typed shutdown outcome, got {e:?}"
                            );
                            break;
                        }
                    }
                }
                answered
            })
        })
        .collect();

    // Let the submitters build up real traffic, then pull the rug.
    std::thread::sleep(Duration::from_millis(30));
    server.stop().expect("clean drain");
    let answered: usize = clients
        .into_iter()
        .map(|h| h.join().expect("client thread survived the race"))
        .sum();
    assert!(answered > 0, "the race must overlap real served traffic");
}

/// Spawn a `tkdq serve` child on an ephemeral port and parse the bound
/// address from its announcement line.
fn spawn_serve(
    snap: &std::path::Path,
    initial_seq: u64,
) -> (std::process::Child, std::net::SocketAddr) {
    use std::io::BufRead;
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_tkdq"));
    cmd.arg("serve")
        .arg("--index")
        .arg(snap)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    if initial_seq > 0 {
        cmd.arg("--initial-seq").arg(initial_seq.to_string());
    }
    let mut child = cmd.spawn().expect("tkdq serve spawns");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve announces its address before EOF")
            .expect("readable child stdout");
        if let Some(rest) = line.split(" on ").nth(1) {
            let token = rest.split_whitespace().next().expect("address token");
            break token.parse().expect("socket address parses");
        }
    };
    // Keep draining stdout so the child can never block on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// The kill-and-restart leg: a real `tkdq serve` process is killed with
/// a batch in flight, restarted from the snapshot it left behind with
/// `--initial-seq` at its last committed seq, and the run continues. The
/// acked seqs across both incarnations must be exactly `1..=batches` —
/// the snapshot-per-batch rewrite plus the seeded counter make a process
/// death invisible in the seq stream. The in-flight victim batch either
/// lands durably with its ack, or fails with a typed transport error;
/// the snapshot on disk is always a whole-batch state (atomic rename).
#[test]
fn kill_and_restart_resumes_the_seq_stream() {
    const INITIAL: usize = 30;
    const PER_BATCH: usize = 3;
    const BATCHES: u64 = 10;
    let mut rng = Mix(777_001);
    let snap = std::env::temp_dir().join(format!(
        "tkd_serve_restart_{}_{:x}.snap",
        std::process::id(),
        rng.next()
    ));
    let ds = random_dataset(&mut rng, INITIAL, DIMS, 30);
    let seed = DynamicEngine::with_options(ds, options());
    store::save_engine(&snap, &seed).expect("seed snapshot saved");

    let mk = |rng: &mut Mix| -> Vec<UpdateOp> {
        (0..PER_BATCH)
            .map(|_| UpdateOp::Insert(row(rng, DIMS, 30)))
            .collect()
    };

    let (mut child, addr) = spawn_serve(&snap, 0);
    let mut client = Client::connect_with(addr, Duration::from_secs(30)).expect("client connects");
    let mut acked: Vec<u64> = Vec::new();
    for batch in 1..=5u64 {
        let ack = client.update(&mk(&mut rng)).expect("batch acked");
        assert_eq!(ack.seq, batch, "seq is the batch ordinal");
        acked.push(ack.seq);
    }

    // Kill the process with a batch in flight from a second connection.
    let victim_ops = mk(&mut rng);
    let victim = std::thread::spawn(move || -> Result<UpdateAck, ServeError> {
        let mut c = Client::connect_with(addr, Duration::from_secs(5))?;
        c.update(&victim_ops)
    });
    std::thread::sleep(Duration::from_millis(2));
    child.kill().expect("kill delivered");
    child.wait().expect("child reaped");
    let victim = victim.join().expect("victim thread");

    // Whatever the kill timing, the snapshot is a complete committed
    // state: a whole number of batches, never a torn write.
    let persisted = store::load_engine(&snap).expect("snapshot survives the kill intact");
    let live = persisted.len();
    assert_eq!(
        (live - INITIAL) % PER_BATCH,
        0,
        "snapshot commits whole batches only"
    );
    let committed = ((live - INITIAL) / PER_BATCH) as u64;
    assert!(
        (5..=6).contains(&committed),
        "only the victim batch is in doubt, committed={committed}"
    );
    match &victim {
        Ok(ack) => {
            // An ack is a durability receipt: the snapshot is rewritten
            // before the ack frame goes out.
            assert_eq!(ack.seq, 6);
            assert_eq!(committed, 6, "acked implies persisted");
            acked.push(ack.seq);
        }
        Err(e) => {
            assert!(
                matches!(
                    e,
                    ServeError::Io(_) | ServeError::Disconnected | ServeError::DeadlineExpired
                ),
                "typed transport failure, got {e:?}"
            );
            // The batch may still have committed with its ack lost in
            // the kill; the snapshot is the arbiter.
            if committed == 6 {
                acked.push(6);
            }
        }
    }

    // Restart from the snapshot, seeding the seq stream where it left
    // off, and finish the run.
    let (mut child, addr) = spawn_serve(&snap, committed);
    let mut client = Client::connect_with(addr, Duration::from_secs(30)).expect("reconnects");
    let stats = client.stats().expect("stats answer");
    assert_eq!(stats.seq, committed, "--initial-seq seeds the counter");
    assert_eq!(
        stats.live as usize, live,
        "restart resumes the committed state"
    );
    for batch in committed + 1..=BATCHES {
        let ack = client
            .update(&mk(&mut rng))
            .expect("batch acked after restart");
        assert_eq!(ack.seq, batch, "seq stream continues unbroken");
        acked.push(ack.seq);
    }
    assert_eq!(
        acked,
        (1..=BATCHES).collect::<Vec<_>>(),
        "ack seqs are exactly 1..=batches across the kill"
    );
    client.shutdown().expect("drains cleanly");
    child.wait().expect("child exits after shutdown");

    // Every incarnation applied PER_BATCH inserts per acked batch.
    let final_engine = store::load_engine(&snap).expect("final snapshot loads");
    assert_eq!(
        final_engine.len(),
        INITIAL + PER_BATCH * BATCHES as usize,
        "final state reflects exactly the acked batches"
    );
    let _ = std::fs::remove_file(&snap);
}
