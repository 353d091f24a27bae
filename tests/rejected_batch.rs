//! A rejected update batch at the outer layers: the server and the
//! cluster coordinator answer a typed rejection naming the failing op,
//! and the batch changes nothing — not the engine, not `seq`, not a
//! snapshot file or the manifest, and no subscriber hears of it.

mod common;

use common::synth;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tkdi::cluster::{ClusterConfig, ClusterError, Coordinator, Worker, WorkerConfig};
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::BinChoice;
use tkdi::prelude::*;
use tkdi::serve::{Client, QuerySpec, ServeConfig, ServeError, Server};

/// A unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("tkd-rejected-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every file in `dir` with its bytes, by name.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut all: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("read file");
            (path, bytes)
        })
        .collect();
    all.sort();
    all
}

/// The first two ops are fine; the third deletes an id the second
/// deleted.
fn bad_batch(dims: usize) -> Vec<UpdateOp> {
    vec![
        UpdateOp::Insert(vec![Some(0.0); dims]),
        UpdateOp::Delete(1),
        UpdateOp::Set(1, 0, Some(2.0)),
    ]
}

#[test]
fn serve_rejected_batch_changes_nothing() {
    let ds = synth(91, 40, 3, 6, 20);
    let scratch = ScratchDir::new("serve");
    let snap = scratch.0.join("engine.tkd");
    let options = DynamicOptions {
        bins: BinChoice::Auto,
        policy: CompactionPolicy::never(),
    };
    let engine = DynamicEngine::with_options(ds.clone(), options.clone());
    let config = ServeConfig {
        snapshot: Some(snap.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config).expect("server binds");
    let wait = Duration::from_secs(30);
    let mut writer = Client::connect_with(server.local_addr(), wait).expect("connect");
    let mut sub = Client::connect_with(server.local_addr(), wait).expect("connect");
    sub.subscribe(&StandingSpec::new(3)).expect("subscribe");

    let first = writer
        .update(&[UpdateOp::Insert(vec![Some(1.0), None, Some(1.0)])])
        .expect("good batch");
    let noted = sub
        .next_notification(wait)
        .expect("push")
        .expect("a notify");
    let bytes = std::fs::read(&snap).expect("snapshot written");

    match writer.update(&bad_batch(ds.dims())) {
        Err(ServeError::Rejected { index, .. }) => assert_eq!(index, 2),
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert_eq!(
        std::fs::read(&snap).expect("snapshot"),
        bytes,
        "file untouched"
    );

    let next = writer
        .update(&[UpdateOp::Insert(vec![Some(2.0), Some(2.0), None])])
        .expect("good batch");
    assert_eq!(next.seq, first.seq + 1, "the rejected batch took no seq");
    assert_eq!(
        next.inserted_ids,
        vec![first.inserted_ids[0] + 1],
        "the rejected insert took no id"
    );
    // Pushes arrive in batch order: a notify for the rejected batch would
    // come first.
    let after = sub
        .next_notification(wait)
        .expect("push")
        .expect("a notify");
    assert_eq!(
        after.batch_seq,
        noted.batch_seq + 1,
        "no notify for the rejected batch"
    );

    // The served engine is the twin that saw the two good batches only.
    let mut twin = DynamicEngine::with_options(ds, options);
    twin.apply(&UpdateOp::Insert(vec![Some(1.0), None, Some(1.0)]))
        .unwrap();
    twin.apply(&UpdateOp::Insert(vec![Some(2.0), Some(2.0), None]))
        .unwrap();
    let served = server.stop().expect("clean stop");
    assert_eq!(
        tkdi::store::encode_engine(&served),
        tkdi::store::encode_engine(&twin)
    );
}

/// A batch the server cannot make durable — a directory sits where the
/// op log goes, so the append fails — is a typed rejection that changes
/// nothing: not `seq`, not an answer, not a subscriber, not a file. Once
/// the log can be written the same batch is acked as the next seq, and
/// the snapshot path recovers it.
#[test]
fn serve_unlogged_batch_changes_nothing() {
    let ds = synth(93, 40, 3, 6, 20);
    let scratch = ScratchDir::new("unlogged");
    let snap = scratch.0.join("engine.tkd");
    let options = DynamicOptions {
        bins: BinChoice::Auto,
        policy: CompactionPolicy::never(),
    };
    let mut twin = DynamicEngine::with_options(ds, options);
    tkdi::store::save_engine(&snap, &twin).expect("snapshot saved");
    let engine = tkdi::store::load_engine(&snap).expect("snapshot loads");
    let log = tkdi::store::log_path(&snap);
    std::fs::create_dir(&log).expect("a directory where the log goes");
    let config = ServeConfig {
        snapshot: Some(snap.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config).expect("server binds");
    let wait = Duration::from_secs(30);
    let mut writer = Client::connect_with(server.local_addr(), wait).expect("connect");
    let mut sub = Client::connect_with(server.local_addr(), wait).expect("connect");
    sub.subscribe(&StandingSpec::new(3)).expect("subscribe");
    let seq = writer.stats().expect("stats").seq;
    let answer = writer.query(QuerySpec::new(5)).expect("query");
    let names = |dir: &Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        names.sort();
        names
    };
    let (listing, bytes) = (names(&scratch.0), std::fs::read(&snap).expect("snapshot"));

    let batch = [
        UpdateOp::Insert(vec![Some(1.0), None, Some(1.0)]),
        UpdateOp::Delete(3),
    ];
    match writer.update(&batch) {
        Err(ServeError::Rejected { index, .. }) => assert_eq!(index, batch.len() as u64),
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert_eq!(writer.stats().expect("stats").seq, seq, "no seq taken");
    assert_eq!(writer.query(QuerySpec::new(5)).expect("query"), answer);
    assert_eq!(
        sub.next_notification(Duration::from_millis(200))
            .expect("healthy stream"),
        None,
        "no notify for the rejected batch"
    );
    assert_eq!(names(&scratch.0), listing, "no file added or removed");
    assert_eq!(std::fs::read(&snap).expect("snapshot"), bytes);
    assert!(names(&log).is_empty(), "the log directory is untouched");

    std::fs::remove_dir(&log).expect("clear the log path");
    let ack = writer.update(&batch).expect("the batch logs now");
    assert_eq!(ack.seq, seq + 1);
    let note = sub
        .next_notification(wait)
        .expect("push")
        .expect("a notify");
    assert_eq!(note.batch_seq, 1, "the rejected attempt was never applied");
    assert!(twin.apply_ops(&batch).error.is_none());
    let recovered = tkdi::store::load_engine(&snap).expect("snapshot and log recover");
    assert_eq!(
        tkdi::store::encode_engine(&recovered),
        tkdi::store::encode_engine(&twin)
    );
    server.stop().expect("clean stop");
}

/// Bad batches, each with the index of the op that must be rejected, for
/// a 3-dimensional store of 46 ids where id 4 is deleted and id 45 holds
/// `(1, −, 1)`.
fn bad_batches() -> Vec<(u64, Vec<UpdateOp>)> {
    let row = |v: f64| vec![Some(v), Some(v), Some(v)];
    vec![
        // An unknown id, after a good insert.
        (1, vec![UpdateOp::Insert(row(1.0)), UpdateOp::Delete(999)]),
        // An id deleted before this batch, and one deleted earlier in it.
        (0, vec![UpdateOp::Set(4, 0, Some(1.0))]),
        (1, vec![UpdateOp::Delete(7), UpdateOp::Set(7, 0, Some(1.0))]),
        // Sets on an id inserted earlier in the batch: the check tracks
        // its mask, so clearing its last observed cell is caught.
        (
            3,
            vec![
                UpdateOp::Insert(vec![Some(1.0), None, None]),
                UpdateOp::Set(46, 1, Some(2.0)),
                UpdateOp::Set(46, 0, None),
                UpdateOp::Set(46, 1, None),
            ],
        ),
        // NaN, in a set and in an insert.
        (0, vec![UpdateOp::Set(0, 1, Some(f64::NAN))]),
        (
            1,
            vec![
                UpdateOp::Insert(row(2.0)),
                UpdateOp::Insert(vec![Some(1.0), Some(f64::NAN), None]),
            ],
        ),
        // Wrong arity.
        (0, vec![UpdateOp::Insert(vec![Some(1.0)])]),
        // An all-missing insert.
        (0, vec![UpdateOp::InsertLabeled("x".into(), vec![None; 3])]),
        // A set that clears the last observed cell of a stored row.
        (
            1,
            vec![UpdateOp::Set(45, 0, None), UpdateOp::Set(45, 2, None)],
        ),
        // A dimension out of range.
        (0, vec![UpdateOp::Set(0, 3, Some(1.0))]),
    ]
}

#[test]
fn cluster_rejected_batch_changes_nothing() {
    let ds = synth(92, 45, 3, 6, 20);
    let scratch = ScratchDir::new("cluster");
    let workers: Vec<Worker> = (0..2)
        .map(|_| Worker::start("127.0.0.1:0", WorkerConfig::default()).expect("worker start"))
        .collect();
    let addrs: Vec<_> = workers.iter().map(Worker::local_addr).collect();
    let mut coord =
        Coordinator::seed(&ds, 3, &addrs, ClusterConfig::new(&scratch.0)).expect("seed cluster");
    // The twin rejects each batch with the engine's own rules.
    let options = DynamicOptions {
        bins: BinChoice::Auto,
        policy: CompactionPolicy::never(),
    };
    let mut twin = DynamicEngine::with_options(ds.clone(), options);
    let good = [
        UpdateOp::Insert(vec![Some(1.0), None, Some(1.0)]),
        UpdateOp::Delete(4),
    ];
    coord.update(&good).expect("good batch");
    assert!(twin.apply_ops(&good).error.is_none());
    let before = coord.query(5, Algorithm::Big).expect("query");
    let frames = coord.stats.frames;
    let on_disk = files(&scratch.0);
    assert!(on_disk.iter().any(|(p, _)| *p == coord.manifest_path()));
    let live = coord.len();

    let batches = std::iter::once((2, bad_batch(ds.dims()))).chain(bad_batches());
    for (want_index, batch) in batches {
        let (index, error) = twin.apply_ops(&batch).error.expect("the twin rejects it");
        assert_eq!(index as u64, want_index, "{batch:?}");
        match coord.update(&batch) {
            Err(ClusterError::Rejected {
                index: got,
                message,
            }) => {
                assert_eq!((got, message), (want_index, error.to_string()), "{batch:?}");
            }
            other => panic!("expected a rejection of {batch:?}, got {other:?}"),
        }
        assert_eq!(coord.stats.frames, frames, "no frame sent for {batch:?}");
        assert_eq!(
            files(&scratch.0),
            on_disk,
            "snapshots and manifest untouched by {batch:?}"
        );
        assert_eq!(coord.len(), live);
    }
    let after = coord.query(5, Algorithm::Big).expect("query");
    let entries = |r: &TkdResult| r.iter().map(|e| (e.id, e.score)).collect::<Vec<_>>();
    assert_eq!(entries(&after), entries(&before));
    let want = twin.query(&EngineQuery::new(5)).expect("twin query");
    assert_eq!(entries(&after), entries(&want));
    for w in workers {
        w.stop();
    }
}
