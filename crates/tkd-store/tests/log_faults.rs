//! The op-log fault suite: every way a crash, a torn write or a flipped
//! byte can leave a snapshot and its op log must recover to exactly the
//! acked prefix — the snapshot plus the whole records before the damage —
//! without a panic and without ever applying half a batch.
//!
//! Each case builds one history through the real [`Journal`] (a snapshot
//! and four appended batches), damages the files, and compares what
//! [`recover`] yields with the twin engine that applied the same
//! batches, byte for byte in the snapshot encoding.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tkd_core::{DynamicEngine, UpdateOp};
use tkd_model::fixtures;
use tkd_store::{encode_engine, log_path, recover, save_engine, Journal};

/// A log header's bytes: magic 8 ‖ version 4 ‖ reserved 4 ‖ identity 8 ‖
/// base seq 8 ‖ checksum 8 (the `tkd_store` crate docs).
const HEADER: usize = 40;

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("tkd-log-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Four batches over the Fig. 3 rows: inserts (one labeled), deletes of
/// a seeded and an inserted id, and cell sets.
fn batches() -> Vec<Vec<UpdateOp>> {
    vec![
        vec![
            UpdateOp::Insert(vec![Some(1.0), None, Some(2.0), Some(3.0)]),
            UpdateOp::Delete(4),
        ],
        vec![
            UpdateOp::InsertLabeled("E1".into(), vec![None, Some(2.0), None, Some(1.0)]),
            UpdateOp::Set(0, 0, Some(5.0)),
            UpdateOp::Set(20, 1, None),
        ],
        vec![UpdateOp::Delete(20), UpdateOp::Set(7, 3, Some(-0.0))],
        vec![
            UpdateOp::Insert(vec![Some(9.0), Some(9.0), Some(9.0), Some(9.0)]),
            UpdateOp::Delete(12),
        ],
    ]
}

/// A snapshot at `dir/engine.tkd`, the four batches appended to its log,
/// the encoded state after each prefix of them, and the log's length
/// after each append.
struct History {
    snap: PathBuf,
    log: PathBuf,
    states: Vec<Vec<u8>>,
    lens: Vec<usize>,
}

fn history(dir: &Path) -> History {
    let snap = dir.join("engine.tkd");
    let mut twin = DynamicEngine::new(fixtures::fig3_sample());
    save_engine(&snap, &twin).expect("snapshot");
    let mut journal = Journal::clean(&snap, 0);
    let mut states = vec![encode_engine(&twin)];
    let mut lens = vec![0];
    for (i, ops) in batches().iter().enumerate() {
        journal.append(&twin, i as u64 + 1, ops).expect("append");
        assert!(twin.apply_ops(ops).error.is_none());
        states.push(encode_engine(&twin));
        lens.push(std::fs::metadata(log_path(&snap)).expect("log").len() as usize);
    }
    History {
        log: log_path(&snap),
        snap,
        states,
        lens,
    }
}

/// The state `path` recovers to, encoded.
fn recovered(path: &Path) -> Vec<u8> {
    encode_engine(&recover(path).expect("recovers").engine)
}

#[test]
fn whole_log_replays_every_batch() {
    let dir = Scratch::new("whole");
    let h = history(&dir.0);
    let r = recover(&h.snap).expect("recovers");
    assert_eq!((r.seq, r.replayed), (Some(4), 4));
    assert_eq!(recovered(&h.snap), h.states[4]);
}

#[test]
fn truncation_at_every_byte_of_the_last_two_records() {
    let dir = Scratch::new("cut");
    let h = history(&dir.0);
    let full = std::fs::read(&h.log).expect("log");
    for cut in h.lens[2]..=h.lens[4] {
        std::fs::write(&h.log, &full[..cut]).expect("torn log");
        let whole = h.lens.iter().filter(|&&l| l > 0 && l <= cut).count();
        let r = recover(&h.snap).expect("a torn tail is not an error");
        assert_eq!(r.replayed, whole, "cut at {cut}");
        assert_eq!(recovered(&h.snap), h.states[whole], "cut at {cut}");
    }
}

#[test]
fn every_flipped_byte_of_the_last_record_drops_that_record() {
    let dir = Scratch::new("flip");
    let h = history(&dir.0);
    let full = std::fs::read(&h.log).expect("log");
    for at in h.lens[3]..h.lens[4] {
        for mask in [0x01, 0x80, 0xFF] {
            let mut bad = full.clone();
            bad[at] ^= mask;
            std::fs::write(&h.log, &bad).expect("damaged log");
            assert_eq!(recovered(&h.snap), h.states[3], "byte {at} ^ {mask:#x}");
        }
    }
}

/// A record whose seq does not follow the one before it ends the replay,
/// even when it is whole and sound: here record 2 is cut out, so the
/// sound record 3 follows record 1.
#[test]
fn a_seq_gap_ends_the_replay() {
    let dir = Scratch::new("gap");
    let h = history(&dir.0);
    let full = std::fs::read(&h.log).expect("log");
    let gapped = [&full[..h.lens[1]], &full[h.lens[2]..]].concat();
    std::fs::write(&h.log, gapped).expect("gapped log");
    let r = recover(&h.snap).expect("a gap is not an error");
    assert_eq!((r.seq, r.replayed), (Some(1), 1));
    assert_eq!(recovered(&h.snap), h.states[1]);
}

#[test]
fn a_damaged_or_foreign_header_makes_the_log_inert() {
    let dir = Scratch::new("header");
    let h = history(&dir.0);
    let full = std::fs::read(&h.log).expect("log");
    for at in 0..HEADER {
        let mut bad = full.clone();
        bad[at] ^= 0x10;
        std::fs::write(&h.log, &bad).expect("damaged log");
        let r = recover(&h.snap).expect("an inert log is not an error");
        assert_eq!((r.seq, r.replayed), (None, 0), "header byte {at}");
        assert_eq!(recovered(&h.snap), h.states[0]);
    }
}

/// Any other write at the path retires the log, and a log a crash leaves
/// beside a replaced snapshot is inert: the log names the snapshot it
/// was started against.
#[test]
fn a_stale_log_beside_a_replaced_snapshot_is_inert() {
    let dir = Scratch::new("stale");
    let h = history(&dir.0);
    let old_log = std::fs::read(&h.log).expect("log");
    // `save_engine` of another state (what `tkdq build` and `tkdq update
    // --index` do) removes the log after its rename.
    let mut other = DynamicEngine::new(fixtures::fig3_sample());
    other.apply_ops(&[UpdateOp::Delete(0)]);
    save_engine(&h.snap, &other).expect("save over");
    assert!(!h.log.exists(), "the write retired the log");
    assert_eq!(recovered(&h.snap), encode_engine(&other));
    // A crash between the rename and the removal leaves the old log.
    std::fs::write(&h.log, &old_log).expect("old log back");
    assert_eq!(recovered(&h.snap), encode_engine(&other));
    // `atomic_rewrite` of a snapshot's bytes — here the state after two
    // batches, which the log's records must not be replayed onto.
    tkd_store::atomic_rewrite(&h.snap, &h.states[2]).expect("rewrite");
    assert!(!h.log.exists(), "the write retired the log");
    std::fs::write(&h.log, &old_log).expect("old log back");
    assert_eq!(recovered(&h.snap), h.states[2]);
}

/// A rewrite with the very bytes the log was started against — `tkdq
/// build` of the same data, a backup copied back through
/// `atomic_rewrite`, a re-seeded shard — retires the log too: the path
/// recovers to the snapshot alone, never to old records replayed onto
/// it.
#[test]
fn a_rewrite_with_the_base_bytes_retires_the_log() {
    let dir = Scratch::new("rebase");
    let h = history(&dir.0);
    tkd_store::atomic_rewrite(&h.snap, &h.states[0]).expect("copy the base back");
    let r = recover(&h.snap).expect("recovers");
    assert_eq!((r.seq, r.replayed), (None, 0));
    assert_eq!(recovered(&h.snap), h.states[0]);
    assert!(!h.log.exists(), "the write retired the log");

    let h = history(&dir.0);
    assert_eq!(recover(&h.snap).expect("recovers").replayed, 4);
    save_engine(&h.snap, &decode(&h.states[0])).expect("re-save the base");
    assert_eq!(std::fs::read(&h.snap).expect("snapshot"), h.states[0]);
    assert_eq!(recovered(&h.snap), h.states[0]);
    assert!(!h.log.exists(), "the write retired the log");
}

/// A checkpoint in place (the server's): save the engine over the
/// snapshot, which removes the log, and start a new log at the next
/// append. A crash can stop it at any of these file states; each
/// recovers every acked batch.
#[test]
fn every_intermediate_state_of_a_checkpoint_in_place() {
    let dir = Scratch::new("ckpt");
    let h = history(&dir.0);
    let old_log = std::fs::read(&h.log).expect("log");

    // The new snapshot written to its temporary file, not yet renamed:
    // the old snapshot and the old log still hold the batches.
    let tmp = dir.0.join("engine.tkd.tmp.1");
    std::fs::write(&tmp, &h.states[4]).expect("temp");
    assert_eq!(recovered(&h.snap), h.states[4]);
    std::fs::remove_file(&tmp).expect("temp gone");

    // Renamed, the log not yet reset: the old log is inert.
    std::fs::write(&h.snap, &h.states[4]).expect("renamed");
    assert_eq!(recovered(&h.snap), h.states[4]);
    assert_eq!(std::fs::read(&h.log).expect("log"), old_log);

    // The log removed.
    std::fs::remove_file(&h.log).expect("log removed");
    let r = recover(&h.snap).expect("recovers");
    assert_eq!((r.seq, r.replayed), (None, 0));
    assert_eq!(recovered(&h.snap), h.states[4]);

    // The next append stopped at every byte: its header and its record.
    let mut journal = Journal::clean(&h.snap, 4);
    let fifth = [UpdateOp::Insert(vec![None, None, Some(1.0), None])];
    journal
        .append(&decode(&h.states[4]), 5, &fifth)
        .expect("append");
    let fresh = std::fs::read(&h.log).expect("fresh log");
    for cut in 0..fresh.len() {
        std::fs::write(&h.log, &fresh[..cut]).expect("torn");
        assert_eq!(recovered(&h.snap), h.states[4], "fresh log cut at {cut}");
    }
    std::fs::write(&h.log, &fresh).expect("whole");
    let twin = recover(&h.snap).expect("recovers");
    assert_eq!(twin.seq, Some(5));
    let mut want = decode(&h.states[4]);
    assert!(want.apply_ops(&fifth).error.is_none());
    assert_eq!(encode_engine(&twin.engine), encode_engine(&want));
}

/// A stamped checkpoint (a shard worker's: `shard-S.seqM.tkd`): the new
/// snapshot lands beside the old pair, then the old log goes, then the
/// old snapshot. Whichever of the files a crash leaves, the newest
/// checkpoint recovers every acked batch, and so does the old pair while
/// it is whole.
#[test]
fn every_intermediate_state_of_a_stamped_checkpoint() {
    let dir = Scratch::new("move");
    let h = history(&dir.0);
    let engine = recover(&h.snap).expect("recovers").engine;
    let mut journal = Journal::stale(&h.snap, 4).stamped("engine");
    let to = dir.0.join("engine.seq4.tkd");
    // Both present: old snapshot + old log, and the new checkpoint.
    save_engine(&to, &engine).expect("new checkpoint");
    assert_eq!(recovered(&h.snap), h.states[4]);
    assert_eq!(recovered(&to), h.states[4]);
    // The old log gone, the old snapshot not yet.
    let old_log = std::fs::read(&h.log).expect("log");
    std::fs::remove_file(&h.log).expect("old log removed");
    assert_eq!(recovered(&to), h.states[4]);
    std::fs::write(&h.log, old_log).expect("old log back");
    // The whole step, through the journal.
    journal.checkpoint(&engine).expect("checkpoint");
    assert!(!h.snap.exists() && !h.log.exists(), "the old pair is gone");
    assert_eq!(recovered(&to), h.states[4]);
    assert_eq!((journal.snapshot(), journal.seq()), (to.as_path(), 4));
}

/// After a crash tears the tail, the next writer's first append cuts it:
/// recovery then yields the acked prefix plus the new batch, never the
/// torn bytes.
#[test]
fn append_after_a_recovered_torn_tail() {
    let dir = Scratch::new("after");
    let h = history(&dir.0);
    let full = std::fs::read(&h.log).expect("log");
    let extra = [UpdateOp::Set(1, 2, Some(6.0))];

    // Torn inside the first record: nothing replays, the snapshot holds
    // the engine, and the writer starts a fresh log over the torn one.
    std::fs::write(&h.log, &full[..h.lens[1] - 3]).expect("torn");
    let r = recover(&h.snap).expect("recovers");
    assert_eq!(r.replayed, 0);
    let mut engine = r.engine;
    let mut journal = Journal::clean(&h.snap, 0);
    journal
        .append(&engine, 1, &extra)
        .expect("append over the torn log");
    assert!(engine.apply_ops(&extra).error.is_none());
    assert_eq!(recovered(&h.snap), encode_engine(&engine));

    // Torn inside the third record: two replay, so the writer's journal
    // is stale and its first append checkpoints before it starts a log
    // of its own.
    std::fs::write(&h.snap, &h.states[0]).expect("snapshot back");
    std::fs::write(&h.log, &full[..h.lens[3] - 5]).expect("torn");
    let r = recover(&h.snap).expect("recovers");
    assert_eq!((r.seq, r.replayed), (Some(2), 2));
    let mut engine = r.engine;
    let mut journal = Journal::stale(&h.snap, 2);
    journal.append(&engine, 3, &extra).expect("append");
    assert!(engine.apply_ops(&extra).error.is_none());
    assert_eq!(recovered(&h.snap), encode_engine(&engine));
    let r = recover(&h.snap).expect("recovers");
    assert_eq!((r.seq, r.replayed), (Some(3), 1));
}

/// A journal appends only the seq after its own, and refuses anything
/// else before it touches a file; a stale one checkpoints at its first
/// append.
#[test]
fn out_of_order_appends_are_refused() {
    let dir = Scratch::new("order");
    let h = history(&dir.0);
    let ops = [UpdateOp::Delete(1)];
    let mut engine = recover(&h.snap).expect("recovers").engine;
    let log = std::fs::read(&h.log).expect("log");
    let mut journal = Journal::stale(&h.snap, 4);
    for seq in [4, 6, 0] {
        assert!(journal.append(&engine, seq, &ops).is_err(), "seq {seq}");
    }
    assert_eq!(std::fs::read(&h.log).expect("log"), log, "no checkpoint");
    journal
        .append(&engine, 5, &ops)
        .expect("checkpoint, then the first record");
    assert!(engine.apply_ops(&ops).error.is_none());
    assert_eq!(recover(&h.snap).expect("recovers").replayed, 1);
    for seq in [5, 7, 0] {
        assert!(journal.append(&engine, seq, &ops).is_err(), "seq {seq}");
    }
    journal.append(&engine, 6, &ops[..0]).expect("the next seq");
    let r = recover(&h.snap).expect("recovers");
    assert_eq!((r.seq, r.replayed), (Some(6), 2));
    assert_eq!(encode_engine(&r.engine), encode_engine(&engine));
}

fn decode(bytes: &[u8]) -> DynamicEngine {
    tkd_store::decode_engine(bytes).expect("own bytes decode")
}
