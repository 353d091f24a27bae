//! The op log: an append-only file beside a snapshot that makes an
//! update batch durable in O(batch), with the snapshot as its checkpoint.
//!
//! A writer — the network server, a shard worker — holds a [`Journal`]:
//! its snapshot path plus the log at [`log_path`] (`<snapshot>.log`).
//! Every batch is checked, appended and synced, and only then applied
//! and acked; every [`CHECKPOINT_RECORDS`] batches the engine is saved
//! whole ([`crate::save_engine`]) and the log starts over. Recovery is
//! [`recover`]: the snapshot, then the log's records replayed onto it.
//!
//! A log belongs to the write that saved its snapshot. Every write of a
//! snapshot file ([`crate::atomic_rewrite`], so `save_engine`, `tkdq
//! build`, `tkdq update --index`) removes the log beside it once the new
//! bytes are in place — even bytes identical to the old ones, which a
//! log could not tell apart. Beyond that, the header binds a log to its
//! snapshot's identity — the header checksum the snapshot stores, which
//! covers every section checksum — so a log left beside another snapshot
//! (a crash between the rename and the removal) is inert. A writer never
//! appends to a log it did not start: it starts one (truncating whatever
//! was there) at its first append after a checkpoint, so a torn tail
//! left by a crash is cut before anything is appended again.

use crate::error::{Section, StoreError};
use crate::wire::{fnv64, get_ops, put_ops, Reader, Writer};
use crate::{decode_engine, identity, read_identity, save_engine};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use tkd_core::{DynamicEngine, UpdateOp};

/// First eight bytes of every op log.
const LOG_MAGIC: [u8; 8] = *b"TKDOPLG\0";

/// The log format version this build writes and the only one it reads;
/// a log of any other version is inert, like one of another snapshot.
const LOG_VERSION: u32 = 1;

/// A writer checkpoints once its log holds this many records, so a
/// recovery replays at most this many batches. At `serve-rw`'s shape
/// (N = 20K; measured on a 5.9 MB format-v4 snapshot) the worst case —
/// load, replay three records, first query — stays under twice a
/// restart with no log; the measurement is in `docs/INTERNALS.md`
/// § Persistence.
pub const CHECKPOINT_RECORDS: usize = 3;

/// magic ‖ version ‖ reserved ‖ base identity ‖ base seq ‖ fnv64.
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8;
/// seq ‖ len ahead of a record's ops.
const RECORD_PREFIX: usize = 8 + 4;

/// Where the op log of the snapshot at `snapshot` lives:
/// `<snapshot>.log`. The name never ends in `.tkd`, so a directory scan
/// for snapshots cannot take a log for one.
pub fn log_path(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.as_os_str().to_owned();
    name.push(".log");
    PathBuf::from(name)
}

fn io_error(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn invalid(reason: String) -> StoreError {
    StoreError::Invalid {
        section: Section::Log,
        reason,
    }
}

fn put_header(w: &mut Writer, identity: u64, seq: u64) {
    w.put_bytes(&LOG_MAGIC);
    w.put_u32(LOG_VERSION);
    w.put_u32(0);
    w.put_u64(identity);
    w.put_u64(seq);
    let sum = fnv64(w.as_bytes());
    w.put_u64(sum);
}

fn put_record(w: &mut Writer, seq: u64, ops: &[UpdateOp]) -> Result<(), StoreError> {
    let start = w.as_bytes().len();
    let mut body = Writer::new();
    put_ops(&mut body, ops)?;
    w.put_u64(seq);
    w.put_count("log record", body.as_bytes().len())?;
    w.put_bytes(body.as_bytes());
    let sum = fnv64(&w.as_bytes()[start..]);
    w.put_u64(sum);
    Ok(())
}

/// The base seq of a log whose header names the snapshot `identity`,
/// or `None` for a log that belongs to some other snapshot or whose
/// header is torn or damaged.
fn read_header(bytes: &[u8], identity: u64) -> Option<u64> {
    let header = bytes.get(..HEADER_LEN)?;
    let mut r = Reader::new(&header[8..], Section::Log);
    let fields = (r.get_u32().ok()?, r.get_u32().ok()?, r.get_u64().ok()?);
    let seq = r.get_u64().ok()?;
    let sum = r.get_u64().ok()?;
    let sound = header[..8] == LOG_MAGIC
        && fields == (LOG_VERSION, 0, identity)
        && sum == fnv64(&header[..HEADER_LEN - 8]);
    sound.then_some(seq)
}

/// The record at the start of `bytes` if it is whole, checksums, carries
/// `seq` and decodes: its ops and its length in bytes.
fn read_record(bytes: &[u8], seq: u64) -> Option<(Vec<UpdateOp>, usize)> {
    let mut r = Reader::new(bytes, Section::Log);
    if r.get_u64().ok()? != seq {
        return None;
    }
    let end = RECORD_PREFIX + r.get_u32().ok()? as usize;
    let stored = bytes.get(end..end + 8)?;
    if fnv64(&bytes[..end]) != u64::from_le_bytes(stored.try_into().ok()?) {
        return None;
    }
    let mut r = Reader::new(&bytes[RECORD_PREFIX..end], Section::Log);
    let ops = get_ops(&mut r).ok()?;
    r.finish().ok()?;
    Some((ops, end + 8))
}

/// An engine recovered from a snapshot and its op log.
#[derive(Debug)]
pub struct Recovered {
    /// The snapshot's state with every whole log record applied.
    pub engine: DynamicEngine,
    /// The seq of the last replayed record — the log's base seq when it
    /// holds none — or `None` when no log belongs to the snapshot.
    pub seq: Option<u64>,
    /// Log records replayed onto the snapshot.
    pub replayed: usize,
}

/// Recover the acked state at `path`: decode the snapshot
/// ([`crate::decode_engine`]), then replay the records of the op
/// log beside it ([`log_path`]) if the log names this snapshot, up to the
/// first short, damaged or non-contiguous one — the torn tail a crash
/// leaves — so only whole batches ever apply. Reads only; the torn tail
/// is cut by the next writer's first append.
///
/// # Errors
/// [`StoreError::Io`] for filesystem failures (a missing log is not
/// one), the decode errors of [`crate::decode_engine`], and
/// [`StoreError::Invalid`] for a sound record that does not apply to the
/// state before it, which no crash produces.
pub fn recover(path: impl AsRef<Path>) -> Result<Recovered, StoreError> {
    let snapshot = path.as_ref();
    let snapshot_bytes = std::fs::read(snapshot).map_err(|e| io_error(snapshot, e))?;
    let engine = decode_engine(&snapshot_bytes)?;
    let mut recovered = Recovered {
        engine,
        seq: None,
        replayed: 0,
    };
    let path = log_path(snapshot);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(recovered),
        Err(e) => return Err(io_error(&path, e)),
    };
    let header = identity(&snapshot_bytes).and_then(|id| read_header(&bytes, id));
    let Some(mut seq) = header else {
        return Ok(recovered);
    };
    let mut at = HEADER_LEN;
    while let Some((ops, len)) = read_record(&bytes[at..], seq.wrapping_add(1)) {
        seq = seq.wrapping_add(1);
        if let Some((i, e)) = recovered.engine.apply_ops(&ops).error {
            return Err(invalid(format!(
                "record seq {seq} does not apply at op {i}: {e}"
            )));
        }
        recovered.replayed += 1;
        at += len;
    }
    recovered.seq = Some(seq);
    Ok(recovered)
}

/// A writer's durable state: its checkpoint ([`Journal::snapshot`]) plus
/// the op log beside it. Recovering the checkpoint ([`crate::recover`])
/// yields exactly the batches the journal accepted.
///
/// The discipline: check a batch, [`Journal::append`] it (written and
/// synced), apply it, ack it; when [`Journal::is_full`], after the ack,
/// [`Journal::checkpoint`]. A failed append leaves the engine as it was,
/// so the batch is rejected and nothing changed.
#[derive(Debug)]
pub struct Journal {
    snapshot: PathBuf,
    /// Seq of the newest batch the journal holds: the checkpoint's, plus
    /// one per record.
    seq: u64,
    /// Checkpoints go to `<stamp>.seq{n}.tkd` beside the current one, `n`
    /// the seq they hold, rather than over it.
    stamp: Option<String>,
    log: Log,
}

#[derive(Debug)]
enum Log {
    /// The checkpoint may not hold the engine: the next append
    /// checkpoints first.
    Stale,
    /// The checkpoint holds the engine exactly; the next append starts
    /// the log.
    Clean,
    /// Appending to a log started against the checkpoint.
    Open {
        file: File,
        records: usize,
        /// Bytes written and synced.
        len: u64,
    },
}

impl Journal {
    /// A journal for an engine at `seq` that `snapshot` may not hold — a
    /// server is handed an engine, not a file; a shard worker may have
    /// replayed batches onto what it loaded. The first append checkpoints
    /// it; no file is touched until then.
    pub fn stale(snapshot: impl Into<PathBuf>, seq: u64) -> Journal {
        Journal {
            snapshot: snapshot.into(),
            seq,
            stamp: None,
            log: Log::Stale,
        }
    }

    /// A journal for an engine at `seq` that `snapshot` holds exactly:
    /// just decoded from it with nothing replayed, or just saved to it.
    pub fn clean(snapshot: impl Into<PathBuf>, seq: u64) -> Journal {
        Journal {
            log: Log::Clean,
            ..Journal::stale(snapshot, seq)
        }
    }

    /// Save checkpoints as `<stamp>.seq{n}.tkd` in the snapshot's
    /// directory, `n` the seq they hold (a shard worker's
    /// `shard-S.seqN.tkd`), each replacing the one before only once it is
    /// written.
    pub fn stamped(self, stamp: impl Into<String>) -> Journal {
        Journal {
            stamp: Some(stamp.into()),
            ..self
        }
    }

    /// The snapshot the log is bound to — the journal's checkpoint.
    pub fn snapshot(&self) -> &Path {
        &self.snapshot
    }

    /// Seq of the newest batch the journal holds.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Does the checkpoint alone hold every appended batch (no records
    /// since it was saved)?
    pub fn holds_engine(&self) -> bool {
        matches!(self.log, Log::Clean | Log::Open { records: 0, .. })
    }

    /// Has the log reached [`CHECKPOINT_RECORDS`]?
    pub fn is_full(&self) -> bool {
        matches!(self.log, Log::Open { records, .. } if records >= CHECKPOINT_RECORDS)
    }

    /// Make batch `seq` of `engine`, which must not be applied yet,
    /// durable: one record, written and synced (`write_all` +
    /// `sync_data`). A stale journal first checkpoints `engine`; the
    /// first append after a checkpoint starts the log, truncating
    /// whatever was at its path.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] when `seq` does not follow
    /// [`Journal::seq`]; the errors of [`Journal::checkpoint`];
    /// [`StoreError::Io`] when the write or sync fails — the record is
    /// cut off again where the file allows, and the journal turns stale
    /// if the log already held records (its tail is unknown), so nothing
    /// is appended behind it; [`StoreError::TooLarge`] for a batch the
    /// record cannot carry.
    pub fn append(
        &mut self,
        engine: &DynamicEngine,
        seq: u64,
        ops: &[UpdateOp],
    ) -> Result<(), StoreError> {
        if seq != self.seq.wrapping_add(1) {
            return Err(invalid(format!("seq {seq} does not follow {}", self.seq)));
        }
        if let Log::Stale = self.log {
            self.checkpoint(engine)?;
        }
        let path = log_path(&self.snapshot);
        let mut w = Writer::new();
        if !matches!(self.log, Log::Open { .. }) {
            put_header(&mut w, read_identity(&self.snapshot)?, self.seq);
        }
        put_record(&mut w, seq, ops)?;
        // The open log, or a log started here, which the journal adopts
        // once its first record is durable.
        let mut started = None;
        let (file, records, len) = match &mut self.log {
            Log::Open { file, records, len } => (file, records, len),
            Log::Clean | Log::Stale => {
                let file = File::create(&path).map_err(|e| io_error(&path, e))?;
                // Make the new directory entry durable too (best effort,
                // as for a snapshot's rename).
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    if let Ok(d) = File::open(dir) {
                        d.sync_all().ok();
                    }
                }
                let (file, records, len) = started.insert((file, 0, 0));
                (file, records, len)
            }
        };
        if let Err(e) = file.write_all(w.as_bytes()).and_then(|()| file.sync_data()) {
            let _ = file.set_len(*len);
            self.log = if *records == 0 {
                Log::Clean
            } else {
                Log::Stale
            };
            return Err(io_error(&path, e));
        }
        self.seq = seq;
        *records += 1;
        *len += w.as_bytes().len() as u64;
        if let Some((file, records, len)) = started {
            self.log = Log::Open { file, records, len };
        }
        Ok(())
    }

    /// Save `engine`, at [`Journal::seq`], whole as the journal's
    /// checkpoint ([`save_engine`], which removes the log beside the path
    /// it writes); a stamped checkpoint then removes the old log and the
    /// old snapshot, in that order. A crash at any point leaves a path
    /// that recovers every appended batch: until the rename the old
    /// snapshot and log hold them, after it the new snapshot does.
    /// Returns the snapshot bytes written.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the save fails; the journal is unchanged
    /// and keeps appending to its log.
    pub fn checkpoint(&mut self, engine: &DynamicEngine) -> Result<u64, StoreError> {
        let to = match &self.stamp {
            Some(stamp) => self
                .snapshot
                .with_file_name(format!("{stamp}.seq{}.tkd", self.seq)),
            None => self.snapshot.clone(),
        };
        let written = save_engine(&to, engine)?;
        self.log = Log::Clean;
        if to != self.snapshot {
            let _ = std::fs::remove_file(log_path(&self.snapshot));
            let _ = std::fs::remove_file(&self.snapshot);
            self.snapshot = to;
        }
        Ok(written)
    }
}
