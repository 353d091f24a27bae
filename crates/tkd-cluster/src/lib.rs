//! Multi-process sharded top-k dominating cluster.
//!
//! This crate turns the partition-parallel identity proven in
//! `tkd_core::cluster` — `score(o) = Σⱼ partialⱼ(o)` for any row
//! partition — into a process topology: a [`Coordinator`] that owns the
//! routing table and candidate queue, and N shard [`Worker`] processes
//! that each host one or more id-range shards loaded from seq-stamped
//! checkpoints (`shard-{s}.seq{n}.tkd`) and the op logs beside them
//! (`shard-{s}.seq{n}.tkd.log`). A hosted shard is one
//! `DynamicEngine`: the update path maintains it in place and the query
//! path scores candidates on it, so a worker holds each shard once. The
//! coordinator keeps no index, only counts over its rows: rows by global
//! id, the route map, a live value → count table per dimension that
//! gives the queue's MaxScores, and per pair of dimensions a histogram of
//! the live rows over a value grid, whose Heuristic 2 tables prune
//! candidates before any is shipped.
//!
//! Everything rides the cluster plane of the v5 byte protocol (see
//! `docs/WIRE_PROTOCOL.md`): queries fan out as two-phase
//! `shard_query` frames that carry the coordinator's τ, updates route by
//! id through a single-writer path whose workers only ack after a synced
//! append to the shard's op log, and shards move between workers by
//! snapshot handoff. Worker failure is detected by a frame deadline and
//! repaired by re-assigning the dead worker's checkpoints to survivors —
//! the shard's log is the commit arbiter for any in-doubt batch.
//!
//! The non-negotiable invariant, pinned by `tests/cluster_parity.rs`:
//! cluster answers are **bit-identical** (entries, scores, tie order)
//! to the in-process engines, for every shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};
use tkd_core::Algorithm;
use tkd_serve::ServeError;

pub mod coordinator;
pub mod worker;

pub use coordinator::{ClusterConfig, ClusterStats, Coordinator};
pub use worker::{Worker, WorkerConfig};

/// Parse the seq out of a `shard-{s}.seq{n}.tkd` checkpoint path.
///
/// The stamp names the state the checkpoint holds; the batches acked
/// after it are the records of its op log. A worker saves each
/// checkpoint under a new stamp and only then drops the old one, so the
/// newest parseable file under the handoff directory plus its log *is*
/// the shard's acked state. Returns `None` for paths without a
/// `.seq{n}.tkd` suffix — an op log (`….tkd.log`) included.
pub fn seq_from_path(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".tkd")?;
    let at = stem.rfind(".seq")?;
    stem[at + 4..].parse().ok()
}

/// Find the newest checkpoint for `shard` under `dir`: the highest
/// `.seq{n}.` stamp among `shard-{shard}.seq*.tkd` files. A directory
/// entry that cannot be read is skipped, not taken for the end of the
/// listing.
pub fn newest_snapshot(dir: &Path, shard: u64) -> Option<(u64, PathBuf)> {
    let prefix = format!("shard-{shard}.seq");
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        let stamped = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&prefix));
        if !stamped {
            continue;
        }
        if let Some(seq) = seq_from_path(&path) {
            if best.as_ref().is_none_or(|&(b, _)| seq > b) {
                best = Some((seq, path));
            }
        }
    }
    best
}

/// Everything that can go wrong at the cluster layer.
#[derive(Debug)]
pub enum ClusterError {
    /// A worker exchange failed (transport error or typed rejection).
    Worker(ServeError),
    /// An update op failed the coordinator's batch check; the batch
    /// changed nothing, on the coordinator or on any shard.
    Rejected {
        /// Index of the first rejected op in the submitted batch.
        index: u64,
        /// The rejection message — the text of the [`UpdateError`]
        /// `DynamicEngine::apply_ops` reports for the same batch.
        ///
        /// [`UpdateError`]: tkd_core::UpdateError
        message: String,
    },
    /// No live worker remains to host a shard or answer a query.
    NoWorkers,
    /// A caller-supplied shard or worker index names nothing in this
    /// cluster.
    OutOfRange {
        /// What was indexed: `"shard"` or `"worker"`.
        what: &'static str,
        /// The index given.
        index: u64,
        /// How many exist; valid indexes are `0..count`.
        count: u64,
    },
    /// The query asked for an algorithm the cluster plane does not carry
    /// (only BIG and IBIG); rejected before any frame is sent.
    UnsupportedAlgorithm(Algorithm),
    /// A worker answered with the wrong frame or inconsistent contents.
    Protocol(String),
    /// A snapshot could not be written, found, or loaded.
    Store(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Worker(e) => write!(f, "worker exchange failed: {e}"),
            ClusterError::Rejected { index, message } => {
                write!(f, "update op {index} rejected: {message}")
            }
            ClusterError::NoWorkers => write!(f, "no live workers remain"),
            ClusterError::OutOfRange { what, index, count } => {
                write!(
                    f,
                    "unknown {what} {index}: the cluster has {what}s 0..{count}"
                )
            }
            ClusterError::UnsupportedAlgorithm(a) => {
                write!(f, "the cluster answers BIG and IBIG queries, not {a:?}")
            }
            ClusterError::Protocol(msg) => write!(f, "cluster protocol violation: {msg}"),
            ClusterError::Store(msg) => write!(f, "shard snapshot store: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ServeError> for ClusterError {
    fn from(e: ServeError) -> ClusterError {
        ClusterError::Worker(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_parses_only_stamped_paths() {
        assert_eq!(seq_from_path(Path::new("/x/shard-0.seq0.tkd")), Some(0));
        assert_eq!(seq_from_path(Path::new("shard-12.seq34.tkd")), Some(34));
        // rfind: a shard label containing ".seq" still parses the stamp.
        assert_eq!(seq_from_path(Path::new("shard-0.seq1.seq2.tkd")), Some(2));
        assert_eq!(seq_from_path(Path::new("shard-0.tkd")), None);
        assert_eq!(seq_from_path(Path::new("shard-0.seqx.tkd")), None);
        assert_eq!(seq_from_path(Path::new("shard-0.seq1.bak")), None);
        assert_eq!(seq_from_path(Path::new("shard-0.seq3.tkd.log")), None);
    }

    #[test]
    fn newest_snapshot_picks_the_highest_stamp_per_shard() {
        let dir = std::env::temp_dir().join(format!("tkd-cluster-newest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "shard-0.seq0.tkd",
            "shard-0.seq2.tkd",
            "shard-0.seq10.tkd",
            "shard-1.seq7.tkd",
            "shard-10.seq99.tkd", // prefix `shard-1` must not claim this
            "shard-0.seqjunk.tkd",
            "shard-0.seq30.tkd.log", // an op log is never a checkpoint
            "notes.txt",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let (seq, path) = newest_snapshot(&dir, 0).unwrap();
        assert_eq!(seq, 10);
        assert_eq!(path, dir.join("shard-0.seq10.tkd"));
        let (seq, _) = newest_snapshot(&dir, 1).unwrap();
        assert_eq!(seq, 7);
        assert!(newest_snapshot(&dir, 2).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
