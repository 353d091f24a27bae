//! Persistent snapshots of the TKD query state — build once, serve many
//! process lifetimes.
//!
//! Every `tkdq` invocation and engine start used to re-pay the full
//! `O(N·d)` bitmap + probe-tree + preprocessing construction. This crate
//! persists the whole maintained state of a
//! [`DynamicEngine`] — dataset, exact
//! [`tkd_index::BitmapIndex`], binned index with probe
//! trees, [`tkd_core::Preprocessed`] artifacts, and the
//! dynamic bookkeeping (tombstones, stable ids, epoch, counters) — in a
//! versioned binary format, and restores it **bit-identically**: a
//! loaded engine answers every query with the same entries, scores, and
//! tie order as the freshly built one (pinned by `tests/persist_*.rs`
//! with the same differential discipline as the parallel and dynamic
//! subsystems).
//!
//! # Format (version 2)
//!
//! ```text
//! magic            8 bytes  "TKDSNAP\0"
//! format_version   u32      2
//! section_count    u32      5
//! section table    5 × { kind u32, pad u32, offset u64, len u64, fnv64 u64 }
//! header checksum  u64      FNV-1a 64 of every byte above
//! payloads         5 sections, each starting 8-byte aligned
//! ```
//!
//! All integers are little-endian. Section kinds (in required order):
//! 1 dataset, 2 bitmap index, 3 binned index, 4 preprocessed,
//! 5 dynamic state. `BitVec` columns are stored as `(bit length, u64
//! word array)` and every word slab (columns, dataset masks/values) is
//! zero-padded to an **8-byte file offset** — v2's one layout change
//! over v1. That alignment is what makes the zero-copy load possible:
//! [`SnapshotBuf`] owns the whole file as one aligned `Arc<[u64]>`
//! buffer, and after the checksums validate, every column and dataset
//! slab is handed out as a *borrowed view* of that buffer (promoted to
//! an owned copy only when first mutated) — load cost is O(validate),
//! not O(copy). Tree *node structure* is never stored: probe trees
//! serialize as their sorted entry streams and are refilled from them.
//!
//! **Compatibility policy:** exact version match. A snapshot from any
//! other format version fails with [`StoreError::VersionMismatch`] —
//! there is no migration; snapshots are caches, rebuilt with
//! `tkdq build` from the source data.
//!
//! Corruption anywhere — truncation, flipped bytes, hostile length
//! fields — surfaces as a typed [`StoreError`]; hostile lengths are
//! validated against the bytes actually present *before* any allocation.
//!
//! # The op log (version 1)
//!
//! A writer that acks update batches — the network server, a cluster
//! shard worker — does not rewrite the snapshot per batch. It appends
//! the batch to `<snapshot>.log` ([`log_path`]) and syncs it, through a
//! [`Journal`], and saves the whole engine (a checkpoint) only every
//! [`CHECKPOINT_RECORDS`] batches and at drain or handoff.
//!
//! ```text
//! header   magic "TKDOPLG\0" ‖ version u32 = 1 ‖ reserved u32 = 0
//!          ‖ base identity u64 ‖ base seq u64 ‖ fnv64 of the 32 bytes before
//! record   seq u64 ‖ len u32 ‖ ops (len bytes) ‖ fnv64 of seq ‖ len ‖ ops
//! ```
//!
//! The base identity is the header checksum the snapshot stores (it
//! covers every section checksum); the base seq is the seq of the state
//! the snapshot holds, and record `i` carries `base + i`. The ops are a
//! `u32` count and one [`wire::put_op`] each — the bytes of the wire's
//! `update_ops` body. [`load_engine`] and [`recover`] decode the
//! snapshot, then replay the log if its header names that snapshot,
//! stopping at the first short, damaged or non-contiguous record: a log
//! started against any other snapshot is inert, and a torn tail is never
//! applied. With no log this costs one failed `open`. A log belongs to
//! the write that saved its snapshot: [`atomic_rewrite`] (so
//! [`save_engine`]) removes the log beside the path it writes, so a
//! rewrite with the base snapshot's very bytes — `tkdq build` of the
//! same data, a re-seeded shard — cannot take old records back. A
//! snapshot copied into place by other means needs its `.log` removed
//! by hand.

#![warn(missing_docs)]

mod codec;
mod error;
mod log;
mod manifest;
pub mod wire;

pub use error::{Section, StoreError};
pub use log::{log_path, recover, Journal, Recovered, CHECKPOINT_RECORDS};
pub use manifest::{ClusterManifest, ShardEntry, MANIFEST_MAGIC, MANIFEST_VERSION};
pub use wire::fnv64;

use tkd_core::dynamic::DynamicParts;
use tkd_core::DynamicEngine;
use wire::{Reader, Writer};

/// First eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"TKDSNAP\0";

/// The format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 2;

/// Section kinds of format v1, in their required file order.
const KINDS: [(u32, Section); 5] = [
    (1, Section::Dataset),
    (2, Section::BitmapIndex),
    (3, Section::BinnedIndex),
    (4, Section::Preprocessed),
    (5, Section::Dynamic),
];

/// Header bytes before the section table.
const HEADER_LEN: usize = 16;
/// Bytes per section-table entry.
const ENTRY_LEN: usize = 32;
/// End of the section table and the header checksum after it.
const TABLE_END: usize = HEADER_LEN + KINDS.len() * ENTRY_LEN + 8;

/// A snapshot's identity: the header checksum it stores, which covers
/// the section table and so every section's checksum. `None` for bytes
/// too short to hold one.
fn identity(bytes: &[u8]) -> Option<u64> {
    let stored = bytes.get(TABLE_END - 8..TABLE_END)?;
    Some(u64::from_le_bytes(stored.try_into().expect("8 bytes")))
}

/// The identity of the snapshot file at `path`, read from its head.
fn read_identity(path: &std::path::Path) -> Result<u64, StoreError> {
    use std::io::Read as _;
    let mut head = [0u8; TABLE_END];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut head))
        .map_err(|e| StoreError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
    Ok(u64::from_le_bytes(
        head[TABLE_END - 8..].try_into().expect("8 bytes"),
    ))
}

/// An owned snapshot buffer that validated loads can **borrow** from.
///
/// The whole file lives in one 8-aligned allocation. On little-endian
/// hosts — where the on-disk word layout and the in-memory `u64` layout
/// coincide — that allocation is an `Arc<[u64]>` and decoding hands out
/// borrowed views of it ([`decode_engine_shared`]); elsewhere it is a
/// plain byte buffer and decoding falls back to copies, bit-identically.
/// Both representations are always compiled; endianness only picks which
/// one a constructor builds.
pub struct SnapshotBuf {
    backing: Backing,
    /// Real file length — the final backing word may carry zero padding.
    byte_len: usize,
}

enum Backing {
    /// 8-aligned word storage: the borrow-capable backing.
    Words(std::sync::Arc<[u64]>),
    /// Plain bytes: the copying fallback (big-endian hosts).
    Bytes(Vec<u8>),
}

impl SnapshotBuf {
    /// Read the snapshot file at `path` into a fresh aligned buffer —
    /// one disk read straight into the allocation the engine will
    /// borrow from, no staging copy.
    ///
    /// # Errors
    /// [`StoreError::Io`] with the path and OS message.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let io_err = |e: std::io::Error| StoreError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        if cfg!(target_endian = "big") {
            return Ok(SnapshotBuf::from_byte_vec(
                std::fs::read(path).map_err(io_err)?,
            ));
        }
        let mut f = std::fs::File::open(path).map_err(io_err)?;
        let byte_len = f.metadata().map_err(io_err)?.len();
        let byte_len = usize::try_from(byte_len).map_err(|_| StoreError::Io {
            path: path.display().to_string(),
            message: "file exceeds address space".into(),
        })?;
        let words = read_aligned(&mut f, byte_len).map_err(io_err)?;
        Ok(SnapshotBuf {
            backing: Backing::Words(words),
            byte_len,
        })
    }

    /// Adopt already-encoded snapshot bytes (one copy into an aligned
    /// buffer on little-endian hosts — useful for tests and in-memory
    /// pipelines; [`SnapshotBuf::open`] avoids even that copy).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        if cfg!(target_endian = "big") {
            return SnapshotBuf::from_byte_vec(bytes);
        }
        let byte_len = bytes.len();
        let words = read_aligned(&mut &bytes[..], byte_len).expect("in-memory read");
        SnapshotBuf {
            backing: Backing::Words(words),
            byte_len,
        }
    }

    fn from_byte_vec(bytes: Vec<u8>) -> Self {
        let byte_len = bytes.len();
        SnapshotBuf {
            backing: Backing::Bytes(bytes),
            byte_len,
        }
    }

    /// The snapshot bytes, exactly as on disk.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            // SAFETY: u64 storage viewed as initialized bytes, truncated
            // to the real file length (the final word's tail is padding).
            Backing::Words(w) => unsafe {
                std::slice::from_raw_parts(w.as_ptr().cast::<u8>(), self.byte_len)
            },
            Backing::Bytes(b) => b,
        }
    }

    /// The aligned word backing, when this buffer can lend one.
    fn words(&self) -> Option<&std::sync::Arc<[u64]>> {
        match &self.backing {
            Backing::Words(w) => Some(w),
            Backing::Bytes(_) => None,
        }
    }
}

/// Read exactly `byte_len` bytes from `src` into a freshly allocated
/// `Arc<[u64]>` (tail of the last word zeroed) — the one allocation a
/// zero-copy load ever makes for payload data.
fn read_aligned(
    src: &mut impl std::io::Read,
    byte_len: usize,
) -> std::io::Result<std::sync::Arc<[u64]>> {
    let nwords = byte_len.div_ceil(8);
    let mut arc = std::sync::Arc::new_uninit_slice(nwords);
    let slab = std::sync::Arc::get_mut(&mut arc).expect("freshly allocated, uniquely owned");
    // SAFETY: the MaybeUninit<u64> storage is reinterpreted as bytes; the
    // write_bytes zeroes all nwords*8 of them (covering the final word's
    // tail beyond byte_len), then read_exact overwrites the first
    // byte_len. Every word is fully initialized afterwards.
    unsafe {
        let p = slab.as_mut_ptr().cast::<u8>();
        std::ptr::write_bytes(p, 0, nwords * 8);
        src.read_exact(std::slice::from_raw_parts_mut(p, byte_len))?;
    }
    // SAFETY: all bytes of all words initialized above.
    Ok(unsafe { arc.assume_init() })
}

/// The snapshot buffer's first allocation: well above the sizes an
/// allocator serves from per-thread caches (see [`encode_engine`]).
const ENCODE_START_BYTES: usize = 64 << 10;

/// Serialize the engine's full state to snapshot bytes. Takes `&mut`
/// to flush the deferred queue re-sort first, which makes the encoding
/// of a given logical state deterministic (the golden-file guarantee:
/// `encode(decode(b)) == b`).
pub fn encode_engine(engine: &mut DynamicEngine) -> Vec<u8> {
    // Borrowed view of the engine's state, streamed into ONE buffer:
    // the section table goes down as placeholders, each payload is
    // encoded in place right after it, and offsets/lengths/checksums
    // are backpatched — peak memory is the engine plus the final
    // snapshot bytes, with no per-section staging copies.
    let parts = engine.store_parts_ref();
    // Start past the allocator's per-thread cache of small freed chunks:
    // a recycled small chunk can come from another thread's heap, and a
    // buffer grown from it grows to the snapshot's size in that heap,
    // which keeps the pages once it is freed. The server's engine thread
    // encodes checkpoints and frees chunks its connection threads
    // allocated, so without this its peak RSS carries a second
    // snapshot-sized heap.
    let mut w = Writer::with_capacity(ENCODE_START_BYTES);
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(KINDS.len() as u32);
    for (kind, _) in KINDS {
        w.put_u32(kind);
        w.put_u32(0); // reserved
        w.put_u64(0); // offset, backpatched
        w.put_u64(0); // length, backpatched
        w.put_u64(0); // checksum, backpatched
    }
    w.put_u64(0); // header checksum, backpatched
    debug_assert_eq!(w.as_bytes().len(), TABLE_END);
    for (i, (_, section)) in KINDS.iter().enumerate() {
        let offset = w.as_bytes().len();
        debug_assert!(offset.is_multiple_of(8));
        match section {
            Section::Dataset => codec::encode_dataset(&mut w, parts.ds),
            Section::BitmapIndex => codec::encode_bitmap(&mut w, parts.index),
            Section::BinnedIndex => codec::encode_binned(&mut w, parts.binned),
            Section::Preprocessed => codec::encode_pre(&mut w, parts.ds.len(), parts.pre),
            Section::Dynamic => codec::encode_dynamic(&mut w, &parts),
            Section::Header | Section::Manifest | Section::Frame | Section::Log => {
                unreachable!("not a payload section")
            }
        }
        let len = w.as_bytes().len() - offset;
        let checksum = fnv64(&w.as_bytes()[offset..]);
        let pad = len.div_ceil(8) * 8 - len;
        w.put_bytes(&[0u8; 8][..pad]);
        let e = HEADER_LEN + i * ENTRY_LEN;
        w.patch_u64(e + 8, offset as u64);
        w.patch_u64(e + 16, len as u64);
        w.patch_u64(e + 24, checksum);
    }
    let header_sum = fnv64(&w.as_bytes()[..TABLE_END - 8]);
    w.patch_u64(TABLE_END - 8, header_sum);
    w.into_bytes()
}

/// Restore an engine from snapshot bytes — the inverse of
/// [`encode_engine`], with integrity (checksums) and structural
/// invariants re-validated at every layer. This is the **copying**
/// decode: every column and slab is materialized as owned storage. For
/// the zero-copy path, load through a [`SnapshotBuf`] (or just
/// [`load_engine`], which does).
///
/// # Errors
/// A typed [`StoreError`] for any malformed input; see the crate docs.
pub fn decode_engine(bytes: &[u8]) -> Result<DynamicEngine, StoreError> {
    decode_engine_inner(bytes, None)
}

/// Restore an engine from an owned snapshot buffer, **borrowing** every
/// `BitVec` column and dataset slab straight out of the buffer instead
/// of copying (little-endian hosts; elsewhere this decodes identically
/// to [`decode_engine`]). Validation — header, section table, and every
/// section checksum — is exactly the copying path's; only the storage of
/// the decoded words differs, and the parity suites pin the two results
/// bit-identical.
///
/// The returned engine holds `Arc` references into `buf`'s buffer;
/// mutations promote the touched storage to owned copies
/// (copy-on-write), and the buffer is freed when the last borrower is
/// dropped or promoted.
///
/// # Errors
/// A typed [`StoreError`] for any malformed input; see the crate docs.
pub fn decode_engine_shared(buf: &SnapshotBuf) -> Result<DynamicEngine, StoreError> {
    decode_engine_inner(buf.bytes(), buf.words())
}

fn decode_engine_inner(
    bytes: &[u8],
    backing: Option<&std::sync::Arc<[u64]>>,
) -> Result<DynamicEngine, StoreError> {
    let need = |n: usize| -> Result<(), StoreError> {
        if bytes.len() < n {
            Err(StoreError::Truncated {
                section: Section::Header,
                needed: n as u64,
                available: bytes.len() as u64,
            })
        } else {
            Ok(())
        }
    };
    need(HEADER_LEN)?;
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    if count != KINDS.len() {
        return Err(StoreError::BadSectionTable {
            reason: format!("v2 requires {} sections, found {count}", KINDS.len()),
        });
    }
    let table_end = HEADER_LEN + count * ENTRY_LEN + 8;
    need(table_end)?;
    let stored_sum =
        u64::from_le_bytes(bytes[table_end - 8..table_end].try_into().expect("8 bytes"));
    if fnv64(&bytes[..table_end - 8]) != stored_sum {
        return Err(StoreError::ChecksumMismatch {
            section: Section::Header,
        });
    }

    // Parse and sanity-check the table before touching any payload.
    let mut ranges = Vec::with_capacity(count);
    let mut expected_offset = table_end as u64;
    for (i, &(kind, section)) in KINDS.iter().enumerate() {
        let e = HEADER_LEN + i * ENTRY_LEN;
        let entry = &bytes[e..e + ENTRY_LEN];
        let got_kind = u32::from_le_bytes(entry[0..4].try_into().expect("4 bytes"));
        let pad = u32::from_le_bytes(entry[4..8].try_into().expect("4 bytes"));
        let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(entry[24..32].try_into().expect("8 bytes"));
        if got_kind != kind {
            return Err(StoreError::BadSectionTable {
                reason: format!("entry {i} has kind {got_kind}, expected {kind}"),
            });
        }
        if pad != 0 {
            return Err(StoreError::BadSectionTable {
                reason: format!("entry {i} has nonzero reserved field"),
            });
        }
        if offset != expected_offset {
            return Err(StoreError::BadSectionTable {
                reason: format!("entry {i} starts at {offset}, expected {expected_offset}"),
            });
        }
        let end = offset.checked_add(len).ok_or(StoreError::BadSectionTable {
            reason: format!("entry {i} length overflows"),
        })?;
        if end > bytes.len() as u64 {
            return Err(StoreError::Truncated {
                section,
                needed: end,
                available: bytes.len() as u64,
            });
        }
        ranges.push((section, offset as usize, len as usize, checksum));
        expected_offset = end.div_ceil(8) * 8;
    }
    if expected_offset != bytes.len() as u64 {
        return Err(StoreError::BadSectionTable {
            reason: format!(
                "file has {} bytes, sections end at {expected_offset}",
                bytes.len()
            ),
        });
    }
    // Padding gaps must be zero (canonical form).
    for &(section, offset, len, _) in &ranges {
        let end = offset + len;
        let padded = len.div_ceil(8) * 8 + offset;
        if bytes[end..padded.min(bytes.len())].iter().any(|&b| b != 0) {
            return Err(StoreError::Invalid {
                section,
                reason: "nonzero inter-section padding".into(),
            });
        }
    }
    // Verify every checksum before decoding anything.
    for &(section, offset, len, checksum) in &ranges {
        if fnv64(&bytes[offset..offset + len]) != checksum {
            return Err(StoreError::ChecksumMismatch { section });
        }
    }

    let reader = |i: usize| -> Reader<'_> {
        let (section, offset, len, _) = ranges[i];
        let payload = &bytes[offset..offset + len];
        match backing {
            Some(file) => Reader::with_backing(payload, section, file.clone(), offset),
            None => Reader::new(payload, section),
        }
    };
    let mut r = reader(0);
    let ds = codec::decode_dataset(&mut r)?;
    r.finish()?;
    let mut r = reader(1);
    let index = codec::decode_bitmap(&mut r)?;
    r.finish()?;
    let mut r = reader(2);
    let binned = codec::decode_binned(&mut r)?;
    r.finish()?;
    let mut r = reader(3);
    let (pre_n, pre) = codec::decode_pre(&mut r)?;
    r.finish()?;
    if pre_n != ds.len() {
        return Err(StoreError::Invalid {
            section: Section::Preprocessed,
            reason: format!(
                "preprocessed n={pre_n} disagrees with dataset n={}",
                ds.len()
            ),
        });
    }
    let mut r = reader(4);
    let meta = codec::decode_dynamic(&mut r)?;
    r.finish()?;

    DynamicEngine::from_store_parts(DynamicParts {
        ds,
        stable_of: meta.stable_of,
        next_id: meta.next_id,
        index,
        binned,
        pre,
        t: meta.t,
        bins: meta.bins,
        policy: meta.policy,
        epoch: meta.epoch,
        stats: meta.stats,
    })
    .map_err(|reason| StoreError::Invalid {
        section: Section::Dynamic,
        reason,
    })
}

/// [`encode_engine`] straight to a file. Returns the byte count written.
///
/// The write is **atomic and durable**: bytes go to a fresh temporary
/// file in the target's directory, are fsynced, and the temp file is
/// then renamed over the target. A crash mid-write (power loss,
/// SIGKILL, full disk) leaves the previous snapshot intact — the sync
/// before the rename is what keeps that true across power loss, where
/// an unsynced rename could be journaled ahead of the data blocks.
/// This matters for `tkdq update --index`, where the snapshot being
/// rewritten holds state (applied ops, the stable-id counter) that
/// exists nowhere else.
///
/// # Errors
/// [`StoreError::Io`] with the path and OS message.
pub fn save_engine(
    path: impl AsRef<std::path::Path>,
    engine: &mut DynamicEngine,
) -> Result<u64, StoreError> {
    atomic_rewrite(path, &encode_engine(engine))
}

/// Atomically and durably replace the file at `path` with `bytes` — the
/// rewrite hook behind [`save_engine`] and [`ClusterManifest::save`],
/// public so callers that already hold encoded snapshot bytes can
/// rewrite without re-encoding. The op log beside `path`
/// ([`log_path`]) is removed right after the rename: a log belongs to
/// the write that started it, and bytes equal to its base would
/// otherwise take its records back. Returns the byte count written.
///
/// # Errors
/// [`StoreError::Io`] with the path and OS message.
pub fn atomic_rewrite(path: impl AsRef<std::path::Path>, bytes: &[u8]) -> Result<u64, StoreError> {
    use std::io::Write as _;
    let path = path.as_ref();
    let io_err = |p: &std::path::Path, e: std::io::Error| StoreError::Io {
        path: p.display().to_string(),
        message: e.to_string(),
    };
    let mut tmp = path.to_path_buf();
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "snapshot".into());
    name.push(format!(".tmp.{}", std::process::id()));
    tmp.set_file_name(name);
    let write_synced = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    };
    write_synced().map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        io_err(&tmp, e)
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        io_err(path, e)
    })?;
    // After the rename, never before: until then the log may hold acked
    // batches the old bytes lack. Best effort — what cannot be unlinked
    // (a directory) is no log, and a log a crash leaves here is inert
    // unless `bytes` equal its base.
    std::fs::remove_file(log_path(path)).ok();
    // Make the rename and the removal durable where directory handles can
    // sync (best-effort: not all platforms/filesystems allow it).
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
    Ok(bytes.len() as u64)
}

/// Load the acked state at `path`: the snapshot, then the op log beside
/// it replayed ([`recover`]). The snapshot is the **zero-copy** path:
/// the file is read once into an owned, 8-aligned [`SnapshotBuf`], and
/// the engine's columns and dataset slabs borrow that buffer (see
/// [`decode_engine_shared`]) until a replayed batch promotes what it
/// touches.
///
/// # Errors
/// As [`recover`].
pub fn load_engine(path: impl AsRef<std::path::Path>) -> Result<DynamicEngine, StoreError> {
    recover(path).map(|r| r.engine)
}

/// Byte offsets of every section boundary in `bytes` (header end, each
/// payload start and end) — the corruption harness truncates at exactly
/// these places. Returns an empty list when the header is unreadable.
pub fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut cuts = vec![0, HEADER_LEN.min(bytes.len())];
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return cuts;
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let table_end = HEADER_LEN + count * ENTRY_LEN + 8;
    cuts.push(table_end.min(bytes.len()));
    for i in 0..count {
        let e = HEADER_LEN + i * ENTRY_LEN;
        if e + ENTRY_LEN > bytes.len() {
            break;
        }
        let entry = &bytes[e..e + ENTRY_LEN];
        let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes")) as usize;
        let len = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes")) as usize;
        cuts.push(offset.min(bytes.len()));
        cuts.push(offset.saturating_add(len).min(bytes.len()));
    }
    cuts.push(bytes.len());
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_core::EngineQuery;
    use tkd_model::fixtures;

    #[test]
    fn fig3_roundtrip_is_byte_stable_and_query_identical() {
        let mut engine = DynamicEngine::new(fixtures::fig3_sample());
        let bytes = encode_engine(&mut engine);
        let mut loaded = decode_engine(&bytes).expect("own bytes load");
        // Canonical: re-serialization is byte-identical.
        assert_eq!(encode_engine(&mut loaded), bytes);
        // And the loaded engine answers the running example identically.
        let fresh = engine.query(&EngineQuery::new(2)).unwrap();
        let resumed = loaded.query(&EngineQuery::new(2)).unwrap();
        assert_eq!(fresh.entries(), resumed.entries());
        assert_eq!(resumed.kth_score(), Some(16));
    }

    #[test]
    fn version_bump_and_magic_are_rejected() {
        let mut engine = DynamicEngine::new(fixtures::fig3_sample());
        let bytes = encode_engine(&mut engine);
        let mut wrong_version = bytes.clone();
        wrong_version[8] = FORMAT_VERSION as u8 + 1; // format_version LE low byte
        assert_eq!(
            decode_engine(&wrong_version).unwrap_err(),
            StoreError::VersionMismatch {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION
            }
        );
        let mut wrong_magic = bytes;
        wrong_magic[0] ^= 0xFF;
        assert_eq!(
            decode_engine(&wrong_magic).unwrap_err(),
            StoreError::BadMagic
        );
        assert_eq!(
            decode_engine(b"").unwrap_err(),
            StoreError::Truncated {
                section: Section::Header,
                needed: 16,
                available: 0
            }
        );
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let mut engine = DynamicEngine::new(fixtures::fig3_sample());
        let path =
            std::env::temp_dir().join(format!("tkd_store_smoke_{}.tkdsnap", std::process::id()));
        let written = save_engine(&path, &mut engine).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let mut loaded = load_engine(&path).unwrap();
        assert_eq!(
            loaded.query(&EngineQuery::new(2)).unwrap().kth_score(),
            Some(16)
        );
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_engine(&path).unwrap_err(),
            StoreError::Io { .. }
        ));
    }

    #[test]
    fn boundaries_cover_header_table_and_sections() {
        let mut engine = DynamicEngine::new(fixtures::fig3_sample());
        let bytes = encode_engine(&mut engine);
        let cuts = section_boundaries(&bytes);
        // Adjacent cuts collapse when a section's padded end coincides
        // with the next offset (always, now that v2 aligns slabs), so
        // the distinct count is at least one per section plus the
        // header/table/EOF marks.
        assert!(cuts.len() >= 3 + KINDS.len());
        assert_eq!(*cuts.first().unwrap(), 0);
        assert!(cuts.iter().all(|&c| c <= bytes.len()));
        assert_eq!(*cuts.last().unwrap(), bytes.len());
    }
}
