//! Persistent snapshots of the TKD query state — build once, serve many
//! process lifetimes.
//!
//! Every `tkdq` invocation and engine start used to re-pay the full
//! `O(N·d)` bitmap + preprocessing construction. This crate persists the
//! whole logical state of a [`DynamicEngine`] — its rows, encoded
//! against the exact [`tkd_index::BitmapIndex`]'s value tables, the bin
//! boundaries the binned index views it through, and the dynamic
//! bookkeeping (tombstones, stable ids, epoch, counters) — in a
//! versioned binary format, and restores it **bit-identically**: a
//! loaded engine answers every query with the same entries, scores, and
//! tie order as the freshly built one (pinned by `tests/persist_*.rs`
//! with the same differential discipline as the parallel and dynamic
//! subsystems), and its derived artifacts equal the maintained ones
//! (`tests/derived_state.rs`).
//!
//! # Format (version 7)
//!
//! ```text
//! magic            8 bytes  "TKDSNAP\0"
//! format_version   u32      7
//! section_count    u32      3
//! section table    3 × { kind u32, pad u32, offset u64, len u64, fnv64 u64 }
//! header checksum  u64      FNV-1a 64 of every byte above
//! payloads         3 sections, each starting 8-byte aligned
//! ```
//!
//! All integers are little-endian. Section kinds (in required order):
//! 1 dataset, 2 bin boundaries, 3 dynamic state. A snapshot stores rows,
//! not indexes (v5's change over v4, which also stored every bitmap
//! column and incomparable set), and nothing about the incomparable sets
//! (v6's change over v5, which stored the masks a set was kept for):
//!
//! * **dataset** — per dimension the exact index's sorted value table
//!   (values a cell update left without holders included), then every
//!   cell's 1-based slot into it (0 = missing) in the narrowest of
//!   `u8`/`u16`/`u32` that fits the largest table, then the ascending
//!   positions of the cells holding −0.0 (a table holds +0.0), then the
//!   labels;
//! * **bin boundaries** — per dimension, the binned view's boundaries;
//! * **dynamic state** — stable ids, the live mask, bin choice,
//!   compaction policy, epoch and counters. The ids ascend strictly and
//!   are stored as unsigned LEB128 gaps, each id less the previous id
//!   plus one (v7's change over v6, which stored a `u32` per slot): a
//!   dense range is one byte a slot, and a gap list cannot spell a
//!   non-increasing sequence. A load refuses an over-long gap encoding
//!   and a gap that overflows `u32`.
//!
//! The engine keeps its rows in the same form — the index's slot table
//! and value tables, the rows' masks, the −0.0 positions and the labels
//! — so a save writes the slot table in one pass and a load widens the
//! stored slots into the index's slot table in one pass, reading no
//! value off a table. The load derives the exact index from the slots
//! ([`tkd_index::BitmapIndex::from_slots`], the column routine a build
//! uses) and each row's mask from its slots, counts the live rows per
//! observation mask (all that BIG and IBIG read of an incomparable set is
//! its size), derives the binned view from the boundaries, and recounts
//! the `MaxScore` queue at the first query. With one stored copy of each
//! fact, no stored pair can disagree, so a load checks its input —
//! checksums, table order, slot ranges, rows with an observed cell, −0.0
//! positions, stable ids — and nothing else.
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
pub const FORMAT_VERSION: u32 = 7;

/// Section kinds, in their required file order.
const KINDS: [(u32, Section); 3] = [
    (1, Section::Dataset),
    (2, Section::BinBoundaries),
    (3, Section::Dynamic),
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

/// The snapshot buffer's first allocation: well above the sizes an
/// allocator serves from per-thread caches (see [`encode_engine`]).
const ENCODE_START_BYTES: usize = 64 << 10;

/// Serialize the engine's full state to snapshot bytes. The encoding of
/// a given logical state is deterministic (the golden-file guarantee:
/// `encode(decode(b)) == b`).
pub fn encode_engine(engine: &DynamicEngine) -> Vec<u8> {
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
    // The payloads in `KINDS` order.
    let payloads: [&dyn Fn(&mut Writer); KINDS.len()] = [
        &|w| codec::encode_dataset(w, &parts),
        &|w| codec::encode_boundaries(w, parts.boundaries),
        &|w| codec::encode_dynamic(w, &parts),
    ];
    for (i, encode) in payloads.iter().enumerate() {
        let offset = w.as_bytes().len();
        debug_assert!(offset.is_multiple_of(8));
        encode(&mut w);
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
/// [`encode_engine`], with integrity (checksums) and the input's
/// structural invariants re-validated at every layer, and every derived
/// artifact rebuilt from the stored rows.
///
/// # Errors
/// A typed [`StoreError`] for any malformed input; see the crate docs.
pub fn decode_engine(bytes: &[u8]) -> Result<DynamicEngine, StoreError> {
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
            reason: format!(
                "v{FORMAT_VERSION} requires {} sections, found {count}",
                KINDS.len()
            ),
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
        Reader::new(&bytes[offset..offset + len], section)
    };
    let mut r = reader(0);
    let dataset = codec::decode_dataset(&mut r)?;
    r.finish()?;
    let mut r = reader(1);
    let boundaries = codec::decode_boundaries(&mut r, dataset.values.len())?;
    r.finish()?;
    let mut r = reader(2);
    let meta = codec::decode_dynamic(&mut r)?;
    r.finish()?;

    DynamicEngine::from_store_parts(DynamicParts {
        values: dataset.values,
        slots: dataset.slots,
        neg_zeros: dataset.neg_zeros,
        labels: dataset.labels,
        live: meta.live,
        stable_of: meta.stable_of,
        next_id: meta.next_id,
        boundaries,
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
    engine: &DynamicEngine,
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

/// Load the acked state at `path`: the snapshot — one read of the file,
/// then [`decode_engine`] — and the op log beside it replayed
/// ([`recover`]).
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
        let bytes = encode_engine(&engine);
        let mut loaded = decode_engine(&bytes).expect("own bytes load");
        // Canonical: re-serialization is byte-identical.
        assert_eq!(encode_engine(&loaded), bytes);
        // And the loaded engine answers the running example identically.
        let fresh = engine.query(&EngineQuery::new(2)).unwrap();
        let resumed = loaded.query(&EngineQuery::new(2)).unwrap();
        assert_eq!(fresh.entries(), resumed.entries());
        assert_eq!(resumed.kth_score(), Some(16));
    }

    #[test]
    fn version_bump_and_magic_are_rejected() {
        let engine = DynamicEngine::new(fixtures::fig3_sample());
        let bytes = encode_engine(&engine);
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
    fn a_v2_snapshot_is_rejected_with_version_mismatch() {
        let mut bytes = encode_engine(&DynamicEngine::new(fixtures::fig3_sample()));
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode_engine(&bytes).unwrap_err(),
            StoreError::VersionMismatch {
                found: 2,
                expected: FORMAT_VERSION
            }
        );
    }

    /// A v3 file — whose section 3 held a whole binned index — is
    /// rejected by its version, with the message that names both.
    #[test]
    fn a_v3_snapshot_is_rejected_with_version_mismatch() {
        let mut bytes = encode_engine(&DynamicEngine::new(fixtures::fig3_sample()));
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = decode_engine(&bytes).unwrap_err();
        assert_eq!(
            err,
            StoreError::VersionMismatch {
                found: 3,
                expected: 7
            }
        );
        assert_eq!(
            err.to_string(),
            "snapshot format version 3 is not the supported version 7; \
             re-create the snapshot with `tkdq build`"
        );
    }

    /// A v4 file — which stored every bitmap column and incomparable set
    /// beside the dataset — is rejected by its version.
    #[test]
    fn a_v4_snapshot_is_rejected_with_version_mismatch() {
        let mut bytes = encode_engine(&DynamicEngine::new(fixtures::fig3_sample()));
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            decode_engine(&bytes).unwrap_err(),
            StoreError::VersionMismatch {
                found: 4,
                expected: 7
            }
        );
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let engine = DynamicEngine::new(fixtures::fig3_sample());
        let path =
            std::env::temp_dir().join(format!("tkd_store_smoke_{}.tkdsnap", std::process::id()));
        let written = save_engine(&path, &engine).unwrap();
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
        let engine = DynamicEngine::new(fixtures::fig3_sample());
        let bytes = encode_engine(&engine);
        let cuts = section_boundaries(&bytes);
        // Adjacent cuts collapse when a section's padded end coincides
        // with the next offset, so the distinct count is at least one
        // per section plus the header/table/EOF marks.
        assert!(cuts.len() >= 3 + KINDS.len());
        assert_eq!(*cuts.first().unwrap(), 0);
        assert!(cuts.iter().all(|&c| c <= bytes.len()));
        assert_eq!(*cuts.last().unwrap(), bytes.len());
    }
}
