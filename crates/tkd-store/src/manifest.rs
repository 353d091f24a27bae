//! The cluster shard manifest: which seq-stamped checkpoint holds every
//! shard.
//!
//! A cluster's durable state is a directory of `shard-{s}.seq{n}.tkd`
//! checkpoints — each the shard at seq `n`, with the batches acked since
//! in the op log beside it (`shard-{s}.seq{n}.tkd.log`, see
//! [`crate::Journal`]) — plus this one small file naming, per shard, the
//! checkpoint that is current. The coordinator rewrites it (atomically,
//! like every snapshot) after each state change — seed, routed update
//! batch, handoff, repair — so an operator or a fresh coordinator can
//! tell the committed topology apart from leftover `.seq` files without
//! trusting directory-listing order.
//!
//! The format follows the snapshot discipline: magic, exact version
//! match, length validation before any allocation, and a trailing
//! FNV-1a 64 checksum over everything before it. Corruption surfaces as
//! a typed [`StoreError`], never a panic or a silently wrong topology.

use crate::atomic_rewrite;
use crate::error::{Section, StoreError};
use crate::wire::{fnv64, Reader, Writer};
use std::path::Path;

/// First eight bytes of every manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"TKDCLMF\0";

/// The manifest format version this build writes and the only one it
/// reads (same exact-match policy as snapshots).
pub const MANIFEST_VERSION: u32 = 1;

/// One shard's committed state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard number.
    pub shard: u64,
    /// The checkpoint's seq — the `.seq{n}.` stamp in `path`. The
    /// shard's later acked batches are the records of the checkpoint's
    /// op log.
    pub seq: u64,
    /// Live objects in the shard after its last acked batch.
    pub live: u64,
    /// Checkpoint file name (relative to the manifest's directory).
    pub path: String,
}

/// The committed shard topology of one cluster.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterManifest {
    /// One entry per shard, in strictly increasing shard order.
    pub shards: Vec<ShardEntry>,
}

impl ClusterManifest {
    /// Serialize to the versioned, checksummed byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&MANIFEST_MAGIC);
        w.put_u32(MANIFEST_VERSION);
        w.put_u64(self.shards.len() as u64);
        for e in &self.shards {
            w.put_u64(e.shard);
            w.put_u64(e.seq);
            w.put_u64(e.live);
            w.put_str(&e.path).expect("path length fits u32");
        }
        let checksum = fnv64(w.as_bytes());
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Parse and validate a manifest: magic, exact version, trailing
    /// checksum, and strictly increasing shard numbers.
    ///
    /// # Errors
    /// The usual typed surface: [`StoreError::BadMagic`],
    /// [`StoreError::VersionMismatch`], [`StoreError::Truncated`],
    /// [`StoreError::ChecksumMismatch`], or [`StoreError::Invalid`] for
    /// structural violations.
    pub fn decode(bytes: &[u8]) -> Result<ClusterManifest, StoreError> {
        if bytes.len() < MANIFEST_MAGIC.len() + 8 || bytes[..8] != MANIFEST_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let recorded = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv64(body) != recorded {
            return Err(StoreError::ChecksumMismatch {
                section: Section::Manifest,
            });
        }
        let mut r = Reader::new(&body[8..], Section::Manifest);
        let version = r.get_u32()?;
        if version != MANIFEST_VERSION {
            return Err(StoreError::VersionMismatch {
                found: version,
                expected: MANIFEST_VERSION,
            });
        }
        let count = r.get_count_u64(8 * 3 + 4)?;
        let mut shards = Vec::with_capacity(count);
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            let shard = r.get_u64()?;
            if prev.is_some_and(|p| p >= shard) {
                return Err(r.invalid("shard numbers must be strictly increasing"));
            }
            prev = Some(shard);
            let seq = r.get_u64()?;
            let live = r.get_u64()?;
            let path = r.get_str()?;
            if path.is_empty() {
                return Err(r.invalid("empty snapshot path"));
            }
            shards.push(ShardEntry {
                shard,
                seq,
                live,
                path,
            });
        }
        r.finish()?;
        Ok(ClusterManifest { shards })
    }

    /// Write the manifest to `path` via the same atomic
    /// temp-file-and-rename every snapshot uses.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, StoreError> {
        atomic_rewrite(path, &self.encode())
    }

    /// Load and validate a manifest file.
    ///
    /// # Errors
    /// [`StoreError::Io`] if unreadable, otherwise the same surface as
    /// [`ClusterManifest::decode`].
    pub fn load(path: impl AsRef<Path>) -> Result<ClusterManifest, StoreError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| StoreError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        ClusterManifest::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterManifest {
        ClusterManifest {
            shards: vec![
                ShardEntry {
                    shard: 0,
                    seq: 4,
                    live: 21,
                    path: "shard-0.seq4.tkd".into(),
                },
                ShardEntry {
                    shard: 1,
                    seq: 0,
                    live: 20,
                    path: "shard-1.seq0.tkd".into(),
                },
            ],
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let m = sample();
        assert_eq!(ClusterManifest::decode(&m.encode()).unwrap(), m);
        let empty = ClusterManifest::default();
        assert_eq!(ClusterManifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn save_and_load_through_a_file() {
        let path = std::env::temp_dir().join(format!(
            "tkd-manifest-roundtrip-{}.manifest",
            std::process::id()
        ));
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(ClusterManifest::load(&path).unwrap(), m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                ClusterManifest::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                ClusterManifest::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn structural_violations_are_invalid() {
        let mut unsorted = sample();
        unsorted.shards.swap(0, 1);
        let bytes = unsorted.encode();
        assert!(matches!(
            ClusterManifest::decode(&bytes),
            Err(StoreError::Invalid { .. })
        ));

        let mut wrong_version = sample().encode();
        wrong_version[8] = 99;
        // Re-stamp the checksum so only the version is wrong.
        let body_len = wrong_version.len() - 8;
        let sum = fnv64(&wrong_version[..body_len]).to_le_bytes();
        wrong_version[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            ClusterManifest::decode(&wrong_version),
            Err(StoreError::VersionMismatch { found: 99, .. })
        ));

        assert!(matches!(
            ClusterManifest::decode(b"not a manifest at all"),
            Err(StoreError::BadMagic)
        ));
    }
}
