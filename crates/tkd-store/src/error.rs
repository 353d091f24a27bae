//! The typed error surface of the snapshot format.
//!
//! Every malformed input — truncation at any boundary, flipped bytes in
//! the header, section table, payloads, or checksums, and hostile lengths
//! — must surface as one of these variants. Loading never panics, never
//! allocates ahead of a length check, and never silently accepts a
//! damaged file.

use core::fmt;

/// Which part of a snapshot an error refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// The magic / version / section-table region.
    Header,
    /// The dictionary-encoded [`tkd_model::Dataset`]: the exact index's
    /// value tables and every cell's slot into them.
    Dataset,
    /// The serialized [`tkd_index::BinBoundaries`] of the binned index.
    BinBoundaries,
    /// The serialized dynamic-engine state.
    Dynamic,
    /// A cluster shard manifest (`cluster.manifest`), not a snapshot
    /// section proper but validated with the same discipline.
    Manifest,
    /// A `tkd-serve` wire frame body, read with the same cursor
    /// ([`crate::wire::Reader`]).
    Frame,
    /// The op log beside a snapshot ([`crate::Journal`]).
    Log,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Section::Header => "header",
            Section::Dataset => "dataset",
            Section::BinBoundaries => "bin-boundaries",
            Section::Dynamic => "dynamic",
            Section::Manifest => "manifest",
            Section::Frame => "frame",
            Section::Log => "op log",
        })
    }
}

/// Why a snapshot could not be written or loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed (path and OS message preserved).
    Io {
        /// The file being read or written.
        path: String,
        /// The underlying OS error, stringified.
        message: String,
    },
    /// The file does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    /// Version compatibility is exact in v1: there is no migration path,
    /// rebuild the snapshot with `tkdq build` (see README § Persistence).
    VersionMismatch {
        /// The version recorded in the file.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// The input ends before a structure it promised — the length was
    /// validated *before* any allocation sized by it.
    Truncated {
        /// Where the bytes ran out.
        section: Section,
        /// Bytes the structure needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The section table itself is malformed (bad kind, overlapping or
    /// unordered ranges, impossible offsets).
    BadSectionTable {
        /// What was wrong.
        reason: String,
    },
    /// A payload does not hash to its recorded checksum — bytes were
    /// flipped between write and read.
    ChecksumMismatch {
        /// The damaged section ([`Section::Header`] covers the
        /// header-and-table checksum).
        section: Section,
    },
    /// The bytes parsed but violate a structural invariant of the
    /// decoded type (out-of-range slot, unsorted table, arity mismatch…).
    Invalid {
        /// The offending section.
        section: Section,
        /// The violated invariant.
        reason: String,
    },
    /// A length being *encoded* does not fit its `u32` count field —
    /// rejected instead of truncated into a shorter, plausible value.
    TooLarge {
        /// What was being counted (list, string, dimension index).
        what: &'static str,
        /// The offending length.
        len: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "{path}: {message}"),
            StoreError::BadMagic => write!(f, "not a TKD snapshot (bad magic)"),
            StoreError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not the supported version {expected}; \
                 re-create the snapshot with `tkdq build`"
            ),
            StoreError::Truncated {
                section,
                needed,
                available,
            } => write!(
                f,
                "truncated snapshot in {section}: needed {needed} bytes, {available} available"
            ),
            StoreError::BadSectionTable { reason } => {
                write!(f, "malformed section table: {reason}")
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section} (snapshot is corrupt)")
            }
            StoreError::Invalid { section, reason } => {
                write!(f, "invalid {section} section: {reason}")
            }
            StoreError::TooLarge { what, len } => {
                write!(f, "cannot encode {what} of {len}: exceeds the u32 count")
            }
        }
    }
}

impl std::error::Error for StoreError {}
