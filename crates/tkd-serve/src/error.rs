//! The typed error currency of the serve layer.
//!
//! Every way a connection, frame, or request can go wrong maps to one
//! variant — the fault-injection harness's contract is that hostile
//! input of any shape surfaces as one of these, never as a panic, hang,
//! or wedged server.

use std::fmt;
use tkd_store::StoreError;

/// Why a frame, request, or connection failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Socket-level failure (message carries the OS error).
    Io(String),
    /// The peer closed the connection cleanly between frames.
    Disconnected,
    /// Frame does not start with [`crate::protocol::MAGIC`].
    BadMagic,
    /// Frame speaks a protocol version this build does not.
    VersionMismatch {
        /// Version found in the frame header.
        found: u32,
        /// The only version this build speaks.
        expected: u32,
    },
    /// Declared body length exceeds the configured frame cap — rejected
    /// before any allocation, so a hostile `u64::MAX` length cannot OOM.
    FrameTooLarge {
        /// Declared body length.
        len: u64,
        /// The configured cap.
        max: u64,
    },
    /// A collection being *encoded* exceeds the wire's `u32` count field
    /// — rejected before encoding, where it would otherwise truncate
    /// silently (`len as u32`) and frame a shorter, plausible payload.
    TooLarge {
        /// What was being counted (list, string, dimension index, frame
        /// body).
        what: &'static str,
        /// The offending length.
        len: u64,
    },
    /// Fewer bytes than the header/body promised.
    Truncated {
        /// Bytes required.
        needed: u64,
        /// Bytes present.
        available: u64,
    },
    /// Frame checksum does not match its `kind ‖ len ‖ body` bytes.
    ChecksumMismatch,
    /// Structurally invalid frame (unknown kind, out-of-range field,
    /// trailing bytes, non-UTF-8 label, …).
    BadFrame {
        /// What was wrong.
        reason: String,
    },
    /// The peer took longer than the per-frame deadline to deliver a
    /// started frame — the slow-loris guard.
    DeadlineExpired,
    /// Admission control: the server's request queue is full.
    Overloaded {
        /// Queue depth at rejection time.
        depth: u64,
    },
    /// The request waited in queue past its timeout budget.
    Timeout {
        /// Milliseconds the request had waited when it was abandoned.
        waited_ms: u64,
    },
    /// The server is draining and admits no new work.
    ShuttingDown,
    /// The server rejected the request content (update validation, an
    /// update batch it could not log, …).
    Rejected {
        /// Index of the failing op within its batch (updates), else 0.
        index: u64,
        /// Server-side reason.
        message: String,
    },
    /// The server reported a malformed request (relayed `BadRequest`
    /// error frame).
    BadRequest {
        /// Server-side reason.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "i/o error: {m}"),
            ServeError::Disconnected => write!(f, "peer disconnected"),
            ServeError::BadMagic => write!(f, "bad frame magic"),
            ServeError::VersionMismatch { found, expected } => {
                write!(f, "protocol version {found} (this build speaks {expected})")
            }
            ServeError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ServeError::TooLarge { what, len } => {
                write!(
                    f,
                    "cannot encode {what} of {len} elements: exceeds the u32 wire count"
                )
            }
            ServeError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, got {available}")
            }
            ServeError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            ServeError::BadFrame { reason } => write!(f, "malformed frame: {reason}"),
            ServeError::DeadlineExpired => write!(f, "frame read deadline expired"),
            ServeError::Overloaded { depth } => {
                write!(f, "server overloaded (queue depth {depth})")
            }
            ServeError::Timeout { waited_ms } => {
                write!(f, "request timed out after {waited_ms}ms in queue")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Rejected { index, message } => {
                write!(f, "request rejected (op {index}): {message}")
            }
            ServeError::BadRequest { message } => write!(f, "bad request: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

/// The one mapping from the shared cursor's errors (`tkd_store::wire`)
/// into this crate's: short input is [`ServeError::Truncated`], an
/// uncountable length [`ServeError::TooLarge`], anything else a
/// [`ServeError::BadFrame`].
impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Truncated {
                needed, available, ..
            } => ServeError::Truncated { needed, available },
            StoreError::TooLarge { what, len } => ServeError::TooLarge { what, len },
            StoreError::Invalid { reason, .. } => ServeError::BadFrame { reason },
            other => ServeError::BadFrame {
                reason: other.to_string(),
            },
        }
    }
}
