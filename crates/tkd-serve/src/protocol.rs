//! The versioned wire protocol — length-prefixed, checksummed binary
//! frames over TCP.
//!
//! # Frame layout (protocol version 5)
//!
//! ```text
//! magic      4 bytes   "TKDW"
//! version    u32       5
//! checksum   u64       fnv64 over every byte after this field
//!                      (kind ‖ len ‖ body)
//! kind       u8        frame kind (requests 1–8, cluster requests
//!                      16–20, responses 128–137, cluster responses
//!                      144–148)
//! len        u64       body length in bytes
//! body       len bytes kind-specific payload
//! ```
//!
//! All integers are little-endian. The checksum covers the kind and
//! length fields as well as the body, so **any** single flipped byte in
//! a frame surfaces as a typed [`ServeError`]: magic/version flips fail
//! their equality checks, and every other flip lands in the checksummed
//! region (`crates/tkd-serve/tests/frame_roundtrip.rs` fuzzes this).
//! Declared lengths are validated against the configured cap *before*
//! any allocation — a hostile `u64::MAX` length is an error, not an OOM
//! — and, when decoding from a byte buffer, against the bytes actually
//! present.
//!
//! # One codec
//!
//! Bytes are written and read with `tkd-store`'s cursor
//! ([`tkd_store::wire::Writer`] / [`tkd_store::wire::Reader`]); its
//! errors become [`ServeError`]s in one `From` impl. Every frame is
//! described **once**, here and in [`crate::cluster_wire`]: a `frames!`
//! table gives each variant its kind byte, its name in
//! `docs/WIRE_PROTOCOL.md` and its fields, and `wire_structs!` makes a
//! struct's field order its body layout. Encode, decode and the public
//! `KINDS` tables (which `tests/docs_sync.rs` holds the doc's frame
//! tables to) all derive from that one description, through one `Wire`
//! impl per field type — so a new frame or field is one edit.
//!
//! Decoding is **canonical**: every accepted frame re-encodes to the
//! identical bytes (`encode(decode(b)) == b`), the same golden-file
//! discipline as the snapshot format. Trailing bytes, non-0/1 presence
//! flags, NaN cell values, out-of-range ids, and unknown enum bytes are
//! all rejected as [`ServeError::BadFrame`].
//!
//! **Compatibility policy:** exact version match, like snapshots — a
//! frame from any other protocol version fails with
//! [`ServeError::VersionMismatch`]; there is no negotiation.

use crate::error::ServeError;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tkd_core::{Algorithm, StandingSpec, UpdateOp};
use tkd_store::wire::{Reader, Writer};
use tkd_store::{fnv64, Section};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"TKDW";

/// The protocol version this build speaks — reads and writes.
/// Version 3 added standing queries: `subscribe`/`unsubscribe` requests
/// and server-pushed `notify` frames carrying per-batch result deltas.
/// Version 4 added TKDQL text queries: a `query_text` request carrying a
/// statement, and an `explain_result` response carrying the rendered
/// plan. Version 5 adds the cluster frames — `shard_query`,
/// `tau_update`, `handoff`, `assign`, `shard_update` and their answers —
/// spoken between the `tkd-cluster` coordinator and its shard workers
/// (the normative spec is `docs/WIRE_PROTOCOL.md`).
pub const PROTOCOL_VERSION: u32 = 5;

/// Frame header bytes: magic + version + checksum + kind + len.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 1 + 8;

/// Default cap on a frame body (16 MiB) — plenty for any realistic
/// batch, small enough that a hostile length cannot balloon memory.
pub const DEFAULT_MAX_FRAME: u64 = 16 * 1024 * 1024;

// Error-frame codes (the `code` byte of [`ErrorFrame`]).
/// Admission control rejected the request: queue full.
pub const ERR_OVERLOADED: u8 = 1;
/// The request sat in queue past its timeout budget.
pub const ERR_TIMEOUT: u8 = 2;
/// The server is draining and admits no new work.
pub const ERR_SHUTTING_DOWN: u8 = 3;
/// The server rejected the request content (update validation, …).
pub const ERR_REJECTED: u8 = 4;
/// The server could not parse or admit the request frame.
pub const ERR_BAD_REQUEST: u8 = 5;

// ---------------------------------------------------------------------------
// The codec: one `Wire` impl per field type, two macros that derive
// struct and frame codecs from their definitions.
// ---------------------------------------------------------------------------

/// A value with one wire encoding, from which `put` and `get` both
/// derive.
pub(crate) trait Wire: Sized {
    /// The fewest bytes one encoded value takes — what a decoded element
    /// count is checked against before anything is allocated.
    const MIN_BYTES: usize;
    /// Append the encoding.
    fn put(&self, w: &mut Writer) -> Result<(), ServeError>;
    /// Read one value back, rejecting every byte string `put` cannot
    /// produce.
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError>;
}

impl Wire for u64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        w.put_u64(*self);
        Ok(())
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        Ok(r.get_u64()?)
    }
}

/// `k`, dimension indexes and constraint dimensions travel as `u64`.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        w.put_u64(*self as u64);
        Ok(())
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        let raw = r.get_u64()?;
        usize::try_from(raw).map_err(|_| r.invalid(format!("{raw} exceeds usize")).into())
    }
}

/// IEEE bits; a real number only — NaN is rejected (cells, bounds).
impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        w.put_f64(*self);
        Ok(())
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        let v = r.get_f64()?;
        if v.is_nan() {
            return Err(r.invalid("NaN value").into());
        }
        Ok(v)
    }
}

/// One byte, 0 or 1.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        w.put_u8(u8::from(*self));
        Ok(())
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(r.invalid(format!("flag byte {other} (want 0/1)")).into()),
        }
    }
}

/// `u32` byte length ‖ UTF-8 bytes.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        Ok(w.put_str(self)?)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        Ok(r.get_str()?)
    }
}

/// A presence flag (`bool`), then the value when present: cells, τ,
/// member, kth-score and subspace.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        self.is_some().put(w)?;
        self.as_ref().map_or(Ok(()), |v| v.put(w))
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// A `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        w.put_count("list", self.len())?;
        self.iter().try_for_each(|v| v.put(w))
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        let count = r.get_count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// A constraint range: `dim ‖ lo ‖ hi`.
impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES + C::MIN_BYTES;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        self.0.put(w)?;
        self.1.put(w)?;
        self.2.put(w)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// BIG = 3, IBIG = 4 — the two algorithms the serving engines maintain
/// artifacts for. Any other algorithm is an encode error, not a panic.
impl Wire for Algorithm {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        w.put_u8(match self {
            Algorithm::Big => 3,
            Algorithm::Ibig => 4,
            other => {
                return Err(ServeError::BadFrame {
                    reason: format!("algorithm {other:?} is not servable (BIG or IBIG)"),
                })
            }
        });
        Ok(())
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        match r.get_u8()? {
            3 => Ok(Algorithm::Big),
            4 => Ok(Algorithm::Ibig),
            other => Err(r
                .invalid(format!("algorithm byte {other} (want BIG=3/IBIG=4)"))
                .into()),
        }
    }
}

/// The one op layout, [`tkd_store::wire::put_op`] — which the op log
/// shares.
impl Wire for UpdateOp {
    const MIN_BYTES: usize = tkd_store::wire::OP_MIN_BYTES;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        Ok(tkd_store::wire::put_op(w, self)?)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        Ok(tkd_store::wire::get_op(r)?)
    }
}

/// `subscribe`'s body. The trailing `u64` is reserved (v5 carried a
/// patch/re-query threshold there): written 0, ignored on read, dropped
/// with the next version bump.
impl Wire for StandingSpec {
    const MIN_BYTES: usize = 8 + 1 + 1 + 4 + 8;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        self.k.put(w)?;
        self.algorithm.put(w)?;
        self.subspace.put(w)?;
        self.constraint.put(w)?;
        w.put_u64(0);
        Ok(())
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        let spec = StandingSpec {
            k: Wire::get(r)?,
            algorithm: Wire::get(r)?,
            subspace: Wire::get(r)?,
            constraint: Wire::get(r)?,
        };
        r.get_u64()?;
        Ok(spec)
    }
}

/// `code ‖ datum ‖ message`, the code one of the `ERR_*` values.
impl Wire for ErrorFrame {
    const MIN_BYTES: usize = 1 + 8 + 4;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        w.put_u8(self.code);
        self.datum.put(w)?;
        self.message.put(w)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        let code = r.get_u8()?;
        if !(ERR_OVERLOADED..=ERR_BAD_REQUEST).contains(&code) {
            return Err(r.invalid(format!("unknown error code {code}")).into());
        }
        Ok(ErrorFrame {
            code,
            datum: Wire::get(r)?,
            message: Wire::get(r)?,
        })
    }
}

/// `with!(T; tokens)` is `tokens`: lets a `$(..)?` group keyed on a tuple
/// variant's payload type emit a fixed binding.
macro_rules! with {
    ($_payload:ty; $($t:tt)*) => { $($t)* };
}
pub(crate) use with;

/// Defines structs whose body is their fields in declaration order — the
/// definition is the one description of the layout.
macro_rules! wire_structs {
    ($(
        $(#[$meta:meta])*
        pub struct $ty:ident { $( $(#[$fmeta:meta])* pub $field:ident: $fty:ty, )* }
    )*) => {$(
        $(#[$meta])*
        pub struct $ty { $( $(#[$fmeta])* pub $field: $fty, )* }

        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)*;
            #[inline]
            fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
                $( self.$field.put(w)?; )*
                Ok(())
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
                Ok($ty { $( $field: Wire::get(r)?, )* })
            }
        }
    )*};
}
pub(crate) use wire_structs;

/// Defines one plane's frame enum from its table: each variant's kind
/// byte, its name in `docs/WIRE_PROTOCOL.md`, and its fields in body
/// order. Generates the plane's `KINDS` table and its encode, decode and
/// streaming-decode functions.
macro_rules! frames {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $(($inner:ty))?
                    $({ $( $(#[$fmeta:meta])* $field:ident: $fty:ty, )* })?
                    = $kind:literal $name:literal,
            )*
        }
        fn $encode:ident, $decode:ident, $decode_body:ident;
    ) => {
        $(#[$meta])*
        pub enum $ty {
            $(
                $(#[$vmeta])*
                $variant $(($inner))? $({ $( $(#[$fmeta])* $field: $fty, )* })?,
            )*
        }

        impl $ty {
            /// Every kind byte of this plane with the frame's name in
            /// `docs/WIRE_PROTOCOL.md` (`tests/docs_sync.rs` holds the
            /// doc's frame tables to it).
            pub const KINDS: &'static [(u8, &'static str)] = &[$(($kind, $name)),*];
        }

        #[doc = concat!("Encode a ", $what, " as one full frame.")]
        ///
        /// # Errors
        /// [`ServeError::TooLarge`] when a collection exceeds the wire's
        /// `u32` count field, [`ServeError::BadFrame`] for an algorithm
        /// other than BIG/IBIG — rejected before encoding rather than
        /// truncated or panicked on.
        pub fn $encode(frame: &$ty) -> Result<Vec<u8>, ServeError> {
            let mut w = frame_writer();
            let kind = match frame {
                $(
                    $ty::$variant $((with!($inner; x)))? $({ $($field),* })? => {
                        $( with!($inner; x).put(&mut w)?; )?
                        $( $( $field.put(&mut w)?; )* )?
                        $kind
                    }
                )*
            };
            Ok(seal(w, kind))
        }

        #[doc = concat!("Decode a full ", $what, " frame.")]
        pub fn $decode(bytes: &[u8]) -> Result<$ty, ServeError> {
            let (kind, body) = open_frame(bytes)?;
            $decode_body(kind, body)
        }

        #[doc = concat!("Decode a ", $what, " body whose frame header was already validated")]
        /// (the streaming path).
        pub fn $decode_body(kind: u8, body: &[u8]) -> Result<$ty, ServeError> {
            let mut r = Reader::new(body, Section::Frame);
            let frame = match kind {
                $(
                    $kind => $ty::$variant
                        $((with!($inner; Wire::get(&mut r)?)))?
                        $({ $( $field: Wire::get(&mut r)?, )* })?,
                )*
                other => return Err(r.invalid(format!("unknown {} kind {other}", $what)).into()),
            };
            r.finish()?;
            Ok(frame)
        }
    };
}
pub(crate) use frames;

// ---------------------------------------------------------------------------
// The client plane
// ---------------------------------------------------------------------------

wire_structs! {
    /// One query over the wire: `k` plus the answering algorithm.
    ///
    /// Only the index-guided algorithms are representable — the serving
    /// engine maintains BIG/IBIG artifacts, and the wire enum leaves room
    /// for the rest without admitting them.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct QuerySpec {
        /// How many dominating objects to return.
        pub k: u64,
        /// BIG or IBIG (the two the dynamic store serves).
        pub algorithm: Algorithm,
    }

    /// One result entry over the wire.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct WireEntry {
        /// Stable object id.
        pub id: u64,
        /// Dominating score.
        pub score: u64,
    }

    /// Acknowledgement of an applied update batch.
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    pub struct UpdateAck {
        /// Ops applied (the whole batch, on success).
        pub applied: u64,
        /// Server-global update-batch sequence number (strictly increasing;
        /// the order a sequential replay must use).
        pub seq: u64,
        /// Engine compaction epoch after the batch.
        pub epoch: u64,
        /// Live objects after the batch.
        pub live: u64,
        /// Tombstoned slots after the batch.
        pub tombstones: u64,
        /// Stable ids assigned to this batch's inserts, in op order.
        pub inserted_ids: Vec<u64>,
    }

    /// Server/engine statistics (the `stats` frame's answer).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct ServerStats {
        /// Live objects.
        pub live: u64,
        /// Tombstoned slots.
        pub tombstones: u64,
        /// Engine compaction epoch.
        pub epoch: u64,
        /// Update batches applied so far (matches the last ack's `seq`).
        pub seq: u64,
        /// Lifetime successful inserts.
        pub inserts: u64,
        /// Lifetime successful deletes.
        pub deletes: u64,
        /// Lifetime successful cell updates.
        pub cell_updates: u64,
        /// Lifetime compactions.
        pub compactions: u64,
        /// Queries answered (batch members counted individually).
        pub served_queries: u64,
        /// `query_many` batches the coalescer formed.
        pub coalesced_batches: u64,
        /// Requests rejected by admission control.
        pub overloaded: u64,
        /// Requests abandoned after their queue-wait timeout.
        pub timeouts: u64,
        /// Pending requests at the time of the stats call.
        pub queue_depth: u64,
        /// Wall time the startup snapshot load took, in microseconds — 0
        /// when the engine was built in-process rather than loaded.
        pub load_micros: u64,
        /// Always 0 since snapshot format v5, which loads no storage
        /// borrowed from the snapshot file; kept until the next wire
        /// version drops it.
        pub borrowed: u64,
    }

    /// One standing-query result delta over the wire — the serialized form
    /// of [`tkd_core::Notification`].
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    pub struct WireNotification {
        /// The standing-query id the delta belongs to.
        pub id: u64,
        /// The engine's batch sequence number — strictly consecutive per
        /// subscription, so a gap means a lost notification.
        pub batch_seq: u64,
        /// Entries that entered the top-k.
        pub added: Vec<WireEntry>,
        /// Ids that left the top-k.
        pub removed: Vec<u64>,
        /// Entries that stayed but were re-scored.
        pub rescored: Vec<WireEntry>,
        /// The k-th maintained score (τ) after the batch, if any.
        pub kth_score: Option<u64>,
        /// Whether the server took the full re-query path for this batch.
        pub via_fallback: bool,
    }

    /// Acknowledgement of a [`Request::Subscribe`].
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    pub struct SubscribeAck {
        /// The id deltas will arrive under (and `unsubscribe` takes).
        pub id: u64,
        /// The full initial result — the base the first delta applies to.
        pub result: Vec<WireEntry>,
    }
}

impl QuerySpec {
    /// A top-`k` BIG query.
    pub fn new(k: usize) -> Self {
        QuerySpec {
            k: k as u64,
            algorithm: Algorithm::Big,
        }
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }
}

/// A typed rejection relayed to the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// One of the `ERR_*` codes.
    pub code: u8,
    /// Code-specific datum (queue depth, waited ms, op index, …).
    pub datum: u64,
    /// Human-readable reason.
    pub message: String,
}

impl ErrorFrame {
    /// The [`ServeError`] this frame relays.
    pub fn to_error(&self) -> ServeError {
        match self.code {
            ERR_OVERLOADED => ServeError::Overloaded { depth: self.datum },
            ERR_TIMEOUT => ServeError::Timeout {
                waited_ms: self.datum,
            },
            ERR_SHUTTING_DOWN => ServeError::ShuttingDown,
            ERR_REJECTED => ServeError::Rejected {
                index: self.datum,
                message: self.message.clone(),
            },
            _ => ServeError::BadRequest {
                message: self.message.clone(),
            },
        }
    }
}

// Requests and responses share the header format but use disjoint kind
// ranges so a misdirected frame fails loudly. The cluster frames
// (`cluster_wire`) use 16–20 / 144–148 — disjoint again, so a cluster
// frame sent at a plain server (or vice versa) is a typed "unknown kind"
// error, not a misparse.
frames! {
    /// A client→server frame.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request("request") {
        /// One query.
        Query(QuerySpec) = 1 "query",
        /// An explicit batch of queries, answered together.
        QueryBatch(Vec<QuerySpec>) = 2 "query_batch",
        /// A batch of update ops, applied by the single writer in order.
        UpdateOps(Vec<UpdateOp>) = 3 "update_ops",
        /// Ask for server/engine statistics.
        Stats = 4 "stats",
        /// Drain and stop the server.
        Shutdown = 5 "shutdown",
        /// Register a standing query on this connection; the server pushes a
        /// [`Response::Notify`] delta after every acked update batch.
        Subscribe(StandingSpec) = 6 "subscribe",
        /// Remove a standing query previously registered on any connection.
        Unsubscribe(u64) = 7 "unsubscribe",
        /// A TKDQL statement (v4). `SELECT` answers with
        /// [`Response::QueryResult`], `EXPLAIN` with
        /// [`Response::ExplainResult`], and `SUBSCRIBE TO SELECT` registers
        /// on this connection and answers with [`Response::SubscribeAck`].
        /// A `FROM` clause is rejected — the server's engine is the target.
        QueryText(String) = 8 "query_text",
    }
    fn encode_request, decode_request, decode_request_body;
}

frames! {
    /// A server→client frame.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response("response") {
        /// Answer to [`Request::Query`].
        QueryResult(Vec<WireEntry>) = 128 "query_result",
        /// Answer to [`Request::QueryBatch`], in batch order.
        BatchResult(Vec<Vec<WireEntry>>) = 129 "batch_result",
        /// Answer to [`Request::UpdateOps`].
        UpdateAck(UpdateAck) = 130 "update_ack",
        /// Answer to [`Request::Stats`].
        StatsResult(ServerStats) = 131 "stats_result",
        /// Answer to [`Request::Shutdown`].
        ShutdownAck = 132 "shutdown_ack",
        /// Typed rejection of any request (kind 133 is shared with the
        /// cluster plane).
        Error(ErrorFrame) = 133 "error",
        /// Answer to [`Request::Subscribe`].
        SubscribeAck(SubscribeAck) = 134 "subscribe_ack",
        /// Answer to [`Request::Unsubscribe`]: whether the id was registered
        /// by the requesting connection.
        UnsubscribeAck(bool) = 135 "unsubscribe_ack",
        /// Server-pushed standing-query delta (not an answer to anything).
        /// Clients must tolerate one arriving where a response is expected.
        Notify(WireNotification) = 136 "notify",
        /// Answer to a [`Request::QueryText`] carrying `EXPLAIN` (v4): the
        /// rendered plan, UTF-8 text.
        ExplainResult(String) = 137 "explain_result",
    }
    fn encode_response, decode_response, decode_response_body;
}

// ---------------------------------------------------------------------------
// Frame assembly / parsing
// ---------------------------------------------------------------------------

/// A writer holding a blank frame header, ready for a body.
pub(crate) fn frame_writer() -> Writer {
    let mut w = Writer::new();
    w.put_bytes(&[0; HEADER_LEN]);
    w
}

/// Finish a [`frame_writer`] frame: fill in the header around the body
/// written after it — one buffer, no staging copies.
pub(crate) fn seal(w: Writer, kind: u8) -> Vec<u8> {
    let mut frame = w.into_bytes();
    let len = (frame.len() - HEADER_LEN) as u64;
    frame[..4].copy_from_slice(&MAGIC);
    frame[4..8].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    frame[16] = kind;
    frame[17..25].copy_from_slice(&len.to_le_bytes());
    let checksum = fnv64(&frame[16..]);
    frame[8..16].copy_from_slice(&checksum.to_le_bytes());
    frame
}

/// The header check [`open_frame`] and [`read_frame`] share: magic and
/// version, then `(checksum, kind, body length)`.
fn read_header(header: &[u8]) -> Result<(u64, u8, u64), ServeError> {
    if header[..4] != MAGIC {
        return Err(ServeError::BadMagic);
    }
    let mut r = Reader::new(&header[4..HEADER_LEN], Section::Frame);
    let version = r.get_u32()?;
    if version != PROTOCOL_VERSION {
        return Err(ServeError::VersionMismatch {
            found: version,
            expected: PROTOCOL_VERSION,
        });
    }
    Ok((r.get_u64()?, r.get_u8()?, r.get_u64()?))
}

/// Validate a full frame buffer (magic, version, length, checksum) and
/// return `(kind, body)`. The inverse of the frame sealer — exhaustive,
/// typed, allocation-guarded.
pub fn open_frame(bytes: &[u8]) -> Result<(u8, &[u8]), ServeError> {
    if bytes.len() < HEADER_LEN {
        return Err(ServeError::Truncated {
            needed: HEADER_LEN as u64,
            available: bytes.len() as u64,
        });
    }
    let (checksum, kind, len) = read_header(bytes)?;
    let body = &bytes[HEADER_LEN..];
    let have = body.len() as u64;
    if len > have {
        return Err(ServeError::Truncated {
            needed: len,
            available: have,
        });
    }
    if len < have {
        return Err(ServeError::BadFrame {
            reason: format!("{} trailing frame bytes", have - len),
        });
    }
    if fnv64(&bytes[16..]) != checksum {
        return Err(ServeError::ChecksumMismatch);
    }
    Ok((kind, body))
}

// ---------------------------------------------------------------------------
// Socket framing
// ---------------------------------------------------------------------------

/// How long a peer may take to deliver a frame, and how idleness between
/// frames is treated.
#[derive(Clone, Copy, Debug)]
pub struct FramePolicy {
    /// Budget from the first byte of a frame to its last — the
    /// slow-loris guard. A peer trickling bytes slower than this gets a
    /// typed [`ServeError::DeadlineExpired`] and a closed connection.
    pub frame_timeout: Duration,
    /// How long to wait for a frame to *start* before giving up.
    /// `None` = wait forever (the server's idle stance, interrupted by
    /// the `should_stop` poll).
    pub idle_timeout: Option<Duration>,
}

/// Granularity of idle polling (and of `should_stop` checks).
const POLL_QUANTUM: Duration = Duration::from_millis(50);

/// Read one frame from `stream` under `policy`, returning `(kind,
/// body)`. `should_stop` is polled while idle so a draining server can
/// close idle connections promptly.
///
/// # Errors
/// [`ServeError::Disconnected`] on clean EOF between frames, a typed
/// protocol error for anything malformed, [`ServeError::DeadlineExpired`]
/// for a started-but-stalled frame, [`ServeError::ShuttingDown`] when
/// `should_stop` fires while idle.
pub fn read_frame(
    stream: &mut TcpStream,
    max_frame: u64,
    policy: FramePolicy,
    should_stop: &dyn Fn() -> bool,
) -> Result<(u8, Vec<u8>), ServeError> {
    let mut header = [0u8; HEADER_LEN];
    // Phase 1: wait (possibly forever) for the frame to start.
    let idle_start = Instant::now();
    let got = loop {
        if should_stop() {
            return Err(ServeError::ShuttingDown);
        }
        stream
            .set_read_timeout(Some(POLL_QUANTUM))
            .map_err(ServeError::from)?;
        match stream.read(&mut header) {
            Ok(0) => return Err(ServeError::Disconnected),
            Ok(n) => break n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(limit) = policy.idle_timeout {
                    if idle_start.elapsed() >= limit {
                        return Err(ServeError::DeadlineExpired);
                    }
                }
            }
            Err(e) => return Err(ServeError::from(e)),
        }
    };
    // Phase 2: the frame has started — the rest must arrive within the
    // frame budget, however slowly the peer trickles it.
    let deadline = Instant::now() + policy.frame_timeout;
    read_exact_deadline(stream, &mut header[got..], deadline)?;
    let (checksum, kind, len) = read_header(&header)?;
    // The admission gate for hostile lengths: reject before allocating.
    if len > max_frame {
        return Err(ServeError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    let len = usize::try_from(len).map_err(|_| ServeError::TooLarge {
        what: "frame body",
        len,
    })?;
    // `kind ‖ len ‖ body` in one buffer: checksummed where it lies, then
    // the 9-byte prefix is dropped.
    let mut summed = vec![0u8; 9 + len];
    summed[..9].copy_from_slice(&header[16..]);
    read_exact_deadline(stream, &mut summed[9..], deadline)?;
    if fnv64(&summed) != checksum {
        return Err(ServeError::ChecksumMismatch);
    }
    summed.drain(..9);
    Ok((kind, summed))
}

/// `read_exact` with an absolute deadline, implemented over repeated
/// short read timeouts so a trickling peer cannot stretch one frame
/// forever.
fn read_exact_deadline(
    stream: &mut TcpStream,
    mut buf: &mut [u8],
    deadline: Instant,
) -> Result<(), ServeError> {
    while !buf.is_empty() {
        let now = Instant::now();
        if now >= deadline {
            return Err(ServeError::DeadlineExpired);
        }
        let wait = (deadline - now).min(POLL_QUANTUM);
        stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))
            .map_err(ServeError::from)?;
        match stream.read(buf) {
            Ok(0) => {
                return Err(ServeError::Truncated {
                    needed: buf.len() as u64,
                    available: 0,
                })
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(ServeError::from(e)),
        }
    }
    Ok(())
}

/// Write one already-sealed frame, bounded by `timeout`.
pub fn write_frame_bytes(
    stream: &mut TcpStream,
    frame: &[u8],
    timeout: Duration,
) -> Result<(), ServeError> {
    stream
        .set_write_timeout(Some(timeout.max(Duration::from_millis(1))))
        .map_err(ServeError::from)?;
    stream.write_all(frame).map_err(ServeError::from)?;
    stream.flush().map_err(ServeError::from)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_identity() {
        let frames = [
            Request::Query(QuerySpec::new(8)),
            Request::QueryBatch(vec![
                QuerySpec::new(0),
                QuerySpec::new(3).algorithm(Algorithm::Ibig),
            ]),
            Request::QueryBatch(Vec::new()),
            Request::UpdateOps(vec![
                UpdateOp::Insert(vec![Some(1.0), None, Some(-0.0)]),
                UpdateOp::InsertLabeled("héllo".into(), vec![Some(2.5)]),
                UpdateOp::Delete(7),
                UpdateOp::Set(3, 1, None),
            ]),
            Request::Stats,
            Request::Shutdown,
            Request::Subscribe(StandingSpec::new(4)),
            Request::Subscribe(
                StandingSpec::new(0)
                    .algorithm(Algorithm::Ibig)
                    .subspace(vec![0, 2, 5]),
            ),
            Request::Subscribe(
                StandingSpec::new(9)
                    .constrain(1, -0.0, 2.5)
                    .constrain(3, 0.0, 8.0),
            ),
            Request::Unsubscribe(0),
            Request::Unsubscribe(u64::MAX),
            Request::QueryText("SELECT TOP 3 DOMINATING".into()),
            Request::QueryText(String::new()),
            Request::QueryText("EXPLAIN SELECT TOP 1 DOMINATING WHERE d1 > 0.5 — π".into()),
        ];
        for f in &frames {
            let bytes = encode_request(f).expect("sane frames encode");
            let back = decode_request(&bytes).expect("own frame decodes");
            assert_eq!(&back, f);
            assert_eq!(
                encode_request(&back).expect("sane frames encode"),
                bytes,
                "canonical bytes"
            );
        }
    }

    #[test]
    fn response_roundtrip_identity() {
        let frames = [
            Response::QueryResult(vec![WireEntry { id: 1, score: 16 }]),
            Response::QueryResult(Vec::new()),
            Response::BatchResult(vec![Vec::new(), vec![WireEntry { id: 0, score: 1 }]]),
            Response::UpdateAck(UpdateAck {
                applied: 3,
                seq: 9,
                epoch: 1,
                live: 20,
                tombstones: 2,
                inserted_ids: vec![21, 22],
            }),
            Response::StatsResult(ServerStats {
                live: 5,
                seq: 2,
                ..Default::default()
            }),
            Response::ShutdownAck,
            Response::Error(ErrorFrame {
                code: ERR_OVERLOADED,
                datum: 128,
                message: "queue full".into(),
            }),
            Response::SubscribeAck(SubscribeAck {
                id: 3,
                result: vec![WireEntry { id: 9, score: 4 }],
            }),
            Response::SubscribeAck(SubscribeAck::default()),
            Response::UnsubscribeAck(true),
            Response::UnsubscribeAck(false),
            Response::Notify(WireNotification {
                id: 1,
                batch_seq: 17,
                added: vec![WireEntry { id: 21, score: 9 }],
                removed: vec![4, 7],
                rescored: vec![WireEntry { id: 2, score: 3 }],
                kth_score: Some(3),
                via_fallback: true,
            }),
            Response::Notify(WireNotification::default()),
            Response::ExplainResult("TKDQL one-shot query\n  k: 3\n".into()),
            Response::ExplainResult(String::new()),
        ];
        for f in &frames {
            let bytes = encode_response(f).expect("sane frames encode");
            let back = decode_response(&bytes).expect("own frame decodes");
            assert_eq!(&back, f);
            assert_eq!(
                encode_response(&back).expect("sane frames encode"),
                bytes,
                "canonical bytes"
            );
        }
    }

    #[test]
    fn oversized_collections_are_typed_errors_not_truncation() {
        // The wire's count fields are u32. A length that does not fit
        // must be a typed [`ServeError::TooLarge`] from the cursor's
        // checked count every collection encodes through — `len as u32`
        // would truncate silently and frame a shorter, plausible payload.
        // (The collections themselves would take tens of GiB to
        // materialize, so the gate is pinned directly.)
        let over = u32::MAX as usize + 1;
        let err: ServeError = Writer::new().put_count("list", over).unwrap_err().into();
        assert_eq!(
            err,
            ServeError::TooLarge {
                what: "list",
                len: over as u64
            }
        );
        // Everything that fits still encodes.
        let mut w = Writer::new();
        w.put_count("list", u32::MAX as usize).unwrap();
        w.put_count("list", 0).unwrap();
        assert_eq!(w.as_bytes(), [0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0]);
        // And the per-op dimension index uses the same gate.
        let op = UpdateOp::Set(1, over, Some(0.0));
        assert!(matches!(
            encode_request(&Request::UpdateOps(vec![op])).unwrap_err(),
            ServeError::TooLarge {
                what: "dimension index",
                ..
            }
        ));
    }

    #[test]
    fn hostile_standing_spec_bytes_are_typed_errors() {
        let good = encode_request(&Request::Subscribe(
            StandingSpec::new(2).constrain(0, 1.0, 2.0),
        ))
        .expect("encodes");
        // Body layout: k u64 ‖ alg u8 ‖ presence u8 ‖ ranges u32 ‖ ...
        // Unsupported algorithm byte.
        let mut b = good.clone();
        b[HEADER_LEN + 8] = 0;
        assert!(decode_request(&reseal(&b)).is_err());
        // Bad subspace presence flag.
        let mut b = good.clone();
        b[HEADER_LEN + 9] = 7;
        assert!(decode_request(&reseal(&b)).is_err());
        // NaN constraint bound.
        let mut w = frame_writer();
        w.put_u64(2);
        w.put_u8(3);
        w.put_u8(0);
        w.put_u32(1);
        w.put_u64(0);
        w.put_f64(f64::NAN);
        w.put_f64(2.0);
        w.put_f64(0.25);
        assert!(matches!(
            decode_request(&seal(w, 6)).unwrap_err(),
            ServeError::BadFrame { .. }
        ));
    }

    #[test]
    fn subscribe_reserved_slot_is_ignored_on_read() {
        let spec = StandingSpec::new(2).constrain(0, 1.0, 2.0);
        let zero = encode_request(&Request::Subscribe(spec.clone())).expect("encodes");
        let mut nonzero = zero.clone();
        let len = nonzero.len();
        nonzero[len - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        for frame in [zero, reseal(&nonzero)] {
            assert_eq!(
                decode_request(&frame).expect("decodes"),
                Request::Subscribe(spec.clone())
            );
        }
    }

    /// Re-checksum a frame whose body bytes were edited, so the decode
    /// error under test is the semantic one, not ChecksumMismatch.
    pub(crate) fn reseal(frame: &[u8]) -> Vec<u8> {
        let mut w = frame_writer();
        w.put_bytes(&frame[HEADER_LEN..]);
        seal(w, frame[16])
    }

    #[test]
    fn hostile_frames_are_typed_errors() {
        let good = encode_request(&Request::Query(QuerySpec::new(2))).expect("encodes");
        // Truncation at every byte.
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Bad magic / version.
        let mut b = good.clone();
        b[0] ^= 0xFF;
        assert_eq!(decode_request(&b).unwrap_err(), ServeError::BadMagic);
        let mut b = good.clone();
        b[4] = 99;
        assert!(matches!(
            decode_request(&b).unwrap_err(),
            ServeError::VersionMismatch { found: 99, .. }
        ));
        // Hostile u64::MAX length (checksum fixed up so the length check
        // itself is what fires).
        let mut b = good.clone();
        b[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&b).unwrap_err(),
            ServeError::Truncated { .. } | ServeError::ChecksumMismatch
        ));
        // Trailing bytes.
        let mut b = good.clone();
        b.push(0);
        assert!(matches!(
            decode_request(&b).unwrap_err(),
            ServeError::BadFrame { .. }
        ));
        // NaN cell.
        let mut w = frame_writer();
        w.put_u32(1);
        w.put_u8(0); // insert
        w.put_u32(1);
        w.put_u8(1);
        w.put_f64(f64::NAN);
        assert!(matches!(
            decode_request(&seal(w, 3)).unwrap_err(),
            ServeError::BadFrame { .. }
        ));
    }

    #[test]
    fn unsupported_algorithm_byte_is_rejected() {
        // Hand-roll a query frame with algorithm byte 0 (Naive).
        let mut w = frame_writer();
        w.put_u64(4);
        w.put_u8(0);
        assert!(matches!(
            decode_request(&seal(w, 1)).unwrap_err(),
            ServeError::BadFrame { .. }
        ));
        // And the encoders refuse the algorithms the wire cannot name
        // with a typed error, not a panic.
        for a in [Algorithm::Naive, Algorithm::Esb, Algorithm::Ubb] {
            for req in [
                Request::Query(QuerySpec::new(3).algorithm(a)),
                Request::QueryBatch(vec![QuerySpec::new(3), QuerySpec::new(1).algorithm(a)]),
                Request::Subscribe(StandingSpec::new(3).algorithm(a)),
            ] {
                assert!(
                    matches!(encode_request(&req), Err(ServeError::BadFrame { .. })),
                    "{req:?}"
                );
            }
        }
    }
}
