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
use tkd_store::fnv64;

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

// Frame kinds. Requests and responses share the header format but use
// disjoint kind ranges so a misdirected frame fails loudly. The cluster
// frames (`cluster_wire`) use 16–20 / 144–148 — disjoint again, so a
// cluster frame sent at a plain server (or vice versa) is a typed
// "unknown kind" error, not a misparse.
const KIND_QUERY: u8 = 1;
const KIND_QUERY_BATCH: u8 = 2;
const KIND_UPDATE_OPS: u8 = 3;
const KIND_STATS: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;
const KIND_SUBSCRIBE: u8 = 6;
const KIND_UNSUBSCRIBE: u8 = 7;
const KIND_QUERY_TEXT: u8 = 8;
const KIND_QUERY_RESULT: u8 = 128;
const KIND_BATCH_RESULT: u8 = 129;
const KIND_UPDATE_ACK: u8 = 130;
const KIND_STATS_RESULT: u8 = 131;
const KIND_SHUTDOWN_ACK: u8 = 132;
const KIND_ERROR: u8 = 133;
const KIND_SUBSCRIBE_ACK: u8 = 134;
const KIND_UNSUBSCRIBE_ACK: u8 = 135;
/// Server-initiated: pushed after an acked update batch, never in
/// answer to a request. Clients must tolerate one arriving where a
/// response is expected.
const KIND_NOTIFY: u8 = 136;
const KIND_EXPLAIN_RESULT: u8 = 137;
/// Shared with the cluster plane: a worker's typed rejection uses the
/// same error frame a plain server sends.
pub(crate) const KIND_ERROR_SHARED: u8 = KIND_ERROR;

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

/// A client→server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// One query.
    Query(QuerySpec),
    /// An explicit batch of queries, answered together.
    QueryBatch(Vec<QuerySpec>),
    /// A batch of update ops, applied by the single writer in order.
    UpdateOps(Vec<UpdateOp>),
    /// Ask for server/engine statistics.
    Stats,
    /// Drain and stop the server.
    Shutdown,
    /// Register a standing query on this connection; the server pushes a
    /// [`Response::Notify`] delta after every acked update batch.
    Subscribe(StandingSpec),
    /// Remove a standing query previously registered on any connection.
    Unsubscribe(u64),
    /// A TKDQL statement (v4). `SELECT` answers with
    /// [`Response::QueryResult`], `EXPLAIN` with
    /// [`Response::ExplainResult`], and `SUBSCRIBE TO SELECT` registers
    /// on this connection and answers with [`Response::SubscribeAck`].
    /// A `FROM` clause is rejected — the server's engine is the target.
    QueryText(String),
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
    /// 1 while the engine still serves storage **borrowed** from the
    /// zero-copy snapshot buffer, 0 once fully promoted/owned (fresh
    /// builds, big-endian hosts, or after mutations touched everything).
    pub borrowed: u64,
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

/// A server→client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Query`].
    QueryResult(Vec<WireEntry>),
    /// Answer to [`Request::QueryBatch`], in batch order.
    BatchResult(Vec<Vec<WireEntry>>),
    /// Answer to [`Request::UpdateOps`].
    UpdateAck(UpdateAck),
    /// Answer to [`Request::Stats`].
    StatsResult(ServerStats),
    /// Answer to [`Request::Shutdown`].
    ShutdownAck,
    /// Typed rejection of any request.
    Error(ErrorFrame),
    /// Answer to [`Request::Subscribe`].
    SubscribeAck(SubscribeAck),
    /// Answer to [`Request::Unsubscribe`]: whether the id was registered
    /// by the requesting connection.
    UnsubscribeAck(bool),
    /// Server-pushed standing-query delta (not an answer to anything).
    Notify(WireNotification),
    /// Answer to a [`Request::QueryText`] carrying `EXPLAIN` (v4): the
    /// rendered plan, UTF-8 text.
    ExplainResult(String),
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

// ---------------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------------

/// Append-only little-endian body writer.
#[derive(Default)]
pub(crate) struct BodyWriter {
    pub(crate) buf: Vec<u8>,
}

/// Validate that a collection length fits the wire's `u32` count field
/// **before** encoding it. Without this gate an oversized batch would
/// truncate silently (`len as u32`) and decode as a shorter, plausible
/// frame on the other side.
pub(crate) fn check_count(what: &'static str, len: usize) -> Result<u32, ServeError> {
    u32::try_from(len).map_err(|_| ServeError::TooLarge {
        what,
        len: len as u64,
    })
}

/// Convert a wire-declared byte length into an in-memory size, rejecting
/// values the address space cannot represent. The mirror image of
/// [`check_count`]: that gate stops silent truncation on *encode*
/// (`usize → u32`), this one stops it on *decode* (`u64 → usize`, lossy
/// on 32-bit targets where `len as usize` would quietly wrap a hostile
/// length into a small, plausible allocation).
pub(crate) fn check_len(what: &'static str, len: u64) -> Result<usize, ServeError> {
    usize::try_from(len).map_err(|_| ServeError::TooLarge { what, len })
}

impl BodyWriter {
    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write a `u32` element count, rejecting lengths that don't fit.
    pub(crate) fn put_count(&mut self, what: &'static str, len: usize) -> Result<(), ServeError> {
        self.put_u32(check_count(what, len)?);
        Ok(())
    }
    pub(crate) fn put_str(&mut self, what: &'static str, s: &str) -> Result<(), ServeError> {
        self.put_count(what, s.len())?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
    pub(crate) fn put_cell(&mut self, cell: Option<f64>) {
        match cell {
            None => self.put_u8(0),
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v.to_bits());
            }
        }
    }
}

/// Bounds-checked little-endian body reader. Every length check happens
/// before the allocation it guards.
pub(crate) struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if self.remaining() < n {
            return Err(ServeError::Truncated {
                needed: n as u64,
                available: self.remaining() as u64,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn get_u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    pub(crate) fn get_u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// A `u32` element count validated against the bytes present
    /// (`min_elem_bytes` per element) before anything is allocated.
    pub(crate) fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, ServeError> {
        let count = self.get_u32()? as usize;
        let need = count
            .checked_mul(min_elem_bytes)
            .ok_or_else(|| bad("element count overflows"))?;
        if self.remaining() < need {
            return Err(ServeError::Truncated {
                needed: need as u64,
                available: self.remaining() as u64,
            });
        }
        Ok(count)
    }

    pub(crate) fn get_str(&mut self) -> Result<String, ServeError> {
        let len = self.get_u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }

    pub(crate) fn get_cell(&mut self) -> Result<Option<f64>, ServeError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => {
                let v = f64::from_bits(self.get_u64()?);
                if v.is_nan() {
                    return Err(bad("NaN cell value"));
                }
                Ok(Some(v))
            }
            other => Err(bad(format!("cell presence flag {other} (want 0/1)"))),
        }
    }

    pub(crate) fn finish(self) -> Result<(), ServeError> {
        if self.remaining() != 0 {
            return Err(bad(format!("{} trailing body bytes", self.remaining())));
        }
        Ok(())
    }
}

pub(crate) fn bad(reason: impl Into<String>) -> ServeError {
    ServeError::BadFrame {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Frame assembly / parsing
// ---------------------------------------------------------------------------

/// Wrap a kind + body into a full frame (header, checksum, body).
pub(crate) fn seal(kind: u8, body: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + body.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    let mut tail = Vec::with_capacity(9 + body.len());
    tail.push(kind);
    tail.extend_from_slice(&(body.len() as u64).to_le_bytes());
    tail.extend_from_slice(&body);
    frame.extend_from_slice(&fnv64(&tail).to_le_bytes());
    frame.extend_from_slice(&tail);
    frame
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
    if bytes[..4] != MAGIC {
        return Err(ServeError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4B"));
    if version != PROTOCOL_VERSION {
        return Err(ServeError::VersionMismatch {
            found: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let checksum = u64::from_le_bytes(bytes[8..16].try_into().expect("8B"));
    let len = u64::from_le_bytes(bytes[17..25].try_into().expect("8B"));
    let body_have = (bytes.len() - HEADER_LEN) as u64;
    if len > body_have {
        return Err(ServeError::Truncated {
            needed: len,
            available: body_have,
        });
    }
    if len < body_have {
        return Err(bad(format!("{} trailing frame bytes", body_have - len)));
    }
    if fnv64(&bytes[16..]) != checksum {
        return Err(ServeError::ChecksumMismatch);
    }
    Ok((bytes[16], &bytes[HEADER_LEN..]))
}

/// Encode a request as one full frame.
///
/// # Errors
/// [`ServeError::TooLarge`] when a collection exceeds the wire's `u32`
/// count field — rejected before encoding rather than truncated on it.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, ServeError> {
    let mut w = BodyWriter::default();
    let kind = match req {
        Request::Query(q) => {
            put_query(&mut w, q);
            KIND_QUERY
        }
        Request::QueryBatch(qs) => {
            w.put_count("query batch", qs.len())?;
            for q in qs {
                put_query(&mut w, q);
            }
            KIND_QUERY_BATCH
        }
        Request::UpdateOps(ops) => {
            w.put_count("update batch", ops.len())?;
            for op in ops {
                put_op(&mut w, op)?;
            }
            KIND_UPDATE_OPS
        }
        Request::Stats => KIND_STATS,
        Request::Shutdown => KIND_SHUTDOWN,
        Request::Subscribe(spec) => {
            put_standing_spec(&mut w, spec)?;
            KIND_SUBSCRIBE
        }
        Request::Unsubscribe(id) => {
            w.put_u64(*id);
            KIND_UNSUBSCRIBE
        }
        Request::QueryText(text) => {
            w.put_str("statement text", text)?;
            KIND_QUERY_TEXT
        }
    };
    Ok(seal(kind, w.buf))
}

/// Decode a full request frame.
pub fn decode_request(bytes: &[u8]) -> Result<Request, ServeError> {
    let (kind, body) = open_frame(bytes)?;
    decode_request_body(kind, body)
}

/// Decode a request body whose frame header was already validated (the
/// server's streaming path).
pub fn decode_request_body(kind: u8, body: &[u8]) -> Result<Request, ServeError> {
    let mut r = BodyReader::new(body);
    let req = match kind {
        KIND_QUERY => Request::Query(get_query(&mut r)?),
        KIND_QUERY_BATCH => {
            let count = r.get_count(9)?;
            let mut qs = Vec::with_capacity(count);
            for _ in 0..count {
                qs.push(get_query(&mut r)?);
            }
            Request::QueryBatch(qs)
        }
        KIND_UPDATE_OPS => {
            let count = r.get_count(1)?;
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                ops.push(get_op(&mut r)?);
            }
            Request::UpdateOps(ops)
        }
        KIND_STATS => Request::Stats,
        KIND_SHUTDOWN => Request::Shutdown,
        KIND_SUBSCRIBE => Request::Subscribe(get_standing_spec(&mut r)?),
        KIND_UNSUBSCRIBE => Request::Unsubscribe(r.get_u64()?),
        KIND_QUERY_TEXT => Request::QueryText(r.get_str()?),
        other => return Err(bad(format!("unknown request kind {other}"))),
    };
    r.finish()?;
    Ok(req)
}

/// Encode a response as one full frame.
///
/// # Errors
/// [`ServeError::TooLarge`] when a collection exceeds the wire's `u32`
/// count field — rejected before encoding rather than truncated on it.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, ServeError> {
    let mut w = BodyWriter::default();
    let kind = match resp {
        Response::QueryResult(entries) => {
            put_entries(&mut w, entries)?;
            KIND_QUERY_RESULT
        }
        Response::BatchResult(results) => {
            w.put_count("result batch", results.len())?;
            for entries in results {
                put_entries(&mut w, entries)?;
            }
            KIND_BATCH_RESULT
        }
        Response::UpdateAck(ack) => {
            w.put_u64(ack.applied);
            w.put_u64(ack.seq);
            w.put_u64(ack.epoch);
            w.put_u64(ack.live);
            w.put_u64(ack.tombstones);
            w.put_count("ack id list", ack.inserted_ids.len())?;
            for &id in &ack.inserted_ids {
                w.put_u64(id);
            }
            KIND_UPDATE_ACK
        }
        Response::StatsResult(s) => {
            for v in [
                s.live,
                s.tombstones,
                s.epoch,
                s.seq,
                s.inserts,
                s.deletes,
                s.cell_updates,
                s.compactions,
                s.served_queries,
                s.coalesced_batches,
                s.overloaded,
                s.timeouts,
                s.queue_depth,
                s.load_micros,
                s.borrowed,
            ] {
                w.put_u64(v);
            }
            KIND_STATS_RESULT
        }
        Response::ShutdownAck => KIND_SHUTDOWN_ACK,
        Response::Error(e) => {
            put_error_frame(&mut w, e)?;
            KIND_ERROR
        }
        Response::SubscribeAck(ack) => {
            w.put_u64(ack.id);
            put_entries(&mut w, &ack.result)?;
            KIND_SUBSCRIBE_ACK
        }
        Response::UnsubscribeAck(removed) => {
            w.put_u8(u8::from(*removed));
            KIND_UNSUBSCRIBE_ACK
        }
        Response::Notify(n) => {
            w.put_u64(n.id);
            w.put_u64(n.batch_seq);
            put_entries(&mut w, &n.added)?;
            w.put_count("notify removed ids", n.removed.len())?;
            for &id in &n.removed {
                w.put_u64(id);
            }
            put_entries(&mut w, &n.rescored)?;
            match n.kth_score {
                None => w.put_u8(0),
                Some(s) => {
                    w.put_u8(1);
                    w.put_u64(s);
                }
            }
            w.put_u8(u8::from(n.via_fallback));
            KIND_NOTIFY
        }
        Response::ExplainResult(text) => {
            w.put_str("explain text", text)?;
            KIND_EXPLAIN_RESULT
        }
    };
    Ok(seal(kind, w.buf))
}

/// Decode a full response frame.
pub fn decode_response(bytes: &[u8]) -> Result<Response, ServeError> {
    let (kind, body) = open_frame(bytes)?;
    decode_response_body(kind, body)
}

/// Decode a response body whose frame header was already validated (the
/// client's streaming path).
pub fn decode_response_body(kind: u8, body: &[u8]) -> Result<Response, ServeError> {
    let mut r = BodyReader::new(body);
    let resp = match kind {
        KIND_QUERY_RESULT => Response::QueryResult(get_entries(&mut r)?),
        KIND_BATCH_RESULT => {
            let count = r.get_count(4)?;
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                results.push(get_entries(&mut r)?);
            }
            Response::BatchResult(results)
        }
        KIND_UPDATE_ACK => {
            let applied = r.get_u64()?;
            let seq = r.get_u64()?;
            let epoch = r.get_u64()?;
            let live = r.get_u64()?;
            let tombstones = r.get_u64()?;
            let count = r.get_count(8)?;
            let mut inserted_ids = Vec::with_capacity(count);
            for _ in 0..count {
                inserted_ids.push(r.get_u64()?);
            }
            Response::UpdateAck(UpdateAck {
                applied,
                seq,
                epoch,
                live,
                tombstones,
                inserted_ids,
            })
        }
        KIND_STATS_RESULT => {
            let mut get = || r.get_u64();
            let s = ServerStats {
                live: get()?,
                tombstones: get()?,
                epoch: get()?,
                seq: get()?,
                inserts: get()?,
                deletes: get()?,
                cell_updates: get()?,
                compactions: get()?,
                served_queries: get()?,
                coalesced_batches: get()?,
                overloaded: get()?,
                timeouts: get()?,
                queue_depth: get()?,
                load_micros: get()?,
                borrowed: get()?,
            };
            Response::StatsResult(s)
        }
        KIND_SHUTDOWN_ACK => Response::ShutdownAck,
        KIND_SUBSCRIBE_ACK => {
            let id = r.get_u64()?;
            let result = get_entries(&mut r)?;
            Response::SubscribeAck(SubscribeAck { id, result })
        }
        KIND_UNSUBSCRIBE_ACK => match r.get_u8()? {
            0 => Response::UnsubscribeAck(false),
            1 => Response::UnsubscribeAck(true),
            other => return Err(bad(format!("removed flag {other} (want 0/1)"))),
        },
        KIND_NOTIFY => {
            let id = r.get_u64()?;
            let batch_seq = r.get_u64()?;
            let added = get_entries(&mut r)?;
            let count = r.get_count(8)?;
            let mut removed = Vec::with_capacity(count);
            for _ in 0..count {
                removed.push(r.get_u64()?);
            }
            let rescored = get_entries(&mut r)?;
            let kth_score = match r.get_u8()? {
                0 => None,
                1 => Some(r.get_u64()?),
                other => return Err(bad(format!("kth presence flag {other} (want 0/1)"))),
            };
            let via_fallback = match r.get_u8()? {
                0 => false,
                1 => true,
                other => return Err(bad(format!("fallback flag {other} (want 0/1)"))),
            };
            Response::Notify(WireNotification {
                id,
                batch_seq,
                added,
                removed,
                rescored,
                kth_score,
                via_fallback,
            })
        }
        KIND_EXPLAIN_RESULT => Response::ExplainResult(r.get_str()?),
        KIND_ERROR => Response::Error(get_error_frame(&mut r)?),
        other => return Err(bad(format!("unknown response kind {other}"))),
    };
    r.finish()?;
    Ok(resp)
}

pub(crate) fn put_error_frame(w: &mut BodyWriter, e: &ErrorFrame) -> Result<(), ServeError> {
    w.put_u8(e.code);
    w.put_u64(e.datum);
    w.put_str("error message", &e.message)
}

pub(crate) fn get_error_frame(r: &mut BodyReader) -> Result<ErrorFrame, ServeError> {
    let code = r.get_u8()?;
    if !(ERR_OVERLOADED..=ERR_BAD_REQUEST).contains(&code) {
        return Err(bad(format!("unknown error code {code}")));
    }
    let datum = r.get_u64()?;
    let message = r.get_str()?;
    Ok(ErrorFrame {
        code,
        datum,
        message,
    })
}

fn put_query(w: &mut BodyWriter, q: &QuerySpec) {
    w.put_u64(q.k);
    w.put_u8(match q.algorithm {
        Algorithm::Big => 3,
        Algorithm::Ibig => 4,
        other => unreachable!("wire queries are BIG/IBIG only, got {other:?}"),
    });
}

fn get_query(r: &mut BodyReader) -> Result<QuerySpec, ServeError> {
    let k = r.get_u64()?;
    let algorithm = match r.get_u8()? {
        3 => Algorithm::Big,
        4 => Algorithm::Ibig,
        other => {
            return Err(bad(format!(
                "algorithm byte {other} (the serve path answers BIG=3/IBIG=4)"
            )))
        }
    };
    Ok(QuerySpec { k, algorithm })
}

fn put_entries(w: &mut BodyWriter, entries: &[WireEntry]) -> Result<(), ServeError> {
    w.put_count("result rows", entries.len())?;
    for e in entries {
        w.put_u64(e.id);
        w.put_u64(e.score);
    }
    Ok(())
}

/// A wire f64 that must be a real number (constraint bounds) — NaN is
/// rejected like NaN cells are.
fn get_real(r: &mut BodyReader, what: &str) -> Result<f64, ServeError> {
    let v = f64::from_bits(r.get_u64()?);
    if v.is_nan() {
        return Err(bad(format!("NaN {what}")));
    }
    Ok(v)
}

fn get_usize(r: &mut BodyReader, what: &str) -> Result<usize, ServeError> {
    let raw = r.get_u64()?;
    usize::try_from(raw).map_err(|_| bad(format!("{what} {raw} exceeds usize")))
}

fn put_standing_spec(w: &mut BodyWriter, spec: &StandingSpec) -> Result<(), ServeError> {
    w.put_u64(spec.k as u64);
    w.put_u8(match spec.algorithm {
        Algorithm::Big => 3,
        Algorithm::Ibig => 4,
        other => unreachable!("wire standing specs are BIG/IBIG only, got {other:?}"),
    });
    match &spec.subspace {
        None => w.put_u8(0),
        Some(dims) => {
            w.put_u8(1);
            w.put_count("subspace dims", dims.len())?;
            for &d in dims {
                w.put_u64(d as u64);
            }
        }
    }
    w.put_count("constraint ranges", spec.constraint.len())?;
    for &(dim, lo, hi) in &spec.constraint {
        w.put_u64(dim as u64);
        w.put_u64(lo.to_bits());
        w.put_u64(hi.to_bits());
    }
    // Reserved (v5 carried a patch/re-query threshold here): written 0,
    // ignored on read, dropped with the next version bump.
    w.put_u64(0);
    Ok(())
}

fn get_standing_spec(r: &mut BodyReader) -> Result<StandingSpec, ServeError> {
    let k = get_usize(r, "standing k")?;
    let algorithm = match r.get_u8()? {
        3 => Algorithm::Big,
        4 => Algorithm::Ibig,
        other => {
            return Err(bad(format!(
                "algorithm byte {other} (standing queries answer BIG=3/IBIG=4)"
            )))
        }
    };
    let subspace = match r.get_u8()? {
        0 => None,
        1 => {
            let count = r.get_count(8)?;
            let mut dims = Vec::with_capacity(count);
            for _ in 0..count {
                dims.push(get_usize(r, "subspace dim")?);
            }
            Some(dims)
        }
        other => return Err(bad(format!("subspace presence flag {other} (want 0/1)"))),
    };
    let count = r.get_count(24)?;
    let mut constraint = Vec::with_capacity(count);
    for _ in 0..count {
        let dim = get_usize(r, "constraint dim")?;
        let lo = get_real(r, "constraint low bound")?;
        let hi = get_real(r, "constraint high bound")?;
        constraint.push((dim, lo, hi));
    }
    r.get_u64()?; // reserved, see `put_standing_spec`
    Ok(StandingSpec {
        k,
        algorithm,
        subspace,
        constraint,
    })
}

fn get_entries(r: &mut BodyReader) -> Result<Vec<WireEntry>, ServeError> {
    let count = r.get_count(16)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(WireEntry {
            id: r.get_u64()?,
            score: r.get_u64()?,
        });
    }
    Ok(entries)
}

const OP_INSERT: u8 = 0;
const OP_INSERT_LABELED: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_SET: u8 = 3;

pub(crate) fn put_op(w: &mut BodyWriter, op: &UpdateOp) -> Result<(), ServeError> {
    match op {
        UpdateOp::Insert(row) => {
            w.put_u8(OP_INSERT);
            w.put_count("insert row", row.len())?;
            for &cell in row {
                w.put_cell(cell);
            }
        }
        UpdateOp::InsertLabeled(label, row) => {
            w.put_u8(OP_INSERT_LABELED);
            w.put_str("row label", label)?;
            w.put_count("insert row", row.len())?;
            for &cell in row {
                w.put_cell(cell);
            }
        }
        UpdateOp::Delete(id) => {
            w.put_u8(OP_DELETE);
            w.put_u64(u64::from(*id));
        }
        UpdateOp::Set(id, dim, cell) => {
            w.put_u8(OP_SET);
            w.put_u64(u64::from(*id));
            w.put_u32(check_count("dimension index", *dim)?);
            w.put_cell(*cell);
        }
    }
    Ok(())
}

fn get_row(r: &mut BodyReader) -> Result<Vec<Option<f64>>, ServeError> {
    let dims = r.get_count(1)?;
    let mut row = Vec::with_capacity(dims);
    for _ in 0..dims {
        row.push(r.get_cell()?);
    }
    Ok(row)
}

fn get_id(r: &mut BodyReader) -> Result<tkd_model::ObjectId, ServeError> {
    let raw = r.get_u64()?;
    tkd_model::ObjectId::try_from(raw).map_err(|_| bad(format!("object id {raw} exceeds u32")))
}

pub(crate) fn get_op(r: &mut BodyReader) -> Result<UpdateOp, ServeError> {
    match r.get_u8()? {
        OP_INSERT => Ok(UpdateOp::Insert(get_row(r)?)),
        OP_INSERT_LABELED => {
            let label = r.get_str()?;
            Ok(UpdateOp::InsertLabeled(label, get_row(r)?))
        }
        OP_DELETE => Ok(UpdateOp::Delete(get_id(r)?)),
        OP_SET => {
            let id = get_id(r)?;
            let dim = r.get_u32()? as usize;
            Ok(UpdateOp::Set(id, dim, r.get_cell()?))
        }
        other => Err(bad(format!("unknown op tag {other}"))),
    }
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
    if header[..4] != MAGIC {
        return Err(ServeError::BadMagic);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4B"));
    if version != PROTOCOL_VERSION {
        return Err(ServeError::VersionMismatch {
            found: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let checksum = u64::from_le_bytes(header[8..16].try_into().expect("8B"));
    let kind = header[16];
    let len = u64::from_le_bytes(header[17..25].try_into().expect("8B"));
    // The admission gate for hostile lengths: reject before allocating.
    if len > max_frame {
        return Err(ServeError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    let mut body = vec![0u8; check_len("frame body", len)?];
    read_exact_deadline(stream, &mut body, deadline)?;
    let mut summed = Vec::with_capacity(9 + body.len());
    summed.push(kind);
    summed.extend_from_slice(&len.to_le_bytes());
    summed.extend_from_slice(&body);
    if fnv64(&summed) != checksum {
        return Err(ServeError::ChecksumMismatch);
    }
    Ok((kind, body))
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
mod tests {
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
        // must be a typed [`ServeError::TooLarge`] from the checked
        // helper every encoder now routes through — previously
        // `len as u32` truncated silently and framed a shorter,
        // plausible payload. (The collections themselves would take tens
        // of GiB to materialize, so the gate is pinned directly.)
        let over = u32::MAX as usize + 1;
        for what in ["query batch", "update batch", "result rows", "ack id list"] {
            assert_eq!(
                check_count(what, over).unwrap_err(),
                ServeError::TooLarge {
                    what,
                    len: over as u64
                },
            );
        }
        // Everything that fits still encodes.
        assert_eq!(
            check_count("result rows", u32::MAX as usize).unwrap(),
            u32::MAX
        );
        assert_eq!(check_count("result rows", 0).unwrap(), 0);
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
        let mut w = BodyWriter::default();
        w.put_u64(2);
        w.put_u8(3);
        w.put_u8(0);
        w.put_u32(1);
        w.put_u64(0);
        w.put_u64(f64::NAN.to_bits());
        w.put_u64(2.0f64.to_bits());
        w.put_u64(0.25f64.to_bits());
        assert!(matches!(
            decode_request(&seal(KIND_SUBSCRIBE, w.buf)).unwrap_err(),
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
    fn reseal(frame: &[u8]) -> Vec<u8> {
        seal(frame[16], frame[HEADER_LEN..].to_vec())
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
        let nan_op = {
            let mut w = BodyWriter::default();
            w.put_u32(1);
            w.put_u8(OP_INSERT);
            w.put_u32(1);
            w.put_u8(1);
            w.put_u64(f64::NAN.to_bits());
            seal(KIND_UPDATE_OPS, w.buf)
        };
        assert!(matches!(
            decode_request(&nan_op).unwrap_err(),
            ServeError::BadFrame { .. }
        ));
    }

    #[test]
    fn unsupported_algorithm_byte_is_rejected() {
        // Hand-roll a query frame with algorithm byte 0 (Naive).
        let mut w = BodyWriter::default();
        w.put_u64(4);
        w.put_u8(0);
        let frame = seal(KIND_QUERY, w.buf);
        assert!(matches!(
            decode_request(&frame).unwrap_err(),
            ServeError::BadFrame { .. }
        ));
    }
}
