//! A typed, blocking client for the serve protocol.
//!
//! One [`Client`] owns one TCP connection and speaks strict
//! request/response: every call writes one frame and reads exactly one
//! *matching* frame back. Server-side rejections arrive as error frames
//! and are surfaced as the [`ServeError`] they encode, so callers match
//! on `Overloaded`/`Timeout`/`ShuttingDown` the same way whether the
//! failure happened locally or across the wire.
//!
//! Standing queries add a second traffic class: after [`Client::subscribe`],
//! the server pushes `Notify` frames between request/response exchanges.
//! The server never interleaves a push inside an exchange (pushes are
//! flushed only while the connection is idle), but a push may already be
//! queued in the socket when a request goes out — so [`Client::call`]
//! buffers any `Notify` frames it reads while waiting for its response,
//! and [`Client::next_notification`] drains that buffer before touching
//! the socket. Notifications are therefore delivered in server order,
//! never lost, never blocking a request.

use crate::cluster_wire::{
    decode_cluster_response_body, encode_cluster_request, ClusterRequest, ClusterResponse,
};
use crate::error::ServeError;
use crate::protocol::{
    self, decode_response_body, encode_request, FramePolicy, QuerySpec, Request, Response,
    ServerStats, SubscribeAck, UpdateAck, WireEntry, WireNotification, DEFAULT_MAX_FRAME,
};
use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use tkd_core::{StandingSpec, UpdateOp};

/// A connected client.
pub struct Client {
    stream: TcpStream,
    timeout: Duration,
    max_frame: u64,
    /// Pushed `Notify` frames read while waiting for a response, in
    /// arrival order. Drained by [`Client::next_notification`].
    pending: VecDeque<WireNotification>,
}

impl Client {
    /// Connect with a 30-second per-frame timeout.
    ///
    /// # Errors
    /// [`ServeError::Io`] if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Client::connect_with(addr, Duration::from_secs(30))
    }

    /// Connect with an explicit per-frame timeout (applies to both the
    /// request write and the response read).
    ///
    /// # Errors
    /// [`ServeError::Io`] if the connection fails.
    pub fn connect_with(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr).map_err(ServeError::from)?;
        stream.set_nodelay(true).map_err(ServeError::from)?;
        Ok(Client {
            stream,
            timeout,
            max_frame: DEFAULT_MAX_FRAME,
            pending: VecDeque::new(),
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        let frame = encode_request(req)?;
        protocol::write_frame_bytes(&mut self.stream, &frame, self.timeout)?;
        let policy = FramePolicy {
            frame_timeout: self.timeout,
            idle_timeout: Some(self.timeout),
        };
        loop {
            let (kind, body) =
                protocol::read_frame(&mut self.stream, self.max_frame, policy, &|| false)?;
            let resp = decode_response_body(kind, &body)?;
            if let Response::Notify(note) = resp {
                // A push that was already in flight when our request went
                // out. Hold it for `next_notification` and keep waiting
                // for the real response.
                self.pending.push_back(note);
                continue;
            }
            if let Response::Error(e) = &resp {
                return Err(e.to_error());
            }
            return Ok(resp);
        }
    }

    /// Answer one query. Entries are `(stable id, score)` in the
    /// engine's deterministic order.
    ///
    /// # Errors
    /// Transport errors, or the typed rejection the server sent.
    pub fn query(&mut self, spec: QuerySpec) -> Result<Vec<WireEntry>, ServeError> {
        match self.call(&Request::Query(spec))? {
            Response::QueryResult(entries) => Ok(entries),
            other => Err(unexpected(&other)),
        }
    }

    /// Answer an explicit batch in one round trip, results in batch
    /// order. An empty batch is valid and returns an empty list.
    ///
    /// # Errors
    /// Transport errors, or the typed rejection the server sent.
    pub fn query_batch(&mut self, specs: &[QuerySpec]) -> Result<Vec<Vec<WireEntry>>, ServeError> {
        match self.call(&Request::QueryBatch(specs.to_vec()))? {
            Response::BatchResult(results) => Ok(results),
            other => Err(unexpected(&other)),
        }
    }

    /// Apply a batch of update ops through the server's single writer.
    ///
    /// # Errors
    /// Transport errors, or [`ServeError::Rejected`] naming the failing
    /// op; a rejected batch changes nothing on the server.
    pub fn update(&mut self, ops: &[UpdateOp]) -> Result<UpdateAck, ServeError> {
        match self.call(&Request::UpdateOps(ops.to_vec()))? {
            Response::UpdateAck(ack) => Ok(ack),
            other => Err(unexpected(&other)),
        }
    }

    /// Register a standing query on this connection. The ack carries the
    /// server-assigned subscription id and the query's initial result;
    /// after each acked update batch that affects it, the server pushes a
    /// [`WireNotification`] (read it with [`Client::next_notification`]).
    /// The subscription lives until [`Client::unsubscribe`] or this
    /// connection closes.
    ///
    /// # Errors
    /// Transport errors, or [`ServeError::Rejected`] if the spec fails
    /// server-side validation.
    pub fn subscribe(&mut self, spec: &StandingSpec) -> Result<SubscribeAck, ServeError> {
        match self.call(&Request::Subscribe(spec.clone()))? {
            Response::SubscribeAck(ack) => Ok(ack),
            other => Err(unexpected(&other)),
        }
    }

    /// Drop a standing query. Returns whether the server knew the id as a
    /// subscription of this connection (false for double-unsubscribes and
    /// for another connection's id — idempotent, not an error).
    /// Notifications already pushed for it may still be in flight or in
    /// the local buffer.
    ///
    /// # Errors
    /// Transport errors, or the typed rejection the server sent.
    pub fn unsubscribe(&mut self, id: u64) -> Result<bool, ServeError> {
        match self.call(&Request::Unsubscribe(id))? {
            Response::UnsubscribeAck(known) => Ok(known),
            other => Err(unexpected(&other)),
        }
    }

    /// Wait up to `wait` for the next pushed notification. Returns
    /// `Ok(None)` if none arrives in time — a normal outcome, not an
    /// error. Buffered notifications (read while waiting for an earlier
    /// response) are returned first, so ordering matches the server.
    ///
    /// # Errors
    /// Transport errors, or the typed error of a non-`Notify` frame
    /// arriving where only pushes are expected.
    pub fn next_notification(
        &mut self,
        wait: Duration,
    ) -> Result<Option<WireNotification>, ServeError> {
        if let Some(note) = self.pending.pop_front() {
            return Ok(Some(note));
        }
        let policy = FramePolicy {
            frame_timeout: self.timeout,
            idle_timeout: Some(wait),
        };
        let (kind, body) =
            match protocol::read_frame(&mut self.stream, self.max_frame, policy, &|| false) {
                Ok(frame) => frame,
                Err(ServeError::DeadlineExpired) => return Ok(None),
                Err(e) => return Err(e),
            };
        match decode_response_body(kind, &body)? {
            Response::Notify(note) => Ok(Some(note)),
            Response::Error(e) => Err(e.to_error()),
            other => Err(unexpected(&other)),
        }
    }

    /// Run a TKDQL statement on the server (protocol v4). The answer
    /// depends on the statement form, so this returns the raw typed
    /// [`Response`]; the convenience wrappers [`Client::query_text`] and
    /// [`Client::subscribe_text`] unwrap the common cases.
    ///
    /// # Errors
    /// Transport errors, or [`ServeError::Rejected`] carrying the
    /// statement's lex/parse/bind/plan/exec diagnostic (with its
    /// line/column span).
    pub fn statement(&mut self, text: &str) -> Result<Response, ServeError> {
        self.call(&Request::QueryText(text.to_string()))
    }

    /// Run a one-shot TKDQL `SELECT` (or `EXPLAIN`) on the server.
    /// `SELECT` answers with result entries; `EXPLAIN` answers with the
    /// rendered plan in `Err`-free textual form via [`Client::statement`]
    /// — this wrapper accepts only the entry-list answer.
    ///
    /// # Errors
    /// Transport errors, the server's typed rejection, or a mismatched
    /// response kind (e.g. the statement was an `EXPLAIN`).
    pub fn query_text(&mut self, text: &str) -> Result<Vec<WireEntry>, ServeError> {
        match self.statement(text)? {
            Response::QueryResult(entries) => Ok(entries),
            other => Err(unexpected(&other)),
        }
    }

    /// Render a TKDQL statement's plan on the server (`EXPLAIN …`).
    ///
    /// # Errors
    /// Transport errors, the server's typed rejection, or a mismatched
    /// response kind (the statement must start with `EXPLAIN`).
    pub fn explain_text(&mut self, text: &str) -> Result<String, ServeError> {
        match self.statement(text)? {
            Response::ExplainResult(rendered) => Ok(rendered),
            other => Err(unexpected(&other)),
        }
    }

    /// Register a standing query by TKDQL text
    /// (`SUBSCRIBE TO SELECT …`). Same semantics as [`Client::subscribe`]:
    /// the ack carries the subscription id and initial result, and deltas
    /// arrive via [`Client::next_notification`].
    ///
    /// # Errors
    /// Transport errors, the server's typed rejection, or a mismatched
    /// response kind (the statement must be a `SUBSCRIBE TO SELECT`).
    pub fn subscribe_text(&mut self, text: &str) -> Result<SubscribeAck, ServeError> {
        match self.statement(text)? {
            Response::SubscribeAck(ack) => Ok(ack),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch server/engine statistics.
    ///
    /// # Errors
    /// Transport errors, or the typed rejection the server sent.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        match self.call(&Request::Stats)? {
            Response::StatsResult(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to drain and stop. Returns once the ack arrives;
    /// queued work submitted before this call is still answered.
    ///
    /// # Errors
    /// Transport errors, or the typed rejection the server sent.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Send one cluster-plane request and read its matching answer —
    /// the `tkd-cluster` coordinator's side of the v5 cluster frames:
    /// [`Client::cluster_send`], then [`Client::cluster_recv`]. Workers
    /// speak strict request/response (no pushes), so exactly one frame
    /// comes back; a worker's error frame is surfaced as the
    /// [`ServeError`] it encodes, like every other call on this client.
    /// The per-frame timeout doubles as the coordinator's failure
    /// detector: a worker that misses the deadline gets a typed
    /// [`ServeError::DeadlineExpired`]/[`ServeError::Io`], never a hang.
    ///
    /// # Errors
    /// Transport errors, or the typed rejection the worker sent.
    pub fn cluster_call(&mut self, req: &ClusterRequest) -> Result<ClusterResponse, ServeError> {
        self.cluster_send(req)?;
        self.cluster_recv()
    }

    /// Write one cluster-plane request without waiting for its answer,
    /// so a coordinator can address several workers before it reads any
    /// of them. A worker answers one request at a time: read this one's
    /// answer with [`Client::cluster_recv`] before sending the next.
    ///
    /// # Errors
    /// An encode error, or a transport error writing the frame.
    pub fn cluster_send(&mut self, req: &ClusterRequest) -> Result<(), ServeError> {
        let frame = encode_cluster_request(req)?;
        protocol::write_frame_bytes(&mut self.stream, &frame, self.timeout)
    }

    /// Read the answer to the request [`Client::cluster_send`] wrote,
    /// within the per-frame timeout.
    ///
    /// # Errors
    /// Transport errors, or the typed rejection the worker sent.
    pub fn cluster_recv(&mut self) -> Result<ClusterResponse, ServeError> {
        let policy = FramePolicy {
            frame_timeout: self.timeout,
            idle_timeout: Some(self.timeout),
        };
        let (kind, body) =
            protocol::read_frame(&mut self.stream, self.max_frame, policy, &|| false)?;
        let resp = decode_cluster_response_body(kind, &body)?;
        if let ClusterResponse::Error(e) = &resp {
            return Err(e.to_error());
        }
        Ok(resp)
    }
}

fn unexpected(resp: &Response) -> ServeError {
    ServeError::BadFrame {
        reason: format!("response kind does not match the request: {resp:?}"),
    }
}
