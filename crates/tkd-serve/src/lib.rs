//! tkd-serve: a long-running TCP query service for the dynamic TKD
//! engine.
//!
//! The paper's algorithms answer one query over one dataset; this crate
//! turns the maintained [`tkd_core::DynamicEngine`] into a *service*:
//! a server that loads a `tkd-store` snapshot, answers BIG/IBIG queries
//! and update batches for many concurrent clients over a versioned,
//! checksummed binary protocol, and makes every update batch durable —
//! a synced append to the op log beside the snapshot — before it applies
//! and acks it.
//!
//! Three layers, mirroring the crate's test layers:
//! * [`protocol`] — frame encode/decode plus socket framing. Canonical
//!   (`encode(decode(b)) == b`), allocation-guarded, and every
//!   single-byte corruption is a typed error (`frame_roundtrip` tests).
//! * [`Server`] — listener + connection threads + a single engine
//!   thread with query coalescing and admission control
//!   (`fault_injection` and `serve_stress` tests).
//! * [`Client`] — typed blocking caller (`serve_parity` pins every
//!   over-the-wire answer bit-identical to the in-process engines).
//!
//! [`accept`] is the accept loop the server shares with the cluster's
//! shard workers: a blocking listener, a connection served the moment
//! it arrives, woken by a loopback connection to stop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accept;
mod client;
pub mod cluster_wire;
mod error;
pub mod protocol;
mod server;

pub use client::Client;
pub use cluster_wire::{
    ClusterRequest, ClusterResponse, ReplayBatch, ShardPhase, ShardQuery, ShardUpdate,
    ShardUpdateAck, WireCandidate,
};
pub use error::ServeError;
pub use protocol::{
    ErrorFrame, QuerySpec, Request, Response, ServerStats, SubscribeAck, UpdateAck, WireEntry,
    WireNotification,
};
pub use server::{ServeConfig, Server};
