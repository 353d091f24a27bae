//! The cluster plane of protocol version 5 — frames spoken between the
//! `tkd-cluster` coordinator and its shard workers.
//!
//! Cluster frames reuse the exact v5 frame envelope of [`crate::protocol`]
//! (magic ‖ version ‖ checksum ‖ kind ‖ len ‖ body) but occupy disjoint
//! kind ranges: requests 16–20, responses 144–148. A cluster frame sent
//! at a plain server therefore fails as a typed "unknown request kind",
//! and vice versa — misdirection is loud, never a misparse. Workers
//! answer rejections with the shared error frame (kind 133), so one
//! error path serves both planes.
//!
//! Like the client plane, every frame here is described once — the
//! `frames!` tables below give each variant its kind, its name in
//! `docs/WIRE_PROTOCOL.md` and its fields, and `wire_structs!` makes each
//! struct's field order its layout — and the codec derives from that
//! description through `tkd-store`'s cursor (see [`crate::protocol`]).
//! The frames, in protocol order:
//!
//! | kind | frame | answered by |
//! |------|-------|-------------|
//! | 16 | `shard_query` — a chunk of candidates to bound or score | 144 `shard_outcomes` |
//! | 17 | `tau_update` — a τ broadcast: accepted, no longer sent | 148 `tau_ack` |
//! | 18 | `handoff` — checkpoint the shard and release it | 145 `handoff_ack` |
//! | 19 | `assign` — adopt a shard from a checkpoint and its op log (+ replay) | 146 `assign_ack` |
//! | 20 | `shard_update` — one routed update batch for a shard | 147 `shard_update_ack` |
//!
//! A `shard_query` runs one of two phases. `Bounds` asks for the
//! shard's exact `|∩ᵢ Qᵢ|` count per candidate (the fused counts
//! `DynamicEngine::{big_bound, ibig_q_count}` of the engine hosting the
//! shard); the coordinator sums them across shards and prunes against τ
//! (the paper's Heuristic 2, made distributive). `Partials` asks for exact
//! partial scores of the survivors; the sums are exact by the row
//! partition argument in `tkd_core::cluster`. Both answers are plain
//! `u64` vectors in candidate order — the *classification* of each
//! candidate (pruned vs. scored) is the coordinator's job, because only
//! the cross-shard sum decides it.
//!
//! τ monotonicity is part of the protocol: τ rides in every
//! `shard_query`, a worker's session τ only tightens (grows) within a
//! query, and a frame carrying a smaller value than the session's
//! current τ is a protocol error the worker must reject — a cheap
//! tripwire for reordered or misrouted frames. A worker still accepts
//! `tau_update` under the same rule, so v5 stays decodable, but the
//! coordinator no longer sends it.

use crate::error::ServeError;
use crate::protocol::{
    frame_writer, frames, open_frame, seal, wire_structs, with, ErrorFrame, Wire,
};
use tkd_core::{Algorithm, UpdateOp};
use tkd_store::wire::{Reader, Writer};
use tkd_store::Section;

/// Which half of the two-phase fan-out a `shard_query` drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPhase {
    /// Return each candidate's exact `|∩ᵢ Qᵢ|` count on this shard.
    Bounds,
    /// Return each candidate's exact partial score on this shard.
    Partials,
}

/// One byte: bounds = 0, partials = 1.
impl Wire for ShardPhase {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Writer) -> Result<(), ServeError> {
        w.put_u8(match self {
            ShardPhase::Bounds => 0,
            ShardPhase::Partials => 1,
        });
        Ok(())
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        match r.get_u8()? {
            0 => Ok(ShardPhase::Bounds),
            1 => Ok(ShardPhase::Partials),
            other => Err(r.invalid(format!("phase byte {other} (want 0/1)")).into()),
        }
    }
}

wire_structs! {
    /// One candidate shipped to a shard: its (possibly incomplete) row, and
    /// — when the candidate's home row lives on this shard — its local
    /// stable id, so the worker can exclude the member's own bit from its
    /// partial (each object must be counted in exactly one shard).
    #[derive(Clone, Debug, PartialEq)]
    pub struct WireCandidate {
        /// The candidate's observed values, one slot per dimension.
        pub values: Vec<Option<f64>>,
        /// The candidate's stable id *local to this shard*, when it lives
        /// there; `None` on every other shard.
        pub member: Option<u64>,
    }

    /// A chunk of candidates for one shard to bound or score.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ShardQuery {
        /// Which of the worker's hosted shards answers.
        pub shard: u64,
        /// BIG or IBIG — decides which bound/partial the worker computes.
        pub algorithm: Algorithm,
        /// Bounds (phase 1) or exact partials (phase 2).
        pub phase: ShardPhase,
        /// The coordinator's τ at send time, when one exists. Carried for
        /// the monotonicity tripwire; the pruning itself happens at the
        /// coordinator, where the cross-shard sums live.
        pub tau: Option<u64>,
        /// The candidates, in coordinator queue order.
        pub candidates: Vec<WireCandidate>,
    }

    /// One replayed update batch inside an [`ClusterRequest::Assign`] — a
    /// batch the coordinator routed but saw no ack for, which the dead
    /// worker may or may not have logged. Replay is idempotent because
    /// the new host recovers the checkpoint and its op log first and skips
    /// every batch at or below the seq they reach.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ReplayBatch {
        /// The coordinator's per-shard update sequence number.
        pub seq: u64,
        /// The batch's ops, in application order.
        pub ops: Vec<UpdateOp>,
    }

    /// A routed update batch for one shard.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ShardUpdate {
        /// The target shard.
        pub shard: u64,
        /// The coordinator's per-shard update sequence number — strictly
        /// increasing; the worker logs the batch under it.
        pub seq: u64,
        /// The ops, in application order.
        pub ops: Vec<UpdateOp>,
    }

    /// Acknowledgement of a [`ClusterRequest::ShardUpdate`]: the shard's
    /// post-batch state, mirroring the plain plane's `update_ack`.
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    pub struct ShardUpdateAck {
        /// The committed sequence number (echoes the request).
        pub seq: u64,
        /// Live objects on the shard after the batch.
        pub live: u64,
        /// The shard's checkpoint: the snapshot whose op log holds the batch,
        /// or which holds it itself when the batch filled the log.
        pub path: String,
        /// Local stable ids assigned to the batch's inserts, in op order.
        pub inserted: Vec<u64>,
    }
}

frames! {
    /// A coordinator→worker frame.
    #[derive(Clone, Debug, PartialEq)]
    pub enum ClusterRequest("cluster request") {
        /// Bound or score a chunk of candidates on one shard.
        ShardQuery(ShardQuery) = 16 "shard_query",
        /// Announce the tightening τ for the in-flight query. Accepted,
        /// but no longer sent: τ rides in every `shard_query`.
        TauUpdate {
            /// The k-th maintained score so far.
            tau: u64,
        } = 17 "tau_update",
        /// Checkpoint the shard if its op log holds batches, release it,
        /// answer with the checkpoint's path — the first half of a
        /// rebalance.
        Handoff {
            /// The shard to hand off.
            shard: u64,
        } = 18 "handoff",
        /// Adopt a shard from a checkpoint and the op log beside it (the
        /// second half of a rebalance, or the repair path after a worker
        /// death), replaying any update batches newer than both.
        Assign {
            /// The shard to adopt.
            shard: u64,
            /// Path of the snapshot file to load.
            path: String,
            /// Acked-but-possibly-uncommitted batches to replay, oldest
            /// first.
            replay: Vec<ReplayBatch>,
        } = 19 "assign",
        /// Apply one routed update batch to a shard.
        ShardUpdate(ShardUpdate) = 20 "shard_update",
    }
    fn encode_cluster_request, decode_cluster_request, decode_cluster_request_body;
}

frames! {
    /// A worker→coordinator frame.
    #[derive(Clone, Debug, PartialEq)]
    pub enum ClusterResponse("cluster response") {
        /// Typed rejection — the same error frame (and kind) the plain
        /// plane uses (unknown shard, τ regression, update validation
        /// failure, …).
        Error(ErrorFrame) = 133 "error",
        /// Answer to [`ClusterRequest::ShardQuery`]: one `u64` per
        /// candidate, in request order — exact `|∩ᵢ Qᵢ|` counts in the
        /// `Bounds` phase, exact partial scores in the `Partials` phase.
        ShardOutcomes(Vec<u64>) = 144 "shard_outcomes",
        /// Answer to [`ClusterRequest::Handoff`]: where the released
        /// shard's snapshot was written, and its committed seq.
        HandoffAck {
            /// The snapshot file path.
            path: String,
            /// The last update seq committed into that file.
            seq: u64,
        } = 145 "handoff_ack",
        /// Answer to [`ClusterRequest::Assign`].
        AssignAck {
            /// The adopted shard (echoes the request).
            shard: u64,
            /// Live objects after load + replay.
            live: u64,
        } = 146 "assign_ack",
        /// Answer to [`ClusterRequest::ShardUpdate`].
        ShardUpdateAck(ShardUpdateAck) = 147 "shard_update_ack",
        /// Answer to [`ClusterRequest::TauUpdate`]: the worker's session τ
        /// after the update (equal to the broadcast value on success).
        TauAck {
            /// The worker's session τ.
            tau: u64,
        } = 148 "tau_ack",
    }
    fn encode_cluster_response, decode_cluster_response, decode_cluster_response_body;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::reseal;
    use crate::protocol::{decode_request_body, ERR_REJECTED, HEADER_LEN};

    fn sample_requests() -> Vec<ClusterRequest> {
        vec![
            ClusterRequest::ShardQuery(ShardQuery {
                shard: 2,
                algorithm: Algorithm::Big,
                phase: ShardPhase::Bounds,
                tau: None,
                candidates: vec![
                    WireCandidate {
                        values: vec![Some(1.0), None, Some(-0.0)],
                        member: Some(7),
                    },
                    WireCandidate {
                        values: vec![None],
                        member: None,
                    },
                ],
            }),
            ClusterRequest::ShardQuery(ShardQuery {
                shard: 0,
                algorithm: Algorithm::Ibig,
                phase: ShardPhase::Partials,
                tau: Some(16),
                candidates: Vec::new(),
            }),
            ClusterRequest::TauUpdate { tau: 0 },
            ClusterRequest::TauUpdate { tau: u64::MAX },
            ClusterRequest::Handoff { shard: 1 },
            ClusterRequest::Assign {
                shard: 1,
                path: "/tmp/shard-1.seq3.tkd".into(),
                replay: vec![
                    ReplayBatch {
                        seq: 4,
                        ops: vec![UpdateOp::Insert(vec![Some(2.5), None])],
                    },
                    ReplayBatch {
                        seq: 5,
                        ops: vec![UpdateOp::Delete(3), UpdateOp::Set(0, 1, Some(9.0))],
                    },
                ],
            },
            ClusterRequest::Assign {
                shard: 0,
                path: String::new(),
                replay: Vec::new(),
            },
            ClusterRequest::ShardUpdate(ShardUpdate {
                shard: 2,
                seq: 9,
                ops: vec![UpdateOp::InsertLabeled("héllo".into(), vec![Some(1.5)])],
            }),
        ]
    }

    fn sample_responses() -> Vec<ClusterResponse> {
        vec![
            ClusterResponse::ShardOutcomes(vec![0, 16, u64::MAX]),
            ClusterResponse::ShardOutcomes(Vec::new()),
            ClusterResponse::HandoffAck {
                path: "/tmp/shard-1.seq3.tkd".into(),
                seq: 3,
            },
            ClusterResponse::AssignAck { shard: 1, live: 40 },
            ClusterResponse::ShardUpdateAck(ShardUpdateAck {
                seq: 9,
                live: 41,
                path: "/tmp/shard-2.seq9.tkd".into(),
                inserted: vec![13],
            }),
            ClusterResponse::ShardUpdateAck(ShardUpdateAck::default()),
            ClusterResponse::TauAck { tau: 16 },
            ClusterResponse::Error(ErrorFrame {
                code: ERR_REJECTED,
                datum: 2,
                message: "shard 2 is not hosted here".into(),
            }),
        ]
    }

    #[test]
    fn cluster_frame_roundtrip_identity() {
        for f in &sample_requests() {
            let bytes = encode_cluster_request(f).expect("sane frames encode");
            let back = decode_cluster_request(&bytes).expect("own frame decodes");
            assert_eq!(&back, f);
            assert_eq!(
                encode_cluster_request(&back).expect("sane frames encode"),
                bytes,
                "canonical bytes"
            );
        }
        for f in &sample_responses() {
            let bytes = encode_cluster_response(f).expect("sane frames encode");
            let back = decode_cluster_response(&bytes).expect("own frame decodes");
            assert_eq!(&back, f);
            assert_eq!(
                encode_cluster_response(&back).expect("sane frames encode"),
                bytes,
                "canonical bytes"
            );
        }
    }

    #[test]
    fn misdirected_frames_fail_loudly_on_both_planes() {
        // A cluster frame at the plain server's decoder…
        let frame = encode_cluster_request(&ClusterRequest::Handoff { shard: 0 }).unwrap();
        let (kind, body) = open_frame(&frame).unwrap();
        let err = decode_request_body(kind, body).unwrap_err();
        assert!(
            matches!(&err, ServeError::BadFrame { reason } if reason.contains("unknown request kind 18")),
            "{err:?}"
        );
        // …and a plain frame at the cluster decoder.
        let frame = crate::protocol::encode_request(&crate::protocol::Request::Stats).unwrap();
        let (kind, body) = open_frame(&frame).unwrap();
        let err = decode_cluster_request_body(kind, body).unwrap_err();
        assert!(
            matches!(&err, ServeError::BadFrame { reason } if reason.contains("unknown cluster request kind 4")),
            "{err:?}"
        );
    }

    #[test]
    fn hostile_cluster_bytes_are_typed_errors() {
        let query = |algorithm| {
            ClusterRequest::ShardQuery(ShardQuery {
                shard: 0,
                algorithm,
                phase: ShardPhase::Bounds,
                tau: None,
                candidates: vec![WireCandidate {
                    values: vec![Some(1.0)],
                    member: None,
                }],
            })
        };
        let good = encode_cluster_request(&query(Algorithm::Big)).unwrap();
        // Truncation at every byte.
        for cut in 0..good.len() {
            assert!(
                decode_cluster_request(&good[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Body layout: shard u64 ‖ alg u8 ‖ phase u8 ‖ tau flag u8 ‖ …
        // Unsupported algorithm byte.
        let mut b = good.clone();
        b[HEADER_LEN + 8] = 0;
        assert!(decode_cluster_request(&reseal(&b)).is_err());
        // Bad phase byte.
        let mut b = good.clone();
        b[HEADER_LEN + 9] = 7;
        assert!(decode_cluster_request(&reseal(&b)).is_err());
        // Bad tau presence flag.
        let mut b = good.clone();
        b[HEADER_LEN + 10] = 9;
        assert!(decode_cluster_request(&reseal(&b)).is_err());
        // Trailing bytes.
        let mut b = good.clone();
        b.push(0);
        assert!(matches!(
            decode_cluster_request(&b).unwrap_err(),
            ServeError::BadFrame { .. }
        ));
        // Flipping any checksummed byte is caught.
        let mut b = good.clone();
        let last = b.len() - 1;
        b[last] ^= 0x40;
        assert_eq!(
            decode_cluster_request(&b).unwrap_err(),
            ServeError::ChecksumMismatch
        );
        // An algorithm the wire cannot name is an encode error, not a
        // panic.
        for a in [Algorithm::Naive, Algorithm::Esb, Algorithm::Ubb] {
            assert!(matches!(
                encode_cluster_request(&query(a)),
                Err(ServeError::BadFrame { .. })
            ));
        }
    }
}
