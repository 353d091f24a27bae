//! Regenerate the golden hex blocks of `docs/WIRE_PROTOCOL.md`.
//!
//! Run `cargo run -p tkd-serve --example golden_frames` after any
//! protocol change and paste the emitted blocks into the document —
//! `tests/wire_spec.rs` pins the doc to the codec, so a version bump
//! that skips this step fails the build. The typed values here must
//! stay in sync with `documented_values()` in that test (the test's
//! name-set equality check catches drift).

use tkd_core::{Algorithm, StandingSpec, UpdateOp};
use tkd_serve::cluster_wire::{encode_cluster_request, encode_cluster_response};
use tkd_serve::protocol::{encode_request, encode_response, ErrorFrame, QuerySpec};
use tkd_serve::{
    ClusterRequest, ClusterResponse, Request, Response, ShardPhase, ShardQuery, ShardUpdate,
    ShardUpdateAck, SubscribeAck, WireCandidate, WireEntry, WireNotification,
};

fn hex_block(name: &str, bytes: &[u8]) {
    println!("```hex");
    println!("# {name}");
    for chunk in bytes.chunks(16) {
        let line: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        println!("{}", line.join(" "));
    }
    println!("```");
    println!();
}

fn main() {
    let requests: Vec<(&str, Request)> = vec![
        ("query-big-k3", Request::Query(QuerySpec::new(3))),
        (
            "query-text-select",
            Request::QueryText("SELECT TOP 2 DOMINATING".into()),
        ),
        ("stats", Request::Stats),
        ("unsubscribe-7", Request::Unsubscribe(7)),
        (
            "update-insert",
            Request::UpdateOps(vec![UpdateOp::Insert(vec![Some(1.0), None])]),
        ),
        (
            "subscribe-spec",
            Request::Subscribe(StandingSpec {
                k: 2,
                algorithm: Algorithm::Big,
                subspace: None,
                constraint: vec![],
            }),
        ),
    ];
    let responses: Vec<(&str, Response)> = vec![
        (
            "query-result",
            Response::QueryResult(vec![
                WireEntry { id: 1, score: 16 },
                WireEntry { id: 11, score: 16 },
            ]),
        ),
        (
            "explain-result",
            Response::ExplainResult("algorithm: Big".into()),
        ),
        (
            "error-rejected",
            Response::Error(ErrorFrame {
                code: 4,
                datum: 0,
                message: "parse error".into(),
            }),
        ),
        (
            "subscribe-ack",
            Response::SubscribeAck(SubscribeAck {
                id: 1,
                result: vec![WireEntry { id: 1, score: 16 }],
            }),
        ),
        (
            "notify",
            Response::Notify(WireNotification {
                id: 1,
                batch_seq: 1,
                added: vec![WireEntry { id: 20, score: 19 }],
                removed: vec![9],
                rescored: vec![],
                kth_score: Some(16),
                via_fallback: false,
            }),
        ),
    ];
    let cluster_requests: Vec<(&str, ClusterRequest)> = vec![
        (
            "shard-query-bounds",
            ClusterRequest::ShardQuery(ShardQuery {
                shard: 0,
                algorithm: Algorithm::Big,
                phase: ShardPhase::Bounds,
                tau: None,
                candidates: vec![WireCandidate {
                    values: vec![Some(1.0), None],
                    member: Some(2),
                }],
            }),
        ),
        ("tau-update", ClusterRequest::TauUpdate { tau: 16 }),
        ("handoff", ClusterRequest::Handoff { shard: 1 }),
        (
            "assign",
            ClusterRequest::Assign {
                shard: 1,
                path: "shard-1.seq2.tkd".into(),
                replay: vec![],
            },
        ),
        (
            "shard-update",
            ClusterRequest::ShardUpdate(ShardUpdate {
                shard: 1,
                seq: 3,
                ops: vec![UpdateOp::Delete(7)],
            }),
        ),
    ];
    let cluster_responses: Vec<(&str, ClusterResponse)> = vec![
        (
            "shard-outcomes",
            ClusterResponse::ShardOutcomes(vec![17, 4]),
        ),
        (
            "handoff-ack",
            ClusterResponse::HandoffAck {
                path: "shard-1.seq2.tkd".into(),
                seq: 2,
            },
        ),
        (
            "assign-ack",
            ClusterResponse::AssignAck { shard: 1, live: 9 },
        ),
        (
            "shard-update-ack",
            ClusterResponse::ShardUpdateAck(ShardUpdateAck {
                seq: 3,
                live: 8,
                path: "shard-1.seq3.tkd".into(),
                inserted: vec![],
            }),
        ),
        ("tau-ack", ClusterResponse::TauAck { tau: 16 }),
    ];
    for (name, req) in &requests {
        hex_block(name, &encode_request(req).expect("encodes"));
    }
    for (name, resp) in &responses {
        hex_block(name, &encode_response(resp).expect("encodes"));
    }
    for (name, req) in &cluster_requests {
        hex_block(name, &encode_cluster_request(req).expect("encodes"));
    }
    for (name, resp) in &cluster_responses {
        hex_block(name, &encode_cluster_response(resp).expect("encodes"));
    }
}
