//! Pins `docs/WIRE_PROTOCOL.md` to the real codec: every named
//! ` ```hex ` golden frame in the document must byte-for-byte equal the
//! codec's encoding of the typed value it documents, and must decode
//! back to that value. Editing either side without the other fails here.
//! Both planes are covered: the client plane (`protocol`) and the v5
//! cluster plane (`cluster_wire`).

use std::collections::BTreeMap;
use tkd_core::{Algorithm, StandingSpec, UpdateOp};
use tkd_serve::cluster_wire::{
    decode_cluster_request, decode_cluster_response, encode_cluster_request,
    encode_cluster_response,
};
use tkd_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, ErrorFrame, QuerySpec,
    Request, Response, SubscribeAck, WireEntry, WireNotification, PROTOCOL_VERSION,
};
use tkd_serve::{
    ClusterRequest, ClusterResponse, ShardPhase, ShardQuery, ShardUpdate, ShardUpdateAck,
    WireCandidate,
};

fn spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/WIRE_PROTOCOL.md");
    std::fs::read_to_string(path).expect("docs/WIRE_PROTOCOL.md exists")
}

/// Extract `name -> bytes` from the doc's ```hex blocks (first line a
/// `# name` comment, remaining lines hex bytes).
fn golden_frames(md: &str) -> BTreeMap<String, Vec<u8>> {
    let mut frames = BTreeMap::new();
    let lines: Vec<&str> = md.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() != "```hex" {
            i += 1;
            continue;
        }
        i += 1;
        let name = lines[i]
            .trim()
            .strip_prefix("# ")
            .unwrap_or_else(|| panic!("hex block at line {} lacks a `# name` header", i))
            .to_string();
        let mut bytes = Vec::new();
        i += 1;
        while i < lines.len() && lines[i].trim() != "```" {
            for tok in lines[i].split_whitespace() {
                bytes.push(
                    u8::from_str_radix(tok, 16)
                        .unwrap_or_else(|_| panic!("{name}: bad hex byte {tok:?}")),
                );
            }
            i += 1;
        }
        assert!(
            frames.insert(name.clone(), bytes).is_none(),
            "duplicate golden frame {name}"
        );
        i += 1;
    }
    frames
}

/// The typed value each documented client-plane frame encodes. Requests
/// are Ok(..), responses Err(..) — just to carry both through one table.
fn documented_values() -> Vec<(&'static str, Result<Request, Response>)> {
    vec![
        ("query-big-k3", Ok(Request::Query(QuerySpec::new(3)))),
        (
            "query-text-select",
            Ok(Request::QueryText("SELECT TOP 2 DOMINATING".into())),
        ),
        ("stats", Ok(Request::Stats)),
        ("unsubscribe-7", Ok(Request::Unsubscribe(7))),
        (
            "update-insert",
            Ok(Request::UpdateOps(vec![UpdateOp::Insert(vec![
                Some(1.0),
                None,
            ])])),
        ),
        (
            "subscribe-spec",
            Ok(Request::Subscribe(StandingSpec {
                k: 2,
                algorithm: Algorithm::Big,
                subspace: None,
                constraint: vec![],
            })),
        ),
        (
            "query-result",
            Err(Response::QueryResult(vec![
                WireEntry { id: 1, score: 16 },
                WireEntry { id: 11, score: 16 },
            ])),
        ),
        (
            "explain-result",
            Err(Response::ExplainResult("algorithm: Big".into())),
        ),
        (
            "error-rejected",
            Err(Response::Error(ErrorFrame {
                code: 4,
                datum: 0,
                message: "parse error".into(),
            })),
        ),
        (
            "subscribe-ack",
            Err(Response::SubscribeAck(SubscribeAck {
                id: 1,
                result: vec![WireEntry { id: 1, score: 16 }],
            })),
        ),
        (
            "notify",
            Err(Response::Notify(WireNotification {
                id: 1,
                batch_seq: 1,
                added: vec![WireEntry { id: 20, score: 19 }],
                removed: vec![9],
                rescored: vec![],
                kth_score: Some(16),
                via_fallback: false,
            })),
        ),
    ]
}

/// The typed value each documented cluster-plane frame encodes, same
/// Ok-request / Err-response convention as [`documented_values`].
fn documented_cluster_values() -> Vec<(&'static str, Result<ClusterRequest, ClusterResponse>)> {
    vec![
        (
            "shard-query-bounds",
            Ok(ClusterRequest::ShardQuery(ShardQuery {
                shard: 0,
                algorithm: Algorithm::Big,
                phase: ShardPhase::Bounds,
                tau: None,
                candidates: vec![WireCandidate {
                    values: vec![Some(1.0), None],
                    member: Some(2),
                }],
            })),
        ),
        ("tau-update", Ok(ClusterRequest::TauUpdate { tau: 16 })),
        ("handoff", Ok(ClusterRequest::Handoff { shard: 1 })),
        (
            "assign",
            Ok(ClusterRequest::Assign {
                shard: 1,
                path: "shard-1.seq2.tkd".into(),
                replay: vec![],
            }),
        ),
        (
            "shard-update",
            Ok(ClusterRequest::ShardUpdate(ShardUpdate {
                shard: 1,
                seq: 3,
                ops: vec![UpdateOp::Delete(7)],
            })),
        ),
        (
            "shard-outcomes",
            Err(ClusterResponse::ShardOutcomes(vec![17, 4])),
        ),
        (
            "handoff-ack",
            Err(ClusterResponse::HandoffAck {
                path: "shard-1.seq2.tkd".into(),
                seq: 2,
            }),
        ),
        (
            "assign-ack",
            Err(ClusterResponse::AssignAck { shard: 1, live: 9 }),
        ),
        (
            "shard-update-ack",
            Err(ClusterResponse::ShardUpdateAck(ShardUpdateAck {
                seq: 3,
                live: 8,
                path: "shard-1.seq3.tkd".into(),
                inserted: vec![],
            })),
        ),
        ("tau-ack", Err(ClusterResponse::TauAck { tau: 16 })),
    ]
}

#[test]
fn every_documented_frame_matches_the_codec() {
    let frames = golden_frames(&spec_text());
    let values = documented_values();
    let cluster_values = documented_cluster_values();
    // Same name set on both sides — a frame documented but untyped (or
    // vice versa) is a drift bug. The doc's set is the union of both
    // planes' tables.
    let doc_names: Vec<&str> = frames.keys().map(String::as_str).collect();
    let mut table_names: Vec<&str> = values
        .iter()
        .map(|(n, _)| *n)
        .chain(cluster_values.iter().map(|(n, _)| *n))
        .collect();
    table_names.sort_unstable();
    assert_eq!(doc_names, table_names, "golden-frame name sets differ");
    for (name, value) in &values {
        let doc_bytes = &frames[*name];
        match value {
            Ok(req) => {
                let encoded = encode_request(req).expect("encodable");
                assert_eq!(&encoded, doc_bytes, "{name}: encoding differs from the doc");
                assert_eq!(
                    &decode_request(doc_bytes).expect("decodable"),
                    req,
                    "{name}"
                );
            }
            Err(resp) => {
                let encoded = encode_response(resp).expect("encodable");
                assert_eq!(&encoded, doc_bytes, "{name}: encoding differs from the doc");
                assert_eq!(
                    &decode_response(doc_bytes).expect("decodable"),
                    resp,
                    "{name}"
                );
            }
        }
    }
    for (name, value) in &cluster_values {
        let doc_bytes = &frames[*name];
        match value {
            Ok(req) => {
                let encoded = encode_cluster_request(req).expect("encodable");
                assert_eq!(&encoded, doc_bytes, "{name}: encoding differs from the doc");
                assert_eq!(
                    &decode_cluster_request(doc_bytes).expect("decodable"),
                    req,
                    "{name}"
                );
            }
            Err(resp) => {
                let encoded = encode_cluster_response(resp).expect("encodable");
                assert_eq!(&encoded, doc_bytes, "{name}: encoding differs from the doc");
                assert_eq!(
                    &decode_cluster_response(doc_bytes).expect("decodable"),
                    resp,
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn documented_header_constants_hold() {
    let spec = spec_text();
    // The doc's version table and header layout must match the build.
    assert_eq!(PROTOCOL_VERSION, 5);
    assert!(spec.contains("version 5"), "doc title names the version");
    for frame in golden_frames(&spec).values() {
        assert_eq!(&frame[..4], b"TKDW");
        assert_eq!(
            u32::from_le_bytes(frame[4..8].try_into().unwrap()),
            PROTOCOL_VERSION
        );
    }
}

#[test]
fn documented_kind_numbers_match_the_frames() {
    // The kind table in the doc claims fixed numbers; the golden frames
    // carry the kind at byte 16. Spot-check the v4/v5 additions and the
    // disjoint request/response ranges on both planes.
    let frames = golden_frames(&spec_text());
    assert_eq!(frames["query-text-select"][16], 8);
    assert_eq!(frames["explain-result"][16], 137);
    assert_eq!(frames["shard-query-bounds"][16], 16);
    assert_eq!(frames["tau-ack"][16], 148);
    let values = documented_values();
    let cluster_values = documented_cluster_values();
    for (name, frame) in &frames {
        let kind = frame[16];
        if let Some((_, v)) = values.iter().find(|(n, _)| n == name) {
            let range = if v.is_err() { 128..=137 } else { 1..=8 };
            assert!(range.contains(&kind), "{name}: client-plane kind {kind}");
        } else {
            let v = &cluster_values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name}: in neither documented table"))
                .1;
            let range = if v.is_err() { 144..=148 } else { 16..=20 };
            assert!(range.contains(&kind), "{name}: cluster-plane kind {kind}");
        }
    }
}
