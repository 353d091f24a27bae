//! Property tests for the cluster plane, and for the two client-plane
//! frames `frame_roundtrip.rs` does not generate (`query_text`,
//! `explain_result`). For every generated value, three things hold:
//!
//! 1. the round trip is the identity and re-encodes to the same bytes;
//! 2. **every** single-bit flip of the frame decodes to a typed error;
//! 3. **every** truncation of the frame decodes to a typed error.
//!
//! (2) and (3) are exhaustive over the frame, not sampled: the frames
//! are small, and the codec is the one place a missed byte would let
//! corruption pass for a different valid value.

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use std::fmt::Debug;
use tkd_core::{Algorithm, UpdateOp};
use tkd_serve::cluster_wire::{
    decode_cluster_request, decode_cluster_response, encode_cluster_request,
    encode_cluster_response,
};
use tkd_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use tkd_serve::{
    ClusterRequest, ClusterResponse, ErrorFrame, ReplayBatch, Request, Response, ServeError,
    ShardPhase, ShardQuery, ShardUpdate, ShardUpdateAck, WireCandidate,
};

/// ASCII next to multi-byte UTF-8 (2, 3 and 4 bytes per char).
const CHARS: [char; 8] = ['a', 'Z', ' ', '/', 'é', 'π', '中', '🦀'];

fn text() -> impl Strategy<Value = String> {
    vec(0usize..CHARS.len(), 0..6).prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn cell() -> impl Strategy<Value = Option<f64>> {
    option::weighted(0.7, (0u32..12).prop_map(|v| f64::from(v) / 2.0 - 1.0))
}

fn op() -> impl Strategy<Value = UpdateOp> {
    prop_oneof![
        vec(cell(), 1..4).prop_map(UpdateOp::Insert),
        (text(), vec(cell(), 1..4)).prop_map(|(l, r)| UpdateOp::InsertLabeled(l, r)),
        (0u32..1000).prop_map(UpdateOp::Delete),
        (0u32..1000, 0usize..5, cell()).prop_map(|(id, d, c)| UpdateOp::Set(id, d, c)),
    ]
}

fn algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![Just(Algorithm::Big), Just(Algorithm::Ibig)]
}

fn cluster_request() -> impl Strategy<Value = ClusterRequest> {
    let candidate = (vec(cell(), 0..4), option::of(0u64..100))
        .prop_map(|(values, member)| WireCandidate { values, member });
    let phase = prop_oneof![Just(ShardPhase::Bounds), Just(ShardPhase::Partials)];
    prop_oneof![
        (
            0u64..8,
            algorithm(),
            phase,
            option::of(0u64..64),
            vec(candidate, 0..4)
        )
            .prop_map(|(shard, algorithm, phase, tau, candidates)| {
                ClusterRequest::ShardQuery(ShardQuery {
                    shard,
                    algorithm,
                    phase,
                    tau,
                    candidates,
                })
            }),
        any::<u64>().prop_map(|tau| ClusterRequest::TauUpdate { tau }),
        (0u64..8).prop_map(|shard| ClusterRequest::Handoff { shard }),
        (
            0u64..8,
            text(),
            vec(
                (0u64..50, vec(op(), 0..3)).prop_map(|(seq, ops)| ReplayBatch { seq, ops }),
                0..3
            )
        )
            .prop_map(|(shard, path, replay)| ClusterRequest::Assign {
                shard,
                path,
                replay,
            }),
        (0u64..8, 0u64..50, vec(op(), 0..4)).prop_map(|(shard, seq, ops)| {
            ClusterRequest::ShardUpdate(ShardUpdate { shard, seq, ops })
        }),
    ]
}

fn cluster_response() -> impl Strategy<Value = ClusterResponse> {
    prop_oneof![
        vec(any::<u64>(), 0..6).prop_map(ClusterResponse::ShardOutcomes),
        (text(), 0u64..50).prop_map(|(path, seq)| ClusterResponse::HandoffAck { path, seq }),
        (0u64..8, 0u64..1000).prop_map(|(shard, live)| ClusterResponse::AssignAck { shard, live }),
        (0u64..50, 0u64..1000, text(), vec(0u64..1000, 0..4)).prop_map(
            |(seq, live, path, inserted)| ClusterResponse::ShardUpdateAck(ShardUpdateAck {
                seq,
                live,
                path,
                inserted,
            })
        ),
        any::<u64>().prop_map(|tau| ClusterResponse::TauAck { tau }),
        (1u8..6, any::<u64>(), text()).prop_map(|(code, datum, message)| {
            ClusterResponse::Error(ErrorFrame {
                code,
                datum,
                message,
            })
        }),
    ]
}

/// The three properties for one value: canonical round trip, every bit
/// flip rejected, every truncation rejected.
fn check<T: PartialEq + Debug>(
    value: &T,
    encode: fn(&T) -> Result<Vec<u8>, ServeError>,
    decode: fn(&[u8]) -> Result<T, ServeError>,
) {
    let bytes = encode(value).expect("bounded strategy encodes");
    let back = decode(&bytes).expect("own frame decodes");
    assert_eq!(&back, value);
    assert_eq!(encode(&back).expect("re-encodes"), bytes, "canonical bytes");
    let mut flipped = bytes.clone();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            flipped[pos] ^= 1 << bit;
            assert!(
                decode(&flipped).is_err(),
                "{value:?}: flip at byte {pos} bit {bit} decoded"
            );
            flipped[pos] ^= 1 << bit;
        }
    }
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "{value:?}: cut at {cut} decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cluster_requests_roundtrip_and_reject_every_flip_and_cut(req in cluster_request()) {
        check(&req, encode_cluster_request, decode_cluster_request);
    }

    #[test]
    fn cluster_responses_roundtrip_and_reject_every_flip_and_cut(resp in cluster_response()) {
        check(&resp, encode_cluster_response, decode_cluster_response);
    }

    #[test]
    fn text_frames_roundtrip_and_reject_every_flip_and_cut(s in text()) {
        check(&Request::QueryText(s.clone()), encode_request, decode_request);
        check(&Response::ExplainResult(s), encode_response, decode_response);
    }
}
