//! Property tests for the wire protocol: every frame type round-trips
//! to identical bytes, and seeded single-byte corruption of any frame
//! always decodes to a typed error — never a panic, never a silently
//! different value.
//!
//! The second property is the load-bearing one: the frame checksum
//! covers `kind ‖ len ‖ body`, the magic and version fields are checked
//! by equality, and the checksum field itself is self-verifying, so
//! there is no byte in a frame whose corruption can go unnoticed.

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use tkd_core::{Algorithm, StandingSpec, UpdateOp};
use tkd_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, QuerySpec,
};
use tkd_serve::{
    ErrorFrame, Request, Response, ServerStats, SubscribeAck, UpdateAck, WireEntry,
    WireNotification,
};

fn spec_strategy() -> impl Strategy<Value = QuerySpec> {
    (0u64..64, 0u8..2).prop_map(|(k, a)| QuerySpec {
        k,
        algorithm: if a == 0 {
            Algorithm::Big
        } else {
            Algorithm::Ibig
        },
    })
}

fn cell_strategy() -> impl Strategy<Value = Option<f64>> {
    option::weighted(0.7, (0u32..12).prop_map(|v| f64::from(v) / 2.0 - 1.0))
}

fn label_strategy() -> impl Strategy<Value = String> {
    vec(0u8..26, 0..8).prop_map(|bs| bs.iter().map(|b| char::from(b'a' + b)).collect())
}

fn op_strategy() -> impl Strategy<Value = UpdateOp> {
    prop_oneof![
        vec(cell_strategy(), 1..5).prop_map(UpdateOp::Insert),
        (label_strategy(), vec(cell_strategy(), 1..5))
            .prop_map(|(l, r)| UpdateOp::InsertLabeled(l, r)),
        (0u32..1000).prop_map(UpdateOp::Delete),
        (0u32..1000, 0u8..5, cell_strategy()).prop_map(|(id, d, c)| UpdateOp::Set(
            id,
            usize::from(d),
            c
        )),
    ]
}

fn standing_spec_strategy() -> impl Strategy<Value = StandingSpec> {
    (
        0usize..8,
        0u8..2,
        option::of(vec(0usize..6, 0..4)),
        vec((0usize..6, 0u32..8, 0u32..8), 0..3),
    )
        .prop_map(|(k, a, subspace, ranges)| StandingSpec {
            k,
            algorithm: if a == 0 {
                Algorithm::Big
            } else {
                Algorithm::Ibig
            },
            subspace,
            constraint: ranges
                .into_iter()
                .map(|(d, lo, hi)| (d, f64::from(lo) - 4.0, f64::from(hi)))
                .collect(),
        })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        spec_strategy().prop_map(Request::Query),
        vec(spec_strategy(), 0..6).prop_map(Request::QueryBatch),
        vec(op_strategy(), 0..6).prop_map(Request::UpdateOps),
        Just(Request::Stats),
        Just(Request::Shutdown),
        standing_spec_strategy().prop_map(Request::Subscribe),
        (0u64..1000).prop_map(Request::Unsubscribe),
    ]
}

fn entries_strategy() -> impl Strategy<Value = Vec<WireEntry>> {
    vec(
        (0u64..1000, 0u64..1000).prop_map(|(id, score)| WireEntry { id, score }),
        0..8,
    )
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        entries_strategy().prop_map(Response::QueryResult),
        vec(entries_strategy(), 0..4).prop_map(Response::BatchResult),
        (0u64..20, 1u64..500, 0u64..5, vec(0u64..1000, 0..6)).prop_map(
            |(applied, seq, epoch, inserted_ids)| Response::UpdateAck(UpdateAck {
                applied,
                seq,
                epoch,
                live: applied + seq,
                tombstones: epoch,
                inserted_ids,
            })
        ),
        (0u64..100, 0u64..100, 0u64..100).prop_map(|(live, seq, served)| {
            Response::StatsResult(ServerStats {
                live,
                seq,
                served_queries: served,
                ..Default::default()
            })
        }),
        Just(Response::ShutdownAck),
        (1u8..6, 0u64..1000, label_strategy()).prop_map(|(code, datum, message)| {
            Response::Error(ErrorFrame {
                code,
                datum,
                message,
            })
        }),
        (0u64..1000, entries_strategy())
            .prop_map(|(id, result)| Response::SubscribeAck(SubscribeAck { id, result })),
        any::<bool>().prop_map(Response::UnsubscribeAck),
        (
            0u64..1000,
            1u64..500,
            entries_strategy(),
            vec(0u64..1000, 0..6),
            entries_strategy(),
            option::of(0u64..1000),
            any::<bool>(),
        )
            .prop_map(
                |(id, batch_seq, added, removed, rescored, kth_score, via_fallback)| {
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
            ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `encode(decode(b)) == b` for every request frame type.
    #[test]
    fn request_frames_roundtrip(req in request_strategy()) {
        let bytes = encode_request(&req).expect("bounded strategy encodes");
        let back = decode_request(&bytes).expect("own frame decodes");
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(encode_request(&back).expect("bounded strategy encodes"), bytes);
    }

    /// `encode(decode(b)) == b` for every response frame type.
    #[test]
    fn response_frames_roundtrip(resp in response_strategy()) {
        let bytes = encode_response(&resp).expect("bounded strategy encodes");
        let back = decode_response(&bytes).expect("own frame decodes");
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(encode_response(&back).expect("bounded strategy encodes"), bytes);
    }

    /// Flipping any single bit of any request frame yields a typed
    /// decode error — corruption can never pass for a different valid
    /// frame or escape as a panic.
    #[test]
    fn request_byte_flips_are_typed_errors(
        req in request_strategy(),
        pos_seed in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_request(&req).expect("bounded strategy encodes");
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_request(&bytes).is_err(),
            "flip at byte {} bit {} must not decode", pos, bit
        );
    }

    /// The same corruption guarantee for response frames (the client's
    /// decode path).
    #[test]
    fn response_byte_flips_are_typed_errors(
        resp in response_strategy(),
        pos_seed in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_response(&resp).expect("bounded strategy encodes");
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_response(&bytes).is_err(),
            "flip at byte {} bit {} must not decode", pos, bit
        );
    }

    /// Truncating a frame at any boundary yields a typed error.
    #[test]
    fn request_truncations_are_typed_errors(
        req in request_strategy(),
        cut_seed in 0u64..u64::MAX,
    ) {
        let bytes = encode_request(&req).expect("bounded strategy encodes");
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(decode_request(&bytes[..cut]).is_err(), "cut at {}", cut);
    }
}
