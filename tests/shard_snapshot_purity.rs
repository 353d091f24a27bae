//! A shard's snapshot bytes are a pure function of its op history — not
//! of which candidates it was asked to score. Cluster workers score on
//! the engine they snapshot, and replay repair compares those snapshots
//! with engines that were never queried; a candidate whose mask no local
//! row carries is scored too, and nothing of it may reach the persisted
//! state. The byte form of what
//! `crates/tkd-core/tests/shard_scoring.rs` pins on the parts.

use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{BinChoice, DynamicEngine, UpdateOp};
use tkdi::store::{decode_engine, encode_engine};

#[test]
fn scoring_leaves_the_snapshot_bytes_alone() {
    let options = DynamicOptions {
        bins: BinChoice::Auto,
        policy: CompactionPolicy::never(),
    };
    let mut engine = DynamicEngine::with_options(tkdi::model::fixtures::fig3_sample(), options);
    let ops = [
        UpdateOp::Insert(vec![Some(2.0), None, Some(7.0), None]),
        UpdateOp::Delete(4),
        UpdateOp::Set(9, 1, None),
        UpdateOp::Set(11, 0, Some(42.0)),
    ];
    assert_eq!(engine.apply_ops(&ops).error, None, "valid ops");
    let observed = |id, d| engine.value(id, d).unwrap().is_some();
    let mask_of = |id| (0..4).map(|d| u64::from(observed(id, d)) << d).sum::<u64>();
    let live: Vec<u64> = engine.live_ids().into_iter().map(mask_of).collect();
    let foreign = (1..16u64).find(|mask| !live.contains(mask));
    let foreign = foreign.expect("fig. 3 does not carry all 15 masks");
    let candidates: [(Vec<Option<f64>>, Option<u32>); 3] = [
        (
            (0..4).map(|d| engine.value(0, d).unwrap()).collect(),
            Some(0),
        ),
        (
            (0..4)
                .map(|d| (foreign >> d & 1 == 1).then_some(3.0))
                .collect(),
            None,
        ),
        (vec![Some(99.0); 4], None),
    ];
    let score = |engine: &mut DynamicEngine| -> Vec<usize> {
        let mut answers = Vec::new();
        for (values, member) in &candidates {
            answers.push(engine.big_bound(values));
            answers.push(engine.ibig_q_count(values));
            answers.push(engine.big_partial(values, *member).expect("live member"));
            answers.push(engine.ibig_partial(values, *member).expect("live member"));
        }
        answers
    };

    let before = encode_engine(&engine);
    let answers = score(&mut engine);
    assert_eq!(encode_engine(&engine), before);
    // An engine loaded from those bytes — how a worker comes by every
    // shard it hosts — gives the same answers and stays as pure.
    let mut loaded = decode_engine(&before).expect("own snapshot decodes");
    assert_eq!(score(&mut loaded), answers);
    assert_eq!(encode_engine(&loaded), before);
}
