//! Byte-stability pin for the build path: a freshly built engine must
//! encode to exactly the bytes of the committed golden snapshot, so the
//! bulk-loaded index's value tables and slots, the bin boundaries and the
//! dynamic bookkeeping export the streams the build that wrote the file
//! exported, value for value and in the same order. (`persist_golden.rs` pins the *codec* by
//! re-serializing the loaded file; this pins the *builder* behind it.)

use tkdi::model::fixtures;
use tkdi::prelude::*;
use tkdi::store;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig3.tkdsnap");

#[test]
fn fresh_build_encodes_to_the_golden_bytes() {
    let golden = std::fs::read(GOLDEN).expect("golden file present");
    let engine = DynamicEngine::new(fixtures::fig3_sample());
    assert_eq!(store::encode_engine(&engine), golden);
}
