//! Golden-file compatibility pin for the snapshot format.
//!
//! `tests/golden/fig3.tkdsnap` is a committed snapshot, in the current
//! format version ([`FORMAT_VERSION`]), of the paper's Fig. 3 running
//! example. This suite documents the format's
//! compatibility policy:
//!
//! * **Stability** — today's writer re-serializes the loaded golden file
//!   byte-identically. Any codec change that alters the byte layout
//!   fails here and must come with a format-version bump (and a fresh
//!   golden file).
//! * **Semantics** — loading the golden file reproduces the paper's T2D
//!   answer `{A2, C2}` at score 16.
//! * **Version gate** — a snapshot stamped with any other format version
//!   fails with [`StoreError::VersionMismatch`], never a partial load:
//!   no version has a migration path; snapshots are caches, rebuilt with
//!   `tkdq build`. `tests/golden/fig3.v5.tkdsnap` and
//!   `tests/golden/fig3.v6.tkdsnap`, the same example as the last
//!   version-5 and version-6 writers saved it, are refused so.
//!
//! To regenerate after an intentional format change:
//! `cargo test --test persist_golden regenerate_golden -- --ignored`

use tkdi::model::fixtures;
use tkdi::prelude::*;
use tkdi::store::{self, StoreError, FORMAT_VERSION};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig3.tkdsnap");
const GOLDEN_V5: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig3.v5.tkdsnap");
const GOLDEN_V6: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig3.v6.tkdsnap");

#[test]
fn golden_loads_and_reproduces_fig3_answer() {
    let mut engine = store::load_engine(GOLDEN).expect("golden snapshot loads");
    assert_eq!(engine.len(), 20);
    let r = engine.query(&EngineQuery::new(2)).expect("BIG supported");
    let mut labels: Vec<String> = r
        .iter()
        .map(|e| engine.label(e.id).unwrap().unwrap().to_string())
        .collect();
    labels.sort();
    assert_eq!(labels, ["A2", "C2"]);
    assert_eq!(r.kth_score(), Some(16));
    // IBIG agrees bit for bit.
    let i = engine
        .query(&EngineQuery::new(2).algorithm(Algorithm::Ibig))
        .expect("IBIG supported");
    assert_eq!(i.entries(), r.entries());
}

#[test]
fn golden_reserializes_byte_identically() {
    let bytes = std::fs::read(GOLDEN).expect("golden file present");
    let engine = store::decode_engine(&bytes).expect("golden snapshot loads");
    assert_eq!(
        store::encode_engine(&engine),
        bytes,
        "byte layout changed: bump FORMAT_VERSION and regenerate the golden file \
         (see the module docs)"
    );
}

#[test]
fn version_bump_fails_with_clean_mismatch() {
    let mut bytes = std::fs::read(GOLDEN).expect("golden file present");
    let bumped = FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&bumped.to_le_bytes());
    match store::decode_engine(&bytes) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!(found, bumped);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // The message tells the operator what to do.
    let msg = store::decode_engine(&bytes).unwrap_err().to_string();
    assert!(msg.contains("tkdq build"), "unhelpful message: {msg}");
}

#[test]
fn a_v5_snapshot_is_refused_with_version_mismatch() {
    let bytes = std::fs::read(GOLDEN_V5).expect("v5 golden file present");
    match store::decode_engine(&bytes) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!((found, expected), (5, FORMAT_VERSION));
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn a_v6_snapshot_is_refused_with_version_mismatch() {
    let bytes = std::fs::read(GOLDEN_V6).expect("v6 golden file present");
    match store::decode_engine(&bytes) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!((found, expected), (6, FORMAT_VERSION));
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// Not a test: regenerates the golden file after an intentional format
/// change. Run with `-- --ignored` and commit the result.
#[test]
#[ignore = "writes tests/golden/fig3.tkdsnap; run only on intentional format changes"]
fn regenerate_golden() {
    let engine = DynamicEngine::new(fixtures::fig3_sample());
    let written = store::save_engine(GOLDEN, &engine).expect("write golden");
    println!("regenerated {GOLDEN} ({written} bytes)");
}
