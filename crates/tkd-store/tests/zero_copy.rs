//! Borrowed-vs-copied load parity: the zero-copy decode
//! ([`decode_engine_shared`]) must be **bit-identical** — entries,
//! scores, tie order, and re-encoded bytes — to the copying decode
//! ([`decode_engine`]) and to the freshly built engine it snapshots,
//! and a borrowed engine must *stay* correct through the copy-on-write
//! promotion a mutation triggers (load → mutate → compact), ending
//! fully owned.

use proptest::prelude::*;
use tkd_core::dynamic::{CompactionPolicy, DynamicOptions};
use tkd_core::{Algorithm, BinChoice, DynamicEngine, EngineQuery};
use tkd_data::synthetic::{generate, Distribution, SyntheticConfig};
use tkd_model::{Dataset, ObjectId};
use tkd_store::{decode_engine, decode_engine_shared, encode_engine, SnapshotBuf};

fn entries(engine: &mut DynamicEngine, k: usize, alg: Algorithm) -> Vec<(ObjectId, usize)> {
    engine
        .query(&EngineQuery::new(k).algorithm(alg))
        .expect("BIG/IBIG supported")
        .iter()
        .map(|e| (e.id, e.score))
        .collect()
}

fn synthetic(n: usize, dims: usize, missing: f64, seed: u64) -> Dataset {
    generate(&SyntheticConfig {
        n,
        dims,
        cardinality: 25,
        missing_rate: missing,
        distribution: Distribution::Independent,
        seed,
    })
}

/// Pin a borrowed-load engine to the copied-load engine and the fresh
/// engine across an edge-heavy k grid and both algorithms.
fn assert_three_way_parity(fresh: &mut DynamicEngine, tag: &str) {
    let bytes = encode_engine(fresh);
    let mut copied = decode_engine(&bytes).expect("copied load");
    let buf = SnapshotBuf::from_bytes(bytes.clone());
    let mut borrowed = decode_engine_shared(&buf).expect("borrowed load");

    // The borrowed engine really is serving borrowed storage, fully.
    let report = borrowed.storage_report();
    assert!(report.is_borrowed(), "{tag}: load did not borrow");
    assert_eq!(
        report.borrowed_columns, report.total_columns,
        "{tag}: some columns were copied on the zero-copy path"
    );
    assert!(report.dataset_borrowed, "{tag}: dataset slabs were copied");
    // The copied engine owns everything.
    assert!(
        !copied.storage_report().is_borrowed(),
        "{tag}: copied load borrowed"
    );

    let n = fresh.len();
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        for k in [0usize, 1, 2, n.saturating_sub(1), n, n + 3] {
            let want = entries(fresh, k, alg);
            assert_eq!(
                entries(&mut copied, k, alg),
                want,
                "{tag}: copied {alg:?} k={k}"
            );
            assert_eq!(
                entries(&mut borrowed, k, alg),
                want,
                "{tag}: borrowed {alg:?} k={k}"
            );
        }
    }
    // Queries promote nothing: the borrowed engine is still borrowed…
    assert!(
        borrowed.storage_report().is_borrowed(),
        "{tag}: queries promoted storage"
    );
    // …and re-encodes to the identical canonical bytes.
    assert_eq!(encode_engine(&borrowed), bytes, "{tag}: re-encode");
}

#[test]
fn borrowed_load_matches_copied_load_and_fresh_build() {
    for (n, dims, missing, seed) in [
        (60usize, 3usize, 0.1, 11u64),
        (120, 4, 0.3, 12),
        (200, 5, 0.6, 13),
    ] {
        let mut fresh = DynamicEngine::new(synthetic(n, dims, missing, seed));
        assert_three_way_parity(&mut fresh, &format!("n={n} d={dims} miss={missing}"));
    }
}

#[test]
fn mutation_promotes_and_stays_bit_identical_through_compaction() {
    let fresh = DynamicEngine::with_options(
        synthetic(80, 3, 0.3, 21),
        DynamicOptions {
            bins: BinChoice::Fixed(4),
            policy: CompactionPolicy::never(),
        },
    );
    let bytes = encode_engine(&fresh);
    let mut copied = decode_engine(&bytes).expect("copied load");
    let buf = SnapshotBuf::from_bytes(bytes);
    let mut borrowed = decode_engine_shared(&buf).expect("borrowed load");
    assert!(borrowed.storage_report().is_borrowed());

    // The same op batch on both engines: inserts, deletes, cell updates —
    // each forcing copy-on-write promotion of the storage it touches.
    let ops: Vec<(&str, usize)> = vec![
        ("insert", 0),
        ("delete", 7),
        ("update", 3),
        ("insert", 0),
        ("delete", 41),
        ("update", 19),
    ];
    for engine in [&mut copied, &mut borrowed] {
        for (op, arg) in &ops {
            match *op {
                "insert" => {
                    engine
                        .insert(&[Some(3.0), None, Some(1.0)])
                        .expect("valid row");
                }
                "delete" => engine.delete(*arg as ObjectId).expect("live id"),
                "update" => engine
                    .update_value(*arg as ObjectId, 1, Some(9.0))
                    .expect("valid update"),
                _ => unreachable!(),
            }
        }
    }
    // Promotion happened and left the two engines bit-identical.
    let mid = borrowed.storage_report();
    assert!(
        mid.borrowed_columns < mid.total_columns || !mid.dataset_borrowed,
        "mutations promoted nothing"
    );
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        for k in [1usize, 5, 40, 100] {
            assert_eq!(
                entries(&mut borrowed, k, alg),
                entries(&mut copied, k, alg),
                "post-mutate {alg:?} k={k}"
            );
        }
    }
    // Compaction rebuilds every artifact: nothing borrows the buffer
    // any more (the snapshot can be dropped), parity still holds.
    borrowed.compact_now();
    copied.compact_now();
    let after = borrowed.storage_report();
    assert!(
        !after.is_borrowed(),
        "compaction left borrowed storage: {after:?}"
    );
    assert_eq!(after.borrowed_columns, 0);
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        for k in [1usize, 5, 40, 100] {
            assert_eq!(
                entries(&mut borrowed, k, alg),
                entries(&mut copied, k, alg),
                "post-compact {alg:?} k={k}"
            );
        }
    }
    assert_eq!(
        encode_engine(&borrowed),
        encode_engine(&copied),
        "post-compact snapshots diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form: arbitrary small datasets round-trip through the
    /// borrow path with full entry/score/tie-order parity against the
    /// copying path, and identical canonical re-encodings.
    #[test]
    fn arbitrary_datasets_borrowed_copied_parity(
        rows in proptest::collection::vec(
            proptest::collection::vec(
                proptest::option::weighted(0.65, (0u8..6).prop_map(f64::from)),
                3,
            )
            .prop_filter("at least one observed", |r| r.iter().any(Option::is_some)),
            1..30,
        ),
        bins in 1usize..6,
        k in 0usize..12,
    ) {
        let ds = Dataset::from_rows(3, &rows).expect("valid rows");
        let mut fresh = DynamicEngine::with_options(
            ds,
            DynamicOptions {
                bins: BinChoice::Fixed(bins),
                policy: CompactionPolicy::default(),
            },
        );
        let bytes = encode_engine(&fresh);
        let mut copied = decode_engine(&bytes).expect("copied load");
        let buf = SnapshotBuf::from_bytes(bytes.clone());
        let mut borrowed = decode_engine_shared(&buf).expect("borrowed load");
        prop_assert!(borrowed.storage_report().is_borrowed());
        prop_assert_eq!(encode_engine(&borrowed), bytes);
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            prop_assert_eq!(
                entries(&mut borrowed, k, alg),
                entries(&mut copied, k, alg),
                "{:?}", alg
            );
            prop_assert_eq!(
                entries(&mut borrowed, k, alg),
                entries(&mut fresh, k, alg),
                "fresh {:?}", alg
            );
        }
    }
}
