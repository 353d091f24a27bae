//! Derived ≡ maintained, artifact by artifact: a snapshot stores rows —
//! value tables, value slots, the live mask — and a load derives the
//! exact index and the live rows' count per observation mask from them.
//! After any op history, `decode_engine(encode_engine(e))` must hold
//! every exact column, value slot, value table, live bit and mask count
//! that `e` maintains, give the same answers, and re-encode to the same
//! bytes. Answer parity alone (the
//! `persist_parity` suite) cannot see a wrong bit at a dead slot or in a
//! column no query reads; this suite compares the artifacts themselves.

use proptest::prelude::*;
use tkd_core::dynamic::{CompactionPolicy, DynamicOptions};
use tkd_core::{Algorithm, BinChoice, DynamicEngine, EngineQuery, UpdateOp};
use tkd_index::BitmapIndex;
use tkd_model::{Dataset, ObjectId};
use tkd_store::{decode_engine, encode_engine};

const DIMS: usize = 3;

/// Splitmix-style deterministic stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A cell: missing a third of the time, else one of a few values —
    /// signed zeros among them — or, rarely, a value never seen before.
    fn cell(&mut self) -> Option<f64> {
        match self.below(12) {
            0..=3 => None,
            4 => Some(-0.0),
            5 => Some(0.0),
            6 => Some(1000.0 + self.below(1000) as f64),
            v => Some(v as f64),
        }
    }

    fn row(&mut self) -> Vec<Option<f64>> {
        loop {
            let row: Vec<Option<f64>> = (0..DIMS).map(|_| self.cell()).collect();
            if row.iter().any(Option::is_some) {
                return row;
            }
        }
    }
}

fn entries(engine: &mut DynamicEngine, k: usize, alg: Algorithm) -> Vec<(ObjectId, usize)> {
    engine
        .query(&EngineQuery::new(k).algorithm(alg))
        .expect("BIG/IBIG supported")
        .iter()
        .map(|e| (e.id, e.score))
        .collect()
}

/// `a` and `b` agree on every value table (bit for bit), value slot,
/// exact column and live bit.
fn assert_same_index(a: &BitmapIndex, b: &BitmapIndex, ctx: &str) {
    assert_eq!((a.n(), a.dims()), (b.n(), b.dims()), "{ctx}: shape");
    assert_eq!(a.live_mask(), b.live_mask(), "{ctx}: live mask");
    for d in 0..a.dims() {
        let bits =
            |idx: &BitmapIndex| -> Vec<u64> { idx.values(d).iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(a), bits(b), "{ctx}: value table of dim {d}");
        assert_eq!(a.num_columns(d), b.num_columns(d), "{ctx}: dim {d}");
        for c in 0..a.num_columns(d) {
            assert_eq!(a.column(d, c), b.column(d, c), "{ctx}: dim {d} column {c}");
        }
        for o in 0..a.n() {
            assert_eq!(
                a.value_slot(o, d),
                b.value_slot(o, d),
                "{ctx}: slot of row {o} dim {d}"
            );
        }
    }
}

/// The observed dimensions of row `s` of `index`, as mask bits.
fn mask_bits(index: &BitmapIndex, s: usize) -> u64 {
    (0..index.dims()).fold(0, |m, d| m | u64::from(index.value_slot(s, d) != 0) << d)
}

/// The load of `engine`'s snapshot equals `engine`, artifact by artifact,
/// answer by answer and byte by byte.
fn assert_derived_equals_maintained(engine: &mut DynamicEngine, ctx: &str) {
    let bytes = encode_engine(engine);
    let mut loaded = decode_engine(&bytes).unwrap_or_else(|e| panic!("{ctx}: load: {e}"));
    {
        let (kept, derived) = (engine.store_parts_ref(), loaded.store_parts_ref());
        assert_same_index(kept.index, derived.index, ctx);
        assert_eq!(kept.neg_zeros, derived.neg_zeros, "{ctx}: −0.0 cells");
        assert_eq!(kept.labels, derived.labels, "{ctx}: labels");
        assert_eq!(kept.stable_of, derived.stable_of, "{ctx}: stable ids");
        assert_eq!(kept.next_id, derived.next_id, "{ctx}: next id");
    }
    assert_eq!(engine.mask_counts(), loaded.mask_counts(), "{ctx}: masks");
    assert_eq!(
        engine.maintained_queue(),
        loaded.maintained_queue(),
        "{ctx}"
    );
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        for k in [1, 3, 8, 40] {
            assert_eq!(
                entries(&mut loaded, k, alg),
                entries(engine, k, alg),
                "{ctx}: {alg:?} k={k}"
            );
        }
    }
    assert_eq!(encode_engine(&loaded), bytes, "{ctx}: re-encoded bytes");
}

/// A seeded op stream over `engine`: inserts (labeled or not), deletes,
/// cell rewrites to present, missing, signed-zero and new values, and an
/// explicit compaction now and then. Ops the engine rejects (an
/// all-missing row after a clear) are skipped.
fn run_stream(engine: &mut DynamicEngine, rng: &mut Mix, len: usize) {
    for step in 0..len {
        let live = engine.live_ids();
        let op = match rng.below(10) {
            0..=2 => UpdateOp::Insert(rng.row()),
            3 => UpdateOp::InsertLabeled(format!("r{step}"), rng.row()),
            4..=5 if !live.is_empty() => UpdateOp::Delete(live[rng.below(live.len())]),
            6..=8 if !live.is_empty() => {
                UpdateOp::Set(live[rng.below(live.len())], rng.below(DIMS), rng.cell())
            }
            9 if rng.below(4) == 0 => {
                engine.compact_now();
                continue;
            }
            _ => UpdateOp::Insert(rng.row()),
        };
        if engine.check_ops(std::slice::from_ref(&op)).is_ok() {
            assert_eq!(engine.apply_ops(&[op]).error, None);
        }
    }
}

/// Does any value of `index`'s tables have no holder, live or dead?
fn has_holderless_value(index: &BitmapIndex) -> bool {
    (0..index.dims()).any(|d| {
        let held: std::collections::HashSet<u32> =
            (0..index.n()).map(|o| index.value_slot(o, d)).collect();
        (1..=index.cardinality(d) as u32).any(|s| !held.contains(&s))
    })
}

/// One stream spelled out so that every case the derivation must get
/// right is present at once, each asserted before the comparison: a new
/// value spliced in, a value left without holders, a dead row with a
/// missing cell, a mask that left with its last live row, −0.0 cells —
/// then the same after a compaction.
#[test]
fn every_maintained_artifact_survives_a_load() {
    let ds = Dataset::from_rows(
        DIMS,
        &[
            vec![Some(1.0), Some(2.0), None],
            vec![Some(3.0), None, Some(4.0)],
            vec![None, Some(5.0), Some(6.0)],
            vec![Some(7.0), Some(8.0), Some(9.0)],
        ],
    )
    .unwrap();
    let options = DynamicOptions {
        bins: BinChoice::Fixed(2),
        policy: CompactionPolicy::never(),
    };
    let mut engine = DynamicEngine::with_options(ds, options);
    let ops = [
        // A new distinct value and a −0.0 cell.
        UpdateOp::Insert(vec![Some(-0.0), Some(0.5), None]),
        // Row 3 alone holds 9.0 at dim 2: clearing it leaves 9.0
        // without holders, and flips row 3's mask to one no other row
        // carries — its count reaches 0 when row 3 dies below.
        UpdateOp::Set(3, 2, None),
        UpdateOp::Set(0, 2, Some(-0.0)),
        // Row 1 misses dim 1: a dead row with a missing cell.
        UpdateOp::Delete(1),
        UpdateOp::Delete(3),
    ];
    assert_eq!(engine.apply_ops(&ops).error, None);
    {
        let parts = engine.store_parts_ref();
        assert!(has_holderless_value(parts.index), "a holderless value");
        let index = parts.index;
        let dead_missing = (0..index.n())
            .any(|s| !index.live_mask().get(s) && mask_bits(index, s).count_ones() < 3);
        assert!(dead_missing, "a dead row with a missing cell");
        let live_masks: Vec<u64> = (0..index.n())
            .filter(|&s| index.live_mask().get(s))
            .map(|s| mask_bits(index, s))
            .collect();
        let left = (0..index.n())
            .map(|s| mask_bits(index, s))
            .any(|m| !live_masks.contains(&m));
        assert!(left, "a mask that left with its last live row");
        assert!(!parts.neg_zeros.is_empty(), "a −0.0 cell");
    }
    assert_derived_equals_maintained(&mut engine, "spelled-out stream");
    engine.compact_now();
    assert_derived_equals_maintained(&mut engine, "after compaction");
}

/// A table past 255 values stores every slot in two bytes, and the load
/// reads them back to the same index.
#[test]
fn two_byte_slots_round_trip() {
    let rows: Vec<Vec<Option<f64>>> = (0..300)
        .map(|i| vec![Some(f64::from(i)), (i % 5 != 0).then_some(f64::from(i % 7))])
        .collect();
    let mut engine = DynamicEngine::new(Dataset::from_rows(2, &rows).unwrap());
    engine.delete(17).unwrap();
    let bytes = encode_engine(&engine);
    // dims u32 · n u64 · dim 0 (300 values) · dim 1 (7 values) · width.
    let offset = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let width_at = offset + 12 + (8 + 300 * 8) + (8 + 7 * 8);
    assert_eq!(bytes[width_at], 2, "slot width");
    assert_derived_equals_maintained(&mut engine, "two-byte slots");
}

/// After a refresh (`maintained_queue` runs it), the engine's pairwise
/// Heuristic 2 tables — dropped by its ops, re-derived once per batch —
/// equal the ones a load of its snapshot derives from the columns.
fn assert_pair_tables_derived_equal_maintained(engine: &mut DynamicEngine, ctx: &str) {
    let mut loaded = decode_engine(&encode_engine(engine)).expect("load");
    engine.maintained_queue();
    loaded.maintained_queue();
    let (kept, derived) = (engine.store_parts_ref(), loaded.store_parts_ref());
    let tables = kept.index.pair_tables();
    assert!(tables.is_some(), "{ctx}: refresh derives the tables");
    assert_eq!(tables, derived.index.pair_tables(), "{ctx}: pair tables");
}

/// Pair tables across op batches: an op drops the maintained tables, the
/// next refresh re-derives them equal to a load's — batch after batch,
/// across spliced values, tombstones, flips and compactions.
#[test]
fn pair_tables_after_refresh_equal_a_loads() {
    for seed in 0..16u64 {
        let mut rng = Mix(seed);
        let start: Vec<Vec<Option<f64>>> = (0..20).map(|_| rng.row()).collect();
        let policy = if seed % 2 == 0 {
            CompactionPolicy::never()
        } else {
            CompactionPolicy {
                max_tombstone_fraction: 0.2,
                min_dead: 3,
            }
        };
        let options = DynamicOptions {
            bins: BinChoice::Auto,
            policy,
        };
        let ds = Dataset::from_rows(DIMS, &start).expect("valid rows");
        let mut engine = DynamicEngine::with_options(ds, options);
        assert_pair_tables_derived_equal_maintained(&mut engine, &format!("seed {seed} start"));
        for batch in 0..6 {
            engine
                .insert(&[Some(5000.0 + f64::from(batch)), None, Some(1.0)])
                .expect("valid row");
            assert!(
                engine.store_parts_ref().index.pair_tables().is_none(),
                "seed {seed} batch {batch}: an op drops the tables"
            );
            run_stream(&mut engine, &mut rng, 12);
            let ctx = format!("seed {seed} batch {batch}");
            assert_pair_tables_derived_equal_maintained(&mut engine, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded op streams over a seeded start, with tombstone compaction
    /// on a hair trigger: the load equals the engine after every stream.
    #[test]
    fn derived_state_equals_maintained_state(
        seed in any::<u64>(),
        rows in 0usize..24,
        len in 1usize..120,
        eager in any::<bool>(),
    ) {
        let mut rng = Mix(seed);
        let start: Vec<Vec<Option<f64>>> = (0..rows).map(|_| rng.row()).collect();
        let policy = if eager {
            CompactionPolicy { max_tombstone_fraction: 0.2, min_dead: 3 }
        } else {
            CompactionPolicy::never()
        };
        let options = DynamicOptions { bins: BinChoice::Auto, policy };
        let ds = Dataset::from_rows(DIMS, &start).expect("valid rows");
        let mut engine = DynamicEngine::with_options(ds, options);
        run_stream(&mut engine, &mut rng, len);
        assert_derived_equals_maintained(&mut engine, &format!("seed {seed:#x}"));
    }
}
