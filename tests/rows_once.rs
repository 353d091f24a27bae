//! Rows kept once: a `DynamicEngine` holds its rows as the exact index's
//! value slots and value tables, beside each row's mask, its label and
//! the list of cells holding −0.0 — no copy of the values. Everything
//! read back from those must be what a plain `Dataset` holding the same
//! rows says.
//!
//! Seeded op streams over σ ∈ {0.1, 0.3, 0.6} mix plain and labeled
//! inserts, −0.0 beside 0.0, deletes, observedness flips, rewrites
//! (−0.0 ↔ 0.0 included) and a compaction. The mirror is a `Dataset` of
//! every row ever inserted — row `i` is stable id `i` — grown and
//! rewritten with its own `push_row` / `set_value`, plus the set of
//! deleted ids. After every batch the engine must agree with it on:
//!
//! * `value` (bit for bit, so the sign of a zero counts), `label`,
//!   `snapshot()` (values bit for bit, masks, labels) and `live_ids`;
//! * `to_store_parts` → `from_store_parts`, which must give back the same
//!   parts and answer as the engine does;
//! * `encode(decode(b)) == b` for the engine's snapshot bytes `b`;
//! * BIG and IBIG answers: entries and `PruneStats` equal to a rebuild
//!   over the mirror's live rows for BIG, entries equal to the rebuild's
//!   for IBIG (whose bins are frozen between compactions), and both
//!   answers with their `PruneStats` equal to the resumed engine's.

mod common;

use common::Mix;
use std::collections::BTreeSet;
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions, DynamicParts};
use tkdi::core::{BinChoice, PruneStats, TkdQuery};
use tkdi::prelude::*;
use tkdi::store::{decode_engine, encode_engine};

const DIMS: usize = 4;
const ROWS: usize = 60;
const BATCHES: usize = 24;
const KS: [usize; 3] = [1, 5, 17];

/// A cell of the stream: missing with probability `sigma`, else a small
/// integer, a half, or a zero of either sign.
fn cell(rng: &mut Mix, sigma: f64) -> Option<f64> {
    if (rng.below(1000) as f64) < sigma * 1000.0 {
        return None;
    }
    Some(match rng.below(10) {
        0 => -0.0,
        1 => 0.0,
        2 => rng.below(6) as f64 + 0.5,
        _ => rng.below(6) as f64,
    })
}

fn row(rng: &mut Mix, sigma: f64) -> Vec<Option<f64>> {
    loop {
        let r: Vec<Option<f64>> = (0..DIMS).map(|_| cell(rng, sigma)).collect();
        if r.iter().any(Option::is_some) {
            return r;
        }
    }
}

/// Every row ever inserted (row `i` is stable id `i`) and the deleted ids.
struct Mirror {
    rows: Dataset,
    deleted: BTreeSet<ObjectId>,
}

impl Mirror {
    fn live(&self) -> Vec<ObjectId> {
        let ids = self.rows.ids();
        ids.filter(|id| !self.deleted.contains(id)).collect()
    }

    fn apply(&mut self, op: &UpdateOp) {
        match op {
            UpdateOp::Insert(r) => {
                self.rows.push_row(r).expect("valid row");
            }
            UpdateOp::InsertLabeled(l, r) => {
                self.rows.push_row_labeled(l.clone(), r).expect("valid row");
            }
            UpdateOp::Delete(id) => {
                self.deleted.insert(*id);
            }
            UpdateOp::Set(id, dim, v) => self.rows.set_value(*id, *dim, *v).expect("valid cell"),
        }
    }
}

/// One op valid against `mirror`: a plain or labeled insert, a delete, a
/// rewrite of a cell (to another value, to the other zero, or from or to
/// missing — an observedness flip).
fn op(rng: &mut Mix, mirror: &Mirror, sigma: f64, step: usize) -> UpdateOp {
    let live = mirror.live();
    let die = rng.below(10);
    if live.is_empty() || die < 3 {
        return UpdateOp::Insert(row(rng, sigma));
    }
    if die == 3 {
        return UpdateOp::InsertLabeled(format!("r{step}"), row(rng, sigma));
    }
    let id = live[rng.below(live.len())];
    if die == 4 {
        return UpdateOp::Delete(id);
    }
    let dim = rng.below(DIMS);
    let new = match (mirror.rows.value(id, dim), rng.below(3)) {
        // The other zero: a rewrite only the sign list sees.
        (Some(z), 0) if z == 0.0 => Some(-z),
        (Some(_), 1) => None,
        _ => cell(rng, sigma),
    };
    let mask = mirror.rows.mask(id);
    if new.is_none() && mask.observed(dim) && mask.count() == 1 {
        return UpdateOp::Insert(row(rng, sigma));
    }
    UpdateOp::Set(id, dim, new)
}

fn bits(ds: &Dataset) -> Vec<Option<u64>> {
    let cells = ds.ids().flat_map(|o| (0..ds.dims()).map(move |d| (o, d)));
    cells
        .map(|(o, d)| ds.value(o, d).map(f64::to_bits))
        .collect()
}

fn answer(
    engine: &mut DynamicEngine,
    k: usize,
    alg: Algorithm,
) -> (Vec<(ObjectId, usize)>, PruneStats) {
    let r = engine
        .query(&EngineQuery::new(k).algorithm(alg))
        .expect("served");
    (r.iter().map(|e| (e.id, e.score)).collect(), r.stats)
}

/// The parts a resume must give back, field by field.
fn same_parts(a: &DynamicParts, b: &DynamicParts) -> bool {
    let table_bits = |p: &DynamicParts| -> Vec<Vec<u64>> {
        let table = |t: &Vec<f64>| t.iter().map(|v| v.to_bits()).collect();
        p.values.iter().map(table).collect()
    };
    table_bits(a) == table_bits(b)
        && a.slots == b.slots
        && a.neg_zeros == b.neg_zeros
        && a.labels == b.labels
        && a.live == b.live
        && a.stable_of == b.stable_of
        && a.next_id == b.next_id
        && a.epoch == b.epoch
        && a.stats == b.stats
}

fn assert_rows_once(engine: &mut DynamicEngine, mirror: &Mirror, tag: &str) {
    let live = mirror.live();
    assert_eq!(engine.live_ids(), live, "{tag}: live ids");
    for &id in &live {
        for d in 0..DIMS {
            let got = engine.value(id, d).expect("live").map(f64::to_bits);
            let want = mirror.rows.value(id, d).map(f64::to_bits);
            assert_eq!(got, want, "{tag}: value of {id} at {d}");
        }
        let label = engine.label(id).expect("live");
        assert_eq!(label, mirror.rows.label(id), "{tag}: label of {id}");
    }
    let want = mirror.rows.select(&live);
    let snapshot = engine.snapshot();
    assert_eq!(snapshot, want, "{tag}: snapshot");
    assert_eq!(bits(&snapshot), bits(&want), "{tag}: snapshot bits");

    let parts = engine.to_store_parts();
    let mut resumed = DynamicEngine::from_store_parts(parts.clone()).expect("own parts");
    assert!(
        same_parts(&resumed.to_store_parts(), &parts),
        "{tag}: parts"
    );
    assert_eq!(resumed.snapshot(), snapshot, "{tag}: resumed snapshot");

    let bytes = encode_engine(engine);
    let loaded = decode_engine(&bytes).expect("own snapshot");
    assert_eq!(encode_engine(&loaded), bytes, "{tag}: encode(decode(b))");
    assert_eq!(bits(&loaded.snapshot()), bits(&want), "{tag}: loaded bits");

    for k in KS {
        let rebuilt = |alg: Algorithm| -> (Vec<(ObjectId, usize)>, PruneStats) {
            if live.is_empty() {
                return (Vec::new(), PruneStats::default());
            }
            let r = TkdQuery::new(k).algorithm(alg).run(&want);
            (
                r.iter().map(|e| (live[e.id as usize], e.score)).collect(),
                r.stats,
            )
        };
        let big = answer(engine, k, Algorithm::Big);
        assert_eq!(big, rebuilt(Algorithm::Big), "{tag}: BIG k {k} vs rebuild");
        assert_eq!(
            answer(&mut resumed, k, Algorithm::Big),
            big,
            "{tag}: BIG k {k}"
        );
        let ibig = answer(engine, k, Algorithm::Ibig);
        assert_eq!(
            ibig.0,
            rebuilt(Algorithm::Ibig).0,
            "{tag}: IBIG k {k} vs rebuild"
        );
        assert_eq!(
            answer(&mut resumed, k, Algorithm::Ibig),
            ibig,
            "{tag}: IBIG k {k}"
        );
    }
}

#[test]
fn rows_kept_as_slots_read_back_as_a_dataset_does() {
    for (cell_no, sigma) in [0.1, 0.3, 0.6].into_iter().enumerate() {
        for seed in 0..3u64 {
            let mut rng = Mix(0x5eed_0000 + 16 * cell_no as u64 + seed);
            let rows: Vec<Vec<Option<f64>>> = (0..ROWS).map(|_| row(&mut rng, sigma)).collect();
            let ds = Dataset::from_rows(DIMS, &rows).expect("valid rows");
            let options = DynamicOptions {
                bins: BinChoice::Fixed(3),
                policy: CompactionPolicy::never(),
            };
            let mut engine = DynamicEngine::with_options(ds.clone(), options);
            let mut mirror = Mirror {
                rows: ds,
                deleted: BTreeSet::new(),
            };
            let mut labeled = false;
            let mut compacted = false;
            for batch in 0..BATCHES {
                // Each op is drawn against the mirror after the ones before
                // it, so the whole batch is valid.
                let mut ops = Vec::new();
                for i in 0..6 {
                    let op = op(&mut rng, &mirror, sigma, batch * 6 + i);
                    labeled |= matches!(op, UpdateOp::InsertLabeled(..));
                    mirror.apply(&op);
                    ops.push(op);
                }
                assert_eq!(engine.apply_ops(&ops).error, None, "batch {batch}");
                if batch == BATCHES / 2 {
                    engine.compact_now();
                    compacted = true;
                }
                let tag = format!("σ {sigma} seed {seed} batch {batch}");
                assert_rows_once(&mut engine, &mirror, &tag);
            }
            assert!(
                labeled && compacted,
                "σ {sigma} seed {seed}: stream coverage"
            );
            let parts = engine.to_store_parts();
            assert!(
                !parts.neg_zeros.is_empty(),
                "σ {sigma} seed {seed}: a −0.0 cell"
            );
            assert_eq!(engine.epoch(), 1, "σ {sigma} seed {seed}: one compaction");
        }
    }
}

/// A −0.0 cell rewritten to 0.0 and back keeps its sign in the list only,
/// and the list follows inserts, clears and compaction.
#[test]
fn the_sign_list_follows_every_op() {
    let ds = Dataset::from_rows(2, &[vec![Some(-0.0), Some(1.0)], vec![Some(0.0), None]])
        .expect("valid rows");
    let mut engine = DynamicEngine::new(ds);
    let neg = |e: &DynamicEngine| e.to_store_parts().neg_zeros;
    assert_eq!(neg(&engine), vec![0]);
    engine.update_value(0, 0, Some(0.0)).unwrap();
    assert_eq!(neg(&engine), Vec::<usize>::new());
    engine.update_value(1, 0, Some(-0.0)).unwrap();
    engine.update_value(1, 1, Some(-0.0)).unwrap();
    assert_eq!(neg(&engine), vec![2, 3]);
    let id = engine.insert(&[None, Some(-0.0)]).unwrap();
    assert_eq!(neg(&engine), vec![2, 3, 5]);
    engine.update_value(1, 0, None).unwrap();
    assert_eq!(neg(&engine), vec![3, 5]);
    engine.delete(0).unwrap();
    engine.compact_now();
    // Slots renumbered: ids 1 and 2 now sit at slots 0 and 1.
    assert_eq!(neg(&engine), vec![1, 3]);
    assert_eq!(
        engine.value(id, 1).unwrap().map(f64::to_bits),
        Some((-0.0f64).to_bits())
    );
    assert_eq!(
        engine.value(1, 1).unwrap().map(f64::to_bits),
        Some((-0.0f64).to_bits())
    );
}

/// Parts that disagree with themselves are refused: a −0.0 position on a
/// missing or non-zero cell, out of order or past the last cell, a label
/// list of the wrong length, and a row with no observed cell.
#[test]
fn inconsistent_row_parts_are_refused() {
    let ds = Dataset::from_rows(
        2,
        &[
            vec![Some(-0.0), None],
            vec![Some(0.0), Some(-0.0)],
            vec![Some(2.0), Some(0.0)],
        ],
    )
    .expect("valid rows");
    let engine = DynamicEngine::new(ds);
    let parts = engine.to_store_parts();
    assert_eq!(parts.neg_zeros, vec![0, 3]);
    assert!(DynamicEngine::from_store_parts(parts.clone()).is_ok());
    let refused = |edit: &dyn Fn(&mut DynamicParts), what: &str| {
        let mut p = parts.clone();
        edit(&mut p);
        assert!(DynamicEngine::from_store_parts(p).is_err(), "{what}");
    };
    refused(&|p| p.neg_zeros = vec![1], "a missing cell");
    refused(&|p| p.neg_zeros = vec![4], "a non-zero cell");
    refused(&|p| p.neg_zeros = vec![3, 0], "out of order");
    refused(&|p| p.neg_zeros = vec![0, 0], "repeated");
    refused(&|p| p.neg_zeros = vec![6], "past the last cell");
    refused(
        &|p| p.labels = Some(vec![String::new(); 2]),
        "two labels for three rows",
    );
    refused(
        &|p| {
            p.slots[..2].fill(0);
            p.neg_zeros = vec![3];
        },
        "a row with no observed cell",
    );
}
