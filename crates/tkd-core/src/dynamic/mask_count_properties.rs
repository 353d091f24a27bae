//! The incomparable count against a brute-force row scan.
//!
//! BIG and IBIG read an incomparable set `F(o)` — the rows observing no
//! dimension `o` observes — only as its size, summed off a count of the
//! rows per observation mask ([`MaskCounts`]). Each surface that counts
//! is held here to a scan of the rows themselves: static builds, the
//! engine after seeded op streams that flip observedness and empty whole
//! masks (and its load from parts), a constrained subspace scope, and a
//! shard candidate whose mask no local row carries.

use super::*;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;

const DIMS: usize = 4;

/// A row over the tie-heavy domain `0..5`, never all-missing.
fn random_row(rng: &mut TestRng, missing: f64) -> Vec<Option<f64>> {
    loop {
        let cell =
            |rng: &mut TestRng| (rng.next_f64() >= missing).then(|| rng.next_index(5) as f64);
        let row: Vec<Option<f64>> = (0..DIMS).map(|_| cell(rng)).collect();
        if row.iter().any(Option::is_some) {
            return row;
        }
    }
}

fn random_dataset(rng: &mut TestRng, n: usize, missing: f64) -> Dataset {
    let rows: Vec<_> = (0..n).map(|_| random_row(rng, missing)).collect();
    Dataset::from_rows(DIMS, &rows).expect("valid rows")
}

/// `counts` against a scan of `masks`, one per row: the same entries,
/// none of them empty, and for every candidate mask the same `|F|`.
#[track_caller]
fn assert_counts_scan(counts: &MaskCounts, masks: &[DimMask], ctx: &str) {
    let mut per_mask = BTreeMap::new();
    for m in masks {
        *per_mask.entry(m.bits()).or_insert(0) += 1;
    }
    let scanned: Vec<(u64, usize)> = per_mask.into_iter().collect();
    assert_eq!(counts.entries(), scanned.as_slice(), "{ctx}: entries");
    for bits in 1..1u64 << DIMS {
        let mask = DimMask::from_bits(bits);
        let f = masks.iter().filter(|m| !m.intersects(mask)).count();
        assert_eq!(counts.incomparable(mask), f, "{ctx}: |F({bits:#06b})|");
    }
}

/// The live rows' masks, read off a compacted copy of them.
fn live_masks(engine: &DynamicEngine) -> Vec<DimMask> {
    engine.snapshot().masks().to_vec()
}

/// One op valid against `engine`: inserts, deletes, and cell rewrites to
/// and from missing (observedness flips) — and every fifth step, the
/// deletion of every live row of one mask.
fn random_ops(engine: &DynamicEngine, rng: &mut TestRng, step: usize) -> Vec<UpdateOp> {
    let live = engine.live_ids();
    if live.is_empty() {
        return vec![UpdateOp::Insert(random_row(rng, 0.4))];
    }
    let id = live[rng.next_index(live.len())];
    let mask_of = |id| {
        let observed = (0..DIMS).filter(|&d| engine.value(id, d).unwrap().is_some());
        DimMask::from_indices(observed)
    };
    if step % 5 == 4 {
        let gone = mask_of(id);
        let carriers = live.iter().filter(|&&other| mask_of(other) == gone);
        return carriers.map(|&other| UpdateOp::Delete(other)).collect();
    }
    match rng.next_index(4) {
        0 => vec![UpdateOp::Insert(random_row(rng, 0.4))],
        1 => vec![UpdateOp::Delete(id)],
        _ => {
            let dim = rng.next_index(DIMS);
            let was = engine.value(id, dim).unwrap();
            // Flip observedness, unless that clears the row's last cell.
            let new = match was {
                Some(_) if mask_of(id).count() > 1 => None,
                _ => Some(rng.next_index(5) as f64),
            };
            vec![UpdateOp::Set(id, dim, new)]
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A static build counts every row of its dataset.
    #[test]
    fn static_builds_count_every_row(seed in any::<u64>(), n in 0usize..40) {
        let mut rng = TestRng::new(seed);
        for missing in [0.1, 0.4, 0.7] {
            let ds = random_dataset(&mut rng, n, missing);
            let pre = Preprocessed::build(&ds);
            assert_counts_scan(&pre.masks, ds.masks(), &format!("missing {missing}"));
        }
    }

    /// After every batch of a seeded op stream — flips to and from
    /// missing, masks emptied whole, compaction on a hair trigger or
    /// never — the engine counts its live rows, and so does an engine
    /// resumed from its parts.
    #[test]
    fn dynamic_counts_follow_op_streams(
        seed in any::<u64>(),
        rows in 0usize..20,
        eager in any::<bool>(),
    ) {
        let mut rng = TestRng::new(seed);
        let policy = if eager {
            CompactionPolicy { max_tombstone_fraction: 0.2, min_dead: 3 }
        } else {
            CompactionPolicy::never()
        };
        let options = DynamicOptions { bins: BinChoice::Auto, policy };
        let mut engine = DynamicEngine::with_options(random_dataset(&mut rng, rows, 0.4), options);
        for step in 0..40 {
            let ops = random_ops(&engine, &mut rng, step);
            assert_eq!(engine.apply_ops(&ops).error, None, "step {step}");
            assert_counts_scan(engine.mask_counts(), &live_masks(&engine), &format!("step {step}"));
        }
        let resumed = DynamicEngine::from_store_parts(engine.to_store_parts()).expect("own parts");
        assert_eq!(resumed.mask_counts(), engine.mask_counts(), "resumed");
    }

    /// A constrained subspace scope counts its rows per mask inside `S`:
    /// every candidate's `|F_S|` is the scope rows sharing no observed
    /// dimension of `S` with it.
    #[test]
    fn scoped_candidates_count_inside_the_subspace(seed in any::<u64>(), rows in 1usize..30) {
        let mut rng = TestRng::new(seed);
        let mut engine = DynamicEngine::new(random_dataset(&mut rng, rows, 0.4));
        for step in 0..10 {
            let ops = random_ops(&engine, &mut rng, step);
            assert_eq!(engine.apply_ops(&ops).error, None, "step {step}");
        }
        let dims = DimMask::from_bits(1 + rng.next_index((1 << DIMS) - 1) as u64);
        let mut constraints = Constraints::none(DIMS);
        for d in 0..DIMS {
            if rng.next_index(3) == 0 {
                let lo = rng.next_index(5) as f64;
                constraints = constraints.with_range(d, lo, lo + rng.next_index(3) as f64);
            }
        }
        let rows = engine.scope_rows(dims, &constraints).expect("dimensions in range");
        let scope = Scope::new(RowScope::new(rows.clone()), dims, &engine.masks);
        let inside = |s: usize| engine.masks[s].and(dims);
        for o in rows.iter_ones() {
            let f = rows.iter_ones().filter(|&r| !inside(r).intersects(inside(o))).count();
            let cand = scope.candidate(&engine.masks, o as ObjectId);
            assert_eq!(cand.f, f, "slot {o} in {dims:?}");
        }
    }

    /// A shard candidate is counted against the live rows whether or not
    /// one of them carries its mask; after a stream that empties masks,
    /// some candidates carry none.
    #[test]
    fn shard_candidates_count_masks_no_local_row_carries(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let mut engine = DynamicEngine::new(random_dataset(&mut rng, 6, 0.5));
        for step in 0..12 {
            let ops = random_ops(&engine, &mut rng, step);
            assert_eq!(engine.apply_ops(&ops).error, None, "step {step}");
        }
        let live = live_masks(&engine);
        let mut foreign = 0;
        for bits in 1..1u64 << DIMS {
            let mask = DimMask::from_bits(bits);
            let values: Vec<Option<f64>> =
                (0..DIMS).map(|d| mask.observed(d).then_some(2.0)).collect();
            foreign += usize::from(!live.contains(&mask));
            let cand = shard_candidate(&engine.pre.masks, &values, None);
            assert_eq!(cand.mask, mask);
            let f = live.iter().filter(|m| !m.intersects(mask)).count();
            assert_eq!(cand.f, f, "|F({bits:#06b})|");
        }
        assert!(foreign > 0, "every mask carried by a live row");
    }
}
