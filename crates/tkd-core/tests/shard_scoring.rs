//! Value-based candidates scored on **mutated** shard engines — what the
//! cluster workers rely on once a shard exists only as the
//! [`DynamicEngine`] that hosts it.
//!
//! Two or three never-compacting engines (the workers' configuration)
//! hold a row partition and take seeded insert / delete / cell-rewrite
//! streams. After every round, for every live object of the merged data,
//! the per-shard partials must add up to the brute-force score and the
//! phase-1 answers must bound it, through tombstones, masks that left a
//! shard, values a shard has never indexed and a shard with no rows left.
//! Scoring must also leave the engine's state alone, a candidate whose
//! mask no local row carries included: the live rows' count per mask,
//! which sizes every incomparable set, is what scoring reads of them (the
//! byte form of this is `tests/shard_snapshot_purity.rs`, next to
//! `tkd-store`).

use proptest::test_runner::TestRng;
use std::collections::HashSet;
use tkd_core::dynamic::{CompactionPolicy, DynamicEngine, DynamicOptions, UpdateError, UpdateOp};
use tkd_core::BinChoice;
use tkd_model::{dominance, Dataset, ObjectId};

const DIMS: usize = 4;
const ROUNDS: usize = 24;
type Row = Vec<Option<f64>>;

/// A random row over the tie-heavy domain `0..6`, never all-missing.
fn random_row(rng: &mut TestRng, missing: f64) -> Row {
    loop {
        let cell =
            |rng: &mut TestRng| (rng.next_f64() >= missing).then(|| rng.next_index(6) as f64);
        let row: Row = (0..DIMS).map(|_| cell(rng)).collect();
        if row.iter().any(Option::is_some) {
            return row;
        }
    }
}

fn shard_engine(rows: &[Row]) -> DynamicEngine {
    let options = DynamicOptions {
        bins: BinChoice::Auto,
        policy: CompactionPolicy::never(),
    };
    DynamicEngine::with_options(Dataset::from_rows(DIMS, rows).expect("valid rows"), options)
}

fn row_of(shard: &DynamicEngine, id: ObjectId) -> Row {
    (0..DIMS)
        .map(|d| shard.value(id, d).expect("live id"))
        .collect()
}

/// One op that is valid against `shard` as it stands.
fn random_op(rng: &mut TestRng, shard: &DynamicEngine, missing: f64) -> UpdateOp {
    let live = shard.live_ids();
    let die = rng.next_index(10);
    if live.is_empty() || die < 4 {
        return UpdateOp::Insert(random_row(rng, missing));
    }
    let id = live[rng.next_index(live.len())];
    if die < 6 {
        return UpdateOp::Delete(id);
    }
    // A cell rewrite, to and from missing; never clears a row's last cell.
    let dim = rng.next_index(DIMS);
    let mut row = row_of(shard, id);
    row[dim] = None;
    let to_missing = rng.next_f64() < missing && row.iter().any(Option::is_some);
    let cell = (!to_missing).then(|| rng.next_index(6) as f64);
    UpdateOp::Set(id, dim, cell)
}

fn apply(shard: &mut DynamicEngine, op: UpdateOp) -> Option<ObjectId> {
    let report = shard.apply_ops(&[op]);
    assert_eq!(report.error, None);
    report.inserted_ids.first().copied()
}

/// The bits of the dimensions `row` observes.
fn mask_of(row: &Row) -> u64 {
    (0..DIMS).map(|d| u64::from(row[d].is_some()) << d).sum()
}

/// The masks `shard`'s live rows carry.
fn live_masks(shard: &DynamicEngine) -> HashSet<u64> {
    let live = shard.live_ids().into_iter();
    live.map(|id| mask_of(&row_of(shard, id))).collect()
}

/// All four answers to one candidate, as a worker would give them.
fn score(shard: &mut DynamicEngine, values: &Row, member: Option<ObjectId>) -> [usize; 4] {
    [
        shard.big_bound(values),
        shard.ibig_q_count(values),
        shard.big_partial(values, member).expect("live member"),
        shard.ibig_partial(values, member).expect("live member"),
    ]
}

/// Σ partials ≡ brute force and sound phase-1 bounds for every live
/// object of the merged shards — and none of that scoring shows in the
/// shards' mask counts. Returns how many (candidate, shard) pairs met a
/// mask no live row of the shard carries.
fn assert_partials_add_up(shards: &mut [DynamicEngine], context: &str) -> usize {
    let mut rows = Vec::new();
    let mut homes = Vec::new();
    for (j, shard) in shards.iter().enumerate() {
        for id in shard.live_ids() {
            rows.push(row_of(shard, id));
            homes.push((j, id));
        }
    }
    let merged = Dataset::from_rows(DIMS, &rows).expect("valid rows");
    let scores = dominance::all_scores(&merged);
    let carried: Vec<_> = shards.iter().map(live_masks).collect();
    let before: Vec<_> = shards.iter().map(|s| s.mask_counts().clone()).collect();
    let mut foreign = 0;
    for ((values, &(home, id)), &want) in rows.iter().zip(&homes).zip(&scores) {
        let mask = mask_of(values);
        let mut sums = [0usize; 4];
        for (j, shard) in shards.iter_mut().enumerate() {
            foreign += usize::from(!carried[j].contains(&mask));
            let answers = score(shard, values, (j == home).then_some(id));
            for (sum, x) in sums.iter_mut().zip(answers) {
                *sum += x;
            }
        }
        let [bound, q_count, big, ibig] = sums;
        assert_eq!(big, want, "{context}: BIG partials of {id}@{home}");
        assert_eq!(ibig, want, "{context}: IBIG partials of {id}@{home}");
        // Both phase-1 sums count the candidate's own bit once.
        assert!(bound > want, "{context}: BIG bound of {id}@{home}");
        assert!(q_count > want, "{context}: IBIG |Q| of {id}@{home}");
    }
    for (shard, before) in shards.iter().zip(&before) {
        let after = shard.mask_counts();
        assert!(after == before, "{context}: scoring left a trace");
    }
    foreign
}

#[test]
fn partials_add_up_on_mutated_never_compacting_shards() {
    for (m, missing) in [0.1, 0.3, 0.6].into_iter().enumerate() {
        for shard_count in [2usize, 3] {
            let mut rng = TestRng::new(0x5EED + (m * 10 + shard_count) as u64);
            let mut shards: Vec<DynamicEngine> = (0..shard_count)
                .map(|_| {
                    let rows: Vec<Row> = (0..12).map(|_| random_row(&mut rng, missing)).collect();
                    shard_engine(&rows)
                })
                .collect();
            // A landmark on shard 0: gone by a third of the run, so its mask
            // (rare at high missing rates) leaves the shard while shard
            // 1's twin keeps arriving as a candidate.
            let landmark_row: Row = vec![Some(3.0); DIMS];
            let landmark = apply(&mut shards[0], UpdateOp::Insert(landmark_row.clone()));
            let landmark = landmark.expect("inserts report their id");
            apply(&mut shards[1], UpdateOp::Insert(landmark_row.clone()));
            let mut foreign_scored = 0;
            for round in 0..ROUNDS {
                let context = format!("missing {missing}, {shard_count} shards, round {round}");
                for _ in 0..6 {
                    let j = rng.next_index(shard_count);
                    let op = random_op(&mut rng, &shards[j], missing);
                    apply(&mut shards[j], op);
                }
                // A value no other shard has indexed: alternately above
                // every bin boundary there and below every value.
                let mut outlier = random_row(&mut rng, missing);
                let cell = outlier.iter_mut().flatten().next().expect("observed cell");
                *cell = [100.0 + round as f64, -1.0 - round as f64][round % 2];
                apply(&mut shards[round % shard_count], UpdateOp::Insert(outlier));
                if round == ROUNDS / 3 {
                    if shards[0].contains(landmark) {
                        apply(&mut shards[0], UpdateOp::Delete(landmark));
                    }
                    for answer in [
                        shards[0].big_partial(&landmark_row, Some(landmark)),
                        shards[0].ibig_partial(&landmark_row, Some(landmark)),
                    ] {
                        assert_eq!(answer, Err(UpdateError::Deleted(landmark)), "{context}");
                    }
                    let never = shards[0].big_partial(&landmark_row, Some(9_999));
                    assert_eq!(never, Err(UpdateError::UnknownId(9_999)), "{context}");
                }
                if round == ROUNDS / 2 {
                    let last = shards.last_mut().expect("at least two shards");
                    for id in last.live_ids() {
                        apply(last, UpdateOp::Delete(id));
                    }
                    assert!(last.is_empty() && last.tombstones() > 0);
                }
                foreign_scored += assert_partials_add_up(&mut shards, &context);
            }
            assert!(foreign_scored > 0, "missing {missing}: no foreign mask met");
            assert!(
                shards.iter().all(|s| s.epoch() == 0),
                "shards never compact"
            );
        }
    }
}

/// `|∩ᵢ Qᵢ|` over `rows` by brute force: the rows that miss or reach
/// `values` in every dimension `values` observes (a member's own row
/// included).
fn brute_q(rows: &[Row], values: &Row) -> usize {
    let reaches = |row: &Row| {
        (0..DIMS).all(|d| match (values[d], row[d]) {
            (Some(v), Some(x)) => x >= v,
            _ => true,
        })
    };
    rows.iter().filter(|row| reaches(row)).count()
}

/// BIG's phase-1 answers are exact: after every round of a random op
/// stream (tombstones, cell rewrites to and from missing, masks that
/// left a shard, values no shard has indexed, a shard emptied by
/// deletes), the shards' `big_bound`s sum to the unsharded `|∩ᵢ Qᵢ|`
/// for every live object and for a stranger, so the cross-shard
/// Heuristic 2 is the in-process one.
#[test]
fn big_bounds_sum_to_the_unsharded_count_on_mutated_shards() {
    for (m, missing) in [0.1, 0.3, 0.6].into_iter().enumerate() {
        for shard_count in [2usize, 3] {
            let mut rng = TestRng::new(0xB16 + (m * 10 + shard_count) as u64);
            let mut shards: Vec<DynamicEngine> = (0..shard_count)
                .map(|_| {
                    let rows: Vec<Row> = (0..12).map(|_| random_row(&mut rng, missing)).collect();
                    shard_engine(&rows)
                })
                .collect();
            for round in 0..ROUNDS {
                for _ in 0..6 {
                    let j = rng.next_index(shard_count);
                    let op = random_op(&mut rng, &shards[j], missing);
                    apply(&mut shards[j], op);
                }
                if round == ROUNDS / 2 {
                    let last = shards.last_mut().expect("at least two shards");
                    for id in last.live_ids() {
                        apply(last, UpdateOp::Delete(id));
                    }
                }
                let rows: Vec<Row> = shards
                    .iter()
                    .flat_map(|s| s.live_ids().into_iter().map(|id| row_of(s, id)))
                    .collect();
                let mut stranger = random_row(&mut rng, missing);
                let cell = stranger.iter_mut().flatten().next().expect("observed cell");
                *cell = [6.5, -0.5][round % 2];
                for values in rows.iter().chain([&stranger]) {
                    let sum: usize = shards.iter().map(|s| s.big_bound(values)).sum();
                    assert_eq!(
                        sum,
                        brute_q(&rows, values),
                        "missing {missing}, {shard_count} shards, round {round}: {values:?}"
                    );
                }
            }
        }
    }
}
