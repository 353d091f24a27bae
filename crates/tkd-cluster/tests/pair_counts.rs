//! The coordinator's Heuristic 2 tables against brute force.
//!
//! [`PairCounts`] keeps, per pair of dimensions, a histogram of the live
//! rows over a value grid, maintained op by op; its tables are the
//! histograms' 2-D suffix sums. Along seeded op streams — inserts,
//! deletes, and sets that flip a cell between observed and missing —
//! over rows with missing rates 0, 0.3 and 0.6, tied values, and both
//! −0.0 and 0.0, every batch must leave:
//!
//! * every table entry equal to the live rows' joint count at its two
//!   thresholds, a missing cell counting as at or above any threshold;
//! * every candidate the lookup prunes at a budget with a brute-force
//!   `|∩ᵢ Qᵢ| ≤ budget` over the live rows.
//!
//! A coordinator query is pinned beside them: for one fixed shape and k
//! the frames and shipped candidates are exact, so a coordinator that
//! silently stops pruning on its own fails here, not only in a benchmark;
//! and a long walk's frames are bounded by the logarithm of its length,
//! so a coordinator whose chunks stop doubling fails here too.

use std::net::SocketAddr;
use tkd_cluster::{ClusterConfig, Coordinator, Worker, WorkerConfig};
use tkd_core::cluster::{seed_counts, PairCounts};
use tkd_core::maxscore::ValueCounts;
use tkd_core::{Algorithm, DynamicEngine, EngineQuery, TkdQuery, UpdateOp};
use tkd_model::{Dataset, ObjectId};

/// `tkd_index::PairTables::CELLS`: a dimension has fewer thresholds.
const CELLS: usize = 8;

/// splitmix64: a seeded stream of draws.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A value on a coarse grid (ties), −0.0 standing in for some zeros.
    fn value(&mut self) -> f64 {
        match self.below(12) {
            0 => -0.0,
            v => (v as f64 - 1.0) * 0.5,
        }
    }

    /// A row missing each cell with `missing_pct` per cent, one cell kept.
    fn row(&mut self, dims: usize, missing_pct: u64) -> Vec<Option<f64>> {
        let mut row: Vec<Option<f64>> = (0..dims)
            .map(|_| (self.below(100) >= missing_pct).then(|| self.value()))
            .collect();
        if row.iter().all(Option::is_none) {
            let d = self.below(dims as u64) as usize;
            row[d] = Some(self.value());
        }
        row
    }
}

/// Rows in `Qᵢ(o)` for every observed `i` of `o`: live, and missing `i`
/// or at or above `o[i]` — `o` itself included.
fn q_count(ds: &Dataset, live: &[bool], o: ObjectId) -> usize {
    let row = ds.row(o);
    (0..ds.len() as ObjectId)
        .filter(|&p| live[p as usize])
        .filter(|&p| {
            row.observed()
                .all(|(d, v)| ds.value(p, d).is_none_or(|w| w >= v))
        })
        .count()
}

/// Live rows missing `dim` or at or above `threshold` there.
fn at_or_above(ds: &Dataset, p: ObjectId, dim: usize, threshold: f64) -> bool {
    ds.value(p, dim).is_none_or(|w| w >= threshold)
}

/// Every entry of the tables equals its brute-force joint count; returns
/// the entries checked.
fn assert_entries_exact(pairs: &PairCounts, ds: &Dataset, live: &[bool], ctx: &str) -> usize {
    let tables = pairs.tables().expect("refreshed tables");
    let grid = pairs.grid();
    let mut checked = 0;
    for i in 0..ds.dims() {
        for j in i + 1..ds.dims() {
            for (a, &ti) in grid[i].iter().enumerate() {
                for (b, &tj) in grid[j].iter().enumerate() {
                    let want = (0..ds.len() as ObjectId)
                        .filter(|&p| live[p as usize])
                        .filter(|&p| at_or_above(ds, p, i, ti) && at_or_above(ds, p, j, tj))
                        .count();
                    let got = tables.bound(i, a as u32 + 1, j, b as u32 + 1);
                    assert_eq!(got, Some(want), "{ctx}: pair ({i}, {j}) cell ({a}, {b})");
                    checked += 1;
                }
            }
        }
    }
    checked
}

/// Every prune the lookup makes is sound, and a budget below the exact
/// count never prunes; returns the prunes made at the exact count.
fn assert_prunes_sound(pairs: &PairCounts, ds: &Dataset, live: &[bool], ctx: &str) -> usize {
    let mut pruned = 0;
    for o in (0..ds.len() as ObjectId).filter(|&o| live[o as usize]) {
        let count = q_count(ds, live, o);
        for budget in count.saturating_sub(3)..count {
            assert!(
                !pairs.prunes(ds.row(o), budget),
                "{ctx}: row {o} pruned at budget {budget}, |∩Q| = {count}"
            );
        }
        pruned += usize::from(pairs.prunes(ds.row(o), count));
    }
    pruned
}

/// A batch of `ops` ops against the mirror's live rows: inserts,
/// deletes, and sets that may flip a cell's observedness (never the last
/// observed one).
fn batch(draw: &mut Draw, ds: &Dataset, live: &[bool], dims: usize, pct: u64) -> Vec<UpdateOp> {
    let mut ops = Vec::new();
    let mut gone = vec![false; live.len()];
    for _ in 0..12 {
        let alive: Vec<ObjectId> = (0..live.len() as ObjectId)
            .filter(|&o| live[o as usize] && !gone[o as usize])
            .collect();
        match draw.below(3) {
            0 => ops.push(UpdateOp::Insert(draw.row(dims, pct))),
            _ if alive.len() < 4 => {}
            1 => {
                let o = alive[draw.below(alive.len() as u64) as usize];
                gone[o as usize] = true;
                ops.push(UpdateOp::Delete(o));
            }
            _ => {
                let o = alive[draw.below(alive.len() as u64) as usize];
                let d = draw.below(dims as u64) as usize;
                let observed = ds.row(o).observed().count();
                let clear = draw.below(3) == 0 && (observed > 1 || ds.value(o, d).is_none());
                let v = (!clear).then(|| draw.value());
                // Later sets in one batch see the earlier ones only through
                // the mirror, so keep one set per row per batch.
                gone[o as usize] = true;
                ops.push(UpdateOp::Set(o, d, v));
            }
        }
    }
    ops
}

/// Apply `ops` to the mirror and to the counts, as the coordinator's
/// `route_op` does.
fn apply(
    ops: &[UpdateOp],
    ds: &mut Dataset,
    live: &mut Vec<bool>,
    counts: &mut ValueCounts,
    pairs: &mut PairCounts,
) {
    for op in ops {
        match op {
            UpdateOp::Insert(row) => {
                let g = ds.push_row(row).expect("valid row");
                live.push(true);
                counts.insert(ds.row(g));
                pairs.insert(ds.row(g));
            }
            UpdateOp::Delete(g) => {
                live[*g as usize] = false;
                counts.remove(ds.row(*g));
                pairs.remove(ds.row(*g));
            }
            UpdateOp::Set(g, d, v) => {
                let old = ds.value(*g, *d);
                ds.set_value(*g, *d, *v).expect("keeps an observed cell");
                counts.set(*d, old, *v);
                pairs.set(ds.row(*g), *d, old);
            }
            UpdateOp::InsertLabeled(..) => unreachable!("the streams insert unlabeled rows"),
        }
    }
}

#[test]
fn tables_equal_brute_force_joint_counts_along_op_streams() {
    let (mut entries, mut prunes) = (0, 0);
    for (seed, pct) in [(1, 0), (2, 30), (3, 60), (4, 0), (5, 30), (6, 60)] {
        let mut draw = Draw(seed);
        let dims = 3 + seed as usize % 3;
        let rows: Vec<Vec<Option<f64>>> = (0..120).map(|_| draw.row(dims, pct)).collect();
        let mut ds = Dataset::from_rows(dims, &rows).expect("valid rows");
        let mut live = vec![true; ds.len()];
        let mut counts = ValueCounts::new(&ds);
        let mut pairs = PairCounts::new(&ds, &counts);
        for (d, thresholds) in pairs.grid().iter().enumerate() {
            assert!(thresholds.len() < CELLS, "seed {seed} dim {d}");
            assert!(
                thresholds.windows(2).all(|w| w[0] < w[1]),
                "seed {seed} dim {d}"
            );
        }
        let ctx = format!("seed {seed}, σ = {pct} %, seeded");
        entries += assert_entries_exact(&pairs, &ds, &live, &ctx);
        prunes += assert_prunes_sound(&pairs, &ds, &live, &ctx);
        for b in 0..15 {
            let ops = batch(&mut draw, &ds, &live, dims, pct);
            apply(&ops, &mut ds, &mut live, &mut counts, &mut pairs);
            // Stale tables decide nothing until the batch's refresh.
            if pairs.tables().is_none() {
                assert!((0..ds.len() as ObjectId).all(|o| !pairs.prunes(ds.row(o), usize::MAX)));
            }
            pairs.refresh();
            let ctx = format!("seed {seed}, σ = {pct} %, after batch {b}");
            entries += assert_entries_exact(&pairs, &ds, &live, &ctx);
            prunes += assert_prunes_sound(&pairs, &ds, &live, &ctx);
        }
    }
    assert!(entries > 10_000, "{entries} entries checked");
    // At its exact count a candidate is pruned whenever some pair of its
    // cells is tight; a lookup that never prunes is not a lookup.
    assert!(prunes > 500, "only {prunes} prunes at the exact count");
}

#[test]
fn a_set_within_one_cell_keeps_the_tables() {
    let ds = Dataset::from_rows(
        2,
        &[
            vec![Some(0.0), Some(1.0)],
            vec![Some(1.0), Some(2.0)],
            vec![Some(2.0), None],
            vec![Some(3.0), Some(3.0)],
        ],
    )
    .expect("valid rows");
    let pairs = PairCounts::new(&ds, &ValueCounts::new(&ds));
    let tables = pairs.tables().expect("two dimensions").clone();
    let mut moved = ds.clone();
    let mut same = pairs.clone();
    // −0.0 and 0.0 share a cell: rewriting one as the other moves nothing.
    moved.set_value(0, 0, Some(-0.0)).expect("valid cell");
    same.set(moved.row(0), 0, Some(0.0));
    assert_eq!(same.tables(), Some(&tables));
}

/// Two workers and a cluster over a fixed 1 000-row, 4-dimensional
/// dataset with ties and missing cells: the BIG top-16 answers before and
/// after a batch, and the top-64 after it, equal the in-process ones, and
/// the frames and shipped candidates are pinned.
#[test]
fn coordinator_prunes_before_shipping() {
    const K: usize = 16;
    let mut draw = Draw(42);
    let rows: Vec<Vec<Option<f64>>> = (0..1000)
        .map(|_| {
            let mut row = draw.row(4, 20);
            for v in row.iter_mut().flatten() {
                *v = (draw.below(50) as f64).max(*v);
            }
            row
        })
        .collect();
    let ds = Dataset::from_rows(4, &rows).expect("valid rows");
    let dir = std::env::temp_dir().join(format!("tkd-pair-counts-{}", std::process::id()));
    let workers: Vec<Worker> = (0..2)
        .map(|_| Worker::start("127.0.0.1:0", WorkerConfig::default()).expect("worker start"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(Worker::local_addr).collect();
    let mut coord = Coordinator::seed(&ds, 2, &addrs, ClusterConfig::new(&dir)).expect("seed");

    let before = coord.stats;
    let got = coord.query(K, Algorithm::Big).expect("cluster query");
    let want = TkdQuery::new(K).run(&ds);
    assert_eq!(got.entries(), want.entries());
    let frames = coord.stats.frames - before.frames;
    let shipped = coord.stats.candidates_shipped - before.candidates_shipped;
    // Without the coordinator's tables every visited candidate would go
    // to both shards in the bounds phase, and every scored one again in
    // the partials phase: 2 · (59 + 39) = 196 candidates. The tables
    // decide 9 of the 20 Heuristic 2 prunes, so 2 · (50 + 39) = 178 go.
    let visited = got.stats.scored + got.stats.h2_pruned + got.stats.h3_pruned;
    let untabled = 2 * (visited + got.stats.scored) as u64;
    assert_eq!((visited, got.stats.scored), (59, 39), "{:?}", got.stats);
    assert!(shipped < untabled, "shipped {shipped} of {untabled}");
    assert_eq!((frames, shipped), (12, 178), "pinned frames and candidates");

    // After a batch the tables are refreshed with the queue and prune as
    // before, and the answer still matches a twin engine.
    let ops = [
        UpdateOp::Insert(vec![Some(0.0), Some(-0.0), None, Some(0.5)]),
        UpdateOp::Delete(3),
        UpdateOp::Set(7, 2, None),
    ];
    coord.update(&ops).expect("cluster update");
    let mut twin = DynamicEngine::new(ds.clone());
    assert!(twin.apply_ops(&ops).error.is_none());
    let before = coord.stats;
    let got = coord.query(K, Algorithm::Big).expect("cluster query");
    let want = twin.query(&EngineQuery::new(K)).expect("twin");
    assert_eq!(got.entries(), want.entries());
    let frames = coord.stats.frames - before.frames;
    let shipped = coord.stats.candidates_shipped - before.candidates_shipped;
    let visited = got.stats.scored + got.stats.h2_pruned + got.stats.h3_pruned;
    assert_eq!((visited, got.stats.scored), (54, 38), "{:?}", got.stats);
    // 2 · (54 + 38) = 184 without the tables.
    assert_eq!((frames, shipped), (8, 172), "pinned after the batch");

    // A long walk: chunks of 16, 32, 64, … candidates, so every chunk
    // but the last ships its full size and a walk over `m` positions
    // takes the fewest `c` chunks with 16 · (2^c − 1) ≥ m — each chunk
    // one bounds and at most one partials frame per shard.
    const LONG: usize = 64;
    let before = coord.stats;
    let got = coord.query(LONG, Algorithm::Big).expect("cluster query");
    let want = twin.query(&EngineQuery::new(LONG)).expect("twin");
    assert_eq!(got.entries(), want.entries());
    let frames = coord.stats.frames - before.frames;
    let shipped = coord.stats.candidates_shipped - before.candidates_shipped;
    let visited = got.stats.scored + got.stats.h2_pruned + got.stats.h3_pruned;
    let chunks = (1..)
        .find(|&c| 16 * ((1 << c) - 1) >= visited)
        .expect("a chunk count");
    assert!(
        frames <= 4 * chunks as u64,
        "{frames} frames over {visited} positions"
    );
    assert_eq!((visited, got.stats.scored), (163, 115), "{:?}", got.stats);
    assert_eq!((frames, shipped), (16, 490), "pinned long walk");

    drop(coord);
    for w in workers {
        w.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The coordinator's one-pass seed (`seed_counts`: one sorted column per
/// dimension) against tables built row by row with `insert` on empty
/// ones: the value counts, the queue and the pair histograms must all
/// be equal — over ties, −0.0 beside 0.0, σ ∈ {0, 0.3, 0.6}, a dimension
/// holding a single value and one never observed.
#[test]
fn one_pass_seed_equals_row_by_row_tables() {
    const DIMS: usize = 5;
    for (seed, pct) in [(11, 0), (12, 30), (13, 60), (14, 0), (15, 30), (16, 60)] {
        let mut draw = Draw(seed);
        let rows: Vec<Vec<Option<f64>>> = (0..150)
            .map(|_| {
                let mut row = draw.row(DIMS, pct);
                // Dimension 3 holds one value wherever it is observed,
                // dimension 4 is observed nowhere.
                if let Some(v) = row[3].as_mut() {
                    *v = 2.5;
                }
                row[4] = None;
                if row.iter().all(Option::is_none) {
                    row[0] = Some(draw.value());
                }
                row
            })
            .collect();
        let ds = Dataset::from_rows(DIMS, &rows).expect("valid rows");
        let ctx = format!("seed {seed}, σ = {pct} %");
        let (counts, queue, pairs) = seed_counts(&ds);

        let empty = Dataset::from_rows(DIMS, &[]).expect("no rows");
        let mut by_row = ValueCounts::new(&empty);
        let mut pairs_by_row = PairCounts::new(&empty, &counts);
        for o in ds.ids() {
            by_row.insert(ds.row(o));
            pairs_by_row.insert(ds.row(o));
        }
        pairs_by_row.refresh();
        assert_eq!(counts, by_row, "{ctx}: value counts");
        assert_eq!(queue, by_row.queue(&ds, ds.ids()), "{ctx}: queue");
        assert_eq!(pairs.grid(), by_row.grid(CELLS), "{ctx}: grid");
        assert!(pairs.grid()[3].is_empty() && pairs.grid()[4].is_empty());
        assert_eq!(pairs.tables(), pairs_by_row.tables(), "{ctx}: pair tables");
        assert_entries_exact(&pairs, &ds, &vec![true; ds.len()], &ctx);
    }
}
