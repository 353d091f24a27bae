//! `repro --exp persist` — the snapshot load-vs-rebuild benchmark
//! (`BENCH_5.json`).
//!
//! For each `(n, dims, missing)` cell the harness:
//!
//! 1. builds a [`DynamicEngine`] from scratch — the cold-start cost every
//!    process pays *without* persistence (index + probe-tree + preprocessing
//!    construction);
//! 2. saves a snapshot to disk and loads it back in full (read + decode +
//!    validation), timing both;
//! 3. asserts the loaded engine's BIG and IBIG top-k equal the fresh
//!    engine's **bit for bit** (entries, scores, tie order), so every
//!    ratio in the artifact is backed by the parity guarantee;
//! 4. reports `rebuild_s / load_s` — how much faster a snapshot-served
//!    cold start is than re-deriving the state.
//!
//! The JSON artifact (`tkd-persist/v1`) records
//! `hardware.available_parallelism` like the other bench artifacts: the
//! numbers are single-threaded and the ratio is the machine-portable
//! quantity.

use crate::table::{secs, Table};
use crate::{time, Scale};
use tkd_core::{Algorithm, DynamicEngine, EngineQuery};
use tkd_data::synthetic::{generate, Distribution, SyntheticConfig};

/// One grid cell: `(n, dims, missing_rate, k)`.
pub type PersistPoint = (usize, usize, f64, usize);

/// The persistence workload grid. Quick is CI-sized (the acceptance
/// criterion pins the `n ≥ 10_000` cells: load must beat rebuild there);
/// Paper adds the 50K cells.
pub fn persist_grid(scale: Scale) -> Vec<PersistPoint> {
    match scale {
        Scale::Quick => vec![
            (2_000, 6, 0.1, 8),
            (5_000, 6, 0.3, 8),
            (10_000, 8, 0.1, 8),
            (10_000, 8, 0.3, 8),
        ],
        Scale::Paper => vec![
            (10_000, 8, 0.1, 8),
            (20_000, 8, 0.1, 8),
            (50_000, 8, 0.1, 8),
            (50_000, 8, 0.3, 8),
        ],
    }
}

/// Measurements of one cell.
struct PersistCell {
    n: usize,
    dims: usize,
    missing: f64,
    k: usize,
    /// Engine construction from the raw dataset (the replaced cold start).
    rebuild_s: f64,
    /// Snapshot encode + write.
    save_s: f64,
    /// Snapshot read + decode + validation into a serving engine.
    load_s: f64,
    /// Snapshot size on disk.
    bytes: u64,
    /// `rebuild_s / load_s`.
    speedup: f64,
    /// Steady-state BIG query on the loaded engine.
    big_query_s: f64,
}

fn measure_cell(point: PersistPoint, seed: u64) -> PersistCell {
    let (n, dims, missing, k) = point;
    let ds = generate(&SyntheticConfig {
        n,
        dims,
        cardinality: 100,
        missing_rate: missing,
        distribution: Distribution::Independent,
        seed,
    });
    let (mut fresh, rebuild_s) = time(|| DynamicEngine::new(ds));
    // Per-cell + per-process name: the quick grid has two cells sharing
    // (n, dims, seed), and concurrent repro runs must not clobber each
    // other's snapshot mid-measure.
    let path = std::env::temp_dir().join(format!(
        "tkd_persist_{n}_{dims}_{}_{seed}_{}.tkdsnap",
        (missing * 100.0) as u32,
        std::process::id()
    ));
    let (bytes, save_s) = time(|| tkd_store::save_engine(&path, &mut fresh).expect("save"));
    let (loaded, load_s) = time(|| tkd_store::load_engine(&path).expect("load"));
    std::fs::remove_file(&path).ok();
    let mut loaded = loaded;

    // Parity gate: the loaded engine answers bit-identically.
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        let q = EngineQuery::new(k).algorithm(alg);
        let a = fresh.query(&q).expect("BIG/IBIG supported");
        let b = loaded.query(&q).expect("BIG/IBIG supported");
        assert_eq!(
            a.entries(),
            b.entries(),
            "loaded result diverged from fresh build ({alg:?}, n={n}, missing={missing})"
        );
    }
    let (_, big_query_s) = time(|| loaded.query(&EngineQuery::new(k)).expect("BIG supported"));

    // The acceptance bar itself, enforced where the numbers are made:
    // at n ≥ 10K a snapshot load must beat the rebuild it replaces
    // (smaller cells are allowed to be noise-bound on tiny machines).
    if n >= 10_000 {
        assert!(
            rebuild_s > load_s,
            "snapshot load ({load_s:.4}s) did not beat rebuild ({rebuild_s:.4}s) \
             at n={n}, missing={missing} — the load path has regressed"
        );
    }

    PersistCell {
        n,
        dims,
        missing,
        k,
        rebuild_s,
        save_s,
        load_s,
        bytes,
        speedup: rebuild_s / load_s,
        big_query_s,
    }
}

/// Run the grid, returning the printable table and the `BENCH_5.json`
/// document.
pub fn run(scale: Scale, seed: u64) -> (Table, String) {
    let cells: Vec<PersistCell> = persist_grid(scale)
        .into_iter()
        .map(|p| measure_cell(p, seed))
        .collect();

    let mut t = Table::new(
        "persistent snapshots — load vs rebuild (IND)",
        &[
            "N",
            "dims",
            "missing",
            "rebuild (s)",
            "save (s)",
            "load (s)",
            "rebuild/load",
            "bytes",
            "BIG q (s)",
        ],
    );
    for c in &cells {
        t.push(vec![
            c.n.to_string(),
            c.dims.to_string(),
            format!("{:.0}%", c.missing * 100.0),
            secs(c.rebuild_s),
            secs(c.save_s),
            secs(c.load_s),
            format!("{:.1}x", c.speedup),
            c.bytes.to_string(),
            secs(c.big_query_s),
        ]);
    }
    (t, to_json(scale, seed, &cells))
}

/// Hand-rolled JSON (the workspace is offline — no serde).
fn to_json(scale: Scale, seed: u64, cells: &[PersistCell]) -> String {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"tkd-persist/v1\",\n");
    s.push_str("  \"created_by\": \"repro --exp persist\",\n");
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    ));
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!(
        "  \"hardware\": {{\"available_parallelism\": {hw}}},\n"
    ));
    s.push_str(&format!(
        "  \"format_version\": {},\n",
        tkd_store::FORMAT_VERSION
    ));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!(
            "      \"workload\": {{\"n\": {}, \"dims\": {}, \"missing_rate\": {}, \
             \"cardinality\": 100, \"k\": {}, \"distribution\": \"IND\"}},\n",
            c.n, c.dims, c.missing, c.k
        ));
        s.push_str(&format!(
            "      \"rebuild_s\": {:.6}, \"save_s\": {:.6}, \"load_s\": {:.6},\n",
            c.rebuild_s, c.save_s, c.load_s
        ));
        s.push_str(&format!(
            "      \"rebuild_over_load\": {:.2}, \"snapshot_bytes\": {}, \
             \"big_query_s\": {:.6}\n",
            c.speedup, c.bytes, c.big_query_s
        ));
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_cell_is_parity_checked_and_json_is_sane() {
        // measure_cell asserts loaded == fresh internally.
        let cell = measure_cell((400, 4, 0.2, 8), 11);
        assert!(cell.rebuild_s > 0.0 && cell.load_s > 0.0 && cell.bytes > 0);
        let json = to_json(Scale::Quick, 11, &[cell]);
        for needle in [
            "tkd-persist/v1",
            "available_parallelism",
            "rebuild_over_load",
            "snapshot_bytes",
            "format_version",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn grid_shapes() {
        assert!(persist_grid(Scale::Quick)
            .iter()
            .any(|&(n, ..)| n >= 10_000));
        assert!(persist_grid(Scale::Paper)
            .iter()
            .any(|&(n, ..)| n == 50_000));
    }
}
