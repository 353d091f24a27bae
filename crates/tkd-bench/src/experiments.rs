//! One runner per table/figure of the paper's evaluation (§5).
//!
//! Each function regenerates the data behind the corresponding artifact and
//! returns printable [`Table`]s: the same rows/series the paper plots, with
//! our measured values. Absolute times differ from the paper's 2015 Java
//! testbed; the *shape* (who wins, trends, crossovers) is the reproduction
//! target.

use crate::datasets::{self, Workload};
use crate::table::{bytes, secs, Table};
use crate::{time, Scale};
use tkd_bitvec::{Concise, Wah};
use tkd_core::{big, esb, ibig, maxscore, naive, ubb};
use tkd_data::synthetic::Distribution;
use tkd_impute::{factorize_impute, jaccard_distance, FactorizationConfig};
use tkd_index::{cost, BinnedBitmapIndex, BitmapIndex, CompressedColumns};
use tkd_model::{stats, ObjectId};

/// The k sweep of Figs. 12, 13 and 18 / Table 4.
pub const K_SWEEP: [usize; 5] = [4, 8, 16, 32, 64];
/// Default k for the parameter sweeps (Table 2 default).
pub const K_DEFAULT: usize = 8;

// ---------------------------------------------------------------------------
// E1 — Table 2: parameter ranges and defaults
// ---------------------------------------------------------------------------

/// Reprint the paper's Table 2 parameter grid (defaults in brackets).
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2 — parameter ranges and default values",
        &["parameter", "range (default)"],
    );
    t.push(vec!["k".into(), "4, [8], 16, 32, 64".into()]);
    t.push(vec!["N".into(), "50K, [100K], 150K, 200K, 250K".into()]);
    t.push(vec!["dim".into(), "5, [10], 15, 20, 25".into()]);
    t.push(vec![
        "missing rate σ".into(),
        "0, 5, [10], 20, 30, 40 (%)".into(),
    ]);
    t.push(vec![
        "dimensional cardinality c".into(),
        "50, [100], 200, 400, 800".into(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// E2 — Fig. 10: WAH vs CONCISE on the real datasets
// ---------------------------------------------------------------------------

/// Fig. 10 — compression CPU time (a) and compression ratio (b) of WAH and
/// CONCISE over the bitmap indexes of the three real-like datasets.
pub fn fig10(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "Fig. 10 — WAH vs CONCISE (bitmap compression on real datasets)",
        &["dataset", "codec", "CPU time (s)", "compression ratio"],
    );
    for w in datasets::real_workloads(scale, seed) {
        let index = BitmapIndex::build(&w.dataset);
        let (wah, t_wah) = time(|| CompressedColumns::<Wah>::from_bitmap(&index));
        let (con, t_con) = time(|| CompressedColumns::<Concise>::from_bitmap(&index));
        t.push(vec![
            w.name.into(),
            "WAH".into(),
            secs(t_wah),
            format!("{:.3}", wah.compression_ratio()),
        ]);
        t.push(vec![
            w.name.into(),
            "CONCISE".into(),
            secs(t_con),
            format!("{:.3}", con.compression_ratio()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E3 — Table 3: preprocessing time
// ---------------------------------------------------------------------------

/// Table 3 — preprocessing time of (a) `MaxScore` + incomparable sets,
/// (b) the bitmap index, (c) the binned bitmap index (incl. compression).
pub fn table3(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "Table 3 — preprocessing time (seconds)",
        &[
            "dataset",
            "MaxScore+F",
            "bitmap index",
            "binned bitmap index",
        ],
    );
    for w in datasets::all_workloads(scale, seed) {
        let ds = &w.dataset;
        let (_, t_ms) = time(|| {
            let q = maxscore::maxscore_queue(ds);
            let f = stats::incomparable_sets(ds);
            (q, f)
        });
        let (_, t_bm) = time(|| BitmapIndex::build(ds));
        let (_, t_binned) = time(|| {
            let idx = BinnedBitmapIndex::build(ds, &w.ibig_bins);
            CompressedColumns::<Concise>::from_binned(&idx)
        });
        t.push(vec![w.name.into(), secs(t_ms), secs(t_bm), secs(t_binned)]);
    }
    t
}

// ---------------------------------------------------------------------------
// E4 — Fig. 11: BIG vs IBIG across bin counts
// ---------------------------------------------------------------------------

/// Fig. 11 — TKD cost and index sizes vs the number of bins `x`, one table
/// per dataset. The BIG row is the unbinned reference (dense bytes); an
/// IBIG row's size is its binned index CONCISE-compressed, the paper's
/// storage layout.
pub fn fig11(scale: Scale, seed: u64) -> Vec<Table> {
    let k = K_DEFAULT;
    let sweeps: [(&str, Vec<usize>); 5] = [
        ("MovieLens", vec![1, 2, 3, 4, 5]),
        ("NBA", vec![4, 8, 16, 32, 64, 128]),
        ("Zillow", vec![10, 30, 100, 300, 1000]),
        ("IND", vec![2, 4, 8, 16, 32, 64, 128]),
        ("AC", vec![2, 4, 8, 16, 32, 64, 128]),
    ];
    let mut tables = Vec::new();
    for w in datasets::all_workloads(scale, seed) {
        let xs = &sweeps
            .iter()
            .find(|(n, _)| *n == w.name)
            .expect("sweep defined")
            .1;
        let mut t = Table::new(
            format!(
                "Fig. 11 ({}) — BIG vs IBIG vs number of bins x (k = {k})",
                w.name
            ),
            &["config", "x", "CPU time (s)", "index size"],
        );
        // Unbinned BIG reference.
        let ctx = big::BigContext::build(&w.dataset);
        let (_, t_big) = time(|| big::big_with(&ctx, k));
        t.push(vec![
            "BIG".into(),
            "C (exact)".into(),
            secs(t_big),
            bytes(ctx.index().size_bytes()),
        ]);
        drop(ctx);
        for &x in xs {
            let bins = if w.name == "Zillow" {
                tkd_data::simulators::zillow_bins(x)
            } else {
                vec![x; w.dataset.dims()]
            };
            let ictx = ibig::IbigContext::build(&w.dataset, &bins);
            let (_, t_ibig) = time(|| ibig::ibig_with(&ictx, k));
            t.push(vec![
                "IBIG".into(),
                x.to_string(),
                secs(t_ibig),
                bytes(concise_bytes(ictx.index())),
            ]);
        }
        tables.push(t);
    }
    tables
}

// ---------------------------------------------------------------------------
// E5/E6 — Figs. 12–13: CPU time vs k
// ---------------------------------------------------------------------------

/// Which algorithms a figure includes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AlgoSet {
    /// Naive + the four proposed algorithms (Fig. 12).
    WithNaive,
    /// The four proposed algorithms only (Figs. 13–17).
    Proposed,
}

/// Time the four (or five) algorithms on one workload at one k, with
/// preprocessing excluded (the paper reports it separately in Table 3).
fn run_algorithms(w: &Workload, k: usize, set: AlgoSet) -> Vec<(&'static str, f64)> {
    let ds = &w.dataset;
    let mut out = Vec::new();
    if set == AlgoSet::WithNaive {
        let (_, t) = time(|| naive::naive(ds, k));
        out.push(("Naive", t));
    }
    let (_, t) = time(|| esb::esb(ds, k));
    out.push(("ESB", t));
    let queue = maxscore::maxscore_queue(ds);
    let (_, t) = time(|| ubb::ubb_with_queue(ds, k, &queue));
    out.push(("UBB", t));
    let ctx = big::BigContext::build(ds);
    let (_, t) = time(|| big::big_with(&ctx, k));
    out.push(("BIG", t));
    drop(ctx);
    let ictx = ibig::IbigContext::build(ds, &w.ibig_bins);
    let (_, t) = time(|| ibig::ibig_with(&ictx, k));
    out.push(("IBIG", t));
    out
}

fn cost_vs_k(w: &Workload, set: AlgoSet, fig: &str) -> Table {
    let mut t = Table::new(
        format!("{fig} ({}) — TKD cost vs k", w.name),
        &["k", "Naive", "ESB", "UBB", "BIG", "IBIG"],
    );
    for k in K_SWEEP {
        let times = run_algorithms(w, k, set);
        let cell = |name: &str| {
            times
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| secs(*s))
                .unwrap_or_else(|| "-".into())
        };
        t.push(vec![
            k.to_string(),
            cell("Naive"),
            cell("ESB"),
            cell("UBB"),
            cell("BIG"),
            cell("IBIG"),
        ]);
    }
    t
}

/// Fig. 12 — CPU time vs k on the three real datasets (incl. Naive).
pub fn fig12(scale: Scale, seed: u64) -> Vec<Table> {
    datasets::real_workloads(scale, seed)
        .iter()
        .map(|w| cost_vs_k(w, AlgoSet::WithNaive, "Fig. 12"))
        .collect()
}

/// Fig. 13 — CPU time vs k on IND and AC.
pub fn fig13(scale: Scale, seed: u64) -> Vec<Table> {
    [datasets::ind(scale, seed), datasets::ac(scale, seed)]
        .iter()
        .map(|w| cost_vs_k(w, AlgoSet::Proposed, "Fig. 13"))
        .collect()
}

// ---------------------------------------------------------------------------
// E7 — Table 4: incomplete-TKD vs imputation-based TKD
// ---------------------------------------------------------------------------

/// Table 4 — Jaccard distance between the incomplete-data answer and the
/// answer after matrix-factorization imputation (NBA, the paper's setup:
/// 8 factors, L2 regularization, ≤ 50 iterations).
pub fn table4(scale: Scale, seed: u64) -> Table {
    let w = datasets::nba(scale, seed);
    let imputed = factorize_impute(&w.dataset, &FactorizationConfig::default());
    let mut t = Table::new(
        "Table 4 — Jaccard distance DJ (incomplete answer vs imputed answer, NBA)",
        &["k", "DJ", "shared answers", "majority shared (DJ < 2/3)"],
    );
    for k in K_SWEEP {
        let a: Vec<ObjectId> = ubb::ubb(&w.dataset, k).ids();
        let b: Vec<ObjectId> = ubb::ubb(&imputed, k).ids();
        let dj = jaccard_distance(&a, &b);
        let shared = a.iter().filter(|id| b.contains(id)).count();
        t.push(vec![
            k.to_string(),
            format!("{dj:.3}"),
            format!("{shared}/{k}"),
            if dj < 2.0 / 3.0 {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E8–E11 — Figs. 14–17: parameter sweeps on IND and AC
// ---------------------------------------------------------------------------

/// One sweep point: label + overrides for (N, dims, missing rate, c).
type SweepPoint = (
    String,
    Option<usize>,
    Option<usize>,
    Option<f64>,
    Option<usize>,
);

fn sweep_table(
    fig: &str,
    param: &str,
    dist: Distribution,
    scale: Scale,
    seed: u64,
    values: &[SweepPoint],
) -> Table {
    let name = if dist == Distribution::Independent {
        "IND"
    } else {
        "AC"
    };
    let mut t = Table::new(
        format!("{fig} ({name}) — TKD cost vs {param} (k = {K_DEFAULT})"),
        &[param, "ESB", "UBB", "BIG", "IBIG"],
    );
    for (label, n, dims, missing, card) in values {
        let w = datasets::ind_with(scale, seed, *n, *dims, *missing, *card, dist);
        let times = run_algorithms(&w, K_DEFAULT, AlgoSet::Proposed);
        let cell = |x: &str| {
            times
                .iter()
                .find(|(nm, _)| *nm == x)
                .map(|(_, s)| secs(*s))
                .unwrap()
        };
        t.push(vec![
            label.clone(),
            cell("ESB"),
            cell("UBB"),
            cell("BIG"),
            cell("IBIG"),
        ]);
    }
    t
}

/// Fig. 14 — CPU time vs cardinality N.
pub fn fig14(scale: Scale, seed: u64) -> Vec<Table> {
    let ns: Vec<usize> = match scale {
        Scale::Quick => vec![2_000, 4_000, 6_000, 8_000, 10_000],
        Scale::Paper => vec![50_000, 100_000, 150_000, 200_000, 250_000],
    };
    let values: Vec<_> = ns
        .iter()
        .map(|&n| (format!("{}K", n / 1000), Some(n), None, None, None))
        .collect();
    [Distribution::Independent, Distribution::AntiCorrelated]
        .iter()
        .map(|&d| sweep_table("Fig. 14", "N", d, scale, seed, &values))
        .collect()
}

/// Fig. 15 — CPU time vs dimensionality.
pub fn fig15(scale: Scale, seed: u64) -> Vec<Table> {
    let values: Vec<_> = [5usize, 10, 15, 20, 25]
        .iter()
        .map(|&d| (d.to_string(), None, Some(d), None, None))
        .collect();
    [Distribution::Independent, Distribution::AntiCorrelated]
        .iter()
        .map(|&d| sweep_table("Fig. 15", "dim", d, scale, seed, &values))
        .collect()
}

/// Fig. 16 — CPU time vs missing rate σ.
pub fn fig16(scale: Scale, seed: u64) -> Vec<Table> {
    let values: Vec<_> = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40]
        .iter()
        .map(|&m| {
            (
                format!("{}%", (m * 100.0) as usize),
                None,
                None,
                Some(m),
                None,
            )
        })
        .collect();
    [Distribution::Independent, Distribution::AntiCorrelated]
        .iter()
        .map(|&d| sweep_table("Fig. 16", "missing rate", d, scale, seed, &values))
        .collect()
}

/// Fig. 17 — CPU time vs dimensional cardinality c.
pub fn fig17(scale: Scale, seed: u64) -> Vec<Table> {
    let values: Vec<_> = [50usize, 100, 200, 400, 800]
        .iter()
        .map(|&c| (c.to_string(), None, None, None, Some(c)))
        .collect();
    [Distribution::Independent, Distribution::AntiCorrelated]
        .iter()
        .map(|&d| {
            sweep_table(
                "Fig. 17",
                "dimensional cardinality",
                d,
                scale,
                seed,
                &values,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E12 — Fig. 18: pruning heuristic effectiveness
// ---------------------------------------------------------------------------

/// Fig. 18 — number of objects pruned by Heuristics 1/2/3 (IBIG) vs k, one
/// table per dataset. Counts are attributed to the first heuristic that
/// fires, as in the paper.
pub fn fig18(scale: Scale, seed: u64) -> Vec<Table> {
    let mut tables = Vec::new();
    for w in datasets::all_workloads(scale, seed) {
        let ictx = ibig::IbigContext::build(&w.dataset, &w.ibig_bins);
        let mut t = Table::new(
            format!("Fig. 18 ({}) — objects pruned per heuristic vs k", w.name),
            &["k", "Heuristic 1", "Heuristic 2", "Heuristic 3", "scored"],
        );
        for k in K_SWEEP {
            let r = ibig::ibig_with(&ictx, k);
            t.push(vec![
                k.to_string(),
                r.stats.h1_pruned.to_string(),
                r.stats.h2_pruned.to_string(),
                r.stats.h3_pruned.to_string(),
                r.stats.scored.to_string(),
            ]);
        }
        tables.push(t);
    }
    tables
}

// ---------------------------------------------------------------------------
// E13 — §4.5 optimal bin count
// ---------------------------------------------------------------------------

/// §4.5 — the closed-form optimal bin count x* (Eq. 8) against the
/// empirical argmin of the combined cost (Eq. 7).
pub fn binopt() -> Table {
    let mut t = Table::new(
        "§4.5 — optimal bin count: closed form (Eq. 8) vs empirical argmin (Eq. 7)",
        &["N", "σ", "x* (Eq. 8)", "argmin of Eq. 7"],
    );
    for (n, sigma) in [
        (100_000usize, 0.1),
        (16_000, 0.2),
        (50_000, 0.1),
        (200_000, 0.15),
        (250_000, 0.4),
    ] {
        let xstar = cost::optimal_bins(n, sigma);
        let mut best = (1usize, f64::INFINITY);
        for x in 1..=1000 {
            let c = cost::combined_cost(n, 10, sigma, x);
            if c < best.1 {
                best = (x, c);
            }
        }
        t.push(vec![
            n.to_string(),
            format!("{sigma}"),
            xstar.to_string(),
            best.0.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Ablation (beyond the paper): what each column store would occupy
// ---------------------------------------------------------------------------

/// CONCISE bytes of a binned index's columns — the §4.4 layout, measured.
fn concise_bytes(index: &BinnedBitmapIndex) -> u64 {
    CompressedColumns::<Concise>::from_binned(index).size_bytes() as u64
}

/// Ablation — the bytes of the exact index (dense) against the binned
/// index kept dense (what IBIG queries), CONCISE- and WAH-compressed (the
/// §4.4 layouts). No timings: every IBIG query reads the dense columns.
pub fn ablation_compression(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation — index column bytes: exact dense vs binned dense / CONCISE / WAH",
        &["dataset", "index", "column bytes"],
    );
    for w in [datasets::nba(scale, seed), datasets::ind(scale, seed)] {
        let exact = BitmapIndex::build(&w.dataset);
        let binned = BinnedBitmapIndex::build(&w.dataset, &w.ibig_bins);
        let wah = CompressedColumns::<Wah>::from_binned(&binned).size_bytes() as u64;
        for (variant, size) in [
            ("exact/dense", exact.size_bytes()),
            ("binned/dense", binned.size_bytes()),
            ("binned/CONCISE", concise_bytes(&binned)),
            ("binned/WAH", wah),
        ] {
            t.push(vec![w.name.into(), variant.into(), bytes(size)]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Ablation (beyond the paper): complete-data skyline peeling vs our
// algorithms at sigma = 0
// ---------------------------------------------------------------------------

/// Ablation — on complete data (σ = 0) the classical skyline-peeling TKD
/// (Papadias et al., refs \[5\]–\[7\]) and the incomplete-data algorithms
/// coincide; this quantifies what the generalization costs where the old
/// method still applies.
pub fn ablation_baseline(scale: Scale, seed: u64) -> Table {
    let w = datasets::ind_with(
        scale,
        seed,
        None,
        None,
        Some(0.0),
        None,
        Distribution::Independent,
    );
    let k = K_DEFAULT;
    let mut t = Table::new(
        "Ablation — complete-data skyline peeling vs incomplete-data algorithms (IND, σ = 0)",
        &["algorithm", "CPU time (s)", "objects scored"],
    );
    let (r, t_peel) = time(|| {
        tkd_core::complete_baseline::skyline_peel_top_k(&w.dataset, k)
            .expect("σ = 0 data is complete")
    });
    t.push(vec![
        "skyline-peel".into(),
        secs(t_peel),
        r.stats.scored.to_string(),
    ]);
    let reference = r.scores();
    let queue = maxscore::maxscore_queue(&w.dataset);
    let (r, t_ubb) = time(|| ubb::ubb_with_queue(&w.dataset, k, &queue));
    assert_eq!(r.scores(), reference, "UBB must agree at σ=0");
    t.push(vec!["UBB".into(), secs(t_ubb), r.stats.scored.to_string()]);
    let ctx = big::BigContext::build(&w.dataset);
    let (r, t_big) = time(|| big::big_with(&ctx, k));
    assert_eq!(r.scores(), reference, "BIG must agree at σ=0");
    t.push(vec!["BIG".into(), secs(t_big), r.stats.scored.to_string()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape() {
        let t = table2();
        assert_eq!(t.rows.len(), 5);
        assert!(t.render().contains("[100K]"));
    }

    #[test]
    fn binopt_matches_paper_examples() {
        let t = binopt();
        // First row: N=100K, σ=0.1 → x* = 29.
        assert_eq!(t.rows[0][2], "29");
        // Second row: N=16K, σ=0.2 → x* = 17.
        assert_eq!(t.rows[1][2], "17");
    }

    #[test]
    fn k_sweep_is_the_papers() {
        assert_eq!(K_SWEEP, [4, 8, 16, 32, 64]);
    }
}
