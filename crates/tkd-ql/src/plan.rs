//! The executable logical plan, dataset statistics, and the cost-based
//! algorithm choice (the paper's §4.5 model, Eq. 5–8, applied as a
//! planner rule).

use std::fmt;
use tkd_core::Algorithm;
use tkd_model::{Dataset, ObjectId};

/// A per-dimension inclusive value range pushed down from `WHERE`.
///
/// `lo > hi` is a *contradictory* range: no observed value satisfies it,
/// so it admits exactly the objects missing that dimension (every
/// conjunct is vacuously true on a missing value — the paper's "no
/// assumption about missing values").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DimRange {
    /// 0-based dimension.
    pub dim: usize,
    /// Inclusive lower bound (`-inf` = unbounded).
    pub lo: f64,
    /// Inclusive upper bound (`+inf` = unbounded).
    pub hi: f64,
}

impl DimRange {
    /// Whether no observed value can satisfy the range.
    pub fn is_contradiction(&self) -> bool {
        self.lo > self.hi
    }
}

impl fmt::Display for DimRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_contradiction() {
            return write!(
                f,
                "d{} in ∅ (contradiction; admits missing-d{} only)",
                self.dim + 1,
                self.dim + 1
            );
        }
        match (self.lo == f64::NEG_INFINITY, self.hi == f64::INFINITY) {
            (true, true) => write!(f, "d{} unconstrained", self.dim + 1),
            (true, false) => write!(f, "d{} <= {}", self.dim + 1, self.hi),
            (false, true) => write!(f, "d{} >= {}", self.dim + 1, self.lo),
            (false, false) => write!(f, "d{} in [{}, {}]", self.dim + 1, self.lo, self.hi),
        }
    }
}

/// How the executor picks the algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoChoice {
    /// `USING <name>` fixed it.
    Fixed(Algorithm),
    /// No `USING` clause — resolve by cost on the derived dataset at
    /// execution (and EXPLAIN) time, via [`resolve_algorithm`].
    Auto,
}

/// The optimized logical plan: everything the executor needs, fully
/// resolved except for the cost-based algorithm choice (which depends on
/// the data the plan eventually runs against).
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Render the plan instead of running it.
    pub explain: bool,
    /// Register a standing query instead of running once.
    pub subscribe: bool,
    /// Top-k count.
    pub k: usize,
    /// `FROM 'path'` — resolved by the caller, not the executor.
    pub from: Option<String>,
    /// Projection onto these dimensions (strictly increasing), if any.
    pub subspace: Option<Vec<usize>>,
    /// Pushed-down per-dimension ranges, at most one per dimension,
    /// sorted by dimension (the pre-ANDed intersection of all `WHERE`
    /// conjuncts).
    pub ranges: Vec<DimRange>,
    /// Fixed or cost-based algorithm.
    pub algo: AlgoChoice,
    /// Worker threads for BIG/IBIG.
    pub threads: usize,
    /// Sliding-window capacity (subscriptions).
    pub window: Option<usize>,
    /// IBIG bin count per dimension (one-shot).
    pub bins: Option<usize>,
    /// Dimensionality the plan was bound against.
    pub dims: usize,
}

/// Statistics of the (derived) dataset a query will run against — the
/// inputs of the §4.5 cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanStats {
    /// Object count `N`.
    pub n: usize,
    /// Dimensionality `d`.
    pub dims: usize,
    /// Missing rate `σ ∈ [0, 1]`.
    pub sigma: f64,
    /// Distinct observed values `Vᵢ` per dimension.
    pub distinct: Vec<usize>,
}

impl PlanStats {
    /// Measure `ds`: [`PlanStats::of_rows`] over all its rows.
    pub fn of(ds: &Dataset) -> Self {
        Self::of_rows(ds, ds.ids())
    }

    /// Measure the rows `rows` of `ds` as if they were a dataset of their
    /// own, without copying them out: one radix-sorted column per
    /// dimension ([`tkd_index::for_each_sorted_column_of`]), whose length
    /// is the dimension's observed cells and whose equal-value runs are
    /// its distinct values — −0.0 and 0.0 one value, as in the indexes.
    pub fn of_rows(ds: &Dataset, rows: impl Iterator<Item = ObjectId> + Clone) -> Self {
        let dims = ds.dims();
        let n = rows.clone().count();
        let mut observed = 0;
        let mut distinct = Vec::with_capacity(dims);
        tkd_index::for_each_sorted_column_of(ds, rows, |_, column| {
            observed += column.len();
            distinct.push(column.chunk_by(|a, b| a.0 == b.0).count());
        });
        Self::of_counts(n, dims, observed, distinct)
    }

    /// The statistics of `n` rows over `dims` dimensions holding
    /// `observed` observed cells and `distinct[i]` distinct values in
    /// dimension `i` — how an engine statement reports the rows it ranks
    /// from counts taken in place.
    pub(crate) fn of_counts(n: usize, dims: usize, observed: usize, distinct: Vec<usize>) -> Self {
        let cells = n * dims;
        let sigma = if cells == 0 {
            0.0
        } else {
            (cells - observed) as f64 / cells as f64
        };
        PlanStats {
            n,
            dims,
            sigma,
            distinct,
        }
    }
}

/// The resolved algorithm plus the numbers that chose it, so EXPLAIN can
/// show its work.
#[derive(Clone, Debug, PartialEq)]
pub struct AlgoDecision {
    /// What will run.
    pub algorithm: Algorithm,
    /// One line of justification.
    pub rationale: String,
}

/// Cost-based algorithm selection on `stats` (the derived dataset).
///
/// The rule, from the paper's §4.5 space/time model:
///
/// * `σN ≤ 2` — the model degenerates (the bitmap machinery has almost no
///   incomplete rows to help with): pick UBB, the best index-free bound
///   method; on a dynamic engine (`engine_only`), which serves only the
///   bitmap algorithms, pick BIG.
/// * otherwise compare Eq. 7 combined costs: BIG keeps one bitmap per
///   distinct value (space `N·Σ(Vᵢ+1)` bits, time Eq. 6 with exact bins
///   `x = ⌈σN⌉`) against IBIG at the Eq. 8 optimum `x*` (space Eq. 5,
///   time Eq. 6). The smaller product wins.
///
/// Both EXPLAIN and execution call this one function on the same stats,
/// so the printed choice is by construction the executed choice.
pub fn resolve_algorithm(stats: &PlanStats, engine_only: bool) -> AlgoDecision {
    use tkd_index::cost;
    let sn = stats.sigma * stats.n as f64;
    if sn <= 2.0 {
        let algorithm = if engine_only {
            Algorithm::Big
        } else {
            Algorithm::Ubb
        };
        return AlgoDecision {
            algorithm,
            rationale: format!("σN = {sn:.2} ≤ 2: cost model degenerate, default {algorithm:?}"),
        };
    }
    let x_big = (sn.ceil() as usize).max(1);
    let space_big: u64 = stats
        .distinct
        .iter()
        .map(|&v| stats.n as u64 * (v as u64 + 1))
        .sum();
    let time_big = cost::query_cost(stats.n, stats.dims, stats.sigma, x_big);
    let big_cost = space_big as f64 * time_big;
    let x_star = cost::optimal_bins(stats.n, stats.sigma);
    let ibig_cost = cost::combined_cost(stats.n, stats.dims, stats.sigma, x_star);
    let algorithm = if big_cost <= ibig_cost {
        Algorithm::Big
    } else {
        Algorithm::Ibig
    };
    AlgoDecision {
        algorithm,
        rationale: format!(
            "Eq.7 combined cost: BIG {big_cost:.3e} (exact bins) vs IBIG {ibig_cost:.3e} \
             (x* = {x_star}); {algorithm:?} wins"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_model::fixtures;

    #[test]
    fn stats_of_fig3() {
        let s = PlanStats::of(&fixtures::fig3_sample());
        assert_eq!(s.n, 20);
        assert_eq!(s.dims, 4);
        assert!(s.sigma > 0.0 && s.sigma < 1.0);
        assert_eq!(s.distinct.len(), 4);
    }

    #[test]
    fn row_set_stats_equal_the_selected_dataset() {
        let ds = fixtures::fig3_sample();
        for rows in [vec![0, 3, 4, 9, 15, 19], vec![7], vec![]] {
            assert_eq!(
                PlanStats::of_rows(&ds, rows.iter().copied()),
                PlanStats::of(&ds.select(&rows)),
                "{rows:?}"
            );
        }
    }

    /// Distinct values are counted as the indexes count them: ties once,
    /// −0.0 and 0.0 as one value, ±∞ as values of their own, and an
    /// entirely missing dimension as none.
    #[test]
    fn distinct_counts_ties_signed_zeros_infinities_and_missing_dimensions() {
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        let rows = [
            vec![Some(-0.0), Some(inf), None, Some(1.0)],
            vec![Some(0.0), Some(ninf), None, Some(1.0)],
            vec![Some(-0.0), Some(inf), None, Some(2.0)],
            vec![Some(3.0), Some(ninf), None, Some(1.0)],
            vec![None, Some(0.0), None, Some(2.0)],
        ];
        let ds = Dataset::from_rows(4, &rows).unwrap();
        let s = PlanStats::of(&ds);
        assert_eq!(s.distinct, vec![2, 3, 0, 2]);
        assert_eq!((s.n, s.dims), (5, 4));
        assert_eq!(s.sigma, 6.0 / 20.0, "4 + 5 + 0 + 5 of 20 cells observed");
        // A row subset counts only its own values.
        let s = PlanStats::of_rows(&ds, [1, 3].into_iter());
        assert_eq!(s.distinct, vec![2, 1, 0, 1]);
        assert_eq!(s.n, 2);
    }

    #[test]
    fn degenerate_picks_ubb_or_big() {
        let s = PlanStats {
            n: 100,
            dims: 3,
            sigma: 0.0,
            distinct: vec![10, 10, 10],
        };
        assert_eq!(resolve_algorithm(&s, false).algorithm, Algorithm::Ubb);
        assert_eq!(resolve_algorithm(&s, true).algorithm, Algorithm::Big);
    }

    #[test]
    fn high_cardinality_prefers_ibig() {
        // Many distinct values make BIG's per-value bitmaps expensive in
        // Eq. 7; the binned index wins.
        let s = PlanStats {
            n: 100_000,
            dims: 8,
            sigma: 0.2,
            distinct: vec![100_000; 8],
        };
        assert_eq!(resolve_algorithm(&s, false).algorithm, Algorithm::Ibig);
    }

    #[test]
    fn tiny_cardinality_prefers_big() {
        // With a handful of distinct values BIG's index is smaller than
        // any binned approximation and its scan is exact.
        let s = PlanStats {
            n: 100_000,
            dims: 8,
            sigma: 0.2,
            distinct: vec![2; 8],
        };
        assert_eq!(resolve_algorithm(&s, false).algorithm, Algorithm::Big);
    }

    #[test]
    fn range_display() {
        let r = DimRange {
            dim: 0,
            lo: 1.0,
            hi: 4.0,
        };
        assert_eq!(r.to_string(), "d1 in [1, 4]");
        let r = DimRange {
            dim: 2,
            lo: f64::NEG_INFINITY,
            hi: 0.5,
        };
        assert_eq!(r.to_string(), "d3 <= 0.5");
        let r = DimRange {
            dim: 1,
            lo: 5.0,
            hi: 3.0,
        };
        assert!(r.is_contradiction());
        assert!(r.to_string().contains("contradiction"));
    }
}
