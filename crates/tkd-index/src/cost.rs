//! The §4.5 analytical space/time model and the optimal bin count (Eq. 5–8).
//!
//! The paper trades index size against query cost through the bin count `x`:
//!
//! * Eq. 5 — space: `cost_s = N · (x + 1) · d` bits;
//! * Eq. 6 — time: `cost_t = d · (log₂(σN) + ⌈σN / x⌉ − 1)`, the B+-tree
//!   descent plus the bin-interior scan that forms `nonD(o)`;
//! * Eq. 7 — combined objective: `cost = cost_s · cost_t`;
//! * Eq. 8 — its closed-form minimizer `x* = √(σN / (log₂(σN) − 1))`.
//!
//! The paper's worked examples: `x*(N=100K, σ=0.1) = 29` and
//! `x*(N=16K, σ=0.2) = 17`.
//!
//! Eq. 6 models the paper's IBIG, which scans a bin's interior in a
//! B+-tree per observed dimension. That is not this implementation's
//! cost: here the binned index is a view of the exact one
//! ([`crate::BinnedBitmapIndex`]), and a scored candidate's `nonD(o)` is
//! one fused pass of `d · ⌈N/64⌉` words whatever the bin count
//! ([`crate::BitmapIndex::residue_counts`]), as is Heuristic 2's scan. Nor
//! does Eq. 5's space stay separate: the binned columns are exact
//! columns, so an engine pays `Σᵢ (Cᵢ + 1) · N` bits at any `x`. What the
//! bin count still sets is how tight Heuristics 2 and 3 prune. The model
//! is kept as the paper's, and `x*` as the default bin count.

/// Eq. 5 — binned index size in bits for uniform bin count `x`.
pub fn space_cost_bits(n: usize, x: usize, d: usize) -> u64 {
    n as u64 * (x as u64 + 1) * d as u64
}

/// Eq. 6 — per-object score cost model (abstract units).
///
/// `sigma` is the missing rate in `[0, 1]`. Returns 0 for degenerate inputs
/// (no missing values or empty data) where the model does not apply.
pub fn query_cost(n: usize, d: usize, sigma: f64, x: usize) -> f64 {
    assert!(x >= 1, "x must be positive");
    let sn = sigma * n as f64;
    if sn <= 1.0 {
        return 0.0;
    }
    d as f64 * (sn.log2() + (sn / x as f64).ceil() - 1.0)
}

/// Eq. 7 — combined objective `cost_s × cost_t`.
pub fn combined_cost(n: usize, d: usize, sigma: f64, x: usize) -> f64 {
    space_cost_bits(n, x, d) as f64 * query_cost(n, d, sigma, x)
}

/// Eq. 8 — the closed-form optimal bin count
/// `x* = √(σN / (log₂(σN) − 1))`, rounded to the nearest integer, ≥ 1.
///
/// Returns 1 when `σN` is too small for the model (`log₂(σN) ≤ 1`).
pub fn optimal_bins(n: usize, sigma: f64) -> usize {
    let sn = sigma * n as f64;
    if sn <= 2.0 {
        return 1;
    }
    let denom = sn.log2() - 1.0;
    if denom <= 0.0 {
        return 1;
    }
    ((sn / denom).sqrt().round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples() {
        // §4.5: "for N = 100K and σ = 0.1, … the optimal bin size x = 29.
        // When N = 16K and σ = 0.2, the optimal bin size x is 17."
        assert_eq!(optimal_bins(100_000, 0.1), 29);
        assert_eq!(optimal_bins(16_000, 0.2), 17);
    }

    #[test]
    fn space_grows_with_x_and_time_shrinks() {
        let n = 100_000;
        let d = 10;
        let sigma = 0.1;
        let mut prev_space = 0;
        let mut prev_time = f64::INFINITY;
        for x in [1, 2, 4, 8, 16, 32, 64, 128] {
            let s = space_cost_bits(n, x, d);
            let t = query_cost(n, d, sigma, x);
            assert!(s > prev_space, "space must grow with x");
            assert!(t <= prev_time, "query cost must not grow with x");
            prev_space = s;
            prev_time = t;
        }
    }

    #[test]
    fn space_formula_exact() {
        assert_eq!(space_cost_bits(100, 3, 4), 100 * 4 * 4);
    }

    #[test]
    fn closed_form_is_near_the_empirical_argmin() {
        // The ceil() in Eq. 6 makes the objective piecewise constant; the
        // continuous minimizer must land within a few bins of the discrete
        // argmin of Eq. 7.
        for (n, sigma) in [(100_000, 0.1), (16_000, 0.2), (50_000, 0.3)] {
            let xstar = optimal_bins(n, sigma);
            let (mut best_x, mut best) = (1usize, f64::INFINITY);
            for x in 1..=400 {
                let c = combined_cost(n, 10, sigma, x);
                if c < best {
                    best = c;
                    best_x = x;
                }
            }
            let lo = best_x.saturating_sub(best_x / 3 + 3);
            let hi = best_x + best_x / 3 + 3;
            assert!(
                (lo..=hi).contains(&xstar),
                "x*={xstar} far from empirical argmin {best_x} (N={n}, σ={sigma})"
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(optimal_bins(0, 0.5), 1);
        assert_eq!(optimal_bins(100, 0.0), 1);
        assert_eq!(query_cost(0, 5, 0.5, 4), 0.0);
        assert_eq!(query_cost(100, 5, 0.0, 4), 0.0);
    }

    #[test]
    #[should_panic(expected = "x must be positive")]
    fn query_cost_rejects_zero_bins() {
        let _ = query_cost(100, 5, 0.5, 0);
    }
}
