//! Synthetic stand-ins for the paper's three real datasets.
//!
//! The originals are not redistributable, so each simulator reproduces the
//! *published shape* that the paper's findings depend on:
//!
//! | Dataset | N × d | domains | missing |
//! |---|---|---|---|
//! | MovieLens | 3,700 × 60 | ratings 1–5 | 95% |
//! | NBA | 16,000 × 4 | heavy-tailed counting stats | 20% |
//! | Zillow | 200,000 × 5 | very unequal per-dim domains | 14.2% |
//!
//! All values are emitted smaller-is-better (ratings and stats are negated),
//! so a TKD query directly returns the "best" movies/players/homes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tkd_model::Dataset;

/// MovieLens-like: `n` movies rated 1–5 by `dims` audiences, ~95% missing.
///
/// Each movie has a latent quality; each audience rates a movie with
/// probability 5% (independently — audiences see few movies), with the
/// rating centred on the movie's quality. Ratings are stored negated.
pub fn movielens_like_with(n: usize, dims: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    while rows.len() < n {
        // Latent quality in [1, 5].
        let quality = 1.0 + 4.0 * rng.gen::<f64>();
        let mut row: Vec<Option<f64>> = Vec::with_capacity(dims);
        for _ in 0..dims {
            if rng.gen::<f64>() < 0.05 {
                let noise: f64 = rng.gen_range(-1.5..1.5);
                let rating = (quality + noise).round().clamp(1.0, 5.0);
                row.push(Some(-rating)); // negate: smaller is better
            } else {
                row.push(None);
            }
        }
        if row.iter().all(Option::is_none) {
            continue; // a movie nobody rated is not in the dataset
        }
        rows.push(row);
    }
    Dataset::from_rows(dims, &rows).expect("simulator emits valid rows")
}

/// MovieLens-like at the paper's scale: 3,700 movies × 60 audiences.
pub fn movielens_like(seed: u64) -> Dataset {
    movielens_like_with(3_700, 60, seed)
}

/// NBA-like: `n` player seasons × 4 counting stats (games, minutes, points,
/// offensive rebounds), correlated through a latent skill and heavy-tailed,
/// 20% missing (MCAR). Stats are stored negated (more is better).
pub fn nba_like_with(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    while rows.len() < n {
        // Latent skill, heavy-tailed: squaring a uniform skews the mass to
        // low skill with a long top tail, like real league stats.
        let skill = rng.gen::<f64>().powi(2);
        let games = (82.0 * (0.2 + 0.8 * skill) * rng.gen_range(0.5..1.0)).round();
        let minutes = (games * rng.gen_range(8.0..38.0) * (0.5 + skill)).round();
        let points = (minutes * rng.gen_range(0.2..0.7) * (0.4 + skill)).round();
        let rebounds = (games * rng.gen_range(0.2..3.5) * (0.3 + skill)).round();
        let stats = [games, minutes, points, rebounds];
        let mut row: Vec<Option<f64>> = stats.iter().map(|&s| Some(-s)).collect();
        for cell in row.iter_mut() {
            if rng.gen::<f64>() < 0.20 {
                *cell = None;
            }
        }
        if row.iter().all(Option::is_none) {
            continue;
        }
        rows.push(row);
    }
    Dataset::from_rows(4, &rows).expect("simulator emits valid rows")
}

/// NBA-like at the paper's scale: 16,000 player records.
pub fn nba_like(seed: u64) -> Dataset {
    nba_like_with(16_000, seed)
}

/// Zillow-like: `n` real-estate listings × 5 attributes with very unequal
/// domain cardinalities — bedrooms (≈6), bathrooms (≈10), living area
/// (≈35 bins), lot area (≈250 bins), price (≈1000 bins) — and 14.2%
/// missing. Counts are negated (more is better), price kept as-is
/// (cheaper is better).
pub fn zillow_like_with(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    while rows.len() < n {
        let beds = rng.gen_range(1..=6) as f64;
        let baths = (rng.gen_range(1..=10) as f64) / 2.0 + 0.5; // 1.0..=5.5 step .5
        let living = (40.0 + 10.0 * rng.gen_range(0..35) as f64) * 1.0;
        let lot = (living * rng.gen_range(1.0..8.0) / 50.0).round() * 50.0;
        let price_base = living * rng.gen_range(1.5..4.5) + beds * 20.0;
        let price = (price_base * 1000.0 / 997.0).round() * 997.0 % 997_000.0;
        let mut row = vec![
            Some(-beds),
            Some(-baths * 2.0), // back to integer grid, ~10 distinct
            Some(-living),
            Some(-lot),
            Some(price.max(1.0)),
        ];
        for cell in row.iter_mut() {
            if rng.gen::<f64>() < 0.142 {
                *cell = None;
            }
        }
        if row.iter().all(Option::is_none) {
            continue;
        }
        rows.push(row);
    }
    Dataset::from_rows(5, &rows).expect("simulator emits valid rows")
}

/// Zillow-like at the paper's scale: 200,000 listings.
pub fn zillow_like(seed: u64) -> Dataset {
    zillow_like_with(200_000, seed)
}

/// Per-dimension bin counts the paper uses for Zillow in Fig. 11c:
/// `6 / 10 / 35 / x / 1000` (the sweep varies only the lot-area dimension).
pub fn zillow_bins(x: usize) -> Vec<usize> {
    vec![6, 10, 35, x, 1000]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_model::stats;

    #[test]
    fn movielens_shape() {
        let ds = movielens_like_with(500, 60, 1);
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.dims(), 60);
        let sigma = stats::missing_rate(&ds);
        assert!((sigma - 0.95).abs() < 0.01, "σ = {sigma}");
        // Ratings are negated integers in [-5, -1].
        for o in ds.ids() {
            for d in 0..60 {
                if let Some(v) = ds.value(o, d) {
                    assert!((-5.0..=-1.0).contains(&v), "rating {v}");
                    assert_eq!(v.fract(), 0.0);
                }
            }
        }
        // Tiny per-dimension domains (≤ 5 distinct values).
        for d in 0..60 {
            assert!(stats::dimension_cardinality(&ds, d) <= 5);
        }
    }

    #[test]
    fn nba_shape() {
        let ds = nba_like_with(2000, 2);
        assert_eq!(ds.len(), 2000);
        assert_eq!(ds.dims(), 4);
        let sigma = stats::missing_rate(&ds);
        assert!((sigma - 0.20).abs() < 0.02, "σ = {sigma}");
        // Heavy-tailed: the best (most negative) points total is far from
        // the median.
        let mut pts: Vec<f64> = ds.ids().filter_map(|o| ds.value(o, 2)).collect();
        pts.sort_by(f64::total_cmp);
        let best = -pts[0];
        let median = -pts[pts.len() / 2];
        assert!(
            best > 4.0 * median,
            "no heavy tail: best={best} median={median}"
        );
    }

    #[test]
    fn zillow_shape_and_unequal_domains() {
        let ds = zillow_like_with(5000, 3);
        assert_eq!(ds.dims(), 5);
        let sigma = stats::missing_rate(&ds);
        assert!((sigma - 0.142).abs() < 0.02, "σ = {sigma}");
        let cards: Vec<usize> = (0..5)
            .map(|d| stats::dimension_cardinality(&ds, d))
            .collect();
        assert!(cards[0] <= 6, "beds {:?}", cards);
        assert!(cards[1] <= 10, "baths {:?}", cards);
        assert!(cards[2] <= 35, "living {:?}", cards);
        assert!(
            cards[3] > cards[2],
            "lot domain must dwarf living {:?}",
            cards
        );
        assert!(cards[4] > 100, "price domain must be large {:?}", cards);
    }

    #[test]
    fn simulators_are_deterministic() {
        assert_eq!(
            movielens_like_with(50, 10, 9),
            movielens_like_with(50, 10, 9)
        );
        assert_eq!(nba_like_with(50, 9), nba_like_with(50, 9));
        assert_eq!(zillow_like_with(50, 9), zillow_like_with(50, 9));
        assert_ne!(nba_like_with(50, 9), nba_like_with(50, 10));
    }

    #[test]
    fn zillow_bins_vector() {
        assert_eq!(zillow_bins(7), vec![6, 10, 35, 7, 1000]);
    }
}
