//! UBB — the Upper Bound Based algorithm (§4.2, Algorithm 2).
//!
//! Objects are visited in descending `MaxScore` order; exact scores are
//! computed by pairwise comparison; once the k-th best exact score `τ`
//! reaches the head's upper bound, no unvisited object can beat the
//! candidates and the query terminates early (**Heuristic 1**).

use crate::maxscore::maxscore_queue;
use crate::result::TkdResult;
use crate::topk::{walk_scored, Outcome};
use tkd_model::{dominance, Dataset, ObjectId};

/// Answer a TKD query with UBB.
pub fn ubb(ds: &Dataset, k: usize) -> TkdResult {
    let queue = maxscore_queue(ds);
    ubb_with_queue(ds, k, &queue)
}

/// UBB over a precomputed priority queue (lets benchmarks account for the
/// preprocessing separately, as the paper's Table 3 does).
pub fn ubb_with_queue(ds: &Dataset, k: usize, queue: &[(ObjectId, usize)]) -> TkdResult {
    walk_scored(queue, k, |o, _| Outcome::Score(dominance::score_of(ds, o)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive;
    use tkd_model::fixtures;

    #[test]
    fn example2_early_termination() {
        // §4.2 Example 2: after scoring C2 and A2 (τ = 16), the head B2 has
        // MaxScore(B2) = 16 ≤ τ — UBB stops after only two evaluations.
        let ds = fixtures::fig3_sample();
        let r = ubb(&ds, 2);
        let mut labels: Vec<_> = r.iter().map(|e| ds.label(e.id).unwrap()).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["A2", "C2"]);
        assert_eq!(r.stats.scored, 2, "exactly C2 and A2 evaluated");
        assert_eq!(r.stats.h1_pruned, 18, "the other 18 never scored");
    }

    #[test]
    fn agrees_with_naive_on_fixtures() {
        for ds in [
            fixtures::fig2_points(),
            fixtures::fig3_sample(),
            fixtures::fig1_movies(),
        ] {
            for k in [1, 2, 3, 4, 7, 50] {
                let a = ubb(&ds, k);
                let b = naive(&ds, k);
                assert_eq!(a.scores(), b.scores(), "k={k}");
            }
        }
    }

    // k-edge behavior (k = 0, k ≥ n, empty dataset) is covered uniformly
    // for all algorithms by `tests/edge_matrix.rs`.

    #[test]
    fn accounting_is_complete() {
        let ds = fixtures::fig3_sample();
        for k in [1, 2, 8] {
            let r = ubb(&ds, k);
            assert_eq!(r.stats.total(), ds.len(), "k={k}");
        }
    }
}
