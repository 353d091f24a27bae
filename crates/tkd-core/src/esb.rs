//! ESB — the Extended Skyband Based algorithm (§4.1, Algorithm 1).
//!
//! Objects sharing an observation mask form a bucket in which dominance is
//! transitive; Lemma 1 shows an object outside its bucket's local k-skyband
//! is dominated by ≥ k bucket peers whose scores all exceed its own, so it
//! can never be a TKD answer. ESB therefore:
//!
//! 1. partitions `S` into buckets by bit vector;
//! 2. runs a local k-skyband per bucket; the union is the candidate set;
//! 3. computes exact scores for candidates only (pairwise against all of
//!    `S`) and returns the best `k`.

use crate::result::TkdResult;
use crate::stats::PruneStats;
use crate::topk::TopK;
use tkd_model::{dominance, stats, Dataset, ObjectId};
use tkd_skyline::complete;

/// Answer a TKD query with ESB.
pub fn esb(ds: &Dataset, k: usize) -> TkdResult {
    if k == 0 {
        // Uniform k-edge behavior: empty result, no bucket scans.
        return TkdResult::new(
            Vec::new(),
            PruneStats {
                h1_pruned: ds.len(),
                ..Default::default()
            },
        );
    }
    let candidates = esb_candidates(ds, k);
    let mut top = TopK::new(k, candidates.len());
    for &o in &candidates {
        top.offer(o, dominance::score_of(ds, o));
    }
    TkdResult::new(
        top.into_entries(),
        PruneStats {
            h1_pruned: ds.len() - candidates.len(),
            scored: candidates.len(),
            ..Default::default()
        },
    )
}

/// The candidate set `SC` of Algorithm 1 lines 2–5: the union of the local
/// k-skybands of every bucket (ascending id order).
pub fn esb_candidates(ds: &Dataset, k: usize) -> Vec<ObjectId> {
    let mut candidates = Vec::new();
    for (mask, bucket) in stats::group_by_mask(ds) {
        candidates.extend(complete::k_skyband(ds, mask, &bucket, k));
    }
    candidates.sort_unstable();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive;
    use tkd_model::fixtures;

    #[test]
    fn fig4_candidate_set() {
        // Example 1: the T2D query's candidate set has exactly 11 objects.
        let ds = fixtures::fig3_sample();
        let got: Vec<&str> = esb_candidates(&ds, 2)
            .into_iter()
            .map(|o| ds.label(o).unwrap())
            .collect();
        assert_eq!(got, fixtures::fig4_esb_candidates());
    }

    #[test]
    fn fig3_t2d_answer() {
        let ds = fixtures::fig3_sample();
        let r = esb(&ds, 2);
        let mut labels: Vec<_> = r.iter().map(|e| ds.label(e.id).unwrap()).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["A2", "C2"]);
        assert_eq!(r.kth_score(), Some(16));
        // 9 of 20 objects were pruned by the local skybands.
        assert_eq!(r.stats.h1_pruned, 9);
        assert_eq!(r.stats.scored, 11);
    }

    #[test]
    fn lemma1_candidates_cover_naive_answers() {
        // Every true top-k object must survive the candidate pruning.
        let ds = fixtures::fig3_sample();
        for k in 1..=5 {
            let candidates = esb_candidates(&ds, k);
            for e in naive(&ds, k).iter() {
                assert!(
                    candidates.contains(&e.id),
                    "k={k}: answer {} missing from ESB candidates",
                    ds.label(e.id).unwrap()
                );
            }
        }
    }

    #[test]
    fn agrees_with_naive_on_fixtures() {
        for ds in [fixtures::fig2_points(), fixtures::fig3_sample()] {
            for k in [1, 2, 3, 5, 100] {
                let a = esb(&ds, k);
                let b = naive(&ds, k);
                assert_eq!(a.scores(), b.scores(), "k={k}");
            }
        }
    }

    // k-edge behavior (k = 0, k ≥ n, empty dataset) is covered uniformly
    // for all algorithms by `tests/edge_matrix.rs`.
}
