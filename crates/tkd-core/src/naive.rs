//! The Naive baseline (§4.1): exhaustive pairwise score computation.

use crate::result::{ResultEntry, TkdResult};
use crate::stats::PruneStats;
use crate::topk::TopK;
use tkd_model::{dominance, Dataset, ObjectId};

/// Answer a TKD query by computing every object's score with `O(N²·d)`
/// pairwise comparisons and keeping the best `k`.
pub fn naive(ds: &Dataset, k: usize) -> TkdResult {
    if k == 0 {
        // Nothing can enter the result: skip the quadratic scoring pass
        // (uniform k-edge behavior across all five algorithms; the skipped
        // objects are accounted as pruned-without-scoring).
        return TkdResult::new(
            Vec::new(),
            PruneStats {
                h1_pruned: ds.len(),
                ..Default::default()
            },
        );
    }
    let scores = dominance::all_scores(ds);
    let mut top = TopK::new(k, ds.len());
    for o in ds.ids() {
        top.offer(o, scores[o as usize]);
    }
    TkdResult::new(
        top.into_entries(),
        PruneStats {
            scored: ds.len(),
            ..Default::default()
        },
    )
}

/// All scores plus the full ranking (scores descending, id ascending) —
/// used by examples and by the Table 4 comparison, where the entire ranking
/// (not just the top k) is of interest.
pub fn full_ranking(ds: &Dataset) -> Vec<ResultEntry> {
    let scores = dominance::all_scores(ds);
    let mut entries: Vec<ResultEntry> = ds
        .ids()
        .map(|o: ObjectId| ResultEntry {
            id: o,
            score: scores[o as usize],
        })
        .collect();
    entries.sort_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_model::fixtures;

    #[test]
    fn t1d_on_fig2_returns_f() {
        // §3: "a T1D (k = 1) query on the dataset depicted in Fig. 2 returns
        // the result set {f}".
        let ds = fixtures::fig2_points();
        let r = naive(&ds, 1);
        assert_eq!(r.ids(), vec![ds.id_by_label("f").unwrap()]);
        assert_eq!(r.scores(), vec![3]);
    }

    #[test]
    fn t2d_on_fig3_returns_a2_c2() {
        let ds = fixtures::fig3_sample();
        let r = naive(&ds, 2);
        let mut labels: Vec<_> = r.iter().map(|e| ds.label(e.id).unwrap()).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["A2", "C2"]);
        assert_eq!(r.scores(), vec![16, 16]);
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let ds = fixtures::fig2_points();
        let r = naive(&ds, 100);
        assert_eq!(r.len(), ds.len());
        // Sorted descending.
        let s = r.scores();
        assert!(s.windows(2).all(|w| w[0] >= w[1]));
    }

    // k-edge behavior (k = 0, k ≥ n, empty dataset) is covered uniformly
    // for all algorithms by `tests/edge_matrix.rs`.

    #[test]
    fn full_ranking_is_consistent() {
        let ds = fixtures::fig3_sample();
        let ranking = full_ranking(&ds);
        assert_eq!(ranking.len(), ds.len());
        for w in ranking.windows(2) {
            assert!(w[0].score > w[1].score || (w[0].score == w[1].score && w[0].id < w[1].id));
        }
        for e in &ranking {
            assert_eq!(e.score, dominance::score_of(&ds, e.id));
        }
    }

    #[test]
    fn stats_report_full_scoring() {
        let ds = fixtures::fig3_sample();
        let r = naive(&ds, 2);
        assert_eq!(r.stats.scored, 20);
        assert_eq!(r.stats.pruned(), 0);
    }
}
