//! The unified query API: pick an algorithm, run, get a [`TkdResult`].

use crate::big::BigContext;
use crate::engine::Scorer;
use crate::ibig::IbigContext;
use crate::parallel::Crew;
use crate::result::TkdResult;
use crate::{esb, naive, ubb};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tkd_index::cost;
use tkd_model::{stats, Dataset, ObjectId};

/// Which of the paper's algorithms answers the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exhaustive pairwise baseline (§4.1).
    Naive,
    /// Extended skyband based (Algorithm 1).
    Esb,
    /// Upper bound based (Algorithm 2).
    Ubb,
    /// Bitmap index guided (Algorithms 3–4).
    Big,
    /// Improved BIG on the binned index (Algorithm 5; the paper's
    /// compressed column layout is measured, not executed).
    Ibig,
}

impl Algorithm {
    /// All five algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Naive,
        Algorithm::Esb,
        Algorithm::Ubb,
        Algorithm::Big,
        Algorithm::Ibig,
    ];
}

/// Bin-count selection for IBIG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinChoice {
    /// Eq. 8's optimal `x* = √(σN / (log₂(σN) − 1))` on every dimension.
    Auto,
    /// The same fixed count on every dimension.
    Fixed(usize),
    /// Explicit per-dimension counts (e.g. Zillow's `6/10/35/x/1000`).
    PerDim(Vec<usize>),
}

impl BinChoice {
    /// The bin count this choice names for each dimension of `ds`.
    ///
    /// # Panics
    /// Panics if [`BinChoice::PerDim`] names another dimensionality.
    pub(crate) fn resolve(&self, ds: &Dataset) -> Vec<usize> {
        match self {
            BinChoice::Auto => {
                let x = cost::optimal_bins(ds.len(), stats::missing_rate(ds));
                vec![x; ds.dims()]
            }
            BinChoice::Fixed(x) => vec![(*x).max(1); ds.dims()],
            BinChoice::PerDim(v) => {
                assert_eq!(v.len(), ds.dims(), "one bin count per dimension");
                v.clone()
            }
        }
    }
}

/// Tie handling among candidates sharing the k-th score.
///
/// The paper adopts *random selection* (§3); the deterministic default
/// favours the lowest object id, which makes runs reproducible. Randomness
/// applies to the candidates the algorithm retained — bound-pruned objects
/// (whose scores never beat the threshold strictly) are not revived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieBreak {
    /// Prefer smaller object ids (deterministic; default).
    ById,
    /// Shuffle candidates tied at the k-th score with the given seed.
    Random(u64),
}

/// Builder-style TKD query (Definition 3).
///
/// ```
/// use tkd_core::{Algorithm, TkdQuery};
/// let ds = tkd_model::fixtures::fig2_points();
/// let r = TkdQuery::new(1).algorithm(Algorithm::Ubb).run(&ds);
/// assert_eq!(r.ids(), vec![ds.id_by_label("f").unwrap()]);
/// ```
#[derive(Clone, Debug)]
pub struct TkdQuery {
    k: usize,
    algorithm: Algorithm,
    bins: BinChoice,
    tie: TieBreak,
    threads: usize,
}

impl TkdQuery {
    /// A top-`k` dominating query (BIG by default — the paper's fastest
    /// configuration without the space optimization).
    pub fn new(k: usize) -> Self {
        TkdQuery {
            k,
            algorithm: Algorithm::Big,
            bins: BinChoice::Auto,
            tie: TieBreak::ById,
            threads: 1,
        }
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Select IBIG's binning (ignored by the other algorithms).
    pub fn bins(mut self, b: BinChoice) -> Self {
        self.bins = b;
        self
    }

    /// Select tie handling.
    pub fn tie_break(mut self, t: TieBreak) -> Self {
        self.tie = t;
        self
    }

    /// Worker thread count (default 1 = the sequential engines). BIG and
    /// IBIG build the one context their algorithm needs and have
    /// `threads` workers measure the candidates of its queue walk
    /// ([`crate::parallel`]) — identical to the sequential run, entries,
    /// tie order and `PruneStats`; the other algorithms stay sequential. For serving
    /// many queries against one dataset, prefer
    /// [`crate::engine::ParallelEngine`], which builds its indexes once.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    /// The query parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Execute against a dataset.
    pub fn run(&self, ds: &Dataset) -> TkdResult {
        let result = match self.algorithm {
            Algorithm::Naive => naive::naive(ds, self.k),
            Algorithm::Esb => esb::esb(ds, self.k),
            Algorithm::Ubb => ubb::ubb(ds, self.k),
            // One walk sizes no memo lane.
            Algorithm::Big => {
                let ctx = BigContext::build(ds);
                self.walk(ctx.preprocessed().queue(), ctx.scorer())
            }
            Algorithm::Ibig => {
                let bins = self.bins.resolve(ds);
                let ctx = IbigContext::build(ds, &bins);
                self.walk(ctx.preprocessed().queue(), ctx.scorer())
            }
        };
        break_ties(result, self.tie)
    }

    /// Walk `queue` with `scorer` on `threads` fresh workers — one thread
    /// is the sequential walk.
    fn walk(&self, queue: &[(ObjectId, usize)], scorer: Scorer<'_>) -> TkdResult {
        Crew::default().answer_one(self.threads, queue, self.k, &scorer)
    }
}

/// Apply `tie` to a result ordered by ascending id among ties: with
/// [`TieBreak::Random`], re-order the entries tied at the k-th score
/// pseudo-randomly (the paper's tie-break), keeping strictly better
/// entries in place.
pub(crate) fn break_ties(result: TkdResult, tie: TieBreak) -> TkdResult {
    let (TieBreak::Random(seed), Some(tau)) = (tie, result.kth_score()) else {
        return result;
    };
    let stats = result.stats;
    let mut entries: Vec<_> = result.into_iter().collect();
    let first_tie = entries.partition_point(|e| e.score > tau);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    entries[first_tie..].shuffle(&mut rng);
    TkdResult::new_ordered(entries, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkd_model::fixtures;

    #[test]
    fn all_algorithms_agree_on_fig3() {
        let ds = fixtures::fig3_sample();
        for k in [1, 2, 3, 5, 8] {
            let reference = TkdQuery::new(k).algorithm(Algorithm::Naive).run(&ds);
            for alg in Algorithm::ALL {
                let r = TkdQuery::new(k).algorithm(alg).run(&ds);
                assert_eq!(r.scores(), reference.scores(), "{alg:?} k={k}");
            }
        }
    }

    /// A context sizes the memo lane its walks read at the second walk:
    /// one walk — all `TkdQuery::run` takes — remembers nothing, the
    /// second does, and every walk answers as a fresh context's first,
    /// entries and whole `PruneStats`.
    #[test]
    fn one_walk_remembers_nothing_the_second_does() {
        let rows: Vec<Vec<Option<f64>>> = (0..400u32)
            .map(|i| {
                let h = i.wrapping_mul(2_654_435_761);
                (0..4u32)
                    .map(|d| {
                        let v = (h >> (5 * d)) % 9;
                        (d == 0 || v != 0).then_some(f64::from(v % 6))
                    })
                    .collect()
            })
            .collect();
        let ds = Dataset::from_rows(4, &rows).expect("valid rows");
        let answer = |r: TkdResult| (r.entries().to_vec(), r.stats);
        for k in [1, 8, 64] {
            let want = answer(crate::big::big_with(&BigContext::build(&ds), k));
            let ctx = BigContext::build(&ds);
            let bound = |o| ctx.index().max_bit_score_bound(o);
            for second in [false, true] {
                assert_eq!(answer(crate::big::big_with(&ctx, k)), want, "BIG k={k}");
                assert_eq!(ds.ids().any(|o| bound(o).is_some()), second, "BIG k={k}");
            }

            let want = answer(crate::ibig::ibig_with(&IbigContext::build(&ds, &[3; 4]), k));
            let ctx = IbigContext::build(&ds, &[3; 4]);
            let bound = |o| ctx.index().member_count_bound(o);
            for second in [false, true] {
                assert_eq!(answer(crate::ibig::ibig_with(&ctx, k)), want, "IBIG k={k}");
                let remembers = (0..ds.len()).any(|o| bound(o).is_some());
                assert_eq!(remembers, second, "IBIG k={k}");
            }
        }
    }

    #[test]
    fn bin_choices() {
        let ds = fixtures::fig3_sample();
        for bins in [
            BinChoice::Auto,
            BinChoice::Fixed(2),
            BinChoice::PerDim(vec![2, 2, 3, 3]),
        ] {
            let r = TkdQuery::new(2)
                .algorithm(Algorithm::Ibig)
                .bins(bins.clone())
                .run(&ds);
            assert_eq!(r.scores(), vec![16, 16], "{bins:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one bin count per dimension")]
    fn per_dim_bins_must_match_arity() {
        let ds = fixtures::fig3_sample();
        let _ = TkdQuery::new(2)
            .algorithm(Algorithm::Ibig)
            .bins(BinChoice::PerDim(vec![2]))
            .run(&ds);
    }

    #[test]
    fn random_tie_break_keeps_score_set() {
        let ds = fixtures::fig3_sample();
        let base = TkdQuery::new(5).run(&ds);
        for seed in 0..5 {
            let r = TkdQuery::new(5).tie_break(TieBreak::Random(seed)).run(&ds);
            assert_eq!(r.scores(), base.scores(), "seed {seed}");
            assert_eq!(r.len(), base.len());
        }
    }

    #[test]
    fn k_accessor() {
        assert_eq!(TkdQuery::new(7).k(), 7);
    }
}
