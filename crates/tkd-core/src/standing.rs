//! Standing (continuous) TKD queries — registered top-k result sets that
//! are **re-queried per op-batch** over the artifacts the dynamic engine
//! already keeps exact, after Kosmatopoulos & Tsichlas's *Dynamic Top-k
//! Dominating Queries* applied to the incomplete-data engines of Miao et
//! al. (ICDE 2016).
//!
//! # One result path
//!
//! [`super::dynamic`] maintains the bitmap index, the incomparable sets
//! and the `(MaxScore desc, slot asc)` queue in place under every op, so
//! a full-space standing query's answer after a batch is the engine's own
//! [`super::DynamicEngine::query`] — the sequential Algorithm 4 walk,
//! ties by queue order — diffed against the previous answer. There is no
//! second traversal, no per-slot state and nothing to tune: patching the
//! result from a score cache cannot save more than the re-query it
//! replaces.
//!
//! A constrained standing query is answered on the same maintained
//! indexes by [`super::DynamicEngine::query_constrained`]: its admitted
//! rows are a scope mask that every scan and fill ANDs in, and its queue
//! is recounted inside the mask, so no row is copied. A subspace query
//! re-ranks a projection, which changes dominance itself: it re-queries
//! through [`crate::variants::subspace_top_k`] over the live snapshot,
//! taken once per batch for all subspace queries.
//!
//! # The two provable skips
//!
//! A batch in which nothing effective happened (empty, or every op failed
//! or was a semantic no-op) leaves every result standing. A subspace
//! query is additionally skipped by a batch that performed no structural
//! change (insert / delete / age-out / compaction) and rewrote no in-scope
//! dimension: its derived dataset is unchanged. Skipped batches emit an
//! empty delta with [`Notification::via_fallback`] `false` and count in
//! [`StandingStats::skipped`]; every other batch re-queries
//! ([`StandingStats::fallbacks`], `via_fallback` `true`).

use crate::query::{Algorithm, TkdQuery};
use crate::result::ResultEntry;
use crate::variants;
use std::collections::{BTreeMap, HashMap};
use tkd_model::{Dataset, ObjectId};
use tkd_skyline::constrained::Constraints;

/// Handle of a registered standing query (unique per engine, never
/// reused — duplicate registrations of the same spec get fresh ids).
pub type StandingId = u64;

/// What a standing query asks for: the continuous analogue of
/// [`crate::EngineQuery`], plus an optional subspace or constraint.
#[derive(Clone, Debug, PartialEq)]
pub struct StandingSpec {
    /// How many dominating objects to maintain.
    pub k: usize,
    /// BIG or IBIG — the engines the dynamic layer serves.
    pub algorithm: Algorithm,
    /// Rank inside this dimension subset (strictly increasing indices);
    /// `None` = the full space. Subspace queries re-rank over a projected
    /// dataset through [`crate::variants`].
    pub subspace: Option<Vec<usize>>,
    /// Per-dimension inclusive range constraints `(dim, lo, hi)`; empty =
    /// unconstrained. Constrained queries rank the admitted
    /// sub-population over the full space, so every dimension is in scope.
    pub constraint: Vec<(usize, f64, f64)>,
}

impl StandingSpec {
    /// A full-space top-`k` standing query answered by BIG.
    pub fn new(k: usize) -> Self {
        StandingSpec {
            k,
            algorithm: Algorithm::Big,
            subspace: None,
            constraint: Vec::new(),
        }
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Rank inside a dimension subset.
    pub fn subspace(mut self, dims: Vec<usize>) -> Self {
        self.subspace = Some(dims);
        self
    }

    /// Constrain `dim` to the inclusive range `[lo, hi]` (last range per
    /// dimension wins, matching [`Constraints::with_range`]).
    pub fn constrain(mut self, dim: usize, lo: f64, hi: f64) -> Self {
        self.constraint.push((dim, lo, hi));
        self
    }

    /// Validate against an engine of dimensionality `dims`. Returns a
    /// human-readable description of the first violation.
    pub(crate) fn validate(&self, dims: usize) -> Result<(), String> {
        if !matches!(self.algorithm, Algorithm::Big | Algorithm::Ibig) {
            return Err(format!(
                "standing queries run on BIG/IBIG, not {:?}",
                self.algorithm
            ));
        }
        if let Some(sub) = &self.subspace {
            if sub.is_empty() {
                return Err("subspace is empty".into());
            }
            if sub.windows(2).any(|w| w[0] >= w[1]) {
                return Err("subspace dimensions must be strictly increasing".into());
            }
            if let Some(&d) = sub.iter().find(|&&d| d >= dims) {
                return Err(format!(
                    "subspace dimension {d} is out of range (dims = {dims})"
                ));
            }
            if !self.constraint.is_empty() {
                return Err("subspace and constraint cannot be combined".into());
            }
        }
        for &(d, lo, hi) in &self.constraint {
            if d >= dims {
                return Err(format!(
                    "constraint dimension {d} is out of range (dims = {dims})"
                ));
            }
            if lo.is_nan() || hi.is_nan() {
                return Err(format!("constraint on dimension {d} has NaN bounds"));
            }
            if lo > hi {
                return Err(format!(
                    "constraint on dimension {d} is the empty range [{lo}, {hi}]"
                ));
            }
        }
        Ok(())
    }

    /// Bitmask of the dimensions whose mutation can change this query's
    /// answer without a structural (insert/delete/compaction) change.
    pub(crate) fn scope_mask(&self) -> u64 {
        match &self.subspace {
            // Full-space and constrained queries judge dominance over
            // the full space: everything is in scope.
            None => u64::MAX,
            Some(dims) => dims.iter().fold(0u64, |m, &d| m | (1u64 << d)),
        }
    }

    /// The spec's ranges as [`Constraints`] over `dims` dimensions.
    pub(crate) fn constraints(&self, dims: usize) -> Constraints {
        let mut c = Constraints::none(dims);
        for &(d, lo, hi) in &self.constraint {
            c = c.with_range(d, lo, hi);
        }
        c
    }
}

/// One standing query's result delta after an op batch. Exactly one
/// notification per registered query per batch is emitted — empty deltas
/// included — so subscribers can detect lost or duplicated pushes by
/// sequence continuity alone.
#[derive(Clone, Debug, PartialEq)]
pub struct Notification {
    /// Which standing query.
    pub id: StandingId,
    /// The engine's batch sequence number (monotonic across
    /// [`super::DynamicEngine::apply_ops`] calls).
    pub batch_seq: u64,
    /// Entries that entered the top-k (stable ids, exact scores).
    pub added: Vec<ResultEntry>,
    /// Ids that left the top-k.
    pub removed: Vec<ObjectId>,
    /// Entries that stayed but whose score changed.
    pub rescored: Vec<ResultEntry>,
    /// The k-th (smallest maintained) score after the batch — the
    /// paper's `τ`; `None` while the result holds fewer than 1 entry.
    pub kth_score: Option<usize>,
    /// Did this batch re-query (`true`), or was it provably unable to
    /// change the result and skipped (`false`)?
    pub via_fallback: bool,
}

impl Notification {
    /// Is this an empty delta (the result set did not change)?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.rescored.is_empty()
    }
}

/// Lifetime counters of one standing query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StandingStats {
    /// Batches this query was maintained across.
    pub batches: u64,
    /// Always 0: there is no patch path. Kept because the frozen
    /// `benchmark/` package reads it; leaves with `core.standing_patched`
    /// in the next `benchmark` PR.
    pub patched: u64,
    /// Batches answered by a re-query.
    pub fallbacks: u64,
    /// Batches provably unable to change the result (scope untouched, or
    /// nothing effective happened) — no re-query.
    pub skipped: u64,
}

/// One registered query: its spec, its current result (stable ids,
/// sorted by score desc then id asc), and its counters.
#[derive(Clone, Debug)]
pub(crate) struct StandingQuery {
    pub(crate) spec: StandingSpec,
    pub(crate) result: Vec<ResultEntry>,
    pub(crate) stats: StandingStats,
}

/// The engine-side registry plus the per-batch counters behind the two
/// provable skips. Dormant (no per-op bookkeeping) until the first query
/// registers.
#[derive(Debug, Default)]
pub(crate) struct StandingState {
    pub(crate) queries: BTreeMap<StandingId, StandingQuery>,
    pub(crate) next_id: StandingId,
    pub(crate) batch_seq: u64,
    /// Dimensions touched by `Set` ops this batch.
    pub(crate) touched_dims: u64,
    /// Inserts + deletes (age-outs included) + compactions this batch.
    pub(crate) structural: usize,
    /// All effective ops this batch (structural plus value rewrites).
    pub(crate) effective: usize,
    /// Sliding-window capacity: after each batch the oldest live objects
    /// beyond it are deleted through the normal tombstone path.
    pub(crate) window: Option<usize>,
}

impl StandingState {
    /// Is per-op bookkeeping active (any query registered)?
    #[inline]
    pub(crate) fn tracking(&self) -> bool {
        !self.queries.is_empty()
    }

    /// An insert, delete or compaction took effect.
    #[inline]
    pub(crate) fn on_structural(&mut self) {
        if self.tracking() {
            self.structural += 1;
            self.effective += 1;
        }
    }

    /// A `Set` op rewrote a cell of `dim`.
    #[inline]
    pub(crate) fn on_set(&mut self, dim: usize) {
        if self.tracking() {
            self.touched_dims |= 1u64 << dim;
            self.effective += 1;
        }
    }

    /// Clear the per-batch counters (after maintenance consumed them, and
    /// at the first registration).
    pub(crate) fn reset_batch(&mut self) {
        self.touched_dims = 0;
        self.structural = 0;
        self.effective = 0;
    }
}

/// Subspace re-query over the live snapshot, returning **stable-id**
/// entries: the [`crate::variants::subspace_top_k`] call a from-scratch
/// client would make, with snapshot positions translated through
/// `live_ids` (ascending-position ↔ ascending-stable-id, so the tie order
/// carries over verbatim).
pub(crate) fn subspace_requery(
    snapshot: &Dataset,
    live_ids: &[ObjectId],
    dims: &[usize],
    spec: &StandingSpec,
) -> Vec<ResultEntry> {
    let query = TkdQuery::new(spec.k).algorithm(spec.algorithm);
    let result = variants::subspace_top_k(snapshot, dims, &query)
        .expect("subspace validated at registration");
    result
        .into_iter()
        .map(|e| ResultEntry {
            id: live_ids[e.id as usize],
            score: e.score,
        })
        .collect()
}

/// Sort entries by (score desc, id asc) — the result-order contract.
pub(crate) fn sort_entries(mut entries: Vec<ResultEntry>) -> Vec<ResultEntry> {
    entries.sort_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
    entries
}

/// Diff two result sets into `(added, removed, rescored)`, each in
/// result order (added/rescored follow `new`'s order, removed follows
/// `old`'s).
pub(crate) fn diff(
    old: &[ResultEntry],
    new: &[ResultEntry],
) -> (Vec<ResultEntry>, Vec<ObjectId>, Vec<ResultEntry>) {
    let old_scores: HashMap<ObjectId, usize> = old.iter().map(|e| (e.id, e.score)).collect();
    let new_ids: HashMap<ObjectId, ()> = new.iter().map(|e| (e.id, ())).collect();
    let mut added = Vec::new();
    let mut rescored = Vec::new();
    for e in new {
        match old_scores.get(&e.id) {
            None => added.push(*e),
            Some(&s) if s != e.score => rescored.push(*e),
            Some(_) => {}
        }
    }
    let removed = old
        .iter()
        .filter(|e| !new_ids.contains_key(&e.id))
        .map(|e| e.id)
        .collect();
    (added, removed, rescored)
}

/// Re-apply a notification to a previous result set, returning the new
/// one — the subscriber-side reconstruction the differential harness and
/// the serve stress test use to prove deltas are lossless.
pub fn apply_notification(previous: &[ResultEntry], note: &Notification) -> Vec<ResultEntry> {
    let mut by_id: BTreeMap<ObjectId, usize> = previous.iter().map(|e| (e.id, e.score)).collect();
    for id in &note.removed {
        by_id.remove(id);
    }
    for e in note.added.iter().chain(note.rescored.iter()) {
        by_id.insert(e.id, e.score);
    }
    sort_entries(
        by_id
            .into_iter()
            .map(|(id, score)| ResultEntry { id, score })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: ObjectId, score: usize) -> ResultEntry {
        ResultEntry { id, score }
    }

    #[test]
    fn diff_and_reconstruction_roundtrip() {
        let old = vec![e(1, 9), e(2, 7), e(3, 7)];
        let new = vec![e(4, 8), e(1, 8), e(3, 7)];
        let (added, removed, rescored) = diff(&old, &new);
        assert_eq!(added, vec![e(4, 8)]);
        assert_eq!(removed, vec![2]);
        assert_eq!(rescored, vec![e(1, 8)]);
        let note = Notification {
            id: 0,
            batch_seq: 1,
            added,
            removed,
            rescored,
            kth_score: Some(7),
            via_fallback: false,
        };
        assert_eq!(apply_notification(&old, &note), sort_entries(new));
        assert!(!note.is_empty());
    }

    #[test]
    fn spec_validation() {
        assert!(StandingSpec::new(3).validate(4).is_ok());
        assert!(StandingSpec::new(3)
            .algorithm(Algorithm::Naive)
            .validate(4)
            .is_err());
        assert!(StandingSpec::new(3).subspace(vec![]).validate(4).is_err());
        assert!(StandingSpec::new(3)
            .subspace(vec![1, 1])
            .validate(4)
            .is_err());
        assert!(StandingSpec::new(3).subspace(vec![4]).validate(4).is_err());
        assert!(StandingSpec::new(3)
            .subspace(vec![0, 2])
            .validate(4)
            .is_ok());
        assert!(StandingSpec::new(3)
            .subspace(vec![0])
            .constrain(1, 0.0, 1.0)
            .validate(4)
            .is_err());
        assert!(StandingSpec::new(3)
            .constrain(4, 0.0, 1.0)
            .validate(4)
            .is_err());
        assert!(StandingSpec::new(3)
            .constrain(1, 2.0, 1.0)
            .validate(4)
            .is_err());
        assert!(StandingSpec::new(3)
            .constrain(1, f64::NAN, 1.0)
            .validate(4)
            .is_err());
        assert!(StandingSpec::new(3)
            .constrain(1, 0.0, 1.0)
            .validate(4)
            .is_ok());
    }

    #[test]
    fn scope_masks() {
        assert_eq!(StandingSpec::new(1).scope_mask(), u64::MAX);
        assert_eq!(
            StandingSpec::new(1).subspace(vec![0, 2]).scope_mask(),
            0b101
        );
        assert_eq!(
            StandingSpec::new(1).constrain(1, 0.0, 1.0).scope_mask(),
            u64::MAX
        );
    }
}
