//! Standing (continuous) TKD queries — registered top-k result sets that
//! are **patched per op-batch** instead of recomputed, after the
//! answer-maintenance direction of Kosmatopoulos & Tsichlas's *Dynamic
//! Top-k Dominating Queries* applied to the incomplete-data engines of
//! Miao et al. (ICDE 2016).
//!
//! # How a patch stays bit-identical to a re-query
//!
//! The sequential drivers ([`crate::big::big_with_scratch`],
//! [`crate::ibig::ibig_with_scratch`]) are `crate::topk`'s `walk` over
//! the maintained `(MaxScore desc, slot asc)` queue, offering **exact**
//! scores to a `TopK`; Heuristics 1–3 only ever skip objects whose exact
//! score is `≤ τ`, and `TopK::offer` ignores exactly those (strict-`>`
//! displacement). So the final result set is a pure function of the queue
//! order and the exact scores — *which* offers were skipped is invisible.
//! The standing layer exploits that: it keeps a per-slot cache of exact
//! scores and runs the *same* `walk` with the cache in front of the
//! scorer (`patched_top_k` — there is no second traversal), so clean
//! slots offer their cached scores and only slots whose cache was
//! invalidated since the last batch are re-scored.
//! The result is the same TopK state sequence the from-scratch run
//! produces, entry for entry, score for score, tie for tie.
//!
//! # Which slots get invalidated
//!
//! `score(p)` changes only when the dominance relation `p ≺ x` flips for
//! some object `x` touched by an op. Any dominator `p` of `x` satisfies
//! `p[d] ≤ x[d]` on every commonly observed dimension, so `p` is a member
//! of the `live ∧ ¬column` complement scan [`super::dynamic`] already runs
//! per touched dimension to repair the `|Tᵢ|` table — and for
//! missing-value transitions the scan widens to *all* observers of the
//! dimension. The dirty set is therefore collected for free as a
//! by-product of the existing word-parallel delta scans, plus the touched
//! row itself. When the dirty fraction of the live set exceeds the
//! query's [`StandingSpec::fallback_fraction`], patching degenerates and
//! the layer falls back to a plain full re-query (counted in
//! [`StandingStats::fallbacks`] and flagged in
//! [`Notification::via_fallback`]).
//!
//! Subspace and constrained standing queries rank over a *derived*
//! dataset, where per-slot score caching does not apply; they use a
//! scope check instead — a batch that performed no structural change and
//! touched no in-scope dimension provably leaves the result unchanged —
//! and re-query through [`crate::variants`] otherwise.

use crate::query::{Algorithm, TkdQuery};
use crate::result::ResultEntry;
use crate::topk::{walk, Outcome};
use crate::variants;
use std::collections::{BTreeMap, HashMap};
use tkd_model::{Dataset, ObjectId};
use tkd_skyline::constrained::Constraints;

/// Handle of a registered standing query (unique per engine, never
/// reused — duplicate registrations of the same spec get fresh ids).
pub type StandingId = u64;

/// Cache sentinel: the slot's exact score is unknown (never computed, or
/// invalidated by the current batch's dirty scan).
pub(crate) const SCORE_UNKNOWN: u32 = u32::MAX;

/// What a standing query asks for: the continuous analogue of
/// [`crate::EngineQuery`], plus the patch/fallback tuning knob.
#[derive(Clone, Debug, PartialEq)]
pub struct StandingSpec {
    /// How many dominating objects to maintain.
    pub k: usize,
    /// BIG or IBIG — the engines the dynamic layer serves.
    pub algorithm: Algorithm,
    /// Rank inside this dimension subset (strictly increasing indices);
    /// `None` = the full space. Subspace queries re-rank over a projected
    /// dataset and therefore use scope-checked re-query, not patching.
    pub subspace: Option<Vec<usize>>,
    /// Per-dimension inclusive range constraints `(dim, lo, hi)`; empty =
    /// unconstrained. Constrained queries rank the admitted
    /// sub-population over the full space, so every dimension is in scope.
    pub constraint: Vec<(usize, f64, f64)>,
    /// Fall back to a full re-query when more than this fraction of the
    /// live set was dirtied by the batch (`0.0` = always re-query on any
    /// change, `1.0` = never fall back). Must be finite in `[0, 1]`.
    pub fallback_fraction: f64,
}

impl StandingSpec {
    /// A full-space top-`k` standing query answered by BIG, falling back
    /// to re-query above 25 % churn (the default the benchmarks use).
    pub fn new(k: usize) -> Self {
        StandingSpec {
            k,
            algorithm: Algorithm::Big,
            subspace: None,
            constraint: Vec::new(),
            fallback_fraction: 0.25,
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

    /// Set the fallback threshold.
    pub fn fallback_fraction(mut self, f: f64) -> Self {
        self.fallback_fraction = f;
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
        if !self.fallback_fraction.is_finite() || !(0.0..=1.0).contains(&self.fallback_fraction) {
            return Err(format!(
                "fallback fraction {} is not in [0, 1]",
                self.fallback_fraction
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
            // Constrained (and plain scoped-requery) queries judge
            // dominance over the full space: everything is in scope.
            None => u64::MAX,
            Some(dims) => dims.iter().fold(0u64, |m, &d| m | (1u64 << d)),
        }
    }

    /// Does this spec use the patched full-space path (as opposed to the
    /// scope-checked re-query path)?
    pub(crate) fn is_full_space(&self) -> bool {
        self.subspace.is_none() && self.constraint.is_empty()
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
    /// Did this batch take the full re-query path (fallback threshold
    /// exceeded, or a scoped query whose scope was touched)?
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
    /// Batches answered by the patched cache walk.
    pub patched: u64,
    /// Batches answered by a full re-query (threshold exceeded, or a
    /// scoped query whose scope was touched).
    pub fallbacks: u64,
    /// Batches provably unable to change the result (scope untouched, or
    /// nothing effective happened) — no walk, no re-query.
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

/// The engine-side registry plus the per-batch dirty tracking and the
/// shared exact-score cache. Dormant (empty vectors, no per-op overhead)
/// until the first query registers.
#[derive(Debug, Default)]
pub(crate) struct StandingState {
    pub(crate) queries: BTreeMap<StandingId, StandingQuery>,
    pub(crate) next_id: StandingId,
    pub(crate) batch_seq: u64,
    /// Slot → dirtied this batch (superset of slots whose exact score may
    /// have changed; collected by the `shift_t` delta scans plus the
    /// touched rows themselves).
    pub(crate) dirty: Vec<bool>,
    /// Dirtied slots, unique, in marking order — so invalidation and the
    /// live-dirt count stay O(dirt), not O(n).
    pub(crate) dirty_slots: Vec<usize>,
    /// Compaction renumbered the slots: every cache entry is invalid and
    /// every result may shift (treated as 100 % dirty).
    pub(crate) all_dirty: bool,
    /// Dimensions touched by `Set` ops this batch.
    pub(crate) touched_dims: u64,
    /// Inserts + deletes (age-outs included) + compactions this batch.
    pub(crate) structural: usize,
    /// All effective ops this batch (structural plus value rewrites).
    pub(crate) effective: usize,
    /// Slot → exact score, [`SCORE_UNKNOWN`] where never computed or
    /// invalidated. Shared across queries and algorithms — BIG and IBIG
    /// compute the same dominance score.
    pub(crate) cache: Vec<u32>,
    /// Sliding-window capacity: after each batch the oldest live objects
    /// beyond it are deleted through the normal tombstone path.
    pub(crate) window: Option<usize>,
}

impl StandingState {
    /// Is per-op dirty tracking active (any query registered)?
    #[inline]
    pub(crate) fn tracking(&self) -> bool {
        !self.queries.is_empty()
    }

    /// Mark one slot dirty (idempotent).
    #[inline]
    pub(crate) fn mark(&mut self, slot: usize) {
        if !self.dirty[slot] {
            self.dirty[slot] = true;
            self.dirty_slots.push(slot);
        }
    }

    /// A new slot was appended by an insert: it is dirty by construction.
    pub(crate) fn on_insert_slot(&mut self) {
        let slot = self.dirty.len();
        self.dirty.push(true);
        self.dirty_slots.push(slot);
        self.cache.push(SCORE_UNKNOWN);
        self.structural += 1;
        self.effective += 1;
    }

    /// Compaction renumbered every slot.
    pub(crate) fn on_compact(&mut self, n: usize) {
        self.dirty = vec![false; n];
        self.dirty_slots.clear();
        self.cache = vec![SCORE_UNKNOWN; n];
        self.all_dirty = true;
        self.structural += 1;
        self.effective += 1;
    }

    /// Size the tracking vectors for an engine of `n` slots (first
    /// registration) — everything unknown, nothing dirty.
    pub(crate) fn activate(&mut self, n: usize) {
        self.dirty = vec![false; n];
        self.dirty_slots.clear();
        self.cache = vec![SCORE_UNKNOWN; n];
        self.all_dirty = false;
        self.touched_dims = 0;
        self.structural = 0;
        self.effective = 0;
    }

    /// Drop the tracking vectors (last query unregistered).
    pub(crate) fn deactivate(&mut self) {
        self.dirty = Vec::new();
        self.dirty_slots = Vec::new();
        self.cache = Vec::new();
        self.all_dirty = false;
        self.touched_dims = 0;
        self.structural = 0;
        self.effective = 0;
    }

    /// Clear the per-batch trackers after maintenance consumed them.
    pub(crate) fn reset_batch(&mut self) {
        for &s in &self.dirty_slots {
            self.dirty[s] = false;
        }
        self.dirty_slots.clear();
        self.all_dirty = false;
        self.touched_dims = 0;
        self.structural = 0;
        self.effective = 0;
    }
}

/// The patched walk: the one Algorithm 4 traversal (`crate::topk`'s
/// `walk`) with the score cache in front of the scorer — a clean slot
/// answers with its cached exact score, a dirty/unknown one goes through
/// `score` (the engine's unchanged BIG/IBIG scorer, Heuristics 2–3 still
/// active; pruned objects stay uncached — their exact score was never
/// computed). Returns slot-id entries sorted (score desc, slot asc):
/// bit-identical to the corresponding `*_with_scratch` run by the
/// no-op-offer argument in the [module docs](self).
pub(crate) fn patched_top_k(
    queue: &[(ObjectId, usize)],
    k: usize,
    cache: &mut [u32],
    mut score: impl FnMut(ObjectId, Option<usize>) -> Outcome,
) -> Vec<ResultEntry> {
    let result = walk(queue, k, |o, tau| {
        let cached = cache[o as usize];
        if cached != SCORE_UNKNOWN {
            return Outcome::Score(cached as usize);
        }
        let outcome = score(o, tau);
        if let Outcome::Score(s) = outcome {
            debug_assert!((s as u64) < SCORE_UNKNOWN as u64);
            cache[o as usize] = s as u32;
        }
        outcome
    });
    result.entries().to_vec()
}

/// Full re-query through the unchanged sequential walk (the fallback
/// path): the cache is not consulted. Returns slot-id entries; the k
/// result scores are written back into the cache — they are exact by
/// definition.
pub(crate) fn requery_full(
    queue: &[(ObjectId, usize)],
    k: usize,
    cache: &mut [u32],
    score: impl FnMut(ObjectId, Option<usize>) -> Outcome,
) -> Vec<ResultEntry> {
    let entries = walk(queue, k, score).entries().to_vec();
    for e in &entries {
        cache[e.id as usize] = e.score as u32;
    }
    entries
}

/// Scoped (subspace / constrained) re-query over the live snapshot,
/// returning **stable-id** entries: the same [`crate::variants`] calls a
/// from-scratch client would make, with snapshot positions translated
/// through `live_ids` (ascending-position ↔ ascending-stable-id, so the
/// tie order carries over verbatim).
pub(crate) fn scoped_requery(
    snapshot: &Dataset,
    live_ids: &[ObjectId],
    spec: &StandingSpec,
) -> Vec<ResultEntry> {
    let query = TkdQuery::new(spec.k).algorithm(spec.algorithm);
    let result = if let Some(dims) = &spec.subspace {
        variants::subspace_top_k(snapshot, dims, &query)
            .expect("subspace validated at registration")
    } else {
        let mut c = Constraints::none(snapshot.dims());
        for &(d, lo, hi) in &spec.constraint {
            c = c.with_range(d, lo, hi);
        }
        variants::constrained_top_k(snapshot, &c, &query)
    };
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
        assert!(StandingSpec::new(3)
            .fallback_fraction(f64::NAN)
            .validate(4)
            .is_err());
        assert!(StandingSpec::new(3)
            .fallback_fraction(1.5)
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
