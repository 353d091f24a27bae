//! Dynamic updates — incremental inserts, deletes, and cell updates over
//! the bitmap-index engines, after Kosmatopoulos & Tsichlas's *Dynamic
//! Top-k Dominating Queries* brought to the incomplete-data setting of
//! Miao et al. (ICDE 2016).
//!
//! [`DynamicEngine`] **owns** its rows and maintains every
//! query-acceleration artifact in place instead of rebuilding it per
//! change. The rows are kept once, as the exact index's value slots: a
//! cell's value is its slot's entry in its dimension's value table, so
//! beside the index the engine holds only each row's observation mask,
//! its label, and the cells holding −0.0 (a table holds a zero as +0.0).
//! A value, a label, a [`DynamicEngine::snapshot`] or the stored parts
//! are materialized from those on demand. It maintains:
//!
//! * the range-encoded [`BitmapIndex`] — columns grow by appended bits,
//!   deletes clear tombstone bits (suffix-popcount tables repaired
//!   incrementally), new distinct values splice in one cloned column;
//! * the [`BinBoundaries`] that view it as the binned index — frozen
//!   between compactions and never maintained: a value above the last
//!   boundary lands in the open last bin, a never observed dimension's
//!   values share one bin, and only the per-slot pick tables follow the
//!   index's value tables when a new distinct value arrives;
//! * the shared [`Preprocessed`] artifacts — the live rows' count per
//!   observation mask, where an insert, a delete or an observedness flip
//!   moves one count (BIG and IBIG read `F(o)` only as a count, see
//!   [`crate::preprocess::MaskCounts`]), and the descending `MaxScore`
//!   queue, recounted lazily at the next query.
//!
//! The queue keeps no state of its own. `MaxScore(o) = minᵢ |Tᵢ(o)|`
//! (Lemma 2) is a rank count the exact index already holds: `|Tᵢ(o)| + 1`
//! is the live rows missing dimension `i` or at or above `o`'s value slot
//! in it. So one histogram of the live rows' value slots per dimension,
//! summed from the top, gives every row's `MaxScore` — the same recount a
//! constrained or subspace query runs over its scope — and nothing is
//! repaired per op or stored in a snapshot.
//!
//! Exactness of that queue is not an optimization — it is what makes the
//! engine **bit-identical** to rebuilding from scratch: ties at the k-th
//! score are resolved by candidate-queue order (an equal score never
//! displaces, Algorithm 2 line 7), so a merely *sound* bound would change
//! which of the tied objects survives. `tests/dynamic_parity.rs` pins
//! this equivalence across randomized op sequences × missing rates ×
//! {BIG, IBIG} × thread counts.
//!
//! Queries run through the **unchanged** scorers: BIG-Score /
//! IBIG-Score against the maintained indexes (the same scorer
//! [`crate::ParallelEngine`] runs), driven by the one queue walk of
//! `crate::topk` — with one thread the sequential walk of
//! [`crate::big::big_with_scratch`] / [`crate::ibig::ibig_with_scratch`],
//! with more the same walk whose candidates the workers of
//! [`crate::parallel`] measure, on the engine's own recycled scratches —
//! and a full-space standing query is answered by that same
//! [`DynamicEngine::query`] after every batch. IBIG scores off the exact
//! index's dense columns at its binned picks, as it does everywhere (see
//! [`crate::ibig`]); they take every tombstone, append and cell rewrite as
//! an `O(1)` bit flip, which a run-length codec could not.
//!
//! A constrained query ([`DynamicEngine::query_constrained`]) and a
//! subspace query ([`DynamicEngine::query_subspace`]) run one scoped walk:
//! the same scorers over the same indexes with one more AND operand, the
//! rows in scope as a [`RowScope`] — the admitted live rows, two column
//! reads per constrained dimension, and for a subspace `S` only those
//! observing a dimension of `S`, one read of each missing column. A
//! subspace candidate is restricted to `S`: its column picks outside `S`
//! become the all-ones column 0, and its incomparable count is the
//! projection's, read off the scope rows' count per mask inside `S` (see
//! `crate::scope`). The queue is recounted inside the
//! scope over `S` — one histogram of the scope rows' value slots — so it
//! is the queue a rebuild over the admitted, projected rows would sort,
//! and the answer is that rebuild's, tie order included.
//!
//! The same maintained state is what a cluster worker scores on: a shard
//! is one engine, and [`DynamicEngine::big_bound`] /
//! [`ibig_q_count`](DynamicEngine::ibig_q_count) /
//! [`big_partial`](DynamicEngine::big_partial) /
//! [`ibig_partial`](DynamicEngine::ibig_partial) answer for a candidate
//! shipped as raw values — the first two with the exact Heuristic-2
//! count, the last two with one per-shard term of the scorers above
//! (see [`crate::cluster`]).
//!
//! Deletes tombstone; a [`CompactionPolicy`] rebuilds the whole store —
//! re-quantiling bins and renumbering slots — once the tombstone fraction
//! crosses its threshold, bumping [`DynamicEngine::epoch`]. Object ids
//! handed out by [`DynamicEngine::insert`] are **stable across
//! compaction**: results and the mutation API speak stable ids, and the
//! internal slot renumbering is invisible.

use crate::big::{big_term, term_counts, Candidate};
use crate::engine::{walk_batch, Scorer};
use crate::maxscore::fill_queue;
use crate::parallel::Crew;
use crate::preprocess::{MaskCounts, Preprocessed};
use crate::query::{break_ties, Algorithm, BinChoice, TieBreak};
use crate::result::{ResultEntry, TkdResult};
use crate::scope::Scope;
use crate::standing::{
    self, Notification, StandingId, StandingQuery, StandingSpec, StandingState, StandingStats,
};
use crate::EngineQuery;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use tkd_bitvec::{BitVec, Tombstones};
use tkd_index::{BinBoundaries, BinnedBitmapIndex, BitmapIndex, RowScope};
use tkd_model::{Dataset, DimMask, ModelError, ObjectId};
use tkd_skyline::constrained::Constraints;

/// When the engine rebuilds itself to shed tombstones.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactionPolicy {
    /// Rebuild once `dead / total slots` exceeds this fraction.
    pub max_tombstone_fraction: f64,
    /// …but never before this many tombstones exist (tiny stores would
    /// otherwise thrash: rebuilding 10 rows to shed 3 is slower than
    /// carrying them).
    pub min_dead: usize,
}

impl Default for CompactionPolicy {
    /// Rebuild at 25 % tombstones, once at least 64 exist.
    fn default() -> Self {
        CompactionPolicy {
            max_tombstone_fraction: 0.25,
            min_dead: 64,
        }
    }
}

impl CompactionPolicy {
    /// A policy that never compacts (tests and benchmarks that want to
    /// observe tombstone behavior in isolation).
    pub fn never() -> Self {
        CompactionPolicy {
            max_tombstone_fraction: 2.0,
            min_dead: usize::MAX,
        }
    }
}

/// Construction options for [`DynamicEngine::with_options`].
#[derive(Clone, Debug)]
pub struct DynamicOptions {
    /// IBIG bin selection, re-resolved against the live data at every
    /// compaction.
    pub bins: BinChoice,
    /// Tombstone compaction policy.
    pub policy: CompactionPolicy,
}

impl Default for DynamicOptions {
    fn default() -> Self {
        DynamicOptions {
            bins: BinChoice::Auto,
            policy: CompactionPolicy::default(),
        }
    }
}

/// One update against a [`DynamicEngine`] — the op-file/batch currency of
/// `tkdq update` and `repro --exp updates`.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// Insert a row (`None` = missing cell).
    Insert(Vec<Option<f64>>),
    /// Insert a labeled row.
    InsertLabeled(String, Vec<Option<f64>>),
    /// Delete by stable id.
    Delete(ObjectId),
    /// Overwrite one cell by stable id (`None` clears it to missing).
    Set(ObjectId, usize, Option<f64>),
}

/// Why an update or dynamic query was rejected. Failed ops leave the
/// engine unchanged.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateError {
    /// Row validation failed (arity, NaN, all-missing, bad dimension).
    Model(ModelError),
    /// The id was never issued by this engine.
    UnknownId(ObjectId),
    /// The id was issued but its object has been deleted.
    Deleted(ObjectId),
    /// The dynamic engine serves the index-guided algorithms only.
    UnsupportedAlgorithm(Algorithm),
    /// A standing-query registration was invalid (bad subspace,
    /// constraint, or unsupported algorithm).
    InvalidStandingQuery(String),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Model(e) => write!(f, "{e}"),
            UpdateError::UnknownId(id) => write!(f, "unknown object id {id}"),
            UpdateError::Deleted(id) => write!(f, "object {id} was deleted"),
            UpdateError::UnsupportedAlgorithm(a) => {
                write!(f, "dynamic engine serves BIG/IBIG, not {a:?}")
            }
            UpdateError::InvalidStandingQuery(why) => {
                write!(f, "invalid standing query: {why}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<ModelError> for UpdateError {
    fn from(e: ModelError) -> Self {
        UpdateError::Model(e)
    }
}

/// The rows a scoped query ranks, measured in place
/// ([`DynamicEngine::scope_stats`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScopeStats {
    /// How many rows are in scope.
    pub rows: usize,
    /// Their observed cells in the measured dimensions.
    pub observed: usize,
    /// Distinct observed values among them, per measured dimension.
    pub distinct: Vec<usize>,
}

/// Lifetime counters of a [`DynamicEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Successful inserts.
    pub inserts: usize,
    /// Successful deletes.
    pub deletes: usize,
    /// Successful cell updates (no-op value rewrites included).
    pub cell_updates: usize,
    /// Compactions performed (policy-triggered or explicit).
    pub compactions: usize,
}

/// What [`DynamicEngine::apply_ops`] did with one op batch: whether it
/// applied, the identities it handed out or retired, and — when standing
/// queries are registered — one result-delta [`Notification`] per query.
/// A batch applies whole or not at all: a rejected batch reports only
/// its [`error`](BatchReport::error), every other field empty or zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchReport {
    /// Ops applied: `ops.len()` on success, 0 on rejection.
    pub applied: usize,
    /// Stable ids handed out by this batch's inserts, in op order.
    pub inserted_ids: Vec<ObjectId>,
    /// Stable ids deleted by sliding-window age-out (oldest first).
    pub aged_out: Vec<ObjectId>,
    /// `(index of the failing op, its error)` if the batch was rejected.
    pub error: Option<(usize, UpdateError)>,
    /// This batch's sequence number (monotonic per engine; 0 on
    /// rejection, which takes none).
    pub batch_seq: u64,
    /// One delta per registered standing query (empty deltas included).
    pub notifications: Vec<Notification>,
}

/// Borrowed view of a [`DynamicEngine`]'s state — what the snapshot
/// *writer* consumes ([`DynamicEngine::store_parts_ref`]). It lends the
/// maintained artifacts; the writer reads the stored form of
/// [`DynamicParts`], the owned currency of the *load* path, off them —
/// the rows' value tables and slot table straight off the index.
#[derive(Clone, Copy, Debug)]
pub struct DynamicPartsRef<'a> {
    /// The cells holding −0.0, as `slot · dims + dim`, ascending.
    pub neg_zeros: &'a [usize],
    /// Slot → label, when the rows are labeled.
    pub labels: Option<&'a [String]>,
    /// Slot → stable id (strictly increasing).
    pub stable_of: &'a [ObjectId],
    /// Next stable id to hand out.
    pub next_id: ObjectId,
    /// The maintained exact bitmap index.
    pub index: &'a BitmapIndex,
    /// The bin boundaries IBIG views the index through.
    pub boundaries: &'a BinBoundaries,
    /// IBIG bin selection.
    pub bins: &'a BinChoice,
    /// Tombstone compaction policy.
    pub policy: CompactionPolicy,
    /// Compaction epoch.
    pub epoch: u64,
    /// Lifetime update counters.
    pub stats: UpdateStats,
}

/// The persisted logical state of a [`DynamicEngine`] — everything
/// [`DynamicEngine::from_store_parts`] needs to resume bit-identically,
/// and nothing derivable: the exact index is derived from the value
/// tables, slots and live mask, each row's mask from its slots, the count
/// per observation mask from the live rows, and the `MaxScore` queue and
/// the scratch space are recomputed as well. The rows — all slots since
/// the last compaction, tombstoned ones included — are `values`, `slots`,
/// `neg_zeros` and `labels`.
#[derive(Clone, Debug)]
pub struct DynamicParts {
    /// Per dimension, the exact index's sorted value table, values left
    /// without holders by cell updates included.
    pub values: Vec<Vec<f64>>,
    /// Row-major `n × dims` 1-based slots into `values`, `0` = missing.
    pub slots: Vec<u32>,
    /// The cells holding −0.0, as `slot · dims + dim`, ascending; each is
    /// an observed cell whose table entry is +0.0.
    pub neg_zeros: Vec<usize>,
    /// Slot → label, when the rows are labeled (unlabeled rows of a
    /// labeled engine hold the empty string).
    pub labels: Option<Vec<String>>,
    /// One bit per slot: set while the slot is live.
    pub live: BitVec,
    /// Slot → stable id (strictly increasing).
    pub stable_of: Vec<ObjectId>,
    /// Next stable id to hand out.
    pub next_id: ObjectId,
    /// The bin boundaries over the exact index, per dimension (frozen
    /// until compaction; the view's pick tables are derived at load).
    pub boundaries: Vec<Vec<f64>>,
    /// IBIG bin selection, re-resolved at the next compaction.
    pub bins: BinChoice,
    /// Tombstone compaction policy.
    pub policy: CompactionPolicy,
    /// Compaction epoch.
    pub epoch: u64,
    /// Lifetime update counters.
    pub stats: UpdateStats,
}

/// A versioned, owning update layer over the BIG/IBIG query engines: see
/// the [module docs](self) for the maintenance strategy and the exactness
/// argument.
///
/// ```
/// use tkd_core::dynamic::DynamicEngine;
/// use tkd_core::EngineQuery;
/// use tkd_model::Dataset;
///
/// // Values are smaller-is-better: (1, 1) dominates both later rows.
/// let ds = Dataset::from_rows(2, &[vec![Some(1.0), Some(1.0)]]).unwrap();
/// let mut engine = DynamicEngine::new(ds);
/// let b = engine.insert(&[Some(2.0), None]).unwrap();
/// engine.insert(&[Some(3.0), Some(2.0)]).unwrap();
/// let top = engine.query(&EngineQuery::new(1)).unwrap();
/// assert_eq!((top.entries()[0].id, top.entries()[0].score), (0, 2));
/// engine.delete(0).unwrap(); // (2, −) now dominates (3, 2) on dim 0
/// let top = engine.query(&EngineQuery::new(1)).unwrap();
/// assert_eq!(top.entries()[0].id, b); // ids are stable across updates
/// ```
pub struct DynamicEngine {
    dims: usize,
    /// Slot → observation mask, for every slot since the last compaction,
    /// tombstones included (their rows keep their cells until
    /// compaction) — all the scorers and the batch check read of a row.
    /// Its values are its slots in `index`.
    masks: Vec<DimMask>,
    /// Slot → label, once any row is labeled (unlabeled rows hold the
    /// empty string, as a labeled [`Dataset`]'s do).
    labels: Option<Vec<String>>,
    /// The cells holding −0.0, as `slot · dims + dim`, ascending: the
    /// index keeps a zero as +0.0, so the sign is kept here.
    neg_zeros: Vec<usize>,
    /// Slot → stable id (strictly increasing, so slot order and stable-id
    /// order agree — the tie-order invariant — and an id's slot is a
    /// binary search away).
    stable_of: Vec<ObjectId>,
    next_id: ObjectId,
    index: BitmapIndex,
    /// The binned index's boundaries over `index`.
    boundaries: BinBoundaries,
    /// Maintained queue + live count per mask, lent into query contexts.
    pre: Preprocessed,
    /// The queue needs a recount before the next query.
    queue_dirty: bool,
    /// The query walks' workers: a scratch per thread and the slots they
    /// publish into, (re)sized on demand and kept between queries.
    crew: Crew,
    bins: BinChoice,
    policy: CompactionPolicy,
    epoch: u64,
    stats: UpdateStats,
    /// Standing-query registry and per-batch skip counters (dormant —
    /// zero per-op cost — until a query registers).
    standing: StandingState,
}

impl fmt::Debug for DynamicEngine {
    /// Summary form (the full artifact dump would be megabytes).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynamicEngine")
            .field("dims", &self.dims)
            .field("live", &self.len())
            .field("tombstones", &self.tombstones())
            .field("epoch", &self.epoch)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl DynamicEngine {
    /// Take ownership of `ds` and build the initial artifacts (equivalent
    /// to epoch 0's compaction).
    pub fn new(ds: Dataset) -> Self {
        Self::with_options(ds, DynamicOptions::default())
    }

    /// [`DynamicEngine::new`] with explicit binning and compaction policy.
    pub fn with_options(ds: Dataset, options: DynamicOptions) -> Self {
        let dims = ds.dims();
        let n = ds.len();
        let index = BitmapIndex::build(&Dataset::from_rows(dims, &[]).expect("valid dims"));
        let mut engine = DynamicEngine {
            dims,
            masks: Vec::new(),
            labels: None,
            neg_zeros: Vec::new(),
            stable_of: (0..n as ObjectId).collect(),
            next_id: n as ObjectId,
            boundaries: BinBoundaries::build(&index, &vec![1; dims]),
            index,
            pre: Preprocessed {
                queue: Vec::new(),
                masks: MaskCounts::default(),
            },
            queue_dirty: false,
            crew: Crew::default(),
            bins: options.bins,
            policy: options.policy,
            epoch: 0,
            stats: UpdateStats::default(),
            standing: StandingState::default(),
        };
        engine.adopt(ds);
        engine
    }

    // ----- accessors ------------------------------------------------------

    /// Dimensionality of the data space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of **live** objects.
    pub fn len(&self) -> usize {
        self.live().live_count()
    }

    /// Is the live set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tombstoned slots awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.live().dead_count()
    }

    /// Current tombstone fraction of the slot space.
    pub fn tombstone_fraction(&self) -> f64 {
        self.live().dead_fraction()
    }

    /// Compaction epoch: how many times the store has been rebuilt.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime update counters.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Is `id` a live object?
    pub fn contains(&self, id: ObjectId) -> bool {
        self.live_slot(id).is_some()
    }

    /// Value of live object `id` at `dim` (`None` = missing).
    pub fn value(&self, id: ObjectId, dim: usize) -> Result<Option<f64>, UpdateError> {
        let slot = self.slot(id)?;
        if dim >= self.dims {
            return Err(ModelError::DimensionOutOfRange {
                dim,
                dims: self.dims,
            }
            .into());
        }
        Ok(self.cell(slot, dim))
    }

    /// Label of live object `id`, if any.
    pub fn label(&self, id: ObjectId) -> Result<Option<&str>, UpdateError> {
        let slot = self.slot(id)?;
        Ok(self.labels.as_ref().map(|ls| ls[slot].as_str()))
    }

    /// Stable ids of the live objects, in insertion order.
    pub fn live_ids(&self) -> Vec<ObjectId> {
        self.live().iter_live().map(|s| self.stable_of[s]).collect()
    }

    /// A compacted copy of the live data, in insertion order (row `i`
    /// corresponds to `live_ids()[i]`) — what a rebuild-from-scratch
    /// oracle would operate on.
    pub fn snapshot(&self) -> Dataset {
        let slots: Vec<usize> = self.live().iter_live().collect();
        self.rows(&slots)
    }

    // ----- updates --------------------------------------------------------

    /// Insert a row, returning its stable id.
    ///
    /// # Errors
    /// Row validation errors ([`UpdateError::Model`]); the engine is
    /// unchanged on error.
    pub fn insert(&mut self, row: &[Option<f64>]) -> Result<ObjectId, UpdateError> {
        self.insert_inner(row, None)
    }

    /// Insert a labeled row, returning its stable id.
    ///
    /// # Errors
    /// Same as [`DynamicEngine::insert`].
    pub fn insert_labeled(
        &mut self,
        label: impl Into<String>,
        row: &[Option<f64>],
    ) -> Result<ObjectId, UpdateError> {
        self.insert_inner(row, Some(label.into()))
    }

    fn insert_inner(
        &mut self,
        row: &[Option<f64>],
        label: Option<String>,
    ) -> Result<ObjectId, UpdateError> {
        // Validated before any artifact is touched: inserts are atomic.
        let slot = self.masks.len();
        let mask = tkd_model::validate_row(self.dims, row, slot)?;
        // 1. The index (which holds the values), the row's mask, label and
        // signs, and the mask counts grow by one row.
        self.index.append_row(|d| row[d]);
        self.boundaries.sync(&self.index);
        self.masks.push(mask);
        match label {
            Some(l) => self
                .labels
                .get_or_insert_with(|| vec![String::new(); slot])
                .push(l),
            None => {
                if let Some(labels) = &mut self.labels {
                    labels.push(String::new());
                }
            }
        }
        let base = slot * self.dims;
        let zeros = (row.iter().enumerate()).filter(|&(_, &v)| v.is_some_and(is_neg_zero));
        self.neg_zeros.extend(zeros.map(|(d, _)| base + d));
        self.standing.on_structural();
        self.pre.masks.add(mask);
        // 2. Stable identity.
        let id = self.next_id;
        self.next_id += 1;
        self.stable_of.push(id);
        self.queue_dirty = true;
        self.stats.inserts += 1;
        Ok(id)
    }

    /// Delete live object `id` (tombstone now, physical removal at the
    /// next compaction).
    ///
    /// # Errors
    /// [`UpdateError::UnknownId`] / [`UpdateError::Deleted`]; the engine
    /// is unchanged on error.
    pub fn delete(&mut self, id: ObjectId) -> Result<(), UpdateError> {
        let slot = self.slot(id)?;
        self.standing.on_structural();
        self.index.tombstone_row(slot);
        self.pre.masks.remove(self.masks[slot]);
        self.queue_dirty = true;
        self.stats.deletes += 1;
        self.maybe_compact();
        Ok(())
    }

    /// Overwrite one cell of live object `id` (`None` clears it to
    /// missing, `Some` sets/overwrites it).
    ///
    /// # Errors
    /// Id errors, [`ModelError::DimensionOutOfRange`],
    /// [`ModelError::NaNValue`], and [`ModelError::AllMissingRow`] when
    /// clearing the object's only observed value. The engine is unchanged
    /// on error.
    pub fn update_value(
        &mut self,
        id: ObjectId,
        dim: usize,
        new: Option<f64>,
    ) -> Result<(), UpdateError> {
        let slot = self.slot(id)?;
        let mut mask = self.masks[slot];
        check_cell(self.dims, slot, mask, dim, new)?;
        let old = self.cell(slot, dim);
        self.stats.cell_updates += 1;
        self.set_sign(slot, dim, new);
        match (old, new) {
            (None, None) => return Ok(()),
            // IEEE-equal rewrite (covers −0.0 ↔ 0.0): every index artifact
            // treats the two identically (value tables dedup with `==`,
            // `F64Key` normalizes signed zero), so only the sign changes.
            (Some(a), Some(b)) if a == b => return Ok(()),
            _ => {}
        }
        self.standing.on_set(dim);
        self.index.set_cell(slot, dim, new);
        self.boundaries.sync(&self.index);
        // An observedness flip moves the row to another mask's count.
        if old.is_some() != new.is_some() {
            self.pre.masks.remove(mask);
            match new {
                Some(_) => mask.set(dim),
                None => mask.unset(dim),
            }
            self.pre.masks.add(mask);
            self.masks[slot] = mask;
        }
        self.queue_dirty = true;
        Ok(())
    }

    /// Apply one [`UpdateOp`]. Inserts return `Some(stable id)`.
    ///
    /// # Errors
    /// The op's own validation errors; the engine is unchanged on error.
    pub fn apply(&mut self, op: &UpdateOp) -> Result<Option<ObjectId>, UpdateError> {
        match op {
            UpdateOp::Insert(row) => self.insert(row).map(Some),
            UpdateOp::InsertLabeled(label, row) => {
                self.insert_labeled(label.clone(), row).map(Some)
            }
            UpdateOp::Delete(id) => self.delete(*id).map(|()| None),
            UpdateOp::Set(id, dim, v) => self.update_value(*id, *dim, *v).map(|()| None),
        }
    }

    // ----- standing queries -----------------------------------------------

    /// Register a standing query: its initial result is computed now (a
    /// full query), and every subsequent [`DynamicEngine::apply_ops`]
    /// batch re-queries it and reports the delta as a
    /// [`Notification`]. Duplicate registrations of the same spec are
    /// independent queries with fresh ids.
    ///
    /// # Errors
    /// [`UpdateError::InvalidStandingQuery`] for a spec naming an
    /// unsupported algorithm, an out-of-range or empty subspace, or a
    /// malformed constraint.
    pub fn register(&mut self, spec: StandingSpec) -> Result<StandingId, UpdateError> {
        spec.validate(self.dims)
            .map_err(UpdateError::InvalidStandingQuery)?;
        if !self.standing.tracking() {
            self.standing.reset_batch();
        }
        let result = self.standing_answer(&spec);
        let id = self.standing.next_id;
        self.standing.next_id += 1;
        self.standing.queries.insert(
            id,
            StandingQuery {
                spec,
                result,
                stats: StandingStats::default(),
            },
        );
        Ok(id)
    }

    /// Remove a standing query. Returns whether `id` was registered.
    pub fn unregister(&mut self, id: StandingId) -> bool {
        self.standing.queries.remove(&id).is_some()
    }

    /// The current result set of a standing query (stable ids, sorted by
    /// score desc then id asc), or `None` for an unknown id. Reflects the
    /// state as of the last [`DynamicEngine::apply_ops`] batch (or
    /// registration); direct mutation calls are folded in at the next
    /// batch.
    pub fn standing_result(&self, id: StandingId) -> Option<&[ResultEntry]> {
        self.standing.queries.get(&id).map(|q| q.result.as_slice())
    }

    /// Re-query/skip counters of a standing query.
    pub fn standing_stats(&self, id: StandingId) -> Option<StandingStats> {
        self.standing.queries.get(&id).map(|q| q.stats)
    }

    /// Ids of all registered standing queries, ascending.
    pub fn standing_ids(&self) -> Vec<StandingId> {
        self.standing.queries.keys().copied().collect()
    }

    /// Set (or clear) the sliding-window capacity: after each
    /// [`DynamicEngine::apply_ops`] batch, the **oldest** live objects —
    /// by stable id, which is insertion order — beyond the capacity are
    /// deleted through the normal tombstone + compaction machinery and
    /// reported in [`BatchReport::aged_out`].
    pub fn set_window(&mut self, capacity: Option<usize>) {
        self.standing.window = capacity;
    }

    /// The sliding-window capacity, if any.
    pub fn window(&self) -> Option<usize> {
        self.standing.window
    }

    /// Apply a batch of ops as one **maintenance unit**, whole or not at
    /// all. The whole batch is checked first: a rejected batch changes
    /// nothing — no op, no window age-out, no standing maintenance, no
    /// `batch_seq` — and reports `applied: 0` with the `(index, error)`
    /// at which applying the ops one by one would have stopped. An
    /// accepted batch runs its ops front to back, then window age-out,
    /// then standing-query maintenance: one [`Notification`] per
    /// registered standing query, empty deltas included. It is
    /// [`DynamicEngine::apply_batch`] followed, for an accepted batch, by
    /// [`DynamicEngine::maintain_standing`].
    pub fn apply_ops(&mut self, ops: &[UpdateOp]) -> BatchReport {
        let mut report = self.apply_batch(ops);
        if report.error.is_none() {
            report.notifications = self.maintain_standing();
        }
        report
    }

    /// [`DynamicEngine::apply_ops`] up to its standing-query maintenance,
    /// which an accepted batch leaves pending: the report has no
    /// notifications, and [`DynamicEngine::maintain_standing`] must run
    /// before the next batch or registration. A writer that acknowledges
    /// a batch before its standing queries are re-run calls the two
    /// apart.
    pub fn apply_batch(&mut self, ops: &[UpdateOp]) -> BatchReport {
        let mut report = BatchReport::default();
        if let Err(failed) = self.check_ops(ops) {
            report.error = Some(failed);
            return report;
        }
        let aged_out = self.age_out(ops);
        for op in ops {
            if let Some(id) = self.apply(op).expect("the batch check accepted every op") {
                report.inserted_ids.push(id);
            }
        }
        report.applied = ops.len();
        for &id in &aged_out {
            self.delete(id).expect("an aged-out id is live");
        }
        report.aged_out = aged_out;
        self.standing.batch_seq += 1;
        report.batch_seq = self.standing.batch_seq;
        report
    }

    /// Check a batch without applying anything: the `(index, error)`
    /// [`DynamicEngine::apply_ops`] rejects it with, if any (it runs this
    /// same [`check_batch`]). A writer that must make a batch durable
    /// before applying it checks first.
    ///
    /// # Errors
    /// The first failing op's index and error.
    pub fn check_ops(&self, ops: &[UpdateOp]) -> Result<(), (usize, UpdateError)> {
        let live = |id| {
            let slot = self.live_slot(id)?;
            Some((slot, self.masks[slot]))
        };
        check_batch(self.dims, self.next_id, self.masks.len(), live, ops)
    }

    /// The batch [`DynamicEngine::apply_ops`] makes of `ops` under the
    /// sliding window: `ops`, then a `Delete` of each object the window
    /// ages out after them, oldest first — `ops` itself with no window
    /// or nothing to age out. Applying it leaves this engine exactly as
    /// applying `ops` does, and it replays to the same state on an engine
    /// with no window, which is what an op log must record. `ops` must
    /// pass [`DynamicEngine::check_ops`].
    pub fn with_age_out<'a>(&self, ops: &'a [UpdateOp]) -> Cow<'a, [UpdateOp]> {
        let aged_out = self.age_out(ops);
        if aged_out.is_empty() {
            return Cow::Borrowed(ops);
        }
        let deletes = aged_out.into_iter().map(UpdateOp::Delete);
        Cow::Owned(ops.iter().cloned().chain(deletes).collect())
    }

    /// The window's one age-out rule: the stable ids to delete after
    /// `ops` so at most the window's capacity stays live, oldest first.
    /// Stable ids are insertion order, so those are the live rows, then
    /// this batch's inserts, less what the batch deletes. `ops` must pass
    /// [`DynamicEngine::check_ops`].
    fn age_out(&self, ops: &[UpdateOp]) -> Vec<ObjectId> {
        let Some(cap) = self.standing.window else {
            return Vec::new();
        };
        let mut deleted = HashSet::new();
        let mut inserted = 0;
        for op in ops {
            match op {
                UpdateOp::Insert(_) | UpdateOp::InsertLabeled(..) => inserted += 1,
                UpdateOp::Delete(id) => {
                    deleted.insert(*id);
                }
                UpdateOp::Set(..) => {}
            }
        }
        let live = self.len() + inserted - deleted.len();
        let oldest = self.live().iter_live().map(|s| self.stable_of[s]);
        let oldest = oldest.chain(self.next_id..self.next_id + inserted as ObjectId);
        oldest
            .filter(|id| !deleted.contains(id))
            .take(live.saturating_sub(cap))
            .collect()
    }

    /// Run the standing maintenance of the batch
    /// [`DynamicEngine::apply_batch`] last accepted: re-query every
    /// registered query the batch could have changed, emit the deltas —
    /// one [`Notification`] per registered query, empty deltas included —
    /// and clear the per-batch counters.
    pub fn maintain_standing(&mut self) -> Vec<Notification> {
        if !self.standing.tracking() {
            return Vec::new();
        }
        let effective = self.standing.effective > 0;
        let structural = self.standing.structural > 0;
        let touched_dims = self.standing.touched_dims;
        let seq = self.standing.batch_seq;

        let mut queries = std::mem::take(&mut self.standing.queries);
        let mut notes = Vec::with_capacity(queries.len());
        for (&id, q) in queries.iter_mut() {
            // The two provable skips: nothing effective happened, or no
            // structural change and no in-scope dimension rewritten (every
            // dimension is in scope of a full-space or constrained query).
            let requery = effective && (structural || touched_dims & q.spec.scope_mask() != 0);
            let (added, removed, rescored) = if requery {
                q.stats.fallbacks += 1;
                let new_result = self.standing_answer(&q.spec);
                let delta = standing::diff(&q.result, &new_result);
                q.result = new_result;
                delta
            } else {
                q.stats.skipped += 1;
                Default::default()
            };
            q.stats.batches += 1;
            notes.push(Notification {
                id,
                batch_seq: seq,
                added,
                removed,
                rescored,
                kth_score: q.result.last().map(|e| e.score),
                via_fallback: requery,
            });
        }
        self.standing.queries = queries;
        self.standing.reset_batch();
        notes
    }

    /// A fresh answer for `spec` in stable ids (registration and every
    /// re-queried batch): the engine's own [`DynamicEngine::query`] for a
    /// full-space spec, [`DynamicEngine::query_constrained`] for a
    /// constrained one and [`DynamicEngine::query_subspace`] for a
    /// subspace one — all on the maintained indexes.
    fn standing_answer(&mut self, spec: &StandingSpec) -> Vec<ResultEntry> {
        let q = EngineQuery {
            k: spec.k,
            algorithm: spec.algorithm,
            tie: TieBreak::ById,
        };
        let result = match &spec.subspace {
            Some(dims) => self.query_subspace(&q, dims, &Constraints::none(self.dims)),
            None if spec.constraint.is_empty() => self.query(&q),
            None => self.query_constrained(&q, &spec.constraints(self.dims)),
        };
        let result = result.expect("spec validated at registration");
        result.into_iter().collect()
    }

    // ----- queries --------------------------------------------------------

    /// Answer a query single-threaded — the sequential walk. Entry ids
    /// are **stable ids**.
    ///
    /// # Errors
    /// [`UpdateError::UnsupportedAlgorithm`] for anything but BIG/IBIG.
    pub fn query(&mut self, q: &EngineQuery) -> Result<TkdResult, UpdateError> {
        self.query_threads(q, 1)
    }

    /// Answer a query with `threads` workers measuring the candidates of
    /// one queue walk (identical results to [`DynamicEngine::query`],
    /// `PruneStats` included — the same differential guarantee
    /// [`crate::ParallelEngine`] carries; every worker measures against
    /// the one maintained index, whose live-aware paths keep tombstoned
    /// slots out of every count).
    ///
    /// # Errors
    /// [`UpdateError::UnsupportedAlgorithm`] for anything but BIG/IBIG.
    pub fn query_threads(
        &mut self,
        q: &EngineQuery,
        threads: usize,
    ) -> Result<TkdResult, UpdateError> {
        serves(q.algorithm)?;
        self.refresh();
        let binned = BinnedBitmapIndex::new(&self.index, &self.boundaries);
        let scorer = Scorer::of(q.algorithm, &self.masks, &binned, &self.pre, None);
        let result = self
            .crew
            .answer_one(threads, self.pre.queue(), q.k, &scorer);
        Ok(self.stable_result(result, q.tie))
    }

    /// Answer a **constrained** query — rank only the live rows
    /// `constraints` admits, scores counting admitted rows only
    /// ([`crate::variants::constrained_top_k`]'s semantics) — on the
    /// maintained indexes, copying no row. The admitted rows are a scope
    /// mask, `live ∧ ⋂ admitted(dimᵢ)` ([`BitmapIndex::admit`]), that
    /// every scan and fill of BIG-Score / IBIG-Score ANDs in as one more
    /// operand. Each admitted row's `MaxScore` is recounted inside the
    /// scope, so the queue, and with it the tie order, is the one a
    /// rebuild over the admitted rows sorts: entries, scores and tie order
    /// equal `constrained_top_k` over [`DynamicEngine::snapshot`] mapped
    /// through [`DynamicEngine::live_ids`], and for BIG so does every
    /// `PruneStats` counter (`tests/constrained_scope.rs`). Sequential;
    /// entry ids are **stable ids**.
    ///
    /// # Errors
    /// [`UpdateError::UnsupportedAlgorithm`] for anything but BIG/IBIG;
    /// [`ModelError::DimensionOutOfRange`] for a constraint on a
    /// dimension past [`DynamicEngine::dims`].
    pub fn query_constrained(
        &mut self,
        q: &EngineQuery,
        constraints: &Constraints,
    ) -> Result<TkdResult, UpdateError> {
        serves(q.algorithm)?;
        self.query_scoped(q, DimMask::all(self.dims), constraints)
    }

    /// Answer a **subspace** query — rank by dominance inside the
    /// dimensions `dims`, over the live rows `constraints` admits that
    /// observe at least one of them ([`crate::variants::subspace_top_k`]
    /// after admission, as a rebuild would: admit, select, project) — on
    /// the maintained indexes, copying no row. The rows in scope are
    /// `live ∧ ⋂ admitted(dimᵢ) ∧ ⋃_{d ∈ dims} observed(d)`
    /// ([`BitmapIndex::observing_any`]); every candidate's column picks
    /// outside `dims` become the all-ones column 0, and its incomparable
    /// count is the projection's, the scope rows sharing no observed
    /// dimension with it inside `dims`. The queue is recounted over
    /// `dims` inside the scope, so entries, scores and tie order equal
    /// the rebuild's, and for BIG so does every `PruneStats` counter
    /// (`tests/subspace_scope.rs`). Sequential; entry ids are **stable
    /// ids**.
    ///
    /// # Errors
    /// [`UpdateError::UnsupportedAlgorithm`] for anything but BIG/IBIG;
    /// [`ModelError::BadDimensionality`] for an empty `dims`;
    /// [`ModelError::DimensionOutOfRange`] for a dimension of `dims` or a
    /// constraint past [`DynamicEngine::dims`].
    pub fn query_subspace(
        &mut self,
        q: &EngineQuery,
        dims: &[usize],
        constraints: &Constraints,
    ) -> Result<TkdResult, UpdateError> {
        serves(q.algorithm)?;
        let dims = self.subspace_mask(dims)?;
        self.query_scoped(q, dims, constraints)
    }

    /// The one scoped walk: the sequential Algorithm 4 / 5 (`q` names
    /// BIG or IBIG) over the rows `constraints` admits that observe a
    /// dimension of `dims`, judged inside `dims`.
    fn query_scoped(
        &mut self,
        q: &EngineQuery,
        dims: DimMask,
        constraints: &Constraints,
    ) -> Result<TkdResult, UpdateError> {
        let rows = RowScope::new(self.scope_rows(dims, constraints)?);
        let queue = self.scoped_queue(rows.bits(), dims);
        let scope = Scope::new(rows, dims, &self.masks);
        let binned = BinnedBitmapIndex::new(&self.index, &self.boundaries);
        let scorer = Scorer::of(q.algorithm, &self.masks, &binned, &self.pre, Some(&scope));
        let result = self.crew.answer_one(1, &queue, q.k, &scorer);
        Ok(self.stable_result(result, q.tie))
    }

    /// The live slots `constraints` admits, ascending — every live slot
    /// for [`Constraints::none`].
    ///
    /// # Errors
    /// As [`DynamicEngine::query_constrained`].
    pub fn admitted_slots(&self, constraints: &Constraints) -> Result<Vec<ObjectId>, UpdateError> {
        let admitted = self.scope_rows(DimMask::all(self.dims), constraints)?;
        Ok(admitted.iter_ones().map(|s| s as ObjectId).collect())
    }

    /// What the rows a subspace query over `dims` ranks look like — the
    /// live rows `constraints` admits that observe a dimension of `dims`
    /// — measured where they lie, with no row copied: how many there are,
    /// how many of their cells in `dims` are observed, and how many
    /// distinct values each dimension of `dims` holds among them (`−0.0`
    /// and `0.0` count as one, as they share a value slot). Over every
    /// dimension, in order, these are a constrained query's rows.
    ///
    /// # Errors
    /// As [`DynamicEngine::query_subspace`].
    pub fn scope_stats(
        &self,
        dims: &[usize],
        constraints: &Constraints,
    ) -> Result<ScopeStats, UpdateError> {
        let mask = self.subspace_mask(dims)?;
        let rows = self.scope_rows(mask, constraints)?;
        let (layout, counts) = self.slot_histogram(&rows, mask);
        let n = rows.count_ones();
        let slots = |d: usize| {
            let &(_, base) = layout
                .iter()
                .find(|&&(e, _)| e == d)
                .expect("d is in the mask");
            &counts[base..=base + self.index.cardinality(d)]
        };
        Ok(ScopeStats {
            rows: n,
            observed: dims.iter().map(|&d| n - slots(d)[0]).sum(),
            distinct: dims
                .iter()
                .map(|&d| slots(d)[1..].iter().filter(|&&c| c > 0).count())
                .collect(),
        })
    }

    /// `dims` as a mask.
    ///
    /// # Errors
    /// [`ModelError::BadDimensionality`] for an empty `dims`;
    /// [`ModelError::DimensionOutOfRange`] for one past
    /// [`DynamicEngine::dims`].
    fn subspace_mask(&self, dims: &[usize]) -> Result<DimMask, UpdateError> {
        if dims.is_empty() {
            return Err(ModelError::BadDimensionality(0).into());
        }
        if let Some(&dim) = dims.iter().find(|&&d| d >= self.dims) {
            let dims = self.dims;
            return Err(ModelError::DimensionOutOfRange { dim, dims }.into());
        }
        Ok(DimMask::from_indices(dims.iter().copied()))
    }

    /// The live slots `constraints` admits that observe a dimension of
    /// `dims`, one bit per slot. Every row observes some dimension, so
    /// over every dimension these are the admitted live slots.
    fn scope_rows(&self, dims: DimMask, constraints: &Constraints) -> Result<BitVec, UpdateError> {
        let past = (self.dims..constraints.dims()).find(|&d| constraints.interval(d).is_some());
        if let Some(dim) = past {
            let dims = self.dims;
            return Err(ModelError::DimensionOutOfRange { dim, dims }.into());
        }
        let mut scope = self.live().live_mask().clone();
        let mut rows = BitVec::zeros(self.masks.len());
        for dim in 0..self.dims {
            if let Some((lo, hi)) = constraints.interval(dim) {
                self.index.admit(dim, lo, hi, &mut rows);
                scope.and_assign(&rows);
            }
        }
        if dims != DimMask::all(self.dims) {
            self.index.observing_any(dims, &mut rows);
            scope.and_assign(&rows);
        }
        Ok(scope)
    }

    /// A histogram of the value slots of `rows` in each dimension of
    /// `dims`: an entry `(d, base)` per dimension, whose slot `j` (`0` =
    /// missing) is bucket `base + j`, and the count of each bucket.
    fn slot_histogram(&self, rows: &BitVec, dims: DimMask) -> (Vec<(usize, usize)>, Vec<usize>) {
        let index = &self.index;
        let mut layout = Vec::with_capacity(dims.count() as usize);
        let mut len = 0;
        for d in dims.iter() {
            layout.push((d, len));
            len += index.cardinality(d) + 1;
        }
        let mut counts = vec![0usize; len];
        for s in rows.iter_ones() {
            for &(d, base) in &layout {
                counts[base + index.value_slot(s, d) as usize] += 1;
            }
        }
        (layout, counts)
    }

    /// The queue `F` of the rows in `scope` judged inside `dims`, as a
    /// rebuild over their projection sorts it: a row's `MaxScore` is the
    /// least, over its observed dimensions of `dims`, of the scope rows
    /// missing that dimension or at or above its value slot, less itself
    /// — one histogram of the scope rows' value slots per dimension of
    /// `dims`, summed from the top. Over the live rows and every
    /// dimension this is the engine's own queue.
    fn scoped_queue(&self, scope: &BitVec, dims: DimMask) -> Vec<(ObjectId, usize)> {
        let (layout, mut at_least) = self.slot_histogram(scope, dims);
        // Now `at_least[base + j]`: scope rows missing `d` (`j = 0`) or,
        // for `j ≥ 1`, at a value slot `≥ j` of `d`.
        for &(d, base) in &layout {
            let counts = &mut at_least[base..=base + self.index.cardinality(d)];
            let mut sum = counts[0];
            for c in counts[1..].iter_mut().rev() {
                sum += *c;
                *c = sum;
            }
            // A missing cell never attains the minimum.
            counts[0] = usize::MAX;
        }
        // Less the row itself, which every count of its own slots holds.
        // A scope row observes some dimension of `dims`.
        let index = &self.index;
        let max_score = |s: usize| {
            let t_row = layout
                .iter()
                .map(|&(d, base)| at_least[base + index.value_slot(s, d) as usize]);
            t_row.min().expect("a scope dimension") - 1
        };
        let mut queue = Vec::with_capacity(scope.count_ones());
        let rows = scope.iter_ones().map(|s| (s as ObjectId, max_score(s)));
        fill_queue(&mut queue, rows);
        queue
    }

    /// A slot-id result in stable ids, with `tie` applied after the
    /// mapping. `stable_of` is strictly increasing, so the (score desc,
    /// id asc) entry order is preserved verbatim.
    fn stable_result(&self, result: TkdResult, tie: TieBreak) -> TkdResult {
        let stats = result.stats;
        let entries: Vec<ResultEntry> = result
            .into_iter()
            .map(|e| ResultEntry {
                id: self.stable_of[e.id as usize],
                score: e.score,
            })
            .collect();
        break_ties(TkdResult::new_ordered(entries, stats), tie)
    }

    /// Answer a batch of concurrent queries against the live state —
    /// the coalescing path of the network server: every BIG query of the
    /// batch from one walk of the maintained queue and every IBIG query
    /// from another, each walk on `threads` workers with the engine's
    /// own recycled scratches, as [`crate::ParallelEngine::query_many`]
    /// walks. Results come back in batch order, each bit-identical
    /// (entries, scores, tie order, `PruneStats`) to running
    /// [`DynamicEngine::query`] alone, and entry ids are **stable ids**.
    ///
    /// # Errors
    /// [`UpdateError::UnsupportedAlgorithm`] if any query names anything
    /// but BIG/IBIG (the batch is rejected whole; the engine state is
    /// untouched either way — queries never mutate).
    pub fn query_many(
        &mut self,
        queries: &[EngineQuery],
        threads: usize,
    ) -> Result<Vec<TkdResult>, UpdateError> {
        for q in queries {
            serves(q.algorithm)?;
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.refresh();
        let binned = BinnedBitmapIndex::new(&self.index, &self.boundaries);
        let mut results = vec![TkdResult::default(); queries.len()];
        walk_batch(
            queries,
            &mut results,
            &mut self.crew,
            threads,
            self.pre.queue(),
            |a| Scorer::of(a, &self.masks, &binned, &self.pre, None),
        );
        // Ties by id until the slot → stable id mapping, the requested
        // tie handling after it — `query_threads`' order of operations,
        // so the two paths stay bit-identical.
        Ok(queries
            .iter()
            .zip(results)
            .map(|(q, r)| self.stable_result(r, q.tie))
            .collect())
    }

    // ----- shard scoring ---------------------------------------------------
    //
    // What a cluster worker answers about a candidate shipped as raw
    // per-dimension `values` (`None` = missing; the length must equal
    // `dims()`): one shard's share of a score that lives across processes
    // — see `crate::cluster` for why the shares add up. The candidate is
    // resolved against the maintained indexes by value, so it need not
    // live here; when it does, `member` names it by stable id and its own
    // bit is left out of its score. Nothing is built or allocated.

    /// BIG phase 1: this engine's exact `|∩ᵢ Qᵢ|` for the candidate at
    /// the exact picks, its own bit included when it is a member — the
    /// budgeted scan at budget 0, which counts without writing. Shards
    /// partition the rows, so `Σⱼ` of it is the unsharded count and the
    /// coordinator's `MaxBitScore = Σⱼ − 1` is the in-process one.
    pub fn big_bound(&self, values: &[Option<f64>]) -> usize {
        let sel = self.index.select_for(|d| values[d]);
        self.index.q_count_selected_above(&sel, 0).unwrap_or(0)
    }

    /// IBIG phase 1: the same exact count at the binned picks.
    pub fn ibig_q_count(&self, values: &[Option<f64>]) -> usize {
        let binned = BinnedBitmapIndex::new(&self.index, &self.boundaries);
        let sel = binned.select_for(|d| values[d]);
        self.index.q_count_selected_above(&sel, 0).unwrap_or(0)
    }

    /// BIG phase 2: how many of this engine's live rows the candidate
    /// dominates — one shard term of BIG-Score.
    ///
    /// # Errors
    /// [`UpdateError::UnknownId`] / [`UpdateError::Deleted`] when `member`
    /// is not a live object.
    pub fn big_partial(
        &mut self,
        values: &[Option<f64>],
        member: Option<ObjectId>,
    ) -> Result<usize, UpdateError> {
        let member = member.map(|id| self.slot(id)).transpose()?;
        let scratch = self.crew.scratch(self.masks.len());
        scratch.sel = self.index.select_for(|d| values[d]);
        let cand = shard_candidate(&self.pre.masks, values, member);
        Ok(big_term(&self.index, &cand, None, scratch))
    }

    /// IBIG phase 2: the same count at the binned picks — one shard term
    /// of IBIG-Score, which Heuristic 3 does not decide here (its budget
    /// is global; see `crate::cluster`).
    ///
    /// # Errors
    /// As [`DynamicEngine::big_partial`].
    pub fn ibig_partial(
        &mut self,
        values: &[Option<f64>],
        member: Option<ObjectId>,
    ) -> Result<usize, UpdateError> {
        let member = member.map(|id| self.slot(id)).transpose()?;
        let scratch = self.crew.scratch(self.masks.len());
        let binned = BinnedBitmapIndex::new(&self.index, &self.boundaries);
        scratch.bin_sel = binned.select_for(|d| values[d]);
        scratch.sel = self.index.select_for(|d| values[d]);
        let cand = shard_candidate(&self.pre.masks, values, member);
        Ok(term_counts(&self.index, &cand, None, scratch).score())
    }

    // ----- persistence ----------------------------------------------------

    /// Export the engine's logical state in its stored form: value
    /// tables, value slots, signs, labels and live mask in place of the
    /// artifacts derived from them.
    pub fn to_store_parts(&self) -> DynamicParts {
        let index = &self.index;
        DynamicParts {
            values: (0..self.dims).map(|d| index.values(d).to_vec()).collect(),
            slots: index.slot_table().to_vec(),
            neg_zeros: self.neg_zeros.clone(),
            labels: self.labels.clone(),
            live: self.live().live_mask().clone(),
            stable_of: self.stable_of.clone(),
            next_id: self.next_id,
            boundaries: (0..self.dims)
                .map(|d| self.boundaries.of(d).to_vec())
                .collect(),
            bins: self.bins.clone(),
            policy: self.policy,
            epoch: self.epoch,
            stats: self.stats,
        }
    }

    /// Borrowed view of the engine's state — the encode path's. It lends
    /// the maintained artifacts; the writer stores only what
    /// [`DynamicParts`] holds, reading it off them.
    pub fn store_parts_ref(&self) -> DynamicPartsRef<'_> {
        DynamicPartsRef {
            neg_zeros: &self.neg_zeros,
            labels: self.labels.as_deref(),
            stable_of: &self.stable_of,
            next_id: self.next_id,
            index: &self.index,
            boundaries: &self.boundaries,
            bins: &self.bins,
            policy: self.policy,
            epoch: self.epoch,
            stats: self.stats,
        }
    }

    /// Resume an engine from persisted parts (snapshot load) — the
    /// inverse of [`DynamicEngine::to_store_parts`]. The exact index is
    /// derived from the value tables and slots
    /// ([`BitmapIndex::from_slots`], which adopts the slot table), each
    /// row's mask from its slots, the count per observation mask from the
    /// live rows' masks, scratch is rebuilt, and the `MaxScore` queue is
    /// recounted at the first query. No value is copied out of the
    /// tables. The checks are on the parts themselves: consistent
    /// arities, the index's value tables and slots, no row without an
    /// observed cell, −0.0 positions ascending on observed zero cells,
    /// and strictly increasing stable ids below `next_id` (the tie-order
    /// invariant).
    ///
    /// # Errors
    /// A description of the first violated invariant. Bit-level integrity
    /// is the snapshot checksums' job; result-level equivalence is pinned
    /// by the round-trip parity suite.
    pub fn from_store_parts(parts: DynamicParts) -> Result<Self, String> {
        let DynamicParts {
            values,
            slots,
            neg_zeros,
            labels,
            live,
            stable_of,
            next_id,
            boundaries,
            bins,
            policy,
            epoch,
            stats,
        } = parts;
        let dims = values.len();
        let n = live.len();
        let index = BitmapIndex::from_slots(values, slots, Tombstones::from_live_mask(live))?;
        let masks: Vec<DimMask> = index.slot_table().chunks_exact(dims).map(mask_of).collect();
        if let Some(o) = masks.iter().position(|m| m.is_empty()) {
            return Err(format!("row {o} observes no dimension"));
        }
        let zero_cell = |at: usize| {
            let j = index.slot_table().get(at).map_or(0, |&j| j as usize);
            j > 0 && index.values(at % dims)[j - 1] == 0.0
        };
        let ascending = neg_zeros.windows(2).all(|w| w[0] < w[1]);
        if !ascending || !neg_zeros.iter().all(|&at| zero_cell(at)) {
            return Err("−0.0 positions out of order, out of range or not on zero cells".into());
        }
        if let Some(ls) = labels.as_ref().filter(|ls| ls.len() != n) {
            return Err(format!("{} labels for {n} slots", ls.len()));
        }
        let boundaries = BinBoundaries::from_store_parts(&index, boundaries)?;
        if stable_of.len() != n {
            return Err(format!(
                "stable-id table holds {} entries for {n} slots",
                stable_of.len()
            ));
        }
        if stable_of.windows(2).any(|w| w[0] >= w[1]) {
            return Err("stable ids are not strictly increasing".into());
        }
        if let Some(&last) = stable_of.last() {
            if last >= next_id {
                return Err(format!("stable id {last} is not below next_id {next_id}"));
            }
        }
        let live = index.tombstones().iter_live();
        let counts = MaskCounts::of(live.map(|s| masks[s]));
        Ok(DynamicEngine {
            dims,
            masks,
            labels,
            neg_zeros,
            stable_of,
            next_id,
            index,
            boundaries,
            pre: Preprocessed {
                queue: Vec::new(),
                masks: counts,
            },
            queue_dirty: true,
            crew: Crew::default(),
            bins,
            policy,
            epoch,
            stats,
            standing: StandingState::default(),
        })
    }

    // ----- compaction -----------------------------------------------------

    /// Rebuild the store from the live rows now: slots are renumbered,
    /// bins re-quantiled, tombstones dropped, the epoch bumped. Stable ids
    /// survive. (Normally policy-triggered; exposed for tests, benches,
    /// and operational control.)
    pub fn compact_now(&mut self) {
        let live: Vec<usize> = self.live().iter_live().collect();
        self.stable_of = live.iter().map(|&s| self.stable_of[s]).collect();
        let rows = self.rows(&live);
        self.crew = Crew::default();
        self.adopt(rows);
        self.epoch += 1;
        self.stats.compactions += 1;
        self.standing.on_structural();
    }

    fn maybe_compact(&mut self) {
        if self.live().dead_count() >= self.policy.min_dead
            && self.live().dead_fraction() > self.policy.max_tombstone_fraction
        {
            self.compact_now();
        }
    }

    /// Take the tombstone-free `ds` as the engine's rows — the epoch-0
    /// initialisation and the compaction tail: every maintained artifact
    /// is built from it, its masks and labels are kept by move with the
    /// positions of its −0.0 cells, and its values are dropped, the
    /// index's value tables and slots holding them now. The queue is
    /// left dirty, for the first query to count.
    fn adopt(&mut self, ds: Dataset) {
        let bins = self.bins.resolve(&ds);
        self.index = BitmapIndex::build(&ds);
        self.boundaries = BinBoundaries::build(&self.index, &bins);
        self.pre.masks = MaskCounts::of(ds.masks().iter().copied());
        self.queue_dirty = true;
        let (values, masks, labels) = ds.into_raw_parts();
        let zeros = values.iter().enumerate().filter(|&(_, &v)| is_neg_zero(v));
        self.neg_zeros = zeros.map(|(at, _)| at).collect();
        self.masks = masks;
        self.labels = labels;
    }

    /// The value of the cell at `slot`, `dim` (`None` = missing): its
    /// slot's value-table entry, −0.0 where the sign list names the cell.
    fn cell(&self, slot: usize, dim: usize) -> Option<f64> {
        let j = self.index.value_slot(slot, dim) as usize;
        let v = self.index.values(dim)[j.checked_sub(1)?];
        let at = slot * self.dims + dim;
        let negative = v == 0.0 && self.neg_zeros.binary_search(&at).is_ok();
        Some(if negative { -0.0 } else { v })
    }

    /// Record whether the cell at `slot`, `dim` holds −0.0 once `value`
    /// is written to it.
    fn set_sign(&mut self, slot: usize, dim: usize, value: Option<f64>) {
        let at = slot * self.dims + dim;
        match (
            self.neg_zeros.binary_search(&at),
            value.is_some_and(is_neg_zero),
        ) {
            (Ok(i), false) => {
                self.neg_zeros.remove(i);
            }
            (Err(i), true) => self.neg_zeros.insert(i, at),
            _ => {}
        }
    }

    /// The rows at `slots`, in order, materialized as a dataset — values,
    /// masks and labels.
    fn rows(&self, slots: &[usize]) -> Dataset {
        let mut values = Vec::with_capacity(slots.len() * self.dims);
        for &s in slots {
            values.extend((0..self.dims).map(|d| self.cell(s, d).unwrap_or(f64::NAN)));
        }
        let masks = slots.iter().map(|&s| self.masks[s]).collect();
        let labels =
            (self.labels.as_ref()).map(|ls| slots.iter().map(|&s| ls[s].clone()).collect());
        Dataset::from_raw_parts(self.dims, values, masks, labels)
            .expect("the engine's rows are valid")
    }

    // ----- internals ------------------------------------------------------

    fn slot(&self, id: ObjectId) -> Result<usize, UpdateError> {
        live_or(self.live_slot(id), id, self.next_id)
    }

    /// Which slots are live: the index's bookkeeping.
    fn live(&self) -> &Tombstones {
        self.index.tombstones()
    }

    /// The slot of live object `id`.
    fn live_slot(&self, id: ObjectId) -> Option<usize> {
        let slot = self.stable_of.binary_search(&id).ok()?;
        self.live().is_live(slot).then_some(slot)
    }

    /// Recount the candidate queue over the live rows and every
    /// dimension, and re-derive the index's pairwise Heuristic 2 tables
    /// that the ops dropped (both deferred until the next query so op
    /// batches pay them once).
    fn refresh(&mut self) {
        if !self.queue_dirty {
            return;
        }
        self.pre.queue = self.scoped_queue(self.live().live_mask(), DimMask::all(self.dims));
        self.index.derive_pair_tables();
        self.queue_dirty = false;
    }

    /// The live rows' count per observation mask — what BIG and IBIG
    /// read every incomparable set `F(o)` as.
    pub fn mask_counts(&self) -> &MaskCounts {
        &self.pre.masks
    }

    /// Test/diagnostic hook: the maintained queue in (stable id, MaxScore)
    /// form — must equal the from-scratch queue over [`snapshot`]
    /// (`tests/dynamic_parity.rs` pins it).
    ///
    /// [`snapshot`]: DynamicEngine::snapshot
    pub fn maintained_queue(&mut self) -> Vec<(ObjectId, usize)> {
        self.refresh();
        self.pre
            .queue
            .iter()
            .map(|&(s, ms)| (self.stable_of[s as usize], ms))
            .collect()
    }
}

/// Is `v` −0.0?
fn is_neg_zero(v: f64) -> bool {
    v == 0.0 && v.is_sign_negative()
}

/// The observation mask of a row of value slots (`0` = missing).
fn mask_of(slots: &[u32]) -> DimMask {
    let bits = (slots.iter().enumerate()).fold(0, |m, (d, &j)| m | u64::from(j != 0) << d);
    DimMask::from_bits(bits)
}

/// Whether the engine answers queries with `algorithm`: BIG and IBIG.
fn serves(algorithm: Algorithm) -> Result<(), UpdateError> {
    match algorithm {
        Algorithm::Big | Algorithm::Ibig => Ok(()),
        other => Err(UpdateError::UnsupportedAlgorithm(other)),
    }
}

/// `found`, or why `id` names no live object in an id space that has
/// handed out `0..next_id`.
fn live_or<T>(found: Option<T>, id: ObjectId, next_id: ObjectId) -> Result<T, UpdateError> {
    found.ok_or(if id < next_id {
        UpdateError::Deleted(id)
    } else {
        UpdateError::UnknownId(id)
    })
}

/// The rules of writing `new` into `dim` of the object at `slot` whose
/// observed dimensions are `mask`, over `dims` dimensions.
fn check_cell(
    dims: usize,
    slot: usize,
    mask: DimMask,
    dim: usize,
    new: Option<f64>,
) -> Result<(), UpdateError> {
    if dim >= dims {
        return Err(ModelError::DimensionOutOfRange { dim, dims }.into());
    }
    if new.is_some_and(f64::is_nan) {
        return Err(ModelError::NaNValue { row: slot, dim }.into());
    }
    if new.is_none() && mask.observed(dim) && mask.count() == 1 {
        return Err(ModelError::AllMissingRow(slot).into());
    }
    Ok(())
}

/// The batch rules, once: check `ops` without touching anything against
/// an id space as it would stand after each earlier op, and return the
/// `(index, error)` at which applying them one by one would stop, if any.
/// The id space has handed out `0..next_id` and fills slot `next_slot`
/// next; `live` maps each live id to its slot and observed dimensions.
/// [`DynamicEngine::apply_ops`] and the cluster coordinator both run it,
/// so they reject the same batches with the same errors.
///
/// Earlier ops are tracked as the ids their inserts hand out
/// (`next_id + k`, at slot `next_slot + k`) and, per touched id, its slot
/// and its mask after the batch's earlier `Set`s — `None` once deleted. A
/// compaction that an earlier delete would trigger renumbers a
/// [`DynamicEngine`]'s slots, so under one the row a row error names can
/// differ from the op-by-op run's; the index and the kind cannot.
///
/// # Errors
/// The first failing op's index and error.
pub fn check_batch(
    dims: usize,
    next_id: ObjectId,
    next_slot: usize,
    live: impl Fn(ObjectId) -> Option<(usize, DimMask)>,
    ops: &[UpdateOp],
) -> Result<(), (usize, UpdateError)> {
    let mut touched: HashMap<ObjectId, (usize, Option<DimMask>)> = HashMap::new();
    let mut inserts = 0;
    for (i, op) in ops.iter().enumerate() {
        let at = |e| (i, e);
        let object = |id: ObjectId| match touched.get(&id) {
            Some(&(slot, Some(mask))) => Ok((slot, mask)),
            Some(&(_, None)) => Err(UpdateError::Deleted(id)),
            None => live_or(live(id), id, next_id),
        };
        match op {
            UpdateOp::Insert(row) | UpdateOp::InsertLabeled(_, row) => {
                let slot = next_slot + inserts;
                let mask = tkd_model::validate_row(dims, row, slot).map_err(|e| at(e.into()))?;
                touched.insert(next_id + inserts as ObjectId, (slot, Some(mask)));
                inserts += 1;
            }
            UpdateOp::Delete(id) => {
                let (slot, _) = object(*id).map_err(at)?;
                touched.insert(*id, (slot, None));
            }
            UpdateOp::Set(id, dim, new) => {
                let (slot, mut mask) = object(*id).map_err(at)?;
                check_cell(dims, slot, mask, *dim, *new).map_err(at)?;
                match new {
                    Some(_) => mask.set(*dim),
                    None => mask.unset(*dim),
                }
                touched.insert(*id, (slot, Some(mask)));
            }
        }
    }
    Ok(())
}

/// A shard-scoring candidate as the engine's slots see it: its mask read
/// off the shipped values, its incomparable count off the live rows'
/// count per mask — whether or not a local row carries its mask.
fn shard_candidate(masks: &MaskCounts, values: &[Option<f64>], member: Option<usize>) -> Candidate {
    let observed = values.iter().enumerate().filter(|(_, v)| v.is_some());
    let mask = DimMask::from_indices(observed.map(|(d, _)| d));
    Candidate {
        mask,
        member,
        f: masks.incomparable(mask),
    }
}

#[cfg(test)]
mod mask_count_properties;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxscore::maxscore_queue;
    use crate::query::TkdQuery;
    use tkd_model::fixtures;

    fn engine_no_compaction(ds: Dataset) -> DynamicEngine {
        DynamicEngine::with_options(
            ds,
            DynamicOptions {
                bins: BinChoice::Auto,
                policy: CompactionPolicy::never(),
            },
        )
    }

    /// Rebuild-from-scratch oracle: run the static engines over the live
    /// snapshot and translate row positions to stable ids.
    fn oracle(
        engine: &DynamicEngine,
        k: usize,
        alg: Algorithm,
        threads: usize,
    ) -> Vec<(ObjectId, usize)> {
        let snap = engine.snapshot();
        let ids = engine.live_ids();
        let r = TkdQuery::new(k).algorithm(alg).threads(threads).run(&snap);
        r.iter().map(|e| (ids[e.id as usize], e.score)).collect()
    }

    fn dynamic_entries(
        engine: &mut DynamicEngine,
        k: usize,
        alg: Algorithm,
    ) -> Vec<(ObjectId, usize)> {
        let r = engine
            .query(&EngineQuery::new(k).algorithm(alg))
            .expect("supported");
        r.iter().map(|e| (e.id, e.score)).collect()
    }

    #[test]
    fn fig3_insert_delete_update_parity() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        // Baseline: T2D answer {A2, C2} @ 16.
        let r = engine.query(&EngineQuery::new(2)).unwrap();
        assert_eq!(r.kth_score(), Some(16));
        // A dominating newcomer takes over (smaller is better).
        let star = engine
            .insert(&[Some(0.0), Some(0.0), Some(0.0), Some(0.0)])
            .unwrap();
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            let got = dynamic_entries(&mut engine, 2, alg);
            assert_eq!(got, oracle(&engine, 2, alg, 1), "{alg:?}");
            assert_eq!(got[0].0, star, "{alg:?}");
        }
        // Delete it: the old answer returns.
        engine.delete(star).unwrap();
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            let got = dynamic_entries(&mut engine, 2, alg);
            assert_eq!(got, oracle(&engine, 2, alg, 1), "{alg:?}");
        }
        assert_eq!(
            engine.query(&EngineQuery::new(2)).unwrap().kth_score(),
            Some(16)
        );
        // Update a value and stay pinned to the oracle.
        let c2 = engine
            .snapshot()
            .id_by_label("C2")
            .map(|p| engine.live_ids()[p as usize])
            .unwrap();
        engine.update_value(c2, 0, Some(0.0)).unwrap();
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            assert_eq!(
                dynamic_entries(&mut engine, 3, alg),
                oracle(&engine, 3, alg, 1),
                "{alg:?}"
            );
        }
    }

    #[test]
    fn maintained_queue_is_exact() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        engine.insert(&[Some(4.0), None, Some(2.0), None]).unwrap();
        engine.insert(&[None, Some(1.0), None, Some(5.0)]).unwrap();
        let ids = engine.live_ids();
        engine.delete(ids[3]).unwrap();
        engine.update_value(ids[7], 2, None).unwrap();
        engine.update_value(ids[20], 1, Some(3.0)).unwrap();
        let maintained = engine.maintained_queue();
        let snap = engine.snapshot();
        let live = engine.live_ids();
        let scratch: Vec<(ObjectId, usize)> = maxscore_queue(&snap)
            .into_iter()
            .map(|(pos, ms)| (live[pos as usize], ms))
            .collect();
        assert_eq!(maintained, scratch);
    }

    #[test]
    fn update_value_to_and_from_missing_on_minimal_row() {
        let ds =
            Dataset::from_rows(2, &[vec![Some(1.0), None], vec![Some(2.0), Some(2.0)]]).unwrap();
        let mut engine = engine_no_compaction(ds);
        // Clearing the only observed cell is rejected and changes nothing.
        assert_eq!(
            engine.update_value(0, 0, None),
            Err(UpdateError::Model(ModelError::AllMissingRow(0)))
        );
        assert_eq!(engine.value(0, 0).unwrap(), Some(1.0));
        // Observe the other dim, then clearing dim 0 becomes legal.
        engine.update_value(0, 1, Some(9.0)).unwrap();
        engine.update_value(0, 0, None).unwrap();
        assert_eq!(engine.value(0, 0).unwrap(), None);
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            assert_eq!(
                dynamic_entries(&mut engine, 2, alg),
                oracle(&engine, 2, alg, 1),
                "{alg:?}"
            );
        }
    }

    #[test]
    fn signed_zero_updates_are_semantic_noops() {
        let ds = Dataset::from_rows(1, &[vec![Some(-0.0)], vec![Some(1.0)]]).unwrap();
        let mut engine = engine_no_compaction(ds);
        let before = engine.maintained_queue();
        engine.update_value(0, 0, Some(0.0)).unwrap();
        assert_eq!(engine.value(0, 0).unwrap(), Some(0.0));
        assert_eq!(engine.maintained_queue(), before);
        // And inserting the other zero sign ties, not dominates.
        let z = engine.insert(&[Some(0.0)]).unwrap();
        let r = engine.query(&EngineQuery::new(3)).unwrap();
        let score_of = |id| r.iter().find(|e| e.id == id).unwrap().score;
        assert_eq!(score_of(0), 1, "zeros tie each other, dominate 1.0");
        assert_eq!(score_of(z), 1);
        assert_eq!(score_of(1), 0, "1.0 is dominated, dominates nobody");
    }

    #[test]
    fn id_errors_and_unsupported_algorithms() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        assert_eq!(engine.delete(999), Err(UpdateError::UnknownId(999)));
        engine.delete(5).unwrap();
        assert_eq!(engine.delete(5), Err(UpdateError::Deleted(5)));
        assert_eq!(
            engine.update_value(5, 0, Some(1.0)),
            Err(UpdateError::Deleted(5))
        );
        assert!(matches!(
            engine.query(&EngineQuery::new(2).algorithm(Algorithm::Naive)),
            Err(UpdateError::UnsupportedAlgorithm(Algorithm::Naive))
        ));
        assert!(matches!(
            engine.insert(&[None; 4]),
            Err(UpdateError::Model(ModelError::AllMissingRow(_)))
        ));
        assert!(matches!(
            engine.insert(&[Some(1.0)]),
            Err(UpdateError::Model(ModelError::RowArity { .. }))
        ));
    }

    #[test]
    fn compaction_threshold_edges() {
        let rows: Vec<Vec<Option<f64>>> = (0..20).map(|i| vec![Some(i as f64)]).collect();
        let ds = Dataset::from_rows(1, &rows).unwrap();
        let mut engine = DynamicEngine::with_options(
            ds,
            DynamicOptions {
                bins: BinChoice::Fixed(4),
                policy: CompactionPolicy {
                    max_tombstone_fraction: 0.25,
                    min_dead: 4,
                },
            },
        );
        assert_eq!(engine.epoch(), 0);
        // 4 deletes of 20 slots = 20 % ≤ 25 %: no compaction (strict >).
        for id in 0..4 {
            engine.delete(id).unwrap();
        }
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.tombstones(), 4);
        // The 6th delete crosses: 6/20 = 30 % > 25 % (5/20 = 25 % is not >).
        engine.delete(4).unwrap();
        assert_eq!(engine.epoch(), 0, "exactly-at-threshold must not trigger");
        engine.delete(5).unwrap();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.tombstones(), 0);
        assert_eq!(engine.len(), 14);
        // Stable ids survived the slot renumbering.
        assert!(!engine.contains(3));
        assert!(engine.contains(19));
        assert_eq!(engine.value(19, 0).unwrap(), Some(19.0));
        // min_dead gates small stores: fraction alone is not enough.
        let tiny = Dataset::from_rows(1, &(0..6).map(|i| vec![Some(i as f64)]).collect::<Vec<_>>())
            .unwrap();
        let mut tiny_engine = DynamicEngine::with_options(
            tiny,
            DynamicOptions {
                bins: BinChoice::Auto,
                policy: CompactionPolicy {
                    max_tombstone_fraction: 0.25,
                    min_dead: 4,
                },
            },
        );
        tiny_engine.delete(0).unwrap();
        tiny_engine.delete(1).unwrap();
        assert_eq!(tiny_engine.epoch(), 0, "below min_dead");
        assert!(tiny_engine.tombstone_fraction() > 0.25);
    }

    #[test]
    fn compaction_preserves_results_bit_for_bit() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        for id in [0, 3, 7, 11] {
            engine.delete(id).unwrap();
        }
        let before: Vec<_> = dynamic_entries(&mut engine, 5, Algorithm::Big);
        engine.compact_now();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.tombstones(), 0);
        let after: Vec<_> = dynamic_entries(&mut engine, 5, Algorithm::Big);
        assert_eq!(before, after);
        assert_eq!(after, oracle(&engine, 5, Algorithm::Big, 1));
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        for id in engine.live_ids() {
            engine.delete(id).unwrap();
        }
        assert!(engine.is_empty());
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            assert!(engine
                .query(&EngineQuery::new(3).algorithm(alg))
                .unwrap()
                .is_empty());
        }
        let a = engine.insert(&[Some(1.0), None, Some(2.0), None]).unwrap();
        let b = engine
            .insert(&[Some(2.0), Some(1.0), Some(3.0), Some(1.0)])
            .unwrap();
        assert_eq!(a, 20, "ids keep counting monotonically");
        assert_eq!(engine.len(), 2);
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            let got = dynamic_entries(&mut engine, 2, alg);
            assert_eq!(got, oracle(&engine, 2, alg, 1), "{alg:?}");
            assert_eq!(got[0], (a, 1), "{alg:?}: a dominates b (smaller wins)");
        }
        let _ = b;
    }

    #[test]
    fn duplicate_inserts_tie() {
        let ds = Dataset::from_rows(2, &[vec![Some(1.0), Some(2.0)]]).unwrap();
        let mut engine = engine_no_compaction(ds);
        let dup = engine.insert(&[Some(1.0), Some(2.0)]).unwrap();
        let r = engine.query(&EngineQuery::new(2)).unwrap();
        assert_eq!(r.scores(), vec![0, 0], "exact duplicates dominate nobody");
        assert!(r.contains(0) && r.contains(dup));
        assert_eq!(
            dynamic_entries(&mut engine, 2, Algorithm::Ibig),
            oracle(&engine, 2, Algorithm::Ibig, 1)
        );
    }

    #[test]
    fn threads_agree_with_single_thread() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        engine
            .insert(&[Some(5.0), Some(5.0), None, Some(2.0)])
            .unwrap();
        engine.delete(2).unwrap();
        engine.update_value(10, 3, Some(6.0)).unwrap();
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            for k in [1usize, 3, 10, 30] {
                let seq = engine.query(&EngineQuery::new(k).algorithm(alg)).unwrap();
                for threads in [2usize, 4] {
                    let par = engine
                        .query_threads(&EngineQuery::new(k).algorithm(alg), threads)
                        .unwrap();
                    assert_eq!(par.entries(), seq.entries(), "{alg:?} k={k} t={threads}");
                }
            }
        }
    }

    #[test]
    fn tie_break_random_keeps_scores() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        let base = engine.query(&EngineQuery::new(6)).unwrap();
        for seed in 0..3 {
            let r = engine
                .query(&EngineQuery::new(6).tie_break(TieBreak::Random(seed)))
                .unwrap();
            assert_eq!(r.scores(), base.scores(), "seed {seed}");
        }
    }

    #[test]
    fn k_edges_on_dynamic_store() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        engine.delete(1).unwrap();
        let n = engine.len();
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            for k in [0usize, 1, n - 1, n, n + 5] {
                let got = dynamic_entries(&mut engine, k, alg);
                assert_eq!(got, oracle(&engine, k, alg, 1), "{alg:?} k={k}");
            }
        }
    }

    #[test]
    fn store_parts_roundtrip_resumes_bit_identically() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        engine.insert(&[Some(4.0), None, Some(2.0), None]).unwrap();
        engine.delete(3).unwrap();
        engine.update_value(7, 2, None).unwrap();
        let mut resumed = DynamicEngine::from_store_parts(engine.to_store_parts()).unwrap();
        assert_eq!(resumed.epoch(), engine.epoch());
        assert_eq!(resumed.tombstones(), engine.tombstones());
        assert_eq!(resumed.stats(), engine.stats());
        assert_eq!(resumed.live_ids(), engine.live_ids());
        assert_eq!(resumed.maintained_queue(), engine.maintained_queue());
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            for k in [1usize, 2, 5, 30] {
                assert_eq!(
                    dynamic_entries(&mut resumed, k, alg),
                    dynamic_entries(&mut engine, k, alg),
                    "{alg:?} k={k}"
                );
            }
        }
        // The resumed engine keeps mutating correctly — ids continue.
        let (a, b) = (
            resumed.insert(&[Some(1.0); 4]).unwrap(),
            engine.insert(&[Some(1.0); 4]).unwrap(),
        );
        assert_eq!(a, b);
        assert_eq!(
            dynamic_entries(&mut resumed, 3, Algorithm::Big),
            dynamic_entries(&mut engine, 3, Algorithm::Big)
        );
    }

    #[test]
    fn store_parts_reject_corrupted_invariants() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        engine.delete(2).unwrap();
        let parts = engine.to_store_parts();
        assert!(DynamicEngine::from_store_parts(parts.clone()).is_ok());
        // Non-increasing stable ids.
        {
            let mut p = parts.clone();
            p.stable_of.swap(0, 1);
            assert!(DynamicEngine::from_store_parts(p).is_err());
        }
        // next_id not above the largest stable id.
        {
            let mut p = parts.clone();
            p.next_id = 5;
            assert!(DynamicEngine::from_store_parts(p).is_err());
        }
        // A value slot past its dimension's cardinality.
        {
            let mut p = parts.clone();
            p.slots[1] = p.values[1].len() as u32 + 1;
            assert!(DynamicEngine::from_store_parts(p).is_err());
        }
        // A value table out of order.
        {
            let mut p = parts;
            p.values[0].swap(0, 1);
            assert!(DynamicEngine::from_store_parts(p).is_err());
        }
    }

    #[test]
    fn labels_flow_through() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        let id = engine
            .insert_labeled("Z9", &[Some(1.0), None, None, Some(2.0)])
            .unwrap();
        assert_eq!(engine.label(id).unwrap(), Some("Z9"));
        engine.compact_now();
        assert_eq!(engine.label(id).unwrap(), Some("Z9"));
        assert_eq!(engine.label(0).unwrap(), Some("A1"));
    }

    // ----- standing queries -----

    fn standing_oracle(engine: &DynamicEngine, spec: &StandingSpec) -> Vec<ResultEntry> {
        let snap = engine.snapshot();
        let ids = engine.live_ids();
        let entries: Vec<(ObjectId, usize)> = if let Some(dims) = &spec.subspace {
            let q = TkdQuery::new(spec.k).algorithm(spec.algorithm);
            crate::variants::subspace_top_k(&snap, dims, &q)
                .expect("valid subspace")
                .iter()
                .map(|e| (ids[e.id as usize], e.score))
                .collect()
        } else if !spec.constraint.is_empty() {
            let mut c = tkd_skyline::constrained::Constraints::none(snap.dims());
            for &(d, lo, hi) in &spec.constraint {
                c = c.with_range(d, lo, hi);
            }
            let q = TkdQuery::new(spec.k).algorithm(spec.algorithm);
            crate::variants::constrained_top_k(&snap, &c, &q)
                .iter()
                .map(|e| (ids[e.id as usize], e.score))
                .collect()
        } else {
            oracle(engine, spec.k, spec.algorithm, 1)
        };
        entries
            .into_iter()
            .map(|(id, score)| ResultEntry { id, score })
            .collect()
    }

    #[test]
    fn standing_register_validate_unregister() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        // Bad specs are rejected with the typed error.
        for bad in [
            StandingSpec::new(2).algorithm(Algorithm::Naive),
            StandingSpec::new(2).subspace(vec![0, 9]),
            StandingSpec::new(2)
                .subspace(vec![0])
                .constrain(1, 0.0, 5.0),
        ] {
            assert!(matches!(
                engine.register(bad),
                Err(UpdateError::InvalidStandingQuery(_))
            ));
        }
        // Registration answers immediately, identically to the oracle.
        let spec = StandingSpec::new(2);
        let id = engine.register(spec.clone()).unwrap();
        assert_eq!(
            engine.standing_result(id).unwrap(),
            standing_oracle(&engine, &spec)
        );
        assert_eq!(engine.standing_ids(), vec![id]);
        // Duplicate registration is an independent query with a fresh id.
        let id2 = engine.register(spec).unwrap();
        assert_ne!(id, id2);
        assert!(engine.unregister(id));
        assert!(!engine.unregister(id));
        assert!(engine.unregister(id2));
        assert!(engine.standing_ids().is_empty());
    }

    #[test]
    fn standing_batches_track_oracle_and_count_paths() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        let by_big = engine.register(StandingSpec::new(3)).unwrap();
        let by_ibig = engine
            .register(StandingSpec::new(3).algorithm(Algorithm::Ibig))
            .unwrap();
        let batches: Vec<Vec<UpdateOp>> = vec![
            vec![UpdateOp::Insert(vec![
                Some(0.5),
                None,
                Some(1.0),
                Some(2.0),
            ])],
            vec![UpdateOp::Set(0, 1, Some(3.0)), UpdateOp::Delete(3)],
            vec![], // empty batch: both queries skip, notifications still flow
        ];
        let mut seq = 0;
        for ops in &batches {
            let report = engine.apply_ops(ops);
            assert!(report.error.is_none());
            seq += 1;
            assert_eq!(report.batch_seq, seq);
            assert_eq!(report.notifications.len(), 2);
            for q in [by_big, by_ibig] {
                let spec = StandingSpec::new(3).algorithm(if q == by_ibig {
                    Algorithm::Ibig
                } else {
                    Algorithm::Big
                });
                assert_eq!(
                    engine.standing_result(q).unwrap(),
                    standing_oracle(&engine, &spec),
                    "batch {seq} query {q}"
                );
            }
            // An effective batch re-queries, the empty one is skipped, and
            // the notification says which.
            for note in &report.notifications {
                assert_eq!(note.batch_seq, seq);
                assert_eq!(note.via_fallback, !ops.is_empty());
            }
        }
        for q in [by_big, by_ibig] {
            let stats = engine.standing_stats(q).unwrap();
            assert_eq!(stats.batches, 3);
            assert_eq!(stats.patched, 0, "there is no patch path");
            assert_eq!(stats.fallbacks, 2, "one re-query per effective batch");
            assert_eq!(stats.skipped, 1, "empty batch is provably a no-op");
        }
    }

    #[test]
    fn standing_scoped_queries_skip_out_of_scope_batches() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        let spec = StandingSpec::new(2).subspace(vec![0, 1]);
        let id = engine.register(spec.clone()).unwrap();
        // A value touch outside the subspace is provably irrelevant.
        let r = engine.apply_ops(&[UpdateOp::Set(2, 3, Some(9.0))]);
        assert!(r.notifications[0].is_empty());
        assert_eq!(engine.standing_stats(id).unwrap().skipped, 1);
        // A touch inside it re-queries the derived dataset.
        engine.apply_ops(&[UpdateOp::Set(2, 0, Some(0.1))]);
        assert_eq!(
            engine.standing_result(id).unwrap(),
            standing_oracle(&engine, &spec)
        );
        assert_eq!(engine.standing_stats(id).unwrap().fallbacks, 1);
        // Structural churn always re-queries scoped results.
        engine.apply_ops(&[UpdateOp::Delete(0)]);
        assert_eq!(
            engine.standing_result(id).unwrap(),
            standing_oracle(&engine, &spec)
        );

        let cspec = StandingSpec::new(2).constrain(2, 0.0, 100.0);
        let cid = engine.register(cspec.clone()).unwrap();
        engine.apply_ops(&[UpdateOp::Set(4, 2, None)]);
        assert_eq!(
            engine.standing_result(cid).unwrap(),
            standing_oracle(&engine, &cspec)
        );
    }

    #[test]
    fn standing_window_ages_out_oldest_stable_ids() {
        let ds = fixtures::fig3_sample();
        let n = ds.len();
        let mut engine = DynamicEngine::new(ds);
        engine.set_window(Some(n));
        assert_eq!(engine.window(), Some(n));
        let id = engine.register(StandingSpec::new(2)).unwrap();
        // Each insert evicts exactly the oldest surviving object.
        for i in 0..4u32 {
            let report = engine.apply_ops(&[UpdateOp::Insert(vec![
                Some(f64::from(i)),
                Some(1.0),
                None,
                Some(2.0),
            ])]);
            assert!(report.error.is_none());
            assert_eq!(report.aged_out, vec![i]);
            assert_eq!(engine.len(), n);
            assert_eq!(
                engine.standing_result(id).unwrap(),
                standing_oracle(&engine, &StandingSpec::new(2))
            );
        }
        // Shrinking the window evicts down to the new capacity in one batch.
        engine.set_window(Some(2));
        let report = engine.apply_ops(&[]);
        assert_eq!(report.aged_out.len(), n - 2);
        assert_eq!(engine.len(), 2);
        assert_eq!(
            engine.standing_result(id).unwrap(),
            standing_oracle(&engine, &StandingSpec::new(2))
        );
    }

    /// A windowed batch spelled out with its age-out deletes applies
    /// exactly like the batch itself, under the window or without one —
    /// what lets an op log record it and replay it on a windowless load.
    #[test]
    fn window_age_out_spelled_out_replays_without_the_window() {
        let ds = fixtures::fig3_sample();
        let n = ds.len() as ObjectId;
        let mut direct = DynamicEngine::new(ds.clone());
        let mut spelled = DynamicEngine::new(ds.clone());
        let mut replayed = DynamicEngine::new(ds);
        direct.set_window(Some(n as usize - 3));
        spelled.set_window(Some(n as usize - 3));
        let row = |v: f64| UpdateOp::Insert(vec![Some(v), Some(1.0), None, Some(2.0)]);
        for ops in [
            vec![],
            vec![row(1.0), UpdateOp::Delete(5), row(2.0)],
            vec![row(3.0), UpdateOp::Delete(n + 1), UpdateOp::Delete(n + 2)],
            vec![UpdateOp::Set(n, 2, Some(4.0))],
        ] {
            assert!(spelled.check_ops(&ops).is_ok());
            let batch = spelled.with_age_out(&ops).into_owned();
            let aged = direct.apply_ops(&ops).aged_out;
            let deletes: Vec<UpdateOp> = aged.into_iter().map(UpdateOp::Delete).collect();
            assert_eq!(batch[ops.len()..], deletes[..]);
            assert!(spelled.apply_ops(&batch).aged_out.is_empty());
            assert!(replayed.apply_ops(&batch).error.is_none());
            for e in [&mut spelled, &mut replayed] {
                assert_eq!(e.live_ids(), direct.live_ids());
                assert_eq!((e.stats(), e.epoch()), (direct.stats(), direct.epoch()));
                let q = EngineQuery::new(4);
                let want = direct.query(&q).unwrap();
                assert_eq!(e.query(&q).unwrap().entries(), want.entries());
            }
        }
    }

    #[test]
    fn standing_rejected_batch_changes_nothing() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        let id = engine.register(StandingSpec::new(2)).unwrap();
        let before = engine.standing_result(id).unwrap().to_vec();
        let report = engine.apply_ops(&[
            UpdateOp::Delete(0),
            UpdateOp::Delete(999), // unknown id: the whole batch is rejected
            UpdateOp::Delete(1),
        ]);
        assert_eq!(
            report,
            BatchReport {
                error: Some((1, UpdateError::UnknownId(999))),
                ..BatchReport::default()
            }
        );
        // No op applied, no notification, no batch consumed.
        assert!(engine.contains(0) && engine.contains(1));
        assert_eq!(engine.standing_result(id).unwrap(), before);
        assert_eq!(engine.standing_stats(id).unwrap().batches, 0);
        assert_eq!(engine.apply_ops(&[UpdateOp::Delete(0)]).batch_seq, 1);
    }

    #[test]
    fn standing_survives_compaction() {
        let ds = fixtures::fig3_sample();
        let mut engine = DynamicEngine::with_options(
            ds,
            DynamicOptions {
                bins: BinChoice::Auto,
                policy: CompactionPolicy {
                    max_tombstone_fraction: 0.0,
                    min_dead: 1,
                },
            },
        );
        let id = engine.register(StandingSpec::new(2)).unwrap();
        // Deletes trigger immediate compaction (slot renumbering + epoch
        // bump); the standing result must stay pinned to the oracle.
        for victim in [2u32, 5, 0] {
            let report = engine.apply_ops(&[UpdateOp::Delete(victim)]);
            assert!(report.error.is_none());
            assert_eq!(
                engine.standing_result(id).unwrap(),
                standing_oracle(&engine, &StandingSpec::new(2)),
                "after deleting {victim}"
            );
        }
    }

    #[test]
    fn standing_k_zero_and_k_past_n() {
        let mut engine = engine_no_compaction(fixtures::fig3_sample());
        let zero = engine.register(StandingSpec::new(0)).unwrap();
        let huge = engine.register(StandingSpec::new(1000)).unwrap();
        assert!(engine.standing_result(zero).unwrap().is_empty());
        assert_eq!(engine.standing_result(huge).unwrap().len(), engine.len());
        let report = engine.apply_ops(&[UpdateOp::Delete(0)]);
        assert!(report.error.is_none());
        assert!(engine.standing_result(zero).unwrap().is_empty());
        assert_eq!(
            engine.standing_result(huge).unwrap(),
            standing_oracle(&engine, &StandingSpec::new(1000))
        );
    }
}
