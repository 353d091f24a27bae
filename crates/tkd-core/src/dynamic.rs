//! Dynamic updates — incremental inserts, deletes, and cell updates over
//! the bitmap-index engines, after Kosmatopoulos & Tsichlas's *Dynamic
//! Top-k Dominating Queries* brought to the incomplete-data setting of
//! Miao et al. (ICDE 2016).
//!
//! [`DynamicEngine`] **owns** its dataset and maintains every
//! query-acceleration artifact in place instead of rebuilding it per
//! change:
//!
//! * the range-encoded [`BitmapIndex`] — columns grow by appended bits,
//!   deletes clear tombstone bits (suffix-popcount tables repaired
//!   incrementally), new distinct values splice in one cloned column;
//! * the [`BinnedBitmapIndex`] — bin boundaries are frozen between
//!   compactions (a value above the last boundary extends it; a never
//!   observed dimension gets its first bin on demand), per-dimension
//!   probe-tree keys are inserted/removed, and tombstones are cleared from
//!   *every* column including column 0;
//! * the shared [`Preprocessed`] artifacts — the per-object per-dimension
//!   `|Tᵢ|` counts behind `MaxScore` are repaired **exactly** by
//!   word-parallel delta scans (`live ∧ ¬column` enumerations), the
//!   incomparable sets gain/lose bits in `O(masks)`, and the descending
//!   queue is re-sorted lazily at the next query.
//!
//! Exactness of the maintained `MaxScore` queue is not an optimization —
//! it is what makes the engine **bit-identical** to rebuilding from
//! scratch: ties at the k-th score are resolved by candidate-queue order
//! (an equal score never displaces, Algorithm 2 line 7), so a merely
//! *sound* bound would change which of the tied objects survives.
//! `tests/dynamic_parity.rs` pins this equivalence across randomized op
//! sequences × missing rates × {BIG, IBIG} × thread counts.
//!
//! Queries run through the **unchanged** scorers: BIG-Score /
//! IBIG-Score against the maintained indexes (the same scorer
//! [`crate::ParallelEngine`] runs), driven by the one replay driver of
//! [`crate::parallel`] — with one thread that *is* the sequential walk of
//! [`crate::big::big_with_scratch`] / [`crate::ibig::ibig_with_scratch`],
//! with more the workers split the candidate queue and merge by replay —
//! and a full-space standing query is answered by that same
//! [`DynamicEngine::query`] after every batch. IBIG scores off the binned
//! index's dense columns, as it does everywhere (see [`crate::ibig`]);
//! they take every tombstone, append and cell rewrite as an `O(1)` bit
//! flip, which a run-length codec could not.
//!
//! A constrained query ([`DynamicEngine::query_constrained`]) runs the
//! same scorers over the same indexes with one more AND operand: the
//! admitted live rows as a [`RowScope`], built from two column reads per
//! constrained dimension. Its queue is recounted inside the scope — one
//! histogram of the admitted rows' value slots — so it is the queue a
//! rebuild over the admitted rows would sort, and the answer is that
//! rebuild's, tie order included.
//!
//! The same maintained state is what a cluster worker scores on: a shard
//! is one engine, and [`DynamicEngine::big_bound`] /
//! [`ibig_q_count`](DynamicEngine::ibig_q_count) /
//! [`big_partial`](DynamicEngine::big_partial) /
//! [`ibig_partial`](DynamicEngine::ibig_partial) answer for a candidate
//! shipped as raw values with one per-shard term of the scorers above
//! (see [`crate::cluster`]).
//!
//! Deletes tombstone; a [`CompactionPolicy`] rebuilds the whole store —
//! re-quantiling bins and renumbering slots — once the tombstone fraction
//! crosses its threshold, bumping [`DynamicEngine::epoch`]. Object ids
//! handed out by [`DynamicEngine::insert`] are **stable across
//! compaction**: results and the mutation API speak stable ids, and the
//! internal slot renumbering is invisible.

use crate::big::{big_term, Candidate};
use crate::engine::scorer;
use crate::ibig::{fill_q, ibig_term};
use crate::maxscore::{fill_queue, t_counts};
use crate::parallel::{new_slots, run_replay, slots_needed};
use crate::preprocess::{incomparable_bitvecs, Preprocessed};
use crate::query::{shuffle_ties, Algorithm, BinChoice, TieBreak};
use crate::result::{ResultEntry, TkdResult};
use crate::scratch::ScratchSpace;
use crate::standing::{
    self, Notification, StandingId, StandingQuery, StandingSpec, StandingState, StandingStats,
};
use crate::topk::walk;
use crate::EngineQuery;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use tkd_bitvec::{BitVec, Tombstones};
use tkd_index::{
    cost, for_each_sorted_column, BinnedBitmapIndex, BitmapIndex, IndexPairBuilder, RowScope,
};
use tkd_model::{stats, Dataset, DimMask, ModelError, ObjectId};
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

/// Sentinel in the `t` table for unobserved cells — public because the
/// snapshot codec persists the table verbatim ([`DynamicParts::t`]).
pub const T_UNOBSERVED: u32 = u32::MAX;

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

/// Borrowed view of a [`DynamicEngine`]'s persisted logical state —
/// what the snapshot *writer* consumes ([`DynamicEngine::store_parts_ref`]).
/// Field-for-field the borrowed twin of [`DynamicParts`], which remains
/// the owned currency of the *load* path.
#[derive(Clone, Copy, Debug)]
pub struct DynamicPartsRef<'a> {
    /// All slots since the last compaction, tombstoned rows included.
    pub ds: &'a Dataset,
    /// Slot → stable id (strictly increasing).
    pub stable_of: &'a [ObjectId],
    /// Next stable id to hand out.
    pub next_id: ObjectId,
    /// The maintained exact bitmap index.
    pub index: &'a BitmapIndex,
    /// The maintained binned index.
    pub binned: &'a BinnedBitmapIndex,
    /// Maintained queue + incomparable sets (queue freshly re-sorted).
    pub pre: &'a Preprocessed,
    /// Row-major `n × dims` table of `|Tᵢ(o)|` ([`T_UNOBSERVED`] where
    /// missing).
    pub t: &'a [u32],
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
/// and nothing derivable: the slot→stable-id map, live/dead bookkeeping
/// (inside [`DynamicParts::index`]'s live mask), the scratch space, and
/// the stable-id→slot inverse are all recomputed at load.
#[derive(Clone, Debug)]
pub struct DynamicParts {
    /// All slots since the last compaction, tombstoned rows included.
    pub ds: Dataset,
    /// Slot → stable id (strictly increasing).
    pub stable_of: Vec<ObjectId>,
    /// Next stable id to hand out.
    pub next_id: ObjectId,
    /// The maintained exact bitmap index (its live mask is the engine's).
    pub index: BitmapIndex,
    /// The maintained binned index (frozen bins, live probe trees).
    pub binned: BinnedBitmapIndex,
    /// Maintained queue + incomparable sets. The queue must be clean
    /// (re-sorted) — [`DynamicEngine::to_store_parts`] refreshes first.
    pub pre: Preprocessed,
    /// Row-major `n × dims` table of `|Tᵢ(o)|`, [`T_UNOBSERVED`] where
    /// `o` misses `i` (stale on tombstoned slots, like in memory).
    pub t: Vec<u32>,
    /// IBIG bin selection, re-resolved at the next compaction.
    pub bins: BinChoice,
    /// Tombstone compaction policy.
    pub policy: CompactionPolicy,
    /// Compaction epoch.
    pub epoch: u64,
    /// Lifetime update counters.
    pub stats: UpdateStats,
}

/// Storage-provenance summary of a [`DynamicEngine`] — see
/// [`DynamicEngine::storage_report`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageReport {
    /// Columns still borrowing a shared snapshot buffer.
    pub borrowed_columns: usize,
    /// All columns tallied (bitmap + binned + live mask + F-sets).
    pub total_columns: usize,
    /// Do the dataset's value/mask slabs borrow a snapshot buffer?
    pub dataset_borrowed: bool,
}

impl StorageReport {
    /// Does *any* storage still borrow a snapshot buffer (i.e. the
    /// engine serves borrowed rather than promoted/owned storage)?
    pub fn is_borrowed(&self) -> bool {
        self.borrowed_columns > 0 || self.dataset_borrowed
    }
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
    /// All slots ever inserted since the last compaction, tombstones
    /// included (their rows keep their values until compaction).
    ds: Dataset,
    live: Tombstones,
    /// Slot → stable id (strictly increasing, so slot order and stable-id
    /// order agree — the tie-order invariant).
    stable_of: Vec<ObjectId>,
    /// Stable id → slot, live objects only.
    slot_of: HashMap<ObjectId, usize>,
    next_id: ObjectId,
    index: BitmapIndex,
    binned: BinnedBitmapIndex,
    /// Maintained queue + incomparable sets, lent into query contexts.
    pre: Preprocessed,
    /// Incomparable windows of shard-scoring candidates whose mask no
    /// local row carries (`pre.f_sets` has no entry to lend). Never
    /// persisted and dropped on every mutation, so the snapshot bytes
    /// stay a pure function of the op history whatever was scored.
    foreign_f: HashMap<u64, BitVec>,
    /// Row-major `n × dims` table of `|Tᵢ(o)|` (the exact per-dimension
    /// MaxScore ingredients); [`T_UNOBSERVED`] where `o` misses `i`.
    t: Vec<u32>,
    /// The queue needs a re-sort before the next query.
    queue_dirty: bool,
    /// One scratch per query thread, (re)sized on demand by
    /// `fit_scratch`.
    scratch: Vec<ScratchSpace>,
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
        let mut engine = DynamicEngine {
            dims,
            ds,
            live: Tombstones::all_live(n),
            stable_of: (0..n as ObjectId).collect(),
            slot_of: (0..n).map(|s| (s as ObjectId, s)).collect(),
            next_id: n as ObjectId,
            index: BitmapIndex::build(&Dataset::from_rows(dims, &[]).expect("valid dims")),
            binned: BinnedBitmapIndex::build(
                &Dataset::from_rows(dims, &[]).expect("valid dims"),
                &vec![1; dims],
            ),
            pre: Preprocessed {
                queue: Vec::new(),
                f_sets: HashMap::new(),
            },
            foreign_f: HashMap::new(),
            t: Vec::new(),
            queue_dirty: false,
            scratch: Vec::new(),
            bins: options.bins,
            policy: options.policy,
            epoch: 0,
            stats: UpdateStats::default(),
            standing: StandingState::default(),
        };
        engine.rebuild_artifacts();
        engine
    }

    // ----- accessors ------------------------------------------------------

    /// Dimensionality of the data space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of **live** objects.
    pub fn len(&self) -> usize {
        self.live.live_count()
    }

    /// Is the live set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tombstoned slots awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.live.dead_count()
    }

    /// Current tombstone fraction of the slot space.
    pub fn tombstone_fraction(&self) -> f64 {
        self.live.dead_fraction()
    }

    /// Compaction epoch: how many times the store has been rebuilt.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime update counters.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Where the engine's word storage lives: how many of its `BitVec`
    /// columns (bitmap + binned + incomparable sets) still **borrow** a
    /// shared snapshot buffer versus own their words, and whether the
    /// dataset slabs do. A freshly built engine is fully owned; a
    /// zero-copy load is fully borrowed; mutations promote exactly the
    /// storage they touch.
    pub fn storage_report(&self) -> StorageReport {
        let mut r = StorageReport::default();
        let mut tally = |bv: &tkd_bitvec::BitVec| {
            r.total_columns += 1;
            r.borrowed_columns += usize::from(bv.is_shared());
        };
        tally(self.index.live_mask());
        for d in 0..self.index.dims() {
            for c in 0..self.index.num_columns(d) {
                tally(self.index.column(d, c));
            }
        }
        for d in 0..self.binned.dims() {
            for c in 0..self.binned.num_columns(d) {
                tally(self.binned.column(d, c));
            }
        }
        for bv in self.pre.f_sets.values() {
            tally(bv);
        }
        r.dataset_borrowed = self.ds.is_shared();
        r
    }

    /// Is `id` a live object?
    pub fn contains(&self, id: ObjectId) -> bool {
        self.slot_of.contains_key(&id)
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
        Ok(self.ds.value(slot as ObjectId, dim))
    }

    /// Label of live object `id`, if any.
    pub fn label(&self, id: ObjectId) -> Result<Option<&str>, UpdateError> {
        let slot = self.slot(id)?;
        Ok(self.ds.label(slot as ObjectId))
    }

    /// Stable ids of the live objects, in insertion order.
    pub fn live_ids(&self) -> Vec<ObjectId> {
        self.live.iter_live().map(|s| self.stable_of[s]).collect()
    }

    /// A compacted copy of the live data, in insertion order (row `i`
    /// corresponds to `live_ids()[i]`) — what a rebuild-from-scratch
    /// oracle would operate on.
    pub fn snapshot(&self) -> Dataset {
        let slots: Vec<ObjectId> = self.live.iter_live().map(|s| s as ObjectId).collect();
        self.ds.select(&slots)
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
        let mask = tkd_model::validate_row(self.dims, row, self.ds.len())?;
        // 1. Every existing live object's |Tᵢ| gains the new object's
        //    contribution (word-parallel delta scans over the pre-insert
        //    index).
        for (dim, &obs) in row.iter().enumerate() {
            self.shift_t(dim, obs, None, 1);
        }
        // 2. Indexes and storage grow by one slot.
        let slot = self.index.append_row(|d| row[d]);
        let also = self.binned.append_row(|d| row[d]);
        debug_assert_eq!(slot, also);
        match label {
            Some(l) => self.ds.push_row_labeled(l, row),
            None => self.ds.push_row(row),
        }
        .expect("row already validated");
        self.live.push_live();
        self.standing.on_structural();
        // 3. The new object's own |Tᵢ| row: the (updated) exact index's
        //    count of live rows missing or ≥ v, less the newcomer itself.
        for (dim, &obs) in row.iter().enumerate() {
            self.t.push(match obs {
                None => T_UNOBSERVED,
                Some(v) => (self.index.count_missing_or_at_least(dim, v) - 1) as u32,
            });
        }
        // 4. Incomparable sets: a bit for the newcomer in every mask's
        //    set, plus an entry for its own mask if unseen.
        for (key, bv) in self.pre.f_sets.iter_mut() {
            bv.push(*key & mask.bits() == 0);
        }
        self.ensure_fset(mask);
        self.foreign_f.clear();
        // 5. Stable identity.
        let id = self.next_id;
        self.next_id += 1;
        self.stable_of.push(id);
        self.slot_of.insert(id, slot);
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
        // Kill first so the delta scans exclude the victim itself.
        self.live.kill(slot);
        for dim in 0..self.dims {
            let obs = self.ds.value(slot as ObjectId, dim);
            self.shift_t(dim, obs, None, -1);
        }
        self.index.tombstone_row(slot);
        let row: Vec<Option<f64>> = (0..self.dims)
            .map(|d| self.ds.value(slot as ObjectId, d))
            .collect();
        self.binned.tombstone_row(slot, |d| row[d]);
        for bv in self.pre.f_sets.values_mut() {
            bv.clear(slot);
        }
        self.foreign_f.clear();
        self.slot_of.remove(&id);
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
        let mut mask = self.ds.mask(slot as ObjectId);
        check_cell(self.dims, slot, mask, dim, new)?;
        let old = self.ds.value(slot as ObjectId, dim);
        self.stats.cell_updates += 1;
        match (old, new) {
            (None, None) => return Ok(()),
            // IEEE-equal rewrite (covers −0.0 ↔ 0.0): every index artifact
            // treats the two identically (value tables dedup with `==`,
            // `F64Key` normalizes signed zero), so only storage changes.
            (Some(a), Some(b)) if a == b => {
                self.ds
                    .set_value(slot as ObjectId, dim, new)
                    .expect("validated");
                return Ok(());
            }
            _ => {}
        }
        self.standing.on_set(dim);
        // Other objects' |T_dim|: remove the old contribution, add the new
        // one. Both scans skip the object itself (its own row is
        // recomputed below) and see only other objects' bits, which the
        // in-between index mutation does not touch.
        self.shift_t(dim, old, Some(slot), -1);
        self.index.set_cell(slot, dim, new);
        self.shift_t(dim, new, Some(slot), 1);
        self.binned.set_cell(slot, dim, old, new);
        self.ds
            .set_value(slot as ObjectId, dim, new)
            .expect("validated above");
        // The object's own |T_dim| from the updated exact index.
        self.t[slot * self.dims + dim] = match new {
            None => T_UNOBSERVED,
            Some(v) => (self.index.count_missing_or_at_least(dim, v) - 1) as u32,
        };
        // Observedness flips re-home the object across incomparable sets.
        if old.is_some() != new.is_some() {
            match new {
                Some(_) => mask.set(dim),
                None => mask.unset(dim),
            }
            self.ensure_fset(mask);
            for (key, bv) in self.pre.f_sets.iter_mut() {
                if *key & mask.bits() == 0 {
                    bv.set(slot);
                } else {
                    bv.clear(slot);
                }
            }
            self.foreign_f.clear();
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
        let result = self.standing_answer(&spec, &mut None);
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
    /// registered standing query, empty deltas included.
    pub fn apply_ops(&mut self, ops: &[UpdateOp]) -> BatchReport {
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
        report.notifications = self.standing_maintenance();
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
            let slot = *self.slot_of.get(&id)?;
            Some((slot, self.ds.mask(slot as ObjectId)))
        };
        check_batch(self.dims, self.next_id, self.ds.len(), live, ops)
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
        let oldest = self.live.iter_live().map(|s| self.stable_of[s]);
        let oldest = oldest.chain(self.next_id..self.next_id + inserted as ObjectId);
        oldest
            .filter(|id| !deleted.contains(id))
            .take(live.saturating_sub(cap))
            .collect()
    }

    /// Run one batch's standing maintenance: re-query every registered
    /// query the batch could have changed, emit the deltas, and clear the
    /// per-batch counters.
    fn standing_maintenance(&mut self) -> Vec<Notification> {
        if !self.standing.tracking() {
            return Vec::new();
        }
        let effective = self.standing.effective > 0;
        let structural = self.standing.structural > 0;
        let touched_dims = self.standing.touched_dims;
        let seq = self.standing.batch_seq;

        let mut queries = std::mem::take(&mut self.standing.queries);
        let mut snapshot = None;
        let mut notes = Vec::with_capacity(queries.len());
        for (&id, q) in queries.iter_mut() {
            // The two provable skips: nothing effective happened, or no
            // structural change and no in-scope dimension rewritten (every
            // dimension is in scope of a full-space or constrained query).
            let requery = effective && (structural || touched_dims & q.spec.scope_mask() != 0);
            let (added, removed, rescored) = if requery {
                q.stats.fallbacks += 1;
                let new_result = self.standing_answer(&q.spec, &mut snapshot);
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
    /// constrained one, and [`standing::subspace_requery`] over the live
    /// snapshot — taken once per batch into `snapshot` — for a subspace
    /// one.
    fn standing_answer(
        &mut self,
        spec: &StandingSpec,
        snapshot: &mut Option<(Dataset, Vec<ObjectId>)>,
    ) -> Vec<ResultEntry> {
        if let Some(dims) = &spec.subspace {
            let (snap, ids) = snapshot.get_or_insert_with(|| (self.snapshot(), self.live_ids()));
            return standing::subspace_requery(snap, ids, dims, spec);
        }
        let q = EngineQuery {
            k: spec.k,
            algorithm: spec.algorithm,
            tie: TieBreak::ById,
        };
        let result = if spec.constraint.is_empty() {
            self.query(&q)
        } else {
            self.query_constrained(&q, &spec.constraints(self.dims))
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

    /// Answer a query with `threads` workers cooperating on the candidate
    /// queue and merging by replay (identical results to
    /// [`DynamicEngine::query`] — the same differential guarantee
    /// [`crate::ParallelEngine`] carries; every worker scores against the
    /// one maintained index, whose live-aware paths keep tombstoned slots
    /// out of every count).
    ///
    /// # Errors
    /// [`UpdateError::UnsupportedAlgorithm`] for anything but BIG/IBIG.
    pub fn query_threads(
        &mut self,
        q: &EngineQuery,
        threads: usize,
    ) -> Result<TkdResult, UpdateError> {
        if !matches!(q.algorithm, Algorithm::Big | Algorithm::Ibig) {
            return Err(UpdateError::UnsupportedAlgorithm(q.algorithm));
        }
        self.refresh();
        let threads = threads.max(1);
        self.fit_scratch(threads);
        let scorer = scorer(
            &self.ds,
            &self.index,
            &self.binned,
            &self.pre,
            None,
            q.algorithm,
        );
        let queue = self.pre.queue();
        let slots = new_slots(slots_needed(threads, queue.len()));
        let result = run_replay(queue, q.k, &mut self.scratch[..threads], &slots, scorer);
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
        if !matches!(q.algorithm, Algorithm::Big | Algorithm::Ibig) {
            return Err(UpdateError::UnsupportedAlgorithm(q.algorithm));
        }
        let scope = RowScope::new(self.admitted(constraints)?);
        let queue = self.scoped_queue(&scope);
        self.fit_scratch(1);
        let (ds, index, binned, pre) = (&self.ds, &self.index, &self.binned, &self.pre);
        let score = scorer(ds, index, binned, pre, Some(&scope), q.algorithm);
        let scratch = &mut self.scratch[0];
        let result = walk(&queue, q.k, |o, tau| score(o, tau, scratch));
        Ok(self.stable_result(result, q.tie))
    }

    /// Every slot's row since the last compaction, tombstoned ones
    /// included: the rows [`DynamicEngine::admitted_slots`] names.
    pub fn slot_rows(&self) -> &Dataset {
        &self.ds
    }

    /// The live slots `constraints` admits, ascending — every live slot
    /// for [`Constraints::none`]. They name rows of
    /// [`DynamicEngine::slot_rows`], so a planner measures the rows a
    /// statement ranks in place, without a snapshot.
    ///
    /// # Errors
    /// As [`DynamicEngine::query_constrained`].
    pub fn admitted_slots(&self, constraints: &Constraints) -> Result<Vec<ObjectId>, UpdateError> {
        let admitted = self.admitted(constraints)?;
        Ok(admitted.iter_ones().map(|s| s as ObjectId).collect())
    }

    /// The live slots `constraints` admits, one bit per slot.
    fn admitted(&self, constraints: &Constraints) -> Result<BitVec, UpdateError> {
        let past = (self.dims..constraints.dims()).find(|&d| constraints.interval(d).is_some());
        if let Some(dim) = past {
            let dims = self.dims;
            return Err(ModelError::DimensionOutOfRange { dim, dims }.into());
        }
        let mut scope = self.live.live_mask().clone();
        let mut admitted = BitVec::zeros(self.ds.len());
        for dim in 0..self.dims {
            if let Some((lo, hi)) = constraints.interval(dim) {
                self.index.admit(dim, lo, hi, &mut admitted);
                scope.and_assign(&admitted);
            }
        }
        Ok(scope)
    }

    /// The queue `F` of the rows in `scope`, as a rebuild over those rows
    /// sorts it: a row's `MaxScore` is the least, over its observed
    /// dimensions, of the scope rows missing that dimension or at or above
    /// its value slot, less itself — one histogram of the scope rows'
    /// value slots per dimension, summed from the top.
    fn scoped_queue(&self, scope: &RowScope) -> Vec<(ObjectId, usize)> {
        let (index, dims) = (&self.index, self.dims);
        // `at_least[base[d] + j]`: scope rows missing `d` (`j = 0`) or,
        // for `j ≥ 1`, at a value slot `≥ j` of `d`.
        let mut base = Vec::with_capacity(dims);
        let mut len = 0;
        for d in 0..dims {
            base.push(len);
            len += index.cardinality(d) + 1;
        }
        let mut at_least = vec![0usize; len];
        for s in scope.bits().iter_ones() {
            for (d, &b) in base.iter().enumerate() {
                at_least[b + index.value_slot(s, d) as usize] += 1;
            }
        }
        for (d, &b) in base.iter().enumerate() {
            let counts = &mut at_least[b..=b + index.cardinality(d)];
            let mut sum = counts[0];
            for c in counts[1..].iter_mut().rev() {
                sum += *c;
                *c = sum;
            }
            // A missing cell never attains the minimum.
            counts[0] = usize::MAX;
        }
        // Less the row itself, which every count of its own slots holds.
        let max_score = |s: usize| {
            let t_row = base
                .iter()
                .enumerate()
                .map(|(d, &b)| at_least[b + index.value_slot(s, d) as usize]);
            t_row.min().expect("at least one dimension") - 1
        };
        let mut queue = Vec::with_capacity(scope.count());
        let rows = scope.bits().iter_ones();
        fill_queue(&mut queue, rows.map(|s| (s as ObjectId, max_score(s))));
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
        let mapped = TkdResult::new_ordered(entries, stats);
        match tie {
            TieBreak::ById => mapped,
            TieBreak::Random(seed) => shuffle_ties(mapped, seed),
        }
    }

    /// Answer a batch of concurrent queries against the live state —
    /// the coalescing path of the network server: a
    /// [`crate::ParallelEngine`] borrowing the maintained indexes is made
    /// **once** per batch (O(1) in the dataset) and the batch fans out
    /// worker-per-query through
    /// [`crate::ParallelEngine::query_many`]. Results come back in
    /// batch order, each bit-identical (entries, scores, tie order) to
    /// running [`DynamicEngine::query`] alone, and entry ids are
    /// **stable ids**.
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
            if !matches!(q.algorithm, Algorithm::Big | Algorithm::Ibig) {
                return Err(UpdateError::UnsupportedAlgorithm(q.algorithm));
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.refresh();
        let engine = crate::ParallelEngine::from_prebuilt(
            &self.ds,
            &self.index,
            &self.binned,
            &self.pre,
            threads,
        );
        // Run with the identity tie-break and map slot → stable ids
        // first, applying the requested tie handling after the mapping —
        // the exact order of operations of `query_threads`, so the two
        // paths stay bit-identical.
        let plain: Vec<EngineQuery> = queries
            .iter()
            .map(|q| EngineQuery {
                k: q.k,
                algorithm: q.algorithm,
                tie: TieBreak::ById,
            })
            .collect();
        let results = engine.query_many(&plain);
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
    // bit is left out of its score. Nothing is built, and after the
    // first candidate of a mask no local row carries, nothing allocated.

    /// BIG phase 1: the suffix-table upper bound on this engine's `|Q|`
    /// intersection for the candidate (its own bit included when it is a
    /// member — the cross-shard Heuristic-2 limit is `τ + 1`).
    pub fn big_bound(&self, values: &[Option<f64>]) -> usize {
        let sel = self.index.select_for(|d| values[d]);
        self.index.q_selected_upper_bound(&sel)
    }

    /// IBIG phase 1: the exact fused `|Q|` count off the binned columns
    /// (own bit included when member) — the budgeted scan at budget 0,
    /// which counts without writing. The coordinator's `MaxBitScore` is
    /// `Σⱼ counts − 1`.
    pub fn ibig_q_count(&self, values: &[Option<f64>]) -> usize {
        let sel = self.binned.select_for(|d| values[d]);
        self.binned.q_count_selected_above(&sel, 0).unwrap_or(0)
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
        self.fit_scratch(1);
        let scratch = &mut self.scratch[0];
        scratch.sel = self.index.select_for(|d| values[d]);
        let (ds, f_sets, foreign_f) = (&self.ds, &self.pre.f_sets, &mut self.foreign_f);
        let cand = shard_candidate(ds, &self.live, f_sets, foreign_f, values, member);
        Ok(big_term(&self.index, ds.masks(), &cand, None, scratch))
    }

    /// IBIG phase 2: the same count off the binned index — one shard term
    /// of IBIG-Score on an unlimited Heuristic-3 budget (the real one is
    /// global; see `crate::cluster`).
    ///
    /// # Errors
    /// As [`DynamicEngine::big_partial`].
    pub fn ibig_partial(
        &mut self,
        values: &[Option<f64>],
        member: Option<ObjectId>,
    ) -> Result<usize, UpdateError> {
        let member = member.map(|id| self.slot(id)).transpose()?;
        self.fit_scratch(1);
        let scratch = &mut self.scratch[0];
        scratch.bin_sel = self.binned.select_for(|d| values[d]);
        fill_q(&self.binned, None, scratch);
        let (ds, f_sets, foreign_f) = (&self.ds, &self.pre.f_sets, &mut self.foreign_f);
        let cand = shard_candidate(ds, &self.live, f_sets, foreign_f, values, member);
        let value = |d: usize| values[d].expect("masked dimension is observed");
        let mut unlimited = usize::MAX;
        let term = ibig_term(
            &self.binned,
            ds.masks(),
            &cand,
            None,
            value,
            scratch,
            &mut unlimited,
        );
        Ok(term.expect("an unlimited budget is never overdrawn"))
    }

    // ----- persistence ----------------------------------------------------

    /// Export the engine's logical state for the snapshot writer. Takes
    /// `&mut self` to flush the deferred queue re-sort first, so the
    /// persisted queue is always clean and the serialization of a given
    /// logical state is deterministic.
    pub fn to_store_parts(&mut self) -> DynamicParts {
        self.refresh();
        DynamicParts {
            ds: self.ds.clone(),
            stable_of: self.stable_of.clone(),
            next_id: self.next_id,
            index: self.index.clone(),
            binned: self.binned.clone(),
            pre: self.pre.clone(),
            t: self.t.clone(),
            bins: self.bins.clone(),
            policy: self.policy,
            epoch: self.epoch,
            stats: self.stats,
        }
    }

    /// Borrowed form of [`DynamicEngine::to_store_parts`] — the encode
    /// path's view. Serializing through references keeps peak memory at
    /// one engine plus the output buffer; the owned [`DynamicParts`]
    /// (a full deep copy of every artifact) is only ever built on load.
    pub fn store_parts_ref(&mut self) -> DynamicPartsRef<'_> {
        self.refresh();
        DynamicPartsRef {
            ds: &self.ds,
            stable_of: &self.stable_of,
            next_id: self.next_id,
            index: &self.index,
            binned: &self.binned,
            pre: &self.pre,
            t: &self.t,
            bins: &self.bins,
            policy: self.policy,
            epoch: self.epoch,
            stats: self.stats,
        }
    }

    /// Resume an engine from persisted parts (snapshot load) — the
    /// inverse of [`DynamicEngine::to_store_parts`], rebuilding every
    /// derivable structure (live bookkeeping from the index's mask, the
    /// stable-id inverse, `|Sᵢ|` counts, scratch) and validating the
    /// cross-section invariants the query paths rely on: consistent
    /// arities, strictly increasing stable ids (the tie-order invariant),
    /// a `t` table whose observedness matches the dataset's masks, a
    /// clean correctly-sorted queue covering exactly the live slots, and
    /// an incomparable set for every live mask.
    ///
    /// # Errors
    /// A description of the first violated invariant. Bit-level integrity
    /// is the snapshot checksums' job; result-level equivalence is pinned
    /// by the round-trip parity suite.
    pub fn from_store_parts(parts: DynamicParts) -> Result<Self, String> {
        let DynamicParts {
            ds,
            stable_of,
            next_id,
            index,
            binned,
            pre,
            t,
            bins,
            policy,
            epoch,
            stats,
        } = parts;
        let dims = ds.dims();
        let n = ds.len();
        if index.n() != n || index.dims() != dims {
            return Err(format!(
                "bitmap index shape ({} × {}) disagrees with the dataset ({n} × {dims})",
                index.n(),
                index.dims()
            ));
        }
        if binned.n() != n || binned.dims() != dims {
            return Err(format!(
                "binned index shape ({} × {}) disagrees with the dataset ({n} × {dims})",
                binned.n(),
                binned.dims()
            ));
        }
        let live = Tombstones::from_live_mask(index.live_mask().clone());
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
        if t.len() != n * dims {
            return Err(format!(
                "t table holds {} entries, expected {}",
                t.len(),
                n * dims
            ));
        }
        if let Some(d) = (0..dims).find(|&d| binned.observed_count(d) > live.live_count()) {
            return Err(format!(
                "dim {d} observes more probe entries than live slots exist"
            ));
        }
        // Live slots' t rows agree with the masks; the queue covers the
        // live slots exactly, sorted by (MaxScore desc, slot asc), each
        // entry carrying the min of its observed t row.
        for s in live.iter_live() {
            let mask = ds.mask(s as ObjectId);
            for d in 0..dims {
                let unobserved = t[s * dims + d] == T_UNOBSERVED;
                if unobserved == mask.observed(d) {
                    return Err(format!(
                        "t table observedness of slot {s} dim {d} disagrees with the dataset"
                    ));
                }
            }
        }
        if pre.queue().len() != live.live_count() {
            return Err(format!(
                "queue holds {} entries for {} live slots",
                pre.queue().len(),
                live.live_count()
            ));
        }
        let mut seen = BitVec::zeros(n);
        for (i, &(slot, ms)) in pre.queue().iter().enumerate() {
            let s = slot as usize;
            if s >= n || !live.is_live(s) {
                return Err(format!(
                    "queue entry {i} names dead or out-of-range slot {slot}"
                ));
            }
            if seen.get(s) {
                return Err(format!("queue names slot {slot} twice"));
            }
            seen.set(s);
            let expected = ds
                .mask(slot)
                .iter()
                .map(|d| t[s * dims + d] as usize)
                .min()
                .expect("live rows observe at least one dimension");
            if ms != expected {
                return Err(format!(
                    "queue MaxScore {ms} of slot {slot} disagrees with the t table ({expected})"
                ));
            }
            if i > 0 {
                let (ps, pm) = pre.queue()[i - 1];
                if (pm, slot) <= (ms, ps) {
                    return Err(format!(
                        "queue is not sorted by (MaxScore desc, slot asc) at entry {i}"
                    ));
                }
            }
        }
        for (mask, bv) in pre.f_sets() {
            if bv.len() != n {
                return Err(format!(
                    "incomparable set of mask {mask:#x} has {} bits, expected {n}",
                    bv.len()
                ));
            }
        }
        for s in live.iter_live() {
            let mask = ds.mask(s as ObjectId).bits();
            if !pre.f_sets().contains_key(&mask) {
                return Err(format!(
                    "no incomparable set for live mask {mask:#x} (slot {s})"
                ));
            }
        }
        let slot_of = live.iter_live().map(|s| (stable_of[s], s)).collect();
        Ok(DynamicEngine {
            dims,
            ds,
            live,
            stable_of,
            slot_of,
            next_id,
            index,
            binned,
            pre,
            foreign_f: HashMap::new(),
            t,
            queue_dirty: false,
            scratch: Vec::new(),
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
        let live_slots: Vec<ObjectId> = self.live.iter_live().map(|s| s as ObjectId).collect();
        let stable: Vec<ObjectId> = live_slots
            .iter()
            .map(|&s| self.stable_of[s as usize])
            .collect();
        self.ds = self.ds.select(&live_slots);
        let n = self.ds.len();
        self.live = Tombstones::all_live(n);
        self.slot_of = stable.iter().enumerate().map(|(s, &id)| (id, s)).collect();
        self.stable_of = stable;
        self.scratch.clear();
        self.rebuild_artifacts();
        self.epoch += 1;
        self.stats.compactions += 1;
        self.standing.on_structural();
    }

    fn maybe_compact(&mut self) {
        if self.live.dead_count() >= self.policy.min_dead
            && self.live.dead_fraction() > self.policy.max_tombstone_fraction
        {
            self.compact_now();
        }
    }

    /// (Re)build every maintained artifact from `self.ds`, which must be
    /// tombstone-free — the epoch-0 initialisation and the compaction
    /// tail.
    fn rebuild_artifacts(&mut self) {
        let ds = &self.ds;
        let n = ds.len();
        let dims = self.dims;
        let bins = match &self.bins {
            BinChoice::Auto => {
                let x = cost::optimal_bins(n, stats::missing_rate(ds));
                vec![x; dims]
            }
            BinChoice::Fixed(x) => vec![(*x).max(1); dims],
            BinChoice::PerDim(v) => {
                assert_eq!(v.len(), dims, "one bin count per dimension");
                v.clone()
            }
        };
        // One sort per dimension: the same column feeds both indexes and
        // the exact `|Tᵢ|` table.
        let mut pair = IndexPairBuilder::new(&bins, n);
        self.t = vec![T_UNOBSERVED; n * dims];
        for_each_sorted_column(ds, |d, column| {
            pair.push_dim(d, column);
            for (o, t_d) in t_counts(column, n) {
                self.t[o as usize * dims + d] = t_d as u32;
            }
        });
        (self.index, self.binned) = pair.finish();
        self.pre = Preprocessed {
            queue: Vec::new(),
            f_sets: incomparable_bitvecs(ds),
        };
        self.foreign_f.clear();
        self.queue_dirty = true;
        self.refresh();
    }

    // ----- internals ------------------------------------------------------

    /// Make (at least) `threads` scratches fit the current slot count.
    fn fit_scratch(&mut self, threads: usize) {
        let n = self.ds.len();
        self.scratch.retain(|s| s.n() == n);
        let wanted = threads.max(self.scratch.len());
        self.scratch.resize_with(wanted, || ScratchSpace::new(n));
    }

    fn slot(&self, id: ObjectId) -> Result<usize, UpdateError> {
        live_or(self.slot_of.get(&id).copied(), id, self.next_id)
    }

    /// Add `delta` to `|T_dim(o)|` of every live object `o` that counts an
    /// object observing `obs` in `dim` (`None` = the object misses `dim`
    /// and contributes through `S_dim` to every observer), skipping
    /// `skip`. One word-parallel `live ∧ ¬column` enumeration: `O(N/64)`
    /// words plus one add per affected object.
    fn shift_t(&mut self, dim: usize, obs: Option<f64>, skip: Option<usize>, delta: i32) {
        // `o` counts the contributor iff `o[dim] ≤ v` (rank sets) or
        // always when the contributor misses `dim` (membership in S_dim) —
        // in both cases a complement-of-column scan:
        //   {o live, observed, o[dim] ≤ v}  =  live ∧ ¬column[#values ≤ v]
        //   {o live, observed}              =  live ∧ ¬column[C_dim]
        let c = match obs {
            Some(v) => self.index.values(dim).partition_point(|&x| x <= v),
            None => self.index.cardinality(dim),
        };
        if c == 0 {
            return; // column 0 is all-ones: the complement set is empty
        }
        let col = self.index.column(dim, c);
        let dims = self.dims;
        for s in self.live.live_mask().iter_ones_and_not(col) {
            if Some(s) == skip {
                continue;
            }
            let e = &mut self.t[s * dims + dim];
            debug_assert_ne!(*e, T_UNOBSERVED, "shift hit an unobserved cell");
            *e = e.checked_add_signed(delta).expect("t-count out of range");
        }
    }

    /// Make sure the incomparable-set table has an entry for `mask`,
    /// building it over the live objects if absent.
    fn ensure_fset(&mut self, mask: DimMask) {
        let (ds, live) = (&self.ds, &self.live);
        self.pre
            .f_sets
            .entry(mask.bits())
            .or_insert_with(|| incomparable_window(ds, live, mask));
    }

    /// Re-sort the candidate queue from the maintained exact `|Tᵢ|` table
    /// (deferred until the next query so op batches pay it once).
    fn refresh(&mut self) {
        if !self.queue_dirty {
            return;
        }
        let (t, dims) = (&self.t, self.dims);
        // `T_UNOBSERVED` is `u32::MAX`, so a missing cell never attains
        // the minimum.
        let max_score = |s: usize| {
            let t_row = t[s * dims..(s + 1) * dims].iter().min();
            *t_row.expect("at least one dimension") as usize
        };
        let live = self.live.iter_live();
        fill_queue(
            &mut self.pre.queue,
            live.map(|s| (s as ObjectId, max_score(s))),
        );
        self.queue_dirty = false;
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

/// The live slots observing no dimension in common with `mask`.
fn incomparable_window(ds: &Dataset, live: &Tombstones, mask: DimMask) -> BitVec {
    let incomparable = |&s: &usize| !ds.mask(s as ObjectId).intersects(mask);
    BitVec::from_indices(ds.len(), live.iter_live().filter(incomparable))
}

/// A shard-scoring candidate as the engine's slots see it: its mask read
/// off the shipped values, its window lent from the maintained
/// incomparable sets when a local row carries that mask, else computed
/// once into `foreign_f`.
fn shard_candidate<'a>(
    ds: &Dataset,
    live: &Tombstones,
    f_sets: &'a HashMap<u64, BitVec>,
    foreign_f: &'a mut HashMap<u64, BitVec>,
    values: &[Option<f64>],
    member: Option<usize>,
) -> Candidate<'a> {
    let observed = values.iter().enumerate().filter(|(_, v)| v.is_some());
    let mask = DimMask::from_indices(observed.map(|(d, _)| d));
    let f = match f_sets.get(&mask.bits()) {
        Some(f) => f,
        None => foreign_f
            .entry(mask.bits())
            .or_insert_with(|| incomparable_window(ds, live, mask)),
    };
    Candidate { mask, member, f }
}

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
        // Queue MaxScore tampered.
        {
            let mut p = parts.clone();
            let q = p.pre.queue().to_vec();
            let mut q2 = q.clone();
            q2[0].1 += 1;
            p.pre = Preprocessed::from_parts(q2, p.pre.f_sets().clone());
            assert!(DynamicEngine::from_store_parts(p).is_err());
        }
        // Queue order tampered (swap two adjacent distinct-score entries).
        {
            let mut p = parts.clone();
            let mut q = p.pre.queue().to_vec();
            let i = (0..q.len() - 1)
                .find(|&i| q[i].1 != q[i + 1].1)
                .expect("distinct scores exist");
            q.swap(i, i + 1);
            p.pre = Preprocessed::from_parts(q, p.pre.f_sets().clone());
            assert!(DynamicEngine::from_store_parts(p).is_err());
        }
        // t-table observedness flipped on an observed cell of live slot 0.
        {
            let mut p = parts.clone();
            let d =
                p.ds.mask(0)
                    .iter()
                    .next()
                    .expect("slot 0 observes something");
            p.t[d] = T_UNOBSERVED;
            assert!(DynamicEngine::from_store_parts(p).is_err());
        }
        // Missing incomparable set for a live mask.
        {
            let mut p = parts;
            let mut f = p.pre.f_sets().clone();
            f.remove(&p.ds.mask(0).bits());
            p.pre = Preprocessed::from_parts(p.pre.queue().to_vec(), f);
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
