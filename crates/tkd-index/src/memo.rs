//! The measurement memo: per member row, what the Heuristic 2 lookups and
//! the scoring term have proven about it, kept across queries.
//!
//! A row's `|∩ᵢ column(i, qᵢ(o))|` at a fixed set of picks, and IBIG's
//! `nonD(o)` at its binned picks, depend on the row and the index alone,
//! never on τ. So a bound proven by one query prunes the row in every
//! later query whose budget it fits, and a row scored once is scored
//! again from its count and `nonD` (`score(o) = |Q| − |F(o)| − |nonD(o)|`)
//! without a scan. The memo keeps two lanes, one entry per slot each:
//!
//! - the **exact lane** (BIG's walk, 4 bytes per slot): an upper bound on
//!   the count at the row's own exact picks, read and fed by
//!   [`crate::BitmapIndex::max_bit_score_above`];
//! - the **binned lane** (IBIG's walk, 8 bytes per slot): an upper bound
//!   on the count at the row's binned picks in the high half, and its
//!   `nonD` in the low half once the row has been scored — read and fed
//!   by [`crate::BinnedBitmapIndex::member_count_above`] and
//!   [`crate::BinnedBitmapIndex::record_non_d`]. Its entries mean
//!   something for one set of pick tables only, so the lane belongs to
//!   the first [`crate::BinBoundaries`] that reads it (by their stamp);
//!   a view through any other boundaries runs without it.
//!
//! After a prune a lane stores the budget the prune proved, after a keep
//! the exact count, and the binned lane then the exact count paired with
//! `nonD`. Entries only fall (`fetch_min`): no valid entry is below the
//! exact count (paired with `nonD`), so the order in which parallel
//! workers store them changes no decision, and a binned entry that holds
//! a `nonD` holds the exact count beside it. An entry publishes no other
//! data, so every access is `Relaxed`; so is the owner stamp's, which
//! publishes nothing either: it only decides which boundaries read the
//! lane, and a reader that sees its own stamp reads self-contained
//! entries, whichever of them it sees.
//!
//! Like the pair tables the memo is absent or exact: a build or load
//! sizes the lanes its owner walks ([`MemoLanes`]) with every entry
//! unknown, any in-place maintenance of the index makes both unreadable
//! (one row's new bits move every other row's count), and
//! [`crate::BitmapIndex::derive_pair_tables`] sizes them again, unclaimed.
//! It is never persisted.

use crate::binned::MemberCount;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// An exact-lane entry no lookup has bounded yet, and the binned lane's
/// "unknown" half.
const UNKNOWN: u32 = u32::MAX;

/// A binned-lane entry no lookup has bounded yet.
const UNKNOWN_ENTRY: u64 = u64::MAX;

/// The owner of a binned lane no boundaries have read yet.
const UNCLAIMED: u64 = 0;

/// Which walks an exact index remembers its measurements for — the memo
/// lanes it carries (see the module docs). A lane a walk never reads
/// costs its bytes per slot and nothing else, so each owner sizes only
/// its own: a BIG context the exact lane, an IBIG context the binned one,
/// an engine serving both every lane, and a one-shot query none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoLanes {
    /// No lane: one walk visits each row once and would never read one.
    None,
    /// BIG's lane: bounds at each row's own exact picks.
    Exact,
    /// IBIG's lane: bounds and `nonD` at each row's binned picks.
    Binned,
    /// Both lanes.
    Both,
}

impl MemoLanes {
    fn exact(self) -> bool {
        matches!(self, MemoLanes::Exact | MemoLanes::Both)
    }

    fn binned(self) -> bool {
        matches!(self, MemoLanes::Binned | MemoLanes::Both)
    }
}

/// The lanes an index carries, each one entry per slot or none at all
/// while unreadable.
#[derive(Debug)]
pub(crate) struct Memo {
    lanes: MemoLanes,
    exact: Vec<AtomicU32>,
    binned: Vec<AtomicU64>,
    /// The stamp of the boundaries the binned lane belongs to.
    owner: AtomicU64,
}

impl Memo {
    /// `lanes` sized over `n` slots, every entry unknown.
    pub(crate) fn new(n: usize, lanes: MemoLanes) -> Self {
        let mut memo = Memo {
            lanes,
            exact: Vec::new(),
            binned: Vec::new(),
            owner: AtomicU64::new(UNCLAIMED),
        };
        memo.refresh(n);
        memo
    }

    /// Forget every entry: both lanes read as unknown everywhere until
    /// [`Memo::refresh`]. Keeps the allocations.
    pub(crate) fn clear(&mut self) {
        self.exact.clear();
        self.binned.clear();
    }

    /// Size every carried lane that is unreadable over `n` slots, every
    /// entry unknown and the binned lane unclaimed. Readable lanes keep
    /// their entries.
    pub(crate) fn refresh(&mut self, n: usize) {
        if self.lanes.exact() && self.exact.len() != n {
            self.exact.clear();
            self.exact.resize_with(n, || AtomicU32::new(UNKNOWN));
        }
        if self.lanes.binned() && self.binned.len() != n {
            self.binned.clear();
            self.binned.resize_with(n, || AtomicU64::new(UNKNOWN_ENTRY));
            *self.owner.get_mut() = UNCLAIMED;
        }
    }

    /// The exact-lane bound stored for `row`, `None` while unknown or
    /// unreadable.
    #[inline]
    pub(crate) fn exact_bound(&self, row: usize) -> Option<usize> {
        let bound = self.exact.get(row)?.load(Ordering::Relaxed);
        (bound != UNKNOWN).then_some(bound as usize)
    }

    /// Record that `row`'s count at its exact picks is at most `bound`. A
    /// no-op while unreadable; bounds past `u32` are not worth keeping.
    #[inline]
    pub(crate) fn record_exact(&self, row: usize, bound: usize) {
        if let (Some(entry), Ok(bound)) = (self.exact.get(row), u32::try_from(bound)) {
            entry.fetch_min(bound, Ordering::Relaxed);
        }
    }

    /// The binned lane for the boundaries stamped `stamp`: `None` while
    /// unreadable or another set of boundaries owns it. With `claim`, an
    /// unclaimed lane becomes theirs.
    #[inline]
    pub(crate) fn binned_lane(&self, stamp: u64, claim: bool) -> Option<BinnedLane<'_>> {
        if self.binned.is_empty() {
            return None;
        }
        let mut owner = self.owner.load(Ordering::Relaxed);
        if owner == UNCLAIMED && claim {
            owner = match self.owner.compare_exchange(
                UNCLAIMED,
                stamp,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => stamp,
                Err(other) => other,
            };
        }
        (owner == stamp).then_some(BinnedLane(&self.binned))
    }
}

impl Clone for Memo {
    /// The same entries and owner: they hold for a clone of the index too.
    fn clone(&self) -> Self {
        let exact = self.exact.iter().map(|b| b.load(Ordering::Relaxed));
        let binned = self.binned.iter().map(|b| b.load(Ordering::Relaxed));
        Memo {
            lanes: self.lanes,
            exact: exact.map(AtomicU32::new).collect(),
            binned: binned.map(AtomicU64::new).collect(),
            owner: AtomicU64::new(self.owner.load(Ordering::Relaxed)),
        }
    }
}

/// A readable binned lane, as its owner sees it.
#[derive(Clone, Copy)]
pub(crate) struct BinnedLane<'m>(&'m [AtomicU64]);

impl BinnedLane<'_> {
    /// The entry stored for `row`, `None` while unknown: an upper bound
    /// on the row's count, exact when its `nonD` is known.
    #[inline]
    pub(crate) fn get(self, row: usize) -> Option<MemberCount> {
        let entry = self.0.get(row)?.load(Ordering::Relaxed);
        let (count, non_d) = ((entry >> 32) as u32, entry as u32);
        (count != UNKNOWN).then_some(MemberCount {
            count: count as usize,
            non_d: (non_d != UNKNOWN).then_some(non_d as usize),
        })
    }

    /// Record that `row`'s count is at most `bound` — exactly `bound`,
    /// with this `non_d`, when one is given. Values past `u32` are not
    /// worth keeping.
    #[inline]
    pub(crate) fn record(self, row: usize, bound: usize, non_d: Option<usize>) {
        let half = |v: usize| u32::try_from(v).ok().filter(|&v| v != UNKNOWN);
        let (Some(bound), Some(non_d)) = (half(bound), non_d.map_or(Some(UNKNOWN), half)) else {
            return;
        };
        if let Some(entry) = self.0.get(row) {
            entry.fetch_min(u64::from(bound) << 32 | u64::from(non_d), Ordering::Relaxed);
        }
    }
}
