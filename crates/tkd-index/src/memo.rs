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
//! Like the pair tables the memo is absent or exact. The walks size it,
//! not a build, load or clone: each walk announces itself to the lane it
//! reads ([`crate::BitmapIndex::announce_walk`],
//! [`crate::BinnedBitmapIndex::announce_walk`]), and the second sizes it
//! with every entry unknown — one walk never revisits a row. Any
//! in-place maintenance of the index makes both lanes unreadable (one
//! row's new bits move every other row's count), and
//! [`crate::BitmapIndex::derive_pair_tables`] sizes them again,
//! unclaimed, in their allocations. It is never persisted.

use crate::binned::MemberCount;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// An exact-lane entry no lookup has bounded yet, and the binned lane's
/// "unknown" half.
const UNKNOWN: u32 = u32::MAX;

/// A binned-lane entry no lookup has bounded yet.
const UNKNOWN_ENTRY: u64 = u64::MAX;

/// The owner of a binned lane no boundaries have read yet.
const UNCLAIMED: u64 = 0;

/// The lanes an index carries, each sized by the walks that read it.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    pub(crate) exact: Lane<AtomicU32>,
    pub(crate) binned: Lane<AtomicU64>,
    /// The stamp of the boundaries the binned lane belongs to
    /// ([`UNCLAIMED`] by default).
    owner: AtomicU64,
}

impl Memo {
    /// Forget every entry: both lanes read as unknown everywhere until
    /// [`Memo::refresh`], and the binned lane is unclaimed. Keeps the
    /// allocations.
    pub(crate) fn clear(&mut self) {
        self.refresh(0);
        *self.owner.get_mut() = UNCLAIMED;
    }

    /// Size every lane walks have sized that is unreadable over `n`
    /// slots, every entry unknown. Readable lanes keep their entries.
    pub(crate) fn refresh(&mut self, n: usize) {
        self.exact.resize(n);
        self.binned.resize(n);
    }

    /// The exact-lane bound stored for `row`, `None` while unknown or
    /// unreadable.
    #[inline]
    pub(crate) fn exact_bound(&self, row: usize) -> Option<usize> {
        let bound = self.exact.entries().get(row)?.load(Ordering::Relaxed);
        (bound != UNKNOWN).then_some(bound as usize)
    }

    /// Record that `row`'s count at its exact picks is at most `bound`. A
    /// no-op while unreadable; bounds past `u32` are not worth keeping.
    #[inline]
    pub(crate) fn record_exact(&self, row: usize, bound: usize) {
        if let (Some(entry), Ok(bound)) = (self.exact.entries().get(row), u32::try_from(bound)) {
            entry.fetch_min(bound, Ordering::Relaxed);
        }
    }

    /// The binned lane for the boundaries stamped `stamp`: `None` while
    /// unreadable or another set of boundaries owns it. With `claim`, an
    /// unclaimed lane becomes theirs.
    #[inline]
    pub(crate) fn binned_lane(&self, stamp: u64, claim: bool) -> Option<BinnedLane<'_>> {
        let entries = self.binned.entries();
        if entries.is_empty() {
            return None;
        }
        let owner = match self.owner.load(Ordering::Relaxed) {
            UNCLAIMED if claim => self
                .owner
                .compare_exchange(UNCLAIMED, stamp, Ordering::Relaxed, Ordering::Relaxed)
                .map_or_else(|other| other, |_| stamp),
            owner => owner,
        };
        (owner == stamp).then_some(BinnedLane(entries))
    }
}

/// One memo entry: an atomic word, `unknown` until a lookup bounds it,
/// and its `copy` for a clone of the index.
pub(crate) trait Entry: Sized {
    fn unknown() -> Self;
    fn copy(&self) -> Self;
}

impl Entry for AtomicU32 {
    fn unknown() -> Self {
        AtomicU32::new(UNKNOWN)
    }
    fn copy(&self) -> Self {
        AtomicU32::new(self.load(Ordering::Relaxed))
    }
}

impl Entry for AtomicU64 {
    fn unknown() -> Self {
        AtomicU64::new(UNKNOWN_ENTRY)
    }
    fn copy(&self) -> Self {
        AtomicU64::new(self.load(Ordering::Relaxed))
    }
}

/// One lane: unsized until the second walk that reads it, then one entry
/// per slot, or none while in-place maintenance leaves it unreadable.
#[derive(Debug, Default)]
pub(crate) struct Lane<E> {
    /// A walk that reads the lane has started.
    walked: AtomicBool,
    entries: OnceLock<Vec<E>>,
}

impl<E: Entry> Lane<E> {
    /// The entries, empty while unsized or unreadable.
    #[inline]
    pub(crate) fn entries(&self) -> &[E] {
        self.entries.get().map_or(&[], Vec::as_slice)
    }

    /// A walk that reads the lane starts: the second sizes it over `n`
    /// slots, every entry unknown.
    pub(crate) fn announce(&self, n: usize) {
        if self.entries.get().is_none() && self.walked.swap(true, Ordering::Relaxed) {
            self.entries
                .get_or_init(|| (0..n).map(|_| E::unknown()).collect());
        }
    }

    /// Size a lane walks have sized over `n` slots, every entry unknown,
    /// unless it holds `n` entries already.
    fn resize(&mut self, n: usize) {
        if let Some(entries) = self.entries.get_mut().filter(|e| e.len() != n) {
            entries.clear();
            entries.resize_with(n, E::unknown);
        }
    }
}

impl<E: Entry> Clone for Lane<E> {
    fn clone(&self) -> Self {
        let copy = |sized: &Vec<E>| OnceLock::from(sized.iter().map(E::copy).collect::<Vec<_>>());
        Lane {
            walked: AtomicBool::new(self.walked.load(Ordering::Relaxed)),
            entries: self.entries.get().map_or_else(OnceLock::new, copy),
        }
    }
}

impl Clone for Memo {
    /// The same lanes and owner: they hold for a clone of the index too.
    fn clone(&self) -> Self {
        Memo {
            exact: self.exact.clone(),
            binned: self.binned.clone(),
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
