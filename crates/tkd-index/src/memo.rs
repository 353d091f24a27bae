//! The Heuristic 2 memo: per member row, an upper bound on its
//! `|∩ᵢ column(i, qᵢ(o))|` at its own full-space exact picks, as proven
//! by the lookups so far.
//!
//! That count depends on the row and the index alone, never on τ, so a
//! bound proven by one query prunes the row in every later query whose
//! budget it fits: [`crate::BitmapIndex::max_bit_score_above`] reads the
//! memo first and answers `None` when the entry is within the budget —
//! the answer the pair tables or the budgeted scan would reach. After a
//! prune it stores the budget the prune proved, after a keep the exact
//! count. Entries only fall (`fetch_min`), and every entry is a proven
//! bound, so the order in which parallel workers store them changes no
//! decision. An entry publishes no other data, so every access is
//! `Relaxed`.
//!
//! Like the pair tables the memo is absent or exact: a build or load
//! sizes it with every entry unknown, any in-place maintenance of the
//! index makes it unreadable (one row's new bits move every other row's
//! count), [`crate::BitmapIndex::derive_pair_tables`] sizes it again,
//! and it is never persisted. It costs 4 bytes per slot.

use std::sync::atomic::{AtomicU32, Ordering};

/// An entry no lookup has bounded yet.
const UNKNOWN: u32 = u32::MAX;

/// One bound per slot, or none at all while unreadable.
#[derive(Debug, Default)]
pub(crate) struct H2Memo {
    bounds: Vec<AtomicU32>,
}

impl H2Memo {
    /// A readable memo over `n` slots, every entry unknown.
    pub(crate) fn new(n: usize) -> Self {
        let mut memo = H2Memo::default();
        memo.reset(n);
        memo
    }

    /// Whether the memo holds one entry per slot of an `n`-slot index.
    pub(crate) fn is_readable(&self, n: usize) -> bool {
        self.bounds.len() == n
    }

    /// Forget every entry: the memo reads as unknown everywhere until
    /// [`H2Memo::reset`]. Keeps the allocation.
    pub(crate) fn clear(&mut self) {
        self.bounds.clear();
    }

    /// Readable again over `n` slots, every entry unknown.
    pub(crate) fn reset(&mut self, n: usize) {
        self.bounds.clear();
        self.bounds.resize_with(n, || AtomicU32::new(UNKNOWN));
    }

    /// The bound stored for `row`, `None` while unknown or unreadable.
    #[inline]
    pub(crate) fn get(&self, row: usize) -> Option<usize> {
        let bound = self.bounds.get(row)?.load(Ordering::Relaxed);
        (bound != UNKNOWN).then_some(bound as usize)
    }

    /// Record that `row`'s count is at most `bound`. A no-op while
    /// unreadable; bounds past `u32` are not worth keeping.
    #[inline]
    pub(crate) fn record(&self, row: usize, bound: usize) {
        if let (Some(entry), Ok(bound)) = (self.bounds.get(row), u32::try_from(bound)) {
            entry.fetch_min(bound, Ordering::Relaxed);
        }
    }
}

impl Clone for H2Memo {
    /// The same bounds: they hold for a clone of the index too.
    fn clone(&self) -> Self {
        let bounds = self.bounds.iter().map(|b| b.load(Ordering::Relaxed));
        H2Memo {
            bounds: bounds.map(AtomicU32::new).collect(),
        }
    }
}
