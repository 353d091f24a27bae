//! Top-k dominating (TKD) query algorithms on incomplete data — the
//! primary contribution of *Miao, Gao, Zheng, Chen, Cui, "Top-k Dominating
//! Queries on Incomplete Data", TKDE 2016* (§4).
//!
//! Five algorithms, in the paper's order:
//!
//! | Algorithm | Idea | Paper |
//! |-----------|------|-------|
//! | [`naive`]  | exhaustive pairwise scores | §4.1 |
//! | [`esb`]    | bucket by mask + local k-skyband candidates (Lemma 1) | Alg. 1 |
//! | [`ubb`](mod@ubb) | `MaxScore` upper bound + early termination (Heuristic 1) | Alg. 2 |
//! | [`big`]    | bitmap index, `MaxBitScore` (Heuristic 2), bitwise scoring | Alg. 3–4 |
//! | [`ibig`]   | binned view of the bitmap index (its CONCISE layout measured, not executed), partial-score pruning (Heuristic 3) | Alg. 5 |
//!
//! All algorithms return a [`TkdResult`] with identical score semantics
//! (Definitions 2–3) and a [`PruneStats`] describing how much work each
//! heuristic saved (the paper's Fig. 18).
//!
//! Beyond the paper, one queue walk answers one BIG/IBIG query or a
//! whole batch of them — each candidate measured once, each query
//! deciding at its own τ — on one thread or several: the [`parallel`]
//! module's workers measure candidates of the walk over one index while
//! every decision is taken in queue order, so every thread count gives
//! the sequential run's entries, tie order and `PruneStats`. [`engine`]
//! wraps it in a multi-user [`ParallelEngine`] with a batched
//! `query_many` API.
//!
//! The ergonomic entry point is [`TkdQuery`]:
//!
//! ```
//! use tkd_core::{Algorithm, TkdQuery};
//! use tkd_model::fixtures;
//!
//! let ds = fixtures::fig3_sample();
//! for alg in Algorithm::ALL {
//!     let result = TkdQuery::new(2).algorithm(alg).run(&ds);
//!     // The paper's T2D answer on the running example: {A2, C2}, score 16.
//!     let mut labels: Vec<_> = result.iter().map(|e| ds.label(e.id).unwrap()).collect();
//!     labels.sort_unstable();
//!     assert_eq!(labels, ["A2", "C2"], "{alg:?}");
//!     assert_eq!(result.kth_score(), Some(16));
//! }
//! ```

#![warn(missing_docs)]

pub mod big;
pub mod cluster;
pub mod complete_baseline;
pub mod dynamic;
pub mod engine;
pub mod esb;
pub mod ibig;
pub mod maxscore;
pub mod mfd;
pub mod naive;
pub mod parallel;
pub mod preprocess;
mod query;
mod result;
mod scope;
pub mod scratch;
pub mod standing;
mod stats;
mod topk;
pub mod variants;

pub use dynamic::{
    BatchReport, CompactionPolicy, DynamicEngine, DynamicOptions, DynamicParts, DynamicPartsRef,
    ScopeStats, UpdateError, UpdateOp, UpdateStats,
};
pub use engine::{EngineQuery, ParallelEngine};
pub use preprocess::{MaskCounts, Preprocessed};
pub use query::{Algorithm, BinChoice, TieBreak, TkdQuery};
pub use result::{ResultEntry, TkdResult};
pub use scratch::ScratchSpace;
pub use standing::{apply_notification, Notification, StandingId, StandingSpec, StandingStats};
pub use stats::PruneStats;
pub use topk::Replay;
pub use ubb::ubb;
pub mod ubb;
