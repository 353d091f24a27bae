//! # tkdi — Top-k Dominating Queries on Incomplete Data
//!
//! A faithful, production-quality Rust reproduction of
//! *Miao, Gao, Zheng, Chen, Cui: "Top-k Dominating Queries on Incomplete
//! Data", IEEE TKDE 28(1), 2016*.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — incomplete-data records, datasets, dominance (Def. 1–3).
//! * [`bitvec`] — dense bit vectors plus WAH and CONCISE compression (the
//!   paper's IBIG storage layout, measured; queries read dense columns).
//! * [`skyline`] — skyline / k-skyband operators.
//! * [`index`] — range-encoded and binned bitmap indexes, binning strategy,
//!   space/time cost model (§4.3–4.5).
//! * [`core`] — the TKD algorithms: Naive, ESB, UBB, BIG, IBIG (§4), plus
//!   the MFD weighted-dominance extension (§3), the parallel execution
//!   layer (`core::parallel`), the multi-user serving engine
//!   (`core::engine`), the dynamic update layer (`core::dynamic`)
//!   with incremental inserts/deletes over all indexes, and standing
//!   queries (`core::standing`) whose results are re-queried per
//!   op-batch and streamed as deltas.
//! * [`data`] — synthetic workloads (IND/AC/CO) and real-dataset simulators.
//! * [`impute`] — matrix-factorization imputation baseline (§5.2, Table 4).
//! * [`store`] — versioned on-disk snapshots of the full query state
//!   (`tkdq build` / `--index`), restored bit-identically, and the op
//!   log that makes an update batch durable between snapshots.
//! * [`serve`] — long-running TCP query service (`tkdq serve`): versioned
//!   binary protocol, query coalescing, admission control, and updates
//!   acked after a synced op-log append.
//! * [`ql`] — TKDQL, the query language: lexer → parser → binder →
//!   cost-based planner → execution (`tkdq query -e`, `tkdq repl`, and
//!   the wire protocol's text statements). Spec: `docs/TKDQL.md`.
//! * [`cli`] — the `tkdq` command table the binary's help text and the
//!   README command table are both generated/checked from.
//!
//! # Quickstart
//!
//! ```
//! use tkdi::prelude::*;
//!
//! // The paper's 20-object running example (Fig. 3).
//! let ds = tkdi::model::fixtures::fig3_sample();
//!
//! // T2D query: the two objects dominating the most others.
//! let result = TkdQuery::new(2).algorithm(Algorithm::Big).run(&ds);
//! let labels: Vec<_> = result.iter().map(|e| ds.label(e.id).unwrap()).collect();
//! assert_eq!(labels, vec!["A2", "C2"]); // both with score 16
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use tkd_bitvec as bitvec;
pub use tkd_cluster as cluster;
pub use tkd_core as core;
pub use tkd_data as data;
pub use tkd_impute as impute;
pub use tkd_index as index;
pub use tkd_model as model;
pub use tkd_ql as ql;
pub use tkd_serve as serve;
pub use tkd_skyline as skyline;
pub use tkd_store as store;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use tkd_core::{
        Algorithm, BatchReport, DynamicEngine, EngineQuery, Notification, ParallelEngine,
        StandingSpec, TkdQuery, TkdResult, UpdateOp,
    };
    pub use tkd_model::{Dataset, DimMask, ObjectId};
}
