//! **TKDQL** — a small query language for top-k dominating queries on
//! incomplete data, with a cost-based planner.
//!
//! One statement form, five clauses:
//!
//! ```text
//! SELECT TOP k DOMINATING
//!   [ FROM 'path' ]
//!   [ SUBSPACE (d1, d3, ...) ]
//!   [ WHERE d2 > 0.5 AND d4 BETWEEN 1 AND 4 ]
//!   [ USING BIG | IBIG | UBB | ESB | NAIVE ]
//!   [ WITH THREADS t, BINS x ]
//! ```
//!
//! plus the wrappers `EXPLAIN <select>` (plan, don't run) and
//! `SUBSCRIBE TO <select>` (register a standing query on a dynamic
//! engine; accepts `WITH WINDOW n`). The normative grammar,
//! keyword table, and executable examples live in `docs/TKDQL.md`; the
//! spec harness (`tests/tkdql_spec_examples.rs`) runs every example
//! against the paper's Fig. 3 dataset.
//!
//! The pipeline is classical: [`lexer`] → [`parser`] → [`binder`] →
//! [`optimizer`] → [`plan`] → [`exec`]. Missing values follow the
//! paper's semantics — a predicate on a dimension an object does not
//! observe is vacuously true, so `WHERE` never assumes anything about
//! missing values. When no `USING` clause is given, the planner picks
//! the algorithm by the paper's §4.5 space/time cost model, measured on
//! the *derived* dataset (after `WHERE`/`SUBSPACE`), and `EXPLAIN`
//! reports exactly the choice execution makes.
//!
//! ```
//! use tkd_model::fixtures;
//! let ds = fixtures::fig3_sample();
//! let plan = tkd_ql::compile("SELECT TOP 2 DOMINATING USING BIG", ds.dims()).unwrap();
//! match tkd_ql::exec::run_on_dataset(&plan, &ds).unwrap() {
//!     tkd_ql::exec::Outcome::Rows(r) => assert_eq!(r.scores(), vec![16, 16]),
//!     _ => unreachable!(),
//! }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod binder;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;

pub use binder::bind;
pub use error::{QlError, QlStage, Span};
pub use exec::{run_on_dataset, run_on_engine, Outcome};
pub use parser::parse;
pub use plan::{resolve_algorithm, AlgoChoice, AlgoDecision, DimRange, Plan, PlanStats};

/// Parse, bind, and optimize `text` against a target of dimensionality
/// `dims` — the whole front half of the pipeline in one call.
///
/// The `FROM` clause is carried through ([`Plan::from`]) but not
/// resolved; callers that accept `FROM` should [`parse`] first, load the
/// named source, and then compile against its dimensionality.
///
/// # Errors
/// A [`QlError`] from whichever stage rejects the statement.
pub fn compile(text: &str, dims: usize) -> Result<Plan, QlError> {
    optimizer::plan(binder::bind(&parser::parse(text)?, dims)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_is_parse_bind_plan() {
        let p = compile("SELECT TOP 3 DOMINATING WHERE d1 >= 2", 4).unwrap();
        assert_eq!(p.k, 3);
        assert_eq!(p.ranges.len(), 1);
        assert!(compile("SELECT TOP", 4).is_err());
        assert!(compile("SELECT TOP 3 DOMINATING WHERE d9 >= 2", 4).is_err());
    }
}
