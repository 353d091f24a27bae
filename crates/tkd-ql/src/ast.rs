//! The TKDQL abstract syntax tree — what the parser produces and the
//! binder consumes. Every node keeps the [`Span`] of the text it came
//! from so later stages can point diagnostics at the source.

use crate::error::Span;

/// A complete TKDQL statement: the select core plus its wrappers.
///
/// `EXPLAIN` and `SUBSCRIBE TO` compose (`EXPLAIN SUBSCRIBE TO SELECT …`
/// plans the registration without registering), so they are flags rather
/// than variants.
#[derive(Clone, Debug, PartialEq)]
pub struct Statement {
    /// `EXPLAIN …` — plan, don't run.
    pub explain: bool,
    /// `SUBSCRIBE TO …` — register a standing query instead of running
    /// once.
    pub subscribe: bool,
    /// The `SELECT TOP k DOMINATING …` core.
    pub select: SelectStmt,
}

impl Statement {
    /// The inner select (kept for symmetry with the field).
    pub fn select(&self) -> &SelectStmt {
        &self.select
    }
}

/// The `SELECT TOP k DOMINATING …` clause bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    /// The `k` of top-k, with its span.
    pub k: (u64, Span),
    /// `FROM 'path'` — where the data lives (optional; the CLI/REPL/serve
    /// contexts supply an ambient source).
    pub from: Option<(String, Span)>,
    /// `SUBSPACE (d1, d3, …)` — dimension names, unresolved.
    pub subspace: Option<Vec<(String, Span)>>,
    /// `WHERE p1 AND p2 AND …` — the predicate conjunction, in source
    /// order.
    pub predicates: Vec<Predicate>,
    /// `USING <algorithm>` — explicit algorithm selection (None = the
    /// planner chooses by cost).
    pub using: Option<(String, Span)>,
    /// `WITH item, item, …` — execution knobs.
    pub with: Vec<WithItem>,
}

/// One `WHERE` conjunct.
#[derive(Clone, Debug, PartialEq)]
pub struct Predicate {
    /// The dimension name on the left-hand side, unresolved.
    pub dim: (String, Span),
    /// The comparison.
    pub op: CmpOp,
    /// Right-hand constant expression (the lower bound for `BETWEEN`).
    pub rhs: Expr,
    /// `BETWEEN`'s upper-bound expression.
    pub rhs2: Option<Expr>,
}

/// Comparison operators of the `WHERE` clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `<` — strictly less.
    Lt,
    /// `<=` — at most.
    Le,
    /// `>` — strictly greater.
    Gt,
    /// `>=` — at least.
    Ge,
    /// `=` — exactly.
    Eq,
    /// `BETWEEN lo AND hi` — inclusive on both ends.
    Between,
}

impl CmpOp {
    /// Source spelling, for plan rendering.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Between => "BETWEEN",
        }
    }
}

/// A constant numeric expression (folded by the optimizer).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal.
    Num(f64, Span),
    /// Unary negation.
    Neg(Box<Expr>, Span),
    /// A binary arithmetic node.
    Bin(Box<Expr>, ArithOp, Box<Expr>, Span),
}

impl Expr {
    /// The span of the expression's head token.
    pub fn span(&self) -> Span {
        match self {
            Expr::Num(_, s) | Expr::Neg(_, s) | Expr::Bin(_, _, _, s) => *s,
        }
    }
}

/// Arithmetic operators usable in constant expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// One `WITH` knob.
#[derive(Clone, Debug, PartialEq)]
pub enum WithItem {
    /// `THREADS t` — worker threads for BIG/IBIG.
    Threads(u64, Span),
    /// `WINDOW n` — sliding-window capacity (subscriptions only).
    Window(u64, Span),
    /// `BINS x` — IBIG bins per dimension.
    Bins(u64, Span),
}
