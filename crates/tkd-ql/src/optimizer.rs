//! The rule-based optimizer: [`Bound`] statement → [`Plan`].
//!
//! Three rewrites run here, in order:
//!
//! 1. **Constant folding** — every right-hand expression collapses to one
//!    `f64`; a fold that produces NaN (`0/0`, `inf - inf`) is a plan
//!    error at the expression's span.
//! 2. **Predicate pushdown** — each `WHERE` conjunct becomes an inclusive
//!    per-dimension interval, and conjuncts on the same dimension are
//!    intersected into at most one [`DimRange`] per dimension. Strict
//!    bounds are made inclusive *exactly* via the next representable
//!    float: `v > c ⟺ v ≥ next_up(c)` holds for every f64, so nothing is
//!    lost in the translation to the engines' inclusive-range machinery.
//! 3. **Algorithm selection setup** — `USING` fixes the algorithm;
//!    otherwise the plan carries [`AlgoChoice::Auto`] and the executor
//!    resolves it with [`crate::plan::resolve_algorithm`] on the derived
//!    dataset's statistics (so EXPLAIN and execution cannot disagree).
//!
//! An intersection that comes out empty (`lo > hi`) is kept for one-shot
//! queries — it admits exactly the objects *missing* that dimension,
//! because each conjunct is vacuously true on a missing value — but is
//! rejected for subscriptions, whose standing-region validation requires
//! a satisfiable range.

use crate::ast::{ArithOp, CmpOp, Expr};
use crate::binder::Bound;
use crate::error::QlError;
use crate::plan::{AlgoChoice, DimRange, Plan};

/// Fold a constant expression to a value.
///
/// # Errors
/// Plan-stage [`QlError`] if the arithmetic produces NaN.
pub fn fold(e: &Expr) -> Result<f64, QlError> {
    let v = match e {
        Expr::Num(v, _) => *v,
        Expr::Neg(inner, _) => -fold(inner)?,
        Expr::Bin(lhs, op, rhs, _) => {
            let l = fold(lhs)?;
            let r = fold(rhs)?;
            match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div => l / r,
            }
        }
    };
    if v.is_nan() {
        return Err(QlError::plan(
            e.span(),
            "constant expression folds to NaN (not a number)",
        ));
    }
    Ok(v)
}

/// Optimize a bound statement into an executable plan.
///
/// # Errors
/// Plan-stage [`QlError`] for NaN constants and, on subscriptions,
/// contradictory predicate conjunctions.
pub fn plan(bound: Bound) -> Result<Plan, QlError> {
    // Rule 2: pushdown. One inclusive interval per mentioned dimension.
    let mut ranges: Vec<DimRange> = Vec::new();
    for p in &bound.predicates {
        let (lo, hi) = match p.op {
            CmpOp::Lt => (f64::NEG_INFINITY, fold(&p.rhs)?.next_down()),
            CmpOp::Le => (f64::NEG_INFINITY, fold(&p.rhs)?),
            CmpOp::Gt => (fold(&p.rhs)?.next_up(), f64::INFINITY),
            CmpOp::Ge => (fold(&p.rhs)?, f64::INFINITY),
            CmpOp::Eq => {
                let v = fold(&p.rhs)?;
                (v, v)
            }
            CmpOp::Between => (
                fold(&p.rhs)?,
                fold(p.rhs2.as_ref().expect("parser guarantees BETWEEN bounds"))?,
            ),
        };
        match ranges.iter_mut().find(|r| r.dim == p.dim) {
            Some(r) => {
                r.lo = r.lo.max(lo);
                r.hi = r.hi.min(hi);
            }
            None => ranges.push(DimRange { dim: p.dim, lo, hi }),
        }
        if bound.subscribe {
            let r = ranges.iter().find(|r| r.dim == p.dim).unwrap();
            if r.is_contradiction() {
                return Err(QlError::plan(
                    p.span,
                    format!(
                        "the WHERE conjuncts on d{} contradict each other; \
                         a subscription region must be satisfiable",
                        p.dim + 1
                    ),
                ));
            }
        }
    }
    ranges.sort_by_key(|r| r.dim);

    let algo = match bound.algorithm {
        Some(a) => AlgoChoice::Fixed(a),
        None => AlgoChoice::Auto,
    };

    Ok(Plan {
        explain: bound.explain,
        subscribe: bound.subscribe,
        k: bound.k,
        from: bound.from,
        subspace: bound.subspace,
        ranges,
        algo,
        threads: bound.threads,
        window: bound.window,
        bins: bound.bins,
        dims: bound.dims,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind;
    use crate::parser::parse;
    use tkd_core::Algorithm;

    fn plan_text(text: &str, dims: usize) -> Result<Plan, QlError> {
        plan(bind(&parse(text).unwrap(), dims)?)
    }

    #[test]
    fn folding_handles_precedence_and_negation() {
        let p = plan_text(
            "SELECT TOP 1 DOMINATING WHERE d1 <= 1 + 2 * 3 AND d2 >= -(2 - 5)",
            4,
        )
        .unwrap();
        assert_eq!(p.ranges[0].hi, 7.0);
        assert_eq!(p.ranges[1].lo, 3.0);
    }

    #[test]
    fn nan_constant_is_a_plan_error() {
        let e = plan_text("SELECT TOP 1 DOMINATING WHERE d1 < 0 / 0", 4).unwrap_err();
        assert!(e.message.contains("NaN"), "{e}");
        let e = plan_text("SELECT TOP 1 DOMINATING WHERE d1 < 1e400 - 1e400", 4).unwrap_err();
        assert!(e.message.contains("NaN"), "{e}");
    }

    #[test]
    fn strict_bounds_are_nudged_exactly() {
        let p = plan_text("SELECT TOP 1 DOMINATING WHERE d1 > 5 AND d2 < 5", 4).unwrap();
        assert_eq!(p.ranges[0].lo, 5.0_f64.next_up());
        assert_eq!(p.ranges[0].hi, f64::INFINITY);
        assert_eq!(p.ranges[1].hi, 5.0_f64.next_down());
        // The nudge is exact: no f64 lies in (5, next_up(5)).
        assert!(5.0 < 5.0_f64.next_up());
        assert_eq!(5.0_f64.next_up().next_down(), 5.0);
    }

    #[test]
    fn same_dimension_conjuncts_intersect() {
        let p = plan_text(
            "SELECT TOP 1 DOMINATING WHERE d3 >= 1 AND d3 <= 9 AND d3 BETWEEN 2 AND 8",
            4,
        )
        .unwrap();
        assert_eq!(
            p.ranges,
            vec![DimRange {
                dim: 2,
                lo: 2.0,
                hi: 8.0
            }]
        );
    }

    #[test]
    fn contradictions_survive_for_one_shot_but_not_subscribe() {
        let p = plan_text("SELECT TOP 1 DOMINATING WHERE d1 > 5 AND d1 < 3", 4).unwrap();
        assert!(p.ranges[0].is_contradiction());
        let e = plan_text(
            "SUBSCRIBE TO SELECT TOP 1 DOMINATING WHERE d1 > 5 AND d1 < 3",
            4,
        )
        .unwrap_err();
        assert!(e.message.contains("contradict"), "{e}");
    }

    #[test]
    fn equality_is_a_point_range() {
        let p = plan_text("SELECT TOP 1 DOMINATING WHERE d2 = 3.5", 4).unwrap();
        assert_eq!(
            p.ranges,
            vec![DimRange {
                dim: 1,
                lo: 3.5,
                hi: 3.5
            }]
        );
    }

    #[test]
    fn using_fixes_the_algorithm() {
        let p = plan_text("SELECT TOP 1 DOMINATING USING UBB", 4).unwrap();
        assert_eq!(p.algo, AlgoChoice::Fixed(Algorithm::Ubb));
        let p = plan_text("SELECT TOP 1 DOMINATING", 4).unwrap();
        assert_eq!(p.algo, AlgoChoice::Auto);
    }
}
