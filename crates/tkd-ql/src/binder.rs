//! Name and range resolution: AST → [`Bound`] statement.
//!
//! Binding happens against a *schema* — the dimensionality of the target
//! data — and turns textual dimension names (`d1` … `dN`, 1-based in the
//! language) into 0-based indices, checks counts fit the machine, and
//! enforces the clause combinations the engines can actually serve.
//! Constant expressions are left unfolded; that is the planner's job.

use crate::ast::{CmpOp, Expr, Statement, WithItem};
use crate::error::{QlError, Span};
use tkd_core::Algorithm;

/// A bound (name-resolved, count-checked) statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// `EXPLAIN` was requested.
    pub explain: bool,
    /// `SUBSCRIBE TO` was requested.
    pub subscribe: bool,
    /// Top-k count.
    pub k: usize,
    /// `FROM 'path'`, verbatim.
    pub from: Option<String>,
    /// Resolved subspace dimensions, strictly increasing.
    pub subspace: Option<Vec<usize>>,
    /// Resolved predicates, in source order.
    pub predicates: Vec<BoundPredicate>,
    /// Explicit `USING` algorithm; `None` = planner chooses by cost.
    pub algorithm: Option<Algorithm>,
    /// `WITH THREADS t` (default 1).
    pub threads: usize,
    /// `WITH WINDOW n` (subscriptions only).
    pub window: Option<usize>,
    /// `WITH BINS x` (one-shot IBIG only).
    pub bins: Option<usize>,
    /// Dimensionality the statement was bound against.
    pub dims: usize,
}

/// One `WHERE` conjunct with its dimension resolved to a 0-based index.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundPredicate {
    /// 0-based dimension index.
    pub dim: usize,
    /// The comparison.
    pub op: CmpOp,
    /// Right-hand constant expression (lower bound for `BETWEEN`).
    pub rhs: Expr,
    /// `BETWEEN`'s upper bound.
    pub rhs2: Option<Expr>,
    /// Span of the whole predicate's dimension token, for diagnostics.
    pub span: Span,
}

/// Resolve `stmt` against a target of dimensionality `dims`.
///
/// # Errors
/// Bind-stage [`QlError`] for unknown dimensions, duplicate subspace or
/// `WITH` entries, out-of-range counts, and clause combinations the
/// standing-query layer rejects (`SUBSCRIBE` with both `SUBSPACE` and
/// `WHERE`, non-BIG/IBIG `USING`, one-shot `WINDOW`).
pub fn bind(stmt: &Statement, dims: usize) -> Result<Bound, QlError> {
    let sel = &stmt.select;
    if dims == 0 {
        return Err(QlError::bind(sel.k.1, "the target has no dimensions"));
    }
    let k = usize::try_from(sel.k.0).map_err(|_| {
        QlError::bind(
            sel.k.1,
            format!("k = {} does not fit this machine", sel.k.0),
        )
    })?;

    let subspace = match &sel.subspace {
        None => None,
        Some(names) => {
            let mut resolved: Vec<(usize, Span)> = Vec::with_capacity(names.len());
            for (name, span) in names {
                let dim = resolve_dim(name, *span, dims)?;
                if let Some((_, first)) = resolved.iter().find(|(d, _)| *d == dim) {
                    return Err(QlError::bind(
                        *span,
                        format!("dimension {name} appears twice in SUBSPACE (first at {first})"),
                    ));
                }
                resolved.push((dim, *span));
            }
            // The language accepts any order; the engines want strictly
            // increasing indices, and dominance is order-blind.
            resolved.sort_by_key(|(d, _)| *d);
            Some(resolved.into_iter().map(|(d, _)| d).collect())
        }
    };

    let mut predicates = Vec::with_capacity(sel.predicates.len());
    for p in &sel.predicates {
        let dim = resolve_dim(&p.dim.0, p.dim.1, dims)?;
        predicates.push(BoundPredicate {
            dim,
            op: p.op,
            rhs: p.rhs.clone(),
            rhs2: p.rhs2.clone(),
            span: p.dim.1,
        });
    }

    let algorithm = match &sel.using {
        None => None,
        Some((name, span)) => Some(match name.as_str() {
            "NAIVE" => Algorithm::Naive,
            "ESB" => Algorithm::Esb,
            "UBB" => Algorithm::Ubb,
            "BIG" => Algorithm::Big,
            "IBIG" => Algorithm::Ibig,
            other => return Err(QlError::bind(*span, format!("unknown algorithm {other}"))),
        }),
    };

    let mut threads: Option<(u64, Span)> = None;
    let mut window: Option<(u64, Span)> = None;
    let mut bins: Option<(u64, Span)> = None;
    for item in &sel.with {
        match item {
            WithItem::Threads(v, s) => set_once("THREADS", &mut threads, *v, *s)?,
            WithItem::Window(v, s) => set_once("WINDOW", &mut window, *v, *s)?,
            WithItem::Bins(v, s) => set_once("BINS", &mut bins, *v, *s)?,
        }
    }
    let threads = match threads {
        None => 1,
        Some((v, s)) => positive("THREADS", v, s)?,
    };
    let window = window.map(|(v, s)| positive("WINDOW", v, s)).transpose()?;
    let bins = bins.map(|(v, s)| positive("BINS", v, s)).transpose()?;

    if stmt.subscribe {
        if subspace.is_some() && !predicates.is_empty() {
            return Err(QlError::bind(
                sel.subspace.as_ref().unwrap()[0].1,
                "a subscription cannot combine SUBSPACE and WHERE \
                 (the standing-query layer serves one scope at a time)",
            ));
        }
        if let Some(a) = algorithm {
            if !matches!(a, Algorithm::Big | Algorithm::Ibig) {
                return Err(QlError::bind(
                    sel.using.as_ref().unwrap().1,
                    format!("subscriptions run on BIG or IBIG, not {a:?}"),
                ));
            }
        }
        if threads != 1 {
            return Err(QlError::bind(
                with_span(sel, "THREADS"),
                "THREADS does not apply to subscriptions \
                 (standing queries re-query single-threaded)",
            ));
        }
        if bins.is_some() {
            return Err(QlError::bind(
                with_span(sel, "BINS"),
                "BINS does not apply to subscriptions \
                 (the engine manages its own binning)",
            ));
        }
    } else if window.is_some() {
        return Err(QlError::bind(
            with_span(sel, "WINDOW"),
            "WINDOW applies to subscriptions only",
        ));
    }

    Ok(Bound {
        explain: stmt.explain,
        subscribe: stmt.subscribe,
        k,
        from: sel.from.as_ref().map(|(p, _)| p.clone()),
        subspace,
        predicates,
        algorithm,
        threads,
        window,
        bins,
        dims,
    })
}

/// Resolve a dimension name (`d1` … `dN`, case-insensitive, 1-based) to a
/// 0-based index.
fn resolve_dim(name: &str, span: Span, dims: usize) -> Result<usize, QlError> {
    let rest = name
        .strip_prefix('d')
        .or_else(|| name.strip_prefix('D'))
        .unwrap_or("");
    let parsed: Option<usize> = if rest.is_empty() || rest.starts_with('0') {
        None
    } else {
        rest.parse().ok()
    };
    match parsed {
        Some(n) if n <= dims => Ok(n - 1),
        Some(n) => Err(QlError::bind(
            span,
            format!(
                "dimension d{n} is out of range; the target has {dims} dimensions (d1..d{dims})"
            ),
        )),
        None => Err(QlError::bind(
            span,
            format!("unknown dimension `{name}`; dimensions are named d1..d{dims}"),
        )),
    }
}

fn set_once<T: Copy>(
    what: &str,
    slot: &mut Option<(T, Span)>,
    v: T,
    s: Span,
) -> Result<(), QlError> {
    if let Some((_, first)) = slot {
        return Err(QlError::bind(
            s,
            format!("{what} given twice (first at {first})"),
        ));
    }
    *slot = Some((v, s));
    Ok(())
}

fn positive(what: &str, v: u64, s: Span) -> Result<usize, QlError> {
    match usize::try_from(v) {
        Ok(v) if v >= 1 => Ok(v),
        _ => Err(QlError::bind(s, format!("{what} must be at least 1"))),
    }
}

/// Span of a named `WITH` item, for diagnostics (the item is known to be
/// present when this is called).
fn with_span(sel: &crate::ast::SelectStmt, what: &str) -> Span {
    for item in &sel.with {
        match (item, what) {
            (WithItem::Threads(_, s), "THREADS")
            | (WithItem::Window(_, s), "WINDOW")
            | (WithItem::Bins(_, s), "BINS") => return *s,
            _ => {}
        }
    }
    Span::eof()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn bind_text(text: &str, dims: usize) -> Result<Bound, QlError> {
        bind(&parse(text).unwrap(), dims)
    }

    #[test]
    fn resolves_dimensions_one_based() {
        let b = bind_text("SELECT TOP 2 DOMINATING SUBSPACE (d4, d1) WHERE d2 < 5", 4).unwrap();
        assert_eq!(b.subspace, Some(vec![0, 3])); // sorted ascending
        assert_eq!(b.predicates[0].dim, 1);
    }

    #[test]
    fn rejects_unknown_and_out_of_range_dims() {
        let e = bind_text("SELECT TOP 1 DOMINATING WHERE d5 < 1", 4).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        let e = bind_text("SELECT TOP 1 DOMINATING WHERE price < 1", 4).unwrap_err();
        assert!(e.message.contains("unknown dimension"), "{e}");
        let e = bind_text("SELECT TOP 1 DOMINATING WHERE d0 < 1", 4).unwrap_err();
        assert!(e.message.contains("unknown dimension"), "{e}");
        let e = bind_text("SELECT TOP 1 DOMINATING WHERE d01 < 1", 4).unwrap_err();
        assert!(e.message.contains("unknown dimension"), "{e}");
    }

    #[test]
    fn rejects_duplicate_subspace_dims_and_with_items() {
        let e = bind_text("SELECT TOP 1 DOMINATING SUBSPACE (d1, d1)", 4).unwrap_err();
        assert!(e.message.contains("twice"), "{e}");
        let e = bind_text("SELECT TOP 1 DOMINATING WITH THREADS 2, THREADS 3", 4).unwrap_err();
        assert!(e.message.contains("twice"), "{e}");
    }

    #[test]
    fn using_maps_to_algorithms() {
        for (name, alg) in [
            ("NAIVE", Algorithm::Naive),
            ("esb", Algorithm::Esb),
            ("Ubb", Algorithm::Ubb),
            ("big", Algorithm::Big),
            ("IBIG", Algorithm::Ibig),
        ] {
            let b = bind_text(&format!("SELECT TOP 1 DOMINATING USING {name}"), 4).unwrap();
            assert_eq!(b.algorithm, Some(alg));
        }
    }

    #[test]
    fn subscribe_restrictions() {
        let e = bind_text(
            "SUBSCRIBE TO SELECT TOP 1 DOMINATING SUBSPACE (d1) WHERE d2 < 5",
            4,
        )
        .unwrap_err();
        assert!(e.message.contains("cannot combine"), "{e}");
        let e = bind_text("SUBSCRIBE TO SELECT TOP 1 DOMINATING USING NAIVE", 4).unwrap_err();
        assert!(e.message.contains("BIG or IBIG"), "{e}");
        let e = bind_text("SUBSCRIBE TO SELECT TOP 1 DOMINATING WITH THREADS 4", 4).unwrap_err();
        assert!(e.message.contains("THREADS"), "{e}");
        assert!(bind_text("SUBSCRIBE TO SELECT TOP 1 DOMINATING WITH WINDOW 100", 4).is_ok());
    }

    #[test]
    fn one_shot_rejects_subscription_knobs() {
        let e = bind_text("SELECT TOP 1 DOMINATING WITH WINDOW 10", 4).unwrap_err();
        assert!(e.message.contains("subscriptions only"), "{e}");
    }

    #[test]
    fn with_value_ranges() {
        let e = bind_text("SELECT TOP 1 DOMINATING WITH THREADS 0", 4).unwrap_err();
        assert!(e.message.contains("at least 1"), "{e}");
    }
}
