//! Recursive-descent parser: token stream → [`Statement`].
//!
//! The grammar (normative EBNF in `docs/TKDQL.md`):
//!
//! ```text
//! statement   = [ "EXPLAIN" ] ( select | subscribe ) [ ";" ] ;
//! subscribe   = "SUBSCRIBE" "TO" select ;
//! select      = "SELECT" "TOP" integer "DOMINATING"
//!               [ "FROM" string ]
//!               [ "SUBSPACE" "(" dim { "," dim } ")" ]
//!               [ "WHERE" predicate { "AND" predicate } ]
//!               [ "USING" algorithm ]
//!               [ "WITH" with-item { "," with-item } ] ;
//! predicate   = dim ( cmp expr | "BETWEEN" expr "AND" expr ) ;
//! cmp         = "<" | "<=" | ">" | ">=" | "=" ;
//! expr        = term { ("+"|"-") term } ;
//! term        = factor { ("*"|"/") factor } ;
//! factor      = [ "-" ] ( number | "(" expr ")" ) ;
//! with-item   = "THREADS" integer | "WINDOW" integer | "BINS" integer ;
//! algorithm   = "NAIVE" | "ESB" | "UBB" | "BIG" | "IBIG" ;
//! ```
//!
//! Clauses must appear in the order above (each is optional). `BETWEEN`'s
//! `AND` never conflicts with the conjunction `AND` because constant
//! expressions cannot contain keywords.

use crate::ast::{ArithOp, CmpOp, Expr, Predicate, SelectStmt, Statement, WithItem};
use crate::error::{QlError, Span};
use crate::lexer::{lex, Token, TokenKind, ALGORITHM_NAMES};

/// Parse one TKDQL statement.
///
/// # Errors
/// A lex- or parse-stage [`QlError`] with the span of the first offending
/// token.
pub fn parse(text: &str) -> Result<Statement, QlError> {
    let tokens = lex(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.expect_end()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        // The stream is Eof-terminated; clamp defensively.
        self.tokens
            .get(self.pos)
            .unwrap_or_else(|| self.tokens.last().expect("eof token"))
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Keyword(k) if *k == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Span, QlError> {
        let t = self.peek().clone();
        if self.eat_keyword(kw) {
            Ok(t.span)
        } else {
            Err(QlError::parse(
                t.span,
                format!("expected {kw}, found {}", t.kind.describe()),
            ))
        }
    }

    fn statement(&mut self) -> Result<Statement, QlError> {
        let explain = self.eat_keyword("EXPLAIN");
        let subscribe = self.eat_keyword("SUBSCRIBE");
        if subscribe {
            self.expect_keyword("TO")?;
        }
        Ok(Statement {
            explain,
            subscribe,
            select: self.select()?,
        })
    }

    fn select(&mut self) -> Result<SelectStmt, QlError> {
        self.expect_keyword("SELECT")?;
        self.expect_keyword("TOP")?;
        let k = self.integer("the TOP count")?;
        self.expect_keyword("DOMINATING")?;
        let from = if self.eat_keyword("FROM") {
            let t = self.bump();
            match t.kind {
                TokenKind::Str(s) => Some((s, t.span)),
                other => {
                    return Err(QlError::parse(
                        t.span,
                        format!("FROM expects a quoted path, found {}", other.describe()),
                    ))
                }
            }
        } else {
            None
        };
        let subspace = if self.eat_keyword("SUBSPACE") {
            let t = self.peek().clone();
            if !matches!(t.kind, TokenKind::LParen) {
                return Err(QlError::parse(
                    t.span,
                    format!(
                        "SUBSPACE expects a parenthesized dimension list, found {}",
                        t.kind.describe()
                    ),
                ));
            }
            self.bump();
            let mut dims = Vec::new();
            loop {
                let t = self.bump();
                match t.kind {
                    TokenKind::Ident(name) => dims.push((name, t.span)),
                    other => {
                        return Err(QlError::parse(
                            t.span,
                            format!("expected a dimension name, found {}", other.describe()),
                        ))
                    }
                }
                let t = self.bump();
                match t.kind {
                    TokenKind::Comma => continue,
                    TokenKind::RParen => break,
                    other => {
                        return Err(QlError::parse(
                            t.span,
                            format!("expected `,` or `)`, found {}", other.describe()),
                        ))
                    }
                }
            }
            Some(dims)
        } else {
            None
        };
        let mut predicates = Vec::new();
        if self.eat_keyword("WHERE") {
            loop {
                predicates.push(self.predicate()?);
                if !self.eat_keyword("AND") {
                    break;
                }
            }
        }
        let using = if self.eat_keyword("USING") {
            let t = self.bump();
            match t.kind {
                TokenKind::Ident(name)
                    if ALGORITHM_NAMES.contains(&name.to_ascii_uppercase().as_str()) =>
                {
                    Some((name.to_ascii_uppercase(), t.span))
                }
                other => {
                    return Err(QlError::parse(
                        t.span,
                        format!(
                            "USING expects an algorithm (NAIVE, ESB, UBB, BIG, IBIG), found {}",
                            other.describe()
                        ),
                    ))
                }
            }
        } else {
            None
        };
        let mut with = Vec::new();
        if self.eat_keyword("WITH") {
            loop {
                with.push(self.with_item()?);
                if !matches!(self.peek().kind, TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
        }
        Ok(SelectStmt {
            k,
            from,
            subspace,
            predicates,
            using,
            with,
        })
    }

    fn predicate(&mut self) -> Result<Predicate, QlError> {
        let t = self.bump();
        let dim = match t.kind {
            TokenKind::Ident(name) => (name, t.span),
            other => {
                return Err(QlError::parse(
                    t.span,
                    format!(
                        "a predicate starts with a dimension name, found {}",
                        other.describe()
                    ),
                ))
            }
        };
        let t = self.bump();
        let op = match t.kind {
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Keyword("BETWEEN") => CmpOp::Between,
            other => {
                return Err(QlError::parse(
                    t.span,
                    format!(
                        "expected a comparison (<, <=, >, >=, =, BETWEEN), found {}",
                        other.describe()
                    ),
                ))
            }
        };
        let rhs = self.expr()?;
        let rhs2 = if op == CmpOp::Between {
            self.expect_keyword("AND")?;
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Predicate { dim, op, rhs, rhs2 })
    }

    fn with_item(&mut self) -> Result<WithItem, QlError> {
        let t = self.bump();
        match t.kind {
            TokenKind::Keyword("THREADS") => {
                Ok(WithItem::Threads(self.integer("THREADS")?.0, t.span))
            }
            TokenKind::Keyword("WINDOW") => Ok(WithItem::Window(self.integer("WINDOW")?.0, t.span)),
            TokenKind::Keyword("BINS") => Ok(WithItem::Bins(self.integer("BINS")?.0, t.span)),
            other => Err(QlError::parse(
                t.span,
                format!(
                    "expected a WITH item (THREADS, WINDOW, BINS), found {}",
                    other.describe()
                ),
            )),
        }
    }

    /// An unsigned integer literal, as `(value, span)`.
    fn integer(&mut self, what: &str) -> Result<(u64, Span), QlError> {
        let t = self.bump();
        match t.kind {
            TokenKind::Number(raw) => match raw.parse::<u64>() {
                Ok(v) => Ok((v, t.span)),
                Err(_) => Err(QlError::parse(
                    t.span,
                    format!("{what} must be a non-negative integer, found {raw}"),
                )),
            },
            other => Err(QlError::parse(
                t.span,
                format!(
                    "{what} must be a non-negative integer, found {}",
                    other.describe()
                ),
            )),
        }
    }

    // Precedence climbing: expr > term > factor.
    fn expr(&mut self) -> Result<Expr, QlError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.term()?;
            lhs = Expr::Bin(Box::new(lhs), op, Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, QlError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.factor()?;
            lhs = Expr::Bin(Box::new(lhs), op, Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, QlError> {
        let t = self.bump();
        match t.kind {
            TokenKind::Minus => Ok(Expr::Neg(Box::new(self.factor()?), t.span)),
            TokenKind::Number(raw) => {
                let v: f64 = raw.parse().expect("lexer validated");
                Ok(Expr::Num(v, t.span))
            }
            TokenKind::LParen => {
                let e = self.expr()?;
                let t2 = self.bump();
                if matches!(t2.kind, TokenKind::RParen) {
                    Ok(e)
                } else {
                    Err(QlError::parse(
                        t2.span,
                        format!("expected `)`, found {}", t2.kind.describe()),
                    ))
                }
            }
            other => Err(QlError::parse(
                t.span,
                format!("expected a number, found {}", other.describe()),
            )),
        }
    }

    fn expect_end(&mut self) -> Result<(), QlError> {
        // One optional trailing semicolon.
        if matches!(self.peek().kind, TokenKind::Semicolon) {
            self.bump();
        }
        let t = self.peek();
        if matches!(t.kind, TokenKind::Eof) {
            Ok(())
        } else {
            Err(QlError::parse(
                t.span,
                format!(
                    "unexpected {} after the end of the statement",
                    t.kind.describe()
                ),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_select() {
        let s = parse("SELECT TOP 3 DOMINATING").unwrap();
        let sel = s.select();
        assert_eq!(sel.k.0, 3);
        assert!(sel.from.is_none() && sel.subspace.is_none());
        assert!(sel.predicates.is_empty() && sel.using.is_none() && sel.with.is_empty());
    }

    #[test]
    fn full_clause_order() {
        let s = parse(
            "SELECT TOP 8 DOMINATING FROM 'data.csv' SUBSPACE (d1, d3) \
             WHERE d2 > 0.5 AND d4 BETWEEN 1 AND 4 USING ibig WITH THREADS 2, BINS 16;",
        )
        .unwrap();
        let sel = s.select();
        assert_eq!(sel.k.0, 8);
        assert_eq!(sel.from.as_ref().unwrap().0, "data.csv");
        assert_eq!(
            sel.subspace
                .as_ref()
                .unwrap()
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["d1", "d3"]
        );
        assert_eq!(sel.predicates.len(), 2);
        assert_eq!(sel.predicates[1].op, CmpOp::Between);
        assert!(sel.predicates[1].rhs2.is_some());
        assert_eq!(sel.using.as_ref().unwrap().0, "IBIG");
        assert_eq!(sel.with.len(), 2);
    }

    #[test]
    fn explain_and_subscribe_wrappers() {
        let s = parse("EXPLAIN SELECT TOP 1 DOMINATING").unwrap();
        assert!(s.explain && !s.subscribe);
        let s = parse("SUBSCRIBE TO SELECT TOP 1 DOMINATING").unwrap();
        assert!(!s.explain && s.subscribe);
        let s = parse("EXPLAIN SUBSCRIBE TO SELECT TOP 1 DOMINATING").unwrap();
        assert!(s.explain && s.subscribe);
        let e = parse("SUBSCRIBE SELECT TOP 1 DOMINATING").unwrap_err();
        assert!(e.message.contains("expected TO"), "{e}");
    }

    #[test]
    fn between_and_binds_to_between_not_conjunction() {
        let s = parse("SELECT TOP 1 DOMINATING WHERE d1 BETWEEN 1 + 1 AND 4 AND d2 < 9").unwrap();
        assert_eq!(s.select().predicates.len(), 2);
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse("SELECT TOP 1 DOMINATING WHERE d1 < 1 + 2 * 3").unwrap();
        // 1 + (2*3), not (1+2)*3 — folded later; check the tree shape.
        match &s.select().predicates[0].rhs {
            Expr::Bin(_, ArithOp::Add, rhs, _) => {
                assert!(matches!(**rhs, Expr::Bin(_, ArithOp::Mul, _, _)));
            }
            other => panic!("unexpected tree {other:?}"),
        }
    }

    #[test]
    fn errors_name_the_offender() {
        let e = parse("SELECT TOP x DOMINATING").unwrap_err();
        assert!(e.message.contains("non-negative integer"), "{e}");
        let e = parse("SELECT TOP 3").unwrap_err();
        assert!(e.message.contains("expected DOMINATING"), "{e}");
        let e = parse("SELECT TOP 3 DOMINATING USING quantum").unwrap_err();
        assert!(e.message.contains("algorithm"), "{e}");
        let e = parse("SELECT TOP 3 DOMINATING extra").unwrap_err();
        assert!(e.message.contains("after the end"), "{e}");
        let e = parse("SELECT TOP 3 DOMINATING WHERE d1 ~ 3");
        assert!(e.is_err());
    }

    #[test]
    fn fallback_is_not_a_with_item() {
        let e = parse("SUBSCRIBE TO SELECT TOP 1 DOMINATING WITH FALLBACK 0.5").unwrap_err();
        assert_eq!(e.stage, crate::error::QlStage::Parse);
        assert!(e.message.contains("THREADS, WINDOW, BINS)"), "{e}");
    }

    #[test]
    fn reserved_words_are_not_dimensions() {
        let e = parse("SELECT TOP 3 DOMINATING WHERE SELECT > 1").unwrap_err();
        assert!(e.message.contains("dimension name"), "{e}");
    }
}
