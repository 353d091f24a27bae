//! The TKDQL tokenizer.
//!
//! Hand-rolled, span-tracking, and total: every byte sequence produces
//! either a token stream or a [`QlError`] pointing at the offending
//! character. Keywords are case-insensitive; identifiers (dimension
//! names) preserve their spelling for error messages.

use crate::error::{QlError, Span};

/// One lexical token with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// What was recognized.
    pub kind: TokenKind,
    /// Where it sits in the statement text.
    pub span: Span,
}

/// The token alphabet of TKDQL.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// A reserved word (stored upper-cased; see [`KEYWORDS`]).
    Keyword(&'static str),
    /// A non-keyword identifier, e.g. the dimension name `d3`.
    Ident(String),
    /// A numeric literal (original spelling kept for integer checks).
    Number(String),
    /// A quoted string literal (quotes stripped, no escapes).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// End of statement.
    Eof,
}

impl TokenKind {
    /// Human-readable token description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Keyword(k) => format!("keyword {k}"),
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Number(s) => format!("number {s}"),
            TokenKind::Str(s) => format!("string '{s}'"),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Semicolon => "`;`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Slash => "`/`".into(),
            TokenKind::Eof => "end of statement".into(),
        }
    }
}

/// The reserved words of the language, upper-cased.
pub const KEYWORDS: [&str; 19] = [
    "SELECT",
    "TOP",
    "DOMINATING",
    "FROM",
    "SUBSPACE",
    "WHERE",
    "AND",
    "BETWEEN",
    "USING",
    "WITH",
    "EXPLAIN",
    "SUBSCRIBE",
    "TO",
    "THREADS",
    "WINDOW",
    "BINS",
    "TIES",
    "SEED",
    "BY",
];

/// Algorithm names — contextual keywords (valid only after `USING`), so
/// they stay available as future identifiers.
pub const ALGORITHM_NAMES: [&str; 5] = ["NAIVE", "ESB", "UBB", "BIG", "IBIG"];

/// Tokenize `text` into a `Eof`-terminated stream.
///
/// # Errors
/// [`QlError`] (lex stage) for stray characters, unterminated strings,
/// and malformed numbers, with the span of the offending character.
pub fn lex(text: &str) -> Result<Vec<Token>, QlError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    while i < chars.len() {
        let c = chars[i];
        let span1 = Span::new(line, col, 1);
        // Whitespace (newline tracking) and `--` line comments.
        if c == '\n' {
            i += 1;
            line += 1;
            col = 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        if c == '-' && chars.get(i + 1) == Some(&'-') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue; // newline handled above
        }
        // Single- and double-character symbols.
        let sym = match c {
            '(' => Some(TokenKind::LParen),
            ')' => Some(TokenKind::RParen),
            ',' => Some(TokenKind::Comma),
            ';' => Some(TokenKind::Semicolon),
            '=' => Some(TokenKind::Eq),
            '+' => Some(TokenKind::Plus),
            '-' => Some(TokenKind::Minus),
            '*' => Some(TokenKind::Star),
            '/' => Some(TokenKind::Slash),
            _ => None,
        };
        if let Some(kind) = sym {
            tokens.push(Token { kind, span: span1 });
            i += 1;
            col += 1;
            continue;
        }
        if c == '<' || c == '>' {
            let wide = chars.get(i + 1) == Some(&'=');
            let kind = match (c, wide) {
                ('<', true) => TokenKind::Le,
                ('<', false) => TokenKind::Lt,
                ('>', true) => TokenKind::Ge,
                (_, false) => TokenKind::Gt,
                (_, true) => TokenKind::Ge,
            };
            let len = if wide { 2 } else { 1 };
            tokens.push(Token {
                kind,
                span: Span::new(line, col, len),
            });
            i += len as usize;
            col += len;
            continue;
        }
        // String literals: '...' or "...", no escapes (these are paths).
        if c == '\'' || c == '"' {
            let quote = c;
            let start = Span::new(line, col, 1);
            let mut j = i + 1;
            let mut text = String::new();
            loop {
                match chars.get(j) {
                    None | Some('\n') => {
                        return Err(QlError::lex(start, "unterminated string literal"))
                    }
                    Some(&q) if q == quote => break,
                    Some(&ch) => {
                        text.push(ch);
                        j += 1;
                    }
                }
            }
            let len = (j + 1 - i) as u32;
            tokens.push(Token {
                kind: TokenKind::Str(text),
                span: Span::new(line, col, len),
            });
            i = j + 1;
            col += len;
            continue;
        }
        // Numbers: digits, optional fraction/exponent. A leading `.` is
        // not a number start (no other token uses `.`, so it errors).
        if c.is_ascii_digit() {
            let start_col = col;
            let mut j = i;
            let mut seen_dot = false;
            let mut seen_exp = false;
            while let Some(&ch) = chars.get(j) {
                match ch {
                    '0'..='9' => j += 1,
                    '.' if !seen_dot && !seen_exp => {
                        seen_dot = true;
                        j += 1;
                    }
                    'e' | 'E' if !seen_exp => {
                        seen_exp = true;
                        j += 1;
                        if matches!(chars.get(j), Some('+') | Some('-')) {
                            j += 1;
                        }
                    }
                    _ => break,
                }
            }
            let raw: String = chars[i..j].iter().collect();
            let len = (j - i) as u32;
            let span = Span::new(line, start_col, len);
            if raw.parse::<f64>().is_err() {
                return Err(QlError::lex(span, format!("malformed number `{raw}`")));
            }
            // A number must not run straight into a word (`1x`).
            if chars
                .get(j)
                .is_some_and(|ch| ch.is_alphanumeric() || *ch == '_')
            {
                return Err(QlError::lex(
                    span,
                    format!("number `{raw}` runs into the next word; separate them"),
                ));
            }
            tokens.push(Token {
                kind: TokenKind::Number(raw),
                span,
            });
            col += len;
            i = j;
            continue;
        }
        // Identifiers / keywords.
        if c.is_alphabetic() || c == '_' {
            let start_col = col;
            let mut j = i;
            while chars
                .get(j)
                .is_some_and(|ch| ch.is_alphanumeric() || *ch == '_')
            {
                j += 1;
            }
            let raw: String = chars[i..j].iter().collect();
            let len = (j - i) as u32;
            let span = Span::new(line, start_col, len);
            let upper = raw.to_ascii_uppercase();
            let kind = match KEYWORDS.iter().find(|k| **k == upper) {
                Some(k) => TokenKind::Keyword(k),
                None => TokenKind::Ident(raw),
            };
            tokens.push(Token { kind, span });
            col += len;
            i = j;
            continue;
        }
        return Err(QlError::lex(
            span1,
            format!("unexpected character `{c}` (U+{:04X})", c as u32),
        ));
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::eof(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<TokenKind> {
        lex(text).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("select TOP Dominating"),
            vec![
                TokenKind::Keyword("SELECT"),
                TokenKind::Keyword("TOP"),
                TokenKind::Keyword("DOMINATING"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("SELECT\n  TOP 3").unwrap();
        assert_eq!(toks[0].span, Span::new(1, 1, 6));
        assert_eq!(toks[1].span, Span::new(2, 3, 3));
        assert_eq!(toks[2].span, Span::new(2, 7, 1));
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("< <= > >= ="),
            vec![
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eq,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers_and_strings() {
        assert_eq!(
            kinds("3 0.5 1e3 'a b' \"c\""),
            vec![
                TokenKind::Number("3".into()),
                TokenKind::Number("0.5".into()),
                TokenKind::Number("1e3".into()),
                TokenKind::Str("a b".into()),
                TokenKind::Str("c".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("SELECT -- the whole rest\nTOP"),
            vec![
                TokenKind::Keyword("SELECT"),
                TokenKind::Keyword("TOP"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_errors_carry_spans() {
        let e = lex("SELECT @").unwrap_err();
        assert_eq!(e.span, Span::new(1, 8, 1));
        let e = lex("'unterminated").unwrap_err();
        assert!(e.message.contains("unterminated"));
        let e = lex("12x").unwrap_err();
        assert!(e.message.contains("runs into"));
    }

    #[test]
    fn algorithm_names_lex_as_identifiers() {
        // Contextual: `BIG` is an Ident, promoted only after USING.
        assert_eq!(
            kinds("big"),
            vec![TokenKind::Ident("big".into()), TokenKind::Eof]
        );
    }
}
