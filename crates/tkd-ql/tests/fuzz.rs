//! The parser fuzz leg: `compile` is **total**. Any byte sequence —
//! random token salads, arbitrary (even invalid) UTF-8, and seeded
//! mutations of valid statements — yields `Ok(plan)` or a typed
//! [`QlError`] carrying a usable span; never a panic, never an abort.
//! A companion golden file (`tests/golden_diagnostics.txt`) pins the
//! twelve load-bearing diagnostic renderings verbatim, so error-message
//! quality is a tested surface, not an accident.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tkd_ql::{compile, QlStage};

/// Every token the grammar knows plus near-miss junk: joining random
/// samples of this vocabulary produces statements that are wrong in
/// grammatical ways (the hard case for a recursive-descent parser),
/// unlike pure byte noise which dies in the lexer.
const VOCAB: &[&str] = &[
    "SELECT",
    "TOP",
    "DOMINATING",
    "FROM",
    "SUBSPACE",
    "WHERE",
    "USING",
    "WITH",
    "AND",
    "BETWEEN",
    "SUBSCRIBE",
    "TO",
    "EXPLAIN",
    "THREADS",
    "WINDOW",
    "BINS",
    "TIES",
    "SEED",
    "BY",
    "NAIVE",
    "ESB",
    "UBB",
    "BIG",
    "IBIG",
    "d1",
    "d2",
    "d4",
    "d9",
    "d0",
    "x",
    "(",
    ")",
    ",",
    "<",
    "<=",
    ">",
    ">=",
    "=",
    "+",
    "-",
    "*",
    "/",
    "0",
    "3",
    "0.5",
    "1e9",
    "1e309",
    "99999999999999999999",
    "'file.txt'",
    "'unterminated",
    "''",
    "@",
    ".",
    "\n",
    "\t",
    "--",
    "-- comment",
];

/// The totality contract: compiling must return, and an `Err` must be a
/// well-formed diagnostic (compile stages only, addressable span, a
/// non-empty rendering, and a caret snippet that agrees with the span).
fn assert_total(text: &str) {
    match compile(text, 4) {
        Ok(_) => {}
        Err(e) => {
            assert!(
                matches!(
                    e.stage,
                    QlStage::Lex | QlStage::Parse | QlStage::Bind | QlStage::Plan
                ),
                "compile-time error in stage {:?} for {text:?}",
                e.stage
            );
            assert!(!e.message.is_empty(), "empty message for {text:?}");
            let span = e.span;
            if span.line == 0 {
                assert_eq!(span.col, 0, "eof span with a column: {span:?} for {text:?}");
            } else {
                assert!(span.col >= 1, "0 column in {span:?} for {text:?}");
                assert!(
                    (span.line as usize) <= text.lines().count().max(1),
                    "span {span:?} past the text for {text:?}"
                );
            }
            // The rendering and the caret snippet must both be derivable
            // without panicking, whatever the input looked like.
            let rendered = e.to_string();
            assert!(rendered.contains("error at"), "odd rendering {rendered:?}");
            let _ = e.snippet(text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Token salads: grammatical noise over the real vocabulary.
    #[test]
    fn compile_is_total_on_token_streams(idxs in vec(0usize..VOCAB.len(), 0..24)) {
        let text = idxs.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ");
        assert_total(&text);
    }

    /// Raw bytes: whatever survives lossy UTF-8 conversion must not
    /// crash the lexer (multi-byte replacement chars, NULs, controls).
    #[test]
    fn compile_is_total_on_arbitrary_bytes(bytes in vec(0u8..=255, 0..64)) {
        let text = String::from_utf8_lossy(&bytes);
        assert_total(&text);
    }
}

/// Seeded byte mutations of *valid* statements: flips, insertions,
/// deletions, and truncations at random offsets. This is the classic
/// fuzz shape — inputs that are almost right — and it must always land
/// in a typed error or a still-valid plan.
#[test]
fn mutated_valid_statements_stay_typed() {
    let seeds: &[&str] = &[
        "SELECT TOP 5 DOMINATING",
        "EXPLAIN SELECT TOP 3 DOMINATING WHERE d1 < 0.5 AND d2 BETWEEN 1 AND 4",
        "SELECT TOP 10 DOMINATING FROM 'data.txt' SUBSPACE (d1, d3) USING IBIG WITH BINS 16",
        "SUBSCRIBE TO SELECT TOP 2 DOMINATING WHERE d4 >= 3 WITH WINDOW 100",
        "SELECT TOP 7 DOMINATING WHERE d1 = 2 * 3 - 1 USING UBB WITH THREADS 2",
    ];
    let mut rng = StdRng::seed_from_u64(0x7d_51);
    for &base in seeds {
        compile(base, 4).expect("fuzz seeds must be valid statements");
        for _ in 0..400 {
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.gen_range(0..bytes.len());
                match rng.gen_range(0..4u8) {
                    0 => bytes[at] = rng.gen::<u8>(),
                    1 => bytes.insert(at, rng.gen::<u8>()),
                    2 => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            assert_total(&text);
        }
    }
}

/// The golden diagnostics: statement/rendering pairs from
/// `tests/golden_diagnostics.txt`, compared verbatim against `Display`.
#[test]
fn golden_diagnostics_render_exactly() {
    let raw = include_str!("golden_diagnostics.txt");
    let entries: Vec<(&str, &str)> = {
        let mut lines = raw
            .lines()
            .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty());
        let mut out = Vec::new();
        while let Some(stmt) = lines.next() {
            let want = lines
                .next()
                .unwrap_or_else(|| panic!("golden file: statement {stmt:?} has no diagnostic"));
            out.push((stmt, want));
        }
        out
    };
    assert_eq!(
        entries.len(),
        12,
        "the golden file pins exactly twelve diagnostics"
    );
    let mut stages_seen = Vec::new();
    for (stmt, want) in entries {
        let err = compile(stmt, 4)
            .err()
            .unwrap_or_else(|| panic!("golden statement compiles cleanly: {stmt:?}"));
        assert_eq!(
            err.to_string(),
            want,
            "diagnostic drifted for {stmt:?} (update code and golden file together)"
        );
        if !stages_seen.contains(&err.stage) {
            stages_seen.push(err.stage);
        }
    }
    // The twelve must keep covering every compile stage.
    for stage in [QlStage::Lex, QlStage::Parse, QlStage::Bind, QlStage::Plan] {
        assert!(
            stages_seen.contains(&stage),
            "no golden diagnostic for {stage:?}"
        );
    }
}
