//! Adversarial-dataset regressions: inputs engineered to hit the known
//! sharp edges of the bitmap machinery — IEEE −0.0/+0.0 aliasing (the
//! PR-2 `total_cmp` fix), rows observing almost nothing, single-value
//! columns, and exact duplicate objects. Every algorithm — sequential,
//! parallel, and the serving engine — is asserted against the Naive
//! oracle on each of them.

use tkdi::core::{Algorithm, EngineQuery, ParallelEngine, TkdQuery};
use tkdi::model::{Dataset, ModelError};

fn naive_scores(ds: &Dataset, k: usize) -> Vec<usize> {
    TkdQuery::new(k)
        .algorithm(Algorithm::Naive)
        .run(ds)
        .scores()
}

/// Run the full algorithm matrix (sequential × parallel × engine) against
/// Naive on the given dataset.
fn assert_all_algorithms_agree(name: &str, ds: &Dataset) {
    let engine = ParallelEngine::builder(ds).threads(2).build();
    for k in [1usize, 2, ds.len() / 2 + 1, ds.len(), ds.len() + 3] {
        let reference = naive_scores(ds, k);
        for alg in Algorithm::ALL {
            let r = TkdQuery::new(k).algorithm(alg).run(ds);
            assert_eq!(r.scores(), reference, "{name}: {alg:?} k={k}");
            if matches!(alg, Algorithm::Big | Algorithm::Ibig) {
                for threads in [2usize, 4] {
                    let p = TkdQuery::new(k).algorithm(alg).threads(threads).run(ds);
                    assert_eq!(
                        p.scores(),
                        reference,
                        "{name}: parallel {alg:?} threads={threads} k={k}"
                    );
                }
            }
            let e = engine.query(&EngineQuery::new(k).algorithm(alg));
            assert_eq!(e.scores(), reference, "{name}: engine {alg:?} k={k}");
        }
    }
}

/// −0.0 and +0.0 compare equal under IEEE but differ under `total_cmp`;
/// the index build and every value probe must agree on one ordering.
/// Pins the PR-2 `BitmapIndex::build` fix across the whole matrix.
#[test]
fn signed_zero_mixes() {
    let ds = Dataset::from_rows(
        2,
        &[
            vec![Some(-0.0), Some(1.0)],
            vec![Some(0.0), Some(-0.0)],
            vec![Some(-0.0), Some(0.0)],
            vec![Some(0.0), Some(2.0)],
            vec![Some(1.0), Some(-0.0)],
            vec![None, Some(0.0)],
            vec![Some(-0.0), None],
            vec![Some(-1.0), Some(0.0)],
        ],
    )
    .unwrap();
    assert_all_algorithms_agree("signed-zeros", &ds);
    // The two all-zero rows (1 and 2) tie each other everywhere: neither
    // may ever dominate the other, whatever the zero signs.
    let full = TkdQuery::new(ds.len()).algorithm(Algorithm::Naive).run(&ds);
    let score_of = |id: u32| full.iter().find(|e| e.id == id).unwrap().score;
    assert_eq!(score_of(1), score_of(2), "sign of zero leaked into scores");
}

/// The model forbids rows with every attribute missing — a dataset can
/// not smuggle one in through any constructor.
#[test]
fn all_attributes_missing_rows_are_rejected() {
    let err = Dataset::from_rows(3, &[vec![Some(1.0), None, None], vec![None, None, None]]);
    assert!(
        matches!(err, Err(ModelError::AllMissingRow(1))),
        "all-missing row must be rejected, got {err:?}"
    );
}

/// Rows observing exactly one attribute each — the nearest legal thing to
/// all-missing rows: maximally sparse masks, every cross-mask pair is
/// incomparable unless they share their single dimension.
#[test]
fn minimally_observed_rows() {
    let mut rows = Vec::new();
    for i in 0..30 {
        let d = i % 3;
        let mut row = vec![None, None, None];
        row[d] = Some(((i * 7) % 5) as f64);
        rows.push(row);
    }
    let ds = Dataset::from_rows(3, &rows).unwrap();
    assert_all_algorithms_agree("minimally-observed", &ds);
}

/// A column with a single distinct value (and one fully constant
/// dataset): degenerate cardinality, every observed pair ties there.
#[test]
fn single_distinct_value_columns() {
    let mut rows = Vec::new();
    for i in 0..25 {
        rows.push(vec![
            Some(7.5),                              // constant column
            Some((i % 4) as f64),                   // normal column
            (i % 5 != 0).then_some((i % 3) as f64), // column with holes
        ]);
    }
    let ds = Dataset::from_rows(3, &rows).unwrap();
    assert_all_algorithms_agree("single-value-column", &ds);

    let constant = Dataset::from_rows(2, &vec![vec![Some(1.0), Some(2.0)]; 12]).unwrap();
    assert_all_algorithms_agree("fully-constant", &constant);
    // Nobody dominates anybody in a fully constant dataset.
    assert_eq!(naive_scores(&constant, 12), vec![0; 12]);
}

/// Exact duplicate objects: duplicates tie everywhere, so they must all
/// receive identical scores and never count one another as dominated.
#[test]
fn duplicate_objects() {
    let mut rows = Vec::new();
    for i in 0..10 {
        let row = vec![Some((i % 3) as f64), (i % 4 != 0).then_some((i % 2) as f64)];
        rows.push(row.clone());
        rows.push(row); // exact duplicate
    }
    let ds = Dataset::from_rows(2, &rows).unwrap();
    assert_all_algorithms_agree("duplicates", &ds);
    let full = TkdQuery::new(ds.len()).algorithm(Algorithm::Naive).run(&ds);
    for pair in 0..10u32 {
        let a = full.iter().find(|e| e.id == 2 * pair).unwrap().score;
        let b = full.iter().find(|e| e.id == 2 * pair + 1).unwrap().score;
        assert_eq!(a, b, "duplicate pair {pair} diverged");
    }
}
