//! The radix-sorted column against a comparison-sort reference.
//!
//! `for_each_sorted_column` must hand out, per dimension, exactly what a
//! stable `sort_by(total_cmp)` of the normalized `(v + 0.0, id)` pairs
//! yields — bit for bit, so every index and snapshot built from it stays
//! byte-identical. The inputs reach every corner of the key: −0.0 beside
//! 0.0, ±∞, subnormals of both signs, `f64::MIN`/`MAX`, negative values,
//! random bit patterns (all 64 key bits vary), a dimension holding one
//! repeated value, an entirely missing dimension, 0–2 rows, and row
//! counts on either side of a digit's 2¹¹ buckets.

use proptest::prelude::*;
use tkd_index::for_each_sorted_column;
use tkd_model::{Dataset, ObjectId};

/// Values at the edges of the `total_cmp` order.
const EDGES: [f64; 14] = [
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN,
    f64::MAX,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308,
    -1.5,
    1.0,
    -1.0,
];

/// How a dimension's observed cells are drawn.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Edge values, small integers and random bit patterns mixed.
    Mixed,
    /// One value in every observed cell.
    Repeated(f64),
    /// Random bit patterns only: every key bit varies.
    Continuous,
    /// No observed cell at all.
    Missing,
}

/// A non-NaN `f64` from raw bits (a NaN pattern becomes −0.0).
fn from_bits(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_nan() {
        -0.0
    } else {
        v
    }
}

/// One observed value of a [`Kind::Mixed`] dimension.
fn mixed_value(pick: usize, bits: u64) -> f64 {
    match pick % 3 {
        0 => EDGES[(bits % EDGES.len() as u64) as usize],
        1 => (bits % 9) as f64 - 4.0,
        _ => from_bits(bits),
    }
}

fn kind_strategy() -> impl Strategy<Value = Kind> {
    (0usize..4, 0usize..EDGES.len()).prop_map(|(k, e)| match k {
        0 => Kind::Mixed,
        1 => Kind::Repeated(EDGES[e]),
        2 => Kind::Continuous,
        _ => Kind::Missing,
    })
}

/// splitmix64: a seeded stream of draws.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One cell of a dimension drawn as `kind`, missing with
    /// `missing_pct` per cent.
    fn cell(&mut self, kind: Kind, missing_pct: u64) -> Option<f64> {
        if self.next() % 100 < missing_pct {
            return None;
        }
        match kind {
            Kind::Mixed => {
                let pick = self.next() as usize;
                Some(mixed_value(pick, self.next()))
            }
            Kind::Repeated(v) => Some(v),
            Kind::Continuous => Some(from_bits(self.next())),
            Kind::Missing => None,
        }
    }
}

/// The dataset of `n` rows whose dimension `d` is drawn as `kinds[d]`.
/// Dimension 0 is never [`Kind::Missing`], and fills any row left
/// all-missing.
fn dataset(kinds: &[Kind], n: usize, missing_pct: u64, seed: u64) -> Dataset {
    let mut draw = Draw(seed);
    let rows: Vec<Vec<Option<f64>>> = (0..n)
        .map(|_| {
            let mut row: Vec<Option<f64>> =
                kinds.iter().map(|&k| draw.cell(k, missing_pct)).collect();
            if row.iter().all(Option::is_none) {
                row[0] = draw.cell(kinds[0], 0);
            }
            row
        })
        .collect();
    Dataset::from_rows(kinds.len(), &rows).expect("valid rows")
}

/// The comparison-sort reference: every observed `(v + 0.0, id)` of
/// `dim`, laid down by ascending id and stably sorted by `total_cmp`.
fn reference(ds: &Dataset, dim: usize) -> Vec<(u64, ObjectId)> {
    let mut column: Vec<(f64, ObjectId)> = ds
        .ids()
        .filter_map(|o| ds.value(o, dim).map(|v| (v + 0.0, o)))
        .collect();
    column.sort_by(|a, b| a.0.total_cmp(&b.0));
    column.into_iter().map(|(v, o)| (v.to_bits(), o)).collect()
}

/// Every column of `ds` equals its reference, bit for bit.
fn assert_columns_match(ds: &Dataset) {
    let mut seen = 0;
    for_each_sorted_column(ds, |dim, column| {
        assert_eq!(dim, seen, "dimensions in order");
        seen += 1;
        let got: Vec<(u64, ObjectId)> = column.iter().map(|&(v, o)| (v.to_bits(), o)).collect();
        assert_eq!(got, reference(ds, dim), "dim {dim} of {} rows", ds.len());
    });
    assert_eq!(seen, ds.dims());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn radix_column_equals_reference_sort(
        first in kind_strategy(),
        rest in proptest::collection::vec(kind_strategy(), 0..4),
        n in 0usize..300,
        missing_pct in 0u64..70,
        seed in any::<u64>(),
    ) {
        let first = match first {
            Kind::Missing => Kind::Mixed,
            kind => kind,
        };
        let kinds: Vec<Kind> = std::iter::once(first).chain(rest).collect();
        assert_columns_match(&dataset(&kinds, n, missing_pct, seed));
    }
}

/// Row counts on both sides of a digit's bucket count, and the
/// degenerate 0–2 rows, over every kind of dimension at once.
#[test]
fn radix_column_equals_reference_sort_at_size_edges() {
    let kinds = [
        Kind::Mixed,
        Kind::Continuous,
        Kind::Repeated(-0.0),
        Kind::Missing,
        Kind::Repeated(f64::NEG_INFINITY),
    ];
    for (i, n) in [0, 1, 2, 3, 2047, 2048, 2049, 4097].into_iter().enumerate() {
        for missing_pct in [0, 30] {
            assert_columns_match(&dataset(&kinds, n, missing_pct, i as u64));
        }
    }
    let empty = Dataset::from_rows(3, &[]).expect("no rows");
    assert_columns_match(&empty);
}

/// Every edge value at once, each twice, in one column.
#[test]
fn every_edge_value_sorts_to_its_reference_place() {
    let rows: Vec<Vec<Option<f64>>> = EDGES
        .iter()
        .chain(EDGES.iter().rev())
        .map(|&v| vec![Some(v)])
        .collect();
    let ds = Dataset::from_rows(1, &rows).expect("valid rows");
    assert_columns_match(&ds);
}
