//! The corruption harness: deterministic fuzzing of the snapshot loader.
//!
//! Every damaged input — truncation at every byte of the small snapshot
//! and at every section boundary of the large one, byte flips at seeded
//! offsets across header, section table, checksums, payloads, and
//! padding, and hostile length fields with *fixed-up* checksums — must
//! come back as a typed [`StoreError`]: no panic, no OOM-abort, no
//! silent load. Out-of-range lengths are rejected against the bytes
//! actually present, before any allocation they would size.

use tkd_core::{DynamicEngine, EngineQuery};
use tkd_data::synthetic::{generate, Distribution, SyntheticConfig};
use tkd_model::fixtures;
use tkd_store::{decode_engine, encode_engine, fnv64, section_boundaries, StoreError};

/// Splitmix-style deterministic offsets.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

fn small_snapshot() -> Vec<u8> {
    encode_engine(&DynamicEngine::new(fixtures::fig3_sample()))
}

fn large_snapshot() -> Vec<u8> {
    let ds = generate(&SyntheticConfig {
        n: 600,
        dims: 4,
        cardinality: 40,
        missing_rate: 0.3,
        distribution: Distribution::Independent,
        seed: 9,
    });
    let mut engine = DynamicEngine::new(ds);
    // Tombstones and a mixed history make every section non-trivial.
    engine.insert(&[Some(1.0), None, Some(2.0), None]).unwrap();
    engine.delete(3).unwrap();
    engine.delete(77).unwrap();
    encode_engine(&engine)
}

/// Recompute every section checksum and the header checksum so tampered
/// *content* survives the integrity layer and must be caught by the
/// structural validation behind it.
fn fix_checksums(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    for i in 0..count {
        let e = 16 + i * 32;
        let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
        if offset.saturating_add(len) <= bytes.len() {
            let sum = fnv64(&bytes[offset..offset + len]);
            bytes[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
        }
    }
    let table_end = 16 + count * 32 + 8;
    let sum = fnv64(&bytes[..table_end - 8]);
    bytes[table_end - 8..table_end].copy_from_slice(&sum.to_le_bytes());
}

/// Decode must fail with a typed error that also renders.
#[track_caller]
fn assert_rejected(bytes: &[u8], what: &str) {
    match decode_engine(bytes) {
        Ok(_) => panic!("{what}: corrupted snapshot loaded silently"),
        Err(e) => assert!(!e.to_string().is_empty(), "{what}: empty error message"),
    }
}

/// `(offset, length)` of section `i`'s payload, read off the table.
fn section(bytes: &[u8], i: usize) -> (usize, usize) {
    let e = 16 + i * 32;
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (field(e + 8), field(e + 16))
}

/// Where the parts of the dataset section (section 0) sit.
struct DatasetLayout {
    dims: usize,
    n: usize,
    /// Offset of each dimension's first table value, and its length.
    tables: Vec<(usize, usize)>,
    /// Offset of the slot-width byte; the slots follow it.
    width_at: usize,
    width: usize,
    /// Offset of the −0.0 position count; the positions follow it.
    zeros_at: usize,
}

fn dataset_layout(bytes: &[u8]) -> DatasetLayout {
    let (off, _) = section(bytes, 0);
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let dims = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
    let n = u64_at(off + 4);
    let mut at = off + 12;
    let mut tables = Vec::new();
    for _ in 0..dims {
        let card = u64_at(at);
        tables.push((at + 8, card));
        at += 8 + 8 * card;
    }
    let width = bytes[at] as usize;
    DatasetLayout {
        dims,
        n,
        tables,
        width_at: at,
        width,
        zeros_at: at + 1 + n * dims * width,
    }
}

/// Apply `edit`, fix the checksums up, and require a typed rejection
/// from the structural layer behind them.
#[track_caller]
fn assert_tamper_rejected(bytes: &[u8], what: &str, edit: impl FnOnce(&mut Vec<u8>)) {
    let mut damaged = bytes.to_vec();
    edit(&mut damaged);
    fix_checksums(&mut damaged);
    match decode_engine(&damaged) {
        Err(StoreError::Invalid { .. } | StoreError::Truncated { .. }) => {}
        other => panic!("{what}: expected Invalid or Truncated, got {other:?}"),
    }
}

#[test]
fn truncation_at_every_byte_of_the_small_snapshot() {
    let bytes = small_snapshot();
    for cut in 0..bytes.len() {
        assert_rejected(&bytes[..cut], &format!("truncate at {cut}"));
    }
    // The untruncated bytes do load — the harness is not vacuous.
    assert!(decode_engine(&bytes).is_ok());
}

#[test]
fn truncation_at_every_section_boundary_of_the_large_snapshot() {
    let bytes = large_snapshot();
    let cuts = section_boundaries(&bytes);
    // Section ends often coincide with the next offset and dedup to one
    // cut: header, table, 3 section starts, EOF.
    assert!(cuts.len() >= 6, "boundary enumeration looks too small");
    for &cut in &cuts {
        if cut == bytes.len() {
            continue;
        }
        // At the boundary and one byte to either side.
        for cut in [cut.saturating_sub(1), cut, cut + 1] {
            assert_rejected(&bytes[..cut], &format!("truncate at boundary {cut}"));
        }
    }
}

#[test]
fn byte_flips_at_seeded_offsets_never_load() {
    let bytes = large_snapshot();
    let mut rng = Mix(0xC0FFEE);
    // Seeded offsets across the whole file…
    let mut offsets: Vec<usize> = (0..300)
        .map(|_| (rng.next() as usize) % bytes.len())
        .collect();
    // …plus every header byte, the full section table, each recorded
    // checksum field, and each payload's first/last byte.
    offsets.extend(0..16);
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_end = 16 + count * 32 + 8;
    offsets.extend(16..table_end);
    for i in 0..count {
        let e = 16 + i * 32;
        let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
        offsets.push(offset);
        if len > 0 {
            offsets.push(offset + len - 1);
        }
        // Padding bytes after the payload, when present.
        if !len.is_multiple_of(8) {
            offsets.push(offset + len);
        }
    }
    for off in offsets {
        let mut damaged = bytes.clone();
        let mask = (rng.next() % 255 + 1) as u8; // never a no-op flip
        damaged[off] ^= mask;
        assert_rejected(&damaged, &format!("flip at {off} (mask {mask:#x})"));
    }
}

#[test]
fn hostile_lengths_are_rejected_before_allocation() {
    let bytes = large_snapshot();
    // Section-table length of u64::MAX (header checksum fixed so the
    // table parse proceeds to the bounds check).
    {
        let mut damaged = bytes.clone();
        damaged[16 + 16..16 + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        fix_checksums(&mut damaged);
        assert!(matches!(
            decode_engine(&damaged).unwrap_err(),
            StoreError::Truncated { .. } | StoreError::BadSectionTable { .. }
        ));
    }
    // Dataset object count of u64::MAX inside a checksum-valid payload:
    // must die at the pre-allocation bounds check, not in an allocator.
    {
        let mut damaged = bytes.clone();
        let ds_off = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        damaged[ds_off + 4..ds_off + 12].copy_from_slice(&u64::MAX.to_le_bytes());
        fix_checksums(&mut damaged);
        assert!(matches!(
            decode_engine(&damaged).unwrap_err(),
            StoreError::Truncated { .. } | StoreError::Invalid { .. }
        ));
    }
    // A BitVec bit length of u64::MAX: the live mask's, which follows
    // the dynamic section's stable-id gaps, one LEB128 each (a byte
    // without its high bit ends one).
    {
        let mut damaged = bytes.clone();
        let (off, _) = section(&bytes, 2);
        let nslots = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let gaps = bytes[off + 12..].iter().enumerate();
        let ends = gaps.filter(|&(_, &b)| b & 0x80 == 0).map(|(e, _)| e + 1);
        let at = off + 12 + ends.take(nslots).last().unwrap_or(0);
        damaged[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        fix_checksums(&mut damaged);
        assert!(matches!(
            decode_engine(&damaged).unwrap_err(),
            StoreError::Truncated { .. } | StoreError::Invalid { .. }
        ));
    }
}

#[test]
fn content_tampering_behind_valid_checksums_is_caught_structurally() {
    let bytes = large_snapshot();
    let dynamic_entry = 16 + 2 * 32;
    let dyn_off = u64::from_le_bytes(
        bytes[dynamic_entry + 8..dynamic_entry + 16]
            .try_into()
            .unwrap(),
    ) as usize;
    // A next_id at or below the last stable id (the ids are gaps, so
    // they ascend by construction; the bound on them is still checked):
    // the dynamic section opens with next_id.
    let mut damaged = bytes.clone();
    damaged[dyn_off..dyn_off + 4].copy_from_slice(&1u32.to_le_bytes());
    fix_checksums(&mut damaged);
    match decode_engine(&damaged) {
        Err(StoreError::Invalid { .. }) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn nonzero_section_padding_is_rejected() {
    // Each section starts 8-byte aligned behind zero padding; a nonzero
    // pad byte (outside every checksum) must be caught structurally.
    let bytes = large_snapshot();
    let mut padded = 0;
    for i in 0..3 {
        let (off, len) = section(&bytes, i);
        for pad in off + len..(off + len).div_ceil(8) * 8 {
            let mut damaged = bytes.clone();
            damaged[pad] = 0xAB;
            match decode_engine(&damaged) {
                Err(StoreError::Invalid { .. }) => {}
                other => panic!("pad byte {pad}: expected Invalid, got {other:?}"),
            }
            padded += 1;
        }
    }
    assert!(padded > 0, "no section of the large snapshot is padded");
}

#[test]
fn ragged_trailing_bytes_are_rejected() {
    // Bytes past the last section are corruption, however many.
    let bytes = small_snapshot();
    for extra in 1..9 {
        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(0u8, extra));
        assert!(
            matches!(
                decode_engine(&padded).unwrap_err(),
                StoreError::BadSectionTable { .. }
            ),
            "extra={extra}"
        );
    }
}

#[test]
fn loaded_large_snapshot_still_answers() {
    // Sanity companion: the harness's base snapshot is healthy.
    let bytes = large_snapshot();
    let mut engine = decode_engine(&bytes).expect("healthy snapshot");
    let r = engine.query(&EngineQuery::new(5)).expect("BIG supported");
    assert_eq!(r.len(), 5);
}

/// Value slots tampered behind valid checksums — past their
/// dimension's cardinality, or stored in a width other than the one the
/// tables call for — are rejected: a slot names its cell's value, so one
/// that names no value of its table must never load.
#[test]
fn value_slots_that_disagree_with_the_dataset_are_rejected() {
    let bytes = large_snapshot();
    let layout = dataset_layout(&bytes);
    assert_eq!(layout.width, 1, "cardinality 40 fits a byte");
    let slots_at = layout.width_at + 1;
    let mut rng = Mix(0x5107);
    for _ in 0..20 {
        let (o, d) = (
            rng.next() as usize % layout.n,
            rng.next() as usize % layout.dims,
        );
        let card = layout.tables[d].1;
        let wrong = card + 1 + rng.next() as usize % (255 - card);
        let what = format!("row {o} dim {d}: slot {wrong} of {card}");
        assert_tamper_rejected(&bytes, &what, |b| {
            b[slots_at + o * layout.dims + d] = wrong as u8;
        });
    }
    for width in [0, 2, 3, 4, 8] {
        assert_tamper_rejected(&bytes, &format!("width {width}"), |b| {
            b[layout.width_at] = width;
        });
    }
}

/// Value tables tampered behind valid checksums — a NaN, −0.0, or two
/// values out of order — are rejected.
#[test]
fn value_tables_that_are_not_ascending_or_hold_nan_are_rejected() {
    let bytes = large_snapshot();
    let layout = dataset_layout(&bytes);
    let (first, card) = layout.tables[0];
    assert!(card >= 2, "dim 0 needs two values to reorder");
    for (what, bits) in [("NaN", f64::NAN.to_bits()), ("−0.0", (-0.0f64).to_bits())] {
        assert_tamper_rejected(&bytes, what, |b| {
            b[first..first + 8].copy_from_slice(&bits.to_le_bytes())
        });
    }
    assert_tamper_rejected(&bytes, "order", |b| {
        for i in 0..8 {
            b.swap(first + i, first + 8 + i);
        }
    });
}

/// A snapshot whose −0.0 list is not empty: zeros of both signs in
/// every dimension.
fn signed_zero_snapshot() -> Vec<u8> {
    let rows: Vec<Vec<Option<f64>>> = (0..12)
        .map(|i| {
            let zero = if i % 3 == 0 { -0.0 } else { 0.0 };
            vec![Some(zero), (i % 4 != 0).then_some(i as f64), Some(-zero)]
        })
        .collect();
    let ds = tkd_model::Dataset::from_rows(3, &rows).unwrap();
    encode_engine(&DynamicEngine::new(ds))
}

/// −0.0 positions tampered behind valid checksums — past the last cell,
/// out of order, or on a cell that is not an observed zero — are
/// rejected; the untampered list loads its signs back.
#[test]
fn negative_zero_positions_out_of_range_order_or_zero_cells_are_rejected() {
    let bytes = signed_zero_snapshot();
    let layout = dataset_layout(&bytes);
    let count = u64::from_le_bytes(
        bytes[layout.zeros_at..layout.zeros_at + 8]
            .try_into()
            .unwrap(),
    ) as usize;
    assert!(count >= 2, "the fixture stores −0.0 cells");
    let engine = decode_engine(&bytes).expect("healthy snapshot");
    assert_eq!(
        engine.value(0, 0).unwrap().map(f64::to_bits),
        Some((-0.0f64).to_bits())
    );
    assert_eq!(
        engine.value(1, 2).unwrap().map(f64::to_bits),
        Some((-0.0f64).to_bits())
    );
    let at = |i: usize| layout.zeros_at + 8 + 8 * i;
    let put =
        |b: &mut Vec<u8>, i: usize, v: u64| b[at(i)..at(i) + 8].copy_from_slice(&v.to_le_bytes());
    let cells = (layout.n * layout.dims) as u64;
    assert_tamper_rejected(&bytes, "past the last cell", |b| put(b, count - 1, cells));
    assert_tamper_rejected(&bytes, "hostile position", |b| put(b, 0, u64::MAX));
    assert_tamper_rejected(&bytes, "out of order", |b| {
        for i in 0..8 {
            b.swap(at(0) + i, at(1) + i);
        }
    });
    assert_tamper_rejected(&bytes, "repeated", |b| {
        let first = b[at(0)..at(0) + 8].to_vec();
        b[at(1)..at(1) + 8].copy_from_slice(&first);
    });
    // Row 0 dim 1 is missing; row 1 dim 1 holds 1.0.
    assert_tamper_rejected(&bytes, "missing cell", |b| put(b, 0, 1));
    assert_tamper_rejected(&bytes, "non-zero cell", |b| put(b, 0, 4));
}

/// A v6 section table tampered behind valid checksums — a fourth
/// section (v5 kept the incomparable-set keys in one), the kinds out of
/// their required order, or v5's kind number 4 for the dynamic state —
/// is rejected before any payload is read.
#[test]
fn section_tables_other_than_v6_three_are_rejected() {
    let bytes = large_snapshot();
    let kind_at = |i: usize| 16 + i * 32;
    let put_kind = |b: &mut Vec<u8>, i: usize, kind: u32| {
        b[kind_at(i)..kind_at(i) + 4].copy_from_slice(&kind.to_le_bytes())
    };
    let tampered = |what: &str, edit: &dyn Fn(&mut Vec<u8>)| {
        let mut damaged = bytes.clone();
        edit(&mut damaged);
        fix_checksums(&mut damaged);
        match decode_engine(&damaged) {
            Err(StoreError::BadSectionTable { .. }) => {}
            other => panic!("{what}: expected BadSectionTable, got {other:?}"),
        }
    };
    tampered("four sections", &|b| {
        b[12..16].copy_from_slice(&4u32.to_le_bytes())
    });
    tampered("kinds swapped", &|b| {
        put_kind(b, 1, 3);
        put_kind(b, 2, 2);
    });
    tampered("v5 dynamic kind", &|b| put_kind(b, 2, 4));
}

/// The bin-boundaries section tampered behind valid checksums — a dims
/// count off the index's, a hostile boundary count, boundaries out of
/// order, a NaN boundary — is rejected. (A boundary
/// moved without breaking the order loads: bins only set how tight IBIG
/// prunes, never a score.)
#[test]
fn bin_boundaries_tampered_behind_valid_checksums_are_rejected() {
    let bytes = large_snapshot();
    let (off, _) = section(&bytes, 1);
    let nbins = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
    assert!(nbins >= 2, "dim 0 needs two boundaries to reorder");
    let first = off + 12; // dim 0's first boundary
    let tamper = |what: &str, edit: &dyn Fn(&mut Vec<u8>)| {
        assert_tamper_rejected(&bytes, what, edit);
    };
    tamper("dims", &|b| {
        b[off..off + 4].copy_from_slice(&3u32.to_le_bytes())
    });
    tamper("count", &|b| {
        b[off + 4..off + 12].copy_from_slice(&u64::MAX.to_le_bytes())
    });
    tamper("order", &|b| {
        for i in 0..8 {
            b.swap(first + i, first + 8 + i);
        }
    });
    tamper("NaN", &|b| {
        b[first..first + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes())
    });
}
