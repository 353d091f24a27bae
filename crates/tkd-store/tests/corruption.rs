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
use tkd_store::{
    decode_engine, decode_engine_shared, encode_engine, fnv64, section_boundaries, SnapshotBuf,
    StoreError,
};

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

/// Decode must fail with a typed error that also renders — on **both**
/// load paths: the copying decode and the zero-copy (borrowed) decode
/// must reject the same damage with the same typed error; misaligned or
/// truncated buffers on the borrow path never become UB or panics.
#[track_caller]
fn assert_rejected(bytes: &[u8], what: &str) {
    let copied = match decode_engine(bytes) {
        Ok(_) => panic!("{what}: corrupted snapshot loaded silently"),
        Err(e) => {
            assert!(!e.to_string().is_empty(), "{what}: empty error message");
            e
        }
    };
    match decode_engine_shared(&SnapshotBuf::from_bytes(bytes.to_vec())) {
        Ok(_) => panic!("{what}: corrupted snapshot loaded silently on the borrow path"),
        Err(e) => assert_eq!(e, copied, "{what}: borrow path error diverges"),
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
    // v2 aligns slabs, so section ends usually coincide with the next
    // offset and dedup to one cut: header, table, 5 section starts, EOF.
    assert!(cuts.len() >= 8, "boundary enumeration looks too small");
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
    // A BitVec bit length of u64::MAX inside the bitmap payload (the
    // live mask's length field sits right after dims + n).
    {
        let mut damaged = bytes.clone();
        let e = 16 + 32; // entry 1: bitmap index
        let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
        damaged[off + 12..off + 20].copy_from_slice(&u64::MAX.to_le_bytes());
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
    let dynamic_entry = 16 + 4 * 32;
    let dyn_off = u64::from_le_bytes(
        bytes[dynamic_entry + 8..dynamic_entry + 16]
            .try_into()
            .unwrap(),
    ) as usize;
    // Swap two stable ids (they must be strictly increasing): bytes
    // dyn_off+4 is the slot count, ids follow.
    let mut damaged = bytes.clone();
    let ids_at = dyn_off + 12;
    let (a, b) = (ids_at, ids_at + 4);
    for i in 0..4 {
        damaged.swap(a + i, b + i);
    }
    fix_checksums(&mut damaged);
    match decode_engine(&damaged) {
        Err(StoreError::Invalid { .. }) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn nonzero_alignment_padding_is_rejected_on_both_paths() {
    // v2 zero-pads each word slab to an 8-byte offset; a nonzero pad
    // byte (checksums fixed up so integrity passes) must be caught by
    // the structural layer on the copying AND the borrow path — the
    // borrow path must never hand out a slab whose canonical alignment
    // was faked.
    let bytes = large_snapshot();
    // Dataset section: dims u32 + n u64 = 12 bytes, then 4 pad bytes
    // before the mask slab.
    let ds_off = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    for pad in 0..4 {
        let mut damaged = bytes.clone();
        damaged[ds_off + 12 + pad] = 0xAB;
        fix_checksums(&mut damaged);
        match decode_engine(&damaged) {
            Err(StoreError::Invalid { .. }) => {}
            other => panic!("pad byte {pad}: expected Invalid, got {other:?}"),
        }
        match decode_engine_shared(&SnapshotBuf::from_bytes(damaged)) {
            Err(StoreError::Invalid { .. }) => {}
            other => panic!("pad byte {pad} (borrowed): expected Invalid, got {other:?}"),
        }
    }
}

#[test]
fn snapshot_buf_tolerates_ragged_lengths() {
    // SnapshotBuf owns buffers of any byte length (the last backing
    // word may be partial); decoding through it must behave exactly
    // like the byte-slice decode for every ragged tail.
    let bytes = small_snapshot();
    for extra in 1..9 {
        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(0u8, extra));
        let buf = SnapshotBuf::from_bytes(padded.clone());
        assert_eq!(buf.bytes(), &padded[..]);
        // Trailing bytes are corruption — both paths agree on the error.
        assert_eq!(
            decode_engine_shared(&buf).unwrap_err(),
            decode_engine(&padded).unwrap_err(),
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

/// Exact-index value slots tampered behind valid checksums — a nonzero
/// slot on a missing cell, a 0 on an observed one, another value's slot
/// — are rejected on both load paths: a load counts the `MaxScore` queue
/// from these slots, so one that disagrees with the dataset must never
/// load.
#[test]
fn value_slots_that_disagree_with_the_dataset_are_rejected() {
    let bytes = large_snapshot();
    let e = 16 + 32; // entry 1: bitmap index
    let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
    let dims = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
    let n = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
    // The value-slot table closes the section: `n × dims` u32s.
    let slots_at = off + len - n * dims * 4;
    let tombstoned = [3, 77];
    let mut rng = Mix(0x5107);
    let mut tampered = 0;
    while tampered < 20 {
        let (s, d) = (rng.next() as usize % n, rng.next() as usize % dims);
        let at = slots_at + (s * dims + d) * 4;
        let slot = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let wrong = match (tampered % 3, slot) {
            (0, 0) => 1,
            (1, j) if j > 0 => 0,
            (2, j) if j > 1 => j - 1,
            (2, 1) => 2,
            _ => continue,
        };
        if tombstoned.contains(&s) {
            continue;
        }
        let mut damaged = bytes.clone();
        damaged[at..at + 4].copy_from_slice(&wrong.to_le_bytes());
        fix_checksums(&mut damaged);
        let what = format!("slot {s} dim {d}: value slot {slot} → {wrong}");
        match decode_engine(&damaged) {
            Err(StoreError::Invalid { .. }) => {}
            other => panic!("{what}: expected Invalid, got {other:?}"),
        }
        match decode_engine_shared(&SnapshotBuf::from_bytes(damaged)) {
            Err(StoreError::Invalid { .. }) => {}
            other => panic!("{what} (borrowed): expected Invalid, got {other:?}"),
        }
        tampered += 1;
    }
}

/// The bin-boundaries section tampered behind valid checksums — a dims
/// count off the index's, a hostile boundary count, boundaries out of
/// order, a NaN boundary — is rejected on both load paths. (A boundary
/// moved without breaking the order loads: bins only set how tight IBIG
/// prunes, never a score.)
#[test]
fn bin_boundaries_tampered_behind_valid_checksums_are_rejected() {
    let bytes = large_snapshot();
    let e = 16 + 2 * 32; // entry 2: bin boundaries
    let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
    let nbins = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
    assert!(nbins >= 2, "dim 0 needs two boundaries to reorder");
    let first = off + 12; // dim 0's first boundary
    let tamper = |what: &str, edit: &dyn Fn(&mut Vec<u8>)| {
        let mut damaged = bytes.clone();
        edit(&mut damaged);
        fix_checksums(&mut damaged);
        for result in [
            decode_engine(&damaged),
            decode_engine_shared(&SnapshotBuf::from_bytes(damaged.clone())),
        ] {
            match result {
                Err(StoreError::Invalid { .. } | StoreError::Truncated { .. }) => {}
                other => panic!("{what}: expected Invalid or Truncated, got {other:?}"),
            }
        }
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
