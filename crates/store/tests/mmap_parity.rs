//! What one decoder still leaves to prove about where the bytes come from.
//!
//! [`decode_instance`] is the only reader; a mapping changes one thing in
//! it — whether an array is borrowed or converted. So: the same bytes
//! through a mapping, through the heap and through a misaligned slice of a
//! mapping give the same instance, only the first of them borrowed; and
//! damage of every class is refused with the same [`StoreError`] whichever
//! of [`read_instance`] and [`load_instance_mmap`] meets it.

mod common;

use common::{assemble, fixture, frames, full_artifact, metrics, scratch_file};
use phast_store::mmap::Mmap;
use phast_store::{
    codec, decode_instance, encode_instance, load_instance_mmap, read_instance, LoadedInstance,
    StoreError, FORMAT_VERSION, PAYLOAD_ALIGN,
};
use std::path::Path;
use std::sync::Arc;

/// Asserts both file-level sources refuse `bytes`, and for the same
/// reason (variant and message).
fn assert_same_rejection(bytes: &[u8], path: &Path, context: &str) -> StoreError {
    std::fs::write(path, bytes).unwrap();
    let heap = read_instance(path).expect_err(context);
    let mapped = load_instance_mmap(path).expect_err(context);
    assert_eq!(format!("{heap:?}"), format!("{mapped:?}"), "{context}");
    mapped
}

fn assert_same_instance(a: &LoadedInstance, b: &LoadedInstance, context: &str) {
    let (p, q) = (&a.phast, &b.phast);
    assert_eq!(p.permutation().as_slice(), q.permutation().as_slice(), "{context}");
    assert_eq!(p.levels(), q.levels(), "{context}");
    assert_eq!((p.up(), p.up_middles()), (q.up(), q.up_middles()), "{context}");
    assert_eq!((p.down(), p.down_middles()), (q.down(), q.down_middles()), "{context}");
    assert_eq!(p.orig_incoming(), q.orig_incoming(), "{context}");
    assert_eq!(a.hierarchy, b.hierarchy, "{context}");
    assert_eq!(a.metrics, b.metrics, "{context}");
    let (mut e1, mut e2) = (p.engine(), q.engine());
    for s in 0..p.num_vertices() as u32 {
        assert_eq!(e1.distances(s), e2.distances(s), "{context}: tree from {s}");
    }
}

#[test]
fn mapped_heap_and_misaligned_sources_give_one_instance() {
    let (g, p, h) = fixture();
    let bytes = full_artifact();
    let heap = decode_instance(&bytes, None).expect("heap decode");
    assert!(!heap.zero_copy, "nothing to borrow from");
    assert_eq!(heap.hierarchy.as_ref(), Some(&h));
    assert_eq!(heap.metrics, metrics(&g));
    assert_eq!(p.engine().distances(3), heap.phast.engine().distances(3));

    let path = scratch_file("clean.phast");
    std::fs::write(&path, &bytes).unwrap();
    let mapped = load_instance_mmap(&path).expect("clean artifact loads via mmap");
    assert!(mapped.zero_copy, "an aligned artifact in a mapping borrows all big arrays");
    assert_same_instance(&heap, &mapped, "mapped vs heap");

    // One junk byte in front: every payload of the slice behind it sits
    // one off its alignment, so the same decoder converts every array.
    let shifted = scratch_file("shifted.phast");
    std::fs::write(&shifted, [&[0xAA][..], &bytes[..]].concat()).unwrap();
    let map = Arc::new(Mmap::open(&shifted).expect("map"));
    let misaligned = decode_instance(&map[1..], Some(&map)).expect("misaligned slice decodes");
    assert!(!misaligned.zero_copy, "a misaligned payload must not be borrowed");
    assert_same_instance(&heap, &misaligned, "misaligned vs heap");

    // An owner that does not hold the bytes lends nothing.
    let foreign = decode_instance(&bytes, Some(&map)).expect("foreign owner decodes");
    assert!(!foreign.zero_copy, "bytes outside the mapping must not be borrowed");
    assert_same_instance(&heap, &foreign, "foreign owner vs heap");

    // The borrowed arrays outlive every handle but their own.
    drop(map);
    drop(heap);
    assert_eq!(p.engine().distances(7), mapped.phast.engine().distances(7));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&shifted).ok();
}

#[test]
fn payloads_are_cache_line_aligned_in_the_file() {
    let bytes = full_artifact();
    for s in codec::sections(&bytes).expect("clean header") {
        let s = s.expect("clean frame");
        assert!(s.crc_ok);
        if s.tag != 0x00 {
            assert_eq!(
                s.offset % PAYLOAD_ALIGN,
                0,
                "section 0x{:02X} payload starts at unaligned offset {}",
                s.tag,
                s.offset
            );
        }
    }
}

#[test]
fn every_bit_flip_rejected_identically() {
    let bytes = full_artifact();
    let path = scratch_file("flip.phast");
    for at in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[at] ^= 1 << (at % 8);
        assert_same_rejection(&evil, &path, &format!("flip at byte {at}"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_truncation_point_rejected_identically() {
    let bytes = full_artifact();
    let path = scratch_file("trunc.phast");
    for cut in 0..bytes.len() {
        assert_same_rejection(&bytes[..cut], &path, &format!("truncation to {cut} bytes"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn header_skew_rejected_identically() {
    let (_, p, _) = fixture();
    let base = encode_instance(&p, None, &[]);
    let path = scratch_file("skew.phast");

    for found in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
        let mut version = base.clone();
        version[8..12].copy_from_slice(&found.to_le_bytes());
        let e = assert_same_rejection(&version, &path, "version skew");
        assert!(matches!(e, StoreError::UnsupportedVersion { found: f } if f == found), "{e:?}");
    }

    let mut magic = base.clone();
    magic[0] = b'X';
    let e = assert_same_rejection(&magic, &path, "bad magic");
    assert!(matches!(e, StoreError::NotAStore), "{e:?}");

    let mut kind = base.clone();
    kind[12..16].copy_from_slice(&2u32.to_le_bytes());
    let e = assert_same_rejection(&kind, &path, "the retired hierarchy kind");
    assert!(matches!(e, StoreError::UnknownKind(2)), "{e:?}");

    let mut file_crc = base.clone();
    *file_crc.last_mut().unwrap() ^= 0x80;
    let e = assert_same_rejection(&file_crc, &path, "bad file CRC");
    assert!(matches!(e, StoreError::FileChecksum), "{e:?}");
    std::fs::remove_file(&path).ok();
}

/// CRC-clean damage: the checks behind the checksums fire on data
/// borrowed from the mapping exactly as on data read to the heap.
#[test]
fn crc_clean_damage_rejected_identically() {
    let clean = frames(&full_artifact());
    let position = |tag: u32| clean.iter().position(|(t, _)| *t == tag).expect("present");
    let path = scratch_file("structural.phast");

    let mut collide = clean.clone();
    collide[position(0x02)].1[..8].fill(0);
    let e = assert_same_rejection(&assemble(&collide), &path, "colliding permutation");
    assert!(matches!(&e, StoreError::Corrupt(m) if m.contains("permutation")), "{e:?}");

    let mut pad = clean.clone();
    pad[position(0x00)].1[0] = 1;
    let e = assert_same_rejection(&assemble(&pad), &path, "non-zero pad");
    assert!(matches!(&e, StoreError::Corrupt(m) if m.contains("padding")), "{e:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_and_missing_files_yield_typed_errors() {
    let path = scratch_file("empty.phast");
    let e = assert_same_rejection(b"", &path, "empty file");
    assert!(matches!(e, StoreError::Truncated { offset: 0 }), "{e:?}");
    std::fs::remove_file(&path).ok();
    assert!(matches!(load_instance_mmap(&path), Err(StoreError::Io(_))));
    assert!(matches!(read_instance(&path), Err(StoreError::Io(_))));
}
