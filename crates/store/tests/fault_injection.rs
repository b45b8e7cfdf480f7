//! Fault-injection suite for the `.phast` artifact store.
//!
//! The contract under test: every single-bit flip, every truncation
//! point, every framing fault and every header skew on a `.phast` file is
//! rejected with a typed [`StoreError`] — no panics, no wrong answers —
//! and a write that races another leaves a whole file. `mmap_parity.rs`
//! shows that where the bytes come from changes none of it.

mod common;

use common::{assemble, fixture, frames, full_artifact, metrics, scratch_file};
use phast_store::{
    decode_instance, encode_instance, LoadedInstance, StoreError, FORMAT_VERSION, MAGIC,
};
use proptest::prelude::*;
use std::sync::Barrier;

fn decode(bytes: &[u8]) -> Result<LoadedInstance, StoreError> {
    decode_instance(bytes, None)
}

/// Why `bytes` failed to load; loading is the failure here.
fn rejection(bytes: &[u8]) -> StoreError {
    decode(bytes).expect_err("a damaged artifact loaded")
}

/// The two artifacts the exhaustive loops run over: the bare instance,
/// and the instance with its hierarchy and two metrics.
fn artifacts() -> [Vec<u8>; 2] {
    let (_, p, _) = fixture();
    [encode_instance(&p, None, &[]), full_artifact()]
}

#[test]
fn roundtrip_preserves_distances() {
    let (_, p, h) = fixture();
    let q = decode(&encode_instance(&p, Some(&h), &[])).expect("clean artifact must load");
    assert_eq!(q.hierarchy, Some(h), "bundled hierarchy must ride along");
    assert!(q.metrics.is_empty());
    let mut e1 = p.engine();
    let mut e2 = q.phast.engine();
    for s in 0..p.num_vertices() as u32 {
        assert_eq!(e1.distances(s), e2.distances(s), "tree from {s} differs");
    }
    assert_eq!(p.direction(), q.phast.direction());
    assert_eq!(p.num_shortcuts(), q.phast.num_shortcuts());
}

#[test]
fn roundtrip_without_hierarchy() {
    let (_, p, _) = fixture();
    let q = decode(&encode_instance(&p, None, &[])).expect("clean artifact must load");
    assert!(q.hierarchy.is_none());
    assert_eq!(p.engine().distances(3), q.phast.engine().distances(3));
}

#[test]
fn every_section_bit_flip_is_blamed_on_its_section() {
    let bytes = full_artifact();
    let sections: Vec<_> = phast_store::codec::sections(&bytes)
        .expect("clean header")
        .map(|s| s.expect("clean frame"))
        .collect();
    assert!(sections.len() >= 22, "instance + hierarchy + metric sections");
    for s in sections.iter().filter(|s| !s.payload.is_empty()) {
        let (start, len) = (s.offset, s.payload.len());
        // Flip a bit at the start, middle and end of the payload.
        for at in [start, start + len / 2, start + len - 1] {
            let mut evil = bytes.clone();
            evil[at] ^= 0x40;
            match rejection(&evil) {
                StoreError::SectionChecksum { tag } => {
                    assert_eq!(tag, s.tag, "flip in 0x{:02X} blamed on 0x{tag:02X}", s.tag)
                }
                e => panic!("flip at byte {at} (section 0x{:02X}): {e:?}", s.tag),
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    for bytes in artifacts() {
        // One flipped bit per byte over the whole file, rotating the bit
        // position so all eight lanes get coverage.
        for at in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[at] ^= 1 << (at % 8);
            assert!(
                decode(&evil).is_err(),
                "single-bit flip at byte {at} was not detected"
            );
        }
    }
}

#[test]
fn every_truncation_point_is_rejected() {
    for bytes in artifacts() {
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes was not detected"
            );
        }
    }
}

/// There is one readable version. Any other is refused by the header
/// check alone — before a single CRC is consulted, so damage elsewhere in
/// the file does not change the verdict — and the message names the
/// version this build does read.
#[test]
fn every_other_version_is_refused_before_any_checksum() {
    let (_, p, _) = fixture();
    let clean = encode_instance(&p, None, &[]);
    for found in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
        let mut bytes = clean.clone();
        bytes[8..12].copy_from_slice(&found.to_le_bytes());
        // The file CRC is already wrong; break a section's too.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let e = rejection(&bytes);
        assert!(
            matches!(e, StoreError::UnsupportedVersion { found: f } if f == found),
            "version {found}: {e:?}"
        );
        assert_eq!(
            e.to_string(),
            format!("unsupported format version {found} (this build reads version {FORMAT_VERSION})")
        );
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let (_, p, _) = fixture();
    let mut bytes = encode_instance(&p, None, &[]);
    bytes[0] = b'X';
    assert!(matches!(decode(&bytes), Err(StoreError::NotAStore)));
    // Some other tool's JSON fed to the loader is the common operator
    // mistake; it must produce the same clean error.
    assert!(matches!(
        decode(b"{\"perm\": [], \"levels\": []}"),
        Err(StoreError::NotAStore)
    ));
    assert!(matches!(decode(b"{}"), Err(StoreError::Truncated { offset: 2 })));
}

/// There is one kind. Code 2 used to be a standalone hierarchy; it is an
/// unknown kind like any other now.
#[test]
fn every_other_kind_code_is_rejected() {
    let (_, p, _) = fixture();
    for code in [0u32, 2, 99] {
        let mut bytes = encode_instance(&p, None, &[]);
        bytes[12..16].copy_from_slice(&code.to_le_bytes());
        assert!(
            matches!(decode(&bytes), Err(StoreError::UnknownKind(c)) if c == code),
            "kind code {code}"
        );
    }
}

/// Faults in *which* sections a file has, under CRCs that all pass: only
/// the decoder's own bookkeeping can catch these.
#[test]
fn framing_faults_with_valid_crcs_are_corrupt() {
    let clean = frames(&full_artifact());
    let position = |tag: u32| clean.iter().position(|(t, _)| *t == tag).expect("present");
    let expect = |frames: &[(u32, Vec<u8>)], needle: &str| match rejection(&assemble(frames)) {
        StoreError::Corrupt(m) => assert!(m.contains(needle), "`{needle}` not in `{m}`"),
        e => panic!("expected Corrupt({needle}), got {e:?}"),
    };
    assert!(decode(&assemble(&clean)).is_ok(), "the reassembly itself is clean");

    let mut missing = clean.clone();
    missing.remove(position(0x08));
    expect(&missing, "missing section 0x08");

    let mut duplicate = clean.clone();
    duplicate.push(clean[position(0x03)].clone());
    expect(&duplicate, "duplicate section 0x03");

    let mut unknown = clean.clone();
    unknown.push((0x7E, vec![1, 2, 3]));
    expect(&unknown, "unknown section 0x7E");

    let mut partial = clean.clone();
    partial.remove(position(0x25));
    expect(&partial, "partial hierarchy bundle");

    let mut pad = clean.clone();
    let at = position(0x00);
    assert!(!pad[at].1.is_empty(), "the first pad has bytes to damage");
    pad[at].1[0] = 1;
    expect(&pad, "padding section holds non-zero bytes");

    let mut ragged = clean.clone();
    ragged[position(0x05)].1.pop();
    expect(&ragged, "up arcs section length");

    // Two permutation entries collide: the structural validators are the
    // last line of defence behind a buggy writer.
    let mut collide = clean.clone();
    collide[position(0x02)].1[..8].fill(0);
    expect(&collide, "permutation");
}

#[test]
fn atomic_write_roundtrips_and_leaves_no_temp_files() {
    let (_, p, h) = fixture();
    let path = scratch_file("roundtrip.phast");
    phast_store::write_instance(&path, &p, Some(&h)).expect("write");
    let (q, hq) = phast_store::read_instance(&path).expect("read back");
    assert!(hq.is_some());
    assert_eq!(p.engine().distances(7), q.engine().distances(7));
    // Overwriting an existing artifact must also work (rename over it).
    phast_store::write_instance(&path, &p, None).expect("overwrite");
    let (_, hq) = phast_store::read_instance(&path).expect("read back twice");
    assert!(hq.is_none());
    let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(".roundtrip.phast.tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    std::fs::remove_file(&path).ok();
}

/// Writers of one target inside one process — an operator loop beside a
/// `customize` — must not share a temp file: every call succeeds, and a
/// reader sees, at every moment, one writer's payload whole.
#[test]
fn concurrent_writers_of_one_target_never_tear_it() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 50;
    const LEN: usize = 1 << 20;
    let path = scratch_file("contended.phast");
    phast_store::write_atomic(&path, &vec![0xFF; LEN]).expect("first write");
    // Every round starts all writers at once, so every round collides. A
    // failed write is recorded, not raised: the others wait on the barrier.
    let start = Barrier::new(WRITERS);
    let (failures, torn) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for round in 0..ROUNDS {
                        let fill = (w * ROUNDS + round) as u8;
                        start.wait();
                        if let Err(e) = phast_store::write_atomic(path, &vec![fill; LEN]) {
                            failures.push(format!("writer {w} round {round}: {e}"));
                        }
                    }
                    failures
                })
            })
            .collect();
        let mut torn = Vec::new();
        loop {
            let last = writers.iter().all(|w| w.is_finished());
            let seen = std::fs::read(&path).expect("the target always exists");
            if seen.len() != LEN || seen.iter().any(|&b| b != seen[0]) {
                torn.push(format!("{} bytes, first {:?}", seen.len(), seen.first()));
            }
            if last {
                break;
            }
        }
        let failures: Vec<String> = writers
            .into_iter()
            .flat_map(|w| w.join().expect("writers do not panic"))
            .collect();
        (failures, torn)
    });
    std::fs::remove_file(&path).ok();
    assert!(failures.is_empty(), "writes failed: {failures:?}");
    assert!(torn.is_empty(), "reads saw a torn file: {torn:?}");
}

#[test]
fn metrics_roundtrip_and_validate() {
    let (g, p, h) = fixture();
    let ms = metrics(&g);
    let loaded = decode(&encode_instance(&p, Some(&h), &ms)).expect("loads");
    assert!(loaded.hierarchy.is_some());
    assert_eq!(loaded.metrics, ms);
    assert_eq!(p.engine().distances(2), loaded.phast.engine().distances(2));
    // Duplicate (name, version) pairs are corruption.
    let dup = encode_instance(&p, None, &[ms[0].clone(), ms[0].clone()]);
    assert!(matches!(decode(&dup), Err(StoreError::Corrupt(m)) if m.contains("duplicate metric")));
    // A metric sized for a different graph is corruption.
    let short = phast_metrics::MetricWeights::new("tiny", 1, vec![1, 2, 3]).unwrap();
    let bad = encode_instance(&p, None, &[short]);
    assert!(matches!(decode(&bad), Err(StoreError::Corrupt(m)) if m.contains("base arcs")));
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(128))]

    /// Arbitrary byte soup — with or without a valid-looking header
    /// grafted on — never panics the decoder.
    #[test]
    fn decoder_never_panics_on_byte_soup(
        mut bytes in proptest::collection::vec(0u8..=255, 0..256),
        graft_header in 0u8..2,
    ) {
        if graft_header == 1 && bytes.len() >= 16 {
            bytes[..8].copy_from_slice(&MAGIC);
            bytes[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes[12..16].copy_from_slice(&1u32.to_le_bytes());
        }
        let _ = decode(&bytes);
    }
}
