//! Persistence: preprocessing is expensive, so a downstream user wants to
//! run it once and keep the result. This is the umbrella's smoke of the
//! `.phast` store (its full batteries live in `crates/store/tests`): what
//! is written comes back, from the heap and from a mapping alike, and
//! what is damaged or not an artifact at all comes back as a typed error.

use phast::ch::{contract_graph, ChQuery, ContractionConfig};
use phast::core::PhastBuilder;
use phast::graph::gen::{Metric, RoadNetworkConfig};
use phast::store::{load_instance_mmap, read_instance, write_instance, StoreError};
use std::path::PathBuf;

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phast-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Both file-level sources refuse the file, with this error.
fn rejection(path: &std::path::Path) -> StoreError {
    let heap = read_instance(path).expect_err("heap load must fail");
    let mapped = load_instance_mmap(path).expect_err("mmap load must fail");
    assert_eq!(format!("{heap:?}"), format!("{mapped:?}"));
    mapped
}

#[test]
fn store_hands_back_the_instance_from_heap_and_from_a_mapping() {
    let net = RoadNetworkConfig::new(10, 10, 55, Metric::TravelTime).build();
    let h = contract_graph(&net.graph, &ContractionConfig::default());
    let p = PhastBuilder::new().build_with_hierarchy(&net.graph, &h);
    for bundled in [Some(&h), None] {
        let path = scratch_file(if bundled.is_some() { "bundled.phast" } else { "bare.phast" });
        write_instance(&path, &p, bundled).expect("write");
        let (heap, heap_h) = read_instance(&path).expect("heap load");
        let mapped = load_instance_mmap(&path).expect("mmap load");
        assert!(mapped.zero_copy, "a fresh artifact is borrowed from its mapping");
        assert!(mapped.metrics.is_empty());
        assert_eq!(heap_h.as_ref(), bundled);
        assert_eq!(mapped.hierarchy.as_ref(), bundled);
        assert_eq!(heap.num_levels(), p.num_levels());
        assert_eq!(heap.num_shortcuts(), p.num_shortcuts());
        let (mut e, mut eh, mut em) = (p.engine(), heap.engine(), mapped.phast.engine());
        for s in 0..net.graph.num_vertices() as u32 {
            let want = e.distances(s);
            assert_eq!(eh.distances(s), want, "heap, source {s}");
            assert_eq!(em.distances(s), want, "mmap, source {s}");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn bundled_hierarchy_answers_point_to_point_after_the_round_trip() {
    let net = RoadNetworkConfig::new(8, 8, 56, Metric::TravelTime).build();
    let h = contract_graph(&net.graph, &ContractionConfig::default());
    let p = PhastBuilder::new().build_with_hierarchy(&net.graph, &h);
    let path = scratch_file("p2p.phast");
    write_instance(&path, &p, Some(&h)).expect("write");
    let h2 = load_instance_mmap(&path).expect("load").hierarchy.expect("bundled");
    h2.validate().expect("valid after round trip");
    let mut q1 = ChQuery::new(&h);
    let mut q2 = ChQuery::new(&h2);
    for s in 0..8u32 {
        for t in 0..8u32 {
            assert_eq!(q1.query(s, t), q2.query(s, t));
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn damaged_empty_and_foreign_files_are_typed_errors() {
    let net = RoadNetworkConfig::new(6, 6, 58, Metric::TravelTime).build();
    let p = PhastBuilder::new().build(&net.graph);
    let path = scratch_file("damaged.phast");
    write_instance(&path, &p, None).expect("write");

    // One flipped bit in the permutation's payload.
    let mut bytes = std::fs::read(&path).expect("read back");
    let at = phast::store::codec::sections(&bytes)
        .expect("clean header")
        .map(|s| s.expect("clean frame"))
        .find(|s| s.tag == 0x02)
        .expect("permutation section")
        .offset;
    bytes[at] ^= 0x04;
    std::fs::write(&path, &bytes).expect("rewrite");
    let e = rejection(&path);
    assert!(matches!(e, StoreError::SectionChecksum { tag: 0x02 }), "{e:?}");

    std::fs::write(&path, b"").expect("rewrite");
    let e = rejection(&path);
    assert!(matches!(e, StoreError::Truncated { offset: 0 }), "{e:?}");

    // JSON, whatever it describes, is not an artifact.
    let json = serde_json::to_vec(&net.graph).expect("serialize");
    std::fs::write(&path, json).expect("rewrite");
    let e = rejection(&path);
    assert!(matches!(e, StoreError::NotAStore), "{e:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn graph_roundtrips_through_serde() {
    let net = RoadNetworkConfig::new(6, 6, 57, Metric::TravelDistance).build();
    let json = serde_json::to_string(&net.graph).expect("serialize");
    let g2: phast::graph::Graph = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(g2.forward(), net.graph.forward());
    assert_eq!(g2.num_arcs(), net.graph.num_arcs());
}
