//! What the store's two test targets share: the fixture instance, the
//! artifacts built from it, and a way to rebuild an artifact from edited
//! frames with every checksum stamped fresh — damage the CRCs bless.
#![allow(dead_code)] // each target uses its own subset

use phast_ch::{contract_graph, ContractionConfig, Hierarchy};
use phast_core::{Phast, PhastBuilder};
use phast_graph::gen::{Metric, RoadNetworkConfig};
use phast_graph::Graph;
use phast_metrics::MetricWeights;
use phast_store::crc::crc32;
use phast_store::{codec, encode_instance, FORMAT_VERSION, MAGIC};
use std::path::PathBuf;

pub fn fixture() -> (Graph, Phast, Hierarchy) {
    let net = RoadNetworkConfig::new(5, 5, 42, Metric::TravelTime).build();
    let h = contract_graph(&net.graph, &ContractionConfig::default());
    let p = PhastBuilder::new().build_with_hierarchy(&net.graph, &h);
    (net.graph, p, h)
}

pub fn metrics(g: &Graph) -> Vec<MetricWeights> {
    vec![
        MetricWeights::perturbed(g, "rush-hour", 1, 7),
        MetricWeights::perturbed(g, "rush-hour", 2, 8),
    ]
}

/// The artifact with everything in it: hierarchy bundled, two metrics.
pub fn full_artifact() -> Vec<u8> {
    let (g, p, h) = fixture();
    encode_instance(&p, Some(&h), &metrics(&g))
}

/// Every section of a clean artifact, pads included, as `(tag, payload)`.
pub fn frames(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    codec::sections(bytes)
        .expect("clean header")
        .map(|s| s.expect("clean frame"))
        .map(|s| (s.tag, s.payload.to_vec()))
        .collect()
}

/// An artifact of exactly these frames, every CRC valid.
pub fn assemble(frames: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());
    for (tag, payload) in frames {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    let file_crc = crc32(&out);
    out.extend_from_slice(&file_crc.to_le_bytes());
    out
}

/// A file of this test process's own under the temp directory.
pub fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phast-store-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}
