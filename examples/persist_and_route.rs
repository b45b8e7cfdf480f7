//! Preprocess once, persist, reload, and answer full path queries.
//!
//! The CH/PHAST preprocessing costs minutes on continental inputs; real
//! deployments run it offline and ship the artifact. This example saves a
//! `Phast` instance to the checksummed `.phast` store, maps it back in,
//! and expands full shortest paths (Section VII-A's shortcut unpacking).
//!
//! ```text
//! cargo run --release --example persist_and_route
//! ```

use phast::core::Phast;
use phast::graph::gen::{Metric, RoadNetworkConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = RoadNetworkConfig::europe_like(15_000, 11, Metric::TravelTime).build();
    let g = &net.graph;
    println!("network: {} vertices, {} arcs", g.num_vertices(), g.num_arcs());

    // Preprocess and persist.
    let t = std::time::Instant::now();
    let solver = Phast::preprocess(g);
    println!("preprocessing: {:.2?}", t.elapsed());

    let dir = std::env::temp_dir().join("phast-example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("europe.phast");
    let t = std::time::Instant::now();
    phast::store::write_instance(&path, &solver, None)?;
    println!(
        "saved {} ({:.1} MB) in {:.2?}",
        path.display(),
        std::fs::metadata(&path)?.len() as f64 / 1e6,
        t.elapsed()
    );

    // Reload: every checksum and structural invariant is re-checked, then
    // the big arrays are borrowed from the mapping rather than copied.
    let t = std::time::Instant::now();
    let loaded = phast::store::load_instance_mmap(&path)?.phast;
    println!("reloaded + validated in {:.2?}", t.elapsed());

    // Route with full path expansion.
    let mut trees = loaded.tree_engine();
    let source = 0u32;
    trees.run(source);
    for target in [100u32, 7_000, g.num_vertices() as u32 - 1] {
        let path = trees.path_to(target).expect("strongly connected");
        let dist = trees.labels()[loaded.to_sweep(target) as usize];
        println!(
            "route {source} -> {target}: length {dist}, {} segments, via {:?}...",
            path.len() - 1,
            &path[..path.len().min(6)]
        );
        // Every consecutive pair is an original road segment.
        for w in path.windows(2) {
            assert!(
                g.out(w[0]).iter().any(|a| a.head == w[1]),
                "expanded path must use original arcs"
            );
        }
    }
    std::fs::remove_file(&path).ok();
    println!("all routes verified against the original graph");
    Ok(())
}
