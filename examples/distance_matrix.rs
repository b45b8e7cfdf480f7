//! Many-to-many distance matrices with restricted sweeps.
//!
//! Logistics workloads need an S × T distance matrix, not full trees. The
//! sweep's source-independence lets it be *restricted* once per target
//! set — only the downward closure of the targets is swept per source —
//! which is the batched one-to-many mode built on top of PHAST.
//!
//! ```text
//! cargo run --release --example distance_matrix
//! ```

use phast::core::{Phast, RestrictedEngine, TargetSelection};
use phast::graph::gen::{Metric, RoadNetworkConfig};
use phast::graph::INF;
use std::time::Instant;

fn main() {
    let net = RoadNetworkConfig::europe_like(150_000, 21, Metric::TravelTime).build();
    let g = &net.graph;
    let n = g.num_vertices() as u32;
    println!("network: {} vertices, {} arcs", g.num_vertices(), g.num_arcs());

    let t = Instant::now();
    let solver = Phast::preprocess(g);
    println!("preprocessing: {:.2?}", t.elapsed());

    // A 64 x 32 matrix: depots x customers.
    let sources: Vec<u32> = (0..64).map(|i| i * 1013 % n).collect();
    let targets: Vec<u32> = (0..32).map(|i| (i * 2027 + 500) % n).collect();

    // Restricted: one selection for all queries.
    let t = Instant::now();
    let selection = TargetSelection::new(&solver, &targets);
    println!(
        "target selection: closure of {} vertices ({:.1}% of the graph) in {:.2?}",
        selection.len(),
        100.0 * selection.len() as f64 / g.num_vertices() as f64,
        t.elapsed()
    );
    let mut engine = RestrictedEngine::new(&solver);
    let t = Instant::now();
    let matrix: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| engine.distances(&selection, s))
        .collect();
    let restricted_time = t.elapsed();
    println!(
        "matrix via restricted sweeps: {:.2?} total, {:.2?} per source",
        restricted_time,
        restricted_time / sources.len() as u32
    );

    // Baseline: full sweeps.
    let mut full = solver.engine();
    let t = Instant::now();
    for (i, &s) in sources.iter().enumerate() {
        let labels = full.distances(s);
        for (j, &tgt) in targets.iter().enumerate() {
            assert_eq!(matrix[i][j], labels[tgt as usize], "matrix[{i}][{j}]");
        }
    }
    let full_time = t.elapsed();
    println!(
        "matrix via full sweeps:       {:.2?} total ({:.1}x slower, verified equal)",
        full_time,
        full_time.as_secs_f64() / restricted_time.as_secs_f64()
    );

    // A taste of the result: nearest depot per customer.
    let mut served = 0;
    for j in 0..targets.len() {
        let best = matrix.iter().map(|row| row[j]).min().unwrap_or(INF);
        if best < INF {
            served += 1;
        }
    }
    println!("{served}/{} customers reachable from some depot", targets.len());
}
