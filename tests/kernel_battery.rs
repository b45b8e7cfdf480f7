//! Differential battery for the packed sweep kernel (DESIGN.md §4),
//! through the public engines only: for every batch width that takes a
//! different instantiation path — one 4-lane chunk, one 8-lane chunk, an
//! 8-lane chunk plus the 4-lane half-chunk, several chunks, the widest row
//! (two column blocks on SSE4.1) — and every kernel level the CPU has,
//! `MultiTreeEngine::run`, `run_par` (which hands the kernel sub-ranges of
//! a level) and `RestrictedMultiEngine::matrix` must produce labels
//! bit-identical to the forced-scalar engine and to Dijkstra.

use phast::core::simd::SimdLevel;
use phast::core::{Phast, RestrictedMultiEngine, SelectionBuilder};
use phast::dijkstra::dijkstra::shortest_paths;
use phast::graph::gen::random::strongly_connected_gnm;
use phast::graph::gen::{Metric, RoadNetworkConfig};
use phast::graph::{Arc, Csr, Graph, Vertex, Weight, INF};

const WIDTHS: [usize; 7] = [4, 8, 12, 16, 20, 32, 64];
const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2];

/// `base` plus what generated graphs lack: every 5th arc gets weight 0,
/// every 3rd a heavier and every 7th a lighter parallel twin, and four
/// more vertices form a cycle of their own that nothing else reaches.
fn adversarial(base: &Graph) -> Graph {
    let n = base.num_vertices();
    let mut list: Vec<(Vertex, Arc)> = Vec::new();
    for (i, (u, v, w)) in base.forward().iter_arcs().enumerate() {
        list.push((u, Arc::new(v, if i % 5 == 0 { 0 } else { w })));
        if i % 3 == 0 {
            list.push((u, Arc::new(v, w + 9)));
        }
        if i % 7 == 0 {
            list.push((u, Arc::new(v, w / 2)));
        }
    }
    for i in 0..4 {
        let (a, b) = ((n + i) as Vertex, (n + (i + 1) % 4) as Vertex);
        list.push((a, Arc::new(b, 3 * i as Weight)));
    }
    Graph::from_csr(Csr::from_arc_list(n + 4, list))
}

/// `k` sources spread over the graph, the island included.
fn sources(g: &Graph, k: usize) -> Vec<Vertex> {
    let n = g.num_vertices();
    (0..k).map(|i| ((i * 769 + n - 2) % n) as Vertex).collect()
}

fn check_instance(g: &Graph, pool: &rayon::ThreadPool) {
    let p = Phast::preprocess(g);
    let n = g.num_vertices();
    let targets: Vec<Vertex> = (0..n as Vertex)
        .step_by(3)
        .chain([n as Vertex - 1])
        .collect();
    let selection = SelectionBuilder::new(&p).build(&targets);
    for k in WIDTHS {
        let sources = sources(g, k);
        let dijkstra: Vec<Vec<Weight>> = sources
            .iter()
            .map(|&s| shortest_paths(g.forward(), s).dist)
            .collect();
        assert!(
            dijkstra.iter().any(|d| d.contains(&INF)),
            "island unreached"
        );
        let decoys: Vec<Vertex> = sources.iter().map(|&s| (s + 1) % n as Vertex).collect();
        // One source more than two full chunks, so `matrix` pads the last;
        // the second chunk holds the first's sources in other lanes.
        let rows: Vec<Vertex> = (0..2 * k + 1).map(|i| sources[i * 3 % k]).collect();

        let mut scalar_labels = Vec::new();
        let mut scalar_matrix = Vec::new();
        for level in LEVELS {
            let mut engine = p.multi_engine(k);
            engine.force_simd(level);
            let granted = engine.simd_level();
            assert!(granted <= level, "k={k}: {level:?} asked, {granted:?} run");
            let tag = format!("k={k} {level:?} (runs {granted:?})");

            // Every batch sweeps over the labels of the one before, here
            // those of other sources: stale rows under clear marks.
            engine.run(&decoys);
            engine.run(&sources);
            for (i, want) in dijkstra.iter().enumerate() {
                assert_eq!(&engine.tree_distances(i), want, "run, {tag}, lane {i}");
            }
            if level == SimdLevel::Scalar {
                scalar_labels = engine.labels().to_vec();
            }
            assert_eq!(engine.labels(), scalar_labels, "run, {tag}");

            pool.install(|| {
                engine.run_par(&decoys);
                engine.run_par(&sources);
            });
            assert_eq!(engine.labels(), scalar_labels, "run_par, {tag}");

            let mut restricted = RestrictedMultiEngine::new(&p, k);
            restricted.force_simd(level);
            let matrix = restricted.matrix(&selection, &rows);
            for (row, &s) in matrix.iter().zip(&rows) {
                let lane = sources.iter().position(|&x| x == s).expect("from sources");
                let want: Vec<Weight> = targets
                    .iter()
                    .map(|&t| dijkstra[lane][t as usize])
                    .collect();
                assert_eq!(row, &want, "matrix, {tag}, source {s}");
            }
            if level == SimdLevel::Scalar {
                scalar_matrix = matrix.clone();
            }
            assert_eq!(matrix, scalar_matrix, "matrix, {tag}");
        }
    }
}

fn pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .expect("thread pool")
}

/// Big enough that `run_par` splits the lower levels into blocks at every
/// width (a level is split from 4096 labels on).
#[test]
fn every_level_and_width_on_a_road_network() {
    let net = RoadNetworkConfig::new(84, 84, 1405, Metric::TravelTime).build();
    check_instance(&adversarial(&net.graph), &pool());
}

#[test]
fn every_level_and_width_on_random_graphs() {
    let pool = pool();
    for (n, extra, seed) in [(40, 90, 1), (300, 500, 2), (1500, 1400, 3)] {
        check_instance(
            &adversarial(&strongly_connected_gnm(n, extra, 60, seed)),
            &pool,
        );
    }
}
