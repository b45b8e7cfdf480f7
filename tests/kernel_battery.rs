//! Differential battery for the packed sweep kernel (DESIGN.md §4),
//! through the public engines only: for every batch width that takes a
//! different instantiation path — one 4-lane chunk, one 8-lane chunk, an
//! 8-lane chunk plus the 4-lane half-chunk, several chunks, the widest row
//! (two column blocks on SSE4.1) — and every kernel level the CPU has,
//! `MultiTreeEngine::run`, `run_par` (which hands the kernel sub-ranges of
//! a level) and `MultiTreeEngine::matrix` must produce labels
//! bit-identical to the forced-scalar engine and to Dijkstra.
//!
//! And for the one engine behind them (DESIGN.md §3): a full sweep is
//! RPHAST with selection = V, a single tree is the sweep at `k = 1`
//! whichever face asks for it, and one engine may change its lane count
//! and its view between any two runs.
//!
//! And for the order the rows come in (DESIGN.md §4): the kernels cannot
//! tell the three level orders apart — paper's, degree-tiled (the
//! default), §VI's whole-level — in either direction, and the store hands
//! back whichever order it was given.

use phast::core::simd::SimdLevel;
use phast::ch::{contract_graph, ContractionConfig};
use phast::core::{
    Direction, Phast, PhastBuilder, RestrictedEngine, SelectionBuilder, SweepOrder,
};
use phast::dijkstra::dijkstra::shortest_paths;
use phast::graph::gen::random::strongly_connected_gnm;
use phast::graph::gen::{adversarial, Metric, RoadNetworkConfig};
use phast::graph::{Graph, Vertex, Weight, INF};

const WIDTHS: [usize; 7] = [4, 8, 12, 16, 20, 32, 64];
const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2];

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

            let mut restricted = p.multi_engine(k);
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

/// The road network the structural tests below run on, `side` x `side`.
fn adversarial_road(side: u32) -> Graph {
    let net = RoadNetworkConfig::new(side, side, 1406, Metric::TravelTime).build();
    adversarial(&net.graph)
}

/// Full sweep = RPHAST with selection = V: a selection of every vertex
/// gives, through the restricted view, labels bit-identical to the full
/// view's and to Dijkstra — at every width and every level the CPU has.
#[test]
fn a_selection_of_every_vertex_is_the_full_sweep() {
    let g = adversarial_road(70);
    let p = Phast::preprocess(&g);
    let n = g.num_vertices();
    let everything: Vec<Vertex> = (0..n as Vertex).collect();
    let selection = SelectionBuilder::new(&p).build(&everything);
    assert_eq!(selection.len(), n);
    for k in WIDTHS.into_iter().chain([1, 5]) {
        let sources = sources(&g, k);
        let dijkstra: Vec<Vec<Weight>> = sources
            .iter()
            .map(|&s| shortest_paths(g.forward(), s).dist)
            .collect();
        for level in LEVELS {
            let mut engine = p.multi_engine(k);
            engine.force_simd(level);
            let tag = format!("k={k} {level:?} (runs {:?})", engine.simd_level());
            engine.run(&sources);
            let full: Vec<Vec<Weight>> = (0..k).map(|i| engine.tree_distances(i)).collect();
            engine.run_selected(&selection, &sources);
            for (i, want) in dijkstra.iter().enumerate() {
                // Targets are 0..n in order, so a lane's target distances
                // are its labels in original vertex order.
                let selected = engine.lane_distances(&selection, i);
                assert_eq!(&selected, want, "selected vs Dijkstra, {tag}, lane {i}");
                assert_eq!(selected, full[i], "selected vs full, {tag}, lane {i}");
            }
        }
    }
}

/// A single tree is the k-lane sweep at k = 1: `engine()`,
/// `multi_engine(1)`, `tree_engine()`, `RestrictedEngine` over every
/// vertex and `distances_par` agree bit for bit, in either direction, in
/// the default (degree-tiled) order, the paper's level order and the rank
/// order. The network is big enough that `distances_par` splits the lowest
/// level (more than 4096 vertices, four default tiles) into blocks.
#[test]
fn every_single_tree_face_agrees() {
    let g = adversarial_road(124);
    let n = g.num_vertices();
    let everything: Vec<Vertex> = (0..n as Vertex).collect();
    let pool = pool();
    let h = contract_graph(&g, &ContractionConfig::default());
    for (direction, order) in [
        (Direction::Forward, SweepOrder::ByLevelDegreeTiled),
        (Direction::Reverse, SweepOrder::ByLevelDegreeTiled),
        (Direction::Forward, SweepOrder::ByLevel),
        (Direction::Reverse, SweepOrder::ByLevel),
        (Direction::Forward, SweepOrder::ByRank),
        (Direction::Reverse, SweepOrder::ByRank),
    ] {
        let p = PhastBuilder::new()
            .direction(direction)
            .order(order)
            .build_with_hierarchy(&g, &h);
        if order != SweepOrder::ByRank {
            assert!(p.level_histogram()[0] > 4096, "lowest level not split");
        }
        let reference = match direction {
            Direction::Forward => g.clone(),
            Direction::Reverse => g.transposed(),
        };
        let selection = SelectionBuilder::new(&p).build(&everything);
        let mut single = p.engine();
        let mut multi = p.multi_engine(1);
        let mut tree = p.tree_engine();
        let mut restricted = RestrictedEngine::new(&p);
        for s in sources(&g, 5) {
            let tag = format!("{direction:?} {order:?} source {s}");
            let want = shortest_paths(reference.forward(), s).dist;
            assert_eq!(single.distances(s), want, "engine(), {tag}");
            let labels = single.labels().to_vec();
            multi.run(&[s]);
            assert_eq!(multi.labels(), labels, "multi_engine(1), {tag}");
            tree.run(s);
            assert_eq!(tree.labels(), labels, "tree_engine(), {tag}");
            assert_eq!(restricted.distances(&selection, s), want, "RestrictedEngine, {tag}");
            assert_eq!(
                pool.install(|| single.distances_par(s)),
                want,
                "distances_par, {tag}"
            );
            assert_eq!(single.labels(), labels, "distances_par labels, {tag}");
        }
    }
}

/// One engine, the row stride and the view changing between runs: 16
/// lanes, 4, 1, 12 lanes over a selection, 8 over the full graph, 1 —
/// every run sweeps over the labels the one before left at another
/// stride, and the marks alone must keep them out of its answers.
#[test]
fn one_engine_reshapes_between_runs() {
    let g = adversarial_road(70);
    let p = Phast::preprocess(&g);
    let n = g.num_vertices() as Vertex;
    let targets: Vec<Vertex> = (0..n).step_by(7).chain([n - 1]).collect();
    let selection = SelectionBuilder::new(&p).build(&targets);
    let mut engine = p.multi_engine(16);
    assert_eq!(engine.capacity(), 16);
    let mut round = 0;
    for (k, selected) in [
        (16, false),
        (4, false),
        (1, false),
        (12, true),
        (8, false),
        (1, false),
    ] {
        round += 1;
        let sources: Vec<Vertex> = (0..k as Vertex)
            .map(|i| (i * 769 + round * 31 + n - 2) % n)
            .collect();
        engine.set_k(k);
        assert_eq!(engine.k(), k);
        if selected {
            engine.run_selected(&selection, &sources);
        } else {
            engine.run(&sources);
        }
        for (lane, &s) in sources.iter().enumerate() {
            let want = shortest_paths(g.forward(), s).dist;
            if selected {
                let want: Vec<Weight> = targets.iter().map(|&t| want[t as usize]).collect();
                let got = engine.lane_distances(&selection, lane);
                assert_eq!(got, want, "round {round}: selected, k={k}, lane {lane}");
            } else {
                let got = engine.tree_distances(lane);
                assert_eq!(got, want, "round {round}: full, k={k}, lane {lane}");
            }
        }
    }
}

/// The three level orders are one sweep to the kernels: on the adversarial
/// graph (zero weights, parallel arcs, an unreachable island), in either
/// direction, at k = 1 and k = 16 and every level the CPU has, each order's
/// trees are Dijkstra's.
#[test]
fn every_level_order_matches_dijkstra() {
    let g = adversarial_road(84);
    let h = contract_graph(&g, &ContractionConfig::default());
    for direction in [Direction::Forward, Direction::Reverse] {
        let reference = match direction {
            Direction::Forward => g.clone(),
            Direction::Reverse => g.transposed(),
        };
        let sources = sources(&g, 16);
        let dijkstra: Vec<Vec<Weight>> = sources
            .iter()
            .map(|&s| shortest_paths(reference.forward(), s).dist)
            .collect();
        assert!(
            dijkstra.iter().any(|d| d.contains(&INF)),
            "island unreached"
        );
        for order in [
            SweepOrder::ByLevel,
            SweepOrder::ByLevelDegreeTiled,
            SweepOrder::ByLevelThenDegree,
        ] {
            let p = PhastBuilder::new()
                .direction(direction)
                .order(order)
                .build_with_hierarchy(&g, &h);
            assert!(p.level_histogram()[0] > 1024, "lowest level is one tile");
            for k in [1, 16] {
                for level in LEVELS {
                    let mut engine = p.multi_engine(k);
                    engine.force_simd(level);
                    engine.run(&sources[..k]);
                    for (i, want) in dijkstra[..k].iter().enumerate() {
                        assert_eq!(
                            &engine.tree_distances(i),
                            want,
                            "{direction:?} {order:?} k={k} {level:?} lane {i}"
                        );
                    }
                }
            }
        }
    }
}

/// The store does not know the order: a tiled instance comes back array
/// for array (and writes the same bytes again), and an instance in the
/// paper's order — what every artifact written before the default changed
/// holds — loads through both decoders and serves the same trees.
#[test]
fn the_store_hands_back_the_order_it_was_given() {
    let g = adversarial_road(84);
    let h = contract_graph(&g, &ContractionConfig::default());
    let dir = std::env::temp_dir().join(format!("phast-kernel-battery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let probes = sources(&g, 6);
    let tiled = PhastBuilder::new().build_with_hierarchy(&g, &h);
    let by_level = PhastBuilder::new()
        .order(SweepOrder::ByLevel)
        .build_with_hierarchy(&g, &h);
    assert_ne!(tiled.permutation(), by_level.permutation());
    for (name, p) in [("tiled", &tiled), ("by-level", &by_level)] {
        let path = dir.join(format!("{name}.phast"));
        phast::store::write_instance(&path, p, Some(&h)).expect("write");
        let (heap, _) = phast::store::read_instance(&path).expect("heap decode");
        let mapped = phast::store::load_instance_mmap(&path)
            .expect("mmap load")
            .phast;
        for q in [&heap, &mapped] {
            assert_eq!(q.permutation(), p.permutation(), "{name}");
            assert_eq!(q.levels(), p.levels(), "{name}");
            assert_eq!(q.down().first(), p.down().first(), "{name}");
            assert_eq!(q.down().arcs(), p.down().arcs(), "{name}");
            assert_eq!(q.up().arcs(), p.up().arcs(), "{name}");
            let (mut e, mut f) = (p.engine(), q.engine());
            for &s in &probes {
                let want = shortest_paths(g.forward(), s).dist;
                assert_eq!(f.distances(s), want, "{name}, source {s}");
                assert_eq!(f.labels(), e.distances_sweep(s), "{name}, source {s}");
            }
        }
        let again = dir.join(format!("{name}-again.phast"));
        phast::store::write_instance(&again, &heap, Some(&h)).expect("rewrite");
        assert_eq!(
            std::fs::read(&path).expect("read"),
            std::fs::read(&again).expect("read"),
            "{name}: second write differs"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
