//! The CH layer is written once (DESIGN.md §3): one upward search and one
//! shortcut unpacker serve both the `Hierarchy` (original IDs) and the
//! `Phast` built from it (sweep IDs). This battery drives both faces over
//! the adversarial corpus — zero weights, parallel arcs with distinct
//! weights, self-loops and an island no other vertex reaches — against
//! Dijkstra.

use phast::ch::{contract_graph, ChQuery, ContractionConfig, Hierarchy, UpwardSearch};
use phast::core::{Phast, PhastBuilder};
use phast::dijkstra::dijkstra::shortest_paths;
use phast::graph::gen::random::gnm;
use phast::graph::gen::{adversarial, Metric, RoadNetworkConfig};
use phast::graph::{Graph, Vertex, Weight, INF};

fn road() -> Graph {
    RoadNetworkConfig::new(24, 24, 5, Metric::TravelTime)
        .build()
        .graph
}

/// The adversarial corpus over a road grid and over a gnm graph, each
/// with its hierarchy and the `Phast` assembled from that hierarchy.
fn adversarial_corpus() -> Vec<(&'static str, Graph, Hierarchy, Phast)> {
    [
        ("road", adversarial(&road())),
        ("gnm", adversarial(&gnm(400, 1600, 50, 7))),
    ]
    .into_iter()
    .map(|(name, g)| {
        let h = contract_graph(&g, &ContractionConfig::default());
        let p = PhastBuilder::new().build_with_hierarchy(&g, &h);
        (name, g, h, p)
    })
    .collect()
}

/// A few sources spread over the graph; the last one is on the island.
fn sources(g: &Graph) -> Vec<Vertex> {
    let n = g.num_vertices() as Vertex;
    vec![0, n / 3, 2 * n / 3 + 1, n - 2]
}

/// Asserts that `path` runs from `s` to `t` over original arcs whose
/// weights (the lightest of each parallel bundle) sum to `dist`.
fn assert_shortest_path(
    g: &Graph,
    (s, t, dist): (Vertex, Vertex, Weight),
    path: &[Vertex],
    tag: &str,
) {
    assert_eq!(
        path.first(),
        Some(&s),
        "{tag}: path must start at the source"
    );
    assert_eq!(path.last(), Some(&t), "{tag}: path must end at the target");
    let mut sum = 0u64;
    for step in path.windows(2) {
        let w = g
            .out(step[0])
            .iter()
            .filter(|a| a.head == step[1])
            .map(|a| a.weight)
            .min()
            .unwrap_or_else(|| panic!("{tag}: arc {}->{} not in G", step[0], step[1]));
        sum += u64::from(w);
    }
    assert_eq!(sum, u64::from(dist), "{tag}: step weights");
}

/// `TreeEngine::path_to` (the unpacker over `Phast`) and
/// `ChQuery::query_path` (the unpacker over `Hierarchy`) return shortest
/// original-graph paths to every reachable target, and `None` to every
/// other.
#[test]
fn tree_and_query_paths_are_shortest_paths_in_the_original_graph() {
    for (name, g, h, p) in adversarial_corpus() {
        let mut trees = p.tree_engine();
        let mut query = ChQuery::new(&h);
        let mut unreachable = 0;
        for s in sources(&g) {
            let truth = shortest_paths(g.forward(), s).dist;
            trees.run(s);
            for t in 0..g.num_vertices() as Vertex {
                let tag = format!("{name}: {s} -> {t}");
                let (tree, ch) = (trees.path_to(t), query.query_path(s, t));
                let dist = truth[t as usize];
                if dist >= INF {
                    assert_eq!(tree, None, "{tag}: tree path to an unreachable target");
                    assert_eq!(ch, None, "{tag}: query path to an unreachable target");
                    unreachable += 1;
                    continue;
                }
                let tree = tree.unwrap_or_else(|| panic!("{tag}: no tree path"));
                assert_shortest_path(&g, (s, t, dist), &tree, &format!("{tag} (tree)"));
                let (d, path) = ch.unwrap_or_else(|| panic!("{tag}: no query path"));
                assert_eq!(d, dist, "{tag}: query distance");
                assert_shortest_path(&g, (s, t, dist), &path, &format!("{tag} (query)"));
            }
        }
        assert!(unreachable > 0, "{name}: every target was reachable");
    }
}

/// `UpwardSearch::run` over the hierarchy and `PhastEngine::upward_search`
/// (GPHAST's payload, in sweep IDs) are one search over two numberings:
/// mapped back through the permutation they hold the same vertices with
/// the same labels.
#[test]
fn both_search_space_apis_hold_the_same_labels() {
    let g = road();
    let h = contract_graph(&g, &ContractionConfig::default());
    let p = PhastBuilder::new().build_with_hierarchy(&g, &h);
    let mut instances = vec![("road", g, h, p)];
    instances.extend(adversarial_corpus());
    for (name, g, h, p) in instances {
        let mut up = UpwardSearch::new(&h);
        let mut engine = p.engine();
        for s in (0..g.num_vertices() as Vertex).step_by(37) {
            let mut want = up.run(s);
            want.sort_unstable();
            let space = engine.upward_search(s);
            let mut got: Vec<_> = space.iter().map(|&(v, d)| (p.to_original(v), d)).collect();
            got.sort_unstable();
            assert_eq!(got, want, "{name}: source {s}");
            assert!(got.contains(&(s, 0)), "{name}: source {s} missing");
        }
    }
}
