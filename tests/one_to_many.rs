//! Cross-crate integration: restricted sweeps and multi-GPU batches agree
//! with every other engine.

use phast::core::{Phast, RestrictedEngine, TargetSelection};
use phast::dijkstra::dijkstra::shortest_paths;
use phast::gpu::{DeviceProfile, MultiGpu};
use phast::graph::gen::{Metric, RoadNetworkConfig};
use phast::graph::{GraphBuilder, Vertex, INF};
use proptest::prelude::*;

#[test]
fn restricted_sweeps_against_all_other_engines() {
    let net = RoadNetworkConfig::new(16, 16, 777, Metric::TravelTime).build();
    let g = &net.graph;
    let n = g.num_vertices() as Vertex;
    let p = Phast::preprocess(g);
    let targets: Vec<Vertex> = vec![1, n / 2, n - 1];
    let sel = TargetSelection::new(&p, &targets);
    let mut restricted = RestrictedEngine::new(&p);
    let mut full = p.engine();
    for s in (0..n).step_by(23) {
        let a = restricted.distances(&sel, s);
        let labels = full.distances(s);
        let d = shortest_paths(g.forward(), s).dist;
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(a[i], labels[t as usize], "restricted vs full, {s}->{t}");
            assert_eq!(a[i], d[t as usize], "restricted vs dijkstra, {s}->{t}");
        }
    }
}

#[test]
fn multi_gpu_bank_matches_single_device() {
    let net = RoadNetworkConfig::new(12, 12, 778, Metric::TravelTime).build();
    let p = Phast::preprocess(&net.graph);
    let sources: Vec<Vertex> = (0..12).map(|i| i * 11 % 140).collect();
    let mut bank = MultiGpu::new(&p, DeviceProfile::gtx_580(), 3, 4).unwrap();
    let stats = bank.run(&sources);
    assert_eq!(stats.num_devices, 3);
    assert_eq!(stats.trees, 12);
    // Device d, lane i handled source d*4 + i in the single round.
    for d in 0..3usize {
        for i in 0..4usize {
            let s = sources[d * 4 + i];
            let want = shortest_paths(net.graph.forward(), s).dist;
            assert_eq!(bank.tree_distances(d, i), want, "device {d} lane {i}");
        }
    }
}

#[test]
fn unreachable_targets_stay_at_inf() {
    // 0 -> 1 is the only arc; 2 and 3 are isolated, so from any source
    // most targets are unreachable and must come back as exactly INF.
    let mut b = GraphBuilder::new(4);
    b.add_arc(0, 1, 5);
    let g = b.build();
    let p = Phast::preprocess(&g);
    let sel = TargetSelection::new(&p, &[1, 2, 3]);
    let mut e = RestrictedEngine::new(&p);
    assert_eq!(e.distances(&sel, 0), vec![5, INF, INF]);
    assert_eq!(e.distances(&sel, 2), vec![INF, 0, INF]);
    assert_eq!(e.distances(&sel, 3), vec![INF, INF, 0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Differential harness: restricted one-to-many sweeps agree with a
    /// plain textbook Dijkstra on arbitrary digraphs built arc-by-arc
    /// through `GraphBuilder` — including disconnected shapes, so target
    /// sets routinely contain unreachable (INF) entries, duplicates, and
    /// the source itself.
    #[test]
    fn one_to_many_matches_dijkstra_on_random_graphs(
        n in 1u32..24,
        raw_arcs in proptest::collection::vec((0u32..24, 0u32..24, 1u32..60), 1..64),
        raw_targets in proptest::collection::vec(0u32..24, 1..10),
        raw_source in 0u32..24,
    ) {
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v, w) in &raw_arcs {
            b.add_arc(u % n, v % n, w);
        }
        let g = b.build();
        let p = Phast::preprocess(&g);
        let targets: Vec<Vertex> = raw_targets.iter().map(|&t| t % n).collect();
        let sel = TargetSelection::new(&p, &targets);
        let mut e = RestrictedEngine::new(&p);
        let s = raw_source % n;
        let got = e.distances(&sel, s).to_vec();
        let want = shortest_paths(g.forward(), s).dist;
        prop_assert_eq!(got.len(), targets.len());
        for (i, &t) in targets.iter().enumerate() {
            prop_assert_eq!(got[i], want[t as usize], "{} -> {}", s, t);
        }
        // Cross-check the INF convention: unreachable means exactly INF,
        // never a wrapped or partially-relaxed value.
        for (i, &t) in targets.iter().enumerate() {
            if want[t as usize] >= INF {
                prop_assert_eq!(got[i], INF);
            }
        }
    }
}

#[test]
fn restriction_closure_grows_with_target_count() {
    let net = RoadNetworkConfig::new(24, 24, 779, Metric::TravelTime).build();
    let p = Phast::preprocess(&net.graph);
    let few = TargetSelection::new(&p, &[0]);
    let many: Vec<Vertex> = (0..40).map(|i| i * 13 % net.graph.num_vertices() as u32).collect();
    let many = TargetSelection::new(&p, &many);
    assert!(few.len() <= many.len());
    assert!(many.len() <= p.num_vertices());
}
