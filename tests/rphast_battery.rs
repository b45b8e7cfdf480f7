//! Differential battery for RPHAST (DESIGN.md §13): restricted sweeps —
//! scalar and k-lane — must agree bit-for-bit with the full PHAST sweep
//! and with a textbook Dijkstra on random CH instances, across every
//! target-set edge case: empty, singleton, duplicates, all vertices,
//! unreachable targets, and a source that is itself a target.

use phast::core::{Phast, RestrictedEngine, SelectionBuilder};
use phast::dijkstra::dijkstra::shortest_paths;
use phast::graph::gen::random::strongly_connected_gnm;
use phast::graph::gen::{Metric, RoadNetworkConfig};
use phast::graph::{GraphBuilder, Vertex, INF};
use proptest::prelude::*;

/// Asserts that restricted scalar + k-lane sweeps, the full sweep, and
/// Dijkstra all agree for `sources x targets` on this instance.
fn assert_all_engines_agree(
    g: &phast::graph::Graph,
    p: &Phast,
    sources: &[Vertex],
    targets: &[Vertex],
) {
    let mut builder = SelectionBuilder::new(p);
    let sel = builder.build(targets);
    let mut scalar = RestrictedEngine::new(p);
    let mut multi = p.multi_engine(4);
    let mut full = p.engine();
    let rows = multi.matrix(&sel, sources);
    assert_eq!(rows.len(), sources.len());
    for (r, &s) in sources.iter().enumerate() {
        let restricted = scalar.distances(&sel, s);
        let sweep = full.distances(s);
        let dij = shortest_paths(g.forward(), s).dist;
        assert_eq!(restricted.len(), targets.len());
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(restricted[i], sweep[t as usize], "scalar vs full, {s}->{t}");
            assert_eq!(restricted[i], dij[t as usize], "scalar vs dijkstra, {s}->{t}");
            assert_eq!(rows[r][i], restricted[i], "k-lane vs scalar, {s}->{t}");
        }
    }
}

#[test]
fn battery_of_target_set_edge_cases_on_a_road_network() {
    let net = RoadNetworkConfig::new(14, 14, 4242, Metric::TravelTime).build();
    let g = &net.graph;
    let n = g.num_vertices() as Vertex;
    let p = Phast::preprocess(g);
    let sources: Vec<Vertex> = vec![0, 3, n / 2, n - 1, 17];
    // Singleton, duplicates, source-in-targets, and all-vertices sets.
    let cases: Vec<Vec<Vertex>> = vec![
        vec![n / 3],                          // singleton
        vec![5, 9, 5, 9, 5],                  // duplicates collapse to one closure
        vec![0, 3, n - 1],                    // every source appears in targets
        (0..n).collect(),                     // all vertices: closure == graph
    ];
    for targets in &cases {
        assert_all_engines_agree(g, &p, &sources, targets);
    }
    // All-vertices selection must cover the whole graph exactly once.
    let mut b = SelectionBuilder::new(&p);
    let sel = b.build(&(0..n).collect::<Vec<_>>());
    assert_eq!(sel.len(), n as usize);
}

#[test]
fn empty_target_set_yields_empty_rows_everywhere() {
    let net = RoadNetworkConfig::new(6, 6, 7, Metric::TravelTime).build();
    let p = Phast::preprocess(&net.graph);
    let mut b = SelectionBuilder::new(&p);
    let sel = b.build(&[]);
    assert!(sel.is_empty());
    let mut scalar = RestrictedEngine::new(&p);
    assert!(scalar.distances(&sel, 0).is_empty());
    let mut multi = p.multi_engine(4);
    let rows = multi.matrix(&sel, &[0, 1, 2]);
    assert_eq!(rows, vec![vec![], vec![], vec![]]);
}

#[test]
fn unreachable_targets_come_back_as_exactly_inf() {
    // A two-component graph: {0,1} and {2,3}. Targets span both, so from
    // any source half the row is INF — never a wrapped or partial value.
    let mut b = GraphBuilder::new(4);
    b.add_arc(0, 1, 8);
    b.add_arc(2, 3, 2);
    let g = b.build();
    let p = Phast::preprocess(&g);
    assert_all_engines_agree(&g, &p, &[0, 1, 2, 3], &[1, 3]);
    let mut builder = SelectionBuilder::new(&p);
    let sel = builder.build(&[1, 3]);
    let mut e = RestrictedEngine::new(&p);
    assert_eq!(e.distances(&sel, 0), vec![8, INF]);
    assert_eq!(e.distances(&sel, 2), vec![INF, 2]);
}

/// Two instances over the same vertex set, so that a selection built on
/// one indexes the other without leaving its arrays.
fn two_instances() -> (Phast, Phast) {
    let a = strongly_connected_gnm(80, 160, 50, 4243);
    let b = strongly_connected_gnm(80, 160, 50, 4244);
    (Phast::preprocess(&a), Phast::preprocess(&b))
}

/// Regression: the same-instance check lived in `run` only, so `matrix`
/// swept a selection built on another instance (another metric epoch,
/// say) and returned that instance's closure under this one's labels.
#[test]
#[should_panic(expected = "selection was built on a different instance")]
fn matrix_rejects_a_selection_from_another_instance() {
    let (p, other) = two_instances();
    let sel = SelectionBuilder::new(&other).build(&[3, 40]);
    p.multi_engine(4).matrix(&sel, &[0, 1, 2]);
}

/// Regression: reading one lane's distance to one target did not check
/// that the selection handed in was the one that ran, and returned
/// another selection's labels.
#[test]
#[should_panic(expected = "read back through the view that ran")]
fn reading_through_a_selection_that_did_not_run_is_rejected() {
    let (p, _) = two_instances();
    let mut builder = SelectionBuilder::new(&p);
    let ran = builder.build(&[3, 40, 77]);
    let other = builder.build(&[5]);
    let mut engine = p.multi_engine(4);
    engine.run_selected(&ran, &[0, 1, 2, 3]);
    assert_eq!(engine.target_dist(&ran, 0, 0), engine.lane_distances(&ran, 0)[0]);
    engine.target_dist(&other, 0, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The core differential guarantee on arbitrary digraphs: RPHAST
    /// (scalar and 4-lane) == full PHAST sweep == Dijkstra, with target
    /// sets that routinely contain duplicates, unreachable vertices, and
    /// the sources themselves.
    #[test]
    fn rphast_equals_full_sweep_equals_dijkstra(
        n in 2u32..26,
        raw_arcs in proptest::collection::vec((0u32..26, 0u32..26, 1u32..80), 1..72),
        raw_targets in proptest::collection::vec(0u32..26, 1..12),
        raw_sources in proptest::collection::vec(0u32..26, 1..7),
    ) {
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v, w) in &raw_arcs {
            b.add_arc(u % n, v % n, w);
        }
        let g = b.build();
        let p = Phast::preprocess(&g);
        let targets: Vec<Vertex> = raw_targets.iter().map(|&t| t % n).collect();
        let sources: Vec<Vertex> = raw_sources.iter().map(|&s| s % n).collect();

        let mut builder = SelectionBuilder::new(&p);
        let sel = builder.build(&targets);
        let mut scalar = RestrictedEngine::new(&p);
        let mut multi = p.multi_engine(4);
        let mut full = p.engine();
        let rows = multi.matrix(&sel, &sources);
        for (r, &s) in sources.iter().enumerate() {
            let restricted = scalar.distances(&sel, s);
            let sweep = full.distances(s);
            let dij = shortest_paths(g.forward(), s).dist;
            for (i, &t) in targets.iter().enumerate() {
                prop_assert_eq!(restricted[i], sweep[t as usize], "{}->{}", s, t);
                prop_assert_eq!(restricted[i], dij[t as usize], "{}->{}", s, t);
                prop_assert_eq!(rows[r][i], restricted[i], "{}->{}", s, t);
            }
        }
    }

    /// Selection reuse is sound: one builder, many target sets, and a
    /// fresh build of the same set answers identically to the first.
    #[test]
    fn selection_builds_are_deterministic_and_reusable(
        n in 2u32..20,
        raw_arcs in proptest::collection::vec((0u32..20, 0u32..20, 1u32..50), 1..48),
        raw_a in proptest::collection::vec(0u32..20, 1..8),
        raw_b in proptest::collection::vec(0u32..20, 1..8),
    ) {
        let mut bld = GraphBuilder::new(n as usize);
        for &(u, v, w) in &raw_arcs {
            bld.add_arc(u % n, v % n, w);
        }
        let g = bld.build();
        let p = Phast::preprocess(&g);
        let ta: Vec<Vertex> = raw_a.iter().map(|&t| t % n).collect();
        let tb: Vec<Vertex> = raw_b.iter().map(|&t| t % n).collect();
        let mut builder = SelectionBuilder::new(&p);
        let sa = builder.build(&ta);
        let sb = builder.build(&tb);   // interleaved build of a second set
        let sa2 = builder.build(&ta);  // rebuild of the first
        prop_assert_eq!(sa.len(), sa2.len());
        prop_assert_eq!(sa.order(), sa2.order());
        let mut e = RestrictedEngine::new(&p);
        let s = ta[0];
        let first = e.distances(&sa, s);
        let again = e.distances(&sa2, s);
        prop_assert_eq!(first, again);
        // And the interleaved set still answers correctly.
        let d = shortest_paths(g.forward(), s).dist;
        let rb = e.distances(&sb, s);
        for (i, &t) in tb.iter().enumerate() {
            prop_assert_eq!(rb[i], d[t as usize]);
        }
    }
}
