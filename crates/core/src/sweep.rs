//! The single-tree PHAST engine: forward CH search + linear sweep.

use crate::{MultiTreeEngine, Phast};
use phast_graph::{Vertex, Weight};
use phast_obs::QueryStats;

/// Per-query state for single-tree PHAST computations: the `k = 1` face
/// of [`MultiTreeEngine`], which owns the distance array and the visited
/// marks of the paper's *implicit initialization* (Section IV-C).
pub struct PhastEngine<'p> {
    inner: MultiTreeEngine<'p>,
}

impl<'p> PhastEngine<'p> {
    /// Creates an engine (allocates the `n`-sized label arrays once).
    pub fn new(p: &'p Phast) -> Self {
        Self {
            inner: MultiTreeEngine::new(p, 1),
        }
    }

    /// The underlying instance.
    pub fn phast(&self) -> &'p Phast {
        self.inner.phast()
    }

    /// Statistics of the most recent query: phase times, the settled
    /// count and the arc/mark/level counters (see [`phast_obs`]).
    pub fn stats(&self) -> &QueryStats {
        self.inner.stats()
    }

    /// Phase 1 alone, returning the search space as `(sweep ID, label)`
    /// pairs — the payload GPHAST ships to the device. The engine is
    /// immediately reusable.
    pub fn upward_search(&mut self, source: Vertex) -> Vec<(Vertex, Weight)> {
        self.inner.upward_search(source)
    }

    /// One full NSSP computation from original vertex `source`. Returns the
    /// labels in **sweep order**; use [`Phast::to_sweep`] to index them or
    /// [`Self::distances`] for original order.
    pub fn distances_sweep(&mut self, source: Vertex) -> &[Weight] {
        self.inner.run(&[source]);
        self.inner.labels()
    }

    /// One full NSSP computation; labels in original vertex order.
    pub fn distances(&mut self, source: Vertex) -> Vec<Weight> {
        self.inner.run(&[source]);
        self.inner.tree_distances(0)
    }

    /// Parallel-sweep variant of [`Self::distances_sweep`]: each level is
    /// split into blocks across the current rayon pool (Section V).
    pub fn distances_par_sweep(&mut self, source: Vertex) -> &[Weight] {
        self.inner.run_par(&[source]);
        self.inner.labels()
    }

    /// One NSSP computation with the intra-level parallel sweep; labels in
    /// original vertex order. Equivalent to [`Self::distances`].
    pub fn distances_par(&mut self, source: Vertex) -> Vec<Weight> {
        self.inner.run_par(&[source]);
        self.inner.tree_distances(0)
    }

    /// Distance of one original vertex after the last query.
    pub fn dist_of(&self, original: Vertex) -> Weight {
        self.inner.dist_of(0, original)
    }

    /// The raw sweep-order labels of the last query.
    pub fn labels(&self) -> &[Weight] {
        self.inner.labels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, PhastBuilder, SweepOrder};
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::strongly_connected_gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use phast_graph::{Graph, GraphBuilder, INF};
    use proptest::prelude::*;

    fn check_sources(g: &Graph, sources: &[Vertex]) {
        let p = Phast::preprocess(g);
        let mut e = p.engine();
        for &s in sources {
            let want = shortest_paths(g.forward(), s).dist;
            let got = e.distances(s);
            assert_eq!(got, want, "source {s}");
        }
    }

    #[test]
    fn matches_dijkstra_on_road_network() {
        let net = RoadNetworkConfig::new(20, 20, 7, Metric::TravelTime).build();
        check_sources(&net.graph, &[0, 5, 100, 350]);
    }

    #[test]
    fn matches_dijkstra_on_distance_metric() {
        let net = RoadNetworkConfig::new(15, 15, 8, Metric::TravelDistance).build();
        check_sources(&net.graph, &[0, 17, 203]);
    }

    #[test]
    fn engine_is_reusable_via_implicit_init() {
        let net = RoadNetworkConfig::new(12, 12, 9, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut e = p.engine();
        // Run many queries back to back; stale labels must never leak.
        for s in 0..30u32 {
            let want = shortest_paths(net.graph.forward(), s).dist;
            assert_eq!(e.distances(s), want, "query {s}");
        }
    }

    #[test]
    fn disconnected_targets_are_inf() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 3).add_edge(1, 2, 4); // 3, 4 isolated
        let g = b.build();
        let p = Phast::preprocess(&g);
        let mut e = p.engine();
        let d = e.distances(0);
        assert_eq!(d, vec![0, 3, 7, INF, INF]);
        // And from an isolated vertex everything else is INF.
        let d = e.distances(4);
        assert_eq!(d[0], INF);
        assert_eq!(d[4], 0);
    }

    #[test]
    fn reverse_engine_computes_distances_to_source() {
        let net = RoadNetworkConfig::new(10, 10, 3, Metric::TravelTime).build();
        let g = &net.graph;
        let p = PhastBuilder::new().direction(Direction::Reverse).build(g);
        let mut e = p.engine();
        let t = 42 % g.num_vertices() as Vertex;
        let got = e.distances(t);
        // Reference: Dijkstra on the transposed graph.
        let want = shortest_paths(g.transposed().forward(), t).dist;
        assert_eq!(got, want);
    }

    #[test]
    fn by_rank_sweep_is_also_correct() {
        let net = RoadNetworkConfig::new(10, 10, 6, Metric::TravelTime).build();
        let p = PhastBuilder::new().order(SweepOrder::ByRank).build(&net.graph);
        let mut e = p.engine();
        let want = shortest_paths(net.graph.forward(), 3).dist;
        assert_eq!(e.distances(3), want);
    }

    #[test]
    fn upward_search_is_reusable_and_small() {
        let net = RoadNetworkConfig::new(20, 20, 2, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut e = p.engine();
        let a = e.upward_search(0);
        let b = e.upward_search(0);
        assert_eq!(a, b, "upward search must be repeatable");
        assert!(a.len() < net.graph.num_vertices() / 2);
        // A subsequent full query still works.
        let want = shortest_paths(net.graph.forward(), 0).dist;
        assert_eq!(e.distances(0), want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        #[test]
        fn matches_dijkstra_on_arbitrary_digraphs(
            n in 2usize..30,
            extra in 0usize..70,
            seed in 0u64..400,
            max_w in 1u32..50,
        ) {
            let g = strongly_connected_gnm(n, extra, max_w, seed);
            let p = Phast::preprocess(&g);
            let mut e = p.engine();
            for s in 0..n.min(4) as Vertex {
                let want = shortest_paths(g.forward(), s).dist;
                prop_assert_eq!(e.distances(s), want);
            }
        }

        #[test]
        fn sparse_possibly_disconnected_digraphs(
            n in 1usize..25,
            m in 0usize..40,
            seed in 0u64..300,
        ) {
            let g = phast_graph::gen::random::gnm(n, m, 30, seed);
            let p = Phast::preprocess(&g);
            let mut e = p.engine();
            let s = (seed % n as u64) as Vertex;
            let want = shortest_paths(g.forward(), s).dist;
            prop_assert_eq!(e.distances(s), want);
        }
    }
}
