//! Building actual shortest path trees (Section VII-A).
//!
//! The sweep can remember, for every vertex, the arc responsible for its
//! label — a parent pointer in `G+` (possibly a shortcut). For parents in
//! the *original* graph the paper's one-extra-pass trick applies: for every
//! original arc `(u, v)`, if `d(v) = d(u) + l(u, v)` then `u` can be `v`'s
//! parent. With strictly positive arc lengths the result is a valid
//! shortest path tree of `G`.

use crate::{MultiTreeEngine, Phast};
use phast_ch::search::NO_PARENT;
use phast_dijkstra::ShortestPathTree;
use phast_graph::{Vertex, Weight, INF};

/// Per-query state for tree-building PHAST computations: the `k = 1` face
/// of [`MultiTreeEngine`] that also records parent pointers.
pub struct TreeEngine<'p> {
    inner: MultiTreeEngine<'p>,
}

impl<'p> TreeEngine<'p> {
    /// Creates a tree engine.
    pub fn new(p: &'p Phast) -> Self {
        Self {
            inner: MultiTreeEngine::build(p, 1, true),
        }
    }

    /// The instance.
    pub fn phast(&self) -> &'p Phast {
        self.inner.phast()
    }

    /// Computes the tree from `source` (original ID). Labels and `G+`
    /// parents stay in the engine (sweep IDs) until the next query.
    pub fn run(&mut self, source: Vertex) {
        self.inner.run(&[source]);
    }

    /// Sweep-order labels of the last query.
    pub fn labels(&self) -> &[Weight] {
        self.inner.labels()
    }

    /// `G+` parent (sweep IDs) of a sweep vertex; parents may be shortcut
    /// tails. "For many applications, paths in `G+` are sufficient and even
    /// desirable."
    pub fn parent_gplus(&self, sweep: Vertex) -> Option<Vertex> {
        let p = self.inner.parents()[sweep as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// The full shortest path to one `target` (original IDs, inclusive of
    /// both endpoints), produced by expanding the `G+` parent chain's
    /// shortcuts — the paper's Section VII-A: "In some applications, one
    /// might need to compute all distance labels, but the full description
    /// of a single s-t path. In such cases, a path in `G+` can be expanded
    /// into the corresponding path in `G` in time proportional to the
    /// number of arcs on it."
    ///
    /// For a forward solver the path runs source → target; for a reverse
    /// solver it is the original-graph path target → source. Returns
    /// `None` if `target` is unreachable.
    pub fn path_to(&self, target: Vertex) -> Option<Vec<Vertex>> {
        let (p, dist) = (self.phast(), self.labels());
        let t_sweep = p.to_sweep(target);
        if dist[t_sweep as usize] >= INF {
            return None;
        }
        // Parent chain in G+ from the target back to the source.
        let mut chain = vec![t_sweep];
        let mut x = t_sweep;
        while let Some(par) = self.parent_gplus(x) {
            x = par;
            chain.push(par);
            assert!(chain.len() <= p.num_vertices(), "parent cycle");
        }
        chain.reverse(); // source ... target, in solver orientation
        let mut path_sweep = vec![chain[0]];
        for w in chain.windows(2) {
            let weight = dist[w[1] as usize] - dist[w[0] as usize];
            p.unpack_arc_sweep(w[0], w[1], weight, &mut path_sweep);
        }
        let mut out: Vec<Vertex> = path_sweep.iter().map(|&v| p.to_original(v)).collect();
        // A reverse solver's arcs are flipped: the expanded sequence walks
        // the original arcs backwards.
        if p.direction() == crate::Direction::Reverse {
            out.reverse();
        }
        Some(out)
    }

    /// Reconstructs the shortest path tree **in the original graph** with
    /// the extra pass over the original arc list, returning labels and
    /// parents in original vertex order.
    ///
    /// For the reverse direction the tree is the *in*-tree of the source:
    /// `parent[v]` is the next hop on a shortest path from `v` to the
    /// source.
    pub fn original_tree(&self, source: Vertex) -> ShortestPathTree {
        let (p, labels) = (self.phast(), self.labels());
        let n = p.num_vertices();
        let s_sweep = p.to_sweep(source) as usize;
        let mut parent_sweep = vec![NO_PARENT; n];
        let orig = p.orig_incoming();
        let attached = |parent_sweep: &[Vertex], x: usize| -> bool {
            x == s_sweep || parent_sweep[x] != NO_PARENT
        };
        // Pass 1 (the paper's single pass): adopt any *strictly* tight arc
        // (`d(u) < d(v)`), which is every tight arc when arc lengths are
        // strictly positive and can never form a cycle.
        for (v, slot) in parent_sweep.iter_mut().enumerate() {
            if v == s_sweep || labels[v] >= INF {
                continue;
            }
            let dv = labels[v];
            for a in orig.incoming(v as Vertex) {
                let du = labels[a.tail as usize];
                if du < dv && du + a.weight == dv {
                    *slot = a.tail;
                    break;
                }
            }
        }
        // Zero-weight arcs leave equal-label plateaus unresolved. Attach
        // them to the growing tree with a fixpoint: a plateau vertex may
        // adopt an equal-label parent only once that parent is itself
        // attached, so parents always precede children and no cycle forms.
        let mut unresolved: Vec<usize> = (0..n)
            .filter(|&v| v != s_sweep && labels[v] < INF && parent_sweep[v] == NO_PARENT)
            .collect();
        while !unresolved.is_empty() {
            let before = unresolved.len();
            unresolved.retain(|&v| {
                let dv = labels[v];
                for a in orig.incoming(v as Vertex) {
                    let du = labels[a.tail as usize];
                    if du + a.weight == dv
                        && du < INF
                        && attached(&parent_sweep, a.tail as usize)
                    {
                        parent_sweep[v] = a.tail;
                        return false;
                    }
                }
                true
            });
            assert!(
                unresolved.len() < before,
                "tight-arc attachment stalled; labels inconsistent"
            );
        }

        // Translate to original IDs.
        let mut dist = vec![INF; n];
        let mut parent = vec![NO_PARENT; n];
        for (sweep, &ps) in parent_sweep.iter().enumerate() {
            let old = p.to_original(sweep as Vertex) as usize;
            dist[old] = labels[sweep];
            if ps != NO_PARENT {
                parent[old] = p.to_original(ps);
            }
        }
        ShortestPathTree::new(source, dist, parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::strongly_connected_gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use proptest::prelude::*;

    #[test]
    fn original_tree_validates_on_road_network() {
        let net = RoadNetworkConfig::new(15, 15, 21, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut e = p.tree_engine();
        for s in [0u32, 50, 150] {
            e.run(s);
            let tree = e.original_tree(s);
            tree.validate(net.graph.forward()).unwrap();
            let want = shortest_paths(net.graph.forward(), s).dist;
            assert_eq!(tree.dist, want);
        }
    }

    #[test]
    fn gplus_parents_are_tight() {
        let net = RoadNetworkConfig::new(10, 10, 22, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut e = p.tree_engine();
        e.run(7);
        // Every non-root reached vertex has a G+ parent whose label gap is
        // an arc of up() or down().
        for v in 0..p.num_vertices() as Vertex {
            if e.labels()[v as usize] >= INF || p.to_original(v) == 7 {
                continue;
            }
            let par = e.parent_gplus(v).expect("reached vertex needs parent");
            let gap = e.labels()[v as usize] - e.labels()[par as usize];
            let in_down = p
                .down()
                .incoming(v)
                .iter()
                .any(|a| a.tail == par && a.weight == gap);
            let in_up = p.up().out(par).iter().any(|a| a.head == v && a.weight == gap);
            assert!(in_down || in_up, "parent arc of {v} not found");
        }
    }

    #[test]
    fn expanded_paths_use_original_arcs_and_sum_to_dist() {
        let net = RoadNetworkConfig::new(12, 12, 23, Metric::TravelTime).build();
        let g = &net.graph;
        let p = Phast::preprocess(g);
        let mut e = p.tree_engine();
        e.run(5);
        let labels = p.labels_to_original(e.labels());
        for t in (0..g.num_vertices() as Vertex).step_by(17) {
            let path = e.path_to(t).expect("strongly connected");
            assert_eq!(*path.first().unwrap(), 5);
            assert_eq!(*path.last().unwrap(), t);
            let mut sum = 0;
            for w in path.windows(2) {
                let arc = g
                    .out(w[0])
                    .iter()
                    .filter(|a| a.head == w[1])
                    .map(|a| a.weight)
                    .min()
                    .unwrap_or_else(|| panic!("no original arc {} -> {}", w[0], w[1]));
                sum += arc;
            }
            assert_eq!(sum, labels[t as usize], "path weight to {t}");
        }
    }

    #[test]
    fn reverse_solver_paths_run_towards_the_source() {
        use crate::{Direction, PhastBuilder};
        let net = RoadNetworkConfig::new(9, 9, 24, Metric::TravelTime).build();
        let g = &net.graph;
        let p = PhastBuilder::new().direction(Direction::Reverse).build(g);
        let mut e = p.tree_engine();
        let target = 40; // the "source" of the reverse tree
        e.run(target);
        for v in [0u32, 7, 63] {
            let path = e.path_to(v).expect("strongly connected");
            assert_eq!(*path.first().unwrap(), v);
            assert_eq!(*path.last().unwrap(), target);
            for w in path.windows(2) {
                assert!(
                    g.out(w[0]).iter().any(|a| a.head == w[1]),
                    "arc {} -> {} missing",
                    w[0],
                    w[1]
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn original_trees_on_random_graphs(
            n in 2usize..25,
            extra in 0usize..60,
            seed in 0u64..300,
        ) {
            let g = strongly_connected_gnm(n, extra, 20, seed);
            let p = Phast::preprocess(&g);
            let mut e = p.tree_engine();
            let s = (seed % n as u64) as Vertex;
            e.run(s);
            let tree = e.original_tree(s);
            prop_assert_eq!(tree.validate(g.forward()), Ok(()));
            let want = shortest_paths(g.forward(), s).dist;
            prop_assert_eq!(tree.dist, want);
        }
    }
}
