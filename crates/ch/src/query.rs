//! CH searches over a [`Hierarchy`]: the bidirectional point-to-point
//! query and the full (target-independent) forward upward search PHAST's
//! first phase runs. Both are the one [`Search`].

use crate::hierarchy::Hierarchy;
use crate::search::{Search, NO_PARENT};
use phast_graph::{Csr, Vertex, Weight, INF};
use phast_obs::Counters;

/// The forward CH search of PHAST's first phase: Dijkstra from `s` in `G↑`
/// run until the queue is empty — no stopping rule at all, and the paper
/// still counts only about 500 visited vertices on average.
///
/// Reusable: internal arrays are `n`-sized but reset in `O(touched)`.
pub struct UpwardSearch<'h> {
    h: &'h Hierarchy,
    search: Search,
}

impl<'h> UpwardSearch<'h> {
    /// Creates a search over the hierarchy.
    pub fn new(h: &'h Hierarchy) -> Self {
        Self {
            h,
            search: Search::new(h.num_vertices(), false),
        }
    }

    /// Runs the search and returns the *search space*: every visited vertex
    /// with its (upper bound) distance label, in the order the search
    /// reached them, source first. This is the ~2 KB payload GPHAST copies
    /// to the device.
    pub fn run(&mut self, s: Vertex) -> Vec<(Vertex, Weight)> {
        let mut space = Vec::new();
        self.run_into(s, &mut space);
        space
    }

    /// Like [`Self::run`], reusing the caller's buffer.
    pub fn run_into(&mut self, s: Vertex, space: &mut Vec<(Vertex, Weight)>) {
        let search = &mut self.search;
        search.run(&self.h.forward_up, s, &mut Counters::default());
        space.clear();
        space.extend(search.trail().iter().map(|&v| (v, search.label(v))));
    }
}

/// The bidirectional CH point-to-point query (Section II-B): a forward
/// upward search from `s` meets a backward upward search from `t`; the
/// maximum-rank vertex of the shortest path minimizes
/// `µ = d_s(u) + d_t(u)`, and each side stops once its queue minimum
/// reaches `µ`.
pub struct ChQuery<'h> {
    h: &'h Hierarchy,
    /// The forward search (from `s` in `forward_up`) and the backward one
    /// (from `t` in `backward_up`), kept across queries.
    sides: [Search; 2],
    stall_on_demand: bool,
}

/// Statistics of one query, for the "fewer than 400 vertices visited"
/// claims of Section II-B.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Vertices settled by both searches together.
    pub settled: usize,
    /// Vertices whose relaxation was skipped by stall-on-demand.
    pub stalled: usize,
    /// The meeting vertex, if a path was found.
    pub meeting: Option<Vertex>,
}

impl<'h> ChQuery<'h> {
    /// Creates a query engine over the hierarchy.
    pub fn new(h: &'h Hierarchy) -> Self {
        let n = h.num_vertices();
        Self {
            h,
            sides: [Search::new(n, true), Search::new(n, true)],
            stall_on_demand: false,
        }
    }

    /// Enables *stall-on-demand* (Geisberger et al. \[8\]): before relaxing
    /// a settled vertex `v`, check whether an arc arriving from above
    /// proves `v`'s label suboptimal (`d(u) + w(u, v) < d(v)` for some
    /// higher-ranked `u`); if so, skip the relaxation — such a label can
    /// never contribute to a shortest path. Cuts the search space further
    /// at the cost of one extra arc scan per settled vertex.
    pub fn stall_on_demand(mut self, enable: bool) -> Self {
        self.stall_on_demand = enable;
        self
    }

    /// Shortest `s`-`t` distance, or `None` if `t` is unreachable.
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Weight> {
        self.query_with_stats(s, t).0
    }

    /// [`Self::query`] plus search statistics.
    pub fn query_with_stats(&mut self, s: Vertex, t: Vertex) -> (Option<Weight>, QueryStats) {
        let h = self.h;
        // Side 0 searches `forward_up` and stalls over `backward_up`; side
        // 1 the other way round.
        let graphs = [&h.forward_up, &h.backward_up];
        let [fwd, bwd] = &mut self.sides;
        fwd.start(s);
        bwd.start(t);
        let mut mu = if s == t { 0 } else { INF };
        let mut stats = QueryStats {
            meeting: (s == t).then_some(s),
            ..QueryStats::default()
        };
        // Alternate sides; each side stops when its minimum reaches µ.
        loop {
            let go = self.sides.each_ref().map(|q| q.min_key().is_some_and(|k| k < mu));
            if go == [false, false] {
                break;
            }
            for side in (0..2).filter(|&side| go[side]) {
                let [fwd, bwd] = &mut self.sides;
                let (me, other) = if side == 0 { (fwd, bwd) } else { (bwd, fwd) };
                let (out, into) = (graphs[side], graphs[1 - side]);
                Self::settle(me, other, out, into, self.stall_on_demand, &mut mu, &mut stats);
            }
        }
        ((mu < INF).then_some(mu), stats)
    }

    /// Settles the next vertex `v` of side `me`: updates `µ` and the
    /// meeting vertex where `other` reached `v` too, then relaxes `v`'s
    /// arcs in `out` — unless stall-on-demand finds an arc of `into`
    /// (arriving from above) that proves `v`'s label cannot extend to a
    /// shortest path.
    fn settle(
        me: &mut Search,
        other: &Search,
        out: &Csr,
        into: &Csr,
        stall: bool,
        mu: &mut Weight,
        stats: &mut QueryStats,
    ) {
        let (v, dv) = me.pop().expect("a side only settles with a queue below µ");
        stats.settled += 1;
        let dother = other.label(v);
        if dother < INF && dv + dother < *mu {
            *mu = dv + dother;
            stats.meeting = Some(v);
        }
        if stall && into.out(v).iter().any(|a| me.label(a.head).saturating_add(a.weight) < dv) {
            stats.stalled += 1;
            return;
        }
        me.relax(v, dv, out.out(v));
    }

    /// Shortest path as original-graph vertices (inclusive of both ends),
    /// with shortcuts fully unpacked.
    pub fn query_path(&mut self, s: Vertex, t: Vertex) -> Option<(Weight, Vec<Vertex>)> {
        let (dist, stats) = self.query_with_stats(s, t);
        let dist = dist?;
        let u = stats.meeting.expect("distance implies meeting vertex");
        let [fwd, bwd] = &self.sides;

        // Upward chain s -> ... -> u in G↑, then the downward chain u ->
        // ... -> t (each backward-search parent step (x -> y) corresponds
        // to the arc y -> x).
        let mut up_chain = parent_chain(fwd, u);
        up_chain.reverse();
        let down_chain = parent_chain(bwd, u);

        let mut path = vec![s];
        for pair in up_chain.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            self.h.unpack_arc(a, b, fwd.label(b) - fwd.label(a), &mut path);
        }
        for pair in down_chain.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            // The backward labels decrease along the chain towards t.
            self.h.unpack_arc(a, b, bwd.label(a) - bwd.label(b), &mut path);
        }
        Some((dist, path))
    }
}

/// `v` and its parents in `search`, back to the search's source.
fn parent_chain(search: &Search, v: Vertex) -> Vec<Vertex> {
    let mut chain = vec![v];
    let mut x = v;
    while search.parent(x) != NO_PARENT {
        x = search.parent(x);
        chain.push(x);
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{contract_graph, ContractionConfig};
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::strongly_connected_gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use phast_graph::{Graph, GraphBuilder};
    use proptest::prelude::*;

    fn check_all_pairs(g: &Graph) {
        let h = contract_graph(g, &ContractionConfig::default());
        let mut q = ChQuery::new(&h);
        let n = g.num_vertices();
        for s in 0..n as Vertex {
            let want = shortest_paths(g.forward(), s).dist;
            for t in 0..n as Vertex {
                let got = q.query(s, t);
                let expect = (want[t as usize] < INF).then_some(want[t as usize]);
                assert_eq!(got, expect, "query {s}->{t}");
            }
        }
    }

    #[test]
    fn all_pairs_on_small_road_network() {
        let net = RoadNetworkConfig::new(7, 7, 2, Metric::TravelTime).build();
        check_all_pairs(&net.graph);
    }

    #[test]
    fn all_pairs_on_directed_cycle() {
        let mut b = GraphBuilder::new(6);
        for v in 0..6u32 {
            b.add_arc(v, (v + 1) % 6, v + 1);
        }
        check_all_pairs(&b.build());
    }

    #[test]
    fn unreachable_targets() {
        let mut b = GraphBuilder::new(4);
        b.add_arc(0, 1, 1).add_arc(2, 3, 1);
        let g = b.build();
        let h = contract_graph(&g, &ContractionConfig::default());
        let mut q = ChQuery::new(&h);
        assert_eq!(q.query(0, 1), Some(1));
        assert_eq!(q.query(0, 3), None);
        assert_eq!(q.query(1, 0), None);
    }

    #[test]
    fn upward_search_space_is_small_on_road_networks() {
        let net = RoadNetworkConfig::new(40, 40, 3, Metric::TravelTime).build();
        let h = contract_graph(&net.graph, &ContractionConfig::default());
        let mut up = UpwardSearch::new(&h);
        let n = net.graph.num_vertices();
        let mut total = 0usize;
        for s in (0..n as Vertex).step_by(97) {
            total += up.run(s).len();
        }
        let sources = (n as f64 / 97.0).ceil() as usize;
        let avg = total as f64 / sources as f64;
        assert!(
            avg < n as f64 / 10.0,
            "upward search spaces too large: avg {avg} of {n}"
        );
    }

    #[test]
    fn upward_labels_are_upper_bounds_and_exact_at_top(){
        let net = RoadNetworkConfig::new(12, 12, 9, Metric::TravelTime).build();
        let h = contract_graph(&net.graph, &ContractionConfig::default());
        let mut up = UpwardSearch::new(&h);
        let s = 0;
        let space = up.run(s);
        let exact = shortest_paths(net.graph.forward(), s).dist;
        for &(v, d) in &space {
            assert!(d >= exact[v as usize], "upward label below true distance");
        }
        // The source label is exact.
        assert_eq!(space[0], (s, 0));
    }

    #[test]
    fn paths_unpack_to_original_arcs() {
        let net = RoadNetworkConfig::new(10, 10, 4, Metric::TravelTime).build();
        let g = &net.graph;
        let h = contract_graph(g, &ContractionConfig::default());
        let mut q = ChQuery::new(&h);
        let n = g.num_vertices() as Vertex;
        for (s, t) in [(0, n - 1), (3, n / 2), (n - 1, 0), (5, 5)] {
            let (dist, path) = q.query_path(s, t).expect("connected");
            assert_eq!(path.first(), Some(&s));
            assert_eq!(path.last(), Some(&t));
            // Path must consist of original arcs whose weights sum to dist.
            let mut sum = 0;
            for w in path.windows(2) {
                let arc = g
                    .out(w[0])
                    .iter()
                    .filter(|a| a.head == w[1])
                    .map(|a| a.weight)
                    .min()
                    .unwrap_or_else(|| panic!("no original arc {}->{}", w[0], w[1]));
                sum += arc;
            }
            assert_eq!(sum, dist);
        }
    }

    #[test]
    fn stall_on_demand_preserves_distances_and_prunes() {
        let net = RoadNetworkConfig::new(25, 25, 8, Metric::TravelTime).build();
        let h = contract_graph(&net.graph, &ContractionConfig::default());
        let mut plain = ChQuery::new(&h);
        let mut stalling = ChQuery::new(&h).stall_on_demand(true);
        let n = net.graph.num_vertices() as Vertex;
        let mut settled_plain = 0usize;
        let mut settled_stall = 0usize;
        let mut total_stalled = 0usize;
        for i in 0..60u32 {
            let (s, t) = (i * 131 % n, i * 197 % n);
            let (dp, sp) = plain.query_with_stats(s, t);
            let (ds, ss) = stalling.query_with_stats(s, t);
            assert_eq!(dp, ds, "{s} -> {t}");
            settled_plain += sp.settled;
            settled_stall += ss.settled;
            total_stalled += ss.stalled;
        }
        assert!(total_stalled > 0, "stalling never triggered");
        assert!(
            settled_stall <= settled_plain,
            "stalling must not enlarge the search"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn stalled_queries_match_dijkstra(
            n in 2usize..20,
            extra in 0usize..50,
            seed in 0u64..200,
        ) {
            let g = strongly_connected_gnm(n, extra, 30, seed);
            let h = contract_graph(&g, &ContractionConfig::default());
            let mut q = ChQuery::new(&h).stall_on_demand(true);
            for s in 0..n.min(4) as Vertex {
                let want = shortest_paths(g.forward(), s).dist;
                for t in 0..n as Vertex {
                    prop_assert_eq!(q.query(s, t), Some(want[t as usize]));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn random_queries_match_dijkstra(
            n in 2usize..25,
            extra in 0usize..60,
            seed in 0u64..500,
        ) {
            let g = strongly_connected_gnm(n, extra, 30, seed);
            let h = contract_graph(&g, &ContractionConfig::default());
            let mut q = ChQuery::new(&h);
            for s in 0..n.min(5) as Vertex {
                let want = shortest_paths(g.forward(), s).dist;
                for t in 0..n as Vertex {
                    prop_assert_eq!(q.query(s, t), Some(want[t as usize]));
                }
            }
        }

        #[test]
        fn random_paths_are_valid(seed in 0u64..200) {
            let g = strongly_connected_gnm(15, 30, 20, seed);
            let h = contract_graph(&g, &ContractionConfig::default());
            let mut q = ChQuery::new(&h);
            let want = shortest_paths(g.forward(), 0).dist;
            for t in 0..15u32 {
                let (dist, path) = q.query_path(0, t).expect("strongly connected");
                prop_assert_eq!(dist, want[t as usize]);
                let mut sum = 0;
                for w in path.windows(2) {
                    let arc = g.out(w[0]).iter().filter(|a| a.head == w[1])
                        .map(|a| a.weight).min();
                    prop_assert!(arc.is_some(), "missing arc {}->{}", w[0], w[1]);
                    sum += arc.unwrap();
                }
                prop_assert_eq!(sum, dist);
            }
        }
    }
}
