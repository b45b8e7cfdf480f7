//! CH searches: the bidirectional point-to-point query and the full
//! (target-independent) forward upward search PHAST's first phase runs.

use crate::hierarchy::Hierarchy;
use phast_graph::{Vertex, Weight, INF};
use phast_pq::{DecreaseKeyQueue, IndexedBinaryHeap};

/// The forward CH search of PHAST's first phase: Dijkstra from `s` in `G↑`
/// run until the queue is empty — no stopping rule at all, and the paper
/// still counts only about 500 visited vertices on average.
///
/// Reusable: internal arrays are `n`-sized but reset in `O(touched)`.
pub struct UpwardSearch<'h> {
    h: &'h Hierarchy,
    dist: Vec<Weight>,
    touched: Vec<Vertex>,
    queue: IndexedBinaryHeap,
}

impl<'h> UpwardSearch<'h> {
    /// Creates a search over the hierarchy.
    pub fn new(h: &'h Hierarchy) -> Self {
        let n = h.num_vertices();
        Self {
            h,
            dist: vec![INF; n],
            touched: Vec::new(),
            queue: IndexedBinaryHeap::new(n),
        }
    }

    /// Runs the search and returns the *search space*: every visited vertex
    /// with its (upper bound) distance label, in the order vertices were
    /// settled. This is the ~2 KB payload GPHAST copies to the device.
    pub fn run(&mut self, s: Vertex) -> Vec<(Vertex, Weight)> {
        let mut space = Vec::new();
        self.run_into(s, &mut space);
        space
    }

    /// Like [`Self::run`], reusing the caller's buffer.
    pub fn run_into(&mut self, s: Vertex, space: &mut Vec<(Vertex, Weight)>) {
        space.clear();
        for &v in &self.touched {
            self.dist[v as usize] = INF;
        }
        self.touched.clear();
        self.queue.clear();

        self.dist[s as usize] = 0;
        self.touched.push(s);
        self.queue.insert(s, 0);
        while let Some((v, dv)) = self.queue.pop_min() {
            space.push((v, dv));
            for a in self.h.forward_up.out(v) {
                let cand = dv + a.weight;
                if cand < self.dist[a.head as usize] {
                    if self.dist[a.head as usize] == INF {
                        self.touched.push(a.head);
                        self.queue.insert(a.head, cand);
                    } else {
                        self.queue.decrease_key(a.head, cand);
                    }
                    self.dist[a.head as usize] = cand;
                }
            }
        }
    }
}

/// The bidirectional CH point-to-point query (Section II-B): a forward
/// upward search from `s` meets a backward upward search from `t`; the
/// maximum-rank vertex of the shortest path minimizes
/// `µ = d_s(u) + d_t(u)`, and each side stops once its queue minimum
/// reaches `µ`.
pub struct ChQuery<'h> {
    h: &'h Hierarchy,
    df: Vec<Weight>,
    db: Vec<Weight>,
    pf: Vec<Vertex>,
    pb: Vec<Vertex>,
    touched_f: Vec<Vertex>,
    touched_b: Vec<Vertex>,
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
    const NO_PARENT: Vertex = Vertex::MAX;

    /// Creates a query engine over the hierarchy.
    pub fn new(h: &'h Hierarchy) -> Self {
        let n = h.num_vertices();
        Self {
            h,
            df: vec![INF; n],
            db: vec![INF; n],
            pf: vec![Self::NO_PARENT; n],
            pb: vec![Self::NO_PARENT; n],
            touched_f: Vec::new(),
            touched_b: Vec::new(),
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

    fn reset(&mut self) {
        for &v in &self.touched_f {
            self.df[v as usize] = INF;
            self.pf[v as usize] = Self::NO_PARENT;
        }
        for &v in &self.touched_b {
            self.db[v as usize] = INF;
            self.pb[v as usize] = Self::NO_PARENT;
        }
        self.touched_f.clear();
        self.touched_b.clear();
    }

    /// Shortest `s`-`t` distance, or `None` if `t` is unreachable.
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Weight> {
        self.query_with_stats(s, t).0
    }

    /// [`Self::query`] plus search statistics.
    pub fn query_with_stats(&mut self, s: Vertex, t: Vertex) -> (Option<Weight>, QueryStats) {
        self.reset();
        let n = self.h.num_vertices();
        let mut qf = IndexedBinaryHeap::new(n);
        let mut qb = IndexedBinaryHeap::new(n);
        self.df[s as usize] = 0;
        self.db[t as usize] = 0;
        self.touched_f.push(s);
        self.touched_b.push(t);
        qf.insert(s, 0);
        qb.insert(t, 0);
        let mut mu = if s == t { 0 } else { INF };
        let mut meeting = (s == t).then_some(s);
        let mut stats = QueryStats::default();

        // Alternate sides; each side stops when its minimum reaches µ.
        loop {
            let fgo = qf.peek_min().is_some_and(|(_, k)| k < mu);
            let bgo = qb.peek_min().is_some_and(|(_, k)| k < mu);
            if !fgo && !bgo {
                break;
            }
            if fgo {
                let (v, dv) = qf.pop_min().expect("peeked");
                stats.settled += 1;
                if self.db[v as usize] < INF && dv + self.db[v as usize] < mu {
                    mu = dv + self.db[v as usize];
                    meeting = Some(v);
                }
                // Stall-on-demand: a shorter path into v from above proves
                // this label cannot extend to a shortest path.
                if self.stall_on_demand
                    && self
                        .h
                        .backward_up
                        .out(v)
                        .iter()
                        .any(|a| self.df[a.head as usize].saturating_add(a.weight) < dv)
                {
                    stats.stalled += 1;
                    continue;
                }
                for a in self.h.forward_up.out(v) {
                    let cand = dv + a.weight;
                    let w = a.head as usize;
                    if cand < self.df[w] {
                        if self.df[w] == INF {
                            self.touched_f.push(a.head);
                            qf.insert(a.head, cand);
                        } else {
                            qf.decrease_key(a.head, cand);
                        }
                        self.df[w] = cand;
                        self.pf[w] = v;
                    }
                }
            }
            if bgo {
                let (v, dv) = qb.pop_min().expect("peeked");
                stats.settled += 1;
                if self.df[v as usize] < INF && dv + self.df[v as usize] < mu {
                    mu = dv + self.df[v as usize];
                    meeting = Some(v);
                }
                if self.stall_on_demand
                    && self
                        .h
                        .forward_up
                        .out(v)
                        .iter()
                        .any(|a| self.db[a.head as usize].saturating_add(a.weight) < dv)
                {
                    stats.stalled += 1;
                    continue;
                }
                for a in self.h.backward_up.out(v) {
                    let cand = dv + a.weight;
                    let w = a.head as usize;
                    if cand < self.db[w] {
                        if self.db[w] == INF {
                            self.touched_b.push(a.head);
                            qb.insert(a.head, cand);
                        } else {
                            qb.decrease_key(a.head, cand);
                        }
                        self.db[w] = cand;
                        self.pb[w] = v;
                    }
                }
            }
        }
        stats.meeting = meeting;
        ((mu < INF).then_some(mu), stats)
    }

    /// Shortest path as original-graph vertices (inclusive of both ends),
    /// with shortcuts fully unpacked.
    pub fn query_path(&mut self, s: Vertex, t: Vertex) -> Option<(Weight, Vec<Vertex>)> {
        let (dist, stats) = self.query_with_stats(s, t);
        let dist = dist?;
        let u = stats.meeting.expect("distance implies meeting vertex");

        // Upward chain s -> ... -> u in G↑ (vertices from u back to s).
        let mut up_chain = vec![u];
        let mut x = u;
        while self.pf[x as usize] != Self::NO_PARENT {
            x = self.pf[x as usize];
            up_chain.push(x);
        }
        up_chain.reverse(); // s ... u

        // Downward chain u -> ... -> t (each backward-search parent step
        // (x -> y) corresponds to original arc y -> x).
        let mut down_chain = vec![u];
        let mut x = u;
        while self.pb[x as usize] != Self::NO_PARENT {
            x = self.pb[x as usize];
            down_chain.push(x);
        }
        // down_chain: u ... t

        let mut path = vec![s];
        for pair in up_chain.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let w = self.df[b as usize] - self.df[a as usize];
            self.h.unpack_arc(a, b, w, &mut path);
        }
        for pair in down_chain.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            // db decreases along the chain towards t (db[a] = db[b] + w for
            // the original downward arc a -> b).
            let w = self.db[a as usize] - self.db[b as usize];
            self.h.unpack_arc(a, b, w, &mut path);
        }
        Some((dist, path))
    }
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
