//! Arc flags (Section VII-B.b).
//!
//! An arc `a` carries one Boolean flag per cell `C`: true iff `a` lies on
//! some shortest path into `C`. Point-to-point queries then run Dijkstra
//! but only relax arcs flagged for the target's cell — "very efficient,
//! with speedups of more than three orders of magnitude" on continental
//! networks.
//!
//! The expensive part is preprocessing: one **reverse** shortest path tree
//! per cell-boundary vertex. The paper's headline application win is
//! replacing Dijkstra by (G)PHAST here: "reducing the time to set flags
//! from about 10.5 hours to less than 3 minutes". Both drivers are
//! provided: [`ArcFlags::preprocess_phast`] and the
//! [`ArcFlags::preprocess_dijkstra`] baseline.

use crate::partition::Partition;
use phast_core::{Direction, Phast};
use phast_dijkstra::dijkstra::Dijkstra;
use phast_graph::{Graph, Vertex, Weight, INF};
use phast_pq::FourHeap;
use rayon::prelude::*;

/// Arc flags for a graph under a fixed partition. Flags are stored as a
/// bit matrix: `words_per_arc` little-endian 64-bit words per arc, indexed
/// by the arc's position in the forward CSR.
#[derive(Clone, Debug)]
pub struct ArcFlags {
    flags: Vec<u64>,
    words_per_arc: usize,
    /// The partition the flags were computed for.
    pub partition: Partition,
}

impl ArcFlags {
    /// Preprocessing statistics.
    fn empty(g: &Graph, partition: Partition) -> Self {
        let words_per_arc = partition.num_cells.div_ceil(64);
        Self {
            flags: vec![0u64; g.num_arcs() * words_per_arc],
            words_per_arc,
            partition,
        }
    }

    #[inline]
    fn set(&mut self, arc_idx: usize, cell: u32) {
        let w = arc_idx * self.words_per_arc + (cell as usize) / 64;
        self.flags[w] |= 1u64 << (cell % 64);
    }

    /// True if `arc_idx` is flagged for `cell`.
    #[inline]
    pub fn get(&self, arc_idx: usize, cell: u32) -> bool {
        let w = arc_idx * self.words_per_arc + (cell as usize) / 64;
        self.flags[w] >> (cell % 64) & 1 == 1
    }

    /// Number of set flags (statistics).
    pub fn count_set(&self) -> usize {
        self.flags.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Shared flag-setting core: `dist_to[b]` supplies, for boundary vertex
    /// `b` of `cell`, the distances *to* `b` from every vertex.
    fn apply_boundary_tree(&mut self, g: &Graph, cell: u32, dist_to_b: &[Weight]) {
        // Flag every arc that is tight for this reverse tree: (u, v) with
        // dist(u -> b) == w(u, v) + dist(v -> b).
        let forward = g.forward();
        let mut arc_idx = 0usize;
        for u in 0..g.num_vertices() as Vertex {
            let du = dist_to_b[u as usize];
            for a in forward.out(u) {
                let dv = dist_to_b[a.head as usize];
                if du < INF && dv < INF && du == a.weight + dv {
                    self.set(arc_idx, cell);
                }
                arc_idx += 1;
            }
        }
    }

    /// Flags all intra-cell arcs for their own cell (both endpoints inside).
    fn flag_intra_cell_arcs(&mut self, g: &Graph) {
        let mut arc_idx = 0usize;
        for u in 0..g.num_vertices() as Vertex {
            let cu = self.partition.cell(u);
            for a in g.out(u) {
                if self.partition.cell(a.head) == cu {
                    self.set(arc_idx, cu);
                }
                arc_idx += 1;
            }
        }
    }

    /// Full preprocessing with reverse **PHAST** trees. `phast_rev` must be
    /// a [`Direction::Reverse`] solver over `g`.
    pub fn preprocess_phast(g: &Graph, partition: Partition, phast_rev: &Phast) -> Self {
        assert_eq!(phast_rev.direction(), Direction::Reverse);
        assert_eq!(phast_rev.num_vertices(), g.num_vertices());
        let mut flags = Self::empty(g, partition);
        flags.flag_intra_cell_arcs(g);
        let boundary = flags.partition.boundary_vertices(g);
        // One reverse tree per boundary vertex, parallel over sources; the
        // per-tree flag pass is folded per worker and OR-merged at the end.
        let words_per_arc = flags.words_per_arc;
        let num_cells = flags.partition.num_cells;
        let jobs: Vec<(u32, Vertex)> = boundary
            .iter()
            .enumerate()
            .flat_map(|(c, bs)| bs.iter().map(move |&b| (c as u32, b)))
            .collect();
        let partials: Vec<Vec<u64>> = jobs
            .par_chunks(jobs.len().div_ceil(rayon::current_num_threads()).max(1))
            .map(|chunk| {
                let mut local = Self {
                    flags: vec![0u64; g.num_arcs() * words_per_arc],
                    words_per_arc,
                    partition: Partition::new(
                        flags.partition.cell_of.clone(),
                        num_cells,
                    ),
                };
                let mut engine = phast_rev.engine();
                for &(cell, b) in chunk {
                    let dist_to_b = engine.distances(b);
                    local.apply_boundary_tree(g, cell, &dist_to_b);
                }
                local.flags
            })
            .collect();
        for partial in partials {
            for (w, bits) in partial.into_iter().enumerate() {
                flags.flags[w] |= bits;
            }
        }
        flags
    }

    /// Like [`Self::preprocess_phast`] but computes the boundary trees in
    /// batches of `k` per sweep (Section IV-B's multi-tree batching — how
    /// the paper's pipeline actually amortizes the 10 000-tree arc-flag
    /// workload). Produces bit-identical flags.
    pub fn preprocess_phast_batched(
        g: &Graph,
        partition: Partition,
        phast_rev: &Phast,
        k: usize,
    ) -> Self {
        assert_eq!(phast_rev.direction(), Direction::Reverse);
        let mut flags = Self::empty(g, partition);
        flags.flag_intra_cell_arcs(g);
        let boundary = flags.partition.boundary_vertices(g);
        let jobs: Vec<(u32, Vertex)> = boundary
            .iter()
            .enumerate()
            .flat_map(|(c, bs)| bs.iter().map(move |&b| (c as u32, b)))
            .collect();
        let mut engine = phast_rev.multi_engine(k);
        let mut dist = vec![0u32; g.num_vertices()];
        for chunk in jobs.chunks(k) {
            let sources: Vec<Vertex> = chunk.iter().map(|&(_, b)| b).collect();
            // A short last chunk runs that narrow: its labels' stride.
            let lanes = chunk.len();
            engine.set_k(lanes);
            engine.run(&sources);
            for (i, &(cell, _)) in chunk.iter().enumerate() {
                // Pull tree i's labels into original order once.
                for sweep in 0..g.num_vertices() {
                    dist[phast_rev.to_original(sweep as Vertex) as usize] =
                        engine.labels()[sweep * lanes + i];
                }
                flags.apply_boundary_tree(g, cell, &dist);
            }
        }
        flags
    }

    /// The Dijkstra baseline: identical output, reverse trees via Dijkstra
    /// on the transposed graph.
    pub fn preprocess_dijkstra(g: &Graph, partition: Partition) -> Self {
        let mut flags = Self::empty(g, partition);
        flags.flag_intra_cell_arcs(g);
        let transposed = g.forward().transposed();
        let boundary = flags.partition.boundary_vertices(g);
        let mut solver = Dijkstra::<FourHeap>::new(&transposed);
        for (c, bs) in boundary.iter().enumerate() {
            for &b in bs {
                let (dist, _, _) = solver.run_in_place(b);
                let dist = dist.to_vec();
                flags.apply_boundary_tree(g, c as u32, &dist);
            }
        }
        flags
    }

    /// Flags for shortest paths **from** each cell, computed on the
    /// transposed graph — the second half of a bidirectional arc-flags
    /// setup. `phast_fwd` must be a **forward** solver over `g` (its trees
    /// give distances *from* boundary vertices, which are the reverse
    /// trees of the transposed graph).
    pub fn preprocess_outgoing_phast(g: &Graph, partition: Partition, phast_fwd: &Phast) -> Self {
        assert_eq!(phast_fwd.direction(), Direction::Forward);
        let transposed = g.transposed();
        // An arc (u, v) of g is (v, u) of the transpose; flags computed on
        // the transpose must be transferred back to g's arc indexing.
        let mut t_flags = Self::empty(&transposed, partition);
        t_flags.flag_intra_cell_arcs(&transposed);
        let boundary = t_flags.partition.boundary_vertices(&transposed);
        let mut engine = phast_fwd.engine();
        for (c, bs) in boundary.iter().enumerate() {
            for &b in bs {
                // Distances *to* b in the transpose = distances *from* b
                // in g, which the forward PHAST solver provides.
                let dist = engine.distances(b);
                t_flags.apply_boundary_tree(&transposed, c as u32, &dist);
            }
        }
        // Transfer: g arc index for (u, v) -> transpose arc index for (v, u).
        let mut flags = Self::empty(g, t_flags.partition.clone());
        let mut arc_idx = 0usize;
        for u in 0..g.num_vertices() as Vertex {
            for a in g.out(u) {
                // Locate (a.head, u) with the same weight in the transpose.
                let range = transposed.forward().arc_range(a.head);
                let local = transposed
                    .out(a.head)
                    .iter()
                    .position(|t| t.head == u && t.weight == a.weight)
                    .expect("transpose must contain the flipped arc");
                let t_idx = range.start + local;
                for w in 0..flags.words_per_arc {
                    flags.flags[arc_idx * flags.words_per_arc + w] |=
                        t_flags.flags[t_idx * t_flags.words_per_arc + w];
                }
                arc_idx += 1;
            }
        }
        flags
    }

    /// Point-to-point query: Dijkstra relaxing only arcs flagged for the
    /// target's cell. Returns the distance and the number of settled
    /// vertices (the speedup metric).
    pub fn query(&self, g: &Graph, s: Vertex, t: Vertex) -> (Option<Weight>, usize) {
        let cell_t = self.partition.cell(t);
        let forward = g.forward();
        let n = g.num_vertices();
        let mut dist = vec![INF; n];
        let mut queue = FourHeap::new(n);
        use phast_pq::DecreaseKeyQueue;
        dist[s as usize] = 0;
        queue.insert(s, 0);
        let mut settled = 0usize;
        while let Some((v, dv)) = queue.pop_min() {
            settled += 1;
            if v == t {
                return (Some(dv), settled);
            }
            let range = forward.arc_range(v);
            for (a, arc_idx) in forward.out(v).iter().zip(range) {
                if !self.get(arc_idx, cell_t) {
                    continue;
                }
                let cand = dv + a.weight;
                if cand < dist[a.head as usize] {
                    if dist[a.head as usize] == INF {
                        queue.insert(a.head, cand);
                    } else {
                        queue.decrease_key(a.head, cand);
                    }
                    dist[a.head as usize] = cand;
                }
            }
        }
        (None, settled)
    }
}

/// Bidirectional arc flags (the paper: "this approach can easily be made
/// bidirectional and is very efficient"). The forward search prunes on the
/// *incoming* flags of the target's cell, the backward search on the
/// *outgoing* flags of the source's cell; both searches stop once their
/// frontier minimum reaches the best meeting value.
pub struct BidirectionalArcFlags {
    /// Flags for shortest paths *into* each cell (forward pruning).
    pub incoming: ArcFlags,
    /// Flags for shortest paths *out of* each cell (backward pruning).
    pub outgoing: ArcFlags,
    /// Transposed graph for the backward search...
    transposed: Graph,
    /// ...with each transposed arc's index in the original forward CSR.
    orig_index: Vec<u32>,
}

impl BidirectionalArcFlags {
    /// Builds both flag directions with PHAST-driven preprocessing.
    /// `phast_rev`/`phast_fwd` are reverse/forward solvers over `g`.
    pub fn preprocess_phast(
        g: &Graph,
        partition: Partition,
        phast_rev: &Phast,
        phast_fwd: &Phast,
    ) -> Self {
        let incoming = ArcFlags::preprocess_phast(g, partition.clone(), phast_rev);
        let outgoing = ArcFlags::preprocess_outgoing_phast(g, partition, phast_fwd);
        let transposed = g.transposed();
        // For each transposed arc (v, u), find the original index of (u, v).
        let mut orig_index = vec![0u32; transposed.num_arcs()];
        let mut used = vec![false; g.num_arcs()];
        for v in 0..transposed.num_vertices() as Vertex {
            let t_range = transposed.forward().arc_range(v);
            for (t_idx, a) in transposed.out(v).iter().enumerate() {
                let u = a.head; // original arc u -> v
                let range = g.forward().arc_range(u);
                let local = g
                    .out(u)
                    .iter()
                    .enumerate()
                    .position(|(i, o)| {
                        o.head == v && o.weight == a.weight && !used[range.start + i]
                    })
                    .expect("original arc must exist");
                used[range.start + local] = true;
                orig_index[t_range.start + t_idx] = (range.start + local) as u32;
            }
        }
        Self {
            incoming,
            outgoing,
            transposed,
            orig_index,
        }
    }

    /// Bidirectional flagged query. Returns the distance and the total
    /// settled count over both searches.
    pub fn query(&self, g: &Graph, s: Vertex, t: Vertex) -> (Option<Weight>, usize) {
        use phast_pq::DecreaseKeyQueue;
        let cell_t = self.incoming.partition.cell(t);
        let cell_s = self.outgoing.partition.cell(s);
        let n = g.num_vertices();
        let forward = g.forward();
        let backward = self.transposed.forward();
        let mut df = vec![INF; n];
        let mut db = vec![INF; n];
        let mut qf = FourHeap::new(n);
        let mut qb = FourHeap::new(n);
        df[s as usize] = 0;
        db[t as usize] = 0;
        qf.insert(s, 0);
        qb.insert(t, 0);
        let mut mu = if s == t { 0 } else { INF };
        let mut settled = 0usize;
        loop {
            let fmin = qf.peek_min().map(|(_, k)| k);
            let bmin = qb.peek_min().map(|(_, k)| k);
            let lower = match (fmin, bmin) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if lower >= mu {
                break;
            }
            if fmin.is_some() && (bmin.is_none() || fmin <= bmin) {
                let (v, dv) = qf.pop_min().expect("non-empty");
                settled += 1;
                if db[v as usize] < INF {
                    mu = mu.min(dv + db[v as usize]);
                }
                let range = forward.arc_range(v);
                for (a, arc_idx) in forward.out(v).iter().zip(range) {
                    if !self.incoming.get(arc_idx, cell_t) {
                        continue;
                    }
                    let cand = dv + a.weight;
                    if cand < df[a.head as usize] {
                        if df[a.head as usize] == INF {
                            qf.insert(a.head, cand);
                        } else {
                            qf.decrease_key(a.head, cand);
                        }
                        df[a.head as usize] = cand;
                    }
                }
            } else {
                let (v, dv) = qb.pop_min().expect("non-empty");
                settled += 1;
                if df[v as usize] < INF {
                    mu = mu.min(dv + df[v as usize]);
                }
                let range = backward.arc_range(v);
                for (a, t_idx) in backward.out(v).iter().zip(range) {
                    if !self.outgoing.get(self.orig_index[t_idx] as usize, cell_s) {
                        continue;
                    }
                    let cand = dv + a.weight;
                    if cand < db[a.head as usize] {
                        if db[a.head as usize] == INF {
                            qb.insert(a.head, cand);
                        } else {
                            qb.decrease_key(a.head, cand);
                        }
                        db[a.head as usize] = cand;
                    }
                }
            }
        }
        ((mu < INF).then_some(mu), settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::strongly_connected_gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    fn reverse_phast(g: &Graph) -> Phast {
        phast_core::PhastBuilder::new()
            .direction(Direction::Reverse)
            .build(g)
    }

    #[test]
    fn phast_and_dijkstra_preprocessing_agree() {
        let net = RoadNetworkConfig::new(12, 12, 41, Metric::TravelTime).build();
        let g = &net.graph;
        let part = Partition::grid(&net.coords, 3, 3);
        let rev = reverse_phast(g);
        let a = ArcFlags::preprocess_phast(g, part.clone(), &rev);
        let b = ArcFlags::preprocess_dijkstra(g, part);
        assert_eq!(a.flags, b.flags);
        assert!(a.count_set() > 0);
    }

    #[test]
    fn batched_preprocessing_is_bit_identical() {
        let net = RoadNetworkConfig::new(12, 12, 45, Metric::TravelTime).build();
        let g = &net.graph;
        let part = Partition::grid(&net.coords, 3, 3);
        let rev = reverse_phast(g);
        let single = ArcFlags::preprocess_phast(g, part.clone(), &rev);
        for k in [4usize, 16] {
            let batched = ArcFlags::preprocess_phast_batched(g, part.clone(), &rev, k);
            assert_eq!(single.flags, batched.flags, "k = {k}");
        }
    }

    #[test]
    fn queries_match_plain_dijkstra() {
        let net = RoadNetworkConfig::new(14, 14, 42, Metric::TravelTime).build();
        let g = &net.graph;
        let part = Partition::grid(&net.coords, 4, 4);
        let rev = reverse_phast(g);
        let flags = ArcFlags::preprocess_phast(g, part, &rev);
        let n = g.num_vertices() as Vertex;
        for s in [0, 7, n / 2] {
            let want = shortest_paths(g.forward(), s).dist;
            for t in [1, n - 1, n / 3, s] {
                let (got, _) = flags.query(g, s, t);
                assert_eq!(got, Some(want[t as usize]), "{s} -> {t}");
            }
        }
    }

    #[test]
    fn queries_prune_the_search() {
        let net = RoadNetworkConfig::new(24, 24, 43, Metric::TravelTime).build();
        let g = &net.graph;
        let part = Partition::grid(&net.coords, 5, 5);
        let rev = reverse_phast(g);
        let flags = ArcFlags::preprocess_phast(g, part, &rev);
        let n = g.num_vertices() as Vertex;
        // Long-range query: flags must cut the settled count well below n.
        let (d, settled) = flags.query(g, 0, n - 1);
        assert!(d.is_some());
        assert!(
            settled * 2 < n as usize,
            "arc flags settled {settled} of {n}"
        );
    }

    #[test]
    fn works_on_random_digraphs_with_bfs_partition() {
        for seed in 0..3 {
            let g = strongly_connected_gnm(40, 100, 20, seed);
            let part = Partition::bfs_grow(&g, 4);
            let rev = reverse_phast(&g);
            let flags = ArcFlags::preprocess_phast(&g, part, &rev);
            let want = shortest_paths(g.forward(), 0).dist;
            for t in 0..40u32 {
                let (got, _) = flags.query(&g, 0, t);
                assert_eq!(got, Some(want[t as usize]), "seed {seed} t {t}");
            }
        }
    }

    #[test]
    fn many_cells_multi_word_flags() {
        let net = RoadNetworkConfig::new(12, 12, 44, Metric::TravelTime).build();
        let g = &net.graph;
        let part = Partition::grid(&net.coords, 9, 9); // 81 cells -> 2 words
        let rev = reverse_phast(g);
        let flags = ArcFlags::preprocess_phast(g, part, &rev);
        assert_eq!(flags.words_per_arc, 2);
        let want = shortest_paths(g.forward(), 3).dist;
        for t in [0u32, 50, 100] {
            let (got, _) = flags.query(g, 3, t);
            assert_eq!(got, Some(want[t as usize]));
        }
    }
}

#[cfg(test)]
mod bidirectional_tests {
    use super::*;
    use phast_core::PhastBuilder;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    #[test]
    fn bidirectional_queries_match_plain_dijkstra() {
        let net = RoadNetworkConfig::new(14, 14, 81, Metric::TravelTime).build();
        let g = &net.graph;
        let part = Partition::grid(&net.coords, 3, 3);
        let rev = PhastBuilder::new().direction(Direction::Reverse).build(g);
        let fwd = PhastBuilder::new().build(g);
        let bi = BidirectionalArcFlags::preprocess_phast(g, part, &rev, &fwd);
        let n = g.num_vertices() as Vertex;
        for s in [0, 7, n / 2] {
            let want = shortest_paths(g.forward(), s).dist;
            for t in [1, n - 1, n / 3, s] {
                let (got, _) = bi.query(g, s, t);
                assert_eq!(got, Some(want[t as usize]), "{s} -> {t}");
            }
        }
    }

    #[test]
    fn bidirectional_settles_fewer_than_unidirectional() {
        let net = RoadNetworkConfig::new(22, 22, 82, Metric::TravelTime).build();
        let g = &net.graph;
        let part = Partition::grid(&net.coords, 4, 4);
        let rev = PhastBuilder::new().direction(Direction::Reverse).build(g);
        let fwd = PhastBuilder::new().build(g);
        let uni = ArcFlags::preprocess_phast(g, part.clone(), &rev);
        let bi = BidirectionalArcFlags::preprocess_phast(g, part, &rev, &fwd);
        let n = g.num_vertices() as Vertex;
        let mut uni_total = 0usize;
        let mut bi_total = 0usize;
        for i in 0..20u32 {
            let (s, t) = (i * 113 % n, i * 211 % n);
            let (du, su) = uni.query(g, s, t);
            let (db, sb) = bi.query(g, s, t);
            assert_eq!(du, db, "{s} -> {t}");
            uni_total += su;
            bi_total += sb;
        }
        // Not guaranteed per-query, but in aggregate the bidirectional
        // search should not settle more than the unidirectional one does.
        assert!(
            bi_total <= uni_total * 2,
            "bidirectional settled {bi_total} vs {uni_total}"
        );
    }

    #[test]
    fn outgoing_flags_are_the_transpose_of_incoming() {
        // On a symmetric (undirected) graph with a symmetric partition the
        // outgoing flags of (u, v) equal the incoming flags of (v, u).
        let net = RoadNetworkConfig::new(8, 8, 83, Metric::TravelTime).build();
        // Build a fully symmetric version by adding both directions.
        let g = &net.graph;
        let part = Partition::grid(&net.coords, 2, 2);
        let rev = PhastBuilder::new().direction(Direction::Reverse).build(g);
        let fwd = PhastBuilder::new().build(g);
        let inc = ArcFlags::preprocess_phast(g, part.clone(), &rev);
        let out = ArcFlags::preprocess_outgoing_phast(g, part, &fwd);
        assert_eq!(inc.count_set() > 0, out.count_set() > 0);
    }
}
