//! Computing `k` shortest path trees per sweep (Section IV-B).
//!
//! The `k` distance labels of a vertex are interleaved (consecutive in
//! memory), so the sweep relaxes one arc for all `k` trees with sequential
//! loads — and, on x86-64, with packed SSE/AVX `add`/`min`.

use crate::simd::{best_simd_for, sweep_range, SimdLevel, SweepParams, MAX_K};
use crate::Phast;
use phast_graph::{Vertex, Weight, INF};
use phast_obs::{PhaseTimer, QueryStats};
use phast_pq::{DecreaseKeyQueue, IndexedBinaryHeap};

/// Per-query state for `k`-trees-per-sweep PHAST computations.
pub struct MultiTreeEngine<'p> {
    p: &'p Phast,
    k: usize,
    /// `n * k` labels; the labels of sweep vertex `v` occupy
    /// `dist[v*k .. (v+1)*k]`.
    dist: Vec<Weight>,
    marked: Vec<u8>,
    queue: IndexedBinaryHeap,
    simd: SimdLevel,
    /// Original IDs of the sources of the last batch.
    sources: Vec<Vertex>,
    /// Statistics of the most recent batch (reset by `upward_batch`);
    /// upward counters are summed over the `k` searches.
    stats: QueryStats,
}

impl<'p> MultiTreeEngine<'p> {
    /// Creates an engine computing `k` trees per sweep (`1 <= k <= 64`).
    pub fn new(p: &'p Phast, k: usize) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        let n = p.num_vertices();
        Self {
            p,
            k,
            dist: vec![INF; n * k],
            marked: vec![0; n],
            queue: IndexedBinaryHeap::new(n),
            simd: best_simd_for(k),
            sources: Vec::new(),
            stats: QueryStats::default(),
        }
    }

    /// Statistics of the most recent batch: phase times, the always-on
    /// settled count (summed over the `k` upward searches), and — when
    /// built with the `obs-counters` feature — the arc/mark/level
    /// counters (see [`phast_obs`]).
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Mutable statistics access for the sibling sweep implementations.
    pub(crate) fn stats_mut(&mut self) -> &mut QueryStats {
        &mut self.stats
    }

    /// Batch width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The kernel currently selected.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// Forces a kernel (ablation: measure SSE off, as Table II does),
    /// clamped to the best one the CPU and `k` allow: asking for AVX2 on
    /// an SSE4.1-only CPU runs SSE4.1, a `k` that violates the lane
    /// constraint runs scalar.
    pub fn force_simd(&mut self, level: SimdLevel) {
        self.simd = level.min(best_simd_for(self.k));
    }

    /// Phase 1 for tree `i`: forward CH search from sweep vertex `s`,
    /// writing interleaved labels. On the first touch of a vertex in this
    /// batch its whole row is initialized to `∞`.
    fn upward(&mut self, s: Vertex, i: usize) {
        let k = self.k;
        self.queue.clear();
        let row = s as usize * k;
        if self.marked[s as usize] == 0 {
            self.dist[row..row + k].fill(INF);
            self.marked[s as usize] = 1;
        }
        self.dist[row + i] = 0;
        self.queue.insert(s, 0);
        let mut settled: u64 = 0;
        while let Some((v, dv)) = self.queue.pop_min() {
            settled += 1;
            let out = self.p.up().out(v);
            self.stats.counters.add_upward_relaxed(out.len() as u64);
            for a in out {
                let w = a.head as usize;
                let cand = dv + a.weight;
                let slot = w * k + i;
                if self.marked[w] == 0 {
                    self.dist[w * k..(w + 1) * k].fill(INF);
                    self.marked[w] = 1;
                }
                if cand < self.dist[slot] {
                    let fresh = self.dist[slot] == INF;
                    self.dist[slot] = cand;
                    if fresh && !self.queue.contains(a.head) {
                        self.queue.insert(a.head, cand);
                    } else if self.queue.contains(a.head) {
                        self.queue.decrease_key(a.head, cand);
                    } else {
                        // Already settled with a larger bound; re-insert.
                        self.queue.insert(a.head, cand);
                    }
                }
            }
        }
        self.stats.counters.add_upward_settled(settled);
    }

    /// Phase 1 for a whole batch (shared by [`Self::run`] and the parallel
    /// sweep in `parallel.rs`).
    pub(crate) fn upward_batch(&mut self, sources: &[Vertex]) {
        assert_eq!(
            sources.len(),
            self.k,
            "batch must contain exactly k sources"
        );
        self.sources = sources.to_vec();
        self.stats.reset();
        let timer = PhaseTimer::start();
        for (i, &s) in sources.iter().enumerate() {
            let sw = self.p.to_sweep(s);
            self.upward(sw, i);
        }
        self.stats.upward_time = timer.elapsed();
    }

    /// Splits the engine into the pieces the sweep kernels need.
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (&'p Phast, usize, SimdLevel, &mut [Weight], &mut [u8]) {
        (self.p, self.k, self.simd, &mut self.dist, &mut self.marked)
    }

    /// Runs one batch: exactly `k` sources (original IDs). Results stay in
    /// the engine until the next batch.
    pub fn run(&mut self, sources: &[Vertex]) {
        self.upward_batch(sources);
        let timer = PhaseTimer::start();
        // Counted up front; the kernel clears marks while sweeping.
        #[cfg(feature = "obs-counters")]
        let cleared = self.marked.iter().filter(|&&m| m != 0).count() as u64;
        let params = SweepParams {
            first: self.p.down().first(),
            arcs: self.p.down().arcs(),
            k: self.k,
            dist: self.dist.as_mut_ptr(),
            marked: self.marked.as_mut_ptr(),
        };
        // SAFETY: single-threaded call over the whole range; the arrays are
        // exactly n*k / n long and the sweep order is topological
        // (Phast::validate checked tails precede heads).
        unsafe { sweep_range(self.simd, &params, 0..self.p.num_vertices()) };
        #[cfg(feature = "obs-counters")]
        self.stats.counters.add_marks_cleared(cleared);
        // The batched sweep is oblivious: every downward arc is relaxed
        // once per tree, one block per level.
        let levels = self.p.num_levels() as u64;
        self.stats
            .counters
            .add_sweep_arcs(self.p.down().arcs().len() as u64 * self.k as u64);
        self.stats.counters.add_levels_swept(levels);
        self.stats.counters.add_blocks_executed(levels);
        self.stats.sweep_time = timer.elapsed();
    }

    /// Label of tree `i` at original vertex `v` (after [`Self::run`]).
    pub fn dist_of(&self, i: usize, v: Vertex) -> Weight {
        assert!(i < self.k);
        self.dist[self.p.to_sweep(v) as usize * self.k + i]
    }

    /// All labels of tree `i` in original vertex order.
    pub fn tree_distances(&self, i: usize) -> Vec<Weight> {
        assert!(i < self.k);
        let n = self.p.num_vertices();
        let mut out = vec![INF; n];
        for sweep in 0..n {
            out[self.p.to_original(sweep as Vertex) as usize] = self.dist[sweep * self.k + i];
        }
        out
    }

    /// The interleaved sweep-order label matrix.
    pub fn labels(&self) -> &[Weight] {
        &self.dist
    }

    /// Sources of the last batch.
    pub fn sources(&self) -> &[Vertex] {
        &self.sources
    }

    /// The instance this engine runs on.
    pub fn phast(&self) -> &'p Phast {
        self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::strongly_connected_gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use proptest::prelude::*;

    fn check_batch(g: &phast_graph::Graph, k: usize, simd: Option<SimdLevel>) {
        let p = Phast::preprocess(g);
        let mut e = p.multi_engine(k);
        if let Some(level) = simd {
            e.force_simd(level);
        }
        let n = g.num_vertices() as Vertex;
        let sources: Vec<Vertex> = (0..k as Vertex).map(|i| (i * 7 + 1) % n).collect();
        e.run(&sources);
        for (i, &s) in sources.iter().enumerate() {
            let want = shortest_paths(g.forward(), s).dist;
            assert_eq!(e.tree_distances(i), want, "tree {i} from {s}");
        }
    }

    #[test]
    fn sixteen_trees_match_dijkstra() {
        let net = RoadNetworkConfig::new(14, 14, 1, Metric::TravelTime).build();
        check_batch(&net.graph, 16, None);
    }

    #[test]
    fn odd_k_uses_scalar_and_matches() {
        let net = RoadNetworkConfig::new(10, 10, 2, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let e = p.multi_engine(5);
        assert_eq!(e.simd_level(), SimdLevel::Scalar);
        check_batch(&net.graph, 5, None);
    }

    #[test]
    fn duplicate_sources_in_one_batch() {
        let net = RoadNetworkConfig::new(8, 8, 3, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut e = p.multi_engine(4);
        e.run(&[9, 9, 9, 9]);
        let want = shortest_paths(net.graph.forward(), 9).dist;
        for i in 0..4 {
            assert_eq!(e.tree_distances(i), want);
        }
    }

    #[test]
    fn engine_reusable_across_batches() {
        let net = RoadNetworkConfig::new(9, 9, 4, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut e = p.multi_engine(4);
        for round in 0..6u32 {
            let sources: Vec<Vertex> = (0..4).map(|i| (round * 4 + i) % 81).collect();
            e.run(&sources);
            for (i, &s) in sources.iter().enumerate() {
                let want = shortest_paths(net.graph.forward(), s).dist;
                assert_eq!(e.tree_distances(i), want, "round {round} tree {i}");
            }
        }
    }

    #[test]
    fn all_kernels_agree() {
        let net = RoadNetworkConfig::new(12, 12, 5, Metric::TravelTime).build();
        check_batch(&net.graph, 8, Some(SimdLevel::Scalar));
        if is_x86_feature_detected!("sse4.1") {
            check_batch(&net.graph, 8, Some(SimdLevel::Sse41));
        }
        if is_x86_feature_detected!("avx2") {
            check_batch(&net.graph, 8, Some(SimdLevel::Avx2));
            check_batch(&net.graph, 12, Some(SimdLevel::Avx2)); // odd half-chunk
        }
    }

    #[test]
    fn maximum_batch_width() {
        use crate::simd::MAX_K;
        let net = RoadNetworkConfig::new(8, 8, 31, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut e = p.multi_engine(MAX_K);
        let n = net.graph.num_vertices() as Vertex;
        let sources: Vec<Vertex> = (0..MAX_K as Vertex).map(|i| i % n).collect();
        e.run(&sources);
        for probe in [0usize, MAX_K / 2, MAX_K - 1] {
            let want = shortest_paths(net.graph.forward(), sources[probe]).dist;
            assert_eq!(e.tree_distances(probe), want, "lane {probe}");
        }
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=")]
    fn oversized_k_is_rejected() {
        let net = RoadNetworkConfig::new(4, 4, 32, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let _ = p.multi_engine(crate::simd::MAX_K + 1);
    }

    #[test]
    fn degree_sorted_order_is_still_correct() {
        use crate::{PhastBuilder, SweepOrder};
        let net = RoadNetworkConfig::new(10, 10, 33, Metric::TravelTime).build();
        let p = PhastBuilder::new()
            .order(SweepOrder::ByLevelThenDegree)
            .build(&net.graph);
        let mut e = p.multi_engine(4);
        e.run(&[0, 9, 40, 77]);
        for (i, s) in [0u32, 9, 40, 77].into_iter().enumerate() {
            let want = shortest_paths(net.graph.forward(), s).dist;
            assert_eq!(e.tree_distances(i), want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn random_graph_batches(
            n in 2usize..25,
            extra in 0usize..50,
            seed in 0u64..200,
            k in 1usize..10,
        ) {
            let g = strongly_connected_gnm(n, extra, 25, seed);
            let p = Phast::preprocess(&g);
            let mut e = p.multi_engine(k);
            let sources: Vec<Vertex> =
                (0..k as u64).map(|i| ((seed + i * 3) % n as u64) as Vertex).collect();
            e.run(&sources);
            for (i, &s) in sources.iter().enumerate() {
                let want = shortest_paths(g.forward(), s).dist;
                prop_assert_eq!(e.tree_distances(i), want);
            }
        }
    }
}
