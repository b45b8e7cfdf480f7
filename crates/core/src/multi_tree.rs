//! The one sweep engine: `k` interleaved shortest path trees per pass
//! (Section IV-B) over a *view* of `G↓`.
//!
//! The `k` distance labels of a row are interleaved (consecutive in
//! memory), so the sweep relaxes one arc for all `k` trees with sequential
//! loads — and, on x86-64, with packed SSE/AVX `add`/`min`. A run makes
//! four choices, none of which needs a type of its own:
//!
//! * the **view** — the full `G↓` (rows are sweep vertices) or a
//!   [`TargetSelection`]'s restricted CSR (rows are restricted vertices):
//!   the same `first`/`arcs` shape, so a full sweep is RPHAST with
//!   selection = V;
//! * the **lane count** `k`, up to the capacity the engine was built with
//!   ([`MultiTreeEngine::set_k`]): a single tree is the sweep at `k = 1`;
//! * **parents** on or off (the tree face, `k = 1`);
//! * **sequential or level-blocked** over the rayon pool (Section V).
//!
//! The visited marks are the paper's *implicit initialization* (Section
//! IV-C): a row whose mark is clear counts as unreached (its stale labels
//! are ignored), and the sweep clears every mark as it scans. So between
//! runs all marks are clear, whatever view and stride the last run used —
//! which is why changing either is free. [`crate::PhastEngine`],
//! [`crate::TreeEngine`] and [`crate::RestrictedEngine`] are `k = 1` faces.

use crate::parallel::sweep_levels;
use crate::rphast::TargetSelection;
use crate::simd::{best_simd_for, sweep_range, SimdLevel, SweepParams, MAX_K};
use crate::upward::{UpwardSearch, NO_PARENT};
use crate::Phast;
use phast_graph::{Vertex, Weight, INF};
use phast_obs::{PhaseTimer, QueryStats};

/// [`MultiTreeEngine::view`] after a run over the full `G↓`; selections
/// number themselves from 1.
const FULL_VIEW: u64 = 0;

/// Per-query state for PHAST computations: the only owner of labels,
/// marks, a heap and a sweep loop in this crate.
pub struct MultiTreeEngine<'p> {
    p: &'p Phast,
    /// Largest lane count the label array holds.
    capacity: usize,
    /// Lane count of the next run, and the row stride of the last.
    k: usize,
    /// `n * capacity` labels; the labels of row `r` of the last run
    /// occupy `dist[r*k .. (r+1)*k]`. Stale outside a query.
    dist: Vec<Weight>,
    /// `G+` parent per row (sweep IDs); empty unless built for the tree
    /// face.
    parent: Vec<Vertex>,
    /// `1` if the row holds labels of the current run's upward searches.
    marked: Vec<u8>,
    up: UpwardSearch,
    /// The kernel [`Self::force_simd`] asked for; `None` runs the best.
    forced: Option<SimdLevel>,
    /// Original IDs of the sources of the last batch.
    sources: Vec<Vertex>,
    /// What the last run swept: [`FULL_VIEW`] or a selection's id.
    view: u64,
    /// Statistics of the most recent run; upward counters are summed over
    /// the `k` searches.
    stats: QueryStats,
}

impl<'p> MultiTreeEngine<'p> {
    /// Creates an engine computing up to `k` trees per sweep
    /// (`1 <= k <= 64`), set to run `k`.
    pub fn new(p: &'p Phast, k: usize) -> Self {
        Self::build(p, k, false)
    }

    /// [`Self::new`]; with `parents` (the tree face, one lane) the engine
    /// also records parent pointers.
    pub(crate) fn build(p: &'p Phast, k: usize, parents: bool) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        assert!(k == 1 || !parents, "parents need k = 1");
        let n = p.num_vertices();
        Self {
            p,
            capacity: k,
            k,
            dist: vec![INF; n * k],
            parent: vec![NO_PARENT; if parents { n } else { 0 }],
            marked: vec![0; n],
            up: UpwardSearch::new(n, parents),
            forced: None,
            sources: Vec::new(),
            view: FULL_VIEW,
            stats: QueryStats::default(),
        }
    }

    /// Statistics of the most recent run (for [`Self::matrix`], the sum
    /// over its chunks): phase times, the settled count (summed over the
    /// `k` upward searches) and the arc/mark/level counters (see
    /// [`phast_obs`]). A restricted run scans its selection as one flat
    /// block, so `levels_swept` stays 0 and `blocks_executed` counts
    /// sweeps.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Lane count of the next run.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Largest lane count [`Self::set_k`] accepts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets the lane count of the following runs (`1..=capacity`). Free:
    /// no label is moved, the marks of the last run are all clear.
    pub fn set_k(&mut self, k: usize) {
        assert!(
            (1..=self.capacity).contains(&k),
            "k must be in 1..={}",
            self.capacity
        );
        self.k = k;
    }

    /// The kernel the next run takes.
    pub fn simd_level(&self) -> SimdLevel {
        let best = best_simd_for(self.k);
        self.forced.map_or(best, |level| level.min(best))
    }

    /// Forces a kernel (ablation: measure SSE off, as Table II does),
    /// clamped to the best one the CPU and `k` allow: asking for AVX2 on
    /// an SSE4.1-only CPU runs SSE4.1, a `k` that violates the lane
    /// constraint runs scalar.
    pub fn force_simd(&mut self, level: SimdLevel) {
        self.forced = Some(level);
    }

    /// Runs one batch over the full `G↓`: exactly `k` sources (original
    /// IDs). Results stay in the engine until the next run.
    pub fn run(&mut self, sources: &[Vertex]) {
        self.stats.reset();
        self.sweep_view(None, sources, false);
    }

    /// [`Self::run`] with the intra-level **parallel** sweep — levels are
    /// split into blocks across the rayon pool and each block runs the
    /// selected kernel. This combines all three accelerations of Sections
    /// IV–V (batching + SIMD + intra-level cores), the CPU analogue of
    /// GPHAST's execution model.
    pub fn run_par(&mut self, sources: &[Vertex]) {
        self.stats.reset();
        self.sweep_view(None, sources, true);
    }

    /// Runs one batch of exactly `k` sources restricted to `sel`: only
    /// the selection's rows are swept. Read the results back with the
    /// same selection.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() != k` or `sel` was built on a different
    /// instance.
    pub fn run_selected(&mut self, sel: &TargetSelection<'p>, sources: &[Vertex]) {
        self.stats.reset();
        self.sweep_view(Some(sel), sources, false);
    }

    /// Both phases of one run, adding to the statistics (so the chunks of
    /// a matrix sum): `k` upward searches, each copied into its lane of
    /// the view's rows, then one sweep over the view.
    fn sweep_view(&mut self, sel: Option<&TargetSelection<'p>>, sources: &[Vertex], par: bool) {
        let (p, k, level) = (self.p, self.k, self.simd_level());
        assert_eq!(sources.len(), k, "batch must contain exactly k sources");
        let (first, arcs, rows) = match sel {
            None => (p.down().first(), p.down().arcs(), p.num_vertices()),
            Some(sel) => {
                assert!(
                    std::ptr::eq(p, sel.phast()),
                    "selection was built on a different instance"
                );
                (&sel.first[..], &sel.arcs[..], sel.len())
            }
        };
        self.view = sel.map_or(FULL_VIEW, |sel| sel.id);
        self.sources.clear();
        self.sources.extend_from_slice(sources);

        let timer = PhaseTimer::start();
        let mut cleared: u64 = 0;
        for (lane, &s) in sources.iter().enumerate() {
            self.up.run(p.up(), p.to_sweep(s), &mut self.stats.counters);
            // On the first touch of a row in this batch the whole row is
            // initialized to `∞`; the mark says it was.
            let mut copy = |row: usize, v: Vertex| {
                let fresh = self.marked[row] == 0;
                if fresh {
                    self.dist[row * k..(row + 1) * k].fill(INF);
                    self.marked[row] = 1;
                }
                self.dist[row * k + lane] = self.up.label(v);
                if let Some(slot) = self.parent.get_mut(row) {
                    *slot = self.up.parent(v);
                }
                fresh
            };
            match sel {
                // Full view: rows are sweep vertices. Counts the marks the
                // sweep will clear.
                None => {
                    for &v in self.up.trail() {
                        cleared += u64::from(copy(v as usize, v));
                    }
                }
                // Scanning the selection (not the trail) needs no n-sized
                // sweep-id -> row map; it is O(|selection|) per lane,
                // dominated by the sweep below. Counts the upward labels
                // the next search resets.
                Some(sel) => {
                    for (row, &v) in sel.order.iter().enumerate() {
                        if self.up.label(v) != INF {
                            copy(row, v);
                        }
                    }
                    cleared += self.up.trail().len() as u64;
                }
            }
        }
        let stats = &mut self.stats;
        stats.counters.add_marks_cleared(cleared);
        stats.upward_time += timer.elapsed();

        let timer = PhaseTimer::start();
        let params = SweepParams {
            first,
            arcs,
            k,
            dist: self.dist.as_mut_ptr(),
            marked: self.marked.as_mut_ptr(),
            parent: if self.parent.is_empty() {
                std::ptr::null_mut()
            } else {
                self.parent.as_mut_ptr()
            },
        };
        // SAFETY: `dist` holds at least `rows * k` labels, `marked` (and
        // `parent`, if any, with `k = 1`) `rows` entries, all exclusively
        // borrowed here; ascending row order is topological for the view
        // (`Phast::validate` for the full CSR, the postorder construction
        // for a selection) and `level_ranges` are the full view's levels;
        // `level` is clamped to what the CPU has at this `k`.
        let blocks = unsafe {
            if par && sel.is_none() {
                sweep_levels(level, &params, p.level_ranges())
            } else {
                sweep_range(level, &params, 0..rows);
                // One block per level, or the selection as one flat block.
                sel.map_or(p.num_levels() as u64, |_| 1)
            }
        };
        // The sweep is oblivious: every arc of the view is relaxed once
        // per tree.
        stats.counters.add_sweep_arcs(arcs.len() as u64 * k as u64);
        stats.counters.add_blocks_executed(blocks);
        match sel {
            None => stats.counters.add_levels_swept(p.num_levels() as u64),
            Some(_) => stats.counters.add_restricted_scans(rows as u64),
        }
        stats.sweep_time += timer.elapsed();
    }

    /// Phase 1 alone, returning the search space as `(sweep ID, label)`
    /// pairs in ascending sweep ID — the payload GPHAST ships to the
    /// device. Leaves the label rows and marks untouched.
    pub(crate) fn upward_search(&mut self, source: Vertex) -> Vec<(Vertex, Weight)> {
        self.stats.reset();
        let timer = PhaseTimer::start();
        let (p, up) = (self.p, &mut self.up);
        up.run(p.up(), p.to_sweep(source), &mut self.stats.counters);
        let mut space: Vec<_> = up.trail().iter().map(|&v| (v, up.label(v))).collect();
        space.sort_unstable_by_key(|&(v, _)| v);
        self.stats.upward_time = timer.elapsed();
        space
    }

    /// The one read path: the label slot of `lane` at `row`, provided the
    /// last run swept `view`.
    fn slot(&self, view: u64, row: usize, lane: usize) -> usize {
        assert!(lane < self.k, "lane {lane} of {}", self.k);
        assert_eq!(self.view, view, "read back through the view that ran");
        row * self.k + lane
    }

    /// Label of tree `i` at original vertex `v` (after [`Self::run`]).
    pub fn dist_of(&self, i: usize, v: Vertex) -> Weight {
        self.dist[self.slot(FULL_VIEW, self.p.to_sweep(v) as usize, i)]
    }

    /// All labels of tree `i` in original vertex order (after
    /// [`Self::run`]).
    pub fn tree_distances(&self, i: usize) -> Vec<Weight> {
        let base = self.slot(FULL_VIEW, 0, i);
        let n = self.p.num_vertices();
        let mut out = vec![INF; n];
        for sweep in 0..n {
            out[self.p.to_original(sweep as Vertex) as usize] = self.dist[base + sweep * self.k];
        }
        out
    }

    /// Distance of lane `i` to `sel.targets()[t]` (after
    /// [`Self::run_selected`] with the same selection).
    pub fn target_dist(&self, sel: &TargetSelection<'p>, i: usize, t: usize) -> Weight {
        self.dist[self.slot(sel.id, sel.target_pos[t] as usize, i)]
    }

    /// All target distances of lane `i`, in target order (after
    /// [`Self::run_selected`] with the same selection).
    pub fn lane_distances(&self, sel: &TargetSelection<'p>, i: usize) -> Vec<Weight> {
        let base = self.slot(sel.id, 0, i);
        let label = |&row: &u32| self.dist[base + row as usize * self.k];
        sel.target_pos.iter().map(label).collect()
    }

    /// The full many-to-many matrix: one row per source (in source
    /// order), one column per target (in target order). Sources are
    /// chunked into `k`-wide restricted sweeps — the selection is built
    /// once and amortized over every chunk; short tails are padded with
    /// the chunk's first source. [`Self::stats`] afterwards holds the sum
    /// over all chunks.
    pub fn matrix(&mut self, sel: &TargetSelection<'p>, sources: &[Vertex]) -> Vec<Vec<Weight>> {
        self.stats.reset();
        let mut rows = Vec::with_capacity(sources.len());
        let mut padded: Vec<Vertex> = Vec::with_capacity(self.k);
        for chunk in sources.chunks(self.k) {
            padded.clear();
            padded.extend_from_slice(chunk);
            padded.resize(self.k, chunk[0]);
            self.sweep_view(Some(sel), &padded, false);
            rows.extend((0..chunk.len()).map(|i| self.lane_distances(sel, i)));
        }
        rows
    }

    /// Number of `k`-wide sweeps [`Self::matrix`] runs for `m` sources.
    pub fn chunks_for(&self, m: usize) -> usize {
        m.div_ceil(self.k)
    }

    /// The interleaved sweep-order label matrix (after [`Self::run`]).
    pub fn labels(&self) -> &[Weight] {
        let start = self.slot(FULL_VIEW, 0, 0);
        &self.dist[start..start + self.p.num_vertices() * self.k]
    }

    /// `G+` parent (sweep IDs) per sweep vertex of the last run
    /// ([`NO_PARENT`] at the root and at unreached vertices).
    pub(crate) fn parents(&self) -> &[Vertex] {
        &self.parent
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
    #[should_panic(expected = "k must be in 1..=4")]
    fn lane_count_is_bounded_by_the_capacity() {
        let net = RoadNetworkConfig::new(4, 4, 34, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut e = p.multi_engine(4);
        e.set_k(3);
        assert_eq!((e.k(), e.capacity()), (3, 4));
        e.set_k(5);
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
