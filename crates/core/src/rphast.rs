//! RPHAST: sweeps restricted to the downward closure of a target set.
//!
//! PHAST's sweep is oblivious — it scans all of `G↓` no matter where the
//! caller actually needs distances. When the workload is many-to-few (a
//! logistics matrix, nearest-POI queries), almost all of that work is
//! wasted: only vertices lying on some downward path into the target set
//! `T` can influence a target's label. RPHAST (the restriction the PHAST
//! authors developed for exactly this shape) precomputes, once per target
//! set, the *selection* — the downward closure of `T` in `G↓`, renumbered
//! into a compact restricted CSR — and then runs every sweep over those
//! few vertices only.
//!
//! The construction uses the selection-stack + id-remapping technique:
//!
//! * A DFS from the targets over incoming downward arcs, driven by an
//!   explicit stack, assigns restricted ids in **postorder**: a vertex is
//!   numbered only after every tail of its incoming arcs. Ascending
//!   restricted id is therefore a topological order of the restricted
//!   subgraph — exactly the contract [`crate::simd::sweep_range`] needs.
//! * Arcs are emitted during the same pass with their tails remapped to
//!   restricted ids, so the restricted CSR ([`TargetSelection::first`] /
//!   arcs of [`ReverseArc`]) has the same shape as the full `G↓` CSR and
//!   the existing scalar/SSE4.1/AVX2 kernels run over it unchanged.
//! * The sweep-id → restricted-id scratch lives in a reusable
//!   [`SelectionBuilder`] and is reset through the selection's own vertex
//!   list, so building a selection costs `O(|closure| + |restricted
//!   arcs|)` after the first build, not `O(n)`.
//!
//! Queries then run the ordinary upward CH search (over the full `n`
//! vertices — the upward cone is tiny), inject the upward labels into the
//! restricted rows, and sweep the restricted CSR: single-tree through
//! [`RestrictedEngine`], `k` interleaved lanes through
//! [`RestrictedMultiEngine`], whose [`RestrictedMultiEngine::matrix`]
//! amortizes one selection across any number of sources.

use crate::simd::{best_simd_for, sweep_range, SimdLevel, SweepParams, MAX_K};
use crate::Phast;
use phast_graph::csr::ReverseArc;
use phast_graph::{Vertex, Weight, INF};
use phast_obs::{PhaseTimer, QueryStats};
use phast_pq::{DecreaseKeyQueue, IndexedBinaryHeap};

/// Sentinel in the builder's sweep-id → restricted-id scratch.
const UNSELECTED: u32 = u32::MAX;

/// Reusable scratch for building [`TargetSelection`]s over one instance.
///
/// The builder owns the `n`-sized id-remapping array; after each build it
/// is reset through the selection's vertex list, so amortized build cost
/// is proportional to the selection, not the graph. Keep one builder per
/// worker and feed it every target set that worker sees.
pub struct SelectionBuilder<'p> {
    p: &'p Phast,
    /// Sweep id → restricted id; [`UNSELECTED`] outside the selection.
    restricted_id: Vec<u32>,
    /// The DFS selection stack (may hold a vertex more than once; the
    /// assigned-check on pop deduplicates).
    stack: Vec<Vertex>,
}

impl<'p> SelectionBuilder<'p> {
    /// Creates a builder for `p` (one `O(n)` allocation, reused across
    /// every subsequent [`Self::build`]).
    pub fn new(p: &'p Phast) -> Self {
        Self {
            p,
            restricted_id: vec![UNSELECTED; p.num_vertices()],
            stack: Vec::new(),
        }
    }

    /// The instance this builder selects over.
    pub fn phast(&self) -> &'p Phast {
        self.p
    }

    /// Builds the selection for `targets` (original ids; duplicates are
    /// allowed and resolve to the same restricted vertex).
    pub fn build(&mut self, targets: &[Vertex]) -> TargetSelection<'p> {
        let p = self.p;
        let mut order: Vec<Vertex> = Vec::new();
        let mut first: Vec<u32> = vec![0];
        let mut arcs: Vec<ReverseArc> = Vec::new();
        debug_assert!(self.stack.is_empty());
        for &t in targets {
            let sw = p.to_sweep(t);
            if self.restricted_id[sw as usize] == UNSELECTED {
                self.stack.push(sw);
            }
        }
        // Postorder DFS: a vertex is popped and numbered only once every
        // tail of its incoming downward arcs is numbered. Tails have
        // strictly smaller sweep ids, so the recursion always bottoms out;
        // duplicate stack entries fall through the assigned-check.
        while let Some(&v) = self.stack.last() {
            if self.restricted_id[v as usize] != UNSELECTED {
                self.stack.pop();
                continue;
            }
            let mut ready = true;
            for a in p.down().incoming(v) {
                if self.restricted_id[a.tail as usize] == UNSELECTED {
                    self.stack.push(a.tail);
                    ready = false;
                }
            }
            if ready {
                // Every tail is numbered: emit v's arcs remapped to
                // restricted ids, then number v itself. Arc tails are
                // therefore always `<` their head's restricted id.
                for a in p.down().incoming(v) {
                    arcs.push(ReverseArc::new(
                        self.restricted_id[a.tail as usize],
                        a.weight,
                    ));
                }
                first.push(arcs.len() as u32);
                self.restricted_id[v as usize] = order.len() as u32;
                order.push(v);
                self.stack.pop();
            }
        }
        let target_pos = targets
            .iter()
            .map(|&t| self.restricted_id[p.to_sweep(t) as usize])
            .collect();
        // Reset the scratch through the selection itself — O(|selection|).
        for &v in &order {
            self.restricted_id[v as usize] = UNSELECTED;
        }
        TargetSelection {
            p,
            targets: targets.to_vec(),
            order,
            first,
            arcs,
            target_pos,
        }
    }
}

/// A target set's precomputed restriction: the downward closure of the
/// targets as a compact restricted CSR, plus the maps back to the
/// caller's world.
///
/// Invariants (checked by the differential battery, relied on by the
/// sweep kernels):
///
/// * ascending restricted id is a topological order — every restricted
///   arc's tail id is strictly smaller than its head's;
/// * every tail of a selected vertex's incoming downward arcs is itself
///   selected (closure property);
/// * `target_pos[i]` is the restricted id of `targets[i]` (duplicates in
///   `targets` share one restricted vertex).
pub struct TargetSelection<'p> {
    p: &'p Phast,
    /// Original ids of the targets, in the caller's order.
    targets: Vec<Vertex>,
    /// Sweep id of each restricted vertex, indexed by restricted id.
    order: Vec<Vertex>,
    /// Restricted CSR offsets (`len() + 1` entries).
    first: Vec<u32>,
    /// Restricted arcs; `tail` is a restricted id.
    arcs: Vec<ReverseArc>,
    /// Restricted id of each target, in the caller's order.
    target_pos: Vec<u32>,
}

impl<'p> TargetSelection<'p> {
    /// Builds the selection for `targets` with a throwaway builder. For
    /// repeated builds over the same instance keep a [`SelectionBuilder`].
    pub fn new(p: &'p Phast, targets: &[Vertex]) -> Self {
        SelectionBuilder::new(p).build(targets)
    }

    /// The instance this selection restricts.
    pub fn phast(&self) -> &'p Phast {
        self.p
    }

    /// The targets, in the order given at construction.
    pub fn targets(&self) -> &[Vertex] {
        &self.targets
    }

    /// Number of selected (restricted) vertices — the sweep work per
    /// query, for deciding whether the restriction beats a full sweep.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no vertex is selected (empty target set).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of restricted arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Sweep ids of the selected vertices, indexed by restricted id.
    pub fn order(&self) -> &[Vertex] {
        &self.order
    }
}

/// Per-query state for restricted sweeps of `k` interleaved lanes.
///
/// Independent of any one selection: the upward scratch is `n`-sized and
/// reused, the restricted label matrix is re-sized to whatever selection
/// each [`Self::run`] receives. Read results back with the *same*
/// selection that ran.
pub struct RestrictedMultiEngine<'p> {
    p: &'p Phast,
    k: usize,
    simd: SimdLevel,
    /// Upward labels in sweep ids (implicit init via `marked_up`).
    dist_up: Vec<Weight>,
    marked_up: Vec<u8>,
    queue: IndexedBinaryHeap,
    /// `len * k` restricted labels; row `j` holds restricted vertex `j`.
    dist: Vec<Weight>,
    /// One mark per restricted vertex; all-zero between runs (the sweep
    /// kernels clear marks as they finalize rows).
    marked: Vec<u8>,
    stats: QueryStats,
}

impl<'p> RestrictedMultiEngine<'p> {
    /// Creates an engine sweeping `k` restricted lanes (`1..=64`).
    pub fn new(p: &'p Phast, k: usize) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        let n = p.num_vertices();
        Self {
            p,
            k,
            simd: best_simd_for(k),
            dist_up: vec![INF; n],
            marked_up: vec![0; n],
            queue: IndexedBinaryHeap::new(n),
            dist: Vec::new(),
            marked: Vec::new(),
            stats: QueryStats::default(),
        }
    }

    /// Batch width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The kernel currently selected.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// Forces a kernel, clamped to the best one the CPU and `k` allow
    /// (same policy as [`crate::MultiTreeEngine::force_simd`]).
    pub fn force_simd(&mut self, level: SimdLevel) {
        self.simd = level.min(best_simd_for(self.k));
    }

    /// Statistics of the most recent [`Self::run`] (or the sum over every
    /// chunk of the most recent [`Self::matrix`]). The restricted sweep
    /// scans the selection as one flat block, so `levels_swept` stays 0
    /// and `blocks_executed` counts sweeps.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Phase 1 for lane `i`: ordinary upward CH search from `s` (sweep
    /// id), recording the touched trail for the reset.
    fn upward(&mut self, s: Vertex, touched: &mut Vec<Vertex>) {
        self.queue.clear();
        self.dist_up[s as usize] = 0;
        self.marked_up[s as usize] = 1;
        touched.push(s);
        self.queue.insert(s, 0);
        let mut settled: u64 = 0;
        while let Some((v, dv)) = self.queue.pop_min() {
            settled += 1;
            let out = self.p.up().out(v);
            self.stats.counters.add_upward_relaxed(out.len() as u64);
            for a in out {
                let w = a.head as usize;
                // Saturate at INF: labels stay <= INF, so no u32 wrap.
                let cand = (dv + a.weight).min(INF);
                if self.marked_up[w] == 0 {
                    self.dist_up[w] = cand;
                    self.marked_up[w] = 1;
                    touched.push(a.head);
                    self.queue.insert(a.head, cand);
                } else if cand < self.dist_up[w] {
                    self.dist_up[w] = cand;
                    self.queue.decrease_key(a.head, cand);
                }
            }
        }
        self.stats.counters.add_upward_settled(settled);
    }

    /// Runs one batch of exactly `k` sources (original ids) restricted to
    /// `sel`. Results stay in the engine until the next run; read them
    /// back with the same selection.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() != k` or `sel` was built on a different
    /// instance.
    pub fn run(&mut self, sel: &TargetSelection<'p>, sources: &[Vertex]) {
        assert_eq!(sources.len(), self.k, "batch must contain exactly k sources");
        assert!(
            std::ptr::eq(self.p, sel.phast()),
            "selection was built on a different instance"
        );
        self.stats.reset();
        self.run_accumulate(sel, sources);
    }

    /// [`Self::run`] without the stats reset, so matrix chunks sum.
    fn run_accumulate(&mut self, sel: &TargetSelection<'p>, sources: &[Vertex]) {
        let k = self.k;
        let c = sel.len();
        if self.dist.len() != c * k {
            self.dist.clear();
            self.dist.resize(c * k, INF);
            self.marked.clear();
            self.marked.resize(c, 0);
        }
        let timer = PhaseTimer::start();
        let mut touched: Vec<Vertex> = Vec::new();
        let mut cleared: u64 = 0;
        for (i, &s) in sources.iter().enumerate() {
            touched.clear();
            self.upward(self.p.to_sweep(s), &mut touched);
            // Inject upward labels into the restricted rows. Scanning the
            // selection (not the trail) needs no n-sized map here; it is
            // O(|selection|) per lane, dominated by the sweep below.
            for (j, &v) in sel.order.iter().enumerate() {
                if self.marked_up[v as usize] != 0 {
                    if self.marked[j] == 0 {
                        self.dist[j * k..(j + 1) * k].fill(INF);
                        self.marked[j] = 1;
                    }
                    self.dist[j * k + i] = self.dist_up[v as usize];
                }
            }
            cleared += touched.len() as u64;
            for &v in &touched {
                self.marked_up[v as usize] = 0;
            }
        }
        self.stats.counters.add_marks_cleared(cleared);
        self.stats.upward_time += timer.elapsed();
        let timer = PhaseTimer::start();
        let params = SweepParams {
            first: &sel.first,
            arcs: &sel.arcs,
            k,
            dist: self.dist.as_mut_ptr(),
            marked: self.marked.as_mut_ptr(),
        };
        // SAFETY: single-threaded call over the whole restricted range;
        // `dist`/`marked` are exactly `c*k` / `c` long and ascending
        // restricted id is topological (postorder construction).
        unsafe { sweep_range(self.simd, &params, 0..c) };
        self.stats
            .counters
            .add_sweep_arcs(sel.arcs.len() as u64 * k as u64);
        self.stats.counters.add_restricted_scans(c as u64);
        self.stats.counters.add_blocks_executed(1);
        self.stats.sweep_time += timer.elapsed();
    }

    /// Distance of lane `i` to `sel.targets()[t]` (after [`Self::run`]
    /// with the same selection).
    pub fn dist_of(&self, sel: &TargetSelection<'p>, i: usize, t: usize) -> Weight {
        assert!(i < self.k);
        self.dist[sel.target_pos[t] as usize * self.k + i]
    }

    /// All target distances of lane `i`, in target order.
    pub fn lane_distances(&self, sel: &TargetSelection<'p>, i: usize) -> Vec<Weight> {
        assert!(i < self.k);
        assert_eq!(
            self.dist.len(),
            sel.len() * self.k,
            "read back with the selection that ran"
        );
        sel.target_pos
            .iter()
            .map(|&pos| self.dist[pos as usize * self.k + i])
            .collect()
    }

    /// The full many-to-many matrix: one row per source (in source
    /// order), one column per target (in target order). Sources are
    /// chunked into `k`-wide restricted sweeps — the selection is built
    /// once and amortized over every chunk; short tails are padded with
    /// the chunk's first source. [`Self::stats`] afterwards holds the sum
    /// over all chunks.
    pub fn matrix(
        &mut self,
        sel: &TargetSelection<'p>,
        sources: &[Vertex],
    ) -> Vec<Vec<Weight>> {
        self.stats.reset();
        let mut rows = Vec::with_capacity(sources.len());
        let mut padded: Vec<Vertex> = Vec::with_capacity(self.k);
        for chunk in sources.chunks(self.k) {
            padded.clear();
            padded.extend_from_slice(chunk);
            padded.resize(self.k, chunk[0]);
            self.run_accumulate(sel, &padded);
            for i in 0..chunk.len() {
                rows.push(self.lane_distances(sel, i));
            }
        }
        rows
    }

    /// Number of `k`-wide sweeps [`Self::matrix`] runs for `m` sources.
    pub fn chunks_for(&self, m: usize) -> usize {
        m.div_ceil(self.k)
    }
}

/// Single-tree restricted queries: one upward search plus one sweep over
/// the selection. A thin `k = 1` wrapper over [`RestrictedMultiEngine`],
/// so the scalar and the SIMD paths share one implementation.
pub struct RestrictedEngine<'p> {
    inner: RestrictedMultiEngine<'p>,
}

impl<'p> RestrictedEngine<'p> {
    /// Creates a single-tree restricted engine over `p`.
    pub fn new(p: &'p Phast) -> Self {
        Self {
            inner: RestrictedMultiEngine::new(p, 1),
        }
    }

    /// Distances from `source` (original id) to every target of `sel`, in
    /// target order; `INF` for unreachable targets.
    pub fn distances(&mut self, sel: &TargetSelection<'p>, source: Vertex) -> Vec<Weight> {
        self.inner.run(sel, &[source]);
        self.inner.lane_distances(sel, 0)
    }

    /// Statistics of the most recent query.
    pub fn stats(&self) -> &QueryStats {
        &self.inner.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::strongly_connected_gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use phast_graph::GraphBuilder;
    use proptest::prelude::*;

    #[test]
    fn selection_ids_are_topological_and_closed() {
        let net = RoadNetworkConfig::new(16, 16, 41, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let n = net.graph.num_vertices() as Vertex;
        let sel = TargetSelection::new(&p, &[0, 7, n / 2, n - 1]);
        assert_eq!(sel.first.len(), sel.len() + 1);
        for j in 0..sel.len() {
            for a in &sel.arcs[sel.first[j] as usize..sel.first[j + 1] as usize] {
                assert!((a.tail as usize) < j, "tail {} !< head {j}", a.tail);
            }
        }
        // The restricted arc multiset of each selected vertex equals its
        // full G-down arc list (closure: no arc is dropped).
        for (j, &v) in sel.order().iter().enumerate() {
            let full: Vec<(Vertex, Weight)> = p
                .down()
                .incoming(v)
                .iter()
                .map(|a| (a.tail, a.weight))
                .collect();
            let restricted: Vec<(Vertex, Weight)> = sel.arcs
                [sel.first[j] as usize..sel.first[j + 1] as usize]
                .iter()
                .map(|a| (sel.order()[a.tail as usize], a.weight))
                .collect();
            assert_eq!(full, restricted, "restricted vertex {j}");
        }
    }

    #[test]
    fn builder_is_reusable_across_target_sets() {
        let net = RoadNetworkConfig::new(12, 12, 42, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut b = SelectionBuilder::new(&p);
        let mut e = RestrictedEngine::new(&p);
        let n = net.graph.num_vertices() as Vertex;
        for round in 0..5u32 {
            let targets: Vec<Vertex> = (0..3).map(|i| (round * 17 + i * 31) % n).collect();
            let sel = b.build(&targets);
            let fresh = TargetSelection::new(&p, &targets);
            assert_eq!(sel.order(), fresh.order(), "round {round}");
            let want = shortest_paths(net.graph.forward(), round % n).dist;
            let got = e.distances(&sel, round % n);
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(got[i], want[t as usize], "round {round}, target {t}");
            }
        }
    }

    #[test]
    fn empty_target_set_yields_empty_rows() {
        let net = RoadNetworkConfig::new(6, 6, 43, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let sel = TargetSelection::new(&p, &[]);
        assert!(sel.is_empty());
        let mut e = RestrictedEngine::new(&p);
        assert_eq!(e.distances(&sel, 0), Vec::<Weight>::new());
        let mut m = RestrictedMultiEngine::new(&p, 4);
        let rows = m.matrix(&sel, &[0, 1, 2]);
        assert_eq!(rows, vec![Vec::<Weight>::new(); 3]);
    }

    #[test]
    fn matrix_chunks_and_pads_to_every_source() {
        let net = RoadNetworkConfig::new(10, 10, 44, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let n = net.graph.num_vertices() as Vertex;
        let targets: Vec<Vertex> = vec![1, n / 3, n - 2];
        let sel = TargetSelection::new(&p, &targets);
        let mut m = RestrictedMultiEngine::new(&p, 4);
        // 7 sources over k=4: one full chunk + one padded chunk.
        let sources: Vec<Vertex> = (0..7).map(|i| (i * 13 + 2) % n).collect();
        assert_eq!(m.chunks_for(sources.len()), 2);
        let rows = m.matrix(&sel, &sources);
        assert_eq!(rows.len(), sources.len());
        for (r, &s) in sources.iter().enumerate() {
            let want = shortest_paths(net.graph.forward(), s).dist;
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(rows[r][i], want[t as usize], "{s} -> {t}");
            }
        }
    }

    #[test]
    fn all_kernels_agree_on_restricted_sweeps() {
        let net = RoadNetworkConfig::new(12, 12, 45, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let n = net.graph.num_vertices() as Vertex;
        let targets: Vec<Vertex> = (0..9).map(|i| (i * 29 + 5) % n).collect();
        let sel = TargetSelection::new(&p, &targets);
        let sources: Vec<Vertex> = (0..8).map(|i| (i * 7 + 3) % n).collect();
        let run = |level: SimdLevel| {
            let mut m = RestrictedMultiEngine::new(&p, 8);
            m.force_simd(level);
            m.matrix(&sel, &sources)
        };
        let scalar = run(SimdLevel::Scalar);
        for (r, &s) in sources.iter().enumerate() {
            let want = shortest_paths(net.graph.forward(), s).dist;
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(scalar[r][i], want[t as usize], "{s} -> {t}");
            }
        }
        if is_x86_feature_detected!("sse4.1") {
            assert_eq!(run(SimdLevel::Sse41), scalar);
        }
        if is_x86_feature_detected!("avx2") {
            assert_eq!(run(SimdLevel::Avx2), scalar);
        }
    }

    #[test]
    fn unreachable_targets_and_reused_engine_across_selections() {
        // 0 -> 1 is the only arc; 2 is isolated.
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1, 5);
        let g = b.build();
        let p = Phast::preprocess(&g);
        let mut e = RestrictedMultiEngine::new(&p, 4);
        let sel = TargetSelection::new(&p, &[1, 2]);
        let rows = e.matrix(&sel, &[0, 2]);
        assert_eq!(rows, vec![vec![5, INF], vec![INF, 0]]);
        // Same engine, different (smaller) selection: label matrix
        // re-sizes and stays correct.
        let sel2 = TargetSelection::new(&p, &[0]);
        let rows = e.matrix(&sel2, &[0, 1]);
        assert_eq!(rows, vec![vec![0], vec![INF]]);
    }

    #[test]
    fn stats_accumulate_over_matrix_chunks() {
        let net = RoadNetworkConfig::new(8, 8, 46, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let sel = TargetSelection::new(&p, &[3, 9]);
        let mut m = RestrictedMultiEngine::new(&p, 2);
        let _ = m.matrix(&sel, &[0, 1, 2, 3]);
        // Two chunks ran: settled counts from all four upward searches.
        assert!(m.stats().counters.upward_settled >= 4);
        if phast_obs::COUNTERS_ENABLED {
            assert_eq!(m.stats().counters.blocks_executed, 2);
            assert_eq!(m.stats().counters.restricted_scans, 2 * sel.len() as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The selection engines agree with Dijkstra on arbitrary random
        /// strongly-connected instances and arbitrary target sets.
        #[test]
        fn restricted_matches_dijkstra(
            n in 2usize..28,
            extra in 0usize..56,
            seed in 0u64..400,
            t_count in 1usize..8,
            k in 1usize..6,
        ) {
            let g = strongly_connected_gnm(n, extra, 25, seed);
            let p = Phast::preprocess(&g);
            let targets: Vec<Vertex> =
                (0..t_count as u64).map(|i| ((seed + i * 7) % n as u64) as Vertex).collect();
            let sel = TargetSelection::new(&p, &targets);
            let mut m = RestrictedMultiEngine::new(&p, k);
            let sources: Vec<Vertex> =
                (0..(k as u64 + 1)).map(|i| ((seed + i * 3) % n as u64) as Vertex).collect();
            let rows = m.matrix(&sel, &sources);
            for (r, &s) in sources.iter().enumerate() {
                let want = shortest_paths(g.forward(), s).dist;
                for (i, &t) in targets.iter().enumerate() {
                    prop_assert_eq!(rows[r][i], want[t as usize], "{} -> {}", s, t);
                }
            }
        }
    }
}
