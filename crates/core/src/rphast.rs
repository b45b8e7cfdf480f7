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
//! A selection is a *view* for [`MultiTreeEngine`]: queries run the
//! ordinary upward CH search (over the full `n` vertices — the upward
//! cone is tiny), copy the upward labels into the restricted rows, and
//! sweep the restricted CSR — `k` interleaved lanes through
//! [`MultiTreeEngine::run_selected`], any number of sources over one
//! selection through [`MultiTreeEngine::matrix`], a single tree through
//! the [`RestrictedEngine`] face.

use crate::{MultiTreeEngine, Phast};
use phast_graph::csr::ReverseArc;
use phast_graph::{Vertex, Weight};
use phast_obs::QueryStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// The next [`TargetSelection::id`]; 0 is the engine's full view.
static NEXT_SELECTION_ID: AtomicU64 = AtomicU64::new(1);

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
            // Relaxed: the counter publishes nothing but its own value.
            id: NEXT_SELECTION_ID.fetch_add(1, Ordering::Relaxed),
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
    /// Unique per build in this process: how an engine tells the selection
    /// that ran from any other at read-back, wherever either has moved.
    pub(crate) id: u64,
    /// Original ids of the targets, in the caller's order.
    targets: Vec<Vertex>,
    /// Sweep id of each restricted vertex, indexed by restricted id.
    pub(crate) order: Vec<Vertex>,
    /// Restricted CSR offsets (`len() + 1` entries).
    first: Vec<u32>,
    /// Restricted arcs; `tail` is a restricted id.
    arcs: Vec<ReverseArc>,
    /// Restricted id of each target, in the caller's order.
    pub(crate) target_pos: Vec<u32>,
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

    /// The restricted CSR, `(first, arcs)`: every arc's tail is a row
    /// before its head's, which the sweep kernels read tails on.
    pub(crate) fn csr(&self) -> (&[u32], &[ReverseArc]) {
        (&self.first, &self.arcs)
    }
}

/// Single-tree restricted queries: one upward search plus one sweep over
/// the selection. The `k = 1` face of [`MultiTreeEngine::run_selected`].
pub struct RestrictedEngine<'p> {
    inner: MultiTreeEngine<'p>,
}

impl<'p> RestrictedEngine<'p> {
    /// Creates a single-tree restricted engine over `p`.
    pub fn new(p: &'p Phast) -> Self {
        Self {
            inner: MultiTreeEngine::new(p, 1),
        }
    }

    /// Distances from `source` (original id) to every target of `sel`, in
    /// target order; `INF` for unreachable targets.
    pub fn distances(&mut self, sel: &TargetSelection<'p>, source: Vertex) -> Vec<Weight> {
        self.inner.run_selected(sel, &[source]);
        self.inner.lane_distances(sel, 0)
    }

    /// Statistics of the most recent query: `levels_swept` stays 0 and
    /// `blocks_executed` is 1 — the restricted sweep scans the selection
    /// as one flat block.
    pub fn stats(&self) -> &QueryStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdLevel;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::strongly_connected_gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use phast_graph::{GraphBuilder, INF};
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
        let mut m = MultiTreeEngine::new(&p, 4);
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
        let mut m = MultiTreeEngine::new(&p, 4);
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
            let mut m = MultiTreeEngine::new(&p, 8);
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
        let mut e = MultiTreeEngine::new(&p, 4);
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
        let mut m = MultiTreeEngine::new(&p, 2);
        let _ = m.matrix(&sel, &[0, 1, 2, 3]);
        // Two chunks ran: settled counts from all four upward searches.
        assert!(m.stats().counters.upward_settled >= 4);
        assert_eq!(m.stats().counters.blocks_executed, 2);
        assert_eq!(m.stats().counters.restricted_scans, 2 * sel.len() as u64);
    }

    // The single-source face over one selection.

    #[test]
    fn restricted_matches_full_sweep_on_road_network() {
        let net = RoadNetworkConfig::new(20, 20, 91, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let n = net.graph.num_vertices() as Vertex;
        let targets: Vec<Vertex> = vec![3, 77, 200, n - 1];
        let sel = TargetSelection::new(&p, &targets);
        assert!(
            sel.len() < p.num_vertices(),
            "closure should not be the whole graph"
        );
        let mut engine = RestrictedEngine::new(&p);
        for s in [0u32, 50, 333] {
            let got = engine.distances(&sel, s);
            let want = shortest_paths(net.graph.forward(), s).dist;
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(got[i], want[t as usize], "{s} -> {t}");
            }
        }
    }

    #[test]
    fn restricted_engine_is_reusable() {
        let net = RoadNetworkConfig::new(10, 10, 92, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let sel = TargetSelection::new(&p, &[5, 60]);
        let mut e = RestrictedEngine::new(&p);
        for s in 0..20u32 {
            let got = e.distances(&sel, s);
            let want = shortest_paths(net.graph.forward(), s).dist;
            assert_eq!(got, vec![want[5], want[60]], "source {s}");
        }
    }

    #[test]
    fn single_target_closure_is_small() {
        let net = RoadNetworkConfig::new(30, 30, 93, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let sel = TargetSelection::new(&p, &[17]);
        // One target's closure is its up-reachable cone — far below n.
        assert!(
            sel.len() * 2 < p.num_vertices(),
            "closure {} of {}",
            sel.len(),
            p.num_vertices()
        );
    }

    #[test]
    fn duplicate_and_source_targets() {
        let net = RoadNetworkConfig::new(8, 8, 94, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let sel = TargetSelection::new(&p, &[9, 9, 0]);
        let mut e = RestrictedEngine::new(&p);
        let got = e.distances(&sel, 0);
        let want = shortest_paths(net.graph.forward(), 0).dist;
        assert_eq!(got, vec![want[9], want[9], 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn single_source_face_matches_dijkstra_on_random_graphs(
            n in 2usize..30,
            extra in 0usize..60,
            seed in 0u64..300,
            t_count in 1usize..6,
        ) {
            let g = strongly_connected_gnm(n, extra, 25, seed);
            let p = Phast::preprocess(&g);
            let targets: Vec<Vertex> =
                (0..t_count as u64).map(|i| ((seed + i * 11) % n as u64) as Vertex).collect();
            let sel = TargetSelection::new(&p, &targets);
            let mut e = RestrictedEngine::new(&p);
            let s = (seed % n as u64) as Vertex;
            let got = e.distances(&sel, s);
            let want = shortest_paths(g.forward(), s).dist;
            for (i, &t) in targets.iter().enumerate() {
                prop_assert_eq!(got[i], want[t as usize]);
            }
        }

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
            let mut m = MultiTreeEngine::new(&p, k);
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
