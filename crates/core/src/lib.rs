//! PHAST: single-source shortest path trees by linear sweep.
//!
//! After contraction-hierarchy preprocessing, one NSSP computation is
//! (Section III):
//!
//! 1. a forward CH search from the source `s` in the upward graph `G↑`
//!    (a few hundred vertices), then
//! 2. a *linear sweep* over all vertices in descending level order,
//!    relaxing each vertex's incoming downward arcs.
//!
//! Because the sweep order is independent of `s`, this crate renumbers
//! vertices once — higher levels first, input order kept within a level
//! (Section IV-A) up to a stable sort by in-degree inside tiles of 1024
//! consecutive vertices ([`SweepOrder::ByLevelDegreeTiled`]) — so the sweep
//! reads `first`, `arclist` and the distance array almost purely
//! sequentially and its arc loop runs the same trip count row after row.
//! On top of the reordered sweep it implements every acceleration of
//! Sections IV–V:
//!
//! * implicit initialization with per-vertex visited marks (IV-C);
//! * `k` trees per sweep with interleaved distance labels (IV-B);
//! * explicit SSE4.1 and AVX2 kernels for the batched sweep;
//! * per-source multi-core parallelism and intra-level parallel sweeps (V);
//! * parent-pointer trees in `G+` and their reconstruction in the original
//!   graph (VII-A).
//!
//! Entry point: [`Phast::preprocess`] (or [`PhastBuilder`]), then
//! [`Phast::engine`] for repeated tree computations.

#![deny(unsafe_code)]

pub mod batch;
pub mod multi_tree;
pub mod parallel;
pub mod rphast;
#[allow(unsafe_code)]
pub mod simd;
pub mod sweep;
pub mod tree;

#[cfg(test)]
#[path = "../../ch/src/fixtures.rs"]
mod ch_fixtures;

use phast_ch::hierarchy::NO_MIDDLE;
use phast_ch::unpack::{self, ShortcutArcs};
use phast_ch::{contract_graph, ContractionConfig, Hierarchy};
use phast_graph::csr::{bucket_by_key, ReverseArc, ReverseCsr};
use phast_graph::{Arc, Csr, Graph, Permutation, Vertex, Weight, INF};

pub use batch::{run_hetero_batch, HeteroAnswer, HeteroQuery};
pub use multi_tree::MultiTreeEngine;
pub use parallel::{par_multi_trees, par_multi_trees_with, par_trees};
pub use rphast::{RestrictedEngine, SelectionBuilder, TargetSelection};
pub use sweep::PhastEngine;
pub use tree::TreeEngine;

/// Which direction the solver computes trees for.
///
/// A *reverse* solver computes distances **to** the source from every
/// vertex — what arc flags and reach need. It reuses the same hierarchy:
/// the upward graph of the reversed input is the stored backward graph and
/// vice versa.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Distances from the source (ordinary shortest path trees).
    Forward,
    /// Distances from every vertex *to* the source.
    Reverse,
}

/// How the second phase orders its scan — the Table I ablation.
///
/// The three `ByLevel*` orders are one order (`level_order`) at three
/// tile sizes: descending level, then tiles of that many consecutive
/// input-order vertices of the level, each tile stably sorted by the
/// in-degree of the graph the sweep relaxes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepOrder {
    /// Scan in descending rank order through the original IDs (the basic
    /// algorithm of Section III; "original ordering" in Table I).
    ByRank,
    /// Renumber vertices by descending level, input order within a level
    /// (tile 1), and sweep linearly (Section IV-A; "reordered by level" in
    /// Table I, and the baseline of the order ablation).
    ByLevel,
    /// [`Self::ByLevel`] with every tile of `DEGREE_TILE` (1024) rows of a
    /// level sorted by in-degree — the default. Rows of 1 to ~8 arcs in no
    /// pattern make the exit of the sweep's arc loop a branch the CPU
    /// mispredicts about once per row; in a sorted tile the trip count
    /// changes a handful of times per 1024 rows, and a row still sits less
    /// than one tile from its [`Self::ByLevel`] position, so the labels it
    /// reads are as local as before (DESIGN §4 has the tile table).
    ByLevelDegreeTiled,
    /// Sorted by in-degree within each whole level — the ordering Section
    /// VI *tested and rejected* for GPHAST ("this has a strong negative
    /// effect on the locality of the distance labels"); provided for the
    /// ablation that reproduces the negative result, on the simulated GPU
    /// and, once the labels leave the cache (`k = 16`), on the CPU.
    ByLevelThenDegree,
}

/// Tile of the default order, [`SweepOrder::ByLevelDegreeTiled`]: from the
/// tile table in DESIGN §4 — of {64, 256, 1024, 4096} the one that is at or
/// next to the best time both at `k = 1` (where larger is better) and at
/// `k = 16` (where the labels leave L2 and smaller is better).
const DEGREE_TILE: usize = 1024;

impl SweepOrder {
    /// Tile size of a level order; `None` for the rank order, which has
    /// no levels to tile.
    fn tile(self) -> Option<usize> {
        match self {
            SweepOrder::ByRank => None,
            SweepOrder::ByLevel => Some(1),
            SweepOrder::ByLevelDegreeTiled => Some(DEGREE_TILE),
            SweepOrder::ByLevelThenDegree => Some(usize::MAX),
        }
    }
}

/// Configures PHAST preprocessing.
#[derive(Clone, Debug)]
pub struct PhastBuilder {
    ch: ContractionConfig,
    direction: Direction,
    order: SweepOrder,
}

impl Default for PhastBuilder {
    fn default() -> Self {
        Self {
            ch: ContractionConfig::default(),
            direction: Direction::Forward,
            order: SweepOrder::ByLevelDegreeTiled,
        }
    }
}

impl PhastBuilder {
    /// Starts from defaults (forward direction, degree-tiled level order).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the contraction configuration.
    pub fn ch_config(mut self, cfg: ContractionConfig) -> Self {
        self.ch = cfg;
        self
    }

    /// Builds a reverse-direction solver.
    pub fn direction(mut self, d: Direction) -> Self {
        self.direction = d;
        self
    }

    /// Selects the sweep order (ablation; [`SweepOrder::ByLevel`] is the
    /// paper's fast configuration, [`SweepOrder::ByLevelDegreeTiled`] the
    /// default).
    pub fn order(mut self, o: SweepOrder) -> Self {
        self.order = o;
        self
    }

    /// Runs CH preprocessing and assembles the solver.
    pub fn build(self, g: &Graph) -> Phast {
        let h = contract_graph(g, &self.ch);
        self.build_with_hierarchy(g, &h)
    }

    /// Assembles the solver from an existing hierarchy (lets one hierarchy
    /// serve a forward and a reverse solver).
    pub fn build_with_hierarchy(self, g: &Graph, h: &Hierarchy) -> Phast {
        Phast::assemble(g, h, self.direction, self.order.tile())
    }
}

/// The preprocessed PHAST instance: renumbered search graphs plus the level
/// metadata the sweeps need. Immutable and shareable across threads; per
/// -query state lives in the engines.
#[derive(Clone, Debug)]
pub struct Phast {
    /// `old -> sweep` vertex renumbering.
    perm: Permutation,
    /// `sweep -> old` (inverse of `perm`).
    old_of_sweep: Vec<Vertex>,
    /// Level of each sweep vertex; non-increasing in sweep order.
    level_of_sweep: Vec<u32>,
    /// Sweep-ID ranges per level, highest level first; concatenation covers
    /// `0..n` exactly.
    level_ranges: Vec<std::ops::Range<u32>>,
    /// Upward out-arcs in sweep IDs (arc heads have *smaller* sweep IDs).
    up: Csr,
    /// Middle vertex per `up` arc ([`NO_MIDDLE`] for original arcs).
    up_middle: Vec<Vertex>,
    /// Downward incoming arcs per sweep vertex (tails have smaller IDs).
    down: ReverseCsr,
    /// Middle vertex per `down` arc.
    down_middle: Vec<Vertex>,
    /// The input graph's incoming arcs in sweep IDs (direction-adjusted),
    /// used to rebuild original-graph parent pointers.
    orig_incoming: ReverseCsr,
    direction: Direction,
    num_shortcuts: usize,
}

impl Phast {
    /// Full preprocessing with defaults: CH, then the degree-tiled level
    /// order.
    ///
    /// ```
    /// use phast_core::Phast;
    /// use phast_graph::GraphBuilder;
    ///
    /// let mut b = GraphBuilder::new(4);
    /// b.add_edge(0, 1, 10).add_edge(1, 2, 20).add_edge(2, 3, 5);
    /// let g = b.build();
    ///
    /// let solver = Phast::preprocess(&g);
    /// let mut engine = solver.engine();
    /// assert_eq!(engine.distances(0), vec![0, 10, 30, 35]);
    /// assert_eq!(engine.distances(3), vec![35, 25, 5, 0]);
    /// ```
    pub fn preprocess(g: &Graph) -> Phast {
        PhastBuilder::default().build(g)
    }

    /// The instance [`PhastBuilder::build_with_hierarchy`] would give with
    /// [`SweepOrder::ByLevelDegreeTiled`] had its tile been `tile` — for the
    /// order ablation that records the table the tile was chosen from
    /// (`experiments`), and for nothing else.
    #[doc(hidden)]
    pub fn with_degree_tile(g: &Graph, h: &Hierarchy, direction: Direction, tile: usize) -> Phast {
        assert!(tile >= 1, "a tile holds at least one vertex");
        Phast::assemble(g, h, direction, Some(tile))
    }

    /// Assembles a solver from graph + hierarchy, in the level order of
    /// the given tile size or (`None`) in rank order.
    fn assemble(g: &Graph, h: &Hierarchy, direction: Direction, tile: Option<usize>) -> Phast {
        let n = g.num_vertices();
        assert_eq!(h.num_vertices(), n, "hierarchy built for a different graph");

        // Select the search graphs by direction. For the reverse solver
        // the roles swap and every arc flips. Shortcut middle vertices
        // ride along so paths can be expanded (§VII-A).
        let (up_src, up_mid_src, down_src, down_mid_src) = match direction {
            Direction::Forward => (
                &h.forward_up,
                &h.forward_middle,
                &h.backward_up,
                &h.backward_middle,
            ),
            Direction::Reverse => (
                &h.backward_up,
                &h.backward_middle,
                &h.forward_up,
                &h.forward_middle,
            ),
        };

        let order_vec = match tile {
            Some(tile) => level_order(h, down_src, tile),
            // The basic algorithm's reverse topological order.
            None => {
                let mut by_rank: Vec<Vertex> = (0..n as Vertex).collect();
                by_rank.sort_by_key(|&v| std::cmp::Reverse(h.rank[v as usize]));
                by_rank
            }
        };
        let perm = Permutation::from_order(&order_vec);

        let level_of_sweep: Vec<u32> = order_vec
            .iter()
            .map(|&old| h.level[old as usize])
            .collect();
        let level_ranges = level_ranges_of(&level_of_sweep);

        // A hierarchy graph relabeled to sweep IDs and sorted into CSR
        // order, shortcut middles riding along: `first`, and per arc `(v,
        // u)` of `src` the arc to `u` keyed by `v`, and its middle.
        let map_mid = |m: Vertex| if m == NO_MIDDLE { NO_MIDDLE } else { perm.map(m) };
        let sorted = |src: &Csr, mids: &[Vertex]| {
            let arcs = src.iter_arcs().zip(mids);
            let list: Vec<_> = arcs
                .map(|((v, u, w), &m)| (perm.map(v), (Arc::new(perm.map(u), w), map_mid(m))))
                .collect();
            let (first, rows) = bucket_by_key(n, &list);
            let (arcs, middles): (Vec<Arc>, Vec<Vertex>) = rows.into_iter().unzip();
            (first, arcs, middles)
        };
        let (first, arcs, up_middle) = sorted(up_src, up_mid_src);
        let up = Csr::from_raw(first, arcs);
        // `down_src.out(v)` lists (v, u) with u above v; as *incoming* arcs
        // of v they are (tail u, weight), keyed by head v.
        let (first, arcs, down_middle) = sorted(down_src, down_mid_src);
        let arcs = arcs.iter().map(|a| ReverseArc::new(a.head, a.weight)).collect();
        let down = ReverseCsr::try_from_raw(first, arcs).expect("relabeled arcs stay in range");

        // Original-graph incoming arcs (flipped for the reverse solver),
        // relabeled to sweep IDs.
        let orig_list = g.forward().iter_arcs().map(|(u, v, w)| match direction {
            Direction::Forward => (perm.map(v), ReverseArc::new(perm.map(u), w)),
            Direction::Reverse => (perm.map(u), ReverseArc::new(perm.map(v), w)),
        });
        let orig_incoming = ReverseCsr::from_arc_list(n, orig_list.collect());

        let p = Phast {
            perm,
            old_of_sweep: order_vec,
            level_of_sweep,
            level_ranges,
            up,
            up_middle,
            down,
            down_middle,
            orig_incoming,
            direction,
            num_shortcuts: h.num_shortcuts,
        };
        assert_eq!(p.validate(), Ok(()), "assembled an invalid instance");
        p
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.old_of_sweep.len()
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.level_ranges.len()
    }

    /// Solver direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Number of shortcut arcs the hierarchy added.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Sweep ID of an original vertex.
    #[inline]
    pub fn to_sweep(&self, old: Vertex) -> Vertex {
        self.perm.map(old)
    }

    /// Original ID of a sweep vertex.
    #[inline]
    pub fn to_original(&self, sweep: Vertex) -> Vertex {
        self.old_of_sweep[sweep as usize]
    }

    /// The `old -> sweep` permutation.
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Upward search graph (sweep IDs).
    pub fn up(&self) -> &Csr {
        &self.up
    }

    /// Downward incoming-arc graph (sweep IDs); the sweep's `G↓`.
    pub fn down(&self) -> &ReverseCsr {
        &self.down
    }

    /// The input graph's incoming arcs in sweep IDs.
    pub fn orig_incoming(&self) -> &ReverseCsr {
        &self.orig_incoming
    }

    /// Sweep-ID ranges per level, highest level first.
    pub fn level_ranges(&self) -> &[std::ops::Range<u32>] {
        &self.level_ranges
    }

    /// Level of a sweep vertex.
    #[inline]
    pub fn level_of_sweep(&self, sweep: Vertex) -> u32 {
        self.level_of_sweep[sweep as usize]
    }

    /// Vertices per level, level 0 first (Figure 1).
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut hist: Vec<usize> = self
            .level_ranges
            .iter()
            .map(|r| (r.end - r.start) as usize)
            .collect();
        hist.reverse();
        hist
    }

    /// A single-tree engine borrowing this instance.
    pub fn engine(&self) -> PhastEngine<'_> {
        PhastEngine::new(self)
    }

    /// A `k`-trees-per-sweep engine.
    pub fn multi_engine(&self, k: usize) -> MultiTreeEngine<'_> {
        MultiTreeEngine::new(self, k)
    }

    /// A tree-building engine (parent pointers).
    pub fn tree_engine(&self) -> TreeEngine<'_> {
        TreeEngine::new(self)
    }

    /// Maps a sweep-indexed label array back to original vertex order.
    pub fn labels_to_original(&self, sweep_labels: &[Weight]) -> Vec<Weight> {
        assert_eq!(sweep_labels.len(), self.num_vertices());
        let mut out = vec![INF; sweep_labels.len()];
        for (sweep, &old) in self.old_of_sweep.iter().enumerate() {
            out[old as usize] = sweep_labels[sweep];
        }
        out
    }

    /// Structural invariants: level ranges tile `0..n`; the sweep order
    /// is topological for `G↓` with every downward arc's tail in a level
    /// before its head's — a tail precedes its head (Section IV-A) and no
    /// arc joins two vertices of one level (Lemma 4.1), the two facts the
    /// sweep kernels read tails on; and for `G↑` every arc's head precedes
    /// its tail.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        let mut covered = 0u32;
        for r in &self.level_ranges {
            if r.start != covered || r.end as usize > n {
                return Err("level ranges do not tile 0..n".into());
            }
            covered = r.end;
            for v in r.clone() {
                if let Some(a) = self.down.incoming(v).iter().find(|a| a.tail >= r.start) {
                    return Err(format!("arc tail {} not in a level before {v}'s", a.tail));
                }
                for a in self.up.out(v) {
                    if a.head >= v {
                        return Err(format!(
                            "upward arc head {} does not precede tail {v}",
                            a.head
                        ));
                    }
                }
            }
        }
        if covered as usize != n {
            return Err("level ranges do not cover all vertices".into());
        }
        Ok(())
    }

    /// Expands one `G+` arc `(from, to)` of the given weight into the
    /// underlying original-arc path in **sweep IDs** (exclusive of `from`,
    /// inclusive of `to`) with [`phast_ch::unpack::unpack_arc`] —
    /// Section VII-A's "a path in `G+` can be expanded into the
    /// corresponding path in `G` in time proportional to the number of
    /// arcs on it".
    ///
    /// # Panics
    ///
    /// Panics if `(from, to, weight)` is not an arc of the search graphs.
    pub fn unpack_arc_sweep(&self, from: Vertex, to: Vertex, weight: Weight, out: &mut Vec<Vertex>) {
        unpack::unpack_arc(self, from, to, weight, out);
    }

    /// Bytes of the sweep data structures (Table VI memory column).
    pub fn memory_bytes(&self) -> usize {
        self.up.memory_bytes()
            + self.down.memory_bytes()
            + self.orig_incoming.memory_bytes()
            + self.old_of_sweep.len() * 8
            + self.level_of_sweep.len() * 4
    }

    /// Middle vertex per `up` arc, in [`Self::up`]'s CSR arc order
    /// (`NO_MIDDLE` marks original arcs).
    pub fn up_middles(&self) -> &[Vertex] {
        &self.up_middle
    }

    /// Middle vertex per `down` arc, in [`Self::down`]'s CSR arc order.
    pub fn down_middles(&self) -> &[Vertex] {
        &self.down_middle
    }

    /// Level of every sweep vertex (non-increasing in sweep order).
    pub fn levels(&self) -> &[u32] {
        &self.level_of_sweep
    }

    /// Reassembles an instance from raw arrays (e.g. read back from a
    /// binary artifact). Every structural invariant is re-checked —
    /// bijective permutation, consistent lengths, well-formed CSRs,
    /// non-increasing levels, topological arc orientation — so corrupted
    /// input yields an error, never a panic or a silently-wrong solver.
    pub fn from_parts(parts: PhastParts) -> Result<Phast, String> {
        let perm = Permutation::try_new_segment(parts.new_of_old)?;
        let n = perm.len();
        let old_of_sweep = perm.inverse().as_slice().to_vec();

        if parts.level_of_sweep.len() != n {
            return Err("level array length does not match vertex count".into());
        }
        if parts.level_of_sweep.windows(2).any(|w| w[0] < w[1]) {
            return Err("levels are not non-increasing in sweep order".into());
        }
        let level_ranges = level_ranges_of(&parts.level_of_sweep);

        let up = Csr::try_from_segments(parts.up_first, parts.up_arcs)?;
        let down = ReverseCsr::try_from_segments(parts.down_first, parts.down_arcs)?;
        let orig_incoming = ReverseCsr::try_from_segments(parts.orig_first, parts.orig_arcs)?;
        for (name, nv) in [
            ("upward graph", up.num_vertices()),
            ("downward graph", down.num_vertices()),
            ("original incoming graph", orig_incoming.num_vertices()),
        ] {
            if nv != n {
                return Err(format!("{name} vertex count {nv} does not match {n}"));
            }
        }
        if parts.up_middle.len() != up.num_arcs() {
            return Err("upward middle array length does not match arc count".into());
        }
        if parts.down_middle.len() != down.num_arcs() {
            return Err("downward middle array length does not match arc count".into());
        }
        // One `all` per array: over a `chain` of the two, the loop keeps a
        // branch per element and runs ~5x slower.
        let in_range = |&m: &Vertex| m == NO_MIDDLE || (m as usize) < n;
        if !(parts.up_middle.iter().all(in_range) && parts.down_middle.iter().all(in_range)) {
            return Err("shortcut middle vertex out of range".into());
        }

        let p = Phast {
            perm,
            old_of_sweep,
            level_of_sweep: parts.level_of_sweep,
            level_ranges,
            up,
            up_middle: parts.up_middle,
            down,
            down_middle: parts.down_middle,
            orig_incoming,
            direction: parts.direction,
            num_shortcuts: parts.num_shortcuts,
        };
        p.validate()?;
        Ok(p)
    }
}

/// Raw arrays sufficient to reassemble a [`Phast`] via
/// [`Phast::from_parts`]. This is the exchange type for external
/// persistence layers: the large immutable arrays are
/// [`Segment`](phast_graph::Segment)s, so a binary store can hand over
/// either freshly decoded heap arrays (`Vec::into`) or slices borrowed
/// straight out of a read-only file mapping — reassembly re-validates all
/// invariants either way.
pub struct PhastParts {
    /// `old -> sweep` mapping (must be a bijection over `0..n`).
    pub new_of_old: phast_graph::Segment<Vertex>,
    /// Level per sweep vertex, non-increasing.
    pub level_of_sweep: Vec<u32>,
    /// Upward CSR index array (with sentinel).
    pub up_first: phast_graph::Segment<u32>,
    /// Upward CSR arcs.
    pub up_arcs: phast_graph::Segment<Arc>,
    /// Middle vertex per upward arc.
    pub up_middle: Vec<Vertex>,
    /// Downward CSR index array (with sentinel).
    pub down_first: phast_graph::Segment<u32>,
    /// Downward CSR incoming arcs.
    pub down_arcs: phast_graph::Segment<phast_graph::csr::ReverseArc>,
    /// Middle vertex per downward arc.
    pub down_middle: Vec<Vertex>,
    /// Original-graph incoming CSR index array (with sentinel).
    pub orig_first: phast_graph::Segment<u32>,
    /// Original-graph incoming arcs in sweep IDs.
    pub orig_arcs: phast_graph::Segment<phast_graph::csr::ReverseArc>,
    /// Solver direction.
    pub direction: Direction,
    /// Shortcut count carried from the hierarchy.
    pub num_shortcuts: usize,
}

/// The level orders: descending level, ties broken by input ID to keep the
/// input (typically DFS) locality within a level (Section IV-A); then every
/// tile of `tile` consecutive vertices of a level is stably sorted by
/// `down_src.degree` — the number of arcs the sweep relaxes at the vertex —
/// so equal degrees keep input order and no vertex leaves its tile.
fn level_order(h: &Hierarchy, down_src: &Csr, tile: usize) -> Vec<Vertex> {
    let mut order: Vec<Vertex> = (0..h.num_vertices() as Vertex).collect();
    // Stable, so input order breaks ties.
    order.sort_by_key(|&v| std::cmp::Reverse(h.level[v as usize]));
    if tile > 1 {
        for level in order.chunk_by_mut(|&a, &b| h.level[a as usize] == h.level[b as usize]) {
            for rows in level.chunks_mut(tile) {
                rows.sort_by_key(|&v| down_src.degree(v));
            }
        }
    }
    order
}

/// Contiguous ranges of equal level (works for both orders; ByRank
/// produces singleton "levels" degenerating to a sequential sweep, so only
/// ByLevel exposes real ranges).
fn level_ranges_of(level_of_sweep: &[u32]) -> Vec<std::ops::Range<u32>> {
    let mut ranges = Vec::new();
    let mut start = 0;
    for chunk in level_of_sweep.chunk_by(|a, b| a == b) {
        ranges.push(start..start + chunk.len() as u32);
        start += chunk.len() as u32;
    }
    ranges
}

/// Sweep IDs put the higher vertex first: arcs up are `up`'s, arcs from
/// above are `down`'s incoming arcs.
impl ShortcutArcs for Phast {
    fn arcs_up(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight, Vertex)> + '_ {
        let middles = &self.up_middle[self.up.arc_range(v)];
        let arcs = self.up.out(v).iter().zip(middles);
        arcs.map(|(a, &m)| (a.head, a.weight, m))
    }

    fn arcs_down(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight, Vertex)> + '_ {
        let middles = &self.down_middle[self.down.arc_range(v)];
        let arcs = self.down.incoming(v).iter().zip(middles);
        arcs.map(|(a, &m)| (a.tail, a.weight, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    #[test]
    fn builder_produces_valid_instance() {
        let net = RoadNetworkConfig::new(16, 16, 1, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        p.validate().unwrap();
        assert_eq!(p.num_vertices(), net.graph.num_vertices());
        assert!(p.num_levels() > 1);
        assert_eq!(
            p.level_histogram().iter().sum::<usize>(),
            p.num_vertices()
        );
    }

    #[test]
    fn sweep_ids_roundtrip() {
        let net = RoadNetworkConfig::new(8, 8, 2, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        for v in 0..p.num_vertices() as Vertex {
            assert_eq!(p.to_sweep(p.to_original(v)), v);
        }
    }

    #[test]
    fn levels_non_increasing_in_sweep_order() {
        let net = RoadNetworkConfig::new(12, 12, 3, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        for v in 1..p.num_vertices() as Vertex {
            assert!(p.level_of_sweep(v - 1) >= p.level_of_sweep(v));
        }
    }

    #[test]
    fn reverse_direction_also_validates() {
        let net = RoadNetworkConfig::new(10, 10, 4, Metric::TravelTime).build();
        let p = PhastBuilder::new()
            .direction(Direction::Reverse)
            .build(&net.graph);
        p.validate().unwrap();
    }

    #[test]
    fn by_rank_order_validates() {
        let net = RoadNetworkConfig::new(10, 10, 5, Metric::TravelTime).build();
        let p = PhastBuilder::new().order(SweepOrder::ByRank).build(&net.graph);
        p.validate().unwrap();
    }

    /// The tiles of a level order: the rows of every level in runs of
    /// `tile`, the last run of a level shorter.
    fn tiles(p: &Phast, tile: usize) -> Vec<Vec<Vertex>> {
        let mut out = Vec::new();
        for level in p.level_ranges() {
            let rows: Vec<Vertex> = level.clone().collect();
            out.extend(rows.chunks(tile).map(<[Vertex]>::to_vec));
        }
        out
    }

    /// Rows of `p` relaxing their arcs in non-decreasing number inside
    /// every tile.
    fn assert_tiles_sorted(p: &Phast, tile: usize, tag: &str) {
        for t in tiles(p, tile) {
            let degrees: Vec<usize> = t.iter().map(|&v| p.down().degree(v)).collect();
            assert!(degrees.is_sorted(), "{tag}: rows {t:?} relax {degrees:?}");
        }
    }

    /// A network whose lowest level spans several default tiles, with its
    /// hierarchy.
    fn tiled_network() -> (Graph, Hierarchy) {
        let g = RoadNetworkConfig::new(90, 90, 6, Metric::TravelTime)
            .build()
            .graph;
        let h = contract_graph(&g, &ContractionConfig::default());
        assert!(h.level.iter().filter(|&&l| l == 0).count() > 2 * DEGREE_TILE);
        (g, h)
    }

    /// Each direction is sorted by the in-degree of the graph *it* sweeps
    /// (the whole-level order used to key on the forward instance's).
    #[test]
    fn tiles_are_sorted_by_the_degree_of_the_swept_graph() {
        let (g, h) = tiled_network();
        for direction in [Direction::Forward, Direction::Reverse] {
            for (order, tile) in [
                (SweepOrder::ByLevelDegreeTiled, DEGREE_TILE),
                (SweepOrder::ByLevelThenDegree, usize::MAX),
            ] {
                let p = PhastBuilder::new()
                    .direction(direction)
                    .order(order)
                    .build_with_hierarchy(&g, &h);
                p.validate().unwrap();
                assert_tiles_sorted(&p, tile, &format!("{direction:?} {order:?}"));
            }
        }
    }

    /// The locality bound, asserted: a tile of the tiled order holds the
    /// vertices of the same rows of the `ByLevel` order, so no vertex moves
    /// `tile` rows or more; equal degrees keep input order; a level shorter
    /// than a tile is sorted whole; levels and their ranges are those of
    /// `ByLevel`.
    #[test]
    fn a_tile_permutes_the_same_rows_of_the_level_order() {
        let (g, h) = tiled_network();
        let by_level = PhastBuilder::new()
            .order(SweepOrder::ByLevel)
            .build_with_hierarchy(&g, &h);
        for tile in [1, 8, 100, DEGREE_TILE, usize::MAX] {
            let p = Phast::with_degree_tile(&g, &h, Direction::Forward, tile);
            p.validate().unwrap();
            assert_eq!(p.levels(), by_level.levels(), "tile {tile}");
            assert!(p.levels().windows(2).all(|w| w[0] >= w[1]));
            assert_eq!(p.level_ranges(), by_level.level_ranges(), "tile {tile}");
            assert_eq!(
                p.level_ranges().iter().map(|r| r.len()).sum::<usize>(),
                p.num_vertices()
            );
            assert_tiles_sorted(&p, tile, &format!("tile {tile}"));
            let mut short_levels = 0;
            for t in tiles(&p, tile) {
                short_levels += usize::from(t.len() < tile && t.len() > 1);
                let mut moved: Vec<Vertex> = t.iter().map(|&v| p.to_original(v)).collect();
                moved.sort_unstable();
                let stayed: Vec<Vertex> = t.iter().map(|&v| by_level.to_original(v)).collect();
                assert_eq!(moved, stayed, "tile {tile}: rows {t:?}");
                for w in t.windows(2) {
                    if p.down().degree(w[0]) == p.down().degree(w[1]) {
                        assert!(
                            p.to_original(w[0]) < p.to_original(w[1]),
                            "tile {tile}: {w:?}"
                        );
                    }
                }
            }
            if tile == DEGREE_TILE {
                assert!(short_levels > 0, "no level shorter than a tile");
            }
        }
        // Tile 1 is the `ByLevel` order itself; the default is the tiled.
        let one = Phast::with_degree_tile(&g, &h, Direction::Forward, 1);
        assert_eq!(one.permutation(), by_level.permutation());
        let default = PhastBuilder::new().build_with_hierarchy(&g, &h);
        let tiled = Phast::with_degree_tile(&g, &h, Direction::Forward, DEGREE_TILE);
        assert_eq!(default.permutation(), tiled.permutation());
        assert_ne!(default.permutation(), by_level.permutation());
    }

    /// Builds `f`'s hierarchy into a `Phast` and unpacks `f.arc` twice:
    /// through `unpack_arc_sweep`, and as the tree path from the arc's
    /// tail to its head.
    fn unpack_through_phast(f: &ch_fixtures::Unpack) {
        let p = PhastBuilder::new().build_with_hierarchy(&f.graph, &f.h);
        let (from, to, weight) = f.arc;
        let mut sweep = Vec::new();
        p.unpack_arc_sweep(p.to_sweep(from), p.to_sweep(to), weight, &mut sweep);
        let path: Vec<Vertex> = sweep.iter().map(|&v| p.to_original(v)).collect();
        f.check(&path);
        let mut trees = p.tree_engine();
        trees.run(from);
        let tree_path = trees.path_to(to).expect("the arc's head is reachable");
        assert_eq!(tree_path[0], from);
        f.check(&tree_path[1..]);
    }

    #[test]
    fn unpack_pairs_parallel_arc_halves_correctly() {
        unpack_through_phast(&ch_fixtures::parallel_arc_halves());
    }

    #[test]
    fn unpack_survives_deep_shortcut_chains() {
        unpack_through_phast(&ch_fixtures::deep_shortcut_chain());
    }

    /// The arrays of `p`, for `from_parts`.
    fn parts_of(p: &Phast) -> PhastParts {
        PhastParts {
            new_of_old: p.permutation().as_slice().to_vec().into(),
            level_of_sweep: p.levels().to_vec(),
            up_first: p.up().first().to_vec().into(),
            up_arcs: p.up().arcs().to_vec().into(),
            up_middle: p.up_middles().to_vec(),
            down_first: p.down().first().to_vec().into(),
            down_arcs: p.down().arcs().to_vec().into(),
            down_middle: p.down_middles().to_vec(),
            orig_first: p.orig_incoming().first().to_vec().into(),
            orig_arcs: p.orig_incoming().arcs().to_vec().into(),
            direction: p.direction(),
            num_shortcuts: p.num_shortcuts(),
        }
    }

    /// Lemma 4.1 is checked: a real instance whose levels are flattened
    /// into one still has every tail before its head, but its one level
    /// holds arcs, which an intra-level block would race on — so
    /// `from_parts` refuses it.
    #[test]
    fn from_parts_rejects_arcs_inside_one_level() {
        let net = RoadNetworkConfig::new(20, 20, 7, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut parts = parts_of(&p);
        parts.level_of_sweep.fill(0);
        let err = Phast::from_parts(parts).expect_err("one level holding arcs is refused");
        assert!(err.contains("not in a level before"), "{err}");
    }

    /// Two builds give the same tiled instance, and `from_parts` — the
    /// store's way in — takes its arrays back.
    #[test]
    fn tiled_order_is_deterministic_and_reassembles() {
        let (g, h) = tiled_network();
        let p = PhastBuilder::new().build_with_hierarchy(&g, &h);
        let again = PhastBuilder::new().build(&g);
        assert_eq!(p.permutation(), again.permutation());
        assert_eq!(p.down().arcs(), again.down().arcs());

        let rebuilt = Phast::from_parts(parts_of(&p)).expect("a tiled instance reassembles");
        assert_eq!(rebuilt.permutation(), p.permutation());
        assert_eq!(rebuilt.level_ranges(), p.level_ranges());
        assert_eq!(rebuilt.engine().distances(17), p.engine().distances(17));
    }
}
